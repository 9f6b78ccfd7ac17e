"""Per-slot action functions: heuristics per vehicle, and every kind against
the per-agent reference in `reference_policies`, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_policies as ref
from helpers import cli_env, corner_env, make_env
from vtmigsim import msrl
from vtmigsim.policies import (
    FULL_MIGRATION,
    KINDS,
    LEARNED_KINDS,
    RANDOM_MIGRATION,
    SPLIT,
    make_act_fn,
    nearby_radius,
)


def test_heuristics_read_serving_and_radius_per_slot():
    env = make_env(n_rsu=4, n_veh=3, horizon=8)
    full = make_act_fn(FULL_MIGRATION, env)
    rand = make_act_fn(RANDOM_MIGRATION, env, rng=np.random.default_rng(0))
    rsu_xy = env.rsu_xy
    radius = nearby_radius(env)
    for slot in range(env.cfg.horizon):
        full_actions, full_params = full(None, slot)
        rand_actions, rand_params = rand(None, slot)
        assert full_params.tolist() == rand_params.tolist() == [0.0] * env.V
        for v in range(env.V):
            x, y = env.xy[slot, v]
            d = np.hypot(rsu_xy[:, 0] - x, rsu_xy[:, 1] - y)
            assert full_actions[v] == int(np.argmin(d))
            assert d[rand_actions[v]] <= radius or np.all(d > radius)


def nearby_counts(env):
    rsu_xy = env.rsu_xy
    d = np.hypot(rsu_xy[:, 0] - env.xy[..., :1], rsu_xy[:, 1] - env.xy[..., 1:])
    return (d <= nearby_radius(env)).sum(axis=2)


def run_recorded(env, act, episodes, seed_base):
    """run_episodes with every slot's (actions, params) and metrics records."""
    slots, rows = [], []

    def recording(obs, slot):
        actions, params = act(obs, slot)
        slots.append((np.array(actions), np.array(params)))
        return actions, params

    def on_slot(ep, slot, metrics):
        rows.append(metrics.tolist())

    return msrl.run_episodes(env, recording, episodes, seed_base, on_slot), slots, rows


# Per scenario, a thr0 inside the client entropy range of the bundle below;
# with flutter_limit 0 the client path, the server path and holds all occur.
SCENARIOS = {"corner": (lambda tmp_path: corner_env(), 1.35), "cli": (cli_env, 1.085)}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("kind", KINDS)
def test_per_slot_act_matches_per_agent_reference(tmp_path, monkeypatch, scenario, kind):
    build, thr0 = SCENARIOS[scenario]
    env = build(tmp_path)
    bundle = None
    if kind in LEARNED_KINDS:
        cfg = msrl.TrainConfig(seed=4, mode=LEARNED_KINDS[kind], thr0=thr0, change=1e-4,
                               window=3, hold=2, flutter_limit=0)
        bundle = msrl.make_bundle(env.obs_dim, env.E, env.V, cfg)
        # Spread the agents' entropies apart.
        bundle.actor.client_head.biases[0][...] = np.random.default_rng(5).normal(
            scale=0.3, size=(env.V, env.E))
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    reference = ref.make_act_fn(kind, env, bundle=bundle, rng=ref_rng)

    controllers, duals = {}, []
    select = msrl.SwitchController.select

    def spy(self, entropy):
        controllers.setdefault(id(self), self)
        choice, dual = select(self, entropy)
        duals.append(dual)
        return choice, dual

    monkeypatch.setattr(msrl.SwitchController, "select", spy)
    act = make_act_fn(kind, env, bundle=bundle, rng=rng)
    # Two calls on one action function, as compare runs its episodes: the
    # controllers and the RNG carry over.
    active = []
    for seed_base in (100, 200):
        got = run_recorded(env, act, 2, seed_base)
        want = run_recorded(env, ref.per_slot(reference), 2, seed_base)
        assert got[0].tolist() == want[0].tolist()
        assert len(got[1]) == len(want[1]) == 2 * env.cfg.horizon
        for (actions, params), (ref_actions, ref_params) in zip(got[1], want[1]):
            assert actions.dtype == ref_actions.dtype and params.dtype == ref_params.dtype
            assert actions.tolist() == ref_actions.tolist()
            assert params.tolist() == ref_params.tolist()
        assert got[2] == want[2]
        active += [p for _, p in got[1]]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if kind == SPLIT:
        new = [c for c in controllers.values() if all(c is not r for r in reference.controllers)]
        assert len(new) == env.V
        for c, r in zip(new, reference.controllers):
            assert vars(c) == vars(r)
        assert all(c.calls == 0 for c in bundle.controllers)  # evaluation ran on copies
        assert set(np.concatenate(active).tolist()) == set(bundle.actor.path_params.tolist())
        assert any(duals)


@pytest.mark.parametrize("kind", KINDS)
def test_one_call_of_n_episodes_equals_n_one_episode_calls(monkeypatch, kind):
    """compare takes per-episode means from one run_episodes call: it must give the
    arrays of one-episode calls at seed_base + k on one act function, whose split
    controller copies and random generator carry from one episode to the next."""
    env = corner_env()
    bundle = None
    if kind in LEARNED_KINDS:
        # thr0 1.33 gives both paths and flutter holds on this scenario.
        cfg = msrl.TrainConfig(seed=4, mode=LEARNED_KINDS[kind], thr0=1.33, change=1e-4,
                               window=3, hold=2, flutter_limit=1)
        bundle = msrl.make_bundle(env.obs_dim, env.E, env.V, cfg)
        bundle.actor.client_head.biases[0][...] = np.random.default_rng(5).normal(
            scale=0.3, size=(env.V, env.E))
    duals = []
    select = msrl.SwitchController.select

    def spy(self, entropy):
        choice, dual = select(self, entropy)
        duals.append(dual)
        return choice, dual

    monkeypatch.setattr(msrl.SwitchController, "select", spy)
    one, each, fresh = (
        make_act_fn(kind, env, bundle=bundle, rng=np.random.default_rng(7)) for _ in range(3))
    episodes, slots = 3, env.cfg.horizon * env.V
    columns = msrl.run_episodes(env, one, episodes, 100)
    assert columns.dtype == np.float64 and columns.shape == (5, episodes, slots)
    for k in range(episodes):
        single = msrl.run_episodes(env, each, 1, 100 + k)
        assert single.shape == (5, 1, slots)
        assert single.tobytes() == columns[:, k:k + 1].tobytes()
    if kind == SPLIT:
        assert any(duals)  # a flutter hold
        assert set(columns[4].ravel().tolist()) == set(bundle.actor.path_params.tolist())
    if kind in (SPLIT, RANDOM_MIGRATION):
        # The carried state matters: a new act function per episode acts otherwise.
        later = msrl.run_episodes(env, fresh, 1, 100 + episodes - 1)
        assert later.tobytes() != columns[:, -1:].tobytes()


def controller_state(c):
    return c.calls, c.server_calls, c.hold_remaining, list(c.entropy_window), c.last, list(c.flags)


def test_split_evaluation_runs_on_independent_copies_of_the_controllers():
    env = corner_env()
    cfg = msrl.TrainConfig(seed=4, mode="split", thr0=1.32, change=1e-4, window=3, hold=2,
                           flutter_limit=1)
    bundle = msrl.make_bundle(env.obs_dim, env.E, env.V, cfg)
    bundle.actor.client_head.biases[0][...] = np.random.default_rng(5).normal(
        scale=0.3, size=(env.V, env.E))
    for entropy in (1.4, 1.2, 1.4, 1.2, 1.2):  # a flutter hold and its end
        for c in bundle.controllers:
            c.select(entropy)
    before = [controller_state(c) for c in bundle.controllers]
    first, second = msrl.greedy_act_fn(bundle, SPLIT), msrl.greedy_act_fn(bundle, SPLIT)
    got = run_recorded(env, first, 2, 100)
    assert [controller_state(c) for c in bundle.controllers] == before
    # The second function's copies start where the bundle's controllers stand,
    # whatever the first function's copies did.
    want = run_recorded(env, second, 2, 100)
    assert got[0].tolist() == want[0].tolist()
    assert [(a.tolist(), p.tolist()) for a, p in got[1]] == [
        (a.tolist(), p.tolist()) for a, p in want[1]]
    assert len({p for _, params in got[1] for p in params.tolist()}) == 2  # both paths ran

    c = bundle.controllers[0]
    twin = c.copy()
    assert vars(twin) == vars(c)
    assert twin.entropy_window is not c.entropy_window and twin.flags is not c.flags
    twin.select(5.0)
    assert controller_state(c) == before[0] != controller_state(twin)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bounds=st.lists(st.one_of(st.integers(1, 20), st.integers(1, 2**40)), min_size=1, max_size=40),
    skip=st.integers(0, 3),
)
@example(seed=0, bounds=[1], skip=0)
@example(seed=1, bounds=[1, 1, 4, 1], skip=1)
def test_vector_bounded_draw_equals_scalar_draws(seed, bounds, skip):
    """Random migration draws once per slot with per-vehicle bounds; numpy
    must give the values and the generator state of one scalar draw per
    vehicle, in order, including bound-1 vehicles, which draw nothing."""
    vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for g in (vector, scalar):
        g.random(skip)  # start at varied stream positions
    drawn = vector.integers(0, np.array(bounds))
    assert drawn.tolist() == [int(scalar.integers(0, b)) for b in bounds]
    assert vector.bit_generator.state == scalar.bit_generator.state


def test_vector_bounded_draw_on_random_migration_counts():
    """The same on the counts the random policy draws with: the all-RSU
    fallback of a vehicle with none nearby, and bound-1 vehicles."""
    env = corner_env()
    counts = nearby_counts(env)
    assert counts[0].tolist() == [4, 1, 0, 2]
    counts = np.where(counts == 0, env.E, counts)
    vector, scalar = np.random.default_rng(3), np.random.default_rng(3)
    for row in counts:
        assert vector.integers(0, row).tolist() == [int(scalar.integers(0, b)) for b in row]
        assert vector.bit_generator.state == scalar.bit_generator.state
