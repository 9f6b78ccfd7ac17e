"""Per-slot action functions: heuristics per vehicle, and every kind against
the per-agent reference in `reference_policies`, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_policies as ref
from helpers import line_trajectory, make_env, write_cli_scenario
from vtmigsim import envsim, msrl
from vtmigsim.configio import load_kv
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
    rsu_xy = np.array([[r.pos.x, r.pos.y] for r in env.rsus])
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


def corner_env():
    """Four RSUs on a 1 km square (nearby radius 2 km) and four vehicles with
    4, 1, 0 and 2 RSUs nearby at the start; the one with none picks among all."""
    tracks = [
        line_trajectory(0, 400.0, 300.0, 3.0, 2.0),
        line_trajectory(1, -1200.0, -1200.0, 0.5, 0.0),
        line_trajectory(2, 5000.0, 5000.0, 1.0, 1.0),
        line_trajectory(3, -1000.0, 500.0, 0.0, 1.0),
    ]
    return make_env(n_rsu=4, n_veh=4, horizon=20, trajectories=tracks, max_load=2e9,
                    warmup_slots=3, background_mean=0.3)


def cli_env(tmp_path):
    return envsim.build_env(load_kv(write_cli_scenario(tmp_path)))


def nearby_counts(env):
    rsu_xy = np.array([[r.pos.x, r.pos.y] for r in env.rsus])
    d = np.hypot(rsu_xy[:, 0] - env.xy[..., :1], rsu_xy[:, 1] - env.xy[..., 1:])
    return (d <= nearby_radius(env)).sum(axis=2)


def run_recorded(env, act, episodes, seed_base):
    """run_episodes with every slot's (actions, params) and metrics rows."""
    slots, rows = [], []

    def recording(obs, slot):
        actions, params = act(obs, slot)
        slots.append((np.array(actions), np.array(params)))
        return actions, params

    def on_slot(ep, slot, v, m):
        rows.append(envsim.metrics_row(ep, slot, v, m))

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
        assert got[0] == want[0]
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
        assert set(np.concatenate(active).tolist()) == {bundle.client_params(), bundle.full_params()}
        assert any(duals)


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
