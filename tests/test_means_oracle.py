"""Eval's five means, episode statistics and eval metrics rows against the
per-vehicle reference in `reference_means`, every field with `==`."""

import numpy as np
import pytest

import reference_means as ref
from helpers import cli_env, corner_env, make_env
from vtmigsim import envsim, msrl
from vtmigsim.policies import KINDS, LEARNED_KINDS, make_act_fn


def wide_env(tmp_path):
    """128 vehicles on four RSUs, with loads tight enough to remap."""
    return make_env(n_rsu=4, n_veh=128, horizon=6, max_load=3e9, warmup_slots=3,
                    background_mean=0.3, request_bits=1e5, result_bits=2e5)


# Per scenario, a thr0 inside the client entropy range of the bundle below,
# so that both paths act in every episode.
SCENARIOS = {
    "corner": (lambda tmp_path: corner_env(), 1.35),
    "cli": (cli_env, 1.085),
    "v128": (wide_env, 1.35),
}


def bundle_for(env, mode, thr0):
    cfg = msrl.TrainConfig(seed=4, mode=mode, thr0=thr0, change=1e-4, window=3, hold=2,
                           flutter_limit=1)
    bundle = msrl.make_bundle(env.obs_dim, env.E, env.V, cfg)
    # Spread the agents' entropies apart.
    bundle.actor.client_head.biases[0][...] = np.random.default_rng(5).normal(
        scale=0.3, size=(env.V, env.E))
    return bundle


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("kind", KINDS)
def test_eval_summary_and_rows_match_per_vehicle_reference(tmp_path, scenario, kind):
    build, thr0 = SCENARIOS[scenario]
    env = build(tmp_path)
    bundle = bundle_for(env, LEARNED_KINDS[kind], thr0) if kind in LEARNED_KINDS else None
    # Two action functions in the same state: the learned ones copy the
    # controllers, and the random one gets its own generator.
    act, ref_act = (
        make_act_fn(kind, env, bundle=bundle, rng=np.random.default_rng(7)) for _ in range(2)
    )
    rows, ref_rows, ref_values = [], [], []

    def on_slot(ep, slot, metrics):
        records = metrics[envsim.METRICS_FIELDS].tolist()
        rows.extend(envsim.METRICS_ROW % (ep, slot, v, *r) for v, r in enumerate(records))

    def on_vehicle(ep, slot, v, m):
        ref_rows.append(",".join(map(str, ref.metrics_row(ep, slot, v, m))) + "\n")
        ref_values.append([m.reward, m.qoe, m.t_total, m.err_rate])

    columns = msrl.run_episodes(env, act, 2, 100, on_slot)
    want = ref.run_episodes(env, ref_act, 2, 100, on_vehicle)
    assert columns.shape == (5, 2, env.cfg.horizon * env.V)
    assert tuple(columns.reshape(5, -1).mean(axis=1).tolist()) == want  # as cmd_eval takes them
    # Slots in order, vehicles in id order within a slot.
    assert columns[:4].reshape(4, -1).T.tolist() == ref_values
    assert len(rows) == 2 * env.cfg.horizon * env.V
    assert rows == ref_rows


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("mode", msrl.MODES)
def test_episode_stats_match_per_vehicle_reference(tmp_path, monkeypatch, scenario, mode):
    build, thr0 = SCENARIOS[scenario]
    env = build(tmp_path)
    bundle = bundle_for(env, mode, thr0)
    slots = ref.record_slots(monkeypatch, env)
    action_rng = np.random.default_rng([4, 2])
    for episode in range(2):  # the second starts from moved thresholds
        slots.clear()
        buffer = msrl.collect_episode(env, bundle, mode, action_rng, episode)
        assert len(slots) == env.cfg.horizon
        got = msrl._episode_stats(episode, buffer, bundle)
        assert got == ref.episode_stats(episode, buffer, bundle, slots)
        if mode == "split":
            assert 0 < got.server_ratio < 1
