import math
import re

import numpy as np
import pytest

from helpers import RSU_POSITIONS, denormalize_observation, line_trajectory, make_env, with_columns

from vtmigsim.envsim import ActionError, ChannelParams, EnvConfig, PremigrationEnv


# --- channel and rates ---

def test_rate_equals_bandwidth_at_unit_snr():
    env = make_env(bw=2e6)
    h = env.channel_gain(0, *env.xy[0, 0])
    # retune noise so p*h/sigma^2 == 1 exactly
    env = make_env(bw=2e6, noise=0.1 * h)
    uplink_rate = env.bw_up[0] * env.spectral_efficiency(0, 0, *env.xy[0, 0])
    assert uplink_rate == pytest.approx(2e6, rel=1e-12)


def test_gain_quarter_on_distance_doubling():
    # h = A*(c/(4 pi f d))^2 is an inverse-square law in d
    env = make_env(trajectories=[line_trajectory(0, 100.0, 0.0, 0.0, 0.0)])
    h1 = env.channel_gain(0, *env.xy[0, 0])
    env2 = make_env(trajectories=[line_trajectory(0, 200.0, 0.0, 0.0, 0.0)])
    h2 = env2.channel_gain(0, *env2.xy[0, 0])
    assert h1 / h2 == pytest.approx(4.0, rel=1e-12)


def test_rate_matches_independent_evaluation():
    # A=1, f=2.4e9, d=100 m, p=0.1 W, sigma^2=1e-9 W, B=1e6 Hz, c=3e8 m/s
    env = make_env(
        bw=1e6,
        noise=1e-9,
        tx_power=0.1,
        trajectories=[line_trajectory(0, 100.0, 0.0, 0.0, 0.0)],
        channel=ChannelParams(gain_coeff=1.0, carrier=2.4e9, light_speed=3e8),
    )
    expected = 1e6 * math.log2(1.0 + 0.1 * (3e8 / (4 * math.pi * 2.4e9 * 100.0)) ** 2 / 1e-9)
    assert expected == pytest.approx(992380.2892503546, rel=1e-12)
    uplink_rate = env.bw_up[0] * env.spectral_efficiency(0, 0, *env.xy[0, 0])
    assert uplink_rate == pytest.approx(expected, rel=1e-9)


def test_colocated_distance_clamped():
    env = make_env(trajectories=[line_trajectory(0, 0.0, 0.0, 0.0, 0.0)])
    assert env.distance(0, *env.xy[0, 0]) == 1.0


# --- transmission latencies ---

def test_uplink_zero_request():
    env = make_env(request_bits=0.0)
    t_up, _ = env.transmission_latencies(0, np.array([0]), np.array([0]))
    assert t_up == 0.0


def test_uplink_latency_arithmetic():
    env = make_env(bw=2e6, request_bits=1e6)
    h = env.channel_gain(0, *env.xy[0, 0])
    env = make_env(bw=2e6, request_bits=1e6, noise=0.1 * h)  # rate = 2e6 b/s
    t_up, _ = env.transmission_latencies(0, np.array([0]), np.array([0]))
    assert t_up == pytest.approx(0.5, rel=1e-12)


def test_downlink_single_term_when_target_is_serving():
    env = make_env(result_bits=1e5)
    # links of vehicle 0 to RSU 0 (serving) and RSU 1 (target)
    _, (t_down_same, t_down_target) = env.transmission_latencies(
        0, np.array([0, 0]), np.array([0, 1])
    )
    t_down_two = t_down_same + t_down_target
    assert t_down_same > 0
    assert t_down_two > t_down_same  # second RSU adds a term


def test_link_whose_rate_rounds_to_zero_is_rejected():
    # 1e11 m from the RSUs, 1 + SNR rounds to 1: a request could never arrive.
    far = [line_trajectory(0, 1e11, 0.0, 0.0, 0.0)]
    with pytest.raises(ValueError, match="rounds to 1"):
        make_env(request_bits=1e5, trajectories=far)
    env = make_env(trajectories=far)  # nothing to send, so nothing to reject
    assert env.t_up[0, 0] == env.t_down_serving[0, 0] == 0.0


def test_link_out_of_reach_at_its_farthest_slot_is_rejected_at_build():
    # 1 + SNR rounds to 1 past about 9.5e9 m. The vehicle runs from x = 0 to
    # 9e9 m, served by RSU 0 throughout; RSU 1 sits at x = -1e9 m, so its link
    # is in reach at slot 0 and out of reach at slot 9.
    base = make_env(trajectories=[line_trajectory(0, 0.0, 0.0, 1e9, 0.0)])
    rsu_xy = base.rsu_xy.copy()
    rsu_xy[1] = -1e9, 0.0

    def build(result_bits):
        return with_columns(base, rsu_xy=rsu_xy, result_bits=np.full((1, 2), result_bits))

    with pytest.raises(ValueError, match="rounds to 1, .*: vehicle 0 and RSU 1 at slot 9"):
        build(1e5)
    env = build(0.0)  # nothing to send back, so nothing to reject
    assert (env.serving == 0).all()
    assert env.spectral_efficiency(0, 1, *env.xy[0, 0]) > 0


# --- migration latency ---

def _migrated_bits(env, v=0, slot=0):
    """The share of vehicle v's task that `step` migrates at `slot`."""
    return env.cfg.alpha * env.task_bits[slot, v]


def test_migration_zero_alpha():
    env = make_env(alpha=0.0)
    assert env.migration_latency(_migrated_bits(env), 0, 1) == 0.0


def test_migration_arithmetic():
    env = make_env(alpha=0.5, task_bits=16e6, backhaul=1e8)
    # migrated volume 8e6 bits over 1e8 b/s
    assert _migrated_bits(env) == 8e6
    assert env.migration_latency(_migrated_bits(env), 0, 1) == pytest.approx(0.08, rel=1e-12)


def test_migration_self_is_free():
    env = make_env(alpha=0.9)
    assert env.migration_latency(_migrated_bits(env), 1, 1) == 0.0


# --- rendering sizes ---

def test_rendering_reuse_case():
    xi_local, xi_mig = PremigrationEnv.rendering_sizes(
        d_local=6e6, d_mig=4e6, mu=0.5,
        same_serving=True, same_target=False,
        prev_local_bits=6e6, prev_mig_bits=2e6,
    )
    assert xi_local == pytest.approx(3e6)
    assert xi_mig == pytest.approx(4e6)


def test_rendering_no_reuse_on_serving_change():
    xi_local, _ = PremigrationEnv.rendering_sizes(
        6e6, 4e6, 0.5, same_serving=False, same_target=False,
        prev_local_bits=6e6, prev_mig_bits=0.0,
    )
    assert xi_local == pytest.approx(6e6)


def test_rendering_clamped_nonnegative():
    xi_local, xi_mig = PremigrationEnv.rendering_sizes(
        0.5e6, 0.5e6, 1.0, True, True, prev_local_bits=1e7, prev_mig_bits=1e7
    )
    assert xi_local == 0.0 and xi_mig == 0.0


# --- processing latency ---

def test_parallel_processing_max():
    env = make_env(n_rsu=2)
    # craft loads/sizes so t_serv=0.5, t_targ=0.3, t_mig=0.4
    loads = np.array([0.5e9, 0.3e9])
    t_s, t_t, t_p = env.processing_latencies(0, 0, 1, 0.0, 0.0, 0.4, loads)
    assert t_s == pytest.approx(0.5)
    assert t_t == pytest.approx(0.3)
    assert t_p == pytest.approx(0.7)


def test_processing_degenerate_same_rsu_zero_alpha():
    env = make_env(alpha=0.0)
    loads = np.array([1e9, 0.0])
    t_s, _, t_p = env.processing_latencies(0, 0, 0, 1e6, 0.0, 0.0, loads)
    assert t_p == pytest.approx(t_s)


def test_processing_halves_with_double_compute():
    env1 = make_env(compute=1e9)
    env2 = make_env(compute=2e9)
    loads = np.array([1e9, 0.0])
    t1 = env1.processing_latencies(0, 0, 0, 1e6, 0.0, 0.0, loads)[0]
    t2 = env2.processing_latencies(0, 0, 0, 1e6, 0.0, 0.0, loads)[0]
    assert t1 == pytest.approx(2.0 * t2, rel=1e-12)


# --- error rate and QoE ---

def test_error_rate_no_contenders():
    assert PremigrationEnv.error_rate([], tau=1.0) == 0.0


def test_error_rate_single_contender():
    # tau * D_m = 0.1 -> 1 - exp(-0.1)
    assert PremigrationEnv.error_rate([1e6], tau=1e-7) == pytest.approx(
        0.09516258196404048, rel=1e-12
    )


def test_error_rate_monotone_in_contenders():
    prev = 0.0
    for k in range(1, 6):
        eps = PremigrationEnv.error_rate([1e6] * k, tau=1e-7)
        assert eps > prev
        assert 0.0 <= eps < 1.0
        prev = eps


def test_qoe_values():
    env = make_env(lambda1=1.0, lambda2=1.0)
    assert env.qoe(0.0, 0.0) == 0.0
    assert env.qoe(0.1, 0.5) == pytest.approx(-0.6)
    env2 = make_env(lambda1=1.0, lambda2=3.0)
    assert env2.qoe(0.0, 0.5) == pytest.approx(3.0 * env.qoe(0.0, 0.5))


# --- reset ---

def test_reset_zero_loads_in_obs():
    env = make_env(n_rsu=4, n_veh=2, init_load=0.0)
    obs = env.reset(0)
    assert np.allclose(obs[0][1:5], 0.0)


def test_obs_length():
    env = make_env(n_rsu=4, n_veh=2)
    obs = env.reset(0)
    assert obs[0].shape == (9,)


def test_reset_deterministic():
    env = make_env(n_rsu=3, n_veh=2, background_mean=2e8, warmup_slots=8)
    a = env.reset(7)
    scale_a = env.latency_scale
    b = env.reset(7)
    assert env.latency_scale == scale_a
    for oa, ob in zip(a, b):
        assert np.array_equal(oa, ob)


# --- step ---

def test_step_action_out_of_range():
    env = make_env(n_rsu=2)
    env.reset(0)
    with pytest.raises(ActionError):
        env.step([2])


def test_step_past_horizon_raises():
    env = make_env(n_rsu=2, horizon=3, warmup_slots=5)
    for _ in range(2):
        env.reset(0)
        results = [env.step([1]) for _ in range(3)]
        assert [r.done for r in results] == [False, False, True]
        with pytest.raises(RuntimeError, match=r"episode finished; call reset\(\)"):
            env.step([1])


def test_horizon_must_be_positive():
    with pytest.raises(ValueError, match="horizon"):
        EnvConfig(horizon=0)


def test_background_arrival_rate_stops_at_numpys_poisson_limit():
    limit = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))
    above = math.nextafter(limit, math.inf)
    with pytest.raises(ValueError, match="lam value too large"):
        np.random.default_rng(0).poisson(above)
    env = make_env(n_rsu=2, background_mean=limit, background_unit=1.0, warmup_slots=1)
    env.reset(0)
    env.step([1])  # arrivals at the limit fill the queues to max_load
    assert (env.loads == env.max_load).all()
    message = ("env.background_mean / env.background_unit must be <= 9.223372006484771e+18, "
               "got 9.223372006484772e+18")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EnvConfig(background_mean=above, background_unit=1.0)


def one_way_backhaul_env(**kwargs):
    """RSU 0 reaches RSU 1 over the backhaul; RSU 1 has no link back.

    Vehicle 0 is served by RSU 0 and vehicle 1 by RSU 1 throughout.
    """
    trajectories = [
        line_trajectory(0, 50.0, 10.0, 1.0, 0.0),
        line_trajectory(1, 950.0, 10.0, -1.0, 0.0),
    ]
    base = make_env(n_rsu=2, n_veh=2, trajectories=trajectories, **kwargs)
    env = with_columns(base, backhaul=[[0.0, 1e8], [0.0, 0.0]])
    env.reset(0)
    return env


def test_missing_backhaul_raises_naming_pair():
    env = one_way_backhaul_env(alpha=0.5, task_bits=1e6)
    with pytest.raises(ValueError, match=r"pair \(1,0\)"):
        env.step([1, 0])
    assert env.t == 0  # the failed slot left the state as it was


@pytest.mark.parametrize("alpha,task_bits,actions", [
    (0.5, 1e6, [1, 1]),   # the unlinked pair (1, 0) is not used
    (0.5, 1e6, [0, 1]),
    (0.0, 1e6, [1, 0]),   # nothing is migrated over (1, 0)
    (0.5, 0.0, [1, 0]),
])
def test_unused_missing_backhaul_does_not_raise(alpha, task_bits, actions):
    env = one_way_backhaul_env(alpha=alpha, task_bits=task_bits)
    result = env.step(actions)
    assert [m.serving for m in result.metrics] == [0, 1]
    assert [m.action for m in result.metrics] == actions


def test_single_vehicle_no_error():
    env = make_env(n_rsu=2, tau=1.0)
    env.reset(0)
    result = env.step([1])
    assert result.metrics[0].err_rate == 0.0


def test_cotargeting_sets_contention():
    # alpha=0.5 of 2e6 task bits -> 1e6 migrated bits -> tau * D_m = 0.1
    env = make_env(n_rsu=3, n_veh=2, task_bits=2e6, alpha=0.5, tau=1e-7)
    env.reset(0)
    result = env.step([2, 2])
    for m in result.metrics:
        assert m.contention == 1.0
        assert m.err_rate == pytest.approx(1.0 - math.exp(-0.1), rel=1e-12)


def test_reward_is_negated_latency():
    env = make_env(n_rsu=2, reward_mode="latency")
    env.reset(0)
    result = env.step([1])
    m = result.metrics[0]
    assert m.reward == -m.t_total


def test_reward_qoe_mode():
    env = make_env(n_rsu=2, reward_mode="qoe")
    env.reset(0)
    result = env.step([1])
    m = result.metrics[0]
    assert m.reward == m.qoe


def test_infeasible_action_remapped_to_serving():
    env = make_env(n_rsu=2, task_bits=1e6, cycles_per_bit=100.0, alpha=0.5)
    # incoming pre-migration cycles = 0.5e6 * 100 = 5e7 > tiny cap on RSU 1
    env.max_load[1] = 1e7
    env.reset(0)
    result = env.step([1])
    m = result.metrics[0]
    assert bool(m.remapped) is True
    assert m.action == m.serving == 0


def test_total_latency_matches_independent_recomputation():
    compute, bw, noise, backhaul, tx_power, cycles_per_bit = 1e9, 1e6, 1e-9, 1e8, 0.1, 100.0
    task_bits, request_bits, result_bits, init_load = 4e6, 2e5, 1e5, 2e9
    tracks = [line_trajectory(v, 50.0 + 30.0 * v, 10.0, 1.0, 0.0) for v in range(2)]
    env = make_env(
        n_rsu=2, n_veh=2, compute=compute, bw=bw, noise=noise, backhaul=backhaul,
        tx_power=tx_power, cycles_per_bit=cycles_per_bit, task_bits=task_bits,
        request_bits=request_bits, result_bits=result_bits, trajectories=tracks,
        alpha=0.5, mu=0.5, init_load=init_load,
    )
    env.reset(3)
    result = env.step([1, 0])
    m = result.metrics[0]
    # independent arithmetic from make_env's arguments
    c = ChannelParams()
    pos = tracks[0].xy[0]  # slot 0 is the track's first point
    serving, target = m.serving, m.action

    def rate(e, bw):
        rx, ry = RSU_POSITIONS[e]
        d = max(1.0, math.hypot(pos[0] - rx, pos[1] - ry))
        h = c.gain_coeff * (c.light_speed / (4 * math.pi * c.carrier * d)) ** 2
        return bw * math.log2(1 + tx_power * h / noise)

    t_up = request_bits / rate(serving, bw)
    t_down = sum(result_bits / rate(e, bw) for e in {serving, target})
    d_mig = 0.5 * task_bits
    t_mig = 0.0 if serving == target else d_mig / backhaul
    xi_local = task_bits - d_mig  # first slot: no reuse
    xi_mig = d_mig
    t_serv = (init_load + xi_local * cycles_per_bit) / compute
    t_targ = (init_load + xi_mig * cycles_per_bit) / compute
    t_total = t_up + max(t_serv, t_targ + t_mig) + t_down
    assert m.t_total == pytest.approx(t_total, rel=1e-12)


# --- invariants ---

def test_load_caps_random_actions():
    env = make_env(
        n_rsu=3, n_veh=3, task_bits=5e6, cycles_per_bit=200.0,
        max_load=2e9, background_mean=8e8, background_unit=2e8,
        horizon=50, init_load=1.9e9,
    )
    rng = np.random.default_rng(0)
    for ep in range(5):
        env.reset(ep)
        done = False
        while not done:
            result = env.step(list(rng.integers(0, 3, size=3)))
            assert np.all(env.loads <= env.max_load + 1e-9)
            assert np.all(env.loads >= 0.0)
            for m in result.metrics:
                assert 0.0 <= m.err_rate < 1.0
            done = result.done


def test_parallel_latency_max_semantics():
    env = make_env(n_rsu=2, n_veh=2, task_bits=4e6, init_load=1e9)
    env.reset(1)
    rng = np.random.default_rng(2)
    done = False
    while not done:
        actions = list(rng.integers(0, 2, size=2))
        result = env.step(actions)
        for m in result.metrics:
            assert m.t_proc >= m.t_proc_serving - 1e-12
            assert m.t_proc >= m.t_proc_target + m.t_mig - 1e-12
        done = result.done


def test_latency_monotone_in_compute():
    actions = [[1], [0], [1], [1], [0]]
    totals = []
    for compute in (40e9, 50e9, 60e9, 70e9, 80e9):
        env = make_env(compute=compute, task_bits=8e6, cycles_per_bit=300.0, horizon=5)
        env.reset(0)
        total = 0.0
        for a in actions:
            total += env.step(a).metrics[0].t_total
        totals.append(total)
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_full_determinism():
    kwargs = dict(
        n_rsu=3, n_veh=2, task_bits=3e6, background_mean=5e8,
        horizon=20, warmup_slots=4,
    )
    streams = []
    for _ in range(2):
        env = make_env(**kwargs)
        env.reset(11)
        rng = np.random.default_rng(5)
        stream = []
        done = False
        while not done:
            result = env.step(list(rng.integers(0, 3, size=2)))
            stream.extend(
                (m.t_total, m.err_rate, m.qoe, m.action, m.serving)
                for m in result.metrics
            )
            done = result.done
        streams.append(stream)
    assert streams[0] == streams[1]


def test_observation_denormalization_roundtrip():
    env = make_env(n_rsu=2, n_veh=1, request_bits=1e5, result_bits=1e5, warmup_slots=8, init_load=1e9)
    env.reset(2)
    result = env.step([1])
    obs = result.observations[0]
    m = result.metrics[0]
    raw = denormalize_observation(env, obs)
    assert raw["action"] == pytest.approx(m.action)
    assert raw["t_total"] == pytest.approx(m.t_total, rel=1e-12)
    assert raw["err_rate"] == pytest.approx(m.err_rate)
    assert np.allclose(raw["loads"], env.loads, rtol=1e-12)
