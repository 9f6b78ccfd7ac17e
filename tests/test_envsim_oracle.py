"""The array-native env step against the scalar reference, bit for bit.

Random small scenarios cover remaps under tight loads, co-targeting
contention, background arrivals, cycled task schedules, zero-size transfers,
trajectories shorter than the horizon and single-point trajectories, vehicles
exactly on an RSU (the 1 m distance clamp), random channel gains, warm-up
calibration and both reward modes. Every metrics column is compared byte for
byte and every other output with `==`: the two implementations do the same
operations on the same doubles.
"""

import copy
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from helpers import RSU_POSITIONS, make_env
from reference_roadnet import GeoPoint
from scalar_env import (RsuSpec, ScalarEnv, SlotMetrics, VehicleSpec, commit_loop, env_columns,
                        position_loop)

from vtmigsim.envsim import ChannelParams, EnvConfig, PremigrationEnv
from vtmigsim.trajgen import Trajectory


@st.composite
def scenarios(draw):
    """Hypothesis picks the structure; a seeded generator fills in the doubles.

    Typical random doubles, unlike the round values Hypothesis favours, are
    what exposes a last-ulp difference between two implementations.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n_rsu = draw(st.integers(1, 5))
    n_veh = draw(st.integers(1, 8))
    # A tight cap (a few tasks' worth of cycles) makes remaps frequent.
    max_load = draw(st.sampled_from([2e8, 1e9, 5e9, 1e12]))
    rsus = [
        RsuSpec(
            pos=GeoPoint(*rng.uniform(0.0, 2000.0, 2)),
            compute=rng.uniform(1e8, 2e10),
            max_load=max_load,
            bw_up=rng.uniform(1e5, 5e7),
            bw_down=rng.uniform(1e5, 5e7),
            noise_power=rng.uniform(1e-13, 1e-9),
            backhaul={j: rng.uniform(1e6, 1e10) for j in range(n_rsu) if j != i},
        )
        for i in range(n_rsu)
    ]

    def bits(n=None):
        """Sizes in bits, each zero with some chance."""
        zero = draw(st.lists(st.booleans(), min_size=n or 1, max_size=n or 1))
        values = np.where(zero, 0.0, rng.uniform(1e3, 1e7, len(zero)))
        return values if n else float(values[0])

    def point():
        """A random (x, y), or now and then exactly an RSU's."""
        if draw(st.integers(0, 3)) == 0:
            pos = rsus[draw(st.integers(0, n_rsu - 1))].pos
            return pos.x, pos.y
        return rng.uniform(0.0, 2000.0, 2)

    def trajectory(vid):
        n = draw(st.integers(1, 5))  # one point: the vehicle never moves
        # Spans from 0.5 s to ~80 s, so some end inside the horizon.
        gaps = np.concatenate([[0.0], rng.uniform(0.5, 20.0, n - 1)])
        times = rng.uniform(0.0, 100.0) + gaps.cumsum()
        return Trajectory(vid, times, [point() for _ in times])

    vehicles = [
        VehicleSpec(
            tx_power=rng.uniform(0.01, 1.0),
            cycles_per_bit=rng.uniform(1.0, 500.0),
            task_bits=bits(draw(st.integers(1, 3))),
            request_bits=bits(),
            result_bits=bits(n_rsu),
            trajectory=trajectory(v),
        )
        for v in range(n_veh)
    ]
    horizon = draw(st.integers(1, 8))
    cfg = EnvConfig(
        alpha=draw(st.sampled_from([0.0, rng.uniform(0.0, 0.99)])),
        mu=draw(st.sampled_from([0.0, 1.0, rng.uniform()])),
        tau=rng.uniform(0.0, 1e-7),
        lambda1=rng.uniform(0.0, 2.0),
        lambda2=rng.uniform(0.0, 2.0),
        slot_seconds=draw(st.sampled_from([0.5, 1.0, 7.0])),
        horizon=horizon,
        reward_mode=draw(st.sampled_from(["latency", "qoe"])),
        background_mean=draw(st.sampled_from([0.0, 3e8, 2e9])),
        background_unit=draw(st.sampled_from([1e8, 5e8])),
        init_load=draw(st.sampled_from([0.0, 1e8, 3e9])),
        warmup_slots=draw(st.integers(0, horizon + 2)),
    )
    channel = ChannelParams(
        gain_coeff=10.0 ** rng.uniform(-1.0, 1.0), carrier=draw(st.sampled_from([2.4e9, 5.9e9]))
    )
    return rsus, vehicles, channel, cfg


def assert_same_step(new, ref):
    assert new.done == ref.done
    assert new.metrics.dtype.names == tuple(f.name for f in dataclasses.fields(SlotMetrics))
    assert len(new.metrics) == len(ref.metrics)
    for name in new.metrics.dtype.names:
        column = new.metrics[name]
        want = np.array([getattr(m, name) for m in ref.metrics], dtype=column.dtype)
        assert column.tobytes() == want.tobytes(), name
    assert len(new.observations) == len(ref.observations)
    for o_new, o_ref in zip(new.observations, ref.observations):
        assert np.array_equal(o_new, o_ref)


def assert_invariants(env, result):
    assert np.all(env.loads >= 0.0) and np.all(env.loads <= env.max_load)
    m = result.metrics
    assert min(m.t_up.min(), m.t_mig.min(), m.t_proc.min(), m.t_down.min(), m.t_total.min()) >= 0.0
    assert np.all((0.0 <= m.err_rate) & (m.err_rate < 1.0))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios(), seed=st.integers(0, 2**16), crowd=st.booleans())
def test_step_matches_scalar_reference(scenario, seed, crowd):
    env = PremigrationEnv(**env_columns(*scenario))
    ref = ScalarEnv(*scenario)
    obs = env.reset(seed)
    ref_obs = ref.reset(seed)
    assert env.latency_scale == ref.latency_scale
    for o_new, o_ref in zip(obs, ref_obs):
        assert np.array_equal(o_new, o_ref)
    rng = np.random.default_rng(seed)
    done = False
    while not done:
        # A crowded slot sends every vehicle to one or two RSUs, so that
        # targets are shared and caps bind.
        choices = rng.integers(0, env.E, size=2) if crowd else np.arange(env.E)
        actions = list(rng.choice(choices, size=env.V))
        result = env.step(actions)
        assert_same_step(result, ref.step(actions))
        assert np.array_equal(env.loads, ref.loads)
        assert_invariants(env, result)
        done = result.done


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios(), seed=st.integers(0, 2**16), split=st.integers(0, 2**16))
def test_episode_state_is_t_loads_prev_action_scale_and_rng(scenario, seed, split):
    """A fresh env of the same columns, reset under another seed and then given
    only `t`, `loads`, `prev_action`, `latency_scale` and a copy of the
    generator, finishes the episode with the bytes of the env it came from. At
    the first slot it takes over, every vehicle keeps its target and some
    vehicle keeps its serving RSU with mu > 0, so last slot's shares are reused."""
    _, _, _, cfg = scenario
    assume(cfg.horizon > 1 and cfg.mu > 0)
    t = 1 + split % (cfg.horizon - 1)
    columns = env_columns(*scenario)
    env = PremigrationEnv(**columns)
    assume(((env.serving[t] == env.serving[t - 1]) & (env.task_bits[t - 1] > 0)).any())
    env.reset(seed)
    rng = np.random.default_rng(seed)
    for _ in range(t):
        env.step(rng.integers(0, env.E, size=env.V))
    fresh = PremigrationEnv(**columns)
    fresh.reset(seed + 1)
    fresh.t, fresh.loads, fresh.prev_action = env.t, env.loads.copy(), env.prev_action.copy()
    fresh.latency_scale, fresh._rng = env.latency_scale, copy.deepcopy(env._rng)
    actions = env.prev_action
    for _ in range(t, cfg.horizon):
        got, want = fresh.step(actions), env.step(actions)
        assert got.metrics.tobytes() == want.metrics.tobytes()
        assert got.observations.tobytes() == want.observations.tobytes()
        assert got.done == want.done
        actions = rng.integers(0, env.E, size=env.V)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_transmission_latencies_match_scalar_rates(scenario):
    """Every (slot, vehicle, RSU) link in one call, against the scalar rate of each link."""
    env = PremigrationEnv(**env_columns(*scenario))
    ref = ScalarEnv(*scenario)
    rsus, vehicles, _, _ = scenario
    H, V, E = env.cfg.horizon, env.V, env.E
    t_up, t_down = env.transmission_latencies(
        np.arange(H)[:, None, None], np.arange(V)[:, None], np.arange(E)
    )
    assert t_up.shape == t_down.shape == (H, V, E)
    for t, v, e in np.ndindex(H, V, E):
        request, result = vehicles[v].request_bits, float(vehicles[v].result_bits[e])
        rsu = rsus[e]
        assert t_up[t, v, e] == (request / ref.rate(v, e, t, rsu.bw_up) if request else 0.0)
        assert t_down[t, v, e] == (result / ref.rate(v, e, t, rsu.bw_down) if result else 0.0)


def test_channel_and_error_rate_use_the_scalar_math_kernels():
    """numpy's hypot, square, log2 and exp each round differently from Python's
    `math` on some inputs, as rarely as about 1 in 20,000 for log2, so 10^5
    random links catch any of them where the scenarios above may not."""
    rng = np.random.default_rng(11)
    env = make_env(n_rsu=4, tx_power=0.3, noise=3e-11)
    e = rng.integers(0, env.E, 100_000)
    x, y = rng.uniform(-500.0, 1500.0, (2, len(e)))
    c, p, noise = env.channel, 0.3, 3e-11
    expected = []
    for ei, xi, yi in zip(e.tolist(), x.tolist(), y.tolist()):
        r = GeoPoint(*RSU_POSITIONS[ei])
        d = max(1.0, math.hypot(xi - r.x, yi - r.y))
        h = c.gain_coeff * (c.light_speed / (4.0 * math.pi * c.carrier * d)) ** 2
        expected.append(math.log2(1.0 + p * h / noise))
    assert np.array_equal(env.spectral_efficiency(0, e, x, y), expected)
    bits = rng.uniform(0.0, 1e7, len(e))
    err = [1.0 - math.exp(-1e-7 * b) for b in bits.tolist()]
    assert np.array_equal(env.error_rate(bits[None, :], 1e-7), err)


HOUR_EDGE = 472222 * 3600.0  # an hour boundary at epoch scale


@st.composite
def tracks(draw):
    """Strictly increasing tracks of 1 to 6 points from zero or epoch-scale starts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for v in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 6))
        start = draw(st.sampled_from([0.0, 0.25, 1.7e9 + 0.123456, HOUR_EDGE]))
        gaps = rng.choice([0.5, 1.0, 3.0, 7.3, rng.uniform(0.01, 40.0)], size=n - 1)
        t = start + np.concatenate(([0.0], np.cumsum(gaps)))  # gaps >> an ulp of the start
        out.append(Trajectory(v, t, rng.uniform(-500.0, 500.0, (n, 2))))
    return out


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tracks(), st.sampled_from([1.0, 0.5, 7.3, 30.0]),
       st.lists(st.integers(-3, 40), min_size=1, max_size=12))
def test_position_matches_the_per_vehicle_loop(trajs, slot_seconds, slots):
    """One pass over every vehicle's column track: the bits of the per-vehicle
    loop, for one-point tracks and slots before the start and past the end."""
    slots = np.array(slots)
    env = SimpleNamespace(
        track_t=np.concatenate([t.t for t in trajs]),
        track_xy=np.concatenate([t.xy for t in trajs]),
        track_offsets=np.cumsum([0, *(len(t.t) for t in trajs)]),
        cfg=SimpleNamespace(slot_seconds=slot_seconds))
    got = PremigrationEnv.position(env, slots)
    want = position_loop(trajs, slots, slot_seconds)
    assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]


def bits_of(*arrays):
    return [a.dtype.str + a.tobytes().hex() for a in arrays]


@st.composite
def commits(draw):
    """One slot's commit inputs with loads near every RSU's max_load, so that
    some slots stay within every cap and others pass one. A cap may sit exactly
    on its RSU's final load with the requested targets, or one ulp below it;
    now and then a vehicle's cycles per bit are inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rsu, n_veh = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    max_load = rng.uniform(1e8, 1e10, n_rsu)
    loads = max_load * rng.choice([0.0, 0.5, rng.uniform(0.8, 1.0)], n_rsu)
    share = draw(st.sampled_from([1e-4, 0.02, 0.1, 0.5])) / n_veh
    f_v = rng.choice([0.0, 1.0, rng.uniform(10.0, 1e3)], n_veh)
    if draw(st.integers(0, 9)) == 0:  # inf cycles, NaN where no bits: past or outside every cap
        f_v[rng.integers(n_veh)] = np.inf
    xi = [np.where(rng.random(n_veh) < 0.2, 0.0, rng.uniform(0.0, share, n_veh)) * max_load.max()
          / np.maximum(f_v, 1.0) for _ in range(3)]
    serving, requested = rng.integers(0, n_rsu, (2, n_veh))
    if draw(st.booleans()):
        requested = np.where(rng.random(n_veh) < 0.5, serving, requested)
    edge = draw(st.sampled_from(["none", "equal", "below"]))
    if edge != "none":
        with np.errstate(invalid="ignore"):
            pending = commit_loop(loads, np.full(n_rsu, np.inf), serving, requested, f_v, *xi)[0]
        e = rng.integers(n_rsu)
        if np.isfinite(pending[e]):
            max_load[e] = pending[e] if edge == "equal" else math.nextafter(pending[e], -math.inf)
    return loads, max_load, serving, requested, f_v, *xi


@settings(max_examples=400, deadline=None)
@given(commits())
def test_commit_work_matches_the_sequential_loop(commit):
    """Loads, final targets, remap flags and migrated bits, bit for bit; the
    remap sizes are asked for only when some RSU does not end within its
    max_load with the requested targets."""
    *args, xi_mig_serv = commit
    loads, max_load, serving, requested = (a.copy() for a in args[:4])
    asked = []
    with np.errstate(invalid="ignore"):  # 0 bits at inf cycles per bit
        got = PremigrationEnv.commit_work(*args, lambda: asked.append(1) or xi_mig_serv)
        want = commit_loop(*args, xi_mig_serv)
        uncapped = commit_loop(loads, np.full(len(loads), np.inf), *args[2:], xi_mig_serv)[0]
    assert bits_of(*got) == bits_of(*want)
    assert len(asked) == (not (uncapped <= max_load).all())
    event("loop" if asked else "vector")
    assert bits_of(loads, max_load, serving, requested) == bits_of(*args[:4])  # no input written
