"""The array-native env step against the scalar reference, bit for bit.

Random small scenarios cover remaps under tight loads, co-targeting
contention, background arrivals, cycled task schedules, zero-size transfers,
trajectories shorter than the horizon and single-point trajectories, warm-up
calibration and both reward modes. Every output is compared with `==`: the
two implementations do the same operations on the same doubles.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scalar_env import ScalarEnv

from vtmigsim.envsim import ChannelParams, EnvConfig, PremigrationEnv, RsuSpec, VehicleSpec
from vtmigsim.roadnet import GeoPoint
from vtmigsim.trajgen import Trajectory, TrajectoryPoint


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
            id=i,
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

    def trajectory(vid):
        n = draw(st.integers(1, 5))  # one point: the vehicle never moves
        # Spans from 0.5 s to ~80 s, so some end inside the horizon.
        gaps = np.concatenate([[0.0], rng.uniform(0.5, 20.0, n - 1)])
        times = rng.uniform(0.0, 100.0) + gaps.cumsum()
        return Trajectory(vid, [
            TrajectoryPoint(float(t), GeoPoint(*rng.uniform(0.0, 2000.0, 2))) for t in times
        ])

    vehicles = [
        VehicleSpec(
            id=v,
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
    channel = ChannelParams(carrier=draw(st.sampled_from([2.4e9, 5.9e9])))
    return rsus, vehicles, channel, cfg


def assert_same_step(new, ref):
    assert new.done == ref.done
    assert np.array_equal(new.rewards, ref.rewards)
    assert len(new.metrics) == len(ref.metrics)
    for m_new, m_ref in zip(new.metrics, ref.metrics):
        assert dataclasses.asdict(m_new) == dataclasses.asdict(m_ref)
    assert len(new.observations) == len(ref.observations)
    for o_new, o_ref in zip(new.observations, ref.observations):
        assert np.array_equal(o_new, o_ref)


def assert_invariants(env, result):
    assert np.all(env.loads >= 0.0) and np.all(env.loads <= env._max_load)
    for m in result.metrics:
        assert min(m.t_up, m.t_mig, m.t_proc, m.t_down, m.t_total) >= 0.0
        assert 0.0 <= m.err_rate < 1.0


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios(), seed=st.integers(0, 2**16), crowd=st.booleans())
def test_step_matches_scalar_reference(scenario, seed, crowd):
    env = PremigrationEnv(*scenario)
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
