"""The column trajectory stages against the per-point references, bit for bit.

Raw tracks hold timestamps that do not advance or run back, over-speed jumps,
gaps of exactly `gap_split` and consecutive repeated positions. Times start
at epoch scale too, on and just off hour boundaries, where the grid's
rounding is coarsest and hour buckets turn over. Most hours see no data.
Interpolated tracks have uneven gaps, grids that land exactly on the last
timestamp, last gaps within and just past the 1e-9 tail tolerance, and two
points.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_trajgen as ref

from vtmigsim.roadnet import GeoPoint
from vtmigsim.trajgen import (
    GenConfig,
    MobilityProfile,
    Trajectory,
    assign_times,
    build_profile,
    clean_and_segment,
    density_grid,
    hour_of,
    interpolate,
)

SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
CFG = GenConfig(delta_t=30.0, bandwidth=50.0, max_speed=60.0, gap_split=300.0)
HOUR_EDGE = 472222 * 3600.0  # an hour boundary at epoch scale
STARTS = [0.0, 12.5, 8 * 3600.0 - 30.0, 1.7e9, 1.7e9 + 0.123456, HOUR_EDGE,
          HOUR_EDGE - 30.0, float(np.nextafter(HOUR_EDGE, 0.0))]
ORIGINS = [(0.0, 0.0), (512345.6, 4123456.7)]


def _bits(traj):
    return traj.vehicle_id, [(t.hex(), x.hex(), y.hex())
                             for t, (x, y) in zip(traj.t.tolist(), traj.xy.tolist())]


def _outcome(fn, *args):
    """fn's result, or the type and text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# --- clean_and_segment and build_profile ---

@st.composite
def raw_tracks(draw):
    """A raw GPS track: steps in time and space, some of them anomalous."""
    t = draw(st.sampled_from(STARTS))
    x, y = draw(st.sampled_from(ORIGINS))
    ts, xy = [], []
    for _ in range(draw(st.integers(1, 12))):
        ts.append(t)
        xy.append((x, y))
        t += draw(st.one_of(
            st.floats(1e-3, 120.0),
            st.sampled_from([0.0, 30.0, CFG.gap_split]),  # no advance, grid steps, a split edge
            st.floats(-50.0, -1e-3),                      # back in time
            st.floats(CFG.gap_split, 3000.0),
        ))
        if draw(st.integers(0, 3)):  # else: the same position again
            x += draw(st.one_of(st.floats(-500.0, 500.0), st.floats(-1e5, 1e5)))  # or over-speed
            y += draw(st.floats(-500.0, 500.0))
    return Trajectory(0, ts, xy)


def _segments_bits(segments):
    return [_bits(seg) for seg in segments]


@SETTINGS
@given(raw_tracks())
def test_clean_and_segment_matches_per_point_reference(raw):
    assert _segments_bits(clean_and_segment(raw, CFG)) == _segments_bits(
        ref.clean_and_segment(raw, CFG))


def _profile_bits(profile):
    def arr(a):
        return a.shape, a.dtype.str, a.tobytes()

    def kdes(models):
        first_hour = {}  # which hours share one (the all-day) model
        return [(arr(m.samples), m.bandwidth, first_hour.setdefault(id(m), h))
                for h, m in enumerate(models)]

    return (arr(profile.hour_histogram), [arr(b) for b in profile.speed_bins],
            kdes(profile.entry_kde), kdes(profile.exit_kde))


@SETTINGS
@given(st.lists(raw_tracks(), min_size=1, max_size=5))
def test_build_profile_matches_per_point_reference(raws):
    segments = [seg for raw in raws for seg in ref.clean_and_segment(raw, CFG)]
    got, want = _outcome(build_profile, segments, CFG), _outcome(ref.build_profile, segments, CFG)
    if isinstance(want, MobilityProfile):
        assert _profile_bits(got) == _profile_bits(want)
    else:
        assert got == want


def test_build_profile_without_moving_legs_fails_as_the_reference_does():
    seg = Trajectory(0, [HOUR_EDGE - 10.0, HOUR_EDGE, HOUR_EDGE + 10.0], [(5.0, 5.0)] * 3)
    want = (ValueError, "no positive-speed legs in any segment")
    assert _outcome(build_profile, [seg], CFG) == _outcome(ref.build_profile, [seg], CFG) == want


@SETTINGS
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(lambda k: k * 3600.0),
    st.integers(0, 10**6).map(lambda k: float(np.nextafter(k * 3600.0, -np.inf))),
)))
def test_hour_of_matches_python_floor_division(ts):
    assert hour_of(ts).tolist() == [ref.hour_of(t) for t in ts]


# --- assign_times ---

@st.composite
def timing_cases(draw):
    """(path (K, 2), start_t, pool, hour, seed); the path repeats points in a row.
    Its coordinates are full-precision draws, which keep hypot's rounding in play."""
    origin = draw(st.sampled_from(ORIGINS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    path = []
    for _ in range(draw(st.integers(0, 10))):
        if path and draw(st.booleans()):
            path.append(path[-1])
        else:
            path.append(tuple(origin + rng.uniform(-2000.0, 2000.0, 2)))
    pool = draw(st.lists(st.floats(0.5, 40.0), max_size=6))
    return (path, draw(st.sampled_from(STARTS)), pool, draw(st.integers(0, 23)),
            draw(st.integers(0, 2**32 - 1)))


@SETTINGS
@given(timing_cases())
def test_assign_times_matches_per_point_reference(case):
    path, start_t, pool, hour, seed = case
    profile = MobilityProfile(np.full(24, 1 / 24), [np.array(pool)] * 24, [], [])
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _outcome(assign_times, np.array(path).reshape(-1, 2), start_t, profile, hour, rng, 7)
    want = _outcome(ref.assign_times, [GeoPoint(*p) for p in path], start_t, profile, hour,
                    ref_rng, 7)
    if isinstance(want, Trajectory):
        assert _bits(got) == _bits(want)
    else:
        assert got == want
    # One index draw per leg, as the reference makes them.
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_assign_times_on_many_short_paths_matches_per_point_reference():
    """Thousands of legs timed from 0 s, where a leg's rounding shows in its time:
    numpy's own hypot would round some of them differently."""
    rng = np.random.default_rng(5)
    profile = MobilityProfile(np.full(24, 1 / 24), [rng.uniform(0.5, 40.0, 50)] * 24, [], [])
    for _ in range(1000):
        path = ORIGINS[1] + rng.uniform(-2000.0, 2000.0, (4, 2))
        path[2] = path[1]
        seed = int(rng.integers(2**32))
        got = assign_times(path, 0.0, profile, 3, np.random.default_rng(seed))
        want = ref.assign_times([GeoPoint(*p) for p in path.tolist()], 0.0, profile, 3,
                                np.random.default_rng(seed))
        assert len(got.t) == 3
        assert _bits(got) == _bits(want)


# --- interpolate ---

@st.composite
def tracks(draw):
    """(Trajectory, delta_t) with strictly increasing times."""
    delta_t = draw(st.sampled_from([0.1, 1.0 / 3.0, 1.0, 7.0, 30.0, 60.0]))
    t0 = draw(st.sampled_from([0.0, 12.5, 8 * 3600.0, 1.7e9, 1.7e9 + 0.123456]))
    n = draw(st.integers(2, 10))
    gaps = [draw(st.one_of(
        st.floats(1e-3, 400.0),
        st.integers(1, 20).map(lambda k: k * delta_t),  # a grid step lands on the point
    )) for _ in range(n - 1)]
    ts = [t0]
    for gap in gaps:
        ts.append(ts[-1] + gap)
    # Move the last point to a whole number of steps, off by less or more than the tail rule.
    tail = draw(st.sampled_from([None, 0.0, 5e-10, -5e-10, 2e-9, -2e-9, 1e-6]))
    if tail is not None:
        steps = max(1, round((ts[-1] - t0) / delta_t))
        last = t0 + steps * delta_t + tail
        if last > ts[-2]:
            ts[-1] = last
    if not all(b > a for a, b in zip(ts, ts[1:])):
        ts = [t0 + k for k in range(n)]
    origin = draw(st.sampled_from(ORIGINS))
    coords = st.floats(-2000.0, 2000.0)
    xy = [(origin[0] + draw(coords), origin[1] + draw(coords)) for _ in ts]
    return Trajectory(draw(st.integers(0, 9)), ts, xy), delta_t


@SETTINGS
@given(tracks())
def test_interpolate_matches_per_point_reference(case):
    traj, delta_t = case
    assert _bits(interpolate(traj, delta_t)) == _bits(ref.interpolate(traj, delta_t))


def test_interpolate_grid_on_the_last_point_adds_no_tail():
    steps = (0, 1, 3)
    traj = Trajectory(0, [1.7e9 + 30.0 * k for k in steps], [(float(k), 0.0) for k in steps])
    out = interpolate(traj, 30.0)
    assert out.t.tolist() == [1.7e9 + 30.0 * k for k in range(4)]
    assert _bits(out) == _bits(ref.interpolate(traj, 30.0))


# --- density_grid ---

@SETTINGS
@given(st.lists(st.lists(st.tuples(st.floats(-5000.0, 5000.0), st.floats(-5000.0, 5000.0)),
                         max_size=8), max_size=4),
       st.sampled_from([0.5, 100.0, 250.0, 1.0 / 3.0]))
def test_density_grid_matches_per_point_reference(tracks_xy, cell):
    trajs = [Trajectory(v, np.arange(len(xy), dtype=float), xy) for v, xy in enumerate(tracks_xy)]
    assert density_grid(trajs, cell) == ref.density_grid(trajs, cell)
