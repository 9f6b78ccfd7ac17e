"""The array `interpolate` against the per-point reference, bit for bit.

Tracks have uneven gaps, grids that land exactly on the last timestamp, last
gaps within and just past the 1e-9 tail tolerance, two points, and times at
epoch scale, where the grid's rounding is coarsest.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_trajgen as ref

from vtmigsim.roadnet import GeoPoint
from vtmigsim.trajgen import Trajectory, TrajectoryPoint, interpolate

SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


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
    origin = draw(st.sampled_from([(0.0, 0.0), (512345.6, 4123456.7)]))
    coords = st.floats(-2000.0, 2000.0)
    pts = [TrajectoryPoint(t, GeoPoint(origin[0] + draw(coords), origin[1] + draw(coords)))
           for t in ts]
    return Trajectory(draw(st.integers(0, 9)), pts), delta_t


def _bits(traj):
    return traj.vehicle_id, [(float(p.t).hex(), float(p.pos.x).hex(), float(p.pos.y).hex())
                             for p in traj.points]


@SETTINGS
@given(tracks())
def test_interpolate_matches_per_point_reference(case):
    traj, delta_t = case
    assert _bits(interpolate(traj, delta_t)) == _bits(ref.interpolate(traj, delta_t))


def test_interpolate_grid_on_the_last_point_adds_no_tail():
    pts = [TrajectoryPoint(1.7e9 + 30.0 * k, GeoPoint(float(k), 0.0)) for k in (0, 1, 3)]
    traj = Trajectory(0, pts)
    out = interpolate(traj, 30.0)
    assert [p.t for p in out.points] == [1.7e9 + 30.0 * k for k in range(4)]
    assert _bits(out) == _bits(ref.interpolate(traj, 30.0))
