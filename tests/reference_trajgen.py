"""Reference trajectory interpolation: one grid point at a time.

This is the per-point loop that the array `interpolate` replaced, kept
unchanged in its arithmetic as the oracle the array pass must match bit for
bit.
"""

import math

import numpy as np

from vtmigsim.roadnet import GeoPoint
from vtmigsim.trajgen import Trajectory, TrajectoryPoint


def interpolate(traj, delta_t):
    """Resample onto the uniform grid t1, t1+dt, ... via linear interpolation."""
    if len(traj.points) < 2:
        raise ValueError("need at least 2 points to interpolate")
    if not delta_t > 0:
        raise ValueError("delta_t must be positive")
    ts = np.array([p.t for p in traj.points])
    t0, t_end = ts[0], ts[-1]
    n_steps = int(math.floor((t_end - t0) / delta_t + 1e-9))
    out = []
    for j in range(n_steps + 1):
        t = t0 + j * delta_t
        i = int(np.searchsorted(ts, t, side="right")) - 1
        i = min(i, len(ts) - 2)
        a, b = traj.points[i], traj.points[i + 1]
        u = (t - a.t) / (b.t - a.t)
        out.append(
            TrajectoryPoint(
                t,
                GeoPoint(a.pos.x + u * (b.pos.x - a.pos.x), a.pos.y + u * (b.pos.y - a.pos.y)),
            )
        )
    if t_end - out[-1].t > 1e-9:
        out.append(TrajectoryPoint(float(t_end), traj.points[-1].pos))
    return Trajectory(traj.vehicle_id, out)
