"""Reference trajectory stages, one point at a time.

These are the per-point loops that the column stages of `vtmigsim.trajgen`
replaced: cleaning and segmentation, the mobility profile, timing a path,
interpolation and the density grid. Their arithmetic is kept unchanged, as
the oracles the array code must match bit for bit. They take and return
`Trajectory` columns, and walk them as `TrajectoryPoint`s in between.

`generate_dataset` is the job-at-a-time generation loop that routing in rounds
replaced: each job makes all its attempts before the next job starts, and each
attempt matches its own two endpoints and snaps them one point at a time.

`read_trajectories_csv` is the per-field reader that the column reader
replaced, and `synthetic_truth` draws each hour and endpoint with
`Generator.choice(p=...)`, where the column version builds each table once.
"""

import math
from dataclasses import dataclass

import numpy as np

from reference_roadnet import GeoPoint, csv_rows

from vtmigsim.roadnet import UnreachableError, hypot, map_match, parse_num, shortest_path
from vtmigsim.trajgen import (
    _DEFAULT_HOUR_SHAPE,
    _SECONDS_PER_HOUR,
    HOURS,
    TRAJ_HEADER,
    KdeModel,
    MobilityProfile,
    Trajectory,
    assign_times as column_assign_times,
    generate_entry_exit,
    interpolate as column_interpolate,
    map_to_roads,
)


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float                      # seconds since epoch
    pos: GeoPoint


def points(traj):
    """The trajectory's points in order, as Python floats."""
    return [TrajectoryPoint(t, GeoPoint(x, y))
            for t, (x, y) in zip(traj.t.tolist(), traj.xy.tolist())]


def track(vehicle_id, pts):
    """A Trajectory of the points `pts`."""
    return Trajectory(vehicle_id, [p.t for p in pts], [(p.pos.x, p.pos.y) for p in pts])


def hour_of(t):
    """Local hour-of-day bucket of an epoch timestamp."""
    return int(t // 3600.0) % HOURS


def clean_and_segment(raw, cfg):
    """Drop anomalous points and split on large time gaps."""
    raw_points = points(raw)
    if not raw_points:
        raise ValueError("raw trajectory is empty")
    kept = []
    for p in raw_points:
        if kept:
            dt = p.t - kept[-1].t
            if dt <= 0:
                continue
            if kept[-1].pos.dist_to(p.pos) / dt > cfg.max_speed:
                continue
        kept.append(p)

    segments = []
    current = []
    for p in kept:
        if current and p.t - current[-1].t > cfg.gap_split:
            if len(current) >= 2:
                segments.append(track(raw.vehicle_id, current))
            current = []
        current.append(p)
    if len(current) >= 2:
        segments.append(track(raw.vehicle_id, current))
    return segments


def build_profile(segments, cfg):
    """Fit the mobility profile from cleaned road-matched segments."""
    if not segments:
        raise ValueError("need at least one segment to build a profile")

    hour_counts = np.zeros(HOURS)
    speeds = [[] for _ in range(HOURS)]
    entries = [[] for _ in range(HOURS)]
    exits = [[] for _ in range(HOURS)]

    for seg in map(points, segments):
        for p in seg:
            hour_counts[hour_of(p.t)] += 1
        for a, b in zip(seg, seg[1:]):
            v = a.pos.dist_to(b.pos) / (b.t - a.t)
            if v > 0:
                speeds[hour_of(a.t)].append(v)
        first, last = seg[0], seg[-1]
        entries[hour_of(first.t)].append((first.pos.x, first.pos.y))
        exits[hour_of(last.t)].append((last.pos.x, last.pos.y))

    histogram = hour_counts / hour_counts.sum()

    all_speeds = np.array([v for bucket in speeds for v in bucket])
    if all_speeds.size == 0:
        raise ValueError("no positive-speed legs in any segment")
    speed_bins = [np.array(bucket) if bucket else all_speeds.copy() for bucket in speeds]

    all_entries = np.array([p for bucket in entries for p in bucket])
    all_exits = np.array([p for bucket in exits for p in bucket])
    entry_all_day = KdeModel(all_entries, cfg.bandwidth)
    exit_all_day = KdeModel(all_exits, cfg.bandwidth)
    entry_kde = [KdeModel(np.array(b), cfg.bandwidth) if b else entry_all_day for b in entries]
    exit_kde = [KdeModel(np.array(b), cfg.bandwidth) if b else exit_all_day for b in exits]
    return MobilityProfile(histogram, speed_bins, entry_kde, exit_kde)


def assign_times(path_points, start_t, profile, hour, rng, vehicle_id=0):
    """Attach timestamps to a GeoPoint path: t[i+1] = t[i] + d(p[i], p[i+1]) / v[i]."""
    pts = []
    for p in path_points:
        if pts and pts[-1].dist_to(p) == 0.0:
            continue
        pts.append(p)
    if len(pts) < 2:
        raise ValueError("need at least 2 distinct points to assign times")
    pool = profile.speed_bins[hour]
    if pool.size == 0:
        raise ValueError(f"hour {hour} has no speed samples")
    out = [TrajectoryPoint(float(start_t), pts[0])]
    t = float(start_t)
    for a, b in zip(pts, pts[1:]):
        v = float(pool[rng.integers(0, pool.size)])
        t += a.dist_to(b) / v
        out.append(TrajectoryPoint(t, b))
    return track(vehicle_id, out)


def interpolate(traj, delta_t):
    """Resample onto the uniform grid t1, t1+dt, ... via linear interpolation."""
    pts = points(traj)
    if len(pts) < 2:
        raise ValueError("need at least 2 points to interpolate")
    if not delta_t > 0:
        raise ValueError("delta_t must be positive")
    ts = np.array([p.t for p in pts])
    t0, t_end = ts[0], ts[-1]
    n_steps = int(math.floor((t_end - t0) / delta_t + 1e-9))
    out = []
    for j in range(n_steps + 1):
        t = t0 + j * delta_t
        i = int(np.searchsorted(ts, t, side="right")) - 1
        i = min(i, len(ts) - 2)
        a, b = pts[i], pts[i + 1]
        u = (t - a.t) / (b.t - a.t)
        out.append(
            TrajectoryPoint(
                t,
                GeoPoint(a.pos.x + u * (b.pos.x - a.pos.x), a.pos.y + u * (b.pos.y - a.pos.y)),
            )
        )
    if t_end - out[-1].t > 1e-9:
        out.append(TrajectoryPoint(float(t_end), pts[-1].pos))
    return track(traj.vehicle_id, out)


def density_grid(trajs, cell):
    """Count trajectory points per square grid cell of side `cell` meters."""
    counts = {}
    for traj in trajs:
        for p in points(traj):
            key = (int(math.floor(p.pos.x / cell)), int(math.floor(p.pos.y / cell)))
            counts[key] = counts.get(key, 0) + 1
    return counts


def nearest_node(net, x, y, edge_id):
    """Nearest node to (x, y) reached through the nearest arc's closer endpoint
    (ties: the lower id)."""
    ends = net.arcs[edge_id].tolist()
    (ax, ay), (bx, by) = net.xy[ends].tolist()
    da, db = math.hypot(x - ax, y - ay), math.hypot(x - bx, y - by)
    return net.ids[ends[0] if da < db else ends[1] if db < da else min(ends)]


def generate_route(entry, exit, net):
    """Route between the network nodes nearest to the two (x, y) endpoints;
    raises UnreachableError when none connects them."""
    ends = np.array([entry, exit], dtype=float)
    arcs = map_match(net, ends).edge_id.tolist()
    src, dst = (nearest_node(net, *p, e) for p, e in zip(ends.tolist(), arcs))
    return shortest_path(net, src, dst)[0]


def generate_one(profile, net, cfg, hour, vehicle_id, rng):
    """One job's trajectory, or None when 20 pairs found no route."""
    start_t = (hour + float(rng.uniform())) * 3600.0
    for _ in range(20):
        entry, exit = generate_entry_exit(profile, hour, rng)
        try:
            route = generate_route(entry, exit, net)
        except UnreachableError:
            continue
        if len(route) < 2:
            continue
        path = net.xy[[net._index[nid] for nid in route]]
        timed = column_assign_times(path, start_t, profile, hour, rng, vehicle_id)
        return column_interpolate(timed, cfg.delta_t)
    return None


def generate_dataset(profile, net, cfg, total_count, rng):
    """(trajectories, skip count), one job after another."""
    counts = [int(round(total_count * w * cfg.per_hour_count_scale))
              for w in profile.hour_histogram]
    jobs = [hour for hour in range(HOURS) for _ in range(counts[hour])]
    streams = rng.spawn(len(jobs)) if jobs else []
    tracks = [generate_one(profile, net, cfg, hour, idx, stream)
              for idx, (hour, stream) in enumerate(zip(jobs, streams))]
    tracks = [traj for traj in tracks if traj is not None]
    return map_to_roads(tracks, net), len(jobs) - len(tracks)


def read_trajectories_csv(fh):
    """Trajectories by vehicle id, each with its rows in file order."""
    by_vehicle = {}  # t, x, y of each row in turn
    for n, row in csv_rows(fh, TRAJ_HEADER, "trajectory"):
        txy = [parse_num(f, float, what, n) for f, what in zip(row[1:], "txy")]
        by_vehicle.setdefault(parse_num(row[0], int, "vehicle id", n), []).extend(txy)
    tracks = []
    for vid, txy in sorted(by_vehicle.items()):
        rows = np.array(txy).reshape(-1, 3)
        tracks.append(Trajectory(vid, rows[:, 0], rows[:, 1:]))
    return tracks


def synthetic_truth(net, n_traj, rng, hour_weights=None, gps_noise=3.0, sample_interval=60.0):
    """`trajgen.synthetic_truth` with one `rng.choice(p=...)` per hour and endpoint."""
    weights = _DEFAULT_HOUR_SHAPE if hour_weights is None else hour_weights
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    node_ids, positions = net.ids, net.xy
    anchors = positions[rng.choice(len(node_ids), size=2, replace=False)]
    span = max(positions.max(axis=0) - positions.min(axis=0))
    scale = max(span / 3.0, 1.0)

    def node_weights(anchor):
        d = np.hypot(positions[:, 0] - anchor[0], positions[:, 1] - anchor[1])
        w = np.exp(-d / scale)
        return w / w.sum()

    w_entry = node_weights(anchors[0])
    w_exit = node_weights(anchors[1])
    out = []
    attempts = 0
    while len(out) < n_traj and attempts < 20 * n_traj:
        attempts += 1
        hour = int(rng.choice(HOURS, p=weights))
        src = node_ids[int(rng.choice(len(node_ids), p=w_entry))]
        dst = node_ids[int(rng.choice(len(node_ids), p=w_exit))]
        if src == dst:
            continue
        try:
            route, _ = shortest_path(net, src, dst)
        except UnreachableError:
            continue
        t0 = (hour + float(rng.uniform())) * _SECONDS_PER_HOUR
        path = positions[[net._index[nid] for nid in route]]
        legs = hypot(*(path[:-1] - path[1:]).T) / rng.uniform(6.0, 14.0, size=len(route) - 1)
        timed = Trajectory(len(out), np.add.accumulate(np.concatenate(([t0], legs))), path)
        dense = column_interpolate(timed, sample_interval)
        noise = rng.normal(0.0, gps_noise, dense.xy.shape)
        out.append(Trajectory(len(out), dense.t, dense.xy + noise))
    return out
