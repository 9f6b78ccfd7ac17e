"""Synthetic vehicle trajectory generation over a road network.

Pipeline: clean and segment raw tracks, snap them to roads, learn a mobility
profile (hour-of-day weights, per-hour speeds, per-hour entry/exit density
models), then generate new trajectories by sampling entry/exit points,
routing them through the network, timing the path from empirical speeds,
densifying with fixed-interval linear interpolation, and snapping the result
back onto the roads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .configio import KEY
from .roadnet import GeoPoint, RoadNetwork, UnreachableError, map_match, shortest_path
from .roadnet import csv_rows, parse_num

HOURS = 24
_SECONDS_PER_HOUR = 3600.0


class FitError(ValueError):
    """Raised when a density model is fit on no data."""


class RouteError(ValueError):
    """Raised when no road route connects a sampled entry/exit pair."""


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    t: float                      # seconds since epoch
    pos: GeoPoint


@dataclass
class Trajectory:
    """Timestamped position sequence for one vehicle.

    Valid trajectories have strictly increasing timestamps; raw GPS input may
    violate that until it passes through clean_and_segment.
    """

    vehicle_id: int
    points: list[TrajectoryPoint]

    def is_monotone(self) -> bool:
        return all(b.t > a.t for a, b in zip(self.points, self.points[1:]))

    def start_hour(self) -> int:
        return hour_of(self.points[0].t)


def hour_of(t: float) -> int:
    """Local hour-of-day bucket of an epoch timestamp."""
    return int(t // _SECONDS_PER_HOUR) % HOURS


class KdeModel:
    """Gaussian-kernel density estimate over 2-D points with isotropic bandwidth.

    density(x) = (1/n) * sum_i exp(-|x - x_i|^2 / (2 h^2)) / (2 pi h^2)
    """

    def __init__(self, samples: np.ndarray, bandwidth: float):
        samples = np.asarray(samples, dtype=float).reshape(-1, 2)
        if samples.shape[0] == 0:
            raise FitError("cannot fit a density model on an empty point set")
        if not bandwidth > 0:
            raise FitError("bandwidth must be positive")
        self.samples = samples
        self.bandwidth = float(bandwidth)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw exact samples from the kernel mixture.

        Each draw picks a data point uniformly and adds an isotropic Gaussian
        offset with standard deviation equal to the bandwidth.
        """
        idx = rng.integers(0, len(self.samples), size=count)
        noise = rng.normal(0.0, self.bandwidth, size=(count, 2))
        return self.samples[idx] + noise


@dataclass
class GenConfig:
    """Knobs for cleaning and generation."""

    delta_t: float = 30.0            # interpolation interval, seconds
    bandwidth: float = 50.0          # kernel bandwidth, meters
    per_hour_count_scale: float = field(default=1.0, metadata={KEY: "gen.count_scale"})
    max_speed: float = 60.0          # anomaly threshold, m/s
    gap_split: float = 300.0         # segmentation gap, seconds

    def __post_init__(self) -> None:
        for name in ("delta_t", "bandwidth", "max_speed", "gap_split"):
            if not getattr(self, name) > 0:
                raise ValueError(f"gen.{name} must be > 0, got {getattr(self, name)!r}")
        if not self.per_hour_count_scale >= 0:
            raise ValueError(f"gen.count_scale must be >= 0, got {self.per_hour_count_scale!r}")


@dataclass
class MobilityProfile:
    """Learned movement statistics driving generation.

    hour_histogram sums to 1; speed_bins holds per-hour leg speeds (m/s);
    entry/exit models are per-hour position densities for trip endpoints.
    Hours with no endpoint data fall back to the all-day model, and hours
    with no speed observations fall back to the all-day speed pool.
    """

    hour_histogram: np.ndarray
    speed_bins: list[np.ndarray]
    entry_kde: list[KdeModel]
    exit_kde: list[KdeModel]


def clean_and_segment(raw: Trajectory, cfg: GenConfig) -> list[Trajectory]:
    """Drop anomalous points and split on large time gaps.

    A point is dropped when its timestamp does not advance past the last kept
    point or when the implied speed from the last kept point exceeds
    cfg.max_speed. Segments split where the gap between kept points exceeds
    cfg.gap_split; segments with fewer than 2 points are discarded.
    """
    if not raw.points:
        raise ValueError("raw trajectory is empty")
    kept: list[TrajectoryPoint] = []
    for p in raw.points:
        if kept:
            dt = p.t - kept[-1].t
            if dt <= 0:
                continue
            if kept[-1].pos.dist_to(p.pos) / dt > cfg.max_speed:
                continue
        kept.append(p)

    segments: list[Trajectory] = []
    current: list[TrajectoryPoint] = []
    for p in kept:
        if current and p.t - current[-1].t > cfg.gap_split:
            if len(current) >= 2:
                segments.append(Trajectory(raw.vehicle_id, current))
            current = []
        current.append(p)
    if len(current) >= 2:
        segments.append(Trajectory(raw.vehicle_id, current))
    return segments


def map_to_roads(trajs: Sequence[Trajectory], net: RoadNetwork) -> list[Trajectory]:
    """Replace every point of every trajectory with its nearest-segment projection."""
    x = [p.pos.x for traj in trajs for p in traj.points]
    y = [p.pos.y for traj in trajs for p in traj.points]
    point = map_match(net, np.array((x, y)).T).point
    snapped = map(GeoPoint, point[:, 0].tolist(), point[:, 1].tolist())
    return [Trajectory(traj.vehicle_id, [TrajectoryPoint(p.t, next(snapped)) for p in traj.points])
            for traj in trajs]


def build_profile(segments: Sequence[Trajectory], cfg: GenConfig) -> MobilityProfile:
    """Fit the mobility profile from cleaned road-matched segments."""
    if not segments:
        raise ValueError("need at least one segment to build a profile")

    hour_counts = np.zeros(HOURS)
    speeds: list[list[float]] = [[] for _ in range(HOURS)]
    entries: list[list[tuple[float, float]]] = [[] for _ in range(HOURS)]
    exits: list[list[tuple[float, float]]] = [[] for _ in range(HOURS)]

    for seg in segments:
        for p in seg.points:
            hour_counts[hour_of(p.t)] += 1
        for a, b in zip(seg.points, seg.points[1:]):
            v = a.pos.dist_to(b.pos) / (b.t - a.t)
            if v > 0:
                speeds[hour_of(a.t)].append(v)
        first, last = seg.points[0], seg.points[-1]
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


_MIN_ENDPOINT_SEPARATION = 10.0  # meters
_COLLISION_RETRIES = 10


def generate_entry_exit(
    profile: MobilityProfile, hour: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n entry and n exit points from the hour's density models.

    Exits that land within 10 m of their paired entry are resampled up to 10
    times, then accepted as-is.
    """
    entries = profile.entry_kde[hour].sample(n, rng)
    exits = profile.exit_kde[hour].sample(n, rng)
    for i in range(n):
        for _ in range(_COLLISION_RETRIES):
            if np.hypot(*(exits[i] - entries[i])) >= _MIN_ENDPOINT_SEPARATION:
                break
            exits[i] = profile.exit_kde[hour].sample(1, rng)[0]
    return entries, exits


def _nearest_node(net: RoadNetwork, p: GeoPoint, edge_id: int) -> int:
    """Nearest node reached through the nearest arc's closer endpoint."""
    edge = net.edges[edge_id]
    da, db = (p.dist_to(net.nodes[n].pos) for n in (edge.from_node, edge.to_node))
    if da < db:
        return edge.from_node
    if db < da:
        return edge.to_node
    return min(edge.from_node, edge.to_node)


def generate_route(entry: GeoPoint, exit: GeoPoint, net: RoadNetwork) -> list[int]:
    """Route between the network nodes nearest to the two endpoints."""
    arcs = map_match(net, [(entry.x, entry.y), (exit.x, exit.y)]).edge_id.tolist()
    src, dst = (_nearest_node(net, p, e) for p, e in zip((entry, exit), arcs))
    try:
        path, _ = shortest_path(net, src, dst)
    except UnreachableError as exc:
        raise RouteError(str(exc)) from exc
    return path


def assign_times(
    path_points: Sequence[GeoPoint],
    start_t: float,
    profile: MobilityProfile,
    hour: int,
    rng: np.random.Generator,
    vehicle_id: int = 0,
) -> Trajectory:
    """Attach timestamps to a point path: t[i+1] = t[i] + d(p[i], p[i+1]) / v[i].

    Leg speeds v[i] are drawn from the hour's empirical speed samples.
    Consecutive duplicate points are collapsed before timing.
    """
    pts: list[GeoPoint] = []
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
    return Trajectory(vehicle_id, out)


def interpolate(traj: Trajectory, delta_t: float) -> Trajectory:
    """Resample onto the uniform grid t1, t1+dt, ... via linear interpolation.

    Each grid point between originals (x_i, y_i) and (x_{i+1}, y_{i+1}) is
        x = x_i + (t - t_i) / (t_{i+1} - t_i) * (x_{i+1} - x_i)
    and likewise for y. The final original point is appended when the grid
    does not land on it.
    """
    if len(traj.points) < 2:
        raise ValueError("need at least 2 points to interpolate")
    if not delta_t > 0:
        raise ValueError("delta_t must be positive")
    ts, xs, ys = np.array([(p.t, p.pos.x, p.pos.y) for p in traj.points]).T
    t0, t_end = ts[0], ts[-1]
    n_steps = int(math.floor((t_end - t0) / delta_t + 1e-9))
    t = t0 + np.arange(n_steps + 1) * delta_t
    i = np.minimum(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2)
    j = i + 1
    u = (t - ts[i]) / (ts[j] - ts[i])
    x, y = xs[i] + u * (xs[j] - xs[i]), ys[i] + u * (ys[j] - ys[i])
    out = [TrajectoryPoint(*p) for p in zip(t.tolist(), map(GeoPoint, x.tolist(), y.tolist()))]
    if t_end - out[-1].t > 1e-9:
        out.append(TrajectoryPoint(float(t_end), traj.points[-1].pos))
    return Trajectory(traj.vehicle_id, out)


_ROUTE_RETRIES = 20


def generate_dataset(
    profile: MobilityProfile,
    net: RoadNetwork,
    cfg: GenConfig,
    total_count: int,
    rng: np.random.Generator,
) -> tuple[list[Trajectory], int]:
    """Run the full generation pipeline for a target trajectory count.

    Per-hour counts are round(total_count * histogram * per_hour_count_scale).
    Each trajectory is generated from its own child RNG stream (stream id =
    trajectory index) so output does not depend on generation order.
    Entry/exit pairs that cannot be routed are resampled up to 20 times and
    then skipped; returns (trajectories, skip_count).
    """
    counts = [
        int(round(total_count * w * cfg.per_hour_count_scale))
        for w in profile.hour_histogram
    ]
    jobs = [hour for hour in range(HOURS) for _ in range(counts[hour])]
    streams = rng.spawn(len(jobs)) if jobs else []
    tracks = [_generate_one(profile, net, cfg, hour, idx, stream)
              for idx, (hour, stream) in enumerate(zip(jobs, streams))]
    tracks = [traj for traj in tracks if traj is not None]
    return map_to_roads(tracks, net), len(jobs) - len(tracks)


def _generate_one(
    profile: MobilityProfile,
    net: RoadNetwork,
    cfg: GenConfig,
    hour: int,
    vehicle_id: int,
    rng: np.random.Generator,
) -> Optional[Trajectory]:
    start_t = (hour + float(rng.uniform())) * _SECONDS_PER_HOUR
    for _ in range(_ROUTE_RETRIES):
        entries, exits = generate_entry_exit(profile, hour, 1, rng)
        entry = GeoPoint(float(entries[0, 0]), float(entries[0, 1]))
        exit_ = GeoPoint(float(exits[0, 0]), float(exits[0, 1]))
        try:
            route = generate_route(entry, exit_, net)
        except RouteError:
            continue
        if len(route) < 2:
            continue
        points = [net.nodes[nid].pos for nid in route]
        timed = assign_times(points, start_t, profile, hour, rng, vehicle_id)
        return interpolate(timed, cfg.delta_t)
    return None


# --- trajectory CSV interface (header: vehicle_id,t,x,y) ---

def write_trajectories_csv(trajs: Iterable[Trajectory], fh) -> int:
    """Write trajectories; returns the number of point rows written."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["vehicle_id", "t", "x", "y"])
    rows = 0
    for traj in trajs:
        for p in traj.points:
            writer.writerow([traj.vehicle_id, f"{p.t:.6f}", f"{p.pos.x:.6f}", f"{p.pos.y:.6f}"])
            rows += 1
    return rows


def read_trajectories_csv(fh) -> list[Trajectory]:
    """Trajectories by vehicle id; a non-finite time or coordinate is a ParseError."""
    by_vehicle: dict[int, list[TrajectoryPoint]] = {}
    for n, row in csv_rows(fh, ["vehicle_id", "t", "x", "y"], "trajectory"):
        t, x, y = (parse_num(f, float, what, n) for f, what in zip(row[1:], "txy"))
        by_vehicle.setdefault(parse_num(row[0], int, "vehicle id", n), []).append(
            TrajectoryPoint(t, GeoPoint(x, y))
        )
    return [Trajectory(vid, pts) for vid, pts in sorted(by_vehicle.items())]


def density_grid(trajs: Sequence[Trajectory], cell: float) -> dict[tuple[int, int], int]:
    """Count trajectory points per square grid cell of side `cell` meters.

    Raises OverflowError when a cell index is not finite (a cell too small
    for the coordinates)."""
    counts: dict[tuple[int, int], int] = {}
    for traj in trajs:
        for p in traj.points:
            key = (int(math.floor(p.pos.x / cell)), int(math.floor(p.pos.y / cell)))
            counts[key] = counts.get(key, 0) + 1
    return counts


# --- synthetic ground truth for self-consistency checks and demos ---

_DEFAULT_HOUR_SHAPE = 1.0 + 4.0 * np.exp(-((np.arange(24) - 8.0) ** 2) / 4.0) + \
    3.0 * np.exp(-((np.arange(24) - 18.0) ** 2) / 6.0)


def synthetic_truth(
    net: RoadNetwork,
    n_traj: int,
    rng: np.random.Generator,
    hour_weights: Optional[np.ndarray] = None,
    gps_noise: float = 3.0,
    sample_interval: float = 60.0,
) -> list[Trajectory]:
    """Fabricate plausible raw GPS tracks on a network for pipeline testing.

    Trip start hours follow a bimodal rush-hour shape, endpoints favour two
    randomly chosen anchor regions, leg speeds are uniform in [6, 14] m/s and
    points carry Gaussian position jitter, mimicking measurement noise.
    """
    weights = _DEFAULT_HOUR_SHAPE if hour_weights is None else hour_weights
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    node_ids = sorted(net.nodes)
    positions = np.array([[net.nodes[n].pos.x, net.nodes[n].pos.y] for n in node_ids])
    anchors = positions[rng.choice(len(node_ids), size=2, replace=False)]
    span = max(positions.max(axis=0) - positions.min(axis=0))
    scale = max(span / 3.0, 1.0)

    def node_weights(anchor: np.ndarray) -> np.ndarray:
        d = np.hypot(positions[:, 0] - anchor[0], positions[:, 1] - anchor[1])
        w = np.exp(-d / scale)
        return w / w.sum()

    w_entry = node_weights(anchors[0])
    w_exit = node_weights(anchors[1])

    out: list[Trajectory] = []
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
        t = (hour + float(rng.uniform())) * _SECONDS_PER_HOUR
        pts = [TrajectoryPoint(t, net.nodes[route[0]].pos)]
        for a, b in zip(route, route[1:]):
            pa, pb = net.nodes[a].pos, net.nodes[b].pos
            t += pa.dist_to(pb) / float(rng.uniform(6.0, 14.0))
            pts.append(TrajectoryPoint(t, pb))
        if len(pts) < 2:
            continue
        dense = interpolate(Trajectory(len(out), pts), sample_interval).points
        noise = rng.normal(0.0, gps_noise, (len(dense), 2)).tolist()  # x, y per point in turn
        noisy = [TrajectoryPoint(p.t, GeoPoint(p.pos.x + dx, p.pos.y + dy))
                 for p, (dx, dy) in zip(dense, noise)]
        out.append(Trajectory(len(out), noisy))
    return out
