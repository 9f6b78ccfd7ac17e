"""Synthetic vehicle trajectory generation over a road network.

Pipeline: clean and segment raw tracks, snap them to roads, learn a mobility
profile (hour-of-day weights, per-hour speeds, per-hour entry/exit density
models), then generate new trajectories by sampling entry/exit points,
routing them through the network, timing the path from empirical speeds,
densifying with fixed-interval linear interpolation, and snapping the result
back onto the roads. Every stage reads and writes whole trajectory columns;
a distance between track points has `math.hypot`'s bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .configio import KEY, RANGE, check_fields
from .roadnet import RoadNetwork, UnreachableError, hypot, map_match, read_columns
from .roadnet import shortest_path

HOURS = 24
_SECONDS_PER_HOUR = 3600.0
_MAX_STEPS = 2**24  # interpolation steps per track, so a tiny delta_t cannot exhaust memory


class FitError(ValueError):
    """Raised when a density model is fit on no data."""


@dataclass(eq=False)
class Trajectory:
    """Timestamped positions of one vehicle as columns, one row per point:
    `t` (N,) seconds since epoch and `xy` (N, 2) planar meters, both float64.

    Valid trajectories have strictly increasing timestamps; raw GPS input may
    violate that until it passes through clean_and_segment.
    """

    vehicle_id: int
    t: np.ndarray
    xy: np.ndarray

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.xy = np.asarray(self.xy, dtype=float).reshape(-1, 2)
        if self.t.shape != (len(self.xy),):
            raise ValueError(f"{self.t.shape} times for {len(self.xy)} positions")


def hour_of(t) -> np.ndarray:
    """Local hour-of-day buckets of epoch timestamps, int(t // 3600) % 24 each:
    numpy's float // and % round as Python's do."""
    return (np.asarray(t, dtype=float) // _SECONDS_PER_HOUR % HOURS).astype(int)


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

    delta_t: float = field(default=30.0, metadata={RANGE: "> 0"})  # interpolation interval, s
    bandwidth: float = field(default=50.0, metadata={RANGE: "> 0"})  # kernel bandwidth, meters
    per_hour_count_scale: float = field(
        default=1.0, metadata={KEY: "gen.count_scale", RANGE: ">= 0"})
    max_speed: float = field(default=60.0, metadata={RANGE: "> 0"})  # anomaly threshold, m/s
    gap_split: float = field(default=300.0, metadata={RANGE: "> 0"})  # segmentation gap, s

    def __post_init__(self) -> None:
        check_fields(self, "gen")


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
    if not len(raw.t):
        raise ValueError("raw trajectory is empty")
    # Sequential by definition: each point is judged against the last kept one.
    ts, pos = raw.t.tolist(), raw.xy.tolist()
    keep = [0]
    for i in range(1, len(ts)):
        k = keep[-1]
        dt = ts[i] - ts[k]
        (xk, yk), (xi, yi) = pos[k], pos[i]
        if dt <= 0 or math.hypot(xk - xi, yk - yi) / dt > cfg.max_speed:
            continue
        keep.append(i)
    t, xy = raw.t[keep], raw.xy[keep]
    cuts = np.flatnonzero(np.diff(t) > cfg.gap_split) + 1
    return [Trajectory(raw.vehicle_id, seg_t, seg_xy)
            for seg_t, seg_xy in zip(np.split(t, cuts), np.split(xy, cuts)) if len(seg_t) >= 2]


def map_to_roads(trajs: Sequence[Trajectory], net: RoadNetwork) -> list[Trajectory]:
    """Replace every point of every trajectory with its nearest-segment projection,
    matching all points in one batch."""
    point = map_match(net, np.concatenate([np.empty((0, 2)), *(traj.xy for traj in trajs)])).point
    ends = np.cumsum([len(traj.t) for traj in trajs], dtype=int)
    return [Trajectory(traj.vehicle_id, traj.t, xy)
            for traj, xy in zip(trajs, np.split(point, ends[:-1]))]


def _by_hour(values: np.ndarray, hours: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(values ordered by hour, its 24 per-hour groups); a group keeps the input order."""
    ordered = values[np.argsort(hours, kind="stable")]
    return ordered, np.split(ordered, np.cumsum(np.bincount(hours, minlength=HOURS))[:-1])


def build_profile(segments: Sequence[Trajectory], cfg: GenConfig) -> MobilityProfile:
    """Fit the mobility profile from cleaned road-matched segments.

    A leg's speed is filed under the hour of its first point, an entry (exit)
    under the hour of its segment's first (last) point; within an hour they
    keep segment order, then leg order.
    """
    if not segments:
        raise ValueError("need at least one segment to build a profile")
    t = np.concatenate([seg.t for seg in segments])
    xy = np.concatenate([seg.xy for seg in segments])
    last = np.cumsum([len(seg.t) for seg in segments]) - 1
    first = np.concatenate(([0], last[:-1] + 1))
    hour = hour_of(t)
    histogram = np.bincount(hour, minlength=HOURS) / len(t)

    a = np.delete(np.arange(len(t)), last)  # leg a -> a + 1
    dt = t[a + 1] - t[a]
    if not (dt > 0).all():
        raise ValueError("segment timestamps must be strictly increasing")
    v = hypot(*(xy[a] - xy[a + 1]).T) / dt
    moving = v > 0
    all_speeds, speeds = _by_hour(v[moving], hour[a][moving])
    if all_speeds.size == 0:
        raise ValueError("no positive-speed legs in any segment")
    speed_bins = [bucket if bucket.size else all_speeds for bucket in speeds]

    kdes = []
    for ends in (first, last):
        all_day, by_hour = _by_hour(xy[ends], hour[ends])
        all_day_kde = KdeModel(all_day, cfg.bandwidth)
        kdes.append([KdeModel(b, cfg.bandwidth) if len(b) else all_day_kde for b in by_hour])
    return MobilityProfile(histogram, speed_bins, *kdes)


_MIN_ENDPOINT_SEPARATION = 10.0  # meters
_COLLISION_RETRIES = 10


def generate_entry_exit(
    profile: MobilityProfile, hour: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one (x, y) entry and one exit from the hour's density models.

    An exit that lands within 10 m of the entry is resampled up to 10 times,
    then accepted as-is.
    """
    entry = profile.entry_kde[hour].sample(1, rng)[0]
    exit = profile.exit_kde[hour].sample(1, rng)[0]
    for _ in range(_COLLISION_RETRIES):
        if np.hypot(*(exit - entry)) >= _MIN_ENDPOINT_SEPARATION:
            break
        exit = profile.exit_kde[hour].sample(1, rng)[0]
    return entry, exit


def generate_route(entries, exits, net: RoadNetwork) -> list[Optional[list[int]]]:
    """Routes between the network nodes nearest to each entry/exit pair, rows of
    `entries` and `exits` (J, 2); None where no route connects the pair.

    A point's node is the nearer end of its nearest arc (ties: the lower id);
    all 2J points are matched in one batch.
    """
    ends = np.array([entries, exits], dtype=float).reshape(-1, 2)
    arcs = net.arcs[map_match(net, ends).edge_id]
    d = hypot(*(ends[:, None] - net.xy[arcs]).T).T  # (2J, 2) to each end of the arc
    a, b = arcs.T
    node = np.where(d[:, 0] < d[:, 1], a, np.where(d[:, 1] < d[:, 0], b, np.minimum(a, b)))
    routes = []
    for src, dst in zip(*node.reshape(2, -1).tolist()):
        try:
            routes.append(shortest_path(net, net.ids[src], net.ids[dst])[0])
        except UnreachableError:
            routes.append(None)
    return routes


def assign_times(
    path_xy: np.ndarray,
    start_t: float,
    profile: MobilityProfile,
    hour: int,
    rng: np.random.Generator,
    vehicle_id: int = 0,
) -> Trajectory:
    """Attach timestamps to a (K, 2) point path: t[i+1] = t[i] + d(p[i], p[i+1]) / v[i].

    Leg speeds v[i] are drawn from the hour's empirical speed samples, one
    index draw per leg in leg order. Consecutive duplicate points are
    collapsed before timing; the times accumulate leg by leg from start_t.
    """
    xy = np.asarray(path_xy, dtype=float).reshape(-1, 2)
    d = hypot(*(xy[:-1] - xy[1:]).T)
    moved = d != 0.0
    if not moved.any():
        raise ValueError("need at least 2 distinct points to assign times")
    pool = profile.speed_bins[hour]
    if pool.size == 0:
        raise ValueError(f"hour {hour} has no speed samples")
    v = pool[rng.integers(0, pool.size, size=np.count_nonzero(moved))]
    t = np.add.accumulate(np.concatenate(([float(start_t)], d[moved] / v)))
    return Trajectory(vehicle_id, t, xy[np.concatenate(([True], moved))])


def interpolate(traj: Trajectory, delta_t: float) -> Trajectory:
    """Resample onto the uniform grid t1, t1+dt, ... via linear interpolation.

    Each grid point between originals (x_i, y_i) and (x_{i+1}, y_{i+1}) is
        x = x_i + (t - t_i) / (t_{i+1} - t_i) * (x_{i+1} - x_i)
    and likewise for y. The final original point is appended when the grid
    does not land on it.
    """
    ts, xy = traj.t, traj.xy
    if len(ts) < 2:
        raise ValueError("need at least 2 points to interpolate")
    t0, t_end = ts[0], ts[-1]
    steps = float(t_end - t0) / float(delta_t) + 1e-9 if delta_t > 0 else math.nan
    if not steps <= _MAX_STEPS:
        raise ValueError(f"delta_t must be > 0 and give a finite step count, got {delta_t!r}")
    t = t0 + np.arange(math.floor(steps) + 1) * delta_t
    i = np.minimum(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2)
    u = (t - ts[i]) / (ts[i + 1] - ts[i])
    out = xy[i] + u[:, None] * (xy[i + 1] - xy[i])
    if t_end - t[-1] > 1e-9:
        t, out = np.append(t, t_end), np.concatenate((out, xy[-1:]))
    return Trajectory(traj.vehicle_id, t, out)


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
    trajectory index), so output does not depend on how jobs are interleaved.
    Jobs are routed in rounds: each pending job draws an entry/exit pair, one
    `generate_route` call routes them all, and a pair with no route of two
    nodes or more leaves its job pending. Jobs still pending after 20 rounds
    are skipped; returns (trajectories, skip_count).
    """
    counts = [
        int(round(total_count * w * cfg.per_hour_count_scale))
        for w in profile.hour_histogram
    ]
    jobs = [hour for hour in range(HOURS) for _ in range(counts[hour])]
    streams = rng.spawn(len(jobs)) if jobs else []
    start_t = [(hour + float(s.uniform())) * _SECONDS_PER_HOUR for hour, s in zip(jobs, streams)]
    tracks: list[Optional[Trajectory]] = [None] * len(jobs)
    pending = list(range(len(jobs)))
    for _ in range(_ROUTE_RETRIES):
        if not pending:
            break
        ends = np.array([generate_entry_exit(profile, jobs[j], streams[j]) for j in pending])
        for j, route in zip(pending, generate_route(ends[:, 0], ends[:, 1], net)):
            if route is not None and len(route) >= 2:
                path = net.xy[[net._index[nid] for nid in route]]
                timed = assign_times(path, start_t[j], profile, jobs[j], streams[j], j)
                tracks[j] = interpolate(timed, cfg.delta_t)
        pending = [j for j in pending if tracks[j] is None]
    done = [traj for traj in tracks if traj is not None]
    return map_to_roads(done, net), len(pending)


# --- trajectory CSV interface ---

TRAJ_HEADER = ["vehicle_id", "t", "x", "y"]
TRAJ_ROW = "%d,%.6f,%.6f,%.6f\n"


def write_trajectories_csv(trajs: Iterable[Trajectory], fh) -> int:
    """Write trajectories; returns the number of point rows written."""
    rows = [TRAJ_ROW % (traj.vehicle_id, t, x, y)
            for traj in trajs for t, (x, y) in zip(traj.t.tolist(), traj.xy.tolist())]
    fh.write("".join([",".join(TRAJ_HEADER) + "\n", *rows]))
    return len(rows)


def read_trajectories_csv(fh) -> list[Trajectory]:
    """Trajectories by vehicle id, each with its rows in file order; a
    non-finite time or coordinate is a ParseError."""
    t, x, y, vid = read_columns(fh, TRAJ_HEADER, "trajectory", [
        (1, float, "t"), (2, float, "x"), (3, float, "y"), (0, int, "vehicle id")])
    order = np.argsort(vid, kind="stable")
    vid, t, xy = vid[order], t[order], np.column_stack((x, y))[order]
    cuts = (np.flatnonzero(vid[1:] != vid[:-1]) + 1).tolist()
    ids = vid[[0, *cuts]].tolist() if len(vid) else []
    return [Trajectory(*track) for track in zip(ids, np.split(t, cuts), np.split(xy, cuts))]


def density_grid(trajs: Sequence[Trajectory], cell: float) -> dict[tuple[int, int], int]:
    """Count trajectory points per square grid cell of side `cell` meters.

    Raises OverflowError when a cell index is not finite (a cell too small
    for the coordinates)."""
    xy = np.concatenate([np.empty((0, 2)), *(traj.xy for traj in trajs)])
    cells, counts = np.unique(np.floor(xy / cell), axis=0, return_counts=True)
    return {(int(cx), int(cy)): n for (cx, cy), n in zip(cells.tolist(), counts.tolist())}


# --- synthetic ground truth for self-consistency checks and demos ---

_SYNTHETIC_GPS_NOISE = 3.0  # meters, the standard deviation of each coordinate's jitter
_SYNTHETIC_SAMPLE_INTERVAL = 60.0  # seconds between a track's points
_DEFAULT_HOUR_SHAPE = 1.0 + 4.0 * np.exp(-((np.arange(24) - 8.0) ** 2) / 4.0) + \
    3.0 * np.exp(-((np.arange(24) - 18.0) ** 2) / 6.0)


def synthetic_truth(
    net: RoadNetwork,
    n_traj: int,
    rng: np.random.Generator,
    hour_weights: Optional[np.ndarray] = None,
) -> list[Trajectory]:
    """Fabricate plausible raw GPS tracks on a network for pipeline testing.

    Trip start hours follow a bimodal rush-hour shape, endpoints favour two
    randomly chosen anchor regions, leg speeds are uniform in [6, 14] m/s and
    points carry Gaussian position jitter, mimicking measurement noise. An
    hour, entry or exit is drawn as `rng.choice(n, p=w)` draws it: one
    `rng.random()` looked up in the cumulative weights, here built once.
    """
    weights = np.asarray(_DEFAULT_HOUR_SHAPE if hour_weights is None else hour_weights, float)
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not (weights.shape == (HOURS,) and (weights >= 0).all() and 0 < total < math.inf):
        raise ValueError(f"hour_weights must be {HOURS} finite weights >= 0 with a finite sum > 0")
    node_ids, positions = net.ids, net.xy
    anchors = positions[rng.choice(len(node_ids), size=2, replace=False)]
    span = max(positions.max(axis=0) - positions.min(axis=0))
    scale = max(span / 3.0, 1.0)

    def cdf(p: np.ndarray) -> np.ndarray:
        """`Generator.choice`'s table for probabilities p."""
        c = p.cumsum()
        return c / c[-1]

    def node_weights(anchor: np.ndarray) -> np.ndarray:
        d = np.hypot(positions[:, 0] - anchor[0], positions[:, 1] - anchor[1])
        w = np.exp(-d / scale)
        return w / w.sum()

    hours, entries, exits = (cdf(p) for p in (
        weights / total, node_weights(anchors[0]), node_weights(anchors[1])))

    out: list[Trajectory] = []
    attempts = 0
    while len(out) < n_traj and attempts < 20 * n_traj:
        attempts += 1
        hour = int(hours.searchsorted(rng.random(), side="right"))
        src = node_ids[int(entries.searchsorted(rng.random(), side="right"))]
        dst = node_ids[int(exits.searchsorted(rng.random(), side="right"))]
        if src == dst:
            continue
        try:
            route, _ = shortest_path(net, src, dst)
        except UnreachableError:
            continue
        t0 = (hour + float(rng.uniform())) * _SECONDS_PER_HOUR
        path = positions[[net._index[nid] for nid in route]]  # src != dst: two nodes or more
        legs = hypot(*(path[:-1] - path[1:]).T) / rng.uniform(6.0, 14.0, size=len(route) - 1)
        timed = Trajectory(len(out), np.add.accumulate(np.concatenate(([t0], legs))), path)
        dense = interpolate(timed, _SYNTHETIC_SAMPLE_INTERVAL)
        noise = rng.normal(0.0, _SYNTHETIC_GPS_NOISE, dense.xy.shape)  # x, y per point in turn
        out.append(Trajectory(len(out), dense.t, dense.xy + noise))
    return out
