import math

import numpy as np
import pytest

from vtmigsim.roadnet import GeoPoint, RoadNetwork, map_match
from vtmigsim.trajgen import (
    FitError,
    GenConfig,
    KdeModel,
    Trajectory,
    TrajectoryPoint,
    assign_times,
    build_profile,
    clean_and_segment,
    density_grid,
    generate_dataset,
    generate_entry_exit,
    generate_route,
    interpolate,
    map_to_roads,
    read_trajectories_csv,
    synthetic_truth,
    write_trajectories_csv,
)


def grid_network(n=4, spacing=200.0):
    nodes = []
    edges = []
    for r in range(n):
        for c in range(n):
            nodes.append((r * n + c, c * spacing, r * spacing))
    for r in range(n):
        for c in range(n):
            nid = r * n + c
            if c + 1 < n:
                edges.append((nid, nid + 1, None, 14.0))
            if r + 1 < n:
                edges.append((nid, nid + n, None, 14.0))
    return RoadNetwork.from_undirected(nodes, edges)


def traj(points, vid=0):
    return Trajectory(vid, [TrajectoryPoint(t, GeoPoint(x, y)) for t, x, y in points])


def _xy(t):
    return [(p.pos.x, p.pos.y) for p in t.points]


CFG = GenConfig(delta_t=30.0, bandwidth=50.0, max_speed=60.0, gap_split=300.0)


# --- cleaning / segmentation ---

def test_clean_identity():
    raw = traj([(0, 0, 0), (10, 50, 0), (20, 100, 0)])
    segs = clean_and_segment(raw, CFG)
    assert len(segs) == 1
    assert [p.t for p in segs[0].points] == [0, 10, 20]


def test_clean_removes_teleport():
    # middle point implies 5000 m / 10 s = 500 m/s; next point is 100 m from
    # the last kept point over 20 s = 5 m/s, so it survives
    raw = traj([(0, 0, 0), (10, 5000, 0), (20, 100, 0)])
    segs = clean_and_segment(raw, CFG)
    assert len(segs) == 1
    assert [(p.t, p.pos.x) for p in segs[0].points] == [(0, 0.0), (20, 100.0)]


def test_clean_drops_duplicate_timestamps():
    raw = traj([(0, 0, 0), (0, 5, 0), (10, 50, 0)])
    segs = clean_and_segment(raw, CFG)
    assert [p.t for p in segs[0].points] == [0, 10]


def test_clean_splits_on_gap():
    raw = traj([(0, 0, 0), (60, 100, 0), (660, 200, 0), (720, 300, 0)])
    segs = clean_and_segment(raw, CFG)  # 600 s gap > 300 s
    assert len(segs) == 2
    assert [p.t for p in segs[0].points] == [0, 60]
    assert [p.t for p in segs[1].points] == [660, 720]


def test_clean_discards_short_segments():
    raw = traj([(0, 0, 0), (400, 10, 0), (800, 20, 0)])
    assert clean_and_segment(raw, CFG) == []


# --- KDE ---

def kde_density(m, p):
    """Estimated density (1/m^2) of KDE model m at a query point."""
    h = m.bandwidth
    d2 = (m.samples[:, 0] - p.x) ** 2 + (m.samples[:, 1] - p.y) ** 2
    kern = np.exp(-d2 / (2.0 * h * h)) / (2.0 * math.pi * h * h)
    return float(kern.mean())


def test_kde_single_sample_at_origin():
    m = KdeModel(np.array([[0.0, 0.0]]), 0.05)
    # 1 / (2 pi h^2) with h = 0.05
    assert kde_density(m, GeoPoint(0, 0)) == pytest.approx(1.0 / (2.0 * math.pi * 0.0025))
    assert kde_density(m, GeoPoint(0, 0)) == pytest.approx(63.66197723675813)


def test_kde_far_query_decays():
    m = KdeModel(np.array([[0.0, 0.0]]), 0.05)
    assert kde_density(m, GeoPoint(1e6, 0)) < 1e-12


def naive_density(samples, h, x, y):
    total = 0.0
    for sx, sy in samples:
        d2 = (x - sx) ** 2 + (y - sy) ** 2
        total += math.exp(-d2 / (2 * h * h)) / (2 * math.pi * h * h)
    return total / len(samples)


def test_kde_matches_naive_loop():
    rng = np.random.default_rng(3)
    for _ in range(20):
        samples = rng.uniform(-100, 100, size=(int(rng.integers(1, 40)), 2))
        h = float(rng.uniform(0.5, 80))
        m = KdeModel(samples, h)
        qx, qy = rng.uniform(-120, 120, size=2)
        expected = naive_density(samples, h, qx, qy)
        got = kde_density(m, GeoPoint(qx, qy))
        assert got == pytest.approx(expected, rel=1e-12)


def test_kde_empty_fit_rejected():
    with pytest.raises(FitError):
        KdeModel(np.empty((0, 2)), 1.0)


def test_kde_sample_count_zero():
    m = KdeModel(np.array([[1.0, 2.0]]), 1.0)
    assert m.sample(0, np.random.default_rng(0)).shape == (0, 2)


def test_kde_sample_degenerate_bandwidth():
    m = KdeModel(np.array([[3.0, 4.0]]), 1e-9)
    pts = m.sample(50, np.random.default_rng(1))
    assert np.all(np.hypot(pts[:, 0] - 3.0, pts[:, 1] - 4.0) < 1e-6)


def test_kde_sample_mean_converges():
    m = KdeModel(np.array([[5.0, 5.0]]), 1.0)
    pts = m.sample(10_000, np.random.default_rng(42))
    assert abs(pts[:, 0].mean() - 5.0) < 0.05
    assert abs(pts[:, 1].mean() - 5.0) < 0.05


# --- profile ---

def test_profile_single_hour_histogram():
    seg = traj([(8 * 3600, 0, 0), (8 * 3600 + 10, 100, 0)])
    profile = build_profile([seg], CFG)
    assert profile.hour_histogram[8] == pytest.approx(1.0)
    assert profile.hour_histogram.sum() == pytest.approx(1.0, abs=1e-9)


def test_profile_speed_sample():
    seg = traj([(0, 0, 0), (10, 100, 0)])
    profile = build_profile([seg], CFG)
    assert profile.speed_bins[0].tolist() == [10.0]


def test_profile_histogram_normalized():
    rng = np.random.default_rng(11)
    segs = []
    for i in range(5):
        t0 = float(rng.uniform(0, 86000))
        segs.append(traj([(t0, 0, 0), (t0 + 30, 200, 0), (t0 + 60, 400, 0)], vid=i))
    profile = build_profile(segs, CFG)
    assert profile.hour_histogram.sum() == pytest.approx(1.0, abs=1e-9)


def test_profile_fallback_hours_use_all_day_models():
    seg = traj([(8 * 3600, 0, 0), (8 * 3600 + 10, 100, 0)])
    profile = build_profile([seg], CFG)
    # hour 3 saw no endpoints: falls back to the all-day model
    assert profile.entry_kde[3] is profile.entry_kde[3]
    assert len(profile.entry_kde[3].samples) == 1
    assert profile.speed_bins[3].tolist() == [10.0]


# --- entry/exit sampling ---

def make_profile():
    segs = [
        traj([(8 * 3600, 0, 0), (8 * 3600 + 20, 200, 0), (8 * 3600 + 40, 400, 0)]),
        traj([(8 * 3600 + 100, 600, 600), (8 * 3600 + 130, 400, 600), (8 * 3600 + 160, 200, 600)], vid=1),
    ]
    return build_profile(segs, CFG)


def test_entry_exit_zero():
    profile = make_profile()
    entries, exits = generate_entry_exit(profile, 8, 0, np.random.default_rng(0))
    assert entries.shape == (0, 2)
    assert exits.shape == (0, 2)


def test_entry_exit_deterministic():
    profile = make_profile()
    a = generate_entry_exit(profile, 8, 100, np.random.default_rng(9))
    b = generate_entry_exit(profile, 8, 100, np.random.default_rng(9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_entry_exit_separation_enforced():
    # entry and exit densities on the same single point: resampling cannot
    # separate them fully, but typical draws end far enough apart
    profile = make_profile()
    entries, exits = generate_entry_exit(profile, 8, 50, np.random.default_rng(5))
    sep = np.hypot(*(exits - entries).T)
    assert (sep >= 10.0).mean() > 0.9


# --- routing / timing / interpolation ---

def test_generate_route_triangle():
    net = RoadNetwork.from_undirected(
        [(0, 0, 0), (1, 100, 0), (2, 200, 0)],
        [(0, 1, 1.0, 10), (1, 2, 1.0, 10), (0, 2, 3.0, 10)],
    )
    route = generate_route(GeoPoint(-5, 2), GeoPoint(205, 2), net)
    assert route == [0, 1, 2]


def test_generate_route_same_node():
    net = grid_network()
    route = generate_route(GeoPoint(1, 1), GeoPoint(2, 2), net)
    assert len(route) == 1


def test_assign_times_arithmetic():
    profile = make_profile()
    profile.speed_bins[8] = np.array([10.0])
    out = assign_times([GeoPoint(0, 0), GeoPoint(100, 0)], 1000.0, profile, 8, np.random.default_rng(0))
    assert out.points[1].t - out.points[0].t == pytest.approx(10.0)


def test_assign_times_single_speed():
    profile = make_profile()
    profile.speed_bins[8] = np.array([5.0])
    out = assign_times([GeoPoint(0, 0), GeoPoint(5, 0)], 0.0, profile, 8, np.random.default_rng(0))
    assert out.points[1].t == pytest.approx(1.0)


def test_assign_times_strictly_increasing():
    profile = make_profile()
    rng = np.random.default_rng(2)
    pts = [GeoPoint(float(i * 50), 0) for i in range(20)]
    out = assign_times(pts, 0.0, profile, 8, rng)
    ts = [p.t for p in out.points]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_interpolate_midpoint():
    t = traj([(0, 0, 0), (10, 10, 0)])
    out = interpolate(t, 5.0)
    assert (out.points[1].t, out.points[1].pos.x) == (5.0, pytest.approx(5.0))


def test_interpolate_linear_formula():
    t = traj([(0, 0, 0), (4, 4, 8)])
    out = interpolate(t, 1.0)
    p1 = out.points[1]
    assert p1.t == 1.0
    assert p1.pos.x == pytest.approx(1.0)
    assert p1.pos.y == pytest.approx(2.0)


def test_interpolate_degenerate_interval():
    t = traj([(0, 0, 0), (10, 10, 0)])
    out = interpolate(t, 100.0)
    assert [(p.t, p.pos.x) for p in out.points] == [(0.0, 0.0), (10.0, 10.0)]


def test_interpolate_collinearity():
    rng = np.random.default_rng(8)
    pts = [(0.0, 0.0, 0.0)]
    t = 0.0
    for _ in range(6):
        t += float(rng.uniform(3, 40))
        pts.append((t, float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100))))
    source = traj(pts)
    out = interpolate(source, 7.0)
    ts = np.array([p.t for p in source.points])
    for p in out.points:
        i = min(int(np.searchsorted(ts, p.t, side="right")) - 1, len(ts) - 2)
        a, b = source.points[i], source.points[i + 1]
        cross = (b.pos.x - a.pos.x) * (p.pos.y - a.pos.y) - (b.pos.y - a.pos.y) * (p.pos.x - a.pos.x)
        scale = max(a.pos.dist_to(b.pos), 1.0)
        assert abs(cross) / (scale * scale) < 1e-9


def test_map_to_roads_and_correct():
    net = grid_network()
    t = traj([(0, 3, -4), (30, 203, 6)])
    [matched] = map_to_roads([t], net)
    assert (map_match(net, _xy(matched)).distance < 1e-6).all()
    assert map_to_roads([matched], net)[0].points[0].pos == matched.points[0].pos


# --- full pipeline ---

def test_generate_dataset_zero():
    profile = make_profile()
    out, skipped = generate_dataset(profile, grid_network(), CFG, 0, np.random.default_rng(0))
    assert out == [] and skipped == 0


def test_generate_dataset_hour_concentration():
    net = grid_network()
    rng = np.random.default_rng(21)
    truth = synthetic_truth(net, 40, rng, hour_weights=np.eye(24)[8])
    segs = []
    for t in truth:
        segs.extend(clean_and_segment(t, CFG))
    profile = build_profile(map_to_roads(segs, net), CFG)
    out, _ = generate_dataset(profile, net, CFG, 10, np.random.default_rng(1))
    assert len(out) > 0
    assert all(t.start_hour() == 8 for t in out)


def test_generate_dataset_deterministic():
    net = grid_network()
    rng = np.random.default_rng(13)
    truth = synthetic_truth(net, 30, rng)
    segs = []
    for t in truth:
        segs.extend(clean_and_segment(t, CFG))
    profile = build_profile(map_to_roads(segs, net), CFG)
    a, _ = generate_dataset(profile, net, CFG, 20, np.random.default_rng(99))
    b, _ = generate_dataset(profile, net, CFG, 20, np.random.default_rng(99))
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert [(p.t, p.pos.x, p.pos.y) for p in ta.points] == [
            (p.t, p.pos.x, p.pos.y) for p in tb.points
        ]


def test_generated_points_on_roads_and_grid_spaced():
    net = grid_network()
    rng = np.random.default_rng(17)
    truth = synthetic_truth(net, 30, rng)
    segs = []
    for t in truth:
        segs.extend(clean_and_segment(t, CFG))
    profile = build_profile(map_to_roads(segs, net), CFG)
    out, _ = generate_dataset(profile, net, CFG, 15, np.random.default_rng(3))
    assert out
    for t in out:
        ts = [p.t for p in t.points]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        for a, b in zip(ts[:-1], ts[1:-1] or []):
            assert b - a == pytest.approx(CFG.delta_t)
        assert (map_match(net, _xy(t)).distance < 1e-6).all()


def test_trajectory_csv_roundtrip(tmp_path):
    net = grid_network()
    rng = np.random.default_rng(4)
    trajs = synthetic_truth(net, 5, rng)
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as fh:
        write_trajectories_csv(trajs, fh)
    with open(path) as fh:
        back = read_trajectories_csv(fh)
    assert len(back) == len(trajs)
    for a, b in zip(trajs, back):
        assert len(a.points) == len(b.points)
        for pa, pb in zip(a.points, b.points):
            assert pa.t == pytest.approx(pb.t, abs=1e-6)
            assert pa.pos.x == pytest.approx(pb.pos.x, abs=1e-6)


def test_density_grid_counts():
    t = traj([(0, 10, 10), (10, 10, 10), (20, 260, 10)])
    grid = density_grid([t], 250.0)
    assert grid[(0, 0)] == 2
    assert grid[(1, 0)] == 1
