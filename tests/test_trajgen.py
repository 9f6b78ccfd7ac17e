import math

import numpy as np
import pytest

import reference_trajgen as ref_trajgen
from reference_roadnet import GeoPoint
from vtmigsim.roadnet import RoadNetwork, map_match
from vtmigsim.trajgen import (
    FitError,
    GenConfig,
    KdeModel,
    Trajectory,
    assign_times,
    build_profile,
    clean_and_segment,
    density_grid,
    generate_dataset,
    generate_entry_exit,
    generate_route,
    hour_of,
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
    return Trajectory(vid, [t for t, _, _ in points], [(x, y) for _, x, y in points])


CFG = GenConfig(delta_t=30.0, bandwidth=50.0, max_speed=60.0, gap_split=300.0)


# --- cleaning / segmentation ---

def test_clean_identity():
    raw = traj([(0, 0, 0), (10, 50, 0), (20, 100, 0)])
    segs = clean_and_segment(raw, CFG)
    assert len(segs) == 1
    assert segs[0].t.tolist() == [0, 10, 20]


def test_clean_removes_teleport():
    # middle point implies 5000 m / 10 s = 500 m/s; next point is 100 m from
    # the last kept point over 20 s = 5 m/s, so it survives
    raw = traj([(0, 0, 0), (10, 5000, 0), (20, 100, 0)])
    segs = clean_and_segment(raw, CFG)
    assert len(segs) == 1
    assert list(zip(segs[0].t.tolist(), segs[0].xy[:, 0].tolist())) == [(0, 0.0), (20, 100.0)]


def test_clean_drops_duplicate_timestamps():
    raw = traj([(0, 0, 0), (0, 5, 0), (10, 50, 0)])
    segs = clean_and_segment(raw, CFG)
    assert segs[0].t.tolist() == [0, 10]


def test_clean_splits_on_gap():
    raw = traj([(0, 0, 0), (60, 100, 0), (660, 200, 0), (720, 300, 0)])
    segs = clean_and_segment(raw, CFG)  # 600 s gap > 300 s
    assert len(segs) == 2
    assert segs[0].t.tolist() == [0, 60]
    assert segs[1].t.tolist() == [660, 720]


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
    # hours 0 and 3 saw no endpoints or legs: both share the all-day model and pool
    assert profile.entry_kde[3] is profile.entry_kde[0]
    assert len(profile.entry_kde[3].samples) == 1
    assert profile.speed_bins[3] is profile.speed_bins[0]
    assert profile.speed_bins[3].tolist() == [10.0]


# --- entry/exit sampling ---

def make_profile():
    segs = [
        traj([(8 * 3600, 0, 0), (8 * 3600 + 20, 200, 0), (8 * 3600 + 40, 400, 0)]),
        traj([(8 * 3600 + 100, 600, 600), (8 * 3600 + 130, 400, 600), (8 * 3600 + 160, 200, 600)], vid=1),
    ]
    return build_profile(segs, CFG)


def test_entry_exit_deterministic():
    profile = make_profile()
    a = generate_entry_exit(profile, 8, np.random.default_rng(9))
    b = generate_entry_exit(profile, 8, np.random.default_rng(9))
    assert a[0].shape == a[1].shape == (2,)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_entry_exit_separation_enforced():
    # entry and exit densities on the same single point: resampling cannot
    # separate them fully, but typical draws end far enough apart
    profile = make_profile()
    rng = np.random.default_rng(5)
    pairs = [generate_entry_exit(profile, 8, rng) for _ in range(50)]
    sep = [np.hypot(*(exit - entry)) for entry, exit in pairs]
    assert np.mean(np.array(sep) >= 10.0) > 0.9


# --- routing / timing / interpolation ---

def test_generate_route_triangle():
    net = RoadNetwork.from_undirected(
        [(0, 0, 0), (1, 100, 0), (2, 200, 0), (3, 1000, 0), (4, 1100, 0)],
        [(0, 1, 1.0, 10), (1, 2, 1.0, 10), (0, 2, 3.0, 10), (4, 3, None, 10)],
    )
    # Row 2 lies on the midpoint of arc 4 -> 3: the tie goes to the lower id, 3.
    routes = generate_route([(-5, 2), (-5, 2), (1050, 5)], [(205, 2), (1090, 0), (1120, 0)], net)
    assert routes == [[0, 1, 2], None, [3, 4]]


def test_generate_route_same_node():
    net = grid_network()
    assert generate_route([(1, 1)], [(2, 2)], net) == [[0]]


def test_assign_times_arithmetic():
    profile = make_profile()
    profile.speed_bins[8] = np.array([10.0])
    out = assign_times([(0, 0), (100, 0)], 1000.0, profile, 8, np.random.default_rng(0))
    assert out.t[1] - out.t[0] == pytest.approx(10.0)


def test_assign_times_single_speed():
    profile = make_profile()
    profile.speed_bins[8] = np.array([5.0])
    out = assign_times([(0, 0), (5, 0)], 0.0, profile, 8, np.random.default_rng(0))
    assert out.t[1] == pytest.approx(1.0)


def test_assign_times_strictly_increasing():
    profile = make_profile()
    rng = np.random.default_rng(2)
    pts = [(float(i * 50), 0) for i in range(20)]
    out = assign_times(pts, 0.0, profile, 8, rng)
    ts = out.t.tolist()
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_interpolate_midpoint():
    t = traj([(0, 0, 0), (10, 10, 0)])
    out = interpolate(t, 5.0)
    assert (out.t[1], out.xy[1, 0]) == (5.0, pytest.approx(5.0))


def test_interpolate_linear_formula():
    t = traj([(0, 0, 0), (4, 4, 8)])
    out = interpolate(t, 1.0)
    assert out.t[1] == 1.0
    assert out.xy[1, 0] == pytest.approx(1.0)
    assert out.xy[1, 1] == pytest.approx(2.0)


def test_interpolate_degenerate_interval():
    t = traj([(0, 0, 0), (10, 10, 0)])
    out = interpolate(t, 100.0)
    assert list(zip(out.t.tolist(), out.xy[:, 0].tolist())) == [(0.0, 0.0), (10.0, 10.0)]


def test_interpolate_collinearity():
    rng = np.random.default_rng(8)
    pts = [(0.0, 0.0, 0.0)]
    t = 0.0
    for _ in range(6):
        t += float(rng.uniform(3, 40))
        pts.append((t, float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100))))
    source = traj(pts)
    out = interpolate(source, 7.0)
    ts = source.t
    for t, (px, py) in zip(out.t.tolist(), out.xy.tolist()):
        i = min(int(np.searchsorted(ts, t, side="right")) - 1, len(ts) - 2)
        (ax, ay), (bx, by) = source.xy[i].tolist(), source.xy[i + 1].tolist()
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        scale = max(math.hypot(ax - bx, ay - by), 1.0)
        assert abs(cross) / (scale * scale) < 1e-9


def test_map_to_roads_and_correct():
    net = grid_network()
    t = traj([(0, 3, -4), (30, 203, 6)])
    [matched] = map_to_roads([t], net)
    assert (map_match(net, matched.xy).distance < 1e-6).all()
    assert map_to_roads([matched], net)[0].xy[0].tolist() == matched.xy[0].tolist()


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
    assert all(hour_of(t.t[0]) == 8 for t in out)


def _track_bits(trajs):
    return [(t.vehicle_id, [x.hex() for x in t.t.tolist()],
             [x.hex() for x in t.xy.ravel().tolist()]) for t in trajs]


@pytest.mark.parametrize("seed, hour_weights", [
    (0, None), (13, None), (21, np.eye(24)[8]), (5, np.arange(24.0)), (8, np.eye(24)[23] * 1e-300),
])
def test_synthetic_truth_draws_as_generator_choice(seed, hour_weights):
    """Drawing from tables built once gives the tracks, and leaves the generator
    in the state, that one `rng.choice(n, p=...)` per hour and endpoint does."""
    net = grid_network(6, 150.0)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = synthetic_truth(net, 12, rng, hour_weights=hour_weights)
    want = ref_trajgen.synthetic_truth(net, 12, ref_rng, hour_weights=hour_weights)
    assert _track_bits(got) == _track_bits(want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("hour_weights", [
    -np.eye(24)[3], np.full(24, np.nan), np.r_[np.ones(23), np.inf], np.zeros(24), np.ones(23),
    np.full(24, 1e308),
], ids=["negative", "nan", "inf", "all_zero", "short", "sum_overflows"])
def test_synthetic_truth_refuses_bad_hour_weights_before_any_draw(hour_weights):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="hour_weights must be 24 finite weights >= 0"):
        synthetic_truth(grid_network(), 5, rng, hour_weights=hour_weights)
    assert rng.bit_generator.state == state


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
        assert (ta.t.tolist(), ta.xy.tolist()) == (tb.t.tolist(), tb.xy.tolist())


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
        ts = t.t.tolist()
        assert all(b > a for a, b in zip(ts, ts[1:]))
        for a, b in zip(ts[:-1], ts[1:-1] or []):
            assert b - a == pytest.approx(CFG.delta_t)
        assert (map_match(net, t.xy).distance < 1e-6).all()


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
        assert len(a.t) == len(b.t)
        xs = zip(a.xy[:, 0].tolist(), b.xy[:, 0].tolist())
        for ta, tb, (xa, xb) in zip(a.t.tolist(), b.t.tolist(), xs):
            assert ta == pytest.approx(tb, abs=1e-6)
            assert xa == pytest.approx(xb, abs=1e-6)


def test_density_grid_counts():
    t = traj([(0, 10, 10), (10, 10, 10), (20, 260, 10)])
    grid = density_grid([t], 250.0)
    assert grid[(0, 0)] == 2
    assert grid[(1, 0)] == 1
