"""The column trajectory stages against the per-point references, bit for bit.

Raw tracks hold timestamps that do not advance or run back, over-speed jumps,
gaps of exactly `gap_split` and consecutive repeated positions. Times start
at epoch scale too, on and just off hour boundaries, where the grid's
rounding is coarsest and hour buckets turn over. Most hours see no data.
Interpolated tracks have uneven gaps, grids that land exactly on the last
timestamp, last gaps within and just past the 1e-9 tail tolerance, and two
points.

Generation in rounds runs on networks of two grids and a one-segment road
that share no node, with node ids in shuffled order and segments drawn in
either direction. Some hours route between the grids (never reachable, so
their jobs are skipped after 20 rounds), some retry until a pair lands on one
grid, and some sample both endpoints next to one node of the short road.
The route table is checked on the same networks: node pairs repeat within
and across `generate_route` calls, on a network and on its twin.
"""

import gc
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_trajgen as ref
from reference_roadnet import GeoPoint

from vtmigsim import roadnet, trajgen
from vtmigsim.roadnet import RoadNetwork
from vtmigsim.trajgen import (
    GenConfig,
    KdeModel,
    MobilityProfile,
    Trajectory,
    assign_times,
    build_profile,
    clean_and_segment,
    density_grid,
    generate_dataset,
    generate_route,
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


# --- generate_route and generate_dataset ---

def _grid(rows, cols, spacing, origin):
    """(x, y) nodes and (u, v) segments of a grid, node k at row k // cols."""
    nodes = [(origin[0] + c * spacing, origin[1] + r * spacing)
             for r in range(rows) for c in range(cols)]
    segs = [(k, k + 1) for k in range(len(nodes)) if (k + 1) % cols]
    segs += [(k, k + cols) for k in range(len(nodes) - cols)]
    return nodes, segs


@st.composite
def split_networks(draw):
    """(node columns, segments): grids A and B and the short road C, with
    shuffled ids and segments in drawn directions."""
    parts = [
        _grid(draw(st.integers(2, 4)), draw(st.integers(2, 4)),
              draw(st.sampled_from([50.0, 100.0, 137.5])), (0.0, 0.0)),
        _grid(draw(st.integers(1, 3)), draw(st.integers(2, 3)),
              draw(st.sampled_from([60.0, 100.0])), (draw(st.floats(1500.0, 2500.0)), 300.0)),
        _grid(1, 2, draw(st.sampled_from([8.0, 25.0])), (5000.0, -400.0)),
    ]
    xy, segs = [], []
    for nodes, part_segs in parts:
        segs += [(u + len(xy), v + len(xy)) for u, v in part_segs]
        xy += nodes
    order = draw(st.permutations(range(len(xy))))
    offset = draw(st.sampled_from([0, 10**6, 2**70]))  # ids past int64 too
    ids = [offset + 3 * k for k in order]
    edges = [(ids[v], ids[u], None, 12.0) if draw(st.booleans()) else (ids[u], ids[v], None, 12.0)
             for u, v in segs]
    return [(nid, x, y) for nid, (x, y) in zip(ids, xy)], edges


@st.composite
def split_cases(draw):
    """(node columns, segments, profile, cfg, count, seed) on a split network."""
    nodes, edges = draw(split_networks())
    xy = np.array([(x, y) for _, x, y in nodes])
    anchors = st.lists(st.sampled_from(range(len(nodes))), min_size=1, max_size=3)
    hours = draw(st.lists(st.integers(0, 23), min_size=1, max_size=3, unique=True))
    bandwidth = draw(st.sampled_from([2.0, 15.0, 60.0]))
    fallback = KdeModel(xy, bandwidth)
    entry_kde, exit_kde = [fallback] * 24, [fallback] * 24
    for h in hours:
        entry_kde[h] = KdeModel(xy[draw(anchors)], bandwidth)
        exit_kde[h] = KdeModel(xy[draw(anchors)], bandwidth)
    weights = np.zeros(24)
    weights[hours] = draw(st.lists(st.floats(0.1, 1.0), min_size=len(hours),
                                   max_size=len(hours)))
    speeds = [np.array(draw(st.lists(st.floats(2.0, 30.0), min_size=1, max_size=4)))] * 24
    profile = MobilityProfile(weights / weights.sum(), speeds, entry_kde, exit_kde)
    cfg = GenConfig(delta_t=draw(st.sampled_from([20.0, 30.0, 60.0])))
    return nodes, edges, profile, cfg, draw(st.integers(0, 12)), draw(st.integers(0, 2**32 - 1))


def _dataset_bits(fn, nodes, edges, profile, cfg, count, seed):
    """(track bits, skip count, parent state and spawn count) of one run on a fresh network."""
    rng = np.random.default_rng(seed)
    tracks, skipped = fn(profile, RoadNetwork.from_undirected(nodes, edges), cfg, count, rng)
    return ([_bits(traj) for traj in tracks], skipped,
            rng.bit_generator.state, rng.bit_generator.seed_seq.n_children_spawned)


def _moved(case, east):
    """The case with every node and density sample `east` meters east and north."""
    nodes, edges, profile, cfg, count, seed = case
    nodes = [(nid, x + east, y + east) for nid, x, y in nodes]
    kdes = {id(k): KdeModel(k.samples + east, k.bandwidth)
            for k in profile.entry_kde + profile.exit_kde}
    profile = MobilityProfile(profile.hour_histogram, profile.speed_bins,
                              [kdes[id(k)] for k in profile.entry_kde],
                              [kdes[id(k)] for k in profile.exit_kde])
    return nodes, edges, profile, cfg, count, seed


# 2**18 m is the scale of projected eastings: coordinates there keep fewer
# fraction bits, so arc lengths and distance estimates round differently.
@pytest.mark.parametrize("east", [0, 2**18])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(split_cases())
def test_generate_dataset_in_rounds_matches_job_at_a_time(east, case):
    case = _moved(case, east)
    assert _dataset_bits(generate_dataset, *case) == _dataset_bits(ref.generate_dataset, *case)


def test_rounds_retry_skip_and_snap_to_one_node_as_jobs_do():
    """Hour 3 routes A to B (every job skipped), hour 8 mixes A and B anchors
    (retries), hour 17 samples both ends next to one node of C."""
    a_nodes, a_segs = _grid(3, 3, 100.0, (0.0, 0.0))
    b_nodes, b_segs = _grid(2, 3, 100.0, (2000.0, 300.0))
    c_nodes, c_segs = _grid(1, 2, 25.0, (5000.0, -400.0))
    xy = np.array(a_nodes + b_nodes + c_nodes)
    segs = a_segs + [(u + 9, v + 9) for u, v in b_segs] + [(15, 16)]
    net_nodes = [(k, x, y) for k, (x, y) in enumerate(xy.tolist())]
    net_edges = [(u, v, None, 12.0) for u, v in segs]
    a, b, c = xy[:9], xy[9:15], xy[15:16]
    mixed = KdeModel(np.concatenate([a[:2], b[:1]]), 15.0)
    entry_kde, exit_kde = [mixed] * 24, [mixed] * 24
    entry_kde[3], exit_kde[3] = KdeModel(a, 15.0), KdeModel(b, 15.0)
    entry_kde[17] = exit_kde[17] = KdeModel(c, 2.0)  # the road's midpoint is six bandwidths away
    weights = np.zeros(24)
    weights[[3, 8, 17]] = (0.25, 0.5, 0.25)
    profile = MobilityProfile(weights, [np.array([10.0, 14.0])] * 24, entry_kde, exit_kde)
    case = (net_nodes, net_edges, profile, GenConfig(), 16, 41)
    calls = []
    real = trajgen.generate_route

    def counted(entries, exits, net):
        routes = real(entries, exits, net)
        calls.append([None if r is None else len(r) for r in routes])
        return routes

    with mock.patch.object(trajgen, "generate_route", counted):
        got = _dataset_bits(generate_dataset, *case)
    assert got == _dataset_bits(ref.generate_dataset, *case)
    assert got[1] == 8  # hours 3 and 17: four jobs each
    assert len(calls) == 20 and len(calls[0]) == 16 and len(calls[-1]) == 8
    assert None in calls[0] and 1 in calls[0]  # unreachable pairs and one-node routes


@st.composite
def route_rows(draw):
    """(node columns, segments, entries, exits): points on nodes, at arc
    midpoints (a tie between the arc's ends) and anywhere near the network."""
    nodes, edges = draw(split_networks())
    xy = {nid: (x, y) for nid, x, y in nodes}
    mids = [((xy[u][0] + xy[v][0]) / 2, (xy[u][1] + xy[v][1]) / 2) for u, v, _, _ in edges]
    point = st.one_of(st.sampled_from(list(xy.values())), st.sampled_from(mids),
                      st.tuples(st.floats(-200.0, 5200.0), st.floats(-600.0, 800.0)))
    rows = draw(st.integers(1, 8))
    return (nodes, edges, draw(st.lists(point, min_size=rows, max_size=rows)),
            draw(st.lists(point, min_size=rows, max_size=rows)))


@SETTINGS
@given(route_rows())
def test_generate_route_rows_match_pair_at_a_time(case):
    nodes, edges, entries, exits = case
    net = RoadNetwork.from_undirected(nodes, edges)
    want = []
    for entry, exit in zip(entries, exits):
        try:
            want.append(ref.generate_route(entry, exit, net))
        except roadnet.UnreachableError:
            want.append(None)
    assert generate_route(entries, exits, net) == want


def _fresh_route(net, src, dst):
    """A new search's node ids from src to dst, None where no path connects them."""
    try:
        return roadnet.shortest_path(net, src, dst)[0]
    except roadnet.UnreachableError:
        return None


@st.composite
def route_requests(draw):
    """(node columns, segments, batches of (src, dst) node rows) on a split
    network or one grid: the pairs come from a small pool, so they repeat
    within and across batches."""
    if draw(st.booleans()):
        nodes, edges = draw(split_networks())
    else:
        xy, segs = _grid(draw(st.integers(1, 4)), draw(st.integers(2, 4)), 100.0, (0.0, 0.0))
        nodes = [(k, x, y) for k, (x, y) in enumerate(xy)]
        edges = [(u, v, None, 12.0) for u, v in segs]
    node = st.integers(0, len(nodes) - 1)
    pool = draw(st.lists(st.tuples(node, node), min_size=1, max_size=6))
    pairs = st.lists(st.sampled_from(pool), min_size=1, max_size=8)
    return nodes, edges, draw(st.lists(pairs, min_size=1, max_size=4))


@SETTINGS
@given(route_requests())
def test_the_route_table_searches_each_pair_once_per_network(case):
    """Every row is a fresh search's answer; each distinct pair is searched once
    on a network and once more on its twin; a caller's edit of a row stays its own."""
    nodes, edges, batches = case
    ids, xy = [nid for nid, _, _ in nodes], [(x, y) for _, x, y in nodes]
    searched = []

    def counted(net, src, dst):
        searched.append((net, src, dst))
        return roadnet.shortest_path(net, src, dst)

    nets = [RoadNetwork.from_undirected(nodes, edges) for _ in range(2)]
    with mock.patch.object(trajgen, "shortest_path", counted):
        for net in nets:
            for batch in batches + batches[:1]:
                rows = generate_route([xy[u] for u, _ in batch], [xy[v] for _, v in batch], net)
                assert rows == [_fresh_route(net, ids[u], ids[v]) for u, v in batch]
                for row in rows:
                    if row is not None:
                        row.reverse()
                        row.append(-1)
    pairs = sorted({(ids[u], ids[v]) for batch in batches for u, v in batch})
    for net in nets:
        assert sorted((src, dst) for n, src, dst in searched if n is net) == pairs
    assert len(searched) == 2 * len(pairs)


def test_threads_share_one_networks_route_table():
    """Six threads route the same pairs on one network, switching often: each
    gets a fresh search's answers, and the table then holds every pair."""
    xy, segs = _grid(6, 6, 100.0, (0.0, 0.0))
    net = RoadNetwork.from_undirected([(k, x, y) for k, (x, y) in enumerate(xy)],
                                      [(u, v, None, 12.0) for u, v in segs])
    pairs = [tuple(p) for p in np.random.default_rng(5).integers(len(xy), size=(40, 2)).tolist()]
    expected = [_fresh_route(net, u, v) for u, v in pairs]
    answers = [None] * 6

    def work(k):
        order = pairs[k:] + pairs[:k]
        answers[k] = generate_route([xy[u] for u, _ in order], [xy[v] for _, v in order], net)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [expected[k:] + expected[:k] for k in range(6)]
    with mock.patch.object(trajgen, "shortest_path", None):  # a search would raise TypeError
        assert generate_route([xy[u] for u, _ in pairs], [xy[v] for _, v in pairs], net) == expected


def test_a_networks_route_table_goes_with_it():
    nodes, segs = _grid(2, 3, 100.0, (0.0, 0.0))
    net = RoadNetwork.from_undirected([(k, x, y) for k, (x, y) in enumerate(nodes)],
                                      [(u, v, None, 12.0) for u, v in segs])
    gc.collect()
    tables = len(trajgen._ROUTES)
    assert generate_route([nodes[0]], [nodes[5]], net) == [[0, 1, 2, 5]]
    assert len(trajgen._ROUTES) == tables + 1
    gone = weakref.ref(net)
    del net
    gc.collect()
    assert gone() is None and len(trajgen._ROUTES) == tables
