"""Road networks and fast road queries against the reference implementations,
bit for bit.

The column `RoadNetwork` must hold the nodes, arcs and lengths that the
object construction holds, and reject the same inputs with the same message.
`shortest_path` (A* with the canonical-predecessor walk back) must return the
same path and length as the dict-based Dijkstra search, ties included, in any
order of queries, and must leave the network as it was. The array
`map_match` (bucket index with a full-scan fall-back) must return, in every row
of a batch, the same arc and the same bits in every `Projection` field as the
full scan of that point alone. Networks cover random graphs, lattices
full of equal-length ties, non-contiguous, negative and unsorted node ids,
multi-arcs, one-way arcs, a single arc, collinear arcs, arcs too short to
change a sum they end, and lengths below the Euclidean distance far from the
origin. The adjacency lists that `shortest_path` walks must be those the
per-arc loop builds.
"""

import copy
import math
import sys
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_roadnet as ref
from reference_roadnet import GeoPoint

from vtmigsim import roadnet
from vtmigsim.roadnet import (
    NoEdgesError,
    RoadNetwork,
    UnreachableError,
    ValidationError,
    map_match,
    shortest_path,
)

SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _ids(draw, rng, n):
    """n distinct node ids: contiguous, spread out with negatives, in random order."""
    kind = draw(st.sampled_from(["contiguous", "sparse", "negative"]))
    if kind == "contiguous":
        ids = list(range(n))
    elif kind == "sparse":
        ids = sorted(rng.choice(10 * n + 10, size=n, replace=False).tolist())
    else:
        ids = (rng.choice(20 * n + 20, size=n, replace=False) - 10 * n - 10).tolist()
    rng.shuffle(ids)
    return [int(i) for i in ids]


@st.composite
def networks(draw):
    """(RoadNetwork, node ids) for one of several network shapes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "lattice", "single", "collinear", "one_way",
                                  "vanishing", "short_far"]))
    # Projected (UTM-like) coordinates put the rounding at a larger scale.
    ox, oy = draw(st.sampled_from([(0.0, 0.0), (512345.6, 4123456.7), (-1e6, 3e5)]))
    if shape == "lattice":
        cols, rows = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        spacing = draw(st.sampled_from([1.0, 200.0, 0.1, 37.5]))
        ids = _ids(draw, rng, cols * rows)
        nodes = [
            (ids[r * cols + c], ox + c * spacing, oy + r * spacing)
            for r in range(rows) for c in range(cols)
        ]
        segs = []
        for r in range(rows):
            for c in range(cols):
                u = ids[r * cols + c]
                if c + 1 < cols:
                    segs.append((u, ids[r * cols + c + 1], None, 10.0))
                if r + 1 < rows:
                    segs.append((u, ids[(r + 1) * cols + c], None, 10.0))
        if not segs:
            nodes.append((max(ids) + 1, ox + spacing, oy))
            segs.append((ids[0], max(ids) + 1, None, 10.0))
        if draw(st.booleans()):  # a few diagonals and parallel segments (multi-arcs)
            for _ in range(int(rng.integers(1, 4))):
                seg = segs[int(rng.integers(len(segs)))]
                segs.append((seg[0], seg[1], seg[2], 5.0))
                u, v = rng.choice(len(nodes), size=2, replace=False)
                segs.append((nodes[u][0], nodes[v][0], None, 10.0))
        order = rng.permutation(len(segs))
        net = RoadNetwork.from_undirected(nodes, [segs[i] for i in order])
        return net, [n[0] for n in nodes]
    if shape == "single":
        ids = _ids(draw, rng, 2)
        a, b = rng.uniform(-500.0, 500.0, (2, 2))
        net = RoadNetwork.from_undirected(
            [(ids[0], *a), (ids[1], *b)], [(ids[0], ids[1], None, 10.0)]
        )
        return net, ids
    if shape == "collinear":
        n = draw(st.integers(2, 9))
        ids = _ids(draw, rng, n)
        direction = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]))
        s = np.sort(rng.uniform(0.0, 1000.0, n))
        nodes = [(ids[i], s[i] * direction[0] + 5.0, s[i] * direction[1] - 3.0) for i in range(n)]
        segs = [(ids[i], ids[i + 1], None, 10.0) for i in range(n - 1)]
        if n > 2 and draw(st.booleans()):  # an overlapping long segment
            segs.append((ids[0], ids[-1], None, 10.0))
        return RoadNetwork.from_undirected(nodes, segs), ids
    n = draw(st.integers(6 if shape in ("vanishing", "short_far") else 2, 12))
    ids = _ids(draw, rng, n)
    if shape == "short_far":  # explicit lengths below the Euclidean distance, near 1e12
        ox, oy = draw(st.sampled_from([(1e12, 1e12), (-3e12, 7e11)]))
    xy = rng.uniform(-300.0, 900.0, (n, 2)) + (ox, oy)
    if shape in ("vanishing", "short_far"):
        return _explicit_lengths(draw, rng, shape, ids, xy), ids
    prob = draw(st.sampled_from([0.2, 0.5, 0.9]))
    round_lengths = draw(st.booleans())  # small integer lengths tie often
    segs = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < prob / 2:
                length = float(rng.integers(1, 4)) if round_lengths else None
                segs.append((ids[i], ids[j], length, 10.0))
    if not segs:
        segs.append((ids[0], ids[1], None, 10.0))
    if shape == "one_way":
        pos = {nid: GeoPoint(*p) for nid, p in zip(ids, xy.tolist())}
        lengths = [length if length is not None else max(pos[u].dist_to(pos[v]), 1e-3)
                   for u, v, length, _ in segs]
        arcs = [(u, v) for u, v, _, _ in segs]
        return RoadNetwork(ids, xy, arcs, lengths, [s for _, _, _, s in segs]), ids
    return RoadNetwork.from_undirected([(ids[i], *xy[i]) for i in range(n)], segs), ids


def _explicit_lengths(draw, rng, shape, ids, xy):
    """A random network whose segments all have explicit lengths: some too short
    to change a float64 sum they end ("vanishing": 1e-20 beside 1e3, or powers of
    two from 2**-56 to 2**59), or each below its Euclidean distance ("short_far")."""
    n, prob = len(ids), draw(st.sampled_from([0.3, 0.6, 0.9]))
    pairs = [(i, j) for i in range(n) for j in range(n) if i < j and rng.random() < prob]
    pairs = pairs or [(0, 1)]
    if shape == "vanishing":
        if draw(st.booleans()):
            lengths = rng.choice([1e-20, 1e3, 1e3], len(pairs))
        else:
            lengths = 2.0 ** rng.integers(-56, 60, len(pairs)).astype(float)
    else:
        span = np.hypot(*(xy[[i for i, _ in pairs]] - xy[[j for _, j in pairs]]).T)
        lengths = np.maximum(span * rng.choice([0.05, 0.5, 0.999, 1.0], len(pairs)), 1e-3)
    segs = [(ids[i], ids[j], float(w), 10.0) for (i, j), w in zip(pairs, lengths.tolist())]
    return RoadNetwork.from_undirected([(ids[i], *xy[i]) for i in range(n)], segs)


def _bits(proj):
    return (proj.edge_id, proj.point.x.hex(), proj.point.y.hex(),
            proj.offset.hex(), proj.distance.hex())


def _row_bits(proj, k):
    return (int(proj.edge_id[k]), float(proj.point[k, 0]).hex(), float(proj.point[k, 1]).hex(),
            float(proj.offset[k]).hex(), float(proj.distance[k]).hex())


def _assert_rows_match_reference(net, pts):
    """Match `pts` in one batch; each row must equal the full scan of its point alone."""
    proj = map_match(net, [(p.x, p.y) for p in pts])
    assert proj.edge_id.shape == proj.offset.shape == proj.distance.shape == (len(pts),)
    assert proj.point.shape == (len(pts), 2)
    arrays = ref.segment_arrays(net)
    for k, p in enumerate(pts):
        assert _row_bits(proj, k) == _bits(ref.map_match(net, p, arrays)), (k, p)


def _queries(net, rng):
    """Nodes, arc midpoints, cell boundaries, outside the bbox, far away, random."""
    pts = [GeoPoint(x, y) for x, y in net.xy.tolist()]
    for u, v in net.arcs[:20].tolist():
        a, b = pts[u], pts[v]
        pts.append(GeoPoint((a.x + b.x) / 2, (a.y + b.y) / 2))
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1.0)
    if net._grid:
        x0, y0, cell, nx, ny = net._grid
        for k in range(nx + 1):
            pts.append(GeoPoint(x0 + k * cell, float(rng.uniform(lo_y, hi_y))))
        for k in range(ny + 1):
            pts.append(GeoPoint(float(rng.uniform(lo_x, hi_x)), y0 + k * cell))
    for x, y in rng.uniform(-0.2, 1.2, (25, 2)):
        pts.append(GeoPoint(lo_x + x * span, lo_y + y * span))
    pts += [
        GeoPoint(lo_x - span, hi_y + span),
        GeoPoint(hi_x + 1e6, lo_y),
        GeoPoint(lo_x - 1e-9, lo_y - 1e-9),
        GeoPoint(math.nan, 0.0),
        GeoPoint(math.inf, 1.0),
    ]
    return pts


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the inf query
@SETTINGS
@given(networks(), st.integers(0, 2**32 - 1))
def test_map_match_matches_full_scan(case, seed):
    net, _ = case
    _assert_rows_match_reference(net, _queries(net, np.random.default_rng(seed)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the inf query
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(networks(), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_map_match_batches_longer_than_a_block(case, seed, blocks):
    """In-block hits, fall-backs and duplicates in one batch of several blocks."""
    net, _ = case
    rng = np.random.default_rng(seed)
    pool = _queries(net, rng)
    n = blocks * roadnet._BLOCK + int(rng.integers(1, roadnet._BLOCK))
    pts = [pool[i] for i in rng.integers(0, len(pool), n)]  # many rows repeat a point
    _assert_rows_match_reference(net, pts)


def test_map_match_empty_batch_and_network():
    net = RoadNetwork.from_undirected([(0, 0.0, 0.0), (1, 3.0, 4.0)], [(0, 1, None, 10.0)])
    proj = map_match(net, np.empty((0, 2)))
    assert proj.edge_id.shape == proj.offset.shape == proj.distance.shape == (0,)
    assert proj.point.shape == (0, 2)
    empty = RoadNetwork.from_undirected([(0, 0.0, 0.0)], [])
    for xy in ([(0.0, 0.0)], np.empty((0, 2))):
        with pytest.raises(NoEdgesError):
            map_match(empty, xy)


@SETTINGS
@given(networks(), st.integers(0, 2**32 - 1))
def test_shortest_path_matches_dict_dijkstra(case, seed):
    net, ids = case
    rng = np.random.default_rng(seed)
    pairs = [(ids[i], ids[j]) for i, j in rng.integers(0, len(ids), (12, 2))]
    pairs.append((ids[0], ids[-1]))
    for src, dst in pairs:
        try:
            expected = ref.shortest_path(net, src, dst)
        except UnreachableError:
            with pytest.raises(UnreachableError):
                shortest_path(net, src, dst)
            continue
        path, length = shortest_path(net, src, dst)
        assert (path, length.hex()) == (expected[0], expected[1].hex())


def _reference_answer(net, src, dst):
    """(path, length bits) of the dict-based search, or None if dst is unreachable."""
    try:
        path, length = ref.shortest_path(net, src, dst)
    except UnreachableError:
        return None
    return path, length.hex()


def _assert_answers(net, queries, expected):
    for (src, dst), want in zip(queries, expected):
        if want is None:
            with pytest.raises(UnreachableError):
                shortest_path(net, src, dst)
        else:
            path, length = shortest_path(net, src, dst)
            assert (path, length.hex()) == want, (src, dst)


@st.composite
def query_sequences(draw):
    """(RoadNetwork, queries): 20-60 (src, dst) pairs on one network, sources
    from 2-3 nodes and targets from every node, with repeats and src == dst."""
    net, ids = draw(networks())
    sources = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=3, unique=True))
    queries = draw(st.lists(st.tuples(st.sampled_from(sources), st.sampled_from(ids)),
                            min_size=17, max_size=57))
    return net, queries + [(sources[0], sources[0])] + queries[:2]


@SETTINGS
@given(query_sequences())
def test_repeated_queries_match_fresh_dict_dijkstra(case):
    """Each answer of a sequence with repeated sources and pairs equals a
    fresh reference search, asked forwards and then backwards."""
    net, queries = case
    expected = [_reference_answer(net, src, dst) for src, dst in queries]
    _assert_answers(net, queries, expected)
    _assert_answers(net, queries[::-1], expected[::-1])


def _state(net):
    """Every attribute of a network: arrays by dtype, shape and bytes, the rest copied."""
    return {name: (value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray)
            else copy.deepcopy(value) for name, value in vars(net).items()}


@settings(SETTINGS, max_examples=60)
@given(query_sequences(), st.integers(0, 2**32 - 1))
def test_routing_keeps_no_state(case, seed):
    """A batch of queries leaves every attribute and column of the network as it
    was, and a twin network built alike answers the same after another history."""
    net, queries = case
    arcs = [(net.ids[u], net.ids[v]) for u, v in net.arcs.tolist()]
    twin = RoadNetwork(net.ids, net.xy, arcs, net.length, np.ones(len(arcs)))
    before = _state(net)
    assert _state(twin) == before
    answers = [_reference_answer(net, src, dst) for src, dst in queries]  # a fresh search each
    _assert_answers(net, queries, answers)
    assert _state(net) == before
    rng = np.random.default_rng(seed)
    for k in rng.permutation(len(queries)).tolist():  # another order, another history
        _assert_answers(twin, [queries[k]], [answers[k]])
    _assert_answers(twin, queries, answers)
    assert _state(twin) == before


def test_threads_share_one_network():
    """Four threads routing on one lattice, switching often, each get the
    reference answers."""
    n = 12
    nodes = [(k, float(k % n), float(k // n)) for k in range(n * n)]
    segs = [(k, k + 1, None, 10.0) for k in range(n * n - 1) if (k + 1) % n]
    segs += [(k, k + n, None, 10.0) for k in range(n * n - n)]
    net = RoadNetwork.from_undirected(nodes, segs)
    queries = [tuple(q) for q in np.random.default_rng(5).integers(n * n, size=(40, 2)).tolist()]
    expected = [ref.shortest_path(net, src, dst) for src, dst in queries]
    answers = [None] * 4

    def work(k):
        answers[k] = [shortest_path(net, src, dst) for src, dst in queries[k:] + queries[:k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, got in enumerate(answers):
        assert got == expected[k:] + expected[:k]


def test_an_arc_that_vanishes_in_a_sum_keeps_dijkstras_route():
    """1 -> 3 adds 1e-20 to 1e3, which leaves it 1e3: Dijkstra pops 3 before 2
    at that distance, so 3 is the parent of 4, though (1e3, 2) < (1e3, 3)."""
    nodes = [(k, float(k), 0.0) for k in range(1, 5)]
    segs = [(1, 3, 1e3, 10.0), (3, 2, 1e-20, 10.0), (3, 4, 1e3, 10.0), (2, 4, 1e3, 10.0)]
    net = RoadNetwork.from_undirected(nodes, segs)
    assert ref.shortest_path(net, 1, 4) == ([1, 3, 4], 2e3)
    for src in range(1, 5):
        for dst in range(1, 5):
            assert shortest_path(net, src, dst) == ref.shortest_path(net, src, dst)


def test_lattice_ties_pick_the_reference_route():
    """A 12x12 unit lattice has many equal-length shortest routes."""
    n = 12
    nodes = [(1000 - (r * n + c) * 7, float(c), float(r)) for r in range(n) for c in range(n)]
    segs = [(nodes[k][0], nodes[k + 1][0], None, 1.0) for k in range(len(nodes) - 1) if (k + 1) % n]
    segs += [(nodes[k][0], nodes[k + n][0], None, 1.0) for k in range(len(nodes) - n)]
    net = RoadNetwork.from_undirected(nodes, segs)
    ids = [node[0] for node in nodes]
    for src in ids[::13]:
        for dst in ids[::11]:
            assert shortest_path(net, src, dst) == ref.shortest_path(net, src, dst)


def test_map_match_far_points_on_a_large_grid():
    """Points between far-apart roads and beyond the bbox take the fall-back."""
    n, spacing = 30, 200.0
    nodes = [(r * n + c, c * spacing, r * spacing) for r in range(n) for c in range(n)]
    segs = [(k, k + 1, None, 10.0) for k in range(n * n - 1) if (k + 1) % n]
    segs += [(k, k + n, None, 10.0) for k in range(n * n - n)]
    net = RoadNetwork.from_undirected(nodes, segs)
    rng = np.random.default_rng(4)
    pts = [GeoPoint(float(x), float(y))
           for x, y in rng.uniform(-400.0, n * spacing + 400.0, (400, 2))]
    # cell centres of a 200 m block are 100 m from every road
    pts += [GeoPoint(100.0, 100.0), GeoPoint(2900.0, 3100.0)]
    _assert_rows_match_reference(net, pts)
    for p in pts[-2:]:
        _assert_rows_match_reference(net, [p])


_FAULTS = ["duplicate_id", "unknown_endpoint", "non_finite_xy", "bad_length", "bad_speed"]


@st.composite
def construction_inputs(draw):
    """(nodes, segments, faults): (id, x, y) nodes and (u, v, length|None, speed)
    segments, with each fault in `faults` planted once."""
    ids = draw(st.lists(st.integers(-40, 40) | st.just(10**30), min_size=1, max_size=8,
                        unique=True))
    coord = st.floats(-1e4, 1e4)
    nodes = [(nid, draw(coord), draw(coord)) for nid in ids]
    node_id = st.sampled_from(ids)
    segs = draw(st.lists(st.tuples(node_id, node_id, st.none() | st.floats(0.5, 1e3),
                                   st.floats(0.1, 50.0)), max_size=12))
    faults = draw(st.sets(st.sampled_from(_FAULTS), max_size=2))
    pick = st.integers(0, len(nodes) - 1)
    if "duplicate_id" in faults:
        nodes.insert(draw(pick), (draw(node_id), draw(coord), draw(coord)))
    if "non_finite_xy" in faults:
        k, bad = draw(pick), draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        nodes[k] = (nodes[k][0], bad, nodes[k][2]) if draw(st.booleans()) else (*nodes[k][:2], bad)
    faulty = {fault: draw(st.integers(0, len(segs) - 1)) for fault in faults if segs}
    for fault, k in faulty.items():
        u, v, length, speed = segs[k]
        if fault == "unknown_endpoint":
            u, v = (max(ids) + 1, v) if draw(st.booleans()) else (u, -10**31)
            segs[k] = (u, v, length, speed)
        elif fault == "bad_length":
            segs[k] = (u, v, draw(st.sampled_from([0.0, -3.0, math.nan])), speed)
        elif fault == "bad_speed":
            segs[k] = (u, v, length, draw(st.sampled_from([0.0, -1.0, math.nan])))
    return nodes, segs, faults


def _columns(net):
    return (net.ids, [(x.hex(), y.hex()) for x, y in net.xy.tolist()],
            [(u, v, w.hex()) for u, v, w in ref.arc_table(net)])


def _object_columns(net):
    ids = sorted(net.nodes)
    return (ids, [(net.nodes[i].pos.x.hex(), net.nodes[i].pos.y.hex()) for i in ids],
            [(e.from_node, e.to_node, e.length.hex()) for e in net.edges])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(construction_inputs(), st.booleans())
# np.hypot and math.hypot round this missing length differently
@example(([(0, -2905.436, -870.007), (1, 1986.141, -9434.281)], [(0, 1, None, 10.0)], set()),
         False)
def test_columns_match_object_construction(case, directed):
    """Directed arcs through the constructor and segments through
    `from_undirected` (None lengths filled in): the same ids, positions, arcs
    and length bits as the object construction, or the same ValidationError."""
    nodes, segs, faults = case
    if directed:  # one arc per segment, each given a length
        segs = [(u, v, 7.5 if w is None else w, s) for u, v, w, s in segs]
        ids, xy = [n[0] for n in nodes], [n[1:] for n in nodes]
        arcs, lengths, speeds = [s[:2] for s in segs], [s[2] for s in segs], [s[3] for s in segs]
        build = partial(RoadNetwork, ids, xy, arcs, lengths, speeds)
        build_ref = partial(ref.ObjectNetwork,
                            [ref.RoadNode(nid, GeoPoint(x, y)) for nid, x, y in nodes],
                            [ref.RoadEdge(*seg) for seg in segs])
    else:
        build = partial(RoadNetwork.from_undirected, nodes, segs)
        build_ref = partial(ref.ObjectNetwork.from_undirected, nodes, segs)
    try:
        expected = build_ref()
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            build()
        assert str(got.value) == str(exc)
        return
    # a planted fault raises, unless it is an arc fault and there is no arc to carry it
    assert not faults or not segs and faults <= {"unknown_endpoint", "bad_length", "bad_speed"}
    assert _columns(build()) == _object_columns(expected)


@SETTINGS
@given(networks())
def test_adjacency_matches_the_per_arc_loop(case):
    """The stable-sort adjacency and the id index hold what appending arc by
    arc and enumerating the ids give."""
    net, _ = case
    assert net._out == ref.out_lists(net)
    into = [[] for _ in net.ids]
    for (a, b), w in zip(net.arcs.tolist(), net.length.tolist()):
        into[b].append((a, w))
    assert net._in == into
    assert net._index == {nid: i for i, nid in enumerate(net.ids)}


def test_match_in_blocks_leaves_a_near_cell_distance_to_the_full_scan():
    """A query whose nearest arc in its 3x3 block lies within the rounding
    margin below one cell is not certified, so it takes the full scan."""
    side = 1000.0
    nodes = [(0, 0.0, 0.0), (1, side, 0.0), (2, 0.0, side), (3, side, side)]
    net = RoadNetwork.from_undirected(
        nodes, [(0, 1, None, 10.0), (0, 2, None, 10.0), (1, 3, None, 10.0), (2, 3, None, 10.0)])
    x0, y0, cell, _, ny = net._grid
    assert (x0, y0) == (0.0, 0.0) and ny > 1
    near = cell - net._slack / 2  # above the bottom road: below one cell, inside the margin
    q = np.array([[side / 2, side / 2], [1.0, near]])
    rows, best = roadnet._match_in_blocks(net, q)
    assert rows.tolist() == [0] and best.tolist() == [0]  # the well-inside query is certified
    _assert_rows_match_reference(net, [GeoPoint(x, y) for x, y in q.T.tolist()])
