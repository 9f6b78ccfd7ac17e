"""Fast road queries against the reference implementations, bit for bit.

`shortest_path` (dense-index Dijkstra) must return the same path and length
as the dict-based search, ties included. The array `map_match` (bucket index
with a full-scan fall-back) must return, in every row of a batch, the same arc
and the same bits in every `Projection` field as the full scan of that point
alone. Networks cover random graphs, lattices
full of equal-length ties, non-contiguous, negative and unsorted node ids,
multi-arcs, one-way arcs, a single arc and collinear arcs.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_roadnet as ref

from vtmigsim import roadnet
from vtmigsim.roadnet import (
    GeoPoint,
    NoEdgesError,
    RoadEdge,
    RoadNetwork,
    RoadNode,
    UnreachableError,
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
    shape = draw(st.sampled_from(["random", "lattice", "single", "collinear", "one_way"]))
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
    n = draw(st.integers(2, 12))
    ids = _ids(draw, rng, n)
    xy = rng.uniform(-300.0, 900.0, (n, 2)) + (ox, oy)
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
        nodes = [RoadNode(ids[i], GeoPoint(*xy[i])) for i in range(n)]
        pos = {node.id: node.pos for node in nodes}
        arcs = [
            RoadEdge(u, v, length if length is not None else max(pos[u].dist_to(pos[v]), 1e-3), s)
            for u, v, length, s in segs
        ]
        return RoadNetwork(nodes, arcs), ids
    return RoadNetwork.from_undirected([(ids[i], *xy[i]) for i in range(n)], segs), ids


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
    pts = [n.pos for n in net.nodes.values()]
    for e in net.edges[:20]:
        a, b = net.nodes[e.from_node].pos, net.nodes[e.to_node].pos
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
