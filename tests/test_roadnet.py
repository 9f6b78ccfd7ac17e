import math

import numpy as np
import pytest

from reference_roadnet import GeoPoint, adjacency, arc_table
from vtmigsim.roadnet import (
    NoEdgesError,
    ParseError,
    RoadNetwork,
    UnreachableError,
    ValidationError,
    load_network,
    map_match,
    shortest_path,
)


def brute_force_shortest(net, src, dst):
    """Exhaustive simple-path enumeration; independent of the heap search."""
    if src == dst:
        return 0.0
    best = [math.inf]
    arcs, table = adjacency(net), arc_table(net)

    def walk(node, seen, total):
        if total >= best[0]:
            return
        if node == dst:
            best[0] = total
            return
        for eid in arcs[node]:
            _, to, length = table[eid]
            if to not in seen:
                walk(to, seen | {to}, total + length)

    walk(src, {src}, 0.0)
    return best[0]


def random_network(rng, n_nodes, edge_prob=0.4):
    nodes = [(i, float(rng.uniform(0, 100)), float(rng.uniform(0, 100))) for i in range(n_nodes)]
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                edges.append((i, j, float(rng.uniform(1, 50)), 10.0))
    return RoadNetwork.from_undirected(nodes, edges)


NODES_CSV = ["node_id,x,y", "0,0,0", "1,100,0", "2,100,100"]
EDGES_CSV = ["from,to,length_m,speed_mps", "0,1,100,15", "1,2,,15"]


def test_load_small_network():
    net = load_network(NODES_CSV, EDGES_CSV)
    assert net.ids == [0, 1, 2]
    assert net.xy.tolist() == [[0.0, 0.0], [100.0, 0.0], [100.0, 100.0]]
    # two segments doubled into arcs 2k (u->v) and 2k+1 (v->u)
    assert net.arcs.tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]
    # empty length field computed from endpoints
    assert net.length.tolist() == [100.0] * 4
    with pytest.raises(ValueError, match="read-only"):  # the query indexes derive from them
        net.xy[0, 0] = 1.0


def test_load_rejects_unknown_endpoint():
    with pytest.raises(ValidationError):
        load_network(NODES_CSV, ["from,to,length_m,speed_mps", "0,99,10,15"])


def test_load_rejects_duplicate_node():
    with pytest.raises(ValidationError):
        load_network(["node_id,x,y", "0,0,0", "0,1,1"], ["from,to,length_m,speed_mps"])


def test_load_empty_edge_file():
    net = load_network(NODES_CSV, ["from,to,length_m,speed_mps"])
    assert net.ids == [0, 1, 2]
    assert net.arcs.shape == (0, 2)
    assert net.length.shape == (0,)


@pytest.mark.parametrize(
    "nodes, edges",
    [([], EDGES_CSV), (NODES_CSV, []), ([], [])],
    ids=["no-nodes", "no-edges", "neither"],
)
def test_load_rejects_missing_header(nodes, edges):
    with pytest.raises(ParseError, match="missing header"):
        load_network(nodes, edges)


def test_load_accepts_ids_beyond_float_range():
    big = "1" + "0" * 400
    net = load_network(["node_id,x,y", f"{big},0,0", "2,1,0"], ["from,to,length_m,speed_mps", f"{big},2,,1"])
    assert shortest_path(net, int(big), 2) == ([int(big), 2], 1.0)


def test_load_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        load_network(["node_id,x,y", "0,0,0", "1,abc,0"], EDGES_CSV)


def test_map_match_identity_on_edge():
    net = load_network(NODES_CSV, EDGES_CSV)
    proj = map_match(net, [(50.0, 0.0)])
    assert proj.distance[0] == pytest.approx(0.0, abs=1e-9)
    assert proj.point[0, 0] == pytest.approx(50.0)
    assert proj.point[0, 1] == pytest.approx(0.0)


def test_map_match_perpendicular():
    net = RoadNetwork.from_undirected([(0, 0, 0), (1, 2, 0)], [(0, 1, None, 10)])
    proj = map_match(net, [(1.0, 1.0)])
    assert proj.point[0, 0] == pytest.approx(1.0)
    assert proj.point[0, 1] == pytest.approx(0.0)
    assert proj.distance[0] == pytest.approx(1.0)
    assert proj.offset[0] == pytest.approx(0.5)
    assert proj.edge_id[0] == 0  # tie with the reversed arc resolves to lowest id


def test_map_match_clamps_to_endpoint():
    net = RoadNetwork.from_undirected([(0, 0, 0), (1, 2, 0)], [(0, 1, None, 10)])
    proj = map_match(net, [(3.0, 1.0)])
    assert proj.point[0, 0] == pytest.approx(2.0)
    assert proj.point[0, 1] == pytest.approx(0.0)
    assert proj.offset[0] == pytest.approx(1.0)
    assert proj.distance[0] == pytest.approx(math.sqrt(2.0))


def test_map_match_empty_network():
    net = RoadNetwork.from_undirected([(0, 0, 0)], [])
    with pytest.raises(NoEdgesError):
        map_match(net, [(0.0, 0.0)])
    with pytest.raises(NoEdgesError):
        map_match(net, np.empty((0, 2)))


def test_map_match_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        net = random_network(rng, int(rng.integers(2, 7)))
        if not len(net.arcs):
            continue
        p = GeoPoint(float(rng.uniform(-20, 120)), float(rng.uniform(-20, 120)))
        proj = map_match(net, [(p.x, p.y)])
        offset, distance = float(proj.offset[0]), float(proj.distance[0])
        assert 0.0 <= offset <= 1.0
        # never farther than any edge endpoint
        for k in np.unique(net.arcs).tolist():
            assert distance <= p.dist_to(GeoPoint(*net.xy[k])) + 1e-9
        # projected point lies on the segment within 1e-6 m
        a, b = (GeoPoint(*net.xy[k]) for k in net.arcs[proj.edge_id[0]])
        ox = a.x + offset * (b.x - a.x)
        oy = a.y + offset * (b.y - a.y)
        assert math.hypot(ox - proj.point[0, 0], oy - proj.point[0, 1]) < 1e-6


def test_shortest_path_src_equals_dst():
    net = load_network(NODES_CSV, EDGES_CSV)
    path, length = shortest_path(net, 1, 1)
    assert path == [1]
    assert length == 0.0


def test_shortest_path_triangle():
    net = RoadNetwork.from_undirected(
        [(0, 0, 0), (1, 1, 0), (2, 2, 0)],
        [(0, 1, 1.0, 10), (1, 2, 1.0, 10), (0, 2, 3.0, 10)],
    )
    path, length = shortest_path(net, 0, 2)
    assert path == [0, 1, 2]
    assert length == pytest.approx(2.0)
    assert brute_force_shortest(net, 0, 2) == pytest.approx(2.0)


def test_shortest_path_unreachable():
    net = RoadNetwork.from_undirected(
        [(0, 0, 0), (1, 1, 0), (2, 5, 5), (3, 6, 5)],
        [(0, 1, 1.0, 10), (2, 3, 1.0, 10)],
    )
    with pytest.raises(UnreachableError):
        shortest_path(net, 0, 3)


def test_shortest_path_matches_enumeration():
    rng = np.random.default_rng(123)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        net = random_network(rng, n)
        src, dst = int(rng.integers(0, n)), int(rng.integers(0, n))
        expected = brute_force_shortest(net, src, dst)
        if math.isinf(expected):
            with pytest.raises(UnreachableError):
                shortest_path(net, src, dst)
        else:
            _, length = shortest_path(net, src, dst)
            assert length == expected  # exact: same additions in both searches


def test_triangle_inequality():
    rng = np.random.default_rng(5)
    net = random_network(rng, 7, edge_prob=0.7)
    nodes = net.ids
    for a in nodes:
        for b in nodes:
            for c in nodes:
                try:
                    _, ab = shortest_path(net, a, b)
                    _, bc = shortest_path(net, b, c)
                    _, ac = shortest_path(net, a, c)
                except UnreachableError:
                    continue
                assert ac <= ab + bc + 1e-9
