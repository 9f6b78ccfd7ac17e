import csv
import math

import numpy as np
import pytest

from reference_roadnet import GeoPoint, adjacency, arc_table, read_fields
from vtmigsim.roadnet import (
    NoEdgesError,
    ParseError,
    RoadNetwork,
    UnreachableError,
    ValidationError,
    load_network,
    map_match,
    read_columns,
    shortest_path,
)
from vtmigsim.trajgen import read_trajectories_csv


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


N = ["node_id,x,y", "0,0,0", "1,100,0"]
E = ["from,to,length_m,speed_mps", "0,1,100,15"]
T = ["vehicle_id,t,x,y", "1,0,0,0", "1,10,5,5"]
CRLF = ["node_id,x,y\r\n", "0,0,0\r\n", "\r\n", "1,0,z\r\n"]
TRAJ_CRLF = ["vehicle_id,t,x,y\r\n", "\r\n", "1,0,0,0\r\n", "", "1,1,0,zz\r\n"]
# (nodes, edges) for load_network, or trajectory lines (edges None), and the
# exact ParseError text. Blank and CRLF rows count in the line number.
CSV_MESSAGES = {
    "nodes_no_header": (["0,0,0"], E, "line 1: missing header node_id,x,y, got ['0', '0', '0']"),
    "nodes_empty": ([], E, "line 1: missing header node_id,x,y, got None"),
    "nodes_blank_first": (["", *N], E, "line 1: missing header node_id,x,y, got []"),
    "edges_no_header": (N, ["0,1,100,15"], "line 1: missing header from,to,length_m,speed_mps, "
                        "got ['0', '1', '100', '15']"),
    "node_width": (N + ["2,0"], E, "line 4: expected 3 node fields, got 2"),
    "node_width_long": (N + ["2,0,0,0"], E, "line 4: expected 3 node fields, got 4"),
    "edge_width": (N, E + ["0,1,5"], "line 3: expected 4 edge fields, got 3"),
    "node_id": (N + ["x,0,0"], E, "line 4: cannot parse node id from 'x'"),
    "node_id_float": (N + ["2.0,0,0"], E, "line 4: cannot parse node id from '2.0'"),
    "node_x": (N + ["2,abc,0"], E, "line 4: cannot parse x from 'abc'"),
    "node_y": (N + ["2,0,"], E, "line 4: cannot parse y from ''"),
    "node_x_nan": (N + ["2,nan,0"], E, "line 4: non-finite x"),
    "node_y_inf": (N + ["2,0,-inf"], E, "line 4: non-finite y"),
    "node_x_overflow": (N + ["2,1e999,0"], E, "line 4: non-finite x"),
    "edge_from": (N, E + ["a,1,5,15"], "line 3: cannot parse from node from 'a'"),
    "edge_to": (N, E + ["0,,5,15"], "line 3: cannot parse to node from ''"),
    "edge_length": (N, E + ["0,1,five,15"], "line 3: cannot parse length from 'five'"),
    "edge_length_nan": (N, E + ["0,1,NaN,15"], "line 3: non-finite length"),
    "edge_speed": (N, E + ["0,1,,"], "line 3: cannot parse speed from ''"),
    "edge_speed_inf": (N, E + ["0,1,,inf"], "line 3: non-finite speed"),
    "first_bad_field_wins": (N + ["y,abc,nan"], E, "line 4: cannot parse node id from 'y'"),
    "first_bad_row_wins": (N + ["2,0", "x,0,0"], E, "line 4: expected 3 node fields, got 2"),
    "nodes_before_edges": (N + ["x,0,0"], ["bad"], "line 4: cannot parse node id from 'x'"),
    "blank_rows_count": (["node_id,x,y", "", "0,0,0", "  ", "1,abc,0"], E,
                         "line 5: cannot parse x from 'abc'"),
    "crlf_rows_count": (CRLF, E, "line 4: cannot parse y from 'z'"),
    "quoted_comma": (N + ['"2,5",0,0'], E, "line 4: cannot parse node id from '2,5'"),
    "quoted_ok_then_bad": (N + ['"2"," 3.5 ","4"', '3,"x y",0'], E,
                           "line 5: cannot parse x from 'x y'"),
    "traj_no_header": (["1,0,0,0"], None,
                       "line 1: missing header vehicle_id,t,x,y, got ['1', '0', '0', '0']"),
    "traj_empty": ([], None, "line 1: missing header vehicle_id,t,x,y, got None"),
    "traj_width": (T + ["1,20,5"], None, "line 4: expected 4 trajectory fields, got 3"),
    "traj_vehicle_id": (T + ["v,20,5,5"], None, "line 4: cannot parse vehicle id from 'v'"),
    "traj_t": (T + ["1,,5,5"], None, "line 4: cannot parse t from ''"),
    "traj_x": (T + ["1,20,abc,5"], None, "line 4: cannot parse x from 'abc'"),
    "traj_y": (T + ["1,20,5,y"], None, "line 4: cannot parse y from 'y'"),
    "traj_t_nan": (T + ["1,nan,5,5"], None, "line 4: non-finite t"),
    "traj_y_inf": (T + ["1,20,5,inf"], None, "line 4: non-finite y"),
    "traj_t_before_id": (T + ["v,nan,5,5"], None, "line 4: non-finite t"),
    "traj_blank_crlf": (TRAJ_CRLF, None, "line 5: cannot parse y from 'zz'"),
    "traj_quoted": (T + ['"1","2,5",0,0'], None, "line 4: cannot parse t from '2,5'"),
}


@pytest.mark.parametrize("name", CSV_MESSAGES)
def test_csv_parse_error_text(name):
    lines, edges, message = CSV_MESSAGES[name]
    with pytest.raises(ParseError) as got:
        load_network(lines, edges) if edges is not None else read_trajectories_csv(lines)
    assert str(got.value) == message


@pytest.mark.parametrize("read", [read_columns, read_fields])
def test_a_record_spanning_lines_counts_once(read):
    """A quoted field that spans two lines makes one record, so the fourth
    physical line below is line 3, whether it is short or cannot be read."""
    head = ["a,b\n", '1,"2\n', '"\n']
    limit = csv.field_size_limit()
    for row, message in (("x\n", "line 3: expected 2 t fields, got 1"),
                         ("1," + "1" * (limit + 1) + "\n",
                          f"line 3: field larger than field limit ({limit})")):
        with pytest.raises(ParseError) as got:
            read(head + [row], ["a", "b"], "t", [(0, float, "a"), (1, float, "b")])
        assert str(got.value) == message


def test_csv_accepts_spaced_headers_quotes_and_empty_lengths():
    net = load_network(["node_id , x,y", '"0"," 0 ",0', "", "1,3,4\r\n"],
                       [" from,to,length_m,speed_mps ", "0,1, ,15", '1,0,"2.5",15'])
    assert net.ids == [0, 1]
    assert net.length.tolist() == [5.0, 5.0, 2.5, 2.5]  # the empty length is the distance
    (track,) = read_trajectories_csv(["vehicle_id,t,x,y", ' 7 ,"1", 2 ,3', "", "7,2,4,5\r\n"])
    assert track.vehicle_id == 7
    assert track.t.tolist() == [1.0, 2.0] and track.xy.tolist() == [[2.0, 3.0], [4.0, 5.0]]


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
