"""Reference road networks: object construction, the per-arc adjacency loop,
dict-based Dijkstra, full-scan map_match and the per-field CSV reader.

These are the implementations that the column `RoadNetwork`, the dense-index
`shortest_path`, the bucket-indexed `map_match` and the column CSV reader
replaced. They are kept, unchanged in their arithmetic, check order and tie
rules, as the oracle the fast code must match bit for bit. `ObjectNetwork`
builds one `RoadNode` per node and one `RoadEdge` per arc; the queries read
only the public columns of a `RoadNetwork` (`ids`, `xy`, `arcs`, `length`).
"""

import csv
import heapq
import math
from dataclasses import dataclass

import numpy as np

from vtmigsim.roadnet import (
    NoEdgesError,
    ParseError,
    Projection,
    RoadNetwork,
    UnreachableError,
    ValidationError,
    parse_num,
)


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """Planar position in meters."""

    x: float
    y: float

    def dist_to(self, other: "GeoPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class RoadNode:
    id: int
    pos: GeoPoint


@dataclass(frozen=True)
class RoadEdge:
    """Directed arc; an undirected input segment becomes two arcs."""

    from_node: int
    to_node: int
    length: float        # meters, > 0
    speed_limit: float   # meters/second, > 0


class ObjectNetwork:
    """A network as a dict of RoadNodes by id and a list of RoadEdge arcs."""

    def __init__(self, nodes, arcs):
        self.nodes = {}
        for node in nodes:
            if node.id in self.nodes:
                raise ValidationError(f"duplicate node id {node.id}")
            if not (math.isfinite(node.pos.x) and math.isfinite(node.pos.y)):
                raise ValidationError(f"node {node.id} has non-finite coordinates")
            self.nodes[node.id] = node
        self.edges = list(arcs)
        for eid, edge in enumerate(self.edges):
            u, v = self.nodes.get(edge.from_node), self.nodes.get(edge.to_node)
            if u is None or v is None:
                missing = edge.from_node if u is None else edge.to_node
                raise ValidationError(f"edge {eid} references unknown node {missing}")
            if not edge.length > 0:
                raise ValidationError(f"edge {eid} has non-positive length")
            if not edge.speed_limit > 0:
                raise ValidationError(f"edge {eid} has non-positive speed limit")

    @classmethod
    def from_undirected(cls, nodes, edges):
        """Build from (id, x, y) nodes and (u, v, length|None, speed) segments.

        A None length is filled in with the endpoint Euclidean distance.
        Every segment is doubled into arcs u->v and v->u.
        """
        node_objs = [RoadNode(nid, GeoPoint(float(x), float(y))) for nid, x, y in nodes]
        pos = {n.id: n.pos for n in node_objs}
        arcs = []
        for u, v, length, speed in edges:
            if u not in pos or v not in pos:
                missing = u if u not in pos else v
                raise ValidationError(f"edge ({u},{v}) references unknown node {missing}")
            if length is None:
                length = pos[u].dist_to(pos[v])
            arcs.append(RoadEdge(u, v, float(length), float(speed)))
            arcs.append(RoadEdge(v, u, float(length), float(speed)))
        return cls(node_objs, arcs)


def arc_table(net):
    """(from id, to id, length) of each arc of a RoadNetwork, in arc order."""
    return [(net.ids[u], net.ids[v], w)
            for (u, v), w in zip(net.arcs.tolist(), net.length.tolist())]


def adjacency(net):
    """Each node's outgoing arc ids, ascending."""
    out = {nid: [] for nid in net.ids}
    for eid, (u, _, _) in enumerate(arc_table(net)):
        out[u].append(eid)
    return out


def out_lists(net):
    """Each node's (to index, length) arcs in arc order, appended one arc at a
    time as the network constructor once did."""
    out = [[] for _ in net.ids]
    for (a, b), w in zip(net.arcs.tolist(), net.length.tolist()):
        out[a].append((b, w))
    return out


def _records(reader):
    """The rows of a csv reader; a row it cannot read is a ParseError naming its
    line, counted in records, as every other ParseError is."""
    n = 0
    try:
        for n, row in enumerate(reader, start=1):
            yield row
    except csv.Error as exc:
        raise ParseError(f"line {n + 1}: {exc}") from None


def csv_rows(source, header, what):
    """Yield (line number, row) of the data rows after a required header,
    skipping blank rows; a ParseError names the line of a row of another width."""
    reader = _records(csv.reader(source))
    first = next(reader, None)
    if first is None or [c.strip() for c in first] != header:
        raise ParseError(f"line 1: missing header {','.join(header)}, got {first}")
    for n, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ParseError(f"line {n}: expected {len(header)} {what} fields, got {len(row)}")
        yield n, row


def read_fields(source, header, what, fields):
    """`roadnet.read_columns` one field at a time: a list per field of its
    values, None for a blank field of kind None."""
    out = [[] for _ in fields]
    for n, row in csv_rows(source, header, what):
        for values, (col, kind, name) in zip(out, fields):
            blank = kind is None and not row[col].strip()
            values.append(None if blank else parse_num(row[col], kind or float, name, n))
    return out


def load_network(nodes_source, edges_source):
    """`roadnet.load_network` through the per-field reader and node and
    segment tuples."""
    nodes = [
        (parse_num(row[0], int, "node id", n), parse_num(row[1], float, "x", n),
         parse_num(row[2], float, "y", n))
        for n, row in csv_rows(nodes_source, ["node_id", "x", "y"], "node")
    ]
    edges = [
        (parse_num(row[0], int, "from node", n), parse_num(row[1], int, "to node", n),
         parse_num(row[2], float, "length", n) if row[2].strip() else None,
         parse_num(row[3], float, "speed", n))
        for n, row in csv_rows(edges_source, ["from", "to", "length_m", "speed_mps"], "edge")
    ]
    return RoadNetwork.from_undirected(nodes, edges)


def segment_arrays(net):
    """Per-arc (ax, ay, dx, dy, len2) arrays, built one arc at a time."""
    n = len(net.arcs)
    ax = np.empty(n)
    ay = np.empty(n)
    bx = np.empty(n)
    by = np.empty(n)
    xy = net.xy.tolist()
    for i, (u, v) in enumerate(net.arcs.tolist()):
        ax[i], ay[i] = xy[u]
        bx[i], by[i] = xy[v]
    dx, dy = bx - ax, by - ay
    return ax, ay, dx, dy, np.maximum(dx**2 + dy**2, 1e-300)


def map_match(net, p, arrays=None):
    """Project a point onto the nearest arc segment (ties: lowest arc id)."""
    if not len(net.arcs):
        raise NoEdgesError("cannot map-match on a network with no edges")
    ax, ay, dx, dy, len2 = segment_arrays(net) if arrays is None else arrays
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / len2
    t = np.clip(t, 0.0, 1.0)
    qx = ax + t * dx
    qy = ay + t * dy
    d2 = (p.x - qx) ** 2 + (p.y - qy) ** 2
    best = int(np.argmin(d2))  # argmin keeps the first (lowest-id) minimum
    return Projection(
        edge_id=best,
        point=GeoPoint(float(qx[best]), float(qy[best])),
        offset=float(t[best]),
        distance=float(math.sqrt(d2[best])),
    )


def shortest_path(net, src, dst):
    """Minimum-length node path from src to dst; heap ties break on node id."""
    for nid in (src, dst):
        if nid not in net.ids:
            raise ValidationError(f"unknown node {nid}")
    if src == dst:
        return [src], 0.0
    table = arc_table(net)
    arcs = adjacency(net)
    dist = {src: 0.0}
    parent = {}
    done = set()
    heap = [(0.0, src)]
    while heap:
        d_u, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == dst:
            break
        for eid in arcs[u]:
            _, v, length = table[eid]
            cand = d_u + length
            if cand < dist.get(v, math.inf):
                dist[v] = cand
                parent[v] = u
                heapq.heappush(heap, (cand, v))
    if dst not in done:
        raise UnreachableError(f"node {dst} is not reachable from {src}")
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path, dist[dst]
