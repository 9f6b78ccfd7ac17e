"""Reference road networks: object construction, dict-based Dijkstra and
full-scan map_match.

These are the implementations that the column `RoadNetwork`, the dense-index
`shortest_path` and the bucket-indexed `map_match` replaced. They are kept,
unchanged in their arithmetic, check order and tie rules, as the oracle the
fast code must match bit for bit. `ObjectNetwork` builds one `RoadNode` per
node and one `RoadEdge` per arc; the queries read only the public columns of
a `RoadNetwork` (`ids`, `xy`, `arcs`, `length`).
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from vtmigsim.roadnet import (
    NoEdgesError,
    Projection,
    UnreachableError,
    ValidationError,
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
