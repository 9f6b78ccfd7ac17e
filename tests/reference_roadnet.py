"""Reference road-network queries: dict-based Dijkstra and full-scan map_match.

These are the implementations that the dense-index `shortest_path` and the
bucket-indexed `map_match` replaced. They are kept, unchanged in their
arithmetic and tie rules, as the oracle the fast queries must match bit for
bit. They read only the public `nodes` and `edges` of a network.
"""

import heapq
import math

import numpy as np

from vtmigsim.roadnet import (
    GeoPoint,
    NoEdgesError,
    Projection,
    UnreachableError,
    ValidationError,
)


def adjacency(net):
    """Each node's outgoing arc ids, ascending."""
    out = {nid: [] for nid in net.nodes}
    for eid, edge in enumerate(net.edges):
        out[edge.from_node].append(eid)
    return out


def segment_arrays(net):
    """Per-arc (ax, ay, dx, dy, len2) arrays, built one arc at a time."""
    n = len(net.edges)
    ax = np.empty(n)
    ay = np.empty(n)
    bx = np.empty(n)
    by = np.empty(n)
    for i, e in enumerate(net.edges):
        a = net.nodes[e.from_node].pos
        b = net.nodes[e.to_node].pos
        ax[i], ay[i], bx[i], by[i] = a.x, a.y, b.x, b.y
    dx, dy = bx - ax, by - ay
    return ax, ay, dx, dy, np.maximum(dx**2 + dy**2, 1e-300)


def map_match(net, p, arrays=None):
    """Project a point onto the nearest arc segment (ties: lowest arc id)."""
    if not net.edges:
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
        if nid not in net.nodes:
            raise ValidationError(f"unknown node {nid}")
    if src == dst:
        return [src], 0.0
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
            edge = net.edges[eid]
            v = edge.to_node
            cand = d_u + edge.length
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
