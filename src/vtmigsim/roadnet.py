"""Planar road network: CSV loading, nearest-segment projection, shortest paths.

Coordinates are planar meters (x east, y north). A network is four columns:
node ids in ascending order, their positions, the arcs as pairs of dense node
indices, and the arc lengths. Undirected road segments are stored as two
directed arcs. The columns are read-only; the query indexes are built eagerly,
and `shortest_path` keeps paused route searches on the network (give each
thread its own network). Dijkstra runs on dense node indices, so heap ties
break exactly as on node ids. `map_match` takes a batch of points and reads a
uniform grid of arc buckets with array ops, one pass per block of queries: it
keeps the best arc of the 3x3 cell block around a query only if it is nearer
than one cell by a margin that covers rounding, as every other arc is a cell
away. The other queries (off the grid, far from roads, not finite) scan every
arc with the same per-arc arithmetic.
"""

from __future__ import annotations

import csv
import heapq
import math
from array import array
from dataclasses import dataclass
from struct import pack
from typing import Iterable, Optional, Sequence

import numpy as np


class RoadNetworkError(ValueError):
    """Base class for road-network loading and query errors."""


class ParseError(RoadNetworkError):
    """A CSV row could not be parsed; the message carries the line number."""


class ValidationError(RoadNetworkError):
    """Structurally invalid network (dangling endpoint, duplicate id, ...)."""


class NoEdgesError(RoadNetworkError):
    """A query needed at least one edge but the network has none."""


class UnreachableError(RoadNetworkError):
    """No path exists between the requested nodes."""


def elementwise(kernel, nin: int):
    """Python's scalar `math` kernel applied element-wise to broadcast arrays, as float64."""
    ufunc = np.frompyfunc(kernel, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)


# Planar distances over arrays with math.hypot's bits, for missing arc
# lengths and track legs: np.hypot rounds differently on some inputs.
hypot = elementwise(math.hypot, 2)


@dataclass(frozen=True, eq=False)
class Projection:
    """Nearest points of N queries on the arcs, one row per query.

    edge_id (N,) is the arc and point (N, 2) the projected position. offset
    (N,) is the fraction along the arc (0 at from_node, 1 at to_node), clamped
    to the segment; distance (N,) is from the query to the projected point.
    """

    edge_id: np.ndarray
    point: np.ndarray
    offset: np.ndarray
    distance: np.ndarray


class RoadNetwork:
    """Directed road graph held as read-only columns.

    `ids` lists the node ids ascending (a list: ids may exceed int64) and `xy`
    (n, 2) their positions in that order. Arc k runs from node `arcs[k, 0]` to
    node `arcs[k, 1]`, dense indices into `ids`, and is `length[k]` meters long.
    `_searches` holds the paused `shortest_path` searches of recent sources.
    """

    def __init__(self, ids: Sequence[int], xy, arcs: Sequence[tuple[int, int]], length, speed):
        """Nodes ids[k] at xy[k], in any order; arc k joins the node ids arcs[k]
        with length[k] meters and speed limit speed[k] m/s, both > 0."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        finite = np.isfinite(xy).all(axis=1).tolist()
        row: dict[int, int] = {}
        for k, nid in enumerate(ids):
            if nid in row:
                raise ValidationError(f"duplicate node id {nid}")
            if not finite[k]:
                raise ValidationError(f"node {nid} has non-finite coordinates")
            row[nid] = k
        self.ids = sorted(row)
        self.xy = xy[[row[nid] for nid in self.ids]]
        self._index = index = {nid: i for i, nid in enumerate(self.ids)}
        self._searches = {}  # paused shortest_path searches by source index, oldest use first
        self._out = out = [[] for _ in self.ids]  # (to index, length) per node
        self.length = np.array(length, dtype=float).reshape(-1)
        speed = np.asarray(speed, dtype=float).tolist()
        ends = []
        for eid, ((u, v), w, s) in enumerate(zip(arcs, self.length.tolist(), speed, strict=True)):
            a, b = index.get(u), index.get(v)
            if a is None or b is None:
                raise ValidationError(f"edge {eid} references unknown node {u if a is None else v}")
            if not w > 0:
                raise ValidationError(f"edge {eid} has non-positive length")
            if not s > 0:
                raise ValidationError(f"edge {eid} has non-positive speed limit")
            out[a].append((b, w))
            ends += (a, b)
        self.arcs = np.array(ends, dtype=np.intp).reshape(-1, 2)
        for column in (self.xy, self.arcs, self.length):
            column.flags.writeable = False
        a, b = self.xy[self.arcs.T]
        d = b - a  # rows of _seg: ax, ay, dx, dy, len2 of each arc
        self._seg = np.array([*a.T, *d.T, np.maximum(d[:, 0] ** 2 + d[:, 1] ** 2, 1e-300)])
        self._build_bucket_index(a, b)

    @classmethod
    def from_undirected(
        cls,
        nodes: Sequence[tuple[int, float, float]],
        edges: Sequence[tuple[int, int, Optional[float], float]],
    ) -> "RoadNetwork":
        """Build from (id, x, y) nodes and (u, v, length|None, speed) segments.

        Segment k becomes arcs 2k (u->v) and 2k+1 (v->u). A None length is
        filled in with the endpoint Euclidean distance.
        """
        ids = [nid for nid, _, _ in nodes]
        xy = np.array([(x, y) for _, x, y in nodes], dtype=float).reshape(-1, 2)
        row = {nid: k for k, nid in enumerate(ids)}  # a repeated id (rejected later): its last row
        for u, v, _, _ in edges:
            if u not in row or v not in row:
                missing = v if u in row else u
                raise ValidationError(f"edge ({u},{v}) references unknown node {missing}")
        ends = np.array([(row[u], row[v]) for u, v, _, _ in edges], dtype=np.intp).reshape(-1, 2)
        gap = np.array([w is None for _, _, w, _ in edges], dtype=bool)
        length = np.array([0.0 if w is None else w for _, _, w, _ in edges], dtype=float)
        with np.errstate(invalid="ignore"):  # inf - inf: the constructor rejects the node
            length[gap] = hypot(*(xy[ends[gap, 0]] - xy[ends[gap, 1]]).T)
        arcs = [arc for u, v, _, _ in edges for arc in ((u, v), (v, u))]
        speed = np.array([s for _, _, _, s in edges], dtype=float)
        return cls(ids, xy, arcs, length.repeat(2), speed.repeat(2))

    def _build_bucket_index(self, a: np.ndarray, b: np.ndarray) -> None:
        """Row-major CSR of the arcs whose bbox meets each cell, ids ascending.

        The CSR covers the nx x ny grid framed by one empty cell on each side,
        so the 3x3 block around any grid cell lies inside it.
        ``_grid = None`` disables the index: no arcs, a degenerate extent, or
        coordinates so large that projections could overflow.
        """
        self._grid, n = None, len(a)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if n == 0:
            return
        (x0, y0), (x1, y1) = lo.min(axis=0).tolist(), hi.max(axis=0).tolist()
        w, h = x1 - x0, y1 - y0
        # About four cells per arc, and at most 2n + 1 cells along a side.
        cell = 0.5 * max(math.sqrt(w * h / n), max(w, h) / n)
        scale = max(abs(x0), abs(y0), abs(x1), abs(y1))
        if not (cell > 0.0 and scale <= 1e150):
            return
        while True:  # long diagonal arcs meet many cells: coarsen until lists stay small
            nx, ny = int(w / cell) + 1, int(h / cell) + 1
            first, last = (
                np.clip(np.floor((c - (x0, y0)) / cell), 0, (nx - 1, ny - 1)).astype(np.int32)
                for c in (lo, hi)
            )
            span = last - first + 1
            counts = span[:, 0] * span[:, 1]
            if counts.sum() <= 16 * n:
                break
            cell *= 2.0
        arc = np.repeat(np.arange(n, dtype=np.int32), counts)
        # Entry k of an arc is cell (k % width, k // width) of its bbox.
        k = np.arange(len(arc), dtype=np.int32)
        k -= np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts)
        row, col = np.divmod(k, span[arc, 0])
        cid = (first[arc, 1] + row + 1) * (nx + 2) + first[arc, 0] + col + 1
        self._cell_start = np.concatenate(
            ([0], np.cumsum(np.bincount(cid, minlength=(nx + 2) * (ny + 2)))))
        del k, row, col  # lower the peak memory of the sort below
        self._cell_arcs = arc[np.argsort(cid, kind="stable")]
        self._grid = (x0, y0, cell, nx, ny)
        self._slack = 1e-9 * (scale + cell)  # covers rounding in cell indices and projections


def parse_num(field: str, kind: type, what: str, line_no: int):
    """`field` as an int or a finite float; a ParseError names `what` and the line."""
    try:
        value = kind(field)
    except ValueError:
        raise ParseError(f"line {line_no}: cannot parse {what} from {field!r}") from None
    if kind is float and not math.isfinite(value):
        raise ParseError(f"line {line_no}: non-finite {what}")
    return value


def csv_rows(source: Iterable[str], header: list[str], what: str):
    """Yield (line number, row) of the data rows after a required header,
    skipping blank rows; a ParseError names the line of a row of another width."""
    reader = csv.reader(source)
    first = next(reader, None)
    if first is None or [c.strip() for c in first] != header:
        raise ParseError(f"line 1: missing header {','.join(header)}, got {first}")
    for n, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ParseError(f"line {n}: expected {len(header)} {what} fields, got {len(row)}")
        yield n, row


def load_network(nodes_source: Iterable[str], edges_source: Iterable[str]) -> RoadNetwork:
    """Load a network from node and edge CSV sources (file objects or line lists).

    Node schema: ``node_id,x,y``. Edge schema: ``from,to,length_m,speed_mps``
    where an empty length field means "use the endpoint Euclidean distance".
    Both sources must start with their header line.
    """
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


_KEPT_LABELS = 1 << 18  # node labels kept per network by paused route searches, 13 B each
_BLOCK = 512           # queries per in-block pass: bounds the candidate arrays
_SCAN_PAIRS = 1 << 13  # query-arc pairs per full-scan pass


def _project(q: np.ndarray, seg: np.ndarray):
    """(t, point, d2): clamped projection of points q (2, ...) onto arcs seg (5, ...)."""
    a, d, len2 = seg[:2], seg[2:4], seg[4]
    r = (q - a) * d
    t = ((r[0] + r[1]) / len2).clip(0.0, 1.0)
    point = a + t * d
    e = (q - point) ** 2
    return t, point, e[0] + e[1]


def _match_in_blocks(net: RoadNetwork, q: np.ndarray):
    """(rows, arc ids) of the queries q (2, B) whose 3x3 cell block certainly
    holds their nearest arc; the other rows need a full scan."""
    x0, y0, cell, nx, ny = net._grid
    f = (q.T - (x0, y0)) / cell
    rows = ((f >= 0.0) & (f < (nx, ny))).all(axis=1).nonzero()[0]  # not NaN
    # Framed cell (ix, iy) + (1, 1) holds the query; row k of its block is the
    # CSR range from framed cell (ix, iy + k) to (ix + 3, iy + k).
    width = nx + 2
    ix, iy = f[rows].astype(np.intp).T
    first = (iy * width + ix)[:, None] + (0, width, 2 * width)
    lo = net._cell_start[first].ravel()
    counts = net._cell_start[first + 3].ravel() - lo
    ends = counts.cumsum()
    begin = ends - counts
    seg, seg_end = begin[::3], ends[2::3]  # each query's candidates
    some = seg_end > seg  # the queries with an arc in their block
    rows, seg, per_query = rows[some], seg[some], (seg_end - seg)[some]
    eid = net._cell_arcs[np.arange(counts.sum()) + (lo - begin).repeat(counts)]
    query = np.arange(len(rows)).repeat(per_query)
    d2 = _project(q.take(rows[query], axis=1), net._seg.take(eid, axis=1))[2]
    # Segmented min of d2, the lowest arc id among equal distances.
    best_d2 = np.minimum.reduceat(d2, seg)
    best = np.minimum.reduceat(np.where(d2 == best_d2[query], eid, len(net.arcs)), seg)
    # The query is in the centre cell: other arcs (none past the border) are a cell away.
    sure = np.sqrt(best_d2) * (1.0 + 1e-9) + net._slack < cell
    return rows[sure], best[sure]


def map_match(net: RoadNetwork, xy) -> Projection:
    """Project each row of `xy` (N, 2) onto its nearest arc segment (ties: lowest arc id)."""
    if not len(net.arcs):
        raise NoEdgesError("cannot map-match on a network with no edges")
    q = np.ascontiguousarray(np.asarray(xy, dtype=float).reshape(-1, 2).T)
    edge_id = np.full(q.shape[1], -1)
    for lo in range(0, q.shape[1] if net._grid else 0, _BLOCK):
        rows, best = _match_in_blocks(net, q[:, lo:lo + _BLOCK])
        edge_id[rows + lo] = best
    rest = (edge_id < 0).nonzero()[0]
    step = max(1, _SCAN_PAIRS // len(net.arcs))
    for lo in range(0, len(rest), step):
        rows = rest[lo:lo + step]
        d2 = _project(q[:, rows, None], net._seg[:, None])[2]
        edge_id[rows] = d2.argmin(axis=1)  # argmin keeps the first (lowest-id) minimum
    # The same arithmetic on the same operands as above: the same bits.
    t, point, d2 = _project(q, net._seg.take(edge_id, axis=1))
    return Projection(edge_id, point.T, t, np.sqrt(d2))


def shortest_path(net: RoadNetwork, src: int, dst: int) -> tuple[list[int], float]:
    """Minimum-length node path from src to dst.

    Classic label-setting search with a binary heap and lazy deletion; the
    relaxation step is dist[v] = min(dist[v], dist[u] + w(u, v)). Heap entries
    are (distance, dense index) with indices in node-id order, so results are
    deterministic. Pushes for a node strictly decrease, so a popped entry above
    its node's distance is stale. The pop order does not depend on dst, so the
    search pauses with dst settled and its arcs relaxed, and `net` keeps it (LRU,
    `_KEPT_LABELS` labels in all): a later call from src resumes it exactly.
    """
    for nid in (src, dst):
        if nid not in net._index:
            raise ValidationError(f"unknown node {nid}")
    if src == dst:
        return [src], 0.0
    s, target, out, kept = net._index[src], net._index[dst], net._out, net._searches
    n = len(out)
    # (dist, parent, settled flags, heap) of the paused search from s, or a fresh one
    dist, parent, done, heap = state = kept.pop(s, None) or (None, None, bytearray(n), [(0.0, s)])
    if not done[target] and heap:
        dist, parent = (dist.tolist(), parent.tolist()) if dist else ([math.inf] * n, [-1] * n)
        dist[s] = 0.0
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d_u, u = pop(heap)
            if d_u > dist[u]:
                continue
            done[u] = 1
            for v, w in out[u]:
                cand = d_u + w
                if cand < dist[v]:
                    dist[v] = cand
                    parent[v] = u
                    push(heap, (cand, v))
            if u == target:
                break
        state = None if n > _KEPT_LABELS else (  # struct reads a list faster than array()
            array("d", pack(f"{n}d", *dist)), array("i", pack(f"{n}i", *parent)), done, heap)
    if state is not None:
        kept[s] = state  # most recently used last
    while len(kept) * n > _KEPT_LABELS:
        del kept[next(iter(kept))]
    if not done[target]:
        raise UnreachableError(f"node {dst} is not reachable from {src}")
    path = [target]
    while path[-1] != s:
        path.append(parent[path[-1]])
    return [net.ids[i] for i in reversed(path)], dist[target]
