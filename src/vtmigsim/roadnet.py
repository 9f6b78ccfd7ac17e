"""Planar road network: CSV loading, nearest-segment projection, shortest paths.

`read_columns` parses the numeric columns of a CSV file (the road network's
and the trajectories'), each column at once; it reads row by row only to name
the first bad line. Coordinates are planar meters (x east, y north). A network
is four columns: node ids in ascending order, their positions, the arcs as
pairs of dense node indices, and the arc lengths. It is built with array
checks that name the first bad node or arc; each node's out- and in-arc lists
come from stable sorts of the arcs. Undirected road segments are stored as two
directed arcs. The columns are read-only, the query indexes are built eagerly,
and no query changes the network. `shortest_path` finds by A* search the path
Dijkstra's finds, ties broken on node ids. `map_match` takes a batch of points
and reads a uniform grid of arc buckets with array ops, one pass per block of
queries: it keeps the best arc of the 3x3 cell block around a query only if it
is nearer than one cell by a margin that covers rounding, as every other arc is
a cell away. The other queries (off the grid, far from roads, not finite) scan
every arc with the same per-arc arithmetic.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
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
    """

    def __init__(self, ids: Sequence[int], xy, arcs: Sequence[tuple[int, int]], length, speed):
        """Nodes ids[k] at xy[k], in any order; arc k joins the node ids arcs[k]
        with length[k] meters and speed limit speed[k] m/s, both > 0. The first
        bad node, then the first bad arc, is a ValidationError."""
        ids, ends = list(ids), list(chain.from_iterable(arcs))
        row = dict(zip(ids, range(len(ids))))  # a repeated id is refused before its use
        self._build(ids, xy, _rows(row, ends).reshape(-1, 2), ends, length, speed)

    def _build(self, ids: list, xy, rows: np.ndarray, ends, length, speed) -> None:
        """The constructor on arcs given as rows (m, 2) of `ids`, -1 for the
        unknown node `ends[2k]` or `ends[2k + 1]`."""
        n = len(ids)
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        first = dict(zip(reversed(ids), range(n - 1, -1, -1)))  # each id's first row
        fault = first_fault(_rows(first, ids) != np.arange(n), ~np.isfinite(xy).all(axis=1))
        if fault:
            k, check = fault
            raise ValidationError((f"duplicate node id {ids[k]}",
                                   f"node {ids[k]} has non-finite coordinates")[check])
        self.length = np.array(length, dtype=float).reshape(-1)
        speed = np.asarray(speed, dtype=float).reshape(-1)
        fault = first_fault(*(rows < 0).T, ~(self.length > 0), ~(speed > 0))
        if fault:
            k, check = fault
            raise ValidationError(f"edge {k} " + (
                f"references unknown node {ends[2 * k + check]}" if check < 2 else
                ("has non-positive length", "has non-positive speed limit")[check - 2]))
        self.ids = sorted(ids)
        order = _rows(first, self.ids)
        self.xy = xy[order]
        self._index = dict(zip(self.ids, range(n)))
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        self.arcs = rank[rows]
        for name, end in (("_out", 0), ("_in", 1)):  # (other end, length) per node, in arc order
            by_end = np.argsort(self.arcs[:, end], kind="stable")
            arcs = list(zip(self.arcs[by_end, 1 - end].tolist(), self.length[by_end].tolist()))
            bounds = np.searchsorted(self.arcs[by_end, end], np.arange(n + 1)).tolist()
            setattr(self, name, [arcs[a:b] for a, b in zip(bounds, bounds[1:])])
        for column in (self.xy, self.arcs, self.length):
            column.flags.writeable = False
        a, b = self.xy[self.arcs.T]
        d = b - a  # rows of _seg: ax, ay, dx, dy, len2 of each arc
        self._seg = np.array([*a.T, *d.T, np.maximum(d[:, 0] ** 2 + d[:, 1] ** 2, 1e-300)])
        self._build_bucket_index(a, b)
        # A* scale: the least length per meter of an arc keeps h consistent; 0 (Dijkstra) where
        # an arc can vanish in a float sum (pops leave (D, index) order) or keys leave the range.
        with np.errstate(over="ignore"):  # c = inf turns the heuristic off
            c = float((self.length / np.sqrt(self._seg[4])).min(initial=math.inf))
        lo, total = float(self.length.min(initial=math.inf)), sum(self.length.tolist())
        top = 4.0 * (total + 3.0 * c * float(np.abs(self.xy).max(initial=0.0)))  # bounds keys
        self._scale = c if (lo > total * 2.0**-50 and (c + 1.0) * 2.0**-1000 < lo
                            and top < math.inf) else 0.0

    @classmethod
    def from_undirected(cls, nodes: Sequence[tuple[int, float, float]],
                        edges: Sequence[tuple[int, int, Optional[float], float]]) -> "RoadNetwork":
        """Build from (id, x, y) nodes and (u, v, length|None, speed) segments.

        Segment k becomes arcs 2k (u->v) and 2k+1 (v->u). A None length is
        filled in with the endpoint Euclidean distance.
        """
        ids, x, y = zip(*nodes) if nodes else ((),) * 3
        u, v, length, speed = zip(*edges) if edges else ((),) * 4
        missing = np.array([w is None for w in length], dtype=bool)
        return cls._from_segments(list(ids), np.column_stack((x, y)), u, v, length, speed, missing)

    @classmethod
    def _from_segments(cls, ids: list, xy, u, v, length, speed, missing) -> "RoadNetwork":
        """`from_undirected` on columns: node `ids` at `xy`, segment k from u[k]
        to v[k] with length[k], whose value is ignored where `missing[k]`."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        row = dict(zip(ids, range(len(ids))))  # a repeated id (refused later): its last row
        ru, rv = _rows(row, u), _rows(row, v)
        fault = first_fault(ru < 0, rv < 0)
        if fault:
            k, check = fault
            raise ValidationError(
                f"edge ({u[k]},{v[k]}) references unknown node {(u[k], v[k])[check]}")
        length = np.array(length, dtype=float).reshape(-1)
        with np.errstate(invalid="ignore"):  # inf - inf: the node is refused
            length[missing] = hypot(*(xy[ru[missing]] - xy[rv[missing]]).T)
        net = cls.__new__(cls)
        net._build(ids, xy, np.column_stack((ru, rv, rv, ru)).reshape(-1, 2), None,
                   length.repeat(2), np.asarray(speed, dtype=float).repeat(2))
        return net

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


def _rows(index: dict, nids) -> np.ndarray:
    """index[nid] for each of `nids` as an intp array, -1 where it is missing."""
    nids = list(nids)
    return np.fromiter(map(index.get, nids, repeat(-1)), np.intp, len(nids))


def first_fault(*faults) -> Optional[tuple[int, int]]:
    """(row, check) of the first row where one of the masks `faults` (in
    check order) holds, and the first mask that holds there; None if none does."""
    faults = np.array(faults, dtype=bool).reshape(len(faults), -1)
    bad = faults.any(axis=0)
    if not bad.any():
        return None
    k = int(bad.argmax())
    return k, int(faults[:, k].argmax())


def parse_num(field: str, kind: type, what: str, line_no: int):
    """`field` as an int or a finite float; a ParseError names `what` and the line."""
    try:
        value = kind(field)
    except ValueError:
        raise ParseError(f"line {line_no}: cannot parse {what} from {field!r}") from None
    if kind is float and not math.isfinite(value):
        raise ParseError(f"line {line_no}: non-finite {what}") from None
    return value


def _column(fields: Sequence[str], kind: Optional[type]) -> np.ndarray:
    """`fields` parsed as `parse_num` does, or a ValueError: kind int gives int64
    (Python ints, as objects, past int64), float a finite float64, and None a
    float64 that is NaN where the field is blank."""
    if kind is None:
        filled = np.fromiter(map(bool, map(str.strip, fields)), bool, len(fields))
        values = np.full(len(fields), math.nan)
        values[filled] = _column(list(compress(fields, filled)), float)
        return values
    try:
        values = np.array(fields, dtype=np.int64 if kind is int else float)
    except OverflowError:
        return np.array(list(map(int, fields)), dtype=object)
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


def read_columns(source: Iterable[str], header: list[str], what: str, fields) -> list[np.ndarray]:
    """The numeric columns of a CSV source (a file object or a list of lines).

    The source starts with `header`; blank rows are skipped. `fields` lists
    (column, kind, name) in the order a row's fields are checked, kind as in
    `_column`; one array per field, in that order. Each column is parsed whole.
    Only when that fails are the rows read again one by one, so that the
    ParseError names the first bad row (another width, or its first bad field,
    or a row the csv module cannot read) and its line: its record number, the
    header being line 1, so that a record spanning lines counts once.
    """
    reader = csv.reader(source)
    rows, failure = [], None
    try:
        rows.extend(reader)
    except csv.Error as exc:  # raised after the rows before it, as a row-by-row read does
        failure = ParseError(f"line {len(rows) + 1}: {exc}")
    first, *rows = rows or [None]
    if first is None and failure:
        raise failure
    if first is None or [c.strip() for c in first] != header:
        raise ParseError(f"line 1: missing header {','.join(header)}, got {first}")
    kept = [row for row in rows if len(row) > 1 or "".join(row).strip()]  # not blank
    try:
        columns = list(zip(*kept, strict=True)) or [()] * len(header)
        if failure or len(columns) != len(header):
            raise ValueError("a row of another width")
        return [_column(columns[col], kind) for col, kind, _ in fields]
    except ValueError:
        for n, row in enumerate(rows, start=2):
            if not row or len(row) == 1 and not row[0].strip():
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"line {n}: expected {len(header)} {what} fields, got {len(row)}") from None
            for col, kind, name in fields:
                if kind is not None or row[col].strip():
                    parse_num(row[col], kind or float, name, n)
        if failure:
            raise failure from None
        raise


def load_network(nodes_source: Iterable[str], edges_source: Iterable[str]) -> RoadNetwork:
    """Load a network from node and edge CSV sources (file objects or line lists).

    Node schema: ``node_id,x,y``. Edge schema: ``from,to,length_m,speed_mps``
    where an empty length field means "use the endpoint Euclidean distance".
    Both sources must start with their header line.
    """
    ids, x, y = read_columns(nodes_source, ["node_id", "x", "y"], "node",
                             [(0, int, "node id"), (1, float, "x"), (2, float, "y")])
    u, v, length, speed = read_columns(
        edges_source, ["from", "to", "length_m", "speed_mps"], "edge",
        [(0, int, "from node"), (1, int, "to node"), (2, None, "length"), (3, float, "speed")])
    return RoadNetwork._from_segments(ids.tolist(), np.column_stack((x, y)), u.tolist(),
                                      v.tolist(), length, speed, np.isnan(length))


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
    """The minimum-length node path from src to dst and its length that
    Dijkstra's search with heap entries (distance D, dense index) finds.

    A* (Hart, Nilsson & Raphael 1968) with lazy deletion, keyed on g + h with
    h = `net._scale` * Euclidean distance to dst. Dijkstra pops in (D(u), u)
    order, so its parent of v is the in-neighbour u with the least (D(u), u)
    where D(u) + w(u, v) == D(v) in float64: the path is walked back by that
    rule. With `net._scale` 0, h is 0 and the search stops at dst.
    """
    for nid in (src, dst):
        if nid not in net._index:
            raise ValidationError(f"unknown node {nid}")
    if src == dst:
        return [src], 0.0
    s, t, out, scale, n = net._index[src], net._index[dst], net._out, net._scale, len(net.ids)
    h = (scale * np.hypot(*(net.xy - net.xy[t]).T)).tolist() if scale else [0.0] * n
    dist, parent = [math.inf] * n, [-1] * n
    dist[s] = 0.0
    # Each arc of a path rounds a key g + h (and h's consistency) by a few ulps of
    # D(dst); n * 2**-48 * D(dst) covers paths of 2n arcs, so every node the walk
    # back reads pops with its exact label before the heap minimum passes the limit.
    heap, limit, slack = [(h[s], 0.0, s)], math.inf, (n + 4) * 2.0**-48
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        f, d_u, u = pop(heap)
        if f > limit:
            break
        if d_u > dist[u]:
            continue
        if u == t:
            if not scale:
                break
            limit = d_u + d_u * slack
        for v, w in out[u]:
            cand = d_u + w
            if cand < dist[v]:
                dist[v] = cand
                parent[v] = u
                push(heap, (cand + h[v], cand, v))
    if dist[t] == math.inf:
        raise UnreachableError(f"node {dst} is not reachable from {src}")
    path = [t]
    while path[-1] != s:
        v = path[-1]
        path.append(min((dist[u], u) for u, w in net._in[v] if dist[u] + w == dist[v])[1]
                    if scale else parent[v])
    return [net.ids[i] for i in reversed(path)], dist[t]
