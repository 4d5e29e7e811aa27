"""Weighted undirected graph container plus cut/volume/conductance metrics.

The graph is stored in CSR form (index pointer, neighbor and weight arrays)
with dense 0..n-1 vertex ids.  Parallel edges are merged at construction by
summing weights; self-loops are rejected (walk laziness is a property of the
walk engine, never of the stored graph).  Instances are immutable after
construction and safe to share across threads.

Volumes follow the lazy-walk convention used throughout the package:
``vol(S)`` is the plain weighted-degree sum and ``2 * vol(S)`` is the lazy
volume that accounts for the virtual self-loop of weight ``d_i`` at every
vertex.
"""

from __future__ import annotations

import contextlib
import warnings
from collections.abc import Iterable

import numpy as np
from scipy.sparse import csr_array

from .errors import InvalidInputError, ParseError, ResourceError

EVEN = 1
ODD = -1
UNCLASSIFIED = 0

# Largest vertex count whose pair keys lo * n + hi fit in an int64.
_MAX_KEYED_N = 3_037_000_499
# A graph may have at most 2 * edges + _MAX_ISOLATED vertices, so that one
# large id in a small file cannot size its arrays.
_MAX_ISOLATED = 1 << 20
# dump_graph writes this many edges at a time, so that its memory stays bounded.
_DUMP_BLOCK = 1 << 16


class WeightedGraph:
    """Immutable weighted undirected graph with a degree index."""

    __slots__ = (
        "n",
        "indptr",
        "nbr",
        "wt",
        "degrees",
        "total_weight",
        "_csr",
        "_alias",
        "_greedy",
    )

    def __init__(self, n: int, indptr, nbr, wt):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.nbr = np.asarray(nbr, dtype=np.int64)
        self.wt = np.asarray(wt, dtype=np.float64)
        # Each row summed on its own: a difference of one running sum over all
        # rows would carry that sum's rounding into every light row.
        self.degrees = np.bincount(np.repeat(np.arange(self.n), np.diff(self.indptr)),
                                   weights=self.wt, minlength=self.n)
        self.total_weight = float(self.degrees.sum())
        self._csr = None
        self._alias = None
        self._greedy = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]]) -> "WeightedGraph":
        """Build a graph from (u, v, w) triples, merging parallel edges."""
        triples = list(edges)
        us, vs, ws = zip(*triples) if triples else ((), (), ())
        try:
            u = np.array(us, dtype=np.int64)
            v = np.array(vs, dtype=np.int64)
        except OverflowError as exc:
            raise ParseError(f"vertex id out of range with n={n}: {exc}") from exc
        return cls.from_arrays(n, u, v, np.array(ws, dtype=np.float64))

    @classmethod
    def from_arrays(cls, n: int, u, v, w) -> "WeightedGraph":
        """Build a graph from edge arrays (edge i joins u[i] and v[i] with
        weight w[i]), merging parallel edges.

        Refuses with ResourceError a vertex count above 2 * edges + 2**20,
        before allocating anything of size n.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
        bad |= ~(w > 0.0) | ~np.isfinite(w)
        if bad.any():
            i = int(np.argmax(bad))
            ui, vi, wi = int(u[i]), int(v[i]), float(w[i])
            if ui == vi:
                raise ParseError(f"self-loop at vertex {ui} not allowed")
            if not (0 <= ui < n and 0 <= vi < n):
                raise ParseError(f"vertex id out of range: ({ui}, {vi}) with n={n}")
            kind = "non-positive" if np.isfinite(wi) else "non-finite"
            raise ParseError(f"edge ({ui}, {vi}) has {kind} weight {wi}")
        if n > _MAX_KEYED_N:
            raise ResourceError(f"n = {n} too large: vertex pair keys need n*n < 2**63")
        if n > 2 * u.size + _MAX_ISOLATED:
            raise ResourceError(f"n = {n} too large for {u.size} edges: at most "
                                f"2 * edges + {_MAX_ISOLATED} vertices")
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        # Strictly increasing keys, as dump_graph writes them, need no merge
        # (0.0 + w == w).  bincount adds in input order from 0.0, like summing
        # parallel edges one by one, so merged weights do not depend on the sort.
        if not (keys[1:] > keys[:-1]).all():
            keys, inverse = np.unique(keys, return_inverse=True)
            w = np.bincount(inverse, weights=w, minlength=keys.size)
        lo, hi = np.divmod(keys, n)
        # COO -> CSR is a stable counting sort by row; with the (hi, lo) half
        # first, each row's columns come out ascending.
        adj = csr_array((np.concatenate((w, w)),
                         (np.concatenate((hi, lo)), np.concatenate((lo, hi)))), shape=(n, n))
        return cls(n, adj.indptr, adj.indices, adj.data)

    # -- basic access ------------------------------------------------------

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor ids and weights of v as array views."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.nbr[lo:hi], self.wt[lo:hi]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each undirected edge once as arrays (u, v, w) with u < v, sorted."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        once = src < self.nbr
        return src[once], self.nbr[once], self.wt[once]

    def edge_weight_total(self) -> float:
        """Sum of edge weights (half the total weighted degree)."""
        return self.total_weight / 2.0

    def adjacency_csr(self):
        """Adjacency matrix as a cached scipy CSR array."""
        if self._csr is None:
            self._csr = csr_array(
                (self.wt, self.nbr, self.indptr), shape=(self.n, self.n)
            )
        return self._csr

    def alias_table(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Per-row alias tables (Walker 1977; Vose 1991), built once and cached.

        Returns (cnt, prob, alias), cnt being each row's entry count as a
        float.  For a vertex v of positive degree and u uniform on [0, 1),
        let x = u * cnt[v] and j = indptr[v] + floor(x).  The neighbour
        nbr[j] if x - floor(x) < prob[j], else the vertex alias[j], is then
        drawn with probability proportional to its edge weight.  When every
        row's weights are equal, prob and alias are None: nbr[j] is drawn.
        """
        if self._alias is None:
            self._alias = _alias_table(self)
        return self._alias

    def greedy_left(self) -> frozenset:
        """The Left set of bench.greedy_cut on this graph, computed once and cached."""
        if self._greedy is None:
            from .bench import greedy_cut  # bench builds on this module

            self._greedy = greedy_cut(self)
        return self._greedy

    def induced(self, vertices) -> tuple["WeightedGraph", np.ndarray]:
        """Induced subgraph plus the new-id -> old-id map."""
        member = np.zeros(self.n, dtype=bool)  # sorted unique ids without a sort
        member[_as_index_array(vertices, self.n)] = True
        ids = np.flatnonzero(member)
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[ids] = np.arange(ids.size)
        src, nbr, wt = _rows(self, ids)
        keep = pos[nbr] >= 0
        # pos is increasing and every row is sorted, so the kept rows stay sorted.
        indptr = np.concatenate(([0], np.cumsum(np.bincount(src[keep], minlength=ids.size))))
        return WeightedGraph(ids.size, indptr, pos[nbr[keep]], wt[keep]), ids

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.nbr, other.nbr)
            and np.array_equal(self.wt, other.wt)
        )

    def __hash__(self):
        return id(self)

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={self.nbr.size // 2}, m={self.total_weight:g})"


def _as_index_array(vertices, n: int) -> np.ndarray:
    if isinstance(vertices, np.ndarray):
        idx = vertices.astype(np.int64, copy=False)
    else:
        idx = np.fromiter(map(int, vertices), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidInputError("vertex id out of range")
    return idx


def _rows(g: WeightedGraph, vertices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR rows of vertices, concatenated in order.

    Returns (src_rank, nbr, wt): entry i is the edge from vertices[src_rank[i]]
    to nbr[i] with weight wt[i].  Costs O(sum of the rows' degrees).
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = g.indptr[vertices]
    counts = g.indptr[vertices + 1] - starts
    src_rank = np.repeat(np.arange(vertices.size), counts)
    shift = np.repeat(np.cumsum(counts) - counts - starts, counts)
    idx = np.arange(src_rank.size) - shift
    return src_rank, g.nbr[idx], g.wt[idx]


def _alias_table(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Vose's pairing, vectorized over all rows at once.

    Entry weights are scaled to q = w * cnt / degree, so each row's mean is
    1 and each entry's bucket holds mass 1: prob of it its own, the rest its
    alias's.  Per row, light entries (q < 1) are laid end to end by their
    deficits 1 - q and heavy ones by their excesses q - 1, the row maximum
    last.  A light entry's alias is the first heavy entry whose excess span
    ends at or after the start of its deficit span.  A heavy entry passes
    what those deficits overshoot its span on to the next heavy entry, its
    alias, and keeps the rest; the last one keeps its whole bucket.  A row of
    equal weights has q = 1 throughout and keeps every bucket whole.
    """
    cnt = np.diff(g.indptr)
    row = np.repeat(np.arange(g.n), cnt)
    q = g.wt * cnt[row] / g.degrees[row]
    uneven = np.bincount(row, q != 1.0, minlength=g.n) > 0
    e = np.flatnonzero(uneven[row])
    if not e.size:
        return cnt.astype(np.float64), None, None
    prob = np.ones(q.size)
    alias = g.nbr.copy()
    e = e[np.lexsort((q[e], row[e]))]
    r = row[e]
    # The row maximum comes last and is heavy even when rounding left it
    # just below 1.
    is_heavy = (q[e] >= 1.0) | np.append(r[1:] != r[:-1], True)
    light, heavy = e[~is_heavy], e[is_heavy]
    lrow, hrow = row[light], row[heavy]
    # Running sums over all rows, each read against its own row's base.
    a_cum = np.concatenate(([0.0], np.cumsum(1.0 - q[light])))
    e_cum = np.concatenate(([0.0], np.cumsum(q[heavy] - 1.0)))
    h_first = np.searchsorted(hrow, lrow)
    start = a_cum[:-1] - a_cum[np.searchsorted(lrow, lrow)] + e_cum[h_first]
    owner = np.clip(np.searchsorted(e_cum[1:], start), h_first,
                    np.searchsorted(hrow, lrow, "right") - 1)
    # Deficits owned by heavy entries up to k, less their excesses.
    owed = a_cum[np.searchsorted(owner, np.arange(heavy.size), "right")]
    passed = (owed - a_cum[np.searchsorted(lrow, hrow)]) - (
        e_cum[1:] - e_cum[np.searchsorted(hrow, hrow)])
    last = np.append(hrow[1:] != hrow[:-1], True)
    prob[light] = q[light]
    alias[light] = g.nbr[heavy[owner]]
    prob[heavy] = np.where(last, 1.0, np.clip(1.0 - passed, 0.0, 1.0))
    alias[heavy[:-1][~last[:-1]]] = g.nbr[heavy[1:][~last[:-1]]]
    return cnt.astype(np.float64), prob, alias


# -- I/O --------------------------------------------------------------------


def load_graph(source) -> WeightedGraph:
    """Parse an edge-list stream or path into a WeightedGraph.

    Format: one edge per line, ``u v [w]`` (w defaults to 1.0), '#' starts a
    comment, blank lines are ignored, ids are 0-based.  Parallel edges merge
    by weight summation.  Self-loops and non-positive or non-finite weights
    are rejected.
    """
    text = _read_text(source)
    columns = _read_columns(text)
    if columns is None:
        return _load_lines(text)
    u, v, w = columns
    return WeightedGraph.from_arrays(int(max(u.max(), v.max())) + 1, u, v, w)


def _read_text(source) -> str:
    """The whole text of a stream or path; ParseError unless it is UTF-8."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        return text.decode("utf-8") if isinstance(text, bytes) else text
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from exc


_EDGE_DTYPES = (np.dtype([("u", "i8"), ("v", "i8"), ("w", "f8")]),
                np.dtype([("u", "i8"), ("v", "i8")]))


def _read_columns(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The edge columns (u, v, w) of text, read by numpy's C reader.

    Returns None unless every line reads as the same two or three numbers and
    every edge is one _load_lines accepts; _load_lines then decides what the
    file means and names its first bad line.  The reader accepts a subset of
    int() and float() with the same values, and splitting at str.splitlines
    leaves it the same whitespace as str.split.
    """
    lines = text.splitlines()
    for dtype in _EDGE_DTYPES:
        rows = _loadtxt_or_none(lines, dtype, "#")
        if rows is None:
            continue
        u, v = rows["u"], rows["v"]
        w = rows["w"] if "w" in dtype.names else np.ones(u.size)
        if ((u >= 0) & (v >= 0) & (u != v) & (w > 0.0) & np.isfinite(w)).all():
            return u, v, w
        return None
    return None


def _loadtxt_or_none(lines: list[str], dtype: np.dtype, comments: str | None):
    """np.loadtxt of lines, or None where it refuses or warns: on input without
    a data line, or (numpy 1.23 to 1.26) on an integer field such as "1.0",
    which int() refuses and it would read through float."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype=dtype, comments=comments, ndmin=1)
        except (ValueError, Warning):
            return None


def _load_lines(text: str) -> WeightedGraph:
    """Parse text line by line: the reference grammar of the edge-list
    format, and the reader that names a bad line."""
    edges: list[tuple[int, int, float]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        try:
            u = int(parts[0])
            v = int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u}-{v} (laziness is implicit)")
        if not np.isfinite(w):
            raise ParseError(f"line {lineno}: non-finite weight {w}")
        if not (w > 0.0):
            raise ParseError(f"line {lineno}: non-positive weight {w}")
        max_id = max(max_id, u, v)
        edges.append((u, v, w))
    return WeightedGraph.from_edges(max_id + 1, edges)


def dump_graph(g: WeightedGraph, target) -> None:
    """Write the edge list with sorted edges.  load_graph reads it back as an
    equal graph when vertex n - 1 has an edge (it takes n as the largest id
    plus one)."""
    u, v, w = g.edge_arrays()
    blocks = (zip(u[i:i + _DUMP_BLOCK].tolist(), v[i:i + _DUMP_BLOCK].tolist(),
                  w[i:i + _DUMP_BLOCK].tolist()) for i in range(0, u.size, _DUMP_BLOCK))
    _write_text(("".join([f"{a} {b} {x!r}\n" for a, b, x in block]) for block in blocks), target)


def _write_text(text: str | Iterable[str], target) -> None:
    """Write a string, or each string of an iterable, to a stream or path."""
    with (contextlib.nullcontext(target) if hasattr(target, "write")
          else open(target, "w", encoding="utf-8")) as fh:
        for part in (text,) if isinstance(text, str) else text:
            fh.write(part)


def write_partition(left, n: int, target) -> None:
    """Partition file: one ``vertex_id L|R`` line per vertex."""
    left_set = set(map(int, left))
    _write_text("".join([f"{v} {'L' if v in left_set else 'R'}\n" for v in range(n)]), target)


_SIDE_DTYPE = np.dtype([("v", "i8"), ("side", "U2")])


def read_partition(source, n: int | None = None) -> frozenset[int]:
    """Read a partition file back into the set of Left vertices.

    Each vertex may be listed once; a repeated id raises ParseError, and so
    does an id outside [0, n) when n is given.  Vertices the file omits are
    on the Right.  numpy's C reader reads the columns; text it does not take
    as plain, or that fails a check, goes to _read_partition_lines, which
    names the first bad line.  The side field is two characters wide, so
    that a side such as "LL" is not cut to "L".  numpy drops trailing NULs
    from it, so text with a NUL goes to the line reader as well.
    """
    text = _read_text(source)
    rows = None if "\x00" in text else _loadtxt_or_none(text.splitlines(), _SIDE_DTYPE, None)
    if rows is not None:
        ids, left = np.sort(rows["v"]), rows["side"] == "L"  # a sort: no array sized by an id
        if ((left | (rows["side"] == "R")).all() and not (ids[1:] == ids[:-1]).any()
                and (n is None or not ids.size or 0 <= ids[0] and ids[-1] < n)):
            return frozenset(rows["v"][left].tolist())
    return _read_partition_lines(text, n)


def _read_partition_lines(text: str, n: int | None) -> frozenset[int]:
    """Parse a partition file line by line: the reference grammar, and the
    reader that names a bad line."""
    left = set()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("L", "R"):
            raise ParseError(f"line {lineno}: expected 'vertex L|R'")
        try:
            v = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if n is not None and not 0 <= v < n:
            raise ParseError(f"line {lineno}: vertex {v} out of range with n={n}")
        if v in seen:
            raise ParseError(f"line {lineno}: vertex {v} listed twice")
        seen.add(v)
        if parts[1] == "L":
            left.add(v)
    return frozenset(left)


# -- metrics ----------------------------------------------------------------


def prefix_cut_metrics(g: WeightedGraph, order, sides,
                       side=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative good/cross/inc of classifying order[k] to sides[k] in turn.

    Entry k of each returned array is what classifying order[:k+1] adds to
    the metrics of the labelling ``side`` (all unclassified when None).  The
    vertices of order must be distinct and unclassified in ``side``; sides is
    one side for all of them or one per vertex.  Costs O(sum of the degrees
    of order), however large the graph.
    """
    order = np.asarray(order, dtype=np.int64)
    sides = np.broadcast_to(np.asarray(sides, dtype=np.int8), order.shape)
    label = np.zeros(g.n, dtype=np.int8) if side is None else side.copy()
    rank = np.full(g.n, order.size, dtype=np.int64)
    rank[label != UNCLASSIFIED] = -1
    rank[order] = np.arange(order.size)
    label[order] = sides
    src, nbr, wt = _rows(g, order)
    opens = rank[nbr] > src
    closes = ~opens
    cut = closes & (label[nbr] != sides[src])
    inc = np.bincount(src[opens], wt[opens], minlength=order.size)
    cross = inc - np.bincount(src[closes], wt[closes], minlength=order.size)
    good = np.bincount(src[cut], wt[cut], minlength=order.size)
    return np.cumsum(good), np.cumsum(cross), np.cumsum(inc)


def sweep(g: WeightedGraph, key, sides=EVEN,
          size=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The prefix sweep of g's vertices by key.

    Returns (order, good, cross, inc, vol): order is the first size
    vertices (all when None) by key, descending, ties by smaller id; good,
    cross and inc are prefix_cut_metrics of classifying them in turn, vertex
    v to sides[v] (one side for all when sides is a scalar); vol[k] is the
    weighted degree of order[:k+1].
    """
    order = np.lexsort((np.arange(g.n), -np.asarray(key)))[:size]
    good, cross, inc = prefix_cut_metrics(g, order, np.broadcast_to(sides, g.n)[order])
    return order, good, cross, inc, np.cumsum(g.degrees[order])


def orient(g: WeightedGraph, group, sides, side, placed) -> np.ndarray:
    """The sides (one per vertex of group), or their negation when that cuts
    more weight to the group's placed neighbours; a tie keeps them.

    side labels the neighbours, and placed maps neighbour ids to a mask of
    those that count.  Both are read on the group's rows only, so a call
    costs O(sum of the group's degrees), however large the graph.
    """
    src, nbr, wt = _rows(g, group)
    counted = placed(nbr)
    differs = side[nbr] != sides[src]
    return -sides if wt[counted & ~differs].sum() > wt[counted & differs].sum() else sides


def _crossing(g: WeightedGraph, inside: np.ndarray) -> float:
    """Weight of the edges leaving the vertex mask inside."""
    _, nbr, wt = _rows(g, np.flatnonzero(inside))
    return float(wt[~inside[nbr]].sum())


def conductance(g: WeightedGraph, S) -> float:
    """Crossing weight of (S, V-S) over the smaller lazy volume.

    The lazy volume 2*vol accounts for the walk's virtual self-loops.
    """
    inside = np.zeros(g.n, dtype=bool)
    inside[_as_index_array(S, g.n)] = True
    if not inside.any() or inside.all():
        raise InvalidInputError("S must be a nonempty proper subset")
    vol_s = 2.0 * float(g.degrees[inside].sum())
    vol_rest = 2.0 * g.total_weight - vol_s
    denom = min(vol_s, vol_rest)
    if denom <= 0.0:
        return 0.0
    return _crossing(g, inside) / denom


def cut_value(g: WeightedGraph, left) -> float:
    """Fraction of total edge weight crossing (left, complement)."""
    if g.total_weight == 0.0:
        return 0.0
    inside = np.zeros(g.n, dtype=bool)
    inside[_as_index_array(left, g.n)] = True
    return _crossing(g, inside) / g.edge_weight_total()


def sample_vertex_by_degree(g: WeightedGraph, rng: np.random.Generator) -> int:
    """Sample a vertex with probability proportional to its weighted degree."""
    if g.total_weight <= 0.0:
        raise InvalidInputError("graph has no edges to sample from")
    cum = np.cumsum(g.degrees)
    r = rng.random() * g.total_weight
    v = int(np.searchsorted(cum, r, side="right"))
    return min(v, g.n - 1)


# -- tripartition -----------------------------------------------------------


class Tripartition:
    """Evolving Even/Odd/Unclassified labelling with incremental cut metrics.

    A vertex, once classified, may never change side; attempts raise
    InvalidInputError.  good/cross/inc are maintained by one prefix sweep
    per classify call, in O(sum of the degrees of the vertices classified).
    """

    __slots__ = ("graph", "side", "good", "cross", "inc", "classified_volume",
                 "classified_count")

    def __init__(self, graph: WeightedGraph):
        self.graph = graph
        self.side = np.zeros(graph.n, dtype=np.int8)
        self.good = 0.0
        self.cross = 0.0
        self.inc = 0.0
        self.classified_volume = 0.0
        self.classified_count = 0

    def classify(self, vertices, side) -> None:
        """Classify one vertex or an array of vertices onto side.

        side is EVEN or ODD, for all of them or one per vertex.
        """
        g = self.graph
        vs = _as_index_array(np.atleast_1d(vertices), g.n)
        sides = np.broadcast_to(np.asarray(side), vs.shape)
        wrong = (sides != EVEN) & (sides != ODD)
        if wrong.any():
            raise InvalidInputError(f"side must be EVEN or ODD, got {sides[wrong][0]}")
        taken = self.side[vs] != UNCLASSIFIED
        if taken.any():
            raise InvalidInputError(f"vertex {vs[taken][0]} already classified")
        twice = np.flatnonzero(np.bincount(vs) > 1)
        if twice.size:
            raise InvalidInputError(f"vertex {twice[0]} classified twice")
        if vs.size == 0:
            return
        good, cross, inc = prefix_cut_metrics(g, vs, sides, self.side)
        self.good += float(good[-1])
        self.cross += float(cross[-1])
        self.inc += float(inc[-1])
        self.side[vs] = sides
        self.classified_volume += float(g.degrees[vs].sum())
        self.classified_count += int(vs.size)

    @property
    def cut(self) -> float:
        return self.good + self.cross / 2.0

    def even_vertices(self) -> np.ndarray:
        return np.nonzero(self.side == EVEN)[0]

    def odd_vertices(self) -> np.ndarray:
        return np.nonzero(self.side == ODD)[0]

    def unclassified_vertices(self) -> np.ndarray:
        return np.nonzero(self.side == UNCLASSIFIED)[0]
