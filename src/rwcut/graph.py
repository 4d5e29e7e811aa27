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

import io
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParseError

EVEN = 1
ODD = -1
UNCLASSIFIED = 0


@dataclass(frozen=True)
class CutMetrics:
    """Edge-weight totals for a disjoint vertex pair (A, B).

    good: weight of edges with one endpoint in A and the other in B.
    cross: weight of edges with exactly one endpoint in A | B.
    inc: weight of edges incident on A | B.
    """

    good: float
    cross: float
    inc: float

    @property
    def cut(self) -> float:
        return self.good + self.cross / 2.0


class WeightedGraph:
    """Immutable weighted undirected graph with a degree index."""

    __slots__ = (
        "n",
        "indptr",
        "nbr",
        "wt",
        "degrees",
        "total_weight",
        "max_degree",
        "_gcum",
        "_row_base",
        "_csr",
    )

    def __init__(self, n: int, indptr, nbr, wt):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.nbr = np.asarray(nbr, dtype=np.int64)
        self.wt = np.asarray(wt, dtype=np.float64)
        # Per-vertex prefix sums, globally offset so one sorted array serves
        # every row during neighbor sampling.
        gcum = np.cumsum(self.wt)
        self._gcum = gcum
        shifted = np.concatenate(([0.0], gcum))
        self.degrees = shifted[self.indptr[1:]] - shifted[self.indptr[:-1]]
        self.total_weight = float(self.degrees.sum())
        self.max_degree = float(self.degrees.max()) if self.n else 0.0
        self._row_base = shifted[self.indptr[:-1]] if self.n else shifted[:0]
        self._csr = None

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
        w = np.array(ws, dtype=np.float64)
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
        # bincount adds in input order from 0.0, like summing parallel edges one
        # by one, so merged weights do not depend on how the pairs are sorted.
        pairs, inverse = np.unique(
            np.stack((np.minimum(u, v), np.maximum(u, v))), axis=1, return_inverse=True
        )
        merged = np.bincount(inverse.reshape(-1), weights=w, minlength=pairs.shape[1])
        rows = np.concatenate((pairs[0], pairs[1]))
        cols = np.concatenate((pairs[1], pairs[0]))
        order = np.lexsort((cols, rows))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        return cls(n, indptr, cols[order], np.concatenate((merged, merged))[order])

    # -- basic access ------------------------------------------------------

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor ids and weights of v as array views."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.nbr[lo:hi], self.wt[lo:hi]

    def edges(self):
        """Iterate over each undirected edge once as (u, v, w) with u < v."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        once = src < self.nbr
        return zip(src[once].tolist(), self.nbr[once].tolist(), self.wt[once].tolist())

    def edge_weight_total(self) -> float:
        """Sum of edge weights (half the total weighted degree)."""
        return self.total_weight / 2.0

    def volume(self, vertices) -> float:
        """Weighted-degree sum over a vertex collection."""
        idx = _as_index_array(vertices, self.n)
        return float(self.degrees[idx].sum())

    def adjacency_csr(self):
        """Adjacency matrix as a cached scipy CSR array."""
        if self._csr is None:
            from scipy.sparse import csr_array

            self._csr = csr_array(
                (self.wt, self.nbr, self.indptr), shape=(self.n, self.n)
            )
        return self._csr

    def induced(self, vertices) -> tuple["WeightedGraph", np.ndarray]:
        """Induced subgraph plus the new-id -> old-id map."""
        ids = np.unique(_as_index_array(vertices, self.n))
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
        idx = np.fromiter((int(v) for v in vertices), dtype=np.int64)
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


# -- I/O --------------------------------------------------------------------


def load_graph(source) -> WeightedGraph:
    """Parse an edge-list stream or path into a WeightedGraph.

    Format: one edge per line, ``u v [w]`` (w defaults to 1.0), '#' starts a
    comment, blank lines are ignored, ids are 0-based.  Parallel edges merge
    by weight summation.  Self-loops and non-positive or non-finite weights
    are rejected.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
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
    """Write the edge list with sorted edges; round-trips through load_graph."""
    own = False
    if hasattr(target, "write"):
        fh = target
    else:
        fh = open(target, "w", encoding="utf-8")
        own = True
    try:
        for u, v, w in g.edges():
            fh.write(f"{u} {v} {w!r}\n")
    finally:
        if own:
            fh.close()


def dumps_graph(g: WeightedGraph) -> str:
    buf = io.StringIO()
    dump_graph(g, buf)
    return buf.getvalue()


def write_partition(left, n: int, target) -> None:
    """Partition file: one ``vertex_id L|R`` line per vertex."""
    left_set = set(int(v) for v in left)
    own = False
    if hasattr(target, "write"):
        fh = target
    else:
        fh = open(target, "w", encoding="utf-8")
        own = True
    try:
        for v in range(n):
            fh.write(f"{v} {'L' if v in left_set else 'R'}\n")
    finally:
        if own:
            fh.close()


def read_partition(source) -> frozenset[int]:
    """Read a partition file back into the set of Left vertices.

    Each vertex may be listed once; a repeated id raises ParseError.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
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
        if v in seen:
            raise ParseError(f"line {lineno}: vertex {v} listed twice")
        seen.add(v)
        if parts[1] == "L":
            left.add(v)
    return frozenset(left)


# -- metrics ----------------------------------------------------------------


def cut_metrics(g: WeightedGraph, A, B) -> CutMetrics:
    """good/cross/inc totals for disjoint vertex sets A and B."""
    a = _as_index_array(A, g.n)
    b = _as_index_array(B, g.n)
    if np.intersect1d(a, b).size:
        raise InvalidInputError("A and B must be disjoint")
    side = np.zeros(g.n, dtype=np.int8)
    side[a] = EVEN
    side[b] = ODD
    members = np.flatnonzero(side)
    src, nbr, wt = _rows(g, members)
    su = side[nbr]
    unclassified = su == UNCLASSIFIED
    cross = float(wt[unclassified].sum())
    inc = cross + float(wt[~unclassified].sum()) / 2.0
    good = float(wt[su == -side[members][src]].sum()) / 2.0
    return CutMetrics(good=good, cross=cross, inc=inc)


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

    def side_of(self, v: int) -> int:
        return int(self.side[v])

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

    def metrics(self) -> CutMetrics:
        return CutMetrics(good=self.good, cross=self.cross, inc=self.inc)

    def even_vertices(self) -> np.ndarray:
        return np.nonzero(self.side == EVEN)[0]

    def odd_vertices(self) -> np.ndarray:
        return np.nonzero(self.side == ODD)[0]

    def unclassified_vertices(self) -> np.ndarray:
        return np.nonzero(self.side == UNCLASSIFIED)[0]
