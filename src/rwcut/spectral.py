"""Matrix-free normalized-Laplacian operations and the spectral baseline.

Everything here is an oracle for validating the walk-based algorithms, so
accuracy is preferred over speed: the power method runs a generous fixed
iteration count and the threshold search in sweep cuts is exhaustive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .graph import EVEN, ODD, WeightedGraph, _rows, prefix_cut_metrics

DEFAULT_POWER_ITER_FACTOR = 8


class LaplacianOperator:
    """Applies x -> x - D^{-1/2} A D^{-1/2} x without materializing L.

    Degree-0 coordinates are fixed points (their D^{-1/2} entries are taken
    as 0, so L acts as the identity there minus nothing).
    """

    def __init__(self, graph: WeightedGraph):
        self.graph = graph
        d = graph.degrees
        self._dinv_sqrt = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)

    def apply(self, x: np.ndarray) -> np.ndarray:
        A = self.graph.adjacency_csr()
        return x - self._dinv_sqrt * (A @ (self._dinv_sqrt * x))

    def stationary_direction(self) -> np.ndarray:
        """D^{1/2} * all-ones, the eigenvalue-0 direction."""
        return np.sqrt(self.graph.degrees)


def power_laplacian_vector(g: WeightedGraph, start: int, length: int) -> np.ndarray:
    """Return (1/2^length) L^length (e_start / sqrt(d_start))."""
    if not (0 <= start < g.n):
        raise InvalidInputError(f"start vertex {start} out of range")
    if g.degrees[start] <= 0.0:
        raise InvalidInputError("start vertex must have positive degree")
    op = LaplacianOperator(g)
    v = np.zeros(g.n)
    v[start] = 1.0 / math.sqrt(g.degrees[start])
    for _ in range(length):
        v = 0.5 * op.apply(v)
    return v


def rayleigh_quotient(op: LaplacianOperator, x: np.ndarray) -> float:
    """x^T L x / x^T x, always in [0, 2]."""
    nrm2 = float(np.dot(x, x))
    if nrm2 <= 0.0:
        raise InvalidInputError("Rayleigh quotient of the zero vector")
    return float(np.dot(x, op.apply(x))) / nrm2


@dataclass(frozen=True)
class SweepCut:
    positive: frozenset
    negative: frozenset
    threshold: float
    ratio: float


def sweep_cut_best(g: WeightedGraph, y: np.ndarray) -> SweepCut:
    """Best tripartition over thresholds t in the distinct positive |y(j)|.

    For threshold t, vertices with y(j) >= t go positive and y(j) <= -t go
    negative.  Returns the threshold maximizing cut/inc; ties prefer larger
    classified volume, then smaller t.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (g.n,):
        raise InvalidInputError("score vector has wrong shape")
    absy = np.abs(y)
    if not np.any(absy > 0.0):
        raise DegenerateInputError("score vector is identically zero")
    order = np.lexsort((np.arange(g.n), -absy))
    order = order[absy[order] > 0.0]
    t = absy[order]
    good, cross, inc = prefix_cut_metrics(g, order, np.where(y[order] > 0, EVEN, ODD))
    # Thresholds are the tie-group ends; keys are distinct because t is.
    ends = np.flatnonzero(np.append(t[1:] != t[:-1], True))
    cut = good[ends] + cross[ends] / 2.0
    ratio = np.divide(cut, inc[ends], out=np.zeros(ends.size), where=inc[ends] > 0.0)
    vol = np.cumsum(g.degrees[order])[ends]
    best = int(np.lexsort((-t[ends], vol, ratio))[-1])
    chosen = order[: ends[best] + 1]
    return SweepCut(positive=frozenset(chosen[y[chosen] > 0].tolist()),
                    negative=frozenset(chosen[y[chosen] < 0].tolist()),
                    threshold=float(t[ends[best]]), ratio=float(ratio[best]))


def _orientation_gain(g: WeightedGraph, group_pos, group_neg, side: np.ndarray) -> float:
    """Weight cut against already-placed vertices if group_pos joins Left."""
    gain = 0.0
    for group, against in ((group_pos, ODD), (group_neg, EVEN)):
        _, nbr, wt = _rows(g, group)
        gain += float(wt[side[nbr] == against].sum())
    return gain


def _power_top_vector(g: WeightedGraph, rng: np.random.Generator, iters: int) -> np.ndarray:
    op = LaplacianOperator(g)
    u = op.stationary_direction()
    un = float(np.dot(u, u))
    x = rng.standard_normal(g.n)
    if un > 0.0:
        x -= (np.dot(x, u) / un) * u
    for _ in range(iters):
        x = op.apply(x)
        nrm = float(np.linalg.norm(x))
        if nrm < 1e-300:
            x = rng.standard_normal(g.n)
            if un > 0.0:
                x -= (np.dot(x, u) / un) * u
            continue
        x /= nrm
    return x


def trevisan_baseline(
    g: WeightedGraph, power_iters: int | None = None, seed: int = 0
) -> frozenset:
    """Recursive spectral partition used as a quality baseline.

    Each level approximates the top eigenvector of the normalized Laplacian
    by the power method (random start deflated against the stationary
    direction), takes the best sweep-cut tripartition of D^{-1/2} x, commits
    the side assignment that cuts more weight against already-placed
    vertices, and recurses on the unclassified remainder.  When the sweep
    ratio drops to 1/2 the remainder is split greedily.
    """
    rng = np.random.default_rng(seed)
    side = np.zeros(g.n, dtype=np.int8)
    _trevisan_recurse(g, np.arange(g.n), side, rng, power_iters, g)
    return frozenset(int(v) for v in np.nonzero(side == EVEN)[0])


def _trevisan_recurse(
    g: WeightedGraph,
    vertices: np.ndarray,
    side: np.ndarray,
    rng: np.random.Generator,
    power_iters: int | None,
    root: WeightedGraph,
) -> None:
    from .bench import greedy_cut

    if vertices.size == 0:
        return
    sub, ids = g.induced(vertices)
    if sub.total_weight == 0.0:
        side[ids] = EVEN
        return
    iters = power_iters
    if iters is None:
        iters = DEFAULT_POWER_ITER_FACTOR * max(1, math.ceil(math.log2(max(sub.n, 2))))
    x = _power_top_vector(sub, rng, iters)
    dinv_sqrt = np.where(sub.degrees > 0.0,
                         1.0 / np.sqrt(np.where(sub.degrees > 0.0, sub.degrees, 1.0)),
                         0.0)
    y = dinv_sqrt * x
    if not np.any(np.abs(y) > 0.0):
        side[ids] = EVEN
        return
    sweep = sweep_cut_best(sub, y)
    if sweep.ratio <= 0.5:
        left_local = greedy_cut(sub)
        pos = ids[sorted(left_local)]
        neg = ids[sorted(set(range(sub.n)) - set(left_local))]
        _commit_oriented(root, pos, neg, side)
        return
    pos = ids[sorted(sweep.positive)]
    neg = ids[sorted(sweep.negative)]
    _commit_oriented(root, pos, neg, side)
    remaining = ids[[v for v in range(sub.n)
                     if v not in sweep.positive and v not in sweep.negative]]
    _trevisan_recurse(g, remaining, side, rng, power_iters, root)


def _commit_oriented(root, pos, neg, side) -> None:
    straight = _orientation_gain(root, pos, neg, side)
    flipped = _orientation_gain(root, neg, pos, side)
    if flipped > straight:
        pos, neg = neg, pos
    side[np.asarray(pos, dtype=np.int64)] = EVEN
    side[np.asarray(neg, dtype=np.int64)] = ODD

