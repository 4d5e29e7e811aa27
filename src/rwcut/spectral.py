"""Matrix-free normalized-Laplacian operations and Trevisan's spectral
partition, the quality baseline for the walk-based solvers.

Accuracy is preferred over speed: the power method runs a generous fixed
iteration count and the threshold search in sweep cuts is exhaustive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .graph import EVEN, ODD, UNCLASSIFIED, WeightedGraph, orient, sweep
from .walks import check_seed

DEFAULT_POWER_ITER_FACTOR = 8


class LaplacianOperator:
    """Applies x -> x - D^{-1/2} A D^{-1/2} x without materializing L.

    Degree-0 coordinates are fixed points (their D^{-1/2} entries are taken
    as 0, so L acts as the identity there minus nothing).
    """

    def __init__(self, graph: WeightedGraph):
        self.graph = graph
        d = graph.degrees
        self.dinv_sqrt = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)

    def apply(self, x: np.ndarray) -> np.ndarray:
        A = self.graph.adjacency_csr()
        return x - self.dinv_sqrt * (A @ (self.dinv_sqrt * x))

    def stationary_direction(self) -> np.ndarray:
        """D^{1/2} * all-ones, the eigenvalue-0 direction."""
        return np.sqrt(self.graph.degrees)


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
    if not np.isfinite(y).all():
        raise InvalidInputError("score vector has a non-finite entry")
    absy = np.abs(y)
    if not np.any(absy > 0.0):
        raise DegenerateInputError("score vector is identically zero")
    order, good, cross, inc, vol = sweep(g, absy, np.where(y > 0, EVEN, ODD),
                                         np.count_nonzero(absy))
    t = absy[order]
    # Thresholds are the tie-group ends; keys are distinct because t is.
    ends = np.flatnonzero(np.append(t[1:] != t[:-1], True))
    cut = good[ends] + cross[ends] / 2.0
    ratio = np.divide(cut, inc[ends], out=np.zeros(ends.size), where=inc[ends] > 0.0)
    best = int(np.lexsort((-t[ends], vol[ends], ratio))[-1])
    chosen = order[: ends[best] + 1]
    return SweepCut(positive=frozenset(chosen[y[chosen] > 0].tolist()),
                    negative=frozenset(chosen[y[chosen] < 0].tolist()),
                    threshold=float(t[ends[best]]), ratio=float(ratio[best]))


def _power_top_vector(op: LaplacianOperator, rng: np.random.Generator,
                      iters: int) -> np.ndarray:
    n = op.graph.n
    u = op.stationary_direction()
    un = float(np.dot(u, u))
    x = rng.standard_normal(n)
    if un > 0.0:
        x -= (np.dot(x, u) / un) * u
    for _ in range(iters):
        x = op.apply(x)
        nrm = float(np.linalg.norm(x))
        if nrm < 1e-300:
            x = rng.standard_normal(n)
            if un > 0.0:
                x -= (np.dot(x, u) / un) * u
            continue
        x /= nrm
    return x


def trevisan_baseline(g: WeightedGraph, seed: int = 0) -> frozenset:
    """Level-by-level spectral partition used as a quality baseline.

    Each level approximates the top eigenvector of the normalized Laplacian
    by the power method (DEFAULT_POWER_ITER_FACTOR * ceil(log2 n) iterations
    from a random start deflated against the stationary direction), takes
    the best sweep-cut tripartition of D^{-1/2} x, commits the side
    assignment that cuts more weight against already-placed vertices, and
    hands the unclassified remainder to the next level.  When the sweep
    ratio drops to 1/2 the remainder is split greedily.
    """
    from .bench import greedy_cut

    check_seed(seed)
    rng = np.random.default_rng(seed)
    side = np.zeros(g.n, dtype=np.int8)
    ids = np.arange(g.n)
    while ids.size:
        sub, ids = g.induced(ids)
        if sub.total_weight == 0.0:
            side[ids] = EVEN
            break
        iters = DEFAULT_POWER_ITER_FACTOR * max(1, math.ceil(math.log2(max(sub.n, 2))))
        op = LaplacianOperator(sub)
        y = op.dinv_sqrt * _power_top_vector(op, rng, iters)
        if not np.any(np.abs(y) > 0.0):
            side[ids] = EVEN
            break
        sweep = sweep_cut_best(sub, y)
        if sweep.ratio <= 0.5:  # the greedy split places the whole remainder
            pos = greedy_cut(sub)
            neg = frozenset(range(sub.n)) - pos
        else:
            pos, neg = sweep.positive, sweep.negative
        group = ids[sorted(pos) + sorted(neg)]
        sides = np.repeat(np.array([EVEN, ODD], dtype=np.int8), [len(pos), len(neg)])
        side[group] = orient(g, group, sides, side, lambda nbr: side[nbr] != UNCLASSIFIED)
        ids = np.setdiff1d(ids, group, assume_unique=True)
    return frozenset(np.flatnonzero(side == EVEN).tolist())
