"""Reference implementations that the tests compare the library against.

None of these runs in the library.  Each keeps the float operations it had
where tests pin bit-identical results: threshold._first_passes computes its
estimates as signed_estimates does, and solver.h_values computes H as
h_scalar does.
"""

import math
from dataclasses import dataclass

import numpy as np

from rwcut.errors import InvalidInputError
from rwcut.graph import EVEN, ODD, UNCLASSIFIED, WeightedGraph, _as_index_array, _rows, conductance
from rwcut.solver import _GL_NODES, _GL_WEIGHTS, _PIECE_MAX
from rwcut.spectral import LaplacianOperator
from rwcut.threshold import SIGMA0, sigma_fn, sigma_inv, soto_fn
from rwcut.walks import WalkTally, exact_walk_distribution


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


@dataclass(frozen=True)
class LSCurve:
    """Piecewise-linear concave curve from cumulative lazy volume to mass."""

    x: np.ndarray
    y: np.ndarray

    def __call__(self, q) -> np.ndarray | float:
        return np.interp(q, self.x, self.y)


def build_ls_curve(g: WeightedGraph, p: np.ndarray) -> LSCurve:
    """Curve through the cumulative (lazy volume, mass) points of the
    degree-normalized ordering of p; concave by construction."""
    p = np.asarray(p, dtype=float)
    if p.shape != (g.n,):
        raise InvalidInputError("probability vector has wrong shape")
    if np.any(p < -1e-15):
        raise InvalidInputError("probability vector has negative entries")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise InvalidInputError("probability vector must sum to 1")
    # By p / d, descending, ties by smaller id: also the order of p / (2d),
    # as halving is exact.  A degree-0 vertex comes first when it has mass.
    d = g.degrees
    ratio = np.where(d > 0.0, p / np.where(d > 0.0, d, 1.0), np.where(p > 0, np.inf, 0.0))
    order = np.lexsort((np.arange(g.n), -ratio))
    xs = np.concatenate(([0.0], np.cumsum(2.0 * g.degrees[order])))
    ys = np.concatenate(([0.0], np.cumsum(p[order])))
    # collapse duplicate abscissae (degree-0 vertices), keeping the top mass
    keep = np.ones(xs.size, dtype=bool)
    keep[:-1] = np.diff(xs) > 0.0
    return LSCurve(x=xs[keep], y=ys[keep])


def ls_chord_check(g: WeightedGraph, start: int, l: int, S) -> bool:
    """Verify the chord inequality for the exact lazy step from p_{l-1} to
    p_l, the walk distributions from start.

    With x = lazy volume of S and xh = min(x, 2m - x), checks
    p_l(S) <= (curve(x - 2*phi_S*xh) + curve(x + 2*phi_S*xh)) / 2, curve
    being p_{l-1}'s.  A failure indicates an implementation bug.
    """
    idx = np.fromiter((int(v) for v in S), dtype=np.int64)
    p_prev, _ = exact_walk_distribution(g, start, l - 1)
    p_next, _ = exact_walk_distribution(g, start, l)
    lhs = float(p_next[idx].sum()) if idx.size else 0.0
    curve = build_ls_curve(g, p_prev)
    two_m = 2.0 * g.total_weight
    x = 2.0 * float(g.degrees[idx].sum()) if idx.size else 0.0
    xh = min(x, two_m - x)
    if idx.size == 0 or idx.size == g.n:
        phi = 0.0
    else:
        phi = conductance(g, idx)
    rhs = 0.5 * (curve(x - 2.0 * phi * xh) + curve(x + 2.0 * phi * xh))
    return lhs <= rhs + 1e-9


def signed_estimates(tally: WalkTally, g: WeightedGraph) -> np.ndarray:
    """(even - odd) endpoint count at each vertex j over (d_j * walks); 0
    where d_j = 0."""
    ev, od = tally.counts_at(tally.length)
    out = np.zeros(g.n)
    mask = g.degrees > 0.0
    out[mask] = (ev[mask] - od[mask]) / (g.degrees[mask] * tally.walks)
    return out


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


def h_scalar(eps: float, mu: float) -> float:
    """H(eps, mu) one deficit at a time, through the scalar sigma_fn and
    soto_fn: the 16-point Gauss-Legendre rule in ln z on each side of the
    integrand's kink, each side split into equal pieces at most _PIECE_MAX
    wide.  Every deficit the tradeoff curve uses has both sides narrower, so
    each side is one piece there."""
    if eps == 0.0:
        return 1.0
    root = sigma_inv(1.0 / 3.0, mu)
    zs = eps / root if eps < root else 1.0
    if zs >= 1.0:
        return 0.5
    kink = eps / sigma_inv(SIGMA0, mu)
    ends = [zs, kink, 1.0] if zs < kink < 1.0 else [zs, 1.0]
    integral = 0.0
    for lo, hi in zip(ends, ends[1:]):
        a, b = math.log(lo), math.log(hi)
        n = math.ceil((b - a) / _PIECE_MAX)
        cuts = [a + (b - a) * k / n for k in range(n)] + [b]
        for start, end in zip(cuts, cuts[1:]):
            half, mid = (end - start) / 2.0, (end + start) / 2.0
            total = 0.0
            for x, w in zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()):
                z = math.exp(mid + half * x)
                total += w * z * soto_fn(sigma_fn(min(eps / z, 1.0), mu))
            integral += half * total
    return zs / 2.0 + integral
