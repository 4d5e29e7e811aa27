"""Local partitioning: probability-ordered sweeps that either expose a low
conductance cut near a start vertex or certify that the walk has spread out.

The certification logic is validated in tests against the concave
volume-vs-mass curve of the exact walk distribution (built here as well),
via the chord inequality that drives its flattening argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParamsError
from .graph import EVEN, WeightedGraph, conductance, prefix_cut_metrics
from .walks import WalkConfig, lazy_step, run_walks

PSI_MAX = 0.125  # inclusive; phi stays below 1/2 with room to spare


def solve_phi(psi: float, tol: float = 1e-12) -> float:
    """Invert -ln((sqrt(1-2*phi) + sqrt(1+2*phi)) / 2) = psi by bisection."""
    if not (0.0 <= psi <= PSI_MAX):
        raise InvalidInputError(f"psi must lie in [0, {PSI_MAX}]")
    if psi == 0.0:
        return 0.0

    def f(phi: float) -> float:
        return -math.log(0.5 * (math.sqrt(1.0 - 2.0 * phi) + math.sqrt(1.0 + 2.0 * phi)))

    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < psi:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    vol2 = 2.0 * g.degrees
    ratio = np.where(vol2 > 0.0, p / np.where(vol2 > 0.0, vol2, 1.0), np.inf)
    ratio = np.where((vol2 <= 0.0) & (p <= 0.0), 0.0, ratio)
    order = np.lexsort((np.arange(g.n), -ratio))
    xs = np.concatenate(([0.0], np.cumsum(vol2[order])))
    ys = np.concatenate(([0.0], np.cumsum(p[order])))
    # collapse duplicate abscissae (degree-0 vertices), keeping the top mass
    keep = np.ones(xs.size, dtype=bool)
    keep[:-1] = np.diff(xs) > 0.0
    return LSCurve(x=xs[keep], y=ys[keep])


def ls_chord_check(
    g: WeightedGraph, p_prev: np.ndarray, S, slack: float = 1e-9
) -> bool:
    """Verify the chord inequality for one exact lazy step from p_prev.

    With x = lazy volume of S and xh = min(x, 2m - x), checks
    p_next(S) <= (curve(x - 2*phi_S*xh) + curve(x + 2*phi_S*xh)) / 2.
    Test-only oracle; a failure indicates an implementation bug.
    """
    idx = np.fromiter((int(v) for v in S), dtype=np.int64)
    p_next = lazy_step(g, np.asarray(p_prev, dtype=float))
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
    return lhs <= rhs + slack


@dataclass(frozen=True)
class LowConductanceCut:
    vertices: frozenset
    conductance: float
    length: int
    prefix_size: int
    phi: float
    walks: int


@dataclass(frozen=True)
class ProbabilityBound:
    alpha_bound: float
    alpha: float
    phi: float
    walks: int
    length: int


CutOrBoundResult = LowConductanceCut | ProbabilityBound


def cut_or_bound(
    g: WeightedGraph,
    start: int,
    tau: float,
    zeta: float,
    seed: int,
    threads: int = 1,
    max_walk_steps: int | None = None,
) -> CutOrBoundResult:
    """Find a low conductance cut near start or certify spread-out walks.

    With alpha = m^-tau and walk length ceil(ln m / zeta), runs enough
    walks to resolve probabilities near alpha, then for every intermediate
    length sweeps prefixes of the empirical count/degree ordering (padded
    with zero-count vertices) for a prefix of conductance below phi, where
    phi solves the chord-decay equation at psi = zeta * tau.  If no sweep
    finds one, declares max_j p_j / (2 d_j) <= 256 * alpha, p being the
    exact final-length distribution.
    """
    if g.total_weight <= 0.0:
        raise InvalidInputError("graph has no edges")
    if not (0.0 <= tau < 1.0):
        raise InvalidParamsError("tau must lie in [0, 1)")
    if zeta <= 0.0:
        raise InvalidParamsError("zeta must be positive")
    psi = zeta * tau
    if psi > PSI_MAX:
        raise InvalidParamsError(f"zeta * tau = {psi:g} exceeds {PSI_MAX}")
    m = g.total_weight
    alpha = m**-tau
    ell = max(1, int(math.ceil(math.log(m) / zeta)))
    phi = solve_phi(psi)
    w = int(math.ceil(30.0 * ell * ell * math.log(max(g.n, 2)) / alpha))
    if max_walk_steps is not None:
        # Desk-scale cap: weakens the bound declaration's confidence but
        # never the recomputed soundness of a returned cut.
        w = max(1, min(w, max_walk_steps // max(ell, 1)))
    b = int(math.ceil(ell / (2.0 * (1.0 - 2.0 * phi) * alpha)))
    cfg = WalkConfig(length=ell, walks=w, record_per_length=True, seed=seed)
    tally = run_walks(g, start, cfg, threads=threads)
    two_m = 2.0 * m
    for l in range(ell + 1):
        ev, od = tally.counts_at(l)
        counts = ev + od
        ratio = np.where(g.degrees > 0.0,
                         counts / np.where(g.degrees > 0.0, g.degrees, 1.0),
                         np.where(counts > 0, np.inf, 0.0))
        # Reached vertices have ratio > 0, so the zero-count padding comes
        # last, lowest ids first.
        candidates = np.lexsort((np.arange(g.n), -ratio))[: min(b, g.n)]
        _, crossing, _ = prefix_cut_metrics(g, candidates, EVEN)
        vol2 = np.cumsum(2.0 * g.degrees[candidates])
        denom = np.minimum(vol2, two_m - vol2)
        cond = np.divide(crossing, denom, out=np.full(denom.size, np.inf),
                         where=denom > 0.0)
        hits = np.flatnonzero(cond < phi)
        if hits.size:
            k = int(hits[0]) + 1
            return LowConductanceCut(
                vertices=frozenset(candidates[:k].tolist()),
                conductance=float(cond[k - 1]),
                length=l,
                prefix_size=k,
                phi=phi,
                walks=w,
            )
    return ProbabilityBound(
        alpha_bound=256.0 * alpha, alpha=alpha, phi=phi, walks=w, length=ell
    )
