"""Local partitioning: probability-ordered sweeps that either expose a low
conductance cut near a start vertex or certify that the walk has spread out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParamsError, ResourceError
from .graph import WeightedGraph, sweep
from .threshold import check_step_budget
from .walks import LENGTH_CAP, WalkConfig, check_seed, per_length_counts

PSI_MAX = 0.125  # inclusive; phi stays below 1/2 with room to spare


def solve_phi(psi: float) -> float:
    """Invert -ln((sqrt(1-2*phi) + sqrt(1+2*phi)) / 2) = psi in closed form.

    Squaring gives sqrt(1 - 4 phi^2) = 2 e^(-2 psi) - 1, so phi = c sqrt(1 - c^2)
    with c = e^(-psi).
    """
    if not (0.0 <= psi <= PSI_MAX):
        raise InvalidInputError(f"psi must lie in [0, {PSI_MAX}]")
    return math.exp(-psi) * math.sqrt(-math.expm1(-2.0 * psi))


@dataclass(frozen=True)
class LowConductanceCut:
    vertices: frozenset
    conductance: float
    length: int
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


def _mass_key(g: WeightedGraph, mass: np.ndarray) -> np.ndarray:
    """mass / degree, the sweep key of cut_or_bound.  A degree-0 vertex
    comes first when it has mass and last when not."""
    d = g.degrees
    return np.where(d > 0.0, mass / np.where(d > 0.0, d, 1.0),
                    np.where(mass > 0, np.inf, 0.0))


def cut_or_bound(
    g: WeightedGraph,
    start: int,
    tau: float,
    zeta: float,
    seed: int,
    max_walk_steps: int | None = None,
) -> CutOrBoundResult:
    """Find a low conductance cut near start or certify spread-out walks.

    With alpha = m^-tau and walk length ceil(ln m / zeta), takes enough
    walks to resolve probabilities near alpha, then for each length from 0
    up sweeps prefixes of the empirical count/degree ordering (padded with
    zero-count vertices, lowest ids first) for a prefix of conductance below
    phi, where phi solves the chord-decay equation at psi = zeta * tau, and
    returns the first such prefix.  The counts come one length at a time
    from ``per_length_counts``: with at most n walks, the walks are simulated
    only as far as the lengths swept so far, so a cut found at a short
    length never draws the longer hops; with more, the dense per-length
    tally is recorded first.  Either way the result is that of sweeping a
    tally of every length.  If no sweep finds a cut, declares
    max_j p_j / (2 d_j) <= alpha_bound, a fixed multiple of alpha, p being
    the exact final-length distribution.
    """
    check_seed(seed)
    if g.total_weight <= 0.0:
        raise InvalidInputError("graph has no edges")
    if not (0.0 <= tau < 1.0):
        raise InvalidParamsError("tau must lie in [0, 1)")
    if not 0.0 < zeta < math.inf:  # also refuses nan
        raise InvalidParamsError("zeta must be positive and finite")
    psi = zeta * tau
    if psi > PSI_MAX:
        raise InvalidParamsError(f"zeta * tau = {psi:g} exceeds {PSI_MAX}")
    if max_walk_steps is not None:
        check_step_budget("max_walk_steps", max_walk_steps)
    m = g.total_weight
    alpha = m**-tau
    length = math.log(m) / zeta
    if length > LENGTH_CAP:  # checked before the walk count can overflow
        raise ResourceError(f"walk length ln(m) / zeta = {length:g} exceeds cap {LENGTH_CAP}")
    ell = max(1, int(math.ceil(length)))
    if max_walk_steps is not None and max_walk_steps < ell:
        raise InvalidParamsError(f"max_walk_steps {max_walk_steps} is below the walk length {ell}")
    phi = solve_phi(psi)
    w = int(math.ceil(30.0 * ell * ell * math.log(max(g.n, 2)) / alpha))
    if max_walk_steps is not None:
        # Desk-scale cap: weakens the bound declaration's confidence but
        # never the recomputed soundness of a returned cut.
        w = min(w, max_walk_steps // ell)
    b = int(math.ceil(ell / (2.0 * (1.0 - 2.0 * phi) * alpha)))
    cfg = WalkConfig(length=ell, walks=w, record_per_length=True, seed=seed)
    two_m = 2.0 * m
    for l, (ev, od) in enumerate(per_length_counts(g, start, cfg)):
        # Reached vertices come first, so the zero-count padding comes last,
        # lowest ids first.
        candidates, _, crossing, _, vol = sweep(g, _mass_key(g, ev + od), size=b)
        vol2 = 2.0 * vol
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
                phi=phi,
                walks=w,
            )
    return ProbabilityBound(
        alpha_bound=256.0 * alpha, alpha=alpha, phi=phi, walks=w, length=ell
    )
