"""Threshold classification via parity-signed walk estimates.

Scalar formulas live in AlgoParams; the classification step marks a vertex
Even when its signed estimate clears the threshold and Odd when it clears
the negated threshold; the search loop descends a geometric threshold
schedule, topping up a shared walk pool, until the tripartition passes the
quality and volume tests or the schedule/step budget runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidParamsError
from .graph import EVEN, ODD, Tripartition, UNCLASSIFIED, WeightedGraph
from .walks import WalkAccumulator, WalkTally, signed_estimates

SIGMA0 = 0.22815


def sigma_fn(eps: float, mu: float) -> float:
    """Uncut-fraction surrogate 1 - (1-eps)^(1 + 1/mu), clamped to [0, 1]."""
    if mu <= 0.0:
        raise InvalidParamsError("mu must be positive")
    if eps < 0.0:
        raise InvalidParamsError("eps must be nonnegative")
    if eps >= 1.0:
        return 1.0
    return 1.0 - (1.0 - eps) ** (1.0 + 1.0 / mu)


def soto_fn(sigma: float) -> float:
    """Piecewise lower bound on the cut/incident ratio of a good tripartition.

    Exceeds 1/2 exactly when sigma < 1/3; the three branches agree at the
    seams sigma = SIGMA0 and sigma = 1/3.
    """
    if sigma < 0.0 or sigma > 1.0:
        raise InvalidParamsError("sigma must lie in [0, 1]")
    if sigma > 1.0 / 3.0:
        return 0.5
    if sigma > SIGMA0:
        return (-1.0 + math.sqrt(4.0 * sigma * sigma - 8.0 * sigma + 5.0)) / (
            2.0 * (1.0 - sigma)
        )
    return 1.0 / (1.0 + 2.0 * math.sqrt(sigma * (1.0 - sigma)))


def walk_count(t: float, alpha: float, n: int, kappa: float = 8.0) -> int:
    """ceil(kappa * ln(n) * max(alpha, t) / t^2) walks for threshold t."""
    if t <= 0.0:
        raise InvalidInputError("threshold must be positive")
    if not (0.0 < alpha <= 1.0):
        raise InvalidParamsError("alpha must lie in (0, 1]")
    if n < 2:
        raise InvalidParamsError("n must be at least 2")
    return int(math.ceil(kappa * math.log(n) * max(alpha, t) / (t * t)))


@dataclass
class AlgoParams:
    """All scalar knobs of the threshold machinery plus derived quantities.

    eps: assumed maxcut deficit; mu: runtime exponent knob; delta, gamma:
    slack constants; kappa: walk-count constant; alpha: certified bound on
    max_j p_j / d_j (1 when uncertified).  Derived on construction:
    eps_prime = -ln(1-eps), the walk length ell, and sigma.

    step_budget caps the sampled walk-steps one threshold search may spend;
    the search reports failure once the schedule would exceed it.
    """

    eps: float
    mu: float
    m: float
    delta: float = 0.05
    gamma: float = 0.05
    kappa: float = 8.0
    alpha: float = 1.0
    c_vol: float = 1.0
    step_budget: int = 2_000_000
    length_cap: int = 200
    eps_prime: float = field(init=False)
    ell: int = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self):
        if not (0.0 <= self.eps < 1.0):
            raise InvalidParamsError("eps must lie in [0, 1)")
        if self.mu <= 0.0:
            raise InvalidParamsError("mu must be positive")
        if self.m <= 0.0:
            raise InvalidParamsError("graph must have positive total weight")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidParamsError("gamma must lie in (0, 1)")
        if self.delta <= 0.0:
            raise InvalidParamsError("delta must be positive")
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidParamsError("alpha must lie in (0, 1]")
        self.eps_prime = -math.log1p(-self.eps)
        raw = self.mu * math.log(4.0 * self.m / self.delta**2) / (
            2.0 * (self.delta + self.eps_prime)
        )
        self.ell = max(1, min(int(math.ceil(raw)), self.length_cap))
        self.sigma = sigma_fn(self.eps, self.mu)

    @classmethod
    def for_graph(cls, g: WeightedGraph, eps: float, mu: float, **kwargs) -> "AlgoParams":
        return cls(eps=eps, mu=mu, m=g.total_weight, **kwargs)


def threshold_classify(
    g: WeightedGraph, t: float, tally: WalkTally, part: Tripartition
) -> Tripartition:
    """Move unclassified vertices whose signed estimate clears +-t.

    Estimates above t go Even, below -t go Odd; everything else, and every
    previously classified vertex, is untouched.  Idempotent for a fixed
    tally and threshold.
    """
    if t <= 0.0:
        raise InvalidInputError("threshold must be positive")
    est = signed_estimates(tally, g)
    free = part.side == UNCLASSIFIED
    even = np.flatnonzero(free & (est > t))
    odd = np.flatnonzero(free & (est < -t))
    part.classify(np.concatenate((even, odd)),
                  np.repeat([EVEN, ODD], [even.size, odd.size]))
    return part


@dataclass
class FindResult:
    """Outcome of one threshold search; part is None on failure."""

    part: Tripartition | None
    threshold: float | None
    rounds: int
    walks: int
    steps: int

    @property
    def success(self) -> bool:
        return self.part is not None


def find_threshold(
    g: WeightedGraph, start: int, params: AlgoParams, seed: int,
    threads: int = 1,
) -> FindResult:
    """Descend thresholds t_r = (1-gamma)^r looking for a good tripartition.

    At each round the shared walk pool is topped up to walk_count(t_r) and
    classification re-runs; success requires cut >= soto(sigma) * inc
    together with classified volume at least c_vol / (t_r^2 m^{1+mu} ln n).
    Returns a failed result after the last threshold, or earlier if the
    next round would exceed the step budget.
    """
    if g.total_weight <= 0.0:
        raise InvalidInputError("graph has no edges")
    m = g.total_weight
    quality_floor = soto_fn(params.sigma)
    acc = WalkAccumulator(g, start, params.ell, seed, threads=threads)
    part = Tripartition(g)
    t_min = params.gamma / m ** (1.0 + params.mu / 2.0)
    log_n = math.log(max(g.n, 2))
    r = 0
    t = 1.0
    while t >= t_min:
        needed = walk_count(t, params.alpha, max(g.n, 2), params.kappa)
        if acc.steps_sampled + acc.projected_steps(needed) > params.step_budget:
            break
        acc.extend_to(needed)
        threshold_classify(g, t, acc.tally(), part)
        vol_floor = params.c_vol / (t * t * m ** (1.0 + params.mu) * log_n)
        if (
            part.classified_count > 0
            and part.cut >= quality_floor * part.inc
            and part.classified_volume >= vol_floor
        ):
            return FindResult(
                part=part,
                threshold=t,
                rounds=r + 1,
                walks=acc.walks,
                steps=acc.steps_sampled,
            )
        r += 1
        t = (1.0 - params.gamma) ** r
    return FindResult(part=None, threshold=None, rounds=r, walks=acc.walks,
                      steps=acc.steps_sampled)
