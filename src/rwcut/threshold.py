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

from .errors import InvalidInputError, InvalidParamsError, ResourceError
from .graph import EVEN, ODD, Tripartition, UNCLASSIFIED, WeightedGraph
from .walks import BLOCK_WALKS, LENGTH_CAP, STEP_CAP, WalkAccumulator, WalkTally, is_int

SIGMA0 = 0.22815
C_VOL = 1.0  # constant of the classified-volume floor
# The paper's fixed constants: DELTA sets the walk length ell, GAMMA the
# ratio of the threshold and deficit schedules, KAPPA the walk count.
DELTA = GAMMA = 0.05
KAPPA = 8.0
STEP_BUDGET = 2_000_000  # default sampled walk-steps per threshold search
# Below ln of the largest float (709.78) by more than a power's rounding.
_LOG_POWER_MAX = 700.0


def sigma_fn(eps: float, mu: float) -> float:
    """Uncut-fraction surrogate 1 - (1-eps)^(1 + 1/mu), clamped to [0, 1];
    through log1p and expm1, so accurate to rounding however small mu is."""
    if not mu > 0.0:  # also refuses nan
        raise InvalidParamsError("mu must be positive")
    if not eps >= 0.0:
        raise InvalidParamsError("eps must be nonnegative")
    if eps >= 1.0:
        return 1.0
    return 0.0 - math.expm1((1.0 + 1.0 / mu) * math.log1p(-eps))  # +0.0 at eps = 0


def sigma_inv(s: float, mu: float) -> float:
    """The eps at which sigma_fn(eps, mu) reaches s: 1 - (1-s)^(mu/(1+mu)),
    through log1p and expm1 like sigma_fn."""
    if not mu > 0.0:
        raise InvalidParamsError("mu must be positive")
    return -math.expm1(mu / (1.0 + mu) * math.log1p(-s))


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


def walk_count(t: float, alpha: float, n: int) -> int:
    """ceil(KAPPA * ln(n) * max(alpha, t) / t^2) walks for threshold t."""
    if t <= 0.0:
        raise InvalidInputError("threshold must be positive")
    if not (0.0 < alpha <= 1.0):
        raise InvalidParamsError("alpha must lie in (0, 1]")
    if n < 2:
        raise InvalidParamsError("n must be at least 2")
    return int(math.ceil(KAPPA * math.log(n) * max(alpha, t) / (t * t)))


def check_step_budget(name: str, budget) -> None:
    """Refuse a walk-step budget that is not an integer from 1 to STEP_CAP."""
    if not is_int(budget, 1):
        raise InvalidParamsError(f"{name} = {budget!r} must be an integer of at least 1")
    if budget > STEP_CAP:
        raise ResourceError(f"{name} = {budget} exceeds cap {STEP_CAP}")


@dataclass
class AlgoParams:
    """The scalar inputs of one threshold search plus derived quantities.

    eps: assumed maxcut deficit; mu: runtime exponent knob; alpha: certified
    bound on max_j p_j / d_j (1 when uncertified).  Derived on construction:
    eps_prime = -ln(1-eps), the walk length ell (from DELTA, at most
    LENGTH_CAP), and sigma.

    step_budget plans one threshold search: it runs the rounds whose
    charges (topup_steps) fit in the budget and reports failure after the
    last, and the walk steps it draws never exceed the budget.
    """

    eps: float
    mu: float
    m: float
    alpha: float = 1.0
    step_budget: int = STEP_BUDGET
    eps_prime: float = field(init=False)
    ell: int = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self):
        if not (0.0 <= self.eps < 1.0):
            raise InvalidParamsError("eps must lie in [0, 1)")
        if not 0.0 < self.mu < math.inf:  # also refuses nan
            raise InvalidParamsError("mu must be positive and finite")
        if not self.m > 0.0:
            raise InvalidParamsError("graph must have positive total weight")
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidParamsError("alpha must lie in (0, 1]")
        check_step_budget("step_budget", self.step_budget)
        self.eps_prime = -math.log1p(-self.eps)
        raw = self.mu * math.log(4.0 * self.m / DELTA**2) / (
            2.0 * (DELTA + self.eps_prime)
        )
        # Clipped before the ceil, since a huge mu makes raw infinite.
        self.ell = math.ceil(min(max(raw, 1.0), LENGTH_CAP))
        self.sigma = sigma_fn(self.eps, self.mu)

    @classmethod
    def for_graph(cls, g: WeightedGraph, eps: float, mu: float, **kwargs) -> "AlgoParams":
        return cls(eps=eps, mu=mu, m=g.total_weight, **kwargs)


def _first_passes(g: WeightedGraph, side: np.ndarray, counts: np.ndarray, cells: np.ndarray,
                  walks: np.ndarray, ts: np.ndarray):
    """The classifications of consecutive rounds, in one pass over the
    vertices the pool's walks reached.  Round r reads the first walks[r]
    walks at threshold ts[r]; counts tallies all walks[-1], and cells are
    the last cells.size of them in walk order.  An unclassified vertex of
    positive degree goes Even (Odd) at the first round its signed estimate
    is above ts[r] (below -ts[r]).  Returns (round, vertex, side) arrays in
    the order of the round-by-round loop: by round, Even first, by vertex.
    """
    parity, vertex = np.divmod(cells, g.n)
    total = counts.reshape(2, g.n)
    live = total.any(axis=0) & (side == UNCLASSIFIED) & (g.degrees > 0.0)
    cols = np.flatnonzero(live)
    slot, keep = np.cumsum(live)[vertex] - 1, live[vertex]  # each walk's column
    # Each walk is first read by the first round whose count includes it.
    joins = np.searchsorted(walks, np.arange(walks[-1] - cells.size, walks[-1]), "right")
    tally = np.bincount(((parity * walks.size + joins) * cols.size + slot)[keep],
                        minlength=2 * walks.size * cols.size).reshape(2, walks.size, cols.size)
    # Round r's counts: total less those of the cells' walks after walks[r].
    cum = tally.cumsum(axis=1)
    ev, od = cum + (total[:, cols] - cum[:, -1])[:, None]
    # The float operations of signed_estimates in tests/oracles.py, so each
    # estimate is bit-identical to that reference.
    est = (ev - od) / (g.degrees[cols] * walks[:, None])
    passed = (est > ts[:, None]) | (est < -ts[:, None])
    hit = np.flatnonzero(passed.any(axis=0))
    first = passed[:, hit].argmax(axis=0)
    sides = np.where(est[first, hit] > 0.0, EVEN, ODD)
    order = np.lexsort((cols[hit], sides == ODD, first))
    return first[order], cols[hit][order], sides[order]


def threshold_classify(
    g: WeightedGraph, t: float, tally: WalkTally, part: Tripartition
) -> Tripartition:
    """Move unclassified vertices whose signed estimate clears +-t.

    Estimates above t go Even, below -t go Odd; everything else, and every
    previously classified vertex, is untouched.  Idempotent for a fixed
    tally and threshold.  The one-round case of the search's scorer.
    """
    if t <= 0.0:
        raise InvalidInputError("threshold must be positive")
    counts = np.concatenate(tally.counts_at(tally.length))
    part.classify(*_first_passes(g, part.side, counts, counts[:0], np.array([tally.walks]),
                                 np.array([t]))[1:])
    return part


@dataclass
class FindResult:
    """Outcome of one threshold search; part is None on failure.  walks is
    the final pool's size and steps the walk steps drawn."""

    part: Tripartition | None
    threshold: float | None
    rounds: int
    walks: int
    steps: int

    @property
    def success(self) -> bool:
        return self.part is not None


def _inverse_power(m: float, e: float) -> float:
    """m ** -e, or inf where that would overflow (m below 1, e huge)."""
    # Decided from the logarithm, so every finite result is the exact power.
    return m ** -e if e * -math.log(m) < _LOG_POWER_MAX else math.inf


def topup_steps(have: int, walks: int, length: int) -> int:
    """Sampled steps charged for growing a pool of `have` walks of `length`
    to `walks`: its new full blocks and the partial last block of `walks`."""
    if walks <= have:
        return 0
    new_full = walks // BLOCK_WALKS - have // BLOCK_WALKS
    return (new_full * BLOCK_WALKS + walks % BLOCK_WALKS) * max(length, 1)


def _rounds(g: WeightedGraph, params: AlgoParams, t_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of t_r and walk_count(t_r) over the rounds r the budget allows.

    Every round is charged topup_steps, so the rounds are known before any
    walk is drawn.  The charges sum to at least the last round's walks, and
    the pool draws no more than those, so the steps drawn stay within the
    budget.
    """
    ts, needs = [], []
    have = steps = 0
    t = 1.0
    while t >= t_min:
        needed = walk_count(t, params.alpha, max(g.n, 2))
        steps += topup_steps(have, needed, params.ell)
        if steps > params.step_budget:
            break
        ts.append(t)
        needs.append(needed)
        have = max(have, needed)
        t = (1.0 - GAMMA) ** len(ts)
    return np.array(ts), np.array(needs, dtype=np.int64)


def find_threshold(
    g: WeightedGraph, start: int, params: AlgoParams, seed: int
) -> FindResult:
    """Descend thresholds t_r = (1-GAMMA)^r looking for a good tripartition.

    The walk pool is planned with the largest walk count of the rounds the
    step budget allows, and round r classifies from its first
    walk_count(t_r) walks; success requires cut >= soto(sigma) * inc
    together with classified volume at least C_VOL / (t_r^2 m^{1+mu} ln n).
    The rounds whose pools fit in the blocks drawn are scored in one pass
    over the vertices their walks reached, and only those that classify a
    vertex are tested: the others keep a failed round's cut and inc under a
    volume floor that has only risen.  So the results are those of the
    round-by-round loop.  Fails after the last round the budget allows.
    """
    if g.total_weight <= 0.0:
        raise InvalidInputError("graph has no edges")
    m = g.total_weight
    quality_floor = soto_fn(params.sigma)
    part = Tripartition(g)
    # Powers of 1/m underflow to 0 for a huge mu, where powers of m overflow.
    t_min = GAMMA * _inverse_power(m, 1.0 + params.mu / 2.0)
    vol_scale = C_VOL * _inverse_power(m, 1.0 + params.mu)
    log_n = math.log(max(g.n, 2))
    ts, needs = _rounds(g, params, t_min)
    acc = WalkAccumulator(g, start, params.ell, seed, int(needs.max(initial=0)))
    blocks = -(-needs // BLOCK_WALKS)
    for batch in (np.flatnonzero(blocks == b) for b in np.unique(blocks)):
        cells = acc.extend_to(int(needs[batch[-1]]))
        at, vertices, sides = _first_passes(g, part.side, acc.counts, cells, needs[batch],
                                            ts[batch])
        for j in sorted(set(at.tolist())):  # the rounds that classify a vertex
            part.classify(vertices[at == j], sides[at == j])
            r, t = int(batch[j]), float(ts[batch[j]])
            if (part.cut >= quality_floor * part.inc
                    and part.classified_volume >= vol_scale / (t * t * log_n)):
                return FindResult(part=part, threshold=t, rounds=r + 1, walks=int(needs[r]),
                                  steps=acc.steps_sampled)
    return FindResult(part=None, threshold=None, rounds=len(ts), walks=acc.walks,
                      steps=acc.steps_sampled)
