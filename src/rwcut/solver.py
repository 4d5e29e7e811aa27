"""End-to-end level-loop solvers and the runtime/quality tradeoff numerics.

simple_solve sweeps an assumed-deficit schedule, classifying vertices with
the threshold search and handing the unclassified remainder to the next
level; balance_solve first tries to peel off low conductance blocks so that
the walk estimates inside what remains come with a certified probability
bound.  Each solver is one loop over levels, carrying the current induced
graph and its root ids.
Both return the better of what they found and a deterministic greedy
fallback, so no run is ever worse than the half-weight guarantee.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bench import BRUTE_FORCE_MAX_N, brute_force_maxcut, greedy_cut
from .errors import InvalidParamsError
from .graph import EVEN, ODD, WeightedGraph, cut_value, orient, sample_vertex_by_degree
from .localcut import PSI_MAX, LowConductanceCut, cut_or_bound
from .threshold import (GAMMA, SIGMA0, STEP_BUDGET, AlgoParams, check_step_budget,
                        find_threshold, sigma_fn, sigma_inv, soto_fn)
from .walks import check_seed, is_int

SMALL_N_FLOOR = 8
SMALL_WEIGHT_FLOOR = 16.0


# -- quality function ---------------------------------------------------------


def z_star(eps, mu: float) -> np.ndarray:
    """The z up to which the quality floor soto(sigma(eps/z, mu)) is 1/2, for
    each eps of an array, capped at 1: sigma(eps/z, mu) falls as z grows and
    is 1/3 at z = eps / sigma_inv(1/3, mu)."""
    root = sigma_inv(1.0 / 3.0, mu)
    return np.where(eps < root, np.divide(eps, root), 1.0)


# 16-point Gauss-Legendre nodes and weights on [-1, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Widest piece in ln z that the rule integrates to rounding; wider ones
# (only at deficits below about 1e-7) are split into equal pieces.
_PIECE_MAX = 16.0


def _math_map(fn, a: np.ndarray) -> np.ndarray:
    """The math function fn at each element of a.  numpy's exp, log, log1p
    and expm1 pick SIMD loops by CPU at run time, and those round
    differently from math and from CPU to CPU."""
    return np.fromiter(map(fn, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)


def h_values(eps, mu: float) -> np.ndarray:
    """Guaranteed cut fraction H of the recursive solver at each deficit of
    the array eps, at one mu.

    z*/2 plus the integral over z in [z*, 1] of the per-level quality floor
    soto(sigma(eps/z, mu)).  In t = ln z the integrand is z soto(sigma(eps/z,
    mu)), which the 16-point Gauss-Legendre rule integrates on each side of
    its kink, in equal pieces at most _PIECE_MAX wide.  Each piece is one
    column of a (16, pieces) node matrix.  The transcendental functions go
    through math and the rest runs in numpy, in the scalar rule's order:
    nodes summed one at a time, and each eps's pieces added in turn.  So
    every value is the same float on every CPU.
    """
    eps = np.asarray(eps, dtype=float)
    if not 0.0 < mu < math.inf:  # also refuses nan
        raise InvalidParamsError(f"mu = {mu!r} must be positive and finite")
    if not np.all(eps >= 0.0):
        raise InvalidParamsError("eps must be nonnegative")
    mu = float(mu)
    flat = eps.ravel()
    zs = z_star(flat, mu)
    out = np.where(flat == 0.0, 1.0, 0.5)
    live = np.flatnonzero((flat > 0.0) & (zs < 1.0))
    e, zs = flat[live], zs[live]
    kink = e / sigma_inv(SIGMA0, mu)  # where sigma(eps/z, mu) = SIGMA0
    split = np.flatnonzero((zs < kink) & (kink < 1.0))
    # One segment per side of the kink: [z*, kink or 1] for each live eps,
    # then [kink, 1] where the kink splits; ends in ln z.
    owner = np.concatenate([np.arange(live.size), split])
    lo = _math_map(math.log, np.concatenate([zs, kink[split]]))
    hi = np.zeros(owner.size)  # ln 1
    hi[split] = lo[live.size:]
    count = np.ceil((hi - lo) / _PIECE_MAX).astype(np.int64)  # pieces per segment
    # Piece j is piece k[j] of segment seg[j], and piece rank[j] of eps
    # who[j]: a second segment's pieces follow its first's.
    seg = np.repeat(np.arange(owner.size), count)
    who = owner[seg]
    k = np.arange(seg.size) - (np.cumsum(count) - count)[seg]
    rank = k + np.where(seg < live.size, 0, count[who])
    a, b, n = lo[seg], hi[seg], count[seg]
    start = a + (b - a) * k / n
    end = np.where(k + 1 == n, b, a + (b - a) * (k + 1) / n)
    half, mid = (end - start) / 2.0, (end + start) / 2.0
    z = _math_map(math.exp, mid + half * _GL_NODES[:, None])  # (16, pieces)
    # eps/z < sigma_inv(1/3, mu) < 1 at every node, as z > z*.
    log_keep = _math_map(math.log1p, -(e[who] / z))
    sigma = 0.0 - _math_map(math.expm1, (1.0 + 1.0 / mu) * log_keep)  # sigma_fn
    soto = np.where(sigma > 1.0 / 3.0, 0.5, np.where(
        sigma > SIGMA0,
        (-1.0 + np.sqrt(4.0 * sigma * sigma - 8.0 * sigma + 5.0)) / (2.0 * (1.0 - sigma)),
        1.0 / (1.0 + 2.0 * np.sqrt(sigma * (1.0 - sigma)))))  # soto_fn
    total = np.zeros(seg.size)
    for term in _GL_WEIGHTS[:, None] * z * soto:
        total = total + term
    area = half * total
    integral = np.zeros(live.size)
    for r in range(int(rank.max(initial=-1)) + 1):
        at = np.flatnonzero(rank == r)
        integral[who[at]] += area[at]
    out[live] = zs / 2.0 + integral
    return out.reshape(eps.shape)


@lru_cache(maxsize=65536)
def h_fn(eps: float, mu: float) -> float:
    """H at one deficit: h_values' 0-d case.  perfbench's tradeoff-curve
    workload clears the cache and reads its statistics."""
    return float(h_values(eps, mu))


def eps_bar(mu: float) -> float:
    """Deficit at which sigma reaches 1/4."""
    return sigma_inv(0.25, mu)


# -- reports ------------------------------------------------------------------


@dataclass
class SolveReport:
    left: frozenset
    cut_value: float
    levels: list = field(default_factory=list)
    total_walks: int = 0
    algorithm: str = ""
    seed: int = 0
    n: int = 0
    m: float = 0.0
    # Which component produced the returned cut, "walks" or "greedy", and the
    # cut the solver reached before the greedy comparison.
    winner: str = "walks"
    walk_cut_value: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "algorithm": self.algorithm,
            "seed": self.seed,
            "n": self.n,
            "m": self.m,
            "cut_value": self.cut_value,
            "total_walks": self.total_walks,
            "levels": self.levels,
            "winner": self.winner,
            "walk_cut_value": self.walk_cut_value,
        }, sort_keys=True)


@dataclass
class _Ctx:
    """One solve's budgets, set once, and its accounting across levels."""

    step_budget: int
    probes: int | None
    cutbound_step_budget: int | None = None
    walks: int = 0
    levels: list = field(default_factory=list)

    def __post_init__(self):
        # Checked before any work, so that a floor-size graph refuses them too.
        check_step_budget("find_step_budget", self.step_budget)
        if self.cutbound_step_budget is not None:
            check_step_budget("cutbound_step_budget", self.cutbound_step_budget)
        if self.probes is not None and not is_int(self.probes, 1):
            raise InvalidParamsError(f"probes = {self.probes!r} must be an integer of at least 1")

    def params(self, g: WeightedGraph, eps: float, mu: float,
               alpha: float = 1.0) -> AlgoParams:
        return AlgoParams.for_graph(g, eps, mu, alpha=alpha,
                                    step_budget=self.step_budget)

    def probe_count(self, n: int) -> int:
        if self.probes is not None:
            return self.probes
        return max(2, min(8, math.ceil(math.log2(max(n, 2)))))


def _side_of(n: int, left) -> np.ndarray:
    """Side array with the vertices of left Even and the rest Odd."""
    side = np.full(n, ODD, dtype=np.int8)
    side[np.fromiter(left, dtype=np.int64, count=len(left))] = EVEN
    return side


def _random_side(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.where(rng.random(n) < 0.5, EVEN, ODD).astype(np.int8)


def _finish(g: WeightedGraph, side: np.ndarray, walk_value: float, ctx: _Ctx,
            algorithm: str, seed: int) -> SolveReport:
    """Report the walk side, or the greedy baseline when that cuts more."""
    greedy_left = g.greedy_left()
    greedy_value = cut_value(g, greedy_left)
    winner = "walks"
    if greedy_value > walk_value:
        side, winner = _side_of(g.n, greedy_left), "greedy"
        ctx.levels.append({"branch": "fallback-greedy", "n": g.n})
    return SolveReport(
        left=frozenset(np.flatnonzero(side == EVEN).tolist()),
        cut_value=max(greedy_value, walk_value),
        winner=winner,
        walk_cut_value=walk_value,
        levels=ctx.levels,
        total_walks=ctx.walks,
        algorithm=algorithm,
        seed=seed,
        n=g.n,
        m=g.total_weight,
    )


def _solve_small(g: WeightedGraph, ctx: _Ctx, depth: int) -> np.ndarray:
    if g.total_weight == 0.0:
        ctx.levels.append({"branch": "isolated", "depth": depth, "n": g.n})
        return np.full(g.n, EVEN, dtype=np.int8)
    if g.n <= BRUTE_FORCE_MAX_N:
        _value, left = brute_force_maxcut(g)
        branch = "brute-force"
    else:
        left = greedy_cut(g)
        branch = "fallback-greedy"
    ctx.levels.append({"branch": branch, "depth": depth, "n": g.n})
    return _side_of(g.n, left)


def _at_floor(g: WeightedGraph) -> bool:
    return g.n <= SMALL_N_FLOOR or g.edge_weight_total() <= SMALL_WEIGHT_FLOOR


def _tripartition_level(g: WeightedGraph, starts, params: AlgoParams,
                        rng: np.random.Generator, ctx: _Ctx, depth: int,
                        **extra) -> tuple | None:
    """Probe find_threshold from each start until one succeeds.

    On success, orients the tripartition by a fair coin, logs the level
    (with the extra fields) and returns (side, unclassified vertices, xi);
    returns None when every probe fails.  Each probe draws its seed from
    rng after its start is drawn, so a lazy starts iterable interleaves the
    two draws.
    """
    result = None
    for start in starts:
        probe = find_threshold(g, start, params, seed=int(rng.integers(2**62)))
        ctx.walks += probe.walks
        if probe.success:
            result = probe
            break
    if result is None:
        return None
    part = result.part
    flip = rng.random() < 0.5
    even_side, odd_side = (EVEN, ODD) if not flip else (ODD, EVEN)
    side = np.zeros(g.n, dtype=np.int8)
    side[part.even_vertices()] = even_side
    side[part.odd_vertices()] = odd_side
    xi = 1.0 - part.inc / g.total_weight
    ctx.levels.append({
        "branch": "tripartition",
        "depth": depth,
        "n": g.n,
        **extra,
        "threshold": result.threshold,
        "classified_volume": part.classified_volume,
        "xi": xi,
        "walks": result.walks,
    })
    return side, part.unclassified_vertices(), xi


# -- Simple -------------------------------------------------------------------


def _simple_once(g: WeightedGraph, eps: float, mu: float,
                 rng: np.random.Generator, ctx: _Ctx) -> np.ndarray | None:
    """One assumed-deficit pass; returns a side array or None on failure.

    Each level classifies part of the current induced graph and hands the
    unclassified rest, with the deficit rescaled by 1/xi, to the next.
    """
    side = np.zeros(g.n, dtype=np.int8)
    sub, ids = g, np.arange(g.n)
    depth = 0
    while True:
        if _at_floor(sub):
            side[ids] = _solve_small(sub, ctx, depth)
            return side
        if soto_fn(sigma_fn(min(eps, 1.0), mu)) == 0.5:
            side[ids] = _random_side(sub.n, rng)
            ctx.levels.append({"branch": "random", "depth": depth, "n": sub.n,
                               "eps": eps})
            return side
        starts = (sample_vertex_by_degree(sub, rng)
                  for _ in range(ctx.probe_count(sub.n)))
        level = _tripartition_level(sub, starts, ctx.params(sub, eps, mu),
                                    rng, ctx, depth, eps=eps)
        if level is None:
            return None
        side[ids], rest, xi = level
        if rest.size == 0:
            return side
        eps = eps / xi if xi > 0.0 else 1.0
        sub, local = sub.induced(rest)
        ids = ids[local]
        depth += 1


def simple_solve(
    g: WeightedGraph,
    mu: float,
    seed: int = 0,
    *,
    find_step_budget: int = STEP_BUDGET,
    probes: int | None = None,
) -> SolveReport:
    """Deficit-sweep solver: best cut over all assumed deficits.

    Runs the level-by-level classification for eps_r with
    1 - eps_r = (1-GAMMA)^r spanning [1/2, 1]; a failed pass contributes a
    random cut.  The returned partition is the best of the sweep and the
    deterministic greedy baseline, so the result never drops below the
    half-weight guarantee.
    """
    if not 0.0 < mu < math.inf:
        raise InvalidParamsError(f"mu = {mu:g} must be positive and finite")
    check_seed(seed)
    ctx = _Ctx(find_step_budget, probes)
    if g.n == 0:
        return SolveReport(left=frozenset(), cut_value=0.0, algorithm="simple",
                           seed=seed, n=0, m=0.0)
    best_side: np.ndarray | None = None
    best_value = -1.0
    r = 0
    while (keep := (1.0 - GAMMA) ** r) >= 0.5:
        eps_r = 1.0 - keep
        if r and _at_floor(g):  # pass 0 solved the floor-size g; repeat it
            ctx.levels.append(dict(ctx.levels[0]))
            r += 1
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, r)))
        side = _simple_once(g, eps_r, mu, rng, ctx)
        if side is None:
            side = _random_side(g.n, rng)
            ctx.levels.append({"branch": "fail-random", "eps": eps_r, "n": g.n})
        value = cut_value(g, np.flatnonzero(side == EVEN))
        if value > best_value:
            best_value = value
            best_side = side
        r += 1
    return _finish(g, best_side, best_value, ctx, "simple", seed)


# -- Balance ------------------------------------------------------------------


def balance_params(b: float, mu1: float) -> tuple[float, float]:
    """Derive (tau, mu2) equalizing the two per-vertex work exponents at b-1."""
    if not b > 1.5:
        raise InvalidParamsError(f"b = {b:g} must exceed 1.5")
    tau = 2.0 + mu1 - b
    if not 0.0 < tau < 1.0:
        raise InvalidParamsError(
            f"tau = {tau:g} outside (0, 1); pick mu1 in "
            f"({max(0.0, b - 2.0):g}, {min(b - 1.0, 2.0 * b - 3.0):g})"
        )
    mu2 = (2.0 * b - mu1 - 3.0) / tau
    if mu2 <= 0.0:
        raise InvalidParamsError(
            f"mu2 = {mu2:g} must be positive; pick mu1 below {2.0 * b - 3.0:g}"
        )
    return tau, mu2


def _balance_levels(g: WeightedGraph, tau: float, mu1: float, mu2: float,
                    eps1: float, rng: np.random.Generator, ctx: _Ctx) -> np.ndarray:
    """Peel blocks level by level, then stitch them; returns the side array.

    A level either peels a low-conductance block, solves it with the
    deficit-sweep solver and hands the rest to the next level, or ends the
    loop (floor, random branch, greedy fallback), or classifies part of the
    graph by one certified tripartition and hands on the unclassified rest.
    Each block is then oriented, deepest first, to cut more weight against
    the vertices that got their side at a later level.
    """
    side = np.zeros(g.n, dtype=np.int8)
    level_of = np.zeros(g.n, dtype=np.int64)  # level at which a vertex got its side
    blocks = []  # (level, root ids) of each peeled block
    sub, ids = g, np.arange(g.n)
    depth = 0
    while True:
        level_of[ids] = depth
        if _at_floor(sub):
            side[ids] = _solve_small(sub, ctx, depth)
            break
        zeta = math.log(sub.total_weight) / ctx.params(sub, eps1, mu1).ell
        if zeta * tau > PSI_MAX:
            zeta = PSI_MAX / tau
        starts = [sample_vertex_by_degree(sub, rng)
                  for _ in range(ctx.probe_count(sub.n))]
        for start in starts:
            res = cut_or_bound(sub, start, tau, zeta, seed=int(rng.integers(2**62)),
                               max_walk_steps=ctx.cutbound_step_budget)
            ctx.walks += res.walks
            if isinstance(res, LowConductanceCut):
                break
        if isinstance(res, LowConductanceCut):
            block = np.array(sorted(res.vertices), dtype=np.int64)
            ctx.levels.append({
                "branch": "low-conductance",
                "depth": depth,
                "n": sub.n,
                "block_size": int(block.size),
                "conductance": res.conductance,
            })
            sub_b, _ = sub.induced(block)
            block_report = simple_solve(
                sub_b, mu2, seed=int(rng.integers(2**62)),
                find_step_budget=ctx.step_budget, probes=ctx.probes,
            )
            ctx.walks += block_report.total_walks
            ctx.levels.extend(
                {**lvl, "depth": depth + 1, "within": "block"}
                for lvl in block_report.levels
            )
            side[ids[block]] = _side_of(sub_b.n, block_report.left)
            blocks.append((depth, ids[block]))
            keep = np.ones(sub.n, dtype=bool)
            keep[block] = False
            rest = np.flatnonzero(keep)
        elif soto_fn(sigma_fn(min(eps1, 1.0), mu1)) == 0.5:
            ctx.levels.append({"branch": "random", "depth": depth, "n": sub.n})
            side[ids] = _random_side(sub.n, rng)
            break
        else:
            # Every probe certified max_j p_j / (2 d_j) <= res.alpha_bound, so
            # the classification walks may assume max_j p_j / d_j <= twice it.
            alpha_cert = min(1.0, 2.0 * res.alpha_bound)
            level = _tripartition_level(sub, starts,
                                        ctx.params(sub, eps1, mu1, alpha_cert),
                                        rng, ctx, depth)
            if level is None:
                side[ids] = _side_of(sub.n, greedy_cut(sub))
                ctx.levels.append({"branch": "fallback-greedy", "depth": depth,
                                   "n": sub.n})
                break
            side[ids], rest, _xi = level
            if rest.size == 0:
                break
        sub, local = sub.induced(rest)
        ids = ids[local]
        depth += 1
    for k, block in reversed(blocks):
        side[block] = orient(g, block, side[block], side, lambda nbr: level_of[nbr] > k)
    return side


def balance_solve(
    g: WeightedGraph,
    b: float,
    mu1: float,
    eps1: float | None = None,
    seed: int = 0,
    *,
    find_step_budget: int = STEP_BUDGET,
    probes: int | None = None,
    cutbound_step_budget: int | None = None,
) -> SolveReport:
    """Block-peeling solver targeting sub-quadratic per-vertex work.

    Probes for low conductance blocks; each block found is solved by the
    deficit-sweep solver and later stitched onto the partition in the
    orientation cutting more crossing weight.  Any number of blocks may be
    peeled.  When every probe certifies a spread-out walk instead, one
    certified classification round runs before the next level.  Output
    never falls below the greedy fallback.
    """
    tau, mu2 = balance_params(b, mu1)
    if eps1 is None:
        eps1 = eps_bar(mu1)
    if not (0.0 < eps1 < 1.0):
        raise InvalidParamsError("eps1 must lie in (0, 1)")
    check_seed(seed)
    ctx = _Ctx(find_step_budget, probes, cutbound_step_budget)
    if g.n == 0:
        return SolveReport(left=frozenset(), cut_value=0.0, algorithm="balance",
                           seed=seed, n=0, m=0.0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xBA1A)))
    side = _balance_levels(g, tau, mu1, mu2, eps1, rng, ctx)
    return _finish(g, side, cut_value(g, np.flatnonzero(side == EVEN)), ctx,
                   "balance", seed)


# -- tradeoff curve -----------------------------------------------------------


@dataclass(frozen=True)
class TradeoffPoint:
    b: float
    mu1: float
    tau: float
    mu2: float
    eps1: float
    ratio: float
    source: str = "balance"


def simple_ratio(mu: float) -> float:
    """Worst-case ratio of the deficit-sweep solver: min of H(eps, mu) / (1 - eps)
    on a 400-point eps grid over [1e-4, 1/2], refined by 120 points.  A mu
    that is not positive and finite is refused, as h_values refuses it."""
    lo, hi = 1e-4, 0.5
    for size in (400, 120):
        grid = np.linspace(lo, hi, size)
        vals = h_values(grid, mu) / (1.0 - grid)
        i = int(np.argmin(vals))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, size - 1)]
    return float(vals[i])


def _chi(eps1: float, mu1: float, tau: float) -> float:
    """Crossing-loss factor 4*phi/(1-2*phi) at the conductance bound."""
    phi = math.sqrt(4.0 * eps1 * tau / mu1) if tau > 0.0 else 0.0
    if phi >= 0.5:
        raise InvalidParamsError(
            "eps1 too large: conductance bound reaches 1/2"
        )
    return 4.0 * phi / (1.0 - 2.0 * phi)


_EPS_S_GRID = np.linspace(0.0, 0.5, 121)
_EPS_LO, _EPS_HI = 1e-6, 0.5  # the adversary's deficit range in tradeoff_objective


def _adversary_lp(eps, eps1, chi, h1, h_block: np.ndarray) -> np.ndarray:
    """Adversary's cheapest edge split at deficit eps, one row (axis 0) per
    block deficit eps_S of the grid, with block value h_block; eps, eps1, chi
    and h1 broadcast against (121, k).

    The final-round share Z sits at its upper bound min(1 - (1+chi) X,
    (eps - eps_S X) / eps1), since its objective coefficient 1/2 - H1 is at
    most 0 (H is at least 1/2); Y is eliminated by the simplex
    constraint.  Each row is then convex and piecewise linear in the block
    edge share X on [0, X_last], X_last = min(1/(1+chi), eps/eps_S), with
    one kink where Z's two bounds meet, so its minimum lies at X = 0, at
    X_last or at the kink clipped to [0, X_last].  X = 0 scores alike on
    every row, so it is scored once.
    """
    es = _EPS_S_GRID[:, None]
    gain = h_block[:, None] + chi / 2.0

    def score(x, es=es, gain=gain):
        a = 1.0 - (1.0 + chi) * x
        z = np.clip(np.minimum(a, (eps - es * x) / eps1), 0.0, 1.0)
        return gain * x + h1 * (a - z) + z / 2.0

    with np.errstate(divide="ignore", invalid="ignore"):
        last = np.fmin(1.0 / (1.0 + chi), eps / es)
        kink = (eps1 - eps) / (eps1 * (1.0 + chi) - es)
    kink = np.fmin(np.fmax(kink, 0.0), last)  # a 0/0 kink scores X = 0
    return np.minimum(score(0.0, es=0.0, gain=0.0), np.minimum(score(last), score(kink)))


def _objectives(eps1s: np.ndarray, mu1: float, mu2: float, tau: float) -> np.ndarray:
    """tradeoff_objective for each eps1 of the array eps1s at one (mu1, mu2,
    tau), with the block values computed once.

    A row's LP value V falls as eps grows, and is linear in eps between its
    knots eps1 and eps_S/(1+chi), where a vertex of its feasible set meets a
    bound.  As (1+chi) X + Y + Z = 1, V - 1/2 = (H_S - 1/2) X + (H1 - 1/2) Y
    >= 0, so V/(1 - eps) is monotone on each piece, and each row's minimum
    lies at a knot or at an end of [_EPS_LO, _EPS_HI].  The trivial half cut
    max(1/2, .) changes V only by rounding.
    """
    chi = np.array([_chi(float(e), mu1, tau) for e in eps1s])
    h1 = h_values(eps1s, mu1)
    h_block = h_values(_EPS_S_GRID, mu2)
    ends = np.broadcast_arrays(_EPS_LO, eps1s, _EPS_S_GRID[:, None] / (1.0 + chi), _EPS_HI)
    knots = np.clip(np.stack(ends, axis=-1), _EPS_LO, _EPS_HI)  # (121, eps1, 4)
    per_knot = (np.repeat(a, 4) for a in (eps1s, chi, h1))
    v = _adversary_lp(knots.reshape(len(_EPS_S_GRID), -1), *per_knot, h_block).reshape(knots.shape)
    return (np.maximum(v, 0.5) / (1.0 - knots)).min(axis=(0, 2))


def tradeoff_objective(eps1: float, mu1: float, mu2: float, tau: float) -> float:
    """Worst-case approximation ratio guaranteed for the given parameters.

    Minimizes exactly over the adversary's deficit eps in [1e-6, 1/2] the
    better of the trivial half cut 1/(2(1-eps)) and the block/threshold
    accounting bound, the adversary LP solved exactly in the block edge
    share and over the block deficit grid.  tau must lie in [0, 1).
    """
    for name, mu in (("mu1", mu1), ("mu2", mu2)):
        if not 0.0 < mu < math.inf:  # also refuses nan
            raise InvalidParamsError(f"{name} = {mu!r} must be positive and finite")
    if not (0.0 < eps1 <= 0.5):
        raise InvalidParamsError("eps1 must lie in (0, 0.5]")
    if not (0.0 <= tau < 1.0):  # also refuses nan
        raise InvalidParamsError(f"tau = {tau!r} must lie in [0, 1)")
    return float(_objectives(np.array([eps1], dtype=float), mu1, mu2, tau)[0])


def balance_tradeoff(b: float) -> TradeoffPoint:
    """Maximize the block-solver LP ratio over mu1 and eps1 for budget b.

    eps1 is searched below mu1/(16*tau), the region where the conductance
    probe's decay-rate requirement holds (equivalently, where the crossing
    bound phi stays under 1/2).
    """
    mu1_lo = max(0.0, b - 2.0)
    mu1_hi = min(b - 1.0, 2.0 * b - 3.0)
    span = mu1_hi - mu1_lo
    # The refined windows keep this far inside the region, however narrow.
    # tau and mu2 move monotonically with mu1, so where both ends of that
    # range give a valid (tau, mu2), so does every mu1 searched.
    margin = min(1e-9, span / 100.0)
    try:
        balance_params(b, mu1_lo + margin)
        balance_params(b, mu1_hi - margin)
    except InvalidParamsError:
        raise InvalidParamsError(f"no valid mu1 region for b = {b!r}") from None

    mu1_win = (mu1_lo + 0.02 * span, mu1_hi - 0.02 * span)
    eps1_frac_win = (0.02, 1.0)  # fraction of the per-mu1 cap
    best = None
    for points in (12, 7, 7):  # a coarse grid, then two refinements
        mu1_grid = np.linspace(mu1_win[0], mu1_win[1], points)
        frac_grid = np.linspace(eps1_frac_win[0], eps1_frac_win[1], points)
        for mu1 in map(float, mu1_grid):
            tau, mu2 = balance_params(b, mu1)
            eps1s = min(0.5, mu1 / (16.0 * tau) * 0.98) * frac_grid
            for ratio, eps1, frac in zip(_objectives(eps1s, mu1, mu2, tau), eps1s, frac_grid):
                if best is None or ratio > best[0]:
                    best = (float(ratio), mu1, float(eps1), float(frac))
        _, mu1_c, _, frac_c = best
        mu1_h = (mu1_win[1] - mu1_win[0]) / points
        frac_h = (eps1_frac_win[1] - eps1_frac_win[0]) / points
        mu1_win = (max(mu1_lo + margin, mu1_c - mu1_h), min(mu1_hi - margin, mu1_c + mu1_h))
        eps1_frac_win = (max(1e-4, frac_c - frac_h), min(1.0, frac_c + frac_h))
    ratio, mu1, eps1, _ = best
    return TradeoffPoint(b, mu1, *balance_params(b, mu1), eps1, ratio, source="balance")


def best_tradeoff(b: float) -> TradeoffPoint:
    """Best guaranteed ratio at work exponent b over both solver families.

    The block solver is available for any b > 1.5; the deficit-sweep solver
    reaches exponent b = 2 + mu, so for b > 2 the curve is the upper
    envelope of the two.  At a b so large that float rounding leaves no mu1
    inside the block solver's region, the deficit-sweep point is the curve.
    """
    try:
        point = balance_tradeoff(b)
    except InvalidParamsError:
        if not b > 2.0:
            raise
        point = None
    if b > 2.0:
        mu = b - 2.0
        sweep = simple_ratio(mu)
        if point is None or sweep > point.ratio:
            return TradeoffPoint(b=b, mu1=mu, tau=0.0, mu2=mu, eps1=0.0,
                                 ratio=sweep, source="simple")
    return point
