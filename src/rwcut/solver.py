"""End-to-end recursive solvers and the runtime/quality tradeoff numerics.

simple_solve sweeps an assumed-deficit schedule, classifying vertices with
the threshold search and recursing on the unclassified remainder;
balance_solve first tries to peel off low conductance blocks so that the
walk estimates inside what remains come with a certified probability bound.
Both return the better of what they found and a deterministic greedy
fallback, so no run is ever worse than the half-weight guarantee.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .bench import BRUTE_FORCE_MAX_N, brute_force_maxcut, greedy_cut
from .errors import InvalidParamsError
from .graph import EVEN, ODD, WeightedGraph, _rows, cut_value, sample_vertex_by_degree
from .localcut import PSI_MAX, LowConductanceCut, cut_or_bound
from .threshold import AlgoParams, find_threshold, sigma_fn, soto_fn

SMALL_N_FLOOR = 8
SMALL_WEIGHT_FLOOR = 16.0


# -- quality function ---------------------------------------------------------


def z_star(eps: float, mu: float) -> float:
    """Largest z in (0, 1] where the quality floor is still 1/2, else 0."""
    if eps <= 0.0:
        return 0.0
    if sigma_fn(min(eps, 1.0), mu) >= 1.0 / 3.0:
        return 1.0
    lo, hi = 0.0, 1.0  # sigma(eps/z) decreasing in z; root of sigma = 1/3
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sigma_fn(min(eps / mid, 1.0), mu) >= 1.0 / 3.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=65536)
def h_fn(eps: float, mu: float) -> float:
    """Guaranteed cut fraction of the recursive solver at deficit eps.

    z*/2 plus the integral over z in [z*, 1] of the per-level quality floor
    soto(sigma(eps/z, mu)), by adaptive quadrature.
    """
    if eps < 0.0 or mu <= 0.0:
        raise InvalidParamsError("eps must be >= 0 and mu > 0")
    if eps == 0.0:
        return 1.0
    zs = z_star(eps, mu)
    if zs >= 1.0:
        return 0.5

    def integrand(z: float) -> float:
        return soto_fn(sigma_fn(min(eps / z, 1.0), mu))

    points = []
    denom = 1.0 - (1.0 - 0.22815) ** (mu / (1.0 + mu))
    if denom > 0.0:
        z_seam = eps / denom
        if zs < z_seam < 1.0:
            points.append(z_seam)
    integral, _err = quad(integrand, zs, 1.0, points=points or None,
                          epsabs=1e-9, limit=200)
    return zs / 2.0 + integral


def eps_bar(mu: float) -> float:
    """Deficit at which sigma reaches 1/4: 1 - (3/4)^(mu / (1 + mu))."""
    if mu <= 0.0:
        raise InvalidParamsError("mu must be positive")
    return 1.0 - 0.75 ** (mu / (1.0 + mu))


# -- reports ------------------------------------------------------------------


@dataclass
class SolveReport:
    left: frozenset
    cut_value: float
    levels: list = field(default_factory=list)
    total_walks: int = 0
    wall_time: float = 0.0
    algorithm: str = ""
    seed: int = 0
    n: int = 0
    m: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "algorithm": self.algorithm,
            "seed": self.seed,
            "n": self.n,
            "m": self.m,
            "cut_value": self.cut_value,
            "total_walks": self.total_walks,
            "levels": self.levels,
        }, sort_keys=True)


@dataclass
class _Ctx:
    """Mutable accounting shared across one solve's recursion."""

    walks: int = 0
    levels: list = field(default_factory=list)


def _solve_small(g: WeightedGraph, ctx: _Ctx, depth: int) -> np.ndarray:
    side = np.full(g.n, EVEN, dtype=np.int8)
    if g.total_weight == 0.0:
        ctx.levels.append({"branch": "isolated", "depth": depth, "n": g.n})
        return side
    if g.n <= BRUTE_FORCE_MAX_N:
        _value, left = brute_force_maxcut(g)
        branch = "brute-force"
    else:
        left = greedy_cut(g)
        branch = "fallback-greedy"
    side[:] = ODD
    side[sorted(left)] = EVEN
    ctx.levels.append({"branch": branch, "depth": depth, "n": g.n})
    return side


def _at_floor(g: WeightedGraph) -> bool:
    return g.n <= SMALL_N_FLOOR or g.edge_weight_total() <= SMALL_WEIGHT_FLOOR


def _probe_count(n: int, override: int | None = None) -> int:
    if override is not None:
        return max(1, override)
    return max(2, min(8, math.ceil(math.log2(max(n, 2)))))


def _tripartition_level(g: WeightedGraph, starts, params: AlgoParams,
                        rng: np.random.Generator, ctx: _Ctx, depth: int,
                        threads: int, **extra) -> tuple | None:
    """Probe find_threshold from each start until one succeeds.

    On success, orients the tripartition by a fair coin, logs the level
    (with the extra fields) and returns (side, unclassified vertices, xi);
    returns None when every probe fails.  Each probe draws its seed from
    rng after its start is drawn, so a lazy starts iterable interleaves the
    two draws.
    """
    result = None
    for start in starts:
        probe = find_threshold(g, start, params,
                               seed=int(rng.integers(2**62)), threads=threads)
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


def _simple_once(
    g: WeightedGraph,
    eps: float,
    mu: float,
    alpha: float,
    rng: np.random.Generator,
    ctx: _Ctx,
    depth: int,
    *,
    gamma: float,
    delta: float,
    kappa: float,
    step_budget: int,
    probes: int | None = None,
    threads: int = 1,
) -> np.ndarray | None:
    """One assumed-deficit pass; returns a side array or None on failure."""
    if g.n == 0:
        return np.zeros(0, dtype=np.int8)
    if _at_floor(g):
        return _solve_small(g, ctx, depth)
    if soto_fn(sigma_fn(min(eps, 1.0), mu)) == 0.5:
        side = np.where(rng.random(g.n) < 0.5, EVEN, ODD).astype(np.int8)
        ctx.levels.append({"branch": "random", "depth": depth, "n": g.n,
                           "eps": eps})
        return side
    params = AlgoParams.for_graph(
        g, eps, mu, alpha=alpha, gamma=gamma, delta=delta, kappa=kappa,
        step_budget=step_budget,
    )
    starts = (sample_vertex_by_degree(g, rng)
              for _ in range(_probe_count(g.n, probes)))
    level = _tripartition_level(g, starts, params, rng, ctx, depth, threads,
                                eps=eps)
    if level is None:
        return None
    side, rest, xi = level
    if rest.size == 0:
        return side
    eps_next = eps / xi if xi > 0.0 else 1.0
    sub, ids = g.induced(rest)
    rec = _simple_once(
        sub, eps_next, mu, alpha, rng, ctx, depth + 1,
        gamma=gamma, delta=delta, kappa=kappa, step_budget=step_budget,
        probes=probes, threads=threads,
    )
    if rec is None:
        return None
    side[ids] = rec
    return side


def simple_solve(
    g: WeightedGraph,
    mu: float,
    seed: int = 0,
    *,
    gamma: float = 0.05,
    delta: float = 0.05,
    kappa: float = 8.0,
    alpha: float = 1.0,
    find_step_budget: int = 2_000_000,
    probes: int | None = None,
    threads: int = 1,
) -> SolveReport:
    """Deficit-sweep solver: best cut over all assumed deficits.

    Runs the recursive classification for eps_r with 1 - eps_r = (1-gamma)^r
    spanning [1/2, 1]; a failed pass contributes a random cut.  The returned
    partition is the best of the sweep and the deterministic greedy
    baseline, so the result never drops below the half-weight guarantee.
    """
    t0 = time.perf_counter()
    ctx = _Ctx()
    best_side: np.ndarray | None = None
    best_value = -1.0
    if g.n == 0:
        report = SolveReport(left=frozenset(), cut_value=0.0, algorithm="simple",
                             seed=seed, n=0, m=0.0)
        return report
    r = 0
    while True:
        keep = (1.0 - gamma) ** r
        if keep < 0.5:
            break
        eps_r = 1.0 - keep
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, r)))
        side = _simple_once(
            g, eps_r, mu, alpha, rng, ctx, 0,
            gamma=gamma, delta=delta, kappa=kappa,
            step_budget=find_step_budget, probes=probes, threads=threads,
        )
        if side is None:
            side = np.where(rng.random(g.n) < 0.5, EVEN, ODD).astype(np.int8)
            ctx.levels.append({"branch": "fail-random", "eps": eps_r, "n": g.n})
        value = cut_value(g, np.nonzero(side == EVEN)[0])
        if value > best_value:
            best_value = value
            best_side = side
        r += 1
    greedy_left = greedy_cut(g)
    greedy_value = cut_value(g, greedy_left)
    if greedy_value > best_value:
        best_value = greedy_value
        best_side = np.full(g.n, ODD, dtype=np.int8)
        best_side[sorted(greedy_left)] = EVEN
        ctx.levels.append({"branch": "fallback-greedy", "n": g.n})
    left = frozenset(int(v) for v in np.nonzero(best_side == EVEN)[0])
    return SolveReport(
        left=left,
        cut_value=best_value,
        levels=ctx.levels,
        total_walks=ctx.walks,
        wall_time=time.perf_counter() - t0,
        algorithm="simple",
        seed=seed,
        n=g.n,
        m=g.total_weight,
    )


# -- Balance ------------------------------------------------------------------


def balance_params(b: float, mu1: float) -> tuple[float, float]:
    """Derive (tau, mu2) equalizing the two per-vertex work exponents at b-1."""
    tau = 2.0 + mu1 - b
    denom = 2.0 + mu1 - b
    if denom <= 0.0 or not (0.0 <= tau < 1.0):
        raise InvalidParamsError(
            f"tau = {tau:g} outside [0, 1); pick mu1 in "
            f"({max(0.0, b - 2.0):g}, {min(b - 1.0, 2.0 * b - 3.0):g})"
        )
    mu2 = (2.0 * b - mu1 - 3.0) / denom
    if mu2 <= 0.0:
        raise InvalidParamsError(
            f"mu2 = {mu2:g} must be positive; pick mu1 below {2.0 * b - 3.0:g}"
        )
    return tau, mu2


def _crossing_weight(g: WeightedGraph, ids_a, side_a, ids_b, side_b) -> float:
    """Cut weight of edges between two disjoint id groups under given sides."""
    side = np.zeros(g.n, dtype=np.int8)
    side[ids_a] = side_a
    side[ids_b] = side_b
    in_b = np.zeros(g.n, dtype=bool)
    in_b[ids_b] = True
    src, nbr, wt = _rows(g, ids_a)
    return float(wt[in_b[nbr] & (side[nbr] != side[ids_a][src])].sum())


def _balance_recurse(
    g: WeightedGraph,
    *,
    tau: float,
    mu1: float,
    mu2: float,
    eps1: float,
    rng: np.random.Generator,
    ctx: _Ctx,
    depth: int,
    gamma: float,
    delta: float,
    kappa: float,
    step_budget: int,
    probes: int | None,
    cutbound_step_budget: int | None,
    threads: int,
) -> np.ndarray:
    if g.n == 0:
        return np.zeros(0, dtype=np.int8)
    if _at_floor(g):
        return _solve_small(g, ctx, depth)
    m = g.total_weight
    alpha = m**-tau
    probe_params = AlgoParams.for_graph(
        g, eps1, mu1, gamma=gamma, delta=delta, kappa=kappa,
        step_budget=step_budget,
    )
    zeta = math.log(m) / probe_params.ell
    if zeta * tau > PSI_MAX:
        zeta = PSI_MAX / tau if tau > 0 else zeta
    starts = [sample_vertex_by_degree(g, rng)
              for _ in range(_probe_count(g.n, probes))]
    found: LowConductanceCut | None = None
    for start in starts:
        res = cut_or_bound(g, start, tau, zeta, seed=int(rng.integers(2**62)),
                           threads=threads,
                           max_walk_steps=cutbound_step_budget)
        ctx.walks += res.walks
        if isinstance(res, LowConductanceCut):
            found = res
            break
    if found is not None:
        block = np.array(sorted(found.vertices), dtype=np.int64)
        rest = np.array(sorted(set(range(g.n)) - set(found.vertices)),
                        dtype=np.int64)
        ctx.levels.append({
            "branch": "low-conductance",
            "depth": depth,
            "n": g.n,
            "block_size": int(block.size),
            "conductance": found.conductance,
        })
        sub_b, ids_b = g.induced(block)
        block_report = simple_solve(
            sub_b, mu2, seed=int(rng.integers(2**62)), gamma=gamma,
            delta=delta, kappa=kappa, find_step_budget=step_budget,
            probes=probes, threads=threads,
        )
        ctx.walks += block_report.total_walks
        ctx.levels.extend(
            {**lvl, "depth": depth + 1, "within": "block"}
            for lvl in block_report.levels
        )
        side_b = np.full(sub_b.n, ODD, dtype=np.int8)
        side_b[sorted(block_report.left)] = EVEN
        sub_r, ids_r = g.induced(rest)
        side_r = _balance_recurse(
            sub_r, tau=tau, mu1=mu1, mu2=mu2, eps1=eps1, rng=rng, ctx=ctx,
            depth=depth + 1, gamma=gamma, delta=delta, kappa=kappa,
            step_budget=step_budget, probes=probes,
            cutbound_step_budget=cutbound_step_budget, threads=threads,
        )
        straight = _crossing_weight(g, ids_b, side_b, ids_r, side_r)
        flipped = _crossing_weight(g, ids_b, -side_b, ids_r, side_r)
        if flipped > straight:
            side_b = -side_b
        side = np.zeros(g.n, dtype=np.int8)
        side[ids_b] = side_b
        side[ids_r] = side_r
        return side
    # Every probe certified the spread-out bound: the classification walks
    # may now assume max_j p_j / d_j <= 512 * alpha.
    alpha_cert = min(1.0, 512.0 * alpha)
    if soto_fn(sigma_fn(min(eps1, 1.0), mu1)) == 0.5:
        ctx.levels.append({"branch": "random", "depth": depth, "n": g.n})
        return np.where(rng.random(g.n) < 0.5, EVEN, ODD).astype(np.int8)
    params = AlgoParams.for_graph(
        g, eps1, mu1, alpha=alpha_cert, gamma=gamma, delta=delta, kappa=kappa,
        step_budget=step_budget,
    )
    level = _tripartition_level(g, starts, params, rng, ctx, depth, threads)
    if level is None:
        side = np.full(g.n, ODD, dtype=np.int8)
        side[sorted(greedy_cut(g))] = EVEN
        ctx.levels.append({"branch": "fallback-greedy", "depth": depth,
                           "n": g.n})
        return side
    side, rest, _xi = level
    if rest.size:
        sub, ids = g.induced(rest)
        side[ids] = _balance_recurse(
            sub, tau=tau, mu1=mu1, mu2=mu2, eps1=eps1, rng=rng, ctx=ctx,
            depth=depth + 1, gamma=gamma, delta=delta, kappa=kappa,
            step_budget=step_budget, probes=probes,
            cutbound_step_budget=cutbound_step_budget, threads=threads,
        )
    return side


def balance_solve(
    g: WeightedGraph,
    b: float,
    mu1: float,
    eps1: float | None = None,
    mu2: float | None = None,
    seed: int = 0,
    *,
    gamma: float = 0.05,
    delta: float = 0.05,
    kappa: float = 8.0,
    find_step_budget: int = 2_000_000,
    probes: int | None = None,
    cutbound_step_budget: int | None = None,
    threads: int = 1,
) -> SolveReport:
    """Block-peeling solver targeting sub-quadratic per-vertex work.

    Probes for low conductance blocks; each block found is solved by the
    deficit-sweep solver and stitched onto the recursion's partition in the
    orientation cutting more crossing weight.  When every probe certifies a
    spread-out walk instead, one certified classification round runs before
    recursing.  Output never falls below the greedy fallback.
    """
    t0 = time.perf_counter()
    tau, mu2_derived = balance_params(b, mu1)
    if mu2 is None:
        mu2 = mu2_derived
    if eps1 is None:
        eps1 = eps_bar(mu1)
    if not (0.0 < eps1 < 1.0):
        raise InvalidParamsError("eps1 must lie in (0, 1)")
    ctx = _Ctx()
    if g.n == 0:
        return SolveReport(left=frozenset(), cut_value=0.0, algorithm="balance",
                           seed=seed, n=0, m=0.0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xBA1A)))
    side = _balance_recurse(
        g, tau=tau, mu1=mu1, mu2=mu2, eps1=eps1, rng=rng, ctx=ctx, depth=0,
        gamma=gamma, delta=delta, kappa=kappa, step_budget=find_step_budget,
        probes=probes, cutbound_step_budget=cutbound_step_budget,
        threads=threads,
    )
    value = cut_value(g, np.nonzero(side == EVEN)[0])
    greedy_left = greedy_cut(g)
    greedy_value = cut_value(g, greedy_left)
    if greedy_value > value:
        value = greedy_value
        side = np.full(g.n, ODD, dtype=np.int8)
        side[sorted(greedy_left)] = EVEN
        ctx.levels.append({"branch": "fallback-greedy", "n": g.n})
    left = frozenset(int(v) for v in np.nonzero(side == EVEN)[0])
    return SolveReport(
        left=left,
        cut_value=value,
        levels=ctx.levels,
        total_walks=ctx.walks,
        wall_time=time.perf_counter() - t0,
        algorithm="balance",
        seed=seed,
        n=g.n,
        m=g.total_weight,
    )


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


def simple_ratio(mu: float, grid: int = 400) -> float:
    """Worst-case ratio of the deficit-sweep solver: min over eps of
    H(eps, mu) / (1 - eps)."""
    if mu <= 0.0:
        raise InvalidParamsError("mu must be positive")
    eps = np.linspace(1e-4, 0.5, grid)
    vals = [h_fn(float(e), float(mu)) / (1.0 - float(e)) for e in eps]
    i = int(np.argmin(vals))
    lo = eps[max(0, i - 1)]
    hi = eps[min(grid - 1, i + 1)]
    eps2 = np.linspace(lo, hi, 120)
    vals2 = [h_fn(float(e), float(mu)) / (1.0 - float(e)) for e in eps2]
    return float(min(vals2))


def _chi(eps1: float, mu1: float, tau: float) -> float:
    """Crossing-loss factor 4*phi/(1-2*phi) at the conductance bound."""
    phi = math.sqrt(4.0 * eps1 * tau / mu1) if tau > 0.0 else 0.0
    if phi >= 0.5:
        raise InvalidParamsError(
            "eps1 too large: conductance bound reaches 1/2"
        )
    return 4.0 * phi / (1.0 - 2.0 * phi)


_EPS_S_GRID = np.linspace(0.0, 0.5, 121)


def _obj(eps: float, eps1: float, chi: float, h1: float, h_block: np.ndarray,
         x_grid: np.ndarray) -> float:
    """Adversary's cheapest edge split for a fixed deficit eps.

    Variables: block deficit (grid), block edge share X (grid); the
    final-round share Z sits at its upper bound because its objective
    coefficient 1/2 - H(eps1, mu1) is negative; Y is eliminated by the
    simplex constraint.
    """
    es = _EPS_S_GRID[:, None]
    x = x_grid[None, :]
    feasible = es * x <= eps + 1e-15
    z = np.minimum(1.0 - (1.0 + chi) * x, (eps - es * x) / eps1)
    z = np.clip(z, 0.0, 1.0)
    y = 1.0 - (1.0 + chi) * x - z
    value = (h_block[:, None] + chi / 2.0) * x + h1 * y + z / 2.0
    value = np.where(feasible & (y >= -1e-12), value, np.inf)
    return float(value.min()) / (1.0 - eps)


def tradeoff_objective(eps1: float, mu1: float, mu2: float, tau: float) -> float:
    """Worst-case approximation ratio guaranteed for the given parameters.

    Minimizes over the adversary's deficit eps in [0, 1/2] the better of the
    trivial half cut 1/(2(1-eps)) and the block/threshold accounting bound.
    """
    if not (0.0 < eps1 <= 0.5):
        raise InvalidParamsError("eps1 must lie in (0, 0.5]")
    chi = _chi(eps1, mu1, tau)
    h1 = h_fn(float(eps1), float(mu1))
    h_block = np.array([h_fn(float(e), float(mu2)) for e in _EPS_S_GRID])
    x_max = 1.0 / (1.0 + chi)
    x_grid = np.linspace(0.0, x_max, 121)

    def guaranteed(eps: float) -> float:
        trivial = 0.5 / (1.0 - eps)
        return max(trivial, _obj(eps, eps1, chi, h1, h_block, x_grid))

    lo, hi = 1e-6, 0.5
    grid = np.linspace(lo, hi, 61)
    vals = [guaranteed(float(e)) for e in grid]
    best_i = int(np.argmin(vals))
    for _ in range(2):  # local refinement around the minimizer
        lo2 = grid[max(0, best_i - 1)]
        hi2 = grid[min(len(grid) - 1, best_i + 1)]
        grid = np.linspace(lo2, hi2, 31)
        vals = [guaranteed(float(e)) for e in grid]
        best_i = int(np.argmin(vals))
    return float(vals[best_i])


def balance_tradeoff(b: float, coarse: int = 12, refine: int = 2) -> TradeoffPoint:
    """Maximize the block-solver LP ratio over mu1 and eps1 for budget b.

    eps1 is searched below mu1/(16*tau), the region where the conductance
    probe's decay-rate requirement holds (equivalently, where the crossing
    bound phi stays under 1/2).
    """
    mu1_lo = max(0.0, b - 2.0)
    mu1_hi = min(b - 1.0, 2.0 * b - 3.0)
    if mu1_hi <= mu1_lo:
        raise InvalidParamsError(f"no valid mu1 region for b = {b:g}")

    def eps1_cap(mu1: float) -> float:
        tau, _ = balance_params(b, mu1)
        if tau <= 0.0:
            return 0.5
        return min(0.5, mu1 / (16.0 * tau) * 0.98)

    def eval_pair(mu1: float, eps1: float) -> float:
        tau, mu2 = balance_params(b, mu1)
        return tradeoff_objective(eps1, mu1, mu2, tau)

    span = mu1_hi - mu1_lo
    mu1_win = (mu1_lo + 0.02 * span, mu1_hi - 0.02 * span)
    eps1_frac_win = (0.02, 1.0)  # fraction of the per-mu1 cap
    best = None
    points = coarse
    for _ in range(refine + 1):
        mu1_grid = np.linspace(mu1_win[0], mu1_win[1], points)
        frac_grid = np.linspace(eps1_frac_win[0], eps1_frac_win[1], points)
        for mu1 in mu1_grid:
            cap = eps1_cap(float(mu1))
            for frac in frac_grid:
                eps1 = float(cap * frac)
                ratio = eval_pair(float(mu1), eps1)
                if best is None or ratio > best[0]:
                    best = (ratio, float(mu1), eps1, float(frac))
        _, mu1_c, _, frac_c = best
        mu1_h = (mu1_win[1] - mu1_win[0]) / points
        frac_h = (eps1_frac_win[1] - eps1_frac_win[0]) / points
        mu1_win = (
            max(mu1_lo + 1e-9, mu1_c - mu1_h),
            min(mu1_hi - 1e-9, mu1_c + mu1_h),
        )
        eps1_frac_win = (max(1e-4, frac_c - frac_h), min(1.0, frac_c + frac_h))
        points = max(7, coarse // 2 + 1)
    ratio, mu1, eps1, _ = best
    tau, mu2 = balance_params(b, mu1)
    return TradeoffPoint(b=b, mu1=mu1, tau=tau, mu2=mu2, eps1=eps1,
                         ratio=ratio, source="balance")


def best_tradeoff(b: float, coarse: int = 12, refine: int = 2) -> TradeoffPoint:
    """Best guaranteed ratio at work exponent b over both solver families.

    The block solver is available for any b > 1.5; the deficit-sweep solver
    reaches exponent b = 2 + mu, so for b > 2 the curve is the upper
    envelope of the two.
    """
    point = balance_tradeoff(b, coarse=coarse, refine=refine)
    if b > 2.0:
        mu = b - 2.0
        sweep = simple_ratio(mu)
        if sweep > point.ratio:
            return TradeoffPoint(b=b, mu1=mu, tau=0.0, mu2=mu, eps1=0.0,
                                 ratio=sweep, source="simple")
    return point
