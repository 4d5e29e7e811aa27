import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from rwcut import solver
from rwcut.bench import brute_force_maxcut, gen_planted, greedy_cut
from rwcut.errors import InvalidParamsError, ResourceError
from rwcut.graph import WeightedGraph, cut_value, load_graph
from rwcut.solver import (
    _EPS_HI,
    _EPS_LO,
    _EPS_S_GRID,
    _adversary_lp,
    _chi,
    _objectives,
    balance_params,
    balance_solve,
    balance_tradeoff,
    best_tradeoff,
    eps_bar,
    h_fn,
    h_values,
    simple_ratio,
    simple_solve,
    tradeoff_objective,
    z_star,
)
from rwcut.threshold import sigma_inv
from rwcut.walks import STEP_CAP

from conftest import complete_bipartite, planted_file, random_graph
from oracles import h_scalar

SIGMA0 = 0.22815


def _soto_independent(sigma):
    """Branch formulas re-derived for oracle use in tests."""
    out = np.empty_like(sigma)
    hi = sigma > 1.0 / 3.0
    mid = (~hi) & (sigma > SIGMA0)
    lo = ~(hi | mid)
    out[hi] = 0.5
    s = sigma[mid]
    out[mid] = (-1.0 + np.sqrt(4 * s * s - 8 * s + 5)) / (2 * (1 - s))
    s = sigma[lo]
    out[lo] = 1.0 / (1.0 + 2.0 * np.sqrt(s * (1.0 - s)))
    return out


def _h_riemann(eps, mu, cells=2**20):
    """Midpoint rule in t = ln z, where the integrand is z soto(sigma(eps/z)),
    with closed-form z*."""
    if eps == 0.0:
        return 1.0
    denom = 1.0 - (2.0 / 3.0) ** (mu / (1.0 + mu))
    zs = min(1.0, eps / denom)
    if zs >= 1.0:
        return 0.5
    width = -math.log(zs) / cells
    z = np.exp(math.log(zs) + width * (np.arange(cells) + 0.5))
    x = np.minimum(eps / z, 1.0)
    sigma = 1.0 - (1.0 - x) ** (1.0 + 1.0 / mu)
    return zs / 2.0 + width * float(np.sum(z * _soto_independent(sigma)))


def _dense_lp(eps, eps1, chi, h1, h_block):
    """Each row's adversary LP value scored on a 121-point block-share grid
    (reference)."""
    es = _EPS_S_GRID[:, None]
    x = np.linspace(0.0, 1.0 / (1.0 + chi), 121)[None, :]
    feasible = es * x <= eps + 1e-15
    z = np.minimum(1.0 - (1.0 + chi) * x, (eps - es * x) / eps1)
    z = np.clip(z, 0.0, 1.0)
    y = 1.0 - (1.0 + chi) * x - z
    value = (h_block[:, None] + chi / 2.0) * x + h1 * y + z / 2.0
    return np.where(feasible & (y >= -1e-12), value, np.inf).min(axis=1)


def _dense_objective(eps1, mu1, mu2, tau):
    """tradeoff_objective with one dense-grid LP per deficit (reference)."""
    chi = _chi(eps1, mu1, tau)
    h1 = float(h_values(eps1, mu1))
    h_block = h_values(_EPS_S_GRID, mu2)

    def guaranteed(eps):
        return max(0.5, float(_dense_lp(eps, eps1, chi, h1, h_block).min())) / (1.0 - eps)

    grid = np.linspace(1e-6, 0.5, 61)
    vals = [guaranteed(float(e)) for e in grid]
    best_i = int(np.argmin(vals))
    for _ in range(2):
        lo2 = grid[max(0, best_i - 1)]
        hi2 = grid[min(len(grid) - 1, best_i + 1)]
        grid = np.linspace(lo2, hi2, 31)
        vals = [guaranteed(float(e)) for e in grid]
        best_i = int(np.argmin(vals))
    return float(vals[best_i])


def _x_column(chi, c):
    """Column c of the adversary LP's block-share grid."""
    return np.linspace(0.0, 1.0 / (1.0 + chi), 121)[c]


def _linprog_row(eps, eps1, chi, h1, es, hs):
    """One row's adversary LP value, solved by HiGHS in (X, Z) with Y
    eliminated by the simplex constraint."""
    res = linprog([hs + chi / 2.0 - h1 * (1.0 + chi), 0.5 - h1],
                  A_ub=[[es, eps1], [1.0 + chi, 1.0]], b_ub=[eps, 1.0],
                  bounds=[(0.0, None), (0.0, 1.0)], method="highs")
    assert res.status == 0, res.message
    return res.fun + h1


def _dense_eps_objective(eps1, mu1, mu2, tau, points=200_001):
    """tradeoff_objective minimized over a uniform grid of the adversary's
    deficit instead of exactly (reference), scored in chunks of the grid."""
    chi = _chi(eps1, mu1, tau)
    h1 = float(h_values(eps1, mu1))
    h_block = h_values(_EPS_S_GRID, mu2)
    best = math.inf
    for eps in np.array_split(np.linspace(_EPS_LO, _EPS_HI, points), 40):
        v = _adversary_lp(eps, eps1, chi, h1, h_block).min(axis=0)
        best = min(best, float((np.maximum(v, 0.5) / (1.0 - eps)).min()))
    return best


_LP_CASES = dict(
    eps1=st.floats(1e-3, 0.5),
    chi=st.just(0.0) | st.floats(0.0, 20.0),
    h1=st.just(0.5) | st.floats(0.5, 1.0),
    h_block=st.lists(st.just(0.5) | st.floats(0.5, 1.0), min_size=121, max_size=121),
    eps=st.lists(st.floats(1e-6, 0.5), min_size=1, max_size=16),
)


def _lp_examples(with_row):
    """The adversary LP's breakpoint cases, each with the row it checks.

    One case each where a row's minimum is decided at X = 0, beside its kink
    and at its last feasible X, above the trivial bound; eps exactly on a
    grid column of row 55 at its last feasible X (eps = es_55 X_111) and of
    row 1 at its kink (eps = eps1 - (eps1 (1 + chi) - es_1) X_35); and rows
    0 and 120, flat in X before their kink.
    """
    cases = (
        ((0,), dict(eps1=0.1, chi=5.0, h1=0.51, h_block=[1.0] * 121, eps=[0.05])),
        ((0,), dict(eps1=0.2, chi=0.0, h1=0.9,
                    h_block=np.linspace(0.8, 0.6, 121).tolist(), eps=[0.1])),
        ((120,), dict(eps1=0.37, chi=1.0, h1=0.61,
                      h_block=np.linspace(0.8, 0.53, 121).tolist(), eps=[0.09])),
        ((55,), dict(eps1=0.453, chi=0.0, h1=0.795,
                     h_block=np.linspace(0.512, 0.837, 121).tolist(),
                     eps=[float(_EPS_S_GRID[55] * _x_column(0.0, 111))])),
        ((1,), dict(eps1=0.117, chi=0.0, h1=0.72,
                    h_block=np.linspace(0.651, 0.807, 121).tolist(),
                    eps=[float(0.117 - (0.117 - _EPS_S_GRID[1]) * _x_column(0.0, 35))])),
        ((0, 120), dict(eps1=0.5, chi=0.0, h1=1.0, h_block=[1.0] + [0.5] * 120,
                        eps=[1e-6])),
    )

    def apply(test):
        for rows, case in cases:
            for extra in ({"row": r} for r in rows) if with_row else ({},):
                test = example(**case, **extra)(test)
        return test

    return apply


class TestHFunction:
    def test_no_deficit(self):
        assert h_fn(0.0, 1.0) == 1.0

    def test_lower_bound_at_eps_bar(self):
        for mu in (0.5, 1.0, 2.0):
            assert h_fn(eps_bar(mu), mu) > 0.5029

    def test_convex_decreasing_grid(self):
        for mu in (0.5, 1.0, 2.0):
            eps = np.linspace(1e-3, 0.5, 100)
            vals = h_values(eps, mu)
            assert np.all(np.diff(vals) <= 1e-12)
            second = np.diff(vals, 2)
            assert np.all(second >= -1e-6)

    def test_matches_riemann_oracle(self):
        # Log-uniform draws, and mu = 1e-7, where 1 - eps/z rounds enough that
        # sigma_fn is off by about 1e-9: the rule samples that rounding at 16
        # or 32 nodes, so its error is largest there (6.1e-10 at eps = 1e-9).
        rng = np.random.default_rng(10)
        cases = [(1e-9, 1e-7), (2e-9, 1e-7), (1e-8, 1e-7)]
        cases += [(float(np.exp(rng.uniform(math.log(1e-9), math.log(0.5)))),
                   float(np.exp(rng.uniform(math.log(1e-7), math.log(1e6)))))
                  for _ in range(60)]
        for eps, mu in cases:
            assert abs(h_fn(eps, mu) - _h_riemann(eps, mu)) < 1e-9, (eps, mu)

    def test_matches_scalar_rule_bit_for_bit(self):
        # 5,080 points, compared with ==: eps = 0, eps at and beyond
        # sigma_inv(1/3, mu) (H = 1/2), eps at and just below the kink's end
        # sigma_inv(SIGMA0, mu), a uniform grid and draws on [0, 0.5], and
        # log-uniform draws down to 1e-300, where the [kink, 1] side is split.
        rng = np.random.default_rng(32)
        mus = [1e-9, 1e6] + np.exp(rng.uniform(math.log(1e-3), math.log(30), 38)).tolist()
        checked = 0
        for mu in mus:
            root, kink_end = sigma_inv(1.0 / 3.0, mu), sigma_inv(SIGMA0, mu)
            eps = np.concatenate([
                [0.0, root, np.nextafter(root, 0.0), 2.0 * root, kink_end,
                 np.nextafter(kink_end, 0.0)],
                np.linspace(0.0, 0.5, 41), rng.uniform(0.0, 0.5, 40),
                np.exp(rng.uniform(math.log(1e-300), math.log(0.5), 40)),
            ])
            assert h_values(eps, mu).tolist() == [h_scalar(e, mu) for e in eps.tolist()]
            checked += eps.size
        assert checked >= 5000

    def test_zero_d_and_empty(self):
        value = h_values(np.array(0.1), 1.0)
        assert value.shape == () and float(value) == h_scalar(0.1, 1.0) == h_fn(0.1, 1.0)
        assert h_values(np.array([]), 1.0).shape == (0,)

    @pytest.mark.parametrize("mu", [1e-7, 0.25, 1.0, 4.7, 1e6])
    def test_half_to_one_and_nonincreasing_down_to_tiny_deficits(self, mu):
        # Below about 1e-7 the [kink, 1] side is wider than 16 in ln z (690
        # at 1e-300); unsplit, the rule gave 0.2439 at eps = 1e-300, mu = 0.25.
        vals = h_values(np.concatenate([[0.0], np.geomspace(1e-300, 0.5, 1000)]), mu)
        assert np.all((vals >= 0.5 - 1e-12) & (vals <= 1.0 + 1e-12))
        assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("eps", [1e-20, 1e-30])
    @pytest.mark.parametrize("mu", [0.25, 1.0, 4.7])
    def test_tiny_deficit_matches_riemann_oracle(self, eps, mu):
        # Unsplit, the rule was off by 2.4e-6 to 3.2e-6 at eps = 1e-30.  At
        # 1e-20 most of the gap (8.1e-10 at mu = 0.25) is the oracle's own
        # rounding of 1 - (1 - x)^(1 + 1/mu) at x = eps/z.
        assert abs(h_fn(eps, mu) - _h_riemann(eps, mu)) < 1e-9

    @pytest.mark.parametrize("eps, mu", [
        (math.nan, 1.0), (-1e-300, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -1.0),
        (0.1, math.inf), (0.1, math.nan), (0.1, -math.inf)])
    def test_bad_inputs_refused(self, eps, mu):
        with pytest.raises(InvalidParamsError):
            h_values(np.array([0.1, eps]), mu)
        with pytest.raises(InvalidParamsError):
            h_fn(eps, mu)
        if eps == 0.1:
            with pytest.raises(InvalidParamsError):
                simple_ratio(mu)

    def test_z_star_boundary(self):
        assert z_star(0.0, 1.0) == 0.0
        zs = z_star(0.1, 1.0)
        closed = 0.1 / (1.0 - (2.0 / 3.0) ** 0.5)
        assert zs == pytest.approx(closed, abs=1e-9)


class TestBalanceParams:
    def test_b2(self):
        tau, mu2 = balance_params(2.0, 0.25)
        assert (tau, mu2) == (0.25, 3.0)
        assert tau + mu2 * tau == pytest.approx(1.0)

    def test_b3(self):
        tau, mu2 = balance_params(3.0, 1.2)
        assert tau == pytest.approx(0.2)
        assert mu2 == pytest.approx(9.0)

    def test_invalid(self):
        with pytest.raises(InvalidParamsError):
            balance_params(3.0, 0.5)  # tau would be negative
        with pytest.raises(InvalidParamsError):
            balance_params(1.6, 0.3)  # mu2 would be negative

    @pytest.mark.parametrize("mu1", [1e-300, float("nan")])
    def test_tau_outside_open_interval(self, mu1):
        # tau = 2 + mu1 - b is 0 (or nan) here, and mu2 divides by tau.
        with pytest.raises(InvalidParamsError, match=r"outside \(0, 1\)"):
            balance_params(2.0, mu1)

    @pytest.mark.parametrize("b", [1.5, 1.2, -1.0])
    def test_b_at_most_three_halves(self, b):
        # Below the threshold there is no valid mu1, so no interval to suggest.
        with pytest.raises(InvalidParamsError, match="must exceed 1.5"):
            balance_params(b, 0.1)


class TestSimpleSolve:
    def test_bipartite_recovers_near_optimum(self):
        g = complete_bipartite(6, 6)
        rep = simple_solve(g, 1.0, seed=3, find_step_budget=60_000_000)
        assert rep.cut_value >= 0.9
        assert rep.cut_value >= cut_value(g, greedy_cut(g)) - 1e-12
        assert any(l["branch"] == "tripartition" for l in rep.levels)

    def test_report_value_matches_partition(self):
        rng = np.random.default_rng(6)
        g = random_graph(24, 0.25, rng)
        rep = simple_solve(g, 1.0, seed=1, find_step_budget=100_000)
        assert rep.cut_value == pytest.approx(cut_value(g, rep.left))

    def test_greedy_floor_any_graph(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            g = random_graph(int(rng.integers(10, 40)), 0.25, rng,
                             weighted=bool(seed % 2))
            rep = simple_solve(g, 1.0, seed=seed, find_step_budget=50_000)
            assert rep.cut_value >= 0.5 - 1e-12
            assert rep.cut_value >= cut_value(g, greedy_cut(g)) - 1e-12

    def test_xi_logged_in_unit_interval(self):
        g = complete_bipartite(6, 6)
        rep = simple_solve(g, 1.0, seed=3, find_step_budget=60_000_000)
        for lvl in rep.levels:
            if lvl["branch"] == "tripartition":
                assert 0.0 < lvl["xi"] <= 1.0

    def test_floor_graph_solved_once(self, triangle, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g.n)
            return brute_force_maxcut(g)

        monkeypatch.setattr(solver, "brute_force_maxcut", counting)
        rep = simple_solve(triangle, 1.0, seed=3)
        assert calls == [3]
        assert rep.levels == [{"branch": "brute-force", "depth": 0, "n": 3}] * 14
        assert rep.cut_value == pytest.approx(2 / 3)

    def test_planted_median(self):
        values = []
        for seed in range(10):
            inst = gen_planted(500, 0.05, 8, seed=seed)
            rep = simple_solve(inst.graph, 1.0, seed=seed,
                               find_step_budget=150_000)
            assert rep.cut_value <= 1.0 + 1e-12
            values.append(rep.cut_value)
        assert float(np.median(values)) >= 0.52


class TestBalanceSolve:
    def test_dumbbell_of_bipartite_blocks(self):
        # two complete-bipartite blocks joined by a single edge
        edges = []
        for base in (0, 12):
            for i in range(6):
                for j in range(6):
                    edges.append((base + i, base + 6 + j, 1.0))
        edges.append((0, 12, 1.0))
        g = WeightedGraph.from_edges(24, edges)
        rep = balance_solve(g, 2.0, 0.25, seed=2, find_step_budget=500_000)
        assert rep.cut_value >= 0.9
        side = np.zeros(24)
        for v in rep.left:
            side[v] = 1
        for base in (0, 12):
            block = list(range(base, base + 12))
            block_left = {v - base for v in block if side[v] == 1}
            sub, _ = g.induced(block)
            assert cut_value(sub, block_left) >= 0.9

    def test_never_below_greedy(self):
        rng = np.random.default_rng(9)
        for seed in range(4):
            g = random_graph(40, 0.15, rng)
            rep = balance_solve(g, 2.0, 0.25, seed=seed,
                                find_step_budget=100_000)
            assert rep.cut_value >= cut_value(g, greedy_cut(g)) - 1e-12

    def test_invalid_params_propagate(self, triangle):
        with pytest.raises(InvalidParamsError):
            balance_solve(triangle, 3.0, 0.5, seed=0)
        for probes in (0, -3, 2.5, "2", True):
            with pytest.raises(InvalidParamsError, match="probes"):
                simple_solve(triangle, 1.0, seed=0, probes=probes)
            with pytest.raises(InvalidParamsError, match="probes"):
                balance_solve(triangle, 2.0, 0.25, seed=0, probes=probes)
        for seed in (-1, 1.5, True, "7"):
            with pytest.raises(InvalidParamsError, match="seed"):
                simple_solve(triangle, 1.0, seed=seed)
            with pytest.raises(InvalidParamsError, match="seed"):
                balance_solve(triangle, 2.0, 0.25, seed=seed)
        # Both walk budgets are checked before any work, on a floor-size graph
        # and on one the walks would run on.
        g200 = load_graph(planted_file(200, 0.05, 8, 1))
        for g in (triangle, g200):
            for budget in (0, -5, 2.5, "x"):
                with pytest.raises(InvalidParamsError, match="cutbound_step_budget"):
                    balance_solve(g, 2.0, 0.25, seed=0, cutbound_step_budget=budget)
                with pytest.raises(InvalidParamsError, match="find_step_budget"):
                    simple_solve(g, 1.0, seed=0, find_step_budget=budget)
                with pytest.raises(InvalidParamsError, match="find_step_budget"):
                    balance_solve(g, 2.0, 0.25, seed=0, find_step_budget=budget)
            with pytest.raises(ResourceError, match="cutbound_step_budget"):
                balance_solve(g, 2.0, 0.25, seed=0, cutbound_step_budget=STEP_CAP + 1)
        rep = balance_solve(triangle, 2.0, 0.25, seed=0, cutbound_step_budget=np.int64(5_000))
        assert rep.cut_value == pytest.approx(2.0 / 3.0)

    def test_report_value_matches_partition(self):
        inst = gen_planted(120, 0.05, 6, seed=4)
        rep = balance_solve(inst.graph, 2.0, 0.25, seed=4,
                            find_step_budget=200_000)
        assert rep.cut_value == pytest.approx(cut_value(inst.graph, rep.left))

    def test_many_tiny_blocks(self):
        # Probes keep peeling blocks of 3-10 vertices: 1,170 levels of one
        # block each, far deeper than Python's recursion limit.
        k = 1500
        edges = [(3 * i + a, 3 * i + b, 1.0)
                 for i in range(k) for a, b in ((0, 1), (1, 2), (0, 2))]
        g = WeightedGraph.from_edges(3 * k, edges)
        rep = balance_solve(g, 2.0, 0.25, seed=42, find_step_budget=20_000,
                            cutbound_step_budget=5_000, probes=1)
        assert rep.cut_value == pytest.approx(2 / 3)
        assert rep.cut_value == cut_value(g, rep.left)
        blocks = [l for l in rep.levels if l["branch"] == "low-conductance"]
        assert len(blocks) > 1000


# SHA-256 of to_json() for fixed seeds on the committed planted files,
# recorded before the solvers' levels became loops; a change here is a change
# of fixed-seed output.
GOLDEN_REPORTS = {
    ((60, 0.05, 6, 9), 42, "simple"):
        "6a5dae7983ea8c48507e9484947c0e4e66777d706b7587a2498cd03bcda87d96",
    ((60, 0.05, 6, 9), 42, "balance"):
        "6851fdfbc5527ef3c502a0f9fa5dd8c1ca945f317b95a5d5fe3ec3e44010403c",
    ((60, 0.05, 6, 9), 7, "simple"):
        "9952e2c7c9843f1e19456299a4a8e55c193245e7f55ea46b5460fb604667fdda",
    ((60, 0.05, 6, 9), 7, "balance"):
        "9c2245fb0f816ef044d5f8eec6981fa46c1a6f334593338ffe5b793f243a75f0",
    ((1000, 0.05, 8, 101000), 42, "simple"):
        "50727d8b4859740fdffe6ad9c35077c9f6c54a8182eacd523252c9cddbbdfc0d",
    ((1000, 0.05, 8, 101000), 42, "balance"):
        "f2333869585c1c8d9a882543b04ac3cbc057093c6ca6eaac4ae8c73bb0888224",
    ((1000, 0.05, 8, 101000), 7, "simple"):
        "83a3447511179e945fc8242a55399f9ffd940cdf7099c128cff121dd3feba6bc",
    ((1000, 0.05, 8, 101000), 7, "balance"):
        "17654f6a921b3350f2e92eb08f7a3e81b4db650e6df2b33c0464a2f12ac9aafe",
}


@pytest.mark.parametrize("planted", [(60, 0.05, 6, 9), (1000, 0.05, 8, 101000)],
                         ids=["n60", "n1000"])
def test_golden_reports(planted):
    g = load_graph(str(planted_file(*planted)))
    for seed in (42, 7):
        reports = {
            "simple": simple_solve(g, 1.0, seed=seed),
            "balance": balance_solve(g, 2.0, 0.25, seed=seed,
                                     find_step_budget=150_000, probes=3,
                                     cutbound_step_budget=100_000),
        }
        for algo, rep in reports.items():
            digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
            assert digest == GOLDEN_REPORTS[(planted, seed, algo)], (seed, algo)


class TestAttribution:
    def test_greedy_wins_planted(self):
        g = gen_planted(1000, 0.05, 8, seed=1).graph
        rep = simple_solve(g, 1.0, seed=3, find_step_budget=300_000)
        assert rep.winner == "greedy"
        assert rep.walk_cut_value < rep.cut_value == cut_value(g, greedy_cut(g))

    @pytest.mark.parametrize("solve", [
        lambda g: simple_solve(g, 1.0, seed=3),
        lambda g: balance_solve(g, 2.0, 0.25, seed=3),
    ], ids=["simple", "balance"])
    def test_walks_win_triangle(self, triangle, solve):
        rep = solve(triangle)
        assert rep.winner == "walks"
        assert rep.walk_cut_value == rep.cut_value == pytest.approx(2 / 3)
        report = json.loads(rep.to_json())
        assert report["winner"] == "walks"
        assert report["walk_cut_value"] == rep.walk_cut_value


class TestTradeoff:
    def test_inner_lp_against_brute_grid(self):
        # independent oracle: direct minimization over an (eps_S, X, Z) grid
        eps1, mu1, mu2, tau = 0.03, 0.2, 3.0, 0.2
        phi = math.sqrt(4 * eps1 * tau / mu1)
        chi = 4 * phi / (1 - 2 * phi)
        h1 = float(h_values(eps1, mu1))
        es_grid = np.linspace(0, 0.5, 41)
        h_block = h_values(_EPS_S_GRID, mu2)
        for eps in (0.05, 0.12, 0.3):
            best = np.inf
            for es, hs in zip(es_grid, h_values(es_grid, mu2)):
                for x in np.linspace(0, 1 / (1 + chi), 41):
                    if es * x > eps:
                        continue
                    for z in np.linspace(0, 1, 41):
                        if es * x + eps1 * z > eps + 1e-12:
                            continue
                        y = 1 - (1 + chi) * x - z
                        if y < -1e-12:
                            continue
                        v = (hs + chi / 2) * x + h1 * max(y, 0.0) + z / 2
                        best = min(best, v / (1 - eps))
            mine = _adversary_lp(np.array([eps]), eps1, chi, h1, h_block).min() / (1 - eps)
            assert mine == pytest.approx(best, abs=2e-3)

    def test_ratio_bounds(self):
        r = tradeoff_objective(0.03, 0.2, 3.0, 0.2)
        assert 0.5 < r <= 1.0

    def test_chi_zero_reduces_to_sweepless_form(self):
        # tau = 0 means no crossing losses; ratio must improve on chi > 0
        r0 = tradeoff_objective(0.05, 0.5, 2.0, 0.0)
        r1 = tradeoff_objective(0.05, 0.5, 2.0, 0.4)
        assert r0 > 0.5
        assert r0 >= r1 - 1e-9

    def test_simple_ratio_reference_value(self):
        # test_curve_points_pinned[3.0] pins its hex.
        assert simple_ratio(1.0) == pytest.approx(0.5727, abs=0.002)

    def test_monotone_in_b(self):
        points = [best_tradeoff(b) for b in (1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0)]
        ratios = [p.ratio for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
        assert all(r > 0.5 for r in ratios)

    # At b <= 2 best_tradeoff returns this point: test_curve_points_pinned
    # pins b = 1.6 and b = 2.
    @pytest.mark.parametrize("b, expected", [
        (1.8, ("0x1.189a43d2c8cf8p-2", "0x1.e567109f959c4p-2",
               "0x1.6016719f36018p-1", "0x1.31e8c0e35066ep-6",
               "0x1.04deeb1293fc3p-1")),
        (2.5, ("0x1.4c33995582b9fp-1", "0x1.30ce65560ae80p-3",
               "0x1.228359cd116c3p+3", "0x1.e3c673b0ed5b1p-5",
               "0x1.10111957f1ef0p-1")),
        (3.0, ("0x1.24267a4267a42p+0", "0x1.2133d2133d210p-3",
               "0x1.a53808ca29c0bp+3", "0x1.236d5fb294873p-4",
               "0x1.131fd8f2619d5p-1")),
    ])
    def test_balance_points_pinned(self, b, expected):
        # (mu1, tau, mu2, eps1, ratio), the adversary LP solved exactly in the
        # block share and the adversary's deficit
        p = balance_tradeoff(b)
        assert (p.b, p.source) == (b, "balance")
        assert tuple(v.hex() for v in (p.mu1, p.tau, p.mu2, p.eps1, p.ratio)) == expected

    @pytest.mark.parametrize("b, expected", [
        (1.6, ("0x1.999999999999ap+0", "balance", "0x1.dfacdfceeb3f3p-4",
               "0x1.08c268c6aa34cp-1", "0x1.484aaef6decbfp-3",
               "0x1.f10b419c08693p-8", "0x1.01f4d7ae5b27ep-1")),
        (2.0, ("0x1.0000000000000p+1", "balance", "0x1.676b68bfdb1e3p-3",
               "0x1.676b68bfdb1e0p-3", "0x1.2cad46d9fc365p+2",
               "0x1.fe0573fba5c1bp-6", "0x1.082150cb595f3p-1")),
        (3.0, ("0x1.8000000000000p+1", "simple", "0x1.0000000000000p+0",
               "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0",
               "0x1.252d293bd429ep-1")),
        (1.5 + 1e-7, ("0x1.800001ad7f29bp+0", "balance", "0x1.12e0be851eb85p-28",
                      "0x1.fffff98ebb88cp-2", "0x1.a4e8290bd6011p-22",
                      "0x1.58ce91d797ff6p-37", "0x1.000010c6f8ba3p-1")),
        (2.5, ("0x1.4000000000000p+1", "simple", "0x1.0000000000000p-1",
               "0x0.0p+0", "0x1.0000000000000p-1", "0x0.0p+0",
               "0x1.1b912ce857456p-1")),
    ])
    def test_curve_points_pinned(self, b, expected):
        # Every field of best_tradeoff, with the adversary LP solved exactly in
        # the block share and the adversary's deficit.
        # np.linspace over the search's row endpoints changes formula for
        # every row once any row has zero width; no row here has.
        p = best_tradeoff(b)
        assert (p.b.hex(), p.source, *(v.hex() for v in (
            p.mu1, p.tau, p.mu2, p.eps1, p.ratio))) == expected

    def test_simple_point_where_no_mu1_is_left(self):
        # The search keeps 1e-9 inside the mu1 region (b - 2, b - 1), below
        # the float spacing at b = 1e9, so the block solver refuses this b;
        # the deficit-sweep solver covers every b > 2.
        p = best_tradeoff(1e9)
        assert p.source == "simple"
        assert p.ratio == simple_ratio(1e9 - 2)

    @pytest.mark.parametrize("tau", [float("nan"), -1.0, -1e-300, 1.0, 2.0])
    def test_tau_outside_unit_interval_refused(self, tau):
        with pytest.raises(InvalidParamsError, match=r"must lie in \[0, 1\)"):
            tradeoff_objective(0.03, 0.2, 3.0, tau)

    @pytest.mark.parametrize("mu1, mu2", [(-1.0, 3.0), (0.0, 3.0), (math.inf, 3.0),
                                          (math.nan, 3.0), (0.2, -1.0), (0.2, 0.0),
                                          (0.2, math.inf), (0.2, math.nan)])
    def test_mu_not_positive_and_finite_refused(self, mu1, mu2):
        with pytest.raises(InvalidParamsError, match="must be positive and finite"):
            tradeoff_objective(0.03, mu1, mu2, 0.2)

    @pytest.mark.parametrize("b", [1.5 + 1e-7, 1.5 + 1e-9, 1.5 + 1e-10,
                                   1.5 + 2**-51, 1.5 + 2**-52])
    def test_narrow_mu1_region(self, b):
        # The mu1 region (0, 2b - 3) is at most 2e-7 wide here: the search
        # stays inside it, or refuses b where the float ends of its range do
        # not give a positive tau and mu2.
        try:
            p = best_tradeoff(b)
        except InvalidParamsError as exc:
            assert str(exc) == f"no valid mu1 region for b = {b!r}"
        else:
            balance_params(b, p.mu1)
            assert p.ratio >= 0.5

    _OBJECTIVE_CASES = dict(
        mu1=st.floats(0.01, 1.5),
        tau=st.just(0.0) | st.floats(0.0, 0.99),
        mu2=st.floats(0.01, 3.0) | st.floats(3.0, 50.0),
        frac=st.just(1.0) | st.floats(1e-3, 1.0),
    )
    # eps1 = 0.06025690795091769, where a (61, 31, 31) refinement over the
    # adversary's deficit settled on the wrong tooth of the sawtooth ratio
    # and gave 0.5091553368; the minimum is 0.5091141832.
    _SAWTOOTH = dict(mu1=1.0, tau=0.5, mu2=0.5, frac=0.49189312612994035)

    @staticmethod
    def _eps1(mu1, tau, frac):
        cap = min(0.5, mu1 / (16.0 * tau) * 0.98) if tau > 0.0 else 0.5
        return cap * frac

    @settings(max_examples=40, deadline=None)
    @given(**_OBJECTIVE_CASES)
    @example(**_SAWTOOTH)
    def test_objective_at_most_dense_grid(self, mu1, tau, mu2, frac):
        # The dense grid's X values are feasible points of every row, so its
        # minimum can only be higher, up to rounding.
        eps1 = self._eps1(mu1, tau, frac)
        assert tradeoff_objective(eps1, mu1, mu2, tau) <= _dense_objective(
            eps1, mu1, mu2, tau) + 1e-12

    @settings(max_examples=8, deadline=None)
    @given(**_OBJECTIVE_CASES)
    @example(**_SAWTOOTH)
    def test_objective_within_dense_eps_grid(self, mu1, tau, mu2, frac):
        # Every grid deficit is a candidate of the exact minimum, so the grid
        # can only be higher; and it is higher by at most the grid spacing,
        # 2.5e-6, times the ratio's slope beside the minimizer.
        eps1 = self._eps1(mu1, tau, frac)
        dense = _dense_eps_objective(eps1, mu1, mu2, tau)
        assert dense - 2e-6 <= tradeoff_objective(eps1, mu1, mu2, tau) <= dense + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        mu1=st.floats(0.01, 1.5),
        tau=st.just(0.0) | st.floats(0.0, 0.99),
        mu2=st.floats(0.01, 3.0) | st.floats(3.0, 50.0),
        fracs=st.lists(st.sampled_from([1.0, 1e-3]) | st.floats(1e-3, 1.0),
                       min_size=1, max_size=12),
    )
    @example(mu1=0.2, tau=0.0, mu2=3.0, fracs=[1.0, 1e-3])
    @example(mu1=0.25, tau=0.25, mu2=3.0, fracs=[1e-3, 0.5, 1.0])
    def test_row_scorer_matches_pair_reference(self, mu1, tau, mu2, fracs):
        # Each eps1 is scored on its own knots, so an array of them gives the
        # floats of their one-element calls.
        eps1s = self._eps1(mu1, tau, np.array(fracs))
        expected = [tradeoff_objective(float(e), mu1, mu2, tau) for e in eps1s]
        assert _objectives(eps1s, mu1, mu2, tau).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(
        eps1=_LP_CASES["eps1"],
        chi=_LP_CASES["chi"],
        h1=_LP_CASES["h1"],
        hs=st.just(0.5) | st.floats(0.5, 1.0),
        row=st.integers(0, 120),
    )
    @example(eps1=0.1, chi=5.0, h1=0.51, hs=1.0, row=60)
    @example(eps1=0.5, chi=0.0, h1=1.0, hs=0.5, row=120)
    def test_lp_linear_between_knots(self, eps1, chi, h1, hs, row):
        # The lemma that makes the deficit search exact, checked with HiGHS
        # alone: between the knots eps1 and eps_S/(1+chi), clipped to the
        # searched range, a row's LP value is linear in eps, and it is at
        # least 1/2, so the ratio is monotone between knots.
        es = float(_EPS_S_GRID[row])
        knots = np.sort(np.clip([_EPS_LO, eps1, es / (1.0 + chi), _EPS_HI], _EPS_LO, _EPS_HI))
        for lo, hi in zip(knots.tolist(), knots[1:].tolist()):
            if hi <= lo:
                continue
            v_lo, v_hi = (_linprog_row(e, eps1, chi, h1, es, hs) for e in (lo, hi))
            assert min(v_lo, v_hi) >= 0.5 - 1e-12
            for eps in (lo + t * (hi - lo) for t in (0.1, 0.37, 0.5, 0.9)):
                share = (eps - lo) / (hi - lo)
                assert _linprog_row(eps, eps1, chi, h1, es, hs) == pytest.approx(
                    v_lo + share * (v_hi - v_lo), rel=0.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(**_LP_CASES)
    @_lp_examples(with_row=False)
    def test_adversary_lp_at_most_dense_grid(self, eps1, chi, h1, h_block, eps):
        # Any H values in [1/2, 1], not only those of h_fn.  Where a grid
        # column holds a row's minimizer, as on a row flat in X, the two
        # agree only to rounding.
        h_block, eps = np.array(h_block), np.array(eps)
        dense = np.array([_dense_lp(float(e), eps1, chi, h1, h_block) for e in eps]).T
        assert (_adversary_lp(eps, eps1, chi, h1, h_block) <= dense + 1e-12).all()

    @settings(max_examples=200, deadline=None)
    @given(**_LP_CASES, row=st.integers(0, 120))
    @_lp_examples(with_row=True)
    def test_adversary_lp_row_matches_linprog(self, eps1, chi, h1, h_block, eps, row):
        mine = _adversary_lp(np.array(eps), eps1, chi, h1, np.array(h_block))[row]
        exact = [_linprog_row(e, eps1, chi, h1, _EPS_S_GRID[row], h_block[row])
                 for e in eps]
        np.testing.assert_allclose(mine, exact, rtol=0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        eps1=st.floats(1e-3, 0.5),
        chi=st.just(0.0) | st.floats(0.0, 20.0),
        h1=st.just(0.5) | st.floats(0.5, 1.0),
        h_block=st.lists(st.just(0.5) | st.floats(0.5, 1.0),
                         min_size=121, max_size=121),
        fracs=st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=1, max_size=16),
    )
    def test_trivial_bound_decides_eps_at_least_eps1(self, eps1, chi, h1, h_block,
                                                     fracs):
        # The X = 0 cell is 1/2 there, so every row's value is at most 1/2,
        # and the ratio there is the trivial bound 1/(2(1 - eps)).
        h_block = np.array(h_block)
        eps = np.minimum(eps1 + np.array(fracs) * (0.5 - eps1), 0.5)
        dense = np.array([_dense_lp(float(e), eps1, chi, h1, h_block) for e in eps]).T
        assert (_adversary_lp(eps, eps1, chi, h1, h_block) <= 0.5).all()
        assert (dense <= 0.5).all()

    def test_eps_bar_formula(self):
        assert eps_bar(1.0) == pytest.approx(1.0 - 0.75**0.5)
        assert eps_bar(0.25) == pytest.approx(1.0 - 0.75**0.2)
