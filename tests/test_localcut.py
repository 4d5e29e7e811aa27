import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from rwcut.bench import gen_planted
from rwcut.errors import InvalidInputError, InvalidParamsError, ResourceError
from rwcut.graph import WeightedGraph, conductance, load_graph
from rwcut.localcut import (
    LowConductanceCut,
    ProbabilityBound,
    cut_or_bound,
    solve_phi,
)
from rwcut.walks import exact_walk_distribution

from conftest import complete_graph, dumbbell, planted_file, random_graph, reweighted
from oracles import build_ls_curve, ls_chord_check


def _phi_forward(phi):
    # -ln((a + b) / 2) with a, b = sqrt(1 -+ 2 phi), written as a log1p of
    # (a + b) / 2 - 1 = -4 phi^2 / ((a + b)(1 + a)(1 + b)), so that small
    # phi loses no digits to cancellation.
    a, b = math.sqrt(1 - 2 * phi), math.sqrt(1 + 2 * phi)
    return -math.log1p(-4 * phi * phi / ((a + b) * (1 + a) * (1 + b)))


class TestSolvePhi:
    def test_zero(self):
        assert solve_phi(0.0) == 0.0

    def test_inverse_residual(self):
        for psi in (1e-4, 0.005, 0.02, 0.08, 0.125):
            phi = solve_phi(psi)
            assert _phi_forward(phi) == pytest.approx(psi, rel=1e-14, abs=0.0)

    def test_taylor_regime(self):
        phi = solve_phi(0.02)
        assert abs(phi - math.sqrt(2 * 0.02)) < 0.01

    def test_chord_decay_dominates_quadratic(self):
        for psi in np.linspace(1e-4, 0.125, 40):
            phi = solve_phi(float(psi))
            assert psi >= phi * phi / 2.0 - 1e-12

    def test_strictly_increasing(self):
        grid = np.linspace(1e-4, 0.125, 60)
        phis = [solve_phi(float(p)) for p in grid]
        assert all(b > a for a, b in zip(phis, phis[1:]))

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            solve_phi(0.2)
        with pytest.raises(InvalidInputError):
            solve_phi(-0.01)


class TestLSCurve:
    def test_stationary_is_straight_line(self):
        rng = np.random.default_rng(1)
        g = random_graph(12, 0.4, rng, weighted=True)
        p = g.degrees / g.total_weight
        curve = build_ls_curve(g, p)
        xs = np.linspace(0, 2 * g.total_weight, 50)
        assert np.allclose(curve(xs), xs / (2 * g.total_weight), atol=1e-12)

    def test_point_mass(self, triangle):
        p = np.array([0.0, 1.0, 0.0])
        curve = build_ls_curve(triangle, p)
        d1 = triangle.degrees[1]
        for x in np.linspace(0, 12, 25):
            assert curve(x) == pytest.approx(min(x / (2 * d1), 1.0))

    def test_dominates_stationary(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_graph(10, 0.5, rng, weighted=True)
            p = rng.random(g.n)
            p /= p.sum()
            curve = build_ls_curve(g, p)
            xs = np.linspace(0, 2 * g.total_weight, 40)
            assert np.all(curve(xs) >= xs / (2 * g.total_weight) - 1e-12)

    def test_concave_nondecreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(11, 0.4, rng)
            p = rng.random(g.n)
            p /= p.sum()
            c = build_ls_curve(g, p)
            slopes = np.diff(c.y) / np.diff(c.x)
            assert np.all(np.diff(c.y) >= -1e-15)
            assert np.all(np.diff(slopes) <= 1e-12)

    def test_endpoints(self):
        rng = np.random.default_rng(4)
        g = random_graph(9, 0.5, rng)
        p = rng.random(g.n)
        p /= p.sum()
        c = build_ls_curve(g, p)
        assert c(0.0) == 0.0
        assert c(2 * g.total_weight) == pytest.approx(1.0)

    def test_rejects_bad_mass(self, triangle):
        with pytest.raises(InvalidInputError):
            build_ls_curve(triangle, np.array([0.5, 0.2, 0.2]))


class TestChordInequality:
    def test_full_set_trivial(self, triangle):
        assert ls_chord_check(triangle, 0, 1, {0, 1, 2})

    def test_random_battery(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            g = random_graph(int(rng.integers(4, 31)), 0.3, rng,
                             weighted=bool(rng.random() < 0.5))
            start = int(np.argmax(g.degrees))
            l = int(rng.integers(1, 9))
            k = int(rng.integers(1, g.n))
            s = set(rng.permutation(g.n)[:k].tolist())
            assert ls_chord_check(g, start, l, s)
            checked += 1

    def test_curve_flattens_per_step(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_graph(14, 0.35, rng, weighted=True)
            start = int(np.argmax(g.degrees))
            prev = build_ls_curve(g, exact_walk_distribution(g, start, 0)[0])
            for l in range(1, 11):
                cur = build_ls_curve(g, exact_walk_distribution(g, start, l)[0])
                xs = np.unique(np.concatenate((prev.x, cur.x)))
                assert np.all(cur(xs) <= prev(xs) + 1e-12)
                prev = cur


class TestCutOrBound:
    def test_dumbbell_finds_local_cut(self):
        g = dumbbell(20)
        res = cut_or_bound(g, 5, tau=0.25, zeta=0.5, seed=4)
        assert isinstance(res, LowConductanceCut)
        assert res.conductance < res.phi
        # recomputation matches the incremental sweep value
        assert conductance(g, res.vertices) == pytest.approx(res.conductance)
        # the cut stays on the start's side of the dumbbell
        assert all(v < 20 for v in res.vertices)

    # On dumbbell(5) with these parameters the walk length is 8.
    @pytest.mark.parametrize("cap", [0, -5, 1, 7])
    def test_walk_step_cap_below_one_refused(self, cap):
        with pytest.raises(InvalidParamsError, match="max_walk_steps"):
            cut_or_bound(dumbbell(5), 0, tau=0.25, zeta=0.5, seed=1, max_walk_steps=cap)

    @pytest.mark.parametrize("cap, error", [("x", InvalidParamsError),
                                            (2000.5, InvalidParamsError),
                                            (10**12, ResourceError)])
    def test_walk_step_cap_checked_as_a_step_budget(self, cap, error):
        g = load_graph(planted_file(200, 0.05, 8, 1))
        with pytest.raises(error, match="max_walk_steps"):
            cut_or_bound(g, 0, tau=0.25, zeta=0.45, seed=1, max_walk_steps=cap)

    def test_walk_step_cap_of_one_walk(self):
        res = cut_or_bound(dumbbell(5), 0, tau=0.25, zeta=0.5, seed=1, max_walk_steps=8)
        assert res.walks == 1

    def test_non_integer_start_refused(self):
        with pytest.raises(InvalidInputError, match="not an integer in"):
            cut_or_bound(dumbbell(5), 1.5, tau=0.25, zeta=0.5, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_refused_as_a_param(self, seed):
        # Refused before any work, as the solvers refuse it.
        g = load_graph(planted_file(200, 0.05, 8, 1))
        with pytest.raises(InvalidParamsError, match="seed"):
            cut_or_bound(g, 0, tau=0.25, zeta=0.45, seed=seed)

    def test_complete_graph_bound_branch(self):
        g = complete_graph(50)
        res = cut_or_bound(g, 0, tau=0.15, zeta=0.21, seed=4)
        assert isinstance(res, ProbabilityBound)
        p, _ = exact_walk_distribution(g, 0, res.length)
        assert float((p / (2 * g.degrees)).max()) <= res.alpha_bound

    def test_cut_soundness_random_graphs(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            g = random_graph(60, 0.12, rng)
            res = cut_or_bound(g, int(np.argmax(g.degrees)), tau=0.25,
                               zeta=0.45, seed=seed)
            if isinstance(res, LowConductanceCut):
                assert conductance(g, res.vertices) < res.phi
            else:
                p, _ = exact_walk_distribution(g, int(np.argmax(g.degrees)),
                                               res.length)
                assert float((p / (2 * g.degrees)).max()) <= res.alpha_bound

    def test_capped_probe_holds_less_than_a_dense_tally(self):
        # On planted-100k the capped probe finds its cut within two steps, so
        # its walk state must stay below the (2, 32, n) int64 tally that
        # drawing every length up front would fill.
        g = gen_planted(100_000, 0.05, 8, 1).graph
        g.alias_table()  # built once per graph, not per probe
        tracemalloc.start()
        try:
            res = cut_or_bound(g, 0, 0.25, 0.45, seed=1, max_walk_steps=2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(res, LowConductanceCut) and res.length <= 2
        assert res.walks == 2_000_000 // 31
        assert peak < 2 * 32 * g.n * 8

    def test_empirical_curve_sandwich(self):
        # (1-d)I - d*a*x <= I_hat <= (1+d)I + d*a*x with d = 1/ell, for the
        # same walk budget cut_or_bound uses
        from rwcut.walks import WalkConfig, run_walks

        rng = np.random.default_rng(8)
        bad = 0
        trials = 20
        for seed in range(trials):
            g = random_graph(20, 0.25, rng)
            start = int(np.argmax(g.degrees))
            tau, zeta = 0.25, 0.45
            m = g.total_weight
            alpha = m**-tau
            ell = max(1, math.ceil(math.log(m) / zeta))
            w = math.ceil(30 * ell * ell * math.log(g.n) / alpha)
            tally = run_walks(g, start, WalkConfig(length=ell, walks=w,
                                                   record_per_length=True,
                                                   seed=seed))
            delta = 1.0 / ell
            ok = True
            for l in range(ell + 1):
                ev, od = tally.counts_at(l)
                emp = (ev + od) / w
                ihat = build_ls_curve(g, emp)
                ifull = build_ls_curve(g, exact_walk_distribution(g, start, l)[0])
                xs = np.unique(np.concatenate((ihat.x, ifull.x)))
                lo = (1 - delta) * ifull(xs) - delta * alpha * xs
                hi = (1 + delta) * ifull(xs) + delta * alpha * xs
                vals = ihat(xs)
                if not (np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)):
                    ok = False
                    break
            if not ok:
                bad += 1
        assert bad <= 1  # >= 95% of seeds


def _capped(g, zeta, walks):
    """A max_walk_steps that buys cut_or_bound exactly `walks` walks."""
    return walks * max(1, math.ceil(math.log(g.total_weight) / zeta))


def _canonical(res):
    """repr of a probe result with its vertex set sorted."""
    fields = dataclasses.asdict(res)
    if "vertices" in fields:
        fields["vertices"] = sorted(fields["vertices"])
    return f"{type(res).__name__}{fields!r}"


class TestPinnedProbes:
    """Probe results pinned on the per-walk kernel, before probes drew lazily."""

    def test_results_pinned(self):
        p200 = load_graph(planted_file(200, 0.05, 8, 1))
        p1k = load_graph(planted_file(1000, 0.05, 8, 101000))
        p10k = gen_planted(10_000, 0.05, 8, 1).graph
        frac10k = reweighted(p10k, 1)
        frac60 = reweighted(random_graph(60, 0.12, np.random.default_rng(1)), 1)
        k50 = complete_graph(50)
        # The last vertex of each has no edge: every walk from it stays put.
        bell = WeightedGraph.from_arrays(11, *dumbbell(5).edge_arrays())
        k12 = WeightedGraph.from_arrays(13, *complete_graph(12).edge_arrays())
        blocks3 = 3 * 4096 - 5
        cases = [  # graph, start, tau, zeta, seed, max_walk_steps
            (dumbbell(20), 5, 0.25, 0.5, 4, None),
            (k50, 0, 0.15, 0.21, 4, _capped(k50, 0.21, 2000)),
            (k50, 0, 0.15, 0.21, 4, _capped(k50, 0.21, 40)),
            (p200, 0, 0.1, 0.45, 3, None),
            (p200, 1, 0.1, 0.45, 3, None),
            (p200, 1, 0.1, 0.45, 3, _capped(p200, 0.45, 150)),
            (p1k, 0, 0.25, 0.45, 1, 100_000),
            (p10k, 0, 0.25, 0.45, 1, _capped(p10k, 0.45, blocks3)),
            (frac10k, 0, 0.25, 0.45, 1, _capped(frac10k, 0.45, 9000)),
            (frac10k, 1, 0.1, 0.45, 1, _capped(frac10k, 0.45, blocks3)),
            (frac60, 9, 0.05, 0.45, 2, None),
            (frac60, 7, 0.05, 0.45, 2, None),
            (frac60, 9, 0.05, 0.45, 2, _capped(frac60, 0.45, 55)),
            (bell, 10, 0.25, 0.5, 1, None),
            (bell, 10, 0.25, 0.5, 1, _capped(bell, 0.5, 11)),
            (k12, 12, 0.15, 0.21, 1, None),
            (k12, 12, 0.15, 0.21, 1, _capped(k12, 0.21, 13)),
        ]
        text, seen = [], set()
        for g, start, tau, zeta, seed, cap in cases:
            res = cut_or_bound(g, start, tau, zeta, seed=seed, max_walk_steps=cap)
            text.append(_canonical(res))
            seen.add((type(res), res.walks <= g.n))
        # Both result kinds on both sides of the walks <= n rule.
        assert seen == {(k, s) for k in (LowConductanceCut, ProbabilityBound)
                        for s in (False, True)}
        digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
        assert digest == "d4786bd5283fffe036061dda86a3b4be2d26a7607150042a5dd60c7454b49ab1"
