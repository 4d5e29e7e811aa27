import math

import numpy as np
import pytest

from rwcut.errors import InvalidInputError
from rwcut.graph import conductance
from rwcut.localcut import (
    LowConductanceCut,
    ProbabilityBound,
    build_ls_curve,
    cut_or_bound,
    ls_chord_check,
    solve_phi,
)
from rwcut.walks import exact_walk_distribution

from conftest import complete_graph, dumbbell, random_graph


def _phi_forward(phi):
    return -math.log(0.5 * (math.sqrt(1 - 2 * phi) + math.sqrt(1 + 2 * phi)))


class TestSolvePhi:
    def test_zero(self):
        assert solve_phi(0.0) == 0.0

    def test_inverse_residual(self):
        for psi in (1e-4, 0.005, 0.02, 0.08, 0.125):
            phi = solve_phi(psi)
            assert _phi_forward(phi) == pytest.approx(psi, abs=1e-10)

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
        p = np.array([1.0, 0.0, 0.0])
        assert ls_chord_check(triangle, p, {0, 1, 2})

    def test_random_battery(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            g = random_graph(int(rng.integers(4, 31)), 0.3, rng,
                             weighted=bool(rng.random() < 0.5))
            start = int(np.argmax(g.degrees))
            l = int(rng.integers(1, 9))
            d = exact_walk_distribution(g, start, l, record_per_length=True)
            k = int(rng.integers(1, g.n))
            s = set(rng.permutation(g.n)[:k].tolist())
            assert ls_chord_check(g, d.prob(l - 1), s)
            checked += 1

    def test_curve_flattens_per_step(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_graph(14, 0.35, rng, weighted=True)
            start = int(np.argmax(g.degrees))
            d = exact_walk_distribution(g, start, 10, record_per_length=True)
            prev = build_ls_curve(g, d.prob(0))
            for l in range(1, 11):
                cur = build_ls_curve(g, d.prob(l))
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

    def test_complete_graph_bound_branch(self):
        g = complete_graph(50)
        res = cut_or_bound(g, 0, tau=0.15, zeta=0.21, seed=4)
        assert isinstance(res, ProbabilityBound)
        d = exact_walk_distribution(g, 0, res.length)
        assert float((d.p / (2 * g.degrees)).max()) <= res.alpha_bound

    def test_cut_soundness_random_graphs(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            g = random_graph(60, 0.12, rng)
            res = cut_or_bound(g, int(np.argmax(g.degrees)), tau=0.25,
                               zeta=0.45, seed=seed)
            if isinstance(res, LowConductanceCut):
                assert conductance(g, res.vertices) < res.phi
            else:
                d = exact_walk_distribution(g, int(np.argmax(g.degrees)),
                                            res.length)
                assert float((d.p / (2 * g.degrees)).max()) <= res.alpha_bound

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
            d = exact_walk_distribution(g, start, ell, record_per_length=True)
            delta = 1.0 / ell
            ok = True
            for l in range(ell + 1):
                ev, od = tally.counts_at(l)
                emp = (ev + od) / w
                ihat = build_ls_curve(g, emp)
                ifull = build_ls_curve(g, d.prob(l))
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
