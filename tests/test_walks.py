import sys

import numpy as np
import pytest

from rwcut.errors import InvalidInputError, ResourceError
from rwcut.spectral import power_laplacian_vector
from rwcut.walks import (
    WalkAccumulator,
    WalkConfig,
    WalkTally,
    exact_walk_distribution,
    run_walks,
    signed_estimate,
    signed_estimates,
)

from conftest import make_graph, random_graph


class TestRunWalks:
    def test_zero_length(self, single_edge):
        t = run_walks(single_edge, 0, WalkConfig(length=0, walks=5, seed=1))
        assert t.even[0] == 5
        assert t.odd.sum() == 0
        assert t.even[1] == 0

    def test_lazy_move_fraction(self, single_edge):
        t = run_walks(single_edge, 0, WalkConfig(length=1, walks=100_000, seed=3))
        frac_odd_at_b = t.odd[1] / 100_000
        assert abs(frac_odd_at_b - 0.5) < 0.01

    def test_conservation_every_length(self):
        rng = np.random.default_rng(2)
        g = random_graph(12, 0.4, rng)
        t = run_walks(g, 3, WalkConfig(length=9, walks=4321, seed=9,
                                       record_per_length=True))
        for l in range(10):
            ev, od = t.counts_at(l)
            assert int(ev.sum() + od.sum()) == 4321

    def test_degree_zero_start_walks_in_place(self):
        g = make_graph(3, [(0, 1, 1)])
        t = run_walks(g, 2, WalkConfig(length=4, walks=50, seed=5))
        assert t.even[2] == 50
        assert t.odd.sum() == 0

    def test_thread_count_invariance(self, single_edge):
        cfg = WalkConfig(length=5, walks=20_000, seed=42)
        a = run_walks(single_edge, 0, cfg)
        b = run_walks(single_edge, 0, cfg, threads=8)
        assert np.array_equal(a.even, b.even) and np.array_equal(a.odd, b.odd)

    def test_threaded_block_adds_lose_no_update(self):
        # More workers than cores and a tiny switch interval, so block
        # tallies land in the shared totals concurrently and out of order.
        g = random_graph(30, 0.2, np.random.default_rng(4))
        cfg = WalkConfig(length=6, walks=12 * 4096 + 5, seed=8,
                         record_per_length=True)
        ref = run_walks(g, 0, cfg)
        acc_ref = WalkAccumulator(g, 0, 6, seed=8)
        acc_ref.extend_to(cfg.walks)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_walks(g, 0, cfg, threads=6)
            acc = WalkAccumulator(g, 0, 6, seed=8, threads=6)
            acc.extend_to(cfg.walks)
        finally:
            sys.setswitchinterval(old)
        assert np.array_equal(got.even, ref.even)
        assert np.array_equal(got.odd, ref.odd)
        assert np.array_equal(acc.tally().even, acc_ref.tally().even)
        assert np.array_equal(acc.tally().odd, acc_ref.tally().odd)

    def test_invalid_start(self, single_edge):
        with pytest.raises(InvalidInputError):
            run_walks(single_edge, 7, WalkConfig(length=1, walks=1, seed=0))

    def test_caps_enforced(self, single_edge):
        with pytest.raises(ResourceError):
            run_walks(single_edge, 0, WalkConfig(length=201, walks=1, seed=0))
        with pytest.raises(ResourceError):
            run_walks(single_edge, 0,
                      WalkConfig(length=100, walks=10**9, seed=0))

    def test_diagnostic_dump(self, single_edge):
        import io

        t = run_walks(single_edge, 0, WalkConfig(length=2, walks=100, seed=1,
                                                 record_per_length=True))
        buf = io.StringIO()
        t.dump(buf)
        rows = [line.split() for line in buf.getvalue().splitlines()]
        assert all(len(r) == 4 for r in rows)
        l0 = [r for r in rows if r[1] == "0"]
        assert l0 == [["0", "0", "100", "0"]]


class TestAccumulator:
    def test_topup_matches_fresh_run(self, single_edge):
        acc = WalkAccumulator(single_edge, 0, 6, seed=11)
        for target in (37, 120, 4096, 5000, 9000):
            acc.extend_to(target)
            fresh = run_walks(single_edge, 0,
                              WalkConfig(length=6, walks=target, seed=11))
            got = acc.tally()
            assert np.array_equal(got.even, fresh.even)
            assert np.array_equal(got.odd, fresh.odd)

    def test_steps_accounting(self, single_edge):
        acc = WalkAccumulator(single_edge, 0, 4, seed=1)
        acc.extend_to(10)
        assert acc.steps_sampled == 40
        before = acc.steps_sampled
        acc.extend_to(20)  # tail redraw: 20 more walks of length 4
        assert acc.steps_sampled == before + 80


class TestSignedEstimate:
    def test_arithmetic(self, single_edge):
        t = WalkTally(n=2, length=1, walks=100,
                      even=np.array([30, 0]), odd=np.array([10, 0]))
        g = make_graph(2, [(0, 1, 2)])
        assert signed_estimate(t, g, 0) == pytest.approx((30 - 10) / (2.0 * 100))

    def test_unreached_vertex_is_zero(self, single_edge):
        t = run_walks(single_edge, 0, WalkConfig(length=0, walks=10, seed=0))
        assert signed_estimate(t, single_edge, 1) == 0.0

    def test_degree_zero_returns_zero(self):
        g = make_graph(3, [(0, 1, 1)])
        t = run_walks(g, 2, WalkConfig(length=2, walks=10, seed=0))
        assert signed_estimate(t, g, 2) == 0.0

    def test_converges_to_exact(self, single_edge):
        t = run_walks(single_edge, 0,
                      WalkConfig(length=1, walks=200_000, seed=8))
        est = signed_estimate(t, single_edge, 1)
        assert abs(est - (-0.5)) < 0.01


class TestExactDistribution:
    def test_single_edge_one_step(self, single_edge):
        d = exact_walk_distribution(single_edge, 0, 1)
        assert np.allclose(d.p, [0.5, 0.5])
        assert np.allclose(d.s, [0.5, -0.5])

    def test_zero_length_indicator(self, triangle):
        d = exact_walk_distribution(triangle, 1, 0)
        assert np.array_equal(d.p, [0.0, 1.0, 0.0])
        assert np.array_equal(d.s, [0.0, 1.0, 0.0])

    def test_conservation(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(15, 0.3, rng, weighted=True)
            start = int(np.argmax(g.degrees))
            d = exact_walk_distribution(g, start, 20, record_per_length=True)
            for l in range(21):
                p = d.prob(l)
                assert abs(float(p.sum()) - 1.0) < 1e-12
                assert np.all(p >= -1e-15)
                assert np.all(p + 1e-15 >= np.abs(d.signed(l)))

    def test_laplacian_power_identity(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            g = random_graph(int(rng.integers(4, 40)), 0.3, rng,
                             weighted=(trial % 2 == 0))
            starts = [v for v in range(g.n) if g.degrees[v] > 0][:4]
            for s in starts:
                d = exact_walk_distribution(g, s, 12, record_per_length=True)
                for l in (0, 3, 7, 12):
                    assert np.abs(
                        d.signed_vector(g, l) - power_laplacian_vector(g, s, l)
                    ).max() < 1e-9

    def test_sampling_consistency(self):
        # max_j |signed_estimate(j) - s(j)/d_j| small for w = 1e6 walks
        rng = np.random.default_rng(42)
        failures = 0
        trials = 20
        for i in range(trials):
            g = random_graph(int(rng.integers(6, 61)), 0.15, rng)
            start = int(np.argmax(g.degrees))
            ell = 5
            d = exact_walk_distribution(g, start, ell)
            exact = np.zeros(g.n)
            mask = g.degrees > 0
            exact[mask] = d.s[mask] / g.degrees[mask]
            t = run_walks(g, start, WalkConfig(length=ell, walks=1_000_000,
                                               seed=1000 + i))
            err = np.abs(signed_estimates(t, g) - exact).max()
            if err > 0.01:
                failures += 1
        assert failures <= 1  # >= 95% of seeds within tolerance

    def test_budget_guard(self):
        g = make_graph(2, [(0, 1, 1)])
        with pytest.raises(InvalidInputError):
            exact_walk_distribution(g, 0, -1)
