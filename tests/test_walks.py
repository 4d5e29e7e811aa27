import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwcut import walks
from rwcut.bench import gen_planted
from rwcut.errors import InvalidInputError, ResourceError
from rwcut.graph import WeightedGraph, load_graph
from rwcut.threshold import AlgoParams, find_threshold
from rwcut.walks import (
    BLOCK_WALKS,
    WalkAccumulator,
    WalkConfig,
    WalkTally,
    exact_walk_distribution,
    run_walks,
)

from conftest import (dumbbell, make_graph, planned_pool, planted_file, random_graph,
                      reweighted)
from oracles import power_laplacian_vector, signed_estimates


def _tallies_digest(record_per_length):
    """SHA-256 over run_walks tallies of several blocks plus a partial one,
    a degree-0 start, fractional weights and planted instances."""
    p200 = load_graph(planted_file(200, 0.05, 8, 1))
    p1k = load_graph(planted_file(1000, 0.05, 8, 101000))
    frac10k = reweighted(gen_planted(10_000, 0.05, 8, 1).graph, 1)
    # Vertex 10 has no edge: every walk from it stays put.
    bell = WeightedGraph.from_arrays(11, *dumbbell(5).edge_arrays())
    cases = [  # graph, start, length, walks, seed
        (random_graph(40, 0.15, np.random.default_rng(3), weighted=True), 0, 7,
         3 * BLOCK_WALKS + 17, 5),
        (p200, 1, 15, 150, 3),
        (p200, 3, 0, 7, 1),
        (p1k, 0, 19, 5000, 1),
        (frac10k, 0, 24, 9000, 2),
        (bell, 10, 4, 11, 1),
        (bell, 10, 4, 5000, 1),
    ]
    digest = hashlib.sha256()
    for g, start, length, count, seed in cases:
        t = run_walks(g, start, WalkConfig(length=length, walks=count, seed=seed,
                                           record_per_length=record_per_length))
        digest.update(t.even.tobytes() + t.odd.tobytes())
    return digest.hexdigest()


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

    def test_seed_is_not_taken_modulo_2_64(self):
        g = gen_planted(200, 0.05, 8, 1).graph
        a, b = (run_walks(g, 0, WalkConfig(length=9, walks=1000, seed=s))
                for s in (1, 2**64 + 1))
        assert not (np.array_equal(a.even, b.even) and np.array_equal(a.odd, b.odd))

    def test_degree_zero_start_per_length(self):
        g = make_graph(3, [(0, 1, 1)])
        t = run_walks(g, 2, WalkConfig(length=4, walks=50, seed=5,
                                       record_per_length=True))
        for l in range(5):
            ev, od = t.counts_at(l)
            assert ev[2] == 50 and ev.sum() == 50 and od.sum() == 0

    def test_per_length_thread_count_invariance(self):
        g = random_graph(40, 0.15, np.random.default_rng(3), weighted=True)
        cfg = WalkConfig(length=7, walks=3 * 4096 + 17, seed=5,
                         record_per_length=True)
        a = run_walks(g, 0, cfg)
        b = run_walks(g, 0, cfg, threads=3)
        assert np.array_equal(a.even, b.even) and np.array_equal(a.odd, b.odd)

    def test_invalid_start(self, single_edge):
        with pytest.raises(InvalidInputError):
            run_walks(single_edge, 7, WalkConfig(length=1, walks=1, seed=0))

    @pytest.mark.parametrize("start", [1.5, 0.0, "0", True, 2.5, float("nan"), -1])
    def test_non_integer_start_refused(self, single_edge, start):
        with pytest.raises(InvalidInputError, match="not an integer in"):
            run_walks(single_edge, start, WalkConfig(length=1, walks=1, seed=0))
        with pytest.raises(InvalidInputError, match="not an integer in"):
            WalkAccumulator(single_edge, start, 1, 0, 1)
        with pytest.raises(InvalidInputError, match="not an integer in"):
            exact_walk_distribution(single_edge, start, 1)
        # The walk layer's other integers are refused alike, before any draw.
        for field in ("length", "walks", "seed"):
            cfg = replace(WalkConfig(length=1, walks=1, seed=0), **{field: start})
            with pytest.raises(InvalidInputError, match="must be an integer"):
                run_walks(single_edge, 0, cfg)
        with pytest.raises(InvalidInputError, match="must be an integer"):
            WalkAccumulator(single_edge, 0, 1, start, 1).extend_to(1)
        with pytest.raises(InvalidInputError, match="must be an integer"):
            exact_walk_distribution(single_edge, 0, start)

    def test_numpy_integer_start_accepted(self, single_edge):
        cfg = WalkConfig(length=3, walks=50, seed=2)
        a = run_walks(single_edge, np.int32(1), cfg)
        b = run_walks(single_edge, 1, cfg)
        assert np.array_equal(a.even, b.even) and np.array_equal(a.odd, b.odd)
        acc = WalkAccumulator(single_edge, np.int64(1), 3, 2, 50)
        acc.extend_to(50)
        assert np.array_equal(acc.counts[:single_edge.n], b.even)
        c = run_walks(single_edge, 1, WalkConfig(length=np.int64(3), walks=np.int32(50),
                                                 seed=np.uint64(2)))
        assert np.array_equal(c.even, b.even) and np.array_equal(c.odd, b.odd)

    @pytest.mark.parametrize("l", [-1, 4, 10])
    def test_counts_at_outside_the_tally_refused(self, single_edge, l):
        t = run_walks(single_edge, 0, WalkConfig(length=3, walks=10, seed=1,
                                                 record_per_length=True))
        with pytest.raises(InvalidInputError, match="outside the tally"):
            t.counts_at(l)

    def test_final_tallies_pinned(self):
        # Recorded on the final-length block loop before it became the pool.
        assert _tallies_digest(record_per_length=False) == (
            "6a34f7f0304b53e97ff9057397a0c5077dd9cf07ca95ae2bd3b2e39ccff26f9a")

    def test_final_tally_holds_one_block(self):
        # The walks are counted block by block, so a million of them take the
        # room of the (2, n) tally and one block, not 8 bytes each.
        g = gen_planted(1000, 0.05, 8, 1).graph
        g.alias_table()  # built once per graph, not per call
        tracemalloc.start()
        try:
            t = run_walks(g, 0, WalkConfig(length=10, walks=1_000_000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(t.even.sum() + t.odd.sum()) == 1_000_000
        assert peak < 2_000_000

    def test_caps_enforced(self, single_edge):
        with pytest.raises(ResourceError):
            run_walks(single_edge, 0, WalkConfig(length=201, walks=1, seed=0))
        with pytest.raises(ResourceError):
            run_walks(single_edge, 0,
                      WalkConfig(length=100, walks=10**9, seed=0))


class TestAccumulator:
    def test_topup_matches_fresh_run(self, single_edge):
        targets = (37, 120, 4096, 5000, 9000)
        acc = WalkAccumulator(single_edge, 0, 6, 11, max(targets))
        for target in targets:
            acc.extend_to(target)
            pool = planned_pool(single_edge, 0, 6, 11, max(targets), target)
            assert np.array_equal(acc.counts, np.concatenate(pool))

    def test_pool_is_a_prefix_of_the_planned_blocks(self):
        g = random_graph(9, 0.4, np.random.default_rng(4), weighted=True)
        sizes = (300, 4096, 4200, 2 * BLOCK_WALKS + 7)
        # Each block drawn once, at the most walks a planned size takes from it.
        cells = np.concatenate([walks._run_block(g, 0, 7, 5, index, count)
                                for index, count in ((0, 4096), (1, 4096), (2, 7))])
        acc = WalkAccumulator(g, 0, 7, 5, max(sizes))
        for w in sizes:
            acc.extend_to(w)
            assert np.array_equal(acc.counts, np.bincount(cells[:w], minlength=2 * g.n))
        # A pool inside its first block is that block's first w walks: it
        # equals run_walks only when w is the block's planned count.
        acc = WalkAccumulator(g, 0, 7, 5, 300)
        acc.extend_to(300)
        fresh = run_walks(g, 0, WalkConfig(length=7, walks=300, seed=5))
        assert np.array_equal(acc.counts[:g.n], fresh.even)

    def test_steps_accounting(self, single_edge):
        acc = WalkAccumulator(single_edge, 0, 4, 1, 20)
        acc.extend_to(10)  # block 0 drawn at its planned 20 walks of length 4
        assert acc.steps_sampled == 80
        acc.extend_to(20)  # taken from that draw
        assert acc.steps_sampled == 80

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(2, 12), weighted=st.booleans(), length=st.integers(0, 12),
           graph_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63))
    def test_growth_matches_fresh_runs(self, n, weighted, length, graph_seed, seed):
        g = random_graph(n, 0.4, np.random.default_rng(graph_seed), weighted=weighted)
        targets = (1, 37, 4095, 4096, 4097, 8192, 8193)
        acc = WalkAccumulator(g, 0, length, seed, max(targets))
        for target in targets:
            acc.extend_to(target)
            pool = planned_pool(g, 0, length, seed, max(targets), target)
            assert acc.walks == target
            assert np.array_equal(acc.counts, np.concatenate(pool))

    def test_pool_holds_its_counts_and_less_than_a_block(self):
        # Ten top-ups of 100,000 walks: the pool keeps its (2n) counts and the
        # cells of less than a block, so its room does not grow with the walks.
        g = gen_planted(1000, 0.05, 8, 1).graph
        g.alias_table()
        acc = WalkAccumulator(g, 0, 10, 1, 1_000_000)
        tracemalloc.start()
        try:
            for w in range(100_000, 1_000_001, 100_000):
                acc.extend_to(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert int(acc.counts.sum()) == 1_000_000

    def test_no_op_at_or_below_pool_size(self, single_edge):
        acc = WalkAccumulator(single_edge, 0, 3, 4, 50)
        acc.extend_to(50)
        before = acc.counts.copy()
        for walks in (50, 10, 0):
            acc.extend_to(walks)
            assert (acc.walks, acc.steps_sampled) == (50, 150)
            assert np.array_equal(acc.counts, before)

    @pytest.mark.parametrize("length, walks", [(201, 1), (100_000, 3), (100, 10**12)])
    def test_caps_enforced(self, single_edge, length, walks):
        acc = WalkAccumulator(single_edge, 0, length, 1, walks)
        with pytest.raises(ResourceError):
            acc.extend_to(walks)
        assert (acc.walks, acc.steps_sampled) == (0, 0)

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(2, 12), weighted=st.booleans(), length=st.integers(0, 12),
           graph_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63),
           sizes=st.lists(st.integers(1, 3 * BLOCK_WALKS), min_size=1, max_size=8))
    def test_planned_growth_matches_fresh_runs(self, n, weighted, length, graph_seed,
                                               seed, sizes):
        g = random_graph(n, 0.4, np.random.default_rng(graph_seed), weighted=weighted)
        acc = WalkAccumulator(g, 0, length, seed, max(sizes))
        for target in sorted(sizes):
            acc.extend_to(target)
            pool = planned_pool(g, 0, length, seed, max(sizes), target)
            assert np.array_equal(acc.counts, np.concatenate(pool))
            # The steps drawn: every block the pool reaches, at its planned count.
            drawn = min(-(-target // BLOCK_WALKS) * BLOCK_WALKS, max(sizes))
            assert acc.steps_sampled == drawn * max(length, 1)

    @staticmethod
    def _counting(monkeypatch):
        """The walk count of every _run_block call from now on."""
        drawn = []
        kernel = walks._run_block

        def counting(g, start, length, seed, index, count):
            drawn.append(count)
            return kernel(g, start, length, seed, index, count)

        monkeypatch.setattr(walks, "_run_block", counting)
        return drawn

    def test_plan_draws_at_most_a_block_ahead(self, single_edge, monkeypatch):
        drawn = self._counting(monkeypatch)
        acc = WalkAccumulator(single_edge, 0, 5, 3, 5000)
        acc.extend_to(1000)
        assert drawn == [BLOCK_WALKS]  # 5000 walks take all of block 0
        acc.extend_to(2000)
        acc.extend_to(3000)
        assert len(drawn) == 1
        acc.extend_to(5000)
        assert drawn[1:] == [5000 - BLOCK_WALKS]
        assert acc.steps_sampled == 5000 * 5

    def test_unplanned_size_refused_before_any_draw(self, single_edge, monkeypatch):
        drawn = self._counting(monkeypatch)
        acc = WalkAccumulator(single_edge, 0, 5, 3, 5000)
        for size in (5001, 6000, 8193):
            with pytest.raises(InvalidInputError, match="not planned"):
                acc.extend_to(size)
        assert (drawn, acc.walks, acc.steps_sampled) == ([], 0, 0)
        acc.extend_to(5000)
        with pytest.raises(InvalidInputError, match="not planned"):
            acc.extend_to(5001)
        assert (drawn, acc.walks) == ([BLOCK_WALKS, 5000 - BLOCK_WALKS], 5000)

    def test_empty_plan_draws_nothing(self, single_edge, monkeypatch):
        drawn = self._counting(monkeypatch)
        acc = WalkAccumulator(single_edge, 0, 5, 3, 0)
        acc.extend_to(0)
        with pytest.raises(InvalidInputError, match="not planned"):
            acc.extend_to(1)
        assert (drawn, acc.walks, acc.steps_sampled) == ([], 0, 0)
        assert acc.counts.sum() == 0
        # A step budget below the first round plans no round.
        params = AlgoParams.for_graph(single_edge, 0.05, 1.0, step_budget=1)
        res = find_threshold(single_edge, 0, params, seed=3)
        assert (res.rounds, res.walks, res.steps, drawn) == (0, 0, 0, [])


class TestPoolLaw:
    """Each planned pool is w iid lazy walks, and pools are nested.

    Over SEEDS pools of w walks, the even (odd) count at vertex j is
    Bin(SEEDS * w, q) with q the exact even-hop (odd-hop) probability of
    being at j, so it must lie within Z standard deviations of its mean; a
    cell of probability 0 must stay empty.
    """

    SEEDS = 40
    Z = 5.0

    @staticmethod
    def _cases():
        weighted = random_graph(7, 0.5, np.random.default_rng(12), weighted=True)
        # Vertex 6 has no edge: a walk from it never moves.
        isolated = WeightedGraph.from_arrays(
            7, *random_graph(6, 0.5, np.random.default_rng(13)).edge_arrays())
        unit = random_graph(8, 0.4, np.random.default_rng(14))
        return {  # graph, start, length, planned sizes
            "weighted": (weighted, 0, 6, (20, 90, 400, 1000)),
            "degree_zero_start": (isolated, 6, 5, (5, 50, 300)),
            # Block 0 is drawn whole, block 1 at 1904 walks; 4100 takes 4 of them.
            "crosses_a_block": (unit, 2, 9, (1000, 3000, 4100, 6000)),
        }

    @pytest.mark.parametrize("case", ["weighted", "degree_zero_start", "crosses_a_block"])
    def test_pool_counts_match_exact_law(self, case):
        g, start, length, sizes = self._cases()[case]
        p, s = exact_walk_distribution(g, start, length)
        q = np.clip(np.stack([(p + s) / 2, (p - s) / 2]), 0.0, 1.0)  # even, odd
        totals = np.zeros((len(sizes), 2, g.n))
        for seed in range(self.SEEDS):
            acc = WalkAccumulator(g, start, length, seed, max(sizes))
            before = np.zeros((2, g.n), dtype=np.int64)
            for r, w in enumerate(sizes):
                acc.extend_to(w)
                counts = acc.counts.reshape(2, g.n).copy()
                assert counts.sum() == w
                assert (counts >= before).all()  # nested: no count falls
                totals[r] += counts
                before = counts
        for total, w in zip(totals, sizes):
            trials = self.SEEDS * w
            sd = np.sqrt(trials * q * (1.0 - q))
            assert (np.abs(total - trials * q) <= self.Z * sd + 1e-9).all()


def _sparse_graph(n, weighted, seed):
    """About 2n random edges on n vertices, plus vertex n with none."""
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, n, (2, 2 * n))
    keep = u != v
    u, v = np.append(u[keep], 0), np.append(v[keep], 1)
    w = 0.1 + 2.0 * rng.random(u.size) if weighted else np.ones(u.size)
    return WeightedGraph.from_arrays(n + 1, u, v, w)


class TestPerLengthCounts:
    def test_tallies_pinned(self):
        # Recorded on the per-walk kernel before probes drew lazily.
        assert _tallies_digest(record_per_length=True) == (
            "5a5f3f728943eed95a4de568d95bff8449ae2e62f09a9078cc38c9400f848f1f")

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 9000), count=st.integers(1, 9000), length=st.integers(0, 40),
           weighted=st.booleans(), isolated_start=st.booleans(),
           graph_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63))
    @example(n=9000, count=3 * BLOCK_WALKS - 5, length=30, weighted=True,
             isolated_start=False, graph_seed=1, seed=2)
    @example(n=50, count=BLOCK_WALKS + 1, length=12, weighted=False,
             isolated_start=False, graph_seed=1, seed=2)
    def test_rows_equal_recorded_tally(self, n, count, length, weighted, isolated_start,
                                       graph_seed, seed):
        g = _sparse_graph(n, weighted, graph_seed)
        start = n if isolated_start else 0
        cfg = WalkConfig(length=length, walks=count, seed=seed, record_per_length=True)
        t = run_walks(g, start, cfg)
        rows = list(walks.per_length_counts(g, start, cfg))
        assert len(rows) == length + 1
        for l, (ev, od) in enumerate(rows):
            assert np.array_equal(ev, t.even[l]) and np.array_equal(od, t.odd[l])


class TestSignedEstimate:
    def test_arithmetic(self, single_edge):
        t = WalkTally(n=2, length=1, walks=100,
                      even=np.array([30, 0]), odd=np.array([10, 0]))
        g = make_graph(2, [(0, 1, 2)])
        assert signed_estimates(t, g)[0] == pytest.approx((30 - 10) / (2.0 * 100))

    def test_unreached_vertex_is_zero(self, single_edge):
        t = run_walks(single_edge, 0, WalkConfig(length=0, walks=10, seed=0))
        assert signed_estimates(t, single_edge)[1] == 0.0

    def test_degree_zero_returns_zero(self):
        g = make_graph(3, [(0, 1, 1)])
        t = run_walks(g, 2, WalkConfig(length=2, walks=10, seed=0))
        assert signed_estimates(t, g)[2] == 0.0

    def test_converges_to_exact(self, single_edge):
        t = run_walks(single_edge, 0,
                      WalkConfig(length=1, walks=200_000, seed=8))
        est = signed_estimates(t, single_edge)[1]
        assert abs(est - (-0.5)) < 0.01


class TestExactDistribution:
    def test_single_edge_one_step(self, single_edge):
        p, s = exact_walk_distribution(single_edge, 0, 1)
        assert np.allclose(p, [0.5, 0.5])
        assert np.allclose(s, [0.5, -0.5])

    def test_zero_length_indicator(self, triangle):
        p, s = exact_walk_distribution(triangle, 1, 0)
        assert np.array_equal(p, [0.0, 1.0, 0.0])
        assert np.array_equal(s, [0.0, 1.0, 0.0])

    def test_degree_zero_start_stays_put(self):
        g = make_graph(3, [(0, 1, 1)])
        for l in (0, 1, 5):
            p, s = exact_walk_distribution(g, 2, l)
            assert np.array_equal(p, [0.0, 0.0, 1.0])
            assert np.array_equal(s, [0.0, 0.0, 1.0])

    def test_conservation(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(15, 0.3, rng, weighted=True)
            start = int(np.argmax(g.degrees))
            for l in range(21):
                p, s = exact_walk_distribution(g, start, l)
                assert abs(float(p.sum()) - 1.0) < 1e-12
                assert np.all(p >= -1e-15)
                assert np.all(p + 1e-15 >= np.abs(s))

    def test_laplacian_power_identity(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            g = random_graph(int(rng.integers(4, 40)), 0.3, rng,
                             weighted=(trial % 2 == 0))
            starts = [v for v in range(g.n) if g.degrees[v] > 0][:4]
            for v in starts:
                for l in (0, 3, 7, 12):
                    _, s = exact_walk_distribution(g, v, l)
                    scaled = np.divide(s, np.sqrt(g.degrees), out=np.zeros(g.n),
                                       where=g.degrees > 0)
                    assert np.abs(scaled - power_laplacian_vector(g, v, l)).max() < 1e-9

    def test_sampling_consistency(self):
        # max_j |signed_estimates[j] - s(j)/d_j| small for w = 1e6 walks
        rng = np.random.default_rng(42)
        failures = 0
        trials = 20
        for i in range(trials):
            g = random_graph(int(rng.integers(6, 61)), 0.15, rng)
            start = int(np.argmax(g.degrees))
            ell = 5
            _, s = exact_walk_distribution(g, start, ell)
            exact = np.zeros(g.n)
            mask = g.degrees > 0
            exact[mask] = s[mask] / g.degrees[mask]
            t = run_walks(g, start, WalkConfig(length=ell, walks=1_000_000,
                                               seed=1000 + i))
            err = np.abs(signed_estimates(t, g) - exact).max()
            if err > 0.01:
                failures += 1
        assert failures <= 1  # >= 95% of seeds within tolerance

    def test_weighted_tallies_match_exact(self):
        # Even and odd arrival frequencies at every length, from both tally
        # modes, against the exact (p + s) / 2 and (p - s) / 2.
        rng = np.random.default_rng(77)
        failures = 0
        for i in range(10):
            g = random_graph(int(rng.integers(6, 31)), 0.25, rng, weighted=True)
            start = int(np.argmax(g.degrees))
            ell = 5
            walks = 200_000
            final = run_walks(g, start, WalkConfig(length=ell, walks=walks,
                                                   seed=500 + i))
            per = run_walks(g, start, WalkConfig(length=ell, walks=walks,
                                                 seed=600 + i,
                                                 record_per_length=True))
            observed = [(final.counts_at(ell), ell)]
            observed += [(per.counts_at(l), l) for l in range(ell + 1)]
            err = 0.0
            for (ev, od), l in observed:
                p, s = exact_walk_distribution(g, start, l)
                err = max(err, np.abs(ev / walks - (p + s) / 2).max(),
                          np.abs(od / walks - (p - s) / 2).max())
            if err > 0.005:
                failures += 1
        assert failures <= 1

    def test_budget_guard(self):
        g = make_graph(2, [(0, 1, 1)])
        with pytest.raises(InvalidInputError):
            exact_walk_distribution(g, 0, -1)
