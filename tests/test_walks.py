import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwcut import walks
from rwcut.bench import gen_planted
from rwcut.errors import InvalidInputError, ResourceError
from rwcut.graph import WeightedGraph, load_graph
from rwcut.spectral import power_laplacian_vector
from rwcut.threshold import AlgoParams, find_threshold
from rwcut.walks import (
    BLOCK_WALKS,
    WalkAccumulator,
    WalkConfig,
    WalkTally,
    exact_walk_distribution,
    run_walks,
    signed_estimates,
)

from conftest import dumbbell, make_graph, planted_file, random_graph, reweighted


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

    @pytest.mark.parametrize("start", [1.5, 0.0, "0"])
    def test_non_integer_start_refused(self, single_edge, start):
        with pytest.raises(InvalidInputError, match="not an integer in"):
            run_walks(single_edge, start, WalkConfig(length=1, walks=1, seed=0))
        with pytest.raises(InvalidInputError, match="not an integer in"):
            WalkAccumulator(single_edge, start, 1, 0, [1])
        with pytest.raises(InvalidInputError, match="not an integer in"):
            exact_walk_distribution(single_edge, start, 1)

    def test_numpy_integer_start_accepted(self, single_edge):
        cfg = WalkConfig(length=3, walks=50, seed=2)
        a = run_walks(single_edge, np.int32(1), cfg)
        b = run_walks(single_edge, 1, cfg)
        assert np.array_equal(a.even, b.even) and np.array_equal(a.odd, b.odd)
        acc = WalkAccumulator(single_edge, np.int64(1), 3, 2, [50])
        acc.extend_to(50)
        assert np.array_equal(acc.tally().even, b.even)

    @pytest.mark.parametrize("l", [-1, 4, 10])
    def test_counts_at_outside_the_tally_refused(self, single_edge, l):
        t = run_walks(single_edge, 0, WalkConfig(length=3, walks=10, seed=1,
                                                 record_per_length=True))
        with pytest.raises(InvalidInputError, match="outside the tally"):
            t.counts_at(l)

    def test_caps_enforced(self, single_edge):
        with pytest.raises(ResourceError):
            run_walks(single_edge, 0, WalkConfig(length=201, walks=1, seed=0))
        with pytest.raises(ResourceError):
            run_walks(single_edge, 0,
                      WalkConfig(length=100, walks=10**9, seed=0))


class TestAccumulator:
    def test_topup_matches_fresh_run(self, single_edge):
        targets = (37, 120, 4096, 5000, 9000)
        acc = WalkAccumulator(single_edge, 0, 6, 11, targets)
        for target in targets:
            acc.extend_to(target)
            fresh = run_walks(single_edge, 0,
                              WalkConfig(length=6, walks=target, seed=11))
            got = acc.tally()
            assert np.array_equal(got.even, fresh.even)
            assert np.array_equal(got.odd, fresh.odd)

    def test_steps_accounting(self, single_edge):
        acc = WalkAccumulator(single_edge, 0, 4, 1, [10, 20])
        acc.extend_to(10)
        assert acc.steps_sampled == 40
        before = acc.steps_sampled
        acc.extend_to(20)  # a partial block of 20 walks of length 4
        assert acc.steps_sampled == before + 80

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(2, 12), weighted=st.booleans(), length=st.integers(0, 12),
           graph_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63))
    def test_growth_matches_fresh_runs(self, n, weighted, length, graph_seed, seed):
        g = random_graph(n, 0.4, np.random.default_rng(graph_seed), weighted=weighted)
        targets = (1, 37, 4095, 4096, 4097, 8192, 8193)
        acc = WalkAccumulator(g, 0, length, seed, targets)
        earlier = []
        for target in targets:
            acc.extend_to(target)
            got = acc.tally()
            fresh = run_walks(g, 0, WalkConfig(length=length, walks=target, seed=seed))
            assert got.walks == target
            assert np.array_equal(got.even, fresh.even)
            assert np.array_equal(got.odd, fresh.odd)
            earlier.append((got, fresh))
        for got, fresh in earlier:  # later top-ups leave earlier tallies alone
            assert np.array_equal(got.even, fresh.even)
            assert np.array_equal(got.odd, fresh.odd)

    def test_no_op_at_or_below_pool_size(self, single_edge):
        acc = WalkAccumulator(single_edge, 0, 3, 4, [50])
        acc.extend_to(50)
        before = acc.tally()
        for walks in (50, 10, 0):
            acc.extend_to(walks)
            assert (acc.walks, acc.steps_sampled) == (50, 150)
            assert np.array_equal(acc.tally().even, before.even)

    @pytest.mark.parametrize("length, walks", [(201, 1), (100_000, 3), (100, 10**12)])
    def test_caps_enforced(self, single_edge, length, walks):
        acc = WalkAccumulator(single_edge, 0, length, 1, [walks])
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
        acc = WalkAccumulator(g, 0, length, seed, sizes)
        have = steps = 0
        for target in sorted(sizes):
            acc.extend_to(target)
            fresh = run_walks(g, 0, WalkConfig(length=length, walks=target, seed=seed))
            assert np.array_equal(acc.tally().even, fresh.even)
            assert np.array_equal(acc.tally().odd, fresh.odd)
            steps += walks.topup_steps(have, target, length)
            have = target
            assert acc.steps_sampled == steps

    @staticmethod
    def _counting(monkeypatch):
        """The walk counts of every _run_blocks call from now on."""
        drawn = []
        kernel = walks._run_blocks

        def counting(g, start, length, seed, blocks):
            drawn.append([count for _, count in blocks])
            return kernel(g, start, length, seed, blocks)

        monkeypatch.setattr(walks, "_run_blocks", counting)
        return drawn

    def test_plan_draws_at_most_a_block_ahead(self, single_edge, monkeypatch):
        drawn = self._counting(monkeypatch)
        acc = WalkAccumulator(single_edge, 0, 5, 3, [1000, 2000, 3000, 5000])
        acc.extend_to(1000)
        assert drawn == [[1000, 2000]]  # 3000 more would pass BLOCK_WALKS
        acc.extend_to(2000)
        assert len(drawn) == 1
        acc.extend_to(3000)
        assert drawn[1:] == [[3000, 5000 - BLOCK_WALKS]]
        acc.extend_to(5000)
        assert drawn[2:] == [[BLOCK_WALKS]]  # a full block, drawn alone

    def test_unplanned_size_refused_before_any_draw(self, single_edge, monkeypatch):
        drawn = self._counting(monkeypatch)
        acc = WalkAccumulator(single_edge, 0, 5, 3, [1000, 5000, 5000])
        for size in (999, 1001, 4096, 6000):
            with pytest.raises(InvalidInputError, match="not planned"):
                acc.extend_to(size)
        assert (drawn, acc.walks, acc.steps_sampled) == ([], 0, 0)
        acc.extend_to(5000)
        with pytest.raises(InvalidInputError, match="not planned"):
            acc.extend_to(5001)
        # A repeated size's partial block is drawn once.
        assert (drawn, acc.walks) == ([[BLOCK_WALKS], [5000 - BLOCK_WALKS]], 5000)

    def test_empty_plan_draws_nothing(self, single_edge, monkeypatch):
        drawn = self._counting(monkeypatch)
        acc = WalkAccumulator(single_edge, 0, 5, 3, [])
        acc.extend_to(0)
        with pytest.raises(InvalidInputError, match="not planned"):
            acc.extend_to(1)
        assert (drawn, acc.walks, acc.steps_sampled) == ([], 0, 0)
        assert acc.tally().even.sum() == acc.tally().odd.sum() == 0
        # A step budget below the first round plans no round.
        params = AlgoParams.for_graph(single_edge, 0.05, 1.0, step_budget=1)
        res = find_threshold(single_edge, 0, params, seed=3)
        assert (res.rounds, res.walks, res.steps, drawn) == (0, 0, 0, [])


class TestJointDraws:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 12), weighted=st.booleans(), isolated_start=st.booleans(),
           length=st.integers(0, 60),
           blocks=st.lists(st.tuples(st.integers(0, 3), st.integers(1, BLOCK_WALKS)),
                           min_size=1, max_size=4),
           graph_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63))
    def test_blocks_drawn_together_match_lone_draws(self, n, weighted, isolated_start,
                                                    length, blocks, graph_seed, seed):
        g = random_graph(n, 0.4, np.random.default_rng(graph_seed), weighted=weighted)
        # Vertex n has no edge: a walk from it never moves.
        g = WeightedGraph.from_arrays(n + 1, *g.edge_arrays())
        start = n if isolated_start else 0
        joint = walks._run_blocks(g, start, length, seed, blocks)
        assert len(joint) == len(blocks)
        for cells, block in zip(joint, blocks):
            (alone,) = walks._run_blocks(g, start, length, seed, [block])
            assert np.array_equal(cells, alone)

    def test_both_neighbour_draws_covered(self):
        rng = np.random.default_rng(5)
        unit = random_graph(8, 0.4, rng)
        weighted = make_graph(8, [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0), (2, 3, 1.0)])
        assert unit.alias_table()[1] is None and weighted.alias_table()[1] is not None
        blocks = [(0, 300), (2, BLOCK_WALKS), (0, 7)]
        for g in (unit, weighted):
            joint = walks._run_blocks(g, 0, 9, 4, blocks)
            for cells, block in zip(joint, blocks):
                assert np.array_equal(cells, walks._run_blocks(g, 0, 9, 4, [block])[0])


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
                                               record_per_length=True))
            digest.update(t.even.tobytes() + t.odd.tobytes())
        assert digest.hexdigest() == (
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
