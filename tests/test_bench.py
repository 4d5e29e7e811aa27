import hashlib
import io
import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwcut import bench
from rwcut.bench import (
    brute_force_maxcut,
    gen_planted,
    greedy_cut,
    random_cut,
)
from rwcut.errors import InvalidParamsError, ResourceError
from rwcut.graph import WeightedGraph, cut_value, load_graph

from conftest import cli_env, complete_bipartite, cycle_graph, dump_text, make_graph, random_graph


class TestBruteForce:
    def test_triangle(self, triangle):
        value, left = brute_force_maxcut(triangle)
        assert value == pytest.approx(2.0 / 3.0)
        assert cut_value(triangle, left) == pytest.approx(value)

    def test_five_cycle(self):
        value, _ = brute_force_maxcut(cycle_graph(5))
        assert value == pytest.approx(4.0 / 5.0)

    def test_bipartite_is_one(self):
        g = complete_bipartite(5, 4)
        value, left = brute_force_maxcut(g)
        assert value == pytest.approx(1.0)
        assert left in ({0, 1, 2, 3, 4}, {5, 6, 7, 8})

    def test_weighted_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_graph(9, 0.5, rng, weighted=True)
            value, left = brute_force_maxcut(g)
            # independent oracle: full enumeration over explicit subsets
            best = 0.0
            for mask in range(1 << g.n):
                subset = {v for v in range(g.n) if (mask >> v) & 1}
                best = max(best, cut_value(g, subset))
            assert value == pytest.approx(best)
            assert cut_value(g, left) == pytest.approx(best)

    def test_too_large_rejected(self):
        g = make_graph(23, [(i, i + 1, 1) for i in range(22)])
        with pytest.raises(ResourceError):
            brute_force_maxcut(g)


class TestGreedy:
    def test_single_edge(self, single_edge):
        assert cut_value(single_edge, greedy_cut(single_edge)) == 1.0

    def test_triangle(self, triangle):
        assert cut_value(triangle, greedy_cut(triangle)) == pytest.approx(2 / 3)

    def test_half_guarantee(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_graph(int(rng.integers(2, 25)), 0.3, rng,
                             weighted=bool(rng.random() < 0.5))
            assert cut_value(g, greedy_cut(g)) >= 0.5 - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        g = random_graph(20, 0.3, rng)
        assert greedy_cut(g) == greedy_cut(g)


def _reference_greedy(g):
    """greedy_cut as one loop over the vertices: the rule the waves keep."""
    order = np.lexsort((np.arange(g.n), -g.degrees))
    side = np.zeros(g.n, dtype=np.int8)
    for v in order.tolist():
        nb, wt = g.neighbors(v)
        sv = side[nb]
        to_left = float(wt[sv == -1].sum())   # cut weight if v goes left
        to_right = float(wt[sv == 1].sum())
        side[v] = 1 if to_left >= to_right else -1
    return frozenset(int(v) for v in np.nonzero(side == 1)[0])


def _assert_greedy_is_reference(g):
    ref = _reference_greedy(g)
    assert greedy_cut(g) == ref
    # Every wave placed as a wave, however small.
    with mock.patch.object(bench, "_SCALAR_WAVE", 1):
        assert greedy_cut(g) == ref


_FRACTIONS = [0.1, 0.2, 0.3, 0.7]


@st.composite
def _greedy_graphs(draw):
    """Sparse to dense graphs with unit weights (many equal degrees) or
    weights in _FRACTIONS (sums that round differently by order), plus
    isolated vertices."""
    n = draw(st.integers(0, 60))
    p = draw(st.sampled_from([0.05, 0.15, 0.5, 0.9]))
    fractional = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.size) < p
    w = rng.choice(_FRACTIONS, int(keep.sum())) if fractional else np.ones(int(keep.sum()))
    return WeightedGraph.from_arrays(n + draw(st.integers(0, 4)), u[keep], v[keep], w)


def _path(n):
    return WeightedGraph.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))


def _grid(k):
    ids = np.arange(k * k).reshape(k, k)
    u = np.concatenate((ids[:, :-1].ravel(), ids[:-1, :].ravel()))
    v = np.concatenate((ids[:, 1:].ravel(), ids[1:, :].ravel()))
    return WeightedGraph.from_arrays(k * k, u, v, np.ones(u.size))


def _near_tie_copies(copies):
    """Disjoint copies of a graph whose last vertex x sees a tie that only
    rounding breaks.  Hub h (Left) puts r, r+1 on the Right and hub h+1 on
    the Right puts l..l+7 on the Left; x then weighs 0.7 + 0.1 against eight
    0.1s, which one by one sum to 0.7999999999999999 and pairwise to 0.8.
    Eight copies make every wave at least _SCALAR_WAVE wide."""
    edges = []
    for c in range(copies):
        h, r, l, x = 13 * c, 13 * c + 2, 13 * c + 4, 13 * c + 12
        edges += [(h, h + 1, 100.0), (h, r, 30.0), (h, r + 1, 30.0), (r, x, 0.7), (r + 1, x, 0.1)]
        edges += [e for i in range(8) for e in ((h + 1, l + i, 5.0), (l + i, x, 0.1))]
    return WeightedGraph.from_edges(13 * copies, edges)


class TestGreedyWaves:
    @settings(max_examples=300, deadline=None)
    @given(_greedy_graphs())
    def test_matches_one_at_a_time(self, g):
        _assert_greedy_is_reference(g)

    @pytest.mark.parametrize("make", [
        lambda: _path(300),
        lambda: _grid(17),
        lambda: gen_planted(1000, 0.05, 8, seed=1).graph,
        lambda: _near_tie_copies(8),
    ], ids=["path", "grid", "planted", "near-tie"])
    def test_matches_one_at_a_time_on(self, make):
        _assert_greedy_is_reference(make())

    def test_near_tie_premise(self):
        # numpy sums eight 0.1s pairwise; a wave's bincount adds one by one.
        assert np.full(8, 0.1).sum() == 0.8 != sum([0.1] * 8)
        assert 12 not in _reference_greedy(_near_tie_copies(8))

    @pytest.mark.parametrize("args, digest", [
        ((60, 0.05, 6, 9), "7dd8c8a05644dcf955a4d62927e0f03ec9e90ce033609b14aa5096725b8340f0"),
        ((1000, 0.05, 8, 1), "546af6ba157b9c49c2dbcc73968fc216895726f0125f0f0c0016de236b375281"),
        ((500, 0.2, 3, 4), "da455715da8b38065e53aa4933813a657478ae74d4a939dd840587a89351c96b"),
    ])
    def test_planted_partitions_pinned(self, args, digest):
        left = greedy_cut(gen_planted(*args).graph)
        text = " ".join(map(str, sorted(left)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRandomCut:
    def test_expected_half(self):
        rng = np.random.default_rng(4)
        g = random_graph(30, 0.45, rng)  # ~200 edges
        vals = []
        for seed in range(10_000):
            vals.append(cut_value(g, random_cut(g, np.random.default_rng(seed))))
        assert abs(float(np.mean(vals)) - 0.5) < 0.01

    def test_empty_graph(self):
        g = WeightedGraph.from_edges(3, [])
        assert cut_value(g, random_cut(g, np.random.default_rng(0))) == 0.0

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        g = random_graph(15, 0.4, rng)
        a = random_cut(g, np.random.default_rng(77))
        b = random_cut(g, np.random.default_rng(77))
        assert a == b


def _scalar_loop_keys(rng, perm, target_eps, target_edges):
    """The edge keys gen_planted drew one scalar rng call at a time."""
    n = perm.size
    left = perm[: n // 2]
    right = perm[n // 2:]
    edges = set()  # keys lo * n + hi
    while len(edges) < target_edges:
        if rng.random() < 1.0 - target_eps:
            u = int(left[rng.integers(left.size)])
            v = int(right[rng.integers(right.size)])
        else:
            pool = left if rng.random() < 0.5 else right
            u = int(pool[rng.integers(pool.size)])
            v = int(pool[rng.integers(pool.size)])
            if u == v:
                continue
        edges.add(u * n + v if u < v else v * n + u)
    return edges


def _reference_gen_planted(n, target_eps, avg_degree, seed):
    """gen_planted's graph as the scalar draw loop builds it."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xB1A5)))
    perm = rng.permutation(n)
    edges = _scalar_loop_keys(rng, perm, target_eps, int(round(n * avg_degree / 2.0)))
    lo, hi = np.divmod(np.fromiter(edges, dtype=np.int64, count=len(edges)), n)
    return WeightedGraph.from_arrays(n, lo, hi, np.ones(lo.size))


@st.composite
def _planted_args(draw):
    """Small instances, up to half of all vertex pairs, so that eps = 0
    (no same-side edges) can still reach its target."""
    n = 2 * draw(st.integers(2, 40))
    target_eps = draw(st.sampled_from([0.0, 0.05, 0.3, 0.49]))
    avg_degree = draw(st.floats(1.0, (n - 1) / 2.0))
    return n, target_eps, avg_degree, draw(st.integers(0, 2**32 - 1))


class TestGenPlantedReplay:
    @settings(max_examples=200, deadline=None)
    @given(_planted_args())
    def test_matches_scalar_loop(self, args):
        assert gen_planted(*args).graph == _reference_gen_planted(*args)

    @pytest.mark.parametrize("args", [
        (4, 0.0, 1, 1),
        (40, 0.3, 30, 1),
        (40, 0.3, 30, 2),
        (1000, 0.05, 8, 1),
        (100_000, 0.05, 8, 1),
        (100_000, 0.05, 8, 101000),
    ], ids=["smallest", "near-complete-1", "near-complete-2", "1k-kept-half",
            "100k-rejections", "100k-rejections-kept-half"])
    def test_matches_scalar_loop_on(self, args):
        assert gen_planted(*args).graph == _reference_gen_planted(*args)

    @pytest.mark.parametrize("block, past_end", [(3, 2), (bench._BLOCK_WORDS, 0)])
    def test_rejections_replayed(self, block, past_end):
        # For k = 2,096,129 one 32-bit half in about 2,050 is rejected, so
        # 4,000 edges see a few rejections.  Blocks of 3 words put every
        # trial at a block's end: with seed 2, two rejected trials run past
        # it and are redone in the next block.
        k = 2_096_129
        rng = np.random.default_rng(2)
        perm = rng.permutation(2 * k)
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        replay_trial, outcomes = bench._replay_trial, []

        def counted(*args):
            outcomes.append(replay_trial(*args))
            return outcomes[-1]

        with mock.patch.object(bench, "_BLOCK_WORDS", block), \
                mock.patch.object(bench, "_replay_trial", counted):
            keys = bench._planted_keys(replay.bit_generator, perm, 0.5, 4000)
        assert set(keys.tolist()) == _scalar_loop_keys(rng, perm, 0.5, 4000)
        assert len(outcomes) > past_end
        assert sum(o is None for o in outcomes) == past_end


class TestGenPlanted:
    def test_eps_zero_is_bipartite(self):
        inst = gen_planted(16, 0.0, 3, seed=0)
        assert inst.planted_value == 1.0

    def test_value_near_target(self):
        inst = gen_planted(500, 0.1, 8, seed=1)
        assert 0.85 <= inst.planted_value <= 0.95
        assert inst.planted_value >= 1.0 - inst.target_eps - 0.05

    def test_reproducible(self):
        a = gen_planted(100, 0.05, 6, seed=9)
        b = gen_planted(100, 0.05, 6, seed=9)
        assert a.graph == b.graph
        assert a.left == b.left

    def test_recorded_value_matches_recomputation(self):
        inst = gen_planted(60, 0.2, 5, seed=3)
        assert inst.planted_value == cut_value(inst.graph, inst.left)

    def test_metadata_round_trip(self):
        inst = gen_planted(20, 0.1, 4, seed=2)
        buf = io.StringIO()
        inst.dump_metadata(buf)
        meta = json.loads(buf.getvalue())
        assert meta["n"] == 20
        assert meta["planted_left"] == sorted(inst.left)

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            gen_planted(15, 0.1, 4, seed=0)  # odd n
        with pytest.raises(InvalidParamsError):
            gen_planted(16, 0.6, 4, seed=0)
        with pytest.raises(InvalidParamsError):
            gen_planted(16, 0.1, 0.5, seed=0)

    def test_eps_zero_beyond_cross_pairs_refused(self):
        # At target_eps 0 every draw crosses the cut, so 6 edges on 4 vertices
        # (4 crossing pairs) never exist.  A child process turns a hang into a
        # timeout instead of stalling the suite.
        code = ("from rwcut.bench import gen_planted\n"
                "from rwcut.errors import InvalidParamsError\n"
                "try:\n    gen_planted(4, 0.0, 3, 1)\n"
                "except InvalidParamsError:\n    print('refused')\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=cli_env())
        assert proc.stdout == "refused\n", proc.stderr
        # All 4 crossing pairs are still reachable.
        assert gen_planted(4, 0.0, 2, 1).planted_value == 1.0

    def test_edge_list_round_trip(self):
        inst = gen_planted(40, 0.1, 5, seed=4)
        g2 = load_graph(io.StringIO(dump_text(inst.graph)))
        assert g2 == inst.graph

    @pytest.mark.parametrize("args, digest", [
        ((60, 0.05, 6, 9), "30c826c1e8bef23b1957f6be67832da86f06030cb88552b66aec206244949426"),
        ((1000, 0.05, 8, 1), "99fee29a6a194dc66905708a5b9d437017dba5e4009eeb2d9c9124cc63a635b9"),
        ((500, 0.2, 3, 4), "bd9b6409b8336de025e49177d80ad3da5cff083bbd8f7ba56a0299b83a8cfe2f"),
        ((100_000, 0.05, 8, 101000),
         "3d0192afd2c769cb87ad0a56287e30867c0f89fd33c8dd5c9c31da951518fdce"),
    ])
    def test_instances_pinned(self, args, digest):
        text = dump_text(gen_planted(*args).graph)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
