import hashlib
import io
import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

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
        ((60, 0.05, 6, 9), "b9337e268dde4bf08224467aaa8a47a0a6861ecd6aaa8d32b345cf76af460435"),
        ((1000, 0.05, 8, 1), "6c14a470d64c1cdf95e075d9c69efb20cb6ed46513f4f66f7d9c8279e7c42b6b"),
        ((500, 0.2, 3, 4), "bb82b14a3a85c67369dd66dba6fd6c685ef004fea2caa511ed3a0efca64160f6"),
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


@st.composite
def _planted_args(draw):
    """Small instances, up to half of all vertex pairs, so that eps = 0
    (no same-side edges) can still reach its target."""
    n = 2 * draw(st.integers(2, 40))
    target_eps = draw(st.sampled_from([0.0, 0.05, 0.3, 0.49]))
    avg_degree = draw(st.floats(1.0, (n - 1) / 2.0))
    return n, target_eps, avg_degree, draw(st.integers(0, 2**32 - 1))


class TestGenPlanted:
    @settings(max_examples=100, deadline=None)
    @given(_planted_args())
    @example((40, 0.0, 20, 3))  # every crossing pair
    @example((40, 0.0, 10, 3))
    @example((100, 0.3, 99, 5))  # the complete graph
    def test_instance_shape(self, args):
        n, target_eps, avg_degree, _seed = args
        inst = gen_planted(*args)
        u, v, w = inst.graph.edge_arrays()
        assert u.size == round(n * avg_degree / 2)
        assert (w == 1.0).all()  # no duplicate draw was merged
        assert len(inst.left) == n // 2
        if target_eps == 0.0:
            side = np.isin(np.arange(n), sorted(inst.left))
            assert (side[u] != side[v]).all()
        assert inst.planted_value == cut_value(inst.graph, inst.left)

    def test_two_edge_law(self):
        # On 4 vertices with eps 0.3, a trial crosses with probability 0.7,
        # spread over 4 crossing pairs, and is a loop with probability 0.15.
        # Per kept trial a given crossing pair comes with probability c and
        # each of the two same-side pairs with s; the first two distinct
        # pairs drawn are both crossing (XX), one crossing and the left or
        # right pair (LX, RX), or both same-side pairs (LR).
        c, s = 0.175 / 0.85, 0.075 / 0.85
        expected = {
            "XX": 4 * c * 3 * c / (1 - c),
            "LX": s * 4 * c / (1 - s) + 4 * c * s / (1 - c),
            "RX": s * 4 * c / (1 - s) + 4 * c * s / (1 - c),
            "LR": 2 * s * s / (1 - s),
        }
        assert sum(expected.values()) == pytest.approx(1.0)
        seeds = 5000
        counts = dict.fromkeys(expected, 0)
        for seed in range(seeds):
            inst = gen_planted(4, 0.3, 1, seed)
            u, v, _w = inst.graph.edge_arrays()
            kinds = []
            for a, b in zip(u.tolist(), v.tolist()):
                if (a in inst.left) != (b in inst.left):
                    kinds.append("X")
                else:
                    kinds.append("L" if a in inst.left else "R")
            counts["".join(sorted(kinds))] += 1
        observed = [counts[key] for key in expected]
        assert stats.chisquare(observed, [seeds * p for p in expected.values()]).pvalue > 1e-3

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
        ((60, 0.05, 6, 9), "eee35e3cd8c7539c6b8cf87e2526bfc425d235d9db8f0ace72f36c05f0322d08"),
        ((1000, 0.05, 8, 1), "b7fdb43d9ccec9eb031045030517522fea2a2475c30e2eaef4a7644d7218dbd2"),
        ((500, 0.2, 3, 4), "933e1347753317bf893f36107f17703b0467a640e8ece7742fbec43e990c8be7"),
        # tests/golden.py pins n = 100,000 through the CLI.
    ])
    def test_instances_pinned(self, args, digest):
        text = dump_text(gen_planted(*args).graph)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
