import hashlib
import io
import json

import numpy as np
import pytest

from rwcut.bench import (
    brute_force_maxcut,
    gen_planted,
    greedy_cut,
    random_cut,
)
from rwcut.errors import InvalidParamsError, ResourceError
from rwcut.graph import WeightedGraph, cut_value, load_graph, dumps_graph

from conftest import complete_bipartite, cycle_graph, make_graph, random_graph


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

    def test_edge_list_round_trip(self):
        inst = gen_planted(40, 0.1, 5, seed=4)
        g2 = load_graph(io.StringIO(dumps_graph(inst.graph)))
        assert g2 == inst.graph

    @pytest.mark.parametrize("args, digest", [
        ((60, 0.05, 6, 9), "30c826c1e8bef23b1957f6be67832da86f06030cb88552b66aec206244949426"),
        ((1000, 0.05, 8, 1), "99fee29a6a194dc66905708a5b9d437017dba5e4009eeb2d9c9124cc63a635b9"),
        ((500, 0.2, 3, 4), "bd9b6409b8336de025e49177d80ad3da5cff083bbd8f7ba56a0299b83a8cfe2f"),
    ])
    def test_instances_pinned(self, args, digest):
        text = dumps_graph(gen_planted(*args).graph)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
