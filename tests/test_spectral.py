import numpy as np
import pytest

from rwcut.bench import brute_force_maxcut, gen_planted
from rwcut.errors import DegenerateInputError, InvalidInputError, InvalidParamsError
from rwcut.graph import cut_value
from rwcut.spectral import (
    LaplacianOperator,
    sweep_cut_best,
    trevisan_baseline,
)

from conftest import complete_bipartite, cycle_graph, make_graph, random_graph
from oracles import power_laplacian_vector


class TestLaplacianOperator:
    def test_stationary_in_null_space(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(20, 0.3, rng, weighted=True)
            op = LaplacianOperator(g)
            assert np.abs(op.apply(op.stationary_direction())).max() < 1e-10

    def test_rayleigh_bounds_and_scaling(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_graph(15, 0.4, rng, weighted=True)
            op = LaplacianOperator(g)
            x = rng.standard_normal(g.n)
            q = x @ op.apply(x) / (x @ x)
            assert -1e-12 <= q <= 2.0 + 1e-12
            y = 3.7 * x
            assert y @ op.apply(y) / (y @ y) == pytest.approx(q)

    def test_bipartite_top_eigenvalue(self):
        g = complete_bipartite(4, 5)
        op = LaplacianOperator(g)
        x = np.sqrt(g.degrees) * np.array([1] * 4 + [-1] * 5, dtype=float)
        assert x @ op.apply(x) / (x @ x) == pytest.approx(2.0)


class TestPowerVector:
    def test_single_edge(self, single_edge):
        assert np.allclose(power_laplacian_vector(single_edge, 0, 1), [0.5, -0.5])

    def test_zero_length(self, triangle):
        v = power_laplacian_vector(triangle, 2, 0)
        assert np.allclose(v, [0, 0, 1 / np.sqrt(2.0)])

    def test_degree_zero_start_rejected(self):
        g = make_graph(3, [(0, 1, 1)])
        with pytest.raises(InvalidInputError):
            power_laplacian_vector(g, 2, 3)


class TestSweepCut:
    def test_perfect_split(self, single_edge):
        s = sweep_cut_best(single_edge, np.array([1.0, -1.0]))
        assert s.positive == {0} and s.negative == {1}
        assert s.ratio == 1.0

    def test_one_sided_scores(self, triangle):
        s = sweep_cut_best(triangle, np.array([2.0, 2.0, 2.0]))
        assert s.negative == frozenset()
        assert s.ratio == 0.0

    def test_zero_vector_rejected(self, triangle):
        with pytest.raises(DegenerateInputError):
            sweep_cut_best(triangle, np.zeros(3))

    @pytest.mark.parametrize("y", [[np.nan, -1.0, 1.0, -1.0], [-np.inf, -1.0, 1.0, -1.0],
                                   [np.nan] * 4])
    def test_non_finite_scores_rejected(self, y):
        with pytest.raises(InvalidInputError, match="non-finite"):
            sweep_cut_best(cycle_graph(4), np.array(y))

    def test_scale_and_negation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            g = random_graph(12, 0.4, rng, weighted=True)
            y = rng.standard_normal(g.n)
            a = sweep_cut_best(g, y)
            b = sweep_cut_best(g, 2.5 * y)
            c = sweep_cut_best(g, -y)
            assert a.ratio == pytest.approx(b.ratio)
            assert a.positive == b.positive
            assert a.ratio == pytest.approx(c.ratio)
            assert a.positive == c.negative and a.negative == c.positive

    def test_quality_floor_on_planted(self):
        # scores from the planted bipartition scaled by D^{-1/2}: the best
        # sweep ratio must beat the quality floor at the witnessed quotient
        from rwcut.threshold import soto_fn

        for seed in range(5):
            inst = gen_planted(40, 0.05, 6, seed=seed)
            g = inst.graph
            sign = np.array([1.0 if v in inst.left else -1.0 for v in range(g.n)])
            x = np.sqrt(g.degrees) * sign
            op = LaplacianOperator(g)
            quotient = x @ op.apply(x) / (x @ x)
            sigma_hat = 1.0 - quotient / 2.0
            dinv = np.where(g.degrees > 0, 1.0 / np.sqrt(np.maximum(g.degrees, 1e-300)), 0.0)
            s = sweep_cut_best(g, dinv * x)
            assert s.ratio >= soto_fn(min(max(sigma_hat, 0.0), 1.0)) - 1e-9


class TestTrevisanBaseline:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    def test_seed_refused_unless_a_nonnegative_integer(self, triangle, seed):
        with pytest.raises(InvalidParamsError, match="seed"):
            trevisan_baseline(triangle, seed=seed)

    def test_connected_bipartite_exact(self):
        g = complete_bipartite(6, 5)
        left = trevisan_baseline(g, seed=0)
        assert cut_value(g, left) == pytest.approx(1.0)

    def test_triangle_bounds(self, triangle):
        left = trevisan_baseline(triangle, seed=1)
        v = cut_value(triangle, left)
        assert 2.0 / 3.0 * 0.5 <= v <= 2.0 / 3.0 + 1e-12

    def test_never_beats_brute_force(self):
        rng = np.random.default_rng(5)
        for seed in range(15):
            g = random_graph(int(rng.integers(4, 13)), 0.45, rng, weighted=True)
            opt, _ = brute_force_maxcut(g)
            v = cut_value(g, trevisan_baseline(g, seed=seed))
            assert v <= opt + 1e-9

    def test_planted_quality(self):
        values = []
        for seed in range(30):
            inst = gen_planted(200, 0.1, 8, seed=seed)
            left = trevisan_baseline(inst.graph, seed=seed)
            values.append(cut_value(inst.graph, left))
        assert float(np.median(values)) >= 0.55
