import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwcut import solver, threshold, walks
from rwcut.bench import gen_planted
from rwcut.errors import InvalidInputError, InvalidParamsError, ResourceError
from rwcut.graph import EVEN, ODD, Tripartition, WeightedGraph, load_graph
from rwcut.solver import balance_solve
from rwcut.threshold import (
    C_VOL,
    GAMMA,
    SIGMA0,
    AlgoParams,
    FindResult,
    find_threshold,
    sigma_fn,
    sigma_inv,
    soto_fn,
    threshold_classify,
    topup_steps,
    walk_count,
)
from rwcut.walks import BLOCK_WALKS, STEP_CAP, WalkTally

from conftest import (complete_bipartite, cycle_graph, make_graph, planned_pool,
                      planted_file, random_graph, reweighted)
from oracles import cut_metrics, signed_estimates


class TestSigma:
    def test_zero(self):
        for mu in (1e-9, 1.0, 1e6):
            assert math.copysign(1.0, sigma_fn(0.0, mu)) == 1.0  # +0.0, not -0.0

    def test_matches_decimal_oracle(self):
        # 1 - (1 - eps)^(1 + 1/mu) in 60-digit decimal arithmetic on the float
        # inputs.  Taking the power of a rounded 1 - eps would be off by up to
        # 3.4e-5 here, at mu = 1e-9.
        ctx = decimal.Context(prec=60)
        for mu in (10.0**k for k in range(-9, 7)):
            m = decimal.Decimal(mu)
            for eps in np.geomspace(1e-12, 0.999, 100).tolist():
                power = ctx.multiply(1 + ctx.divide(1, m), ctx.ln(1 - decimal.Decimal(eps)))
                exact = 1 - ctx.exp(power)
                error = abs(decimal.Decimal(sigma_fn(eps, mu)) - exact) / exact
                assert error <= decimal.Decimal("1e-15"), (eps, mu)

    def test_sigma_inv_matches_decimal_oracle(self):
        # 1 - (1 - s)^(mu / (1 + mu)) in 60-digit decimal arithmetic; the power
        # of a rounded 1 - s was 3.3e-5 off at mu = 1e-9, s = 1e-3.
        ctx = decimal.Context(prec=60)
        for mu in (10.0**k for k in range(-9, 7)):
            m = decimal.Decimal(mu)
            for s in np.geomspace(1e-12, 0.999, 100).tolist():
                power = ctx.multiply(ctx.divide(m, 1 + m), ctx.ln(1 - decimal.Decimal(s)))
                exact = 1 - ctx.exp(power)
                error = abs(decimal.Decimal(sigma_inv(s, mu)) - exact) / exact
                assert error <= decimal.Decimal("1e-15"), (s, mu)

    def test_arithmetic(self):
        assert sigma_fn(0.1, 1.0) == pytest.approx(0.19)

    def test_large_mu_limit(self):
        assert sigma_fn(0.3, 1e9) == pytest.approx(0.3, abs=1e-6)

    def test_monotone(self):
        eps = np.linspace(0.0, 0.9, 50)
        vals = [sigma_fn(float(e), 1.5) for e in eps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        mus = np.linspace(0.2, 5.0, 50)
        vals_mu = [sigma_fn(0.2, float(m)) for m in mus]
        assert all(b < a for a, b in zip(vals_mu, vals_mu[1:]))


    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 0.99), st.floats(0.01, 100.0))
    def test_sigma_inv_inverts_sigma(self, s, mu):
        assert sigma_fn(sigma_inv(s, mu), mu) == pytest.approx(s, rel=1e-12, abs=1e-13)

    def test_sigma_inv_refuses_nonpositive_mu(self):
        with pytest.raises(InvalidParamsError):
            sigma_inv(0.25, 0.0)


class TestSoto:
    def test_pinned_values(self):
        assert soto_fn(0.5) == 0.5
        assert soto_fn(1.0 / 3.0) == pytest.approx(0.5)
        assert soto_fn(0.0) == 1.0

    def test_branch_continuity(self):
        for seam in (SIGMA0, 1.0 / 3.0):
            below = soto_fn(seam - 1e-9)
            above = soto_fn(seam + 1e-9)
            assert abs(below - above) < 1e-6

    def test_nonincreasing_grid(self):
        grid = np.linspace(0.0, 1.0, 1000)
        vals = [soto_fn(float(s)) for s in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.5 <= v <= 1.0 for v in vals)


class TestWalkCount:
    def test_spec_example(self):
        assert walk_count(0.5, 1.0, 100) == 148

    def test_inverse_t_scaling_above_alpha(self):
        # with t >= alpha, w ~ 1/t
        w1 = walk_count(0.4, 0.01, 1000)
        w2 = walk_count(0.2, 0.01, 1000)
        assert w2 == pytest.approx(2 * w1, rel=0.02)

    def test_inverse_square_below_alpha(self):
        w1 = walk_count(0.01, 1.0, 1000)
        w2 = walk_count(0.005, 1.0, 1000)
        assert w2 == pytest.approx(4 * w1, rel=0.01)

    def test_bad_threshold(self):
        with pytest.raises(InvalidInputError):
            walk_count(0.0, 1.0, 10)


class TestAlgoParams:
    def test_derived_quantities(self):
        p = AlgoParams(eps=0.1, mu=1.0, m=100.0)
        assert p.eps_prime == pytest.approx(-math.log(0.9))
        expected = math.ceil(math.log(4 * 100 / 0.05**2) / (2 * (0.05 + p.eps_prime)))
        assert p.ell == expected
        assert p.sigma == pytest.approx(0.19)

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            AlgoParams(eps=1.2, mu=1.0, m=10.0)
        with pytest.raises(InvalidParamsError):
            AlgoParams(eps=0.1, mu=-1.0, m=10.0)

    @pytest.mark.parametrize("budget", [0, -1, 2.5, "x", None, True])
    def test_step_budget_refused(self, budget):
        with pytest.raises(InvalidParamsError,
                           match="step_budget = .* must be an integer of at least 1"):
            AlgoParams(eps=0.1, mu=1.0, m=10.0, step_budget=budget)

    def test_step_budget_cap(self):
        with pytest.raises(ResourceError, match="exceeds cap"):
            AlgoParams(eps=0.1, mu=1.0, m=10.0, step_budget=STEP_CAP + 1)
        p = AlgoParams(eps=0.1, mu=1.0, m=10.0, step_budget=np.int64(STEP_CAP))
        assert p.step_budget == STEP_CAP


class TestClassify:
    def _tally(self, g, even, odd, walks):
        return WalkTally(n=g.n, length=1, walks=walks,
                         even=np.array(even), odd=np.array(odd))

    def test_rules(self):
        g = make_graph(3, [(0, 1, 1), (1, 2, 1)])
        # estimates: (30-0)/100, (0-30)/(2*100), (12-0)/100 = 0.3, -0.15, 0.12
        t = self._tally(g, [30, 0, 12], [0, 30, 0], 100)
        part = Tripartition(g)
        threshold_classify(g, 0.2, t, part)
        assert part.side[0] == EVEN
        assert part.side[1] == 0  # |est| = 0.15 below threshold
        assert part.side[2] == 0
        threshold_classify(g, 0.1, t, part)
        assert part.side[1] == ODD
        assert part.side[2] == EVEN

    def test_idempotent(self):
        g = make_graph(2, [(0, 1, 1)])
        t = self._tally(g, [90, 0], [0, 90], 100)
        part = Tripartition(g)
        threshold_classify(g, 0.5, t, part)
        snapshot = part.side.copy()
        threshold_classify(g, 0.5, t, part)
        assert np.array_equal(part.side, snapshot)

    def test_never_reclassifies(self):
        g = make_graph(2, [(0, 1, 1)])
        part = Tripartition(g)
        part.classify(0, ODD)
        t = self._tally(g, [100, 0], [0, 0], 100)
        threshold_classify(g, 0.5, t, part)
        assert part.side[0] == ODD


def _tripartition_state(part):
    return (part.side.tolist(), part.good, part.cross, part.inc, part.classified_volume,
            part.classified_count)


def plain_classify(g, t, tally, part):
    """threshold_classify's rule written out over every vertex, kept as the
    reference: strict inequalities, unclassified vertices only, Even then
    Odd in one classify call, each by vertex id.  Returns (vertex, side)
    in that order."""
    est = signed_estimates(tally, g)
    free = part.side == 0
    even, odd = np.flatnonzero(free & (est > t)), np.flatnonzero(free & (est < -t))
    if even.size or odd.size:
        part.classify(np.concatenate((even, odd)), np.repeat([EVEN, ODD], [even.size, odd.size]))
    return [(int(x), EVEN) for x in even] + [(int(x), ODD) for x in odd]


class TestFirstPasses:
    """The search's batch scorer makes the classifications of one round at a
    time, in the same order."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_batch_equals_round_by_round(self, data):
        n = data.draw(st.integers(2, 8))
        graph_seed = data.draw(st.integers(0, 99))
        u, v, w = reweighted(random_graph(n, 0.5, np.random.default_rng(graph_seed)),
                             graph_seed).edge_arrays()
        g = WeightedGraph.from_arrays(n + 1, u, v, w)  # vertex n has degree 0
        cells = np.array(data.draw(st.lists(st.integers(0, 2 * g.n - 1), min_size=1,
                                            max_size=60)), dtype=np.int64)
        # Walk counts that never fall; round r reads the first walks[r] cells.
        walks = np.array(sorted(data.draw(st.lists(st.integers(1, cells.size),
                                                   min_size=1, max_size=6))))
        walks[-1] = cells.size
        tallies = []
        for count in walks:
            counts = np.bincount(cells[:count], minlength=2 * g.n)
            tallies.append(WalkTally(g.n, 1, int(count), counts[:g.n], counts[g.n:]))
        # Thresholds that strictly fall, often equal to an estimate's size.
        ts, t = [], 1.5
        for tally in tallies:
            sizes = np.abs(signed_estimates(tally, g))
            t = data.draw(st.sampled_from(sorted(
                {float(x) for x in sizes if 0.0 < x < t} | {t * data.draw(
                    st.floats(0.05, 0.95))})))
            ts.append(t)
        before = data.draw(st.lists(st.tuples(st.integers(0, g.n - 1),
                                              st.sampled_from([EVEN, ODD])),
                                    max_size=3, unique_by=lambda x: x[0]))
        first = data.draw(st.integers(0, int(walks[0])))
        parts = []
        for _ in range(3):
            part = Tripartition(g)
            for vertex, side in before:
                part.classify(vertex, side)
            parts.append(part)
        plain, by_round, batched = parts
        counts = np.bincount(cells, minlength=2 * g.n)  # every walk, as in the pool
        got = threshold._first_passes(g, batched.side.copy(), counts, cells[first:], walks,
                                      np.array(ts))
        order = []
        for r, (t, tally) in enumerate(zip(ts, tallies)):
            order += [(r, *made) for made in plain_classify(g, t, tally, plain)]
            threshold_classify(g, t, tally, by_round)
            at = got[0] == r
            if at.any():
                batched.classify(got[1][at], got[2][at])
            assert (_tripartition_state(batched) == _tripartition_state(by_round)
                    == _tripartition_state(plain))
        assert [(int(r), int(vertex), int(side)) for r, vertex, side in zip(*got)] == order


class TestFindThreshold:
    def test_success_on_bipartite(self):
        g = complete_bipartite(7, 7)
        params = AlgoParams.for_graph(g, 0.05, 1.0, step_budget=40_000_000)
        successes = 0
        for seed in range(8):
            res = find_threshold(g, seed % g.n, params, seed=seed)
            if res.success:
                successes += 1
                part = res.part
                ref = cut_metrics(g, set(map(int, part.even_vertices())),
                                  set(map(int, part.odd_vertices())))
                # postcondition recheck from scratch
                assert ref.cut >= soto_fn(params.sigma) * ref.inc - 1e-9
                m = g.total_weight
                vol_floor = C_VOL / (
                    res.threshold**2 * m ** (1 + params.mu) * math.log(g.n)
                )
                assert part.classified_volume >= vol_floor
        assert successes >= 5  # majority of seeds

    def test_fail_is_admissible_on_dense_random(self):
        rng = np.random.default_rng(0)
        g = random_graph(30, 0.5, rng)
        params = AlgoParams.for_graph(g, 0.05, 1.0, step_budget=200_000)
        res = find_threshold(g, 0, params, seed=1)
        assert res.part is None or res.part.cut >= soto_fn(params.sigma) * res.part.inc

    def test_classified_set_monotone_over_rounds(self):
        # the returned tripartition only ever grows: verified via the
        # accumulator contract plus never-reclassify, spot-checked here
        inst = gen_planted(16, 0.0, 4, seed=3)
        params = AlgoParams.for_graph(inst.graph, 0.02, 1.0,
                                      step_budget=30_000_000)
        res = find_threshold(inst.graph, 0, params, seed=5)
        if res.success:
            assert res.part.classified_count > 0
            assert res.rounds >= 1

    def test_huge_mu_runs(self):
        # m^(1 + mu) overflows here; its reciprocal underflows to 0 instead.
        g = complete_bipartite(7, 7)
        params = AlgoParams.for_graph(g, 0.05, 1e300, step_budget=200_000)
        assert params.ell == 200
        res = find_threshold(g, 0, params, seed=1)
        assert res.steps <= 200_000
        assert res.part is None or res.part.cut >= soto_fn(params.sigma) * res.part.inc

    def test_huge_mu_light_graph_fails_cleanly(self):
        # m = 0.4 < 1: m^-(1 + mu/2) and m^-(1 + mu) overflow a float here.
        g = make_graph(3, [(0, 1, 0.1), (1, 2, 0.1)])
        res = find_threshold(g, 0, AlgoParams.for_graph(g, 0.05, 1e4), seed=1)
        assert not res.success
        assert (res.rounds, res.walks, res.steps) == (0, 0, 0)

    def test_steps_never_exceed_budget(self):
        # An early success has drawn its last block at its planned count, so
        # it may hold steps the rounds it ran were not charged; the plan's
        # total charge still bounds them.
        ahead = 0
        for g in (complete_bipartite(3, 3), cycle_graph(8),
                  gen_planted(300, 0.05, 8, seed=1).graph):
            for budget in (300, 3_000, 30_000, 300_000, 400_000, 3_000_000):
                params = AlgoParams.for_graph(g, 0.05, 1.0, step_budget=budget)
                for seed in range(3):
                    res = find_threshold(g, seed, params, seed)
                    assert res.walks * params.ell <= res.steps <= budget
                    ahead += res.success and res.steps > res.walks * params.ell
        assert ahead > 0

    def test_planted_quality_small(self):
        # majority of seeds succeed with the quality floor satisfied
        inst = gen_planted(20, 0.02, 5, seed=11)
        params = AlgoParams.for_graph(inst.graph, 0.05, 1.0,
                                      step_budget=50_000_000)
        wins = 0
        for seed in range(6):
            start = sorted(inst.left)[seed % 10]
            res = find_threshold(inst.graph, start, params, seed=seed)
            if res.success:
                wins += 1
                assert res.part.cut >= soto_fn(params.sigma) * res.part.inc - 1e-9
        assert wins >= 4


def reference_find(g, start, params, seed, classifying=None):
    """find_threshold as plain loops: one charges each round's top-up to the
    budget as the thresholds descend, the next runs the rounds that fit,
    drawing each round's pool afresh as the first walks of the planned
    blocks; kept as the reference for the search.  Appends to classifying,
    when given, each round that classifies a vertex."""
    m = g.total_weight
    t_min = GAMMA * m ** -(1.0 + params.mu / 2.0)
    planned, t, pool, steps = [], 1.0, 0, 0
    while t >= t_min:
        needed = walk_count(t, params.alpha, max(g.n, 2))
        charge = topup_steps(pool, needed, params.ell)
        if steps + charge > params.step_budget:
            break
        pool, steps = max(pool, needed), steps + charge
        planned.append((t, pool))
        t = (1.0 - GAMMA) ** len(planned)
    quality_floor = soto_fn(params.sigma)
    part = Tripartition(g)
    for r, (t, w) in enumerate(planned, start=1):
        # pool is now the largest planned size, which sizes every block.
        even, odd = planned_pool(g, start, params.ell, seed, pool, w)
        made = plain_classify(g, t, WalkTally(g.n, params.ell, w, even, odd), part)
        if classifying is not None and made:
            classifying.append(r)
        vol_floor = C_VOL * m ** -(1.0 + params.mu) / (t * t * math.log(max(g.n, 2)))
        if (part.classified_count > 0 and part.cut >= quality_floor * part.inc
                and part.classified_volume >= vol_floor):
            return FindResult(part, t, r, w, steps)
    return FindResult(None, None, len(planned), pool, steps)


class TestAgainstReference:
    """find_threshold draws each block of its pool once, ahead of the rounds
    that use it; every result stays that of the round-by-round loop, and an
    early stop leaves fewer than one block of walks unused."""

    def _check(self, monkeypatch, g, start, params, seed, classifying=None):
        """The search's result, checked against the reference, and the walks
        it drew beyond its final pool."""
        drawn = []
        kernel = walks._run_block

        def counting(g, start, length, seed, index, count):
            drawn.append(count)
            return kernel(g, start, length, seed, index, count)

        with monkeypatch.context() as patch:
            patch.setattr(walks, "_run_block", counting)
            got = find_threshold(g, start, params, seed)
        ref = reference_find(g, start, params, seed, classifying)
        assert (got.threshold, got.rounds, got.walks) == (
            ref.threshold, ref.rounds, ref.walks)
        assert got.success == ref.success
        # ref.steps is the plan's charge, which bounds the steps drawn.
        assert got.steps == sum(drawn) * params.ell <= ref.steps <= params.step_budget
        unused = sum(drawn) - got.walks
        if got.success:
            # The float sums depend on the order vertices were classified in.
            assert _tripartition_state(got.part) == _tripartition_state(ref.part)
            assert 0 <= unused <= BLOCK_WALKS - 1
        else:  # every planned round ran: nothing drawn ahead is unused
            assert unused == 0
        return got, unused

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_at_bench_budget(self, monkeypatch, seed):
        g = gen_planted(300, 0.05, 8, seed=seed).graph
        params = AlgoParams.for_graph(g, 0.05, 1.0, step_budget=150_000)
        for start in (0, 17, 150):
            self._check(monkeypatch, g, start, params, seed)

    def test_bipartite_succeeds_early(self, monkeypatch):
        ahead = []
        for g in (complete_bipartite(7, 7), complete_bipartite(3, 3), cycle_graph(8)):
            params = AlgoParams.for_graph(g, 0.05, 1.0, step_budget=40_000_000)
            for seed in range(4):
                res, unused = self._check(monkeypatch, g, seed % g.n, params, seed)
                assert res.success
                ahead.append(unused)
        assert max(ahead) > 0  # some search stopped with walks drawn ahead

    @pytest.mark.parametrize("start, seed", [(0, 7), (31, 8)])
    def test_pools_cross_a_block_boundary(self, monkeypatch, start, seed):
        g = load_graph(planted_file(200, 0.05, 8, 1))
        # ell = 19 here, so the pool passes 25 blocks before the budget ends it.
        params = AlgoParams.for_graph(g, 0.05, 0.25, step_budget=4_000_000)
        res, _ = self._check(monkeypatch, g, start, params, seed)
        assert res.walks > 2 * BLOCK_WALKS

    def test_balance_searches_classifying_at_several_rounds(self, monkeypatch):
        # balance_solve's within-block searches on the sub-instances it
        # builds, several of which classify at two or three rounds of the
        # block.
        searches = []
        kernel = solver.find_threshold

        def recording(g, start, params, seed):
            res = kernel(g, start, params, seed)
            if res.walks <= BLOCK_WALKS:
                searches.append((g, start, params, seed))
            return res

        with monkeypatch.context() as patch:
            patch.setattr(solver, "find_threshold", recording)
            balance_solve(load_graph(planted_file(200, 0.05, 8, 1)), 2.0, 0.25, seed=7)
        several = []
        for g, start, params, seed in searches:
            classifying = []
            res, _ = self._check(monkeypatch, g, start, params, seed, classifying)
            if len(classifying) >= 2:
                several.append((res.success, len(classifying)))
        assert (True, 3) in several and (False, 2) in several
        assert len(several) >= 8

    @pytest.mark.parametrize("case", ["planted-300", "mu-0.25"])
    def test_scores_once_per_block(self, monkeypatch, case):
        # At most one scorer call per block drawn, whatever the number of
        # rounds.
        if case == "planted-300":
            g, start, seed = gen_planted(300, 0.05, 8, seed=1).graph, 17, 1
            params = AlgoParams.for_graph(g, 0.05, 1.0, step_budget=150_000)
        else:
            g, start, seed = load_graph(planted_file(200, 0.05, 8, 1)), 0, 7
            params = AlgoParams.for_graph(g, 0.05, 0.25, step_budget=4_000_000)
        scored, drawn = [], []
        scorer, kernel = threshold._first_passes, walks._run_block

        def counting_scorer(*args):
            scored.append(args[4].size)  # the rounds of the batch
            return scorer(*args)

        def counting_kernel(*args):
            drawn.append(args)
            return kernel(*args)

        monkeypatch.setattr(threshold, "_first_passes", counting_scorer)
        monkeypatch.setattr(walks, "_run_block", counting_kernel)
        res = find_threshold(g, start, params, seed)
        if case == "planted-300":
            assert not res.success
            assert (len(drawn), len(scored), res.rounds) == (1, 1, 16)
        else:  # a round may reach several blocks past the last one drawn
            assert 2 < len(scored) <= len(drawn)
            assert sum(scored[:-1]) < res.rounds <= sum(scored)

    def test_scorer_reads_at_most_one_block_of_cells(self, monkeypatch):
        # A batch's rounds all end in its last block and share the earlier
        # blocks whole, so the scorer reads only the last block's cells, and
        # its memory does not grow with the step budget.
        g = load_graph(planted_file(200, 0.05, 8, 1))
        params = AlgoParams.for_graph(g, 0.05, 1.0, step_budget=20_000_000)
        read, scorer = [], threshold._first_passes

        def recording(*args):
            read.append(args[3].size)  # the cells handed to the scorer
            return scorer(*args)

        monkeypatch.setattr(threshold, "_first_passes", recording)
        res = find_threshold(g, 0, params, 1)
        assert not res.success and res.walks > 30 * BLOCK_WALKS
        assert 0 < max(read) <= BLOCK_WALKS
