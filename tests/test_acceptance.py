"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from rwcut.bench import brute_force_maxcut, gen_planted, greedy_cut, random_cut
from rwcut.graph import (
    Tripartition,
    WeightedGraph,
    conductance,
    cut_value,
    dump_graph,
)
from rwcut.localcut import LowConductanceCut, cut_or_bound
from rwcut.solver import balance_solve, best_tradeoff, eps_bar, h_fn, h_values, simple_solve
from rwcut.spectral import trevisan_baseline
from rwcut.threshold import SIGMA0, sigma_fn, soto_fn, threshold_classify, walk_count
from rwcut.walks import (
    WalkConfig,
    exact_walk_distribution,
    run_walks,
)

from conftest import complete_graph, dumbbell, random_graph, run_cli
from oracles import ls_chord_check, power_laplacian_vector, signed_estimates


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num} PASS [{name}] {detail}")


def test_criterion_1_laplacian_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    starts_checked = 0
    for trial in range(50):
        n = int(rng.integers(4, 51))
        g = random_graph(n, float(rng.uniform(0.1, 0.5)), rng,
                         weighted=bool(trial % 2))
        for s in range(g.n):
            if g.degrees[s] <= 0.0:
                continue
            starts_checked += 1
            for l in range(13):
                _, signed = exact_walk_distribution(g, s, l)
                scaled = np.divide(signed, np.sqrt(g.degrees), out=np.zeros(g.n),
                                   where=g.degrees > 0)
                diff = np.abs(scaled - power_laplacian_vector(g, s, l)).max()
                worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"identity violated: max diff {worst:g}"
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (limit 30s)"
    _report(1, "Laplacian identity",
            f"max diff {worst:.2e} over {starts_checked} starts x 13 lengths, "
            f"{elapsed:.1f}s")


def test_criterion_2_ls_chord_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 500:
        n = int(rng.integers(4, 31))
        g = random_graph(n, float(rng.uniform(0.15, 0.5)), rng,
                         weighted=bool(rng.random() < 0.5))
        start = int(np.argmax(g.degrees))
        for _ in range(5):
            if checked >= 500:
                break
            l = int(rng.integers(1, 9))
            k = int(rng.integers(1, g.n + 1))
            s = set(rng.permutation(g.n)[:k].tolist())
            assert ls_chord_check(g, start, l, s), (
                f"chord inequality failed: n={g.n} l={l} |S|={k}"
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s (limit 60s)"
    _report(2, "LS chord inequality", f"{checked} triples, {elapsed:.1f}s")


def test_criterion_3_cut_or_bound_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    battery = []
    for k in (10, 14, 18, 22, 26, 30, 40):  # dumbbells: cuts expected
        battery.append((dumbbell(k), 0.25, 0.45))
    for n in (30, 40, 50, 60):  # complete graphs: bound expected
        battery.append((complete_graph(n), 0.15, 0.21))
    for n in (50, 70, 90):  # dense random: either branch, soundness checked
        battery.append((random_graph(n, 0.5, rng), 0.15, 0.21))
    for n in (80, 120, 160, 200, 150, 100):  # sparse random
        battery.append((random_graph(n, 8.0 / n, rng), 0.25, 0.45))
    assert len(battery) == 20
    cuts = bounds = bound_correct = 0
    runs = 0
    for gi, (g, tau, zeta) in enumerate(battery):
        start = int(np.argmax(g.degrees))
        for seed in range(5):
            runs += 1
            res = cut_or_bound(g, start, tau, zeta, seed=1000 * gi + seed)
            if isinstance(res, LowConductanceCut):
                cuts += 1
                cond = conductance(g, res.vertices)
                assert cond < res.phi, (
                    f"unsound cut: graph {gi} cond {cond:g} phi {res.phi:g}"
                )
                assert cond == pytest.approx(res.conductance, abs=1e-9)
            else:
                bounds += 1
                p, _ = exact_walk_distribution(g, start, res.length)
                ratio = float((p / (2.0 * g.degrees)).max())
                if ratio <= res.alpha_bound:
                    bound_correct += 1
    elapsed = time.perf_counter() - t0
    assert runs == 100
    assert cuts > 0 and bounds > 0, "battery must exercise both branches"
    assert bound_correct / bounds >= 0.95, (
        f"bound declarations correct: {bound_correct}/{bounds}"
    )
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s (limit 300s)"
    _report(3, "CutOrBound soundness",
            f"{cuts} cuts (all sound), {bounds} bounds "
            f"({bound_correct} verified by DP), {elapsed:.1f}s")


def test_criterion_4_soto_and_sigma():
    assert soto_fn(0.0) == 1.0
    assert soto_fn(0.5) == 0.5
    assert soto_fn(1.0) == 0.5
    for sigma in np.linspace(1.0 / 3.0 + 1e-9, 1.0, 50):
        assert soto_fn(float(sigma)) == 0.5
    for seam in (SIGMA0, 1.0 / 3.0):
        assert abs(soto_fn(seam - 1e-9) - soto_fn(seam + 1e-9)) < 1e-6
    grid = np.linspace(0.0, 1.0, 1000)
    vals = [soto_fn(float(s)) for s in grid]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    eps_grid = np.linspace(0.0, 0.9, 200)
    for mu in (0.3, 1.0, 4.0):
        sg = [sigma_fn(float(e), mu) for e in eps_grid]
        assert all(b > a for a, b in zip(sg, sg[1:]))
    _report(4, "soto continuity/monotonicity and sigma monotonicity")


def test_criterion_5_h_function():
    for mu in (0.5, 1.0, 2.0):
        val = h_fn(eps_bar(mu), mu)
        assert val > 0.5029, f"H(eps_bar, {mu}) = {val:g}"
    for mu in (0.5, 1.0, 2.0):
        eps = np.linspace(1e-3, 0.5, 100)
        vals = h_values(eps, mu)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-6)
    _report(5, "H function lower bound, convexity, monotonicity")


def test_criterion_6_end_to_end_quality():
    t0 = time.perf_counter()
    simple_vals = []
    balance_vals = []
    for seed in range(10):
        inst = gen_planted(1000, 0.05, 8, seed=seed)
        g = inst.graph
        greedy_val = cut_value(g, greedy_cut(g))
        rs = simple_solve(g, 1.0, seed=seed, find_step_budget=150_000,
                          probes=3)
        rb = balance_solve(g, 2.0, 0.25, seed=seed, find_step_budget=150_000,
                           probes=3, cutbound_step_budget=2_000_000)
        assert rs.cut_value >= greedy_val - 1e-12
        assert rb.cut_value >= greedy_val - 1e-12
        simple_vals.append(rs.cut_value)
        balance_vals.append(rb.cut_value)
    med_s = float(np.median(simple_vals))
    med_b = float(np.median(balance_vals))
    assert med_s >= 0.52, f"simple median {med_s:g}"
    assert med_b >= 0.52, f"balance median {med_b:g}"

    rng = np.random.default_rng(606)
    for i in range(200):
        n = int(rng.integers(4, 19))
        g = random_graph(n, float(rng.uniform(0.2, 0.6)), rng,
                         weighted=bool(i % 3 == 0))
        opt, _ = brute_force_maxcut(g)
        candidates = {
            "simple": simple_solve(g, 1.0, seed=i, find_step_budget=30_000,
                                   probes=2).cut_value,
            "balance": balance_solve(g, 2.0, 0.25, seed=i,
                                     find_step_budget=30_000, probes=2,
                                     cutbound_step_budget=200_000).cut_value,
            "trevisan": cut_value(g, trevisan_baseline(g, seed=i)),
            "greedy": cut_value(g, greedy_cut(g)),
            "random": cut_value(g, random_cut(g, np.random.default_rng(i))),
        }
        for name, val in candidates.items():
            assert val <= opt + 1e-9, f"{name} beat brute force on graph {i}"
    elapsed = time.perf_counter() - t0
    _report(6, "end-to-end quality",
            f"simple median {med_s:.3f}, balance median {med_b:.3f}, "
            f"200-graph optimality battery, {elapsed:.0f}s")


def test_criterion_7_tradeoff_curve():
    t0 = time.perf_counter()
    targets = {1.6: 0.5051, 2.0: 0.5155, 3.0: 0.5727}
    ratios = {}
    for b, target in targets.items():
        point = best_tradeoff(b)
        ratios[b] = point.ratio
        assert point.ratio > 0.5, f"ratio at b={b} not above 1/2"
        assert abs(point.ratio - target) <= 0.015, (
            f"b={b}: ratio {point.ratio:.4f} vs target {target}"
        )
    ordered = [ratios[b] for b in (1.6, 2.0, 3.0)]
    assert all(y >= x - 1e-9 for x, y in zip(ordered, ordered[1:]))
    elapsed = time.perf_counter() - t0
    _report(7, "tradeoff curve",
            ", ".join(f"b={b}: {ratios[b]:.4f} (target {t})"
                      for b, t in targets.items()) + f", {elapsed:.0f}s")


def _concentration_battery():
    """Bipartite cores (deterministic arrival parity, so the estimator
    variance is p(1-p)) padded with weight-2 pairs up to n ~ 50."""

    def padded(core_edges, n_total=50):
        edges = list(core_edges)
        used = 1 + max(max(u, v) for u, v, _ in core_edges)
        v = used
        while v + 1 < n_total:
            edges.append((v, v + 1, 2.0))
            v += 2
        return WeightedGraph.from_edges(n_total, edges)

    pair = lambda w: [(0, 1, w)]
    path3 = lambda w: [(0, 1, w), (1, 2, w)]
    star = lambda k, w: [(0, j, w) for j in range(1, k + 1)]
    battery = [
        (padded(pair(1.0)), 0, 2),
        (padded(pair(2.0)), 0, 2),
        (padded(pair(3.0)), 0, 2),
        (padded(pair(4.0)), 0, 2),
        (padded(pair(1.0)), 0, 3),
        (padded(path3(1.0)), 0, 2),
        (padded(path3(2.0)), 0, 2),
        (padded(star(3, 1.0)), 0, 2),
        (padded(star(4, 1.0)), 0, 2),
        (padded(pair(2.0)), 1, 3),
    ]
    return battery


def test_criterion_8_estimation_concentration():
    # The concentration guarantee needs an accuracy parameter above 1/ln(n)
    # at this walk-count constant; 1/3 clears that for every n <= 60 here.
    t0 = time.perf_counter()
    gamma_tol = 1.0 / 3.0
    battery = _concentration_battery()
    assert len(battery) == 10
    for gi, (g, start, ell) in enumerate(battery):
        _, s = exact_walk_distribution(g, start, ell)
        exact = np.zeros(g.n)
        mask = g.degrees > 0
        exact[mask] = s[mask] / g.degrees[mask]
        for t in (0.2, 0.1):
            if float(np.abs(exact).max()) <= t * 1.15:
                continue  # this core only clears the smaller threshold
            bad_seeds = 0
            nonvacuous = 0
            for seed in range(200):
                w = walk_count(t, 1.0, g.n)
                tally = run_walks(
                    g, start,
                    WalkConfig(length=ell, walks=w, seed=31_000 * gi + seed),
                )
                part = Tripartition(g)
                threshold_classify(g, t, tally, part)
                est = signed_estimates(tally, g)
                classified = np.nonzero(part.side != 0)[0]
                if classified.size:
                    nonvacuous += 1
                if any(abs(est[j] - exact[j]) > gamma_tol * t
                       for j in classified):
                    bad_seeds += 1
            assert nonvacuous >= 180, (
                f"graph {gi} t={t}: classification vacuous "
                f"({nonvacuous}/200 seeds)"
            )
            assert bad_seeds <= 2, (
                f"graph {gi} t={t}: {bad_seeds}/200 seeds violated gamma*t"
            )
    elapsed = time.perf_counter() - t0
    _report(8, "estimation concentration",
            f"10 graphs x t in {{0.2, 0.1}} x 200 seeds, {elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    inst = gen_planted(60, 0.05, 6, seed=9)
    graph_file = tmp_path / "det.el"
    dump_graph(inst.graph, str(graph_file))
    for algo, extra in (
        ("simple", ["--mu", "1", "--find-steps", "300000"]),
        ("balance", ["--b", "2.0", "--mu1", "0.25", "--find-steps", "100000"]),
        ("greedy", []),
    ):
        outputs = []
        partitions = []
        for threads in ("1", "8"):
            part = tmp_path / f"{algo}-{threads}.part"
            proc = run_cli([
                "solve", "--algo", algo, "--in", str(graph_file),
                "--seed", "42", "--threads", threads, "--out", str(part),
                *extra,
            ])
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
            partitions.append(part.read_bytes())
        assert outputs[0] == outputs[1], f"{algo}: stdout differs by threads"
        assert partitions[0] == partitions[1], f"{algo}: partition differs"
    gen_outputs = []
    for run in range(2):
        workdir = tmp_path / f"gen-{run}"
        workdir.mkdir()
        proc = run_cli(["gen", "--n", "40", "--eps", "0.1", "--deg", "5",
                        "--seed", "7", "--out", "planted.el"], cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        gen_outputs.append((proc.stdout,
                            (workdir / "planted.el").read_bytes(),
                            (workdir / "planted.el.meta.json").read_bytes()))
    assert gen_outputs[0] == gen_outputs[1]
    elapsed = time.perf_counter() - t0
    _report(9, "determinism across thread counts", f"{elapsed:.0f}s")
