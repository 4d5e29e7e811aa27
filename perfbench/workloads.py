"""The benchmark's workloads: inputs, timed operations and their checks.

Every workload calls the public rwcut API from one process with threads=1,
as a closed loop with one caller.  A repetition is the workload's fixed set
of operations; each operation is timed alone (wall and process CPU time) and
its output is checked before the next one starts.  Checks are not timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.integrate import quad

import rwcut.bench
import rwcut.cli
import rwcut.graph
import rwcut.localcut
import rwcut.solver
import rwcut.spectral
import rwcut.walks

# Acceptance criterion 6 budgets, except the cut-or-bound cap: lowering it
# from 2,000,000 to 100,000 steps takes about 1.5 s (15-25%) off each
# balance_solve and leaves more of a run to the repeated simple solves.
FIND_STEP_BUDGET = 150_000
PROBES = 3
CUTBOUND_STEP_BUDGET = 100_000

# Acceptance criterion 7 targets for the guaranteed ratio at each b.
TRADEOFF_TARGETS = {1.6: 0.5051, 2.0: 0.5155, 3.0: 0.5727}
TRADEOFF_TOL = 0.015

H_FN = rwcut.solver.h_fn  # the cached original, whatever wrapper is installed


def calibration_s() -> float:
    """Wall time of a fixed kernel that does not touch rwcut (about 0.3 s).

    It mixes the kinds of work the workloads do: vectorized sampling
    (searchsorted over a cumulative array), a Python loop over small array
    slices, scipy quadrature of a Python integrand, and parsing text into a
    dict.  On a shared machine the host's speed drifts by 20-40% over
    minutes, in CPU time as much as in wall time; a repetition's time over
    this kernel's time, measured beside it, cancels much of that drift.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    cum = np.cumsum(rng.random(100_000))
    for _ in range(80):
        np.searchsorted(cum, rng.random(4096) * cum[-1])
    a = rng.random(24_000)
    acc = 0.0
    for i in range(a.size - 8):
        acc += float(a[i:i + 8].sum())
    for k in range(1, 1000):
        acc += quad(lambda x: math.sqrt(x * x + k) / (1.0 + x), 0.0, 1.0 + k)[0]
    edges: dict[tuple[int, int], float] = {}
    for line in [f"{i} {i * 7919 % 50_000} 1.0" for i in range(30_000)]:
        u, v, w = line.split()
        key = (int(u), int(v))
        edges[key] = edges.get(key, 0.0) + float(w)
    return time.perf_counter() - t0


class RepAborted(Exception):
    """An operation raised, so the rest of its repetition cannot run."""


# A calibration also runs after any operation longer than this, so that a
# long repetition is compared with the host's speed over its own parts.
CALIBRATE_AFTER_S = 2.0


class Runner:
    """Times operations, runs their checks and counts failures.

    With calibrate=True, each repetition's time is also divided, segment by
    segment, by the mean of the calibration times measured at the segment's
    two ends (see calibration_s).
    """

    def __init__(self, log, calibrate: bool = False):
        self.log = log
        self.calibrate = calibrate
        self.calibrations: list[float] = []
        self.rep_calib = 0.0  # calibrated time of the current repetition
        self._segment = 0.0  # operation wall time since the last calibration
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # set while a traced repetition runs
        self.rep_wall = 0.0  # summed operation wall time of the current repetition
        self.rep_cpu = 0.0
        self.rep_all_wall = 0.0  # the same, with in_rep=False operations
        self.rep_ok = True

    def op(self, kind: str, call, check=None, in_rep: bool = True):
        """Run call() as one timed operation; check(result) lists problems.

        An operation with in_rep=False is timed and checked but left out of
        the repetition's time.
        """
        self.attempted += 1
        span = self.tracer.op(kind) if self.tracer else contextlib.nullcontext()
        try:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            with span:
                result = call()
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        except Exception:
            self.failed += 1
            self.rep_ok = False
            self.log(f"FAIL {kind}: raised\n{traceback.format_exc()}")
            raise RepAborted(kind)
        self.rep_all_wall += wall
        if in_rep:
            self.rep_wall += wall
            self.rep_cpu += cpu
            self._segment += wall
            if wall > CALIBRATE_AFTER_S:
                self.close_segment()
        problems = check(result) if check else []
        if problems:
            self.failed += 1
            self.rep_ok = False
            self.log(f"FAIL {kind}: " + "; ".join(problems))
        else:
            self.samples[kind].append((wall, cpu))
        return result

    def start_rep(self) -> None:
        self.rep_wall = self.rep_cpu = self.rep_all_wall = 0.0
        self.rep_calib = self._segment = 0.0
        self.rep_ok = True
        if self.calibrate and not self.calibrations:
            calibration_s()  # first-call warm-up
            self.calibrations.append(calibration_s())

    def close_segment(self) -> None:
        """Calibrate now and add the segment since the last one, calibrated."""
        if self.calibrate and self._segment > 0.0:
            self.calibrations.append(calibration_s())
            self.rep_calib += self._segment / (0.5 * sum(self.calibrations[-2:]))
        self._segment = 0.0

    def note(self, key: str, value: float) -> None:
        self.values[key].append(float(value))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


class Workload:
    """Set-up, warm-up and repetitions of one workload."""

    name = ""
    why = ""
    # Timing metrics printed for the workload: name -> (operation kind, or
    # "rep" for the whole repetition; "p50" or "tail").
    named: dict[str, tuple[str, str]] = {}
    setup_includes_import = False
    setup_reps = 3  # set-ups per run; set-up time is their median

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.provenance: list[dict] = []
        # In a traced run every repetition runs every operation, so traced
        # repetitions are alike and per-repetition counts are comparable.
        self.all_ops = False
        self.gen_shares: list[float] = []  # share of each set-up in gen_planted

    def setup(self) -> float:
        """Generate and write the inputs; returns the seconds it took."""
        return 0.0

    def prepare(self) -> None:
        """Untimed reference results and first-call warm-up."""

    def rep(self, i: int, runner: Runner) -> None:
        raise NotImplementedError

    def trace_extras(self, tracer) -> dict:
        """Per-layer measurements taken outside the operations."""
        return {}

    def cleanup(self) -> None:
        """Delete the generated inputs and partition files."""
        for path in self.workdir.glob("*"):
            path.unlink()
        self.workdir.rmdir()


class _Planted(Workload):
    """Shared code of the planted-instance workloads."""

    n = 0
    instances = 1

    def _instance_seeds(self) -> list[int]:
        return [self.seed * 1000 + k for k in range(self.instances)]

    def setup(self) -> float:
        gen = 0.0
        t0 = time.perf_counter()
        insts = []
        for k, s in enumerate(self._instance_seeds()):
            t_gen = time.perf_counter()
            inst = rwcut.bench.gen_planted(self.n, 0.05, 8, s)
            gen += time.perf_counter() - t_gen
            rwcut.graph.dump_graph(inst.graph, self.workdir / f"inst{k}.el")
            insts.append(inst)
        elapsed = time.perf_counter() - t0
        self.gen_shares.append(gen / elapsed)
        provenance = []
        for k, inst in enumerate(insts):
            provenance.append({
                "file": f"inst{k}.el", "instance_seed": inst.seed,
                "n": inst.graph.n, "edges": int(inst.graph.nbr.size // 2),
                "planted_value": inst.planted_value,
                "sha256": sha256_file(self.workdir / f"inst{k}.el"),
            })
        if self.provenance and provenance != self.provenance:
            raise RuntimeError("set-up is not deterministic for a fixed seed")
        self.provenance = provenance
        self.generated = insts
        return elapsed

    def path(self, k: int) -> Path:
        return self.workdir / f"inst{k}.el"

    def references(self) -> list[dict]:
        """Greedy baseline per instance, from the generated graphs (untimed)."""
        refs = []
        for inst in self.generated:
            left = rwcut.bench.greedy_cut(inst.graph)
            refs.append({"graph": inst.graph, "greedy_left": left,
                         "greedy_value": rwcut.graph.cut_value(inst.graph, left),
                         "planted_value": inst.planted_value})
        return refs

    def load(self, k: int, runner: Runner):
        """Timed load_graph of instance k; it must equal the generated graph."""
        expected = self.refs[k]["graph"]
        return runner.op("load", lambda: rwcut.graph.load_graph(self.path(k)),
                         lambda g: [] if g == expected else ["loaded graph differs"])

    def _warm_file(self) -> Path:
        path = self.workdir / "warmup.el"
        rwcut.graph.dump_graph(rwcut.bench.gen_planted(64, 0.05, 8, 1).graph, path)
        return path

    def check_cut(self, g, left, reported: float, ref: dict) -> list[str]:
        """Recomputed value equals the reported one and beats greedy."""
        value = rwcut.graph.cut_value(g, left)
        problems = []
        if not _close(value, reported):
            problems.append(f"reported cut {reported!r} != recomputed {value!r}")
        if value < ref["greedy_value"] - 1e-12:
            problems.append(f"cut {value!r} below greedy {ref['greedy_value']!r}")
        return problems


class Planted1k(_Planted):
    """A repetition is load_graph plus simple_solve on the next instance.

    balance_solve runs in the first repetitions only and is not part of the
    repetition's time: its cost varies about 25% (CV) from instance to
    instance, so the few that fit in a run cannot give a steady median.
    """

    name = "planted-1k"
    why = ("n=1000 planted cuts, simple and balance solves: the sampled-walk "
           "engine, threshold descent, induced rebuilds and cut quality")
    named = {"load_s": ("load", "p50"), "simple_s_p50": ("simple", "p50"),
             "simple_s_tail": ("simple", "tail"), "balance_s_p50": ("balance", "p50"),
             "balance_s_tail": ("balance", "tail")}
    n = 1000
    instances = 6
    balance_reps = 2
    setup_reps = 5  # each set-up takes only 0.2-0.4 s

    def __init__(self, workdir, seed, smoke=False):
        super().__init__(workdir, seed)
        if smoke:
            self.n, self.instances, self.balance_reps = 200, 2, 1

    def prepare(self):
        self.refs = self.references()
        warm = rwcut.graph.load_graph(self._warm_file())
        rwcut.solver.simple_solve(warm, 1.0, seed=1, find_step_budget=5_000, probes=1)
        rwcut.solver.balance_solve(warm, 2.0, 0.25, seed=1, find_step_budget=5_000,
                                   probes=1, cutbound_step_budget=5_000)

    def _check_solve(self, g, ref):
        def check(report):
            problems = self.check_cut(g, report.left, report.cut_value, ref)
            if not problems:
                self.solves.append(report)
            return problems
        return check

    def rep(self, i, runner):
        k = i % len(self.provenance)
        ref = self.refs[k]
        solve_seed = self.provenance[k]["instance_seed"]
        g = self.load(k, runner)
        self.solves = []
        runner.op("simple", lambda: rwcut.solver.simple_solve(
            g, 1.0, seed=solve_seed, find_step_budget=FIND_STEP_BUDGET,
            probes=PROBES), self._check_solve(g, ref))
        if i < self.balance_reps or self.all_ops:
            runner.op("balance", lambda: rwcut.solver.balance_solve(
                g, 2.0, 0.25, seed=solve_seed, find_step_budget=FIND_STEP_BUDGET,
                probes=PROBES, cutbound_step_budget=CUTBOUND_STEP_BUDGET),
                self._check_solve(g, ref), in_rep=False)
        complement = frozenset(range(g.n)) - ref["greedy_left"]
        for report in self.solves:
            runner.note(f"quality.{report.algorithm}",
                        report.cut_value / ref["planted_value"])
            runner.note(f"walks_{report.algorithm}", report.total_walks)
            runner.note("walk_win", report.left not in (ref["greedy_left"], complement))

    def trace_extras(self, tracer):
        return walk_extras(tracer, self.refs[0]["graph"])


class Planted100k(_Planted):
    """A repetition is load, the greedy CLI solve, the eval round trip of
    the Trevisan partition and the probes.

    trevisan_baseline runs in the first repetition only and is not part of
    the repetition's time: its recursion depth, and so its cost (6-10 s),
    varies with the instance.
    """

    name = "planted-100k"
    why = ("one n=100k planted cut: load, CLI greedy, Trevisan, eval round trip, "
           "capped probes; graph layer and spectral matvecs dominate")
    named = {"load_s": ("load", "p50"), "cli_greedy_s": ("cli_greedy", "p50"),
             "trevisan_s": ("trevisan", "p50"), "eval_s": ("eval", "p50"),
             "probe_s_p50": ("probe", "p50")}
    n = 100_000
    instances = 1
    probes = 2
    setup_reps = 2  # gen_planted alone takes 5-9 s at this size
    trevisan_reps = 1
    trevisan_left = None  # partition the eval round trip writes and reads

    def __init__(self, workdir, seed, smoke=False):
        super().__init__(workdir, seed)
        if smoke:
            self.n = 2000

    def prepare(self):
        self.refs = self.references()
        g = self.refs[0]["graph"]
        rng = np.random.default_rng(self.seed)
        self.starts = [(rwcut.graph.sample_vertex_by_degree(g, rng), self.seed + j)
                       for j in range(self.probes)]
        warm = self._warm_file()
        self._cli_greedy(warm)
        wg = rwcut.graph.load_graph(warm)
        left = rwcut.spectral.trevisan_baseline(wg, seed=1)
        self._eval(wg, left)
        rwcut.localcut.cut_or_bound(wg, 0, 0.25, 0.45, seed=1, max_walk_steps=5_000)

    def _cli_greedy(self, path: Path) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rwcut.cli.main(["solve", "--algo", "greedy", "--in", str(path),
                                   "--seed", "1", "--threads", "1",
                                   "--out", str(self.workdir / "cli.part")])
        return code, out.getvalue()

    def _eval(self, g, left):
        part = self.workdir / "eval.part"
        rwcut.graph.write_partition(left, g.n, part)
        back = rwcut.graph.read_partition(part)
        return back, rwcut.graph.cut_value(g, back)

    def rep(self, i, runner):
        ref = self.refs[0]
        planted = ref["planted_value"]
        g = self.load(0, runner)

        def check_cli(result):
            code, stdout = result
            if code != 0:
                return [f"exit code {code}"]
            left = rwcut.graph.read_partition(self.workdir / "cli.part")
            reported = json.loads(stdout.splitlines()[0])["cut_value"]
            runner.note("quality.greedy", reported / planted)
            return self.check_cut(g, left, reported, ref)

        runner.op("cli_greedy", lambda: self._cli_greedy(self.path(0)), check_cli)

        def check_trevisan(left):
            value = rwcut.graph.cut_value(g, left)
            runner.note("quality.trevisan", value / planted)
            return [] if 0.5 - 1e-12 <= value <= 1.0 else [f"trevisan cut {value!r}"]

        if i < self.trevisan_reps or self.all_ops or self.trevisan_left is None:
            self.trevisan_left = runner.op(
                "trevisan", lambda: rwcut.spectral.trevisan_baseline(g, seed=self.seed),
                check_trevisan, in_rep=False)
        left = self.trevisan_left

        def check_eval(result):
            back, value = result
            problems = [] if back == left else ["partition changed in the round trip"]
            expected = rwcut.graph.cut_value(g, left)
            if not _close(value, expected):
                problems.append(f"eval value {value!r} != {expected!r}")
            return problems

        runner.op("eval", lambda: self._eval(g, left), check_eval)
        for start, probe_seed in self.starts:
            runner.op("probe", lambda: rwcut.localcut.cut_or_bound(
                g, start, 0.25, 0.45, seed=probe_seed, max_walk_steps=2_000_000),
                lambda res: check_probe(g, res, 0.25))

    def trace_extras(self, tracer):
        return walk_extras(tracer, self.refs[0]["graph"])


def check_probe(g, res, tau: float) -> list[str]:
    if isinstance(res, rwcut.localcut.LowConductanceCut):
        phi = rwcut.graph.conductance(g, res.vertices)
        problems = []
        if not math.isclose(phi, res.conductance, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"conductance {res.conductance!r} != recomputed {phi!r}")
        if not phi < res.phi:
            problems.append(f"conductance {phi!r} not below phi {res.phi!r}")
        return problems
    alpha = g.total_weight ** -tau
    if not (_close(res.alpha, alpha) and _close(res.alpha_bound, 256.0 * alpha)):
        return [f"bound {res.alpha_bound!r} inconsistent with alpha {alpha!r}"]
    return []


def walk_extras(tracer, g) -> dict:
    """Walk-engine rates measured outside the operations.

    speedup_2t repeats the last per-length run_walks call an operation made
    at threads=1 and threads=2 (tallies must agree); exact_matvecs_per_s
    times exact_walk_distribution at length 80, two matvecs per step.
    """
    extras = {}
    if tracer.last_probe_walks is not None:
        pg, start, cfg = tracer.last_probe_walks
        times, tallies = [], []
        for threads in (1, 2):
            t0 = time.perf_counter()
            tallies.append(rwcut.walks.run_walks(pg, start, cfg, threads=threads))
            times.append(time.perf_counter() - t0)
        if not (np.array_equal(tallies[0].even, tallies[1].even)
                and np.array_equal(tallies[0].odd, tallies[1].odd)):
            raise RuntimeError("run_walks tallies differ between thread counts")
        extras["walks.speedup_2t"] = times[0] / times[1]
    start = int(np.argmax(g.degrees))
    t0 = time.perf_counter()
    rwcut.walks.exact_walk_distribution(g, start, 80)
    extras["walks.exact_matvecs_per_s"] = 160 / (time.perf_counter() - t0)
    return extras


class TradeoffCurve(Workload):
    name = "tradeoff-curve"
    why = ("cold best_tradeoff for b in 1.6, 2, 3: scalar numerics only, "
           "so walk or graph changes must read no change here")
    named = {"tradeoff_s": ("rep", "p50")}  # a repetition is one cold curve
    setup_includes_import = True  # no inputs: set-up is reaching the first call

    def __init__(self, workdir, seed, smoke=False):
        super().__init__(workdir, seed)
        self.bs = (3.0,) if smoke else tuple(TRADEOFF_TARGETS)

    def setup(self) -> float:
        """First-call warm-up of the tradeoff numerics on a cold cache."""
        tau, mu2 = rwcut.solver.balance_params(2.0, 0.25)
        t0 = time.perf_counter()
        H_FN.cache_clear()
        rwcut.solver.tradeoff_objective(rwcut.solver.eps_bar(0.25), 0.25, mu2, tau)
        return time.perf_counter() - t0

    def rep(self, i, runner):
        """One cold curve: the cache is cleared once, then one op per b."""
        H_FN.cache_clear()
        ratios = []

        def check(b):
            def check_point(point):
                ratios.append(point.ratio)
                runner.note(f"quality.b{b:g}", point.ratio)
                problems = []
                if not (point.ratio > 0.5
                        and abs(point.ratio - TRADEOFF_TARGETS[b]) <= TRADEOFF_TOL):
                    problems.append(f"ratio {point.ratio!r} at b={b:g}")
                if len(ratios) > 1 and ratios[-2] > ratios[-1]:
                    problems.append(f"ratios not nondecreasing in b: {ratios}")
                return problems
            return check_point

        for b in self.bs:
            runner.op("tradeoff", lambda: rwcut.solver.best_tradeoff(b), check(b))


WORKLOADS = {w.name: w for w in (Planted1k, Planted100k, TradeoffCurve)}
