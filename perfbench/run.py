"""Benchmark of the rwcut library and CLI.

    python3 perfbench/run.py --workload planted-1k --seed 1 --seconds 20 --trace 0

Runs one workload (planted-1k, planted-100k or tradeoff-curve; see
BENCHMARK.json for why each exists) against the rwcut sources under src/ of
the checkout the script sits in.  Inputs come from --seed alone; the library
only sees the generated edge-list files.  The loop repeats the workload's
operations until --seconds have passed, checks every output, prints the
metrics by name with units and sample counts, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
repetitions alternate untraced and traced, and the metrics are the per-layer
ones from the spans (see tracing.py) plus the tracing overhead.  Full results
and the spans go to perfbench/out/.  The exit code is 2 when the rwcut
sources are missing and no result is printed then.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """Highest of p99.9/p99/p95/p90/p75/p50 with >= 10 samples beyond it."""
    xs = sorted(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            return p, xs[min(len(xs) - 1, int(len(xs) * p / 100.0))]
    return None


# -- environment ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Cache size strings by level, from cpu0's sysfs entries."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # the checkout is not a git repository


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_lines": src_lines,
        "threads": 1,
    }


# -- the run -------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False,
        import_s: float = 0.0) -> dict:
    """Run one workload; returns everything measured (see main for output)."""
    from tracing import Tracer
    from workloads import WORKLOADS, RepAborted, Runner

    workdir = OUT / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](workdir, seed, smoke)
    wl.all_ops = trace
    runners = {False: Runner(log, calibrate=True), True: Runner(log)}  # by traced
    tracer = Tracer() if trace else None
    try:
        setup_times = [wl.setup() for _ in range(wl.setup_reps)]
        wl.prepare()

        rep_s = {False: [], True: []}  # by traced: repetition wall seconds
        rep_cpu_s = []  # untraced repetition CPU seconds
        rep_calib = []  # untraced repetition time over calibration time
        pairs = []  # (untraced, traced) seconds of all operations of a repetition

        def one_rep(i: int, traced: bool) -> float | None:
            runner = runners[traced]
            runner.start_rep()
            runner.tracer = tracer if traced else None
            try:
                if traced:
                    with tracer.installed():
                        wl.rep(i, runner)
                else:
                    wl.rep(i, runner)
            except RepAborted:
                pass
            runner.close_segment()
            if not runner.rep_ok:
                return None
            rep_s[traced].append(runner.rep_wall)
            if not traced:
                rep_cpu_s.append(runner.rep_cpu)
                rep_calib.append(runner.rep_calib)
            return runner.rep_all_wall

        t_begin = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - t_begin < seconds:
            if trace:
                order = (False, True) if i % 2 == 0 else (True, False)
                got = {traced: one_rep(i, traced) for traced in order}
                if None not in got.values():
                    pairs.append((got[False], got[True]))
            else:
                one_rep(i, False)
            i += 1
        measured_s = time.perf_counter() - t_begin
        extras = wl.trace_extras(tracer) if trace else {}
    finally:
        wl.cleanup()

    setup_s = median(setup_times) + (import_s if wl.setup_includes_import else 0.0)
    return {
        "workload": name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "measured_s": measured_s, "reps": i,
        "setup_s": setup_s, "setup_samples": setup_times,
        "gen_setup_share": median(wl.gen_shares),
        "provenance": wl.provenance, "named": wl.named,
        "runners": runners, "rep_s": rep_s, "rep_cpu_s": rep_cpu_s,
        "rep_calib": rep_calib, "calibration_s": runners[False].calibrations,
        "pairs": pairs,
        "tracer": tracer, "extras": extras,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# -- metrics -------------------------------------------------------------------


def end_to_end(res: dict) -> tuple[dict, list[str]]:
    """The BENCHMARK.json end-to-end metrics, plus report lines with the
    workload's own named metrics."""
    runner = res["runners"][False]
    metrics = {
        "setup_s": (res["setup_s"], "s"),
        "rep_calib_p50": (median(res["rep_calib"]), "ratio"),
        # median over the workload's solvers (or b values) of their median
        "quality_p50": (median([median(v) for k, v in runner.values.items()
                                if k.startswith("quality.")]), "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    lines = [f"setup_s = {res['setup_s']:.4f} s "
             f"(median of {len(res['setup_samples'])} set-ups)"]
    for metric, (kind, stat) in res["named"].items():
        if kind == "rep":
            walls, cpus = res["rep_s"][False], res["rep_cpu_s"]
        else:
            walls = [w for w, _ in runner.samples[kind]]
            cpus = [c for _, c in runner.samples[kind]]
        if stat == "p50":
            lines.append(f"{metric} = {median(walls):.4f} s "
                         f"(cpu {median(cpus):.4f} s; n={len(walls)})")
        else:
            t = tail(walls)
            lines.append(f"{metric} = " + (f"{t[1]:.4f} s (p{t[0]:g}; n={len(walls)})"
                                          if t else f"n/a s (n={len(walls)}, "
                                          "needs >= 20 samples)"))
    values = runner.values
    if "walk_win" in values:
        walks = {algo: values[f"walks_{algo}"] for algo in ("simple", "balance")}
        lines.append("walks_per_solve = " + "; ".join(
            f"{statistics.fmean(w) if w else 0.0:.1f} walks ({algo}, n={len(w)})"
            for algo, w in walks.items()))
        ratios = values["quality.simple"] + values["quality.balance"]
        lines.append(f"cut_ratio_p50 = {median(ratios):.4f} ratio (n={len(ratios)})")
        wins = values["walk_win"]
        lines.append(f"walk_win_frac = {sum(wins) / max(len(wins), 1):.4f} fraction "
                     f"({int(sum(wins))}/{len(wins)})")
    lines.append(f"error_rate = {runner.failed / max(runner.attempted, 1):.4f} fraction "
                 f"({runner.failed}/{runner.attempted})")
    lines.append(f"peak_rss_mb = {res['peak_rss_mb']:.1f} MB")
    lines.append(f"rep_s_p50 = {median(res['rep_s'][False]):.4f} s "
                 f"(cpu {median(res['rep_cpu_s']):.4f} s; n={len(res['rep_s'][False])}); "
                 f"calibration kernel {median(res['calibration_s']):.4f} s "
                 f"(n={len(res['calibration_s'])})")
    lines.append(f"rep_calib_p50 = {metrics['rep_calib_p50'][0]:.4f} ratio; "
                 f"quality_p50 = {metrics['quality_p50'][0]:.4f} ratio")
    return metrics, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced repetitions."""
    from tracing import HARNESS, LAYERS

    ops = res["tracer"].operations()
    reps = max(len(res["rep_s"][True]), 1)
    total = sum(op["dur"] for op in ops) or 1.0
    layers, names, hot, counters = {}, {}, {}, {}
    for op in ops:
        for layer, secs in op["layers"].items():
            layers[layer] = layers.get(layer, 0.0) + secs
        for name, (calls, incl, self_s) in op["names"].items():
            c = names.setdefault(name, [0, 0.0, 0.0])
            c[0] += calls
            c[1] += incl
            c[2] += self_s
        for name, (calls, secs) in op["hot"].items():
            c = hot.setdefault(name, [0, 0.0])
            c[0] += calls
            c[1] += secs
        for key, value in op["counters"].items():
            counters[key] = counters.get(key, 0.0) + value

    def calls(name):
        return names.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return names.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return names.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters.get
    pairs = res["pairs"]
    m = {
        "graph.self_share": (layers.get("graph", 0.0) / total, "fraction"),
        "graph.load_edges_per_s": (ratio(c("graph.load_edges", 0), incl("load_graph")), "1/s"),
        "graph.from_edges_share": (incl("WeightedGraph.from_edges") / total, "fraction"),
        "graph.induced_calls": (calls("WeightedGraph.induced") / reps, "count"),
        "graph.induced_share": (incl("WeightedGraph.induced") / total, "fraction"),
        "graph.cut_value_share": (incl("cut_value") / total, "fraction"),
        "graph.classify_calls": (hot.get("Tripartition.classify", [0])[0] / reps, "count"),
        "walks.busy_frac": (layers.get("walks", 0.0) / total, "fraction"),
        "walks.final_steps": (c("walks.final_steps", 0) / reps, "count"),
        "walks.final_steps_per_s": (ratio(c("walks.final_steps", 0),
                                          incl("WalkAccumulator.extend_to")), "1/s"),
        "walks.per_length_steps": (c("walks.per_length_steps", 0) / reps, "count"),
        "walks.per_length_steps_per_s": (ratio(c("walks.per_length_steps", 0),
                                               c("walks.per_length_s", 0)), "1/s"),
        "walks.speedup_2t": (res["extras"].get("walks.speedup_2t", 0.0), "ratio"),
        "walks.exact_matvecs_per_s": (res["extras"].get("walks.exact_matvecs_per_s", 0.0),
                                      "1/s"),
        "threshold.self_share": (layers.get("threshold", 0.0) / total, "fraction"),
        "threshold.find_calls": (calls("find_threshold") / reps, "count"),
        "threshold.find_success_frac": (ratio(c("threshold.find_success", 0),
                                              calls("find_threshold")), "fraction"),
        "threshold.rounds": (c("threshold.rounds", 0) / reps, "count"),
        "threshold.pool_useful_frac": (ratio(c("threshold.useful_steps", 0),
                                             c("threshold.steps", 0)), "fraction"),
        "threshold.classify_share": (incl("threshold_classify") / total, "fraction"),
        "localcut.probe_calls": (calls("cut_or_bound") / reps, "count"),
        "localcut.cut_frac": (ratio(c("localcut.cuts", 0), calls("cut_or_bound")), "fraction"),
        "localcut.sweep_self_share": (self_s("cut_or_bound") / total, "fraction"),
        "spectral.self_share": (layers.get("spectral", 0.0) / total, "fraction"),
        "spectral.matvecs": (hot.get("LaplacianOperator.apply", [0])[0] / reps, "count"),
        "spectral.apply_share": (hot.get("LaplacianOperator.apply", [0, 0.0])[1] / total,
                                 "fraction"),
        "spectral.sweep_share": (incl("sweep_cut_best") / total, "fraction"),
        "solver.self_share": (layers.get("solver", 0.0) / total, "fraction"),
        "solver.h_fn_misses": (c("solver.h_fn_misses", 0) / reps, "count"),
        "solver.h_fn_share": (hot.get("h_fn", [0, 0.0])[1] / total, "fraction"),
        "solver.objective_calls": (calls("tradeoff_objective") / reps, "count"),
        "solver.objective_self_share": (self_s("tradeoff_objective") / total, "fraction"),
        "bench.self_share": (layers.get("bench", 0.0) / total, "fraction"),
        "bench.greedy_share": (incl("greedy_cut") / total, "fraction"),
        "bench.brute_force_calls": (calls("brute_force_maxcut") / reps, "count"),
        "bench.brute_force_share": (incl("brute_force_maxcut") / total, "fraction"),
        "bench.gen_setup_share": (res["gen_setup_share"], "fraction"),
        "cli.self_share": (layers.get("cli", 0.0) / total, "fraction"),
        "trace.harness_share": (layers.get(HARNESS, 0.0) / total, "fraction"),
        "trace.overhead_frac": (median([(t - u) / u for u, t in pairs]), "fraction"),
    }
    lines = [f"traced: {len(ops)} operations in {reps} repetitions, {total:.3f} s; "
             f"{len(pairs)} untraced/traced pairs"]
    if pairs:
        lines.append("tracing overhead: traced - untraced = "
                     f"{median([t - u for u, t in pairs]):+.4f} s per repetition "
                     f"(median of {len(pairs)})")
    accounted = sum(layers.get(layer, 0.0) for layer in LAYERS + (HARNESS,))
    lines.append(f"layer self times sum to {accounted:.4f} s of {total:.4f} s traced")
    for kind in dict.fromkeys(op["kind"] for op in ops):
        kind_ops = [op for op in ops if op["kind"] == kind]
        dur = sum(op["dur"] for op in kind_ops)
        if not dur:
            continue
        shares = {layer: sum(op["layers"].get(layer, 0.0) for op in kind_ops) / dur
                  for layer in LAYERS + (HARNESS,)}
        lines.append(f"  {kind}: {dur:.3f} s over {len(kind_ops)} ops; self share "
                     + " ".join(f"{k}={v:.3f}" for k, v in shares.items() if v >= 0.0005))
    return m, lines


# -- entry point ---------------------------------------------------------------


def use_checkout_sources() -> bool:
    """Import rwcut from src/ of this checkout; False when it is missing."""
    if not (ROOT / "src" / "rwcut" / "__init__.py").is_file():
        log(f"error: rwcut sources not found under {ROOT / 'src'}")
        return False
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import rwcut
    import workloads  # noqa: F401  (imports numpy, scipy and every rwcut module)

    if Path(rwcut.__file__).resolve().parent != ROOT / "src" / "rwcut":
        log(f"error: imported rwcut from {rwcut.__file__}, not from {ROOT / 'src'}")
        return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["planted-1k", "planted-100k", "tradeoff-curve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not use_checkout_sources():
        return 2
    import_s = time.perf_counter() - T_START

    res = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    env = environment()
    runners = res["runners"].values()
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    metrics, lines = per_layer(res) if args.trace else end_to_end(res)

    print(f"workload {args.workload} seed {args.seed}: {res['why']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for meta in res["provenance"]:
        print("input " + json.dumps(meta, sort_keys=True))
    print(f"{res['reps']} repetitions in {res['measured_s']:.2f} s, closed loop, "
          "one caller, threads=1")
    for line in lines:
        print(line)
    if args.trace:
        for key, (value, unit) in metrics.items():
            print(f"{key} = {value:.6g} {unit}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "environment": env, "provenance": res["provenance"], "why": res["why"],
        "seconds": args.seconds, "measured_s": res["measured_s"],
        "setup_samples": res["setup_samples"], "rep_s": res["rep_s"],
        "rep_cpu_s": res["rep_cpu_s"], "rep_calib": res["rep_calib"],
        "calibration_s": res["calibration_s"],
        "samples": {str(traced): dict(r.samples) for traced, r in res["runners"].items()},
        "values": dict(res["runners"][False].values),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": lines,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(res["tracer"].span_records()))

    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
