"""Command-line interface: solve, gen, eval, tradeoff, cutbound.

All commands are deterministic given their flags and seed; timing and log
chatter go to stderr so stdout stays byte-stable for a fixed seed.  When no
seed is supplied one is drawn from the OS and printed to stderr so the run
can be replayed.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
import time

import numpy as np

from . import bench, graph, localcut, solver, spectral
from .errors import (InvalidInputError, InvalidParamsError, ParseError, ResourceError,
                     RwCutError)
from .threshold import STEP_BUDGET

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARAMS = 2

_LOG_LEVELS = {"quiet": 0, "info": 1, "debug": 2}


def _log_level() -> int:
    return _LOG_LEVELS.get(os.environ.get("RWCUT_LOG", "info"), 1)


def _log(msg: str, level: int = 1) -> None:
    if _log_level() >= level:
        print(msg, file=sys.stderr)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise InvalidParamsError(f"--seed must be nonnegative, got {args.seed}")
        return args.seed
    seed = secrets.randbits(63)
    _log(f"seed auto-generated: {seed} (pass --seed {seed} to replay)")
    return seed


def _load(path: str) -> graph.WeightedGraph:
    try:
        return graph.load_graph(path)
    except OSError as exc:
        raise RwCutError(f"cannot read {path}: {exc}") from exc
    except (ParseError, ResourceError) as exc:
        raise RwCutError(f"bad graph file {path}: {exc}") from exc


def _write(path: str, write) -> None:
    """Call write(path), turning an OSError into a one-line error."""
    try:
        write(path)
    except OSError as exc:
        raise RwCutError(f"cannot write {path}: {exc}") from exc


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _solve_once(g, args, seed):
    if args.algo == "simple":
        report = solver.simple_solve(g, args.mu, seed=seed,
                                     find_step_budget=args.find_steps)
        return report.left, report
    if args.algo == "balance":
        report = solver.balance_solve(g, args.b, args.mu1, eps1=args.eps1, seed=seed,
                                      find_step_budget=args.find_steps)
        return report.left, report
    if args.algo == "trevisan":
        return spectral.trevisan_baseline(g, seed=seed), None
    if args.algo == "greedy":
        return g.greedy_left(), None
    if args.algo == "random":
        return bench.random_cut(g, np.random.default_rng(seed)), None
    _value, left = bench.brute_force_maxcut(g)  # exact
    return left, None


def cmd_solve(args) -> None:
    seed = _resolve_seed(args)
    g = _load(args.infile)
    t0 = time.perf_counter()
    best = None
    for rep in range(args.reps):
        left, report = _solve_once(g, args, seed + rep)
        value = graph.cut_value(g, left)
        if best is None or value > best[0]:
            best = (value, left, report, seed + rep)
    value, left, report, used_seed = best
    elapsed = time.perf_counter() - t0
    if args.out:  # before the report, so that a failed write prints nothing
        _write(args.out, lambda path: graph.write_partition(left, g.n, path))
    if report is not None:
        print(report.to_json())
    else:
        print(json.dumps({
            "algorithm": args.algo, "seed": used_seed, "n": g.n,
            "m": g.total_weight, "cut_value": value, "total_walks": 0,
            "levels": [],
        }, sort_keys=True))
    _log(f"wall_time_s={elapsed:.3f}")
    if not args.out:
        graph.write_partition(left, g.n, sys.stdout)


def cmd_gen(args) -> None:
    seed = _resolve_seed(args)
    inst = bench.gen_planted(args.n, args.eps, args.deg, seed)
    out = args.out or "planted.el"
    _write(out, lambda path: graph.dump_graph(inst.graph, path))
    _write(out + ".meta.json", inst.dump_metadata)
    _log(f"wrote {out} and {out}.meta.json "
         f"(planted_value={inst.planted_value:.4f})")
    print(json.dumps({
        "file": out, "n": inst.graph.n, "edges": inst.graph.nbr.size // 2,
        "planted_value": inst.planted_value, "target_eps": inst.target_eps,
        "seed": seed,
    }, sort_keys=True))


def cmd_eval(args) -> None:
    g = _load(args.infile)
    try:
        with open(args.partition, "r", encoding="utf-8") as fh:
            left = graph.read_partition(fh, g.n)
    except OSError as exc:
        raise RwCutError(f"cannot read {args.partition}: {exc}") from exc
    except ParseError as exc:
        raise RwCutError(f"bad partition file {args.partition}: {exc}") from exc
    value = graph.cut_value(g, left)
    print(json.dumps({"cut_value": value, "n": g.n, "m": g.total_weight},
                     sort_keys=True))


def cmd_tradeoff(args) -> None:
    bs = args.b if args.b else [1.6, 2.0, 3.0]
    if not all(1.5 < b < float("inf") for b in bs):  # also refuses nan
        raise InvalidParamsError("every b must be finite and exceed 1.5")
    # Every point before printing, so a refused b prints nothing.
    points = [solver.best_tradeoff(b) for b in bs]
    print("b,source,mu1,tau,mu2,eps1,ratio")
    for point in points:
        print(f"{point.b:.12g},{point.source},{point.mu1:.12g},{point.tau:.12g},"
              f"{point.mu2:.12g},{point.eps1:.12g},{point.ratio:.6f}")


def cmd_cutbound(args) -> None:
    seed = _resolve_seed(args)
    g = _load(args.infile)
    res = localcut.cut_or_bound(g, args.start, args.tau, args.zeta, seed=seed)
    if isinstance(res, localcut.LowConductanceCut):
        print(json.dumps({
            "kind": "cut", "conductance": res.conductance,
            "phi": res.phi, "length": res.length,
            "vertices": sorted(res.vertices), "walks": res.walks,
        }, sort_keys=True))
    else:
        print(json.dumps({
            "kind": "bound", "alpha_bound": res.alpha_bound,
            "alpha": res.alpha, "phi": res.phi, "walks": res.walks,
        }, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rwcut",
        description="Random-walk MaxCut approximation suite",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    def common(p, needs_graph=True):
        if needs_graph:
            p.add_argument("--in", dest="infile", required=True,
                           help="edge-list graph file")
        p.add_argument("--seed", type=int, default=None,
                       help="PRNG seed (auto-generated and logged if absent)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: walks run in the calling thread")

    ps = sub.add_parser("solve", help="partition a graph", formatter_class=fmt)
    common(ps)
    ps.add_argument("--algo", required=True,
                    choices=["simple", "balance", "trevisan", "greedy",
                             "random", "exact"])
    ps.add_argument("--out", default=None, help="partition file (stdout if absent)")
    ps.add_argument("--mu", type=float, default=1.0, help="runtime exponent knob")
    ps.add_argument("--b", type=float, default=2.0, help="balance work exponent")
    ps.add_argument("--mu1", type=float, default=0.25)
    ps.add_argument("--eps1", type=float, default=None)
    ps.add_argument("--find-steps", type=int, default=STEP_BUDGET,
                    help="walk-step budget that plans each threshold search's "
                         "rounds; the steps drawn never exceed it")
    ps.add_argument("--reps", type=int, default=1)
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("gen", help="generate a planted instance", formatter_class=fmt)
    common(pg, needs_graph=False)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--eps", type=float, required=True)
    pg.add_argument("--deg", type=float, required=True)
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_gen)

    pe = sub.add_parser("eval", help="recompute the value of a partition file", formatter_class=fmt)
    common(pe)
    pe.add_argument("--partition", required=True)
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("tradeoff", help="emit the ratio/work tradeoff curve", formatter_class=fmt)
    pt.add_argument("--b", type=float, action="append", default=None,
                    help="work exponent (repeatable; default 1.6 2.0 3.0)")
    pt.set_defaults(func=cmd_tradeoff)

    pc = sub.add_parser("cutbound", help="run the local partition probe", formatter_class=fmt)
    common(pc)
    pc.add_argument("--start", type=int, required=True)
    pc.add_argument("--tau", type=float, default=0.25)
    pc.add_argument("--zeta", type=float, default=0.45)
    pc.set_defaults(func=cmd_cutbound)
    return ap


def _check_counts(args) -> None:
    for flag in ("threads", "reps"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise InvalidParamsError(f"--{flag} must be at least 1, got {value}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_counts(args)
        args.func(args)
    except (InvalidParamsError, InvalidInputError) as exc:
        return _fail(str(exc), EXIT_PARAMS)
    except RwCutError as exc:
        return _fail(str(exc), EXIT_IO)
    return EXIT_OK


def run() -> int:
    """Console entry point: main, exiting quietly when stdout is closed early
    (for example, when piped into `head`)."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(run())
