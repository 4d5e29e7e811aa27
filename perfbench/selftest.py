"""Self-test of the benchmark at smoke size (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that every workload emits each BENCHMARK.json metric with its unit
and prints its own named metrics, that a corrupted partition is counted as a
failed operation, and that the traced run leaves every wrapped attribute
exactly as it found it.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import sys

import run

# The named metrics each workload prints, with their units.
NAMED = {
    "planted-1k": {
        "setup_s": "s", "load_s": "s", "simple_s_p50": "s", "simple_s_tail": "s",
        "balance_s_p50": "s", "balance_s_tail": "s", "walks_per_solve": "walks",
        "cut_ratio_p50": "ratio", "walk_win_frac": "fraction",
        "error_rate": "fraction", "peak_rss_mb": "MB",
    },
    "planted-100k": {
        "setup_s": "s", "load_s": "s", "cli_greedy_s": "s", "trevisan_s": "s",
        "eval_s": "s", "probe_s_p50": "s", "error_rate": "fraction",
        "peak_rss_mb": "MB",
    },
    "tradeoff-curve": {"setup_s": "s", "tradeoff_s": "s", "error_rate": "fraction",
                       "peak_rss_mb": "MB"},
}


def smoke(name: str, trace: bool) -> dict:
    return run.run(name, 0, 0.01, trace, smoke=True)


def failures(res: dict) -> int:
    return sum(r.failed for r in res["runners"].values())


def check_metrics(contract: dict) -> None:
    for name, named in NAMED.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = smoke(name, trace)
            assert failures(res) == 0, f"{name}: smoke run failed"
            metrics, lines = (run.per_layer if trace else run.end_to_end)(res)
            want = {m["name"]: m["unit"] for m in contract[key]}
            got = {k: unit for k, (_value, unit) in metrics.items()}
            assert got == want, f"{name} {key}: {got} != {want}"
            if not trace:
                for metric, unit in named.items():
                    line = next((ln for ln in lines if ln.startswith(metric + " = ")), None)
                    assert line is not None, f"{name}: {metric} not printed"
                    assert f" {unit} " in line + " ", f"{name}: {line!r} lacks unit {unit}"
        print(f"ok  {name}: every metric emitted with its unit")


def check_corruption() -> None:
    """A partition file that loses a vertex must count as a failure."""
    import rwcut.graph

    original = rwcut.graph.read_partition

    def corrupted(source):
        left = original(source)
        return left - {min(left)}

    rwcut.graph.read_partition = corrupted
    try:
        res = smoke("planted-100k", False)
    finally:
        rwcut.graph.read_partition = original
    runner = res["runners"][False]
    assert runner.failed > 0, "corrupted partition was not counted"
    _metrics, lines = run.end_to_end(res)
    rate = next(ln for ln in lines if ln.startswith("error_rate = "))
    assert not rate.startswith("error_rate = 0.0000"), rate
    print(f"ok  corrupted partition: {rate}")


def attribute_snapshot() -> dict:
    """Identity of every attribute of every rwcut module and class."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "rwcut" and not modname.startswith("rwcut."):
            continue
        for key, value in vars(mod).items():
            snap[(modname, key)] = value
            if isinstance(value, type) and value.__module__.startswith("rwcut"):
                for attr, member in vars(value).items():
                    snap[(modname, key, attr)] = member
    return snap


def check_restore() -> None:
    from tracing import Tracer

    before = attribute_snapshot()
    tracer = Tracer()
    with tracer.installed():
        changed = [k for k, v in attribute_snapshot().items() if before.get(k) is not v]
        assert len(changed) >= len(tracer.saved()) > 0, "nothing was wrapped"
    after = attribute_snapshot()
    smoke("planted-1k", True)
    after_run = attribute_snapshot()
    for snap in (after, after_run):
        assert snap.keys() == before.keys()
        moved = [k for k in before if snap[k] is not before[k]]
        assert not moved, f"not restored: {moved}"
    print(f"ok  traced run restored all {len(changed)} wrapped attributes")


def main() -> int:
    if not run.use_checkout_sources():
        return 2
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    check_metrics(contract)
    check_corruption()
    check_restore()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
