import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from rwcut import bench, solver
from rwcut.cli import build_parser, main

import golden
from conftest import cli_env, make_graph, planted_file, run_cli
from rwcut.bench import gen_planted
from rwcut.graph import dump_graph


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.el"
    g = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    dump_graph(g, str(path))
    return str(path)


class TestSolve:
    def test_greedy_triangle(self, triangle_file, capsys):
        rc = main(["solve", "--algo", "greedy", "--in", triangle_file,
                   "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out.splitlines()[0])
        assert report["cut_value"] == pytest.approx(2 / 3)

    def test_exact_triangle(self, triangle_file, capsys):
        rc = main(["solve", "--algo", "exact", "--in", triangle_file,
                   "--seed", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert report["cut_value"] == pytest.approx(2 / 3)

    def test_partition_file_written(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "part.txt"
        rc = main(["solve", "--algo", "greedy", "--in", triangle_file,
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert all(line.split()[1] in ("L", "R") for line in lines)

    @pytest.mark.parametrize("algo", [["simple", "--mu", "1"],
                                      ["balance", "--b", "2", "--mu1", "0.25"]])
    def test_report_names_winner(self, triangle_file, capsys, algo):
        rc = main(["solve", "--algo", *algo, "--in", triangle_file, "--seed", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert report["winner"] == "walks"
        assert report["walk_cut_value"] == report["cut_value"]

    def test_missing_file(self, capsys):
        rc = main(["solve", "--algo", "greedy", "--in", "/nonexistent.el",
                   "--seed", "1"])
        assert rc == 1

    def test_bad_params(self, triangle_file):
        rc = main(["solve", "--algo", "balance", "--in", triangle_file,
                   "--seed", "1", "--b", "3.0", "--mu1", "0.5"])
        assert rc == 2

    def test_huge_mu_runs(self, tmp_path):
        # Large enough to reach the threshold search, where m^(1 + mu)
        # would overflow.
        path = tmp_path / "planted.el"
        dump_graph(gen_planted(60, 0.05, 6, seed=1).graph, str(path))
        proc = run_cli(["solve", "--algo", "simple", "--mu", "1e300", "--seed", "1",
                        "--in", str(path), "--find-steps", "20000",
                        "--out", str(tmp_path / "part.txt")])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["algorithm"] == "simple"

    def test_reps_share_one_greedy(self, capsys):
        path = planted_file(200, 0.05, 8, 1)
        greedy_cut, sizes = bench.greedy_cut, []

        def counted(g):
            sizes.append(g.n)
            return greedy_cut(g)

        with mock.patch.object(bench, "greedy_cut", counted), \
                mock.patch.object(solver, "greedy_cut", counted):
            rc = main(["solve", "--algo", "simple", "--reps", "3", "--seed", "5",
                       "--find-steps", "20000", "--in", str(path)])
        assert rc == 0
        assert sizes.count(200) == 1  # the root graph; smaller ones are subgraphs
        out = capsys.readouterr().out
        # The stdout of this command before greedy was cached on the graph.
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9ee34073cbec78b841f5f76a85397c10c3eaffebea53b6bd1ebea32d10d24fbe")

    def test_repeat_run_identical(self, triangle_file):
        args = ["solve", "--algo", "simple", "--mu", "1", "--seed", "7",
                "--in", triangle_file, "--find-steps", "100000"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout


class TestGen:
    def test_gen_and_reload(self, tmp_path, capsys):
        out = tmp_path / "planted.el"
        rc = main(["gen", "--n", "100", "--eps", "0.1", "--deg", "6",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[0])
        assert summary["planted_value"] >= 0.8
        meta = json.loads((tmp_path / "planted.el.meta.json").read_text())
        assert meta["n"] == 100
        from rwcut.graph import load_graph, cut_value

        g = load_graph(str(out))
        assert cut_value(g, set(meta["planted_left"])) == pytest.approx(
            meta["planted_value"])

    def test_eps_zero_bipartite(self, tmp_path, capsys):
        out = tmp_path / "bip.el"
        rc = main(["gen", "--n", "4", "--eps", "0", "--deg", "1",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[0])
        assert summary["planted_value"] == 1.0

    def test_same_flags_identical_bytes(self, tmp_path):
        out1 = tmp_path / "a.el"
        out2 = tmp_path / "b.el"
        for out in (out1, out2):
            rc = main(["gen", "--n", "60", "--eps", "0.05", "--deg", "5",
                       "--seed", "9", "--out", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_params(self, tmp_path):
        rc = main(["gen", "--n", "15", "--eps", "0.1", "--deg", "4",
                   "--seed", "1", "--out", str(tmp_path / "x.el")])
        assert rc == 2


class TestEval:
    def test_round_trip_value(self, triangle_file, tmp_path, capsys):
        part = tmp_path / "p.txt"
        main(["solve", "--algo", "greedy", "--in", triangle_file,
              "--seed", "1", "--out", str(part)])
        capsys.readouterr()
        rc = main(["eval", "--in", triangle_file, "--partition", str(part),
                   "--seed", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cut_value"] == pytest.approx(2 / 3)


class TestCutbound:
    def test_dumbbell(self, tmp_path, capsys):
        from conftest import dumbbell

        path = tmp_path / "db.el"
        dump_graph(dumbbell(12), str(path))
        rc = main(["cutbound", "--in", str(path), "--start", "0",
                   "--tau", "0.25", "--zeta", "0.5", "--seed", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] in ("cut", "bound")
        if report["kind"] == "cut":
            assert report["conductance"] < report["phi"]


def stored_curve(*bs):
    """What `rwcut tradeoff` prints for bs, from the lines of the golden
    store's curves: each b's line is computed on its own."""
    rows = {}
    for path in golden.STORE.glob("curve*.csv"):
        header, *lines = path.read_text().splitlines(True)
        rows.update((line.split(",", 1)[0], line) for line in lines)
    return header + "".join(rows[f"{float(b):.12g}"] for b in bs)


class TestTradeoff:
    # Any run, alone or among other b, prints each b's stored line: b next
    # to 1.5, where the mu1 region is at most 2e-7 wide, and a huge b.
    @pytest.mark.parametrize("args, stdout", [
        (args, stored_curve(*args[1::2] or (1.6, 2, 3))) for args in (
            [], ["--b", "1.8", "--b", "2.4"], ["--b", "1.5000001"],
            ["--b", "1.5000001", "--b", "2", "--b", "1.5000000001"], ["--b", "1e300"])
    ])
    def test_stdout_pinned(self, args, stdout):
        proc = run_cli(["tradeoff", *args])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == stdout
        assert proc.stderr == ""


class TestHostileInput:
    @pytest.mark.parametrize("args, partition, code", [
        (["gen", "--n", "20", "--eps", "0.1", "--deg", "3", "--out", "x.el",
          "--seed", "-5"], None, 2),
        (["solve", "--algo", "greedy", "--in", "{graph}", "--seed", "-5"], None, 2),
        (["cutbound", "--in", "{graph}", "--start", "0", "--seed", "-1"], None, 2),
        (["eval", "--in", "{graph}", "--partition", "{part}"],
         "0 L\n1 R\n0 R\n2 R\n", 1),
        (["eval", "--in", "{graph}", "--partition", "{part}"],
         "0 L\n1 R\n2 R\n1 R\n", 1),
        (["eval", "--in", "{graph}", "--partition", "{part}"],
         "zero L\n1 R\n2 R\n", 1),
        (["eval", "--in", "{graph}", "--partition", "{part}"],
         "-1 L\n1 R\n2 R\n", 1),
        (["eval", "--in", "{graph}", "--partition", "{part}"],
         "0 L\n1 R\n3 R\n", 1),
        (["solve", "--algo", "greedy", "--in", "{graph}", "--seed", "1",
          "--threads", "0"], None, 2),
        (["solve", "--algo", "greedy", "--in", "{graph}", "--seed", "1",
          "--threads", "-2"], None, 2),
        (["solve", "--algo", "greedy", "--in", "{graph}", "--seed", "1",
          "--reps", "0"], None, 2),
        (["solve", "--algo", "greedy", "--in", "{graph}", "--seed", "1",
          "--reps", "-1"], None, 2),
        (["cutbound", "--in", "{graph}", "--start", "0", "--seed", "1",
          "--threads", "0"], None, 2),
        (["tradeoff", "--b", "nan"], None, 2),
        (["tradeoff", "--b", "inf"], None, 2),
        (["tradeoff", "--b", "2", "--b", "nan"], None, 2),
        # A refused later b: the point already computed for b = 2 is not printed.
        (["tradeoff", "--b", "2", "--b", "1.5000000000000004"], None, 2),
        # The file slot holds a graph: one large id, refused before allocating.
        (["solve", "--algo", "greedy", "--in", "{part}", "--seed", "1"],
         "0 1000000000\n", 1),
        (["solve", "--algo", "simple", "--in", "{graph}", "--seed", "1",
          "--mu", "nan"], None, 2),
        (["solve", "--algo", "simple", "--in", "{graph}", "--seed", "1",
          "--mu", "inf"], None, 2),
        # tau = 2 + mu1 - b rounds to 0, where mu2 = (2b - mu1 - 3) / tau breaks.
        (["solve", "--algo", "balance", "--in", "{graph}", "--seed", "1",
          "--b", "2", "--mu1", "1e-300"], None, 2),
        (["cutbound", "--in", "{graph}", "--start", "0", "--seed", "1",
          "--zeta", "nan"], None, 2),
        # Walk length ln(m) / zeta is over the cap; its walk count would overflow.
        (["cutbound", "--in", "{graph}", "--start", "0", "--seed", "1",
          "--zeta", "1e-300"], None, 1),
        (["gen", "--n", "20", "--eps", "0.1", "--deg", "nan", "--out", "x.el",
          "--seed", "1"], None, 2),
        (["gen", "--n", "20", "--eps", "0.1", "--deg", "inf", "--out", "x.el",
          "--seed", "1"], None, 2),
        # 5e11 edges, refused before any n-sized allocation.
        (["gen", "--n", "1000000000000", "--eps", "0.1", "--deg", "1",
          "--out", "x.el", "--seed", "1"], None, 1),
        # Step budgets are checked before any work, so a floor-size graph
        # refuses them too.
        (["solve", "--algo", "simple", "--in", "{graph}", "--seed", "1",
          "--find-steps", "-5"], None, 2),
        (["solve", "--algo", "balance", "--in", "{graph}", "--seed", "1",
          "--find-steps", "0"], None, 2),
        (["solve", "--algo", "simple", "--in", "{graph}", "--seed", "1",
          "--find-steps", "100000000000000000000"], None, 1),
        # At eps 0 only the 4 crossing pairs can be drawn, fewer than 6 edges.
        (["gen", "--n", "4", "--eps", "0", "--deg", "3", "--out", "x.el",
          "--seed", "1"], None, 2),
        # Bytes that are not UTF-8, in the graph slot and in the partition slot.
        (["solve", "--algo", "greedy", "--in", "{part}", "--seed", "1"],
         b"0 1\n\xff 2\n", 1),
        (["cutbound", "--in", "{part}", "--start", "0", "--seed", "1"], b"\xff", 1),
        (["eval", "--in", "{graph}", "--partition", "{part}"], b"0 L\n\xff R\n", 1),
        # --out in a missing directory; solve writes it before its report.
        (["solve", "--algo", "greedy", "--in", "{graph}", "--seed", "1",
          "--out", "missing/x.part"], None, 1),
        (["gen", "--n", "20", "--eps", "0.1", "--deg", "3", "--out", "missing/x.el",
          "--seed", "1"], None, 1),
        # A side followed by a NUL, which numpy's text field would drop.
        (["eval", "--in", "{graph}", "--partition", "{part}"], "0 L\x00\n1 R\n2 R\n", 1),
        # 1.5 + 2**-51: mu2 rounds to 0 at the top of the searched mu1 range,
        # so b is refused before any integration.
        (["tradeoff", "--b", "1.5000000000000004"], None, 2),
    ])
    def test_one_line_error_and_exit_code(self, triangle_file, tmp_path,
                                          args, partition, code):
        part = tmp_path / "p.txt"
        if isinstance(partition, bytes):
            part.write_bytes(partition)
        elif partition is not None:
            part.write_text(partition)
        argv = [a.format(graph=triangle_file, part=part) for a in args]
        proc = run_cli(argv, cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_closed_stdout_exits_quietly(self, triangle_file):
        # The reader is gone before the child writes, so its first flush
        # meets a broken pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "rwcut.cli", "solve", "--algo", "greedy",
             "--in", triangle_file, "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=cli_env())
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=600) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err


class TestHelp:
    def test_help_lists_flags(self):
        proc = run_cli(["solve", "--help"])
        assert proc.returncode == 0, proc.stderr
        for flag in ("--in", "--algo", "--mu", "--find-steps", "--seed",
                     "--threads", "--out"):
            assert flag in proc.stdout

    @pytest.mark.parametrize("flag", ["--kappa", "--delta", "--gamma"])
    def test_fixed_constant_flags_refused(self, triangle_file, flag):
        # kappa, delta and gamma are module constants, not options.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--algo", "simple", "--in", triangle_file, flag, "0.1"])
        assert exc.value.code == 2

    def test_readme_cli_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [ln for ln in block.splitlines() if ln.startswith("rwcut ")]
        assert len(lines) >= 5
        parser = build_parser()
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            args = parser.parse_args(argv)  # exits 2 on an unknown flag
            assert args.command == argv[0]
