import json

import pytest

from rwcut.cli import main

from conftest import make_graph, run_cli
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

    def test_missing_file(self, capsys):
        rc = main(["solve", "--algo", "greedy", "--in", "/nonexistent.el",
                   "--seed", "1"])
        assert rc == 1

    def test_bad_params(self, triangle_file):
        rc = main(["solve", "--algo", "balance", "--in", triangle_file,
                   "--seed", "1", "--b", "3.0", "--mu1", "0.5"])
        assert rc == 2

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
    ])
    def test_one_line_error_and_exit_code(self, triangle_file, tmp_path,
                                          args, partition, code):
        part = tmp_path / "p.txt"
        if partition is not None:
            part.write_text(partition)
        argv = [a.format(graph=triangle_file, part=part) for a in args]
        proc = run_cli(argv, cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


class TestHelp:
    def test_help_lists_flags(self):
        proc = run_cli(["solve", "--help"])
        assert proc.returncode == 0, proc.stderr
        for flag in ("--in", "--algo", "--mu", "--kappa", "--delta",
                     "--gamma", "--seed", "--threads", "--out"):
            assert flag in proc.stdout
