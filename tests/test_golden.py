"""tests/golden.py's cases, run in-process through cli.main."""
import io
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest

import golden
from rwcut.cli import main


def run_in_process(argv, stdout):
    err = io.StringIO()
    with open(stdout, "w", encoding="utf-8") as out, redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """The temp dir where every case ran, in order, and each case's failures."""
    tmp = tmp_path_factory.mktemp("golden")
    return tmp, {case.name: golden.run(case, tmp, run_in_process)
                 or golden.compare(case, tmp) for case in golden.CASES}


@pytest.mark.parametrize("case", golden.CASES, ids=lambda case: case.name)
def test_output_matches_store(ran, case):
    failures = ran[1][case.name]
    assert not failures, "\n".join(failures)


def test_each_stored_pin_belongs_to_one_case():
    names = [name for case in golden.CASES for name in case.files]
    texts = [name for case in golden.CASES if case.text for name in case.files]
    sums = [line.split()[1] for line in (golden.STORE / "SHA256SUMS").read_text().splitlines()]
    assert sorted(names) == sorted(texts + sums) == sorted(set(names))
    assert sorted(p.name for p in golden.STORE.iterdir()) == sorted(texts + ["SHA256SUMS"])


def test_wrong_expected_value_names_its_case(ran, tmp_path):
    store = shutil.copytree(golden.STORE, tmp_path / "golden")
    for path in store.iterdir():  # every stored text and digest holds a 0
        path.write_text(path.read_text().replace("0", "1"))
    for case in golden.CASES:
        lines = golden.compare(case, ran[0], store)
        assert lines and all(line.startswith(f"{case.name}: ") for line in lines)
