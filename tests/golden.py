"""Expected `rwcut` outputs, each written once in tests/data/golden/: small ones
as text files, large ones as lines of SHA256SUMS.

    python tests/golden.py            # check CASES through the `rwcut` on PATH
    python tests/golden.py --record   # rewrite the store through it instead

tests/test_golden.py checks the same cases in-process, through cli.main.
"""
import difflib
import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

DATA = Path(__file__).resolve().parent / "data"
STORE = DATA / "golden"


class Case(NamedTuple):
    """A command, run in the temp dir of the cases before it; its stdout is
    saved there as `name`.  It pins the files `pins` of that dir, by default
    its stdout: as text, with stderr empty, or by SHA-256."""
    name: str
    cmd: str  # split at spaces; {tmp} is the temp dir, {data} tests/data, {g200} a graph there
    pins: tuple = ()
    text: bool = False

    @property
    def files(self):
        return self.pins or (self.name,)


CASES = [
    # The default curve; tests/test_solver.py pins its floats.  H's fixed
    # Gauss-Legendre rule raises no warning.
    Case("curve.csv", "tradeoff", text=True),
    # A balance point between the default ones, a b whose deficit-sweep point
    # beats the block solver's, a b next to 1.5, where the mu1 region is 2e-7
    # wide, and a huge b, whose mu1 = b - 2 prints in 12 significant digits.
    Case("curve2.csv", "tradeoff --b 1.8 --b 2.5 --b 1.5000001 --b 1e300", text=True),
    Case("curve-2.4.csv", "tradeoff --b 1.8 --b 2.4", text=True),
    # Two b next to 1.5, where the mu1 region is at most 2e-7 wide, around one
    # where it is not.
    Case("curve-near-1.5.csv", "tradeoff --b 1.5000001 --b 2 --b 1.5000000001", text=True),
    # gen's edge list is byte-stable for a seed; this digest pins n = 200.
    Case("gen200.json", "gen --n 200 --eps 0.05 --deg 8 --seed 1 --out {tmp}/g.el", ("g.el",)),
    # The solver digests are recorded on committed instances.  The reports
    # read the walk pools: total_walks and the level log.  This one's
    # within-block searches classify at 2-3 rounds of one block, so it also
    # pins the order in which the batch scorer applies a block's rounds.
    Case("balance.json", "solve --algo balance --seed 7 --in {g200} --out {tmp}/parts.txt",
         ("parts.txt", "balance.json")),
    Case("simple.json", "solve --algo simple --seed 7 --in {g200} --out {tmp}/simple.txt"),
    # At mu = 0.25 the searches' pools span several blocks (up to 24,519 walks).
    Case("simple025.json",
         "solve --algo simple --mu 0.25 --seed 7 --in {g200} --out {tmp}/simple025.txt"),
    # Trevisan's partition, byte for byte: its sweep is the local probes'.
    Case("trev200.json", "solve --algo trevisan --seed 7 --in {g200} --out {tmp}/trev200.txt",
         ("trev200.txt",)),
    Case("trev1k.json", "solve --algo trevisan --seed 7 --in "
         "{data}/planted_1000_0.05_8_101000.el --out {tmp}/trev1k.txt", ("trev1k.txt",)),
    Case("eval.json", "eval --in {g200} --partition {tmp}/parts.txt --seed 1", text=True),
    Case("cutbound.json", "cutbound --in {g200} --start 0 --seed 3", text=True),
    # Probes that read the walks past length 0: a bound, which sweeps every
    # length, and a cut at length 6.
    Case("bound.json", "cutbound --in {g200} --start 0 --tau 0.1 --seed 3", text=True),
    Case("cut6.json", "cutbound --in {g200} --start 1 --tau 0.1 --seed 3", text=True),
    # gen at n = 100k, and a greedy partition of it, written and read back.
    Case("gen100k.json",
         "gen --n 100000 --eps 0.05 --deg 8 --seed 101000 --out {tmp}/p100k.el", ("p100k.el",)),
    Case("greedy100k.json", "solve --algo greedy --seed 1 --in {tmp}/p100k.el --out "
         "{tmp}/p100k.part", ("p100k.part",)),
    Case("eval100k.json", "eval --in {tmp}/p100k.el --partition {tmp}/p100k.part", text=True),
]


def run(case, tmp, call):
    """Run case in tmp through call(argv, stdout path) -> (exit code, stderr);
    a line naming case if the run failed."""
    argv = [arg.format(tmp=tmp, data=DATA, g200=DATA / "planted_200_0.05_8_1.el")
            for arg in case.cmd.split()]
    code, err = call(argv, Path(tmp, case.name))
    return [f"{case.name}: exit {code}, stderr: {err}"] if code or case.text and err else []


def sum_line(path):
    """path's line in SHA256SUMS."""
    return f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"


def compare(case, tmp, store=STORE):
    """Lines naming case, of a diff from each of its pins in the store (a text
    file or a SHA256SUMS line) to that in tmp."""
    sums = {line.split()[1]: line for line in (store / "SHA256SUMS").read_text().splitlines(True)}
    lines = []
    for name in case.files:
        if case.text:
            want, got = ((root / name).read_bytes().decode() for root in (store, Path(tmp)))
        else:
            want, got = sums.get(name, ""), sum_line(Path(tmp, name))
        lines += difflib.unified_diff(want.splitlines(True), got.splitlines(True),
                                      f"stored {name}", f"got {name}")
    return [f"{case.name}: {line.rstrip()}" for line in lines]


def run_script(argv, stdout):
    """Run the `rwcut` on PATH, as run() calls it."""
    with open(stdout, "wb") as out:
        proc = subprocess.run(["rwcut", *argv], stdout=out, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stderr


def main(args):
    if args not in ([], ["--record"]):
        sys.exit("usage: python tests/golden.py [--record]")
    failed, sums = 0, ""
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            lines = run(case, tmp, run_script)
            if lines or not args:
                lines = lines or compare(case, tmp)
            else:
                for name in case.files:
                    if case.text:
                        shutil.copy(Path(tmp, name), STORE)
                    else:
                        sums += sum_line(Path(tmp, name))
            for line in lines:
                print(line)
            failed += bool(lines)
    if args and not failed:
        (STORE / "SHA256SUMS").write_text(sums)
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
