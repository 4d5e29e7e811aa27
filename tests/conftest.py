import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rwcut
from rwcut import walks
from rwcut.graph import WeightedGraph, dump_graph

# Directory holding the `rwcut` package this suite imported.
PACKAGE_ROOT = str(Path(rwcut.__file__).resolve().parents[1])


def planted_file(n, target_eps, avg_degree, seed):
    """Path of the committed edge list planted_<n>_<eps>_<deg>_<seed>.el.

    Each holds the instance gen_planted(n, target_eps, avg_degree, seed)
    gave while it drew its trials one scalar call at a time, so digests
    recorded on those instances do not depend on how gen_planted draws.
    """
    name = f"planted_{n}_{target_eps}_{avg_degree}_{seed}.el"
    return Path(__file__).resolve().parent / "data" / name


def cli_env():
    """The environment for a `python -m rwcut.cli` child process.

    Its PYTHONPATH starts with the absolute PACKAGE_ROOT, so the child
    imports the same `rwcut` as the suite from any working directory, even
    when the inherited PYTHONPATH is relative (as in `PYTHONPATH=src`).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(args, cwd=None):
    """Run `python -m rwcut.cli *args` in a child process (see cli_env)."""
    return subprocess.run(
        [sys.executable, "-m", "rwcut.cli", *args],
        capture_output=True, text=True, timeout=600, cwd=cwd, env=cli_env(),
    )


def dump_text(g):
    """dump_graph's file text for g."""
    buf = io.StringIO()
    dump_graph(g, buf)
    return buf.getvalue()


def make_graph(n, edges):
    return WeightedGraph.from_edges(n, [(u, v, float(w)) for u, v, w in edges])


def random_graph(n, p, rng, weighted=False, ensure_edge=True):
    """Erdos-Renyi style test graph with optional integer weights."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = float(rng.integers(1, 5)) if weighted else 1.0
                edges.append((i, j, w))
    if ensure_edge and not edges:
        edges = [(0, 1, 1.0)]
    return WeightedGraph.from_edges(n, edges)


def reweighted(g, seed):
    """g with its edge weights redrawn from [0.1, 2.1)."""
    u, v, _ = g.edge_arrays()
    w = 0.1 + 2.0 * np.random.default_rng(seed).random(u.size)
    return WeightedGraph.from_arrays(g.n, u, v, w)


def dumbbell(k, bridges=1):
    """Two k-cliques joined by `bridges` edges."""
    edges = []
    for base in (0, k):
        for i in range(k):
            for j in range(i + 1, k):
                edges.append((base + i, base + j, 1.0))
    for t in range(bridges):
        edges.append((t, k + t, 1.0))
    return WeightedGraph.from_edges(2 * k, edges)


def complete_graph(n):
    return WeightedGraph.from_edges(
        n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    )


def complete_bipartite(a, b):
    return WeightedGraph.from_edges(
        a + b, [(i, a + j, 1.0) for i in range(a) for j in range(b)]
    )


def cycle_graph(n):
    return WeightedGraph.from_edges(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def planned_pool(g, start, length, seed, top, w):
    """(even, odd) counts of a threshold search's pool of w walks, drawn
    afresh: the first w walks of blocks (seed, i), each drawn at the most
    walks a pool of top, the largest planned size, takes from it."""
    block = walks.BLOCK_WALKS
    cells = np.concatenate([
        walks._run_block(g, start, length, seed, i, min(block, top - i * block))
        for i in range(-(-w // block))])
    counts = np.bincount(cells[:w], minlength=2 * g.n)
    return counts[:g.n], counts[g.n:]


@pytest.fixture
def triangle():
    return make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


@pytest.fixture
def single_edge():
    return make_graph(2, [(0, 1, 1)])
