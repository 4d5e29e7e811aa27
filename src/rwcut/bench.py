"""Exact and baseline oracles plus planted-instance generation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, ResourceError
from .graph import WeightedGraph, _rows, _write_text, cut_value

BRUTE_FORCE_MAX_N = 22
# gen_planted takes about 0.45 us and 140 bytes of peak memory per edge (one
# core of a 2-core Xeon, n = 100k and 500k at degree 8; building the graph
# sets the peak), so larger targets are refused.
PLANTED_EDGE_CAP = 5_000_000
_MASK_CHUNK = 1 << 14
# greedy_cut places waves below this size one vertex at a time: a wave's
# fixed numpy cost is about that of eight per-vertex decisions.
_SCALAR_WAVE = 8


@dataclass(frozen=True)
class PlantedInstance:
    graph: WeightedGraph
    left: frozenset
    planted_value: float
    target_eps: float
    seed: int

    def metadata(self) -> dict:
        return {
            "n": self.graph.n,
            "target_eps": self.target_eps,
            "seed": self.seed,
            "planted_value": self.planted_value,
            "planted_left": sorted(self.left),
        }

    def dump_metadata(self, target) -> None:
        _write_text(json.dumps(self.metadata(), sort_keys=True, indent=0) + "\n", target)


def brute_force_maxcut(g: WeightedGraph) -> tuple[float, frozenset]:
    """Exact optimum by enumeration with vertex 0 pinned to the left side."""
    if g.n > BRUTE_FORCE_MAX_N:
        raise ResourceError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}")
    if g.n == 0 or g.total_weight == 0.0:
        return 0.0, frozenset(range(g.n))
    eu, ev, ew = g.edge_arrays()
    total = g.edge_weight_total()
    n_free = g.n - 1
    best_w = -1.0
    best_mask = 0
    for lo in range(0, 1 << n_free, _MASK_CHUNK):
        hi = min(lo + _MASK_CHUNK, 1 << n_free)
        masks = np.arange(lo, hi, dtype=np.int64)
        # bit k of mask holds the side of vertex k+1; vertex 0 is pinned
        bu = np.where(eu == 0, 0, (masks[:, None] >> np.maximum(eu - 1, 0)) & 1)
        bv = (masks[:, None] >> (ev - 1)) & 1
        cutw = ((bu != bv) * ew).sum(axis=1)
        i = int(np.argmax(cutw))
        if cutw[i] > best_w:
            best_w = float(cutw[i])
            best_mask = int(masks[i])
    left = {0} | {v for v in range(1, g.n) if not (best_mask >> (v - 1)) & 1}
    return best_w / total, frozenset(left)


def greedy_cut(g: WeightedGraph) -> frozenset:
    """Majority-vote greedy placement in descending-degree order.

    Vertices are taken by descending weighted degree, ties by id.  Each goes
    to the side that cuts more weight against its already placed neighbors
    (ties to Left), which guarantees at least half of the total edge weight
    is cut.

    A decision reads only the vertex's earlier neighbors, so vertices are
    placed in waves, each the unplaced vertices whose earlier neighbors are
    all placed.  No two of them are adjacent, so one gather of the wave's
    rows decides each as the one-at-a-time rule would.  Fractional sums
    within their rounding bound of a tie are redone by that rule, and so is
    everything left once a wave falls below _SCALAR_WAVE vertices.
    """
    n = g.n
    order = np.lexsort((np.arange(n), -g.degrees))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    cnt = np.diff(g.indptr)
    src = np.repeat(np.arange(n), cnt)
    # Each vertex's count of unplaced earlier neighbors; 0 makes it ready.
    pending = np.bincount(src[rank[g.nbr] < rank[src]], minlength=n)
    # Integer sums below 2**53 are exact in any order.
    exact = g.total_weight <= 2.0 ** 52 and bool((g.wt == np.floor(g.wt)).all())
    side = np.zeros(n, dtype=np.int8)
    wave = np.flatnonzero(pending == 0)
    while wave.size >= _SCALAR_WAVE:
        s, nb, wt = _rows(g, wave)
        sv = side[nb]
        to_left = np.bincount(s, wt * (sv == -1), minlength=wave.size)
        to_right = np.bincount(s, wt * (sv == 1), minlength=wave.size)
        side[wave] = np.where(to_left >= to_right, 1, -1)
        if not exact:
            # Any summation order errs by at most about cnt * 2**-53 of the
            # sum, so the loop's difference lies within a quarter of tol of
            # this one.  Sums of zero are exact.
            tol = 2.0 ** -50 * cnt[wave] * (to_left + to_right)
            near = (to_left + to_right > 0.0) & ~(np.abs(to_left - to_right) > tol)
            for v in wave[near].tolist():
                side[v] = _greedy_side(g, side, v)
        later, drops = np.unique(nb[rank[nb] > rank[wave][s]], return_counts=True)
        pending[later] -= drops
        wave = later[pending[later] == 0]
    # Every earlier neighbor of an unplaced vertex is placed or comes first
    # here, and no later one is placed yet.
    for v in order[side[order] == 0].tolist():
        side[v] = _greedy_side(g, side, v)
    return frozenset(np.flatnonzero(side == 1).tolist())


def _greedy_side(g: WeightedGraph, side: np.ndarray, v: int) -> int:
    """The side greedy_cut gives v against the sides placed so far."""
    nb, wt = g.neighbors(v)
    sv = side[nb]
    to_left = float(wt[sv == -1].sum())   # cut weight if v goes left
    to_right = float(wt[sv == 1].sum())
    return 1 if to_left >= to_right else -1


def random_cut(g: WeightedGraph, rng: np.random.Generator) -> frozenset:
    """Independent fair-coin side assignment."""
    coins = rng.random(g.n) < 0.5
    return frozenset(int(v) for v in np.nonzero(coins)[0])


def gen_planted(
    n: int, target_eps: float, avg_degree: float, seed: int
) -> PlantedInstance:
    """Random instance planted around a known bipartition.

    Half the vertices are assigned to each side; edges are sampled with
    endpoints crossing the planted cut with probability 1 - target_eps and
    falling inside one side otherwise, and the first n * avg_degree / 2
    distinct ones drawn are kept as unit-weight edges.  Refuses a target
    above PLANTED_EDGE_CAP edges with ResourceError.
    """
    if n < 4 or n % 2 != 0:
        raise InvalidParamsError("n must be even and at least 4")
    if not (0.0 <= target_eps < 0.5):
        raise InvalidParamsError("target_eps must be in [0, 0.5)")
    if not 1.0 <= avg_degree < math.inf:  # also refuses nan
        raise InvalidParamsError("avg_degree must be finite and at least 1")
    target = n * avg_degree / 2.0
    if target > PLANTED_EDGE_CAP:
        raise ResourceError(f"{target:g} edges requested, above cap {PLANTED_EDGE_CAP}")
    target_edges = int(round(target))
    max_cross = (n // 2) ** 2
    max_within = 2 * (n // 2) * (n // 2 - 1) // 2 if target_eps > 0.0 else 0  # never drawn at eps 0
    if target_edges > max_cross + max_within:
        raise InvalidParamsError("too many edges requested for this n and target_eps")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xB1A5)))
    perm = rng.permutation(n)
    left = perm[: n // 2]
    keys = _planted_keys(rng, perm, 1.0 - target_eps, target_edges)
    lo, hi = np.divmod(keys, n)
    graph = WeightedGraph.from_arrays(n, lo, hi, np.ones(lo.size))
    left_set = frozenset(int(v) for v in left)
    value = cut_value(graph, left_set)
    return PlantedInstance(
        graph=graph,
        left=left_set,
        planted_value=value,
        target_eps=float(target_eps),
        seed=int(seed),
    )


def _planted_keys(rng: np.random.Generator, perm: np.ndarray, cross_below: float,
                  target_edges: int) -> np.ndarray:
    """Keys lo * n + hi of the first target_edges distinct edges drawn, sorted.

    left and right are the halves of perm.  A trial crosses the cut with
    probability cross_below; otherwise both ends fall in one side, chosen by
    a fair coin, and a loop is dropped.  Trials are iid, so drawing them in
    batches does not change the law of which edges come first.  Each batch
    is a little over the target, so one suffices unless the target is a
    large share of the pairs, and no batch takes more memory than the first.
    """
    n, k = perm.size, perm.size // 2
    size = target_edges + target_edges // 256 + 64
    seen = np.empty(0, dtype=np.int64)  # distinct keys of earlier batches, sorted
    while True:
        # Below cross_below crosses the cut; the rest of [0, 1) splits evenly
        # between a left and a right same-side trial.
        r = rng.random(size)
        right = r >= (1.0 + cross_below) / 2.0
        pu = rng.integers(k, size=size) + k * right
        pv = rng.integers(k, size=size) + k * (right | (r < cross_below))
        keep = pu != pv
        u, v = perm[pu[keep]], perm[pv[keep]]
        # Earlier batches' keys come first, so each key's first index is its
        # first trial.
        keys, first = np.unique(np.concatenate((seen, np.minimum(u, v) * n + np.maximum(u, v))),
                                return_index=True)
        if keys.size >= target_edges:
            last = np.partition(first, target_edges - 1)[target_edges - 1]
            return keys[first <= last]
        seen = keys
