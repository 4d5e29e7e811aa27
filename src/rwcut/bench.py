"""Exact and baseline oracles plus planted-instance generation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, ResourceError
from .graph import WeightedGraph, _rows, _write_text, cut_value

BRUTE_FORCE_MAX_N = 22
# gen_planted takes about 0.6 us and 200 bytes of peak memory per edge (one
# core of a 2-core Xeon, n = 100k and 500k at degree 8; most of both goes to
# building the graph), so larger targets are refused.
PLANTED_EDGE_CAP = 5_000_000
_MASK_CHUNK = 1 << 14
# gen_planted replays the generator's scalar draws this many raw words at a
# time; a rejected integer draw redoes the rest of its block.
_BLOCK_WORDS = 1 << 12
_DOUBLE_SHIFT = np.uint64(11)  # random() keeps a word's top 53 bits
_HALF = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)
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
    falling inside one side otherwise, resampling duplicates, until
    n * avg_degree / 2 distinct unit-weight edges exist.  Refuses a target
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
    keys = _planted_keys(rng.bit_generator, perm, 1.0 - target_eps, target_edges)
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


def _planted_keys(bitgen, perm: np.ndarray, cross_below: float, target_edges: int) -> np.ndarray:
    """Keys lo * n + hi of the edges the scalar draw loop

        while len(edges) < target_edges:
            if rng.random() < cross_below:
                u, v = left[rng.integers(k)], right[rng.integers(k)]
            else:
                pool = left if rng.random() < 0.5 else right
                u, v = pool[rng.integers(k)], pool[rng.integers(k)]
                if u == v:
                    continue
            edges.add(key(u, v))

    would add, with left and right the halves of perm and rng the
    generator of bitgen, replayed from its raw 64-bit words.

    random() is (w >> 11) * 2**-53 of one word w, and integers(k) is
    Lemire's (x * k) >> 32 of a 32-bit half x: the low half of a fresh word
    first, the high half kept for the next integer draw.  Whether a half is
    kept when a trial starts or not, the trial takes 2 words, or 3 when it
    draws a second double, so trial starts form a chain of steps of 2 and 3
    over the words.  Only a rejected x, whose x * k mod 2**32 is below
    2**32 mod k, takes one more half; that trial is replayed by itself.
    """
    k = perm.size // 2
    uk = np.uint64(k)
    reject_below = (1 << 32) % k
    state = bitgen.state
    kept = int(state["uinteger"]) if state["has_uint32"] else None
    seen = np.empty(0, dtype=np.int64)  # distinct keys as of the last count, sorted
    drawn, n_drawn = [], 0  # each block's keys since then, in trial order
    words = np.empty(0, dtype=np.uint64)
    p = 0  # the next trial's first word
    while True:
        words = np.concatenate((words[p:], bitgen.random_raw(_BLOCK_WORDS)))
        same = _doubles(words) >= cross_below  # as a trial's first draw
        last = words.size - 3  # the last start whose trial fits unless rejected
        # The first same-side start at or after each word, in steps of 2.
        next_same = np.where(same, np.arange(words.size), words.size)
        for parity in (0, 1):
            run = next_same[parity::2]
            run[:] = np.minimum.accumulate(run[::-1])[::-1]
        batch = []
        p = 0
        while True:
            starts, after = _trial_starts(next_same, p, last)
            two = same[starts]  # same-side trials draw a second double
            ints = words[starts + 1 + two]  # the word the integer halves come from
            if kept is None:
                x1, x2 = ints & _LOW, ints >> _HALF
            else:  # the kept half is the high one of the previous trial's ints
                x1, x2 = words[starts - 1] >> _HALF, ints & _LOW
                x1[:1] = kept
            m1, m2 = x1 * uk, x2 * uk
            bad = ((m1 & _LOW) < reject_below) | ((m2 & _LOW) < reject_below)
            r = int(np.argmax(bad)) if bad.any() else starts.size
            right_pool = two[:r] & (_doubles(words[starts[:r] + 1]) >= 0.5)
            pu = (m1[:r] >> _HALF).astype(np.int64) + k * right_pool
            pv = (m2[:r] >> _HALF).astype(np.int64) + k * (~two[:r] | right_pool)
            batch.append(_edge_keys(perm, pu, pv))
            if r == starts.size:
                if kept is not None and r:
                    kept = int(ints[-1] >> _HALF)
                p = after
                break
            if kept is not None:
                kept = int(x1[r])  # as trial r starts
            replayed = _replay_trial(words, int(starts[r]), kept, k, cross_below, reject_below)
            if replayed is None:  # it runs past the block: redo it in the next
                p = int(starts[r])
                break
            pu, pv, p, kept = replayed
            batch.append(_edge_keys(perm, np.array([pu]), np.array([pv])))
        drawn.append(np.concatenate(batch))
        n_drawn += drawn[-1].size
        if seen.size + n_drawn < target_edges:
            continue  # too few to finish even if all are new
        # Short of the target before this block, so all of those keys count.
        seen = np.sort(np.concatenate([seen] + drawn[:-1]))  # faster than np.unique's hashing
        seen = np.concatenate((seen[:1], seen[1:][seen[1:] != seen[:-1]]))
        fresh, first = np.unique(drawn[-1], return_index=True)
        fresh_new = np.append(seen, -1)[np.searchsorted(seen, fresh)] != fresh
        first = np.sort(first[fresh_new])
        need = target_edges - seen.size
        if first.size >= need:
            return np.concatenate((seen, drawn[-1][first[:need]]))
        seen = np.sort(np.concatenate((seen, fresh[fresh_new])))
        drawn, n_drawn = [], 0


def _doubles(words):
    """Generator.random() of each raw word."""
    return (words >> _DOUBLE_SHIFT) * 2.0 ** -53


def _trial_starts(next_same: np.ndarray, p: int, last: int) -> tuple[np.ndarray, int]:
    """Trial starts from word p up to word last, and the start after them.

    A same-side start q is followed by q + 3, any other start by 2 on, so
    the starts are runs of step 2, each ending at a same-side start.
    """
    firsts, ends = [], []
    while p <= last:
        q = int(next_same[p])
        if q > last:
            q = last - (last - p) % 2
            firsts.append(p)
            ends.append(q)
            p = q + 2
            break
        firsts.append(p)
        ends.append(q)
        p = q + 3
    firsts = np.array(firsts, dtype=np.int64)
    counts = (np.array(ends, dtype=np.int64) - firsts) // 2 + 1
    offsets = np.repeat(firsts - 2 * (np.cumsum(counts) - counts), counts)
    return offsets + 2 * np.arange(offsets.size), p


def _replay_trial(words: np.ndarray, p: int, kept: int | None, k: int,
                  cross_below: float, reject_below: int) -> tuple | None:
    """The trial at word p drawn one scalar step at a time, rejections included.

    Returns the positions in perm of u and v, the next trial's first word
    and the half then kept, or None if the trial needs words past the block.
    """
    def integer():
        nonlocal p, kept
        while True:
            if kept is None:
                if p == words.size:
                    return None
                w = int(words[p])
                p += 1
                x, kept = w & 0xFFFFFFFF, w >> 32
            else:
                x, kept = kept, None
            if x * k & 0xFFFFFFFF >= reject_below:
                return x * k >> 32

    if _doubles(words[p]) < cross_below:
        pu, pv = 0, k
        p += 1
    else:
        pu = pv = k if _doubles(words[p + 1]) >= 0.5 else 0
        p += 2
    i = integer()
    j = integer() if i is not None else None
    if j is None:
        return None
    return pu + i, pv + j, p, kept


def _edge_keys(perm: np.ndarray, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """Keys lo * n + hi of the edges perm[pu] - perm[pv], skipping loops."""
    keep = pu != pv
    u, v = perm[pu[keep]], perm[pv[keep]]
    return np.minimum(u, v) * perm.size + np.maximum(u, v)
