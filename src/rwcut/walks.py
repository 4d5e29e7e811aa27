"""Sampled lazy random walks with hop-parity tracking, plus the exact
dynamic-programming walk-distribution oracle.

Sampling model: each step stays put with probability 1/2, otherwise moves
along an incident edge chosen with probability proportional to its weight.
The number of non-lazy moves is the hop length; a walk is even or odd by the
parity of that count.

Reproducibility: walks are generated in fixed blocks of ``BLOCK_WALKS``.
Block ``i`` draws all of its randomness from a generator seeded by
``(seed, i)``, so the tally for a given (graph, start, length, seed,
walk_count) is bit-identical no matter how blocks are scheduled across
workers.  A trailing partial block draws for exactly its own walk count,
which keeps the tally a pure function of the requested walk total.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ResourceError
from .graph import WeightedGraph

BLOCK_WALKS = 4096

# Guards for a single exact-DP call; the oracle is meant for n up to ~5000.
_DP_CELL_BUDGET = 50_000_000


@dataclass
class WalkConfig:
    """Parameters for one batch of sampled walks."""

    length: int
    walks: int
    record_per_length: bool = False
    seed: int = 0
    length_cap: int = 200
    step_cap: int = 1_000_000_000

    def validate(self) -> None:
        if self.length < 0:
            raise InvalidInputError("walk length must be >= 0")
        if self.walks < 1:
            raise InvalidInputError("walk count must be >= 1")
        if self.length > self.length_cap:
            raise ResourceError(
                f"walk length {self.length} exceeds cap {self.length_cap}"
            )
        steps = self.walks * max(self.length, 1)
        if steps > self.step_cap:
            raise ResourceError(
                f"aggregate steps {steps} exceed cap {self.step_cap}"
            )


@dataclass
class WalkTally:
    """Endpoint counts split by hop parity.

    ``even`` and ``odd`` have shape (n,) or, when recorded per length,
    (length+1, n); row l then counts walks observed after l steps.
    """

    n: int
    length: int
    walks: int
    even: np.ndarray
    odd: np.ndarray
    record_per_length: bool = False

    def counts_at(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        if self.record_per_length:
            return self.even[l], self.odd[l]
        if l != self.length:
            raise InvalidInputError("tally only recorded at the final length")
        return self.even, self.odd

    def dump(self, fh) -> None:
        """Diagnostic text dump: vertex, length, even, odd."""
        lengths = range(self.length + 1) if self.record_per_length else [self.length]
        for l in lengths:
            ev, od = self.counts_at(l)
            for j in range(self.n):
                if ev[j] or od[j]:
                    fh.write(f"{j} {l} {int(ev[j])} {int(od[j])}\n")


def _run_block(
    g: WeightedGraph,
    start: int,
    length: int,
    seed: int,
    block_index: int,
    count: int,
    record: bool,
) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(seed) & (2**64 - 1), int(block_index)))
    )
    pos = np.full(count, start, dtype=np.int64)
    par = np.zeros(count, dtype=bool)
    shape = (length + 1, g.n) if record else (g.n,)
    even = np.zeros(shape, dtype=np.int64)
    odd = np.zeros(shape, dtype=np.int64)

    def tally(l: int) -> None:
        ev = even[l] if record else even
        od = odd[l] if record else odd
        ev += np.bincount(pos[~par], minlength=g.n)
        od += np.bincount(pos[par], minlength=g.n)

    if record:
        tally(0)
    deg = g.degrees
    for l in range(1, length + 1):
        coins = rng.random(count)
        r = rng.random(count)
        movers = (coins < 0.5) & (deg[pos] > 0.0)
        if movers.any():
            vs = pos[movers]
            target = g._row_base[vs] + r[movers] * deg[vs]
            j = np.searchsorted(g._gcum, target, side="right")
            lo = g.indptr[vs]
            hi = g.indptr[vs + 1] - 1
            j = np.minimum(np.maximum(j, lo), hi)
            pos[movers] = g.nbr[j]
            par[movers] ^= True
        if record:
            tally(l)
    if not record:
        tally(length)
    return even, odd


def _add_blocks(g: WeightedGraph, start: int, length: int, seed: int,
                blocks: list[tuple[int, int]], record: bool, threads: int,
                even: np.ndarray, odd: np.ndarray) -> None:
    """Run (block index, walk count) blocks, adding each block's tallies into
    even and odd as soon as that block finishes.

    Integer addition commutes, so the totals do not depend on the order in
    which the blocks finish.
    """
    lock = threading.Lock()

    def run(block: tuple[int, int]) -> None:
        ev, od = _run_block(g, start, length, seed, block[0], block[1], record)
        with lock:
            np.add(even, ev, out=even)
            np.add(odd, od, out=odd)

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, blocks))
    else:
        for block in blocks:
            run(block)


def run_walks(
    g: WeightedGraph, start: int, cfg: WalkConfig, threads: int = 1
) -> WalkTally:
    """Run cfg.walks independent lazy walks of cfg.length from start.

    Deterministic given (graph, start, cfg): identical results for any
    thread count, because each fixed-size block derives its own generator
    from (cfg.seed, block index) and tallies merge by integer summation.
    """
    cfg.validate()
    if not (0 <= start < g.n):
        raise InvalidInputError(f"start vertex {start} out of range")
    blocks = [(i, min(BLOCK_WALKS, cfg.walks - i * BLOCK_WALKS))
              for i in range(-(-cfg.walks // BLOCK_WALKS))]
    shape = (cfg.length + 1, g.n) if cfg.record_per_length else (g.n,)
    even = np.zeros(shape, dtype=np.int64)
    odd = np.zeros(shape, dtype=np.int64)
    _add_blocks(g, start, cfg.length, cfg.seed, blocks, cfg.record_per_length,
                threads, even, odd)
    return WalkTally(
        n=g.n,
        length=cfg.length,
        walks=cfg.walks,
        even=even,
        odd=odd,
        record_per_length=cfg.record_per_length,
    )


class WalkAccumulator:
    """Monotone walk pool supporting cheap top-ups across threshold rounds.

    Completed blocks are kept; only the trailing partial block is redrawn
    when the target grows.  The tally after ``extend_to(w)`` equals the
    tally of ``run_walks`` with ``walks=w`` exactly.
    """

    def __init__(self, g: WeightedGraph, start: int, length: int, seed: int,
                 threads: int = 1):
        if not (0 <= start < g.n):
            raise InvalidInputError(f"start vertex {start} out of range")
        self.g = g
        self.start = start
        self.length = length
        self.seed = seed
        self.threads = threads
        self.walks = 0
        self.steps_sampled = 0
        self._full_blocks = 0
        self._full_even = np.zeros(g.n, dtype=np.int64)
        self._full_odd = np.zeros(g.n, dtype=np.int64)
        self._tail_even = np.zeros(g.n, dtype=np.int64)
        self._tail_odd = np.zeros(g.n, dtype=np.int64)

    def projected_steps(self, walks: int) -> int:
        """Sampled steps an extend_to(walks) call would add."""
        if walks <= self.walks:
            return 0
        target_full, tail = divmod(walks, BLOCK_WALKS)
        new_full = max(0, target_full - self._full_blocks) * BLOCK_WALKS
        return (new_full + tail) * max(self.length, 1)

    def extend_to(self, walks: int) -> None:
        if walks <= self.walks:
            return
        target_full, tail = divmod(walks, BLOCK_WALKS)
        full = [(bi, BLOCK_WALKS) for bi in range(self._full_blocks, target_full)]
        _add_blocks(self.g, self.start, self.length, self.seed, full, False,
                    self.threads, self._full_even, self._full_odd)
        self._tail_even = np.zeros(self.g.n, dtype=np.int64)
        self._tail_odd = np.zeros(self.g.n, dtype=np.int64)
        _add_blocks(self.g, self.start, self.length, self.seed,
                    [(target_full, tail)] if tail else [], False, self.threads,
                    self._tail_even, self._tail_odd)
        self._full_blocks = target_full
        self.steps_sampled += (len(full) * BLOCK_WALKS + tail) * max(self.length, 1)
        self.walks = walks

    def tally(self) -> WalkTally:
        return WalkTally(
            n=self.g.n,
            length=self.length,
            walks=self.walks,
            even=self._full_even + self._tail_even,
            odd=self._full_odd + self._tail_odd,
        )


def signed_estimate(tally: WalkTally, g: WeightedGraph, j: int) -> float:
    """(even - odd) endpoint count at j over (d_j * walks); 0 when d_j = 0."""
    ev, od = tally.counts_at(tally.length)
    d = g.degrees[j]
    if d <= 0.0:
        return 0.0
    return float(ev[j] - od[j]) / (d * tally.walks)


def signed_estimates(tally: WalkTally, g: WeightedGraph) -> np.ndarray:
    """Vectorized signed_estimate over all vertices."""
    ev, od = tally.counts_at(tally.length)
    out = np.zeros(g.n)
    mask = g.degrees > 0.0
    out[mask] = (ev[mask] - od[mask]) / (g.degrees[mask] * tally.walks)
    return out


# -- exact distribution oracle -----------------------------------------------


def lazy_step(g: WeightedGraph, p: np.ndarray) -> np.ndarray:
    """One exact lazy-walk step applied to a mass vector."""
    move = _move_operator(g, p)
    return 0.5 * p + 0.5 * move


def _move_operator(g: WeightedGraph, x: np.ndarray) -> np.ndarray:
    # Mass at degree-0 vertices has nowhere to go and stays in place.
    A = g.adjacency_csr()
    d = g.degrees
    scaled = np.where(d > 0.0, x / np.where(d > 0.0, d, 1.0), 0.0)
    out = A @ scaled
    out = out + np.where(d > 0.0, 0.0, x)
    return out


@dataclass
class ExactWalkDist:
    """Exact per-length walk distribution and its parity-signed companion.

    ``s[l](j)`` is the signed arrival mass: even-hop probability minus
    odd-hop probability of being at j after l steps.
    """

    n: int
    length: int
    start: int
    p: np.ndarray
    s: np.ndarray
    p_all: np.ndarray | None = None
    s_all: np.ndarray | None = None
    record_per_length: bool = field(default=False)

    def prob(self, l: int) -> np.ndarray:
        if self.record_per_length:
            return self.p_all[l]
        if l != self.length:
            raise InvalidInputError("distribution only recorded at final length")
        return self.p

    def signed(self, l: int) -> np.ndarray:
        if self.record_per_length:
            return self.s_all[l]
        if l != self.length:
            raise InvalidInputError("distribution only recorded at final length")
        return self.s

    def signed_vector(self, g: WeightedGraph, l: int | None = None) -> np.ndarray:
        """Degree-normalized signed vector s_l(j) / sqrt(d_j)."""
        l = self.length if l is None else l
        s = self.signed(l)
        out = np.zeros(self.n)
        mask = g.degrees > 0.0
        out[mask] = s[mask] / np.sqrt(g.degrees[mask])
        return out


def exact_walk_distribution(
    g: WeightedGraph, start: int, length: int, record_per_length: bool = False
) -> ExactWalkDist:
    """Exact DP over walk lengths maintaining (probability, signed) vectors.

    Transition per step: new = old/2 + move(old)/2, with the move term
    sign-flipped for the signed vector (one extra hop flips parity).
    """
    if not (0 <= start < g.n):
        raise InvalidInputError(f"start vertex {start} out of range")
    if length < 0:
        raise InvalidInputError("length must be >= 0")
    cells = (length + 1) * g.n if record_per_length else g.n
    if cells > _DP_CELL_BUDGET:
        raise ResourceError("exact DP exceeds its memory budget")
    p = np.zeros(g.n)
    p[start] = 1.0
    s = p.copy()
    p_all = s_all = None
    if record_per_length:
        p_all = np.zeros((length + 1, g.n))
        s_all = np.zeros((length + 1, g.n))
        p_all[0] = p
        s_all[0] = s
    for l in range(1, length + 1):
        p = 0.5 * p + 0.5 * _move_operator(g, p)
        # Degree-0 mass "moves" in place without a hop, so no sign flip there.
        s_move = _move_operator(g, s)
        d0 = g.degrees <= 0.0
        s = 0.5 * s - 0.5 * np.where(d0, -s_move, s_move)
        if record_per_length:
            p_all[l] = p
            s_all[l] = s
    return ExactWalkDist(
        n=g.n,
        length=length,
        start=start,
        p=p,
        s=s,
        p_all=p_all,
        s_all=s_all,
        record_per_length=record_per_length,
    )
