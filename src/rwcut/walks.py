"""Sampled lazy random walks with hop-parity tracking, plus the exact
dynamic-programming walk-distribution oracle.

Sampling model: each step stays put with probability 1/2, otherwise moves
along an incident edge chosen with probability proportional to its weight.
The number of non-lazy moves is the hop length; a walk is even or odd by the
parity of that count.

Lazy steps never move a walk, so only the hops are simulated.  Each walk's
hop count is drawn up front: Bin(length, 1/2) for a final-length tally, or
the running sum of one fair coin per step when positions are recorded per
length.  A walk from a degree-0 vertex makes no hop.  Walks are ranked by
descending hop count, so the walks making hop h are a prefix of the ranking,
and each hop takes its neighbour from the row's alias table
(``WeightedGraph.alias_table``) with one uniform draw.  A block scatters its
(parity, length, vertex) observations into the call's single int64 tally;
``even`` and ``odd`` are views of it.

Reproducibility: walks are generated, in the calling thread, in fixed
blocks of ``BLOCK_WALKS``.  Block ``i`` draws all of its randomness from a
generator seeded by ``(seed, i)``: its hop counts, then its hop uniforms in
one call, hop by hop over its ranked walks.  Several blocks may share one
hop loop, which ranks all their walks together and gathers each hop's
uniforms from the blocks' draws; each walk still takes its own uniforms, so
a block's observations are the same whatever blocks it is drawn with.  The
tally for a given (graph, start, length, seed, walk_count) is therefore
bit-identical however the blocks are grouped into calls.  A trailing partial
block draws for exactly its own walk count, which keeps the tally a pure
function of the requested walk total, and a search's pool draws each full
block and the partial last block of each planned size once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceError
from .graph import WeightedGraph

BLOCK_WALKS = 4096
# Guards against walk requests sized by outside input.
LENGTH_CAP = 200
STEP_CAP = 1_000_000_000
_NO_CELLS = np.empty(0, dtype=np.int64)


@dataclass
class WalkConfig:
    """Parameters for one batch of sampled walks."""

    length: int
    walks: int
    record_per_length: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.length < 0:
            raise InvalidInputError("walk length must be >= 0")
        if self.walks < 1:
            raise InvalidInputError("walk count must be >= 1")
        if self.length > LENGTH_CAP:
            raise ResourceError(f"walk length {self.length} exceeds cap {LENGTH_CAP}")
        steps = self.walks * max(self.length, 1)
        if steps > STEP_CAP:
            raise ResourceError(f"aggregate steps {steps} exceed cap {STEP_CAP}")


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
            if not 0 <= l <= self.length:
                raise InvalidInputError(f"length {l} outside the tally's 0..{self.length}")
            return self.even[l], self.odd[l]
        if l != self.length:
            raise InvalidInputError("tally only recorded at the final length")
        return self.even, self.odd


def _start_vertex(g: WeightedGraph, start) -> int:
    """start as an int, refused unless it is an integer vertex id of g."""
    if not isinstance(start, (int, np.integer)) or not 0 <= start < g.n:
        raise InvalidInputError(f"start vertex {start!r} is not an integer in [0, {g.n})")
    return int(start)


def _run_blocks(g: WeightedGraph, start: int, length: int, seed: int,
                blocks: list[tuple[int, int]], record: bool) -> list[np.ndarray]:
    """Sample walk blocks, given as (block index, walk count) pairs, in one
    hop loop; return the tally cells of each block's observations.

    A tally has shape (2, rows, n): parity (even, odd), observed length and
    vertex.  It has rows = length + 1 when record is set, one observation
    per walk and length; otherwise rows = 1 and each walk is observed once,
    at the final length.
    """
    counts = [count for _, count in blocks]
    hops, draws = [], []
    for index, count in blocks:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(int(seed) & (2**64 - 1), int(index)))
        )
        if record:
            h = np.zeros((length + 1, count), dtype=np.int64)
            np.cumsum(rng.integers(0, 2, (length, count)), axis=0, out=h[1:])
        else:
            h = rng.binomial(length, 0.5, (1, count))
        if g.degrees[start] <= 0.0:
            h[:] = 0
        hops.append(h)
        # One uniform per hop, hop by hop over the block's walks ranked as below.
        draws.append(rng.random(int(h[-1].sum())))
    hops = hops[0] if len(blocks) == 1 else np.concatenate(hops, axis=1)
    # Rank walks by descending total hops, so the walks making hop h are a
    # prefix of the ranking.
    order = np.argsort(-hops[-1], kind="stable")
    total = hops[-1][order]
    movers = np.searchsorted(-total, -np.arange(1, int(total[0]) + 1), "right")
    ends = np.cumsum(movers)
    uniforms = draws[0] if len(blocks) == 1 else _gather(counts, draws, order, total, movers)
    cnt, prob, alias = g.alias_table()
    path = np.empty((movers.size + 1, order.size), dtype=np.int64)
    path[0] = start
    for h, (k, end) in enumerate(zip(movers, ends), start=1):
        v = path[h - 1, :k]
        x = uniforms[end - k:end] * cnt[v]
        col = x.astype(np.int64)
        j = g.indptr[v] + col
        if prob is None:
            path[h, :k] = g.nbr[j]
        else:
            path[h, :k] = np.where(x - col < prob[j], g.nbr[j], alias[j])
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    rows = hops.shape[0]
    cells = path[hops, rank]
    cells += ((hops & 1) * rows + np.arange(rows)[:, None]) * g.n
    return [c.ravel() for c in np.split(cells, np.cumsum(counts)[:-1], axis=1)]


def _gather(counts: list[int], draws: list[np.ndarray], order: np.ndarray,
            total: np.ndarray, movers: np.ndarray) -> np.ndarray:
    """The blocks' hop uniforms, each block's walks counting `counts` and its
    uniforms drawn as `draws`, laid out hop by hop over `order`: the joint
    ranking of the walks, whose hop counts are `total`."""
    blocks, hmax = len(counts), movers.size
    block = np.repeat(np.arange(blocks), counts)[order]
    # The joint ranking is stable, so it ranks each block's walks as the
    # block does alone: own is a walk's rank within its block.
    grouped = np.argsort(block, kind="stable")
    own = np.empty(order.size, dtype=np.int64)
    own[grouped] = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # moving[b, h]: the walks of block b that make hop h + 1.
    hist = np.bincount(block * (hmax + 1) + total, minlength=blocks * (hmax + 1))
    moving = np.cumsum(hist.reshape(blocks, hmax + 1)[:, :0:-1], axis=1)[:, ::-1]
    first = np.cumsum([0] + [d.size for d in draws[:-1]])
    hop_start = (first[:, None] + np.cumsum(moving, axis=1) - moving).T.copy()
    src = np.take(hop_start, block, axis=1) + own
    return np.concatenate(draws)[src[np.arange(order.size) < movers[:, None]]]


def topup_steps(have: int, walks: int, length: int) -> int:
    """Sampled steps charged for growing a pool of `have` walks of `length`
    to `walks`: its new full blocks and the partial last block of `walks`."""
    if walks <= have:
        return 0
    new_full = walks // BLOCK_WALKS - have // BLOCK_WALKS
    return (new_full * BLOCK_WALKS + walks % BLOCK_WALKS) * max(length, 1)


def run_walks(
    g: WeightedGraph, start: int, cfg: WalkConfig, threads: int = 1
) -> WalkTally:
    """Run cfg.walks independent lazy walks of cfg.length from start.

    Deterministic given (graph, start, cfg): each fixed-size block derives
    its own generator from (cfg.seed, block index).  threads is accepted for
    compatibility and ignored; the walks run in the calling thread.
    """
    cfg.validate()
    start = _start_vertex(g, start)
    # Laid out as (2, rows, n): rows = 1 is the same memory as (2, n).
    shape = (2, cfg.length + 1, g.n) if cfg.record_per_length else (2, g.n)
    counts = np.zeros(shape, dtype=np.int64)
    blocks = [(index, BLOCK_WALKS) for index in range(cfg.walks // BLOCK_WALKS)]
    if cfg.walks % BLOCK_WALKS:
        blocks.append(divmod(cfg.walks, BLOCK_WALKS))
    for block in blocks:  # one hop loop per block bounds its path array
        (cells,) = _run_blocks(g, start, cfg.length, cfg.seed, [block], cfg.record_per_length)
        np.add.at(counts.reshape(-1), cells, 1)
    return WalkTally(n=g.n, length=cfg.length, walks=cfg.walks, even=counts[0],
                     odd=counts[1], record_per_length=cfg.record_per_length)


class WalkAccumulator:
    """Walk pool of a threshold search, grown through the sizes it plans.

    sizes names every pool size the search may ask for; it may repeat a
    size.  The tally after ``extend_to(w)`` equals the tally of ``run_walks``
    with ``walks=w`` exactly, under the same caps.  The pool keeps the counts
    of its full blocks.  The partial last block of a planned size is drawn
    in one hop loop together with those of the next planned sizes, up to
    BLOCK_WALKS walks, and kept until the pool grows past them.
    """

    def __init__(self, g: WeightedGraph, start: int, length: int, seed: int, sizes):
        self.g = g
        self.start = _start_vertex(g, start)
        self.length = length
        self.seed = seed
        self.walks = 0
        self.steps_sampled = 0
        self._sizes = sorted(set(sizes))
        self._full = np.zeros((2, g.n), dtype=np.int64)  # counts of the full blocks
        self._partial: dict[int, np.ndarray] = {}  # drawn partial blocks by pool size

    def extend_to(self, walks: int) -> None:
        """Grow the pool to `walks`, a planned size; a no-op at or below its size."""
        if walks <= self.walks:
            return
        WalkConfig(length=self.length, walks=walks, seed=self.seed).validate()
        if walks not in self._sizes:
            raise InvalidInputError(f"pool size {walks} is not planned")
        for index in range(self.walks // BLOCK_WALKS, walks // BLOCK_WALKS):
            (cells,) = _run_blocks(self.g, self.start, self.length, self.seed,
                                   [(index, BLOCK_WALKS)], False)
            np.add.at(self._full.reshape(-1), cells, 1)
        if walks % BLOCK_WALKS and walks not in self._partial:
            sizes, drawn = [], 0
            for w in self._sizes:
                if w >= walks and w % BLOCK_WALKS:
                    drawn += w % BLOCK_WALKS
                    if drawn > BLOCK_WALKS:
                        break
                    sizes.append(w)
            cells = _run_blocks(self.g, self.start, self.length, self.seed,
                                [divmod(w, BLOCK_WALKS) for w in sizes], False)
            self._partial = dict(zip(sizes, cells))
        self.steps_sampled += topup_steps(self.walks, walks, self.length)
        self.walks = walks

    def tally(self) -> WalkTally:
        """The pool's counts as a fresh array, which later top-ups leave as it is."""
        counts = self._full.copy()
        np.add.at(counts.reshape(-1), self._partial.get(self.walks, _NO_CELLS), 1)
        even, odd = counts
        return WalkTally(n=self.g.n, length=self.length, walks=self.walks, even=even, odd=odd)


def signed_estimates(tally: WalkTally, g: WeightedGraph) -> np.ndarray:
    """(even - odd) endpoint count at each vertex j over (d_j * walks); 0
    where d_j = 0."""
    ev, od = tally.counts_at(tally.length)
    out = np.zeros(g.n)
    mask = g.degrees > 0.0
    out[mask] = (ev[mask] - od[mask]) / (g.degrees[mask] * tally.walks)
    return out


# -- exact distribution oracle -----------------------------------------------


def lazy_step(g: WeightedGraph, p: np.ndarray) -> np.ndarray:
    """One exact lazy-walk step applied to a mass vector.

    Mass at a degree-0 vertex has nowhere to go and stays in place.
    """
    A = g.adjacency_csr()
    d = g.degrees
    scaled = np.where(d > 0.0, p / np.where(d > 0.0, d, 1.0), 0.0)
    move = A @ scaled + np.where(d > 0.0, 0.0, p)
    return 0.5 * p + 0.5 * move


def exact_walk_distribution(g: WeightedGraph, start: int,
                            length: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact lazy-walk distribution p after length steps from start, and
    its parity-signed companion s: s(j) is the even-hop minus the odd-hop
    probability of being at j.

    Per step p <- p/2 + A(p/d)/2 and s <- s/2 - A(s/d)/2, as one more hop
    flips the parity.  A walk from a degree-0 vertex never moves.
    """
    start = _start_vertex(g, start)
    if length < 0:
        raise InvalidInputError("length must be >= 0")
    p = np.zeros(g.n)
    p[start] = 1.0
    s = p.copy()
    if g.degrees[start] <= 0.0:
        return p, s
    A = g.adjacency_csr()
    # Mass from start never reaches a degree-0 vertex, so any divisor works
    # there; 1.0 keeps the division finite.
    d = np.where(g.degrees > 0.0, g.degrees, 1.0)
    for _ in range(length):
        p = 0.5 * p + 0.5 * (A @ (p / d))
        s = 0.5 * s - 0.5 * (A @ (s / d))
    return p, s
