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
generator seeded by ``(seed, i)``: its hop counts, then its hop uniforms,
hop by hop over its ranked walks.  Several blocks may share one hop loop,
which ranks all their walks together and gathers each hop's uniforms from
the blocks' draws; each walk still takes its own uniforms, so a block's
observations are the same whatever blocks it is drawn with.  The tally for
a given (graph, start, length, seed, walk_count) is therefore bit-identical
however the blocks are grouped into calls.  A trailing partial block draws
for exactly its own walk count, which keeps the tally a pure function of
the requested walk total, and a search's pool draws each full block and the
partial last block of each planned size once.

Per-length counts can also be read one length at a time
(``per_length_counts``).  With at most n walks, all blocks stay resident,
and a block draws its hop uniforms only as far as the lengths read so far
need: ``random(a)`` then ``random(b)`` takes the same numbers as
``random(a + b)``, so each row equals the recorded tally's, and a reader that
stops at a short length never draws the longer hops.  The hop counts and
paths of at most n walks take no more room than the dense tally.  With more
walks, the dense tally is recorded block by block, as ``run_walks`` does.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

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


def _block_hops(g: WeightedGraph, start: int, length: int, seed: int, index: int,
                count: int, record: bool) -> tuple[np.random.Generator, np.ndarray]:
    """Block `index`'s generator, after it has drawn the hop counts of its
    `count` walks, and those counts.

    With record set, row l of the counts is each walk's hops after l steps,
    the running sum of one fair coin per step; otherwise the one row is the
    final Bin(length, 1/2) count.  A walk from a degree-0 vertex makes no hop.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(seed) & (2**64 - 1), int(index)))
    )
    if record:
        coins = rng.integers(0, 2, (length, count))
        h = np.empty((length + 1, count), dtype=np.int64)
        h[0] = 0
        for l in range(length):  # row adds: a cumsum's integers, several times faster
            np.add(h[l], coins[l], out=h[l + 1])
    else:
        h = rng.binomial(length, 0.5, (1, count))
    if g.degrees[start] <= 0.0:
        h[:] = 0
    return rng, h


def _ranking(total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walks ranked by descending hop count `total`, ties by index, and
    movers[h - 1], the number of walks making hop h: a prefix of the ranking."""
    # Hop counts never exceed LENGTH_CAP, so int16 keys are exact, and numpy
    # sorts them stably by radix.
    order = np.argsort(-total.astype(np.int16), kind="stable")
    ranked = total[order]
    return order, np.searchsorted(-ranked, -np.arange(1, int(ranked[0]) + 1), "right")


def _hop(g: WeightedGraph, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A neighbour of each vertex of v, drawn with one uniform of u each
    from the row's alias table."""
    cnt, prob, alias = g.alias_table()
    x = u * cnt[v]
    col = x.astype(np.int64)
    j = g.indptr[v] + col
    if prob is None:
        return g.nbr[j]
    return np.where(x - col < prob[j], g.nbr[j], alias[j])


def _run_blocks(g: WeightedGraph, start: int, length: int, seed: int,
                blocks: list[tuple[int, int]]) -> list[np.ndarray]:
    """Sample walk blocks, given as (block index, walk count) pairs, in one
    hop loop; return, per block, the final-length tally cell of each walk:
    parity * n + vertex, parity 0 for even and 1 for odd.
    """
    counts = [count for _, count in blocks]
    hops, draws = [], []
    for index, count in blocks:
        rng, h = _block_hops(g, start, length, seed, index, count, False)
        hops.append(h[0])
        # One uniform per hop, hop by hop over the block's walks ranked as below.
        draws.append(rng.random(int(h.sum())))
    hops = hops[0] if len(blocks) == 1 else np.concatenate(hops)
    order, movers = _ranking(hops)
    total = hops[order]
    ends = np.cumsum(movers)
    uniforms = draws[0] if len(blocks) == 1 else _gather(counts, draws, order, total, movers)
    v = np.full(order.size, start, dtype=np.int64)  # ranked walks' vertices
    for k, end in zip(movers, ends):
        v[:k] = _hop(g, v[:k], uniforms[end - k:end])
    cells = np.empty(order.size, dtype=np.int64)
    cells[order] = v + (total & 1) * g.n
    return np.split(cells, np.cumsum(counts)[:-1])


class _RecordedBlock:
    """One block of walks observed at every length, whose hops are drawn
    only as far as the lengths read so far need.

    The block draws its coins first and then its hop uniforms, hop by hop
    over its ranked walks; drawing them one hop at a time takes the same
    numbers as one call would (``random(a)`` then ``random(b)`` equals
    ``random(a + b)``).
    """

    def __init__(self, g: WeightedGraph, start: int, length: int, seed: int,
                 index: int, count: int):
        self.g = g
        self.rng, hops = _block_hops(g, start, length, seed, index, count, True)
        order, self.movers = _ranking(hops[-1])
        self.hops = hops[:, order]  # columns in rank order
        # path[h, r]: the vertex of the walk ranked r after h hops.
        self.path = np.empty((self.movers.size + 1, count), dtype=np.int64)
        self.path[0] = start
        self.drawn = 0  # hops simulated so far

    def at(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        """Each walk's hop parity and vertex after l steps, in rank order."""
        h = self.hops[l]
        for hop in range(self.drawn + 1, int(h.max()) + 1):
            k = self.movers[hop - 1]
            self.path[hop, :k] = _hop(self.g, self.path[hop - 1, :k], self.rng.random(k))
            self.drawn = hop
        return h & 1, self.path[h, np.arange(h.size)]


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


def _blocks(walks: int) -> list[tuple[int, int]]:
    """(block index, walk count) of the blocks that make up `walks` walks."""
    blocks = [(index, BLOCK_WALKS) for index in range(walks // BLOCK_WALKS)]
    if walks % BLOCK_WALKS:
        blocks.append(divmod(walks, BLOCK_WALKS))
    return blocks


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
    record, rows = cfg.record_per_length, cfg.length + 1
    counts = np.zeros((2, rows, g.n) if record else (2, g.n), dtype=np.int64)
    flat = counts.reshape(-1)
    for index, count in _blocks(cfg.walks):  # one block at a time bounds its state
        if not record:
            (cells,) = _run_blocks(g, start, cfg.length, cfg.seed, [(index, count)])
            np.add.at(flat, cells, 1)
            continue
        block = _RecordedBlock(g, start, cfg.length, cfg.seed, index, count)
        for l in range(rows):
            parity, vertex = block.at(l)
            np.add.at(flat, (parity * rows + l) * g.n + vertex, 1)
    return WalkTally(n=g.n, length=cfg.length, walks=cfg.walks, even=counts[0],
                     odd=counts[1], record_per_length=record)


def per_length_counts(g: WeightedGraph, start: int,
                      cfg: WalkConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the (even, odd) counts of cfg's walks after 0, 1, ..., cfg.length
    steps: row by row, the tally ``run_walks`` records for cfg with
    record_per_length set.

    With at most n walks, every block stays resident and a length draws only
    the hops it needs, so a consumer that stops early never draws the rest;
    the blocks' hop counts and paths then take no more room than the dense
    (2, length + 1, n) tally.  With more walks, that tally is the smaller
    state, and it is recorded block by block before the first row is yielded.
    """
    cfg = replace(cfg, record_per_length=True)
    cfg.validate()
    start = _start_vertex(g, start)
    if cfg.walks > g.n:
        tally = run_walks(g, start, cfg)
        yield from zip(tally.even, tally.odd)
        return
    blocks = [_RecordedBlock(g, start, cfg.length, cfg.seed, index, count)
              for index, count in _blocks(cfg.walks)]
    for l in range(cfg.length + 1):
        parity, vertex = zip(*(b.at(l) for b in blocks))
        cells = np.concatenate(parity) * g.n + np.concatenate(vertex)
        counts = np.bincount(cells, minlength=2 * g.n)
        yield counts[:g.n], counts[g.n:]


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
                                   [(index, BLOCK_WALKS)])
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
                                [divmod(w, BLOCK_WALKS) for w in sizes])
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
