"""Sampled lazy random walks with hop-parity tracking, plus the exact
distribution that their endpoint tallies estimate.

Sampling model: each step stays put with probability 1/2, otherwise moves
along an incident edge chosen with probability proportional to its weight.
The number of non-lazy moves is the hop length; a walk is even or odd by the
parity of that count.

Lazy steps never move a walk, so only the hops are simulated, in blocks of
``BLOCK_WALKS`` walks.  A block draws each walk's hop count up front:
Bin(length, 1/2) when only the final length is read, or the running sum of
one fair coin per step when every length is.  A walk from a degree-0 vertex
makes no hop.  Walks are ranked by descending hop count, so the walks making
hop h are a prefix of the ranking, and each hop takes its neighbour from the
row's alias table (``WeightedGraph.alias_table``) with one uniform draw.  A
read draws the hop uniforms only as far as it needs, hop by hop over the
ranked walks: ``random(a)`` then ``random(b)`` takes the same numbers as
``random(a + b)``, so the walks do not depend on which lengths are read, or
in what order, and a reader that stops at a short length never draws the
longer hops.

Reproducibility: the walks run in the calling thread.  Block ``i`` draws all
of its randomness from a generator seeded by ``(seed, i)``: its hop counts,
then its hop uniforms.  A threshold search's pool (``WalkAccumulator``)
draws each block once, at the most walks its largest planned size, top,
takes from that block, and a pool of w walks is the first w walks of those
draws: w iid walks, the pools nested as they grow, and a pure function of
(graph, start, length, seed, top, w).  The pool counts its walks itself; a
search scores all the rounds a drawn block covers in one pass over the
vertices their walks reached.  ``run_walks`` counts its walks block by
block, at the final length or at every length, so it holds its tally and one
block; a final-length tally of w walks is the pool of top w grown to w.
``per_length_counts`` yields the per-length tally one length at a time,
keeping every block resident when there are at most n walks, and otherwise
recording the dense tally block by block.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, InvalidParamsError, ResourceError
from .graph import WeightedGraph

BLOCK_WALKS = 4096
# Guards against walk requests sized by outside input.
LENGTH_CAP = 200
STEP_CAP = 1_000_000_000


def is_int(value, least: int = 0) -> bool:
    """Whether value is an integer of at least `least`: a Python or numpy
    integer, never a bool."""
    return (not isinstance(value, bool) and isinstance(value, (int, np.integer))
            and value >= least)


def check_seed(seed) -> None:
    """Refuse, before any work, a seed that is not an integer of at least 0."""
    if not is_int(seed):
        raise InvalidParamsError(f"seed = {seed!r} must be an integer of at least 0")


@dataclass
class WalkConfig:
    """Parameters for one batch of sampled walks."""

    length: int
    walks: int
    record_per_length: bool = False
    seed: int = 0

    def validate(self) -> None:
        if not is_int(self.length):
            raise InvalidInputError(f"walk length {self.length!r} must be an integer of at least 0")
        if not is_int(self.walks, 1):
            raise InvalidInputError(f"walk count {self.walks!r} must be an integer of at least 1")
        if not is_int(self.seed):
            raise InvalidInputError(f"walk seed {self.seed!r} must be an integer of at least 0")
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
    if not is_int(start) or start >= g.n:
        raise InvalidInputError(f"start vertex {start!r} is not an integer in [0, {g.n})")
    return int(start)


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


class _Block:
    """Block `index` of `count` walks from start, whose hops are drawn only
    as far as the rows read so far need.

    Row l of the hop counts is each walk's hops after l steps when record is
    set; otherwise the one row is the final count, and the path is one row
    updated in place.  ``order`` maps a walk's rank to its index in the block.
    """

    def __init__(self, g: WeightedGraph, start: int, length: int, seed: int,
                 index: int, count: int, record: bool):
        self.g = g
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(int(seed), int(index))))
        if record:
            coins = self.rng.integers(0, 2, (length, count))
            hops = np.empty((length + 1, count), dtype=np.int64)
            hops[0] = 0
            for l in range(length):  # row adds: a cumsum's integers, several times faster
                np.add(hops[l], coins[l], out=hops[l + 1])
        else:
            hops = self.rng.binomial(length, 0.5, (1, count))
        if g.degrees[start] <= 0.0:
            hops[:] = 0
        # Hop counts never exceed LENGTH_CAP, so int16 keys are exact, and
        # numpy sorts them stably by radix.
        self.order = np.argsort(-hops[-1].astype(np.int16), kind="stable")
        self.hops = hops[:, self.order]  # columns in rank order
        ranked = self.hops[-1]
        # movers[h - 1]: the number of walks making hop h.
        self.movers = np.searchsorted(-ranked, -np.arange(1, int(ranked[0]) + 1), "right")
        # path[h, r]: the vertex of the walk ranked r after h hops; one row without record.
        self.path = np.empty((self.movers.size + 1 if record else 1, count), dtype=np.int64)
        self.path[0] = start
        self.drawn = 0  # hops simulated so far

    def at(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Each walk's hop parity and vertex at row `row` of the hop counts,
        in rank order, drawing in one call the hop uniforms it needs beyond
        those drawn."""
        h, path = self.hops[row], self.path
        top = int(h.max())
        if top > self.drawn:
            movers = self.movers[self.drawn:top].tolist()
            uniforms = self.rng.random(sum(movers))
            used, step = 0, int(len(path) > 1)  # step 0: the one row, updated in place
            for hop, k in enumerate(movers, self.drawn + 1):
                path[hop * step, :k] = _hop(self.g, path[(hop - 1) * step, :k],
                                            uniforms[used:used + k])
                used += k
            self.drawn = top
        return h & 1, path[h, np.arange(h.size)] if len(path) > 1 else path[0]


def _run_block(g: WeightedGraph, start: int, length: int, seed: int, index: int,
               count: int) -> np.ndarray:
    """Block `index`'s final-length tally cell of each walk, in walk order:
    parity * n + vertex, parity 0 for even and 1 for odd."""
    block = _Block(g, start, length, seed, index, count, False)
    parity, vertex = block.at(0)
    cells = np.empty(count, dtype=np.int64)
    cells[block.order] = parity * g.n + vertex
    return cells


def _blocks(walks: int) -> list[tuple[int, int]]:
    """(block index, walk count) of the blocks that make up `walks` walks."""
    return [(i, min(BLOCK_WALKS, walks - i * BLOCK_WALKS)) for i in range(-(-walks // BLOCK_WALKS))]


def run_walks(
    g: WeightedGraph, start: int, cfg: WalkConfig, threads: int = 1
) -> WalkTally:
    """Run cfg.walks independent lazy walks of cfg.length from start.

    Deterministic given (graph, start, cfg): each fixed-size block derives
    its own generator from (cfg.seed, block index), and is counted before
    the next is drawn.  threads is accepted for compatibility and ignored;
    the walks run in the calling thread.
    """
    cfg.validate()
    start = _start_vertex(g, start)
    rows = cfg.length + 1 if cfg.record_per_length else 1
    counts = np.zeros((2, rows, g.n), dtype=np.int64)
    flat = counts.reshape(-1)
    for index, count in _blocks(cfg.walks):
        block = _Block(g, start, cfg.length, cfg.seed, index, count, cfg.record_per_length)
        for l in range(rows):
            parity, vertex = block.at(l)
            np.add.at(flat, (parity * rows + l) * g.n + vertex, 1)
    even, odd = counts if cfg.record_per_length else counts[:, 0]
    return WalkTally(n=g.n, length=cfg.length, walks=cfg.walks, even=even, odd=odd,
                     record_per_length=cfg.record_per_length)


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
    blocks = [_Block(g, start, cfg.length, cfg.seed, index, count, True)
              for index, count in _blocks(cfg.walks)]
    for l in range(cfg.length + 1):
        parity, vertex = zip(*(b.at(l) for b in blocks))
        cells = np.concatenate(parity) * g.n + np.concatenate(vertex)
        counts = np.bincount(cells, minlength=2 * g.n)
        yield counts[:g.n], counts[g.n:]


class WalkAccumulator:
    """Walk pool of a threshold search, grown to at most top walks, the
    largest pool the search plans.

    Block i is drawn once, when the pool first reaches it, at the most
    walks a pool of top takes from it: min(BLOCK_WALKS, top - i *
    BLOCK_WALKS).  The pool of w walks is the first w walks of those draws,
    so each pool holds w iid walks and contains every smaller one.  Besides
    ``counts``, its (2n) tally of cells parity * n + vertex, it keeps only
    the cells drawn but not yet added, fewer than BLOCK_WALKS.
    steps_sampled counts the steps drawn; they never exceed top walks'
    worth.  The caps of ``run_walks`` apply to the walks drawn.
    """

    def __init__(self, g: WeightedGraph, start: int, length: int, seed: int, top: int):
        self.g = g
        self.start = _start_vertex(g, start)
        self.length = length
        self.seed = seed
        self.walks = 0
        self.steps_sampled = 0
        self.counts = np.zeros(2 * g.n, dtype=np.int64)
        self._top = top
        self._left = np.empty(0, dtype=np.int64)  # drawn, not yet added; a copy, never a view

    def extend_to(self, walks: int) -> np.ndarray:
        """Grow the pool to `walks`, at most top, counting each block's cells
        as it is drawn, and return the added cells of the pool's last block,
        at most BLOCK_WALKS, in walk order; a no-op at or below its size."""
        if walks <= self.walks:
            return self._left[:0]
        if walks > self._top:
            raise InvalidInputError(f"pool size {walks} is not planned: "
                                    f"the pool holds at most {self._top} walks")
        drawn = min(-(-walks // BLOCK_WALKS) * BLOCK_WALKS, self._top)
        WalkConfig(length=self.length, walks=drawn, seed=self.seed).validate()
        have = self.walks + self._left.size  # the walks drawn so far
        new = _blocks(drawn)[-(-have // BLOCK_WALKS):]  # the blocks not drawn yet
        self.steps_sampled += (drawn - have) * max(self.length, 1)
        cells, first = self._left, self.walks  # cells[0] is walk `first`
        for i, c in new:
            self.counts += np.bincount(cells, minlength=self.counts.size)  # all added
            first += cells.size
            cells = _run_block(self.g, self.start, self.length, self.seed, i, c)
        k = walks - first
        added, self._left, self.walks = cells[:k], cells[k:].copy(), walks
        self.counts += np.bincount(added, minlength=self.counts.size)
        return added


def exact_walk_distribution(g: WeightedGraph, start: int,
                            length: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact lazy-walk distribution p after length steps from start, and
    its parity-signed companion s: s(j) is the even-hop minus the odd-hop
    probability of being at j.

    Per step p <- p/2 + A(p/d)/2 and s <- s/2 - A(s/d)/2, as one more hop
    flips the parity.  A walk from a degree-0 vertex never moves.
    """
    start = _start_vertex(g, start)
    if not is_int(length):
        raise InvalidInputError(f"length {length!r} must be an integer of at least 0")
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
