"""Indexed prime-gap records over the ascending prime stream.

Each prime p_n (1-based index n) is paired with the gap to its successor,
a running record flag (is the gap strictly larger than every earlier gap?),
and the theorem-1 margin pi(p_n + n) - n, the count of primes in
(p_n, p_n + n].  The gap inequality ``gap(p_n) <= n`` holds exactly when
that margin is at least 1, so checks decide it on the gap alone.

The engine is block-oriented: each window from the sieve, plus the last
prime of the window before it, yields the rows whose successor it holds.
The stream keeps no primes beyond that window, so a block's margins are
computed on demand (`Block.margins`, by `prime_pi_at`), and a verification
run reads the few it stores where its stream passes p + n.  `gap_stream`
flattens blocks into per-prime records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    MAX_LIMIT,
    SegmentFeed,
    _check_segment_size,
    is_prime_oracle,
    next_prime,
    prime_pi_at,
)

WITNESS_MIN_M = 3
WITNESS_MAX_M = 13


@dataclass(frozen=True, slots=True)
class GapRecord:
    """Gap data for one prime: index, prime, gap to next prime, record flag,
    and the theorem-1 margin (count of primes in (p, p + n])."""

    n: int
    p: int
    gap: int
    is_maximal: bool
    theorem1_margin: int


@dataclass(frozen=True, slots=True)
class GapWitness:
    """A prime whose following gap is at least `gap_lower_bound` (= m)."""

    m: int
    p: int
    gap: int
    gap_lower_bound: int


@dataclass(frozen=True, slots=True)
class _StreamSeed:
    """Where a stream starts: index next_n, whose predecessor is last_p =
    p_(next_n - 1), and the largest gap so far.  The default starts at n = 1."""

    next_n: int = 1
    last_p: int = 1
    gap_max: int = 0


@dataclass(eq=False, slots=True)
class Block:
    """A contiguous run of emitted indices with parallel int64 arrays."""

    ns: np.ndarray
    ps: np.ndarray
    gaps: np.ndarray
    is_maximal: np.ndarray
    _margins: np.ndarray | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.ns)

    @property
    def first_n(self) -> int:
        return int(self.ns[0])

    @property
    def last_n(self) -> int:
        return int(self.ns[-1])

    @property
    def last_p(self) -> int:
        return int(self.ps[-1])

    @property
    def margins(self) -> np.ndarray:
        """pi(p_i + n_i) - n_i for every row, computed once on first access (each
        target p_i + n_i must be at most sieve.PRIME_PI_MAX)."""
        if self._margins is None:
            self._margins = prime_pi_at(self.ps + self.ns) - self.ns
        return self._margins

    def iter_records(self) -> Iterator[GapRecord]:
        cols = self.ns, self.ps, self.gaps, self.is_maximal, self.margins
        yield from map(GapRecord, *(col.tolist() for col in cols))


class GapBlockStream:
    """Stream of `Block`s covering every prime p_n <= limit, in index order.

    A row is emitted as soon as its successor prime is sieved, so each
    window's primes, with the last prime of the window before, give the
    rows of that window and nothing more is kept.  The stream stops at the
    first prime past its limit.  With `cut_every` set, no block crosses a
    multiple of that index (checkpoint boundaries).
    """

    def __init__(
        self,
        limit: int,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        cut_every: int | None = None,
        seed: _StreamSeed = _StreamSeed(),
    ) -> None:
        if limit < 3:
            raise ValueError(f"limit must be >= 3 (need a prime and its successor), got {limit}")
        if limit > MAX_LIMIT:
            raise OverflowError(f"limit {limit} exceeds supported maximum {MAX_LIMIT}")
        if cut_every is not None and cut_every < 1:
            raise ValueError(f"cut_every must be positive, got {cut_every}")
        self.limit = limit
        self.cut_every = cut_every
        self._next_n = seed.next_n
        self._gap_max = seed.gap_max
        _check_segment_size(segment_size)
        # the successor of the last prime <= limit lies below 2 * limit: a longer window is waste
        self._feed = SegmentFeed(seed.last_p + 1, min(segment_size, limit))

    @property
    def gap_max(self) -> int:
        """Largest gap seen among emitted indices (plus any seeded history)."""
        return self._gap_max

    def _take(self, run: np.ndarray) -> Block:
        """One Block of the primes of `run` but the last, which only gives the final gap."""
        ps, gaps = run[:-1], np.diff(run)
        ns = np.arange(self._next_n, self._next_n + len(ps), dtype=np.int64)
        # Only gaps above the record so far can set one; the first of them does.
        is_maximal = gaps > self._gap_max
        above = gaps[is_maximal]
        if len(above):
            running = np.maximum.accumulate(above)
            is_maximal[np.flatnonzero(is_maximal)[1:]] = above[1:] > running[:-1]
            self._gap_max = int(running[-1])
        self._next_n += len(ps)
        return Block(ns, ps, gaps, is_maximal)

    def blocks(self) -> Iterator[Block]:
        """Yield blocks in order until every prime <= limit has been emitted."""
        run = np.empty(0, dtype=np.int64)
        while True:
            # the last prime so far, whose successor was not known, and the new window's
            run = np.concatenate((run[-1:], self._feed.next_segment()[2]))
            stop = int(np.searchsorted(run, self.limit, side="right"))  # primes <= limit
            i, ready = 0, min(stop, len(run) - 1)  # rows whose successor is in run
            while i < ready:
                j = ready
                if self.cut_every:
                    j = min(j, i + self.cut_every - (self._next_n - 1) % self.cut_every)
                yield self._take(run[i : j + 1])
                i = j
            if stop < len(run):
                return


def gap_stream(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> Iterator[GapRecord]:
    """One GapRecord per prime p_n <= limit, in ascending index order.

    The arguments are checked on the call, before the first record is asked for.
    """
    stream = GapBlockStream(limit, segment_size=segment_size)
    return (rec for block in stream.blocks() for rec in block.iter_records())


def gap_witness(m: int) -> GapWitness:
    """A prime followed by a gap of at least m, via the factorial construction.

    The integers m! + 2, ..., m! + m are all composite, so the largest prime
    p <= m! + 1 has next_prime(p) > m! + m, i.e. a gap of at least m.
    """
    if not WITNESS_MIN_M <= m <= WITNESS_MAX_M:
        raise ValueError(
            f"witness construction supports {WITNESS_MIN_M} <= m <= {WITNESS_MAX_M}, got {m}"
        )
    p = math.factorial(m) + 1
    while p > 2 and not is_prime_oracle(p):
        p -= 1
    gap = next_prime(p) - p
    assert gap >= m, f"factorial construction broke down at m={m}"
    return GapWitness(m=m, p=p, gap=gap, gap_lower_bound=m)
