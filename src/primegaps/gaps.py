"""Indexed prime-gap records over the ascending prime stream.

Each prime p_n (1-based index n) is paired with the gap to its successor,
a running record flag (is the gap strictly larger than every earlier gap?),
and the count of primes in the look-ahead window (p_n, p_n + n].  That count
is the margin the verifier compares against 1: the gap inequality
``gap(p_n) <= n`` holds exactly when the window contains at least one prime.

The engine is block-oriented: segments from the sieve extend a rolling
look-ahead buffer, and a contiguous run of indices is emitted as soon as
every window it needs is fully sieved.  `gap_stream` flattens blocks into
per-prime records.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
)

WITNESS_MIN_M = 3
WITNESS_MAX_M = 13


@dataclass(frozen=True, slots=True)
class GapRecord:
    """Gap data for one prime: index, prime, gap to next prime, record flag,
    and the look-ahead margin (count of primes in (p, p + n])."""

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
    """A contiguous run of emitted indices with parallel int64 arrays; for margins,
    `lo` primes lie in (p_0, p_0 + n_0] and `window` holds the next ones to p_last + n_last."""

    ns: np.ndarray
    ps: np.ndarray
    gaps: np.ndarray
    is_maximal: np.ndarray
    window: np.ndarray
    lo: int
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
        """Primes in (p_i, p_i + n_i] for every row, computed once on first access."""
        if self._margins is None:
            self._margins = self._margin(np.arange(len(self.ns)))
        return self._margins

    def _margin(self, i: int | np.ndarray):
        # lo + (window primes <= p_i + n_i) primes after p_0 are <= p_i + n_i; i are <= p_i
        return self.lo + np.searchsorted(self.window, self.ps[i] + self.ns[i], side="right") - i

    def record_at(self, i: int) -> GapRecord:
        return GapRecord(
            n=int(self.ns[i]),
            p=int(self.ps[i]),
            gap=int(self.gaps[i]),
            is_maximal=bool(self.is_maximal[i]),
            theorem1_margin=int(self._margin(i) if self._margins is None else self._margins[i]),
        )

    def iter_records(self) -> Iterator[GapRecord]:
        yield from map(
            GapRecord,
            self.ns.tolist(),
            self.ps.tolist(),
            self.gaps.tolist(),
            self.is_maximal.tolist(),
            self.margins.tolist(),
        )


class GapBlockStream:
    """Stream of `Block`s covering every prime p_n <= limit, in index order.

    An index n is emitted only once sieving covers p_n + n and the successor
    prime, so gaps and margins are exact at emission time.  With `cut_every`
    set, no block crosses a multiple of that index (checkpoint boundaries).
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
        # store[:tail] holds consecutive primes: store[i] is the prime with
        # index _first_n + i.  Positions before head are emitted; [head, tail)
        # is the live look-ahead.  Segments are appended in place, and the live part
        # moves only when a segment does not fit (see _extend).
        self._store = np.empty(0, dtype=np.int64)
        self._head = self._tail = 0
        self._first_n = seed.next_n
        self._sieved_hi = seed.last_p + 1  # everything below this has been sieved
        self._gap_max = seed.gap_max
        _check_segment_size(segment_size)
        # every target p + n and successor lies below 2 * limit: a longer window is waste
        self._feed = SegmentFeed(self._sieved_hi, min(segment_size, limit))

    @property
    def gap_max(self) -> int:
        """Largest gap seen among emitted indices (plus any seeded history)."""
        return self._gap_max

    def _extend(self) -> None:
        """Sieve one more segment and append its primes to the store.

        When they do not fit, the live part moves to the front of the store.
        The store is reused while it holds at least 1.25 times the live part
        plus the new primes, and is otherwise reallocated at 1.5 times that.
        A move thus leaves at least a fifth of the store free, so each prime
        is copied O(1) times amortised (about twice on the way to 4.4e8), and
        the spare room stays within half the look-ahead plus one segment.
        """
        _, hi, primes = self._feed.next_segment()
        head, tail, k = self._head, self._tail, len(primes)
        if tail + k > len(self._store):
            live = tail - head
            if 4 * len(self._store) >= 5 * (live + k):
                self._store[:live] = self._store[head:tail]  # overlap-safe in numpy
            else:
                store = np.empty(3 * (live + k) // 2, dtype=np.int64)
                store[:live] = self._store[head:tail]
                self._store = store
            self._first_n += head
            self._head, self._tail = 0, live
        self._store[self._tail : self._tail + k] = primes
        self._tail += k
        self._sieved_hi = hi

    def _ready_run(self) -> int:
        """Length of the emittable run at the cursor; 0 means exhausted.

        Extends the store until either the prime at the cursor exceeds the
        limit (exhausted) or at least one index is emittable: p <= limit, its
        window p + n fully sieved and its successor prime present.  Both p
        and p + n increase with n, so the emittable positions are a prefix
        of the live part, found by binary search.
        """
        while True:
            store, head, tail = self._store, self._head, self._tail
            if head < tail and store[head] > self.limit:
                return 0
            limit, bound = self.limit, self._sieved_hi - self._first_n
            run = bisect_left(
                range(head, tail - 1),
                True,
                key=lambda i: bool(store[i] > limit or store[i] + i >= bound),
            )
            if run:
                return run
            self._extend()

    def _take(self, count: int) -> Block:
        """Emit `count` indices starting at the cursor as one Block."""
        i0, i1 = self._head, self._head + count
        store = self._store
        ps = store[i0:i1].copy()  # later moves overwrite the store
        ns = np.arange(self._first_n + i0, self._first_n + i1, dtype=np.int64)
        gaps = store[i0 + 1 : i1 + 1] - ps
        # Every prime up to the last target p + n is in the store.  The block keeps
        # a copy of those beyond the first target (later moves overwrite the store).
        after = store[i0 + 1 : self._tail]
        lo = int(np.searchsorted(after, store[i0] + ns[0], side="right"))
        hi = int(np.searchsorted(after, store[i1 - 1] + ns[-1], side="right"))
        # Only gaps above the record so far can set one; the first of them does.
        is_maximal = gaps > self._gap_max
        above = gaps[is_maximal]
        if len(above):
            running = np.maximum.accumulate(above)
            is_maximal[np.flatnonzero(is_maximal)[1:]] = above[1:] > running[:-1]
            self._gap_max = int(running[-1])
        self._head = i1
        return Block(ns, ps, gaps, is_maximal, window=after[lo:hi].copy(), lo=lo)

    def blocks(self) -> Iterator[Block]:
        """Yield blocks in order until every prime <= limit has been emitted."""
        while True:
            run = self._ready_run()
            if run == 0:
                return
            while run:
                take = run
                if self.cut_every:
                    first_n = self._first_n + self._head
                    room = self.cut_every - (first_n - 1) % self.cut_every
                    take = min(take, room)
                yield self._take(take)
                run -= take


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
