"""Indexed prime-gap records over the ascending prime stream.

Each prime p_n (1-based index n) is paired with the gap to its successor,
a running record flag (is the gap strictly larger than every earlier gap?),
and the theorem-1 margin pi(p_n + n) - n, the count of primes in
(p_n, p_n + n].  The gap inequality ``gap(p_n) <= n`` holds exactly when
that margin is at least 1, so checks decide it on the gap alone.

The engine is block-oriented: each window from the sieve, plus the last
prime of the window before it, yields the rows whose successor it holds.
Every block is read off the window's composite flags (row count, ends,
record gaps), a checkpoint cut splits those flags, and a block's columns
are built only when something reads them.  The stream keeps no primes
beyond that window, so a block's margins are computed on demand
(`Block.margins`, by `prime_pi_at`), and a verification run reads the few
it stores where its stream passes p + n.  `gap_stream` flattens blocks
into per-prime records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    MAX_LIMIT,
    SegmentFeed,
    _check_segment_size,
    flag_primes,
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


class Block:
    """A contiguous run of indices first_n..last_n: for each, the prime p_n,
    the gap to p_(n+1) and the record flag.

    A block always knows its ends (next_p = p_(last_n + 1) closes the last
    gap), its record rows `records` as (n, p, gap), and `gap_bound`, which
    no gap of the block exceeds: for a stream block the record after it,
    for a block of given columns, `Block(ns, ps, gaps, is_maximal)`, its
    largest gap.  The stream builds the columns ns, ps, gaps and is_maximal
    only when one is read, and `margins` likewise.
    """

    __slots__ = ("first_n", "last_n", "first_p", "last_p", "next_p", "gap_bound", "records",
                 "_source", "_columns", "_margins")

    def __init__(self, ns, ps, gaps, is_maximal) -> None:
        rows = np.flatnonzero(is_maximal)
        records = zip(ns[rows].tolist(), ps[rows].tolist(), gaps[rows].tolist())
        self._set(int(ns[0]), int(ns[-1]), int(ps[0]), int(ps[-1]), int(ps[-1] + gaps[-1]),
                  int(gaps.max()), list(records))
        self._source, self._columns = None, (ns, ps, gaps, is_maximal)

    @classmethod
    def _of_window(cls, ends, gap_bound, records, pending, first, flags) -> Block:
        """The rows of a window's primes: `pending`, if not None, then the odd
        primes first + 2k that `flags` leaves clear, the last of them closing
        the last gap; `ends` is (first_n, last_n, first_p, last_p, next_p)."""
        block = cls.__new__(cls)
        block._set(*ends, gap_bound, records)
        block._source, block._columns = (pending, first, flags), None
        return block

    def _set(self, first_n, last_n, first_p, last_p, next_p, gap_bound, records) -> None:
        self.first_n, self.last_n, self.first_p, self.last_p = first_n, last_n, first_p, last_p
        self.next_p, self.gap_bound, self.records = next_p, gap_bound, records
        self._margins = None

    def _cols(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._columns is None:
            pending, first, flags = self._source
            run = np.empty(len(self) + 1, dtype=np.int64)
            run[pending is not None :] = flag_primes(first, flags)
            self._source = flags = None  # the columns hold the window's primes from here on
            if pending is not None:
                run[0] = pending
            is_maximal = np.zeros(len(self), dtype=bool)
            is_maximal[[n - self.first_n for n, _, _ in self.records]] = True
            ns = np.arange(self.first_n, self.last_n + 1, dtype=np.int64)
            self._columns = ns, run[:-1], np.diff(run), is_maximal
        return self._columns

    ns = property(lambda self: self._cols()[0])
    ps = property(lambda self: self._cols()[1])
    gaps = property(lambda self: self._cols()[2])
    is_maximal = property(lambda self: self._cols()[3])

    def __len__(self) -> int:
        return self.last_n - self.first_n + 1

    @property
    def margins(self) -> np.ndarray:
        """pi(p_i + n_i) - n_i for every row, computed once on first access (each
        target p_i + n_i must be at most sieve.PRIME_PI_MAX)."""
        return self.margins_from(None)

    def margins_from(self, known: tuple[int, int] | None) -> np.ndarray:
        """`margins`, counted from `known` = (t, pi(t)) for a t at most the
        first target p_(first_n) + first_n when it is given (see prime_pi_at)."""
        if self._margins is None:
            self._margins = prime_pi_at(self.ps + self.ns, known) - self.ns
        return self._margins

    def iter_records(self) -> Iterator[GapRecord]:
        cols = self.ns, self.ps, self.gaps, self.is_maximal, self.margins
        yield from map(GapRecord, *(col.tolist() for col in cols))


def _clear_from(flags: np.ndarray, i: int, step: int, skip: int = 0) -> int:
    """The index of the first clear flag (a prime) among i, i + step, i + 2*step,
    ... (step = 1 or -1) after `skip` clear ones, or -1 past either end.  Reads
    a few entries at a time."""
    size = 64
    while 0 <= i < len(flags):
        chunk = flags[i : i + size] if step > 0 else flags[max(0, i - size + 1) : i + 1][::-1]
        clear = len(chunk) - int(np.count_nonzero(chunk))
        if clear > skip:
            return i + step * int(np.flatnonzero(~chunk)[skip])
        skip -= clear
        i += step * size
        size = min(4 * size, 1 << 16)
    return -1


_FULL_WORD = np.uint64(0x0101010101010101)  # eight set bool flags read as one uint64


def _words_above(record: int) -> int:
    """Whole words of flags that every gap above `record` covers: such a gap
    spans at least record // 2 set flags, which cover (record // 2 - 7) // 8."""
    return (record // 2 - 7) // 8


def _long_gaps(flags: np.ndarray, words: int) -> list[tuple[int, int]]:
    """(i, j) for each pair of consecutive primes flags[i], flags[j] whose
    composites between them cover `words` (>= 1) whole aligned uint64 words
    of the flags.  A run of c set flags covers at least (c - 7) // 8 of them.
    """
    runs = flags[: len(flags) // 8 * 8].view(np.uint64) == _FULL_WORD
    span = 1  # runs[k]: words k .. k + span - 1 are all full
    while span < words:
        step = min(span, words - span)
        runs = runs[:-step] & runs[step:]
        span += step
    pairs = {}
    for k in np.flatnonzero(runs).tolist():
        i = _clear_from(flags, 8 * k - 1, -1)
        j = _clear_from(flags, 8 * (k + words), 1)
        if i >= 0 and j >= 0:  # else the gap reaches past an end of the window
            pairs[i] = j
    return sorted(pairs.items())


class GapBlockStream:
    """Stream of `Block`s covering every prime p_n <= limit, in index order.

    A row is emitted as soon as its successor prime is sieved, so each
    window's primes, with the last prime of the window before, give the
    rows of that window and nothing more is kept.  The stream stops at the
    first prime past its limit.  With `cut_every` set, no block crosses a
    multiple of that index (checkpoint boundaries).

    Every block is read off its window's composite flags: the row count,
    ends and records (a record gap is a long run of set flags), and its
    columns are built only if something reads them.  A cut after index m
    splits the flags at p_(m+1), which closes one block and opens the next.
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
        # 2 is no odd flag: a stream from the start holds it as its first row's prime
        self._pending = 2 if seed.last_p == 1 else None
        _check_segment_size(segment_size)
        # the successor of the last prime <= limit lies below 2 * limit: a longer window is waste
        self._feed = SegmentFeed(seed.last_p + 1, min(segment_size, limit))

    def _flag_block(self, first: int, flags: np.ndarray, rows: int) -> Block:
        """The Block of `rows` rows: the pending prime, if any, then the primes
        `flags` leaves clear, the last of which only closes the last gap."""
        pending, n0, record = self._pending, self._next_n, self._gap_max
        q1 = first + 2 * _clear_from(flags, 0, 1)
        last = _clear_from(flags, len(flags) - 1, -1)
        if pending is not None and rows == 1:
            last_p = pending
        else:
            last_p = first + 2 * _clear_from(flags, last, -1, 1)
        records = []
        if pending is not None and q1 - pending > record:
            record = q1 - pending
            records.append((n0, pending, record))
        words = _words_above(record)
        if words < 1:  # a gap above the record may cover no whole word: every pair is a candidate
            clear = np.flatnonzero(~flags)
            i, j = clear[:-1], clear[1:]
        else:
            i, j = np.array(_long_gaps(flags, words), dtype=np.int64).reshape(-1, 2).T
        gaps = j - i
        gaps *= 2  # in place: the first window has a candidate per prime
        # a record gap is above the record so far and above every candidate before it
        is_record = gaps > record
        is_record[1:] &= gaps[1:] > np.maximum.accumulate(gaps)[:-1]
        n, at = n0 + (pending is not None), 0  # n: the index of the first prime flagged from `at`
        for k in np.flatnonzero(is_record).tolist():
            n += int(i[k]) - at - int(np.count_nonzero(flags[at : i[k]]))
            at = int(i[k])
            records.append((n, first + 2 * at, int(gaps[k])))
        ends = (n0, n0 + rows - 1, q1 if pending is None else pending, last_p, first + 2 * last)
        self._gap_max = int(gaps.max(initial=record))
        self._next_n += rows
        self._pending = ends[-1]
        return Block._of_window(ends, self._gap_max, records, pending, first, flags)

    def blocks(self) -> Iterator[Block]:
        """Yield blocks in order until every prime <= limit has been emitted."""
        cut = self.cut_every
        while True:
            lo, hi, flags = self._feed.next_flags()
            first = lo | 1
            beyond = max(0, (self.limit - first) // 2 + 1)  # flags[beyond:] lie past the limit
            stop = _clear_from(flags, beyond, 1)
            if stop >= 0:  # the first prime past the limit: the last successor needed
                flags = flags[: stop + 1]
            primes = len(flags) - int(np.count_nonzero(flags))
            rows = primes - (self._pending is None)  # rows whose successor is in the window
            if rows < 1:
                if primes:
                    self._pending = first + 2 * _clear_from(flags, 0, 1)
            else:
                while cut and (self._next_n - 1) % cut + rows > cut:
                    head = cut - (self._next_n - 1) % cut  # rows up to the multiple m
                    at = _clear_from(flags, 0, 1, head - (self._pending is not None))  # p_(m+1)
                    yield self._flag_block(first, flags[: at + 1], head)
                    self._pending = None  # p_(m+1) opens the rest as its first row
                    first, flags, rows = first + 2 * at, flags[at:], rows - head
                block = self._flag_block(first, flags, rows)
                del flags  # the block alone holds the window, until it builds its columns
                yield block
            if stop >= 0:
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
