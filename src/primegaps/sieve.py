"""Segmented sieve of Eratosthenes over 64-bit ranges.

Prime sequences are produced as ascending ``numpy`` arrays of dtype int64.
A trial-division primality test (`is_prime_oracle`) is provided for spot
checks and as an independent reference in tests; it shares no code with the
sieve path.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

DEFAULT_SEGMENT_SIZE = 1 << 20

# Keep every intermediate quantity (including p + pi(p) look-ahead targets)
# comfortably inside signed 64-bit arithmetic.
MAX_LIMIT = 1 << 62

THREADS_ENV_VAR = "PRIMEGAP_THREADS"


def _ceil_sqrt(num: int) -> int:
    root = math.isqrt(num)
    return root if root * root == num else root + 1


def _simple_sieve(limit: int) -> np.ndarray:
    """Dense sieve used only to bootstrap base primes (limit ~ sqrt(range))."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


@dataclass(frozen=True)
class BasePrimes:
    """Primes up to `limit`, enough to sieve any segment with hi - 1 <= limit**2."""

    limit: int
    primes: np.ndarray = field(repr=False)

    @classmethod
    def up_to(cls, limit: int) -> BasePrimes:
        if limit < 2:
            raise ValueError(f"base prime limit must be >= 2, got {limit}")
        return cls(limit=limit, primes=_simple_sieve(limit))

    @cached_property
    def as_ints(self) -> tuple[int, ...]:
        """Base primes as plain ints (avoids int64 overflow when squaring)."""
        return tuple(int(p) for p in self.primes)

    def covers(self, hi: int) -> bool:
        """True if these primes suffice to sieve a segment ending at `hi` (exclusive)."""
        return self.limit >= _ceil_sqrt(max(hi - 1, 1))


@dataclass
class Segment:
    """Half-open window [lo, hi) with one composite mark per integer.

    After sieving, ``composite_marks[k]`` is True iff ``lo + k`` is composite.
    """

    lo: int
    hi: int
    composite_marks: np.ndarray = field(default=None, repr=False)
    max_size: int = field(default=DEFAULT_SEGMENT_SIZE, repr=False)

    def __post_init__(self) -> None:
        if self.lo < 2:
            raise ValueError(f"segment must start at 2 or above, got lo={self.lo}")
        if self.hi <= self.lo:
            raise ValueError(f"segment is empty: [{self.lo}, {self.hi})")
        if self.hi - self.lo > self.max_size:
            raise ValueError(
                f"segment [{self.lo}, {self.hi}) exceeds configured size {self.max_size}"
            )
        if self.composite_marks is None:
            self.composite_marks = np.zeros(self.hi - self.lo, dtype=bool)
        elif len(self.composite_marks) != self.hi - self.lo:
            raise ValueError("composite_marks length must equal hi - lo")


def sieve_segment(segment: Segment, base: BasePrimes) -> np.ndarray:
    """Mark composites in `segment` and return the primes in [lo, hi), ascending.

    Raises ValueError if `base` does not reach ceil(sqrt(hi - 1)).
    """
    lo, hi = segment.lo, segment.hi
    need = _ceil_sqrt(hi - 1)
    if base.limit < need:
        raise ValueError(
            f"segment [{lo}, {hi}) needs base primes up to {need}, "
            f"but base covers only {base.limit}"
        )
    marks = segment.composite_marks
    marks[:] = False
    for p in base.as_ints:
        start = p * p
        if start >= hi:
            break
        if start < lo:
            start = ((lo + p - 1) // p) * p
        marks[start - lo :: p] = True
    return (lo + np.flatnonzero(~marks)).astype(np.int64)


def _windows_up_to(limit: int, segment_size: int) -> Iterator[np.ndarray]:
    """The primes of each window of a single-threaded feed, cut at limit."""
    feed = SegmentFeed(segment_size=segment_size, threads=1, limit=limit)
    hi = 2
    while hi <= limit:
        _, hi, primes = feed.next_segment()
        yield primes


def primes_up_to(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """All primes <= limit, ascending. `limit` must be at least 2."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2 (no primes below 2), got {limit}")
    if limit > MAX_LIMIT:
        raise OverflowError(f"limit {limit} exceeds supported maximum {MAX_LIMIT}")
    if segment_size < 1:
        raise ValueError(f"segment_size must be positive, got {segment_size}")
    return np.concatenate(list(_windows_up_to(limit, segment_size)))


def prime_count(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> int:
    """pi(limit): the number of primes <= limit (0 for limit < 2)."""
    if segment_size < 1:
        raise ValueError(f"segment_size must be positive, got {segment_size}")
    if limit < 2:
        return 0
    if limit > MAX_LIMIT:
        raise OverflowError(f"limit {limit} exceeds supported maximum {MAX_LIMIT}")
    return sum(map(len, _windows_up_to(limit, segment_size)))


def is_prime_oracle(num: int) -> bool:
    """Trial-division primality test: divisors searched in [2, isqrt(num)].

    Deliberately simple and independent of the sieve; O(sqrt(num)) per call.
    """
    if num < 2:
        raise ValueError(f"primality is tested for integers >= 2, got {num}")
    if num > MAX_LIMIT:
        raise OverflowError(f"{num} exceeds supported maximum {MAX_LIMIT}")
    if num < 4:
        return True
    if num % 2 == 0:
        return False
    for d in range(3, math.isqrt(num) + 1, 2):
        if num % d == 0:
            return False
    return True


def next_prime(p: int) -> int:
    """Smallest prime strictly greater than the prime `p`."""
    if p == 2:
        return 3
    if p < 2 or p % 2 == 0 or not is_prime_oracle(p):
        raise ValueError(f"next_prime expects a prime, got {p}")
    q = p + 2
    while True:
        if q > MAX_LIMIT:
            raise OverflowError(f"next prime beyond {p} exceeds supported maximum")
        if is_prime_oracle(q):
            return q
        q += 2


def sieve_threads() -> int:
    """Worker count for segment prefetching; overridden by PRIMEGAP_THREADS."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is not None:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


class SegmentFeed:
    """Ordered stream of (lo, hi, primes) triples covering [start, ...) upward.

    Segments are sieved ahead on a small thread pool when more than one
    worker is configured; hand-off order is always ascending regardless of
    completion order. Base primes grow on demand as segments climb.  With
    `limit` set, the window that reaches it ends at limit + 1 and is the last.
    """

    def __init__(
        self,
        start: int = 2,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        threads: int | None = None,
        limit: int | None = None,
    ) -> None:
        if start < 2:
            raise ValueError(f"feed must start at 2 or above, got {start}")
        if segment_size < 1:
            raise ValueError(f"segment_size must be positive, got {segment_size}")
        self.segment_size = segment_size
        self.threads = sieve_threads() if threads is None else max(1, threads)
        self._next_lo = start
        self._limit = limit
        self._base = BasePrimes.up_to(max(2, _ceil_sqrt(start + segment_size)))
        self._pool: ThreadPoolExecutor | None = None
        self._pending: deque = deque()
        if self.threads > 1:
            self._pool = ThreadPoolExecutor(max_workers=self.threads)

    def _ensure_base(self, hi: int) -> None:
        if not self._base.covers(hi):
            new_limit = max(self._base.limit * 2, _ceil_sqrt(hi - 1))
            self._base = BasePrimes.up_to(new_limit)

    def _sieve_window(self, lo: int, hi: int, base: BasePrimes) -> np.ndarray:
        return sieve_segment(Segment(lo=lo, hi=hi, max_size=self.segment_size), base)

    def _submit_next(self) -> None:
        lo = self._next_lo
        hi = lo + self.segment_size
        if self._limit is not None:
            hi = min(hi, self._limit + 1)
        elif hi > MAX_LIMIT:
            raise OverflowError(f"segment end {hi} exceeds supported maximum {MAX_LIMIT}")
        self._ensure_base(hi)
        base = self._base
        self._next_lo = hi
        if self._pool is None:
            self._pending.append((lo, hi, None))
        else:
            self._pending.append((lo, hi, self._pool.submit(self._sieve_window, lo, hi, base)))

    def next_segment(self) -> tuple[int, int, np.ndarray]:
        """Sieve (or collect) the next window; returns (lo, hi, primes)."""
        want_ahead = self.threads if self._pool is not None else 1
        while len(self._pending) < want_ahead:
            self._submit_next()
        lo, hi, fut = self._pending.popleft()
        primes = self._sieve_window(lo, hi, self._base) if fut is None else fut.result()
        return lo, hi, primes

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> SegmentFeed:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
