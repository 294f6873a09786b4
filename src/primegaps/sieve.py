"""Segmented sieve of Eratosthenes over 64-bit ranges.

A window is sieved into one composite flag per odd integer (`sieve_flags`),
and prime sequences are read off them as ascending ``numpy`` arrays of dtype
int64.  The prime count pi(x) is `prime_pi` (Lucy_Hedgehog's method), and a
trial-division primality test (`is_prime_oracle`) serves spot checks; neither
shares code with the sieve path.  `prime_pi_at` counts at many ascending
targets: from a known count or `prime_pi` at the first, the sieve past it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

# A default window's flags (1 MiB) fit a 2 MiB L2 cache (SHORT_WINDOW: see SegmentFeed).
DEFAULT_SEGMENT_SIZE = 1 << 21
SHORT_WINDOW = 1 << 16

# A window holds one bool per odd integer, so this cap keeps it within 512 MiB.
MAX_SEGMENT_SIZE = 1 << 30

# Keep every intermediate quantity (including margin targets p + pi(p))
# comfortably inside signed 64-bit arithmetic.
MAX_LIMIT = 1 << 62

# prime_pi holds about 3*sqrt(x) int64 counts plus temporaries of that size:
# 152 MB at 1e13, so about 1.6 GB at this x.  It refuses any larger x before
# allocating.
PRIME_PI_MAX = 10**15

THREADS_ENV_VAR = "PRIMEGAP_THREADS"

# Odd base primes below this strike a window by slices, larger ones by scatters.
SMALL_PRIME_CUTOFF = 1 << 14
RANK_CUTOFF = 1 << 15


def _ceil_sqrt(num: int) -> int:
    root = math.isqrt(num)
    return root if root * root == num else root + 1


def _check_segment_size(size: int) -> None:
    if not 1 <= size <= MAX_SEGMENT_SIZE:
        raise ValueError(f"segment_size must be positive and <= {MAX_SEGMENT_SIZE}, got {size}")


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

    def covers(self, hi: int) -> bool:
        """True if these primes suffice to sieve a segment ending at `hi` (exclusive)."""
        return self.limit >= _ceil_sqrt(max(hi - 1, 1))


# The odd multiples of 3, 5, 7, 11 and 13 repeat every 15015 odd integers:
# _PATTERN[j] is True when 2j + 1 is one of them.  Two periods, so that any
# rotation of one period is a single slice.
_PRESIEVED = (3, 5, 7, 11, 13)
_PERIOD = math.prod(_PRESIEVED)
_PATTERN = np.zeros(2 * _PERIOD, dtype=bool)
for _p in _PRESIEVED:
    _PATTERN[_p // 2 :: _p] = True
del _p
_FIRST_STRUCK = len(_PRESIEVED) + 1  # index of 17 in a BasePrimes array


def sieve_flags(lo: int, hi: int, base: BasePrimes) -> np.ndarray:
    """The composite flags of the odd integers in [lo, hi).

    ``flags[k]`` stands for ``(lo | 1) + 2k`` and is True when that integer
    is composite.  A window starts as a copy of the pattern of odd multiples
    of 3..13, from which those primes themselves are cleared.  Each base
    prime p >= 17 with p*p < hi then strikes its odd multiples from
    max(p*p, lo) on, a stride of p in that index.  Primes below
    SMALL_PRIME_CUTOFF strike by one slice each; the larger ones hit the
    window a few times at most.  Those below RANK_CUTOFF strike all their hits
    by one scatter, the rest by one scatter per hit rank (32 in a default window).

    Raises ValueError if lo < 2, the window is empty, or `base` does not
    reach ceil(sqrt(hi - 1)).
    """
    if lo < 2:
        raise ValueError(f"segment must start at 2 or above, got lo={lo}")
    if hi <= lo:
        raise ValueError(f"segment is empty: [{lo}, {hi})")
    need = _ceil_sqrt(hi - 1)
    if base.limit < need:
        raise ValueError(
            f"segment [{lo}, {hi}) needs base primes up to {need}, "
            f"but base covers only {base.limit}"
        )
    first = lo | 1
    n = (hi - first + 1) // 2
    composite = np.empty(n, dtype=bool)
    filled = min(n, _PERIOD)
    offset = (first >> 1) % _PERIOD
    composite[:filled] = _PATTERN[offset : offset + filled]
    while filled < n:  # filled is a whole number of periods: copy them on
        more = min(filled, n - filled)
        composite[filled : filled + more] = composite[:more]
        filled += more
    for p in _PRESIEVED:
        if first <= p < hi:
            composite[(p - first) >> 1] = False
    top = np.searchsorted(base.primes, math.isqrt(hi - 1), side="right")
    odd = base.primes[_FIRST_STRUCK:top]
    start = np.maximum(odd * odd, (lo + odd - 1) // odd * odd)  # first multiple >= max(p*p, lo)
    start += odd * (1 - (start & 1))  # an even multiple steps on to the next, odd one
    idx = (start - first) >> 1
    cut, far = np.searchsorted(odd, (SMALL_PRIME_CUTOFF, RANK_CUTOFF)).tolist()
    for p, i in zip(odd[:cut].tolist(), idx[:cut].tolist()):
        composite[i::p] = True
    p, i = odd[cut:far], idx[cut:far]
    hits = np.maximum(n - i + p - 1, 0) // p
    at = np.arange(hits.sum()) - np.repeat(np.cumsum(hits) - hits, hits)  # each hit's rank
    at *= np.repeat(p, hits)  # in place, so that three index arrays at most are live
    composite[at + np.repeat(i, hits)] = True
    p, i = odd[far:], idx[far:]
    while (hit := i < n).any():
        p, i = p[hit], i[hit]
        composite[i] = True
        i += p
    return composite


def flag_primes(first: int, flags: np.ndarray) -> np.ndarray:
    """The primes among the odd integers first, first + 2, ... that `flags` marks, as int64."""
    primes = np.flatnonzero(~flags).astype(np.int64, copy=False)
    primes *= 2  # in place: a window's worth of int64 is held once
    primes += first
    return primes


def sieve_segment(lo: int, hi: int, base: BasePrimes) -> np.ndarray:
    """The primes in [lo, hi), ascending, as int64: `sieve_flags`'s odd primes,
    with 2 added when lo = 2.  Raises ValueError as `sieve_flags` does."""
    primes = flag_primes(lo | 1, sieve_flags(lo, hi, base))
    return np.concatenate(([2], primes)) if lo == 2 else primes


def primes_up_to(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """All primes <= limit, ascending, sieved in windows of `segment_size` from 2.

    `limit` must be at least 2.  Tests use it as the sieve's reference count,
    independent of `prime_pi`.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2 (no primes below 2), got {limit}")
    if limit > MAX_LIMIT:
        raise OverflowError(f"limit {limit} exceeds supported maximum {MAX_LIMIT}")
    _check_segment_size(segment_size)
    base = BasePrimes.up_to(_ceil_sqrt(limit))
    return np.concatenate([
        sieve_segment(lo, min(lo + segment_size, limit + 1), base)
        for lo in range(2, limit + 1, segment_size)
    ])


def prime_pi(x: int) -> int:
    """pi(x) by Lucy_Hedgehog's method in O(x^(3/4)) time and O(sqrt(x)) memory.

    S(v) counts the integers in [2, v] not yet struck; it starts at v - 1
    and is needed only at the values v = x // i.  Striking the multiples of
    each prime p <= sqrt(x) lowers S(v), for every v >= p*p, by
    S(v // p) - S(p - 1), the survivors in [p, v // p].  Afterwards
    S(x) = pi(x).  ``small[v]`` holds S(v) for v <= r = isqrt(x) and
    ``large[i]`` holds S(x // i).  Once the primes up to isqrt(r) have
    struck, small[v] = pi(v), so the primes in (isqrt(r), c], c the integer
    cube root of x, are read off it and strike ``large`` alone.  Then for
    each prime p in (c, r], large[p] = S(x // p) is final, as only primes
    up to sqrt(x / p) < x^(1/3) strike it, and p strikes large[i] only for
    i <= x / p^2 < x^(1/3): of the entries still read, it lowers large[1]
    alone, by large[p] - small[p - 1].  So these primes, the P2 term of
    Meissel-Lehmer (Lagarias, Miller & Odlyzko, Math. Comp. 44, 1985),
    come off large[1] in one sum.  Independent of the segmented sieve.
    Raises OverflowError for x > PRIME_PI_MAX, before allocating anything.
    """
    if x < 2:
        return 0
    if x > PRIME_PI_MAX:
        raise OverflowError(f"pi(x) is computed for x <= {PRIME_PI_MAX}, got {x}")
    r, s, c = math.isqrt(x), math.isqrt(math.isqrt(x)), round(x ** (1 / 3))
    c -= c**3 > x  # the floor of the cube root: the float root errs by far less than 1/2
    q = x // np.arange(1, r + 1, dtype=np.int64)  # q[i - 1] = x // i
    small = np.arange(-1, r, dtype=np.int64)
    large = np.concatenate(([0], q - 1))  # large[0] is unused

    def strike_large(p: int) -> int:
        # large[i] for i <= x // p^2, i.e. x // i >= p^2.  For i*p <= r the
        # value S(x // (i*p)) sits in large, beyond that in small.
        below, m = int(small[p - 1]), min(r, x // (p * p))
        k = min(m, r // p)
        large[1 : k + 1] -= large[p : k * p + 1 : p] - below
        large[k + 1 : m + 1] -= small[q[k:m] // p] - below
        return below

    for p in range(2, s + 1):
        if small[p] == small[p - 1]:
            continue  # p was struck: composite
        below = strike_large(p)
        small[p * p :] -= small[np.arange(p * p, r + 1, dtype=np.int64) // p] - below
    for p in (s + 1 + np.flatnonzero(np.diff(small[s : c + 1]))).tolist():
        strike_large(p)
    top = c + 1 + np.flatnonzero(np.diff(small[c:]))  # the primes in (c, r]
    return int(large[1] - (large[top] - small[top - 1]).sum())


def prime_pi_at(targets: np.ndarray, known: tuple[int, int] | None = None) -> np.ndarray:
    """pi(t) for each of the ascending int64 `targets`, as int64.

    The count starts from `known` = (t0, pi(t0)) for a t0 at most the first
    target, or else from `prime_pi` at the first target, and the span up to
    the last target is sieved one default window at a time.  Raises
    OverflowError for a target past PRIME_PI_MAX.
    """
    first, last = int(targets[0]), int(targets[-1])
    if last > PRIME_PI_MAX:
        raise OverflowError(f"pi(x) is computed for x <= {PRIME_PI_MAX}, got {last}")
    t0, pi0 = known if known is not None else (first, prime_pi(first))
    pis = np.full(len(targets), pi0, dtype=np.int64)
    base = BasePrimes.up_to(max(2, _ceil_sqrt(last)))
    for lo in range(t0 + 1, last + 1, DEFAULT_SEGMENT_SIZE):
        hi = min(lo + DEFAULT_SEGMENT_SIZE, last + 1)
        primes = sieve_segment(lo, hi, base)
        a, b = np.searchsorted(targets, (lo, hi)).tolist()  # targets[a:b] lie in [lo, hi)
        pis[a:b] += np.searchsorted(primes, targets[a:b], side="right")
        pis[b:] += len(primes)
    return pis


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
    """Workers of a verification run: the CPUs this process may run on, unless
    PRIMEGAP_THREADS sets it.

    A run cuts its range into at most this many shard processes, each of
    which sieves on one thread.
    """
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is not None:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {n}")
        return n
    if hasattr(os, "sched_getaffinity"):  # a taskset or cpuset may allow fewer than cpu_count
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class SegmentFeed:
    """Ordered windows [lo, hi) covering [start, ...) upward, each given as
    its primes (`next_segment`) or its composite flags (`next_flags`), each
    `segment_size` long, or SHORT_WINDOW at the default size below 2 * SHORT_WINDOW.

    Each window is sieved when it is asked for; base primes grow on demand
    as windows climb.
    """

    def __init__(
        self, start: int = 2, segment_size: int = DEFAULT_SEGMENT_SIZE, threads: int = 1
    ) -> None:
        if threads != 1:  # ROADMAP item 6 removes this keyword along with bench/worker.py's use
            raise ValueError(f"a SegmentFeed sieves on one thread, got threads={threads}")
        if start < 2:
            raise ValueError(f"feed must start at 2 or above, got {start}")
        _check_segment_size(segment_size)
        self.segment_size = segment_size
        self._next_lo = start
        self._base = BasePrimes.up_to(max(2, _ceil_sqrt(start + segment_size)))

    def _advance(self) -> tuple[int, int]:
        """The next window's [lo, hi), with base primes grown to cover it."""
        lo = self._next_lo
        short = self.segment_size == DEFAULT_SEGMENT_SIZE and lo < 2 * SHORT_WINDOW
        hi = lo + (SHORT_WINDOW if short else self.segment_size)
        if hi > MAX_LIMIT:
            raise OverflowError(f"segment end {hi} exceeds supported maximum {MAX_LIMIT}")
        if not self._base.covers(hi):
            self._base = BasePrimes.up_to(max(self._base.limit * 2, _ceil_sqrt(hi - 1)))
        self._next_lo = hi
        return lo, hi

    def next_segment(self) -> tuple[int, int, np.ndarray]:
        """Sieve the next window; returns (lo, hi, primes)."""
        lo, hi = self._advance()
        return lo, hi, sieve_segment(lo, hi, self._base)

    def next_flags(self) -> tuple[int, int, np.ndarray]:
        """Sieve the next window; returns (lo, hi, composite flags) as `sieve_flags` gives them."""
        lo, hi = self._advance()
        return lo, hi, sieve_flags(lo, hi, self._base)

    def __enter__(self) -> SegmentFeed:
        return self

    def __exit__(self, *exc) -> None:
        pass
