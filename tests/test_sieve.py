import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import sieve
from primegaps.sieve import (
    DEFAULT_SEGMENT_SIZE,
    MAX_LIMIT,
    MAX_SEGMENT_SIZE,
    PRIME_PI_MAX,
    SMALL_PRIME_CUTOFF,
    BasePrimes,
    SegmentFeed,
    clear_below,
    is_prime_oracle,
    next_prime,
    prime_pi,
    prime_pi_at,
    primes_up_to,
    sieve_segment,
    sieve_threads,
)


def test_primes_up_to_small():
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(3).tolist() == [2, 3]
    assert primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_up_to_counts():
    assert len(primes_up_to(100)) == 25
    assert len(primes_up_to(1_000_000)) == 78498


def test_thirtieth_prime_is_113():
    ps = primes_up_to(113)
    assert len(ps) == 30
    assert int(ps[-1]) == 113


def test_primes_up_to_rejects_bad_limits():
    with pytest.raises(ValueError):
        primes_up_to(1)
    with pytest.raises(ValueError):
        primes_up_to(-5)
    with pytest.raises(OverflowError):
        primes_up_to(MAX_LIMIT + 1)
    with pytest.raises(ValueError):
        primes_up_to(100, segment_size=0)


def reference_sieve(lo, hi, base):
    """Reference: one slice per base prime over every integer of the window, evens included."""
    marks = np.zeros(hi - lo, dtype=bool)
    for p in base.primes.tolist():
        start = p * p
        if start >= hi:
            break
        if start < lo:
            start = ((lo + p - 1) // p) * p
        marks[start - lo :: p] = True
    return (lo + np.flatnonzero(~marks)).astype(np.int64)


def assert_kernel_matches_reference(lo, hi):
    base = BasePrimes.up_to(max(2, math.isqrt(hi) + 1))
    got = sieve_segment(lo, hi, base)
    assert got.dtype == np.int64
    assert got.tolist() == reference_sieve(lo, hi, base).tolist(), (lo, hi)


def test_segment_validation():
    base = BasePrimes.up_to(10)
    with pytest.raises(ValueError):
        sieve_segment(1, 5, base)
    with pytest.raises(ValueError):
        sieve_segment(10, 10, base)
    assert sieve_segment(2, 10, base).tolist() == [2, 3, 5, 7]


def test_sieve_segment_inner_window():
    base = BasePrimes.up_to(10)
    primes = sieve_segment(90, 100, base)
    assert primes.tolist() == [97]
    for k in range(90, 100):
        assert (k in primes) == is_prime_oracle(k)


def test_sieve_segment_empty_window():
    base = BasePrimes.up_to(10)
    assert sieve_segment(24, 29, base).tolist() == []


def test_sieve_segment_requires_sufficient_base():
    base = BasePrimes.up_to(5)
    with pytest.raises(ValueError, match="base primes up to 10"):
        sieve_segment(90, 100, base)


@pytest.mark.parametrize("scale", [10**6, 10**8, 10**10, 10**12])
def test_sieve_segment_matches_reference_on_seeded_windows(scale):
    # Above 1e10 some windows reach base primes past the cutoff that hit them
    # many times (full-size windows) or at most once (narrow ones).
    rng = np.random.default_rng(scale % 9973)
    for width in (DEFAULT_SEGMENT_SIZE, *rng.integers(1, 1 << 16, size=3).tolist()):
        lo = scale + int(rng.integers(0, 10**6))
        assert_kernel_matches_reference(lo, lo + width)


def test_sieve_segment_matches_reference_at_window_edges():
    # Every start below 14 (so 2, 3, ..., 13 at the window's left end), even
    # and odd starts, and windows of width 1.
    for lo in range(2, 14):
        for width in (1, 2, 3, 4, 50, 1000):
            assert_kernel_matches_reference(lo, lo + width)
    for lo in (10**8, 10**8 + 1, 10**12 + 38, 10**12 + 39):
        for width in (1, 2, 3, 1000):
            assert_kernel_matches_reference(lo, lo + width)


def test_sieve_segment_matches_reference_around_prime_squares():
    # A window that starts or ends at p*p - 1, p*p or p*p + 1 for primes that
    # strike by slice (below the cutoff) and by scatter (above it).
    below = [3, 5, 7, 11, 13, 8191, 16381, 16411, 32749]  # 32749: the largest prime below 2^15
    above = [32771, 32779, 65537, 999983]  # 32771: the smallest prime above 2^15
    assert max(below) < SMALL_PRIME_CUTOFF < min(above)
    for p in below + above:
        for edge in (p * p - 1, p * p, p * p + 1):
            for width in (1, 2, 777):
                assert_kernel_matches_reference(edge, edge + width)
                assert_kernel_matches_reference(max(2, edge - width), edge)


def test_presieved_windows_match_the_reference():
    # A window starts as a copy of the odd multiples of 3..13, which repeat
    # every 15015 odd integers: windows from every lo <= 13 (where those primes
    # are cleared again), shorter than a period, over several periods, and from
    # lo at and around multiples of 2 * 15015.
    period = 2 * 15015
    for lo in range(2, 14):
        for hi in (14, 100, period - 1, period + 5):
            assert_kernel_matches_reference(lo, hi)
    for k in (1, 2, 7):
        for lo in (k * period - 1, k * period, k * period + 1):
            for width in (1, 13, 15_015, period - 1, period, 3 * period + 11):
                assert_kernel_matches_reference(lo, lo + width)
    reference = reference_sieve(2, 4 * period + 1, BasePrimes.up_to(400))
    assert primes_up_to(4 * period).tolist() == reference.tolist()


def test_prime_pi_at_counts_on_from_a_known_point():
    rng = np.random.default_rng(7)
    targets = np.sort(rng.integers(10**6, 5 * 10**6, size=200))
    for t0 in (10**6 - 1, int(targets[0])):
        known = (t0, prime_pi(t0))
        assert prime_pi_at(targets, known).tolist() == prime_pi_at(targets).tolist()
    assert prime_pi_at(targets[::20]).tolist() == [prime_pi(int(t)) for t in targets[::20]]


@settings(deadline=None, max_examples=200)
@given(
    flags=st.lists(st.booleans(), max_size=300).map(lambda xs: np.array(xs, dtype=bool)),
    data=st.data(),
    many=st.booleans(),
)
def test_clear_below_counts_the_clear_flags_before_each_end(flags, data, many):
    # Both ways of counting, span by span and by searching the clear flags'
    # indices, against a count per end; repeated ends, 0 and len(flags) included.
    ends = sorted(data.draw(st.lists(st.integers(0, len(flags)), max_size=12), "ends"))
    ends = np.array(ends, dtype=np.int64)
    with mock.patch.object(sieve, "_MANY_ENDS", 0 if many else 1024):
        got = clear_below(flags, ends)
    assert got.dtype == np.int64
    assert got.tolist() == [e - int(np.count_nonzero(flags[:e])) for e in ends.tolist()]


def test_prime_pi_at_counts_from_the_start():
    # a count from pi(1) = 0 adds 2, which has no flag
    targets = np.array([1, 2, 3, 10, 100, 7919], dtype=np.int64)
    assert prime_pi_at(targets).tolist() == [0, 1, 2, 4, 25, 1000]


@pytest.mark.parametrize("scale", [10**10, 10**12])
def test_sieve_segment_agrees_with_oracle_far_out(scale):
    rng = np.random.default_rng(scale % 7919)
    lo = scale + int(rng.integers(0, 10**6))
    hi = lo + (1 << 16)
    primes = sieve_segment(lo, hi, BasePrimes.up_to(math.isqrt(hi) + 1))
    odd = np.arange(lo | 1, hi, 2)
    unreported = np.setdiff1d(odd, primes)
    for k in rng.choice(primes, 20, replace=False).tolist():
        assert is_prime_oracle(k), k
    for k in rng.choice(unreported, 200, replace=False).tolist():
        assert not is_prime_oracle(k), k


def test_base_primes_cover():
    base = BasePrimes.up_to(10)
    assert base.primes.tolist() == [2, 3, 5, 7]
    assert base.covers(101)  # ceil(sqrt(100)) = 10
    assert not base.covers(150)
    with pytest.raises(ValueError):
        BasePrimes.up_to(1)


def test_prime_count():
    ref = primes_up_to(1_000_000)
    for x, count in ((0, 0), (1, 0), (2, 1), (113, 30), (5393, 711), (1_000_000, 78498)):
        assert prime_pi(x) == np.searchsorted(ref, x, side="right") == count


def test_prime_pi_matches_prime_count_below_2000():
    counts = np.searchsorted(primes_up_to(2000), range(2001), side="right")
    assert [prime_pi(x) for x in range(2001)] == counts.tolist()


def test_prime_pi_matches_sieve_counts():
    # Around each square p^2 (p < 3000) the strike of p starts, around m^2
    # isqrt(x) steps, around m^4 isqrt(isqrt(x)) steps (where prime_pi's two
    # loops split), around m^3 the integer cube root steps (where a prime
    # moves from striking to the closing sum, prime cubes included), and at
    # 50 seeded points up to 1e7; the reference counts come from the
    # segmented sieve, which shares no code with prime_pi.
    ref = primes_up_to(13_000_000)
    base = ref[ref < 3000].tolist()
    rng = np.random.default_rng(20)
    xs = [p * p + d for p in base for d in (-1, 0, 1)]
    xs += [m**2 + d for m in range(2, 401) for d in (-1, 0, 1)]
    xs += [m**4 + d for m in range(2, 61) for d in (-1, 0, 1)]
    xs += [m**3 + d for m in range(2, 231) for d in (-1, 0, 1)]
    xs += rng.integers(0, 10**7, size=50, endpoint=True).tolist()
    assert [prime_pi(x) for x in xs] == np.searchsorted(ref, xs, side="right").tolist()
    assert prime_pi(8_999_999) == np.searchsorted(ref, 8_999_999, side="right")


def test_prime_pi_anchors_and_domain():
    assert prime_pi(436_273_009) == 23_163_298  # the last reference-table row
    assert prime_pi(10**9) == 50_847_534
    assert prime_pi(10**10) == 455_052_511
    assert prime_pi(-7) == 0
    for x in (PRIME_PI_MAX + 1, MAX_LIMIT + 1):  # refused before any O(sqrt(x)) array
        with pytest.raises(OverflowError, match=f"x <= {PRIME_PI_MAX}, got {x}"):
            prime_pi(x)


def test_is_prime_oracle_basics():
    assert is_prime_oracle(2)
    assert is_prime_oracle(3)
    assert not is_prime_oracle(4)
    assert not is_prime_oracle(9)
    assert not is_prime_oracle(91)  # 7 * 13
    assert is_prime_oracle(97)
    assert is_prime_oracle(436273009)
    with pytest.raises(ValueError):
        is_prime_oracle(1)
    with pytest.raises(ValueError):
        is_prime_oracle(-7)
    with pytest.raises(OverflowError, match="exceeds supported maximum"):
        is_prime_oracle(MAX_LIMIT + 1)


def test_next_prime():
    assert next_prime(2) == 3
    assert next_prime(3) == 5
    assert next_prime(7) == 11
    assert next_prime(113) == 127
    with pytest.raises(ValueError):
        next_prime(8)
    with pytest.raises(ValueError):
        next_prime(9)
    with pytest.raises(ValueError):
        next_prime(1)


def test_oracle_agrees_with_sieve_prefix(primes_1e5):
    in_sieve = set(primes_1e5.tolist())
    for k in range(2, 2000):
        assert is_prime_oracle(k) == (k in in_sieve)


@settings(deadline=None, max_examples=40)
@given(
    limit=st.integers(min_value=2, max_value=50_000),
    size=st.sampled_from([64, 1024, 4096, DEFAULT_SEGMENT_SIZE]),
)
def test_segmentation_is_invisible(limit, size):
    assert primes_up_to(limit, segment_size=size).tolist() == primes_up_to(limit).tolist()


@settings(deadline=None, max_examples=30)
@given(index=st.integers(min_value=0, max_value=28))
def test_next_prime_matches_sieve_order(index):
    ps = primes_up_to(113)
    assert next_prime(int(ps[index])) == int(ps[index + 1])


def test_segment_feed_ordered_and_contiguous():
    with SegmentFeed(start=2, segment_size=1000) as feed:
        collected = []
        expected_lo = 2
        for _ in range(5):
            lo, hi, primes = feed.next_segment()
            assert lo == expected_lo
            assert hi == lo + 1000
            collected.extend(primes.tolist())
            expected_lo = hi
    assert collected == primes_up_to(5001).tolist()


def test_segment_feed_from_offset_start():
    with SegmentFeed(start=1000, segment_size=500) as feed:
        lo, hi, primes = feed.next_segment()
    assert (lo, hi) == (1000, 1500)
    all_primes = primes_up_to(1499)
    assert primes.tolist() == all_primes[all_primes >= 1000].tolist()
    with pytest.raises(ValueError, match="start at 2 or above, got 1"):
        SegmentFeed(start=1)


def test_a_default_feed_starts_with_short_windows():
    # At the default size, windows that start below 2**17 are 2**16 long and
    # the rest 2**21; an explicit size, or a default feed that starts at 2**17
    # or above, gives windows of that size from the first.
    def spans(feed: SegmentFeed, count: int) -> list[tuple[int, int]]:
        """(lo, hi - lo) of the feed's next `count` windows."""
        return [(lo, hi - lo) for lo, hi, _ in (feed.next_flags() for _ in range(count))]

    assert DEFAULT_SEGMENT_SIZE == 1 << 21
    los = [2, 2 + 2**16, 2 + 2**17, 2 + 2**17 + 2**21]
    assert spans(SegmentFeed(), 4) == list(zip(los, [2**16, 2**16, 2**21, 2**21]))
    with SegmentFeed() as feed:
        primes = np.concatenate([feed.next_segment()[2] for _ in range(3)])
    assert primes.tolist() == primes_up_to(los[3] - 1).tolist()
    below = 2**17 - 1
    assert spans(SegmentFeed(start=below), 2) == [(below, 2**16), (below + 2**16, 2**21)]
    assert spans(SegmentFeed(start=2**17), 1) == [(2**17, 2**21)]
    for size in (1000, 1 << 16, 1 << 20):
        assert spans(SegmentFeed(segment_size=size), 3) == [(2 + k * size, size) for k in range(3)]


def test_segment_feed_sieves_on_one_thread():
    with pytest.raises(ValueError, match="one thread"):
        SegmentFeed(threads=2)


def test_segment_size_cap():
    assert primes_up_to(1000, segment_size=MAX_SEGMENT_SIZE).tolist() == primes_up_to(1000).tolist()
    for bad in (0, MAX_SEGMENT_SIZE + 1):
        with pytest.raises(ValueError, match="segment_size"):
            SegmentFeed(segment_size=bad)
        with pytest.raises(ValueError, match="segment_size"):
            primes_up_to(100, segment_size=bad)


def test_sieve_threads_env(monkeypatch):
    monkeypatch.setenv("PRIMEGAP_THREADS", "3")
    assert sieve_threads() == 3
    monkeypatch.setenv("PRIMEGAP_THREADS", "0")
    with pytest.raises(ValueError):
        sieve_threads()
    monkeypatch.setenv("PRIMEGAP_THREADS", "lots")
    with pytest.raises(ValueError):
        sieve_threads()
    monkeypatch.delenv("PRIMEGAP_THREADS")
    assert sieve_threads() >= 1


def test_sieve_threads_defaults_to_the_cpus_the_process_may_use(monkeypatch):
    # pinned to 2 of 64 CPUs (taskset, a cpuset), a run forks 2 shards, not 64
    monkeypatch.delenv("PRIMEGAP_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert sieve_threads() == 2
    # where os has no sched_getaffinity (macOS, Windows), every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity")
    assert sieve_threads() == 64
