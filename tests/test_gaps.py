import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps.gaps import (
    GapBlockStream,
    GapRecord,
    _StreamSeed,
    gap_stream,
    gap_witness,
    maximal_gaps,
)
from primegaps.sieve import primes_up_to

# (m, p, gap) for the factorial witness construction; gaps verified against
# trial division.
WITNESS_EXPECTED = {
    3: (7, 4),
    4: (23, 6),
    5: (113, 14),
    6: (719, 8),
    7: (5039, 12),
    8: (40289, 54),
    9: (362867, 30),
    10: (3628789, 22),
    11: (39916801, 16),
    12: (479001599, 30),
    13: (6227020777, 90),
}


def test_first_records():
    recs = list(gap_stream(30))
    assert recs[0] == GapRecord(n=1, p=2, gap=1, is_maximal=True, theorem1_margin=1)
    assert recs[1] == GapRecord(n=2, p=3, gap=2, is_maximal=True, theorem1_margin=1)
    assert recs[2] == GapRecord(n=3, p=5, gap=2, is_maximal=False, theorem1_margin=1)
    assert recs[8] == GapRecord(n=9, p=23, gap=6, is_maximal=True, theorem1_margin=2)
    assert [r.p for r in recs] == primes_up_to(30).tolist()


def test_stream_covers_every_prime(primes_1e5):
    recs = list(gap_stream(100_000))
    assert len(recs) == len(primes_1e5) == 9592
    assert [r.p for r in recs] == primes_1e5.tolist()
    assert [r.n for r in recs] == list(range(1, 9593))
    for cur, nxt in zip(recs, recs[1:]):
        assert cur.p + cur.gap == nxt.p
    # the final gap looks past the limit to the next prime beyond it
    assert recs[-1].p + recs[-1].gap == 100_003


def test_gap_invariants():
    for rec in gap_stream(10_000):
        assert rec.gap >= 1
        if rec.p > 2:
            assert rec.gap % 2 == 0
        assert rec.theorem1_margin >= 1
        assert rec.gap <= rec.n


def test_margins_match_brute_force(primes_1e5):
    for rec in gap_stream(5_000):
        lo = np.searchsorted(primes_1e5, rec.p, side="right")
        hi = np.searchsorted(primes_1e5, rec.p + rec.n, side="right")
        assert rec.theorem1_margin == hi - lo


def test_maximal_gaps_up_to_200():
    assert [(r.n, r.p, r.gap) for r in maximal_gaps(200)] == [
        (1, 2, 1),
        (2, 3, 2),
        (4, 7, 4),
        (9, 23, 6),
        (24, 89, 8),
        (30, 113, 14),
    ]


def test_maximal_gaps_smallest_range():
    # limit 3 emits both available records: the trailing gap of the last
    # prime <= limit is computed from the next prime beyond the limit.
    assert [(r.n, r.p, r.gap) for r in maximal_gaps(3)] == [(1, 2, 1), (2, 3, 2)]


def test_limit_validation():
    with pytest.raises(ValueError):
        GapBlockStream(2)
    with pytest.raises(ValueError):
        list(gap_stream(-1))
    with pytest.raises(ValueError):
        GapBlockStream(100, cut_every=0)


def test_blocks_partition_indices_and_respect_cuts():
    stream = GapBlockStream(50_000, cut_every=1000)
    expected_next = 1
    for block in stream.blocks():
        assert block.first_n == expected_next
        assert block.ns.tolist() == list(range(block.first_n, block.last_n + 1))
        # no block crosses a multiple of the cut interval
        assert (block.first_n - 1) // 1000 == (block.last_n - 1) // 1000
        expected_next = block.last_n + 1
    assert expected_next - 1 == len(primes_up_to(50_000))


def test_lookahead_window_after_emission():
    stream = GapBlockStream(10_000)
    last_block = list(stream.blocks())[-1]
    rec = last_block.record_at(len(last_block) - 1)
    window = stream.lookahead_window(rec.n, rec.p)
    ps = primes_up_to(rec.p + rec.n)
    assert window.tolist() == ps[ps > rec.p].tolist()
    assert len(window) == rec.theorem1_margin


@pytest.mark.parametrize("m", sorted(WITNESS_EXPECTED))
def test_gap_witness_values(m):
    w = gap_witness(m)
    p_expected, gap_expected = WITNESS_EXPECTED[m]
    assert (w.m, w.p, w.gap, w.gap_lower_bound) == (m, p_expected, gap_expected, m)
    assert w.gap >= m
    assert w.p <= math.factorial(m) + 1


def test_gap_witness_domain():
    for bad in (2, 14, 0, -3):
        with pytest.raises(ValueError):
            gap_witness(bad)


@settings(deadline=None, max_examples=25)
@given(limit=st.integers(min_value=3, max_value=30_000))
def test_stream_matches_sieve_and_running_maximum(limit):
    recs = list(gap_stream(limit))
    assert [r.p for r in recs] == primes_up_to(limit).tolist()
    best = 0
    for r in recs:
        assert r.is_maximal == (r.gap > best)
        best = max(best, r.gap)


@settings(deadline=None, max_examples=10)
@given(size=st.sampled_from([128, 1024, 65_536]))
def test_stream_segment_size_invariance(size):
    small = [
        (r.n, r.p, r.gap, r.is_maximal, r.theorem1_margin)
        for r in gap_stream(20_000, segment_size=size)
    ]
    default = [
        (r.n, r.p, r.gap, r.is_maximal, r.theorem1_margin) for r in gap_stream(20_000)
    ]
    assert small == default


@pytest.mark.parametrize("seeded_at", [None, 700])
def test_blocks_stay_valid_after_the_stream_moves_on(seeded_at):
    # Build every block before reading any: with small segments the store is
    # moved and reallocated many times, which must not change a held block.
    limit = 60_000
    ref = primes_up_to(limit + 10_000)
    if seeded_at is None:
        seed, first = None, 0
    else:
        p = int(ref[seeded_at - 1])
        window = ref[(ref > p) & (ref <= p + seeded_at)]
        gap_max = int(np.diff(ref[: seeded_at + 1]).max())
        seed = _StreamSeed(
            next_n=seeded_at + 1, lookahead=window, covered_through=p + seeded_at, gap_max=gap_max
        )
        first = seeded_at
    blocks = list(GapBlockStream(limit, segment_size=1 << 10, seed=seed).blocks())
    ps = np.concatenate([b.ps for b in blocks])
    gaps = np.concatenate([b.gaps for b in blocks])
    margins = np.concatenate([b.margins for b in blocks])
    is_maximal = np.concatenate([b.is_maximal for b in blocks])

    count = len(primes_up_to(limit))
    assert ps.tolist() == ref[first:count].tolist()
    assert gaps.tolist() == (ref[first + 1 : count + 1] - ref[first:count]).tolist()
    expected_margins = []
    best = 0
    expected_maximal = []
    for n in range(1, count + 1):
        p, gap = int(ref[n - 1]), int(ref[n] - ref[n - 1])
        if n > first:
            expected_margins.append(int(np.count_nonzero(ref[n : n + n] <= p + n)))
            expected_maximal.append(gap > best)
        best = max(best, gap)
    assert margins.tolist() == expected_margins
    assert is_maximal.tolist() == expected_maximal
