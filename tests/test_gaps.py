import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import gaps as gaps_module
from primegaps.gaps import (
    GapBlockStream,
    GapRecord,
    _StreamSeed,
    gap_stream,
    gap_witness,
)
from primegaps.sieve import MAX_LIMIT, SegmentFeed, primes_up_to
from primegaps.verify import TABLE1_REFERENCE, maximal_gaps

RECORDS = [(n, p, gap) for n, p, gap, starred, _, _ in TABLE1_REFERENCE if starred]

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
    with pytest.raises(OverflowError, match="exceeds supported maximum"):
        GapBlockStream(MAX_LIMIT + 1)


def test_window_never_outgrows_the_limit(monkeypatch):
    # the successor of the last prime <= limit lies below 2 * limit, so a 2**26 window is waste
    sieved = []
    next_flags = SegmentFeed.next_flags

    def counted(self):
        lo, hi, flags = next_flags(self)
        sieved.append(hi - lo)
        return lo, hi, flags

    monkeypatch.setattr(SegmentFeed, "next_flags", counted)
    blocks = list(GapBlockStream(100, segment_size=2**26).blocks())
    assert sum(len(b) for b in blocks) == 25
    assert sum(sieved) <= 3 * 100


def test_stream_sieves_no_window_past_the_first_prime_beyond_the_limit(monkeypatch):
    # A row leaves once its successor is sieved, so the stream stops in the
    # window that holds next_prime(10**6) = 1 000 003.
    ends = []
    next_flags = SegmentFeed.next_flags

    def counted(self):
        lo, hi, flags = next_flags(self)
        ends.append(hi)
        return lo, hi, flags

    monkeypatch.setattr(SegmentFeed, "next_flags", counted)
    blocks = list(GapBlockStream(10**6, segment_size=1 << 16).blocks())
    assert sum(len(b) for b in blocks) == 78_498
    assert blocks[-1].last_p + int(blocks[-1].gaps[-1]) == 1_000_003
    assert max(ends) <= 1_000_003 + (1 << 16)


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
    # Build every block before reading any: with small segments the stream
    # moves through many windows, which must not change a held block.
    limit = 60_000
    ref = primes_up_to(limit + 10_000)
    if seeded_at is None:
        seed, first = _StreamSeed(), 0
    else:
        gap_max = int(np.diff(ref[: seeded_at + 1]).max())
        seed = _StreamSeed(next_n=seeded_at + 1, last_p=int(ref[seeded_at - 1]), gap_max=gap_max)
        first = seeded_at
    blocks = list(GapBlockStream(limit, segment_size=1 << 10, seed=seed).blocks())
    # Records are read before the margin array on even blocks and after it on
    # odd ones, so the array a block caches is the same whichever reads it first.
    for k, b in enumerate(blocks):
        if k % 2:
            assert len(b.margins) == len(b)  # computes and caches the array
        assert [r.theorem1_margin for r in b.iter_records()] == b.margins.tolist()
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


def assert_blocks_match(blocks, ref, gap_max=0) -> int:
    """Check blocks against `ref` (ref[n - 1] = p_n, past the last successor):
    ends, records and gap bound first, then every column.  Returns the last index."""
    n = None
    for b in blocks:
        n = b.first_n if n is None else n
        ps = ref[n - 1 : b.last_n]
        gaps = ref[n : b.last_n + 1] - ps
        assert (b.first_n, b.first_p, b.last_p, b.next_p) == (n, ps[0], ps[-1], ref[b.last_n])
        records = []
        for i in np.flatnonzero(gaps > gap_max).tolist():
            if gaps[i] > gap_max:
                gap_max = int(gaps[i])
                records.append((n + i, int(ps[i]), gap_max))
        assert b.records == records
        assert b.gap_bound >= gaps.max()
        assert b.ns.tolist() == list(range(n, b.last_n + 1))
        assert b.ps.tolist() == ps.tolist() and b.gaps.tolist() == gaps.tolist()
        assert np.flatnonzero(b.is_maximal).tolist() == [m - n for m, _, _ in records]
        n = b.last_n + 1
    return n - 1


@pytest.mark.parametrize(
    "limit, segment_size", [(50_000, 20), (400_000, 64), (400_000, 1000), (2_000_000, 1 << 16)]
)
def test_records_read_off_the_flags_are_the_streams(monkeypatch, limit, segment_size):
    # Windows shorter than a record gap hold no prime at all; longer ones hold
    # whole records.  Every window reads its records off the flags (below a
    # record of 30 every pair of primes is a candidate), and none lists its
    # primes until its columns are read.
    listed = []
    flag_primes = gaps_module.flag_primes
    monkeypatch.setattr(gaps_module, "flag_primes", lambda *a: listed.append(a) or flag_primes(*a))
    blocks = list(GapBlockStream(limit, segment_size=segment_size).blocks())
    assert len(listed) * 10 < len(blocks)
    ref = primes_up_to(limit + 1000)
    assert assert_blocks_match(blocks, ref) == np.searchsorted(ref, limit, side="right")
    assert [r for b in blocks for r in b.records] == [r for r in RECORDS if r[1] <= limit]


def test_a_record_gap_across_a_window_start_is_found():
    # Seeded after the record 34 at p_217 = 1327, every window reads its
    # records off the flags.  The first window ends inside each later record
    # gap up to 2e6, so the gap runs from the window's last prime into the
    # next window; and the first window starts inside the gap after 1327,
    # which is no row of this stream.
    ref = primes_up_to(2_100_000)
    seed = _StreamSeed(next_n=218, last_p=1327, gap_max=34)
    for n, p, gap in RECORDS:
        if 1327 < p < 2_000_000:
            size = p + gap // 2 - 1328
            blocks = list(GapBlockStream(2_000_000, segment_size=size, seed=seed).blocks())
            assert (n, p, gap) in blocks[1].records
            assert assert_blocks_match(blocks, ref, gap_max=34) == 148_933


@pytest.mark.parametrize("cut_every", [3380, 3384, 3385, 3386])
def test_a_cut_inside_a_window_that_holds_a_record(cut_every):
    # The record n = 3385 (p = 31397, gap 72) and a multiple of cut_every lie
    # in the seeded stream's first window, so the cut splits that window's
    # flags at the prime after the multiple, before, at or after the record.
    seed = _StreamSeed(next_n=218, last_p=1327, gap_max=34)
    blocks = list(GapBlockStream(100_000, 1 << 16, cut_every, seed).blocks())
    assert blocks[0].first_n == 218 and blocks[0].last_n == cut_every
    assert assert_blocks_match(blocks, primes_up_to(101_000), gap_max=34) == 9592
    assert all((b.first_n - 1) // cut_every == (b.last_n - 1) // cut_every for b in blocks)
    assert [r for b in blocks for r in b.records] == [r for r in RECORDS if 1327 < r[1] < 10**5]


@settings(deadline=None, max_examples=60)
@given(
    segment_size=st.sampled_from([1, 7, 20, 64, 1000, 1 << 14, 1 << 20]),
    cut_every=st.one_of(
        st.none(), st.sampled_from([1, 2, 3]), st.integers(1, 50), st.integers(1, 5000)
    ),
    data=st.data(),
)
def test_stream_blocks_match_the_sieve(segment_size, cut_every, data):
    # Every block is read off its window's flags, from the start (records
    # below 30, where every pair of primes is a candidate) or seeded at p_k,
    # and a cut splits a window's flags with or without a pending prime.
    limit = data.draw(st.integers(3, min(250_000, 500 * segment_size)), "limit")
    ref = primes_up_to(limit + 1000)
    count = int(np.searchsorted(ref, limit, side="right"))
    k = data.draw(st.one_of(st.just(0), st.integers(1, count - 1)), "seeded at")
    running = np.maximum.accumulate(np.diff(ref))  # running[n - 1]: the record after row n
    seed = _StreamSeed(k + 1, int(ref[k - 1]), int(running[k - 1])) if k else _StreamSeed()
    blocks = list(GapBlockStream(limit, segment_size, cut_every, seed).blocks())
    assert assert_blocks_match(blocks, ref, seed.gap_max) == count
    assert blocks[0].first_n == k + 1
    for b in blocks:
        assert b.gap_bound == running[b.last_n - 1]
        if cut_every:
            assert (b.first_n - 1) // cut_every == (b.last_n - 1) // cut_every


def assert_pi_at_matches(blocks, ref, rng) -> set:
    """Check each block's flag-counted pi at its ends first_p and next_p - 1
    and a few targets between against `searchsorted` on its columns and on
    `ref`.  Returns the kinds of block seen: has a pending prime or not."""
    kinds = set()
    for b in blocks:
        inner = rng.integers(b.first_p, b.next_p, size=3)
        ts = np.unique(np.r_[b.first_p, b.next_p - 1, inner]).astype(np.int64)
        kinds.add(b._source[0] is not None)
        by_flags = b.pi_at(ts).tolist()
        assert b._columns is None  # counted without listing the window's primes
        by_columns = (b.first_n - 1 + np.searchsorted(b.ps, ts, side="right")).tolist()
        assert by_flags == by_columns == np.searchsorted(ref, ts, side="right").tolist()
        assert b.pi_at(ts).tolist() == by_flags  # and off the columns, once built
    return kinds


def test_pi_counted_off_the_flags_with_and_without_a_pending_prime():
    # From 2, each window's first block starts with the last prime of the
    # window before (pending); the second half of a cut window has none.
    blocks = list(GapBlockStream(200_000, 1 << 14, 3000).blocks())
    assert sum(b.first_n % 3000 == 1 for b in blocks) > 5  # blocks after a cut
    kinds = assert_pi_at_matches(blocks, primes_up_to(201_000), np.random.default_rng(3))
    assert kinds == {True, False}


@settings(deadline=None, max_examples=60)
@given(
    segment_size=st.sampled_from([7, 20, 64, 1000, 1 << 14, 1 << 21]),
    cut_every=st.one_of(st.none(), st.integers(1, 50), st.integers(1, 5000)),
    data=st.data(),
)
def test_pi_counted_off_a_blocks_flags_is_the_sieves(segment_size, cut_every, data):
    # A waiting row's margin is counted off the flags of the block its target
    # lies in: from the start or seeded at p_k (no pending prime), in blocks
    # split by a cut, and in windows shorter than a gap.
    limit = data.draw(st.integers(3, min(250_000, 500 * segment_size)), "limit")
    ref = primes_up_to(limit + 1000)
    count = int(np.searchsorted(ref, limit, side="right"))
    k = data.draw(st.one_of(st.just(0), st.integers(1, count - 1)), "seeded at")
    gap_max = int(np.diff(ref[: k + 1]).max(initial=0))
    seed = _StreamSeed(k + 1, int(ref[k - 1]), gap_max) if k else _StreamSeed()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "targets"))
    assert_pi_at_matches(GapBlockStream(limit, segment_size, cut_every, seed).blocks(), ref, rng)


@settings(deadline=None, max_examples=300)
@given(
    # mostly set flags (composites), so long runs are common, and set runs
    # of any length at either end
    head=st.integers(0, 40),
    middle=st.lists(st.integers(0, 9), max_size=400).map(lambda xs: [x > 0 for x in xs]),
    tail=st.integers(0, 40),
    words=st.integers(min_value=1, max_value=5),
)
def test_long_gaps_are_the_runs_that_cover_whole_words(head, middle, tail, words):
    # Every pair of consecutive clear flags whose set flags between them fill
    # at least `words` aligned 8-flag words, and no other pair, in an array
    # whose length need not be a whole number of words.
    composite = np.array([True] * head + middle + [True] * tail, dtype=bool)
    clear = np.flatnonzero(~composite).tolist()
    expected = []
    for i, j in zip(clear, clear[1:]):
        covered = sum(1 for w in range(len(composite) // 8) if i < 8 * w and 8 * w + 8 <= j)
        if covered >= words:
            expected.append((i, j))
    i, j = gaps_module._long_gaps(composite, words)
    assert i.dtype == j.dtype == np.int64
    assert list(zip(i.tolist(), j.tolist())) == expected


def test_every_gap_above_the_record_covers_the_words_searched_for():
    # A gap between odd primes is even, and its composites are gap / 2 - 1 set
    # flags from any offset a; every gap above the record must cover
    # _words_above(record) whole words.
    for record in range(0, 600):
        for gap in range(record + 2 - record % 2, record + 40, 2):
            run = gap // 2 - 1
            covered = min((a + run) // 8 - -(-a // 8) for a in range(8))
            assert covered >= gaps_module._words_above(record), (record, gap)
