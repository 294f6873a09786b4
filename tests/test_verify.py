import copy
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from primegaps import bounds, gaps
from primegaps.gaps import Block, GapBlockStream, GapRecord, _StreamSeed
from primegaps.sieve import DEFAULT_SEGMENT_SIZE, MAX_SEGMENT_SIZE, primes_up_to
from primegaps.verify import (
    CHECKS,
    CHECKPOINT_VERSION,
    TABLE1_REFERENCE,
    CheckDef,
    Checkpoint,
    CheckpointFormatError,
    CheckpointVersionError,
    IncompatibleResumeError,
    RunConfig,
    Table1Row,
    check_resume,
    read_checkpoint,
    reproduce_table1,
    resume,
    run_verification,
    table1_config,
    table1_mismatches,
    write_checkpoint,
)


def record_line(r: GapRecord) -> str:
    return f"{r.n},{r.p},{r.gap},{r.is_maximal},{r.theorem1_margin}"


def test_run_small_clean():
    summary = run_verification(RunConfig(limit=150, checks=("theorem1",)))
    assert summary.primes_processed == 35
    assert summary.last_prime == 149
    assert summary.gap_max == 14
    assert summary.clean and summary.total_violations == 0
    assert [r.p for r in summary.maximal_records] == [2, 3, 7, 23, 89, 113]
    stats = summary.checks[0]
    assert (stats.name, stats.applied, stats.violations) == ("theorem1", 35, 0)
    assert stats.first_violation is None


def test_applied_counts_respect_first_index():
    summary = run_verification(
        RunConfig(limit=29, checks=("theorem1", "corollary1", "epsilon_1_5"))
    )
    assert summary.primes_processed == 10
    applied = {cs.name: cs.applied for cs in summary.checks}
    assert applied == {"theorem1": 10, "corollary1": 8, "epsilon_1_5": 1}


def test_all_registered_checks_clean_to_1e5():
    summary = run_verification(RunConfig(limit=100_000, checks=tuple(CHECKS)))
    assert summary.clean
    applied = {cs.name: cs.applied for cs in summary.checks}
    assert applied["theorem1"] == 9592
    assert applied["epsilon_1_5"] == 9592 - 9
    assert applied["epsilon_1_13"] == 9592 - 118
    assert applied["epsilon_1_16597"] == 0


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(limit=2)
    with pytest.raises(ValueError):
        RunConfig(limit=10, checks=())
    with pytest.raises(ValueError, match="unknown checks"):
        RunConfig(limit=10, checks=("nope",))
    with pytest.raises(ValueError, match="duplicate"):
        RunConfig(limit=10, checks=("theorem1", "theorem1"))
    with pytest.raises(ValueError):
        RunConfig(limit=10, checkpoint_interval=0)
    with pytest.raises(ValueError):
        RunConfig(limit=10, emit="sometimes")
    for bad in (0, MAX_SEGMENT_SIZE + 1):
        with pytest.raises(ValueError, match="segment_size"):
            RunConfig(limit=10, segment_size=bad)


def test_emit_modes():
    all_records: list[GapRecord] = []
    run_verification(RunConfig(limit=1000, emit="all"), sink=all_records.append)
    assert len(all_records) == 168
    maximal: list[GapRecord] = []
    run_verification(RunConfig(limit=1000, emit="maximal"), sink=maximal.append)
    assert [r.p for r in maximal] == [2, 3, 7, 23, 89, 113, 523, 887]
    violations: list[GapRecord] = []
    run_verification(RunConfig(limit=1000, emit="violations"), sink=violations.append)
    assert violations == []


def test_violations_are_data_not_exceptions(monkeypatch):
    # A synthetic always-failing check: the run must complete, count every
    # index, remember the first offender, and stream them under
    # emit="violations" -- never raise.
    monkeypatch.setitem(
        CHECKS,
        "always_fails",
        CheckDef("always_fails", "test-only", 1, lambda b: np.ones(len(b), dtype=bool)),
    )
    flagged: list[GapRecord] = []
    summary = run_verification(
        RunConfig(limit=100, checks=("always_fails",), emit="violations"),
        sink=flagged.append,
    )
    assert not summary.clean
    stats = summary.checks[0]
    assert stats.violations == stats.applied == 25
    assert stats.first_violation is not None and stats.first_violation.n == 1
    assert len(flagged) == 25


def test_vectorized_checks_redecide_near_ties(monkeypatch):
    # Synthetic rows whose float bound is within the marginal band of the gap:
    # p = 263101 has corollary1 bound 23118.999994... (gap 23119 violates) and
    # p = 60017 has empirical bound 5455.000000164... (gap 5455 is fine).
    def one_row_block(p: int, gap: int) -> Block:
        arr = lambda v: np.array([v], dtype=np.int64)
        return Block(arr(10), arr(p), arr(gap), np.array([False]))

    corollary1, empirical = CHECKS["corollary1"].violations, CHECKS["empirical"].violations
    assert corollary1(one_row_block(263101, 23119)).tolist() == [True]
    assert corollary1(one_row_block(263101, 23118)).tolist() == [False]
    assert empirical(one_row_block(60017, 5455)).tolist() == [False]
    assert empirical(one_row_block(60017, 5456)).tolist() == [True]
    # near ties are re-decided through the module attribute, which wrappers replace
    seen = []
    scalar = bounds.corollary1_holds
    monkeypatch.setattr(bounds, "corollary1_holds", lambda p, g: seen.append(p) or scalar(p, g))
    assert corollary1(one_row_block(263101, 23119)).tolist() == [True]
    assert seen == [263101]


def rows_block(ns, ps, gaps) -> Block:
    """A block of the given rows, none of them a record."""
    arr = lambda v: np.asarray(v, dtype=np.int64)
    return Block(arr(ns), arr(ps), arr(gaps), np.zeros(len(ns), dtype=bool))


# (p, gap) pairs whose float bound lies within the marginal band of the gap
NEAR_TIES = ((60017, 5455), (60017, 5456), (263101, 23118), (263101, 23119))


@pytest.mark.parametrize("b", bounds.GAP_BOUNDS, ids=lambda b: b.name)
def test_gap_checks_decide_blocks_as_their_rows(b):
    # Seeded blocks of rising primes from 11 on, with gaps drawn around the
    # bound at the first prime: some are decided at that prime and their
    # largest gap, the others row by row.  Near ties come as later rows and as
    # first rows.  Either way the verdict is that of every row on its own.
    rng = np.random.default_rng(15)
    check, first = CHECKS[b.name].violations, b.first_index
    blocks = []
    for _ in range(300):
        size = int(rng.integers(1, 12))
        p0 = int(np.exp(rng.uniform(np.log(11), np.log(10**7))))
        ps = p0 + np.cumsum(np.r_[0, rng.integers(1, 200, size - 1)])
        top = int(b.at(p0)) + int(rng.integers(-1, 2))
        blocks.append((ps, np.maximum(1, top - rng.integers(0, 4, size))))
    for p, gap in NEAR_TIES:
        ps = 11 + np.cumsum(rng.integers(1, 200, 8))
        blocks.append((np.r_[ps, p], np.r_[rng.integers(1, 9, 8), gap]))
        ps = p + np.cumsum(np.r_[0, rng.integers(1, 200, 7)])
        blocks.append((ps, np.r_[gap, gap - rng.integers(0, 4, 7)]))
    decided = 0
    for ps, gaps in blocks:
        n0 = int(rng.integers(max(1, first - 10), first + 10))
        ns = np.arange(n0, n0 + len(ps), dtype=np.int64)
        expected = ~b.holds_many(ps, gaps) & (ns >= first)
        assert check(rows_block(ns, ps, gaps)).tolist() == expected.tolist(), (ps, gaps, ns)
        decided += b.decide(int(ps[0]), int(gaps.max()))[0]
    assert 0 < decided < len(blocks)  # both ways of deciding a block are tried


def test_gap_checks_decide_rows_of_a_block_that_starts_below_the_threshold():
    # corollary1's bound is 9.815 at p = 5 but 8.275 at p = 7, so a gap of 9
    # meets it at the block's first prime and fails it at the second.
    block = rows_block([3, 4], [5, 7], [2, 9])
    assert CHECKS["corollary1"].violations(block).tolist() == [False, True]


def test_gap_checks_evaluate_rows_only_in_the_first_block(monkeypatch):
    # Only the first block of a stream starts below GAP_BOUNDS_RISE_FROM; each
    # later one is decided at its first prime without evaluating its rows.
    calls = {b.name: 0 for b in bounds.GAP_BOUNDS}
    holds_many = bounds.Bound.holds_many

    def counted(self, xs, observed):
        calls[self.name] += 1
        return holds_many(self, xs, observed)

    monkeypatch.setattr(bounds.Bound, "holds_many", counted)
    count = 0
    for count, block in enumerate(GapBlockStream(10**7).blocks(), 1):
        for cd in CHECKS.values():
            assert not cd.violations(block).any()
    assert count > 2
    assert max(calls.values()) <= 1, calls


def test_theorem1_decides_on_the_gap_alone():
    # Gap n puts the next prime at p + n, inside (p, p + n]; gap n + 1 leaves
    # that window empty.  The check reads the gap column only, so a one-row
    # block needs no margin (the equivalence with margin < 1 is checked on
    # real streams below).
    theorem1 = CHECKS["theorem1"].violations
    arr = lambda v: np.array([v], dtype=np.int64)
    for gap, violates in ((10, False), (11, True)):
        block = Block(arr(10), arr(101), arr(gap), np.array([False]))
        assert theorem1(block).tolist() == [violates]
        assert (block.gaps > block.ns).tolist() == [violates]
        assert block._margins is None  # deciding it computed no margin


def test_theorem1_is_decided_from_a_blocks_records():
    # Seeded blocks whose record flags are the running records after a gap
    # before the block: rows fail at a record, only at rows that are none (as
    # before the first record), or nowhere.  The verdict is that of every row.
    rng = np.random.default_rng(21)
    arr = lambda v: np.asarray(v, dtype=np.int64)
    seen = set()
    for _ in range(400):
        n0, size = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        ns = np.arange(n0, n0 + size)
        gaps = rng.integers(1, n0 + size + 4, size)
        before = np.maximum.accumulate(np.r_[rng.integers(0, n0 + 4), gaps])[:-1]
        block = Block(arr(ns), arr(100 + 200 * ns), arr(gaps), gaps > before)
        verdict = CHECKS["theorem1"].violations(block)
        assert verdict.tolist() == (gaps > ns).tolist(), (ns, gaps, before)
        seen.add((bool(verdict.any()), bool((verdict & (gaps > before)).any())))
    assert seen == {(False, False), (True, False), (True, True)}


def test_every_check_decides_a_block_as_its_rows(monkeypatch):
    # Seeded blocks whose record flags are the running records after a gap
    # before the block, with gaps drawn below each check's bound at the row
    # and primes that climb far enough for the bound to rise within a block.
    # Each check gives every block the verdict of its rows one by one.  A gap
    # check reads no rows of a block whose first prime is at least 8 and whose
    # first row and records pass, though its largest gap may fail at its
    # first prime: the first block below is such a block for every gap bound.
    calls = []
    holds_many = bounds.Bound.holds_many

    def counted(self, xs, observed):
        calls.append(self.name)
        return holds_many(self, xs, observed)

    monkeypatch.setattr(bounds.Bound, "holds_many", counted)
    rng = np.random.default_rng(24)
    arr = lambda v: np.asarray(v, dtype=np.int64)
    for name, cd in CHECKS.items():
        b = bounds.BOUNDS.get(name)
        first = cd.first_index

        def row_fails(n: int, p: int, gap: int) -> bool:
            return gap > n if b is None else n >= first and not b.decide(p, gap)[0]

        blocks = [(2_010_761, [33301, 33313, 10**9], [2, 2, 40000], 1)]
        for _ in range(300):
            size = int(rng.integers(1, 8))
            n0 = int(rng.integers(max(1, first - 10), first + 40))
            p0 = int(np.exp(rng.uniform(np.log(5), np.log(10**7))))
            ps = p0 + np.cumsum(np.r_[0, rng.integers(1, p0 + 2, size - 1)])
            ns = np.arange(n0, n0 + size)
            bound = ns if b is None else np.array([b.at(int(p)) for p in ps])
            gaps = np.maximum(1, (bound * rng.uniform(0.2, 1.05, size)).astype(np.int64))
            blocks.append((n0, ps, gaps, int(rng.integers(0, gaps.max() + 4))))
        outcomes, unread = set(), 0
        for n0, ps, gaps, before in blocks:
            ps, gaps = arr(ps), arr(gaps)
            ns = np.arange(n0, n0 + len(ps), dtype=np.int64)
            is_maximal = gaps > np.maximum.accumulate(np.r_[before, gaps])[:-1]
            calls.clear()
            verdict = cd.violations(Block(arr(ns), ps, gaps, is_maximal))
            expected = [row_fails(*row) for row in zip(ns.tolist(), ps.tolist(), gaps.tolist())]
            assert verdict.tolist() == expected, (name, ns, ps, gaps, before)
            outcomes.add(bool(verdict.any()))
            if b is not None and ps[0] >= 8 and not b.decide(int(ps[0]), int(gaps.max()))[0]:
                unread += not calls
        assert outcomes == {True, False}, name
        assert b is None or unread > 1, name  # the first block and a seeded one


@pytest.mark.parametrize("seeded_at", [None, 700])
def test_theorem1_flags_the_rows_whose_window_is_empty(seeded_at):
    # margin < 1 and gap > n flag the same rows, so the gap-only check equals
    # the former two-column predicate on every block.
    seed = _StreamSeed()
    if seeded_at is not None:
        ref = primes_up_to(10_000)
        gap_max = int(np.diff(ref[: seeded_at + 1]).max())
        seed = _StreamSeed(next_n=seeded_at + 1, last_p=int(ref[seeded_at - 1]), gap_max=gap_max)
    rows = 0
    for block in GapBlockStream(10**6, seed=seed).blocks():
        empty, too_long = block.margins < 1, block.gaps > block.ns
        assert empty.tolist() == too_long.tolist()
        assert CHECKS["theorem1"].violations(block).tolist() == (empty | too_long).tolist()
        rows += len(block)
    assert rows == 78_498 - (seeded_at or 0)


def test_summary_canonical_lines_deterministic():
    config = RunConfig(limit=10_000)
    a = run_verification(config)
    b = run_verification(config)
    assert a.canonical_lines() == b.canonical_lines()
    assert "limit = 10000" in a.canonical_lines()[0]


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "run.ck"
    ck = Checkpoint(
        version=CHECKPOINT_VERSION,
        limit=1000,
        last_n=25,
        last_p=97,
        gap_max=8,
        violation_counts={"theorem1": 0, "bertrand": 2},
        first_violations={"bertrand": GapRecord(5, 11, 2, False, 2)},
        maximal_records=(GapRecord(1, 2, 1, True, 1), GapRecord(2, 3, 2, True, 1)),
    )
    write_checkpoint(path, ck)
    got = read_checkpoint(path)
    assert (got.version, got.limit, got.last_n, got.last_p, got.gap_max) == (
        CHECKPOINT_VERSION,
        1000,
        25,
        97,
        8,
    )
    assert got.violation_counts == {"theorem1": 0, "bertrand": 2}
    assert got.first_violations == {"bertrand": GapRecord(5, 11, 2, False, 2)}
    assert got.maximal_records == ck.maximal_records


def test_checkpoint_tamper_detection(tmp_path):
    path = tmp_path / "run.ck"
    write_checkpoint(
        path,
        Checkpoint(
            version=CHECKPOINT_VERSION,
            limit=1000,
            last_n=25,
            last_p=97,
            gap_max=8,
            violation_counts={"theorem1": 0},
            first_violations={},
            maximal_records=(),
        ),
    )
    text = path.read_text()
    path.write_text(text.replace("last_n = 25", "last_n = 26"))
    with pytest.raises(CheckpointFormatError, match="integrity"):
        read_checkpoint(path)


def test_checkpoint_garbage_rejected(tmp_path):
    path = tmp_path / "junk.ck"
    path.write_text("not a checkpoint\n")
    with pytest.raises(CheckpointFormatError):
        read_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines + ["no separator here"], "malformed line 'no separator here'"),
    (lambda lines: [x for x in lines if not x.startswith("gap_max = ")], "missing key 'gap_max'"),
], ids=["malformed_line", "missing_key"])
def test_checkpoint_with_a_valid_hash_but_a_bad_line_is_a_format_error(tmp_path, edit, message):
    path = tmp_path / "run.ck"
    write_checkpoint(path, Checkpoint(CHECKPOINT_VERSION, 1000, 25, 97, 8, {"theorem1": 0}, {}, ()))
    lines = edit(path.read_text(encoding="utf-8").splitlines()[:-1])
    payload = "".join(line + "\n" for line in lines)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    path.write_text(f"{payload}sha256 = {digest}\n", encoding="utf-8")
    with pytest.raises(CheckpointFormatError) as exc:
        read_checkpoint(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("field", ["version", "limit", "last_n", "last_p", "gap_max"])
def test_checkpoint_non_integer_field_is_a_format_error(tmp_path, field):
    path = tmp_path / "run.ck"
    ck = Checkpoint(CHECKPOINT_VERSION, 1000, 25, 97, 8, {"theorem1": 0}, {}, ())
    write_checkpoint(path, dataclasses.replace(ck, **{field: "1e3"}))  # hash recomputed
    with pytest.raises(CheckpointFormatError) as exc:
        read_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_checkpoint_version_gate(tmp_path):
    path = tmp_path / "future.ck"
    write_checkpoint(
        path,
        Checkpoint(
            version=CHECKPOINT_VERSION + 1,
            limit=1000,
            last_n=25,
            last_p=97,
            gap_max=8,
            violation_counts={"theorem1": 0},
            first_violations={},
            maximal_records=(),
        ),
    )
    with pytest.raises(CheckpointVersionError):
        read_checkpoint(path)


def test_checkpoint_written_at_interval_boundary(tmp_path):
    path = tmp_path / "run.ck"
    config = RunConfig(
        limit=150,
        checks=("theorem1", "bertrand"),
        checkpoint_path=str(path),
        checkpoint_interval=25,
    )
    run_verification(config)
    ck = read_checkpoint(path)
    # pi(150) = 35, so the only boundary crossed is n = 25 (p_25 = 97)
    assert (ck.last_n, ck.last_p, ck.gap_max) == (25, 97, 8)
    assert "lookahead" not in path.read_text()  # the look-ahead is re-sieved on resume
    assert ck.violation_counts == {"theorem1": 0, "bertrand": 0}
    assert [r.p for r in ck.maximal_records] == [2, 3, 7, 23, 89]


def test_resume_equals_uninterrupted(tmp_path):
    checks = ("theorem1", "bertrand", "corollary1", "empirical")
    full_lines: list[str] = []
    full = run_verification(
        RunConfig(limit=100_000, checks=checks, emit="all"),
        sink=lambda r: full_lines.append(record_line(r)),
    )

    class Interrupt(Exception):
        pass

    path = tmp_path / "run.ck"
    config = RunConfig(
        limit=100_000,
        checks=checks,
        emit="all",
        checkpoint_path=str(path),
        checkpoint_interval=2000,
    )
    partial_lines: list[str] = []

    def interrupting_sink(rec: GapRecord) -> None:
        if len(partial_lines) >= 3456:
            raise Interrupt
        partial_lines.append(record_line(rec))

    with pytest.raises(Interrupt):
        run_verification(config, sink=interrupting_sink)
    ck = read_checkpoint(path)
    assert ck.last_n == 2000
    resumed_lines: list[str] = []
    resumed = resume(ck, config, sink=lambda r: resumed_lines.append(record_line(r)))
    assert partial_lines[: ck.last_n] + resumed_lines == full_lines
    assert resumed.canonical_lines() == full.canonical_lines()


def test_resume_to_larger_limit(tmp_path):
    path = tmp_path / "run.ck"
    config = RunConfig(
        limit=1000, checks=("theorem1",), checkpoint_path=str(path), checkpoint_interval=100
    )
    run_verification(config)
    ck = read_checkpoint(path)
    assert ck.last_n == 100
    extended = RunConfig(
        limit=2000, checks=("theorem1",), checkpoint_path=str(path), checkpoint_interval=100
    )
    resumed = resume(ck, extended)
    fresh = run_verification(RunConfig(limit=2000, checks=("theorem1",)))
    assert resumed.canonical_lines() == fresh.canonical_lines()


def test_resume_leaves_the_start_checkpoint_unchanged(tmp_path, monkeypatch):
    monkeypatch.setitem(CHECKS, "late", CheckDef("late", "test-only", 1, lambda b: b.ns > 150))
    path = tmp_path / "run.ck"
    checks = ("theorem1", "late")
    run_verification(RunConfig(1000, checks, checkpoint_path=str(path), checkpoint_interval=100))
    ck = read_checkpoint(path)
    before = copy.deepcopy(vars(ck))
    resumed = resume(ck, RunConfig(2000, checks))
    assert vars(ck) == before
    assert [(cs.name, cs.violations) for cs in resumed.checks] == [("theorem1", 0), ("late", 153)]


def test_resume_validation(tmp_path):
    # The state a theorem1 run to 1000 checkpoints at n = 25 (p_25 = 97).
    ck = Checkpoint(
        version=CHECKPOINT_VERSION,
        limit=1000,
        last_n=25,
        last_p=97,
        gap_max=8,
        violation_counts={"theorem1": 0},
        first_violations={},
        maximal_records=(
            GapRecord(1, 2, 1, True, 1),
            GapRecord(2, 3, 2, True, 1),
            GapRecord(4, 7, 4, True, 1),
            GapRecord(9, 23, 6, True, 2),
            GapRecord(24, 89, 8, True, 6),
        ),
    )
    fresh = run_verification(RunConfig(limit=1000, checks=("theorem1",)))
    resumed = resume(ck, RunConfig(limit=1000, checks=("theorem1",)))
    assert resumed.canonical_lines() == fresh.canonical_lines()
    with pytest.raises(IncompatibleResumeError, match="below the checkpoint"):
        resume(ck, RunConfig(limit=50, checks=("theorem1",)))
    with pytest.raises(IncompatibleResumeError, match="do not match"):
        resume(ck, RunConfig(limit=1000, checks=("theorem1", "bertrand")))
    stale = dataclasses.replace(ck, version=CHECKPOINT_VERSION + 1)
    with pytest.raises(CheckpointVersionError):
        resume(stale, RunConfig(limit=1000, checks=("theorem1",)))
    # A position the stream would silently misnumber: last_p must be p_(last_n).
    for forged, match in (
        (dict(last_p=96), "last_p = 96 is not p_25"),  # composite
        (dict(last_p=101), "last_p = 101 is not p_25"),  # p_26
        (dict(last_n=24), "last_p = 97 is not p_24"),
        (dict(last_n=26), "last_p = 97 is not p_26"),
    ):
        with pytest.raises(IncompatibleResumeError, match=match):
            resume(dataclasses.replace(ck, **forged), RunConfig(limit=1000, checks=("theorem1",)))
    # Counters that pass the hash but cannot come from a run to last_n = 25.
    m = ck.maximal_records
    late = GapRecord(30, 113, 14, True, 4)
    for forged, match in (
        (dict(gap_max=500), "gap_max"),
        (dict(gap_max=6), "gap_max"),
        (dict(maximal_records=m[:-1]), "gap_max"),
        (dict(maximal_records=(), gap_max=0), "maximal records"),
        (dict(maximal_records=(m[1], m[0]) + m[2:]), "maximal records"),
        (dict(maximal_records=m[:2] + (GapRecord(4, 7, 2, True, 1),) + m[3:]), "maximal records"),
        (dict(maximal_records=m + (late,), gap_max=14), "maximal records"),
        (dict(violation_counts={"theorem1": -7}), "count"),
        (dict(violation_counts={"theorem1": 26}), "count"),
        (dict(violation_counts={"theorem1": 1}), "first violation"),
        (dict(first_violations={"theorem1": GapRecord(5, 11, 2, False, 2)}), "first violation"),
        (
            dict(violation_counts={"theorem1": 1}, first_violations={"theorem1": late}),
            "first violation",
        ),
    ):
        with pytest.raises(IncompatibleResumeError, match=match):
            resume(dataclasses.replace(ck, **forged), RunConfig(limit=1000, checks=("theorem1",)))
    # epsilon_1_13 applies from n = 119 on, so by n = 25 it has no index to violate
    eps = dataclasses.replace(
        ck,
        violation_counts={"theorem1": 0, "epsilon_1_13": 1},
        first_violations={"epsilon_1_13": GapRecord(20, 71, 2, False, 4)},
    )
    with pytest.raises(IncompatibleResumeError, match="count"):
        resume(eps, RunConfig(limit=1000, checks=("theorem1", "epsilon_1_13")))
    # Stored records that fit the counters but are not the stream's records.
    t1 = RunConfig(limit=1000, checks=("theorem1",))
    for records in (
        m[:-1] + (GapRecord(24, 91, 8, True, 6),),  # 91 = 7 * 13
        m[:-1] + (GapRecord(23, 89, 8, True, 6),),  # 89 is p_24
        m[:-1] + (GapRecord(24, 89, 8, True, 7),),  # 6 primes in (89, 113]
        m[:2] + (GapRecord(4, 7, 6, True, 1),) + m[4:],  # 7 is followed by 11
        m[:-1] + (GapRecord(24, 89, 8, False, 6),),  # a maximal record without its flag
    ):
        with pytest.raises(IncompatibleResumeError, match="maximal record n="):
            resume(dataclasses.replace(ck, maximal_records=records), t1)
    # Dropping a record keeps the list rising, but the reference has every record to last_p.
    with pytest.raises(IncompatibleResumeError, match="maximal record n=9,p=23,gap=6,margin=2 is"):
        resume(dataclasses.replace(ck, maximal_records=m[:3] + m[4:]), t1)
    for first, match in (
        (GapRecord(20, 71, 30, False, 0), "first violation of theorem1 n=20"),  # gap is 2
        (GapRecord(20, 71, 2, False, 4), "n=20 does not violate"),  # the true record
    ):
        forged = dataclasses.replace(
            ck, violation_counts={"theorem1": 1}, first_violations={"theorem1": first}
        )
        with pytest.raises(IncompatibleResumeError, match=match):
            resume(forged, t1)


def test_records_past_the_reference_are_checked_on_the_oracles():
    # The first record past TABLE1_LIMIT (OEIS A002386), stored at its own index.
    reference = [
        GapRecord(n, p, gap, True, margin)
        for n, p, gap, starred, margin, _ in TABLE1_REFERENCE
        if starred
    ]
    past = GapRecord(64_955_634, 1_294_268_491, 288, True, 3_092_666)
    limit = 2 * 10**9
    ck = Checkpoint(
        CHECKPOINT_VERSION, limit, past.n, past.p, past.gap, {"theorem1": 0}, {}, (*reference, past)
    )
    config = RunConfig(limit=limit, checks=("theorem1",))
    check_resume(ck, config)
    for forged in (dict(theorem1_margin=past.theorem1_margin + 1), dict(gap=290)):
        record = dataclasses.replace(past, **forged)
        forged_ck = dataclasses.replace(
            ck, maximal_records=(*reference, record), gap_max=record.gap
        )
        with pytest.raises(IncompatibleResumeError, match="maximal record n=64955634"):
            check_resume(forged_ck, config)


def test_reproduce_table1_subset():
    rows = reproduce_table1(1_000_000)
    assert len(rows) == 42  # indices 1..30 plus the 12 record rows with p <= 1e6
    assert table1_mismatches(rows, 1_000_000) == []
    first = rows[0]
    assert (first.n, first.p, first.gap, first.starred, first.margin) == (1, 2, 1, True, 1)
    assert first.bound == pytest.approx(4.328085122666891, rel=1e-12)
    assert rows[-1].p == 492113


def test_reproduce_table1_validation():
    with pytest.raises(ValueError):
        reproduce_table1(2)
    with pytest.raises(ValueError):
        reproduce_table1(436273010)


def test_table1_mismatch_detection():
    rows = reproduce_table1(200)
    assert table1_mismatches(rows, 200) == []
    corrupted = list(rows)
    corrupted[5] = dataclasses.replace(corrupted[5], gap=corrupted[5].gap + 2)
    assert any("row n=6" in msg for msg in table1_mismatches(corrupted, 200))
    missing = rows[:-1]
    assert any(msg.startswith("missing row") for msg in table1_mismatches(missing, 200))
    extra = list(rows) + [Table1Row(n=31, p=127, gap=4, starred=False, margin=5, bound=26.4)]
    assert any(msg.startswith("unexpected row") for msg in table1_mismatches(extra, 200))
    drifted = list(rows)
    drifted[0] = dataclasses.replace(drifted[0], bound=drifted[0].bound + 0.06)
    assert any("0.05" in msg or "rounds to" in msg for msg in table1_mismatches(drifted, 200))


def test_reproduce_table1_resume_matches_direct(tmp_path):
    direct = reproduce_table1(1_000_000)
    path = tmp_path / "table.ck"
    reproduce_table1(1_000_000, checkpoint_path=str(path), checkpoint_interval=20_000)
    ck = read_checkpoint(path)
    assert ck.last_n == 60_000
    options = dict(checkpoint_path=str(path), checkpoint_interval=20_000)
    check_resume(ck, table1_config(1_000_000, **options))
    resumed = reproduce_table1(1_000_000, **options, start=ck)
    assert resumed == direct


def test_a_default_run_to_1e8_lists_few_windows_primes(monkeypatch):
    # Records are read off the sieve's flags, every check is decided from a
    # block's first index and prime, its records and its gap bound, and a
    # waiting record's margin is counted off the flags, so a window's primes
    # are listed only in the first window, whose gap checks go row by row.
    # A fallback to listing every window fails here.
    monkeypatch.setenv("PRIMEGAP_THREADS", "1")
    listed = []
    flag_primes = gaps.flag_primes
    monkeypatch.setattr(
        gaps, "flag_primes", lambda first, flags: listed.append(first) or flag_primes(first, flags)
    )
    summary = run_verification(RunConfig(limit=10**8))
    assert summary.clean and summary.primes_processed == 5_761_455
    assert len(summary.maximal_records) == 25
    assert len(listed) <= 8, listed


def test_a_checkpointed_run_to_1e8_lists_no_cut_windows_primes(monkeypatch, tmp_path):
    # A checkpoint cut splits its window's flags at the prime after the
    # multiple, so the five cuts to 1e8 list no primes: all 8 checks list
    # only the first window's.
    monkeypatch.setenv("PRIMEGAP_THREADS", "1")
    listed = []
    flag_primes = gaps.flag_primes
    monkeypatch.setattr(
        gaps, "flag_primes", lambda first, flags: listed.append(first) or flag_primes(first, flags)
    )
    config = RunConfig(10**8, tuple(CHECKS), checkpoint_path=str(tmp_path / "run.ck"),
                       checkpoint_interval=10**6)
    summary = run_verification(config)
    assert summary.clean and summary.primes_processed == 5_761_455
    assert len(summary.maximal_records) == 25
    assert read_checkpoint(tmp_path / "run.ck").last_n == 5_000_000  # the last multiple
    assert len(listed) <= 7, listed


def test_a_theorem1_run_builds_no_columns(monkeypatch):
    # theorem1 is decided from each block's records, and every record's
    # margin is counted off a block's flags or settled by prime_pi_at at the
    # end, so no block lists its window's primes, not even the first.
    monkeypatch.setenv("PRIMEGAP_THREADS", "1")
    listed = []
    flag_primes = gaps.flag_primes
    monkeypatch.setattr(
        gaps, "flag_primes", lambda first, flags: listed.append(first) or flag_primes(first, flags)
    )
    summary = run_verification(RunConfig(10**7, ("theorem1",)))
    assert summary.clean and summary.primes_processed == 664_579
    expected = [(n, p, gap, margin) for n, p, gap, starred, margin, _ in TABLE1_REFERENCE
                if starred and p < 10**7]
    assert [(r.n, r.p, r.gap, r.theorem1_margin) for r in summary.maximal_records] == expected
    assert listed == []


@pytest.mark.parametrize("limit, checks, primes", [
    (3 * 10**7, tuple(CHECKS), 1_857_859),
    (2 * 10**8, ("theorem1",), 11_078_937),
])
def test_a_run_holds_about_one_window_at_a_time(monkeypatch, limit, checks, primes):
    # Nothing holds a block while the next window is sieved, and pi at the
    # targets left waiting is counted off each window's flags, released in
    # turn.  The theorem1 run ends with two records waiting, at p + n =
    # 200 235 091 and 202 568 245, more than one window apart.  So the
    # traced peak stays within two default windows' flags (one bool per odd
    # integer), though either run holds flags, masks and rows together.
    monkeypatch.setenv("PRIMEGAP_THREADS", "1")
    tracemalloc.start()
    try:
        summary = run_verification(RunConfig(limit, checks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.clean and summary.primes_processed == primes
    assert peak <= 2 * (DEFAULT_SEGMENT_SIZE // 2), f"traced peak {peak / 2**20:.2f} MiB"
