import dataclasses

import numpy as np
import pytest

from primegaps.gaps import Block, GapRecord
from primegaps.sieve import primes_up_to
from primegaps.verify import (
    CHECKS,
    CHECKPOINT_VERSION,
    CheckDef,
    Checkpoint,
    CheckpointFormatError,
    CheckpointVersionError,
    IncompatibleResumeError,
    RunConfig,
    Table1Row,
    read_checkpoint,
    reproduce_table1,
    resume,
    run_verification,
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


def test_vectorized_checks_redecide_near_ties():
    # Synthetic rows whose float bound is within the marginal band of the gap:
    # p = 263101 has corollary1 bound 23118.999994... (gap 23119 violates) and
    # p = 60017 has empirical bound 5455.000000164... (gap 5455 is fine).
    from primegaps.verify import _violations_corollary1, _violations_empirical

    def one_row_block(p: int, gap: int) -> Block:
        arr = lambda v: np.array([v], dtype=np.int64)
        return Block(arr(10), arr(p), arr(gap), arr(1), np.array([False]))

    assert _violations_corollary1(one_row_block(263101, 23119)).tolist() == [True]
    assert _violations_corollary1(one_row_block(263101, 23118)).tolist() == [False]
    assert _violations_empirical(one_row_block(60017, 5455)).tolist() == [False]
    assert _violations_empirical(one_row_block(60017, 5456)).tolist() == [True]


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
        lookahead=np.array([101, 103, 107, 109, 113], dtype=np.int64),
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
    assert got.lookahead.tolist() == [101, 103, 107, 109, 113]
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
            lookahead=np.array([101], dtype=np.int64),
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
            lookahead=np.array([101], dtype=np.int64),
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
    assert ck.lookahead.tolist() == [101, 103, 107, 109, 113]  # primes in (97, 122]
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


def test_resume_validation(tmp_path):
    ck = Checkpoint(
        version=CHECKPOINT_VERSION,
        limit=1000,
        last_n=25,
        last_p=97,
        gap_max=8,
        lookahead=np.array([101, 103, 107, 109, 113], dtype=np.int64),
        violation_counts={"theorem1": 0},
        first_violations={},
        maximal_records=(),
    )
    with pytest.raises(IncompatibleResumeError, match="below the checkpoint"):
        resume(ck, RunConfig(limit=50, checks=("theorem1",)))
    with pytest.raises(IncompatibleResumeError, match="do not match"):
        resume(ck, RunConfig(limit=1000, checks=("theorem1", "bertrand")))
    empty = dataclasses.replace(ck, lookahead=np.empty(0, dtype=np.int64))
    with pytest.raises(IncompatibleResumeError, match="look-ahead"):
        resume(empty, RunConfig(limit=1000, checks=("theorem1",)))
    stale = dataclasses.replace(ck, version=CHECKPOINT_VERSION + 1)
    with pytest.raises(CheckpointVersionError):
        resume(stale, RunConfig(limit=1000, checks=("theorem1",)))
    for bad in (
        [113, 109, 107, 103, 101],  # reversed
        [101, 103, 103, 107, 109, 113],  # repeated
        [97, 101, 103, 107, 109, 113],  # reaches back to last_p
        [101, 103, 107, 109, 113, 127],  # beyond last_p + last_n = 122
    ):
        disordered = dataclasses.replace(ck, lookahead=np.array(bad, dtype=np.int64))
        with pytest.raises(IncompatibleResumeError, match="strictly ascending within"):
            resume(disordered, RunConfig(limit=1000, checks=("theorem1",)))


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
    with pytest.raises(ValueError, match="requires checkpoint_path"):
        reproduce_table1(1000, resume_from_checkpoint=True)


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
    resumed = reproduce_table1(
        1_000_000,
        checkpoint_path=str(path),
        checkpoint_interval=20_000,
        resume_from_checkpoint=True,
    )
    assert resumed == direct
