"""Sharded runs: K forked shards must give exactly the output of one process.

`shards(k)` forces K shards at small limits by lowering the private minimum
shard size; children are forked, so they see every monkeypatch (the minimum,
synthetic CHECKS entries, patched functions).
"""

import dataclasses
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_children
from primegaps import gaps, sieve, verify
from primegaps.cli import EXIT_ERROR, EXIT_FINDING, EXIT_OK, RECORD_CSV_HEADER, main
from primegaps.gaps import GapRecord
from primegaps.sieve import is_prime_oracle
from primegaps.verify import CHECKS, CheckDef, RunConfig, run_verification

# limits whose K = 2 cut lies at a prime (29 989) and just below it (29 988)
AT_PRIME, BELOW_PRIME = 59_977, 59_975


@pytest.fixture
def shards(monkeypatch):
    """Call with K to make the next runs use K shards (K = 1: one process)."""
    monkeypatch.setattr(verify, "_MIN_SHARD", 100)

    def use(k: int) -> None:
        monkeypatch.setenv("PRIMEGAP_THREADS", str(k))

    return use


@pytest.fixture
def gap_ge_30(monkeypatch):
    """A synthetic check that fails on every gap >= 30, so later shards hold violations."""
    monkeypatch.setitem(
        CHECKS, "gap_lt_30", CheckDef("gap_lt_30", "test-only", 1, lambda b: b.gaps >= 30)
    )


def cli_out(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def cuts(limit: int) -> list[int]:
    return verify._shard_cuts(RunConfig(limit=limit), 1)


def test_cut_points(shards):
    shards(2)
    assert cuts(AT_PRIME) == [1, 29_989, AT_PRIME] and is_prime_oracle(29_989)
    assert cuts(BELOW_PRIME) == [1, 29_988, BELOW_PRIME]
    shards(3)
    assert len(cuts(AT_PRIME)) == 4
    shards(5)
    assert cuts(250) == [1, 125, 250]  # shards of at least _MIN_SHARD integers
    shards(1)
    assert cuts(AT_PRIME) == [1, AT_PRIME]
    assert verify._shard_cuts(RunConfig(limit=AT_PRIME, emit="all"), 1) == [1, AT_PRIME]
    ck = RunConfig(limit=AT_PRIME, checkpoint_path="unused.ck")
    assert verify._shard_cuts(ck, 1) == [1, AT_PRIME]
    shards(2)  # a checkpointed run shards like any other
    assert verify._shard_cuts(ck, 1) == cuts(AT_PRIME)


def test_a_shard_spans_at_least_four_default_windows(monkeypatch):
    # 4 * 2**21 = 8 388 608 integers, so two workers cut a range in two only
    # from twice that on
    monkeypatch.setenv("PRIMEGAP_THREADS", "2")
    assert verify._MIN_SHARD == 4 * sieve.DEFAULT_SEGMENT_SIZE == 8_388_608
    assert cuts(2 * 8_388_608) == [1, 2 * 8_388_608]
    assert cuts(1 + 2 * 8_388_608) == [1, 1 + 8_388_608, 1 + 2 * 8_388_608]


@pytest.mark.parametrize("emit, min_shard", [("all", 100), ("maximal", AT_PRIME // 2)])
def test_a_run_starts_no_thread(shards, monkeypatch, emit, min_shard):
    # one shard streaming every row, and two shards for four workers
    shards(4)
    monkeypatch.setattr(verify, "_MIN_SHARD", min_shard)
    seen = []

    def sink(r: GapRecord) -> None:
        assert threading.active_count() == 1
        seen.append(r)

    run_verification(RunConfig(limit=AT_PRIME, emit=emit), sink=sink)
    assert seen


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("limit", [AT_PRIME, BELOW_PRIME])
@pytest.mark.parametrize("fmt", ["csv", "jsonl", "table"])
@pytest.mark.parametrize("emit", ["maximal", "violations"])
def test_verify_output_does_not_depend_on_shards(capsys, shards, gap_ge_30, k, limit, fmt, emit):
    argv = ["verify", "--limit", str(limit), "--format", fmt, "--emit", emit]
    argv += ["--checks", "theorem1,gap_lt_30,bertrand"]
    shards(1)
    one = cli_out(capsys, argv)
    shards(k)
    assert cli_out(capsys, argv)[:2] == one[:2]
    assert one[0] == EXIT_FINDING


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--max-prime", "1000000", "--format", "csv"],
        ["gaps", "--maximal-only", "--limit", "10000000"],
    ],
)
def test_table1_and_record_gaps_do_not_depend_on_shards(capsys, shards, k, argv):
    shards(1)
    one = cli_out(capsys, argv)
    shards(k)
    assert cli_out(capsys, argv) == one
    assert one[0] == EXIT_OK


@pytest.mark.parametrize("k", [2, 3])
def test_merged_summary_equals_one_shard(shards, gap_ge_30, k):
    config = RunConfig(limit=AT_PRIME, checks=("theorem1", "gap_lt_30", "epsilon_1_13"))
    shards(1)
    one = run_verification(config)
    shards(k)
    merged = run_verification(config)
    for field in dataclasses.fields(one):
        if field.name != "wall_time_s":
            assert getattr(merged, field.name) == getattr(one, field.name), field.name
    stats = {cs.name: cs for cs in merged.checks}
    assert stats["gap_lt_30"].first_violation.p < cuts(AT_PRIME)[1]  # taken from shard 0
    assert stats["gap_lt_30"].violations > 0


def test_violations_and_first_violations_in_later_shards(shards, monkeypatch):
    # a check failing only on each later shard's first row: locally a record, globally not
    shards(3)
    later = cuts(AT_PRIME)[1:-1]
    starts = [next(p for p in range(x + 1, x + 99) if is_prime_oracle(p)) for x in later]
    monkeypatch.setitem(
        CHECKS, "starts", CheckDef("starts", "test-only", 1, lambda b: np.isin(b.ps, starts))
    )
    config = RunConfig(limit=AT_PRIME, checks=("starts",), emit="violations")
    rows: list[GapRecord] = []
    summary = run_verification(config, sink=rows.append)
    assert [r.p for r in rows] == starts
    assert not any(r.is_maximal for r in rows)
    (stats,) = summary.checks
    assert stats.violations == 2 and stats.first_violation == rows[0]
    shards(1)
    one_rows: list[GapRecord] = []
    assert run_verification(config, sink=one_rows.append).checks == summary.checks
    assert one_rows == rows


def test_no_child_is_left_after_a_clean_run(shards):
    shards(3)
    assert run_verification(RunConfig(limit=AT_PRIME)).clean
    assert_no_children()


def test_child_that_raises_gives_one_error_line(capsys, shards, monkeypatch):
    shards(2)

    def broken(x):
        raise RuntimeError("no count today")

    monkeypatch.setattr(verify, "prime_pi", broken)  # only shard children call it
    code, _, err = cli_out(capsys, ["table1", "--max-prime", str(AT_PRIME)])
    assert code == EXIT_ERROR
    assert err.count("\n") == 1 and err.startswith("error: shard (29989, 59977] failed")
    assert "RuntimeError: no count today" in err and "Traceback" not in err
    assert_no_children()


def test_shard_start_past_the_pi_range_gives_one_error_line(capsys, shards, monkeypatch):
    shards(2)
    monkeypatch.setattr(sieve, "PRIME_PI_MAX", 29_988)  # the child counts pi(29 989)
    code, out, err = cli_out(capsys, ["table1", "--max-prime", str(AT_PRIME)])
    assert code == EXIT_ERROR and out == ""
    assert err == (
        "error: shard (29989, 59977] failed: OverflowError: "
        "pi(x) is computed for x <= 29988, got 29989\n"
    )


def test_child_failure_stops_the_parent_before_its_shard_ends(shards, monkeypatch):
    shards(2)
    cut = cuts(AT_PRIME)[1]

    def broken(x):
        raise RuntimeError("no count today")

    monkeypatch.setattr(verify, "prime_pi", broken)  # only shard children call it
    seen = []

    def slow(block):  # runs in the parent only: the child fails before its first block
        seen.append(int(block.ps[-1]))
        time.sleep(0.02)
        return np.zeros(len(block), dtype=bool)

    monkeypatch.setitem(CHECKS, "slow", CheckDef("slow", "test-only", 1, slow))
    config = RunConfig(limit=AT_PRIME, checks=("theorem1", "slow"), segment_size=200)
    with pytest.raises(verify.ShardError, match="RuntimeError: no count today"):
        run_verification(config)
    assert seen and max(seen) < cut


@pytest.mark.parametrize("exc", [OSError, BrokenPipeError])
@pytest.mark.parametrize("where", ["first shard", "later shard"])
def test_no_child_is_left_after_a_sink_raises(shards, monkeypatch, exc, where):
    shards(3)
    cut = cuts(AT_PRIME)[1]
    if where == "first shard":  # the children are still busy when the sink fails
        monkeypatch.setattr(verify, "prime_pi", lambda x: time.sleep(60))

    def sink(r: GapRecord) -> None:
        if where == "first shard" or r.p > cut:
            raise exc("sink closed")

    t0 = time.monotonic()
    with pytest.raises(exc):
        run_verification(RunConfig(limit=AT_PRIME), sink=sink)
    assert time.monotonic() - t0 < 30  # busy children are stopped, not waited for
    assert_no_children()


def buffered_env(threads: str) -> dict[str, str]:
    """The environment with `threads` workers and stdout block-buffered, as on a pipe:
    a header written before a fork then sits in the buffer the child inherits."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PRIMEGAP_THREADS=threads)


def test_header_written_before_the_fork_appears_once(monkeypatch):
    # 1.7e7 is two default shards of _MIN_SHARD integers, so the subprocess shards unpatched
    monkeypatch.setenv("PRIMEGAP_THREADS", "2")
    assert len(verify._shard_cuts(RunConfig(limit=17_000_000), 1)) == 3
    argv = [sys.executable, "-m", "primegaps", "verify", "--limit", "17000000"]

    def run(threads: str) -> str:
        proc = subprocess.run(
            argv, env=buffered_env(threads), capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        return proc.stdout

    sharded = run("2")
    assert sharded.count(RECORD_CSV_HEADER) == 1
    assert sharded == run("1")


def test_child_that_exits_by_system_exit_gives_one_error_line():
    # a SystemExit in the child must not leave through the parent's frames, which
    # would flush the header the child inherited (or run the parent's shard again)
    script = (
        "import sys\n"
        "from primegaps import cli, verify\n"
        "def leave(x):\n"
        "    raise SystemExit(0)\n"
        "verify._MIN_SHARD = 100\n"
        "verify.prime_pi = leave  # only shard children call it\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = [sys.executable, "-c", script, "verify", "--limit", str(AT_PRIME)]
    proc = subprocess.run(argv, env=buffered_env("2"), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_ERROR
    assert proc.stdout.count(RECORD_CSV_HEADER) == 1
    assert proc.stderr == "error: a shard process exited without its result\n"


# (limit, interval, K, the shard holding the run's last multiple of the interval)
CHECKPOINT_CASES = [
    (45_000, 2_500, 2, 1),  # shard 2 holds no multiple
    (BELOW_PRIME, 1_000, 2, 2),
    (AT_PRIME, 4_000, 3, 2),  # shards 1 and 3 hold none
    (AT_PRIME, 1_000, 3, 3),  # every shard holds several
    (30_000, 2_500, 3, 3),  # only shard 3 holds one
]
CHECKPOINT_ARGV = [
    ["verify", "--emit", "maximal"],
    ["verify", "--emit", "violations", "--checks", "theorem1,gap_lt_30,bertrand"],
    ["table1", "--format", "csv"],
]


def parent_writes(limit: int, interval: int) -> list[int]:
    """The indices a sharded run writes: each multiple in the first shard, then
    the last multiple of each later shard that holds one."""
    ns = [verify.prime_pi(x) for x in cuts(limit)]
    last = [n // interval * interval for n in ns]
    later = [m for m, before in zip(last[2:], last[1:]) if m > before]
    return list(range(interval, last[1] + 1, interval)) + later


def checkpointed_run(capsys, monkeypatch, argv, k, shards):
    """(exit code, stdout, [(last_n, file bytes) per write], final file bytes) on K shards."""
    path = Path(argv[argv.index("--checkpoint") + 1])
    writes = []

    def record(p, ck):
        write(p, ck)
        writes.append((ck.last_n, Path(p).read_bytes()))

    write = verify.write_checkpoint
    monkeypatch.setattr(verify, "write_checkpoint", record)
    shards(k)
    code, out, _ = cli_out(capsys, argv)
    monkeypatch.setattr(verify, "write_checkpoint", write)
    final = path.read_bytes()
    path.unlink()
    return code, out, writes, final


@pytest.mark.parametrize("argv", CHECKPOINT_ARGV, ids=["maximal", "violations", "table1"])
@pytest.mark.parametrize("limit, interval, k, shard", CHECKPOINT_CASES)
def test_checkpointed_runs_do_not_depend_on_shards(
    capsys, monkeypatch, tmp_path, shards, gap_ge_30, argv, limit, interval, k, shard
):
    shards(k)
    expected = parent_writes(limit, interval)
    last = verify.prime_pi(limit) // interval * interval
    assert expected[-1] == last and verify.prime_pi(cuts(limit)[shard - 1]) < last
    assert last <= verify.prime_pi(cuts(limit)[shard])
    flag = "--max-prime" if argv[0] == "table1" else "--limit"
    argv = argv + [flag, str(limit), "--checkpoint", str(tmp_path / "run.ck")]
    argv += ["--interval", str(interval)]
    one = checkpointed_run(capsys, monkeypatch, argv, 1, shards)
    code, out, writes, final = checkpointed_run(capsys, monkeypatch, argv, k, shards)
    assert (code, out, final) == (one[0], one[1], one[3])
    assert [n for n, _ in one[2]] == list(range(interval, last + 1, interval))
    # a later shard's earlier multiples are not written; each written file is the one-shard one
    assert [n for n, _ in writes] == expected
    assert set(writes) <= set(one[2])


def test_sharded_resume_of_a_sharded_run_equals_the_uninterrupted_run(
    capsys, tmp_path, shards, gap_ge_30
):
    path = str(tmp_path / "run.ck")
    argv = ["verify", "--emit", "violations", "--checks", "theorem1,gap_lt_30"]
    argv += ["--checkpoint", path, "--interval", "1000"]
    shards(1)
    code, full, _ = cli_out(capsys, argv + ["--limit", "100000"])
    full_ck = Path(path).read_bytes()
    shards(3)
    assert cli_out(capsys, argv + ["--limit", str(AT_PRIME)])[0] == code == EXIT_FINDING
    ck = verify.read_checkpoint(path)
    assert ck.last_n == 6000
    config = RunConfig(limit=100_000, checks=("theorem1", "gap_lt_30"), checkpoint_path=path)
    assert len(verify._shard_cuts(config, ck.last_p)) == 4  # the resume shards too
    code, resumed, _ = cli_out(capsys, argv + ["--limit", "100000", "--resume"])
    assert code == EXIT_FINDING and Path(path).read_bytes() == full_ck
    header, *rows = full.splitlines()
    after = [r for r in rows if r.startswith("#") or int(r.split(",")[0]) > ck.last_n]
    assert resumed.splitlines() == [header, *after]


def test_child_that_fails_leaves_the_last_merged_checkpoint(capsys, monkeypatch, tmp_path, shards):
    # K = 3 to 59 977 at interval 1000: the parent writes 1000 and 2000 (its own shard), then
    # 4000 when it merges shard 2; shard 3 fails past p = 55 000, after its own multiple 5000
    def boom(block):
        if block.ps[-1] > 55_000:
            raise RuntimeError("disk on fire")
        return np.zeros(len(block), dtype=bool)

    monkeypatch.setitem(CHECKS, "boom", CheckDef("boom", "test-only", 1, boom))
    path = tmp_path / "run.ck"
    argv = ["verify", "--limit", str(AT_PRIME), "--checks", "theorem1,boom"]
    argv += ["--checkpoint", str(path), "--interval", "1000"]
    shards(3)
    code, _, err = cli_out(capsys, argv)
    assert code == EXIT_ERROR and err.count("\n") == 1
    assert err.startswith(f"error: shard ({cuts(AT_PRIME)[2]}, 59977] failed: RuntimeError: disk")
    assert_no_children()
    assert [f.name for f in tmp_path.iterdir()] == ["run.ck"]  # no *.tmp left
    ck = verify.read_checkpoint(path)
    assert ck.last_n == 4000
    config = RunConfig(limit=AT_PRIME, checks=("theorem1", "boom"))
    verify.check_resume(ck, config)

    monkeypatch.setitem(CHECKS, "boom", CheckDef("boom", "test-only", 1, lambda b: b.gaps < 0))
    code, resumed, _ = cli_out(capsys, argv + ["--resume"])
    assert code == EXIT_OK
    resumed_ck = path.read_bytes()
    shards(1)
    code, full, _ = cli_out(capsys, argv)
    header, *rows = full.splitlines()
    after = [r for r in rows if r.startswith("#") or int(r.split(",")[0]) > 4000]
    assert resumed.splitlines() == [header, *after] and path.read_bytes() == resumed_ck


def test_shard_that_does_not_continue_the_index_gives_one_error_line(capsys, monkeypatch, shards):
    shards(2)
    pi = verify.prime_pi
    monkeypatch.setattr(verify, "prime_pi", lambda x: pi(x) + 1)  # only shard children call it
    code, _, err = cli_out(capsys, ["verify", "--limit", str(AT_PRIME)])
    n0 = pi(29_989)
    assert code == EXIT_ERROR and err.count("\n") == 1
    assert err == (
        f"error: shard (29989, 59977] starts after index {n0 + 1} "
        f"but the shards before it end at index {n0}\n"
    )
    assert_no_children()


REAL_CHECKS = tuple(CHECKS)  # the 8 registered checks


@settings(deadline=None, max_examples=20)
@given(
    limit=st.integers(min_value=3, max_value=250_000),
    segment_size=st.sampled_from([64, 1000, 4096, 1 << 14, 1 << 20]),
    interval=st.one_of(st.none(), st.integers(min_value=500, max_value=30_000)),
    emit=st.sampled_from(["maximal", "violations"]),
    k=st.sampled_from([1, 2]),
    above=st.integers(min_value=20, max_value=90),
)
def test_flag_blocks_give_the_results_of_listed_blocks(
    tmp_path_factory, limit, segment_size, interval, emit, k, above
):
    # A run whose stream takes every pair of consecutive primes as a record
    # candidate (as if no gap above the record covered a whole word of flags)
    # is the reference for the word-run search.  A synthetic
    # check fails on gaps above `above`, deciding blocks from their gap bound
    # first as the real ones do, so runs hold violations, their rows and
    # first offenders.
    path = tmp_path_factory.mktemp("ck") / "run.ck"
    gap_above = CheckDef("gap_above", "test-only", 1, lambda b: (
        np.zeros(len(b), dtype=bool) if b.gap_bound <= above else b.gaps > above))
    results = []
    for every_pair in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_MIN_SHARD", 100)
            patch.setenv("PRIMEGAP_THREADS", str(k))
            patch.setitem(CHECKS, "gap_above", gap_above)
            if every_pair:
                patch.setattr(gaps, "_words_above", lambda record: 0)
            config = RunConfig(limit, (*REAL_CHECKS, "gap_above"), segment_size,
                               str(path) if interval else None, interval or 1, emit)
            rows = []
            summary = run_verification(config, rows.append)
            ck = path.read_bytes() if path.exists() else None
            path.unlink(missing_ok=True)
            results.append((summary.canonical_lines(), rows, ck))
    assert results[0] == results[1]
