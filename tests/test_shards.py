"""Sharded runs: K forked shards must give exactly the output of one process.

`shards(k)` forces K shards at small limits by lowering the private minimum
shard size; children are forked, so they see every monkeypatch (the minimum,
synthetic CHECKS entries, patched functions).
"""

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from primegaps import verify
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


@pytest.mark.parametrize(
    "workers, checkpoint, threads", [(2, True, 2), (2, False, 1), (4, False, 2)]
)
def test_shards_share_the_workers_as_sieve_threads(
    shards, monkeypatch, tmp_path, workers, checkpoint, threads
):
    shards(workers)
    monkeypatch.setattr(verify, "_MIN_SHARD", AT_PRIME // 2)  # at most two shards
    seen = []

    class Stream(verify.GapBlockStream):
        def __init__(self, *args):
            seen.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(verify, "GapBlockStream", Stream)
    path = str(tmp_path / "run.ck") if checkpoint else None
    run_verification(RunConfig(limit=AT_PRIME, checkpoint_path=path))
    assert seen == [threads]  # this process's shard; children run theirs


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
    assert multiprocessing.active_children() == []


def test_child_that_raises_gives_one_error_line(capsys, shards, monkeypatch):
    shards(2)

    def broken(x):
        raise RuntimeError("no count today")

    monkeypatch.setattr(verify, "prime_pi", broken)  # only shard children call it
    code, _, err = cli_out(capsys, ["table1", "--max-prime", str(AT_PRIME)])
    assert code == EXIT_ERROR
    assert err.count("\n") == 1 and err.startswith("error: shard (29989, 59977] failed")
    assert "RuntimeError: no count today" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []


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
    assert multiprocessing.active_children() == []


def test_header_written_before_the_fork_appears_once():
    # 9e6 is two default shards of _MIN_SHARD integers, so the subprocess shards unpatched
    argv = [sys.executable, "-m", "primegaps", "verify", "--limit", "9000000"]

    def run(threads: str) -> str:
        env = dict(os.environ, PRIMEGAP_THREADS=threads)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        return proc.stdout

    sharded = run("2")
    assert sharded.count(RECORD_CSV_HEADER) == 1
    assert sharded == run("1")

