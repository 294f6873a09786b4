"""Batch verification of gap inequalities over prime ranges.

A verification run streams every prime up to a limit through a selected set
of per-prime checks, counting violations instead of stopping on them: a
violated inequality is a result to report, not an error.  Runs can write
periodic checkpoints and be resumed to produce byte-identical output.

`reproduce_table1` rebuilds the package's embedded 54-row reference table
(indices 1..30 plus every record gap up to 436273009) and
`table1_mismatches` diffs a rebuilt table against the embedded one.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import time
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Callable

import numpy as np

from . import bounds
from .gaps import Block, GapBlockStream, GapRecord, _StreamSeed, gap_stream
from .sieve import DEFAULT_SEGMENT_SIZE, MAX_LIMIT, _check_segment_size, is_prime_oracle
from .sieve import next_prime, prime_pi, prime_pi_at, sieve_threads

CHECKPOINT_VERSION = 2
DEFAULT_CHECKPOINT_INTERVAL = 1_000_000

RecordSink = Callable[[GapRecord], None]


# --------------------------------------------------------------------------
# check registry

@dataclass(frozen=True, slots=True)
class CheckDef:
    """One registered per-prime check: vectorized violations over a block."""

    name: str
    description: str
    first_index: int  # smallest prime index the check applies to
    violations: Callable[[Block], np.ndarray]

    def applied_count(self, last_n: int) -> int:
        """How many indices in [1, last_n] the check applies to."""
        return max(0, last_n - (self.first_index - 1))


def _gap_check(b: bounds.Bound) -> CheckDef:
    """The check of one gap bound: the rows where it applies and fails.

    A block from p0 >= GAP_BOUNDS_RISE_FROM whose gap bound (no gap of it is
    larger) meets the bound at p0 has no such row, so rows are decided only
    when that point fails.
    """
    first = b.first_index

    def violations(block: Block) -> np.ndarray:
        p0, top = block.first_p, block.gap_bound
        if block.last_n < first or p0 >= bounds.GAP_BOUNDS_RISE_FROM and b.decide(p0, top)[0]:
            return np.zeros(len(block), dtype=bool)
        fails = ~b.holds_many(block.ps, block.gaps)
        return fails & (block.ns >= first) if first > 1 else fails

    return CheckDef(b.name, b.description, first, violations)


def _theorem1_violations(block: Block) -> np.ndarray:
    """The rows with gap > n, read only when a record exceeds its index or a gap before
    the first record may exceed first_n (no gap exceeds the record at or before it)."""
    recs = block.records
    before = recs[0][2] if recs else block.gap_bound  # bounds the gaps before recs[0]
    if before > block.first_n or any(gap > n for n, _, gap in recs):
        return block.gaps > block.ns
    return np.zeros(len(block), dtype=bool)


CHECKS: dict[str, CheckDef] = {
    cd.name: cd
    for cd in (
        CheckDef(
            "theorem1",
            "gap(p_n) <= n, equivalently at least one prime in (p_n, p_n + n]",
            1,
            _theorem1_violations,
        ),
        *map(_gap_check, bounds.GAP_BOUNDS),
    )
}

DEFAULT_CHECKS: tuple[str, ...] = ("theorem1", "bertrand", "corollary1", "empirical")

EMIT_MODES = ("all", "maximal", "violations")


# --------------------------------------------------------------------------
# run configuration and results

@dataclass(frozen=True)
class RunConfig:
    """Parameters of one verification run."""

    limit: int
    checks: tuple[str, ...] = DEFAULT_CHECKS
    segment_size: int = DEFAULT_SEGMENT_SIZE
    checkpoint_path: str | None = None
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL
    emit: str = "maximal"

    def __post_init__(self) -> None:
        if self.limit < 3:
            raise ValueError(f"limit must be >= 3, got {self.limit}")
        if self.limit > MAX_LIMIT:
            raise OverflowError(f"limit {self.limit} exceeds supported maximum {MAX_LIMIT}")
        _check_segment_size(self.segment_size)
        if not self.checks:
            raise ValueError("at least one check must be selected")
        unknown = [name for name in self.checks if name not in CHECKS]
        if unknown:
            raise ValueError(
                f"unknown checks: {', '.join(unknown)} (available: {', '.join(sorted(CHECKS))})"
            )
        if len(set(self.checks)) != len(self.checks):
            raise ValueError("duplicate names in checks")
        if self.checkpoint_interval < 1:
            raise ValueError(f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}")
        if self.emit not in EMIT_MODES:
            raise ValueError(f"emit must be one of {EMIT_MODES}, got {self.emit!r}")


@dataclass(frozen=True, slots=True)
class CheckStats:
    """Per-check outcome of a run."""

    name: str
    applied: int
    violations: int
    first_violation: GapRecord | None


@dataclass(frozen=True)
class VerificationSummary:
    """Final state of a verification run (wall time excluded from equality-
    relevant content; see canonical_lines)."""

    limit: int
    primes_processed: int
    last_prime: int
    gap_max: int
    checks: tuple[CheckStats, ...]
    maximal_records: tuple[GapRecord, ...]
    wall_time_s: float

    @property
    def total_violations(self) -> int:
        return sum(cs.violations for cs in self.checks)

    @property
    def clean(self) -> bool:
        return self.total_violations == 0

    def canonical_lines(self) -> list[str]:
        """Deterministic summary lines: everything except timing."""
        lines = [
            f"limit = {self.limit}",
            f"primes_processed = {self.primes_processed}",
            f"last_prime = {self.last_prime}",
            f"gap_max = {self.gap_max}",
        ]
        for cs in self.checks:
            first = "-"
            if cs.first_violation is not None:
                r = cs.first_violation
                first = f"n={r.n},p={r.p},gap={r.gap},margin={r.theorem1_margin}"
            lines.append(
                f"check {cs.name}: applied={cs.applied} violations={cs.violations} first={first}"
            )
        lines.append(f"maximal_count = {len(self.maximal_records)}")
        for r in self.maximal_records:
            lines.append(f"maximal n={r.n} p={r.p} gap={r.gap} margin={r.theorem1_margin}")
        return lines


# --------------------------------------------------------------------------
# checkpoints

class CheckpointError(Exception):
    """Base class for checkpoint load/compatibility failures."""


class CheckpointFormatError(CheckpointError):
    """The checkpoint file is malformed or fails its integrity hash."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written by an unsupported format version."""


class IncompatibleResumeError(CheckpointError):
    """The checkpoint cannot seed a run with the given configuration."""


@dataclass(eq=False)
class Checkpoint:
    """Position last_p = p_(last_n) and what a run found up to it: the state a
    run, or one shard of it, carries and adds to, and the contents of a
    checkpoint file.  As written, every stored margin is settled; a resumed
    stream sieves on from last_p + 1."""

    version: int
    limit: int
    last_n: int
    last_p: int
    gap_max: int
    violation_counts: dict[str, int]
    first_violations: dict[str, GapRecord]
    maximal_records: tuple[GapRecord, ...]

    def copy(self, **changes) -> Checkpoint:
        """A copy that shares no dict with this one."""
        return replace(self, violation_counts=dict(self.violation_counts),
                       first_violations=dict(self.first_violations), **changes)


def _format_record(r: GapRecord) -> str:
    return f"{r.n}:{r.p}:{r.gap}:{int(r.is_maximal)}:{r.theorem1_margin}"


def _parse_record(text: str) -> GapRecord:
    n, p, gap, maximal, margin = (int(tok) for tok in text.split(":"))
    return GapRecord(n=n, p=p, gap=gap, is_maximal=bool(maximal), theorem1_margin=margin)


def write_checkpoint(path: str | Path, ck: Checkpoint) -> None:
    """Atomically write `ck` as UTF-8 `key = value` lines + sha256 trailer."""
    counts = ",".join(f"{name}:{ck.violation_counts[name]}" for name in sorted(ck.violation_counts))
    firsts = ";".join(
        f"{name}:{_format_record(ck.first_violations[name])}"
        for name in sorted(ck.first_violations)
    )
    maximal = ";".join(_format_record(r) for r in ck.maximal_records)
    lines = [
        f"format_version = {ck.version}",
        f"limit = {ck.limit}",
        f"last_n = {ck.last_n}",
        f"last_p = {ck.last_p}",
        f"gap_max = {ck.gap_max}",
        f"violation_counts = {counts or '-'}",
        f"first_violations = {firsts or '-'}",
        f"maximal_records = {maximal or '-'}",
    ]
    payload = "".join(line + "\n" for line in lines)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.write(f"sha256 = {digest}\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Load and validate a checkpoint file (hash, version, required keys)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"{path}: not a UTF-8 text file ({exc.reason})") from exc
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("sha256 = "):
        raise CheckpointFormatError(f"{path}: missing sha256 integrity line")
    stated = lines[-1][len("sha256 = ") :].strip()
    payload = "".join(line + "\n" for line in lines[:-1])
    actual = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if actual != stated:
        raise CheckpointFormatError(f"{path}: integrity hash mismatch (file corrupted?)")
    fields: dict[str, str] = {}
    for line in lines[:-1]:
        key, sep, value = line.partition(" = ")
        if not sep:
            raise CheckpointFormatError(f"{path}: malformed line {line!r}")
        fields[key] = value
    try:
        version = int(fields["format_version"])
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format version {version} unsupported (expected {CHECKPOINT_VERSION})"
            )
        limit, last_n, last_p, gap_max = (
            int(fields[key]) for key in ("limit", "last_n", "last_p", "gap_max")
        )
        raw_counts = fields["violation_counts"]
        raw_firsts = fields["first_violations"]
        raw_maximal = fields["maximal_records"]
        counts = {}
        if raw_counts != "-":
            for item in raw_counts.split(","):
                name, _, value = item.rpartition(":")
                counts[name] = int(value)
        firsts = {}
        if raw_firsts != "-":
            for item in raw_firsts.split(";"):
                name, _, rest = item.partition(":")
                firsts[name] = _parse_record(rest)
        maximal = (
            tuple(_parse_record(item) for item in raw_maximal.split(";"))
            if raw_maximal != "-"
            else ()
        )
    except KeyError as exc:
        raise CheckpointFormatError(f"{path}: missing key {exc}") from exc
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: unparseable field ({exc})") from exc
    return Checkpoint(version, limit, last_n, last_p, gap_max, counts, firsts, maximal)


# --------------------------------------------------------------------------
# the run engine

# A run is cut into shards of at least this many integers (four default windows, 8.4e6).
_MIN_SHARD = 4 * DEFAULT_SEGMENT_SIZE


class ShardError(RuntimeError):
    """A shard process of a run failed or exited without its result."""


def _fresh(config: RunConfig, last_n: int, last_p: int) -> Checkpoint:
    """The state of a run, or of one shard of it, that starts after p_(last_n) = last_p."""
    counts = dict.fromkeys(config.checks, 0)
    return Checkpoint(CHECKPOINT_VERSION, config.limit, last_n, last_p, 0, counts, {}, ())


def _at_multiple(config: RunConfig, state: Checkpoint) -> bool:
    """Whether a checkpointed run's index sits on a multiple of its interval."""
    return bool(config.checkpoint_path) and state.last_n % config.checkpoint_interval == 0


def _scan(config: RunConfig, state: Checkpoint, limit: int, sink: RecordSink | None,
          after_block: Callable[[Checkpoint], None]):
    """Check every prime in (state.last_p, limit], adding to `state`.

    Sieving, checks and `sink` all run on the calling thread; `sink`
    receives the rows config.emit selects, and `after_block` the state after
    each block.  With a checkpoint path configured, blocks end on every
    multiple of the checkpoint interval (see _at_multiple).

    A stored or sunk row waits, in index order, for its margin pi(p + n) - n:
    it is counted off the flags of the first block whose successor passes
    p + n (Block.pi_at), or, at a multiple of the interval and at the end,
    from prime_pi_at.  Under emit="all", `sink` gets every row with its
    margins, counted on from the last target of the block before.  The rows
    kept are a block's records, so its columns are read only where a check
    fails or every row is emitted.
    """
    cut = config.checkpoint_interval if config.checkpoint_path else None
    seed = _StreamSeed(state.last_n + 1, state.last_p, state.gap_max)
    stream = GapBlockStream(limit, config.segment_size, cut, seed)
    defs = [CHECKS[name] for name in config.checks]
    claimed = set(state.first_violations)  # checks whose first violation is stored or waiting
    waiting: list[tuple] = []  # (n, p, gap, is_maximal, to sink, first violation of)
    settle_to_sink = sink is not None and config.emit != "all"
    known = None  # (t, pi(t)) at the last target emitted under emit="all"

    def settle(pis: np.ndarray) -> None:
        """Pass on the first len(pis) waiting rows, given pi(p + n) for each."""
        for (n, p, gap, is_maximal, emitted, names), pi in zip(waiting, pis.tolist()):
            rec = GapRecord(n, p, gap, is_maximal, pi - n)
            if is_maximal:
                state.maximal_records += (rec,)
            for name in names:
                state.first_violations[name] = rec
            if emitted:
                sink(rec)
        del waiting[: len(pis)]

    for block in stream.blocks():
        violated = None
        firsts: dict[int, list[str]] = {}
        for cd in defs:
            hits = cd.violations(block)
            k = int(np.count_nonzero(hits))
            if k:
                state.violation_counts[cd.name] += k
                if cd.name not in claimed:
                    claimed.add(cd.name)
                    firsts.setdefault(int(np.flatnonzero(hits)[0]), []).append(cd.name)
                violated = hits if violated is None else violated | hits
        if config.emit == "all" and sink is not None:
            margins = block.margins_from(known)
            known = (block.last_p + block.last_n, block.last_n + int(margins[-1]))
            for rec in block.iter_records():
                sink(rec)
        if violated is None:  # the rows kept are the records, emitted under emit="maximal"
            emitted = settle_to_sink and config.emit == "maximal"
            waiting += [(n, p, gap, True, emitted, ()) for n, p, gap in block.records]
        else:
            emitted = violated if config.emit == "violations" else block.is_maximal
            emitted = emitted & settle_to_sink
            keep = block.is_maximal | emitted
            keep[list(firsts)] = True
            rows = np.flatnonzero(keep)
            cols = (block.ns, block.ps, block.gaps, block.is_maximal, emitted)
            names = [firsts.get(i, ()) for i in rows.tolist()]
            waiting += zip(*(c[rows].tolist() for c in cols), names)
        ts = np.array([n + p for n, p, *_ in waiting], dtype=np.int64)
        # the block holds every prime from p_(first_n) up to its successor next_p
        ready = int(np.searchsorted(ts, block.next_p))
        if ready:
            settle(block.pi_at(ts[:ready]))
        state.last_n, state.last_p, state.gap_max = block.last_n, block.last_p, block.gap_bound
        if waiting and _at_multiple(config, state):
            settle(prime_pi_at(ts[ready:]))
        after_block(state)
    if waiting:
        settle(prime_pi_at(ts[ready:]))


def _shard_cuts(config: RunConfig, x0: int) -> list[int]:
    """x0 < x_1 < ... < x_K = limit: run (x0, limit] as K shards (x_k, x_(k+1)].

    K is the worker count (PRIMEGAP_THREADS), and 1 when the run streams
    every row in order (emit="all"), cannot fork, or would cut shards below
    _MIN_SHARD integers.  A checkpointed run, or its resume from last_p,
    shards like any other.
    """
    k = 1
    if config.emit != "all" and hasattr(os, "fork"):
        k = max(1, min(sieve_threads(), (config.limit - x0) // _MIN_SHARD))
    return [x0 + (config.limit - x0) * i // k for i in range(k + 1)]


def _shard_child(config: RunConfig, lo: int, hi: int, keep_rows: bool, fd: int) -> None:
    """Run shard (lo, hi] in a forked child and pickle its result or a ShardError to `fd`.

    The shard starts after index n0 = pi(lo) with zero counters, so its
    records are local ones.  The result is (n0, state, rows, last), where
    last is a copy of the state at the shard's last multiple of the
    checkpoint interval (None without one).  The child leaves by os._exit on
    every path, BaseException included: it never returns into the parent's
    run, nor flushes the stdout buffers it inherited.
    """
    code = 1
    try:
        try:
            n0 = prime_pi(lo)
            state = _fresh(config, n0, lo)
            held: list[GapRecord] = []
            last = None

            def keep(s: Checkpoint) -> None:
                nonlocal last
                if _at_multiple(config, s):
                    last = s.copy()

            _scan(config, state, hi, held.append if keep_rows else None, keep)
            result = (n0, state, held, last)
        except Exception as exc:
            result = ShardError(f"shard ({lo}, {hi}] failed: {type(exc).__name__}: {exc}")
        with open(fd, "wb") as out:
            pickle.dump(result, out)
        code = int(isinstance(result, ShardError))
    finally:
        os._exit(code)


def _receive(fd: int):
    """A shard child's result, read to EOF.

    Raises the ShardError the child sent, or one if it sent nothing.
    """
    with open(fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    if not data:
        raise ShardError("a shard process exited without its result")
    got = pickle.loads(data)
    if isinstance(got, ShardError):
        raise got
    return got


def _merge(state: Checkpoint, shard: Checkpoint, rows: list[GapRecord], emit: str, sink) -> None:
    """Add a later shard's state to the state of the shards before it.

    Counts add and earlier first violations win.  A local record stays one
    only if its gap beats every gap before the shard; every other row of the
    shard loses its record flag.  Rows go to `sink` (under emit="maximal",
    only the records that stay).
    """
    kept = {r.n for r in shard.maximal_records if r.gap > state.gap_max}

    def flagged(r: GapRecord) -> GapRecord:
        return r if r.n in kept or not r.is_maximal else replace(r, is_maximal=False)

    for name, count in shard.violation_counts.items():
        state.violation_counts[name] += count
    for name, r in shard.first_violations.items():
        state.first_violations.setdefault(name, flagged(r))
    state.maximal_records += tuple(r for r in shard.maximal_records if r.n in kept)
    for r in map(flagged, rows):
        if emit == "violations" or r.is_maximal:
            sink(r)
    # a shard spans at least _MIN_SHARD integers, so it holds primes
    state.last_n, state.last_p = shard.last_n, shard.last_p
    state.gap_max = max(state.gap_max, shard.gap_max)


def run_verification(
    config: RunConfig,
    sink: RecordSink | None = None,
    start: Checkpoint | None = None,
) -> VerificationSummary:
    """Run the configured checks over every prime p_n <= config.limit.

    The run starts at n = 1, or after `start`, a checkpoint that passed
    `check_resume`; the run adds to a copy, so `start` is left as it was.
    Violations are counted (and streamed to `sink` under emit="violations"),
    never raised.

    The range is cut into shards (see _shard_cuts).  This process runs the
    first and streams its rows as they come; each later shard runs in a
    forked child, and its result is merged and its rows streamed in shard
    order, so output does not depend on the shard count.  A shard must start
    right after the index where the shards before it end (ShardError if not).
    A child that fails stops a run without a checkpoint path at the end of
    this process's next block; a checkpointed run first saves the work before
    the failed shard, and raises when it reaches that shard.

    With a checkpoint path configured, this process writes the merged state
    each time the index of its own shard reaches a multiple of the checkpoint
    interval, and, as it merges a later shard, the merged state at that
    shard's last multiple.  Each file has the bytes of a one-shard run's file
    at the same index.
    """
    t0 = time.perf_counter()
    state = _fresh(config, 0, 1) if start is None else start.copy(limit=config.limit)

    def after_block(s: Checkpoint) -> None:
        if _at_multiple(config, s):
            write_checkpoint(config.checkpoint_path, s)
        if not config.checkpoint_path:  # no later work is saved: stop on a failed child now
            for shard in shards:
                if shard[2] and (done := os.waitpid(shard[2], os.WNOHANG))[0]:
                    shard[2] = 0  # reaped
                    if done[1]:  # its ShardError, or nothing if it died, is in the pipe
                        _receive(shard[3])

    cuts = _shard_cuts(config, state.last_p)
    shards = []  # [lo, hi, pid (0 once reaped), read end of its pipe]
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _shard_child(config, lo, hi, sink is not None, w)  # leaves by os._exit
            os.close(w)
            shards.append([lo, hi, pid, r])
        _scan(config, state, cuts[1], sink, after_block)
        for lo, hi, _, fd in shards:
            n0, shard, rows, last = _receive(fd)
            if state.last_n != n0:
                raise ShardError(
                    f"shard ({lo}, {hi}] starts after index {n0} "
                    f"but the shards before it end at index {state.last_n}"
                )
            if last is not None:
                at_last = state.copy()
                _merge(at_last, last, [], config.emit, sink)
                write_checkpoint(config.checkpoint_path, at_last)
            _merge(state, shard, rows, config.emit, sink)
    finally:
        for _, _, pid, fd in shards:
            os.close(fd)
            if pid and not os.waitpid(pid, os.WNOHANG)[0]:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
    counts, firsts = state.violation_counts, state.first_violations
    stats = tuple(
        CheckStats(name, CHECKS[name].applied_count(state.last_n), counts[name], firsts.get(name))
        for name in config.checks
    )
    return VerificationSummary(
        limit=config.limit,
        primes_processed=state.last_n,
        last_prime=state.last_p,
        gap_max=state.gap_max,
        checks=stats,
        maximal_records=state.maximal_records,
        wall_time_s=time.perf_counter() - t0,
    )


def maximal_gaps(limit: int) -> list[GapRecord]:
    """Record gaps up to `limit`: every prime whose gap exceeds all earlier gaps."""
    return list(run_verification(RunConfig(limit, checks=("theorem1",))).maximal_records)


def _check_counters(ck: Checkpoint) -> None:
    """Raise IncompatibleResumeError unless the counters could come from a run to ck.last_n.

    Index 1 (gap 1) always opens the records; each later record raises both
    n and the gap, and gap_max is the last record's gap.  A count lies
    between 0 and the number of indices up to last_n its check applies to,
    and has a first violation (at n <= last_n) exactly when it is positive.
    """
    m = ck.maximal_records
    if (
        not m
        or m[0].n != 1
        or m[-1].n > ck.last_n
        or any(b.n <= a.n or b.gap <= a.gap for a, b in zip(m, m[1:]))
    ):
        raise IncompatibleResumeError(
            "checkpoint maximal records do not rise strictly in n and gap "
            f"from n = 1 to n <= last_n = {ck.last_n}"
        )
    if ck.gap_max != m[-1].gap:
        raise IncompatibleResumeError(
            f"checkpoint gap_max = {ck.gap_max} is not the last maximal record's gap {m[-1].gap}"
        )
    for name, count in ck.violation_counts.items():
        applied = CHECKS[name].applied_count(ck.last_n)
        if not 0 <= count <= applied:
            raise IncompatibleResumeError(
                f"checkpoint count {name}:{count} lies outside [0, {applied}], "
                f"the indices the check applies to up to last_n = {ck.last_n}"
            )
    for name in ck.violation_counts.keys() | ck.first_violations.keys():
        first = ck.first_violations.get(name)
        if (first is None) != (ck.violation_counts.get(name, 0) == 0) or (
            first is not None and first.n > ck.last_n
        ):
            raise IncompatibleResumeError(
                f"checkpoint first violation of {name} does not fit its count "
                f"{ck.violation_counts.get(name, 0)} up to last_n = {ck.last_n}"
            )


def check_resume(checkpoint: Checkpoint, config: RunConfig) -> None:
    """Raise CheckpointError unless `checkpoint` can seed a run under `config`.

    The configuration must select exactly the checks stored in the
    checkpoint, and its limit must not lie below the checkpoint position.
    The counters must be consistent with a run to last_n, and last_p must be
    p_(last_n): the resumed stream numbers the primes after it from last_n + 1.
    The stored records must be the stream's (see _check_records).
    """
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint format version {checkpoint.version} unsupported"
        )
    if config.limit < checkpoint.last_p:
        raise IncompatibleResumeError(
            f"limit {config.limit} is below the checkpoint position {checkpoint.last_p}"
        )
    if set(config.checks) != set(checkpoint.violation_counts):
        raise IncompatibleResumeError(
            "configured checks "
            f"{sorted(config.checks)} do not match checkpointed checks "
            f"{sorted(checkpoint.violation_counts)}"
        )
    _check_counters(checkpoint)
    p, n = checkpoint.last_p, checkpoint.last_n
    if p < 2 or prime_pi(p) != n or not is_prime_oracle(p):  # prime_pi refuses a huge p first
        raise IncompatibleResumeError(f"checkpoint last_p = {p} is not p_{n}, the last_n-th prime")
    _check_records(checkpoint)


def _check_records(ck: Checkpoint) -> None:
    """Raise IncompatibleResumeError unless the stored records are the stream's.

    The maximal records with p <= min(last_p, TABLE1_LIMIT) must be the
    starred TABLE1_REFERENCE rows in that range, as (n, p, gap, margin), so
    a dropped, added or altered one is caught there.  A later record, and
    every first violation, needs p = p_n (prime, with pi(p) = n), p + gap the
    next prime and margin = pi(p + n) - n, the primes in (p, p + n], all
    found without the segmented sieve; p <= last_p bounds the work a forged
    one causes.  Every stored record is flagged maximal exactly when it is
    among the maximal records, and a first violation violates its check.
    """
    record_ns = {r.n for r in ck.maximal_records}
    cover = min(ck.last_p, TABLE1_LIMIT)
    reference = {
        GapRecord(n, p, gap, True, margin)
        for n, p, gap, starred, margin, _ in TABLE1_REFERENCE
        if starred and p <= cover
    }
    stored = [("maximal record", r) for r in ck.maximal_records]
    stored += [(f"first violation of {name}", r) for name, r in ck.first_violations.items()]
    for what, r in stored:
        p, n = r.p, r.n
        if what == "maximal record" and p <= cover:
            ok = r in reference
        else:
            ok = (
                2 <= p <= ck.last_p
                and is_prime_oracle(p)
                and prime_pi(p) == n
                and next_prime(p) - p == r.gap
                and prime_pi(p + n) - n == r.theorem1_margin
            )
        if not (ok and r.is_maximal == (n in record_ns)):
            raise IncompatibleResumeError(
                f"checkpoint {what} n={n},p={p},gap={r.gap},margin={r.theorem1_margin} "
                "does not match the prime stream"
            )
    missing = reference.difference(ck.maximal_records)
    if missing:
        r = min(missing, key=lambda r: r.n)
        raise IncompatibleResumeError(
            f"checkpoint maximal record n={r.n},p={r.p},gap={r.gap},margin={r.theorem1_margin} "
            "is missing"
        )
    for name, r in ck.first_violations.items():
        cols = (np.array([v], dtype=np.int64) for v in (r.n, r.p, r.gap))
        block = Block(*cols, np.array([r.is_maximal]))
        if not CHECKS[name].violations(block)[0]:
            raise IncompatibleResumeError(
                f"checkpoint first violation of {name} at n={r.n} does not violate it"
            )


def resume(
    checkpoint: Checkpoint, config: RunConfig, sink: RecordSink | None = None
) -> VerificationSummary:
    """Continue a checkpointed run under `config`, as if never interrupted.

    The checkpoint must pass `check_resume`.
    """
    check_resume(checkpoint, config)
    return run_verification(config, sink, checkpoint)


# --------------------------------------------------------------------------
# reference table reproduction

TABLE1_LIMIT = 436273009

# The 54 reference rows: (n, p, gap, starred, margin, printed bound), where
# margin counts primes in (p, p + n] and the printed bound is (p+1)/log p
# rounded half-away-from-zero to one decimal.  Starred rows are the 30
# record gaps up to TABLE1_LIMIT; rows n <= 30 appear regardless.
TABLE1_REFERENCE: tuple[tuple[int, int, int, bool, int, str], ...] = (
    (1, 2, 1, True, 1, "4.3"),
    (2, 3, 2, True, 1, "3.6"),
    (3, 5, 2, False, 1, "3.7"),
    (4, 7, 4, True, 1, "4.1"),
    (5, 11, 2, False, 1, "5.0"),
    (6, 13, 4, False, 2, "5.5"),
    (7, 17, 2, False, 2, "6.4"),
    (8, 19, 4, False, 1, "6.8"),
    (9, 23, 6, True, 2, "7.7"),
    (10, 29, 2, False, 2, "8.9"),
    (11, 31, 6, False, 2, "9.3"),
    (12, 37, 4, False, 3, "10.5"),
    (13, 41, 2, False, 3, "11.3"),
    (14, 43, 4, False, 2, "11.7"),
    (15, 47, 6, False, 3, "12.5"),
    (16, 53, 6, False, 3, "13.6"),
    (17, 59, 2, False, 4, "14.7"),
    (18, 61, 6, False, 4, "15.1"),
    (19, 67, 4, False, 4, "16.2"),
    (20, 71, 2, False, 4, "16.9"),
    (21, 73, 6, False, 3, "17.2"),
    (22, 79, 4, False, 4, "18.3"),
    (23, 83, 6, False, 4, "19.0"),
    (24, 89, 8, True, 6, "20.1"),
    (25, 97, 4, False, 5, "21.4"),
    (26, 101, 2, False, 5, "22.1"),
    (27, 103, 4, False, 4, "22.4"),
    (28, 107, 2, False, 4, "23.1"),
    (29, 109, 4, False, 4, "23.4"),
    (30, 113, 14, True, 4, "24.1"),
    (99, 523, 18, True, 15, "83.7"),
    (154, 887, 20, True, 21, "130.8"),
    (189, 1129, 22, True, 25, "160.8"),
    (217, 1327, 34, True, 26, "184.7"),
    (1183, 9551, 36, True, 126, "1042.3"),
    (1831, 15683, 44, True, 184, "1623.5"),
    (2225, 19609, 52, True, 223, "1984.1"),
    (3385, 31397, 72, True, 330, "3032.3"),
    (14357, 155921, 86, True, 1165, "13040.1"),
    (30802, 360653, 96, True, 2386, "28185.6"),
    (31545, 370261, 112, True, 2439, "28877.2"),
    (40933, 492113, 114, True, 3123, "37547.4"),
    (103520, 1349533, 118, True, 7325, "95608.1"),
    (104071, 1357201, 132, True, 7349, "96112.8"),
    (149689, 2010733, 148, True, 10304, "138537.5"),
    (325852, 4652353, 154, True, 21244, "303028.0"),
    (1094421, 17051707, 180, True, 65621, "1024018.3"),
    (1319945, 20831323, 210, True, 78221, "1236136.0"),
    (2850174, 47326693, 220, True, 160910, "2677972.3"),
    (6957876, 122164747, 222, True, 373308, "6560632.0"),
    (10539432, 189695659, 234, True, 551956, "9952066.6"),
    (10655462, 191912783, 248, True, 557801, "10062250.1"),
    (20684332, 387096133, 250, True, 1044533, "19575833.9"),
    (23163298, 436273009, 282, True, 1163064, "21930122.7"),
)

_SMALL_ROW_COVER = 127  # sieving to here yields indices 1..31, enough for rows n <= 30


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One reproduced reference-table row."""

    n: int
    p: int
    gap: int
    starred: bool
    margin: int
    bound: float  # (p + 1) / log p


def round1(value: float) -> str:
    """One-decimal string, rounding halves away from zero, as the table prints bounds."""
    return str(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def table1_config(
    max_prime: int = TABLE1_LIMIT,
    *,
    checkpoint_path: str | None = None,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
) -> RunConfig:
    """The run behind the table: theorem1 over every prime <= `max_prime`."""
    if not 3 <= max_prime <= TABLE1_LIMIT:
        raise ValueError(
            f"max_prime must be in [3, {TABLE1_LIMIT}] (the range the reference covers), "
            f"got {max_prime}"
        )
    return RunConfig(
        limit=max_prime,
        checks=("theorem1",),
        checkpoint_path=checkpoint_path,
        checkpoint_interval=checkpoint_interval,
    )


def table1_rows(summary: VerificationSummary) -> list[Table1Row]:
    """The rows of a table run: every index n <= 30 plus every record gap, by index.

    The records come from the summary, which a resumed run starts from the
    checkpoint's; rows n <= 30 are recomputed on one small window.
    """
    cover = min(_SMALL_ROW_COVER, summary.limit)
    small = [rec for rec in gap_stream(cover) if rec.n <= 30]
    rows = {}
    for r in (*small, *summary.maximal_records):
        bound = bounds.empirical_bound(r.p)
        rows[r.n] = Table1Row(r.n, r.p, r.gap, r.is_maximal, r.theorem1_margin, bound)
    return [rows[n] for n in sorted(rows)]


def reproduce_table1(
    max_prime: int = TABLE1_LIMIT, *, start: Checkpoint | None = None, **options
) -> list[Table1Row]:
    """Recompute the reference rows with primes capped at `max_prime`.

    `options` are `table1_config`'s keywords; `start`, as in run_verification,
    is a checkpoint that passed check_resume against that config.
    """
    config = table1_config(max_prime, **options)
    return table1_rows(run_verification(config, start=start))


def table1_mismatches(rows: list[Table1Row], max_prime: int = TABLE1_LIMIT) -> list[str]:
    """Diff reproduced rows against the embedded reference (subset p <= max_prime).

    Integer columns and the record flag must match exactly; the bound column
    must round (half away from zero, one decimal) to the printed value and
    sit within 0.05 of it.  Returns human-readable problem strings.
    """
    expected = [row for row in TABLE1_REFERENCE if row[1] <= max_prime]
    got = {row.n: row for row in rows}
    problems: list[str] = []
    for n, p, gap, starred, margin, printed in expected:
        row = got.pop(n, None)
        if row is None:
            problems.append(f"missing row n={n}")
            continue
        if (row.p, row.gap, row.starred, row.margin) != (p, gap, starred, margin):
            problems.append(
                f"row n={n}: got (p={row.p}, gap={row.gap}, starred={row.starred}, "
                f"margin={row.margin}), expected (p={p}, gap={gap}, starred={starred}, "
                f"margin={margin})"
            )
            continue
        rounded = round1(row.bound)
        if rounded != printed:
            problems.append(f"row n={n}: bound {row.bound!r} rounds to {rounded}, printed {printed}")
        if abs(row.bound - float(printed)) > 0.05:
            problems.append(
                f"row n={n}: bound {row.bound!r} is more than 0.05 from printed {printed}"
            )
    for n in sorted(got):
        problems.append(f"unexpected row n={n} (p={got[n].p})")
    return problems
