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
import time
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Callable

import numpy as np

from . import bounds
from .gaps import Block, GapBlockStream, GapRecord, PrimeIndexPair, _StreamSeed, gap_stream
from .sieve import DEFAULT_SEGMENT_SIZE

CHECKPOINT_VERSION = 1
DEFAULT_CHECKPOINT_INTERVAL = 1_000_000

RecordSink = Callable[[GapRecord], None]
BlockHook = Callable[[Block], None]


# --------------------------------------------------------------------------
# check registry

def _marginal_aware_less(block: Block, bound: np.ndarray, scalar_holds) -> np.ndarray:
    """Vector strict gap < bound with the near-tie entries re-decided scalar-ly."""
    gaps = block.gaps
    ok = gaps < bound
    tol = bounds.MARGINAL_RTOL * np.maximum(np.maximum(1.0, np.abs(bound)), gaps)
    for i in np.flatnonzero(np.abs(bound - gaps) <= tol):
        ok[i] = scalar_holds(int(block.ps[i]), int(gaps[i]))[0]
    return ok


def _violations_theorem1(block: Block) -> np.ndarray:
    # gap(p_n) <= n and the equivalent margin >= 1; either failing flags the row.
    return (block.margins < 1) | (block.gaps > block.ns)


def _violations_bertrand(block: Block) -> np.ndarray:
    return block.gaps >= block.ps


def _violations_corollary1(block: Block) -> np.ndarray:
    applicable = block.ns >= 3  # p_3 = 5
    bound = block.ps / (np.log(block.ps) - 1.1)
    return applicable & ~_marginal_aware_less(block, bound, bounds.corollary1_holds)


def _violations_empirical(block: Block) -> np.ndarray:
    bound = (block.ps + 1) / np.log(block.ps)
    return ~_marginal_aware_less(block, bound, bounds.empirical_holds)


def _violations_andrica(block: Block) -> np.ndarray:
    # gap < 2*sqrt(p) + 1, exactly: (gap - 1)^2 < 4p.
    return (block.gaps - 1) ** 2 >= 4 * block.ps


def _epsilon_violations(num: int, den: int, min_index: int):
    def _violations(block: Block) -> np.ndarray:
        # gap < (num/den) * p, exactly, for indices beyond min_index.
        return (block.ns > min_index) & (block.gaps * den >= num * block.ps)

    return _violations


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


CHECKS: dict[str, CheckDef] = {
    cd.name: cd
    for cd in (
        CheckDef(
            "theorem1",
            "gap(p_n) <= n, equivalently at least one prime in (p_n, p_n + n]",
            1,
            _violations_theorem1,
        ),
        CheckDef("bertrand", "gap(p_n) < p_n", 1, _violations_bertrand),
        CheckDef(
            "corollary1",
            "gap(p) < p / (log p - 1.1) for p >= 5",
            3,
            _violations_corollary1,
        ),
        CheckDef(
            "empirical",
            "gap(p) < (p + 1) / log p",
            1,
            _violations_empirical,
        ),
        CheckDef(
            "andrica",
            "gap(p) < 2*sqrt(p) + 1",
            1,
            _violations_andrica,
        ),
        CheckDef(
            "epsilon_1_5",
            "gap(p_n) < p_n / 5 for n > 9",
            10,
            _epsilon_violations(1, 5, 9),
        ),
        CheckDef(
            "epsilon_1_13",
            "gap(p_n) < p_n / 13 for n > 118",
            119,
            _epsilon_violations(1, 13, 118),
        ),
        CheckDef(
            "epsilon_1_16597",
            "gap(p_n) < p_n / 16597 for n > 2010760",
            2010761,
            _epsilon_violations(1, 16597, 2010760),
        ),
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
    threads: int | None = None

    def __post_init__(self) -> None:
        if self.limit < 3:
            raise ValueError(f"limit must be >= 3, got {self.limit}")
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


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """Resumable position: counters plus the look-ahead primes in
    (last_p, last_p + last_n], which re-seed the stream buffer."""

    version: int
    limit: int
    last_n: int
    last_p: int
    gap_max: int
    lookahead: np.ndarray
    violation_counts: dict[str, int]
    first_violations: dict[str, GapRecord]
    maximal_records: tuple[GapRecord, ...]


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
        f"lookahead_primes = {','.join(map(str, np.asarray(ck.lookahead).tolist()))}",
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
    text = Path(path).read_text(encoding="utf-8")
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
    except KeyError as exc:
        raise CheckpointFormatError(f"{path}: missing format_version") from exc
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    try:
        limit = int(fields["limit"])
        last_n = int(fields["last_n"])
        last_p = int(fields["last_p"])
        gap_max = int(fields["gap_max"])
        raw_look = fields["lookahead_primes"]
        raw_counts = fields["violation_counts"]
        raw_firsts = fields["first_violations"]
        raw_maximal = fields["maximal_records"]
    except KeyError as exc:
        raise CheckpointFormatError(f"{path}: missing key {exc}") from exc
    try:
        lookahead = (
            np.array(raw_look.split(","), dtype=np.int64) if raw_look and raw_look != "-"
            else np.empty(0, dtype=np.int64)
        )
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
    except (ValueError, KeyError) as exc:
        raise CheckpointFormatError(f"{path}: unparseable field ({exc})") from exc
    return Checkpoint(
        version=version,
        limit=limit,
        last_n=last_n,
        last_p=last_p,
        gap_max=gap_max,
        lookahead=lookahead,
        violation_counts=counts,
        first_violations=firsts,
        maximal_records=maximal,
    )


# --------------------------------------------------------------------------
# the run engine

def _execute(
    config: RunConfig,
    sink: RecordSink | None,
    block_hook: BlockHook | None,
    counts: dict[str, int],
    firsts: dict[str, GapRecord],
    maximal: list[GapRecord],
    seed: _StreamSeed | None,
    start_n: int,
    start_p: int,
) -> VerificationSummary:
    t0 = time.perf_counter()
    cut = config.checkpoint_interval if config.checkpoint_path else None
    stream = GapBlockStream(
        config.limit,
        segment_size=config.segment_size,
        cut_every=cut,
        threads=config.threads,
        seed=seed,
    )
    defs = [CHECKS[name] for name in config.checks]
    last_n, last_p = start_n, start_p
    for block in stream.blocks():
        violated = None
        for cd in defs:
            hits = cd.violations(block)
            k = int(np.count_nonzero(hits))
            if k:
                counts[cd.name] += k
                if cd.name not in firsts:
                    firsts[cd.name] = block.record_at(int(np.flatnonzero(hits)[0]))
                if config.emit == "violations":
                    violated = hits.copy() if violated is None else (violated | hits)
        for i in np.flatnonzero(block.is_maximal):
            maximal.append(block.record_at(int(i)))
        if block_hook is not None:
            block_hook(block)
        if sink is not None:
            if config.emit == "all":
                for rec in block.iter_records():
                    sink(rec)
            elif config.emit == "maximal":
                for i in np.flatnonzero(block.is_maximal):
                    sink(block.record_at(int(i)))
            elif violated is not None:
                for i in np.flatnonzero(violated):
                    sink(block.record_at(int(i)))
        last_n, last_p = block.last_n, block.last_p
        if config.checkpoint_path and last_n % config.checkpoint_interval == 0:
            lookahead = stream.lookahead_window(PrimeIndexPair(n=last_n, p=last_p))
            write_checkpoint(
                config.checkpoint_path,
                Checkpoint(
                    version=CHECKPOINT_VERSION,
                    limit=config.limit,
                    last_n=last_n,
                    last_p=last_p,
                    gap_max=stream.gap_max,
                    lookahead=lookahead,
                    violation_counts=dict(counts),
                    first_violations=dict(firsts),
                    maximal_records=tuple(maximal),
                ),
            )
    stats = tuple(
        CheckStats(
            name=cd.name,
            applied=cd.applied_count(last_n),
            violations=counts[cd.name],
            first_violation=firsts.get(cd.name),
        )
        for cd in defs
    )
    return VerificationSummary(
        limit=config.limit,
        primes_processed=last_n,
        last_prime=last_p,
        gap_max=stream.gap_max,
        checks=stats,
        maximal_records=tuple(maximal),
        wall_time_s=time.perf_counter() - t0,
    )


def run_verification(
    config: RunConfig,
    sink: RecordSink | None = None,
    block_hook: BlockHook | None = None,
) -> VerificationSummary:
    """Run the configured checks over every prime p_n <= config.limit.

    Violations are counted (and streamed to `sink` under emit="violations"),
    never raised.  With a checkpoint path configured, state is persisted each
    time the index crosses a multiple of the checkpoint interval.
    """
    counts = {name: 0 for name in config.checks}
    return _execute(config, sink, block_hook, counts, {}, [], None, 0, 0)


def resume(
    checkpoint: Checkpoint,
    config: RunConfig,
    sink: RecordSink | None = None,
    block_hook: BlockHook | None = None,
) -> VerificationSummary:
    """Continue a checkpointed run under `config`, as if never interrupted.

    The configuration must select exactly the checks stored in the
    checkpoint, and its limit must not lie below the checkpoint position.
    The stored look-ahead must be strictly ascending within
    (last_p, last_p + last_n], as the stream's binary search relies on it.
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
    lookahead = np.asarray(checkpoint.lookahead, dtype=np.int64)
    if len(lookahead) == 0:
        raise IncompatibleResumeError("checkpoint look-ahead buffer is empty")
    reach = checkpoint.last_p + checkpoint.last_n
    if (
        lookahead[0] <= checkpoint.last_p
        or lookahead[-1] > reach
        or np.any(lookahead[1:] <= lookahead[:-1])
    ):
        raise IncompatibleResumeError(
            f"checkpoint look-ahead is not strictly ascending within ({checkpoint.last_p}, {reach}]"
        )
    counts = {name: checkpoint.violation_counts[name] for name in config.checks}
    firsts = dict(checkpoint.first_violations)
    maximal = list(checkpoint.maximal_records)
    seed = _StreamSeed(
        next_n=checkpoint.last_n + 1,
        lookahead=lookahead,
        covered_through=reach,
        gap_max=checkpoint.gap_max,
    )
    return _execute(
        config, sink, block_hook, counts, firsts, maximal, seed,
        checkpoint.last_n, checkpoint.last_p,
    )


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


def _row_from_record(rec: GapRecord) -> Table1Row:
    return Table1Row(
        n=rec.n,
        p=rec.p,
        gap=rec.gap,
        starred=rec.is_maximal,
        margin=rec.theorem1_margin,
        bound=bounds.empirical_bound(rec.p),
    )


def reproduce_table1(
    max_prime: int = TABLE1_LIMIT,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    checkpoint_path: str | None = None,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    resume_from_checkpoint: bool = False,
    threads: int | None = None,
) -> list[Table1Row]:
    """Recompute the reference rows with primes capped at `max_prime`.

    Collects every index n <= 30 plus every record gap, sorted by index.
    With `resume_from_checkpoint`, the scan continues from `checkpoint_path`
    (rows n <= 30 are recomputed directly; they cost microseconds).
    """
    if not 3 <= max_prime <= TABLE1_LIMIT:
        raise ValueError(
            f"max_prime must be in [3, {TABLE1_LIMIT}] (the range the reference covers), "
            f"got {max_prime}"
        )
    rows: dict[int, Table1Row] = {}

    def hook(block: Block) -> None:
        small = min(len(block), max(0, 31 - block.first_n))
        for i in range(small):
            rec = block.record_at(i)
            rows[rec.n] = _row_from_record(rec)
        for i in np.flatnonzero(block.is_maximal):
            rec = block.record_at(int(i))
            rows[rec.n] = _row_from_record(rec)

    config = RunConfig(
        limit=max_prime,
        checks=("theorem1",),
        segment_size=segment_size,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=checkpoint_interval,
        threads=threads,
    )
    if resume_from_checkpoint:
        if checkpoint_path is None:
            raise ValueError("resume_from_checkpoint requires checkpoint_path")
        ck = read_checkpoint(checkpoint_path)
        for rec in gap_stream(min(_SMALL_ROW_COVER, max_prime)):
            if rec.n <= 30:
                rows[rec.n] = _row_from_record(rec)
        for rec in ck.maximal_records:
            rows[rec.n] = _row_from_record(rec)
        resume(ck, config, block_hook=hook)
    else:
        run_verification(config, block_hook=hook)
    return [rows[n] for n in sorted(rows)]


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
        rounded = str(Decimal(repr(row.bound)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))
        if rounded != printed:
            problems.append(f"row n={n}: bound {row.bound!r} rounds to {rounded}, printed {printed}")
        if abs(row.bound - float(printed)) > 0.05:
            problems.append(
                f"row n={n}: bound {row.bound!r} is more than 0.05 from printed {printed}"
            )
    for n in sorted(got):
        problems.append(f"unexpected row n={n} (p={got[n].p})")
    return problems
