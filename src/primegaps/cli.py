"""Command-line front end.

Subcommands: gaps (per-prime gap records), verify (batch inequality runs),
pi (exact prime count), bounds (every bound evaluated at one prime), table1
(reference-table reproduction), witness (factorial gap construction).

Exit codes: 0 success, 1 operational error, 2 command-line usage error,
3 verification finding (a violated bound or a reference-table mismatch).
Standard output carries data only; timing and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import bounds
from .gaps import GapRecord, gap_witness
from .sieve import is_prime_oracle, next_prime, prime_pi, sieve_threads
from .verify import (
    CHECKS,
    DEFAULT_CHECKPOINT_INTERVAL,
    DEFAULT_CHECKS,
    EMIT_MODES,
    TABLE1_LIMIT,
    Checkpoint,
    CheckpointError,
    RunConfig,
    ShardError,
    VerificationSummary,
    check_resume,
    read_checkpoint,
    round1,
    run_verification,
    table1_config,
    table1_mismatches,
    table1_rows,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_FINDING = 3

FORMATS = ("csv", "jsonl", "table")

RECORD_CSV_HEADER = "n,p,gap,is_maximal,theorem1_margin"
_RECORD_TABLE_HEADER = f"{'n':>10} {'p':>12} {'gap':>6} {'max':>4} {'margin':>10}"


class RecordWriter:
    """Streams GapRecords to `out` in one of the three formats."""

    def __init__(self, fmt: str, out) -> None:
        self.fmt = fmt
        self.out = out

    def begin(self) -> None:
        if self.fmt == "csv":
            self.out.write(RECORD_CSV_HEADER + "\n")
        elif self.fmt == "table":
            self.out.write(_RECORD_TABLE_HEADER + "\n")

    def write(self, r: GapRecord) -> None:
        if self.fmt == "csv":
            line = f"{r.n},{r.p},{r.gap},{str(r.is_maximal).lower()},{r.theorem1_margin}"
        elif self.fmt == "jsonl":
            line = json.dumps(_record_json_obj(r))
        else:
            star = "*" if r.is_maximal else "-"
            line = f"{r.n:>10} {r.p:>12} {r.gap:>6} {star:>4} {r.theorem1_margin:>10}"
        self.out.write(line + "\n")


def _record_json_obj(r: GapRecord) -> dict:
    return {
        "n": r.n,
        "p": r.p,
        "gap": r.gap,
        "is_maximal": r.is_maximal,
        "theorem1_margin": r.theorem1_margin,
    }


def _write_summary(summary: VerificationSummary, fmt: str, out) -> None:
    if fmt == "jsonl":
        obj = dataclasses.asdict(summary)
        del obj["wall_time_s"]  # stdout stays deterministic
        out.write(json.dumps({"summary": obj}) + "\n")
        return
    prefix = "# " if fmt == "csv" else ""
    for line in summary.canonical_lines():
        out.write(prefix + line + "\n")


def _write_rows(out, fmt: str, names: tuple[str, ...], rows, table_lines) -> None:
    """Rows (tuples in `names` order) as a csv header and lines or one JSON object
    each; the table format writes `table_lines` instead."""
    if fmt == "csv":
        out.write(",".join(names) + "\n")
        for row in rows:
            cells = ("" if v is None else str(v).lower() if isinstance(v, bool) else str(v)
                     for v in row)  # a float's str is its repr
            out.write(",".join(cells) + "\n")
    elif fmt == "jsonl":
        for row in rows:
            out.write(json.dumps(dict(zip(names, row))) + "\n")
    else:
        for line in table_lines:
            out.write(line + "\n")


def _parse_checks(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


# --------------------------------------------------------------------------
# subcommands

def _stream(config: RunConfig, fmt: str, start: Checkpoint | None = None) -> VerificationSummary:
    """Run `config`, writing its selected records to stdout as they come."""
    writer = RecordWriter(fmt, sys.stdout)
    writer.begin()
    return run_verification(config, sink=writer.write, start=start)


def cmd_gaps(args: argparse.Namespace) -> int:
    # a theorem1 run: every row streams from one process, records from every shard
    emit = "maximal" if args.maximal_only else "all"
    _stream(RunConfig(args.limit, ("theorem1",), emit=emit), args.format)
    return EXIT_OK


def _resume_start(args: argparse.Namespace, config: RunConfig) -> Checkpoint | None:
    """The checked checkpoint a --resume run starts from (None for a fresh run).
    A checkpoint path in a missing directory is refused as well, before any output."""
    if not os.path.isdir(directory := os.path.dirname(args.checkpoint or "") or "."):
        raise FileNotFoundError(f"checkpoint directory {directory} does not exist")
    if not args.resume:
        return None
    checkpoint = read_checkpoint(args.checkpoint)
    check_resume(checkpoint, config)
    return checkpoint


def cmd_verify(args: argparse.Namespace) -> int:
    config = RunConfig(
        limit=args.limit,
        checks=_parse_checks(args.checks),
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.interval,
        emit=args.emit,
    )
    start = _resume_start(args, config)  # a rejected resume writes nothing to stdout
    summary = _stream(config, args.format, start)
    _write_summary(summary, args.format, sys.stdout)
    print(f"# wall_time_s = {summary.wall_time_s:.3f}", file=sys.stderr)
    return EXIT_OK if summary.clean else EXIT_FINDING


def cmd_pi(args: argparse.Namespace) -> int:
    if args.x < 0:
        raise ValueError(f"pi expects a non-negative integer, got {args.x}")
    value = prime_pi(args.x)
    table = [f"pi({args.x}) = {value}"]
    _write_rows(sys.stdout, args.format, ("x", "pi"), [(args.x, value)], table)
    return EXIT_OK


def _bound_row(b: bounds.Bound, n: int, x: int, observed: int, var: str) -> tuple:
    """(name, bound value, observed, holds, note) of one bound at the prime x = p_n."""
    if x < b.min_x:
        return b.name, None, float(observed), None, f"not applicable ({var} < {b.min_x})"
    if n <= b.min_index:
        return b.name, None, float(observed), None, f"not applicable (n <= {b.min_index})"
    return b.name, b.at(x), float(observed), b.decide(x, observed)[0], b.note.format(x=x)


def cmd_bounds(args: argparse.Namespace) -> int:
    p = args.p
    n = prime_pi(p)  # refuses a p past PRIME_PI_MAX before the slower primality test
    if p < 2 or not is_prime_oracle(p):
        raise ValueError(f"{p} is not a prime number")
    gap = next_prime(p) - p
    rows = [_bound_row(b, n, p, gap, "p") for b in bounds.GAP_BOUNDS]
    rows += [_bound_row(b, n, p, n, "x") for b in bounds.COUNT_BOUNDS]

    if args.format == "csv":
        sys.stdout.write(f"# p = {p}, n = {n}, gap = {gap}\n")
    elif args.format == "jsonl":
        sys.stdout.write(json.dumps({"p": p, "n": n, "gap": gap}) + "\n")
    table = [f"p = {p}", f"n = pi(p) = {n}", f"gap = {gap}"]
    table.append(f"{'check':<16} {'bound':>20} {'observed':>12} {'holds':>6}  note")
    for name, bound_value, observed, holds, note in rows:
        bv = "-" if bound_value is None else f"{bound_value:.4f}"
        hv = "-" if holds is None else str(holds).lower()
        table.append(f"{name:<16} {bv:>20} {observed:>12} {hv:>6}  {note}")
    names = ("check", "bound_value", "observed", "holds", "note")
    _write_rows(sys.stdout, args.format, names, rows, table)
    failed = any(holds is False for _, _, _, holds, _ in rows)
    return EXIT_FINDING if failed else EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    config = table1_config(
        args.max_prime,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.interval,
    )
    rows = table1_rows(run_verification(config, start=_resume_start(args, config)))
    # the printed bound, rounded half away from zero; its float's repr is the same string
    cells = [(r.n, r.p, r.gap, r.starred, r.margin, float(round1(r.bound))) for r in rows]
    table = [f"{'n':>10} {'p':>12} {'gap':>7} {'margin':>9} {'bound':>14}"]
    for n, p, gap, starred, margin, bound in cells:
        gap_text = f"{gap}{'*' if starred else ''}"
        table.append(f"{n:>10} {p:>12} {gap_text:>7} {margin:>9} {bound:>14}")
    names = ("n", "p", "gap", "starred", "margin", "bound")
    _write_rows(sys.stdout, args.format, names, cells, table)
    problems = table1_mismatches(rows, args.max_prime)
    for problem in problems:
        print(f"mismatch: {problem}", file=sys.stderr)
    return EXIT_FINDING if problems else EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    w = gap_witness(args.m)
    table = [f"m = {w.m}", f"p = {w.p}", f"gap = {w.gap}"]
    table.append(f"gap >= {w.gap_lower_bound}: {str(w.gap >= w.gap_lower_bound).lower()}")
    names = ("m", "p", "gap", "gap_lower_bound")
    _write_rows(sys.stdout, args.format, names, [(w.m, w.p, w.gap, w.gap_lower_bound)], table)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primegaps",
        description="Prime gap records and batch bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, default: str = "table") -> None:
        p.add_argument("--format", choices=FORMATS, default=default, help="output format")

    def add_checkpoint(p: argparse.ArgumentParser) -> None:
        p.add_argument("--checkpoint", help="checkpoint file to write (and resume from)")
        p.add_argument(
            "--interval",
            type=int,
            default=DEFAULT_CHECKPOINT_INTERVAL,
            help="checkpoint every this many prime indices (default %(default)s)",
        )
        p.add_argument("--resume", action="store_true", help="continue from --checkpoint")

    p_gaps = sub.add_parser("gaps", help="emit per-prime gap records up to a limit")
    p_gaps.add_argument("--limit", type=int, required=True, help="largest prime to include")
    p_gaps.add_argument(
        "--maximal-only", action="store_true", help="emit only record (maximal) gaps"
    )
    add_format(p_gaps, "csv")
    p_gaps.set_defaults(func=cmd_gaps)

    p_verify = sub.add_parser("verify", help="run gap checks over all primes up to a limit")
    p_verify.add_argument("--limit", type=int, required=True)
    p_verify.add_argument(
        "--checks",
        default=",".join(DEFAULT_CHECKS),
        help=f"comma-separated subset of: {', '.join(sorted(CHECKS))} (default %(default)s)",
    )
    add_checkpoint(p_verify)
    p_verify.add_argument(
        "--emit",
        choices=EMIT_MODES,
        default="maximal",
        help="which records to stream before the summary (default %(default)s)",
    )
    add_format(p_verify, "csv")
    p_verify.set_defaults(func=cmd_verify)

    p_pi = sub.add_parser("pi", help="exact prime count pi(x)")
    p_pi.add_argument("x", type=int)
    add_format(p_pi)
    p_pi.set_defaults(func=cmd_pi)

    p_bounds = sub.add_parser("bounds", help="evaluate every bound at one prime")
    p_bounds.add_argument("p", type=int)
    add_format(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_table1 = sub.add_parser("table1", help="reproduce the embedded reference table")
    p_table1.add_argument(
        "--max-prime",
        type=int,
        default=TABLE1_LIMIT,
        help="cap on included primes (default %(default)s)",
    )
    add_checkpoint(p_table1)
    add_format(p_table1)
    p_table1.set_defaults(func=cmd_table1)

    p_witness = sub.add_parser("witness", help="factorial construction of a gap >= m")
    p_witness.add_argument("m", type=int, help="required gap size, 3 <= m <= 13")
    add_format(p_witness)
    p_witness.set_defaults(func=cmd_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command in ("gaps", "verify", "table1"):
            sieve_threads()  # a bad PRIMEGAP_THREADS fails before stdout is touched
        return args.func(args)
    except (CheckpointError, ShardError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())
