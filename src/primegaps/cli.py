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
import json
import sys

from . import bounds
from .gaps import GapRecord, gap_stream, gap_witness
from .sieve import DEFAULT_SEGMENT_SIZE, is_prime_oracle, next_prime, prime_count, sieve_threads
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
    maximal_gaps,
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
        obj = {
            "summary": {
                "limit": summary.limit,
                "primes_processed": summary.primes_processed,
                "last_prime": summary.last_prime,
                "gap_max": summary.gap_max,
                "checks": [
                    {
                        "name": cs.name,
                        "applied": cs.applied,
                        "violations": cs.violations,
                        "first_violation": (
                            None
                            if cs.first_violation is None
                            else _record_json_obj(cs.first_violation)
                        ),
                    }
                    for cs in summary.checks
                ],
                "maximal_records": [_record_json_obj(r) for r in summary.maximal_records],
            }
        }
        out.write(json.dumps(obj) + "\n")
        return
    prefix = "# " if fmt == "csv" else ""
    for line in summary.canonical_lines():
        out.write(prefix + line + "\n")


def _parse_checks(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


# --------------------------------------------------------------------------
# subcommands

def cmd_gaps(args: argparse.Namespace) -> int:
    # Bad arguments raise here, before the header is written.
    records = (maximal_gaps if args.maximal_only else gap_stream)(
        args.limit, segment_size=args.segment_size
    )
    writer = RecordWriter(args.format, sys.stdout)
    writer.begin()
    for rec in records:
        writer.write(rec)
    return EXIT_OK


def _resume_start(args: argparse.Namespace, config: RunConfig) -> Checkpoint | None:
    """The checked checkpoint a --resume run starts from (None for a fresh run)."""
    if not args.resume:
        return None
    checkpoint = read_checkpoint(args.checkpoint)
    check_resume(checkpoint, config)
    return checkpoint


def cmd_verify(args: argparse.Namespace) -> int:
    config = RunConfig(
        limit=args.limit,
        checks=_parse_checks(args.checks),
        segment_size=args.segment_size,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.interval,
        emit=args.emit,
    )
    start = _resume_start(args, config)  # a rejected resume writes nothing to stdout
    writer = RecordWriter(args.format, sys.stdout)
    writer.begin()
    summary = run_verification(config, sink=writer.write, start=start)
    _write_summary(summary, args.format, sys.stdout)
    print(f"# wall_time_s = {summary.wall_time_s:.3f}", file=sys.stderr)
    return EXIT_OK if summary.clean else EXIT_FINDING


def cmd_pi(args: argparse.Namespace) -> int:
    if args.x < 0:
        raise ValueError(f"pi expects a non-negative integer, got {args.x}")
    value = prime_count(args.x, segment_size=args.segment_size)
    if args.format == "csv":
        sys.stdout.write("x,pi\n")
        sys.stdout.write(f"{args.x},{value}\n")
    elif args.format == "jsonl":
        sys.stdout.write(json.dumps({"x": args.x, "pi": value}) + "\n")
    else:
        sys.stdout.write(f"pi({args.x}) = {value}\n")
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
    if p < 2 or not is_prime_oracle(p):
        raise ValueError(f"{p} is not a prime number")
    n = prime_count(p, segment_size=args.segment_size)
    gap = next_prime(p) - p
    rows = [_bound_row(b, n, p, gap, "p") for b in bounds.GAP_BOUNDS]
    rows += [_bound_row(b, n, p, n, "x") for b in bounds.COUNT_BOUNDS]

    out = sys.stdout
    if args.format == "jsonl":
        out.write(json.dumps({"p": p, "n": n, "gap": gap}) + "\n")
        keys = ("check", "bound_value", "observed", "holds", "note")
        for row in rows:
            out.write(json.dumps(dict(zip(keys, row))) + "\n")
    elif args.format == "csv":
        out.write(f"# p = {p}, n = {n}, gap = {gap}\n")
        out.write("check,bound_value,observed,holds,note\n")
        for name, bound_value, observed, holds, note in rows:
            bv = "" if bound_value is None else repr(bound_value)
            hv = "" if holds is None else str(holds).lower()
            out.write(f"{name},{bv},{observed},{hv},{note}\n")
    else:
        out.write(f"p = {p}\nn = pi(p) = {n}\ngap = {gap}\n")
        out.write(f"{'check':<16} {'bound':>20} {'observed':>12} {'holds':>6}  note\n")
        for name, bound_value, observed, holds, note in rows:
            bv = "-" if bound_value is None else f"{bound_value:.4f}"
            hv = "-" if holds is None else str(holds).lower()
            out.write(f"{name:<16} {bv:>20} {observed:>12} {hv:>6}  {note}\n")
    failed = any(holds is False for _, _, _, holds, _ in rows)
    return EXIT_FINDING if failed else EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    config = table1_config(
        args.max_prime,
        segment_size=args.segment_size,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.interval,
    )
    rows = table1_rows(run_verification(config, start=_resume_start(args, config)))
    out = sys.stdout
    if args.format == "csv":
        out.write("n,p,gap,starred,margin,bound\n")
        for row in rows:
            out.write(
                f"{row.n},{row.p},{row.gap},{str(row.starred).lower()},"
                f"{row.margin},{round1(row.bound)}\n"
            )
    elif args.format == "jsonl":
        for row in rows:
            out.write(
                json.dumps(
                    {
                        "n": row.n,
                        "p": row.p,
                        "gap": row.gap,
                        "starred": row.starred,
                        "margin": row.margin,
                        "bound": float(round1(row.bound)),
                    }
                )
                + "\n"
            )
    else:
        out.write(f"{'n':>10} {'p':>12} {'gap':>7} {'margin':>9} {'bound':>14}\n")
        for row in rows:
            gap_text = f"{row.gap}{'*' if row.starred else ''}"
            out.write(
                f"{row.n:>10} {row.p:>12} {gap_text:>7} {row.margin:>9} {round1(row.bound):>14}\n"
            )
    problems = table1_mismatches(rows, args.max_prime)
    for problem in problems:
        print(f"mismatch: {problem}", file=sys.stderr)
    return EXIT_FINDING if problems else EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    w = gap_witness(args.m)
    if args.format == "csv":
        sys.stdout.write("m,p,gap,gap_lower_bound\n")
        sys.stdout.write(f"{w.m},{w.p},{w.gap},{w.gap_lower_bound}\n")
    elif args.format == "jsonl":
        sys.stdout.write(
            json.dumps(
                {"m": w.m, "p": w.p, "gap": w.gap, "gap_lower_bound": w.gap_lower_bound}
            )
            + "\n"
        )
    else:
        sys.stdout.write(
            f"m = {w.m}\np = {w.p}\ngap = {w.gap}\n"
            f"gap >= {w.gap_lower_bound}: {str(w.gap >= w.gap_lower_bound).lower()}\n"
        )
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

    def add_segment_size(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--segment-size",
            type=int,
            default=DEFAULT_SEGMENT_SIZE,
            help="sieve window length (default %(default)s)",
        )

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
    add_segment_size(p_gaps)
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
    add_segment_size(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_pi = sub.add_parser("pi", help="exact prime count pi(x)")
    p_pi.add_argument("x", type=int)
    add_format(p_pi)
    add_segment_size(p_pi)
    p_pi.set_defaults(func=cmd_pi)

    p_bounds = sub.add_parser("bounds", help="evaluate every bound at one prime")
    p_bounds.add_argument("p", type=int)
    add_format(p_bounds)
    add_segment_size(p_bounds)
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
    add_segment_size(p_table1)
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
