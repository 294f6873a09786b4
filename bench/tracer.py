"""Per-layer counters for a traced benchmark job, installed from outside.

``install()`` replaces, inside the worker process only, the public functions
at primegaps' layer boundaries with wrappers that add call counts and
nanoseconds to per-layer totals (one pair of clock reads per call, no span
per call). Nothing under ``src/`` is edited.

The wrapped names ARE the layer boundaries:

  sieve              sieve.SegmentFeed.next_segment
  gaps               gaps.GapBlockStream.blocks (time inside each resume)
  verify.checks      every verify.CHECKS[name].violations, plus counts of
                     bounds.corollary1_holds / bounds.empirical_holds
                     (the scalar near-tie re-decisions)
  verify.checkpoint  verify.write_checkpoint, verify.read_checkpoint and the
                     copy cli imported (cli.read_checkpoint)
  cli.emit           cli.RecordWriter.begin / .write and cli._write_summary
                     (bytes are counted from what these three write)

A change that moves or renames one of them must update this file; a missing
name fails the traced job loudly (AttributeError) instead of reading zero.
"""

from __future__ import annotations

import dataclasses
import os
from time import perf_counter_ns

from primegaps import bounds, cli, gaps, sieve, verify


class Tracer:
    """Per-layer totals for one job; self times are derived by subtraction."""

    def __init__(self) -> None:
        self.sieve_calls = self.sieve_ns = self.sieve_ints = 0
        self.sieve_in_gaps_ns = 0
        self.in_gaps = False
        self.gaps_blocks = self.gaps_ns = self.gaps_records = self.lookahead_max = 0
        self.check_calls = self.check_ns = self.check_rows = self.rechecks = 0
        self.last_checked = None
        self.ck_writes = self.ck_write_ns = self.ck_bytes = 0
        self.ck_read_ns = 0
        self.emit_records = self.emit_ns = self.emit_bytes = 0

    def metrics(self, body_s: float) -> dict[str, float]:
        """Per-layer metrics; ``body_s`` is the job's wall time after set-up."""
        sieve_s = self.sieve_ns / 1e9
        gaps_self_ns = self.gaps_ns - self.sieve_in_gaps_ns
        checks_s = self.check_ns / 1e9
        write_s, read_s = self.ck_write_ns / 1e9, self.ck_read_ns / 1e9
        emit_s = self.emit_ns / 1e9
        layers_s = sieve_s + gaps_self_ns / 1e9 + checks_s + write_s + read_s + emit_s
        return {
            "sieve.segments": self.sieve_calls,
            "sieve.ints": self.sieve_ints,
            "sieve.wait_s": sieve_s,
            "sieve.ints_per_s": self.sieve_ints / sieve_s if sieve_s else 0.0,
            "gaps.blocks": self.gaps_blocks,
            "gaps.records": self.gaps_records,
            "gaps.self_s": gaps_self_ns / 1e9,
            "gaps.self_ns_per_prime": (
                gaps_self_ns / self.gaps_records if self.gaps_records else 0.0
            ),
            "gaps.lookahead_max": self.lookahead_max,
            "verify.checks.calls": self.check_calls,
            "verify.checks.busy_s": checks_s,
            "verify.checks.rechecks": self.rechecks,
            "verify.checks.recheck_ratio": (
                self.rechecks / self.check_rows if self.check_rows else 0.0
            ),
            "verify.checkpoint.writes": self.ck_writes,
            "verify.checkpoint.bytes": self.ck_bytes,
            "verify.checkpoint.write_s": write_s,
            "verify.checkpoint.read_s": read_s,
            "cli.emit.records": self.emit_records,
            "cli.emit.bytes": self.emit_bytes,
            "cli.emit.busy_s": emit_s,
            "cli.emit.ns_per_record": (
                self.emit_ns / self.emit_records if self.emit_records else 0.0
            ),
            "trace.unattributed_s": body_s - layers_s,
        }


def install() -> Tracer:
    """Wrap the layer boundaries in this process and return their counters."""
    t = Tracer()

    next_segment = sieve.SegmentFeed.next_segment

    def traced_next_segment(feed):
        t0 = perf_counter_ns()
        lo, hi, primes = next_segment(feed)
        dt = perf_counter_ns() - t0
        t.sieve_calls += 1
        t.sieve_ns += dt
        t.sieve_ints += hi - lo
        if t.in_gaps:
            t.sieve_in_gaps_ns += dt
        return lo, hi, primes

    blocks = gaps.GapBlockStream.blocks

    def traced_blocks(stream):
        inner = blocks(stream)
        try:
            while True:
                t.in_gaps = True
                t0 = perf_counter_ns()
                try:
                    block = next(inner)
                except StopIteration:
                    return
                finally:
                    t.gaps_ns += perf_counter_ns() - t0
                    t.in_gaps = False
                t.gaps_blocks += 1
                t.gaps_records += len(block)
                t.lookahead_max = max(t.lookahead_max, int(block.margins.max()))
                yield block
        finally:
            inner.close()

    def traced_check(violations):
        def check(block):
            t0 = perf_counter_ns()
            hits = violations(block)
            t.check_ns += perf_counter_ns() - t0
            t.check_calls += 1
            if block is not t.last_checked:  # rows count once, not once per check
                t.last_checked = block
                t.check_rows += len(block)
            return hits

        return check

    def counted(holds):
        def recheck(p, gap):
            t.rechecks += 1
            return holds(p, gap)

        return recheck

    write_checkpoint = verify.write_checkpoint

    def traced_write(path, ck):
        t0 = perf_counter_ns()
        write_checkpoint(path, ck)
        t.ck_write_ns += perf_counter_ns() - t0
        t.ck_writes += 1
        t.ck_bytes += os.path.getsize(path)

    read_checkpoint = verify.read_checkpoint

    def traced_read(path):
        t0 = perf_counter_ns()
        try:
            return read_checkpoint(path)
        finally:
            t.ck_read_ns += perf_counter_ns() - t0

    class CountingOut:
        """Passes text on to ``out``, adding its UTF-8 length to cli.emit.bytes."""

        def __init__(self, out) -> None:
            self.out = out

        def write(self, text: str) -> int:
            t.emit_bytes += len(text.encode("utf-8"))
            return self.out.write(text)

        def __getattr__(self, name):
            return getattr(self.out, name)

    def traced_writer(fn, per_record):
        def emit(writer, *args):
            t0 = perf_counter_ns()
            if not isinstance(writer.out, CountingOut):
                writer.out = CountingOut(writer.out)
            fn(writer, *args)
            t.emit_ns += perf_counter_ns() - t0
            t.emit_records += per_record

        return emit

    write_summary = cli._write_summary

    def traced_summary(summary, fmt, out):
        t0 = perf_counter_ns()
        write_summary(summary, fmt, CountingOut(out))
        t.emit_ns += perf_counter_ns() - t0

    sieve.SegmentFeed.next_segment = traced_next_segment
    gaps.GapBlockStream.blocks = traced_blocks
    for name, cd in list(verify.CHECKS.items()):
        verify.CHECKS[name] = dataclasses.replace(cd, violations=traced_check(cd.violations))
    bounds.corollary1_holds = counted(bounds.corollary1_holds)
    bounds.empirical_holds = counted(bounds.empirical_holds)
    verify.write_checkpoint = traced_write
    verify.read_checkpoint = cli.read_checkpoint = traced_read
    cli.RecordWriter.begin = traced_writer(cli.RecordWriter.begin, 0)
    cli.RecordWriter.write = traced_writer(cli.RecordWriter.write, 1)
    cli._write_summary = traced_summary
    return t
