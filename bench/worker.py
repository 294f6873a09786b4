"""Runs one benchmark job in a fresh interpreter and prints its measurements.

run.py starts it as ``python worker.py '<json job spec>'`` with the checkout's
``src/`` as PYTHONPATH and PRIMEGAP_THREADS set. Everything up to the first
call into the workload (interpreter start, ``import primegaps``, reading the
spec, installing trace wrappers and, for CLI jobs, parsing the first leg's
arguments) is set-up; ``t_first`` stamps its end. The timed part ends when
the workload returns; output checks that cost real time (the Miller-Rabin
sample of sieve_far_1e12) run after it. A ``setup_only`` worker stops at
``t_first``. The last stdout line is one JSON object.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import random
import resource
import sys
import time
import traceback

import mpmath
import numpy as np

import primegaps
from primegaps import cli
from primegaps.sieve import SegmentFeed

import tracer


def now() -> float:
    """CLOCK_MONOTONIC seconds, comparable across processes (run.py uses it too)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class HashSink(io.RawIOBase):
    """Raw byte sink that hashes and counts what it is given.

    Wrapped in the same buffered text layers as a real stdout, so the CLI's
    write path is the one a user redirecting to a file would run.
    """

    def __init__(self, keep: bool) -> None:
        super().__init__()
        self._sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0
        self._kept: list[bytes] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        data = bytes(b)
        self._sha.update(data)
        self.bytes += len(data)
        self.lines += data.count(b"\n")
        if self._kept is not None:
            self._kept.append(data)
        return len(data)

    def facts(self, exit_code: int) -> dict:
        out = {"exit": exit_code, "sha256": self._sha.hexdigest(),
               "bytes": self.bytes, "lines": self.lines}
        if self._kept is not None:
            text = b"".join(self._kept).decode("utf-8")
            out["summary"] = "".join(
                line + "\n" for line in text.splitlines() if line.startswith("# ")
            )
        return out


def stamp_first_command(out: dict) -> None:
    """Set ``out["t_first"]`` when cli.main, its arguments parsed, first calls
    a command function. The parser looks the functions up when cli.main
    builds it, so the wrappers are in place for every leg."""

    def stamped(fn):
        def command(args):
            out.setdefault("t_first", now())
            return fn(args)

        return command

    for name in ("cmd_gaps", "cmd_verify", "cmd_table1"):
        setattr(cli, name, stamped(getattr(cli, name)))


def run_cli(legs: list[dict]) -> dict:
    """Run each leg's argv through ``primegaps.cli.main`` with stdout hashed."""
    facts = []
    for leg in legs:
        sink = HashSink(leg["keep"])
        out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")
        with contextlib.redirect_stdout(out):
            code = cli.main(leg["argv"])
            out.flush()
        facts.append(sink.facts(code))
    return {"legs": facts}


def run_feed(spec: dict) -> list[tuple[int, int, np.ndarray]]:
    """Pull ``segments`` windows from a single-threaded SegmentFeed."""
    with SegmentFeed(
        start=spec["start"], segment_size=spec["segment_size"], threads=spec["threads"]
    ) as feed:
        return [feed.next_segment() for _ in range(spec["segments"])]


# Deterministic for n < 3.317e24 with these bases (Sorenson & Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime_mr(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_feed(spec: dict, windows: list[tuple[int, int, np.ndarray]]) -> dict:
    """Structure of the windows, then Miller-Rabin on a seeded sample of reported
    primes and of unreported odd integers in the covered range."""
    problems = []
    expect_lo = spec["start"]
    for lo, hi, primes in windows:
        if (lo, hi) != (expect_lo, expect_lo + spec["segment_size"]):
            problems.append(f"window [{lo}, {hi}) where [{expect_lo}, ...) was due")
        if len(primes) and (primes[0] < lo or primes[-1] >= hi or np.any(np.diff(primes) <= 0)):
            problems.append(f"primes of window [{lo}, {hi}) not ascending inside it")
        expect_lo = hi
    reported = np.concatenate([primes for _, _, primes in windows])
    rng = random.Random(spec["sample_seed"])
    disagree = sampled = 0
    for i in rng.sample(range(len(reported)), min(spec["samples"], len(reported))):
        sampled += 1
        disagree += not is_prime_mr(int(reported[i]))
    lo, hi = spec["start"], expect_lo
    unreported = 0
    while unreported < spec["samples"]:
        x = rng.randrange(lo | 1, hi, 2)
        j = int(np.searchsorted(reported, x))
        if j < len(reported) and reported[j] == x:
            continue
        unreported += 1
        disagree += is_prime_mr(x)
    return {
        "primes": len(reported),
        "feed_problems": problems,
        "mr_sampled": sampled + unreported,
        "mr_disagree": disagree,
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    out: dict = {
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mpmath": mpmath.__version__,
        },
        "primegaps_file": primegaps.__file__,
        "error": None,
    }
    trace = tracer.install() if spec["trace"] else None
    if spec["setup_only"]:
        if spec["kind"] == "cli":
            cli.build_parser().parse_args(spec["legs"][0]["argv"])
        out["t_first"] = now()
    else:
        if spec["kind"] == "cli":
            stamp_first_command(out)
        else:
            out["t_first"] = now()
        try:
            if spec["kind"] == "cli":
                facts = run_cli(spec["legs"])
            else:
                windows = run_feed(spec)
        except Exception:
            out["error"] = traceback.format_exc(limit=4)
        out["t_end"] = t_end = now()
        out.setdefault("t_first", t_end)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        out["cpu_s"] = usage.ru_utime + usage.ru_stime
        out["maxrss_kb"] = usage.ru_maxrss
        if out["error"] is None:
            if spec["kind"] == "feed":
                facts = check_feed(spec, windows)
            out["facts"] = facts
            if trace is not None:
                out["layers"] = trace.metrics(t_end - out["t_first"])
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
