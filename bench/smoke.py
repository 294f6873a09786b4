#!/usr/bin/env python3
"""Smoke check of the benchmark harness at small sizes (about a minute).

    python3 bench/smoke.py

Runs every workload at the "small" sizes of workloads.SCALES (limits divided
by 100, 2 far segments), untraced and traced, through run.run(). Checks that
the result has exactly the result keys, that every metric named in
BENCHMARK.json is in it and printed with its unit, and that every output
passed its gate. Then runs table1_full against a deliberately wrong pinned
digest and checks that every job is counted as failed (failed_frac = 1)
without the run crashing. Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys

import run
from workloads import SCALES, WORKLOADS


def run_small(workload: str, trace: bool, pins: dict) -> tuple[dict, str]:
    """run.run() at small sizes; returns its result and what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run(workload, seed=1, seconds=1, trace=trace, pins=pins)
    return result, printed.getvalue()


def check_metrics(workload: str, trace: bool, spec: dict) -> None:
    result, printed = run_small(workload, trace, SCALES["small"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, printed
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metrics {got} != declared {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
        line = f"metric {name} = {m['value']:.6g} {m['unit']}"
        assert line in printed.splitlines(), f"{workload}: {line!r} not printed"
    json.dumps(result)  # the command prints it as its last line
    print(f"ok  {workload} trace={int(trace)}  {result['attempted']} jobs, {len(got)} metrics")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    try:
        for workload in WORKLOADS:
            for trace in (False, True):
                check_metrics(workload, trace, spec)

        pins = copy.deepcopy(SCALES["small"])
        pins["table1_full"]["sha256"] = "0" * 64
        result, _ = run_small("table1_full", False, pins)
        assert result["failed"] == result["attempted"] and not result["correct"], result
        print(f"ok  wrong pinned digest: failed_frac = {result['failed'] / result['attempted']}")

        assert not run.TMP_ROOT.exists() or not any(run.TMP_ROOT.iterdir()), "temp files left"
    finally:
        with contextlib.suppress(OSError):
            run.TMP_ROOT.rmdir()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
