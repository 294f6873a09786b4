#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of primegaps.

    python3 bench/run.py --workload table1_full --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Jobs of one workload run back to back, each
alone in a fresh worker process (closed loop, one client), with the
checkout's ``src/`` as PYTHONPATH and the sieve thread count set through
PRIMEGAP_THREADS (never taken from the CPU count). New jobs start until
``--seconds`` have passed and at least MIN_JOBS jobs (one untraced/traced
pair under ``--trace 1``) have run. Every job's output is checked against
values pinned in workloads.py; a failed check is counted, never raised.

Human-readable lines (environment, one line per job) come first; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``failed / attempted`` is the share of jobs whose output or
exit code was wrong. With ``--trace 0`` the metrics are the end-to-end ones:

  wall_s        median wall time of a job: worker spawn to a complete result
  primes_per_s  primes the job emitted or counted, over wall_s
  cpu_s         median user+sys CPU time of the worker, sieve threads included
  peak_rss_mb   median max RSS of the worker
  setup_s       shortest time from spawn to the first call into the workload,
                over the jobs and the set-up-only workers run between them
                (PROBE_SHARE of the job time, at least MIN_SETUPS samples)

setup_s is a minimum, not a median. Set-up is a fraction of a second of
imports, and on a shared virtual machine it ran either at full speed or
about 1.6 times slower, in phases of a few seconds. Its median jumps
between the two modes from run to run; the fastest of the samples spread over
a run stays put, and slower set-up code still raises it. The median is
printed for reference.

With ``--trace 1``, jobs alternate untraced and traced; the metrics are the
per-layer medians of the traced jobs (see tracer.py) and
``trace.overhead_frac``, traced over untraced median wall time, minus 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import SCALES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"

MIN_JOBS = 3
MIN_SETUPS = 15
PROBE_SHARE = 0.15  # set-up probes take this share of the time jobs took
RUN_BUDGET_S = 170.0  # a run must end within 180 s


def now() -> float:
    """CLOCK_MONOTONIC seconds, comparable with the worker's stamps."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def from_checkout_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def spawn(spec: dict, threads: int, timeout: float) -> dict:
    """Run one worker; returns its report plus ``t_spawn`` and ``problems``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PRIMEGAP_THREADS=str(threads))
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]
    t_spawn = now()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"t_spawn": t_spawn, "problems": [f"worker timed out after {timeout:.0f} s"]}
    lines = proc.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"t_spawn": t_spawn, "problems": [f"worker exit {proc.returncode}: {tail[0]}"]}
    report["t_spawn"] = t_spawn
    report["problems"] = []
    if proc.returncode != 0:
        report["problems"].append(f"worker exit code {proc.returncode}")
    if report["error"]:
        report["problems"].append("workload raised: " + report["error"].strip().splitlines()[-1])
    if not from_checkout_src(report["primegaps_file"]):
        report["problems"].append(f"primegaps imported from {report['primegaps_file']}")
    return report


def run_job(wl, inputs: dict, params: dict, trace: bool, deadline: float,
            setup_only: bool = False) -> dict:
    """One checked job in its own worker and its own temp dir (for checkpoints).

    With ``setup_only`` the worker stops where the workload would start
    (after parsing the first leg's arguments): a set-up probe.
    """
    TMP_ROOT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=TMP_ROOT)
    try:
        spec = wl.spec(inputs, params, tmpdir)
        spec.update(threads=wl.threads, trace=trace, setup_only=setup_only)
        job = spawn(spec, wl.threads, max(1.0, deadline - now()))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if "t_first" in job:
        job["setup_s"] = job["t_first"] - job["t_spawn"]
    if "facts" in job and not job["problems"]:
        job["problems"] = wl.gate(job["facts"], params)
    if "t_end" in job:
        job["wall_s"] = job["t_end"] - job["t_spawn"]
    return job


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def src_digest() -> str:
    """sha256 over src/'s Python files, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(wl, job: dict) -> dict:
    return {
        "threads": wl.threads,
        "nproc": len(os.sched_getaffinity(0)),
        **job.get("versions", {"python": platform.python_version()}),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "primegaps_file": job.get("primegaps_file", "unknown"),
        "primegaps_from_checkout_src": from_checkout_src(job.get("primegaps_file", "/")),
    }


def median_of(jobs: list[dict], key: str) -> float:
    return statistics.median(job[key] for job in jobs)


def run(workload: str, seed: int, seconds: int, trace: bool,
        pins: dict | None = None) -> dict:
    """Run one benchmark run, print its report lines and return the result object.

    ``pins`` replaces the full-size parameters and pinned outputs
    (``SCALES["full"]``); the smoke check passes small or wrong ones.
    """
    wl = WORKLOADS[workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    params = (pins or SCALES["full"])[workload]
    inputs = wl.inputs(random.Random(seed), params)
    t0 = now()
    deadline = t0 + RUN_BUDGET_S
    jobs: list[dict] = []
    setups: list[float] = []
    job_s = probe_s = 0.0

    def probe() -> dict:
        job = run_job(wl, inputs, params, False, deadline, setup_only=True)
        if "setup_s" in job:
            setups.append(job["setup_s"])
        return job

    # Unmeasured: compiles bytecode and warms the page cache, as a user's
    # installed copy would have; also reports the versions for the env line.
    warm = probe()
    setups.clear()
    print("env " + json.dumps(environment(wl, warm)))
    print(f"workload {workload}  seed {seed}  inputs {json.dumps(inputs)}")
    while True:
        traced = trace and len(jobs) % 2 == 1
        job = run_job(wl, inputs, params, traced, deadline)
        job["traced"] = traced
        jobs.append(job)
        status = "ok" if not job["problems"] else "FAILED: " + "; ".join(job["problems"])
        timing = ""
        if "wall_s" in job:
            timing = f"wall_s {job['wall_s']:.3f}  setup_s {job['setup_s']:.3f}"
            setups.append(job["setup_s"])
            job_s += job["wall_s"]
        print(f"job {len(jobs)}{' traced' if traced else ''}  {timing}  {status}", flush=True)
        # Set-up probes after every job, in proportion to the time jobs took,
        # so slow phases of the machine weigh on setup_s as on the jobs.
        while not trace and probe_s < PROBE_SHARE * job_s and now() < deadline - 20:
            t_probe = now()
            probe()
            probe_s += now() - t_probe
        enough = len(jobs) % 2 == 0 if trace else len(jobs) >= MIN_JOBS
        if (now() - t0 >= seconds and enough) or now() > deadline - 20:
            break
    failed = sum(1 for job in jobs if job["problems"])
    timed = [job for job in jobs if "wall_s" in job]
    if not timed:
        raise RuntimeError("no job produced timings")
    print(f"failed_frac {failed / len(jobs)}  ({failed} of {len(jobs)} jobs)")
    if trace:
        values = trace_metrics(timed)
    else:
        while len(setups) < MIN_SETUPS and now() < deadline - 10:
            probe()
        wall = median_of(timed, "wall_s")
        facts = next((job["facts"] for job in timed if "facts" in job), None)
        primes = wl.primes(facts, params) if facts else 0
        values = {
            "wall_s": wall,
            "primes_per_s": primes / wall,
            "cpu_s": median_of(timed, "cpu_s"),
            "peak_rss_mb": statistics.median(job["maxrss_kb"] / 1024 for job in timed),
            "setup_s": min(setups),
        }
        print(f"samples: {len(timed)} jobs, {len(setups)} set-ups; primes per job {primes}")
        print(f"set-up: shortest {min(setups):.6g} s, median {statistics.median(setups):.6g} s")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}


def trace_metrics(timed: list[dict]) -> dict[str, float]:
    traced = [job for job in timed if job["traced"] and "layers" in job]
    plain = [job for job in timed if not job["traced"]]
    if not traced or not plain:
        raise RuntimeError("a traced run needs an untraced and a traced job with timings")
    values = {
        name: statistics.median(job["layers"][name] for job in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead_frac"] = median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "primegaps" / "__init__.py").is_file():
        print(f"error: {SRC / 'primegaps'} not found; run from a primegaps checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
