"""The benchmark's workloads: inputs made from a seed, job specs and output gates.

Each workload stresses a different layer of primegaps:

- table1_full: ``primegaps table1 --format csv`` to 436 273 009, the paper's
  headline table. Stream assembly (``GapBlockStream``) does most of the work.
- verify_resume_1e8: ``verify`` with all 8 checks, checkpointed to a
  seed-chosen limit, then resumed to 1e8 in the same job. The only workload
  where the check registry and checkpoint I/O take a visible share.
- gaps_csv_1e7: ``primegaps gaps --limit 10000000 --format csv``, 664 579
  rows. Per-record emit dominates; sieve and stream are a small share.
- sieve_far_1e12: ``SegmentFeed`` on one thread over 32 segments of 2^20 just
  above 1e12, where the per-base-prime loop of ``sieve_segment`` dominates.

The last two keep one thread busy and are not declared in BENCHMARK.json:
their run-to-run spread exceeded the bound on a shared 2-vCPU machine (see
README.md), so they are run by hand.

Pinned digests and counts were computed from the stdout of commit df231a9,
before any optimisation, and every later commit must reproduce them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

ALL_CHECKS = (
    "theorem1,bertrand,corollary1,empirical,andrica,"
    "epsilon_1_5,epsilon_1_13,epsilon_1_16597"
)

# Sizes and pinned outputs per scale. The benchmark runs "full"; "small"
# divides every limit by 100 and sieves 2 far segments, for the harness smoke
# check (smoke.py), which passes it to run.run() as ``pins``.
SCALES: dict[str, dict[str, dict]] = {
    "full": {
        "table1_full": {
            "max_prime": 436273009,
            "primes": 23163298,
            "sha256": "821aee5162f914f6ca8b40701cdad43865875bfdeb50083b43cac01cfcf70b9f",
        },
        "verify_resume_1e8": {
            "limit": 10**8,
            "interval": 10**6,
            # p_n for n = 2e6, 3e6, 4e6: the checkpoint positions leg 1 can end on.
            "checkpoint_primes": (32452843, 49979687, 67867967),
            "leg1_past": 1 << 20,
            # "# " summary lines of an uninterrupted `verify --limit 1e8` with all
            # 8 checks: 5 761 455 primes, last 99 999 989, gap_max 220, no
            # violations, 25 record rows.
            "summary_sha256": "d0b8d1eddfb9304f7da2bfda1d0d2e6c3d3b152468ae6d5c3874f4d46a68ebb9",
        },
        "gaps_csv_1e7": {
            "limit": 10**7,
            "primes": 664579,
            "sha256": "2ba9a88db689503d86561b727e3f98ecdafc11ed07658c436a48d4ced56d0655",
        },
        "sieve_far_1e12": {
            "start": 10**12,
            "offsets": 1024,
            "segments": 32,
            "segment_size": 1 << 20,
            "samples": 2000,
        },
    },
    "small": {
        "table1_full": {
            "max_prime": 4362730,
            "primes": 306906,
            "sha256": "fb10554bdc2cb11067fdcc518f8025981c87a4f0a1dd79dab191811b1cac7c2f",
        },
        "verify_resume_1e8": {
            "limit": 10**6,
            "interval": 10**4,
            "checkpoint_primes": (224737, 350377, 479909),
            "leg1_past": 10**4,
            "summary_sha256": "c8c8505de7eb6500024876e6f9bc7504a717bd9fbb04384ebd1b13e850a6b8e5",
        },
        "gaps_csv_1e7": {
            "limit": 10**5,
            "primes": 9592,
            "sha256": "728b5ac27d3d6d1dadf7484b0b46b25f76cbf156f4c54c1c21a1a7fb56f02dc1",
        },
        "sieve_far_1e12": {
            "start": 10**12,
            "offsets": 1024,
            "segments": 2,
            "segment_size": 1 << 20,
            "samples": 200,
        },
    },
}


@dataclass(frozen=True)
class Workload:
    """One workload: its sieve thread count and how to make, run and check a job.

    ``inputs`` draws the seed-dependent inputs once per run; ``spec`` turns
    them into the job spec a worker runs (``tmpdir`` is a fresh per-job
    directory); ``gate`` lists what is wrong with a job's reported facts;
    ``primes`` is the number of primes the job emitted or counted.
    """

    name: str
    threads: int
    inputs: Callable[[random.Random, dict], dict]
    spec: Callable[[dict, dict, str], dict]
    gate: Callable[[dict, dict], list[str]]
    primes: Callable[[dict, dict], int]


def _exit_problems(facts: dict, want: int) -> list[str]:
    codes = [leg["exit"] for leg in facts["legs"]]
    return [] if codes == [0] * want else [f"exit codes {codes}, expected {[0] * want}"]


def _digest_problem(what: str, got: str, pinned: str) -> list[str]:
    return [] if got == pinned else [f"{what} sha256 {got} differs from pinned {pinned}"]


# --- table1_full -----------------------------------------------------------

def _table1_spec(inputs: dict, params: dict, tmpdir: str) -> dict:
    argv = ["table1", "--format", "csv", "--max-prime", str(params["max_prime"])]
    return {"kind": "cli", "legs": [{"argv": argv, "keep": False}]}


def _table1_gate(facts: dict, params: dict) -> list[str]:
    return _exit_problems(facts, 1) + _digest_problem(
        "stdout", facts["legs"][0]["sha256"], params["sha256"]
    )


# --- gaps_csv_1e7 ----------------------------------------------------------

def _gaps_spec(inputs: dict, params: dict, tmpdir: str) -> dict:
    argv = ["gaps", "--limit", str(params["limit"]), "--format", "csv"]
    return {"kind": "cli", "legs": [{"argv": argv, "keep": False}]}


def _gaps_gate(facts: dict, params: dict) -> list[str]:
    leg = facts["legs"][0]
    problems = _exit_problems(facts, 1)
    problems += _digest_problem("stdout", leg["sha256"], params["sha256"])
    if leg["lines"] - 1 != params["primes"]:
        problems.append(f"{leg['lines'] - 1} rows, expected pi = {params['primes']}")
    return problems


def _gaps_primes(facts: dict, params: dict) -> int:
    return facts["legs"][0]["lines"] - 1


# --- verify_resume_1e8 -----------------------------------------------------

def _verify_inputs(rng: random.Random, params: dict) -> dict:
    # Leg 1 ends just past a checkpoint position, so the indices leg 2 must
    # redo are few and the work per job barely depends on the seed; the seed
    # picks which checkpoint leg 2 resumes from.
    ck_prime = rng.choice(params["checkpoint_primes"])
    return {"leg1_limit": ck_prime + rng.randrange(params["leg1_past"])}


def _verify_spec(inputs: dict, params: dict, tmpdir: str) -> dict:
    common = [
        "--checks", ALL_CHECKS,
        "--checkpoint", f"{tmpdir}/verify.ckpt",
        "--interval", str(params["interval"]),
    ]
    leg1 = ["verify", "--limit", str(inputs["leg1_limit"]), *common]
    leg2 = ["verify", "--limit", str(params["limit"]), *common, "--resume"]
    return {"kind": "cli", "legs": [{"argv": leg1, "keep": True}, {"argv": leg2, "keep": True}]}


def _verify_gate(facts: dict, params: dict) -> list[str]:
    summary = facts["legs"][1]["summary"]
    got = hashlib.sha256(summary.encode("utf-8")).hexdigest()
    return _exit_problems(facts, 2) + _digest_problem(
        "leg-2 summary", got, params["summary_sha256"]
    )


def _primes_processed(summary: str) -> int:
    for line in summary.splitlines():
        if line.startswith("# primes_processed = "):
            return int(line.rpartition(" ")[2])
    return 0


def _verify_primes(facts: dict, params: dict) -> int:
    # Leg 1's primes plus leg 2's, minus the indices before leg 2's checkpoint.
    leg1 = _primes_processed(facts["legs"][0]["summary"])
    leg2 = _primes_processed(facts["legs"][1]["summary"])
    return leg1 + leg2 - leg1 // params["interval"] * params["interval"]


# --- sieve_far_1e12 --------------------------------------------------------

def _far_inputs(rng: random.Random, params: dict) -> dict:
    offset = rng.randrange(params["offsets"]) * params["segment_size"]
    return {"start": params["start"] + offset, "sample_seed": rng.getrandbits(32)}


def _far_spec(inputs: dict, params: dict, tmpdir: str) -> dict:
    return {
        "kind": "feed",
        "start": inputs["start"],
        "segment_size": params["segment_size"],
        "segments": params["segments"],
        "samples": params["samples"],
        "sample_seed": inputs["sample_seed"],
    }


def _far_gate(facts: dict, params: dict) -> list[str]:
    problems = list(facts["feed_problems"])
    if facts["mr_sampled"] < 2 * params["samples"]:
        problems.append(f"only {facts['mr_sampled']} integers tested by Miller-Rabin")
    if facts["mr_disagree"]:
        problems.append(f"{facts['mr_disagree']} sampled integers misclassified by the sieve")
    return problems


def _no_inputs(rng: random.Random, params: dict) -> dict:
    return {}


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            "table1_full", 2, _no_inputs, _table1_spec, _table1_gate,
            lambda facts, params: params["primes"],
        ),
        Workload(
            "verify_resume_1e8", 2, _verify_inputs, _verify_spec, _verify_gate,
            _verify_primes,
        ),
        Workload("gaps_csv_1e7", 2, _no_inputs, _gaps_spec, _gaps_gate, _gaps_primes),
        Workload(
            "sieve_far_1e12", 1, _far_inputs, _far_spec, _far_gate,
            lambda facts, params: facts["primes"],
        ),
    )
}
