import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from primegaps.cli import EXIT_ERROR, EXIT_FINDING, EXIT_OK, EXIT_USAGE, main
from primegaps.verify import (
    CHECKS,
    CheckDef,
    RunConfig,
    read_checkpoint,
    run_verification,
    write_checkpoint,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gaps_csv_maximal(capsys):
    code, out, err = run_cli(capsys, "gaps", "--limit", "30", "--maximal-only")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "n,p,gap,is_maximal,theorem1_margin",
        "1,2,1,true,1",
        "2,3,2,true,1",
        "4,7,4,true,1",
        "9,23,6,true,2",
    ]


def test_gaps_jsonl(capsys):
    code, out, _ = run_cli(capsys, "gaps", "--limit", "5", "--format", "jsonl")
    assert code == EXIT_OK
    assert [json.loads(line) for line in out.splitlines()] == [
        {"n": 1, "p": 2, "gap": 1, "is_maximal": True, "theorem1_margin": 1},
        {"n": 2, "p": 3, "gap": 2, "is_maximal": True, "theorem1_margin": 1},
        {"n": 3, "p": 5, "gap": 2, "is_maximal": False, "theorem1_margin": 1},
    ]


def test_gaps_table_format(capsys):
    code, out, _ = run_cli(capsys, "gaps", "--limit", "10", "--format", "table")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].split() == ["n", "p", "gap", "max", "margin"]
    assert lines[1].split() == ["1", "2", "1", "*", "1"]
    assert lines[3].split() == ["3", "5", "2", "-", "1"]


def test_gaps_formats_carry_identical_data(capsys):
    _, csv_out, _ = run_cli(capsys, "gaps", "--limit", "200", "--format", "csv")
    _, jsonl_out, _ = run_cli(capsys, "gaps", "--limit", "200", "--format", "jsonl")
    csv_rows = [
        (int(n), int(p), int(g), m == "true", int(t))
        for n, p, g, m, t in (line.split(",") for line in csv_out.splitlines()[1:])
    ]
    jsonl_rows = [
        (d["n"], d["p"], d["gap"], d["is_maximal"], d["theorem1_margin"])
        for d in map(json.loads, jsonl_out.splitlines())
    ]
    assert csv_rows == jsonl_rows


def test_gaps_bad_limit_is_operational_error(capsys):
    code, _, err = run_cli(capsys, "gaps", "--limit", "2")
    assert code == EXIT_ERROR
    assert "error:" in err


def test_usage_errors_exit_2():
    for argv in (["gaps"], ["gaps", "--limit", "goose"], ["no-such-command"], []):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE


def test_pi(capsys):
    code, out, _ = run_cli(capsys, "pi", "113")
    assert code == EXIT_OK and out == "pi(113) = 30\n"
    code, out, _ = run_cli(capsys, "pi", "1", "--format", "jsonl")
    assert code == EXIT_OK and json.loads(out) == {"x": 1, "pi": 0}
    code, out, _ = run_cli(capsys, "pi", "1000000", "--format", "csv")
    assert code == EXIT_OK and out == "x,pi\n1000000,78498\n"
    code, _, err = run_cli(capsys, "pi", "--", "-5")
    assert code == EXIT_ERROR and "error:" in err


def test_bad_segment_size_is_operational_error(capsys):
    for argv in (
        ["pi", "100", "--segment-size", "-5"],
        ["bounds", "97", "--segment-size", "-1"],
        ["pi", "100", "--segment-size", "0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ERROR and out == ""
        assert err.startswith("error: segment_size must be positive") and err.count("\n") == 1


def test_verify_clean_run(capsys):
    code, out, err = run_cli(capsys, "verify", "--limit", "1000")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,p,gap,is_maximal,theorem1_margin"
    assert "2,3,2,true,1" in lines
    assert "# primes_processed = 168" in lines
    assert "# check theorem1: applied=168 violations=0 first=-" in lines
    assert "# check corollary1: applied=166 violations=0 first=-" in lines
    assert "wall_time_s" in err


def test_verify_jsonl_summary(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--limit", "1000", "--checks", "theorem1", "--format", "jsonl"
    )
    assert code == EXIT_OK
    objs = [json.loads(line) for line in out.splitlines()]
    summary = objs[-1]["summary"]
    assert summary["primes_processed"] == 168
    assert summary["checks"][0]["name"] == "theorem1"
    assert summary["checks"][0]["violations"] == 0
    assert summary["checks"][0]["first_violation"] is None
    assert len(summary["maximal_records"]) == 8


def test_verify_finding_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(
        CHECKS,
        "always_fails",
        CheckDef("always_fails", "test-only", 1, lambda b: np.ones(len(b), dtype=bool)),
    )
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--limit",
        "100",
        "--checks",
        "always_fails",
        "--emit",
        "violations",
    )
    assert code == EXIT_FINDING
    assert "# check always_fails: applied=25 violations=25 first=n=1,p=2,gap=1,margin=1" in out


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--limit", "100", "--checks", "bogus")
    assert code == EXIT_ERROR and "unknown checks" in err


def test_verify_resume_requires_checkpoint(capsys):
    code, _, err = run_cli(capsys, "verify", "--limit", "100", "--resume")
    assert code == EXIT_USAGE and "--resume requires --checkpoint" in err


def test_verify_missing_checkpoint_file(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "verify",
        "--limit",
        "100",
        "--checkpoint",
        str(tmp_path / "absent.ck"),
        "--resume",
    )
    assert code == EXIT_ERROR and "error:" in err


def test_verify_cli_resume_continues_interrupted_run(tmp_path, capsys):
    checks = "theorem1,bertrand,corollary1,empirical"
    code, full_out, _ = run_cli(
        capsys, "verify", "--limit", "10000", "--emit", "all", "--format", "csv"
    )
    assert code == EXIT_OK
    full_lines = full_out.splitlines()

    path = tmp_path / "run.ck"
    config = RunConfig(
        limit=10_000,
        checks=tuple(checks.split(",")),
        emit="all",
        checkpoint_path=str(path),
        checkpoint_interval=300,
    )

    class Interrupt(Exception):
        pass

    seen = 0

    def sink(_):
        nonlocal seen
        seen += 1
        if seen >= 700:
            raise Interrupt

    with pytest.raises(Interrupt):
        run_verification(config, sink=sink)

    code, resumed_out, _ = run_cli(
        capsys,
        "verify",
        "--limit",
        "10000",
        "--emit",
        "all",
        "--checkpoint",
        str(path),
        "--resume",
        "--interval",
        "300",
    )
    assert code == EXIT_OK
    resumed_lines = resumed_out.splitlines()
    # header + records after the checkpoint (n = 600) + identical summary
    assert resumed_lines[0] == full_lines[0]
    assert resumed_lines[1] == full_lines[601]  # first record after n=600
    assert full_lines[:1] + full_lines[601:] == resumed_lines


def test_verify_resume_rejects_reordered_lookahead(tmp_path, capsys):
    path = tmp_path / "run.ck"
    argv = ["verify", "--limit", "30000", "--checkpoint", str(path), "--interval", "3000"]
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    ck = read_checkpoint(path)
    assert ck.last_n == 3000
    write_checkpoint(path, dataclasses.replace(ck, lookahead=ck.lookahead[::-1].copy()))
    code, out, err = run_cli(capsys, *argv, "--resume")
    assert code == EXIT_ERROR
    assert not [line for line in out.splitlines() if line.startswith("#")]  # no summary
    assert err.startswith("error: checkpoint look-ahead is not strictly ascending")


def test_bounds_cli(capsys):
    code, out, _ = run_cli(capsys, "bounds", "113")
    assert code == EXIT_OK
    assert "p = 113" in out and "n = pi(p) = 30" in out and "gap = 14" in out
    assert "corollary1" in out and "31.1519" in out
    assert "not applicable (n <= 118)" in out
    code, out, _ = run_cli(capsys, "bounds", "113", "--format", "jsonl")
    objs = [json.loads(line) for line in out.splitlines()]
    assert objs[0] == {"p": 113, "n": 30, "gap": 14}
    by_name = {o["check"]: o for o in objs[1:]}
    assert by_name["empirical"]["holds"] is True
    assert by_name["epsilon_1_13"]["holds"] is None
    code, _, err = run_cli(capsys, "bounds", "112")
    assert code == EXIT_ERROR and "not a prime" in err


def test_table1_cli_subset(capsys):
    code, out, err = run_cli(capsys, "table1", "--max-prime", "1000000", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,p,gap,starred,margin,bound"
    assert len(lines) == 43
    assert lines[1] == "1,2,1,true,1,4.3"
    assert lines[30] == "30,113,14,true,4,24.1"
    assert lines[-1] == "40933,492113,114,true,3123,37547.4"
    assert "mismatch" not in err


def test_table1_cli_resume_flag_requires_checkpoint(capsys):
    code, _, err = run_cli(capsys, "table1", "--resume")
    assert code == EXIT_USAGE and "--resume requires --checkpoint" in err


def test_witness_cli(capsys):
    code, out, _ = run_cli(capsys, "witness", "4", "--format", "csv")
    assert code == EXIT_OK
    assert out == "m,p,gap,gap_lower_bound\n4,23,6,4\n"
    code, out, _ = run_cli(capsys, "witness", "5", "--format", "jsonl")
    assert json.loads(out) == {"m": 5, "p": 113, "gap": 14, "gap_lower_bound": 5}
    code, _, err = run_cli(capsys, "witness", "2")
    assert code == EXIT_ERROR and "error:" in err


def test_stdout_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--limit", "10000", "--format", "csv")
    _, second, _ = run_cli(capsys, "verify", "--limit", "10000", "--format", "csv")
    assert first == second


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "primegaps", "pi", "97"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "pi(97) = 25\n"
