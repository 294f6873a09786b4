import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from primegaps import verify
from primegaps.cli import EXIT_ERROR, EXIT_FINDING, EXIT_OK, EXIT_USAGE, FORMATS, main
from primegaps.gaps import GapRecord
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
    code, out, err = run_cli(
        capsys,
        "verify",
        "--limit",
        "100",
        "--checkpoint",
        str(tmp_path / "absent.ck"),
        "--resume",
    )
    assert code == EXIT_ERROR and "error:" in err
    assert out == ""


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("gap_max", 500),
        ("violation_counts", {"theorem1": -7}),
        ("maximal_records", ()),
        ("last_n", 3001),  # p_3000 = 27449: the stream would misnumber every later prime
    ],
)
def test_verify_resume_rejects_forged_counters(tmp_path, capsys, field, value):
    path = tmp_path / "run.ck"
    argv = ["verify", "--limit", "30000", "--checkpoint", str(path), "--interval", "3000"]
    argv += ["--checks", "theorem1"]
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    write_checkpoint(path, dataclasses.replace(read_checkpoint(path), **{field: value}))
    code, out, err = run_cli(capsys, *argv, "--resume")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: checkpoint") and err.count("\n") == 1


def test_verify_resume_rejects_forged_record(tmp_path, capsys):
    path = tmp_path / "run.ck"
    argv = ["verify", "--limit", "30000", "--checkpoint", str(path), "--interval", "3000"]
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    ck = read_checkpoint(path)
    assert ck.maximal_records[4] == GapRecord(24, 89, 8, True, 6)
    forged = ck.maximal_records[:4] + (GapRecord(24, 91, 8, True, 6),) + ck.maximal_records[5:]
    write_checkpoint(path, dataclasses.replace(ck, maximal_records=forged))
    code, out, err = run_cli(capsys, *argv, "--resume")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: checkpoint maximal record n=24,p=91") and err.count("\n") == 1


# A hash-valid file from format version 1, which also stored the look-ahead.
V1_CHECKPOINT = """\
format_version = 1
limit = 150
last_n = 25
last_p = 97
gap_max = 8
lookahead_primes = 101,103,107,109,113
violation_counts = theorem1:0
first_violations = -
maximal_records = 1:2:1:1:1;2:3:2:1:1;4:7:4:1:1;9:23:6:1:2;24:89:8:1:6
sha256 = 1d189ba7322501f6f2ac8115dd56ccd81d6438dfefe10a27f6ca51047023c7a1
"""


def test_verify_resume_refuses_version_1(tmp_path, capsys):
    path = tmp_path / "v1.ck"
    path.write_text(V1_CHECKPOINT)
    argv = ["verify", "--limit", "150", "--checks", "theorem1", "--checkpoint", str(path)]
    code, out, err = run_cli(capsys, *argv, "--interval", "25", "--resume")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "version 1 unsupported (expected 2)" in err


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


# sha256 of `primegaps bounds P --format F` stdout, frozen from the release
# before the bound table.  The primes cover every "not applicable" branch,
# both Dusart thresholds (5393, 60184), epsilon 1/13 off below n = 119 and on
# above it, and p = 285343, where np.log and math.log differ in the last bit
# of (p + 1) / log p: printed bound values are evaluated with math.
BOUNDS_GOLDEN = {
    (2, "csv"): "e0cc446dd7ddbbe0ac7c25711bb84465898de35b3fe132dd78dbf33812dbfca5",
    (2, "jsonl"): "326a5b8b7d3b23b5607ec0cc494551f7109c1caa4b46b1211d4eac009086062c",
    (2, "table"): "ec0cf348ac9c7cc537ecbfc04c409734cf442fc1ccfdd218de825f7d1753e80a",
    (5, "csv"): "9745d7049104be243de6f6e6220236c87517103d80a783ee81536da6cdeba68e",
    (5, "jsonl"): "64045a6edee9be1894253f5c9b385902d12d1f1c8e31510b4e690acd0613949b",
    (5, "table"): "e8adf6a8139789e5ee505541375d8a46f097b31b26f7dcb7ed1ebeedfe3c88a8",
    (113, "csv"): "994e7be2ff68a94da60c802752d8906bbf11a1c913f9dc0b381c7c6feacd5916",
    (113, "jsonl"): "3441bbcd6fadac5cbb6d0aae6a5a39d324d0a4a6cecbdbc098999274fdf9cac5",
    (113, "table"): "aa58fd7960c07fb89b617059173e7f112386caa6d9fe0969b59c02be52a0485d",
    (5393, "csv"): "45c6a856f2321a47888ba94a04d5a130e29c294e5c0310745bc72c7b5729f243",
    (5393, "jsonl"): "fa49fe32c7b8fa62cc5dc76dfe97a5f77f3a1059b0d938ce27ad48bed2ed5d13",
    (5393, "table"): "95b2463f4ac2fdcd9ad5bbd2edc342b582ccac7ad4e3b114630fd2a8ed1acc95",
    (60217, "csv"): "5a50956411796a43108400c00c50b06a3203dabea65cd6d34f3ed9610696d449",
    (60217, "jsonl"): "4f3df62b5c0cd4b2b5897106ee35fd7d3ea4f523e69edce327408008c2786ddd",
    (60217, "table"): "c5bc5f5670e4f113cb95b98f43bb253f5a91e99801b5b746d5035d78328265d9",
    (285343, "csv"): "c7003c9324125dffda9a53f2ecd5563d29d9baf2dd46056a9b898a3b820252c6",
    (285343, "jsonl"): "42cc9b73cdb0c6cf2cfe7eda6bbf71b89eb304d0e3f576e8be0db81dd9f0568c",
    (285343, "table"): "c13224b8cfdc476d03fcfbb3c42df116942480edab767d2689657b12477bb8fd",
    (2010881, "csv"): "5f9236478e1fa4c1461bd2414b73611d41ec4a08226108cf59cd98cd239e8289",
    (2010881, "jsonl"): "9a881b6686ce1c52f1553d1cddff1440905381386bcf3452c68ea7db4ac13ab0",
    (2010881, "table"): "5e38f8880bb267e7338a3acf4b2e7c72d4cbeab6df2d9d6f9fbc67eb927789ef",
}


@pytest.mark.parametrize("p", sorted({p for p, _ in BOUNDS_GOLDEN}))
def test_bounds_cli_golden(capsys, p):
    for fmt in FORMATS:
        code, out, _ = run_cli(capsys, "bounds", str(p), "--format", fmt)
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == BOUNDS_GOLDEN[p, fmt], f"bounds {p} --format {fmt} changed:\n{out}"
    if p == 285343:
        _, out, _ = run_cli(capsys, "bounds", str(p), "--format", "csv")
        assert "\nempirical,22715.853870063707,34.0,true,\n" in out
        assert "\ncorollary1,24895.89612164826,34.0,true,\n" in out


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


class Interrupt(Exception):
    pass


def interrupt_after_checkpoint(monkeypatch, last_n):
    """Make the next run stop right after writing its checkpoint at last_n."""
    write = verify.write_checkpoint

    def write_then_stop(path, ck):
        write(path, ck)
        if ck.last_n == last_n:
            raise Interrupt

    monkeypatch.setattr(verify, "write_checkpoint", write_then_stop)


def test_table1_cli_resume_matches_uninterrupted(tmp_path, capsys, monkeypatch):
    argv = ["table1", "--max-prime", "1000000", "--format", "csv"]
    code, full_out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    argv += ["--checkpoint", str(tmp_path / "table.ck"), "--interval", "20000"]
    with monkeypatch.context() as patch:
        interrupt_after_checkpoint(patch, 40_000)
        with pytest.raises(Interrupt):
            main(argv)
    assert capsys.readouterr().out == ""
    # records n = 30802 and 31545 come from the checkpoint, n = 40933 from the resumed run
    code, resumed_out, err = run_cli(capsys, *argv, "--resume")
    assert code == EXIT_OK and "mismatch" not in err
    assert resumed_out == full_out


def test_table1_cli_resume_rejects_forged_checkpoint(tmp_path, capsys, monkeypatch):
    path = tmp_path / "table.ck"
    argv = ["table1", "--max-prime", "1000000", "--checkpoint", str(path), "--interval", "20000"]
    with monkeypatch.context() as patch:
        interrupt_after_checkpoint(patch, 20_000)
        with pytest.raises(Interrupt):
            main(argv)
    ck = read_checkpoint(path)
    last = ck.maximal_records[-1]
    assert (last.n, last.p) == (14357, 155921)
    forged = ck.maximal_records[:-1] + (dataclasses.replace(last, theorem1_margin=1166),)
    write_checkpoint(path, dataclasses.replace(ck, maximal_records=forged))
    code, out, err = run_cli(capsys, *argv, "--resume")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: checkpoint maximal record n=14357") and err.count("\n") == 1


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
