import dataclasses
import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from primegaps import sieve, verify
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
    assert err == "error: limit must be >= 3, got 2\n"


@pytest.mark.parametrize("fmt", ["csv", "table"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--limit", "2"],
        ["--limit", str(2**62 + 1)],
        ["--limit", "-1"],
        ["--limit", str(2**64)],
    ],
)
def test_gaps_bad_arguments_write_nothing_to_stdout(capsys, argv, fmt):
    code, out, err = run_cli(capsys, "gaps", *argv, "--format", fmt)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "table"])
@pytest.mark.parametrize("emit", ["maximal", "all"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--limit", "100", "--interval", "0"],
        ["--limit", str(2**62 + 1)],
    ],
)
def test_verify_bad_arguments_write_nothing_to_stdout(capsys, monkeypatch, argv, emit, fmt):
    monkeypatch.setenv("PRIMEGAP_THREADS", "1")  # a rejected run must not start at all
    code, out, err = run_cli(capsys, "verify", *argv, "--emit", emit, "--format", fmt)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_errors_exit_2():
    for argv in (["gaps"], ["gaps", "--limit", "goose"], ["no-such-command"], []):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE


def test_pi(capsys):
    for x, fmt, expected in [
        ("113", "table", "pi(113) = 30\n"),
        ("1000000", "csv", "x,pi\n1000000,78498\n"),
        ("1", "csv", "x,pi\n1,0\n"),
        ("1", "jsonl", '{"x": 1, "pi": 0}\n'),
        ("1", "table", "pi(1) = 0\n"),
        ("1000000", "jsonl", '{"x": 1000000, "pi": 78498}\n'),
        ("1000000", "table", "pi(1000000) = 78498\n"),
        # Lucy's pi: well under a second, where sieving to x took minutes
        ("100000000000", "csv", "x,pi\n100000000000,4118054813\n"),
        ("100000000000", "jsonl", '{"x": 100000000000, "pi": 4118054813}\n'),
        ("100000000000", "table", "pi(100000000000) = 4118054813\n"),
    ]:
        assert run_cli(capsys, "pi", x, "--format", fmt)[:2] == (EXIT_OK, expected)


def test_bad_values_are_operational_errors(capsys):
    for argv in (
        ["pi", "--", "-5"],
        ["pi", str(sieve.PRIME_PI_MAX + 1)],  # refused before prime_pi allocates
        ["bounds", "112"],
        ["bounds", "1"],
        ["table1", "--max-prime", "100", "--interval", "0"],
    ):
        for fmt in FORMATS:
            t0 = time.perf_counter()
            code, out, err = run_cli(capsys, argv[0], "--format", fmt, *argv[1:])
            assert time.perf_counter() - t0 < 1
            assert code == EXIT_ERROR and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


def test_resume_past_the_pi_range_writes_nothing_to_stdout(tmp_path, capsys, monkeypatch):
    path = tmp_path / "run.ck"
    argv = ["verify", "--limit", "30000", "--checkpoint", str(path), "--interval", "3000"]
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert read_checkpoint(path).last_p == 27_449
    monkeypatch.setattr(sieve, "PRIME_PI_MAX", 27_448)
    code, out, err = run_cli(capsys, *argv, "--resume")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: pi(x) is computed for x <= 27448, got 27449\n"


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


@pytest.mark.parametrize("threads", ["0", "x"])
@pytest.mark.parametrize(
    "argv",
    [["verify", "--limit", "1000"], ["table1", "--max-prime", "1000"], ["gaps", "--limit", "1000"]],
)
def test_bad_thread_count_writes_nothing_to_stdout(monkeypatch, capsys, threads, argv):
    monkeypatch.setenv("PRIMEGAP_THREADS", threads)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: PRIMEGAP_THREADS must be") and err.count("\n") == 1


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


@pytest.mark.parametrize("command", [("verify", "--limit"), ("table1", "--max-prime")])
def test_a_checkpoint_in_a_missing_directory_writes_nothing_to_stdout(tmp_path, capsys, command):
    directory = tmp_path / "absent"
    argv = (*command, "1000", "--checkpoint", str(directory / "x.ck"), "--interval", "10")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: checkpoint directory {directory} does not exist\n"
    assert not directory.exists()


def test_verify_refuses_a_checkpoint_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.ck"
    path.write_bytes(b"\xff\xfeformat_version = 2\n")
    argv = ("verify", "--limit", "1000", "--checkpoint", str(path), "--resume")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: {path}: not a UTF-8 text file (invalid start byte)\n"


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


# The checkpoint of `verify --limit 1400 --interval 220`: record n = 217 has
# target 1327 + 217 = 1544, past p_220 = 1373 and its successor 1381, so its
# margin is still waiting when the file is written.
CHECKPOINT_AT_220 = """\
format_version = 2
limit = 1400
last_n = 220
last_p = 1373
gap_max = 34
violation_counts = bertrand:0,corollary1:0,empirical:0,theorem1:0
first_violations = -
maximal_records = 1:2:1:1:1;2:3:2:1:1;4:7:4:1:1;9:23:6:1:2;24:89:8:1:6;30:113:14:1:4;\
99:523:18:1:15;154:887:20:1:21;189:1129:22:1:25;217:1327:34:1:26
sha256 = 1e88186f55f1d18a2f12520b733a9c3bf5cf121580e66a2728aa117ca9e3a27d
"""


def test_record_waiting_at_a_checkpoint_multiple_is_settled_in_the_file(tmp_path, capsys):
    path = tmp_path / "run.ck"
    argv = ["verify", "--limit", "1400", "--checkpoint", str(path), "--interval", "220"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert out.splitlines()[10] == "217,1327,34,true,26"
    assert path.read_text(encoding="utf-8") == CHECKPOINT_AT_220


def test_record_waiting_at_the_end_of_the_range_is_settled(capsys):
    # 1544 lies past 1361, the successor of the last prime <= 1327
    code, out, _ = run_cli(capsys, "gaps", "--maximal-only", "--limit", "1327")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "217,1327,34,true,26"


def test_settling_past_the_pi_range_gives_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(sieve, "PRIME_PI_MAX", 1500)
    code, _, err = run_cli(capsys, "gaps", "--maximal-only", "--limit", "1327")
    assert code == EXIT_ERROR
    assert err == "error: pi(x) is computed for x <= 1500, got 1544\n"


def test_bounds_refuses_a_prime_past_the_pi_range_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", str(10**15 + 37))  # prime: trial division is slow
    assert time.perf_counter() - t0 < 0.2
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: pi(x) is computed for x <= {sieve.PRIME_PI_MAX}, got {10**15 + 37}\n"


def test_resume_refuses_a_position_past_the_pi_range_at_once(tmp_path, capsys):
    path = tmp_path / "run.ck"
    argv = ["verify", "--limit", "30000", "--checkpoint", str(path), "--interval", "3000"]
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    write_checkpoint(path, dataclasses.replace(read_checkpoint(path), last_p=2**61 - 1))
    argv[2] = str(2**62)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--resume")  # 2**61 - 1 is prime
    assert time.perf_counter() - t0 < 1
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: pi(x) is computed for x <= {sieve.PRIME_PI_MAX}, got {2**61 - 1}\n"


@pytest.mark.parametrize("field", ["version", "limit", "last_n", "last_p", "gap_max"])
def test_resume_refuses_a_non_integer_field_with_the_file_name(tmp_path, capsys, field):
    path = tmp_path / "run.ck"
    argv = ["verify", "--limit", "30000", "--checkpoint", str(path), "--interval", "3000"]
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    write_checkpoint(path, dataclasses.replace(read_checkpoint(path), **{field: "1e3"}))
    code, out, err = run_cli(capsys, *argv, "--resume")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


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
    for fmt, head in [
        ("csv", "# p = 100000000003, n = 4118054814, gap = 16\n"),
        ("jsonl", '{"p": 100000000003, "n": 4118054814, "gap": 16}\n'),
        ("table", "p = 100000000003\nn = pi(p) = 4118054814\ngap = 16\n"),
    ]:
        code, out, _ = run_cli(capsys, "bounds", "100000000003", "--format", fmt)
        assert code == EXIT_OK and out.startswith(head)


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


# sha256 of stdout for commands that print every margin or a few of them,
# frozen before margins were computed on demand (the table1 entries and the
# jsonl and table --maximal-only ones: before gaps and table1 shared one writer).
MARGIN_GOLDEN = {
    ("gaps", "--limit", "100000", "--format", "csv"):
        "728b5ac27d3d6d1dadf7484b0b46b25f76cbf156f4c54c1c21a1a7fb56f02dc1",
    ("gaps", "--limit", "100000", "--format", "jsonl"):
        "c2b368a2bbad0d1564c15bb8f6ef0f13e6c5876c538dd629d5f1001e778620aa",
    ("gaps", "--limit", "100000", "--format", "table"):
        "9720aac2c5e733cdd047c8d672ef5cf5d0b6c4bc441e752a5221959f02ca4b6a",
    ("gaps", "--maximal-only", "--limit", "1000000"):
        "ad94d981bc7638d3869df0bd7dbb295c2d757d236d51d5844f98be1fa6d12a09",
    ("gaps", "--maximal-only", "--limit", "1000000", "--format", "jsonl"):
        "b862cf2bf0523a545802bfd77939857cfa95f05ec6f507a03ed5a86ec5b083eb",
    ("gaps", "--maximal-only", "--limit", "1000000", "--format", "table"):
        "032909102cc398238ca2e85489c44f9c422ebca54b7b2f1904a67ccc2cc6a604",
    ("table1", "--max-prime", "1000000", "--format", "jsonl"):
        "d67b6d97d62fc23b9e216d0a00f027260bfb51a2d82273692d5951429f7e8321",
    ("table1", "--max-prime", "1000000", "--format", "table"):
        "654b9c88d1b014f404ba6fee97baac2931638def44e17b26bae6dc070453ace7",
    ("verify", "--limit", "200000", "--emit", "all", "--format", "csv"):
        "4e7cb8c69ab0997744c14b2860506bbfc42a4bf88d3532cd2fb94041f29c82f6",
}


@pytest.mark.parametrize("argv", list(MARGIN_GOLDEN), ids="_".join)
def test_margin_output_golden(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MARGIN_GOLDEN[argv]


ALL_CHECKS = "theorem1,bertrand,corollary1,empirical,andrica,epsilon_1_5,epsilon_1_13,epsilon_1_16597"
# exit code and sha256 of stdout for jsonl summaries, frozen before the summary
# object was written from the dataclasses' fields; always_fails is the
# test-only check of test_verify_finding_exit_code.
SUMMARY_GOLDEN = {
    ("verify", "--limit", "200000", "--format", "jsonl"):
        (EXIT_OK, "4bb7627457a20ec11ef53e2d42a6bad94593f3f65980769af21eba8f8c71ab3c"),
    ("verify", "--limit", "200000", "--checks", ALL_CHECKS, "--format", "jsonl"):
        (EXIT_OK, "7c96cc705615e39ae0ea07c4c922167b23e9a0b911f4f4d610f5c0d237d283a5"),
    ("verify", "--limit", "100", "--checks", "theorem1,always_fails", "--format", "jsonl"):
        (EXIT_FINDING, "e53f4c37c3603446762fa9dc4e4203facc30244deae47c142d33677d3acfa3fa"),
    ("verify", "--limit", "100", "--checks", "theorem1,always_fails", "--emit", "violations",
     "--format", "jsonl"):
        (EXIT_FINDING, "4368cfe0de253b2b472bb496b6ec8ba741d8272ad3532d6273f6faff5aa4f94a"),
}


@pytest.mark.parametrize("argv", list(SUMMARY_GOLDEN), ids="_".join)
def test_jsonl_summary_golden(monkeypatch, capsys, argv):
    monkeypatch.setitem(
        CHECKS,
        "always_fails",
        CheckDef("always_fails", "test-only", 1, lambda b: np.ones(len(b), dtype=bool)),
    )
    code, out, _ = run_cli(capsys, *argv)
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == SUMMARY_GOLDEN[argv]


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


def test_table1_cli_reports_a_reference_mismatch(capsys, monkeypatch):
    reference = list(verify.TABLE1_REFERENCE)
    n, p, gap, starred, margin, printed = reference[5]
    reference[5] = (n, p, gap, starred, margin + 1, printed)
    monkeypatch.setattr(verify, "TABLE1_REFERENCE", tuple(reference))
    code, out, err = run_cli(capsys, "table1", "--max-prime", "1000", "--format", "csv")
    assert code == EXIT_FINDING
    assert "\n6,13,4,false,2,5.5\n" in out  # the reproduced row, not the patched one
    assert err == (
        "mismatch: row n=6: got (p=13, gap=4, starred=False, margin=2), "
        "expected (p=13, gap=4, starred=False, margin=3)\n"
    )


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


def test_checkpointed_verify_and_resume_at_real_size_do_not_depend_on_workers(
    tmp_path, capsys, monkeypatch
):
    # 2e7 and the resume from p_(1e6) to 3.4e7 each span two default shards, so two
    # workers shard both legs; PRIMEGAP_THREADS=1 runs them in one process
    checks = ",".join(CHECKS)  # all 8
    path = tmp_path / "verify.ck"
    argv = ["verify", "--checks", checks, "--checkpoint", str(path), "--interval", "1000000"]

    def legs(shards: int) -> tuple:
        config = RunConfig(20_000_000, tuple(CHECKS), checkpoint_path=str(path))
        assert len(verify._shard_cuts(config, 1)) == shards + 1
        code1, out1, _ = run_cli(capsys, *argv, "--limit", "20000000")
        ck1 = path.read_bytes()
        config = dataclasses.replace(config, limit=34_000_000)
        assert len(verify._shard_cuts(config, read_checkpoint(path).last_p)) == shards + 1
        code2, out2, _ = run_cli(capsys, *argv, "--limit", "34000000", "--resume")
        ck2 = path.read_bytes()
        path.unlink()
        assert (code1, code2) == (EXIT_OK, EXIT_OK)
        return out1, ck1, out2, ck2

    monkeypatch.setenv("PRIMEGAP_THREADS", "2")
    sharded = legs(2)
    monkeypatch.setenv("PRIMEGAP_THREADS", "1")
    assert legs(1) == sharded
    code, full, _ = run_cli(capsys, "verify", "--checks", checks, "--limit", "34000000")

    def summary(out: str) -> list[str]:
        return [line for line in out.splitlines() if line.startswith("# ")]

    assert code == EXIT_OK and summary(sharded[2]) == summary(full)


def test_table1_cli_resume_flag_requires_checkpoint(capsys):
    code, _, err = run_cli(capsys, "table1", "--resume")
    assert code == EXIT_USAGE and "--resume requires --checkpoint" in err


def test_witness_cli(capsys):
    for m, fmt, expected in [
        ("4", "csv", "m,p,gap,gap_lower_bound\n4,23,6,4\n"),
        ("5", "csv", "m,p,gap,gap_lower_bound\n5,113,14,5\n"),
        ("5", "jsonl", '{"m": 5, "p": 113, "gap": 14, "gap_lower_bound": 5}\n'),
        ("5", "table", "m = 5\np = 113\ngap = 14\ngap >= 5: true\n"),
        ("4", "jsonl", '{"m": 4, "p": 23, "gap": 6, "gap_lower_bound": 4}\n'),
        ("4", "table", "m = 4\np = 23\ngap = 6\ngap >= 4: true\n"),
    ]:
        assert run_cli(capsys, "witness", m, "--format", fmt)[:2] == (EXIT_OK, expected)
    code, _, err = run_cli(capsys, "witness", "2")
    assert code == EXIT_ERROR and "error:" in err


def test_stdout_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--limit", "10000", "--format", "csv")
    _, second, _ = run_cli(capsys, "verify", "--limit", "10000", "--format", "csv")
    assert first == second


def test_runs_without_mpmath():
    # near ties are re-decided in the standard library's decimal, so a run and
    # a marginal decision need no mpmath (an import of it raises ImportError)
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from primegaps import bounds, cli\n"
        "assert bounds.BOUNDS['corollary1'].decide(263101, 23119) == (False, True)\n"
        "sys.exit(cli.main(['verify', '--limit', '100000']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "check corollary1: applied=9590 violations=0" in proc.stdout


def test_a_run_without_a_checkpoint_does_not_import_hashlib():
    # only checkpoint files are hashed, and hashlib loads OpenSSL
    code = (
        "import sys\n"
        "from primegaps import cli\n"
        "code = cli.main(['verify', '--limit', '100000'])\n"
        "assert 'hashlib' not in sys.modules, 'hashlib imported'\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "check theorem1: applied=9592 violations=0" in proc.stdout


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "primegaps", "pi", "97"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "pi(97) = 25\n"
