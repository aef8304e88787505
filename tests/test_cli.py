"""Command line behavior: output formats, exit codes, option wiring."""

import hashlib
import json

import pytest

from grcayley.cli import main

H16_CSV = "eigenvalue,multiplicity\n6,1\n2,6\n-2,9\n"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_info_frozen(capsys):
    code, out, err = run_cli(capsys, ["ring-info", "-p", "2", "-e", "2", "-r", "2"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload == {"p": 2, "e": 2, "r": 2, "modulus": "1,1,1", "xi": "0,1"}


def test_ring_info_deterministic(capsys):
    argv = ["ring-info", "-p", "3", "-e", "2", "-r", "3"]
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second


def test_ring_info_explicit_modulus_roundtrip(capsys):
    base = run_cli(capsys, ["ring-info", "-p", "2", "-e", "2", "-r", "2"])
    pinned = run_cli(
        capsys,
        ["ring-info", "-p", "2", "-e", "2", "-r", "2", "--modulus", "1,1,1"],
    )
    assert pinned == base


def test_ring_info_rejects_reducible_modulus(capsys):
    code, out, err = run_cli(
        capsys,
        ["ring-info", "-p", "2", "-e", "2", "-r", "2", "--modulus", "1,0,1"],
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_invalid_prime_exits_2(capsys):
    code, _, err = run_cli(capsys, ["ring-info", "-p", "4", "-e", "2", "-r", "2"])
    assert code == 2
    assert err.startswith("error:")


def test_graph_export_to_file(capsys, tmp_path):
    path = tmp_path / "edges.txt"
    code, out, _ = run_cli(
        capsys,
        ["graph-export", "-p", "2", "-e", "2", "-r", "2", "--output", str(path)],
    )
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert lines[0] == "# 2 2 2 1,0 16 6"
    assert len(lines) == 1 + 48
    assert lines[1] == "0 1"


def test_graph_export_stdout_matches_file(capsys, tmp_path):
    path = tmp_path / "edges.txt"
    run_cli(
        capsys,
        ["graph-export", "-p", "2", "-e", "2", "-r", "2", "--output", str(path)],
    )
    code, out, _ = run_cli(
        capsys, ["graph-export", "-p", "2", "-e", "2", "-r", "2", "--output", "-"]
    )
    assert code == 0
    assert out == path.read_text()


@pytest.mark.parametrize(
    "args,digest",
    [
        # 4128 rows per export block: four blocks
        (["-p", "2", "-e", "2", "-r", "7"],
         "b40c30333b8ad5fd01cc2c8d0a6e1c2553b0718f134223ed9a592a3882f87f37"),
        (["-p", "3", "-e", "2", "-r", "4", "--gamma", "1,2,0,1"],
         "135f7198f476e83b2113d22068b04807ed67ca61c9c1f1f319ec0b3d08b1c6cd"),
    ],
    ids=["gr4-7", "gr9-4-twisted"],
)
def test_graph_export_frozen_digest(capsys, tmp_path, args, digest):
    path = tmp_path / "edges.txt"
    code, _, _ = run_cli(capsys, ["graph-export", *args, "--output", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_spectrum_csv_frozen(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "-p", "2", "-e", "2", "-r", "2"])
    assert code == 0
    assert out == H16_CSV


def test_spectrum_json(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "-p", "2", "-e", "2", "-r", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 16,
        "d": 6,
        "exact": True,
        "entries": [[6, 1], [2, 6], [-2, 9]],
    }


def test_spectrum_numeric_formatting(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "-p", "3", "-e", "2", "-r", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eigenvalue,multiplicity"
    values = []
    for line in lines[1:]:
        v, m = line.split(",")
        assert v == format(float(v), ".12g")
        assert int(m) > 0
        values.append(float(v))
    assert values[0] == 8.0 and int(lines[1].split(",")[1]) == 1
    assert values == sorted(values, reverse=True)
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 81


def test_threads_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "-p", "2", "-e", "2", "-r", "3", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_spectrum_gamma_twist_same_entries(capsys):
    _, base, _ = run_cli(capsys, ["spectrum", "-p", "2", "-e", "2", "-r", "2"])
    code, twisted, _ = run_cli(
        capsys, ["spectrum", "-p", "2", "-e", "2", "-r", "2", "--gamma", "1,2"]
    )
    assert code == 0
    assert twisted == base


def test_spectrum_rejects_non_unit_gamma(capsys):
    code, _, err = run_cli(
        capsys, ["spectrum", "-p", "2", "-e", "2", "-r", "2", "--gamma", "2,0"]
    )
    assert code == 2
    assert err.startswith("error:")


def test_verify_exit_0_and_report_shape(capsys):
    code, out, _ = run_cli(capsys, ["verify", "-p", "2", "-e", "2", "-r", "3"])
    assert code == 0
    report = json.loads(out)
    ids = [c["claim_id"] for c in report["claims"]]
    assert ids == sorted(ids) and len(ids) == 8
    assert all(c["holds"] for c in report["claims"])
    assert report["skipped"] == []
    assert report["graph"] == {
        "p": 2,
        "e": 2,
        "r": 3,
        "gamma": "1,0,0",
        "n": 64,
        "d": 14,
    }
    assert report["spectrum_summary"]["lambda_G"] == 6


def test_verify_checks_subset(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "-p", "2", "-e", "2", "-r", "2", "--checks", "interval,wcu"],
    )
    assert code == 0
    report = json.loads(out)
    assert [c["claim_id"] for c in report["claims"]] == ["interval", "wcu"]


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(
        capsys, ["verify", "-p", "2", "-e", "2", "-r", "2", "--checks", "nope"]
    )
    assert code == 2
    assert err.startswith("error:")


def test_verify_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["verify", "-p", "3", "-e", "2", "-r", "2", "--output", str(path)],
    )
    assert code == 0 and out == ""
    report = json.loads(path.read_text())
    assert report["skipped"] == ["bhk", "residue"]


def test_family_frozen_table(capsys):
    code, out, _ = run_cli(capsys, ["family", "-p", "2"])
    assert code == 0
    assert out.splitlines() == [
        "r e n d lambda_bound observed_lambda",
        "4 2 256 30 10 10",
        "6 3 262144 126 50 42.2842712475",
        "8 4 4294967296 510 226 -",
    ]


def test_family_third_delta(capsys):
    code, out, _ = run_cli(
        capsys, ["family", "-p", "2", "--delta", "1/3", "--r-max", "6"]
    )
    assert code == 0
    assert out.splitlines() == [
        "r e n d lambda_bound observed_lambda",
        "6 2 4096 126 18 18",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "-p", "2", "--delta", "0"],
        ["family", "-p", "2", "--delta", "2/3"],
        ["family", "-p", "2", "--delta", "abc"],
        ["family", "-p", "2", "--r-min", "5", "--r-max", "4"],
        ["family", "-p", "4"],
        ["family", "-p", "2", "--delta", "1/7", "--r-max", "6"],
    ],
)
def test_family_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
