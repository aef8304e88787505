"""Command line behavior: output formats, exit codes, option wiring."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grcayley
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


@pytest.mark.parametrize(
    "argv",
    [
        # p = 2^89 - 1: the size bound fails before any trial division
        ["verify", "-p", "618970019642690137449562111", "-e", "2", "-r", "2"],
        # p^(e*r) would be a 2.5 GB integer; it is never formed
        ["ring-info", "-p", "2", "-e", "10000000000", "-r", "2"],
    ],
)
def test_huge_ring_parameters_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceeds the supported size" in err


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
        # 256 rows per export block (4 high parts of 64 rows): 64 blocks;
        # 2 080 769 lines, 22 147 308 bytes, 5-digit ids over two chunk words
        (["-p", "2", "-e", "2", "-r", "7"],
         "b40c30333b8ad5fd01cc2c8d0a6e1c2553b0718f134223ed9a592a3882f87f37"),
        (["-p", "3", "-e", "2", "-r", "4", "--gamma", "1,2,0,1"],
         "135f7198f476e83b2113d22068b04807ed67ca61c9c1f1f319ec0b3d08b1c6cd"),
        (["-p", "5", "-e", "2", "-r", "3"],
         "fac1d18d0b8aa92b832cef10eb9b1f76d5d800b671093a07cf999b2768e7dbeb"),
        (["-p", "2", "-e", "4", "-r", "4"],
         "3bd50a2bfc1c6a794465de5273b73d67187993fde43ab2f6651fd63486a9ed3f"),
    ],
    ids=["gr4-7", "gr9-4-twisted", "gr25-3", "gr16-4"],
)
def test_graph_export_frozen_digest(capsys, tmp_path, args, digest):
    # both text sinks: a file and stdout
    path = tmp_path / "edges.txt"
    code, out, _ = run_cli(capsys, ["graph-export", *args, "--output", str(path)])
    assert code == 0 and out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    code, out, _ = run_cli(capsys, ["graph-export", *args, "--output", "-"])
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize(
    "args,digest",
    [
        (["-p", "2", "-e", "2", "-r", "4", "--seed", "5"],
         "8b768c6b80e4cda03c4e8e126ed649f6b2e72aed18f6b33182cca7f36fbb27a8"),
        (["-p", "3", "-e", "2", "-r", "2", "--seed", "5"],
         "46f237686c9df43c5cbfa69fb2fa412668e52126920cab1f9391b5d393b56f93"),
        (["-p", "7", "-e", "2", "-r", "3", "--seed", "5"],
         "f653efb6e8c54702788755a304fe0d76ab5f56344baf720eb22d2ff3ce8832c6"),
        # energy 1501.5676759431465, a float sum over the zeta transform
        (["-p", "2", "-e", "3", "-r", "3", "--seed", "5"],
         "fd5a1b3b14815cd94ab94d31346f47413aeafb8d3a9b5b37132cef5bd71e6b19"),
        # bhk is skipped for p^e = 9; no spectrum claim, so no spectrum_summary
        (["-p", "3", "-e", "2", "-r", "2", "--checks", "girth,bhk,wcu"],
         "567294ce1bbb2f21b7cfff10f7240d8050f0088bd85228c199ba60d018efc3c1"),
    ],
    ids=["gr4-4", "gr9-2", "gr49-3", "gr8-3", "gr9-2-subset"],
)
def test_verify_frozen_digest(capsys, args, digest):
    code, out, _ = run_cli(capsys, ["verify", *args])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args,digest",
    [
        (["-p", "5", "-e", "2", "-r", "2"],
         "a9cf5716b13b1ce145b540416b81672128571e16b34d3641675ff1e696f90d27"),
        (["-p", "3", "-e", "2", "-r", "3"],
         "dedfa8128575bbfe2236653c5a1918e04660d3738402e6be6a7c9e8d1b8a19e8"),
        # q = 8: the eigenvalues are 2 Re zeta; each group mean is summed in
        # member order, which fixes its last digit (2.8284271247461894)
        (["-p", "2", "-e", "3", "-r", "3"],
         "f9c14f1ec75af45b37dadb6b7389b59a9cbbfc3d7bd855966ec7dc7dcb1c8ba3"),
    ],
    ids=["gr25-2", "gr9-3", "gr8-3"],
)
def test_numeric_spectrum_json_frozen_digest(capsys, args, digest):
    # every float of a numeric spectrum at full precision (json repr)
    code, out, _ = run_cli(capsys, ["spectrum", *args, "--format", "json"])
    assert code == 0 and '"exact": false' in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_verify_girth_alone_runs_no_sweep(capsys):
    # 3^16 vertices: above the numeric spectrum cap, which girth never reads
    code, out, _ = run_cli(
        capsys, ["verify", "-p", "3", "-e", "2", "-r", "8", "--checks", "girth"]
    )
    assert code == 0
    report = json.loads(out)
    assert [c["claim_id"] for c in report["claims"]] == ["girth"]
    assert report["spectrum_summary"] is None


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(
        capsys, ["verify", "-p", "2", "-e", "2", "-r", "2", "--checks", "nope"]
    )
    assert code == 2
    assert err.startswith("error:")


def test_verify_empty_check_list(capsys):
    # "--checks ," names no check: exit 2 and no report, not an empty pass
    code, out, err = run_cli(
        capsys, ["verify", "-p", "2", "-e", "2", "-r", "2", "--checks", ","]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: no checks")


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
    "delta, r, row",
    [
        # GR(4, 4^16), 2^32 vertices: the exact spectrum reads 2^16 orbits
        ("1/8", 16, "16 2 4294967296 131070 514 514"),
        ("1/6", 12, "12 2 16777216 8190 130 130"),
    ],
)
def test_family_observes_every_buildable_exact_member(capsys, delta, r, row):
    code, out, _ = run_cli(
        capsys, ["family", "-p", "2", "--delta", delta, "--r-min", str(r), "--r-max", str(r)]
    )
    assert code == 0
    assert out.splitlines() == ["r e n d lambda_bound observed_lambda", row]


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "-p", "2", "--delta", "0"],
        ["family", "-p", "2", "--delta", "2/3"],
        ["family", "-p", "2", "--delta", "abc"],
        ["family", "-p", "2", "--r-min", "5", "--r-max", "4"],
        ["family", "-p", "4"],
        ["family", "-p", "4", "--r-max", "3"],
        ["family", "-p", "2", "--delta", "1/7", "--r-max", "6"],
        # p = 2^89 - 1 is rejected by size before any trial division
        ["family", "-p", "618970019642690137449562111"],
    ],
)
def test_family_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")
    if argv[2] == "4":
        # a bad p is reported as such, even where no r gives an integral e
        assert err == "error: p must be prime, got 4\n"


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# verify on a p^e = 4 ring (BFS, residue, girth, exact sums) and on two
# numeric rings, in a fresh process, then report whether numpy.ma was imported
NUMPY_MA_PROBE = """
import contextlib, io, sys
import numpy
if "numpy.ma" in sys.modules:
    sys.exit(3)
from grcayley.cli import main
for p, e, r in ((2, 2, 8), (3, 2, 3), (2, 4, 3)):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "-p", str(p), "-e", str(e), "-r", str(r)]) == 0
sys.exit(4 if "numpy.ma" in sys.modules else 0)
"""


def package_env():
    """The environment with this checkout's grcayley first on PYTHONPATH."""
    src = str(Path(grcayley.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_verify_does_not_import_numpy_ma():
    # numpy 2.x imports numpy.ma on first use of np.isin or a plain np.unique,
    # which costs more than a small verify run itself
    env = package_env()
    code = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE], env=env).returncode
    if code == 3:
        pytest.skip("import numpy alone loads numpy.ma")
    assert code == 0


# default verify in a fresh process, then whether numpy.fft was imported
NUMPY_FFT_PROBE = """
import contextlib, io, sys
import numpy
if "numpy.fft" in sys.modules:
    sys.exit(3)
from grcayley.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "-p", sys.argv[1], "-e", sys.argv[2], "-r", "3"]) == 0
sys.exit(4 if "numpy.fft" in sys.modules else 0)
"""


@pytest.mark.parametrize("p,e,imports", [("2", "2", False), ("2", "3", True)])
def test_char4_verify_does_not_import_numpy_fft(p, e, imports):
    # the p^e = 4 zeta transform is an integer butterfly; other rings take
    # numpy.fft.ifftn
    cmd = [sys.executable, "-c", NUMPY_FFT_PROBE, p, e]
    code = subprocess.run(cmd, env=package_env()).returncode
    if code == 3:
        pytest.skip("import numpy alone loads numpy.fft")
    assert code == (4 if imports else 0)


def test_closed_stdout_exits_141_without_traceback():
    # the reader takes one line of a 2.08 M-edge export and closes the pipe,
    # as `grcayley graph-export ... | head -n 1` does
    argv = ["graph-export", "-p", "2", "-e", "2", "-r", "7", "--output", "-"]
    script = f"import sys; from grcayley.cli import main; sys.exit(main({argv!r}))"
    with subprocess.Popen(
        [sys.executable, "-c", script],
        env=package_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert first == b"# 2 2 7 1,0,0,0,0,0,0 16384 254\n"
    assert proc.returncode == 141
    assert "Traceback" not in err
    assert err == ""  # nor an "Exception ignored" note from the flush at exit
