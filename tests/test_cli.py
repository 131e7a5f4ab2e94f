"""Command line interface: schemas, determinism, exit codes, CSV output."""

import csv
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

RUN = [sys.executable, "-m", "degenrelax.cli"]
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_negative_exponent_aux_csv_runs_under_warnings_as_errors(tmp_path):
    spec = tmp_path / "neg.json"
    spec.write_text(json.dumps({"family": "piecewise_power", "domain": [0.0, 1.0], "pieces": [
        {"lo": 0.0, "hi": 1.0, "pivot": 0.0, "exponent": -0.5}]}))
    out = subprocess.run([sys.executable, "-W", "error", *RUN[1:], "aux", "--weight", str(spec),
                          "--csv", str(tmp_path / "out.csv"), "--no-timestamp"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    assert (tmp_path / "out.csv").exists()


def test_aux_csv_round_trip(tmp_path):
    from degenrelax import (Exponent, QuadratureConfig, build_aux_weight,
                            builtin_figure1, detect_structure)
    path = tmp_path / "aux.csv"
    run_cli("aux", "--weight", "figure1", "--csv", str(path),
            "--samples", "129", "--no-timestamp")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
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
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
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
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
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


@pytest.mark.parametrize("opt", ["--rel-tol", "--abs-tol"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_a_tolerance_that_is_not_one_exits_two(opt, value):
    # an infinite tolerance would switch refinement off (relax would read
    # 6.8163 for 92/15 = 6.1333), and NaN or a negative one would read as 0
    out = run_cli("relax", "--weight", "figure1", "--u", "poly:0,1", opt, value, check=False)
    name = opt[2:].replace("-", "_")
    assert out.returncode == 2 and out.stdout == ""
    assert f"error: {name} must be finite and >= 0" in out.stderr


@pytest.mark.parametrize("count", ["0", "-3"])
def test_a_battery_of_no_function_exits_two(count):
    # with no --u, --count random splines are checked: none would pass vacuously
    out = run_cli("poincare", "--weight", "figure1", "--count", count, check=False)
    assert out.returncode == 2 and out.stdout == ""
    assert f"--count must be at least 1, got {count}" in out.stderr


def test_too_few_samples_exit_two(tmp_path):
    # fewer than 8 samples per interval is bad input, not a request for 8
    out = run_cli("aux", "--weight", "figure1", "--samples", "-5",
                  "--csv", str(tmp_path / "aux.csv"), check=False)
    assert out.returncode == 2 and "--samples must be at least 8, got -5" in out.stderr
    assert not (tmp_path / "aux.csv").exists()
    run_cli("aux", "--weight", "figure1", "--samples", "8",
            "--csv", str(tmp_path / "aux.csv"), "--no-timestamp")
    # the header, then per interval the 8 samples and its two quarter points
    assert len((tmp_path / "aux.csv").read_text().splitlines()) == 1 + 3 * (8 + 2)


def test_empty_structure(tmp_path):
    # w vanishes a.e.: the relaxation is identically 0, and approx has nothing to approximate
    path = tmp_path / "null.json"
    path.write_text('{"family": "piecewise_power", "domain": [0, 1], "pieces": []}')
    d = json.loads(run_cli("relax", "--weight", str(path), "--u", "poly:0,1",
                           "--no-timestamp").stdout)
    assert d["relaxed"] == {"kind": "finite", "value": 0.0, "reason": ""}
    assert d["membership"] == {"in_space": True, "seminorm": 0.0} and d["ambient_norm_p"] == 0.0
    out = run_cli("approx", "--weight", str(path), "--u", "poly:0,1", check=False)
    assert out.returncode == 2 and "empty structure" in out.stderr


@pytest.mark.parametrize("args, message", [
    (("relax", "--weight", "figure1", "--u", "poly:"), "empty polynomial spec 'poly:'"),
    (("relax", "--weight", "figure1", "--u", "poly:1,,2"),
     "polynomial spec 'poly:1,,2': the coefficient of x^1 is empty"),
    (("relax", "--weight", "figure1", "--u", "spline:0=1"), "needs at least two x=y knots"),
    (("relax", "--weight", "figure1", "--u", "foo"), "unknown test function spec 'foo'"),
    (("poincare", "--weight", "NULL"), "weight vanishes a.e."),
    (("cascade", "--alpha", "2", "--bumps", "41"), "bump count must be in 1..40, got 41"),
    (("relax", "--weight", "figure1", "--u", "const:inf"), "constant value must be finite"),
    (("relax", "--weight", "figure1", "--u", "const:nan"), "constant value must be finite"),
    (("relax", "--weight", "figure1", "--u", "poly:0,inf"), "coefficients must be finite"),
    (("relax", "--weight", "figure1", "--u", "poly:nan,1"), "coefficients must be finite"),
    (("poincare", "--weight", "figure1", "--u", "const:inf"), "constant value must be finite"),
], ids=["poly-empty", "poly-empty-coefficient", "spline-one-knot", "unknown-u", "poincare-null-weight", "bumps-41",
        "const-inf", "const-nan", "poly-inf", "poly-nan", "poincare-const-inf"])
def test_input_errors_exit_two_with_their_message(tmp_path, args, message):
    path = tmp_path / "null.json"
    path.write_text('{"family": "piecewise_power", "domain": [0, 1], "pieces": []}')
    out = run_cli(*(str(path) if a == "NULL" else a for a in args), check=False)
    assert out.returncode == 2 and out.stdout == ""
    # one error line: no warning printed before it
    assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1
    assert message in out.stderr


@pytest.mark.parametrize("spec, message", [
    ({"family": "power", "alpha": None}, "must be a number"),
    ({"family": "cascade", "alpha": 2, "bumps": [8]}, "must be a number"),
    ({"family": "piecewise_power", "domain": [0, 1], "pieces": [{"lo": 0, "hi": 1, "pivot": None}]},
     "must be a number"),
    ({"family": "piecewise_power", "domain": [None, 1], "pieces": []}, "must be a number"),
    ({"family": "grid", "x": [0, {}], "w": [1, 1]}, "grid x must be a list of numbers"),
    ({"family": "grid", "csv": 5}, "grid csv must be a path string"),  # not a descriptor
], ids=["power-alpha-null", "cascade-bumps-list", "piece-pivot-null", "domain-null",
        "grid-x-object", "grid-csv-int"])
def test_a_json_spec_value_that_is_no_number_exits_two(tmp_path, spec, message):
    # bad input, not a failed check: one error line and no traceback
    path = tmp_path / "w.json"
    path.write_text(json.dumps(spec))
    out = run_cli("analyze", "--weight", str(path), check=False)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1
    assert message in out.stderr and "Traceback" not in out.stderr


def test_u_outside_the_relaxed_domain_exits_two():
    # logdist is outside the relaxed domain: approx refuses it as bad input
    out = run_cli("approx", "--weight", "figure1", "--u", "logdist", check=False)
    assert out.returncode == 2 and "relaxed domain" in out.stderr


def test_failed_verification_exits_one():
    # h = 6 and 7 are both above figure1's h_min = 5, but one step of the mesh
    # halves neither the ambient error nor the energy gap: a genuine failed check
    out = run_cli("approx", "--weight", "figure1", "--u", "poly:0,1", "--h", "6,7",
                  "--no-timestamp", check=False)
    d = json.loads(out.stdout)
    assert out.returncode == 1 and d["h_values"] == [6, 7] and not d["verdict"]["ok"]


@pytest.mark.parametrize("mesh", [("--h-max", "4"), ("--h", "8")])
def test_one_member_sequence_exits_two(mesh):
    # the verdict compares the coarsest member with the finest; on figure1
    # (h_min = 5) these give one member, which is bad input, not a failed check
    out = run_cli("approx", "--weight", "figure1", "--u", "poly:0,1", *mesh, check=False)
    assert out.returncode == 2 and "h_min = 5" in out.stderr and out.stdout == ""


def test_function_spec_rejects_an_argument_it_would_ignore():
    from degenrelax.cli import parse_function_arg
    from degenrelax import Interval
    dom = Interval(0.0, 1.0)
    for text in ("sqrt:junk", "logdist:3", "sqrt:"):
        with pytest.raises(ValueError, match="takes no argument"):
            parse_function_arg(text, dom)
    assert [parse_function_arg(t, dom).label for t in ("sqrt", "logdist")] == ["sqrt", "logdist"]


def test_out_flag_writes_file(tmp_path):
    path = tmp_path / "out.json"
    out = run_cli("analyze", "--weight", "power:alpha=2", "--out", str(path),
                  "--no-timestamp")
    d = json.loads(path.read_text())
    assert d["structure"]["count"] == 1
    assert out.stdout.strip() == "" or json.loads(out.stdout)


def test_weight_json_spec_file(tmp_path):
    spec = {"family": "piecewise_power", "domain": [0.0, 1.0],
            "pieces": [{"lo": 0.0, "hi": 0.5, "pivot": 0.5, "exponent": 2.0},
                       {"lo": 0.5, "hi": 1.0, "pivot": 0.5, "exponent": 2.0}]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(spec))
    out = run_cli("analyze", "--weight", str(path), "--no-timestamp")
    d = json.loads(out.stdout)
    assert d["structure"]["count"] == 2


def test_a_grid_csv_reads_alike_through_every_spec(tmp_path):
    # a CSV path, grid:PATH and a JSON spec naming the CSV load one grid
    # weight: one structure, and each output names the CSV it read
    path = tmp_path / "w.csv"
    xs = np.linspace(0.0, 1.0, 33)
    path.write_text("x,w\n" + "".join(f"{float(x)!r},{float((x - 0.5) ** 2)!r}\n" for x in xs))
    spec = tmp_path / "w.json"
    spec.write_text(json.dumps({"family": "grid", "csv": str(path)}))
    outs = [json.loads(run_cli("analyze", "--weight", arg, "--no-timestamp").stdout)
            for arg in (str(path), f"grid:{path}", str(spec))]
    assert all(d["weight"] == {"family": "grid", "csv": str(path)} for d in outs)
    assert outs[0]["structure"] == outs[1]["structure"] == outs[2]["structure"]
    spans = [(iv["lo"], iv["hi"]) for iv in outs[0]["structure"]["intervals"]]
    assert spans == [(0.0, 0.5), (0.5, 1.0)]


def test_poincare_checks_each_function_given():
    out = run_cli("poincare", "--weight", "figure1", "--u", "poly:0,1", "--u", "const:1",
                  "--no-timestamp")
    d = json.loads(out.stdout)
    assert d["ok"] and [c["label"] for c in d["checks"]] == ["poly:0,1", "const:1"]
    poly, const = d["checks"]
    assert poly["rhs"] == pytest.approx(92.0 / 15.0, rel=1e-9) and poly["ratio"] <= 1.0
    # u = 1 has no energy and equals its value at every midpoint: 0 on both sides
    assert (const["lhs"], const["rhs"], const["ratio"]) == (0.0, 0.0, 0.0)


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


def test_subcommands_leave_numpy_ma_unloaded(tmp_path):
    # np.unique, union1d and setdiff1d import numpy.ma on their first call
    # (numpy 2.4), 15-17 ms of a CLI run; the package calls none of them.
    # numpy.polynomial (4-6 ms) is not imported either
    code = "\n".join([
        "import sys",
        "from degenrelax import cli",
        "for args in (['analyze', '--weight', 'figure1', '--p', '2'],",
        "             ['relax', '--weight', 'figure1', '--u', 'poly:0,1'],",
        "             ['poincare', '--weight', 'figure1', '--count', '4'],",
        f"             ['aux', '--weight', 'figure1', '--csv', {str(tmp_path / 'aux.csv')!r}],",
        "             ['approx', '--weight', 'figure1', '--u', 'poly:0,1', '--h-max', '16'],",
        "             ['cascade', '--alpha', '2', '--bumps', '6']):",
        "    assert cli.main(args + ['--no-timestamp']) == 0, args",
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'",
        "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial imported'",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "aux.csv").read_text().startswith("x,weight,aux")


def readme_examples() -> list:
    """The command lines of the README's CLI example block."""
    prefix, fenced, lines = "python -m degenrelax.cli ", False, []
    for line in README.read_text().splitlines():
        fenced ^= line.startswith("```")
        if fenced and line.startswith(prefix) and "<" not in line:
            lines.append(line[len(prefix):])
    return lines


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    from degenrelax import cli
    lines = readme_examples()
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        args = shlex.split(line)
        code = cli.main(args + ["--no-timestamp"] * ("--no-timestamp" not in args))
        out = capsys.readouterr().out
        assert code == 0, line
        d = json.loads(out)
        assert isinstance(d, dict) and d["command"] == args[0], line
        if "--csv" in args:  # the CSV path is relative: written into the temp dir
            rows = (tmp_path / args[args.index("--csv") + 1]).read_text().splitlines()
            assert len(rows) > 1 and rows[0].split(",")[0] in ("x", "h", "i"), line


def _key_paths(obj, prefix=""):
    """Every key path of a JSON value; the items of a list share the path `name[]`."""
    if isinstance(obj, dict):
        return set().union(*({prefix + k} | _key_paths(v, prefix + k + ".") for k, v in obj.items()))
    if isinstance(obj, list):
        return set().union(*(_key_paths(v, prefix[:-1] + "[].") for v in obj))
    return set()


_CLASS = "integrable local_exponent rule value"
_ZERO = "left_exponent location right_exponent"
_STRUCTURE = " ".join(
    ["structure"]
    + [f"structure.{k}" for k in "count kind intervals removable_zeros split_zeros zero_regions".split()]
    + [f"structure.intervals[].{k}" for k in "lo hi mid width lo_class hi_class".split()]
    + [f"structure.intervals[].{end}.{k}" for end in ("lo_class", "hi_class") for k in _CLASS.split()]
    + [f"structure.{kind}[].{k}" for kind in ("removable_zeros", "split_zeros") for k in _ZERO.split()])
_PIECEWISE = " weight.domain weight.pieces" + "".join(
    f" weight.pieces[].{k}" for k in "lo hi scale pivot exponent".split())
# the full schema of each subcommand (common keys aside): a field added to a
# result type changes the default output, so it has to be added here too
_SCHEMAS = {
    "analyze": _STRUCTURE + _PIECEWISE,
    "aux": _STRUCTURE + _PIECEWISE + " covers_domain csv inf sup intervals" + "".join(
        f" intervals[].{k}" for k in
        "span plateau lo_value hi_value left_limit right_limit sup inf".split()),
    "poincare": "ok checks" + "".join(f" checks[].{k}" for k in "label lhs rhs ratio ok".split()),
    "relax": "u ambient_norm_p membership membership.in_space membership.seminorm" + "".join(
        f" {f} {f}.kind {f}.value {f}.reason" for f in ("original", "relaxed")),
    "approx": "u csv f_limit h_min h_values junctions x_norm_u members verdict" + "".join(
        f" members[].{k}" for k in "h x_err f_value f_gap seam_mismatch".split()) + "".join(
        f" verdict.{k}" for k in "ok x_ok f_ok f_rel_ok f_rel".split()),
    "cascade": "alpha bumps c_hi c_lo comparison comparison_log2 csv increasing "
               "partial_sums ratios terms",
}


def test_json_key_paths_are_pinned(tmp_path, capsys):
    from degenrelax import cli
    # a removable zero at 0.4, a splitting zero at 0.75 and three zero regions,
    # so that every list of the structure has items
    spec = tmp_path / "w.json"
    spec.write_text(json.dumps({"family": "piecewise_power", "domain": [0.0, 1.0], "pieces": [
        {"lo": 0.1, "hi": 0.4, "pivot": 0.4, "exponent": 0.5},
        {"lo": 0.4, "hi": 0.5, "pivot": 0.4, "exponent": 0.5},
        {"lo": 0.6, "hi": 0.75, "pivot": 0.75, "exponent": 1.5},
        {"lo": 0.75, "hi": 0.9, "pivot": 0.75, "exponent": 1.5}]}))
    runs = {
        "analyze": ["--weight", str(spec)],
        "aux": ["--weight", str(spec)],
        "poincare": ["--weight", "figure1", "--count", "2"],
        "relax": ["--weight", "figure1", "--u", "poly:0,1"],
        "approx": ["--weight", "figure1", "--u", "poly:0,1", "--h", "6,12"],
        "cascade": ["--alpha", "2", "--bumps", "3"],
    }
    for command, args in runs.items():
        assert cli.main([command, *args, "--no-timestamp"]) in (0, 1), capsys.readouterr().err
        got = _key_paths(json.loads(capsys.readouterr().out))
        want = set(_SCHEMAS[command].split()) | {"command", "p", "schema_version"}
        if command != "cascade":
            want |= {"weight", "weight.family"}
        assert got == want, command
