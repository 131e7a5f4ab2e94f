"""The benchmark's own tests.

    python3 -m pytest bench/check_bench.py

Smoke runs of every workload at the smallest size (one round), traced and
untraced, checked against the metric names and units in BENCHMARK.json;
exact repeat of the traced counts on one seed; refusal to run without the
package source; and the closed forms the oracles rest on.  About two minutes
on a 2-core machine.  The file is not named test_*.py so that the package's
test suite does not collect it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".points", ".divergent", ".members")

sys.path.insert(0, str(BENCH))


def bench(workload, trace, seed=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-2])["details"]
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(final["attempted"], int) and final["attempted"] >= 1
    assert isinstance(final["failed"], int)
    return final, details


@pytest.fixture(scope="module")
def traced():
    return {w: result(bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_emits_end_to_end_metrics(workload):
    final, details = result(bench(workload, 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in final["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in final["metrics"].values() if v["unit"] != "ratio")
    assert final["correct"], details["unexpected_failures"]
    assert details["failed"] == len(details["failing_ids"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_emits_per_layer_metrics(traced, workload):
    final, details = traced[workload]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in final["metrics"].items()}
    assert got == want
    assert final["correct"], (details["unexpected_failures"], details["mismatched_ids"])
    assert details["outputs_identical"]
    assert final["metrics"]["quadrature.integrate.calls"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(traced, workload):
    first = traced[workload][0]["metrics"]
    second = result(bench(workload, 1))[0]["metrics"]
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("battery", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_keeps_ten_samples_above():
    from worker import tail
    lat = list(range(100))
    value, pct, above = tail(lat)
    assert value == 89 and above == sum(x > value for x in lat) == 10 and pct == 90.0


def test_closed_forms_match_dense_quadrature():
    from exact import grid_integral, poly_power_integral
    nodes, weights = np.polynomial.legendre.leggauss(60)

    def gl(f, a, b, panels=64):
        edges = np.linspace(a, b, panels + 1)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
            total += 0.5 * (hi - lo) * np.sum(weights * f(x))
        return total

    coeffs = [0.3, -1.2, 0.7]
    poly = np.polynomial.Polynomial(coeffs)
    for pivot, expo, lo, hi in ((0.0, 2.5, 0.0, 1.0), (1.0, 1.5, 0.2, 1.0), (0.5, 2.0, 0.0, 1.0)):
        want = gl(lambda x: poly(x) * np.abs(x - pivot) ** expo, lo, hi)
        assert math.isclose(poly_power_integral(coeffs, pivot, expo, lo, hi), want, rel_tol=1e-9)
    xs = np.linspace(-1.0, 2.0, 7)
    ws = np.abs(np.sin(3.0 * xs))
    want = gl(lambda x: poly(x) * np.interp(x, xs, ws), -1.0, 2.0, panels=6 * 32)
    assert math.isclose(grid_integral(xs, ws, coeffs), want, rel_tol=1e-6)
