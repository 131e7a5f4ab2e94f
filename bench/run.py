"""degenrelax benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's src/.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds details (failing case ids, known-defect counts, the tail
percentile and its sample count).  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from worker import REF_KERNEL_S, WORKLOADS  # noqa: E402  (imports numpy, not the package)

SETUP_SAMPLES = 5          # fresh interpreters timed to their first case; median reported
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "DEGEN_RELAX_THREADS")
STARTED = []               # every worker started, so that none outlives the run


def on_deadline(signum, frame):
    raise RuntimeError("run passed the deadline")


def start_worker(cmd: list, env: dict, timeout: float):
    """Start a worker; returns (process, set-up seconds at reference speed, raw seconds).

    The worker prints 'ready' when set up, then the seconds its speed kernel
    takes; set-up time is scaled by REF_KERNEL_S / that, like case times.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    STARTED.append(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    speed = proc.stdout.readline().split()
    if line.strip() != "ready" or len(speed) != 2 or speed[0] != "kernel":
        finish(proc, timeout)
        raise RuntimeError(f"worker exited with code {proc.returncode} before it was ready")
    return proc, ready * REF_KERNEL_S / float(speed[1]), ready


def finish(proc, timeout: float) -> str:
    """Wait for a worker and return its remaining output; kill it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="degenrelax benchmark, one run")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "degenrelax" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(int(DEADLINE_S) + 5)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        setup, setup_raw = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, ready, ready_raw = start_worker(cmd + ["--setup-only"], env, 60.0)
                finish(proc, 60.0)
                setup.append(ready)
                setup_raw.append(ready_raw)
        proc, ready, ready_raw = start_worker(
            cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, 60.0)
        setup.append(ready)
        setup_raw.append(ready_raw)
        out = finish(proc, DEADLINE_S - (time.perf_counter() - t_start))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for proc in STARTED:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    report = json.loads(out.strip().splitlines()[-1])
    metrics = report["metrics"]
    details = report["details"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
        details["setup_samples_s"] = setup
        details["unscaled"]["setup_s"] = statistics.median(setup_raw)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(details["attempted"]),
        "failed": int(details["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
