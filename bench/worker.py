"""One workload run in a fresh interpreter; started by run.py, not by hand.

Prints "ready" once the package is imported and the inputs are generated
(run.py times set-up up to that line), then, unless --setup-only, runs the
workload and prints one JSON report line.

A run is a whole number of cycles of rounds, fixed by the workload and
--seconds, so every run of a workload and seed holds the same cases whatever
the speed of the code.  Cases go one at a time in a closed loop: the next
starts when the previous one has finished.  Untraced runs (--trace 0) repeat
the rounds on fresh inputs and time every case between two runs of a fixed
reference kernel; on the reference machine a run lasts about --seconds.  Traced runs
(--trace 1) warm up, then run the rounds of one repetition twice on fresh
inputs, untraced and then traced, compare the case outputs of the two
passes, and report the traced pass's per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("battery", "structure", "recovery", "cli")

# per workload: rounds per cycle (the period of its case mix), seconds per cycle
# on the reference machine (2-core x86, threads pinned to 1), and repetitions
CYCLES = {"battery": (1, 1.1, 2), "structure": (4, 9.0, 2), "recovery": (1, 3.3, 2),
          "cli": (2, 9.0, 1)}
IMPORT_PROBES = 3

# A shared machine's speed swings by up to 2x within seconds (the kernel below
# took 1.97-3.78 ms in 2-second blocks on the reference machine), and every
# case slows with it.  Untraced times are therefore reported at reference
# speed: a duration measured next to a kernel run taking k seconds counts as
# duration * REF_KERNEL_S / k.  The kernel is independent of the package, so a
# change to the package moves the scaled times as much as the raw ones.
REF_KERNEL_S = 2.0e-3


def speed_kernel() -> float:
    """Seconds taken by a fixed interpreter-bound job of small numpy operations."""
    x = np.linspace(0.0, 1.0, 15)
    t0 = time.perf_counter()
    acc = 0.0
    hist = []
    for i in range(400):
        y = np.sqrt(x + i) * 0.5
        acc += float(np.sum(y * y))
        hist.append(acc)
        if len(hist) > 50:
            hist.pop(0)
        acc += sum(hist) * 1e-9
    return time.perf_counter() - t0


def machine_speed(runs: int = 5) -> float:
    """Median kernel seconds over a few runs."""
    return statistics.median(speed_kernel() for _ in range(runs))


def plan(workload: str, seconds: float, traced: bool) -> tuple:
    """(rounds, repetitions): whole cycles filling --seconds; one round at least.

    A traced run makes one repetition of the rounds of one untraced repetition.
    """
    per_cycle, cycle_s, reps = CYCLES[workload]
    cycles = round(seconds / (reps * cycle_s))
    if not cycles:
        return 1, 1
    return cycles * per_cycle, 1 if traced else reps


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile leaving >= 10 samples above it.

    Returns (value, percentile, samples_above).  With 10 samples or fewer the
    maximum is returned and fewer than 10 lie above it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def run_case(case, fn=None):
    """Run one case; returns (output or the exception raised, seconds)."""
    t0 = time.perf_counter()
    try:
        out = (fn or case.run)()
    except Exception as exc:  # a failing case is data: its check records it
        out = exc
    return out, time.perf_counter() - t0


class Ledger:
    """Per-case outcomes: latency, oracle notes, digest."""

    def __init__(self):
        self.rows = []          # (cid, seconds, notes, defect)
        self.digests = {}
        self.mismatched = []    # cases whose output differed from an earlier run of them

    def add(self, case, out, dt):
        notes = case.check(out)
        self.rows.append((case.cid, dt, notes, case.defect))
        digest = (f"{type(out).__name__}: {out}" if isinstance(out, BaseException)
                  else case.digest(out))
        if self.digests.setdefault(case.cid, digest) != digest:
            self.mismatched.append(case.cid)

    @property
    def failed(self) -> list:
        return [r for r in self.rows if r[2]]

    def summary(self) -> dict:
        known = {}
        for _, _, _, defect in self.failed:
            if defect:
                known[defect] = known.get(defect, 0) + 1
        return {
            "attempted": len(self.rows),
            "failed": len(self.failed),
            "failed_known_defect": known,
            "unexpected_failures": [{"id": cid, "notes": notes[:3]}
                                    for cid, _, notes, defect in self.failed if not defect],
            "failing_ids": list(dict.fromkeys(cid for cid, _, _, _ in self.failed)),
        }


def timed_run(make, seed: int, workdir: str, rounds: int, reps: int, workload: str) -> dict:
    """Repeat the same rounds on fresh inputs, timing each case at reference speed.

    One kernel run separates consecutive cases.  A case's duration is scaled
    by the median of the kernel runs next to it (two before, two after; the
    median shrugs off a kernel run that was preempted), and its latency is
    the mean over repetitions.  cases_per_s is the closed loop's rate at those
    latencies: cases / their sum.
    """
    ledger = Ledger()
    scaled, raw, kernel = {}, {}, []
    for _ in range(reps):
        round_cases = make(seed, lambda w: w, workdir)
        ks = [speed_kernel()]
        timed = []              # (cid, seconds); cases are dropped once run
        for r in range(rounds):
            for case in round_cases(r):
                out, dt = run_case(case)
                ks.append(speed_kernel())
                ledger.add(case, out, dt)
                timed.append((case.cid, dt))
        for i, (cid, dt) in enumerate(timed):
            k = statistics.median(ks[max(i - 1, 0):i + 3])
            scaled.setdefault(cid, []).append(dt * REF_KERNEL_S / k)
            raw.setdefault(cid, []).append(dt)
        kernel += ks
    lat = [statistics.fmean(v) for v in scaled.values()]
    raw_lat = [statistics.fmean(v) for v in raw.values()]
    t_val, t_pct, t_above = tail(lat)
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    summ = ledger.summary()
    metrics = {
        "cases_per_s": (len(lat) / sum(lat), "1/s"),
        "case_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "case_tail_ms": (1e3 * t_val, "ms"),
        "fail_frac": (summ["failed"] / summ["attempted"], "ratio"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }
    details = dict(summ, rounds=rounds, repetitions=reps,
                   outputs_repeat=not ledger.mismatched, mismatched_ids=ledger.mismatched[:20],
                   tail={"percentile": t_pct, "samples_above": t_above, "samples": len(lat)},
                   kernel_ms={"median": 1e3 * statistics.median(kernel),
                              "min": 1e3 * min(kernel), "max": 1e3 * max(kernel)},
                   unscaled={"cases_per_s": len(raw_lat) / sum(raw_lat),
                             "case_p50_ms": 1e3 * statistics.median(raw_lat),
                             "case_tail_ms": 1e3 * tail(raw_lat)[0]})
    correct = not summ["unexpected_failures"] and not ledger.mismatched
    return {"correct": correct, "metrics": metrics, "details": details}


def import_ms() -> float:
    """Median wall time of `import degenrelax.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import degenrelax.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        samples.append(1e3 * float(out.stdout.split()[-1]))
    return statistics.median(samples)


def traced_run(make, seed: int, rounds: int, workload: str, workdir: str) -> dict:
    import tracing
    import workloads
    from degenrelax import cli as dr_cli

    is_cli = workload == "cli"

    def in_process(case):
        for f in case.files:
            if os.path.exists(f):
                os.remove(f)
        return lambda: case.outputs(dr_cli.main(list(case.argv)))

    # warm-up on separate inputs, so that first-call costs fall in neither pass
    for case in make(seed, lambda w: w, workdir)(0):
        run_case(case, in_process(case) if is_cli else None)

    # pass A: untraced; for the CLI, one subprocess and one in-process call per case
    plain = Ledger()
    wall, compute = {}, {}
    base_s = 0.0
    gen_a = make(seed, lambda w: w, workdir)
    for r in range(rounds):
        for case in gen_a(r):
            out, dt = run_case(case)
            plain.add(case, out, dt)
            if is_cli:
                sub = case.cid.rsplit("/", 1)[1]
                wall.setdefault(sub, []).append(dt)
                out_ip, dt = run_case(case, in_process(case))
                compute.setdefault(sub, []).append(dt)
                if isinstance(out, BaseException) or out_ip != out[:-1]:
                    plain.mismatched.append(case.cid)
            base_s += dt  # for the CLI, the in-process call: pass B repeats it traced

    # pass B: traced, on freshly generated inputs
    tracer = tracing.Tracer()
    tracer.install()
    traced = Ledger()
    traced_s = 0.0
    try:
        gen_b = make(seed, tracer.counting, workdir)
        for r in range(rounds):
            for case in gen_b(r):
                out, dt = run_case(case, in_process(case) if is_cli else None)
                tracer.enabled = False          # the oracle is not part of the trace
                if is_cli:
                    out = out if isinstance(out, BaseException) else out + (b"",)
                traced.add(case, out, dt)
                tracer.enabled = True
                traced_s += dt
    finally:
        tracer.uninstall()

    mismatched = plain.mismatched + [cid for cid, d in traced.digests.items()
                                     if plain.digests.get(cid) != d]
    metrics = tracer.metrics()
    metrics["cli.import_ms"] = (import_ms(), "ms")
    for sub in workloads.CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.wall_ms"] = (1e3 * statistics.median(wall[sub]) if sub in wall else 0.0, "ms")
        metrics[f"cli.{sub}.compute_ms"] = (
            1e3 * statistics.median(compute[sub]) if sub in compute else 0.0, "ms")
    metrics["trace.overhead_frac"] = (traced_s / base_s - 1.0, "ratio")
    summ = traced.summary()
    plain_summ = plain.summary()
    details = dict(summ, rounds=rounds, untraced_unexpected=plain_summ["unexpected_failures"],
                   outputs_identical=not mismatched, mismatched_ids=mismatched[:20])
    correct = not summ["unexpected_failures"] and not plain_summ["unexpected_failures"] \
        and not mismatched
    return {"correct": correct, "metrics": metrics, "details": details}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import degenrelax
    src = (ROOT / "src").resolve()
    if Path(degenrelax.__file__).resolve().parent.parent != src:
        print(f"error: imported degenrelax from {degenrelax.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    make = getattr(workloads, args.workload)
    make(args.seed, lambda w: w, args.workdir)
    print("ready", flush=True)
    print(f"kernel {machine_speed()!r}", flush=True)  # scales this set-up time
    if args.setup_only:
        return 0
    rounds, reps = plan(args.workload, args.seconds, bool(args.trace))
    if args.trace:
        report = traced_run(make, args.seed, rounds, args.workload, args.workdir)
    else:
        report = timed_run(make, args.seed, args.workdir, rounds, reps, args.workload)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
