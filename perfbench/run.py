"""Benchmark command for cfplan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: obstruction-tune and desk-plan,
which BENCHMARK.json lists, and desk-label, which is too slow for a steady
figure in one run and is kept for traced runs by hand (see README.md).

``--trace 0`` first times the set-up three times (a fresh interpreter
importing ``cfplan.cli``, plus making the first operation's inputs), then
runs operations on fresh inputs for ``S`` seconds and prints the end-to-end
metrics.  Their times are scaled to a fixed machine speed by readings of a
host-speed probe, a process of its own, taken just before and just after each
of them (see ``calibrate.py``).  ``--trace 1`` runs operations untraced for
``S / 2`` seconds, replays the same inputs with every traced cfplan function
wrapped, requires bitwise-equal outputs, writes the spans to
``.perfbench/<workload>-<seed>/trace.npz`` and prints the per-layer metrics
with the tracing overhead.  Every output is checked against the oracles in
``oracles.py``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import common
import tracing
import workloads

SETUP_REPEATS = 3
#: the probe's reading on the reference machine when it is quiet; scaled
#: seconds are seconds at that speed
CALIBRATION_S = 0.025


@dataclass
class Op:
    inputs: object
    outcome: workloads.Outcome | None
    seconds: float  # wall time of the operation
    scaled_s: float  # the same, scaled to the reference speed
    failure: str | None


class Probe:
    """The host-speed probe of ``calibrate.py``, running beside the benchmark."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "calibrate.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.before = 0.0

    def read(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def start(self) -> None:
        """Take the reading just before a measurement."""
        self.before = self.read()

    def scale(self, seconds: float) -> float:
        """``seconds`` of a measurement that ended just now, at the speed
        where the probe reads CALIBRATION_S, from its readings just before
        and just after the measurement."""
        return seconds * CALIBRATION_S / (0.5 * (self.before + self.read()))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def time_setup(wl: workloads.Workload, run_dir, probe: Probe) -> float:
    env = dict(os.environ, PYTHONPATH=str(common.SRC))
    probe.start()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cfplan.cli"], env=env, check=True)
    wl.make_inputs(0, run_dir)
    return probe.scale(time.perf_counter() - t0)


def op_dir(run_dir, index):
    path = run_dir / f"op{index}"
    path.mkdir(exist_ok=True)
    return path


def run_checked(wl, inputs, probe: Probe, first) -> Op:
    """Time one operation, scale its time, then check its outputs."""
    outcome, failure = None, None
    probe.start()
    t0 = time.perf_counter()
    try:
        outcome = wl.run(inputs)
    except Exception:  # the program raised: count the operation as failed
        failure = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    scaled = probe.scale(elapsed)
    if failure is None:
        try:
            wl.check(inputs, outcome, first)
        except Exception as exc:  # an oracle or property check failed
            failure = f"{type(exc).__name__}: {exc}"
    return Op(inputs, outcome, elapsed, scaled, failure)


def measure(wl, run_dir, seconds, probe: Probe) -> list[Op]:
    """Run operations on inputs 0, 1, ... for ``seconds``: always one, and
    another only while the median operation so far still fits."""
    ops: list[Op] = []
    t_start = time.perf_counter()
    while True:
        index = len(ops)
        inputs = wl.make_inputs(index, op_dir(run_dir, index))
        op = run_checked(wl, inputs, probe, first=index == 0)
        if op.failure:
            print(f"{wl.name} op {index} failed: {op.failure}", file=sys.stderr)
        ops.append(op)
        typical = statistics.median(op.seconds for op in ops)
        if time.perf_counter() - t_start + typical > seconds:
            return ops


def final_plans(ops):
    return [p for op in ops if op.failure is None for p in op.outcome.plans]


def quality(ops) -> dict:
    """Medians over the final plans, so one plan that misses the goal does
    not swing the run's figure."""
    plans = final_plans(ops)
    if not plans:
        return {}
    dt = workloads.PLANNER_CFG.dt
    return {
        "traj_cost": (statistics.median(p.cost for p in plans), "1"),
        "min_clearance_m": (statistics.median(p.min_clearance for p in plans), "m"),
        "path_time_s": (statistics.median(p.steps_used * dt for p in plans), "s"),
    }


def end_to_end(ops, setup_s) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(op.scaled_s for op in ops), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(wl, ops, run_dir):
    """Replay the inputs of the operations in ``ops`` that passed, with
    tracing on; returns the metrics and the number of replays whose output
    differs from the untraced run."""
    passed = [(index, op) for index, op in enumerate(ops) if op.failure is None]
    tracer = tracing.Tracer()
    tracer.install()
    traced_s, mismatches = 0.0, 0
    try:
        for index, op in passed:
            tracer.active = True
            t0 = time.perf_counter()
            replay = wl.run(op.inputs)
            traced_s += time.perf_counter() - t0
            tracer.active = False
            if replay.digest != op.outcome.digest:
                print(f"{wl.name} op {index}: traced output differs", file=sys.stderr)
                mismatches += 1
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write(run_dir / "trace.npz")
    metrics = tracer.metrics()
    untraced_s = sum(op.seconds for _, op in passed)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s if passed else 0.0, "%")
    rates = [op.outcome.sim_steps / op.scaled_s for _, op in passed if op.outcome.sim_steps]
    if rates:
        metrics["sim_steps_per_s"] = (statistics.median(rates), "1/s")
    for name, value in quality(ops).items():
        metrics[f"quality.{name}"] = value
    plans = final_plans(ops)
    metrics["quality.plans"] = (len(plans), "count")
    metrics["quality.unreached_plans"] = (sum(not p.reached for p in plans), "count")
    return metrics, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_dir = common.WORK_DIR / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed)

    probe = Probe()
    try:
        if args.trace:
            ops = measure(wl, run_dir, args.seconds / 2.0, probe)
            metrics, mismatches = per_layer(wl, ops, run_dir)
        else:
            setup = [time_setup(wl, op_dir(run_dir, 0), probe) for _ in range(SETUP_REPEATS)]
            ops = measure(wl, run_dir, args.seconds, probe)
            metrics = end_to_end(ops, statistics.median(setup))
            mismatches = 0
    finally:
        probe.close()

    result = {
        # failed operations are counted apart; correct says the rest passed,
        # and that tracing left every output unchanged
        "correct": mismatches == 0,
        "attempted": len(ops),
        "failed": sum(op.failure is not None for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(
        result,
        op_seconds=[op.seconds for op in ops],
        op_scaled_seconds=[op.scaled_s for op in ops],
        op_sim_steps=[op.outcome.sim_steps if op.outcome else None for op in ops],
    )
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
