"""Benchmark entry point: one workload per call, each run in fresh processes.

    python3 bench/run.py --workload trio-long --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: set-up time (the median
of five fresh processes, each from its start through importing braidplan
and building the workload's scenarios), episode throughput, plan latency,
plan length and peak memory.  Times are CPU seconds of the worker process
(see ``worker.py``).  With ``--trace 1`` it runs the workload twice, each in a
fresh process, once plain and once with spans around every layer call
for the same number of rounds, and prints the per-layer metrics.  The last
line of standard output is one JSON object; on any failure to run, the
exit code is 1 and nothing is printed there.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "episodes_per_s": "episodes/s",
    "plan_p50_ms": "ms",
    "plan_tail_ms": "ms",
    "swaps_per_episode": "swaps",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "planner.plan_s": "s",
    "planner.expanded": "count",
    "planner.generated": "count",
    "planner.rejected_by_braid": "count",
    "planner.peak_open": "count",
    "planner.max_expanded": "count",
    "planner.max_plan_s": "s",
    "planner.expansions_per_s": "1/s",
    "planner.swaps_per_expansion": "ratio",
    "workspace.ranks_s": "s",
    "workspace.map_path_s": "s",
    "workspace.carry_over_s": "s",
    "harness.simulate_s": "s",
    "harness.verify_s": "s",
    "harness.verify_self_s": "s",
    "geometry.lift_s": "s",
    "geometry.lift_calls": "count",
    "geometry.extract_s": "s",
    "geometry.extract_calls": "count",
    "geometry.crossings": "count",
    "geometry.sub_events_s": "s",
    "geometry.sub_events_calls": "count",
    "braid.update_s": "s",
    "braid.update_pair_calls": "count",
    "braid.update_triplet_calls": "count",
    "unspanned_s": "s",
    "trace_overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, mode: str, *extra: str) -> dict:
        """Run one worker process to completion; its last stdout line is JSON."""
        cmd = [
            sys.executable, str(WORKER),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--mode", mode, *extra,
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next worker")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker ran past the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} worker printed nothing")
        return json.loads(lines[-1])

    def end_to_end(self) -> dict:
        setups = [self.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        run = self.worker("run")
        setups.append(run["setup_s"])
        metrics = {name: run[name] for name in END_TO_END_UNITS if name != "setup_s"}
        metrics["setup_s"] = statistics.median(setups)
        return result(run, metrics, END_TO_END_UNITS)

    def per_layer(self) -> dict:
        plain = self.worker("run")
        trace_out = OUT_DIR / f"trace-{self.args.workload}-seed{self.args.seed}.jsonl"
        traced = self.worker(
            "trace", "--rounds", str(plain["rounds"]), "--trace-out", str(trace_out)
        )
        layers = dict(traced["layers"])
        self_total = layers.pop("self_total_s")
        if not math.isclose(self_total + layers["unspanned_s"], traced["busy_s"], rel_tol=1e-9):
            raise BenchError("span self times and unspanned time do not add up to the run's time")
        layers["trace_overhead_s"] = traced["busy_s"] - plain["busy_s"]
        out = result(traced, layers, PER_LAYER_UNITS)
        out["correct"] = out["correct"] and plain["wrong"] == 0
        return out


def result(run: dict, metrics: dict, units: dict) -> dict:
    for line in run["errors"]:
        print(f"failed episode: {line}", file=sys.stderr)
    return {
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(args)
    try:
        out = runner.per_layer() if args.trace else runner.end_to_end()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
