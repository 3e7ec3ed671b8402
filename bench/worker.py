"""One workload in one fresh process: set up, plan whole rounds, check, report.

Run by ``run.py``; prints one JSON object as its last line.  Modes:

* ``setup``: import braidplan, build the workload's scenarios, report the
  CPU time the process has used so far and exit;
* ``run``: then plan, execute and verify whole rounds of the workload until
  another round would overrun ``--seconds`` of wall time (at least one
  round), timing every ``run_task_sequence`` call and every call into the
  planner;
* ``trace``: the same for exactly ``--rounds`` rounds, with a span around
  every call into each layer (see ``tracing.py``).

Set-up time is the CPU time of this process (``time.process_time``) up to
the first episode.  Every time measured after it is CPU time of the main
thread (``time.thread_time``), which runs all of braidplan: once the
profiling timer of ``hostspeed.py`` is armed, the process-wide clock of a
process with more than one thread (numpy starts some) advances only at
scheduler ticks, 4 ms here, and reads 0 for a sub-millisecond plan.
CPU time rather than wall time, because on a shared host the wall clock
also counts the time the process waited for a CPU, which is not the
program's cost and spread run-to-run wall-time figures by 7-24%.  Every
reported time is then converted to seconds at the reference host's speed
by ``hostspeed.py``, whose kernel is timed after set-up, every few tenths
of a CPU second during the run, and at the end.  Output checks and kernel
slices fall outside the measured time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

from checks import CrossingFold, Episode, check_episode  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Reference-kernel slices timed right after set-up, before the first episode.
SETUP_SLICES = 25


class Capture:
    """Keeps what the planner, ``map_path`` and the verifier returned for
    each episode of the task sequence being run, and the CPU-clock readings
    around each plan."""

    def __init__(self, harness) -> None:
        self.records: list[list] = []
        plan, map_path, verify = harness.plan, harness.map_path, harness.verify
        records = self.records

        def timed_plan(*args, **kwargs):
            t0 = time.thread_time()
            out = plan(*args, **kwargs)
            records.append([(t0, time.thread_time()), out, None, None])
            return out

        def captured_map_path(*args, **kwargs):
            out = map_path(*args, **kwargs)
            records[-1][2] = out
            return out

        def captured_verify(*args, **kwargs):
            out = verify(*args, **kwargs)
            records[-1][3] = out[0]
            return out

        harness.plan = timed_plan
        harness.map_path = captured_map_path
        harness.verify = captured_verify


class Tally:
    """Per-episode outcomes of the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.plan_spans: list[tuple[float, float]] = []
        self.actions = 0
        self.expanded = 0
        self.generated = 0
        self.rejected = 0
        self.peak_open = 0
        self.max_expanded = 0
        self.errors: list[str] = []

    def add_sequence(self, scenario, metrics, records, error: str | None) -> None:
        sets = scenario.target_sets
        self.attempted += len(sets)
        if error is not None or len(records) != len(sets) or len(metrics.results) != len(sets):
            self.failed += len(sets)
            self.errors.append(error or "episode records do not match the target sets")
            return
        positions = scenario.initial_positions
        fold = CrossingFold()
        for targets, (plan_span, outcome, trajectories, report), result in zip(
            sets, records, metrics.results
        ):
            self.plan_spans.append(plan_span)
            trace = outcome.trace
            self.expanded += trace.expanded
            self.generated += trace.generated
            self.rejected += trace.rejected_by_braid
            self.peak_open = max(self.peak_open, trace.peak_open)
            self.max_expanded = max(self.max_expanded, trace.expanded)
            episode = Episode(
                start=positions,
                targets=targets,
                path=tuple((p.pi1, p.pi2) for p in outcome.path),
                trajectories={t.robot_id: t.waypoints for t in trajectories or ()},
                success=result.success,
                verifier_ok=report is not None and report.ok,
                tables_consistent=result.tables_consistent,
            )
            errors = check_episode(episode, scenario.config.d_safe, fold)
            if errors:
                self.failed += 1
                self.errors.append(f"set {result.set_index}: {errors[0]}")
                if result.success:
                    self.wrong += 1
            else:
                self.actions += len(episode.path) - 1
            if result.success:
                positions = targets


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct``-th percentile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics.  Where
    the tail is sparse, one order statistic jumps between neighbours that
    lie 20-40% apart as per-episode noise reorders them; the weighted mean
    does not.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    q = pct / 100.0
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    x = np.linspace(0.0, 1.0, 400_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, x, cdf))
    return float(weights @ ordered)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--trace-out", type=Path, help="where trace mode writes its spans")
    args = parser.parse_args()

    from braidplan import harness, planner, workspace

    if Path(harness.__file__).resolve().parent != SRC_DIR / "braidplan":
        raise SystemExit(f"braidplan was imported from {harness.__file__}, not from {SRC_DIR}")

    workload = WORKLOADS[args.workload]
    scenarios = workload.scenarios(args.seed)
    setup_s = time.process_time()
    speed = HostSpeed()
    speed.sample(SETUP_SLICES)
    setup_s *= speed.first_rate()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install({"harness": harness, "workspace": workspace, "planner": planner})
    capture = Capture(harness)
    tally = Tally()
    sequence_spans = []
    rounds = 0
    started = time.perf_counter()
    speed.start_timer()
    while True:
        for scenario in scenarios:
            capture.records.clear()
            metrics, error = None, None
            t0 = time.thread_time()
            try:
                metrics = harness.run_task_sequence(scenario)
            except Exception as exc:  # an episode that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            sequence_spans.append((t0, time.thread_time()))
            tally.add_sequence(scenario, metrics, capture.records, error)
        rounds += 1
        if args.rounds:
            if rounds >= args.rounds:
                break
        else:
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / rounds > args.seconds:
                break
    speed.stop_timer()
    speed.sample()

    # Read before computing the percentiles, whose work arrays would raise it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sequence_ref = speed.to_reference(np.reshape(sequence_spans, (-1, 2)))
    busy = float(np.sum(sequence_ref[:, 1] - sequence_ref[:, 0]))
    plan_ref = speed.to_reference(np.reshape(tally.plan_spans, (-1, 2)))
    plan_s = plan_ref[:, 1] - plan_ref[:, 0]
    completed = tally.attempted - tally.failed
    out = {
        "setup_s": setup_s,
        "rounds": rounds,
        "busy_s": busy,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "errors": tally.errors[:5],
        "episodes_per_s": completed / busy,
        "plan_p50_ms": percentile(plan_s, 50.0) * 1e3,
        "plan_tail_ms": percentile(plan_s, workload.tail_percentile) * 1e3,
        "swaps_per_episode": tally.actions / completed if completed else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, tally, busy, speed, float(plan_s.max(initial=0.0)))
        tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out))
    return 0


def layer_metrics(
    tracer: Tracer, tally: Tally, busy: float, speed: HostSpeed, max_plan_s: float
) -> dict[str, float]:
    self_s, incl, root_s = tracer.totals(speed.to_reference)
    calls = tracer.calls
    plan_incl = incl["planner.plan"]
    return {
        "planner.plan_s": self_s["planner.plan"],
        "planner.expanded": tally.expanded,
        "planner.generated": tally.generated,
        "planner.rejected_by_braid": tally.rejected,
        "planner.peak_open": tally.peak_open,
        "planner.max_expanded": tally.max_expanded,
        "planner.max_plan_s": max_plan_s,
        "planner.expansions_per_s": tally.expanded / plan_incl if plan_incl else 0.0,
        "planner.swaps_per_expansion": tally.actions / tally.expanded if tally.expanded else 0.0,
        "workspace.ranks_s": self_s["workspace.ranks_from_positions"],
        "workspace.map_path_s": self_s["workspace.map_path"],
        "workspace.carry_over_s": self_s["workspace.carry_over_braids"],
        "harness.simulate_s": self_s["harness.simulate"],
        "harness.verify_s": incl["harness.verify"],
        "harness.verify_self_s": self_s["harness.verify"],
        "geometry.lift_s": self_s["geometry.build_space_time"],
        "geometry.lift_calls": calls["geometry.build_space_time"],
        "geometry.extract_s": self_s["geometry.extract_crossings"],
        "geometry.extract_calls": calls["geometry.extract_crossings"],
        "geometry.crossings": tracer.crossings,
        "geometry.sub_events_s": self_s["geometry.sub_events"],
        "geometry.sub_events_calls": calls["geometry.sub_events"],
        "braid.update_s": self_s["braid.update_pair"] + self_s["braid.update_triplet"],
        "braid.update_pair_calls": calls["braid.update_pair"],
        "braid.update_triplet_calls": calls["braid.update_triplet"],
        "unspanned_s": busy - root_s,
        "self_total_s": sum(self_s.values()),
    }


if __name__ == "__main__":
    sys.exit(main())
