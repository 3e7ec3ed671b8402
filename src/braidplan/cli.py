"""Command-line front end: plan, run, verify, and plot.

File contracts are JSON.  A scenario file holds the workspace, the team,
and the target sets; a plan file holds the timed trajectories the planner
produced plus the permutation path, predicted braid table, and search
statistics, and is self-contained enough to verify and plot on its own.

Exit codes: 0 success, 1 input error (a malformed command line included),
2 no path found, 3 entanglement violation detected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from .errors import InputError
from .geometry import Trajectory
from .harness import (
    DEFAULT_GAMMA_BAR,
    DEFAULT_RUN_BIAS,
    DEFAULT_RUN_MAX_EXPANSIONS,
    Scenario,
    run_task_sequence,
    verify,
)
from .planner import AXIS_ANGLES, BraidTable, plan
from .plot import render_braid_svg, render_paths_svg
from .workspace import WorkspaceConfig, map_path, ranks_from_positions

__all__ = [
    "EXIT_OK",
    "EXIT_INPUT_ERROR",
    "EXIT_NO_PATH",
    "EXIT_VIOLATION",
    "load_scenario",
    "scenario_to_dict",
    "load_trajectory_file",
    "main",
]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_PATH = 2
EXIT_VIOLATION = 3


# ---------------------------------------------------------------------------
# File contracts.
# ---------------------------------------------------------------------------

def _load_json(path: str | Path, label: str) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"{label}: cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{label}: {path} is not valid JSON: {exc}") from exc


def _require(data: dict, key: str, label: str) -> object:
    if key not in data:
        raise InputError(f"{label}: missing key '{key}'")
    return data[key]


def _number(data: dict, key: str, label: str) -> float:
    value = _require(data, key, label)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{label}: key '{key}' must be a number")
    if not math.isfinite(value):
        raise InputError(f"{label}: key '{key}' must be finite")
    return float(value)


def _points(value: object, key: str, label: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list):
        raise InputError(f"{label}: key '{key}' must be a list of [x, y] pairs")
    out = []
    for entry in value:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry)
            or any(not math.isfinite(v) for v in entry)
        ):
            raise InputError(f"{label}: key '{key}' must be a list of finite [x, y] pairs")
        out.append((float(entry[0]), float(entry[1])))
    return tuple(out)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; errors name the offending key."""
    label = "scenario file"
    data = _load_json(path, label)
    if not isinstance(data, dict):
        raise InputError(f"{label}: top level must be an object")
    ws = _require(data, "workspace", label)
    if not isinstance(ws, dict):
        raise InputError(f"{label}: key 'workspace' must be an object")
    config = WorkspaceConfig(
        xmin=_number(ws, "xmin", f"{label}: workspace"),
        xmax=_number(ws, "xmax", f"{label}: workspace"),
        ymin=_number(ws, "ymin", f"{label}: workspace"),
        ymax=_number(ws, "ymax", f"{label}: workspace"),
        height=_number(ws, "height", f"{label}: workspace"),
        cell_size=_number(data, "cell_size", label),
        d_safe=_number(data, "d_safe", label),
        speed=_number(data, "speed", label),
    )
    bases = _points(_require(data, "bases", label), "bases", label)
    initial = _points(_require(data, "initial_positions", label), "initial_positions", label)
    raw_sets = _require(data, "target_sets", label)
    if not isinstance(raw_sets, list):
        raise InputError(f"{label}: key 'target_sets' must be a list of target lists")
    target_sets = tuple(
        _points(entry, f"target_sets[{k}]", label) for k, entry in enumerate(raw_sets)
    )
    m = data.get("m", 2)
    if isinstance(m, bool) or not isinstance(m, int):
        raise InputError(f"{label}: key 'm' must be an integer")
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InputError(f"{label}: key 'seed' must be an integer")
    max_expansions = data.get("max_expansions", DEFAULT_RUN_MAX_EXPANSIONS)
    if isinstance(max_expansions, bool) or not isinstance(max_expansions, int):
        raise InputError(f"{label}: key 'max_expansions' must be an integer")
    gamma_bar = data.get("gamma_bar", DEFAULT_GAMMA_BAR)
    bias = data.get("bias", DEFAULT_RUN_BIAS)
    for key, value in (("gamma_bar", gamma_bar), ("bias", bias)):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise InputError(f"{label}: key '{key}' must be a finite number")
    return Scenario(
        config=config,
        bases=bases,
        initial_positions=initial,
        target_sets=target_sets,
        rng_seed=seed,
        gamma_bar=float(gamma_bar),
        m=m,
        bias=float(bias),
        max_expansions=max_expansions,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of ``load_scenario``; write-then-read reproduces the scenario."""
    c = scenario.config
    return {
        "workspace": {
            "xmin": c.xmin, "xmax": c.xmax, "ymin": c.ymin, "ymax": c.ymax,
            "height": c.height,
        },
        "cell_size": c.cell_size,
        "d_safe": c.d_safe,
        "speed": c.speed,
        "bases": [list(p) for p in scenario.bases],
        "initial_positions": [list(p) for p in scenario.initial_positions],
        "target_sets": [[list(p) for p in ts] for ts in scenario.target_sets],
        "seed": scenario.rng_seed,
        "gamma_bar": scenario.gamma_bar,
        "m": scenario.m,
        "bias": scenario.bias,
        "max_expansions": scenario.max_expansions,
    }


def _trajectories_from_list(raw: object, label: str) -> list[Trajectory]:
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{label}: key 'trajectories' must be a non-empty list")
    out = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise InputError(f"{label}: each trajectory must be an object")
        rid = _require(entry, "robot_id", label)
        if isinstance(rid, bool) or not isinstance(rid, int):
            raise InputError(f"{label}: key 'robot_id' must be an integer")
        wps = _require(entry, "waypoints", label)
        if not isinstance(wps, list) or not wps:
            raise InputError(f"{label}: key 'waypoints' must be a non-empty list")
        waypoints = []
        for w in wps:
            if (
                not isinstance(w, list)
                or len(w) != 3
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in w)
            ):
                raise InputError(f"{label}: key 'waypoints' must hold [x, y, t] triples")
            waypoints.append((float(w[0]), float(w[1]), float(w[2])))
        out.append(Trajectory(robot_id=rid, waypoints=tuple(waypoints)))
    return out


def load_trajectory_file(path: str | Path) -> tuple[list[Trajectory], dict | None]:
    """Load a plan file or a bare trajectory file.

    Returns the trajectories plus the full plan document when the file is
    a plan file (None for bare trajectory lists).
    """
    label = "trajectory file"
    data = _load_json(path, label)
    if isinstance(data, list):
        return _trajectories_from_list(data, label), None
    if isinstance(data, dict):
        trajs = _trajectories_from_list(_require(data, "trajectories", label), label)
        is_plan = "permutation_path" in data
        return trajs, (data if is_plan else None)
    raise InputError(f"{label}: top level must be an object or a list")


def _plan_file_dict(
    scenario: Scenario,
    set_index: int,
    trajectories: list[Trajectory],
    perm_path,
    braids: BraidTable,
    stats: dict,
) -> dict:
    c = scenario.config
    return {
        "trajectories": [
            {"robot_id": t.robot_id, "waypoints": [list(w) for w in t.waypoints]}
            for t in trajectories
        ],
        "permutation_path": [{"pi1": list(p.pi1), "pi2": list(p.pi2)} for p in perm_path],
        "final_braids": braids.to_serializable(),
        "stats": stats,
        "set_index": set_index,
        "workspace": {
            "xmin": c.xmin, "xmax": c.xmax, "ymin": c.ymin, "ymax": c.ymax,
            "height": c.height,
        },
        "cell_size": c.cell_size,
        "d_safe": c.d_safe,
        "speed": c.speed,
        "bases": [list(p) for p in scenario.bases],
        "targets": [list(p) for p in scenario.target_sets[set_index]],
    }


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_plan(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if not scenario.target_sets:
        raise InputError("scenario file: key 'target_sets' is empty; nothing to plan")
    if not 0 <= args.set_index < len(scenario.target_sets):
        raise InputError(
            f"set_index {args.set_index} out of range; "
            f"scenario has {len(scenario.target_sets)} target sets"
        )
    targets = scenario.target_sets[args.set_index]
    config = scenario.config
    start_perms = ranks_from_positions(scenario.initial_positions)
    target_perms = ranks_from_positions(targets)
    t0 = time.perf_counter()
    outcome = plan(
        start_perms,
        target_perms,
        BraidTable.identity(scenario.n),
        bias=scenario.bias,
        max_expansions=scenario.max_expansions,
    )
    plan_time = time.perf_counter() - t0
    if not outcome.path:
        print(f"no path found ({outcome.trace.reason}), "
              f"{outcome.trace.expanded} nodes expanded", file=sys.stderr)
        return EXIT_NO_PATH
    trajectories = map_path(outcome.path, config, scenario.initial_positions, targets)
    stats = {
        "actions": len(outcome.path) - 1,
        "expanded": outcome.trace.expanded,
        "generated": outcome.trace.generated,
        "rejected_by_braid": outcome.trace.rejected_by_braid,
        "peak_open": outcome.trace.peak_open,
        "reason": outcome.trace.reason,
        "plan_time_s": plan_time,
    }
    doc = _plan_file_dict(
        scenario, args.set_index, trajectories, outcome.path, outcome.final_braids, stats
    )
    Path(args.out).write_text(json.dumps(doc, indent=2))
    horizon = max(t.arrival_time for t in trajectories)
    print(
        f"planned set {args.set_index}: {stats['actions']} swaps, "
        f"{stats['expanded']} nodes expanded, horizon {horizon:.2f} s -> {args.out}"
    )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed_override is not None:
        scenario = dataclasses.replace(scenario, rng_seed=args.seed_override)
    metrics = run_task_sequence(scenario, dump_dir=args.dump_dir)
    report = metrics.as_dict()
    report["seed"] = scenario.rng_seed
    Path(args.out).write_text(json.dumps(report, indent=2))
    print(
        f"{metrics.sets_total} sets: success rate {metrics.success_rate:.3f}, "
        f"mean plan time {metrics.mean_plan_time_s * 1000:.1f} ms, "
        f"violations {metrics.total_violations} -> {args.out}"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    trajectories, _ = load_trajectory_file(args.input)
    scenario = load_scenario(args.scenario)
    if len(trajectories) != scenario.n:
        raise InputError(
            f"trajectory file covers {len(trajectories)} robots; "
            f"the scenario declares {scenario.n}"
        )
    report, _ = verify(
        trajectories, scenario.angles, height=scenario.config.height
    )
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_plot(args: argparse.Namespace) -> int:
    trajectories, doc = load_trajectory_file(args.input)
    if args.braid is not None:
        if args.braid not in (1, 2):
            raise InputError(f"unknown axis {args.braid}; the grid tracks axes 1 and 2")
        svg = render_braid_svg(trajectories, AXIS_ANGLES[args.braid - 1])
    else:
        workspace = None
        bases = targets = None
        if doc is not None:
            ws = doc.get("workspace")
            if isinstance(ws, dict):
                workspace = (ws["xmin"], ws["xmax"], ws["ymin"], ws["ymax"])
            bases = doc.get("bases")
            targets = doc.get("targets")
        svg = render_paths_svg(
            trajectories, workspace=workspace, bases=bases, targets=targets
        )
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidplan",
        description="Entanglement-free path planning for tethered robot teams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan one target set and write a plan file")
    p_plan.add_argument("--scenario", required=True, help="scenario JSON file")
    p_plan.add_argument("--set-index", type=int, default=0, help="target set to plan (default 0)")
    p_plan.add_argument("--out", required=True, help="output plan JSON file")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="run the whole task sequence and write a report")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output report JSON file")
    p_run.add_argument("--seed-override", type=int, default=None, help="replace the scenario seed")
    p_run.add_argument("--dump-dir", default=None, help="directory for per-set trajectory dumps")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="verify a plan or trajectory file against a scenario")
    p_verify.add_argument("input", help="plan or trajectory JSON file")
    p_verify.add_argument("--scenario", required=True, help="scenario JSON file")
    p_verify.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="render a plan or trajectory file to SVG")
    p_plot.add_argument("input", help="plan or trajectory JSON file")
    p_plot.add_argument("--out", required=True, help="output SVG file")
    group = p_plot.add_mutually_exclusive_group()
    group.add_argument("--paths", action="store_true", help="top-down workspace view (default)")
    group.add_argument("--braid", type=int, default=None, metavar="AXIS",
                       help="braid diagram on grid axis 1 or 2")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is bad input.
        return EXIT_OK if exc.code == 0 else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
