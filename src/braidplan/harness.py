"""Scenario running, motion sampling, and the independent cable verifier.

A scenario fixes the workspace, the team's bases and start positions, and
a sequence of target sets.  ``run_task_sequence`` plans each set in turn,
realizes the plan as timed trajectories, samples the motion for minimum
separation, and verifies the cables from scratch: the verifier re-extracts
crossings from the executed trajectories on every projection angle of the
check set, plus the grid angles (pi/2, 0) when the check set lacks them,
and folds them into its own braid tables, which persist across episodes.
The planner's carried two-axis table is read off the verifier's tables at
the grid angles, so each episode folds its crossings once.  The check
that matters is the planner's prediction against geometry: the table the
planner predicted at the goal must equal the one read off the executed
trajectories.

The number of check angles m must satisfy m > pi / gamma_bar, where
gamma_bar is the largest projected crossing gap the cable model tolerates;
the check set A(m) = {i*pi/m : i = 0..m} then leaves no blind direction.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InputError
from .geometry import ProjectionAxis, Trajectory, build_space_time, extract_crossings
from .planner import AXIS_ANGLES, BraidTable, plan
from .workspace import WorkspaceConfig, fold_crossings, map_path, ranks_from_positions

# Not called here; the benchmark's tracer (bench/tracing.py) wraps these names
# in this module, so they stay importable from it.
from .braid import update_pair, update_triplet  # noqa: F401
from .geometry import sub_events  # noqa: F401
from .workspace import carry_over_braids  # noqa: F401

__all__ = [
    "DEFAULT_GAMMA_BAR",
    "Scenario",
    "Violation",
    "EntanglementReport",
    "SimulationResult",
    "SetResult",
    "RunMetrics",
    "simulate",
    "verify",
    "random_targets",
    "make_scenario",
    "run_task_sequence",
]

Point = tuple[float, float]

DEFAULT_GAMMA_BAR = 0.51 * math.pi

# Experiment-runner defaults.  A stronger greed than the planner's own default
# keeps long carried-over episode sequences fast, and the expansion cap bounds
# worst-case memory for a sequence of hundreds of searches.
DEFAULT_RUN_BIAS = 3.0
DEFAULT_RUN_MAX_EXPANSIONS = 250_000


def _check_spread(points: tuple[Point, ...], config: WorkspaceConfig, label: str) -> None:
    for idx, p in enumerate(points):
        if not config.contains(p):
            raise ConfigurationError(f"{label} {idx + 1} at {p} lies outside the workspace")
    for a, b in itertools.combinations(range(len(points)), 2):
        if math.dist(points[a], points[b]) < config.d_safe:
            raise ConfigurationError(f"{label}s {a + 1} and {b + 1} are closer than d_safe")


@dataclass(frozen=True)
class Scenario:
    """A workspace, a team, and the sequence of target sets to reach."""

    config: WorkspaceConfig
    bases: tuple[Point, ...]
    initial_positions: tuple[Point, ...]
    target_sets: tuple[tuple[Point, ...], ...]
    rng_seed: int = 0
    gamma_bar: float = DEFAULT_GAMMA_BAR
    m: int = 2
    bias: float = DEFAULT_RUN_BIAS
    max_expansions: int = DEFAULT_RUN_MAX_EXPANSIONS

    def __post_init__(self) -> None:
        n = len(self.initial_positions)
        if n < 2:
            raise ConfigurationError("a scenario needs at least two robots")
        if len(self.bases) != n:
            raise ConfigurationError("bases and initial positions must have equal length")
        if self.m < 1 or self.m != int(self.m):
            raise ConfigurationError("m must be a positive integer")
        if not 0.0 < self.gamma_bar <= math.pi:
            raise ConfigurationError("gamma_bar must lie in (0, pi]")
        if self.m <= math.pi / self.gamma_bar:
            raise ConfigurationError(
                f"m = {self.m} check angles leave gaps wider than gamma_bar; "
                f"need m > {math.pi / self.gamma_bar:.3f}"
            )
        if self.bias <= 0:
            raise ConfigurationError("bias must be positive")
        if self.max_expansions < 1:
            raise ConfigurationError("max_expansions must be positive")
        self.config.validate_grid(n)
        for p in self.bases:
            if not self.config.contains(p):
                raise ConfigurationError(f"base at {p} lies outside the workspace")
        _check_spread(self.initial_positions, self.config, "initial position")
        for targets in self.target_sets:
            if len(targets) != n:
                raise ConfigurationError("every target set must assign one target per robot")
            _check_spread(targets, self.config, "target")

    @property
    def n(self) -> int:
        return len(self.initial_positions)

    @property
    def angles(self) -> tuple[float, ...]:
        """The projection check set A(m): m + 1 evenly spaced angles."""
        return tuple(i * math.pi / self.m for i in range(self.m + 1))

    @property
    def dt(self) -> float:
        """Separation sampling step: a tenth of a cell of travel."""
        return self.config.cell_size / (10.0 * self.config.speed)


@dataclass(frozen=True)
class Violation:
    """A forbidden braid pattern observed on one projection angle."""

    ids: tuple[int, ...]
    axis_angle: float
    time: float
    word: str

    def as_dict(self) -> dict:
        return {
            "ids": list(self.ids),
            "axis_angle": self.axis_angle,
            "time": self.time,
            "word": self.word,
        }


@dataclass(frozen=True)
class EntanglementReport:
    """Verifier verdict over every check angle."""

    ok: bool
    violations: tuple[Violation, ...]
    perturbations: tuple[tuple[float, int, int, float], ...]
    """Exact projection ties resolved by robot id, as (angle, i, j, time)."""

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
            "perturbations": [list(p) for p in self.perturbations],
        }


@dataclass(frozen=True)
class SimulationResult:
    """Sampled minimum separation of the executed motion."""

    min_distance: float
    time: float
    ids: tuple[int, int]
    horizon: float


def simulate(trajectories: list[Trajectory] | tuple[Trajectory, ...], dt: float) -> SimulationResult:
    """Sample all pairwise distances on waypoint times plus a dt raster."""
    if dt <= 0 or not math.isfinite(dt):
        raise InputError("dt must be positive and finite")
    trajs = sorted(trajectories, key=lambda t: t.robot_id)
    if len(trajs) < 2:
        horizon = trajs[0].arrival_time if trajs else 0.0
        return SimulationResult(math.inf, 0.0, (0, 0), horizon)
    grid = np.unique(np.concatenate([t.times() for t in trajs]))
    horizon = float(grid[-1])
    raster = np.arange(0.0, horizon, dt)
    ts = np.unique(np.concatenate([grid, raster]))
    xs = np.stack([np.interp(ts, t.times(), t.positions()[:, 0]) for t in trajs])
    ys = np.stack([np.interp(ts, t.times(), t.positions()[:, 1]) for t in trajs])
    best = (math.inf, 0.0, (0, 0))
    for a, b in itertools.combinations(range(len(trajs)), 2):
        d = np.hypot(xs[a] - xs[b], ys[a] - ys[b])
        k = int(np.argmin(d))
        if d[k] < best[0]:
            best = (float(d[k]), float(ts[k]), (trajs[a].robot_id, trajs[b].robot_id))
    return SimulationResult(best[0], best[1], best[2], horizon)


def verify(
    trajectories: list[Trajectory] | tuple[Trajectory, ...],
    angles: tuple[float, ...],
    tables: tuple[BraidTable, ...] | None = None,
    *,
    height: float = 1.0,
) -> tuple[EntanglementReport, tuple[BraidTable, ...]]:
    """Re-derive every pair and triplet braid from executed trajectories.

    Independent of the planner: crossings are extracted afresh on every
    angle in the check set and folded into per-angle braid tables (one
    tracked axis each).  Passing the returned tables back in on the next
    episode carries the cable state across the whole task sequence.
    """
    ids = sorted(t.robot_id for t in trajectories)
    n = len(ids)
    if ids != list(range(1, n + 1)):
        raise InputError("trajectories must cover robot ids 1..n exactly")
    if not angles:
        raise InputError("at least one check angle is required")
    if tables is None:
        tables = tuple(BraidTable.identity(n, axes_count=1) for _ in angles)
    if len(tables) != len(angles):
        raise InputError("one braid table per check angle is required")
    for table in tables:
        if table.n != n or table.axes_count != 1:
            raise InputError("verifier tables must be single-axis tables for this team")
    if max(t.arrival_time for t in trajectories) <= 0.0:
        # Stationary team: no motion, no crossings, tables unchanged.
        return EntanglementReport(True, (), ()), tables
    lifted = build_space_time(list(trajectories), height)
    violations: list[Violation] = []
    ties: list[tuple[float, int, int, float]] = []
    new_tables = []
    for angle, table in zip(angles, tables):
        tie_records: list[tuple[int, int, float]] = []
        events = extract_crossings(lifted, ProjectionAxis(angle), ties_out=tie_records)
        ties.extend((angle, i, j, t) for i, j, t in tie_records)
        table, forbidden = fold_crossings(events, table)
        new_tables.append(table)
        violations.extend(Violation(culprits, angle, t, word) for culprits, t, word in forbidden)
    report = EntanglementReport(not violations, tuple(violations), tuple(ties))
    return report, tuple(new_tables)


def random_targets(
    config: WorkspaceConfig,
    n: int,
    rng: random.Random,
    max_attempts: int = 20000,
) -> tuple[Point, ...]:
    """Uniform workspace points, rejection-sampled to keep d_safe apart."""
    points: list[Point] = []
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > max_attempts:
            raise ConfigurationError(
                f"could not place {n} points at d_safe {config.d_safe} "
                f"within {max_attempts} attempts"
            )
        candidate = (
            rng.uniform(config.xmin, config.xmax),
            rng.uniform(config.ymin, config.ymax),
        )
        if all(math.dist(candidate, p) >= config.d_safe for p in points):
            points.append(candidate)
    return tuple(points)


def make_scenario(
    n: int,
    num_sets: int,
    seed: int,
    *,
    config: WorkspaceConfig | None = None,
    m: int = 2,
    gamma_bar: float = DEFAULT_GAMMA_BAR,
    bias: float = DEFAULT_RUN_BIAS,
    max_expansions: int = DEFAULT_RUN_MAX_EXPANSIONS,
) -> Scenario:
    """A reproducible random scenario; bases coincide with the start poses."""
    if config is None:
        side = (n + 2) * 1.0
        config = WorkspaceConfig(
            xmin=0.0, xmax=side, ymin=0.0, ymax=side,
            height=1.0, cell_size=1.0, d_safe=1.0, speed=1.0,
        )
    rng = random.Random(seed)
    initial = random_targets(config, n, rng)
    target_sets = tuple(random_targets(config, n, rng) for _ in range(num_sets))
    return Scenario(
        config=config,
        bases=initial,
        initial_positions=initial,
        target_sets=target_sets,
        rng_seed=seed,
        gamma_bar=gamma_bar,
        m=m,
        bias=bias,
        max_expansions=max_expansions,
    )


@dataclass(frozen=True)
class SetResult:
    """Outcome of one target set (one planning episode)."""

    set_index: int
    success: bool
    reason: str  # "ok", "max_expansions", "exhausted", "violation", or "clearance"
    plan_time_s: float
    actions: int
    expanded: int
    generated: int
    rejected_by_braid: int
    min_distance: float
    horizon: float
    violations: tuple[Violation, ...]
    perturbations: int
    tables_consistent: bool

    def as_dict(self) -> dict:
        return {
            "set_index": self.set_index,
            "success": self.success,
            "reason": self.reason,
            "plan_time_s": self.plan_time_s,
            "actions": self.actions,
            "expanded": self.expanded,
            "generated": self.generated,
            "rejected_by_braid": self.rejected_by_braid,
            "min_distance": self.min_distance,
            "horizon": self.horizon,
            "violations": [v.as_dict() for v in self.violations],
            "perturbations": self.perturbations,
            "tables_consistent": self.tables_consistent,
        }


@dataclass(frozen=True)
class RunMetrics:
    """Aggregate outcome of a whole task sequence."""

    n: int
    sets_total: int
    successes: int
    success_rate: float
    mean_plan_time_s: float
    max_plan_time_s: float
    mean_actions: float
    mean_min_distance: float
    total_violations: int
    all_tables_consistent: bool
    results: tuple[SetResult, ...]
    final_positions: tuple[Point, ...]
    final_braids: BraidTable

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "sets_total": self.sets_total,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "mean_plan_time_s": self.mean_plan_time_s,
            "max_plan_time_s": self.max_plan_time_s,
            "mean_actions": self.mean_actions,
            "mean_min_distance": self.mean_min_distance,
            "total_violations": self.total_violations,
            "all_tables_consistent": self.all_tables_consistent,
            "results": [r.as_dict() for r in self.results],
            "final_positions": [list(p) for p in self.final_positions],
            "final_braids": self.final_braids.to_serializable(),
        }


def _planner_table(angles: tuple[float, ...], tables: tuple[BraidTable, ...]) -> BraidTable:
    """The planner's two-axis table, read off the verifier's grid-angle tables."""
    t1, t2 = (tables[angles.index(angle)] for angle in AXIS_ANGLES)
    # Both tables store their single axis in the planner's axis-major order.
    return BraidTable(t1.n, 2, t1.pairs + t2.pairs, t1.triplets + t2.triplets)


def run_task_sequence(scenario: Scenario, *, dump_dir: str | Path | None = None) -> RunMetrics:
    """Plan, execute, and verify every target set of a scenario in order.

    Failed episodes leave the team state untouched (positions and verifier
    braids both revert), so later sets still run from a consistent state.
    Output is deterministic apart from timings.
    """
    config = scenario.config
    n = scenario.n
    # The planner's table is read off the grid angles, so the verifier folds
    # them too where A(m) lacks them (odd m).
    angles = scenario.angles + tuple(a for a in AXIS_ANGLES if a not in scenario.angles)
    positions = scenario.initial_positions
    verifier_tables = tuple(BraidTable.identity(n, axes_count=1) for _ in angles)
    if dump_dir is not None:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
    results: list[SetResult] = []

    for set_index, targets in enumerate(scenario.target_sets):
        start_perms = ranks_from_positions(positions)
        target_perms = ranks_from_positions(targets)
        t0 = time.perf_counter()
        outcome = plan(
            start_perms,
            target_perms,
            _planner_table(angles, verifier_tables),
            bias=scenario.bias,
            max_expansions=scenario.max_expansions,
        )
        plan_time = time.perf_counter() - t0
        trace = outcome.trace

        if not outcome.path:
            results.append(SetResult(
                set_index, False, trace.reason, plan_time, 0,
                trace.expanded, trace.generated, trace.rejected_by_braid,
                math.inf, 0.0, (), 0, True,
            ))
            continue

        trajectories = map_path(outcome.path, config, positions, targets)
        sim = simulate(trajectories, scenario.dt)
        report, new_tables = verify(trajectories, angles, verifier_tables, height=config.height)
        consistent = _planner_table(angles, new_tables) == outcome.final_braids
        clearance_ok = sim.min_distance >= config.d_safe - 1e-9
        success = report.ok and clearance_ok
        reason = "ok" if success else ("violation" if not report.ok else "clearance")
        # Ties count on the check set only, not on grid angles it lacks.
        ties = sum(p[0] in scenario.angles for p in report.perturbations)

        result = SetResult(
            set_index, success, reason, plan_time, len(outcome.path) - 1,
            trace.expanded, trace.generated, trace.rejected_by_braid,
            sim.min_distance, sim.horizon, report.violations, ties, consistent,
        )
        results.append(result)
        if dump_dir is not None:
            payload = result.as_dict()
            payload["targets"] = [list(p) for p in targets]
            payload["permutation_path"] = [
                {"pi1": list(p.pi1), "pi2": list(p.pi2)} for p in outcome.path
            ]
            payload["trajectories"] = [
                {"robot_id": t.robot_id, "waypoints": [list(w) for w in t.waypoints]}
                for t in trajectories
            ]
            (dump_dir / f"set_{set_index:03d}.json").write_text(
                json.dumps(payload, indent=2)
            )

        if success:
            positions = targets
            verifier_tables = new_tables

    successes = [r for r in results if r.success]
    metrics = RunMetrics(
        n=n,
        sets_total=len(results),
        successes=len(successes),
        success_rate=len(successes) / len(results) if results else 0.0,
        mean_plan_time_s=(
            sum(r.plan_time_s for r in results) / len(results) if results else 0.0
        ),
        max_plan_time_s=max((r.plan_time_s for r in results), default=0.0),
        mean_actions=(
            sum(r.actions for r in successes) / len(successes) if successes else 0.0
        ),
        mean_min_distance=(
            sum(r.min_distance for r in successes) / len(successes) if successes else 0.0
        ),
        total_violations=sum(len(r.violations) for r in results),
        all_tables_consistent=all(r.tables_consistent for r in results),
        results=tuple(results),
        final_positions=positions,
        final_braids=_planner_table(angles, verifier_tables),
    )
    return metrics
