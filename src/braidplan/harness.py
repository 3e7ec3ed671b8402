"""Scenario running, separation checks, and the independent cable verifier.

A scenario fixes the workspace, the team's bases and start positions, and
a sequence of target sets.  ``run_task_sequence`` plans each set in turn,
realizes the plan as timed trajectories and lifts them once.  From that
lifted team it computes the exact minimum separation and verifies the
cables from scratch: the verifier re-extracts crossings from the executed
motion on every projection angle of the check set, plus the grid angles
(pi/2, 0) when the check set lacks them, and folds them into its own
braid tables, one per angle, which persist across episodes.  The
planner carries the verifier's own tables at the grid angles, so each
episode folds its crossings once.  The check that matters is the
planner's prediction against geometry: the tables the planner predicted
at the goal must equal the verifier's tables at the grid angles.

``fold_crossings`` folds each executed crossing once per angle, into its
pair's entry and the n - 2 triplet entries that hold the pair.
``carry_over_braids`` is ``verify`` on the grid angles.

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
from dataclasses import asdict, dataclass, fields
from operator import itemgetter
from pathlib import Path

import numpy as np

from .braid import BraidLetter, pair_word_text, triplet_word_text, update_pair, update_triplet
from .errors import ConfigurationError, DegenerateInputError, EntanglementAlarm, InputError
from .geometry import CrossingEvent, LiftedTeam, ProjectionAxis, Trajectory
from .geometry import build_space_time, extract_crossings
from .planner import AXIS_ANGLES, BraidTable, PermutationState, _rows, plan, to_serializable
from .workspace import WorkspaceConfig, map_path, ranks_from_positions

# Not called here; the benchmark's tracer (bench/tracing.py) wraps this name
# in this module, so it stays importable from it.
from .geometry import sub_events  # noqa: F401

__all__ = [
    "DEFAULT_GAMMA_BAR",
    "MAX_M",
    "Scenario",
    "Violation",
    "EntanglementReport",
    "SimulationResult",
    "SetResult",
    "RunMetrics",
    "simulate",
    "fold_crossings",
    "verify",
    "carry_over_braids",
    "random_targets",
    "make_scenario",
    "episode_json",
    "run_task_sequence",
]

Point = tuple[float, float]

DEFAULT_GAMMA_BAR = 0.51 * math.pi

# Largest accepted number of check angles.  Every angle of A(m) costs one
# crossing extraction and one table fold per episode, so an unbounded m makes
# a run linear in m; at this bound neighbouring angles are one degree apart.
MAX_M = 180


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

    def __post_init__(self) -> None:
        n = len(self.initial_positions)
        if n < 2:
            raise ConfigurationError("a scenario needs at least two robots")
        if len(self.bases) != n:
            raise ConfigurationError("bases and initial positions must have equal length")
        if isinstance(self.m, bool) or not isinstance(self.m, int) or self.m < 1:
            raise ConfigurationError(f"m must be a positive integer, got {self.m!r}")
        if self.m > MAX_M:
            raise ConfigurationError(f"m = {self.m} exceeds the largest check set, m = {MAX_M}")
        if not 0.0 < self.gamma_bar <= math.pi:
            raise ConfigurationError("gamma_bar must lie in (0, pi]")
        if self.m <= math.pi / self.gamma_bar:
            raise ConfigurationError(
                f"m = {self.m} check angles leave gaps wider than gamma_bar; "
                f"need m > {math.pi / self.gamma_bar:.3f}"
            )
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
        # i * pi / m misses the grid angle pi/2 at i = m/2 by one ulp for some m.
        return tuple(
            AXIS_ANGLES[0] if 2 * i == self.m else i * math.pi / self.m
            for i in range(self.m + 1)
        )


@dataclass(frozen=True)
class Violation:
    """A forbidden braid pattern observed on one projection angle."""

    ids: tuple[int, ...]
    axis_angle: float
    time: float
    word: str


@dataclass(frozen=True)
class EntanglementReport:
    """Verifier verdict over every check angle."""

    ok: bool
    violations: tuple[Violation, ...]
    perturbations: tuple[tuple[float, int, int, float], ...]
    """Exact projection ties resolved by robot id, as (angle, i, j, time)."""


@dataclass(frozen=True)
class SimulationResult:
    """Minimum separation of the executed motion, and where it occurs."""

    min_distance: float
    time: float
    ids: tuple[int, int]
    horizon: float


def simulate(team: LiftedTeam) -> SimulationResult:
    """Exact minimum pairwise distance: between consecutive grid times of
    the lifted team every robot moves linearly, so each pair's closest
    approach in such a window has a closed form."""
    if len(team.ids) < 2:
        return SimulationResult(math.inf, 0.0, (0, 0), team.horizon)
    ts, xy = team.grid, team.xy
    if len(ts) == 1:
        # A stationary team has one grid time: one window of length zero.
        ts, xy = np.repeat(ts, 2), np.repeat(xy, 2, axis=1)
    a, b = np.array(list(itertools.combinations(range(len(team.ids)), 2))).T
    rel = xy[a] - xy[b]  # (pairs, times, 2)
    begin, step = rel[:, :-1], rel[:, 1:] - rel[:, :-1]
    sq = (step * step).sum(axis=2)
    s = np.clip(-(begin * step).sum(axis=2) / np.where(sq > 0.0, sq, 1.0), 0.0, 1.0)
    closest = begin + s[..., None] * step
    dist = np.hypot(closest[..., 0], closest[..., 1])
    pair, w = np.unravel_index(int(np.argmin(dist)), dist.shape)
    when = float(ts[w] + s[pair, w] * (ts[w + 1] - ts[w]))
    ids = (team.ids[a[pair]], team.ids[b[pair]])
    return SimulationResult(float(dist[pair, w]), when, ids, team.horizon)


def fold_crossings(
    events: list[CrossingEvent], table: BraidTable
) -> tuple[BraidTable, list[tuple[tuple[int, ...], float, str]]]:
    """Fold one angle's crossing events into that angle's braid table.

    A crossing of robots i and j is one letter of their pair braid and one
    of each of the n - 2 triplet braids that hold them, with the
    crossing's sign: s2 when the third robot ranks left of the pair just
    before the crossing, else s1.  Events of robots outside the table are
    ignored; a table robot missing from an event's order raises
    ``InputError``.

    Returns the new table and the first forbidden pattern of each pair,
    then of each triplet, in slot order, as (ids, time, word).  A pair's
    entry is its crossing count, so its word is the doubled crossing that
    reached +-2.  A flagged entry keeps the letter that flagged it and
    folds no later ones.
    """
    rows = _rows(table.n)
    pairs, trips = list(table.pairs), list(table.triplets)
    # keyed (2, pair slot) or (3, triplet slot), so sorted keys give the report order
    hits: dict[tuple[int, int], tuple[tuple[int, ...], float, str]] = {}
    for ev in events:
        row = rows.get((ev.i, ev.j))
        if row is None:
            continue
        _, _, po, thirds = row
        rank = {r: pos for pos, r in enumerate(ev.order_before)}
        left = ev.letter.index - 1  # where the pair's left robot stands
        s1, s2 = BraidLetter(1, ev.letter.sign), BraidLetter(2, ev.letter.sign)
        if (2, po) not in hits:
            pairs[po], ok = update_pair(pairs[po], s1)
            if not ok:
                hits[2, po] = ((ev.i, ev.j), ev.time, pair_word_text(pairs[po]))
        for t0, to in thirds:
            pos = rank.get(t0 + 1)
            if pos is None:
                raise InputError(f"table robot {t0 + 1} is missing from a crossing's order")
            if (3, to) not in hits:
                trips[to], ok = update_triplet(trips[to], s2 if pos < left else s1)
                if not ok:
                    ids = tuple(sorted((ev.i, ev.j, t0 + 1)))
                    hits[3, to] = (ids, ev.time, triplet_word_text(trips[to]))
    forbidden = [hits[key] for key in sorted(hits)]
    return BraidTable(table.n, tuple(pairs), tuple(trips)), forbidden


def verify(
    team: LiftedTeam,
    angles: tuple[float, ...],
    tables: tuple[BraidTable, ...] | None = None,
) -> tuple[EntanglementReport, tuple[BraidTable, ...]]:
    """Re-derive every pair and triplet braid from an executed, lifted team.

    Independent of the planner: crossings are extracted afresh on every
    angle in the check set and folded into one braid table per angle.
    Passing the returned tables back in on the next episode carries the
    cable state across the whole task sequence.
    Raises ``DegenerateInputError`` when some angle's simultaneous
    crossings admit no order of adjacent swaps.
    """
    n = len(team.ids)
    if team.ids != tuple(range(1, n + 1)):
        raise InputError("trajectories must cover robot ids 1..n exactly")
    if not angles:
        raise InputError("at least one check angle is required")
    if tables is None:
        tables = (BraidTable.identity(n),) * len(angles)
    if len(tables) != len(angles):
        raise InputError("one braid table per check angle is required")
    if any(table.n != n for table in tables):
        raise InputError("verifier tables must match the team size")
    if team.horizon <= 0.0:
        # Stationary team: no motion, no crossings, tables unchanged.
        return EntanglementReport(True, (), ()), tables
    violations: list[Violation] = []
    ties: list[tuple[float, int, int, float]] = []
    new_tables = []
    for angle, table in zip(angles, tables):
        tie_records: list[tuple[int, int, float]] = []
        events = extract_crossings(team, ProjectionAxis(angle), ties_out=tie_records)
        ties.extend((angle, i, j, t) for i, j, t in tie_records)
        table, forbidden = fold_crossings(events, table)
        new_tables.append(table)
        violations.extend(Violation(culprits, angle, t, word) for culprits, t, word in forbidden)
    report = EntanglementReport(not violations, tuple(violations), tuple(ties))
    return report, tuple(new_tables)


def carry_over_braids(
    executed: list[Trajectory] | tuple[Trajectory, ...],
    previous: tuple[BraidTable, BraidTable],
) -> tuple[BraidTable, BraidTable]:
    """Fold an executed episode into the planner's (table at pi/2, table at
    0) pair: ``verify`` on the grid angles.

    Raises ``EntanglementAlarm`` on the report's first violation (which a
    correctly planned and executed episode cannot produce).  Both angles
    are extracted first, so a degenerate one raises ``DegenerateInputError``
    even when the other is entangled.
    """
    report, tables = verify(build_space_time(executed), AXIS_ANGLES, previous)
    if not report.ok:
        first = report.violations[0]
        raise EntanglementAlarm(first.ids, first.axis_angle, first.time, first.word)
    return tables


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
    m: int = 2,
) -> Scenario:
    """A reproducible random scenario; bases coincide with the start poses."""
    side = (n + 2) * 1.0
    config = WorkspaceConfig(
        xmin=0.0, xmax=side, ymin=0.0, ymax=side,
        cell_size=1.0, d_safe=1.0, speed=1.0,
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
        m=m,
    )


@dataclass(frozen=True)
class SetResult:
    """Outcome of one target set (one planning episode)."""

    set_index: int
    success: bool
    # "ok", "max_expansions", "exhausted", "violation", "clearance", or
    # "degenerate" (simultaneous crossings on some check angle could not be
    # ordered into adjacent swaps, so the episode was not verified)
    reason: str
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
    final_braids: tuple[BraidTable, BraidTable]  # at pi/2 and at 0

    def as_dict(self) -> dict:
        """The fields in order, ready for ``json.dumps``.  Read shallowly:
        ``asdict`` would deep-copy the braid tables it cannot serialize."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["results"] = [asdict(r) for r in self.results]
        out["final_braids"] = to_serializable(self.final_braids)
        return out


def episode_json(path: tuple[PermutationState, ...], trajectories: list[Trajectory]) -> dict:
    """An episode's permutation path and timed trajectories as JSON values:
    the part of a per-set dump and of a plan file that describes the motion."""
    return {
        "permutation_path": [{"pi1": list(p.pi1), "pi2": list(p.pi2)} for p in path],
        "trajectories": [
            {"robot_id": t.robot_id, "waypoints": [list(w) for w in t.waypoints]}
            for t in trajectories
        ],
    }


def run_task_sequence(scenario: Scenario, *, dump_dir: str | Path | None = None) -> RunMetrics:
    """Plan, execute, and verify every target set of a scenario in order.

    Failed episodes leave the team state untouched (positions and verifier
    braids both revert), so later sets still run from a consistent state.
    Output is deterministic apart from timings.
    """
    config = scenario.config
    n = scenario.n
    # The planner carries the verifier's tables at the grid angles, so the
    # verifier folds them too where A(m) lacks them (odd m).
    angles = scenario.angles + tuple(a for a in AXIS_ANGLES if a not in scenario.angles)
    at_grid = itemgetter(*(angles.index(a) for a in AXIS_ANGLES))
    positions = scenario.initial_positions
    verifier_tables = (BraidTable.identity(n),) * len(angles)
    if dump_dir is not None:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
    results: list[SetResult] = []

    for set_index, targets in enumerate(scenario.target_sets):
        start_perms = ranks_from_positions(positions)
        target_perms = ranks_from_positions(targets)
        t0 = time.perf_counter()
        outcome = plan(start_perms, target_perms, at_grid(verifier_tables))
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
        team = build_space_time(trajectories)
        sim = simulate(team)
        try:
            report, new_tables = verify(team, angles, verifier_tables)
        except DegenerateInputError:
            # The executed braids are unknown, so nothing can be checked.
            success, reason, violations, ties, consistent = False, "degenerate", (), 0, True
        else:
            consistent = at_grid(new_tables) == outcome.final_braids
            clearance_ok = sim.min_distance >= config.d_safe - 1e-9
            success = report.ok and clearance_ok
            reason = "ok" if success else ("violation" if not report.ok else "clearance")
            violations = report.violations
            # Ties count on the check set only, not on grid angles it lacks.
            ties = sum(p[0] in scenario.angles for p in report.perturbations)

        result = SetResult(
            set_index, success, reason, plan_time, len(outcome.path) - 1,
            trace.expanded, trace.generated, trace.rejected_by_braid,
            sim.min_distance, sim.horizon, violations, ties, consistent,
        )
        results.append(result)
        if dump_dir is not None:
            episode = episode_json(outcome.path, trajectories)
            payload = {**asdict(result), "targets": targets, **episode}
            (dump_dir / f"set_{set_index:03d}.json").write_text(json.dumps(payload, indent=2))

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
        final_braids=at_grid(verifier_tables),
    )
    return metrics
