"""Bridge between the continuous workspace and the permutation grid.

The planner reasons purely about rank permutations; this module grounds
them.  ``ranks_from_positions`` reads a team's grid coordinates off its
physical positions, ``grid_cells`` is the inverse map theta placing rank
pair (a, b) at the center of cell (a, b) of an n-by-n grid centered in
the workspace, and ``map_path`` turns a permutation path into executable
timed trajectories in three phases:

* A: all robots move straight to their start cells, synchronized;
* B: one adjacent-cell swap per planner action, each in its own exclusive
  time window, so only two robots ever move at once;
* C: all robots move straight from their final cells to the targets.

Phases A and C cannot create crossings on the grid axes because each
pair's projected order is the same at both window ends and interpolation
is linear.  Phase B swaps keep at least one full cell of separation on
the perpendicular axis.  The braids an executed episode weaves are folded
by ``harness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .geometry import ProjectionAxis, Trajectory
from .planner import AXIS_ANGLES, PermutationState, SwapAction

# Not called here; the benchmark's tracer (bench/tracing.py) wraps these names
# in this module, so they stay importable from it.
from .braid import update_pair, update_triplet  # noqa: F401
from .geometry import build_space_time, extract_crossings, sub_events  # noqa: F401

__all__ = [
    "GRID_AXES",
    "WorkspaceConfig",
    "ranks_from_positions",
    "grid_cells",
    "map_path",
]

GRID_AXES: tuple[ProjectionAxis, ProjectionAxis] = (
    ProjectionAxis(AXIS_ANGLES[0]),
    ProjectionAxis(AXIS_ANGLES[1]),
)

Point = tuple[float, float]


@dataclass(frozen=True)
class WorkspaceConfig:
    """Workspace geometry and kinematic limits shared by a whole run."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    cell_size: float
    d_safe: float
    speed: float

    def __post_init__(self) -> None:
        for name in ("xmin", "xmax", "ymin", "ymax", "cell_size", "d_safe", "speed"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise ConfigurationError("workspace rectangle is empty")
        if self.speed <= 0:
            raise ConfigurationError("speed must be positive")
        if self.d_safe <= 0:
            raise ConfigurationError("d_safe must be positive")
        if self.cell_size < self.d_safe:
            raise ConfigurationError(
                f"cell_size {self.cell_size} must be at least d_safe {self.d_safe}"
            )

    @property
    def center(self) -> Point:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def contains(self, point: Point) -> bool:
        x, y = point
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def validate_grid(self, n: int) -> None:
        """The n-by-n cell grid must fit inside the workspace."""
        footprint = n * self.cell_size
        if footprint > self.xmax - self.xmin or footprint > self.ymax - self.ymin:
            raise ConfigurationError(
                f"a {n}x{n} grid of {self.cell_size} m cells does not fit the workspace"
            )


def ranks_from_positions(positions: tuple[Point, ...] | list[Point]) -> PermutationState:
    """Rank the team along both grid axes; ties go to the smaller robot id."""
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise InputError("positions must be a non-empty list of (x, y) points")
    n = pts.shape[0]
    vectors = []
    for axis in GRID_AXES:
        u = axis.u(pts)
        order = sorted(range(n), key=lambda r: (u[r], r))
        ranks = [0] * n
        for pos, robot0 in enumerate(order):
            ranks[robot0] = pos + 1
        vectors.append(tuple(ranks))
    return PermutationState(vectors[0], vectors[1])


def grid_cells(perms: PermutationState, config: WorkspaceConfig) -> np.ndarray:
    """Cell-center positions, theta: rank (a, b) -> the (a, b) grid cell.

    Axis-1 rank sets x (descending so the projected coordinate u = -x
    ascends with rank); axis-2 rank sets y (ascending).
    """
    n = perms.n
    config.validate_grid(n)
    cx, cy = config.center
    mid = (n + 1) / 2.0
    out = np.empty((n, 2))
    for r0 in range(n):
        out[r0, 0] = cx + (mid - perms.pi1[r0]) * config.cell_size
        out[r0, 1] = cy + (perms.pi2[r0] - mid) * config.cell_size
    return out


def _step_action(prev: PermutationState, cur: PermutationState) -> SwapAction:
    d1 = [r for r in range(1, prev.n + 1) if prev.pi1[r - 1] != cur.pi1[r - 1]]
    d2 = [r for r in range(1, prev.n + 1) if prev.pi2[r - 1] != cur.pi2[r - 1]]
    if d1 and d2:
        raise InputError("a path step may only change ranks on one axis")
    axis, diff = (1, d1) if d1 else (2, d2)
    if len(diff) != 2:
        raise InputError("a path step must swap exactly two robots")
    a, b = diff
    ranks = prev.ranks(axis)
    i, j = (a, b) if ranks[a - 1] < ranks[b - 1] else (b, a)
    if ranks[j - 1] != ranks[i - 1] + 1 or cur.ranks(axis)[i - 1] != ranks[j - 1]:
        raise InputError("a path step must swap adjacent ranks")
    return SwapAction(axis, i, j)


def map_path(
    perm_path: list[PermutationState] | tuple[PermutationState, ...],
    config: WorkspaceConfig,
    start_positions: tuple[Point, ...] | list[Point],
    target_positions: tuple[Point, ...] | list[Point],
) -> list[Trajectory]:
    """Realize a permutation path as synchronized timed trajectories."""
    if not perm_path:
        raise InputError("empty permutation path")
    n = perm_path[0].n
    if len(start_positions) != n or len(target_positions) != n:
        raise InputError("positions do not match the path's team size")
    config.validate_grid(n)
    for label, positions in (("start", start_positions), ("target", target_positions)):
        for idx, p in enumerate(positions):
            if not config.contains(tuple(p)):
                raise InputError(f"{label} position of robot {idx + 1} lies outside the workspace")
    if ranks_from_positions(start_positions) != perm_path[0]:
        raise InputError("first permutation does not match the start positions")
    if ranks_from_positions(target_positions) != perm_path[-1]:
        raise InputError("last permutation does not match the target positions")

    starts = np.asarray(start_positions, dtype=float)
    targets = np.asarray(target_positions, dtype=float)
    windows: list[tuple[float, np.ndarray]] = []

    if len(perm_path) == 1 and np.array_equal(starts, targets):
        # Nothing to do: hold in place instead of detouring through the grid.
        hold = config.cell_size / config.speed
        return [
            Trajectory(
                robot_id=r0 + 1,
                waypoints=(
                    (float(starts[r0, 0]), float(starts[r0, 1]), 0.0),
                    (float(starts[r0, 0]), float(starts[r0, 1]), hold),
                ),
            )
            for r0 in range(n)
        ]

    entry_cells = grid_cells(perm_path[0], config)
    dist = float(np.max(np.hypot(*(entry_cells - starts).T)))
    if dist > 0.0:
        windows.append((dist / config.speed, entry_cells))

    swap_duration = config.cell_size / config.speed
    for prev, cur in zip(perm_path, perm_path[1:]):
        _step_action(prev, cur)  # validates the step shape
        windows.append((swap_duration, grid_cells(cur, config)))

    exit_cells = grid_cells(perm_path[-1], config)
    dist = float(np.max(np.hypot(*(targets - exit_cells).T)))
    if dist > 0.0:
        windows.append((dist / config.speed, targets))

    trajectories = []
    for r0 in range(n):
        t = 0.0
        waypoints = [(float(starts[r0, 0]), float(starts[r0, 1]), 0.0)]
        for dur, ends in windows:
            # A move too short for the float clock still takes one tick.
            t = max(t + dur, math.nextafter(t, math.inf))
            waypoints.append((float(ends[r0, 0]), float(ends[r0, 1]), t))
        trajectories.append(Trajectory(robot_id=r0 + 1, waypoints=tuple(waypoints)))
    return trajectories

