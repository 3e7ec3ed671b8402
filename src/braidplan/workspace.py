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

``map_path`` works on whole arrays: one (states, 2, n) rank array of the
path, on which every step is checked at once to be one swap of adjacent
ranks, every state's cell centres in one expression shared with
``grid_cells``, and one window clock for the whole team, so every robot
has the same waypoint times and ``geometry.build_space_time`` copies,
rather than interpolates, its positions.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .geometry import Trajectory, project, projected_order
from .planner import AXIS_ANGLES, PermutationState, SwapAction

# Not called here; the benchmark's tracer (bench/tracing.py) wraps these names
# in this module, so they stay importable from it.
from .braid import update_pair, update_triplet  # noqa: F401
from .geometry import build_space_time, extract_crossings, sub_events  # noqa: F401

__all__ = [
    "WorkspaceConfig",
    "ranks_from_positions",
    "grid_cells",
    "map_path",
]

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


def _points(positions: tuple[Point, ...] | list[Point]) -> np.ndarray:
    """``positions`` as an (n, 2) float array.  Points that are not pairs of
    finite real numbers are an ``InputError``: NaN would rank first on every
    axis, and numpy would read text and bytes as numbers and bools as 0 and
    1."""
    try:
        pts = np.asarray(positions, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"positions must be numeric (x, y) points, got {positions!r}") from None
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise InputError("positions must be a non-empty list of (x, y) points")
    # One check per coordinate type, not per coordinate: bool is an int
    # subclass, but True is no coordinate.
    for kind in set(map(type, itertools.chain.from_iterable(positions))):
        if kind is not float and (kind is bool or not issubclass(kind, numbers.Real)):
            raise InputError(f"positions must be numeric (x, y) points, got {positions!r}")
    if not np.isfinite(pts).all():
        raise InputError(f"positions must be finite, got {positions!r}")
    return pts


def _ranks(pts: np.ndarray) -> PermutationState:
    """The ranks of validated (n, 2) points at each grid angle."""
    vectors = []
    for angle in AXIS_ANGLES:
        ranks = [0] * len(pts)
        for rank, row in enumerate(projected_order(project(pts, angle)), 1):
            ranks[row] = rank
        vectors.append(tuple(ranks))
    return PermutationState(*vectors)


def ranks_from_positions(positions: tuple[Point, ...] | list[Point]) -> PermutationState:
    """Rank the team on the plane at each grid angle: the inverse of
    ``projected_order``, so ranks follow the verifier's order, ties included.
    Points that are not pairs of finite numbers are an ``InputError``."""
    return _ranks(_points(positions))


def _cell_centres(
    pi1: tuple[int, ...] | np.ndarray, pi2: tuple[int, ...] | np.ndarray, config: WorkspaceConfig
) -> np.ndarray:
    """Theta on rank arrays of any shape (..., n): the (..., n, 2) cell centres."""
    mid = (np.shape(pi1)[-1] + 1) / 2.0
    cx, cy = config.center
    x = cx + (mid - np.asarray(pi1)) * config.cell_size
    y = cy + (np.asarray(pi2) - mid) * config.cell_size
    return np.stack((x, y), axis=-1)


def grid_cells(perms: PermutationState, config: WorkspaceConfig) -> np.ndarray:
    """Cell-center positions, theta: rank (a, b) -> the (a, b) grid cell.

    Axis-1 rank sets x (descending so the projected coordinate u = -x
    ascends with rank); axis-2 rank sets y (ascending).
    """
    config.validate_grid(perms.n)
    return _cell_centres(perms.pi1, perms.pi2, config)


def _step_action(prev: PermutationState, cur: PermutationState) -> SwapAction:
    """The swap one path step makes, or ``InputError`` naming what is wrong
    with it: the per-step oracle of ``map_path``'s array check."""
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
    """Realize a permutation path as synchronized timed trajectories.

    Raises ``InputError`` when a start or target point is not a pair of
    finite numbers, when the endpoints do not match the positions' ranks,
    or when a step is not one swap of adjacent ranks on one axis; the
    message is the first bad step's, from ``_step_action``.
    """
    if not perm_path:
        raise InputError("empty permutation path")
    starts, targets = _points(start_positions), _points(target_positions)
    n = perm_path[0].n
    if len(starts) != n or len(targets) != n:
        raise InputError("positions do not match the path's team size")
    config.validate_grid(n)
    for label, pts in (("start", starts), ("target", targets)):
        for idx, p in enumerate(pts.tolist()):
            if not config.contains(p):
                raise InputError(f"{label} position of robot {idx + 1} lies outside the workspace")
    if _ranks(starts) != perm_path[0]:
        raise InputError("first permutation does not match the start positions")
    if _ranks(targets) != perm_path[-1]:
        raise InputError("last permutation does not match the target positions")

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

    try:
        ranks = np.array([(perms.pi1, perms.pi2) for perms in perm_path])  # (states, 2, n)
    except ValueError:  # ragged: some state has another team size
        raise InputError("every permutation of the path must have the team's size") from None
    # Every state is a permutation, so a step changes no rank of an axis or at
    # least two: |changes| summing to 2 are two robots trading adjacent ranks
    # on one axis.
    bad = np.flatnonzero(np.abs(np.diff(ranks, axis=0)).sum(axis=(1, 2)) != 2)
    if bad.size:
        k = int(bad[0])
        _step_action(perm_path[k], perm_path[k + 1])  # raises the step's own message
    cells = _cell_centres(ranks[:, 0], ranks[:, 1], config)  # (states, n, 2)

    # Window ends, each (windows, n, 2), and durations: entry, one per swap, exit.
    ends = [starts[None]]
    durations = []
    dist = float(np.max(np.hypot(*(cells[0] - starts).T)))
    if dist > 0.0:
        ends.append(cells[:1])
        durations.append(dist / config.speed)
    ends.append(cells[1:])
    durations += [config.cell_size / config.speed] * (len(perm_path) - 1)
    dist = float(np.max(np.hypot(*(targets - cells[-1]).T)))
    if dist > 0.0:
        ends.append(targets[None])
        durations.append(dist / config.speed)

    # One clock for the whole team.
    t = 0.0
    times = [t]
    for dur in durations:
        # A move too short for the float clock still takes one tick.
        t = max(t + dur, math.nextafter(t, math.inf))
        times.append(t)
    xy = np.concatenate(ends).transpose(1, 0, 2)  # (n, windows + 1, 2)
    xs, ys = xy[..., 0].tolist(), xy[..., 1].tolist()
    return [
        Trajectory(robot_id=r0 + 1, waypoints=tuple(zip(xs[r0], ys[r0], times)))
        for r0 in range(n)
    ]
