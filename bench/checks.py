"""Output checks computed by the benchmark's own code, independent of braidplan.

Every check takes plain data (tuples of ranks, waypoint lists, floats) and
returns ``None`` when the output is right or a one-line description of what
is wrong.  None of them calls into the package under test.

Conventions, as the package documents them: grid axis 1 views along the
angle pi/2 and axis 2 along 0; the projected coordinate of (x, y) on angle a
is u = -x sin a + y cos a, ranks ascend with u and ties go to the smaller
robot id.  A swap's crossing sign is +1 when the left robot passes in front:
on axis 1 depth grows with the axis-2 rank, on axis 2 it shrinks with the
axis-1 rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Point = tuple[float, float]
Ranks = tuple[int, ...]
PermPair = tuple[Ranks, Ranks]
Waypoints = tuple[tuple[float, float, float], ...]

AXIS_ANGLES = (math.pi / 2, 0.0)
POSITION_TOLERANCE = 1e-9


@dataclass
class Episode:
    """What one planned, executed and verified target set produced."""

    start: tuple[Point, ...]
    targets: tuple[Point, ...]
    path: tuple[PermPair, ...]
    trajectories: dict[int, Waypoints]
    success: bool
    verifier_ok: bool
    tables_consistent: bool


def ranks_of(positions: tuple[Point, ...] | list[Point]) -> PermPair:
    out = []
    for angle in AXIS_ANGLES:
        s, c = math.sin(angle), math.cos(angle)
        order = sorted(
            range(len(positions)),
            key=lambda r: (-positions[r][0] * s + positions[r][1] * c, r),
        )
        ranks = [0] * len(positions)
        for pos, robot0 in enumerate(order):
            ranks[robot0] = pos + 1
        out.append(tuple(ranks))
    return out[0], out[1]


def inversions(a: Ranks, b: Ranks) -> int:
    """Robot pairs whose order differs between two rank vectors."""
    n = len(a)
    return sum(
        (a[i] < a[j]) != (b[i] < b[j]) for i in range(n) for j in range(i + 1, n)
    )


def swap_of(prev: PermPair, cur: PermPair) -> tuple[int, int, int] | None:
    """(axis, left robot, right robot) when the step swaps one rank-adjacent
    pair on one axis, else None.  Robots are 1-based."""
    changed = [axis for axis in (0, 1) if prev[axis] != cur[axis]]
    if len(changed) != 1:
        return None
    axis = changed[0]
    a, b = prev[axis], cur[axis]
    moved = [r for r in range(len(a)) if a[r] != b[r]]
    if len(moved) != 2:
        return None
    left, right = sorted(moved, key=lambda r: a[r])
    if a[right] != a[left] + 1 or b[left] != a[right] or b[right] != a[left]:
        return None
    return axis + 1, left + 1, right + 1


def check_path_endpoints(ep: Episode) -> str | None:
    if not ep.path:
        return "empty plan path"
    if ep.path[0] != ranks_of(ep.start):
        return "plan path does not start at the ranks of the start positions"
    if ep.path[-1] != ranks_of(ep.targets):
        return "plan path does not end at the ranks of the targets"
    return None


def check_path_steps(ep: Episode) -> str | None:
    for k, (prev, cur) in enumerate(zip(ep.path, ep.path[1:])):
        if swap_of(prev, cur) is None:
            return f"plan step {k + 1} is not one rank-adjacent swap on one axis"
    return None


def check_path_length(ep: Episode) -> str | None:
    if not ep.path:
        return "empty plan path"
    first, last = ep.path[0], ep.path[-1]
    bound = inversions(first[0], last[0]) + inversions(first[1], last[1])
    if len(ep.path) - 1 < bound:
        return f"plan has {len(ep.path) - 1} actions, fewer than the {bound} inversions"
    return None


def check_trajectory_endpoints(ep: Episode) -> str | None:
    n = len(ep.start)
    if sorted(ep.trajectories) != list(range(1, n + 1)):
        return "trajectories do not cover robots 1..n"
    for r, waypoints in ep.trajectories.items():
        first, last = waypoints[0], waypoints[-1]
        if math.dist(first[:2], ep.start[r - 1]) > POSITION_TOLERANCE:
            return f"robot {r} does not start at its start position"
        if math.dist(last[:2], ep.targets[r - 1]) > POSITION_TOLERANCE:
            return f"robot {r} does not end at its target"
    return None


def min_separation(trajectories: dict[int, Waypoints]) -> float:
    """Smallest pairwise distance of piecewise-linear timed paths.

    Positions are taken at every waypoint time of the team (a robot that
    has arrived stays put); between two such times every pair moves
    linearly relative to each other, so its closest approach there has a
    closed form.
    """
    ids = sorted(trajectories)
    paths = [np.asarray(trajectories[r], dtype=float) for r in ids]
    grid = np.unique(np.concatenate([p[:, 2] for p in paths]))
    xy = np.stack(
        [
            np.column_stack([np.interp(grid, p[:, 2], p[:, 0]), np.interp(grid, p[:, 2], p[:, 1])])
            for p in paths
        ]
    )
    best = math.inf
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            rel = xy[a] - xy[b]
            best = min(best, float(np.min(np.hypot(rel[:, 0], rel[:, 1]))))
            r0, d = rel[:-1], rel[1:] - rel[:-1]
            dd = np.einsum("ij,ij->i", d, d)
            s = np.clip(
                -np.einsum("ij,ij->i", r0, d) / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0
            )
            closest = r0 + s[:, None] * d
            if len(closest):
                best = min(best, float(np.min(np.hypot(closest[:, 0], closest[:, 1]))))
    return best


def check_separation(ep: Episode, d_safe: float) -> str | None:
    sep = min_separation(ep.trajectories)
    if sep < d_safe - POSITION_TOLERANCE:
        return f"robots come {sep:.6g} apart, closer than d_safe {d_safe}"
    return None


def check_verdict(ep: Episode) -> str | None:
    if not ep.success:
        return "the episode reports failure"
    if not ep.verifier_ok:
        return "the verifier reports a violation"
    if not ep.tables_consistent:
        return "planner and verifier braid tables disagree"
    return None


class CrossingFold:
    """Signed crossing sum of every robot pair on each grid axis, folded
    from the permutation paths of a whole task sequence."""

    def __init__(self) -> None:
        self.sums: dict[tuple[int, int, int], int] = {}

    def fold(self, path: tuple[PermPair, ...]) -> str | None:
        for prev, cur in zip(path, path[1:]):
            step = swap_of(prev, cur)
            if step is None:
                return "plan step is not one rank-adjacent swap on one axis"
            axis, left, right = step
            if axis == 1:
                sign = 1 if prev[1][left - 1] > prev[1][right - 1] else -1
            else:
                sign = 1 if prev[0][left - 1] < prev[0][right - 1] else -1
            key = (axis, min(left, right), max(left, right))
            total = self.sums.get(key, 0) + sign
            self.sums[key] = total
            if abs(total) > 1:
                return f"robots {key[1]} and {key[2]} cross {total:+d} times on axis {axis}"
        return None


def check_episode(ep: Episode, d_safe: float, fold: CrossingFold) -> list[str]:
    """Every check of one episode; ``fold`` carries the sequence's crossing sums."""
    verdict = check_verdict(ep)
    errors = [verdict]
    if ep.path:
        errors += [check_path_endpoints(ep), check_path_steps(ep), check_path_length(ep)]
        if verdict is None:
            # A failed episode leaves the team where it was, so only the
            # paths the team executed enter the running sums.
            errors.append(fold.fold(ep.path))
    else:
        errors.append("empty plan path")
    if ep.trajectories:
        errors += [check_trajectory_endpoints(ep), check_separation(ep, d_safe)]
    else:
        errors.append("no trajectories")
    return [e for e in errors if e is not None]
