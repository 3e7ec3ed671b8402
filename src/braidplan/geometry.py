"""Space-time lifting of timed paths and braid extraction by projection.

A team's timed planar paths are lifted into space-time: each robot's
cable is its path with time as the third, ascending coordinate.  The lift
is only ever read in time order, so it needs no height: ``build_space_time``
samples the whole team on one shared time grid, copying the positions of
a path whose times are the whole grid and interpolating the others.
Projecting the lifted strands onto a vertical plane and recording every
order swap, in time order, yields a braid word per plane; the pair and
triplet sub-words of that braid are what the planner and the verifier
test for entangling patterns.  ``extract_crossings`` finds every pair's
swaps in one array step per plane.

Projection convention, fixed package-wide: a plane is a plain angle
``alpha`` in radians.  ``project`` maps a point (x, y) to its horizontal
coordinate on the plane, u = -x sin(alpha) + y cos(alpha), and ``depth``
to its signed distance along the plane normal, larger nearer the viewer:
d = x cos(alpha) + y sin(alpha).  The view from ``alpha + pi`` negates
both u and d and therefore produces the mirror braid: generator k
becomes n - k with the same sign.  The forbidden pair and triplet
patterns are closed under that map, which is why the verifier's check
set stops short of pi.

``projected_order`` is the one left-to-right order of a team on a plane,
for the planner's ranks and the verifier's sweep alike.  Its tie rule:
an exact tie in u puts the smaller robot id first, as if that robot
stood infinitesimally to the left, so every order is deterministic and
no stored data is ever perturbed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .braid import BraidLetter
from .errors import DegenerateInputError, InputError

__all__ = [
    "Trajectory",
    "LiftedTeam",
    "CrossingEvent",
    "project",
    "depth",
    "projected_order",
    "build_space_time",
    "extract_crossings",
    "sub_events",
]

# Two events closer than this fraction of the horizon count as simultaneous.
TIME_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """A robot's timed planar path: waypoints (x, y, t), piecewise linear.

    Times must be strictly increasing and start at 0.  The robot is frozen
    at its last waypoint for any later time.
    """

    robot_id: int
    waypoints: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise InputError(f"robot {self.robot_id}: trajectory has no waypoints")
        times = [w[2] for w in self.waypoints]
        if times[0] != 0.0:
            raise InputError(f"robot {self.robot_id}: first waypoint time must be 0")
        if not all(map(operator.lt, times, times[1:])):
            raise InputError(f"robot {self.robot_id}: waypoint times must strictly increase")
        if not all(map(math.isfinite, chain.from_iterable(self.waypoints))):
            raise InputError(f"robot {self.robot_id}: non-finite waypoint")

    @property
    def arrival_time(self) -> float:
        return self.waypoints[-1][2]

    def times(self) -> np.ndarray:
        return np.array([w[2] for w in self.waypoints])

    def positions(self) -> np.ndarray:
        return np.array([(w[0], w[1]) for w in self.waypoints])


@dataclass(frozen=True, eq=False)
class LiftedTeam:
    """A team's paths sampled on one shared event-time grid.

    Row k of ``xy`` is robot ``ids[k]``; ids ascend.
    """

    ids: tuple[int, ...]
    grid: np.ndarray   # (G,) the union of all waypoint times
    xy: np.ndarray     # (n, G, 2) positions at grid times
    horizon: float     # slowest arrival time across the team

    def __post_init__(self) -> None:
        self.grid.setflags(write=False)
        self.xy.setflags(write=False)


def build_space_time(paths: Sequence[Trajectory]) -> LiftedTeam:
    """Sample every path on the union of all waypoint times.

    A path with as many waypoints as the grid has times has the whole grid
    as its times, so its positions are copied: at a knot ``np.interp``
    returns the knot's value, so the copy is the interpolation.  That is
    every path of a ``map_path`` episode, whose robots share one clock.
    Other paths are interpolated; robots that arrive early are frozen at
    their final position.  A stationary team lifts to one grid time and
    horizon 0.
    """
    if not paths:
        raise InputError("no trajectories to lift")
    paths = sorted(paths, key=lambda p: p.robot_id)
    ids = tuple(p.robot_id for p in paths)
    if len(set(ids)) != len(ids):
        raise InputError("duplicate robot ids in trajectory list")
    horizon = max(p.arrival_time for p in paths)
    arrays = [np.array(p.waypoints) for p in paths]   # (waypoints, 3) each
    grid = np.unique(np.concatenate([a[:, 2] for a in arrays]))
    xy = np.empty((len(paths), len(grid), 2))
    for row, a in enumerate(arrays):
        if len(a) == len(grid):
            xy[row] = a[:, :2]
        else:
            xy[row, :, 0] = np.interp(grid, a[:, 2], a[:, 0])
            xy[row, :, 1] = np.interp(grid, a[:, 2], a[:, 1])
    return LiftedTeam(ids, grid, xy, float(horizon))


def _check_angle(angle: float) -> None:
    if not math.isfinite(angle):
        raise InputError(f"projection angle must be finite, got {angle!r}")


def project(xy: np.ndarray, angle: float) -> np.ndarray:
    """Projected horizontal coordinate(s) u of points shaped (..., 2)."""
    _check_angle(angle)
    return -xy[..., 0] * math.sin(angle) + xy[..., 1] * math.cos(angle)


def depth(xy: np.ndarray, angle: float) -> np.ndarray:
    """Signed distance(s) along the plane normal; larger is nearer the viewer."""
    _check_angle(angle)
    return xy[..., 0] * math.cos(angle) + xy[..., 1] * math.sin(angle)


def projected_order(u: np.ndarray) -> list[int]:
    """Rows of ``u`` (one value per robot, ids ascending) from left to
    right; an exact tie keeps the lower row first (module docstring)."""
    return sorted(range(len(u)), key=u.tolist().__getitem__)


@dataclass(frozen=True)
class CrossingEvent:
    """One rank swap of two projected strands.

    ``letter.index`` is the rank (1-based, among the whole team) of the
    left strand just before the swap; ``letter.sign`` is +1 when that left
    strand has strictly larger depth, i.e. passes in front.  ``order_before``
    is the full left-to-right robot order immediately before the swap.
    """

    time: float
    i: int
    j: int
    letter: BraidLetter
    order_before: tuple[int, ...] = field(repr=False)


def _right_of(diff: np.ndarray) -> np.ndarray:
    """Where u[a] - u[b] = ``diff``, for rows a < b: whether row a stands
    right of row b.  ``projected_order``'s tie rule pair by pair: a tied u
    counts row a as left."""
    return diff > 0.0


@lru_cache(maxsize=None)
def _letters(n: int) -> tuple[tuple[BraidLetter, BraidLetter], ...]:
    """Entry k - 1 is (S_k, s_k): generator k's letters, indexed by whether
    the left strand passes in front.  Letters are frozen, so events share
    them."""
    return tuple((BraidLetter(k, -1), BraidLetter(k, 1)) for k in range(1, n))


@lru_cache(maxsize=None)
def _pair_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, read-only: the rows of each pair, in pair
    order, for crossing extraction and ``harness.simulate`` alike."""
    rows = np.triu_indices(n, 1)
    for r in rows:
        r.flags.writeable = False
    return rows


def extract_crossings(
    team: LiftedTeam,
    angle: float,
    ties_out: list[tuple[int, int, float]] | None = None,
) -> list[CrossingEvent]:
    """All rank swaps of the projected strands, ordered by time.

    Every pair's side changes between grid times are found in one array
    step; a crossing at fraction f of grid interval k reads each strand's
    depth d off a list as d[k] + (d[k + 1] - d[k]) * f.  Simultaneous
    events (within ``TIME_TOLERANCE`` of the horizon) are resolved
    pair-lexicographically, always as adjacent-rank swaps.  If ``ties_out``
    is given, exact coordinate ties that required the symbolic perturbation
    are appended to it as (i, j, time), pair by pair.
    """
    ids, grid = team.ids, team.grid
    U = project(team.xy, angle)   # (n, G)
    tol = TIME_TOLERANCE * team.horizon

    rows_a, rows_b = _pair_rows(len(ids))
    diff = U[rows_a] - U[rows_b]   # (pairs, G)
    if ties_out is not None and not diff.all():
        for p, k in zip(*np.nonzero(diff == 0.0)):
            ties_out.append((ids[rows_a[p]], ids[rows_b[p]], float(grid[k])))
    a_right = _right_of(diff)
    p, k = np.nonzero(a_right[:, :-1] != a_right[:, 1:])
    candidates: list[tuple[float, int, int, int, float]] = []
    if p.size:
        f0, f1 = diff[p, k], diff[p, k + 1]
        fracs = f0 / (f0 - f1)
        times = grid[k] + (grid[k + 1] - grid[k]) * fracs
        # (time, a, b, interval, fraction) with a < b: ids ascend with rows.
        candidates = sorted(zip(
            times.tolist(),
            [ids[r] for r in rows_a[p].tolist()],
            [ids[r] for r in rows_b[p].tolist()],
            k.tolist(),
            fracs.tolist(),
        ))
        # Each crossing reads its two strands' depths off these lists.
        depths = dict(zip(ids, depth(team.xy, angle).tolist()))
        letters = _letters(len(ids))

    # Running left-to-right order, seeded from the start order.
    order = [ids[row] for row in projected_order(U[:, 0])]
    rank = {r: at for at, r in enumerate(order)}
    events: list[CrossingEvent] = []
    pos = 0
    while pos < len(candidates):
        # Group events that are simultaneous within tolerance.
        end = pos + 1
        while end < len(candidates) and candidates[end][0] - candidates[pos][0] <= tol:
            end += 1
        group = list(candidates[pos:end])
        while group:
            pick = None
            for idx, (t, a, b, _, _) in enumerate(group):
                if abs(rank[a] - rank[b]) == 1:
                    pick = idx
                    break
            if pick is None:
                raise DegenerateInputError(
                    "simultaneous crossings cannot be ordered into adjacent swaps"
                )
            t, a, b, at, frac = group.pop(pick)
            left, right = (a, b) if rank[a] < rank[b] else (b, a)
            dl, dr = depths[left], depths[right]
            d_left = dl[at] + (dl[at + 1] - dl[at]) * frac
            d_right = dr[at] + (dr[at + 1] - dr[at]) * frac
            front = (d_left, -left) > (d_right, -right)
            events.append(
                CrossingEvent(
                    time=t,
                    i=a,
                    j=b,
                    letter=letters[rank[left]][front],
                    order_before=tuple(order),
                )
            )
            order[rank[left]], order[rank[right]] = right, left
            rank[left], rank[right] = rank[right], rank[left]
        pos = end

    if [ids[row] for row in projected_order(U[:, -1])] != order:
        raise DegenerateInputError("crossing sequence does not reproduce the final ordering")
    return events


def sub_events(
    events: Sequence[CrossingEvent], subset: Sequence[int]
) -> list[tuple[float, BraidLetter]]:
    """Timestamps and re-indexed letters of the events internal to ``subset``."""
    subset = tuple(subset)
    if len(subset) not in (2, 3):
        raise InputError(f"subset must have 2 or 3 robots, got {len(subset)}")
    if len(set(subset)) != len(subset) or list(subset) != sorted(subset):
        raise InputError("subset ids must be distinct and sorted ascending")
    members = set(subset)
    out: list[tuple[float, BraidLetter]] = []
    for ev in events:
        if ev.i not in members or ev.j not in members:
            continue
        if not members <= set(ev.order_before):
            raise InputError(f"subset {subset} not contained in the team of the events")
        left = ev.order_before[ev.letter.index - 1]
        sub_order = [r for r in ev.order_before if r in members]
        out.append((ev.time, BraidLetter(sub_order.index(left) + 1, ev.letter.sign)))
    return out

