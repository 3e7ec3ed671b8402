"""Workspace mapping tests.

Rank reading is checked against a plain argsort oracle, the theta mapping
by round trip, mapped paths by sampling clearances densely, and the braid
carryover by comparing folded tables with the planner's prediction.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidplan.errors import ConfigurationError, EntanglementAlarm, InputError
from braidplan.geometry import Trajectory
from braidplan.harness import carry_over_braids
from braidplan.planner import AXIS_ANGLES, BraidTable, PermutationState, plan
from braidplan.workspace import (
    WorkspaceConfig,
    _step_action,
    grid_cells,
    map_path,
    ranks_from_positions,
)
from grid import random_perms, workspace_config
from sampling import position_at


# ---------------------------------------------------------------------------
# Rank reading and the theta mapping.
# ---------------------------------------------------------------------------


def test_ranks_from_positions_matches_argsort_oracle():
    rng = random.Random(20)
    for _ in range(50):
        n = rng.randrange(2, 9)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        perms = ranks_from_positions(pts)
        # axis 1 ranks ascend with u = -x, axis 2 ranks ascend with u = y
        by_x = sorted(range(n), key=lambda r: (-pts[r][0], r))
        by_y = sorted(range(n), key=lambda r: (pts[r][1], r))
        for pos, r0 in enumerate(by_x):
            assert perms.pi1[r0] == pos + 1
        for pos, r0 in enumerate(by_y):
            assert perms.pi2[r0] == pos + 1


def test_ranks_tie_goes_to_smaller_id():
    # axis 2 projects u = y exactly, so equal y is a genuine u tie
    pts = [(3.0, 5.0), (2.0, 5.0), (1.0, 1.0)]
    perms = ranks_from_positions(pts)
    assert perms.pi1 == (1, 2, 3)
    assert perms.pi2 == (2, 3, 1)


def test_ranks_validation():
    with pytest.raises(InputError):
        ranks_from_positions([])
    with pytest.raises(InputError):
        ranks_from_positions([(1.0, 2.0, 3.0)])


@pytest.mark.parametrize(
    "points",
    [
        [(math.nan, 0.0), (1.0, 2.0), (3.0, 1.0)],
        [(1.0, 2.0), (3.0, math.nan)],
        [(math.inf, 0.0), (1.0, 2.0)],
        [(1.0, 2.0), (3.0, -math.inf)],
        [("a", 1.0)],
        [(None, 1.0), (1.0, 2.0)],
        [(1.0, 2.0), (3.0,)],
        [("1.5", "2"), (b"3", True)],
        [("1.5", 2.0), (3.0, 1.0)],
        [(1.0, 2.0), (b"3", 1.0)],
        [(1.0, True), (3.0, 1.0)],
        [(np.bool_(True), 2.0), (3.0, 1.0)],
    ],
    ids=["nan-x", "nan-y", "inf", "minus-inf", "text", "none", "ragged", "numeric-text-bytes-bool",
         "numeric-text", "bytes", "bool", "numpy-bool"],
)
def test_ranks_refuse_points_that_are_not_finite_numbers(points):
    """A NaN coordinate once ranked its robot first on both axes, text
    raised a bare ``ValueError``, and numeric text, bytes and bools were
    read as numbers; every such point is an ``InputError``."""
    with pytest.raises(InputError):
        ranks_from_positions(points)


def test_ranks_accept_ints_and_numpy_numbers():
    """Any real coordinate ranks as its float does: ints, numpy floats and
    numpy ints, in lists, tuples or an array."""
    expected = ranks_from_positions([(1.0, 2.0), (3.0, 1.0)])
    for points in (
        [(1, 2), (3, 1)],
        ((np.float32(1.0), np.int64(2)), (np.float64(3.0), 1)),
        np.array([[1.0, 2.0], [3.0, 1.0]]),
    ):
        assert ranks_from_positions(points) == expected


def test_grid_cells_round_trip_and_spacing():
    rng = random.Random(21)
    config = workspace_config()
    for _ in range(20):
        n = rng.randrange(2, 9)
        perms = random_perms(rng, n)
        cells = grid_cells(perms, config)
        assert ranks_from_positions([tuple(c) for c in cells]) == perms
        for a in range(n):
            for b in range(a + 1, n):
                gap = float(np.hypot(*(cells[a] - cells[b])))
                assert gap >= config.cell_size - 1e-12


def test_grid_cells_pinned():
    config = workspace_config(4.0)
    cells = grid_cells(PermutationState.identity(3), config)
    # center (2, 2); rank 1 on axis 1 is the largest x
    assert np.allclose(cells, [(3.0, 1.0), (2.0, 2.0), (1.0, 3.0)])


def test_grid_must_fit_workspace():
    config = workspace_config(4.0)
    with pytest.raises(ConfigurationError):
        grid_cells(PermutationState.identity(5), config)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        workspace_config(-1.0)
    with pytest.raises(ConfigurationError):
        WorkspaceConfig(0, 10, 0, 10, cell_size=0.5, d_safe=1.0, speed=1)
    with pytest.raises(ConfigurationError):
        WorkspaceConfig(0, 10, 0, 10, cell_size=1, d_safe=1, speed=0)
    with pytest.raises(ConfigurationError):
        WorkspaceConfig(0, 10, 0, 10, cell_size=math.inf, d_safe=1, speed=1)


# ---------------------------------------------------------------------------
# Path mapping.
# ---------------------------------------------------------------------------


def _planned_episode(rng: random.Random, n: int, config: WorkspaceConfig):
    start = random_perms(rng, n)
    target = random_perms(rng, n)
    result = plan(start, target)
    assert result.trace.reason == "goal"
    start_positions = [tuple(c) for c in grid_cells(start, config)]
    target_positions = [tuple(c) for c in grid_cells(target, config)]
    trajectories = map_path(result.path, config, start_positions, target_positions)
    return result, trajectories, start_positions, target_positions


def test_map_path_endpoints_and_sync():
    rng = random.Random(22)
    config = workspace_config()
    result, trajectories, starts, targets = _planned_episode(rng, 5, config)
    horizon = max(t.arrival_time for t in trajectories)
    for traj, s, g in zip(trajectories, starts, targets):
        assert traj.waypoints[0][:2] == s
        assert traj.waypoints[-1][:2] == g
        # every robot shares the full window grid
        assert traj.arrival_time == horizon


def test_map_path_swap_windows_move_two_robots():
    rng = random.Random(23)
    config = workspace_config()
    result, trajectories, starts, targets = _planned_episode(rng, 4, config)
    n_actions = len(result.path) - 1
    times = [w[2] for w in trajectories[0].waypoints]
    # windows: start, [entry], swaps, [exit]; entry and exit exist for cell
    # starts only when displacement is nonzero, here starts sit on cells
    assert len(times) - 1 == n_actions
    for w in range(1, len(times)):
        movers = []
        for traj in trajectories:
            p0 = np.array(traj.waypoints[w - 1][:2])
            p1 = np.array(traj.waypoints[w][:2])
            if not np.allclose(p0, p1):
                movers.append(traj.robot_id)
        assert len(movers) == 2


def test_map_path_clearance_sampled():
    rng = random.Random(24)
    config = workspace_config()
    for n in (3, 5):
        _, trajectories, _, _ = _planned_episode(rng, n, config)
        horizon = max(t.arrival_time for t in trajectories)
        for t in np.linspace(0.0, horizon, 400):
            pts = np.array([position_at(traj, float(t)) for traj in trajectories])
            for a in range(n):
                for b in range(a + 1, n):
                    assert float(np.hypot(*(pts[a] - pts[b]))) >= config.d_safe - 1e-9


def test_map_path_offgrid_endpoints():
    # start and target positions off the cell centers exercise phases A and C
    config = workspace_config()
    start_positions = [(9.5, 2.2), (5.0, 5.1), (1.5, 8.0)]
    target_positions = [(8.0, 1.0), (6.0, 6.0), (2.5, 9.5)]
    start = ranks_from_positions(start_positions)
    target = ranks_from_positions(target_positions)
    result = plan(start, target)
    trajectories = map_path(result.path, config, start_positions, target_positions)
    for traj, s, g in zip(trajectories, start_positions, target_positions):
        assert traj.waypoints[0][:2] == s
        assert traj.waypoints[-1][:2] == g
    # entry and exit windows on top of the swap windows
    assert len(trajectories[0].waypoints) - 1 == (len(result.path) - 1) + 2


def test_map_path_stationary_holds_in_place():
    config = workspace_config()
    positions = [(2.0, 2.0), (6.0, 6.0)]
    perms = ranks_from_positions(positions)
    trajectories = map_path([perms], config, positions, positions)
    assert len(trajectories) == 2
    for traj, p in zip(trajectories, positions):
        assert all(w[:2] == p for w in traj.waypoints)
        assert traj.arrival_time > 0.0


def test_map_path_sub_tick_moves_take_one_tick():
    # Moves shorter than the float clock can resolve: a start 5e-324 m off
    # its cell at 2 m/s (the time underflows to 0), and a target one ulp off
    # its cell after a swap ending at t = 1 (1 + 1e-16 rounds back to 1).
    config = WorkspaceConfig(-5.0, 5.0, -5.0, 5.0, 1.0, 0.5, 2.0)
    perms = PermutationState((1, 2, 3), (1, 2, 3))
    cells = [tuple(c) for c in grid_cells(perms, config)]
    starts = [(5e-324, y) if x == 0.0 else (x, y) for x, y in cells]
    swapped = PermutationState((2, 1), (1, 2))
    config2 = WorkspaceConfig(-5.0, 5.0, -5.0, 5.0, 1.0, 0.5, 1.0)
    targets = [tuple(c) for c in grid_cells(swapped, config2)]
    targets[0] = (math.nextafter(targets[0][0], math.inf), targets[0][1])
    cases = (
        ([perms], config, starts, cells),
        ([PermutationState.identity(2), swapped], config2,
         [tuple(c) for c in grid_cells(PermutationState.identity(2), config2)], targets),
    )
    for path, cfg, begin, end in cases:
        for traj, a, b in zip(map_path(path, cfg, begin, end), begin, end):
            assert traj.waypoints[0][:2] == a and traj.waypoints[-1][:2] == b
            times = [w[2] for w in traj.waypoints]
            assert all(t0 < t1 for t0, t1 in zip(times, times[1:]))


def _window_oracle(path, config, starts, targets):
    """Waypoints of ``map_path`` robot by robot: ``grid_cells`` of each
    state and one clock tick per window (entry, swaps, exit)."""
    starts, targets = np.asarray(starts), np.asarray(targets)
    cells = [grid_cells(perms, config) for perms in path]
    windows = [(config.cell_size / config.speed, ends) for ends in cells[1:]]
    entry = float(np.max(np.hypot(*(cells[0] - starts).T)))
    if entry > 0.0:
        windows.insert(0, (entry / config.speed, cells[0]))
    exit_ = float(np.max(np.hypot(*(targets - cells[-1]).T)))
    if exit_ > 0.0:
        windows.append((exit_ / config.speed, targets))
    out = []
    for r0 in range(len(starts)):
        t = 0.0
        waypoints = [(float(starts[r0, 0]), float(starts[r0, 1]), 0.0)]
        for dur, ends in windows:
            t = max(t + dur, math.nextafter(t, math.inf))
            waypoints.append((float(ends[r0, 0]), float(ends[r0, 1]), t))
        out.append(tuple(waypoints))
    return out


def test_map_path_matches_cells_and_clock():
    """Random paths at n = 2..8, from cell centres and from off-grid points."""
    rng = random.Random(27)
    config = workspace_config()
    for n in range(2, 9):
        for off_grid in (False, True):
            if off_grid:
                starts = [(rng.uniform(0, 12), rng.uniform(0, 12)) for _ in range(n)]
                targets = [(rng.uniform(0, 12), rng.uniform(0, 12)) for _ in range(n)]
            else:
                starts = [tuple(c) for c in grid_cells(random_perms(rng, n), config)]
                targets = [tuple(c) for c in grid_cells(random_perms(rng, n), config)]
            result = plan(ranks_from_positions(starts), ranks_from_positions(targets))
            trajectories = map_path(result.path, config, starts, targets)
            assert [t.robot_id for t in trajectories] == list(range(1, n + 1))
            assert [t.waypoints for t in trajectories] == _window_oracle(
                result.path, config, starts, targets
            )


def test_map_path_validation():
    config = workspace_config()
    positions = [(2.0, 2.0), (6.0, 6.0)]
    perms = ranks_from_positions(positions)
    with pytest.raises(InputError):
        map_path([], config, positions, positions)
    with pytest.raises(InputError):
        map_path([perms], config, positions[:1], positions)
    wrong = PermutationState.identity(2)  # true ranks have pi1 = (2, 1)
    with pytest.raises(InputError):
        map_path([wrong], config, positions, positions)
    with pytest.raises(InputError):
        map_path([perms], config, [(-5.0, 2.0), (6.0, 6.0)], positions)
    # a step that changes both axes at once is rejected
    both = PermutationState((1, 2), (2, 1))
    with pytest.raises(InputError):
        map_path([perms, both], config, positions, [tuple(c) for c in grid_cells(both, config)])
    # every state of a path has the team's size
    three = PermutationState.identity(3)
    with pytest.raises(InputError, match="team's size"):
        map_path([perms, three, perms], config, positions, positions)


@pytest.mark.parametrize("side", ["start", "target"])
@pytest.mark.parametrize(
    "bad",
    [
        [("a", 2.0), (6.0, 6.0)],
        [(2.0,), (6.0, 6.0)],
        [(2.0,), (6.0,)],
        [(2.0, 2.0, 0.0), (6.0, 6.0)],
        [(math.nan, 2.0), (6.0, 6.0)],
        [(2.0, math.inf), (6.0, 6.0)],
        [None, (6.0, 6.0)],
        None,
        [("2.0", 2.0), (6.0, 6.0)],
        [(2.0, b"2"), (6.0, 6.0)],
        [(True, 2.0), (6.0, 6.0)],
    ],
    ids=["text", "one-coordinate", "all-one-coordinate", "three-coordinates", "nan", "inf",
         "none-point", "none", "numeric-text", "bytes", "bool"],
)
def test_map_path_refuses_malformed_points(side, bad):
    """Start and target points are checked before any is compared with the
    workspace: each must be a finite numeric (x, y) pair."""
    config = workspace_config()
    positions = [(2.0, 2.0), (6.0, 6.0)]
    perms = ranks_from_positions(positions)
    start, target = (bad, positions) if side == "start" else (positions, bad)
    with pytest.raises(InputError):
        map_path([perms], config, start, target)


def _relabel(pi: tuple[int, ...], cycle: list[int]) -> tuple[int, ...]:
    """``pi`` with each rank of ``cycle`` replaced by the next one, cyclically."""
    to = dict(zip(cycle, cycle[1:] + cycle[:1]))
    return tuple(to.get(r, r) for r in pi)


@st.composite
def _stepped_paths(draw):
    """A path of random steps from a random state at n = 2..6: adjacent swaps
    on one axis, swaps of any two ranks, adjacent swaps on both axes, rank
    3-cycles, repeated states and fresh random states."""
    n = draw(st.integers(2, 6))
    perm = st.permutations(range(1, n + 1)).map(tuple)
    path = [PermutationState(draw(perm), draw(perm))]
    for _ in range(draw(st.integers(1, 5))):
        prev = path[-1]
        kind = draw(st.sampled_from(("adjacent", "adjacent", "any two", "both", "cycle",
                                     "repeat", "fresh")))
        pis = [prev.pi1, prev.pi2]
        axis = draw(st.integers(0, 1))
        if kind == "adjacent":
            r = draw(st.integers(1, n - 1))
            pis[axis] = _relabel(pis[axis], [r, r + 1])
        elif kind == "any two":
            pis[axis] = _relabel(pis[axis], draw(st.lists(
                st.integers(1, n), min_size=2, max_size=2, unique=True)))
        elif kind == "both":
            for a in (0, 1):
                r = draw(st.integers(1, n - 1))
                pis[a] = _relabel(pis[a], [r, r + 1])
        elif kind == "cycle" and n >= 3:
            pis[axis] = _relabel(pis[axis], draw(st.lists(
                st.integers(1, n), min_size=3, max_size=3, unique=True)))
        elif kind == "fresh":
            pis = [draw(perm), draw(perm)]
        path.append(PermutationState(*pis))
    return path


@settings(max_examples=400, deadline=None, derandomize=True)
@given(path=_stepped_paths())
def test_map_path_step_check_matches_step_action(path):
    """``map_path`` checks every step at once on its rank array.  It must
    accept exactly the paths whose every step ``_step_action`` accepts, and
    reject the others with ``_step_action``'s message for the first bad step."""
    expected = None
    for prev, cur in zip(path, path[1:]):
        try:
            _step_action(prev, cur)
        except InputError as exc:
            expected = str(exc)
            break
    config = workspace_config()
    starts = [tuple(c) for c in grid_cells(path[0], config)]
    targets = [tuple(c) for c in grid_cells(path[-1], config)]
    if expected is None:
        trajectories = map_path(path, config, starts, targets)
        assert len(trajectories[0].waypoints) == len(path)
    else:
        with pytest.raises(InputError) as info:
            map_path(path, config, starts, targets)
        assert str(info.value) == expected


# ---------------------------------------------------------------------------
# Braid carryover.
# ---------------------------------------------------------------------------


def test_carry_over_matches_planner_prediction():
    rng = random.Random(25)
    config = workspace_config()
    for n in (3, 4, 5):
        result, trajectories, _, _ = _planned_episode(rng, n, config)
        folded = carry_over_braids(trajectories, (BraidTable.identity(n),) * 2)
        assert folded == result.final_braids


def test_carry_over_chains_across_episodes():
    rng = random.Random(26)
    config = workspace_config()
    n = 4
    start = random_perms(rng, n)
    mid = random_perms(rng, n)
    end = random_perms(rng, n)
    first = plan(start, mid)
    table1 = carry_over_braids(
        map_path(first.path, config,
                 [tuple(c) for c in grid_cells(start, config)],
                 [tuple(c) for c in grid_cells(mid, config)]),
        (BraidTable.identity(n),) * 2,
    )
    assert table1 == first.final_braids
    second = plan(mid, end, table1)
    assert second.trace.reason == "goal"
    table2 = carry_over_braids(
        map_path(second.path, config,
                 [tuple(c) for c in grid_cells(mid, config)],
                 [tuple(c) for c in grid_cells(end, config)]),
        table1,
    )
    assert table2 == second.final_braids


def test_carry_over_pair_alarm_names_pair_and_word():
    # robot 1 crosses robot 2 upward, then back down after robot 2 has
    # slipped behind: both crossings read S1 on the y-projection axis
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (0.0, 2.0, 1.0), (0.0, 0.0, 2.0)))
    r2 = Trajectory(2, ((1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (-3.0, 1.0, 2.0)))
    with pytest.raises(EntanglementAlarm) as err:
        carry_over_braids([r1, r2], (BraidTable.identity(2),) * 2)
    alarm = err.value
    assert alarm.ids == (1, 2)
    assert alarm.word == "S1 S1"
    assert alarm.axis_angle == AXIS_ANGLES[1]


def test_carry_over_validation():
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (0.0, 1.0, 1.0)))
    with pytest.raises(InputError):
        carry_over_braids([r1], (BraidTable.identity(2),) * 2)
    r2 = Trajectory(2, ((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    with pytest.raises(InputError):
        carry_over_braids([r1, r2], (BraidTable.identity(2),))
