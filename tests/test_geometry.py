"""Geometry-layer tests with a brute-force crossing oracle.

The oracle recomputes projected coordinates and pairwise crossing times
with plain Python floats from the documented projection convention, then
compares them with the package's extraction.  Letter indices are checked
by replaying every event as an adjacent swap and demanding the final
left-to-right order.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidplan.errors import DegenerateInputError, InputError
from braidplan.geometry import (
    CrossingEvent,
    TIME_TOLERANCE,
    ProjectionAxis,
    Trajectory,
    build_space_time,
    extract_crossings,
    sub_events,
)
from sampling import LATTICE_ANGLES, LATTICE_PATH, lattice_team

# ---------------------------------------------------------------------------
# Oracle helpers: piecewise-linear interpolation and pairwise crossings.
# ---------------------------------------------------------------------------


def _interp(t, ts, vs):
    if t <= ts[0]:
        return vs[0]
    if t >= ts[-1]:
        return vs[-1]
    for k in range(len(ts) - 1):
        if ts[k] <= t <= ts[k + 1]:
            w = (t - ts[k]) / (ts[k + 1] - ts[k])
            return vs[k] + w * (vs[k + 1] - vs[k])
    raise AssertionError("unreachable")


def _u_of(traj: Trajectory, t: float, angle: float) -> float:
    x = _interp(t, [w[2] for w in traj.waypoints], [w[0] for w in traj.waypoints])
    y = _interp(t, [w[2] for w in traj.waypoints], [w[1] for w in traj.waypoints])
    return -x * math.sin(angle) + y * math.cos(angle)


def _depth_of(traj: Trajectory, t: float, angle: float) -> float:
    x = _interp(t, [w[2] for w in traj.waypoints], [w[0] for w in traj.waypoints])
    y = _interp(t, [w[2] for w in traj.waypoints], [w[1] for w in traj.waypoints])
    return x * math.cos(angle) + y * math.sin(angle)


def _oracle_pair_crossings(paths, a, b, angle):
    """Crossing times of robots a and b: sign flips of u_a - u_b on the
    union grid, ties perturbed so the smaller id counts as smaller u."""
    grid = sorted({w[2] for p in paths for w in p.waypoints})
    pa = next(p for p in paths if p.robot_id == a)
    pb = next(p for p in paths if p.robot_id == b)
    diffs = [_u_of(pa, t, angle) - _u_of(pb, t, angle) for t in grid]
    signs = [1 if d > 0.0 else -1 for d in diffs]
    times = []
    for k in range(len(grid) - 1):
        if signs[k] != signs[k + 1]:
            f0, f1 = diffs[k], diffs[k + 1]
            times.append(grid[k] + (grid[k + 1] - grid[k]) * (f0 / (f0 - f1)))
    return times


def _random_team(rng, n, waypoints=4, horizon=8.0):
    paths = []
    for rid in range(1, n + 1):
        times = sorted(rng.uniform(0.5, horizon) for _ in range(waypoints - 1))
        ts = [0.0] + times
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10), t) for t in ts]
        paths.append(Trajectory(rid, tuple(pts)))
    return paths


# ---------------------------------------------------------------------------
# Pinned single-crossing fixture (axis angle 0: u = y, depth = x).
# ---------------------------------------------------------------------------


def _two_robot_fixture():
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (0.0, 1.0, 1.0)))
    r2 = Trajectory(2, ((1.0, 1.0, 0.0), (1.0, 0.0, 1.0)))
    return build_space_time([r1, r2])


def test_single_crossing_pinned():
    events = extract_crossings(_two_robot_fixture(), ProjectionAxis(0.0))
    assert len(events) == 1
    ev = events[0]
    assert ev.i == 1 and ev.j == 2
    assert abs(ev.time - 0.5) < 1e-12
    assert ev.order_before == (1, 2)
    # robot 1 is the left strand and sits at depth 0 behind robot 2's depth 1
    assert ev.letter.index == 1 and ev.letter.sign == -1


def test_single_crossing_swapped_depth():
    # same picture with x coordinates exchanged: the left strand is in front
    r1 = Trajectory(1, ((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    r2 = Trajectory(2, ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    events = extract_crossings(build_space_time([r1, r2]), ProjectionAxis(0.0))
    assert len(events) == 1
    assert events[0].letter.index == 1 and events[0].letter.sign == 1


def test_no_crossing_parallel():
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0)))
    r2 = Trajectory(2, ((0.0, 2.0, 0.0), (1.0, 2.0, 1.0)))
    events = extract_crossings(build_space_time([r1, r2]), ProjectionAxis(0.0))
    assert events == []


def test_mirror_axis_flips_strand_indices():
    """Viewing from the opposite side reverses ranks and near and far at
    once: every letter keeps its sign and generator index k becomes n - k
    (on three strands, s1 and s2 swap)."""
    rng = random.Random(7)
    for n in (2, 3, 4, 5, 6) * 20:
        paths = _random_team(rng, n)
        lifted = build_space_time(paths)
        axis = ProjectionAxis(rng.uniform(0, math.pi))
        fwd = extract_crossings(lifted, axis)
        # the same plane viewed from the other side: u and depth negated
        back = extract_crossings(lifted, ProjectionAxis(axis.angle + math.pi))
        assert len(fwd) == len(back)
        for e1, e2 in zip(fwd, back):
            assert abs(e1.time - e2.time) < 1e-9
            assert (e1.i, e1.j) == (e2.i, e2.j)
            assert e1.letter.sign == e2.letter.sign
            assert e2.letter.index == n - e1.letter.index
            assert e2.order_before == tuple(reversed(e1.order_before))


def test_crossings_match_oracle_random_teams():
    rng = random.Random(8)
    for trial in range(30):
        n = rng.randrange(2, 6)
        paths = _random_team(rng, n)
        lifted = build_space_time(paths)
        angle = rng.uniform(0, math.pi)
        axis = ProjectionAxis(angle)
        events = extract_crossings(lifted, axis)

        # pairwise times agree with the oracle
        got = {}
        for ev in events:
            got.setdefault((ev.i, ev.j), []).append(ev.time)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                expect = _oracle_pair_crossings(paths, a, b, angle)
                have = got.get((a, b), [])
                assert len(have) == len(expect)
                for t1, t2 in zip(sorted(have), expect):
                    assert abs(t1 - t2) < 1e-9

        # events are time-sorted adjacent swaps that replay to the final order
        horizon = max(p.arrival_time for p in paths)
        order = sorted(
            range(1, n + 1), key=lambda r: (_u_of(paths[r - 1], 0.0, angle), r)
        )
        for ev in events:
            assert tuple(order) == ev.order_before
            k = ev.letter.index - 1
            pair = {order[k], order[k + 1]}
            assert pair == {ev.i, ev.j}
            order[k], order[k + 1] = order[k + 1], order[k]
            # the front strand at the crossing instant decides the sign
            left, right = ev.order_before[k], ev.order_before[k + 1]
            dl = _depth_of(paths[left - 1], ev.time, angle)
            dr = _depth_of(paths[right - 1], ev.time, angle)
            if abs(dl - dr) > 1e-9:
                assert ev.letter.sign == (1 if dl > dr else -1)
        final = sorted(
            range(1, n + 1), key=lambda r: (_u_of(paths[r - 1], horizon, angle), r)
        )
        assert order == final
        for e1, e2 in zip(events, events[1:]):
            assert e1.time <= e2.time + 1e-12


def test_exact_tie_perturbation():
    # both robots start at u = 0; the smaller id counts as smaller, so the
    # separation that follows is not a crossing for (1, 2)
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (0.0, 1.0, 1.0)))
    r2 = Trajectory(2, ((1.0, 0.0, 0.0), (1.0, 2.0, 1.0)))
    ties: list[tuple[int, int, float]] = []
    events = extract_crossings(build_space_time([r1, r2]), ProjectionAxis(0.0), ties)
    assert events == []
    assert ties == [(1, 2, 0.0)]


def test_exact_tie_crossing_downward():
    # robot 1 ends strictly above: the tie resolves to one crossing at t = 0
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (0.0, 2.0, 1.0)))
    r2 = Trajectory(2, ((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    ties: list[tuple[int, int, float]] = []
    events = extract_crossings(build_space_time([r1, r2]), ProjectionAxis(0.0), ties)
    assert len(events) == 1
    assert events[0].time == 0.0
    assert ties == [(1, 2, 0.0)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    paths=st.lists(LATTICE_PATH, min_size=2, max_size=5),
    angle=st.sampled_from(LATTICE_ANGLES),
)
def test_extract_crossings_lattice_property(paths, angle):
    """Integer waypoints at integer times make exact ties and simultaneous
    crossings common.  Extraction either replays the start order into the
    final order by adjacent swaps or refuses the input as degenerate, and
    the tie records are exactly the zero-difference grid samples."""
    team = lattice_team(paths)
    ids = range(1, len(team) + 1)
    horizon = max(p.arrival_time for p in team)
    grid = [float(t) for t in range(int(horizon) + 1)]
    ties: list[tuple[int, int, float]] = []
    try:
        events = extract_crossings(build_space_time(team), ProjectionAxis(angle), ties)
    except DegenerateInputError:
        return

    expected_ties = [
        (a, b, t)
        for a in ids
        for b in ids
        if a < b
        for t in grid
        if _u_of(team[a - 1], t, angle) == _u_of(team[b - 1], t, angle)
    ]
    assert ties == expected_ties

    order = sorted(ids, key=lambda r: (_u_of(team[r - 1], 0.0, angle), r))
    for ev in events:
        assert 0.0 <= ev.time <= horizon
        assert ev.order_before == tuple(order)
        k = ev.letter.index - 1
        assert {order[k], order[k + 1]} == {ev.i, ev.j}
        order[k], order[k + 1] = order[k + 1], order[k]
    assert order == sorted(ids, key=lambda r: (_u_of(team[r - 1], horizon, angle), r))
    # simultaneous events are ordered by rank, not by time
    tol = TIME_TOLERANCE * horizon
    assert all(e1.time <= e2.time + tol for e1, e2 in zip(events, events[1:]))


# ---------------------------------------------------------------------------
# Sub-braid extraction.
# ---------------------------------------------------------------------------


def _three_robot_fixture():
    # robot 2 sits far left and never moves; robots 1 and 3 swap twice
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (0.0, 3.0, 1.0), (0.0, 0.0, 2.0)))
    r2 = Trajectory(2, ((5.0, -9.0, 0.0), (5.0, -9.0, 2.0)))
    r3 = Trajectory(3, ((1.0, 2.0, 0.0), (1.0, -1.0, 1.0), (1.0, 2.0, 2.0)))
    return build_space_time([r1, r3, r2])


def test_sub_events_reindex_to_pair_rank():
    events = extract_crossings(_three_robot_fixture(), ProjectionAxis(0.0))
    assert [(ev.i, ev.j) for ev in events] == [(1, 3), (1, 3)]
    # within the team, robot 2 sits below both, so the crossing is at rank 2
    assert [ev.letter.index for ev in events] == [2, 2]
    pair = sub_events(events, (1, 3))
    assert [letter.index for _, letter in pair] == [1, 1]
    assert [letter.sign for _, letter in pair] == [ev.letter.sign for ev in events]
    assert len(pair) == 2
    assert sub_events(events, (1, 2)) == []
    assert sub_events(events, (2, 3)) == []
    triple = sub_events(events, (1, 2, 3))
    assert [letter.index for _, letter in triple] == [2, 2]


def test_sub_events_validation():
    events = extract_crossings(_three_robot_fixture(), ProjectionAxis(0.0))
    with pytest.raises(InputError):
        sub_events(events, (1,))
    with pytest.raises(InputError):
        sub_events(events, (3, 1))
    with pytest.raises(InputError):
        sub_events(events, (1, 1))
    with pytest.raises(InputError):
        sub_events(events, (1, 2, 3, 4))
    # a subset member outside the team is caught once an event matches
    with pytest.raises(InputError):
        sub_events(events, (1, 3, 9))
    # with no matching events the team is unknown and the result is empty
    assert sub_events(events, (4, 9)) == []


def test_sub_events_triplet_counts():
    rng = random.Random(9)
    paths = _random_team(rng, 4)
    lifted = build_space_time(paths)
    events = extract_crossings(lifted, ProjectionAxis(1.0))
    for subset in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
        members = set(subset)
        internal = [ev for ev in events if {ev.i, ev.j} <= members]
        subset_events = sub_events(events, subset)
        assert len(subset_events) == len(internal)
        for (t, letter), ev in zip(subset_events, internal):
            assert t == ev.time
            assert letter.index in (1, 2)
            assert letter.sign == ev.letter.sign


# ---------------------------------------------------------------------------
# Lifting.
# ---------------------------------------------------------------------------


def test_build_space_time_shared_grid_and_heights():
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (1.0, 0.0, 2.0)))
    r2 = Trajectory(2, ((3.0, 3.0, 0.0), (3.0, 4.0, 1.0), (4.0, 4.0, 4.0)))
    lifted = build_space_time([r2, r1])
    assert lifted.ids == (1, 2)
    assert list(lifted.grid) == [0.0, 1.0, 2.0, 4.0]
    assert lifted.horizon == 4.0
    assert lifted.xy.shape == (2, 4, 2)
    # early arriver frozen at its final position past t = 2
    assert [tuple(p) for p in lifted.xy[0]] == [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 0.0)]
    assert [tuple(p) for p in lifted.xy[1, [0, 1, 3]]] == [(3.0, 3.0), (3.0, 4.0), (4.0, 4.0)]


def test_trajectory_validation():
    with pytest.raises(InputError):
        Trajectory(1, ())
    with pytest.raises(InputError):
        Trajectory(1, ((0.0, 0.0, 1.0),))
    with pytest.raises(InputError):
        Trajectory(1, ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0)))
    with pytest.raises(InputError):
        Trajectory(1, ((0.0, 0.0, 0.0), (math.inf, 1.0, 1.0)))


def test_build_space_time_validation():
    tr = Trajectory(1, ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    with pytest.raises(InputError):
        build_space_time([])
    with pytest.raises(InputError):
        build_space_time([tr, Trajectory(1, ((0.0, 0.0, 0.0), (2.0, 2.0, 1.0)))])
    # a stationary team lifts to its one waypoint time
    still = build_space_time([Trajectory(2, ((3.0, 4.0, 0.0),)), Trajectory(1, ((0.0, 1.0, 0.0),))])
    assert still.ids == (1, 2)
    assert still.grid.tolist() == [0.0]
    assert still.xy.tolist() == [[[0.0, 1.0]], [[3.0, 4.0]]]
    assert still.horizon == 0.0


def test_projection_convention():
    axis = ProjectionAxis(0.0)
    assert axis.u([2.0, 5.0]) == 5.0
    assert axis.depth([2.0, 5.0]) == 2.0
    quarter = ProjectionAxis(math.pi / 2)
    assert abs(quarter.u([2.0, 5.0]) - (-2.0)) < 1e-12
    assert abs(quarter.depth([2.0, 5.0]) - 5.0) < 1e-12
