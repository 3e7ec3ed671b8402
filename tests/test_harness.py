"""Harness tests: separation checks, the independent verifier, and full runs.

The entangling-weave fixture drives three robots so their y-projection
braid reads s1 S2 s1, the middle strand threading over-under-over, which
the verifier must flag; clean episodes must leave its tables in exact
agreement with the planner's.  Full runs fold each episode's crossings
once, and the planner's carried tables are the verifier's at the grid
angles.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidplan import harness, workspace
from braidplan.braid import (
    _VIOLATED,
    BraidLetter,
    BraidWord,
    pair_word_text,
    triplet_state_from_word,
    triplet_word_text,
    update_pair,
    update_triplet,
)
from braidplan.errors import ConfigurationError, DegenerateInputError, InputError
from braidplan.geometry import (
    CrossingEvent,
    Trajectory,
    build_space_time,
    extract_crossings,
    sub_events,
)
from braidplan.harness import (
    DEFAULT_GAMMA_BAR,
    MAX_M,
    Scenario,
    carry_over_braids,
    fold_crossings,
    make_scenario,
    random_targets,
    run_task_sequence,
    simulate,
    verify,
)
from braidplan.planner import (
    AXIS_ANGLES,
    BraidTable,
    GridNode,
    PermutationState,
    PlanResult,
    SearchTrace,
    expand,
    pair_slot,
    plan,
    to_serializable,
    triplet_slot,
)
from braidplan.plot import render_braid_svg
from braidplan.workspace import WorkspaceConfig, grid_cells, map_path, ranks_from_positions
from grid import workspace_config
from sampling import LATTICE_ANGLES, LATTICE_PATH, float_team, lattice_team


# ---------------------------------------------------------------------------
# simulate.
# ---------------------------------------------------------------------------


def test_simulate_passing_robots_pinned():
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (4.0, 0.0, 2.0)))
    r2 = Trajectory(2, ((4.0, 1.0, 0.0), (0.0, 1.0, 2.0)))
    sim = simulate(build_space_time([r1, r2]))
    assert abs(sim.min_distance - 1.0) < 1e-6
    assert abs(sim.time - 1.0) < 0.11
    assert sim.ids == (1, 2)
    assert sim.horizon == 2.0


def test_simulate_includes_waypoint_times():
    # the closest approach happens exactly at a waypoint between samples
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (0.0, 0.95, 0.333), (0.0, 0.0, 1.0)))
    r2 = Trajectory(2, ((0.0, 2.0, 0.0), (0.0, 2.0, 1.0)))
    sim = simulate(build_space_time([r1, r2]))
    assert abs(sim.min_distance - 1.05) < 1e-9
    assert sim.time == 0.333


def test_simulate_single_robot_and_validation():
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0)))
    sim = simulate(build_space_time([r1]))
    assert sim.min_distance == math.inf
    # a stationary team has a single waypoint time
    still = simulate(build_space_time(
        [Trajectory(1, ((0.0, 0.0, 0.0),)), Trajectory(2, ((3.0, 4.0, 0.0),))]
    ))
    assert (still.min_distance, still.time, still.ids, still.horizon) == (5.0, 0.0, (1, 2), 0.0)


def test_simulate_closest_approach_between_waypoint_times():
    # robot 2 sweeps past the parked robot 3; the nearest point, 0.3 away
    # at t = 0.44, lies strictly inside robot 2's only segment
    r1 = Trajectory(1, ((10.0, 10.0, 0.0),))
    r2 = Trajectory(2, ((0.0, 0.0, 0.0), (5.0, 0.0, 2.0)))
    r3 = Trajectory(3, ((1.1, 0.3, 0.0),))
    sim = simulate(build_space_time([r3, r1, r2]))
    assert abs(sim.min_distance - 0.3) < 1e-12
    assert abs(sim.time - 0.44) < 1e-12
    assert sim.ids == (2, 3)
    assert sim.horizon == 2.0


# ---------------------------------------------------------------------------
# verify.
# ---------------------------------------------------------------------------


def _planned_trajectories(rng: random.Random, n: int, config: WorkspaceConfig):
    p1 = list(range(1, n + 1))
    p2 = list(range(1, n + 1))
    rng.shuffle(p1)
    rng.shuffle(p2)
    start = PermutationState(tuple(p1), tuple(p2))
    rng.shuffle(p1)
    rng.shuffle(p2)
    target = PermutationState(tuple(p1), tuple(p2))
    result = plan(start, target)
    assert result.trace.reason == "goal"
    trajectories = map_path(
        result.path, config,
        [tuple(c) for c in grid_cells(start, config)],
        [tuple(c) for c in grid_cells(target, config)],
    )
    return result, trajectories


def test_verify_clean_episode_agrees_with_planner():
    rng = random.Random(30)
    config = workspace_config()
    angles = (0.0, math.pi / 2, math.pi)
    result, trajectories = _planned_trajectories(rng, 4, config)
    report, tables = verify(build_space_time(trajectories), angles)
    assert report.ok
    assert report.violations == ()
    final1, final2 = result.final_braids
    # angle pi/2 is grid axis 1, angle 0 is grid axis 2
    ax1 = tables[angles.index(AXIS_ANGLES[0])]
    ax2 = tables[angles.index(AXIS_ANGLES[1])]
    for i in range(1, 5):
        for j in range(i + 1, 5):
            slot = pair_slot(4, i, j)
            assert ax1.pairs[slot] == final1.pairs[slot]
            assert ax2.pairs[slot] == final2.pairs[slot]
            for k in range(j + 1, 5):
                slot = triplet_slot(4, i, j, k)
                assert ax1.triplets[slot] == final1.triplets[slot]
                assert ax2.triplets[slot] == final2.triplets[slot]


def _weave_fixture() -> list[Trajectory]:
    """Three strands whose y-projection braid is s1 S2 s1.

    Robot 1 climbs through both neighbours: over robot 2 (it is nearer the
    viewer), under robot 3, and then robots 2 and 3 swap with robot 2 in
    front after robot 3 has dived behind everyone.
    """
    r1 = Trajectory(1, ((0.0, 1.0, 0.0), (0.0, 2.0, 1.0), (0.0, 3.0, 2.0), (0.0, 3.0, 3.0)))
    r2 = Trajectory(2, ((-1.0, 2.0, 0.0), (-1.0, 1.0, 1.0), (-1.0, 1.0, 2.0), (-1.0, 2.0, 3.0)))
    r3 = Trajectory(3, ((2.0, 3.0, 0.0), (2.0, 3.0, 1.0), (2.0, 2.0, 2.0), (-6.0, 1.0, 3.0)))
    return [r1, r2, r3]


def test_verify_flags_triplet_weave():
    report, tables = verify(build_space_time(_weave_fixture()), (0.0,))
    assert not report.ok
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.ids == (1, 2, 3)
    assert violation.word == "s1 S2 s1"
    assert violation.axis_angle == 0.0
    assert abs(violation.time - 2.5) < 1e-9
    # the flagged state is sticky in the returned table
    assert _VIOLATED[tables[0].triplets[triplet_slot(3, 1, 2, 3)]]
    assert not tables[0].is_clean


def test_verify_mirror_angle_sees_flipped_weave():
    # angle pi views the same motion from behind: the braid flips to
    # s2 S1 s2, which is forbidden as well
    report, _ = verify(build_space_time(_weave_fixture()), (math.pi,))
    assert not report.ok
    assert report.violations[0].word == "s2 S1 s2"


def _mirrored(event: CrossingEvent, n: int) -> CrossingEvent:
    """The crossing as the plane at angle + pi sees it: generator k becomes
    n - k with the same sign, and the order before it reverses."""
    return dataclasses.replace(
        event,
        letter=BraidLetter(n - event.letter.index, event.letter.sign),
        order_before=tuple(reversed(event.order_before)),
    )


def _at(report, angle: float) -> list[tuple[tuple[int, ...], float]]:
    return [(v.ids, v.time) for v in report.violations if v.axis_angle == angle]


def _same_violations(first, second) -> bool:
    return [ids for ids, _ in first] == [ids for ids, _ in second] and all(
        abs(t1 - t2) < 1e-9 for (_, t1), (_, t2) in zip(first, second)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, 6), waypoints=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_verify_mirror_angle_repeats_angle_zero(n, waypoints, seed):
    """The plane at pi sees the mirror braid of the plane at 0, and the
    forbidden patterns are closed under the mirror, which is why the check
    set stops short of pi.  On float teams in general position the pi
    table's pairs are the 0 table's, its triplets are the 0 events folded
    mirrored, and both angles flag the same robots at the same times."""
    team = build_space_time(float_team(random.Random(seed), n, waypoints))
    report, (at_zero, at_pi) = verify(team, (0.0, math.pi))
    mirrored = [_mirrored(ev, n) for ev in extract_crossings(team, 0.0)]
    assert at_pi.pairs == at_zero.pairs
    assert at_pi.triplets == fold_crossings(mirrored, BraidTable.identity(n))[0].triplets
    assert _same_violations(_at(report, 0.0), _at(report, math.pi))


def test_verify_carries_tables_between_episodes():
    first = [
        Trajectory(1, ((1.0, 0.0, 0.0), (1.0, 2.0, 1.0))),
        Trajectory(2, ((0.0, 1.0, 0.0), (0.0, 1.0, 1.0))),
    ]
    report1, tables1 = verify(build_space_time(first), (0.0,))
    assert report1.ok
    assert tables1[0].pairs[pair_slot(2, 1, 2)] == 1
    second = [
        Trajectory(1, ((1.0, 2.0, 0.0), (1.0, 0.0, 2.0))),
        Trajectory(2, ((0.0, 1.0, 0.0), (3.0, 1.0, 1.0), (3.0, 1.0, 2.0))),
    ]
    report2, tables2 = verify(build_space_time(second), (0.0,), tables1)
    assert not report2.ok
    violation = report2.violations[0]
    assert violation.ids == (1, 2)
    assert violation.word == "s1 s1"
    assert tables2[0].pairs[pair_slot(2, 1, 2)] == 2


def test_verify_stationary_is_clean():
    still = [Trajectory(1, ((0.0, 0.0, 0.0),)), Trajectory(2, ((3.0, 3.0, 0.0),))]
    tables_in = (BraidTable.identity(2),)
    report, tables = verify(build_space_time(still), (0.0,), tables_in)
    assert report.ok
    assert tables is tables_in


def test_verify_validation():
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0)))
    r3 = Trajectory(3, ((2.0, 0.0, 0.0), (2.0, 1.0, 1.0)))
    with pytest.raises(InputError):
        verify(build_space_time([r1, r3]), (0.0,))
    r2 = Trajectory(2, ((2.0, 0.0, 0.0), (2.0, 1.0, 1.0)))
    with pytest.raises(InputError):
        verify(build_space_time([r1, r2]), ())
    with pytest.raises(InputError):
        verify(build_space_time([r1, r2]), (0.0, 1.0), (BraidTable.identity(2),))
    with pytest.raises(InputError):
        verify(build_space_time([r1, r2]), (0.0,), (BraidTable.identity(3),))
    # no plane has a non-finite angle: at NaN every u is NaN and no crossing shows
    still = build_space_time([Trajectory(1, ((0.0, 0.0, 0.0),)), Trajectory(2, ((2.0, 0.0, 0.0),))])
    assert still.horizon == 0.0
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            verify(build_space_time([r1, r2]), (angle,))
        # a stationary team has no crossing to extract, but its angles are checked too
        with pytest.raises(InputError):
            verify(still, (angle,))
        with pytest.raises(InputError):
            render_braid_svg([r1, r2], angle)


# ---------------------------------------------------------------------------
# fold_crossings against one sub_events pass per pair and per triplet.
# ---------------------------------------------------------------------------


def _fold_by_subsets(events, table):
    """The reference fold: each pair's and each triplet's letters from their
    own ``sub_events`` pass, folded until the entry is flagged."""
    n = table.n
    pairs, trips = list(table.pairs), list(table.triplets)
    forbidden = []
    for states, size, slot_of, update, word_of in (
        (pairs, 2, pair_slot, update_pair, pair_word_text),
        (trips, 3, triplet_slot, update_triplet, triplet_word_text),
    ):
        for ids in itertools.combinations(range(1, n + 1), size):
            slot = slot_of(n, *ids)
            state = states[slot]
            for time, letter in sub_events(events, ids):
                state, ok = update(state, letter)
                if not ok:
                    forbidden.append((ids, time, word_of(state)))
                    break
            states[slot] = state
    return BraidTable(n, tuple(pairs), tuple(trips)), forbidden


def _outcome(fold, events, table):
    try:
        return fold(events, table)
    except InputError:
        return "InputError"


def _walked_table(rng: random.Random, n: int) -> BraidTable:
    """One grid axis's table after a random walk of planner moves."""
    def perms():
        return PermutationState(tuple(rng.sample(range(1, n + 1), n)),
                                tuple(rng.sample(range(1, n + 1), n)))

    target = perms()
    node = GridNode.root(perms(), (BraidTable.identity(n),) * 2, target)
    for _ in range(rng.randrange(40)):
        node = rng.choice(expand(node, target) or [node])
    return node.braids[rng.randrange(2)]


_WEAVE = triplet_state_from_word(BraidWord.from_text("s1 S2 s1", 3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    paths=st.lists(LATTICE_PATH, min_size=2, max_size=6),
    angle=st.sampled_from(LATTICE_ANGLES),
    start=st.sampled_from(("clean", "carried", "violated")),
    extra=st.sampled_from((0, 0, 0, -1, 1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_fold_crossings_matches_subset_fold(paths, angle, start, extra, seed):
    """One pass over the events gives the reference fold's table, forbidden
    list in its order, or ``InputError``.  Lattice teams make ties and
    simultaneous crossings common.  Tables start clean, carried over a
    planner walk, or carried with one entry already violated, and a table
    one robot smaller or larger than the team covers both mismatches."""
    try:
        events = extract_crossings(build_space_time(lattice_team(paths)), angle)
    except DegenerateInputError:
        return
    rng = random.Random(seed)
    n = max(2, len(paths) + extra)
    table = BraidTable.identity(n) if start == "clean" else _walked_table(rng, n)
    if start == "violated":
        entries = list(table.pairs + table.triplets)
        slot = rng.randrange(len(entries))
        entries[slot] = rng.choice((-2, 2)) if slot < len(table.pairs) else _WEAVE
        k = len(table.pairs)
        table = BraidTable(n, tuple(entries[:k]), tuple(entries[k:]))
    assert _outcome(fold_crossings, events, table) == _outcome(_fold_by_subsets, events, table)


def test_fold_crossings_mismatched_team():
    events = extract_crossings(build_space_time(_weave_fixture()), 0.0)
    # robot 3 is outside a two-robot table: only the pair (1, 2) folds
    table, forbidden = fold_crossings(events, BraidTable.identity(2))
    assert (table, forbidden) == _fold_by_subsets(events, BraidTable.identity(2))
    assert table.pairs != (0,) and forbidden == []
    # table robot 4 never appears in the crossings' order
    for fold in (fold_crossings, _fold_by_subsets):
        with pytest.raises(InputError):
            fold(events, BraidTable.identity(4))
    assert fold_crossings([], BraidTable.identity(4)) == (BraidTable.identity(4), [])

# ---------------------------------------------------------------------------
# Scenario construction.
# ---------------------------------------------------------------------------


def test_random_targets_spacing_and_determinism():
    config = workspace_config()
    a = random_targets(config, 6, random.Random(31))
    b = random_targets(config, 6, random.Random(31))
    assert a == b
    for p in a:
        assert config.contains(p)
    for i in range(6):
        for j in range(i + 1, 6):
            assert math.dist(a[i], a[j]) >= config.d_safe


def test_random_targets_gives_up():
    tight = WorkspaceConfig(0, 2, 0, 2, cell_size=1, d_safe=1, speed=1)
    with pytest.raises(ConfigurationError):
        random_targets(tight, 50, random.Random(32), max_attempts=200)


def test_make_scenario_reproducible():
    sc1 = make_scenario(4, 3, 33)
    sc2 = make_scenario(4, 3, 33)
    assert sc1 == sc2
    assert sc1.n == 4
    assert len(sc1.target_sets) == 3
    assert sc1.angles == (0.0, math.pi / 2)


def test_scenario_angles_hold_the_grid_angles_exactly(monkeypatch):
    # (m/2) * pi / m misses pi/2 by one ulp for some even m (22, 26, 30, ...);
    # m = 1 leaves a blind direction, which Scenario rejects
    base = make_scenario(3, 1, 33)
    for m in range(2, MAX_M + 1):
        angles = dataclasses.replace(base, m=m, gamma_bar=math.pi).angles
        assert len(angles) == m
        assert angles[-1] < math.pi
        assert angles[0] == AXIS_ANGLES[1]
        assert (AXIS_ANGLES[0] in angles) == (m % 2 == 0)
        for i, angle in enumerate(angles):
            if 2 * i != m:
                assert angle == i * math.pi / m
    # so an even-m run folds exactly the m angles of its check set
    folded = []
    inner = harness.verify

    def recording_verify(trajectories, angles, tables=None):
        folded.append(angles)
        return inner(trajectories, angles, tables)

    monkeypatch.setattr(harness, "verify", recording_verify)
    run_task_sequence(dataclasses.replace(base, m=22))
    assert [len(angles) for angles in folded] == [22]


def test_scenario_validation():
    config = workspace_config()
    pts = ((2.0, 2.0), (6.0, 6.0))
    with pytest.raises(ConfigurationError):
        Scenario(config, ((2.0, 2.0),), pts, (pts,))
    with pytest.raises(ConfigurationError):
        Scenario(config, pts, pts, (pts,), m=1)
    for m in (2.0, True, "2"):
        with pytest.raises(ConfigurationError):
            Scenario(config, pts, pts, (pts,), m=m)
    with pytest.raises(ConfigurationError):
        Scenario(config, pts, pts, (pts,), gamma_bar=0.0)
    with pytest.raises(ConfigurationError):
        Scenario(config, pts, pts, (((2.0, 2.0), (2.2, 2.0)),))
    # pi / gamma_bar just under 2 admits m = 2
    assert Scenario(config, pts, pts, (pts,), m=2).angles == (0.0, math.pi / 2)


# ---------------------------------------------------------------------------
# Full task sequences.
# ---------------------------------------------------------------------------


def _strip_timing(metrics) -> tuple:
    return tuple(
        (
            r.set_index, r.success, r.reason, r.actions, r.expanded, r.generated,
            r.rejected_by_braid, r.min_distance, r.horizon, r.violations,
            r.perturbations, r.tables_consistent,
        )
        for r in metrics.results
    )


def test_run_task_sequence_deterministic():
    first = run_task_sequence(make_scenario(4, 4, 34))
    second = run_task_sequence(make_scenario(4, 4, 34))
    assert first.success_rate == 1.0
    assert first.total_violations == 0
    assert first.all_tables_consistent
    assert _strip_timing(first) == _strip_timing(second)
    assert first.final_positions == second.final_positions
    assert first.final_braids == second.final_braids
    assert first.final_positions == make_scenario(4, 4, 34).target_sets[-1]
    for r in first.results:
        assert r.min_distance >= 1.0 - 1e-9


def test_run_task_sequence_failure_reverts_state(monkeypatch):
    scenario = make_scenario(3, 3, 35)
    failed = PlanResult((), None, SearchTrace(1, 0, 0, 1, "max_expansions"))
    monkeypatch.setattr(harness, "plan", lambda *args, **kwargs: failed)
    metrics = run_task_sequence(scenario)
    assert metrics.success_rate == 0.0
    assert all(r.reason == "max_expansions" for r in metrics.results)
    assert metrics.final_positions == scenario.initial_positions
    assert metrics.final_braids == (BraidTable.identity(3),) * 2
    assert metrics.all_tables_consistent


def test_run_task_sequence_dump(tmp_path):
    run_task_sequence(make_scenario(3, 2, 36), dump_dir=tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["set_000.json", "set_001.json"]
    payload = json.loads((tmp_path / "set_000.json").read_text())
    assert payload["success"] is True
    assert payload["targets"]
    assert payload["permutation_path"][0]["pi1"]
    assert payload["trajectories"][0]["robot_id"] == 1


def test_run_metrics_as_dict_round_trips_json():
    metrics = run_task_sequence(make_scenario(3, 2, 37))
    payload = json.loads(json.dumps(metrics.as_dict()))
    assert payload["n"] == 3
    assert payload["sets_total"] == 2
    assert payload["success_rate"] == 1.0
    assert payload["final_braids"]["n"] == 3
    assert len(payload["results"]) == 2


_VERIFIER_PINS = json.loads(
    (Path(__file__).parent / "data" / "verifier_pins.json").read_text()
)


@pytest.mark.parametrize(
    "pin", _VERIFIER_PINS, ids=lambda pin: "n{}-sets{}-seed{}-m{}".format(*pin["scenario"])
)
def test_run_task_sequence_matches_verifier_pins(pin):
    """The verifier's discrete outputs over whole runs, recorded in
    ``data/verifier_pins.json``: per episode the reason, the number of
    actions, each violation's (ids, index of its angle among the verified
    angles, word) and the perturbation count, then the final tables.  No
    float is pinned, so numpy versions cannot move it; a change to crossing
    extraction or folding that alters a braid shows here."""
    n, sets, seed, m = pin["scenario"]
    scenario = make_scenario(n, sets, seed, m=m)
    angles = scenario.angles + tuple(a for a in AXIS_ANGLES if a not in scenario.angles)
    metrics = run_task_sequence(scenario)
    episodes = [
        [
            r.reason,
            r.actions,
            [[list(v.ids), angles.index(v.axis_angle), v.word] for v in r.violations],
            r.perturbations,
        ]
        for r in metrics.results
    ]
    assert episodes == pin["episodes"]
    assert to_serializable(metrics.final_braids) == pin["final_braids"]


def test_run_task_sequence_folds_each_episode_once(monkeypatch):
    # m = 2: one lift per episode and one extraction per angle of A(2) =
    # (0, pi/2), which holds both grid angles and not the mirror angle pi
    counts = {"lift": 0, "extract": 0}
    for module in (harness, workspace):
        for name, key in (("build_space_time", "lift"), ("extract_crossings", "extract")):
            def counted(*args, _real=getattr(module, name), _key=key, **kwargs):
                counts[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    metrics = run_task_sequence(make_scenario(3, 5, 0))
    assert metrics.success_rate == 1.0
    episodes = len(metrics.results)
    assert counts == {"lift": episodes, "extract": 2 * episodes}


def test_run_task_sequence_odd_m_carries_grid_angle_tables(monkeypatch):
    # pi/2 is not in A(3), so the verifier folds it as an extra angle; this
    # sequence also has episodes refused for violations at other angles
    scenario = make_scenario(4, 30, 60, m=3)
    assert AXIS_ANGLES[0] not in scenario.angles
    calls = []
    real_map_path, real_verify = harness.map_path, harness.verify

    def recording_map_path(*args, **kwargs):
        trajectories = real_map_path(*args, **kwargs)
        calls.append([trajectories])
        return trajectories

    def recording_verify(team, angles, tables, **kwargs):
        out = real_verify(team, angles, tables, **kwargs)
        calls[-1] += [angles, out[1]]
        return out

    monkeypatch.setattr(harness, "map_path", recording_map_path)
    monkeypatch.setattr(harness, "verify", recording_verify)
    metrics = run_task_sequence(scenario)
    assert metrics.all_tables_consistent
    assert 0 < metrics.successes < metrics.sets_total
    assert any(r.reason == "violation" for r in metrics.results)
    executed = [r for r in metrics.results if r.reason not in ("max_expansions", "exhausted")]
    assert len(executed) == len(calls)

    # replay the successful episodes through the grid-axis carry-over, which
    # calls verify itself, so the recording stops first
    monkeypatch.undo()
    carried = (BraidTable.identity(4),) * 2
    for result, (trajectories, angles, tables) in zip(executed, calls):
        if result.success:
            carried = carry_over_braids(trajectories, carried)
            last_angles, last_tables = angles, tables
    from_verifier = tuple(last_tables[last_angles.index(a)] for a in AXIS_ANGLES)
    assert metrics.final_braids == from_verifier
    assert metrics.final_braids == carried
    assert carried != (BraidTable.identity(4),) * 2


def test_run_task_sequence_counts_ties_on_every_verified_angle(monkeypatch):
    # at odd m the verifier also folds pi/2, which A(m) lacks, so a tie there
    # counts like a tie on the check set: one recorded per extraction here
    real_extract = harness.extract_crossings

    def one_tie(team, angle, ties_out):
        ties_out.append((1, 2, 0.0))
        return real_extract(team, angle, ties_out)

    monkeypatch.setattr(harness, "extract_crossings", one_tie)
    metrics = run_task_sequence(make_scenario(3, 6, 0, m=3))
    verified = [r for r in metrics.results if r.horizon > 0 and r.reason != "degenerate"]
    assert verified
    assert [r.perturbations for r in verified] == [4] * len(verified)


def _mirror_table(table: BraidTable) -> BraidTable:
    """The table the plane at angle + pi folds where the plane at angle
    folded ``table``: the same pair counts, each triplet's s1 and s2 swapped."""
    def mirror(state: int) -> int:
        word = BraidWord.from_text(triplet_word_text(state), 3)
        letters = tuple(BraidLetter(3 - x.index, x.sign) for x in word.letters)
        return triplet_state_from_word(BraidWord(3, letters))

    return BraidTable(table.n, table.pairs, tuple(map(mirror, table.triplets)))


@pytest.mark.parametrize("m", (2, 3, 4))
def test_run_episodes_reach_the_same_verdict_at_pi_as_at_zero(monkeypatch, m):
    """The check set stops short of pi, and no planned episode loses a
    verdict by it.  A verify that also folds pi, into a table of its own
    that follows the tables the run carries, flags at pi what it flags at
    0 on every episode, and its pi table stays the mirror of the 0 table."""
    real_verify = harness.verify
    carried = []  # (tables returned to the run, the pi table folded with them)

    def verify_with_pi(team, angles, tables):
        report, new_tables = real_verify(team, angles, tables)
        at_pi = next((pi for held, pi in carried if held is tables), BraidTable.identity(4))
        pi_report, (pi_table,) = real_verify(team, (math.pi,), (at_pi,))
        assert _same_violations(_at(report, 0.0), _at(pi_report, math.pi))
        assert pi_table == _mirror_table(new_tables[angles.index(0.0)])
        carried.append((new_tables, pi_table))
        return report, new_tables

    monkeypatch.setattr(harness, "verify", verify_with_pi)
    for seed in range(3):
        carried.clear()
        run_task_sequence(make_scenario(4, 20, seed, m=m))
        assert any(pi != BraidTable.identity(4) for _, pi in carried)


def _back_to_back(episodes: list[list[Trajectory]]) -> list[Trajectory]:
    """One trajectory per robot through all episodes, each shifted to start
    when the one before it ended; the shared joint waypoint is kept once."""
    paths: dict[int, list] = {}
    offset = 0.0
    for trajectories in episodes:
        for t in trajectories:
            points = [(x, y, time + offset) for x, y, time in t.waypoints]
            path = paths.setdefault(t.robot_id, [])
            if path:
                assert points[0] == path[-1]
                points = points[1:]
            path.extend(points)
        offset = paths[1][-1][2]
    return [Trajectory(r, tuple(path)) for r, path in sorted(paths.items())]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 5),
    num_sets=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from((2, 3, 5)),
)
def test_verify_episode_by_episode_equals_whole_sequence(n, num_sets, seed, m):
    """Folding a task sequence's executed episodes one by one through
    ``verify``, passing the tables forward, gives the same per-angle tables
    as verifying the whole sequence lifted at once, and the planner's final
    tables are those at the grid angles.  A failed episode leaves the team
    state as it was, so only the successful ones are chained."""
    scenario = make_scenario(n, num_sets, seed, m=m)
    episodes = []
    with pytest.MonkeyPatch.context() as mp:
        real_map_path = harness.map_path

        def recording_map_path(*args, **kwargs):
            episodes.append(real_map_path(*args, **kwargs))
            return episodes[-1]

        mp.setattr(harness, "map_path", recording_map_path)
        metrics = run_task_sequence(scenario)
    executed = [r for r in metrics.results if r.reason not in ("max_expansions", "exhausted")]
    assert len(executed) == len(episodes)
    kept = [trajectories for r, trajectories in zip(executed, episodes) if r.success]
    angles = scenario.angles + tuple(a for a in AXIS_ANGLES if a not in scenario.angles)

    tables = None
    for trajectories in kept:
        report, tables = verify(build_space_time(trajectories), angles, tables)
        assert report.ok
    if not kept:
        return
    report, whole = verify(build_space_time(_back_to_back(kept)), angles)
    assert report.ok
    assert whole == tables
    assert metrics.final_braids == tuple(whole[angles.index(a)] for a in AXIS_ANGLES)


@st.composite
def lattice_scenarios(draw) -> Scenario:
    """A team of 2 to 5 on the integer points of an (n + 2)-square
    workspace, so robots often share an x or a y coordinate."""
    n = draw(st.integers(2, 5))
    side = n + 2
    point = st.tuples(st.integers(0, side), st.integers(0, side)).map(
        lambda p: (float(p[0]), float(p[1]))
    )
    team = st.lists(point, min_size=n, max_size=n, unique=True).map(tuple)
    initial = draw(team)
    target_sets = tuple(draw(st.lists(team, min_size=1, max_size=4)))
    config = WorkspaceConfig(0.0, side, 0.0, side, cell_size=1.0, d_safe=1.0, speed=1.0)
    return Scenario(config, initial, initial, target_sets)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenario=lattice_scenarios())
def test_planner_ranks_agree_with_verifier_at_lattice_ties(scenario):
    """The planner's ranks and the verifier's sweep order robots on a plane
    alike, exact ties included, so every episode's predicted tables equal
    the folded ones.  At angle 0, u = y exactly, so robots that start on
    one row are a tie that the first episode's verifier records."""
    metrics = run_task_sequence(scenario)
    assert all(r.tables_consistent for r in metrics.results)
    first = metrics.results[0]
    rows = {y for _, y in scenario.initial_positions}
    if len(rows) < scenario.n and first.horizon > 0 and first.reason != "degenerate":
        assert first.perturbations > 0


def test_run_task_sequence_degenerate_episode_fails_and_continues(monkeypatch):
    # at m = 4 the diagonal check angles can see simultaneous crossings that
    # no order of adjacent swaps explains; such an episode fails and the
    # team state it started from carries on to the next one (seed 3 meets
    # three such episodes, sets 1, 9 and 12)
    calls = []
    real_verify = harness.verify

    def recording_verify(team, angles, tables):
        calls.append((team, tables))
        return real_verify(team, angles, tables)

    monkeypatch.setattr(harness, "verify", recording_verify)
    scenario = make_scenario(5, 20, 3, m=4)
    metrics = run_task_sequence(scenario)
    assert metrics.sets_total == 20
    assert metrics.successes > 0
    executed = [r for r in metrics.results if r.reason not in ("max_expansions", "exhausted")]
    assert len(executed) == len(calls)
    degenerate = [k for k, r in enumerate(executed) if r.reason == "degenerate"]
    assert degenerate
    for k in degenerate:
        assert not executed[k].success
        assert executed[k].violations == ()
        if k + 1 < len(calls):
            (before, tables), (after, next_tables) = calls[k], calls[k + 1]
            assert next_tables == tables
            assert after.xy[:, 0].tolist() == before.xy[:, 0].tolist()


def test_bench_tracer_hooks_name_callables(monkeypatch):
    # bench/run.py --trace 1 wraps these names by getattr on the modules its
    # worker installs the tracer on; a missing one would fail only there
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {key: importlib.import_module(f"braidplan.{key}")
               for key in ("harness", "workspace", "planner")}
    assert set(tracing.HOOKS) == set(modules)
    for key, hooks in tracing.HOOKS.items():
        for attr, _span in hooks:
            assert callable(getattr(modules[key], attr, None)), f"braidplan.{key}.{attr}"
            # registers the original, so teardown undoes the tracer's wraps
            monkeypatch.setattr(modules[key], attr, getattr(modules[key], attr))
    tracer = tracing.Tracer()
    tracer.install(modules)
    metrics = run_task_sequence(make_scenario(3, 4, 0))
    assert metrics.success_rate == 1.0
    assert tracer.calls["harness.verify"] == metrics.sets_total
    assert tracer.calls["braid.update_pair"] > 0
    assert tracer.calls["braid.update_triplet"] > 0
