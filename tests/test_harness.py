"""Harness tests: motion sampling, the independent verifier, and full runs.

The entangling-weave fixture drives three robots so their y-projection
braid reads s1 S2 s1, the middle strand threading over-under-over, which
the verifier must flag; clean episodes must leave its tables in exact
agreement with the planner's.  Full runs fold each episode's crossings
once, and the planner's carried table is the verifier's at the grid
angles.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from braidplan import harness, workspace
from braidplan.errors import ConfigurationError, InputError
from braidplan.geometry import Trajectory
from braidplan.harness import (
    DEFAULT_GAMMA_BAR,
    Scenario,
    make_scenario,
    random_targets,
    run_task_sequence,
    simulate,
    verify,
)
from braidplan.planner import AXIS_ANGLES, BraidTable, PermutationState, plan
from braidplan.workspace import (
    WorkspaceConfig,
    carry_over_braids,
    grid_cells,
    map_path,
    ranks_from_positions,
)


def _config(side: float = 12.0) -> WorkspaceConfig:
    return WorkspaceConfig(
        xmin=0.0, xmax=side, ymin=0.0, ymax=side,
        height=1.0, cell_size=1.0, d_safe=1.0, speed=1.0,
    )


# ---------------------------------------------------------------------------
# simulate.
# ---------------------------------------------------------------------------


def test_simulate_passing_robots_pinned():
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (4.0, 0.0, 2.0)))
    r2 = Trajectory(2, ((4.0, 1.0, 0.0), (0.0, 1.0, 2.0)))
    sim = simulate([r1, r2], dt=0.1)
    assert abs(sim.min_distance - 1.0) < 1e-6
    assert abs(sim.time - 1.0) < 0.11
    assert sim.ids == (1, 2)
    assert sim.horizon == 2.0


def test_simulate_includes_waypoint_times():
    # the closest approach happens exactly at a waypoint between samples
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (0.0, 0.95, 0.333), (0.0, 0.0, 1.0)))
    r2 = Trajectory(2, ((0.0, 2.0, 0.0), (0.0, 2.0, 1.0)))
    sim = simulate([r1, r2], dt=0.25)
    assert abs(sim.min_distance - 1.05) < 1e-9
    assert sim.time == 0.333


def test_simulate_single_robot_and_validation():
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0)))
    sim = simulate([r1], dt=0.1)
    assert sim.min_distance == math.inf
    with pytest.raises(InputError):
        simulate([r1], dt=0.0)
    with pytest.raises(InputError):
        simulate([r1], dt=math.inf)


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
    config = _config()
    angles = (0.0, math.pi / 2, math.pi)
    result, trajectories = _planned_trajectories(rng, 4, config)
    report, tables = verify(trajectories, angles, height=config.height)
    assert report.ok
    assert report.violations == ()
    final = result.final_braids
    # angle pi/2 is grid axis 1, angle 0 is grid axis 2
    ax1 = tables[angles.index(AXIS_ANGLES[0])]
    ax2 = tables[angles.index(AXIS_ANGLES[1])]
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert ax1.pair_state(i, j, 1) == final.pair_state(i, j, 1)
            assert ax2.pair_state(i, j, 1) == final.pair_state(i, j, 2)
            for k in range(j + 1, 5):
                assert ax1.triplet_state(i, j, k, 1) == final.triplet_state(i, j, k, 1)
                assert ax2.triplet_state(i, j, k, 1) == final.triplet_state(i, j, k, 2)


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
    report, tables = verify(_weave_fixture(), (0.0,))
    assert not report.ok
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.ids == (1, 2, 3)
    assert violation.word == "s1 S2 s1"
    assert violation.axis_angle == 0.0
    assert abs(violation.time - 2.5) < 1e-9
    # the flagged state is sticky in the returned table
    assert tables[0].triplet_state(1, 2, 3, 1).violated
    assert not tables[0].is_clean


def test_verify_mirror_angle_sees_flipped_weave():
    # angle pi views the same motion from behind: the braid flips to
    # s2 S1 s2, which is forbidden as well
    report, _ = verify(_weave_fixture(), (math.pi,))
    assert not report.ok
    assert report.violations[0].word == "s2 S1 s2"


def test_verify_carries_tables_between_episodes():
    first = [
        Trajectory(1, ((1.0, 0.0, 0.0), (1.0, 2.0, 1.0))),
        Trajectory(2, ((0.0, 1.0, 0.0), (0.0, 1.0, 1.0))),
    ]
    report1, tables1 = verify(first, (0.0,))
    assert report1.ok
    assert tables1[0].pair_state(1, 2, 1).exponent_sum == 1
    second = [
        Trajectory(1, ((1.0, 2.0, 0.0), (1.0, 0.0, 2.0))),
        Trajectory(2, ((0.0, 1.0, 0.0), (3.0, 1.0, 1.0), (3.0, 1.0, 2.0))),
    ]
    report2, tables2 = verify(second, (0.0,), tables1)
    assert not report2.ok
    violation = report2.violations[0]
    assert violation.ids == (1, 2)
    assert violation.word == "s1 s1"
    assert tables2[0].pair_state(1, 2, 1).violated


def test_verify_stationary_is_clean():
    still = [Trajectory(1, ((0.0, 0.0, 0.0),)), Trajectory(2, ((3.0, 3.0, 0.0),))]
    tables_in = (BraidTable.identity(2, axes_count=1),)
    report, tables = verify(still, (0.0,), tables_in)
    assert report.ok
    assert tables is tables_in


def test_verify_validation():
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0)))
    r3 = Trajectory(3, ((2.0, 0.0, 0.0), (2.0, 1.0, 1.0)))
    with pytest.raises(InputError):
        verify([r1, r3], (0.0,))
    r2 = Trajectory(2, ((2.0, 0.0, 0.0), (2.0, 1.0, 1.0)))
    with pytest.raises(InputError):
        verify([r1, r2], ())
    with pytest.raises(InputError):
        verify([r1, r2], (0.0, 1.0), (BraidTable.identity(2, axes_count=1),))
    with pytest.raises(InputError):
        verify([r1, r2], (0.0,), (BraidTable.identity(2),))


# ---------------------------------------------------------------------------
# Scenario construction.
# ---------------------------------------------------------------------------


def test_random_targets_spacing_and_determinism():
    config = _config()
    a = random_targets(config, 6, random.Random(31))
    b = random_targets(config, 6, random.Random(31))
    assert a == b
    for p in a:
        assert config.contains(p)
    for i in range(6):
        for j in range(i + 1, 6):
            assert math.dist(a[i], a[j]) >= config.d_safe


def test_random_targets_gives_up():
    tight = WorkspaceConfig(0, 2, 0, 2, height=1, cell_size=1, d_safe=1, speed=1)
    with pytest.raises(ConfigurationError):
        random_targets(tight, 50, random.Random(32), max_attempts=200)


def test_make_scenario_reproducible():
    sc1 = make_scenario(4, 3, 33)
    sc2 = make_scenario(4, 3, 33)
    assert sc1 == sc2
    assert sc1.n == 4
    assert len(sc1.target_sets) == 3
    assert sc1.angles == (0.0, math.pi / 2, math.pi)
    assert sc1.dt == sc1.config.cell_size / (10.0 * sc1.config.speed)


def test_scenario_validation():
    config = _config()
    pts = ((2.0, 2.0), (6.0, 6.0))
    with pytest.raises(ConfigurationError):
        Scenario(config, ((2.0, 2.0),), pts, (pts,))
    with pytest.raises(ConfigurationError):
        Scenario(config, pts, pts, (pts,), m=1)
    with pytest.raises(ConfigurationError):
        Scenario(config, pts, pts, (pts,), gamma_bar=0.0)
    with pytest.raises(ConfigurationError):
        Scenario(config, pts, pts, (((2.0, 2.0), (2.2, 2.0)),))
    with pytest.raises(ConfigurationError):
        Scenario(config, pts, pts, (pts,), bias=0.0)
    with pytest.raises(ConfigurationError):
        Scenario(config, pts, pts, (pts,), max_expansions=0)
    # pi / gamma_bar just under 2 admits m = 2
    assert Scenario(config, pts, pts, (pts,), m=2).angles == (0.0, math.pi / 2, math.pi)


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


def test_run_task_sequence_failure_reverts_state():
    scenario = make_scenario(3, 3, 35, max_expansions=1)
    metrics = run_task_sequence(scenario)
    assert metrics.success_rate == 0.0
    assert all(r.reason == "max_expansions" for r in metrics.results)
    assert metrics.final_positions == scenario.initial_positions
    assert metrics.final_braids == BraidTable.identity(3)
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


def test_run_task_sequence_folds_each_episode_once(monkeypatch):
    # m = 2: one lift per episode and one extraction per angle of A(2),
    # which already holds both grid angles
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
    assert counts == {"lift": episodes, "extract": 3 * episodes}


def test_run_task_sequence_odd_m_carries_grid_angle_tables(monkeypatch):
    # pi/2 is not in A(3), so the verifier folds it as an extra angle; this
    # sequence also has episodes refused for violations at other angles
    scenario = make_scenario(4, 30, 60, m=3)
    assert AXIS_ANGLES[0] not in scenario.angles
    calls = []
    real_verify = harness.verify

    def recording_verify(trajectories, angles, tables, **kwargs):
        out = real_verify(trajectories, angles, tables, **kwargs)
        calls.append((trajectories, angles, out[1]))
        return out

    monkeypatch.setattr(harness, "verify", recording_verify)
    metrics = run_task_sequence(scenario)
    assert metrics.all_tables_consistent
    assert 0 < metrics.successes < metrics.sets_total
    assert any(r.reason == "violation" for r in metrics.results)
    executed = [r for r in metrics.results if r.reason not in ("max_expansions", "exhausted")]
    assert len(executed) == len(calls)

    # replay the successful episodes through the two-axis carry-over
    carried = BraidTable.identity(4)
    for result, (trajectories, angles, tables) in zip(executed, calls):
        if result.success:
            carried = carry_over_braids(trajectories, carried)
            last_angles, last_tables = angles, tables
    t1, t2 = (last_tables[last_angles.index(a)] for a in AXIS_ANGLES)
    from_verifier = BraidTable(4, 2, t1.pairs + t2.pairs, t1.triplets + t2.triplets)
    assert metrics.final_braids == from_verifier
    assert metrics.final_braids == carried
    assert carried != BraidTable.identity(4)
