"""Each output check accepts a real episode and rejects a corrupted copy.

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from braidplan.harness import make_scenario  # noqa: E402
from braidplan.planner import plan  # noqa: E402
from braidplan.workspace import map_path, ranks_from_positions  # noqa: E402

import checks  # noqa: E402
from checks import CrossingFold, Episode, check_episode  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import percentile  # noqa: E402


@pytest.fixture(scope="module")
def clean():
    scenario = make_scenario(4, 1, 3)
    start, targets = scenario.initial_positions, scenario.target_sets[0]
    outcome = plan(ranks_from_positions(start), ranks_from_positions(targets))
    trajectories = map_path(outcome.path, scenario.config, start, targets)
    episode = Episode(
        start=start,
        targets=targets,
        path=tuple((p.pi1, p.pi2) for p in outcome.path),
        trajectories={t.robot_id: t.waypoints for t in trajectories},
        success=True,
        verifier_ok=True,
        tables_consistent=True,
    )
    assert len(episode.path) >= 3
    return episode, scenario.config.d_safe


def corrupt(episode: Episode, **changes) -> Episode:
    return dataclasses.replace(episode, **changes)


def test_clean_episode_passes_every_check(clean):
    episode, d_safe = clean
    assert check_episode(episode, d_safe, CrossingFold()) == []


def test_path_endpoints_rejects_wrong_start_and_end(clean):
    episode, _ = clean
    assert checks.check_path_endpoints(corrupt(episode, path=episode.path[1:]))
    assert checks.check_path_endpoints(corrupt(episode, path=episode.path[:-1]))


def test_path_steps_rejects_a_jump(clean):
    episode, _ = clean
    first, second = episode.path[0], episode.path[1]
    both_axes = (second[0], tuple(reversed(first[1])))
    path = (first, both_axes) + episode.path[2:]
    assert checks.check_path_steps(corrupt(episode, path=path))
    n = len(first[0])
    far = (tuple(n + 1 - r for r in first[0]), first[1])  # reverses axis 1 at once
    assert checks.check_path_steps(corrupt(episode, path=(first, far)))


def test_path_length_rejects_fewer_actions_than_inversions(clean):
    episode, _ = clean
    shortcut = (episode.path[0], episode.path[-1])
    assert checks.check_path_length(corrupt(episode, path=shortcut))


def test_trajectory_endpoints_rejects_moved_ends(clean):
    episode, _ = clean
    waypoints = episode.trajectories[1]
    late = dict(episode.trajectories)
    x, y, t = waypoints[-1]
    late[1] = waypoints[:-1] + ((x + 0.25, y, t),)
    assert checks.check_trajectory_endpoints(corrupt(episode, trajectories=late))
    early = dict(episode.trajectories)
    x, y, t = waypoints[0]
    early[1] = ((x, y - 0.25, t),) + waypoints[1:]
    assert checks.check_trajectory_endpoints(corrupt(episode, trajectories=early))
    missing = {r: w for r, w in episode.trajectories.items() if r != 2}
    assert checks.check_trajectory_endpoints(corrupt(episode, trajectories=missing))


def test_separation_rejects_robots_too_close(clean):
    episode, d_safe = clean
    shadow = dict(episode.trajectories)
    shadow[2] = tuple((x + 0.5 * d_safe, y, t) for x, y, t in episode.trajectories[1])
    assert checks.check_separation(corrupt(episode, trajectories=shadow), d_safe)


def test_separation_sees_closest_approach_between_waypoints():
    crossing = {
        1: ((0.0, 0.0, 0.0), (2.0, 2.0, 1.0)),
        2: ((2.0, 0.0, 0.0), (0.0, 2.0, 1.0)),
    }
    assert checks.min_separation(crossing) == pytest.approx(0.0, abs=1e-12)
    episode = Episode(((0.0, 0.0), (2.0, 0.0)), ((2.0, 2.0), (0.0, 2.0)), (), crossing, True, True, True)
    assert checks.check_separation(episode, 1.0)


def test_crossing_fold_rejects_a_full_twist():
    # Robots 1 and 2 swap x order, then y order, then x order back: both
    # x swaps pass the same robot in front, a full twist of the pair.
    path = (
        ((1, 2), (1, 2)),
        ((2, 1), (1, 2)),
        ((2, 1), (2, 1)),
        ((1, 2), (2, 1)),
    )
    assert CrossingFold().fold(path)
    assert CrossingFold().fold(path[:3]) is None


def test_crossing_fold_carries_across_episodes():
    fold = CrossingFold()
    assert fold.fold((((1, 2), (1, 2)), ((2, 1), (1, 2)), ((2, 1), (2, 1)))) is None
    assert fold.fold((((2, 1), (2, 1)), ((1, 2), (2, 1)))) is not None


def test_crossing_fold_accepts_undo():
    there_and_back = (((1, 2), (1, 2)), ((2, 1), (1, 2)), ((1, 2), (1, 2)))
    fold = CrossingFold()
    assert fold.fold(there_and_back) is None
    assert fold.fold(there_and_back) is None


def test_verdict_rejects_each_failure_flag(clean):
    episode, d_safe = clean
    for flag in ("success", "verifier_ok", "tables_consistent"):
        assert checks.check_verdict(corrupt(episode, **{flag: False}))
        assert check_episode(corrupt(episode, **{flag: False}), d_safe, CrossingFold())


def test_ranks_of_matches_the_program(clean):
    episode, _ = clean
    for positions in (episode.start, episode.targets):
        perms = ranks_from_positions(positions)
        assert checks.ranks_of(positions) == (perms.pi1, perms.pi2)


def test_percentile_is_harrell_davis():
    assert percentile([3.0], 99.0) == pytest.approx(3.0)
    assert percentile([2.0] * 50, 87.0) == pytest.approx(2.0)
    values = [float(v) for v in range(1, 102)]
    assert percentile(values, 50.0) == pytest.approx(51.0, rel=1e-6)
    tails = [percentile(values, p) for p in (80.0, 87.0, 99.0)]
    assert tails == sorted(tails)
    # Two samples: the larger one weighs 1 - I_(1/2)(2.4, 0.6) at q = 0.8.
    steps = 200_000
    head = sum(((k + 0.5) / steps / 2) ** 1.4 * (1 - (k + 0.5) / steps / 2) ** -0.4
               for k in range(steps)) / steps / 2
    beta = math.gamma(2.4) * math.gamma(0.6) / math.gamma(3.0)
    assert percentile([0.0, 1.0], 80.0) == pytest.approx(1 - head / beta, abs=1e-4)


def test_percentile_matches_scipy():
    mstats = pytest.importorskip("scipy.stats.mstats")
    rng = np.random.default_rng(1)
    for n in (60, 77, 12_000):
        values = rng.lognormal(size=n)
        for pct in (50.0, 83.0, 87.0, 99.0):
            expected = float(mstats.hdquantiles(values, prob=[pct / 100.0])[0])
            assert percentile(list(values), pct) == pytest.approx(expected, rel=1e-3)


def test_tracer_self_times_add_up_to_root_time():
    tracer = Tracer()

    def leaf():
        return sum(range(20_000))

    traced_leaf = tracer.wrap(leaf, "leaf")

    def outer():
        sum(range(20_000))
        traced_leaf()
        traced_leaf()

    traced_outer = tracer.wrap(outer, "outer")
    traced_outer()
    traced_leaf()
    assert tracer.calls == {"leaf": 3, "outer": 1}
    assert list(tracer.span_parent) == [-1, 0, 0, -1]
    self_s, inclusive_s, root_s = tracer.totals()
    assert sum(self_s.values()) == pytest.approx(root_s, rel=1e-12)
    assert self_s["outer"] == pytest.approx(
        inclusive_s["outer"] - (tracer.span_end[1] - tracer.span_start[1])
        - (tracer.span_end[2] - tracer.span_start[2]),
        rel=1e-9,
    )
