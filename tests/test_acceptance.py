"""Acceptance battery for the toolkit.

Seven checks, each printing one verdict line (run with ``pytest
tests/test_acceptance.py -s`` to watch them stream):

1.  Task sequences over teams of 6, 8, and 10 robots, 100 random target
    sets per size across three seeds: every set reached, zero
    entanglement or clearance violations.
2.  Planning time: order-of-magnitude caps on mean plan time for n=10
    (10 s) and n=3 (50 ms).
3.  At least 1000 planned-and-executed episodes over n=2..10: the
    independent verifier is clean on every successful set and its folded
    braid tables match the planner's prediction exactly.
4.  Exact braid algebra: the Burau relation and inverse cancellation, a
    bounded-rewriting equivalence property, distinctness of the four
    forbidden 3-strand patterns, and incremental == batch folding over
    10^4 random words.
5.  From clean tables the planner returns shortest paths: exhaustive
    comparison against breadth-first search for n<=4 and an
    inversion-count oracle at n=6.
6.  Minimum pairwise separation stays at or above d_safe on every
    executed plan, cross-checked against the per-swap geometric bound.
7.  Scope note: hardware distance plots and comparisons against other
    planners are out of scope; property suites and per-run distance
    reporting stand in.

The whole battery replans hundreds of episodes and takes a few minutes.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from braidplan.braid import (
    _VIOLATED,
    BraidLetter,
    BraidWord,
    triplet_element,
    triplet_state_from_word,
    triplet_word_text,
    update_triplet,
)
from braidplan.geometry import build_space_time
from braidplan.harness import make_scenario, run_task_sequence, simulate
from braidplan.planner import BraidTable, PermutationState, plan
from braidplan.workspace import map_path, ranks_from_positions
from burau_oracle import ORACLE_GEN, ORACLE_ID, RELATION_FROZEN, freeze, mmul, oracle_burau
from grid import grid_distances, inversions
from sampling import position_at

SEEDS = (11, 12, 13)
SET_SPLITS = (34, 33, 33)
TEAM_SIZES = (6, 8, 10)
SLACK = 1e-9


def _guard(num: int, check) -> None:
    """Run one criterion body and print exactly one verdict line."""
    try:
        detail = check()
    except BaseException as exc:
        print(f"ACCEPTANCE CRITERION {num}: FAIL [{exc}]")
        raise
    print(f"ACCEPTANCE CRITERION {num}: PASS [{detail}]")


@pytest.fixture(scope="module")
def sequence_runs():
    """100 target sets per team size, split across three seeds."""
    runs = {}
    for n in TEAM_SIZES:
        for seed, sets in zip(SEEDS, SET_SPLITS):
            t0 = time.perf_counter()
            metrics = run_task_sequence(make_scenario(n, sets, seed))
            runs[(n, seed)] = (metrics, time.perf_counter() - t0)
    return runs


def test_criterion_1_success_rate(sequence_runs):
    def check():
        splits = dict(zip(SEEDS, SET_SPLITS))
        total = successes = 0
        elapsed = 0.0
        for (n, seed), (metrics, wall) in sequence_runs.items():
            assert metrics.sets_total == splits[seed]
            assert metrics.success_rate == 1.0
            assert metrics.total_violations == 0
            assert metrics.all_tables_consistent
            assert all(r.reason == "ok" for r in metrics.results)
            total += metrics.sets_total
            successes += metrics.successes
            elapsed += wall
        assert total == 100 * len(TEAM_SIZES)
        assert successes == total
        return (
            f"{successes}/{total} target sets reached for n=6,8,10; "
            f"0 violations; {elapsed:.0f} s wall time"
        )

    _guard(1, check)


def test_criterion_2_plan_times(sequence_runs):
    def check():
        times10 = [
            r.plan_time_s
            for (n, _), (metrics, _) in sequence_runs.items()
            if n == 10
            for r in metrics.results
        ]
        mean10 = sum(times10) / len(times10)
        assert mean10 <= 10.0
        metrics3 = run_task_sequence(make_scenario(3, 40, 50))
        assert metrics3.success_rate == 1.0
        mean3 = metrics3.mean_plan_time_s
        assert mean3 <= 0.050
        return (
            f"mean plan time {mean10 * 1000:.0f} ms at n=10 (cap 10 s), "
            f"{mean3 * 1000:.2f} ms at n=3 (cap 50 ms)"
        )

    _guard(2, check)


def test_criterion_3_verifier_agreement(sequence_runs):
    # extra episode counts per team size, one entry per seed
    extra = {
        2: (80, 80, 80),
        3: (80, 80, 80),
        4: (54, 53, 53),
        5: (40, 40, 40),
        7: (22, 21, 21),
        9: (11, 11, 10),
    }

    def check():
        episodes = successes = 0

        def absorb(metrics):
            nonlocal episodes, successes
            episodes += metrics.sets_total
            for r in metrics.results:
                if r.success:
                    successes += 1
                    assert r.violations == ()
                    assert r.tables_consistent
                    assert r.min_distance >= 1.0 - SLACK

        for metrics, _ in sequence_runs.values():
            absorb(metrics)
        for n, counts in extra.items():
            for k, sets in enumerate(counts):
                absorb(run_task_sequence(make_scenario(n, sets, 100 + 10 * n + k)))
        assert successes == episodes
        assert successes >= 1000
        sizes = sorted(set(TEAM_SIZES) | set(extra))
        return (
            f"{successes} executed episodes over n={sizes[0]}..{sizes[-1]}, "
            f"verifier clean and braid tables exactly equal on every one"
        )

    _guard(3, check)


# ---------------------------------------------------------------------------
# Criterion 4: checked against the independent reduced-Burau oracle of
# ``burau_oracle``, which shares no code with the package.
# ---------------------------------------------------------------------------

_FORBIDDEN_WORDS = ("s1 S2 s1", "s2 S1 s2", "S1 s2 S1", "S2 s1 S2")


def _letters(text: str) -> tuple:
    word = BraidWord.from_text(text, 3)
    return tuple((l.index, l.sign) for l in word.letters)


def _rewrite_once(rng: random.Random, letters: list, cap: int) -> None:
    """Apply one random element-preserving rewrite in place."""
    ops = ["insert"] if len(letters) + 2 <= cap else []
    cancel_at = [
        i for i in range(len(letters) - 1)
        if letters[i][0] == letters[i + 1][0] and letters[i][1] == -letters[i + 1][1]
    ]
    if cancel_at:
        ops.append("cancel")
    relation_at = [
        i for i in range(len(letters) - 2)
        if abs(letters[i][0] - letters[i + 1][0]) == 1
        and letters[i + 2] == letters[i]
        and letters[i][1] == letters[i + 1][1] == letters[i + 2][1]
    ]
    if relation_at:
        ops.append("relation")
    op = rng.choice(ops)
    if op == "insert":
        pos = rng.randint(0, len(letters))
        g, s = rng.choice((1, 2)), rng.choice((1, -1))
        letters[pos:pos] = [(g, s), (g, -s)]
    elif op == "cancel":
        i = rng.choice(cancel_at)
        del letters[i:i + 2]
    else:
        i = rng.choice(relation_at)
        s = letters[i][1]
        a, b = letters[i][0], letters[i + 1][0]
        letters[i:i + 3] = [(b, s), (a, s), (b, s)]


def test_criterion_4_braid_algebra():
    def check():
        rng = random.Random(41)

        # (a) the braid relation and inverse cancellation, exactly
        lhs = oracle_burau(_letters("s1 s2 s1"))
        assert freeze(lhs) == RELATION_FROZEN
        assert lhs == oracle_burau(_letters("s2 s1 s2"))
        for text in ("s1 S1", "S1 s1", "s2 S2", "S2 s2"):
            assert oracle_burau(_letters(text)) == ORACLE_ID
        assert triplet_element(BraidWord.from_text("s1 s2 s1", 3)) == triplet_element(
            BraidWord.from_text("s2 s1 s2", 3)
        )
        assert triplet_element(BraidWord.from_text("s1 S1", 3)) == triplet_element(BraidWord(3))

        # (b) rewriting-equivalent words have equal Burau images
        for _ in range(2000):
            start = [
                (rng.choice((1, 2)), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 9))
            ]
            rewritten = list(start)
            for _ in range(rng.randint(1, 4)):
                _rewrite_once(rng, rewritten, cap=12)
            assert oracle_burau(start) == oracle_burau(rewritten)

        # (c) the four forbidden patterns are pairwise distinct, not the
        # identity, and the package flags four distinct elements for them
        oracle_forbidden = [oracle_burau(_letters(t)) for t in _FORBIDDEN_WORDS]
        for i, m in enumerate(oracle_forbidden):
            assert m != ORACLE_ID
            for other in oracle_forbidden[i + 1:]:
                assert m != other
        pkg_forbidden = {
            triplet_element(BraidWord.from_text(t, 3)) for t in _FORBIDDEN_WORDS
        }
        assert len(pkg_forbidden) == 4
        assert triplet_element(BraidWord(3)) not in pkg_forbidden
        for t in _FORBIDDEN_WORDS:
            assert _VIOLATED[triplet_state_from_word(BraidWord.from_text(t, 3))]

        # (d) incremental folding equals batch folding, 10^4 random words;
        # a forbidden prefix is terminal, so folding stops there
        oracle_budget = 1500
        forbidden_set = [freeze(m) for m in oracle_forbidden]
        flagged_words = 0
        for trial in range(10_000):
            k = rng.randint(0, 50)
            letters = [
                BraidLetter(rng.choice((1, 2)), rng.choice((1, -1)))
                for _ in range(k)
            ]
            state = 0
            consumed = 0
            for letter in letters:
                state, safe = update_triplet(state, letter)
                consumed += 1
                if not safe:
                    break
            if consumed:
                assert _VIOLATED[state] == (not safe)
            else:
                assert not _VIOLATED[state]
            batch = triplet_state_from_word(BraidWord(3, tuple(letters[:consumed])))
            assert state == batch
            flagged_words += _VIOLATED[state]
            if trial < oracle_budget:
                prefix = ORACLE_ID
                for index, sign in (
                    (l.index, l.sign) for l in letters[:consumed]
                ):
                    prefix = mmul(prefix, ORACLE_GEN[(index, sign)])
                assert (freeze(prefix) in forbidden_set) == _VIOLATED[state]
                for j in range(consumed - 1):
                    partial = oracle_burau(
                        (l.index, l.sign) for l in letters[: j + 1]
                    )
                    assert freeze(partial) not in forbidden_set
                assert oracle_burau(
                    _letters(triplet_word_text(state))
                ) == prefix
        assert flagged_words > 0
        return (
            "relation + cancellation exact, 2000 rewriting pairs agree, "
            "4 forbidden matrices distinct, incremental == batch on 10^4 words"
        )

    _guard(4, check)


# ---------------------------------------------------------------------------
# Criterion 5: optimality from clean tables.
# ---------------------------------------------------------------------------

def _plan_length(start: tuple, target: tuple) -> int:
    result = plan(PermutationState(*start), PermutationState(*target))
    assert result.trace.reason == "goal"
    return len(result.path) - 1


def test_criterion_5_optimal_when_unconstrained():
    def check():
        checked = 0
        # n=3: every start against every target
        perms3 = [tuple(p) for p in itertools.permutations((1, 2, 3))]
        states3 = [(p1, p2) for p1 in perms3 for p2 in perms3]
        for start in states3:
            dist = grid_distances(start)
            for target in states3:
                optimal = dist[target]
                assert optimal == (
                    inversions(start[0], target[0])
                    + inversions(start[1], target[1])
                )
                assert _plan_length(start, target) == optimal
                checked += 1

        # n=4: identity start against the whole state space
        perms4 = [tuple(p) for p in itertools.permutations((1, 2, 3, 4))]
        identity4 = ((1, 2, 3, 4), (1, 2, 3, 4))
        dist4 = grid_distances(identity4)
        for p1 in perms4:
            for p2 in perms4:
                target = (p1, p2)
                optimal = dist4[target]
                assert optimal == (
                    inversions(identity4[0], p1) + inversions(identity4[1], p2)
                )
                assert _plan_length(identity4, target) == optimal
                checked += 1

        # n=6: BFS is out of reach, but the axes decouple and each is
        # adjacent-transposition sorting, so the inversion count is the
        # optimum (confirmed against BFS exhaustively above)
        rng = random.Random(42)
        perms6 = [tuple(p) for p in itertools.permutations(range(1, 7))]
        for _ in range(200):
            start = (rng.choice(perms6), rng.choice(perms6))
            target = (rng.choice(perms6), rng.choice(perms6))
            optimal = inversions(start[0], target[0]) + inversions(
                start[1], target[1]
            )
            assert _plan_length(start, target) == optimal
            checked += 1
        return f"{checked} instances match the BFS/inversion optimum exactly"

    _guard(5, check)


def test_criterion_6_clearance(sequence_runs):
    def check():
        worst = min(
            r.min_distance
            for metrics, _ in sequence_runs.values()
            for r in metrics.results
        )
        assert worst >= 1.0 - SLACK  # make_scenario uses d_safe = 1.0

        # replay a few episodes and cross-check the per-swap geometric
        # bound: while exactly two robots trade adjacent cells their
        # separation never drops below one cell
        scenario = make_scenario(6, 3, 11)
        config = scenario.config
        positions = scenario.initial_positions
        table = (BraidTable.identity(6),) * 2
        windows = 0
        for targets in scenario.target_sets:
            start_perms = ranks_from_positions(positions)
            target_perms = ranks_from_positions(targets)
            outcome = plan(start_perms, target_perms, table)
            assert outcome.trace.reason == "goal"
            trajectories = map_path(outcome.path, config, positions, targets)
            fine = simulate(build_space_time(trajectories))
            assert fine.min_distance >= config.d_safe - SLACK
            times = sorted({w[2] for t in trajectories for w in t.waypoints})
            for t0, t1 in zip(times, times[1:]):
                movers = [
                    t for t in trajectories
                    if position_at(t, t0) != position_at(t, t1)
                ]
                if len(movers) != 2:
                    continue
                windows += 1
                a, b = movers
                for k in range(21):
                    s = t0 + (t1 - t0) * k / 20
                    assert math.dist(
                        position_at(a, s), position_at(b, s)
                    ) >= config.cell_size - SLACK
            positions = targets
            table = outcome.final_braids
        assert windows > 0
        return (
            f"min separation {worst:.3f} >= d_safe on all 300 sets; "
            f"{windows} swap windows hold the one-cell analytic bound"
        )

    _guard(6, check)


def test_criterion_7_out_of_scope_substitutes():
    def check():
        metrics = run_task_sequence(make_scenario(4, 5, 60))
        assert metrics.success_rate == 1.0
        assert all(math.isfinite(r.min_distance) for r in metrics.results)
        assert metrics.mean_min_distance >= 1.0 - SLACK
        return (
            "hardware distance plots and cross-planner comparisons are out "
            "of scope; RunMetrics distance reporting and the property "
            "suites stand in"
        )

    _guard(7, check)
