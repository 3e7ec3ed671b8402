"""Shortest braid-checked plans at n <= 4, from a breadth-first oracle.

The oracle walks the permutation grid with ``action_space`` and
``braid_letter_for_action`` and folds every letter into braid states of its
own: a pair's crossing count must stay within +-1, and a triplet's braid, a
Burau matrix from ``burau_oracle``, must not be one of the four entangling
patterns.  It shares no code with ``expand``, ``_child`` or the planner's
tables, so its distances are the true optima of braid-checked planning.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from functools import lru_cache

from braidplan import harness, planner
from braidplan.braid import _WORD, triplet_word_text
from braidplan.harness import make_scenario, run_task_sequence
from braidplan.planner import (
    BraidTable,
    GridNode,
    PermutationState,
    SwapAction,
    action_space,
    braid_letter_for_action,
    plan,
)
from burau_oracle import ORACLE_GEN, ORACLE_ID, freeze, mmul, oracle_burau, parse_keys

_FORBIDDEN = frozenset(
    freeze(oracle_burau(parse_keys(text)))
    for text in ("s1 S2 s1", "s2 S1 s2", "S1 s2 S1", "S2 s1 S2")
)

# Oracle braids are numbered in the order first met; 0 is the identity.
_BRAIDS: list[tuple] = [freeze(ORACLE_ID)]
_BRAID_IDS: dict[tuple, int] = {_BRAIDS[0]: 0}


def _braid_id(frozen: tuple) -> int:
    if frozen not in _BRAID_IDS:
        _BRAID_IDS[frozen] = len(_BRAIDS)
        _BRAIDS.append(frozen)
    return _BRAID_IDS[frozen]


@lru_cache(maxsize=None)
def _times(braid: int, key: tuple[int, int]) -> int:
    """The oracle braid ``braid`` followed by the letter ``key``."""
    matrix = tuple(tuple(dict(p) for p in row) for row in _BRAIDS[braid])
    return _braid_id(freeze(mmul(matrix, ORACLE_GEN[key])))


@lru_cache(maxsize=None)
def _forbidden(braid: int) -> bool:
    return _BRAIDS[braid] in _FORBIDDEN


# An oracle state is (perms, pair counts, triplet braids): one tuple per grid
# axis each, over the robot pairs and triplets in combination order.


def _after(perms: PermutationState, action: SwapAction) -> PermutationState:
    ranks = list(perms.ranks(action.axis))
    ranks[action.i - 1], ranks[action.j - 1] = ranks[action.j - 1], ranks[action.i - 1]
    if action.axis == 1:
        return PermutationState(tuple(ranks), perms.pi2)
    return PermutationState(perms.pi1, tuple(ranks))


def _moves(state: tuple) -> list[tuple]:
    """The states one legal move away."""
    perms, pairs, trips = state
    ids2 = list(itertools.combinations(range(1, perms.n + 1), 2))
    ids3 = list(itertools.combinations(range(1, perms.n + 1), 3))
    out = []
    for action in action_space(perms):
        ax = action.axis - 1
        counts, braids = list(pairs[ax]), list(trips[ax])
        legal = True
        for k, ids in enumerate(ids2):
            if action.i in ids and action.j in ids:
                counts[k] += braid_letter_for_action(action, perms, ids).sign
                legal = abs(counts[k]) <= 1
        for k, ids in enumerate(ids3):
            if legal and action.i in ids and action.j in ids:
                letter = braid_letter_for_action(action, perms, ids)
                braids[k] = _times(braids[k], (letter.index, letter.sign))
                legal = not _forbidden(braids[k])
        if legal:
            new_pairs = (tuple(counts), pairs[1]) if ax == 0 else (pairs[0], tuple(counts))
            new_trips = (tuple(braids), trips[1]) if ax == 0 else (trips[0], tuple(braids))
            out.append((_after(perms, action), new_pairs, new_trips))
    return out


def _oracle_braid(state: int) -> int:
    """The oracle braid of a package triplet state, from its word."""
    text = triplet_word_text(state)
    return _braid_id(freeze(oracle_burau(parse_keys(text) if text != "e" else [])))


def _oracle_state(perms: PermutationState, tables) -> tuple:
    return (
        perms,
        tuple(t.pairs for t in tables),
        tuple(tuple(_oracle_braid(st) for st in t.triplets) for t in tables),
    )


def _shortest(start: tuple, target: PermutationState) -> int | None:
    """Fewest legal moves from ``start`` to the target's orders, or None."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state[0] == target:
            return dist[state]
        for nxt in _moves(state):
            if nxt not in dist:
                dist[nxt] = dist[state] + 1
                queue.append(nxt)
    return None


def _fold_path(state: tuple, path) -> tuple:
    """The oracle state at the end of ``path``; every step must be legal."""
    for perms in path[1:]:
        state = next(nxt for nxt in _moves(state) if nxt[0] == perms)
    return state


@lru_cache(maxsize=None)
def _graph3() -> tuple[list[tuple], dict[tuple, int], list[list[int]]]:
    """The n = 3 graph from the 36 clean roots: its states in the order
    met, their indices, and each state's predecessors."""
    perms3 = list(itertools.permutations((1, 2, 3)))
    clean = ((0, 0, 0),) * 2, ((0,),) * 2
    states = [(PermutationState(p1, p2), *clean) for p1 in perms3 for p2 in perms3]
    index = {s: k for k, s in enumerate(states)}
    back: list[list[int]] = [[] for _ in states]
    for k, state in enumerate(states):  # the list grows as new states are met
        for nxt in _moves(state):
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                back.append([])
            back[index[nxt]].append(k)
    return states, index, back


@lru_cache(maxsize=None)
def _distances3(target: PermutationState) -> tuple[int, ...]:
    """Each n = 3 state's fewest moves to the target's orders, by a
    breadth-first search back from every state that has them."""
    states, _, back = _graph3()
    dist = [-1] * len(states)
    queue = deque(k for k, s in enumerate(states) if s[0] == target)
    for k in queue:
        dist[k] = 0
    while queue:
        k = queue.popleft()
        for m in back[k]:
            if dist[m] < 0:
                dist[m] = dist[k] + 1
                queue.append(m)
    return tuple(dist)


def test_excess_table_matches_oracle():
    """The planner's n = 3 table is exact: on each of the 2,316 states of the
    n = 3 graph and each of the 36 target order pairs, the root's pair bound
    plus its triplet excess is the oracle's distance.  The table holds an
    entry for exactly the states whose excess is not 0."""
    states, _, back = _graph3()
    assert len(states) == 2316 and sum(map(len, back)) == 7392
    package_id = {_oracle_braid(st): st for st in range(len(_WORD))}
    perms3 = list(itertools.permutations((1, 2, 3)))
    excesses = []
    for p1, p2 in itertools.product(perms3, repeat=2):
        target = PermutationState(p1, p2)
        for (perms, pairs, trips), d in zip(states, _distances3(target)):
            tables = tuple(
                BraidTable(3, pairs[ax], (package_id[trips[ax][0]],)) for ax in (0, 1)
            )
            root = GridNode.root(perms, tables, target)
            assert 0 <= d < planner._INF
            assert root.hsum + root.xsum == d
            excesses.append(root.xsum)
    assert set(excesses) == {0, 2, 4}
    assert sum(map(len, planner._excess_columns())) == sum(1 for x in excesses if x)


def test_trio_plans_are_shortest(monkeypatch):
    """Every plan of a 1,000-set n = 3 mission, each from the tables the
    earlier sets left, is as short as the oracle's, and its predicted tables
    are the oracle's fold along its path."""
    calls = []

    def recording(start, target, braids):
        result = plan(start, target, braids)
        calls.append((start, target, braids, result))
        return result

    monkeypatch.setattr(harness, "plan", recording)
    metrics = run_task_sequence(make_scenario(3, 1000, 0))
    assert metrics.successes == len(calls) == 1000
    _, index, _ = _graph3()
    for start, target, braids, result in calls:
        state = _oracle_state(start, braids)
        assert len(result.path) - 1 == _distances3(target)[index[state]]
        assert _fold_path(state, result.path) == _oracle_state(target, result.final_braids)


def test_n4_plans_against_oracle():
    """Over seeded n = 4 missions, each plan from the tables the earlier
    ones left: ``plan()`` finds a path wherever the oracle does, no path is
    shorter than the optimum, and the predicted tables are the oracle's
    fold along the path.  Prints the gap to the optimum."""
    rng = random.Random(41)
    plans = longer = extra = 0
    for _ in range(4):
        perms = PermutationState.identity(4)
        tables = (BraidTable.identity(4),) * 2
        for _ in range(4):
            ranks = [list(range(1, 5)), list(range(1, 5))]
            for r in ranks:
                rng.shuffle(r)
            target = PermutationState(*map(tuple, ranks))
            state = _oracle_state(perms, tables)
            optimum = _shortest(state, target)
            result = plan(perms, target, tables)
            if optimum is None:
                assert not result.path
                continue
            assert result.path, "plan() failed where the oracle found a path"
            swaps = len(result.path) - 1
            assert swaps >= optimum
            assert _fold_path(state, result.path) == _oracle_state(target, result.final_braids)
            plans += 1
            longer += swaps > optimum
            extra += swaps - optimum
            perms, tables = target, result.final_braids
    print(f"n = 4: {longer} of {plans} plans longer than the optimum, by {extra} swaps")
