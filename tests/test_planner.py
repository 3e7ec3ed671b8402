"""Planner-layer tests.

Letter conventions are cross-checked by realizing swap actions as real
trajectories and extracting their crossings geometrically.  Path-length
optimality is checked against a from-scratch BFS over permutation pairs
that shares no code with the planner.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidplan import planner
from braidplan.braid import (
    BraidLetter,
    BraidWord,
    triplet_element,
    triplet_state_from_word,
    triplet_word_text,
    update_pair,
    update_triplet,
)
from braidplan.errors import InputError
from braidplan.harness import make_scenario, verify
from braidplan.geometry import (
    Trajectory,
    build_space_time,
    extract_crossings,
    sub_events,
)
from braidplan.planner import (
    AXIS_ANGLES,
    BraidTable,
    GridNode,
    PermutationState,
    SwapAction,
    action_space,
    braid_letter_for_action,
    expand,
    from_serializable,
    heuristic,
    pair_slot,
    plan,
    to_serializable,
    triplet_slot,
)
from braidplan.workspace import ranks_from_positions
from grid import grid_distances, inversions, random_perms
from hostile_json import hostile

DATA = Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


def _apply(perms: PermutationState, action: SwapAction) -> PermutationState:
    """Apply a swap directly on the rank vectors."""
    pi = list(perms.ranks(action.axis))
    ri, rj = pi[action.i - 1], pi[action.j - 1]
    assert rj == ri + 1
    pi[action.i - 1], pi[action.j - 1] = rj, ri
    new = tuple(pi)
    return (
        PermutationState(new, perms.pi2)
        if action.axis == 1
        else PermutationState(perms.pi1, new)
    )


def _clean(n: int) -> tuple[BraidTable, BraidTable]:
    """Clean tables at both grid angles."""
    return (BraidTable.identity(n),) * 2


def _all_clean(tables) -> bool:
    return all(t.is_clean for t in tables)


def _pair_tables(count1: int, count2: int) -> tuple[BraidTable, BraidTable]:
    """Two-robot tables holding the given pair counts at pi/2 and at 0."""
    return BraidTable(2, (count1,), ()), BraidTable(2, (count2,), ())


def _pinned_query(name: str) -> tuple[PermutationState, PermutationState, tuple]:
    """The start, target and carried tables of a query pinned in ``data/``."""
    data = json.loads((DATA / name).read_text())
    start = PermutationState(tuple(data["start"]["pi1"]), tuple(data["start"]["pi2"]))
    target = PermutationState(tuple(data["target"]["pi1"]), tuple(data["target"]["pi2"]))
    return start, target, from_serializable(data["carried"])


def _assert_swap_chain(path, start: PermutationState, target: PermutationState) -> None:
    """Each step of ``path`` swaps two rank-adjacent robots on one axis."""
    n = start.n
    assert path[0] == start and path[-1] == target
    for a, b in zip(path, path[1:]):
        diff1 = [r for r in range(1, n + 1) if a.pi1[r - 1] != b.pi1[r - 1]]
        diff2 = [r for r in range(1, n + 1) if a.pi2[r - 1] != b.pi2[r - 1]]
        changed = diff1 or diff2
        assert changed and (not diff1 or not diff2)
        robots = diff1 or diff2
        pi_a = a.pi1 if diff1 else a.pi2
        ranks = sorted(pi_a[r - 1] for r in robots)
        assert len(robots) == 2
        assert ranks[1] == ranks[0] + 1


def _cells(perms: PermutationState) -> dict[int, tuple[float, float]]:
    """Grid realization: axis-1 rank gives x descending, axis-2 rank gives y."""
    n = perms.n
    return {
        r: (float(n + 1 - perms.pi1[r - 1]), float(perms.pi2[r - 1]))
        for r in range(1, n + 1)
    }


def _swap_trajectories(perms: PermutationState, action: SwapAction) -> list[Trajectory]:
    before = _cells(perms)
    after = _cells(_apply(perms, action))
    return [
        Trajectory(r, ((before[r][0], before[r][1], 0.0), (after[r][0], after[r][1], 1.0)))
        for r in sorted(before)
    ]


# ---------------------------------------------------------------------------
# Action space and letters.
# ---------------------------------------------------------------------------


def test_action_space_size_and_adjacency():
    rng = random.Random(10)
    for n in (2, 3, 5, 8):
        perms = random_perms(rng, n)
        actions = action_space(perms)
        assert len(actions) == 2 * (n - 1)
        seen = set()
        for act in actions:
            ranks = perms.ranks(act.axis)
            assert ranks[act.j - 1] == ranks[act.i - 1] + 1
            seen.add((act.axis, act.i, act.j))
        assert len(seen) == 2 * (n - 1)


def test_letters_match_geometric_extraction():
    """A swap's pair and triplet letters equal the ones extracted from the
    real motion of robots between grid cells."""
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice((3, 4, 5))
        perms = random_perms(rng, n)
        action = rng.choice(action_space(perms))
        lifted = build_space_time(_swap_trajectories(perms, action))
        same = extract_crossings(lifted, AXIS_ANGLES[action.axis - 1])
        other = extract_crossings(lifted, AXIS_ANGLES[2 - action.axis])
        assert other == []
        assert len(same) == 1
        ev = same[0]
        assert {ev.i, ev.j} == {action.i, action.j}
        lo, hi = min(action.i, action.j), max(action.i, action.j)
        pair_letter = braid_letter_for_action(action, perms, (lo, hi))
        got = sub_events(same, (lo, hi))
        assert got == [(ev.time, pair_letter)]
        for t in range(1, n + 1):
            if t in (lo, hi):
                continue
            sub = tuple(sorted((t, lo, hi)))
            expect = braid_letter_for_action(action, perms, sub)
            assert sub_events(same, sub) == [(ev.time, expect)]


def test_braid_letter_validation():
    perms = PermutationState((1, 2, 3), (1, 2, 3))
    act = SwapAction(1, 1, 2)
    with pytest.raises(InputError):
        braid_letter_for_action(SwapAction(1, 1, 3), perms, (1, 3))
    with pytest.raises(InputError):
        braid_letter_for_action(act, perms, (1, 3))
    with pytest.raises(InputError):
        braid_letter_for_action(act, perms, (1,))
    with pytest.raises(InputError):
        SwapAction(3, 1, 2)
    with pytest.raises(InputError):
        SwapAction(1, 2, 2)


def test_heuristic_pinned_values():
    both = PermutationState((2, 1), (2, 1))
    one = PermutationState((2, 1), (1, 2))
    ident = PermutationState.identity(2)
    assert heuristic(ident, both, bias=1.0) == 2.0
    assert heuristic(ident, one, bias=1.0) == 1.0
    assert heuristic(ident, ident, bias=1.0) == 0.0
    assert heuristic(ident, both, bias=1.5) == 3.0


# ---------------------------------------------------------------------------
# Expansion.
# ---------------------------------------------------------------------------


def test_expand_full_child_set_and_sharing():
    rng = random.Random(12)
    for n in (3, 5):
        perms = random_perms(rng, n)
        target = random_perms(rng, n)
        root = GridNode.root(perms, _clean(n), target)
        children = expand(root, target)
        # from a clean table no first move can violate anything
        assert len(children) == 2 * (n - 1)
        for child in children:
            assert child.g == 1
            assert child.parent is root
            # a move changes the joint state of one pair and of the n - 2
            # triplets that hold it, and on the swap axis their braids; the
            # other axis's table is the parent's
            pair_diffs = [k for k, (a, b) in enumerate(zip(root.pairs, child.pairs)) if a != b]
            trip_diffs = [k for k, (a, b) in enumerate(zip(root.trips, child.trips)) if a != b]
            assert len(pair_diffs) == 1
            assert len(trip_diffs) == n - 2
            ax, other = child.action.axis - 1, 2 - child.action.axis
            swapped, before = child.braids[ax], root.braids[ax]
            assert [k for k, (a, b) in enumerate(zip(before.pairs, swapped.pairs)) if a != b] == (
                pair_diffs
            )
            assert [
                k for k, (a, b) in enumerate(zip(before.triplets, swapped.triplets)) if a != b
            ] == trip_diffs
            assert child.braids[other] == root.braids[other]


def test_expand_drops_pair_violating_move():
    # robots 1, 2 with reversed axis-2 order make the axis-1 swap sign +1;
    # a carried +1 crossing sum leaves no room for it
    perms = PermutationState((1, 2), (2, 1))
    blocked = _pair_tables(1, 0)
    root = GridNode.root(perms, blocked, perms)
    actions = {child.action.axis for child in expand(root, perms)}
    assert actions == {2}
    # the opposite carried sum leaves the move free
    open_table = _pair_tables(-1, 0)
    root2 = GridNode.root(perms, open_table, perms)
    assert {child.action.axis for child in expand(root2, perms)} == {1, 2}


def _folded_child_table(node: GridNode, action: SwapAction, target: PermutationState):
    """Oracle for one move: the node's tables with the action's letters folded
    into the swap axis's table slot by slot, or None when a letter trips a
    forbidden pattern or the pair's target orders become unreachable under
    the pair table."""
    from braidplan.planner import _INF, _PAIR_DIST, _PAIR_STATE, _columns

    perms = PermutationState(node.pi1, node.pi2)
    n = perms.n
    tables = node.braids
    pairs = list(tables[action.axis - 1].pairs)
    trips = list(tables[action.axis - 1].triplets)
    a, b = sorted((action.i, action.j))
    slot = pair_slot(n, a, b)
    pairs[slot], ok = update_pair(pairs[slot], braid_letter_for_action(action, perms, (a, b)))
    if not ok:
        return None
    for t in range(1, n + 1):
        if t not in (a, b):
            ids = tuple(sorted((a, b, t)))
            slot = triplet_slot(n, *ids)
            letter = braid_letter_for_action(action, perms, ids)
            trips[slot], ok = update_triplet(trips[slot], letter)
            if not ok:
                return None
    folded = list(tables)
    folded[action.axis - 1] = BraidTable(n, tuple(pairs), tuple(trips))
    after = _apply(perms, action)
    o1, o2 = (1 if p[a - 1] < p[b - 1] else -1 for p in (after.pi1, after.pi2))
    slot = pair_slot(n, a, b)
    s1, s2 = (t.pairs[slot] for t in folded)
    if _PAIR_DIST[_PAIR_STATE[(o1, o2, s1, s2)]][_columns(target)[0][slot]] >= _INF:
        return None
    return tuple(folded)


def _check_expansion(node: GridNode, target: PermutationState) -> list[GridNode]:
    perms = PermutationState(node.pi1, node.pi2)
    children = {child.action: child for child in expand(node, target)}
    kept = []
    for action in action_space(perms):
        table = _folded_child_table(node, action, target)
        if table is None:
            assert action not in children
            continue
        child = children.pop(action)
        assert child.braids == table
        assert PermutationState(child.pi1, child.pi2) == _apply(perms, action)
        assert child.parent is node and child.g == node.g + 1
        # the incremental bound and the search's state key match a from-scratch root
        fresh = GridNode.root(PermutationState(child.pi1, child.pi2), table, target)
        assert child.hsum == fresh.hsum
        assert child.xsum == fresh.xsum
        assert (child.pairs, child.trips) == (fresh.pairs, fresh.trips)
        kept.append(child)
    assert not children
    return kept


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_expand_matches_letter_by_letter_fold(n, seed):
    """Every child of ``expand`` carries exactly the letters of its move, and
    every dropped move is one a forbidden pattern or the pair table
    refuses.  The walks start from tables carried over an earlier walk."""
    from braidplan.planner import _INF

    rng = random.Random(seed)
    target = random_perms(rng, n)
    node = GridNode.root(random_perms(rng, n), _clean(n), target)
    for _ in range(rng.randrange(12)):
        node = rng.choice(expand(node, target) or [node])
    target = random_perms(rng, n)
    node = GridNode.root(PermutationState(node.pi1, node.pi2), node.braids, target)
    if node.hsum >= _INF:
        return  # plan() refuses such a root before expanding it
    for _ in range(12):
        kept = _check_expansion(node, target)
        if not kept:
            break
        node = rng.choice(kept)


_RELATOR = BraidWord.from_text("s1 s2 s1 S2 S1 S2", 3).letters  # equals e in B3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(3, 6), seed=st.integers(0, 2**32 - 1))
def test_interned_states_are_canonical(n, seed):
    """Equal triplet braids are one state id however they are reached: by the
    planner, by update chains along the same walk, from an equivalent word,
    and through a JSON round trip of the table.  Pair counts agree with the
    same folds."""
    rng = random.Random(seed)
    target = random_perms(rng, n)
    node = GridNode.root(random_perms(rng, n), _clean(n), target)
    for _ in range(rng.randrange(1, 20)):
        children = expand(node, target)
        if not children:
            break
        child = rng.choice(children)
        folded = _folded_child_table(node, child.action, target)
        assert tuple(t.pairs for t in child.braids) == tuple(t.pairs for t in folded)
        assert tuple(t.triplets for t in child.braids) == tuple(t.triplets for t in folded)
        node = child
    tables = node.braids

    for count in (c for table in tables for c in table.pairs):
        letter = BraidLetter(1, -1 if count > 0 else 1)
        there, ok = update_pair(count, letter)
        assert ok and update_pair(there, letter.inverse()) == (count, True)
    for state in (st for table in tables for st in table.triplets):
        letters = list(BraidWord.from_text(triplet_word_text(state), 3).letters)
        at = rng.randrange(len(letters) + 1)
        letters[at:at] = _RELATOR
        at = rng.randrange(len(letters) + 1)
        letter = BraidLetter(rng.choice((1, 2)), rng.choice((1, -1)))
        letters[at:at] = (letter, letter.inverse())
        assert triplet_state_from_word(BraidWord(3, tuple(letters))) == state
        chained = 0
        for letter in letters:
            chained, ok = update_triplet(chained, letter)
            if not ok:
                break  # the longer word passes a forbidden prefix
        else:
            assert chained == state

    again = from_serializable(json.loads(json.dumps(to_serializable(tables))))
    for loaded, table in zip(again, tables):
        assert loaded.pairs == table.pairs
        assert loaded.triplets == table.triplets
    assert again == tables
    assert hash(again) == hash(tables)


def test_nodes_with_different_braids_do_not_merge():
    # walk a few plies and demand some permutation recurs with two distinct
    # braid tables, kept apart as separate search states
    start = PermutationState.identity(3)
    target = PermutationState((3, 2, 1), (3, 2, 1))
    root = GridNode.root(start, _clean(3), target)
    layer = [root]
    by_perm: dict[tuple, list[GridNode]] = {}
    for _ in range(4):
        nxt = []
        for node in layer:
            for child in expand(node, target):
                by_perm.setdefault((child.pi1, child.pi2), []).append(child)
                nxt.append(child)
        layer = nxt
    split = 0
    for nodes in by_perm.values():
        tables = {n.braids for n in nodes}
        if len(tables) > 1:
            split += 1
            a = next(iter(nodes))
            b = next(n for n in nodes if n.braids != a.braids)
            assert (a.pairs, a.trips) != (b.pairs, b.trips)
    assert split > 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_pair_states_fix_the_permutations(n, seed):
    """A node hashes and compares its pair and triplet states alone: the
    orders held in its pair states give back ``pi1`` and ``pi2``, on every
    node that ``expand`` reaches along a random walk from a random root."""
    from braidplan.planner import _PAIR_KEYS

    def decoded(node: GridNode) -> tuple[tuple[int, ...], tuple[int, ...]]:
        ranks = ([1] * n, [1] * n)
        for (a, b), p in zip(itertools.combinations(range(n), 2), node.pairs):
            for axis, order in enumerate(_PAIR_KEYS[p][:2]):
                ranks[axis][b if order > 0 else a] += 1  # +1: a ranks first
        return tuple(ranks[0]), tuple(ranks[1])

    rng = random.Random(seed)
    target = random_perms(rng, n)
    node = GridNode.root(random_perms(rng, n), _clean(n), target)
    assert decoded(node) == (node.pi1, node.pi2)
    for _ in range(rng.randrange(1, 20)):
        children = expand(node, target)
        for child in children:
            assert decoded(child) == (child.pi1, child.pi2)
        if not children:
            break
        node = rng.choice(children)


def test_root_rejects_bad_tables():
    perms = PermutationState.identity(3)
    with pytest.raises(InputError):
        GridNode.root(perms, _clean(4), perms)
    with pytest.raises(InputError):
        GridNode.root(perms, (BraidTable.identity(3),), perms)
    dirty = (BraidTable(3, (2, 0, 0), BraidTable.identity(3).triplets), BraidTable.identity(3))
    with pytest.raises(InputError):
        GridNode.root(perms, dirty, perms)


def test_braid_table_is_frozen_and_hashes_by_value():
    """A table refuses assignment, so its hash, ``hash((n, pairs, triplets))``,
    cannot go stale and no tuple of the wrong length gets in after the
    length checks; equal tables hash alike."""
    table = BraidTable(3, (1, 0, -1), (0,))
    for field, value in (("pairs", (1,)), ("triplets", (0, 0)), ("n", 4)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(table, field, value)
    assert table.pairs == (1, 0, -1) and table.triplets == (0,) and table.n == 3
    assert hash(table) == hash((3, (1, 0, -1), (0,)))
    assert table == BraidTable(3, (1, 0, -1), (0,)) and table != BraidTable.identity(3)
    for pairs, trips in (((0, 0), (0,)), ((0, 0, 0), ())):
        with pytest.raises(InputError, match="wrong length"):
            BraidTable(3, pairs, trips)


def test_slot_layout():
    # a table's slots are a bijection from the ascending id tuples onto
    # range(C(n, 2)) and range(C(n, 3)), in combination order
    for n in range(1, 9):
        for size, slot_of in ((2, pair_slot), (3, triplet_slot)):
            combos = list(itertools.combinations(range(1, n + 1), size))
            assert len(combos) == math.comb(n, size)
            assert [slot_of(n, *ids) for ids in combos] == list(range(len(combos)))


def test_move_table_layout():
    """``_moves(n)[a][b]`` is symmetric: the pair's slot, then the n - 2
    triplets that hold {a, b} by ascending third robot, each with its slot
    and its moving pair's code as in ``_TRIP_KEYS``: 0 for the triplet's
    lower two ids, 1 for its outer two, 2 for its upper two."""
    from braidplan.planner import _moves

    for n in range(2, 7):
        moves = _moves(n)
        for a, b in itertools.permutations(range(1, n + 1), 2):
            assert moves[a][b] == moves[b][a]
            lo, hi = min(a, b), max(a, b)
            po, thirds = moves[a][b]
            assert po == pair_slot(n, lo, hi)
            third_ids = [t0 + 1 for t0, _, _ in thirds]
            assert third_ids == [t for t in range(1, n + 1) if t not in (a, b)]
            for t, (_, to, c) in zip(third_ids, thirds):
                ids = tuple(sorted((a, b, t)))
                assert to == triplet_slot(n, *ids)
                assert ((ids[0], ids[1]), (ids[0], ids[2]), (ids[1], ids[2]))[c] == (lo, hi)


def test_corrupted_move_table_fails_fast(monkeypatch):
    """A wrong move leads the guidance walk out of the n = 3 graph, which it
    would never leave; the walk stops at the graph's 2,316 states."""
    moves = planner._moves

    def corrupted(n):
        # Moving pairs 0 and 2 swapped: each swap updates the wrong triplet pair.
        code = (2, 1, 0)
        return tuple(
            tuple(
                entry if entry is None
                else (entry[0], tuple((t0, to, code[c]) for t0, to, c in entry[1]))
                for entry in row
            )
            for row in moves(n)
        )

    monkeypatch.setattr(planner, "_moves", corrupted)
    with pytest.raises(RuntimeError, match="n = 3 grid graph meets more than its 2,316"):
        planner._guidance.__wrapped__()


# ---------------------------------------------------------------------------
# Guidance.
# ---------------------------------------------------------------------------


def _rows_in_table() -> list[tuple[tuple[int, int, int, int], tuple[int, ...]]]:
    """Each triplet state's key and guidance row, in key order, for every
    row that is not all 0: the states of the n = 3 table."""
    planner._guidance()
    return sorted(
        (planner._TRIP_KEYS[q], row) for q, row in enumerate(planner._TRIP_EXCESS) if any(row)
    )


def test_guidance_rows_are_pinned():
    """The guidance rows are exactly the recorded ones: a SHA-256 over each
    pair state's key and row, in state order, then over each key and row of
    the n = 3 table.  Any change to the graph walks, the column coding or
    the excess shows here; other tests interning more triplet states do
    not."""
    rows = _rows_in_table()
    digest = hashlib.sha256()
    for p, row in enumerate(planner._PAIR_DIST):
        digest.update(repr((planner._PAIR_KEYS[p], row)).encode())
    for key, row in rows:
        digest.update(repr((key, row)).encode())
    assert len(planner._PAIR_DIST) == 36 and len(rows) == 1344
    assert digest.hexdigest() == (
        "b3764a5aceb13a9d6f21274355ee6e16de23812700ecd26715607718a340447f"
    )


def _assert_excess_as_root(node: GridNode, target: PermutationState) -> None:
    fresh = GridNode.root(PermutationState(node.pi1, node.pi2), node.braids, target)
    assert node.xsum == fresh.xsum


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
def test_incremental_excess_matches_root(n, seed):
    """The triplet excess a child updates for the n - 2 triplets it touches
    equals ``GridNode.root``'s sum over every triplet, on every node of a
    random walk from a clean table and of a second walk that starts from
    the first one's carried table towards a new target."""
    rng = random.Random(seed)
    target = random_perms(rng, n)
    node = GridNode.root(random_perms(rng, n), _clean(n), target)
    for _ in range(2):
        for _ in range(rng.randrange(40)):
            _assert_excess_as_root(node, target)
            node = rng.choice(expand(node, target) or [node])
        _assert_excess_as_root(node, target)
        target = random_perms(rng, n)
        node = GridNode.root(PermutationState(node.pi1, node.pi2), node.braids, target)


def test_incremental_excess_matches_root_on_stalled_query():
    start, target, carried = _pinned_query("stalled_n9_query.json")
    root = GridNode.root(start, carried, target)
    children = expand(root, target)
    assert root.xsum > 0 and {child.xsum for child in children} != {root.xsum}
    for node in [root, *children]:
        _assert_excess_as_root(node, target)


def test_guidance_reads_zero_outside_the_table():
    """Triplet braids that no plan from clean tables reaches, here those of
    long random words, lie outside the n = 3 table: their excess reads 0,
    ``GridNode.root`` interns no braid, and ``plan()`` still returns a clean
    swap chain or an explained failure."""
    from braidplan import braid

    rng = random.Random(23)
    n = 5
    trips = []
    while len(trips) < 2 * 10:
        # Words this long name braids no other test reaches.
        letters = tuple(
            BraidLetter(rng.choice((1, 2)), rng.choice((1, -1))) for _ in range(30)
        )
        state = triplet_state_from_word(BraidWord(3, letters))
        if not braid._VIOLATED[state]:
            trips.append(state)
    in_table = {key[ax] for key, _ in _rows_in_table() for ax in (0, 1)}
    assert in_table.isdisjoint(trips)
    start = PermutationState.identity(n)
    target = PermutationState((5, 4, 3, 2, 1), (5, 4, 3, 2, 1))
    tables = (
        BraidTable(n, (0,) * 10, tuple(trips[:10])),
        BraidTable(n, (0,) * 10, tuple(trips[10:])),
    )
    before = len(braid._KEY)
    root = GridNode.root(start, tables, target)
    assert len(braid._KEY) == before
    assert root.xsum == 0
    children = expand(root, target)
    assert children and all(child.xsum == 0 for child in children)
    result = plan(start, target, tables)
    if result.path:
        assert result.trace.reason == "goal"
        _assert_swap_chain(result.path, start, target)
        assert _all_clean(result.final_braids)
    else:
        assert result.trace.reason in ("exhausted", "max_expansions")
        assert result.final_braids is None


def _outside_braids(rng: random.Random, count: int) -> list[int]:
    """Clean triplet braids of long random words that lie outside the n = 3
    table, so that no plan from clean tables reaches them."""
    from braidplan import braid

    in_table = {key[ax] for key, _ in _rows_in_table() for ax in (0, 1)}
    states = []
    while len(states) < count:
        letters = tuple(
            BraidLetter(rng.choice((1, 2)), rng.choice((1, -1))) for _ in range(30)
        )
        state = triplet_state_from_word(BraidWord(3, letters))
        if not braid._VIOLATED[state] and state not in in_table:
            states.append(state)
    return states


def test_expand_matches_fold_outside_the_table():
    """Moves from triplet braids outside the n = 3 table take transitions
    that no walk from clean tables fills: from roots carrying such braids
    and random pair counts, every child of a few plies carries exactly the
    letters of its move, as ``test_expand_matches_letter_by_letter_fold``
    checks on walks from clean tables."""
    from braidplan.planner import _INF

    rng = random.Random(29)
    checked = 0
    for n in (3, 4, 5, 6):
        for _ in range(4):
            pairs, trips = math.comb(n, 2), math.comb(n, 3)
            tables = tuple(
                BraidTable(
                    n, tuple(rng.choice((-1, 0, 1)) for _ in range(pairs)),
                    tuple(_outside_braids(rng, trips)),
                )
                for _ in range(2)
            )
            target = random_perms(rng, n)
            node = GridNode.root(random_perms(rng, n), tables, target)
            if node.hsum >= _INF:
                continue  # plan() refuses such a root before expanding it
            for _ in range(4):
                kept = _check_expansion(node, target)
                checked += len(kept)
                if not kept:
                    break
                node = rng.choice(kept)
    assert checked > 0


# ---------------------------------------------------------------------------
# Planning.
# ---------------------------------------------------------------------------


def test_plan_two_robots_both_axes():
    start = PermutationState.identity(2)
    target = PermutationState((2, 1), (2, 1))
    result = plan(start, target)
    assert result.trace.reason == "goal"
    assert len(result.path) - 1 == 2
    assert result.path[0] == start
    assert result.path[-1] == target
    assert result.final_braids is not None
    assert [abs(t.pairs[pair_slot(2, 1, 2)]) for t in result.final_braids] == [1, 1]


def test_plan_zero_actions_when_already_there():
    state = PermutationState((2, 1, 3), (1, 3, 2))
    result = plan(state, state)
    assert result.trace.reason == "goal"
    assert len(result.path) == 1
    assert result.final_braids == _clean(3)


def test_plan_consumes_carried_pair_sum():
    start = PermutationState.identity(2)
    target = PermutationState((2, 1), (1, 2))
    carried = _pair_tables(1, 0)
    result = plan(start, target, carried)
    assert result.trace.reason == "goal"
    assert len(result.path) - 1 == 1
    assert result.final_braids[0].pairs[pair_slot(2, 1, 2)] == 0
    fresh = plan(start, target)
    assert fresh.final_braids[0].pairs[pair_slot(2, 1, 2)] == -1


def test_plan_detects_unreachable_carried_state():
    # with a carried -1 sum on axis 1, flipping only the axis-1 order is
    # impossible: the direct sign repeats -1 and every detour dead-ends
    start = PermutationState.identity(2)
    target = PermutationState((2, 1), (1, 2))
    carried = _pair_tables(-1, 0)
    result = plan(start, target, carried)
    assert result.trace.reason == "exhausted"
    assert result.path == ()
    assert result.final_braids is None
    assert result.trace.expanded == 0


def test_plan_budget_exhaustion(monkeypatch):
    # a tangled carried table whose root bound equals the inversion count:
    # both sorts from the root run and are rejected at their second swap,
    # and neither the direct search nor the unwind finishes in one
    # expansion, so the final sort never runs.  The trace counts all four
    # stages: two steps of each sort, one direct-search expansion and one
    # unwind expansion.  Both queries keep axis 2 in target order, so the
    # inversion count is axis 1's.
    from braidplan.planner import _axis_sort

    monkeypatch.setattr(planner, "_DIRECT_BUDGET", 1)
    monkeypatch.setattr(planner, "_UNWIND_BUDGET", 1)
    start = PermutationState.identity(4)
    mid = PermutationState((1, 2, 4, 3), (1, 3, 4, 2))
    carried = plan(start, mid).final_braids
    assert carried != _clean(4)
    target = PermutationState((1, 4, 3, 2), (1, 3, 4, 2))
    assert GridNode.root(mid, carried, target).hsum == 2 == inversions(mid.pi1, target.pi1)
    result = plan(mid, target, carried)
    assert result.trace.reason == "max_expansions"
    assert result.path == ()
    assert result.final_braids is None
    assert result.trace.expanded == 6
    assert result.trace.rejected_by_braid == 2

    # a root whose bound exceeds the inversion count runs no sort step
    mid = PermutationState((4, 3, 2, 1), (2, 1, 4, 3))
    carried = plan(start, mid).final_braids
    target = PermutationState((1, 2, 3, 4), (2, 1, 4, 3))
    assert GridNode.root(mid, carried, target).hsum == 10 > 6 == inversions(mid.pi1, target.pi1)
    sorts = []

    def counted_sort(*args):
        sorts.append(args)
        return _axis_sort(*args)

    monkeypatch.setattr(planner, "_axis_sort", counted_sort)
    result = plan(mid, target, carried)
    assert result.trace.reason == "max_expansions"
    assert result.trace.expanded == 2
    assert sorts == []


def _step_action(before: PermutationState, after: PermutationState) -> SwapAction:
    """The swap that turns one path state into the next."""
    for axis in (1, 2):
        ranks, next_ranks = before.ranks(axis), after.ranks(axis)
        moved = [r for r in range(1, before.n + 1) if ranks[r - 1] != next_ranks[r - 1]]
        if moved:
            i, j = sorted(moved, key=lambda r: ranks[r - 1])
            return SwapAction(axis, i, j)
    raise AssertionError("consecutive path states are equal")


def _fold_path(path, tables, target: PermutationState):
    """The start tables with every step's letters folded in slot by slot."""
    for before, after in zip(path, path[1:]):
        node = GridNode.root(before, tables, target)
        tables = _folded_child_table(node, _step_action(before, after), target)
        assert tables is not None
    return tables


def test_plan_returns_the_sort_from_the_root_when_it_succeeds(monkeypatch):
    """Sort first: whenever an axis sort from the root passes every braid
    check, ``plan`` returns it with no search.  Its path is exactly as long
    as the root's pair bound and the inversion count, so no legal
    path is shorter, and its predicted tables are the start tables with the
    path's letters folded in one by one.  Seeded walks at n = 3..8 start
    from clean tables and from tables carried over an earlier walk."""
    from braidplan.planner import _INF, _axis_sort, _columns

    # Small budgets keep the queries that both sorts refuse cheap.
    monkeypatch.setattr(planner, "_DIRECT_BUDGET", 20)
    monkeypatch.setattr(planner, "_UNWIND_BUDGET", 10)
    rng = random.Random(19)
    returns = {"clean": 0, "carried": 0, "search": 0}
    for n in range(3, 9):
        for kind in ("clean", "carried") * 25:
            node = GridNode.root(random_perms(rng, n), _clean(n), random_perms(rng, n))
            if kind == "carried":
                for _ in range(rng.randrange(1, 25)):
                    node = rng.choice(expand(node, PermutationState(node.pi1, node.pi2)) or [node])
            start, tables = PermutationState(node.pi1, node.pi2), node.braids
            target = random_perms(rng, n)
            root = GridNode.root(start, tables, target)
            result = plan(start, target, tables)
            cols = _columns(target)
            sorts = [_axis_sort(root, target, cols, axes)[0] for axes in ((1, 2), (2, 1))]
            sort = next((s for s in sorts if s is not None), None)
            if sort is None:
                assert root.hsum >= _INF or result.trace.peak_open > 0
                returns["search"] += 1
                continue
            returns[kind] += 1
            path = []
            while sort is not None:
                path.append(PermutationState(sort.pi1, sort.pi2))
                sort = sort.parent
            assert result.path == tuple(reversed(path))
            assert result.trace.reason == "goal" and result.trace.peak_open == 0
            _assert_swap_chain(result.path, start, target)
            optimum = inversions(start.pi1, target.pi1) + inversions(start.pi2, target.pi2)
            assert len(result.path) - 1 == root.hsum == optimum
            assert result.final_braids == _fold_path(result.path, tables, target)
    assert returns["clean"] == 150
    assert returns["carried"] > 0 and returns["search"] > 0


def test_former_clean_table_stall_sorts_first():
    """``make_scenario(10, 1, 1052)`` once ran the direct search to its
    20,000-expansion budget from a clean table; the sort from the root now
    plans it with one expansion per swap, the inversion count."""
    scenario = make_scenario(10, 1, 1052)
    start = ranks_from_positions(scenario.initial_positions)
    target = ranks_from_positions(scenario.target_sets[0])
    result = plan(start, target)
    optimum = inversions(start.pi1, target.pi1) + inversions(start.pi2, target.pi2)
    assert result.trace.reason == "goal"
    assert result.trace.expanded == len(result.path) - 1 == optimum == 55


def test_recorded_plans_replay():
    """``plan()`` repeats every call recorded in ``data/recorded_plans.json``:
    the same path, the same ``SearchTrace`` and equal predicted tables.

    The file holds 64 calls at n = 3..6, per team size 8 from clean tables
    and 8 from tables carried over a random walk of expansions.  Each
    record holds the start and target rank vectors, the input tables and
    the predicted tables, each pair of tables (at pi/2 and at 0) as one
    ``to_serializable`` object, and the path and trace.  All 32 plans from
    clean tables and 14 of the carried ones end in the sort from the root
    (39 sorting axis 1 first, 7 axis 2 first); the other 18 finish in the
    direct search, 6 after both sorts are rejected and 12 with no sort
    run, their root bound above the inversion count.
    """
    records = json.loads((DATA / "recorded_plans.json").read_text())
    assert len(records) == 64
    for rec in records:
        start, target = (PermutationState(*map(tuple, rec[key])) for key in ("start", "target"))
        result = plan(start, target, from_serializable(rec["braids"]))
        assert [[list(p.pi1), list(p.pi2)] for p in result.path] == rec["path"]
        assert dataclasses.asdict(result.trace) == rec["trace"]
        assert result.final_braids == from_serializable(rec["final_braids"])


_SEARCH_PIN_SCENARIOS = ((8, 11, 11), (8, 33, 12), (8, 33, 13))


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _recorded_search(n: int, sets: int, seed: int, monkeypatch) -> list[dict]:
    """Each ``plan()`` call of ``run_task_sequence(make_scenario(n, sets,
    seed))``: its path's and predicted tables' SHA-256 and its trace."""
    from braidplan import harness

    calls = []

    def recorder(*args):
        result = plan(*args)
        calls.append({
            "path": _sha256([[list(p.pi1), list(p.pi2)] for p in result.path]),
            "trace": dataclasses.asdict(result.trace),
            "final_braids": _sha256(
                None if result.final_braids is None else to_serializable(result.final_braids)
            ),
        })
        return result

    monkeypatch.setattr(harness, "plan", recorder)
    harness.run_task_sequence(make_scenario(n, sets, seed))
    return calls


def test_search_pins_replay(monkeypatch):
    """``plan()`` repeats the 77 calls of one ``team8-carry`` round, recorded
    in ``data/search_pins.json``: the n = 8 sequences of
    ``make_scenario(8, 11, 11)``, ``(8, 33, 12)`` and ``(8, 33, 13)`` run
    through ``run_task_sequence``, each query planned against the tables the
    earlier ones left.  Unlike ``recorded_plans.json`` these reach the
    2,000-expansion direct search and the unwind, so any change to the
    search order, its ties or its duplicate test shows here."""
    pins = json.loads((DATA / "search_pins.json").read_text())
    assert [tuple(p["scenario"]) for p in pins] == list(_SEARCH_PIN_SCENARIOS)
    assert sum(len(p["calls"]) for p in pins) == 77
    for pin in pins:
        assert _recorded_search(*pin["scenario"], monkeypatch) == pin["calls"]
    traces = [call["trace"] for pin in pins for call in pin["calls"]]
    assert max(t["expanded"] for t in traces) > planner._DIRECT_BUDGET
    assert any(t["peak_open"] > 0 for t in traces)


@pytest.mark.parametrize(
    "pi1, pi2",
    [
        ((1.0, 2.0), (1, 2)),
        ((1, 2), (2.0, 1.0)),
        ([2, 1], [1, 2]),
        ((2, 1), [1, 2]),
        ((True, 2), (1, 2)),
        ((1, 2), (2, True)),
        ("12", (1, 2)),
    ],
    ids=["float-pi1", "float-pi2", "lists", "list-pi2", "bool-pi1", "bool-pi2", "text"],
)
def test_permutation_state_refuses_ranks_that_are_not_int_tuples(pi1, pi2):
    with pytest.raises(InputError, match="tuple of ints"):
        PermutationState(pi1, pi2)


def test_plan_validates_team_sizes():
    with pytest.raises(InputError):
        plan(PermutationState.identity(3), PermutationState.identity(4))


def test_plan_lengths_match_bfs_n3():
    start = PermutationState.identity(3)
    dist = grid_distances((start.pi1, start.pi2))
    perms3 = list(itertools.permutations((1, 2, 3)))
    for p1 in perms3:
        for p2 in perms3:
            target = PermutationState(p1, p2)
            result = plan(start, target)
            assert result.trace.reason == "goal"
            assert len(result.path) - 1 == dist[(p1, p2)]
            assert result.trace.rejected_by_braid == 0


def test_plan_lengths_match_bfs_random_starts():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.choice((3, 4))
        start = random_perms(rng, n)
        target = random_perms(rng, n)
        result = plan(start, target)
        assert len(result.path) - 1 == grid_distances((start.pi1, start.pi2))[
            (target.pi1, target.pi2)
        ]


def test_plan_deterministic():
    rng = random.Random(14)
    start = random_perms(rng, 6)
    target = random_perms(rng, 6)
    first = plan(start, target)
    second = plan(start, target)
    assert first.path == second.path
    assert first.trace == second.trace
    assert first.final_braids == second.final_braids


def test_plan_path_is_valid_swap_sequence():
    rng = random.Random(15)
    for _ in range(10):
        n = rng.choice((4, 5, 6))
        start = random_perms(rng, n)
        target = random_perms(rng, n)
        result = plan(start, target)
        assert result.trace.reason == "goal"
        _assert_swap_chain(result.path, start, target)
        # goal-state braid table is clean by construction
        assert _all_clean(result.final_braids)


def test_serialization_round_trip():
    assert from_serializable(to_serializable(_clean(4))) == _clean(4)
    rng = random.Random(16)
    start = random_perms(rng, 5)
    target = random_perms(rng, 5)
    tables = plan(start, target).final_braids
    again = from_serializable(to_serializable(tables))
    assert again == tables
    assert hash(again) == hash(tables)


def test_serialized_violated_flag_follows_word():
    for key, word in (("pairs", "s1 s1"), ("triplets", "s1 S2 s1")):
        data = to_serializable(_clean(3))
        data[key][0].update(word=word, violated=False)
        with pytest.raises(InputError):
            from_serializable(data)
        data[key][0]["violated"] = True
        assert not _all_clean(from_serializable(data))
        del data[key][0]["violated"]
        assert not _all_clean(from_serializable(data))
        data[key][0].update(word="e", violated=True)
        with pytest.raises(InputError):
            from_serializable(data)


def _edited(change) -> dict:
    data = to_serializable(_clean(3))
    change(data)
    return data


# Inputs that are not a full serialized table, by what is wrong with them.
_MALFORMED_TABLES = {
    "not an object": [],
    "empty object": {},
    "n zero": _edited(lambda d: d.update(n=0)),
    "n a string": _edited(lambda d: d.update(n="3")),
    "n a bool": _edited(lambda d: d.update(n=True)),
    "three axes": _edited(lambda d: d.update(axes=3)),
    "pairs not a list": _edited(lambda d: d.update(pairs=None)),
    "entry not an object": _edited(lambda d: d["pairs"].__setitem__(0, "e")),
    "id beyond n": _edited(lambda d: d["pairs"][0].update(ids=[1, 5])),
    "ids descending": _edited(lambda d: d["pairs"][0].update(ids=[2, 1])),
    "three ids for a pair": _edited(lambda d: d["pairs"][0].update(ids=[1, 2, 3])),
    "repeated id": _edited(lambda d: d["triplets"][0].update(ids=[1, 1, 2])),
    "axis beyond axes": _edited(lambda d: d["pairs"][0].update(axis=7)),
    "axis zero": _edited(lambda d: d["pairs"][0].update(axis=0)),
    "word not a string": _edited(lambda d: d["pairs"][0].update(word=5)),
    "index of 5000 digits": _edited(lambda d: d["triplets"][0].update(word="s" + "1" * 5000)),
    "violated an int": _edited(lambda d: d["pairs"][0].update(violated=0)),
    "violated a float": _edited(lambda d: d["triplets"][0].update(violated=0.0)),
    "slot given twice": _edited(lambda d: d["pairs"].__setitem__(1, dict(d["pairs"][0]))),
    "slot missing": _edited(lambda d: d["triplets"].pop()),
}


@pytest.mark.parametrize("label", sorted(_MALFORMED_TABLES))
def test_from_serializable_refuses_malformed_tables(label):
    with pytest.raises(InputError):
        from_serializable(_MALFORMED_TABLES[label])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_hostile_table_loads_or_raises_input_error(n, seed, data):
    """A carried table with one key or nested value replaced by arbitrary
    JSON loads as a table that survives its own round trip, or is refused
    with ``InputError``; no other exception escapes."""
    rng = random.Random(seed)
    target = random_perms(rng, n)
    node = GridNode.root(random_perms(rng, n), _clean(n), target)
    for _ in range(rng.randrange(1, 10)):
        node = rng.choice(expand(node, target) or [node])
    doc = json.loads(json.dumps(to_serializable(node.braids)))
    # Aim half the edits at one entry: a walk from the root seldom gets there.
    key = data.draw(st.sampled_from(("pairs", "triplets")))
    if doc[key] and data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(doc[key]) - 1))
        doc[key][k] = data.draw(hostile(doc[key][k]))
    else:
        doc = data.draw(hostile(doc))
    try:
        tables = from_serializable(doc)
    except InputError:
        return
    assert from_serializable(to_serializable(tables)) == tables


def test_violated_verifier_pair_round_trips():
    # robot 1 crosses robot 2 upward, then back down after robot 2 has
    # moved to the far side in depth: both crossings read s1 at angle 0
    r1 = Trajectory(1, ((0.0, 0.0, 0.0), (0.0, 2.0, 1.0), (0.0, 0.0, 2.0)))
    r2 = Trajectory(2, ((-1.0, 1.0, 0.0), (-1.0, 1.0, 1.0), (3.0, 1.0, 2.0)))
    report, (table,) = verify(build_space_time([r1, r2]), (0.0,))
    assert [v.word for v in report.violations] == ["s1 s1"]
    data = json.loads(json.dumps(to_serializable((table,))))
    assert (data["n"], data["axes"]) == (2, 1)
    assert data["pairs"] == [{"ids": [1, 2], "axis": 1, "word": "s1 s1", "violated": True}]
    (again,) = from_serializable(data)
    assert again == table and again.pairs == (2,)
    assert not again.is_clean


def _same_braid(text_a: str, text_b: str) -> bool:
    return triplet_element(BraidWord.from_text(text_a, 3)) == triplet_element(
        BraidWord.from_text(text_b, 3)
    )


def test_pinned_table_dumps_as_loaded():
    """The pinned n = 9 carried table loads as two tables and dumps back to
    the file's own dict, except that a triplet may be written with another
    word for the same braid, never a longer one.  A second load and dump is
    a fixed point."""
    doc = json.loads((DATA / "stalled_n9_query.json").read_text())["carried"]
    tables = from_serializable(doc)
    assert [t.n for t in tables] == [9, 9]
    dumped = to_serializable(tables)
    assert {**dumped, "triplets": None} == {**doc, "triplets": None}
    assert len(dumped["triplets"]) == len(doc["triplets"]) == 2 * 84
    for mine, theirs in zip(dumped["triplets"], doc["triplets"]):
        assert {**mine, "word": None} == {**theirs, "word": None}
        assert _same_braid(mine["word"], theirs["word"])
        assert len(mine["word"].split()) <= len(theirs["word"].split())
    assert to_serializable(from_serializable(json.loads(json.dumps(dumped)))) == dumped


def test_words_do_not_depend_on_history():
    """Folding longer equal words first changes neither the words a table
    dumps nor the tangle the unwind orders by: both follow from the braid."""
    from braidplan.planner import _tangle

    # the half twist, met first through its second shortest word
    delta = triplet_state_from_word(BraidWord.from_text("s2 s1 s2", 3))
    chained = 0
    for letter in BraidWord.from_text("s2 s1 s2", 3).letters:
        chained, ok = update_triplet(chained, letter)
        assert ok
    assert chained == delta and triplet_word_text(delta) == "s1 s2 s1"
    # a weave as verifier reports once wrote it, letter by letter
    weave = 0
    for letter in BraidWord.from_text("S1 S2 s1 s2 s2", 3).letters:
        weave, ok = update_triplet(weave, letter)
    assert not ok and weave == triplet_state_from_word(BraidWord.from_text("s2 S1 s2", 3))

    tables = (BraidTable(3, (0, 0, 1), (delta,)), BraidTable(3, (-1, 0, 0), (weave,)))
    dumped = to_serializable(tables)
    assert [e["word"] for e in dumped["triplets"]] == ["s1 s2 s1", "s2 S1 s2"]
    assert [e["violated"] for e in dumped["triplets"]] == [False, True]
    assert from_serializable(dumped) == tables
    start = PermutationState.identity(3)
    root = GridNode.root(start, (tables[0], tables[0]), start)
    assert _tangle(root.pairs, root.trips) == 2 * (1 + 3)


# ---------------------------------------------------------------------------
# Fallback stages.
# ---------------------------------------------------------------------------


def test_unwind_reaches_identity_table():
    from braidplan.planner import _columns, _tangle, _unwind

    start = PermutationState.identity(4)
    mid = PermutationState((4, 3, 2, 1), (2, 1, 4, 3))
    first = plan(start, mid)
    assert first.trace.reason == "goal"
    carried = first.final_braids
    root = GridNode.root(mid, carried, start)
    assert _tangle(root.pairs, root.trips) > 0
    best, trace = _unwind(root, _columns(start), 5000)
    assert trace.reason == "goal"
    assert _tangle(best.pairs, best.trips) == 0
    assert trace.expanded <= 5000
    assert best.g >= 1
    # the budget stops the walk with tangle left
    best, trace = _unwind(root, _columns(start), 1)
    assert best is None
    assert (trace.expanded, trace.reason) == (1, "max_expansions")


def test_planned_history_walks_back_to_clean_tables():
    """Every move's reverse is a move, so a team's planned history, walked
    backwards with ``expand``, is a legal walk back to clean tables: a
    zero-tangle node is reachable from every carried root, and ``_unwind``
    reaches one.  The history chains ``plan()`` over the carried sets of
    ``make_scenario(6, 30, 2)``."""
    from braidplan.planner import _UNWIND_BUDGET, _columns, _tangle, _unwind

    def step(node: GridNode, perms: PermutationState) -> GridNode:
        return next(c for c in expand(node, perms) if (c.pi1, c.pi2) == (perms.pi1, perms.pi2))

    scenario = make_scenario(6, 30, 2)
    start = ranks_from_positions(scenario.initial_positions)
    node = GridNode.root(start, _clean(6), start)
    history = [(start, node.braids)]
    for targets in scenario.target_sets:
        target = ranks_from_positions(targets)
        result = plan(start, target, node.braids)
        assert result.trace.reason == "goal"
        for perms in result.path[1:]:
            node = step(node, perms)
            history.append((perms, node.braids))
        assert node.braids == result.final_braids
        start = target
    assert len(history) > 100

    last = GridNode.root(start, node.braids, start)
    assert _tangle(last.pairs, last.trips) > 0
    node = last
    for perms, tables in reversed(history[:-1]):
        node = step(node, perms)
        assert node.braids == tables
    assert node.braids == _clean(6)

    best, trace = _unwind(last, _columns(start), _UNWIND_BUDGET)
    assert trace.reason == "goal" and _tangle(best.pairs, best.trips) == 0


def test_plan_from_clean_tables_is_the_axis_sort():
    """From clean tables the plan is the first axis sort: one expansion per
    action, nothing rejected, and the inversion count long."""
    rng = random.Random(18)
    for n in range(7, 11):
        for _ in range(5):
            start = random_perms(rng, n)
            target = random_perms(rng, n)
            result = plan(start, target)
            assert result.trace.reason == "goal"
            _assert_swap_chain(result.path, start, target)
            optimum = inversions(start.pi1, target.pi1) + inversions(start.pi2, target.pi2)
            assert len(result.path) - 1 == optimum
            assert result.trace.rejected_by_braid == 0
            assert result.trace.expanded == len(result.path) - 1


def test_search_stops_at_its_budget():
    from braidplan.planner import _columns, _search

    start = PermutationState.identity(6)
    target = PermutationState((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1))
    root = GridNode.root(start, _clean(6), target)
    node, trace = _search(root, target, _columns(target), 1)
    assert node is None and trace.expanded == 1
    assert trace.reason == "max_expansions"
    node, trace = _search(root, target, _columns(target), 10_000)
    assert node is not None and trace.reason == "goal"


def test_axis_sort_from_clean_table_always_succeeds():
    """From an untangled table, sorting one axis then the other, in either
    order, by adjacent out-of-order swaps never trips a braid check and is
    shortest."""
    from braidplan.planner import _axis_sort, _columns

    def check(start: PermutationState, target: PermutationState) -> None:
        root = GridNode.root(start, _clean(start.n), target)
        optimum = inversions(start.pi1, target.pi1) + inversions(start.pi2, target.pi2)
        for axes in ((1, 2), (2, 1)):
            node, trace = _axis_sort(root, target, _columns(target), axes)
            assert node is not None and trace.reason == "goal"
            assert (node.pi1, node.pi2) == (target.pi1, target.pi2)
            assert node.g == trace.expanded == optimum
            assert _all_clean(node.braids)

    perms3 = list(itertools.permutations((1, 2, 3)))
    states3 = [PermutationState(p1, p2) for p1 in perms3 for p2 in perms3]
    for start in states3:
        for target in states3:
            check(start, target)
    rng = random.Random(17)
    for n in range(4, 11):
        for _ in range(30):
            check(random_perms(rng, n), random_perms(rng, n))


def _sort_by_expand(root: GridNode, target: PermutationState, axes: tuple[int, int]):
    """Oracle for ``_axis_sort``: on each axis in turn, step to the child in
    ``expand`` that swaps the lowest rank-adjacent pair out of target order.
    Returns the nodes from the root on, or None at a rejected step, and the
    number of steps tried."""
    n, nodes, tried = len(root.pi1), [root], 0
    for axis in axes:
        goal = target.ranks(axis)
        while True:
            node = nodes[-1]
            inv = {r: robot for robot, r in enumerate(node.pi1 if axis == 1 else node.pi2, 1)}
            out = [k for k in range(1, n) if goal[inv[k] - 1] > goal[inv[k + 1] - 1]]
            if not out:
                break
            move = (axis, inv[out[0]], inv[out[0] + 1])
            tried += 1
            child = next((c for c in expand(node, target) if c.move == move), None)
            if child is None:
                return None, tried
            nodes.append(child)
    return nodes, tried


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), carried=st.booleans(),
    axes=st.sampled_from(((1, 2), (2, 1))),
)
def test_axis_sort_equals_stepping_through_expand(n, seed, carried, axes):
    """``_axis_sort`` moves one working copy of the states in place; its
    walk equals stepping through ``expand`` children from the root.  Every
    step is the child of the one before with the same ranks, move and g,
    and the last node has the same states, guidance sums and trace.  A
    rejected step returns None at the same step.  The root is never
    changed.  Tables are clean or carried over a random walk of expansions."""
    from braidplan.planner import SearchTrace, _axis_sort, _columns

    rng = random.Random(seed)
    node = GridNode.root(random_perms(rng, n), _clean(n), random_perms(rng, n))
    if carried:
        for _ in range(rng.randrange(1, 25)):
            node = rng.choice(expand(node, PermutationState(node.pi1, node.pi2)) or [node])
    target = random_perms(rng, n)
    root = GridNode.root(PermutationState(node.pi1, node.pi2), node.braids, target)
    before = (root.pi1, root.pi2, root.pairs, root.trips, root.g, root.hsum, root.xsum)
    sort, trace = _axis_sort(root, target, _columns(target), axes)
    assert (root.pi1, root.pi2, root.pairs, root.trips, root.g, root.hsum, root.xsum) == before
    nodes, tried = _sort_by_expand(root, target, axes)
    if nodes is None:
        assert sort is None
        assert trace == SearchTrace(tried, tried - 1, 1, 0, "max_expansions")
        return
    assert trace == SearchTrace(tried, tried, 0, 0, "goal")
    walk = [sort]
    while walk[-1] is not root:
        walk.append(walk[-1].parent)
    walk.reverse()
    assert [(w.pi1, w.pi2, w.move, w.g) for w in walk] == [
        (c.pi1, c.pi2, c.move, c.g) for c in nodes
    ]
    last = nodes[-1]
    assert (sort.pairs, sort.trips, sort.hsum, sort.xsum) == (
        last.pairs, last.trips, last.hsum, last.xsum
    )


def test_axis_sort_stops_on_rejected_step():
    # the only axis-1 swap has sign -1, which a carried -1 sum cannot take
    from braidplan.planner import _axis_sort, _columns

    start = PermutationState.identity(2)
    target = PermutationState((2, 1), (1, 2))
    carried = _pair_tables(-1, 0)
    root = GridNode.root(start, carried, target)
    node, trace = _axis_sort(root, target, _columns(target))
    assert node is None
    assert (trace.expanded, trace.generated, trace.rejected_by_braid) == (1, 0, 1)


def test_plan_stalled_query_recovers_by_axis_sort():
    """A query whose direct search stalls and whose guided re-sort used to
    exhaust the budget.

    The fixture holds the episode's start and target permutations and the
    carried braid tables (``to_serializable``) after sets 0-4 of
    ``make_scenario(9, 11, 191)`` ran through ``run_task_sequence``; the
    query is that scenario's set 5.  The direct search gives up at its
    budget, and unwind + sort finish within 1,000 more expansions (2,128 in
    all at the time of writing).
    """
    start, target, carried = _pinned_query("stalled_n9_query.json")
    result = plan(start, target, carried)
    assert result.trace.reason == "goal"
    assert result.trace.expanded <= planner._DIRECT_BUDGET + 1_000
    _assert_swap_chain(result.path, start, target)
    assert _all_clean(result.final_braids)


def test_plan_carried_n8_stall_recovers_within_budget():
    """The one ``team8-carry`` query whose direct search stalls: set 16 of
    ``make_scenario(8, 33, 12)``, with the tables carried after sets 0-15
    ran through ``run_task_sequence``.  The direct search gives up at its
    budget, and unwind + sort return a 76-swap plan within 1,000 more
    expansions (2,117 in all at the time of writing).  Under a 20,000
    budget the direct search reached no goal either, and the plan was the
    same length."""
    start, target, carried = _pinned_query("stalled_n8_query.json")
    result = plan(start, target, carried)
    assert result.trace.reason == "goal"
    assert result.trace.expanded <= planner._DIRECT_BUDGET + 1_000
    assert len(result.path) - 1 == 76
    _assert_swap_chain(result.path, start, target)
    assert _all_clean(result.final_braids)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Runs a test with the cyclic collector switched on or off, and puts it
    back as it was afterwards."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("collector", [False], ids=["collector-off"], indirect=True)
def test_search_builds_no_reference_cycle(collector):
    """The collector pause in ``_best_first`` is safe only because reference
    counting frees everything a search builds: a plan through the direct
    search, the unwind and the final sort leaves no cyclic garbage.  The
    first plan warms the process up, since a first call into some library
    code can leave one-off cycles outside braidplan."""
    start, target, carried = _pinned_query("stalled_n8_query.json")
    plan(start, target, carried)
    gc.collect()
    result = plan(start, target, carried)
    assert result.trace.expanded > planner._DIRECT_BUDGET
    assert gc.collect() == 0


def test_plan_pauses_the_collector_only_while_searching(collector, monkeypatch):
    seen = []
    expand_core = planner._expand

    def spy(*args):
        seen.append(gc.isenabled())
        return expand_core(*args)

    monkeypatch.setattr(planner, "_expand", spy)
    result = plan(*_pinned_query("stalled_n8_query.json"))
    assert result.trace.reason == "goal"
    assert seen and not any(seen)
    assert gc.isenabled() is collector


def test_plan_restores_the_collector_when_the_search_raises(collector, monkeypatch):
    def broken(*args):
        raise RuntimeError("expansion failed")

    monkeypatch.setattr(planner, "_expand", broken)
    with pytest.raises(RuntimeError, match="expansion failed"):
        plan(*_pinned_query("stalled_n8_query.json"))
    assert gc.isenabled() is collector


def test_search_from_unwound_stalled_query():
    """The guidance finds its way from the zero-tangle state that the unwind
    reaches on the pinned query: the direct search gets there within a
    budget of 1,000 expansions (56 at the time of writing, for 52 swaps),
    and no shorter than the inversion count."""
    from braidplan.planner import _columns, _search, _tangle, _unwind

    start, target, carried = _pinned_query("stalled_n9_query.json")
    root = GridNode.root(start, carried, target)
    cols = _columns(target)
    unwound, _ = _unwind(root, cols, planner._UNWIND_BUDGET)
    assert unwound is not None and _tangle(unwound.pairs, unwound.trips) == 0
    node, trace = _search(unwound, target, cols, 1000)
    assert trace.reason == "goal"
    assert (node.pi1, node.pi2) == (target.pi1, target.pi2)
    optimum = inversions(unwound.pi1, target.pi1) + inversions(unwound.pi2, target.pi2)
    assert node.g - unwound.g >= optimum


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(3, 6), seed=st.integers(0, 2**32 - 1))
def test_plan_effort_is_bounded(n, seed):
    """With budgets small enough that the fallback runs, every plan from a
    carried table is either a clean swap chain to the target or an explained
    failure.  Its expansions never exceed the two rejected sorts from the
    root, at most the inversion count each, plus both budgets, plus the
    longest axis sort from the unwound state, n(n - 1) swaps."""
    rng = random.Random(seed)
    target = random_perms(rng, n)
    node = GridNode.root(random_perms(rng, n), _clean(n), target)
    for _ in range(rng.randrange(20)):
        node = rng.choice(expand(node, target) or [node])
    start = PermutationState(node.pi1, node.pi2)
    target = random_perms(rng, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "_DIRECT_BUDGET", 20)
        mp.setattr(planner, "_UNWIND_BUDGET", 10)
        result = plan(start, target, node.braids)
    if result.path:
        assert result.trace.reason == "goal"
        _assert_swap_chain(result.path, start, target)
        assert _all_clean(result.final_braids)
    else:
        assert result.trace.reason in ("exhausted", "max_expansions")
        assert result.final_braids is None
    sort_length = inversions(start.pi1, target.pi1) + inversions(start.pi2, target.pi2)
    assert result.trace.expanded <= 2 * sort_length + 20 + 10 + n * (n - 1)
