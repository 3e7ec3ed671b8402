"""Best-first search over the permutation grid.

Robots are abstracted to their rank orders along two perpendicular
projection axes, so a team configuration is a pair of permutations and a
move swaps two adjacently ranked robots on one axis.  Every move induces
one crossing letter per projection axis braid.  A search node therefore
carries, besides the two permutations, the braid state of every robot
pair and triplet on both axes; a move whose letter drives any of those
braids into an entangling pattern is silently discarded, so any returned
path is entanglement-free by construction.  A ``BraidTable`` holds one
projection angle's states, the kind the verifier keeps per check angle,
and the planner's braid state is the pair (table at pi/2, table at 0).

The two grid axes default to projection angles (pi/2, 0): the axis-1 rank
of a robot determines its x cell (descending, so that the projected
coordinate u = -x ascends with rank) and the axis-2 rank its y cell
(ascending).  Crossing signs follow the geometry convention, +1 when the
left robot is nearer the viewer: on axis 1 depth is y, so the left robot
passes in front exactly when its axis-2 rank is larger; on axis 2 depth
is x, so in front means a *smaller* axis-1 rank.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush, heapreplace
from typing import Iterator

from .braid import (
    _FORBIDDEN_WORDS,
    _NEXT,
    _VIOLATED,
    _WORD,
    BraidLetter,
    BraidWord,
    pair_word_text,
    triplet_state_from_word,
    triplet_word_text,
    update_triplet,
)
from .errors import InputError

__all__ = [
    "AXIS_ANGLES",
    "PermutationState",
    "SwapAction",
    "BraidTable",
    "GridNode",
    "PlanResult",
    "SearchTrace",
    "action_space",
    "braid_letter_for_action",
    "expand",
    "heuristic",
    "pair_slot",
    "triplet_slot",
    "plan",
    "to_serializable",
    "from_serializable",
]

# Projection angles of grid axes 1 and 2.  See the module docstring; the
# workspace theta mapping and the verifier rely on these exact values.
AXIS_ANGLES: tuple[float, float] = (math.pi / 2, 0.0)


@dataclass(frozen=True)
class PermutationState:
    """Ranks of each robot on the two grid axes; both are bijections.

    ``pi1[r - 1]`` is robot r's rank on axis 1 (ranks are 1-based).
    """

    pi1: tuple[int, ...]
    pi2: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.pi1)
        if len(self.pi2) != n:
            raise InputError("rank vectors must have equal length")
        full = set(range(1, n + 1))
        if set(self.pi1) != full or set(self.pi2) != full:
            raise InputError("each rank vector must be a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.pi1)

    @classmethod
    def identity(cls, n: int) -> "PermutationState":
        ranks = tuple(range(1, n + 1))
        return cls(ranks, ranks)

    def ranks(self, axis: int) -> tuple[int, ...]:
        if axis == 1:
            return self.pi1
        if axis == 2:
            return self.pi2
        raise InputError(f"axis must be 1 or 2, got {axis}")


@dataclass(frozen=True)
class SwapAction:
    """Swap the adjacently ranked robots i and j on one axis.

    Robot i holds the lower of the two ranks before the swap.
    """

    axis: int
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.axis not in (1, 2):
            raise InputError(f"axis must be 1 or 2, got {self.axis}")
        if self.i == self.j:
            raise InputError("a swap needs two distinct robots")


def action_space(perms: PermutationState) -> list[SwapAction]:
    """The 2(n-1) adjacent-rank swaps available from a configuration."""
    actions = []
    for axis in (1, 2):
        ranks = perms.ranks(axis)
        inv = [0] * (perms.n + 1)
        for robot0, r in enumerate(ranks):
            inv[r] = robot0 + 1
        for k in range(1, perms.n):
            actions.append(SwapAction(axis, inv[k], inv[k + 1]))
    return actions


def _swap_sign(axis: int, perms: PermutationState, i: int, j: int) -> int:
    # Depth on axis 1 ascends with the axis-2 rank; on axis 2 it descends
    # with the axis-1 rank (d1 = y, d2 = x under the theta mapping).
    if axis == 1:
        return 1 if perms.pi2[i - 1] > perms.pi2[j - 1] else -1
    return 1 if perms.pi1[i - 1] < perms.pi1[j - 1] else -1


def braid_letter_for_action(
    action: SwapAction, perms: PermutationState, subset: tuple[int, ...]
) -> BraidLetter:
    """The crossing letter an action appends to a pair or triplet braid.

    ``subset`` must contain both swapped robots; the generator index is the
    pre-swap rank of the lower robot counted within the subset.
    """
    ranks = perms.ranks(action.axis)
    ri, rj = ranks[action.i - 1], ranks[action.j - 1]
    if rj != ri + 1:
        raise InputError(
            f"robots {action.i},{action.j} are not rank-adjacent on axis {action.axis}"
        )
    members = set(subset)
    if len(subset) not in (2, 3) or len(members) != len(subset):
        raise InputError("subset must be 2 or 3 distinct robot ids")
    if action.i not in members or action.j not in members:
        raise InputError("subset must contain both swapped robots")
    index = sum(1 for s in subset if ranks[s - 1] <= ri)
    return BraidLetter(index, _swap_sign(action.axis, perms, action.i, action.j))


def heuristic(perms: PermutationState, target: PermutationState, bias: float = 1.5) -> float:
    """Biased half-Manhattan rank distance; admissible at bias 1."""
    total = 0
    for a, b in zip(perms.pi1, target.pi1):
        total += abs(a - b)
    for a, b in zip(perms.pi2, target.pi2):
        total += abs(a - b)
    return bias * total / 2.0


# ---------------------------------------------------------------------------
# Braid tables: one pair count and one triplet state per robot pair and
# triplet, on one projection angle.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pair_ord(n: int) -> dict[tuple[int, int], int]:
    return {p: o for o, p in enumerate(itertools.combinations(range(1, n + 1), 2))}


@lru_cache(maxsize=None)
def _trip_ord(n: int) -> dict[tuple[int, int, int], int]:
    return {t: o for o, t in enumerate(itertools.combinations(range(1, n + 1), 3))}


def pair_slot(n: int, i: int, j: int) -> int:
    """Index of pair (i, j), i < j, in a table's pair tuple."""
    return _pair_ord(n)[(i, j)]


def triplet_slot(n: int, i: int, j: int, k: int) -> int:
    """Index of triplet (i, j, k), i < j < k, in a table's triplet tuple."""
    return _trip_ord(n)[(i, j, k)]


class BraidTable:
    """Braid state of every robot pair and triplet on one projection angle.

    Immutable; planner nodes share unchanged tuples structurally.  Pairs and
    triplets are stored in combination order.  A pair's entry is its signed
    crossing count (B2 is infinite cyclic), violated at +-2; a triplet's is
    its state id from ``braid``, one id per braid, so tables are tuples of
    small ints that compare and hash by value.
    """

    __slots__ = ("n", "pairs", "triplets", "_hash")

    def __init__(self, n: int, pairs: tuple[int, ...], triplets: tuple[int, ...]):
        if len(pairs) != len(_pair_ord(n)):
            raise InputError("pair tuple has the wrong length for this team size")
        if len(triplets) != len(_trip_ord(n)):
            raise InputError("triplet tuple has the wrong length for this team size")
        self.n = n
        self.pairs = pairs
        self.triplets = triplets
        self._hash = hash((n, pairs, triplets))

    @classmethod
    def identity(cls, n: int) -> "BraidTable":
        return cls(n, (0,) * len(_pair_ord(n)), (0,) * len(_trip_ord(n)))

    @property
    def is_clean(self) -> bool:
        return not (
            any(abs(c) >= 2 for c in self.pairs) or any(_VIOLATED[t] for t in self.triplets)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BraidTable):
            return NotImplemented
        return self.n == other.n and self.pairs == other.pairs and self.triplets == other.triplets

    def __hash__(self) -> int:
        return self._hash


def to_serializable(tables: tuple[BraidTable, ...]) -> dict:
    """One team's tables on ``len(tables)`` angles as one JSON object.

    ``"axes"`` is the number of tables, and each entry names its table by a
    1-based ``"axis"``.  Entries are listed by ids, then by axis.
    """
    n = tables[0].n
    pairs = [
        {"ids": list(ids), "axis": axis, "word": pair_word_text(c), "violated": abs(c) >= 2}
        for ids, axis, c in _by_slot(_pair_ord(n), [t.pairs for t in tables])
    ]
    trips = [
        {"ids": list(ids), "axis": axis, "word": triplet_word_text(st), "violated": _VIOLATED[st]}
        for ids, axis, st in _by_slot(_trip_ord(n), [t.triplets for t in tables])
    ]
    return {"n": n, "axes": len(tables), "pairs": pairs, "triplets": trips}


def from_serializable(data: dict) -> tuple[BraidTable, ...]:
    """Inverse of ``to_serializable``: one table per axis, in axis order.

    ``data`` must list every slot exactly once, so a truncated table cannot
    load as a less tangled one, and each entry's ``violated`` flag, if
    given, is the boolean its word implies.  Anything else is an
    ``InputError``: a missing or mistyped field, ``"axes"`` other than 1 or
    2, ids or an axis that name no slot, a malformed word, or a slot given
    twice.
    """
    if not isinstance(data, dict):
        raise InputError("a braid table must be a JSON object")
    n, axes = data.get("n"), data.get("axes")
    if type(n) is not int or n < 1 or type(axes) is not int or axes not in (1, 2):
        raise InputError(
            f"a braid table needs a positive integer \"n\" and \"axes\" 1 or 2, "
            f"got {n!r} and {axes!r}"
        )
    pair_columns = _slot_words(data, "pairs", _pair_ord, 2, n, axes)
    trip_columns = _slot_words(data, "triplets", _trip_ord, 3, n, axes)
    tables = []
    for pair_column, trip_column in zip(pair_columns, trip_columns):
        pairs = tuple(sum(l.sign for l in word.letters) for word, _ in pair_column)
        trips = tuple(triplet_state_from_word(word) for word, _ in trip_column)
        for (_, entry), count in zip(pair_column, pairs):
            _check_flag(entry, abs(count) >= 2)
        for (_, entry), state in zip(trip_column, trips):
            _check_flag(entry, _VIOLATED[state])
        tables.append(BraidTable(n, pairs, trips))
    return tuple(tables)


def _by_slot(ords: dict, columns: list[tuple]) -> Iterator[tuple[tuple, int, object]]:
    """Yields (ids, axis, state) in serialized order: ids first, then axis."""
    for ids, o in ords.items():
        for axis, states in enumerate(columns, start=1):
            yield ids, axis, states[o]


def _slot_words(
    data: dict, key: str, ord_of, size: int, n: int, axes: int
) -> list[list[tuple[BraidWord, dict]]]:
    """(word, entry) of each slot of ``data[key]``: one list per axis, in
    slot order.  The entry count is checked before a hostile ``n`` can build
    a huge slot table."""
    entries, slots = data.get(key), axes * math.comb(n, size)
    if not isinstance(entries, list) or len(entries) != slots:
        raise InputError(f"braid table {key!r} must list all {slots} slots")
    ords = ord_of(n)
    columns: list[list] = [[None] * len(ords) for _ in range(axes)]
    for entry in entries:
        if not isinstance(entry, dict):
            raise InputError(f"braid table entries must be JSON objects, got {entry!r}")
        ids, axis, text = entry.get("ids"), entry.get("axis"), entry.get("word")
        # ``ords`` holds exactly the ascending id tuples in 1..n.
        int_ids = isinstance(ids, list) and all(type(r) is int for r in ids)
        o = ords.get(tuple(ids)) if int_ids else None
        if o is None or type(axis) is not int or not 1 <= axis <= axes:
            raise InputError(f"braid table entry {entry!r} names no slot of this table")
        if not isinstance(text, str):
            raise InputError(f"braid table entry {entry!r} has no word")
        column = columns[axis - 1]
        if column[o] is not None:
            raise InputError(f"braid table entry {entry!r} repeats a slot")
        column[o] = (BraidWord.from_text(text, size), entry)
    return columns


def _check_flag(entry: dict, violated: bool) -> None:
    if "violated" in entry and entry["violated"] is not violated:
        raise InputError(
            f"braid table entry {entry!r}: \"violated\" must be {violated}, as its word implies"
        )


# ---------------------------------------------------------------------------
# Pair-automaton lower bound used by the search.
#
# Each swap action changes the relative order of exactly one robot pair,
# and the sign of a pair's crossing depends only on that pair's own
# relative orders: an axis-1 crossing appends sign -o1*o2 and flips o1,
# an axis-2 crossing appends +o1*o2 and flips o2 (o_k = +1 when the
# lower-id robot ranks first on axis k).  With prefix sums capped at
# |s| <= 1, each pair therefore walks a 36-state automaton independently
# of the rest of the team, and the sum of per-pair shortest automaton
# walks is an admissible, consistent lower bound on remaining actions.
# Unlike the rank-Manhattan bound it sees the braid constraints, which
# keeps the search from flooding plateaus that carried-over cable states
# have made expensive, and an unreachable pair target (_INF) proves the
# whole query infeasible.
# ---------------------------------------------------------------------------

_INF = 1 << 30


def _build_pair_automaton() -> dict[tuple[int, int, int, int, int, int], int]:
    states = [
        (o1, o2, s1, s2)
        for o1 in (-1, 1)
        for o2 in (-1, 1)
        for s1 in (-1, 0, 1)
        for s2 in (-1, 0, 1)
    ]

    def moves(st: tuple[int, int, int, int]) -> list[tuple[int, int, int, int]]:
        o1, o2, s1, s2 = st
        out = []
        sg = -o1 * o2
        if abs(s1 + sg) <= 1:
            out.append((-o1, o2, s1 + sg, s2))
        sg = o1 * o2
        if abs(s2 + sg) <= 1:
            out.append((o1, -o2, s1, s2 + sg))
        return out

    dist: dict[tuple[int, int, int, int, int, int], int] = {}
    for src in states:
        seen = {src: 0}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nxt in moves(cur):
                if nxt not in seen:
                    seen[nxt] = seen[cur] + 1
                    queue.append(nxt)
        for t1 in (-1, 1):
            for t2 in (-1, 1):
                dist[src + (t1, t2)] = min(
                    (d for st, d in seen.items() if st[0] == t1 and st[1] == t2),
                    default=_INF,
                )
    return dist


_PAIR_DIST = _build_pair_automaton()


# ---------------------------------------------------------------------------
# Search nodes and expansion.
# ---------------------------------------------------------------------------


class GridNode:
    """One search node: a configuration with its accumulated braid state.

    ``pairs`` and ``trips`` hold one tuple per grid axis, the entries of the
    node's table at pi/2 and at 0, so a child rebuilds only the tuples of
    the axis it swaps on and shares the other axis's with its parent.
    ``hsum`` is the pair-automaton lower bound on remaining actions (see
    ``_build_pair_automaton``), maintained incrementally: each action
    changes exactly one pair's term.  Nodes are their own closed-list keys:
    pair entries are crossing counts and triplet entries are state ids, so
    a node hashes and compares tuples of small ints.
    """

    __slots__ = ("pi1", "pi2", "pairs", "trips", "g", "hsum", "parent", "action", "_kh")

    def __init__(self, pi1, pi2, pairs, trips, g, hsum, parent, action):
        self.pi1 = pi1
        self.pi2 = pi2
        self.pairs = pairs
        self.trips = trips
        self.g = g
        self.hsum = hsum
        self.parent = parent
        self.action = action
        self._kh = hash((pi1, pi2, pairs, trips))

    def __hash__(self) -> int:
        return self._kh

    def __eq__(self, other: object) -> bool:
        if type(other) is not GridNode:
            return NotImplemented
        return (
            self.pi1 == other.pi1
            and self.pi2 == other.pi2
            and self.pairs == other.pairs
            and self.trips == other.trips
        )

    @property
    def braids(self) -> tuple[BraidTable, BraidTable]:
        """The node's (table at pi/2, table at 0)."""
        n = len(self.pi1)
        (pairs1, pairs2), (trips1, trips2) = self.pairs, self.trips
        return BraidTable(n, pairs1, trips1), BraidTable(n, pairs2, trips2)

    @classmethod
    def root(
        cls, perms: PermutationState, braids: tuple[BraidTable, BraidTable],
        target: PermutationState,
    ) -> "GridNode":
        """The search root; ``braids`` is the (table at pi/2, table at 0) pair."""
        if len(braids) != 2 or braids[0].n != perms.n or braids[1].n != perms.n:
            raise InputError("the planner needs one braid table per grid axis for this team")
        table1, table2 = braids
        if not (table1.is_clean and table2.is_clean):
            raise InputError("initial braid tables already hold a violated state")
        pairs1, pairs2 = table1.pairs, table2.pairs
        hsum = 0
        for (a, b), o in _pair_ord(perms.n).items():
            o1 = 1 if perms.pi1[a - 1] < perms.pi1[b - 1] else -1
            o2 = 1 if perms.pi2[a - 1] < perms.pi2[b - 1] else -1
            t1 = 1 if target.pi1[a - 1] < target.pi1[b - 1] else -1
            t2 = 1 if target.pi2[a - 1] < target.pi2[b - 1] else -1
            hsum += _PAIR_DIST[(o1, o2, pairs1[o], pairs2[o], t1, t2)]
        trips = (table1.triplets, table2.triplets)
        return cls(perms.pi1, perms.pi2, (pairs1, pairs2), trips, 0, hsum, None, None)


def expand(node: GridNode, target: PermutationState) -> list[GridNode]:
    """Children of a node, silently dropping braid-violating moves.

    Every child's braid tables share all entries with its parent's except
    the one pair and the n-2 triplet states touched on the swap axis.
    """
    return _expand(node, target, False)[0]


@lru_cache(maxsize=None)
def _rows(n: int) -> dict[tuple[int, int], tuple]:
    """One row per pair (a, b), a < b, in pair order: ``(a - 1, b - 1, pair
    ord, ((t - 1, triplet ord of {a, b, t}), ...))`` over every third robot
    t in ascending order."""
    tord = _trip_ord(n)
    return {
        (a, b): (
            a - 1, b - 1, po,
            tuple(
                (t - 1, tord[tuple(sorted((a, b, t)))])
                for t in range(1, n + 1) if t != a and t != b
            ),
        )
        for (a, b), po in _pair_ord(n).items()
    }


def _target_orders(target: PermutationState) -> tuple[tuple[int, int], ...]:
    """Per pair, in pair order: +1 or -1 for whether the lower id ranks
    first on axis 1 and on axis 2 of ``target``."""
    tg1, tg2 = target.pi1, target.pi2
    return tuple(
        (1 if tg1[a0] < tg1[b0] else -1, 1 if tg2[a0] < tg2[b0] else -1)
        for a0, b0, _, _ in _rows(len(tg1)).values()
    )


def _expand(node: GridNode, target: PermutationState, prune: bool) -> tuple[list[GridNode], int]:
    """Expansion core; returns (children, braid-rejected action count).

    With ``prune`` set, two kinds of provably redundant successors are
    skipped.  Swaps of disjoint robot pairs commute exactly: neither changes
    the other's rank adjacency, crossing letters, or touched braid slots, so
    both orders reach the identical state and only the canonically ordered
    one is generated.  A swap that exactly undoes the arriving action is
    skipped too: its letters cancel under free reduction, so it recreates
    the already-closed parent state.
    """
    n = len(node.pi1)
    children: list[GridNode] = []
    braid_rejected = 0

    pa = node.action if prune else None
    if pa is not None:
        pa_a, pa_b = (pa.i, pa.j) if pa.i < pa.j else (pa.j, pa.i)
        pa_key = (pa.axis, pa_a, pa_b)

    for axis in (1, 2):
        inv = [0] * (n + 1)
        for robot0, r in enumerate(node.pi1 if axis == 1 else node.pi2):
            inv[r] = robot0 + 1
        for k in range(1, n):
            i, j = inv[k], inv[k + 1]
            if pa is not None:
                a, b = (i, j) if i < j else (j, i)
                if a == pa_a and b == pa_b:
                    if axis == pa.axis:
                        continue
                elif a != pa_a and a != pa_b and b != pa_a and b != pa_b:
                    if (axis, a, b) < pa_key:
                        continue
            child = _child(node, target, axis, k, i, j)
            if child is None:
                braid_rejected += 1
            else:
                children.append(child)
    return children, braid_rejected


def _child(
    node: GridNode, target: PermutationState, axis: int, k: int, i: int, j: int
) -> GridNode | None:
    """The node reached by swapping robots i and j, ranked k and k + 1 on
    ``axis``, or None when a braid check rejects the move: the pair's
    crossing count would leave [-1, 1] or a triplet word would become
    forbidden.

    A move the pair check allows never strands the pair: the reverse swap
    undoes every automaton step, so a pair with a finite distance to its
    target orders keeps one, and ``plan`` refuses roots with an
    unreachable pair.
    """
    pi1, pi2 = node.pi1, node.pi2
    pairs1, pairs2 = node.pairs
    trips1, trips2 = node.trips
    a0, b0, po, thirds = _rows(len(pi1))[(i, j) if i < j else (j, i)]
    if axis == 1:
        ranks, node_pairs, node_trips = pi1, pairs1, trips1
        sign = 1 if pi2[i - 1] > pi2[j - 1] else -1
    else:
        ranks, node_pairs, node_trips = pi2, pairs2, trips2
        sign = 1 if pi1[i - 1] < pi1[j - 1] else -1

    new_pair = node_pairs[po] + sign
    if abs(new_pair) > 1:
        return None
    o1 = 1 if pi1[a0] < pi1[b0] else -1
    o2 = 1 if pi2[a0] < pi2[b0] else -1
    to1 = 1 if target.pi1[a0] < target.pi1[b0] else -1
    to2 = 1 if target.pi2[a0] < target.pi2[b0] else -1
    s1 = pairs1[po]
    s2 = pairs2[po]
    before = _PAIR_DIST[(o1, o2, s1, s2, to1, to2)]
    if axis == 1:
        after = _PAIR_DIST[(-o1, o2, new_pair, s2, to1, to2)]
    else:
        after = _PAIR_DIST[(o1, -o2, s1, new_pair, to1, to2)]

    # The letter's slot in ``braid._NEXT``: s2 when the third robot ranks
    # below the pair, else s1; its inverse for a negative crossing.
    neg = sign < 0
    trip_changes: list[tuple[int, int]] = []
    for t0, to in thirds:
        st = node_trips[to]
        index = 2 if ranks[t0] < k else 1
        new_trip = _NEXT[4 * st + 2 * index - 2 + neg]
        if new_trip < 0:
            new_trip, _ = update_triplet(st, BraidLetter(index, sign))
        if _VIOLATED[new_trip]:
            return None
        trip_changes.append((to, new_trip))

    pairs = list(node_pairs)
    pairs[po] = new_pair
    trips = list(node_trips)
    for to, st in trip_changes:
        trips[to] = st
    new_ranks = list(ranks)
    new_ranks[i - 1], new_ranks[j - 1] = k + 1, k
    # Only the swap axis's tuples are rebuilt; the other axis's are shared.
    if axis == 1:
        pi1, pairs1, trips1 = tuple(new_ranks), tuple(pairs), tuple(trips)
    else:
        pi2, pairs2, trips2 = tuple(new_ranks), tuple(pairs), tuple(trips)
    return GridNode(
        pi1, pi2, (pairs1, pairs2), (trips1, trips2),
        node.g + 1, node.hsum - before + after, node, SwapAction(axis, i, j),
    )


def _build_blockers() -> dict[int, tuple[int, int]]:
    """The triplet states that block some crossing letter, with what they block.

    A state blocks letter L exactly when state * L is one of the four
    forbidden braids F, that is when the state is F * L^-1, so only these
    16 states can block anything.  They are distinct, so each blocks
    exactly one letter.  Each maps to what it blocks under a crossing of
    sign -1 and of sign +1 (indices 0 and 1): 1 for s1, 2 for s2, 0 for
    neither.  All 16 are interned here, at import; only the four of two
    letters (s1 S2, S1 s2, s2 S1, S2 s1) are states a plan can hold.
    """
    blockers: dict[int, tuple[int, int]] = {}
    for text in _FORBIDDEN_WORDS:
        forbidden = BraidWord.from_text(text, 3).letters
        for index in (1, 2):
            for sign in (-1, 1):
                state = triplet_state_from_word(
                    BraidWord(3, forbidden + (BraidLetter(index, -sign),))
                )
                blockers[state] = (0, index) if sign > 0 else (index, 0)
    return blockers


_BLOCKERS = _build_blockers()


def _transport_penalty(node: GridNode, orders: tuple[tuple[int, int], ...]) -> int:
    """Rank transport needed before blocked-but-required crossings can happen.

    ``orders`` is ``_target_orders(target)``.  Two blockage patterns hide
    from the per-pair automaton bound, and both stall the search on a
    plateau because the detour that fixes them raises the bound before the
    required crossing can lower it.  First, a crossing whose geometric sign
    would push the pair's own exponent sum out of bounds: the route must
    first flip the pair's order on the other axis, and making the pair
    adjacent over there costs twice its rank gap in crossings of
    otherwise-ordered pairs.  Second, a crossing forbidden by a triplet
    constraint while a third robot sits on one side of the pair: that robot
    must travel to the allowed side first.  Summing the corresponding rank
    distances gives those detours a downhill gradient.  Guidance only, not
    a lower bound.

    A triplet state can block a letter only if it is one of the 16 states
    in ``_BLOCKERS``, and none blocks both sides of a pair, so each probe is
    one lookup of the state's id there.
    """
    pi1, pi2 = node.pi1, node.pi2
    pairs1, pairs2 = node.pairs
    trips1, trips2 = node.trips
    n = len(pi1)
    blockers = _BLOCKERS
    pen = 0
    for (a0, b0, po, thirds), (t1, t2) in zip(_rows(n).values(), orders):
        o1 = 1 if pi1[a0] < pi1[b0] else -1
        o2 = 1 if pi2[a0] < pi2[b0] else -1
        d1 = o1 != t1
        d2 = o2 != t2
        if not (d1 or d2):
            continue
        s1 = pairs1[po]
        s2 = pairs2[po]
        if _PAIR_DIST[(o1, o2, s1, s2, t1, t2)] > d1 + d2:
            # The shortest route includes auxiliary crossings on an axis
            # that is already ordered, so the pair must become adjacent
            # there first and separate again afterwards.
            if d1 and not d2:
                gap = abs(pi2[a0] - pi2[b0]) - 1
            elif d2 and not d1:
                gap = abs(pi1[a0] - pi1[b0]) - 1
            else:
                gap = min(abs(pi1[a0] - pi1[b0]), abs(pi2[a0] - pi2[b0])) - 1
            pen += 2 * gap
        for axis in (1, 2):
            if axis == 1:
                if not d1:
                    continue
                sign = -o1 * o2
                if abs(s1 + sign) > 1:
                    # The direct sign is unusable; the route flips the
                    # other axis first and crosses with the sign negated.
                    sign = -sign
                ranks = pi1
                trips = trips1
            else:
                if not d2:
                    continue
                sign = o1 * o2
                if abs(s2 + sign) > 1:
                    sign = -sign
                ranks = pi2
                trips = trips2
            positive = sign > 0
            ra, rb = ranks[a0], ranks[b0]
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            for t0, to in thirds:
                blocks = blockers.get(trips[to])
                if blocks is None:
                    continue
                blocked = blocks[positive]
                if blocked == 1:
                    # s1, the letter with the third robot above the pair,
                    # is blocked: the robot must move below it.
                    rt = ranks[t0]
                    if rt > lo:
                        pen += rt - lo
                elif blocked == 2:
                    rt = ranks[t0]
                    if rt < hi:
                        pen += hi - rt
    return pen


@dataclass(frozen=True)
class SearchTrace:
    expanded: int
    generated: int
    rejected_by_braid: int
    peak_open: int
    reason: str  # "goal", "exhausted", or "max_expansions"


@dataclass(frozen=True)
class PlanResult:
    path: tuple[PermutationState, ...]
    # The (table at pi/2, table at 0) predicted at the goal.
    final_braids: tuple[BraidTable, BraidTable] | None
    trace: SearchTrace


# One search stage's outcome: the node it reached (None if it gave up) and its trace.
_Stage = tuple[GridNode | None, SearchTrace]

# The direct search orders nodes by g + _WEIGHT * (hsum + _transport_penalty)
# and gets _DIRECT_BUDGET expansions before a query counts as stuck against
# carried cable tangle; the unwind stage then gets _UNWIND_BUDGET more.
_WEIGHT = 3.0
_DIRECT_BUDGET = 20_000
_UNWIND_BUDGET = 30_000


def _tangle(node: GridNode) -> int:
    """Letters recorded across the node's braid tables: each pair's crossing
    count and each triplet's word length, the shortest for every braid a
    plan can hold."""
    total = 0
    for pairs, trips in zip(node.pairs, node.trips):
        for st in trips:
            total += len(_WORD[st])
        for c in pairs:
            total += abs(c)
    return total


def _best_first(
    root: GridNode, target: PermutationState, key, done, budget: int, refine=None
) -> _Stage:
    """Expand nodes in ascending ``key(node)`` order until one is ``done``.

    Ties on the key pop the newest node first, diving across plateaus, so
    the result is deterministic.  A child is queued only when it improves
    on the best g seen for its state.  Stops with the done node (reason
    "goal"), with None after ``budget`` expansions ("max_expansions"), or
    with None once the queue runs dry ("exhausted").

    With ``refine``, nodes are ordered by ``refine(node)`` instead, but
    computed lazily: a node is queued under the cheap ``key(node)``, which
    must never exceed ``refine(node)``, and only when that entry reaches
    the front is ``refine`` called and the node queued again under the full
    key, with the same sequence number.  Only a full-key entry is checked
    against the closed set and expanded.  A full-key entry at the front is
    no larger than any other entry's full key, and sequence numbers are
    unique, so nodes pop in exactly the order an eager queue of full keys
    gives.  An entry whose node was closed meanwhile is refined and queued
    again all the same, so the queue holds as many entries as the eager one
    at every expansion and ``peak_open`` is the eager count.
    """
    lazy = refine is not None
    heap: list[tuple] = [(*key(root), 0, lazy, root)]
    g_best = {root: root.g}
    closed: set[GridNode] = set()
    seq = 0
    expanded = generated = rejected = 0
    peak_open = 1

    while heap:
        _, _, order, pending, node = heap[0]
        if pending:
            heapreplace(heap, (*refine(node), order, False, node))
            continue
        heappop(heap)
        if node in closed:
            continue
        closed.add(node)
        expanded += 1
        if done(node):
            return node, SearchTrace(expanded, generated, rejected, peak_open, "goal")
        if expanded >= budget:
            return None, SearchTrace(expanded, generated, rejected, peak_open, "max_expansions")
        children, braid_rejected = _expand(node, target, True)
        rejected += braid_rejected
        generated += len(children)
        for child in children:
            if child in closed or g_best.get(child, _INF) <= child.g:
                continue
            g_best[child] = child.g
            seq += 1
            heappush(heap, (*key(child), -seq, lazy, child))
        if len(heap) > peak_open:
            peak_open = len(heap)

    return None, SearchTrace(expanded, generated, rejected, peak_open, "exhausted")


def _search(root: GridNode, target: PermutationState, budget: int) -> _Stage:
    """The direct stage: best-first to the target by f = g + h, ties on lower h.

    h is ``_WEIGHT * (hsum + _transport_penalty)``, refined lazily: a child
    is queued under the pair bound alone, h = ``_WEIGHT * hsum``, and gets
    its penalty only if it reaches the front of the queue (see
    ``_best_first``).  Most queued children never do.
    """

    orders = _target_orders(target)

    def bound(node: GridNode) -> tuple[float, float]:
        h = _WEIGHT * node.hsum
        return node.g + h, h

    def key(node: GridNode) -> tuple[float, float]:
        h = _WEIGHT * (node.hsum + _transport_penalty(node, orders))
        return node.g + h, h

    return _best_first(
        root,
        target,
        bound,
        lambda node: node.pi1 == target.pi1 and node.pi2 == target.pi2,
        budget,
        refine=key,
    )


def _unwind(root: GridNode, target: PermutationState, budget: int) -> _Stage:
    """Best-first descent on recorded letters to a zero-tangle node.

    Carried braid words accumulated over earlier episodes can make the
    direct search intractable; retracing crossings so the words cancel is
    cheap because every recorded letter keeps its undo move available.
    """
    return _best_first(
        root, target, lambda node: (_tangle(node), node.g), lambda node: _tangle(node) == 0, budget
    )


def _axis_sort(root: GridNode, target: PermutationState) -> _Stage:
    """Bubble-sort axis 1, then axis 2, into target order through ``_child``.

    Each step swaps the lowest rank-adjacent pair that is out of target
    order on the current axis, so every move keeps all braid checks and
    the walk is at most the inversion count long.  Returns None when a
    swap is rejected.  From a zero-tangle table no swap ever is, and the
    path length is the inversion count, the shortest possible (see
    ``plan``).
    """
    n = len(root.pi1)
    node = root
    expanded = 0
    for axis, goal in ((1, target.pi1), (2, target.pi2)):
        while True:
            inv = [0] * (n + 1)
            for robot0, r in enumerate(node.pi1 if axis == 1 else node.pi2):
                inv[r] = robot0 + 1
            k = next((k for k in range(1, n) if goal[inv[k] - 1] > goal[inv[k + 1] - 1]), None)
            if k is None:
                break
            expanded += 1
            child = _child(node, target, axis, k, inv[k], inv[k + 1])
            if child is None:
                return None, SearchTrace(expanded, expanded - 1, 1, 0, "max_expansions")
            node = child
    return node, SearchTrace(expanded, expanded, 0, 0, "goal")


def _chain(stages: list[SearchTrace], reason: str) -> SearchTrace:
    """One record for consecutive stages: summed counts, the largest queue."""
    return SearchTrace(
        sum(t.expanded for t in stages),
        sum(t.generated for t in stages),
        sum(t.rejected_by_braid for t in stages),
        max(t.peak_open for t in stages),
        reason,
    )


def plan(
    start: PermutationState,
    target: PermutationState,
    braids: tuple[BraidTable, BraidTable] | None = None,
    *,
    check_braids: bool = True,
) -> PlanResult:
    """Search for an entanglement-free swap sequence from start to target.

    ``braids`` is the team's carried (table at pi/2, table at 0) pair, clean
    tables when None.  Returns the permutation path (empty when no safe path
    was found), the pair of tables predicted at the goal, and search
    statistics summed over the stages that ran.

    The direct best-first search orders nodes by g + 3 * (pair-automaton
    bound + ``_transport_penalty``) and stops after ``_DIRECT_BUDGET``
    expansions.  A query it cannot solve within that is taken to be stuck
    against heavily tangled carried-over braids: up to ``_UNWIND_BUDGET``
    expansions then go to unwinding the recorded words to the identity,
    and from there ``_axis_sort`` sorts axis 1, then axis 2, by swapping
    rank-adjacent robots that are out of target order.  From a zero-tangle
    table that sort cannot fail: each pair crosses at most once per axis,
    so no pair sum leaves +-1; while one axis is sorted the other axis's
    ranks stay fixed, so every crossing sign is a comparison under one
    fixed order, and each forbidden triplet word would need those
    comparisons to form a cycle (a > b > c > a).  That leg's length is the
    inversion count, the shortest possible.  So every plan spends at most
    ``_DIRECT_BUDGET + _UNWIND_BUDGET`` expansions plus the inversion
    count.  When the unwind does not reach zero tangle within its budget
    the plan fails with the direct search's reason, "max_expansions"; a
    direct search that runs dry fails with "exhausted".

    The direct search queues each child under g + 3 * bound and computes
    the penalty only when the child reaches the front of the queue.  The
    penalty is never negative, so nodes still pop in the full key's order,
    and the path and the trace, ``peak_open`` included, are those of
    computing it for every child (see ``_best_first``).

    With ``check_braids`` off, ``braids`` is ignored: the plan is that
    axis sort from a clean table, a shortest path on the bare permutation
    grid, and ``final_braids`` is the clean tables with the path's
    crossings folded in.
    """
    if start.n != target.n:
        raise InputError("start and target describe different team sizes")
    if braids is None or not check_braids:
        braids = (BraidTable.identity(start.n),) * 2
    root = GridNode.root(start, braids, target)
    if not check_braids:
        node, trace = _axis_sort(root, target)
    elif root.hsum >= _INF:
        # Some pair's carried-over cable state makes its target order
        # provably unreachable; no amount of search can help.
        return PlanResult((), None, SearchTrace(0, 0, 0, 0, "exhausted"))
    else:
        node, trace = _search(root, target, _DIRECT_BUDGET)
        if trace.reason == "max_expansions":
            unwound, unwind_trace = _unwind(root, target, _UNWIND_BUDGET)
            stages = [trace, unwind_trace]
            if unwound is not None:
                node, sort_trace = _axis_sort(unwound, target)
                stages.append(sort_trace)
            trace = _chain(stages, "goal" if node is not None else trace.reason)

    if node is None:
        return PlanResult((), None, trace)
    path = []
    cur = node
    while cur is not None:
        path.append(PermutationState(cur.pi1, cur.pi2))
        cur = cur.parent
    path.reverse()
    return PlanResult(tuple(path), node.braids, trace)
