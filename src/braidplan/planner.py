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
from heapq import heappop, heappush
from typing import Iterator

from .braid import (
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
    ``_build_pair_automaton``) and ``xsum`` the summed triplet excess (see
    ``_excess_columns``), both maintained incrementally: each action
    changes exactly one pair's term and the terms of the n - 2 triplets
    that hold that pair.  Nodes are their own closed-list keys: pair
    entries are crossing counts and triplet entries are state ids, so a
    node hashes and compares tuples of small ints.
    """

    __slots__ = ("pi1", "pi2", "pairs", "trips", "g", "hsum", "xsum", "parent", "action", "_kh")

    def __init__(self, pi1, pi2, pairs, trips, g, hsum, xsum, parent, action):
        self.pi1 = pi1
        self.pi2 = pi2
        self.pairs = pairs
        self.trips = trips
        self.g = g
        self.hsum = hsum
        self.xsum = xsum
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
        return _root(perms, braids, target)[0]


def _root(
    perms: PermutationState, braids: tuple[BraidTable, BraidTable], target: PermutationState
) -> tuple[GridNode, int]:
    """``GridNode.root`` and, from the same pass over the pairs, the number
    of pairs out of target order on each axis: a successful sort's length."""
    if len(braids) != 2 or braids[0].n != perms.n or braids[1].n != perms.n:
        raise InputError("the planner needs one braid table per grid axis for this team")
    table1, table2 = braids
    if not (table1.is_clean and table2.is_clean):
        raise InputError("initial braid tables already hold a violated state")
    pi1, pi2 = perms.pi1, perms.pi2
    pairs1, pairs2 = table1.pairs, table2.pairs
    trips1, trips2 = table1.triplets, table2.triplets
    rows = _target_rows(target)
    # Each triplet once, as (a, b, t) with a < b < t; the excess is 0
    # wherever one axis's braid is trivial.
    xsum = sum(
        column.get((trips1[to], trips2[to], _code(pi1, a0, b0, t0), _code(pi2, a0, b0, t0)), 0)
        for a0, b0, _, _, _, thirds in rows.values()
        for t0, to, column in thirds
        if t0 > b0 and trips1[to] and trips2[to]
    )
    hsum, inversions = _pair_bound(pi1, pi2, pairs1, pairs2, rows)
    root = GridNode(pi1, pi2, (pairs1, pairs2), (trips1, trips2), 0, hsum, xsum, None, None)
    return root, inversions


def expand(node: GridNode, target: PermutationState) -> list[GridNode]:
    """Children of a node, silently dropping braid-violating moves.

    Every child's braid tables share all entries with its parent's except
    the one pair and the n-2 triplet states touched on the swap axis.
    """
    return _expand(node, _target_rows(target), False)[0]


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


def _code(ranks: tuple[int, ...], a0: int, b0: int, t0: int) -> int:
    """The order of robots a, b and t on one axis, as three bits: a before
    b, a before t, b before t."""
    ra, rb, rt = ranks[a0], ranks[b0], ranks[t0]
    return (ra < rb) + 2 * (ra < rt) + 4 * (rb < rt)


@lru_cache(maxsize=8)
def _target_rows(target: PermutationState) -> dict[tuple[int, int], tuple]:
    """``_rows`` for one target, with the excess columns of ``_excess_columns``."""
    return _rows_for(target, _excess_columns())


def _rows_for(target: PermutationState, columns: list[dict]) -> dict[tuple[int, int], tuple]:
    """One row per pair (a, b), a < b, in pair order: ``(a - 1, b - 1, pair
    ord, o1, o2, ((t - 1, triplet ord, column), ...))``.  o1 and o2 are +1
    or -1 for whether a ranks before b on axis 1 and on axis 2 of
    ``target``, and each third robot t gets the column of ``columns`` for
    the target's orders of (a, b, t)."""
    tg1, tg2 = target.pi1, target.pi2
    return {
        pair: (
            a0, b0, po,
            1 if tg1[a0] < tg1[b0] else -1,
            1 if tg2[a0] < tg2[b0] else -1,
            tuple(
                (t0, to, columns[8 * _code(tg1, a0, b0, t0) + _code(tg2, a0, b0, t0)])
                for t0, to in thirds
            ),
        )
        for pair, (a0, b0, po, thirds) in _rows(len(tg1)).items()
    }


def _pair_bound(
    pi1, pi2, pairs1, pairs2, rows: dict[tuple[int, int], tuple]
) -> tuple[int, int]:
    """The pair-automaton lower bound, the summed distances of every pair's
    state to its target orders, which ``rows`` gives; and the number of
    pairs out of those orders, counted once per axis."""
    total = inversions = 0
    for a0, b0, po, to1, to2, _ in rows.values():
        o1 = 1 if pi1[a0] < pi1[b0] else -1
        o2 = 1 if pi2[a0] < pi2[b0] else -1
        total += _PAIR_DIST[(o1, o2, pairs1[po], pairs2[po], to1, to2)]
        inversions += (o1 != to1) + (o2 != to2)
    return total, inversions


def _expand(
    node: GridNode, rows: dict[tuple[int, int], tuple], prune: bool
) -> tuple[list[GridNode], int]:
    """Expansion core; returns (children, braid-rejected action count).

    ``rows`` is ``_target_rows(target)``.  With ``prune`` set, two kinds of
    provably redundant successors are skipped.  Swaps of disjoint robot
    pairs commute exactly: neither changes the other's rank adjacency,
    crossing letters, or touched braid slots, so both orders reach the
    identical state and only the canonically ordered one is generated.  A
    swap that exactly undoes the arriving action is skipped too: its letters
    cancel under free reduction, so it recreates the already-closed parent
    state.
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
            child = _child(node, rows, axis, k, i, j)
            if child is None:
                braid_rejected += 1
            else:
                children.append(child)
    return children, braid_rejected


def _child(
    node: GridNode, rows: dict[tuple[int, int], tuple], axis: int, k: int, i: int, j: int
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
    a0, b0, po, to1, to2, thirds = rows[(i, j) if i < j else (j, i)]
    o1 = 1 if pi1[a0] < pi1[b0] else -1
    o2 = 1 if pi2[a0] < pi2[b0] else -1
    if axis == 1:
        ranks, node_pairs, node_trips = pi1, pairs1, trips1
        other_ranks, other_trips, ab, other_ab = pi2, trips2, o1 > 0, o2 > 0
        sign = 1 if pi2[i - 1] > pi2[j - 1] else -1
    else:
        ranks, node_pairs, node_trips = pi2, pairs2, trips2
        other_ranks, other_trips, ab, other_ab = pi1, trips1, o2 > 0, o1 > 0
        sign = 1 if pi1[i - 1] < pi1[j - 1] else -1

    new_pair = node_pairs[po] + sign
    if abs(new_pair) > 1:
        return None
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
    xsum = node.xsum
    other_a, other_b = other_ranks[a0], other_ranks[b0]
    trip_changes: list[tuple[int, int]] = []
    for t0, to, column in thirds:
        st = node_trips[to]
        above = ranks[t0] > k
        index = 1 if above else 2
        new_trip = _NEXT[4 * st + 2 * index - 2 + neg]
        if new_trip < 0:
            new_trip, _ = update_triplet(st, BraidLetter(index, sign))
        if _VIOLATED[new_trip]:
            return None
        trip_changes.append((to, new_trip))
        other = other_trips[to]
        if other:
            # The excess is 0 wherever one axis's braid is trivial.  ``_code``
            # of (a, b, t) on each axis; the swap flips a and b on its own.
            code = ab + (6 if above else 0)
            rt = other_ranks[t0]
            other_code = other_ab + 2 * (other_a < rt) + 4 * (other_b < rt)
            if axis == 1:
                xsum += column.get((new_trip, other, code ^ 1, other_code), 0) - column.get(
                    (st, other, code, other_code), 0
                )
            else:
                xsum += column.get((other, new_trip, other_code, code ^ 1), 0) - column.get(
                    (other, st, other_code, code), 0
                )

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
        node.g + 1, node.hsum - before + after, xsum, node, SwapAction(axis, i, j),
    )


@lru_cache(maxsize=None)
def _excess_columns() -> list[dict[tuple[int, int, int, int], int]]:
    """Exact triplet guidance: a pattern database (Culberson & Schaeffer,
    Computational Intelligence, 1998) of the n = 3 grid graph, built on
    first use.

    Inside a team a triplet moves as an n = 3 team would: only swaps within
    it change its orders and braids, and robots adjacent in the team are
    adjacent in the triplet.  A triplet state's *excess* is its exact
    distance to the target orders in the n = 3 graph minus the
    pair-automaton distances of its three pairs, the detours that the pair
    bound cannot see: 0, 2 or 4.

    Column ``8 * t1 + t2`` is for the target orders t1 and t2 of a
    triplet's robots (a, b, t) on axes 1 and 2, coded by ``_code``.  It maps
    a state's (braid id on axis 1, braid id on axis 2, order on axis 1,
    order on axis 2) to its excess and omits zeros, so a state outside the
    graph, one no plan from clean tables reaches, reads 0.  Relabelling the
    robots maps the graph onto itself, so every triplet of every team reads
    one table, with its robots in any order.

    The graph holds 2,316 states, reached from the 36 clean roots by 7,392
    moves.  Each move's reverse is a move, so one breadth-first search from
    the target's states per target order pair gives every distance.  The
    excess is 0 wherever one axis's braid is trivial, so only states with
    two nontrivial braids are stored.
    """
    perms = list(itertools.permutations((1, 2, 3)))
    no_excess: list[dict] = [{}] * 64
    rows = _rows_for(PermutationState.identity(3), no_excess)
    pairs, trips = ((0, 0, 0),) * 2, ((0,),) * 2
    nodes = [GridNode(p1, p2, pairs, trips, 0, 0, 0, None, None) for p1 in perms for p2 in perms]
    index = {node: k for k, node in enumerate(nodes)}
    edges: list[list[int]] = []
    for node in nodes:  # the list grows as the search meets new states
        out = []
        for child in _expand(node, rows, False)[0]:
            if child not in index:
                index[child] = len(nodes)
                nodes.append(child)
            out.append(index[child])
        edges.append(out)

    tangled = [k for k, node in enumerate(nodes) if node.trips[0][0] and node.trips[1][0]]
    columns: list[dict] = [{} for _ in range(64)]
    for t1 in perms:
        for t2 in perms:
            dist = [-1] * len(nodes)
            frontier = [k for k, node in enumerate(nodes) if node.pi1 == t1 and node.pi2 == t2]
            for k in frontier:
                dist[k] = 0
            d = 0
            while frontier:
                d += 1
                reached = []
                for k in frontier:
                    for m in edges[k]:
                        if dist[m] < 0:
                            dist[m] = d
                            reached.append(m)
                frontier = reached
            target_rows = _rows_for(PermutationState(t1, t2), no_excess)
            column = columns[8 * _code(t1, 0, 1, 2) + _code(t2, 0, 1, 2)]
            for k in tangled:
                node = nodes[k]
                excess = dist[k] - _pair_bound(node.pi1, node.pi2, *node.pairs, target_rows)[0]
                if excess:
                    (s1,), (s2,) = node.trips
                    column[(s1, s2, _code(node.pi1, 0, 1, 2), _code(node.pi2, 0, 1, 2))] = excess
    return columns


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

# The direct search orders nodes by g + _WEIGHT * (hsum + xsum); 2 expanded
# fewest nodes and gave the shortest plans on the heavy bench queries of the
# weights 2, 3 and 5.  It gets _DIRECT_BUDGET expansions before a query
# counts as stuck against carried cable tangle; the unwind stage then gets
# _UNWIND_BUDGET more.  On tables that plans produced the unwind fails only
# by its budget (see _unwind), so the direct budget buys only the chance of
# a shorter plan.  2,000 is the knee measured on carried n = 8 and n = 10
# tables: against 20,000 it cut plan CPU by a factor of 5 to 7 and the
# longest plan tenfold, for 1.5-3% more swaps; 5,000 doubled the CPU of
# 2,000 for at most 1.7% fewer swaps, and 1,000 doubled the swap cost at
# n = 8.
_WEIGHT = 2.0
_DIRECT_BUDGET = 2_000
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


def _best_first(root: GridNode, target: PermutationState, key, done, budget: int) -> _Stage:
    """Expand nodes in ascending ``key(node)`` order until one is ``done``.

    Ties on the key pop the newest node first, diving across plateaus, so
    the result is deterministic.  A child is queued only when it improves
    on the best g seen for its state.  Stops with the done node (reason
    "goal"), with None after ``budget`` expansions ("max_expansions"), or
    with None once the queue runs dry ("exhausted").
    """
    rows = _target_rows(target)
    heap: list[tuple] = [(*key(root), 0, root)]
    g_best = {root: root.g}
    closed: set[GridNode] = set()
    seq = 0
    expanded = generated = rejected = 0
    peak_open = 1

    while heap:
        node = heappop(heap)[-1]
        if node in closed:
            continue
        closed.add(node)
        expanded += 1
        if done(node):
            return node, SearchTrace(expanded, generated, rejected, peak_open, "goal")
        if expanded >= budget:
            return None, SearchTrace(expanded, generated, rejected, peak_open, "max_expansions")
        children, braid_rejected = _expand(node, rows, True)
        rejected += braid_rejected
        generated += len(children)
        for child in children:
            if child in closed or g_best.get(child, _INF) <= child.g:
                continue
            g_best[child] = child.g
            seq += 1
            heappush(heap, (*key(child), -seq, child))
        if len(heap) > peak_open:
            peak_open = len(heap)

    return None, SearchTrace(expanded, generated, rejected, peak_open, "exhausted")


def _search(root: GridNode, target: PermutationState, budget: int) -> _Stage:
    """The direct stage: best-first to the target by f = g + h, ties on lower h.

    h is ``_WEIGHT * (hsum + xsum)``: the pair-automaton bound plus the
    summed triplet excess, each triplet's exact n = 3 distance beyond its
    pairs' (see ``_excess_columns``).  At n = 3 that sum is the exact
    distance, so the search walks down a shortest path.
    """

    def key(node: GridNode) -> tuple[float, float]:
        h = _WEIGHT * (node.hsum + node.xsum)
        return node.g + h, h

    return _best_first(
        root, target, key, lambda node: node.pi1 == target.pi1 and node.pi2 == target.pi2, budget
    )


def _unwind(root: GridNode, target: PermutationState, budget: int) -> _Stage:
    """Best-first descent on recorded letters to a zero-tangle node.

    Carried braid words accumulated over earlier episodes can make the
    direct search intractable; retracing crossings so the words cancel is
    cheap because every recorded letter keeps its undo move available.

    On tables that plans produced, the unwind fails only by its budget.
    Every move's reverse is a move, so the team's planned history walked
    backwards is a legal walk from the root to clean tables.  Every pair
    count stays within +-1, and each triplet moves as an n = 3 team does,
    so its braid is one of the finitely many of the n = 3 grid graph (see
    ``_excess_columns``): the states reachable from the root are finite
    and include a zero-tangle one.  A move that ``_expand``'s pruning skips
    either undoes the arriving action or commutes with it, and then the
    parent reaches the same state with the two moves swapped; induction on
    the move order and the expansion order shows that a search with no
    budget closes every reachable state.  Tables loaded by hand carry no
    such history and no such guarantee.
    """
    return _best_first(
        root, target, lambda node: (_tangle(node), node.g), lambda node: _tangle(node) == 0, budget
    )


def _axis_sort(
    root: GridNode, target: PermutationState, axes: tuple[int, int] = (1, 2)
) -> _Stage:
    """Bubble-sort one axis, then the other (``axes`` gives the order), into
    target order through ``_child``.

    Each step swaps the lowest rank-adjacent pair that is out of target
    order on the current axis, so every move keeps all braid checks and
    the walk is exactly the inversion count long, the length no legal path
    can beat (see ``plan``).  Returns None when a swap is rejected.  From a
    zero-tangle table no swap ever is, in either axis order.
    """
    n = len(root.pi1)
    rows = _target_rows(target)
    node = root
    expanded = 0
    for axis in axes:
        goal = target.pi1 if axis == 1 else target.pi2
        while True:
            inv = [0] * (n + 1)
            for robot0, r in enumerate(node.pi1 if axis == 1 else node.pi2):
                inv[r] = robot0 + 1
            k = next((k for k in range(1, n) if goal[inv[k] - 1] > goal[inv[k + 1] - 1]), None)
            if k is None:
                break
            expanded += 1
            child = _child(node, rows, axis, k, inv[k], inv[k + 1])
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
) -> PlanResult:
    """Search for an entanglement-free swap sequence from start to target.

    ``braids`` is the team's carried (table at pi/2, table at 0) pair, clean
    tables when None.  Returns the permutation path (empty when no safe path
    was found), the pair of tables predicted at the goal, and search
    statistics summed over the stages that ran.

    Sort first: ``_axis_sort`` sorts axis 1, then axis 2, from the root by
    swapping rank-adjacent robots that are out of target order, and if a
    braid check rejects a swap it tries axis 2, then axis 1.  A sort that
    succeeds is returned at once, and it is a shortest legal path.  Its
    length is the inversion count, and every pair must cross at least once
    on each axis where its order is wrong, so the pair-automaton bound
    ``hsum``, a lower bound on every path, is at least the inversion count.
    When ``hsum`` exceeds it, both sorts must fail, and neither runs.

    Only when both sorts are rejected or skipped does the direct best-first
    search run.  It orders nodes by g + 2 * (pair-automaton bound + summed
    triplet excess; see ``_search``) and stops after ``_DIRECT_BUDGET``
    (2,000) expansions.  A query it cannot solve within that is taken to be
    stuck against heavily tangled carried-over braids: up to
    ``_UNWIND_BUDGET`` (30,000) expansions then go to unwinding the
    recorded words to the identity, and from there ``_axis_sort`` sorts
    axis 1, then axis 2.  From a zero-tangle table that sort cannot fail:
    each pair crosses at most once per axis, so no pair sum leaves +-1;
    while one axis is sorted the other axis's ranks stay fixed, so every
    crossing sign is a comparison under one fixed order, and each
    forbidden triplet word would need those comparisons to form a cycle
    (a > b > c > a).  So a plan from clean tables is always the first
    sort, and every plan spends at most ``_DIRECT_BUDGET + _UNWIND_BUDGET``
    = 32,000 expansions plus three sorts of at most n(n - 1) swaps each.
    On tables that plans produced the unwind fails only by its budget (see
    ``_unwind``), so the direct stage is there for shorter plans, not for
    reaching the goal.  When the unwind does not reach zero tangle within
    its budget the plan fails with the direct search's reason,
    "max_expansions"; a direct search that runs dry fails with "exhausted".
    The trace sums every stage that ran, rejected sorts included.
    """
    if start.n != target.n:
        raise InputError("start and target describe different team sizes")
    if braids is None:
        braids = (BraidTable.identity(start.n),) * 2
    root, inversions = _root(start, braids, target)
    if root.hsum >= _INF:
        # Some pair's carried-over cable state makes its target order
        # provably unreachable; no amount of search can help.
        return PlanResult((), None, SearchTrace(0, 0, 0, 0, "exhausted"))
    stages: list[SearchTrace] = []
    node = None
    if root.hsum <= inversions:
        for axes in ((1, 2), (2, 1)):
            node, trace = _axis_sort(root, target, axes)
            stages.append(trace)
            if node is not None:
                break
    if node is None:
        node, trace = _search(root, target, _DIRECT_BUDGET)
        stages.append(trace)
        if trace.reason == "max_expansions":
            unwound, unwind_trace = _unwind(root, target, _UNWIND_BUDGET)
            stages.append(unwind_trace)
            if unwound is not None:
                node, sort_trace = _axis_sort(unwound, target)
                stages.append(sort_trace)
    if len(stages) > 1:
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
