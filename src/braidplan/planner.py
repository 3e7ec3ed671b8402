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
A node holds it as one joint state per pair and per triplet, its braids
and orders on both axes, so that a move is one table lookup for each
state it touches (see ``GridNode``), as listed by the one move table per
team size, ``_moves(n)``, that the verifier's fold reads too.  Pair and
triplet guidance is read alike: each state has one row with a column per
target order, and ``_columns`` picks each slot's column for a query.

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
import operator
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Iterator

from .braid import (
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


def _path_state(pi1: tuple[int, ...], pi2: tuple[int, ...]) -> PermutationState:
    """A ``PermutationState`` built without its checks, for the states of a
    found path: each is a swap of the validated start."""
    state = object.__new__(PermutationState)
    object.__setattr__(state, "pi1", pi1)
    object.__setattr__(state, "pi2", pi2)
    return state


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

    Immutable.  Pairs and triplets are stored in combination order.  A pair's entry is its signed
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


# The distance of a state from which no walk reaches the target orders.
_INF = 1 << 30


# ---------------------------------------------------------------------------
# Joint pair and triplet states.
#
# Each move changes the orders of exactly one robot pair, and its crossing
# sign depends only on that pair's orders, so inside a team a pair moves as
# an n = 2 team would.  A triplet moves as an n = 3 team would: only swaps
# within it change its orders and braids, and robots adjacent in the team
# are adjacent in the triplet.  A search node therefore holds one joint
# state per pair and one per triplet, each covering both grid axes, and a
# move is one transition lookup per pair and triplet it touches.
# ---------------------------------------------------------------------------

# A pair state is one of 36 small ints: ``_PAIR_KEYS[p]`` is (o1, o2, s1,
# s2), the pair's order (see ``_orders``) and crossing count on axes 1 and
# 2, and ``_PAIR_STATE`` maps it back to p.
_PAIR_KEYS = tuple(itertools.product((1, -1), (1, -1), (-1, 0, 1), (-1, 0, 1)))
_PAIR_STATE = {key: p for p, key in enumerate(_PAIR_KEYS)}
# Letters recorded in each pair state's two crossing counts.
_PAIR_LETTERS = tuple(abs(s1) + abs(s2) for _, _, s1, s2 in _PAIR_KEYS)
# ``_PAIR_DIST[p]`` is pair state p's row of ``_pair_distances``, all 0 until
# that table is built: its distance to target orders (t1, t2) in column
# 2 * (t1 > 0) + (t2 > 0).  The list is never rebound.
_PAIR_DIST: list[tuple[int, ...]] = [(0,) * 4] * len(_PAIR_KEYS)


@lru_cache(maxsize=None)
def _pair_next() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per axis, each pair state's successor when the pair swaps on that
    axis, -1 when the crossing count would leave [-1, 1].

    Robots a < b swap on axis 1 from order o1, and the lower ranked one
    passes in front exactly when its axis-2 rank is larger, so the crossing
    sign is -o1 * o2.  On axis 2 in front means a smaller axis-1 rank, and
    the sign is o1 * o2.
    """
    steps: tuple[list[int], list[int]] = ([], [])
    for o1, o2, s1, s2 in _PAIR_KEYS:
        t1, t2 = s1 - o1 * o2, s2 + o1 * o2
        steps[0].append(_PAIR_STATE[(-o1, o2, t1, s2)] if abs(t1) <= 1 else -1)
        steps[1].append(_PAIR_STATE[(o1, -o2, s1, t2)] if abs(t2) <= 1 else -1)
    return tuple(steps[0]), tuple(steps[1])


# A triplet state is a small int interned on first use: ``_TRIP_KEYS[q]`` is
# (braid id on axis 1, braid id on axis 2, code on axis 1, code on axis 2),
# with the orders coded by ``_codes``.  The triplet's moving pair is c = 0
# for its lower two ids, 1 for its lowest and highest and 2 for its upper
# two, and ``_TRIP_NEXT[axis - 1][3 * q + c]`` is the state after that pair
# swaps on that axis: ``_UNSET`` until first used, ``_REJECT`` when the
# swap's letter makes a forbidden braid.  ``_TRIP_EXCESS[q]`` is the state's
# row of ``_excess_columns``, all 0 until that table is built and for states
# outside it, and ``_TRIP_LETTERS[q]`` the letters of its two braid words.
# The lists only grow and are never rebound.
_UNSET, _REJECT = -1, -2
_TRIP_KEYS: list[tuple[int, int, int, int]] = []
_TRIP_IDS: dict[tuple[int, int, int, int], int] = {}
_TRIP_NEXT: tuple[list[int], list[int]] = ([], [])
_TRIP_EXCESS: list[tuple[int, ...]] = []
_TRIP_LETTERS: list[int] = []
_NO_EXCESS = (0,) * 64
# Whether the third robot ranks above moving pair c, read from a code as
# (mask, value): with the triplet's ids 1 < 2 < 3, robot 3 after 1 and 2 for
# pair 0, robot 2 after 1 and 3 for pair 1, robot 1 after 2 and 3 for pair 2.
_ABOVE = ((6, 6), (5, 1), (3, 0))


def _trip_state(key: tuple[int, int, int, int]) -> int:
    q = _TRIP_IDS.get(key)
    if q is None:
        q = _TRIP_IDS[key] = len(_TRIP_KEYS)
        _TRIP_KEYS.append(key)
        for step in _TRIP_NEXT:
            step.extend((_UNSET,) * 3)
        _TRIP_EXCESS.append(_NO_EXCESS)
        _TRIP_LETTERS.append(len(_WORD[key[0]]) + len(_WORD[key[1]]))
    return q


def _trip_next(axis: int, s: int) -> int:
    """Fills and returns ``_TRIP_NEXT[axis - 1][s]``.

    The moving pair's order bit flips in the swap axis's code, and that
    axis's braid takes the letter ``harness.fold_crossings`` would: s1 when
    the third robot ranks above the pair, else s2, with the pair's crossing
    sign (see ``_pair_next``).
    """
    q, c = divmod(s, 3)
    st1, st2, c1, c2 = _TRIP_KEYS[q]
    bit = 1 << c
    o12 = 1 if bool(c1 & bit) == bool(c2 & bit) else -1
    mask, value = _ABOVE[c]
    index = 1 if ((c1 if axis == 1 else c2) & mask) == value else 2
    if axis == 1:
        new, ok = update_triplet(st1, BraidLetter(index, -o12))
        key = (new, st2, c1 ^ bit, c2)
    else:
        new, ok = update_triplet(st2, BraidLetter(index, o12))
        key = (st1, new, c1, c2 ^ bit)
    nq = _TRIP_NEXT[axis - 1][s] = _trip_state(key) if ok else _REJECT
    return nq


def _orders(ranks: tuple[int, ...]) -> list[int]:
    """Each pair (a, b)'s order on one axis, in pair order: +1 when a ranks
    first, else -1."""
    return [1 if ra < rb else -1 for ra, rb in itertools.combinations(ranks, 2)]


def _codes(ranks: tuple[int, ...]) -> list[int]:
    """Each triplet (a, b, t)'s order on one axis, in triplet order, as three
    bits: a before b, a before t, b before t."""
    return [
        (ra < rb) + 2 * (ra < rt) + 4 * (rb < rt)
        for ra, rb, rt in itertools.combinations(ranks, 3)
    ]


@lru_cache(maxsize=None)
def _moves(n: int) -> tuple[tuple, ...]:
    """The move table of an n-robot team.

    ``_moves(n)[a][b]``, for robots a and b swapping, is ``(pair ord, ((t -
    1, triplet ord, moving pair), ...))`` over every third robot t in
    ascending order, with the triplet's moving pair coded as in
    ``_TRIP_KEYS``.  The search and ``harness.fold_crossings`` read it.
    """
    tord = _trip_ord(n)
    moves = [[None] * (n + 1) for _ in range(n + 1)]
    for (a, b), po in _pair_ord(n).items():
        # The moving pair is the triplet's upper two ids when the third
        # robot's id is the lowest, its outer two when it lies between.
        thirds = tuple(
            (t - 1, tord[tuple(sorted((a, b, t)))], 2 if t < a else 1 if t < b else 0)
            for t in range(1, n + 1) if t != a and t != b
        )
        moves[a][b] = moves[b][a] = (po, thirds)
    return tuple(map(tuple, moves))


def _columns(target: PermutationState) -> tuple[list[int], list[int]]:
    """The guidance towards one target: each pair slot's column of
    ``_PAIR_DIST`` and each triplet slot's column of ``_TRIP_EXCESS``, for
    the target orders of its robots on axes 1 and 2.  Builds the guidance
    tables on first use."""
    _excess_columns()  # fills _PAIR_DIST and _TRIP_EXCESS
    orders = zip(_orders(target.pi1), _orders(target.pi2))
    codes = zip(_codes(target.pi1), _codes(target.pi2))
    return [2 * (t1 > 0) + (t2 > 0) for t1, t2 in orders], [8 * c1 + c2 for c1, c2 in codes]


# ---------------------------------------------------------------------------
# Search nodes and expansion.
# ---------------------------------------------------------------------------


class GridNode:
    """One search node: a configuration with its accumulated braid state.

    ``pairs`` holds one joint state per robot pair and ``trips`` one per
    triplet, in slot order (see ``_PAIR_KEYS`` and ``_TRIP_KEYS``): the
    braids of both grid axes with the orders of their robots, so that a
    move is one transition per state it touches.  ``braids`` decodes them
    into the (table at pi/2, table at 0) pair.  ``hsum`` is the pair lower
    bound on remaining actions (see ``_pair_distances``) and ``xsum`` the
    summed triplet excess (see ``_excess_columns``): each the sum of its
    states' guidance rows at the query's columns (see ``_columns``), both
    maintained incrementally, since each action changes exactly one pair's
    term and the terms of the n - 2 triplets that hold that pair.  ``move``
    is the arriving swap as (axis, i, j), ``action`` as a ``SwapAction``.
    Nodes are their own closed-list keys: a node hashes and compares its
    ``pairs`` and ``trips``, tuples of small ints.  The pair states' orders
    fix both permutations, so ``pi1`` and ``pi2`` add nothing to that key.
    """

    __slots__ = ("pi1", "pi2", "pairs", "trips", "g", "hsum", "xsum", "parent", "move", "_kh")

    def __init__(self, pi1, pi2, pairs, trips, g, hsum, xsum, parent, move):
        self.pi1 = pi1
        self.pi2 = pi2
        self.pairs = pairs
        self.trips = trips
        self.g = g
        self.hsum = hsum
        self.xsum = xsum
        self.parent = parent
        self.move = move
        self._kh = hash((pairs, trips))

    def __hash__(self) -> int:
        return self._kh

    def __eq__(self, other: object) -> bool:
        if type(other) is not GridNode:
            return NotImplemented
        return self.pairs == other.pairs and self.trips == other.trips

    @property
    def action(self) -> SwapAction | None:
        """The arriving swap; None at a root."""
        return None if self.move is None else SwapAction(*self.move)

    @property
    def braids(self) -> tuple[BraidTable, BraidTable]:
        """The node's (table at pi/2, table at 0)."""
        n = len(self.pi1)
        pairs = [_PAIR_KEYS[p] for p in self.pairs]
        trips = [_TRIP_KEYS[q] for q in self.trips]
        return (
            BraidTable(n, tuple(key[2] for key in pairs), tuple(key[0] for key in trips)),
            BraidTable(n, tuple(key[3] for key in pairs), tuple(key[1] for key in trips)),
        )

    @classmethod
    def root(
        cls, perms: PermutationState, braids: tuple[BraidTable, BraidTable],
        target: PermutationState,
    ) -> "GridNode":
        """The search root; ``braids`` is the (table at pi/2, table at 0) pair."""
        return _root(perms, braids, target, _columns(target))[0]


def _root(
    perms: PermutationState, braids: tuple[BraidTable, BraidTable], target: PermutationState,
    cols: tuple,
) -> tuple[GridNode, int]:
    """``GridNode.root``, given the target's ``_columns``, and the number of
    pairs out of target order on each axis: a successful sort's length."""
    if len(braids) != 2 or braids[0].n != perms.n or braids[1].n != perms.n:
        raise InputError("the planner needs one braid table per grid axis for this team")
    table1, table2 = braids
    if not (table1.is_clean and table2.is_clean):
        raise InputError("initial braid tables already hold a violated state")
    orders1, orders2 = _orders(perms.pi1), _orders(perms.pi2)
    pairs = tuple(map(_PAIR_STATE.__getitem__, zip(orders1, orders2, table1.pairs, table2.pairs)))
    keys = list(zip(table1.triplets, table2.triplets, _codes(perms.pi1), _codes(perms.pi2)))
    trips = tuple(map(_TRIP_IDS.get, keys))
    if None in trips:
        trips = tuple(map(_trip_state, keys))
    pair_cols, trip_cols = cols
    hsum = sum(map(operator.getitem, map(_PAIR_DIST.__getitem__, pairs), pair_cols))
    xsum = sum(map(operator.getitem, map(_TRIP_EXCESS.__getitem__, trips), trip_cols))
    target_orders = _orders(target.pi1) + _orders(target.pi2)
    inversions = sum(map(operator.ne, orders1 + orders2, target_orders))
    return GridNode(perms.pi1, perms.pi2, pairs, trips, 0, hsum, xsum, None, None), inversions


def expand(node: GridNode, target: PermutationState) -> list[GridNode]:
    """Children of a node, silently dropping braid-violating moves.

    Every child's states equal its parent's except those of the one pair
    and the n - 2 triplets that hold the swapped robots.
    """
    return _expand(node, _moves(len(node.pi1)), _columns(target), False)[0]


def _expand(node: GridNode, moves: tuple, cols: tuple, prune: bool) -> tuple[list[GridNode], int]:
    """Expansion core; returns (children, braid-rejected action count).

    ``moves`` is the team's ``_moves`` and ``cols`` the target's
    ``_columns``, both passed on to ``_child``.  With ``prune`` set, two kinds
    of provably redundant successors are skipped.  Swaps of disjoint robot
    pairs commute exactly: neither changes the other's rank adjacency,
    crossing letters, or touched braid slots, so both orders reach the
    identical state and only the canonically ordered one is generated.  A
    swap that exactly undoes the arriving action is skipped too: its letters
    cancel under free reduction, so it recreates the already-closed parent
    state.
    """
    n = len(node.pi1)
    pair_next = _pair_next()
    children: list[GridNode] = []
    braid_rejected = 0

    pa = node.move if prune else None
    if pa is not None:
        pa_axis, pa_i, pa_j = pa
        pa_a, pa_b = (pa_i, pa_j) if pa_i < pa_j else (pa_j, pa_i)
        pa_key = (pa_axis, pa_a, pa_b)

    for axis in (1, 2):
        axis_pairs, axis_trips = pair_next[axis - 1], _TRIP_NEXT[axis - 1]
        inv = [0] * (n + 1)
        for robot0, r in enumerate(node.pi1 if axis == 1 else node.pi2):
            inv[r] = robot0 + 1
        for k in range(1, n):
            i, j = inv[k], inv[k + 1]
            if pa is not None:
                a, b = (i, j) if i < j else (j, i)
                if a == pa_a and b == pa_b:
                    if axis == pa_axis:
                        continue
                elif a != pa_a and a != pa_b and b != pa_a and b != pa_b:
                    if (axis, a, b) < pa_key:
                        continue
            child = _child(node, moves[i][j], cols, axis_pairs, axis_trips, axis, k, i, j)
            if child is None:
                braid_rejected += 1
            else:
                children.append(child)
    return children, braid_rejected


def _child(
    node: GridNode, move: tuple, cols: tuple, pair_next: tuple[int, ...], step: list[int],
    axis: int, k: int, i: int, j: int,
) -> GridNode | None:
    """The node reached by swapping robots i and j, ranked k and k + 1 on
    ``axis``, or None when a braid check rejects the move: the pair's
    crossing count would leave [-1, 1] or a triplet word would become
    forbidden.  ``move`` is the swap's entry of ``_moves``, ``cols`` the
    target's ``_columns``, and ``pair_next`` and ``step`` are the axis's
    transitions of pair and triplet states.  Each touched state's term of
    ``hsum`` or ``xsum`` changes by its new row's entry minus its old one's.

    A move the pair check allows never strands the pair: the reverse swap
    is a move too, so a pair with a finite distance to its target orders
    keeps one, and ``plan`` refuses roots with an unreachable pair.
    """
    po, thirds = move
    pair_cols, trip_cols = cols
    p = node.pairs[po]
    new_p = pair_next[p]
    if new_p < 0:
        return None
    trips = list(node.trips)
    xsum = node.xsum
    excess = _TRIP_EXCESS
    for _, to, c in thirds:
        q = trips[to]
        nq = step[3 * q + c]
        if nq < 0:
            if nq == _UNSET:
                nq = _trip_next(axis, 3 * q + c)
            if nq < 0:
                return None
        col = trip_cols[to]
        xsum += excess[nq][col] - excess[q][col]
        trips[to] = nq
    col = pair_cols[po]
    hsum = node.hsum + _PAIR_DIST[new_p][col] - _PAIR_DIST[p][col]
    pairs = list(node.pairs)
    pairs[po] = new_p
    pi1, pi2 = node.pi1, node.pi2
    ranks = list(pi1 if axis == 1 else pi2)
    ranks[i - 1], ranks[j - 1] = k + 1, k
    if axis == 1:
        pi1 = tuple(ranks)
    else:
        pi2 = tuple(ranks)
    return GridNode(
        pi1, pi2, tuple(pairs), tuple(trips),
        node.g + 1, hsum, xsum, node, (axis, i, j),
    )


def _grid_distances(
    roots: list[GridNode], size: int
) -> tuple[list[GridNode], dict[tuple, list[int]]]:
    """Exact distances in the grid graph of a small team, the pattern
    databases (Culberson & Schaeffer, Computational Intelligence, 1998)
    that guide the search.

    Returns the states that ``_expand`` reaches from ``roots``, in the
    order met, and for each target order pair ``(pi1, pi2)`` every state's
    fewest moves to those orders, ``_INF`` where none reach them.  Each
    move's reverse is a move, so one breadth-first search from the target's
    states gives every distance.  The walk reads the team's ``_moves`` and
    no guidance, which it builds: any columns serve, and its nodes' ``hsum``
    and ``xsum`` go unread.  ``size`` is the graph's known number of
    states; a walk that meets more has a wrong move and raises
    ``RuntimeError`` instead of running on.
    """
    n = len(roots[0].pi1)
    moves, cols = _moves(n), ([0] * math.comb(n, 2), [0] * math.comb(n, 3))
    nodes = list(roots)
    index = {node: k for k, node in enumerate(nodes)}
    edges: list[list[int]] = []
    for node in nodes:  # the list grows as the search meets new states
        out = []
        for child in _expand(node, moves, cols, False)[0]:
            if child not in index:
                if len(nodes) == size:
                    raise RuntimeError(
                        f"the n = {n} grid graph meets more than its {size:,} states: "
                        "a move is wrong"
                    )
                index[child] = len(nodes)
                nodes.append(child)
            out.append(index[child])
        edges.append(out)

    distances = {}
    for t1, t2 in itertools.product(itertools.permutations(range(1, n + 1)), repeat=2):
        dist = [_INF] * len(nodes)
        frontier = {k for k, node in enumerate(nodes) if node.pi1 == t1 and node.pi2 == t2}
        d = 0
        while frontier:
            for k in frontier:
                dist[k] = d
            d += 1
            frontier = {m for k in frontier for m in edges[k] if dist[m] == _INF}
        distances[(t1, t2)] = dist
    return nodes, distances


@lru_cache(maxsize=None)
def _pair_distances() -> dict[tuple[int, int], dict[tuple[int, int, int, int], int]]:
    """Exact pair guidance: the distances of the n = 2 grid graph.

    Table ``(t1, t2)``, for target orders t1 and t2 (``_orders``), maps each
    pair state (o1, o2, s1, s2), its orders and crossing counts on the two
    axes, to its distance.  All 36 states are roots: the 4 clean ones reach
    only 20, and hand-loaded tables can hold the other 16.  Summed over a
    team's pairs, this is a consistent lower bound that sees the braid
    checks, and one ``_INF`` pair proves a query infeasible.  Building it
    fills each pair state's row of ``_PAIR_DIST``, as ``_excess_columns``
    fills the triplet states' rows of ``_TRIP_EXCESS``.
    """
    perms = {1: (1, 2), -1: (2, 1)}
    nodes, distances = _grid_distances([
        GridNode(perms[key[0]], perms[key[1]], (p,), (), 0, 0, 0, None, None)
        for p, key in enumerate(_PAIR_KEYS)
    ], len(_PAIR_KEYS))
    keys = [_PAIR_KEYS[node.pairs[0]] for node in nodes]
    tables = {
        (_orders(t1)[0], _orders(t2)[0]): dict(zip(keys, dist))
        for (t1, t2), dist in distances.items()
    }
    for p, key in enumerate(_PAIR_KEYS):
        _PAIR_DIST[p] = tuple(tables[t][key] for t in itertools.product((-1, 1), repeat=2))
    return tables


@lru_cache(maxsize=None)
def _excess_columns() -> list[dict[tuple[int, int, int, int], int]]:
    """Exact triplet guidance: the distances of the n = 3 grid graph beyond
    the pair bound.

    A triplet state's *excess* is its exact distance to the target orders
    in the n = 3 graph minus the ``_pair_distances`` of its three pairs,
    the detours that the pair bound cannot see: 0, 2 or 4.

    Column ``8 * t1 + t2`` is for the target orders t1 and t2 of a
    triplet's robots on axes 1 and 2, coded by ``_codes``.  It maps a
    state's key (see ``_TRIP_KEYS``) to its excess and omits zeros, so a
    state outside the graph, one no plan from clean tables reaches, reads
    0.  Relabelling the robots maps the graph onto itself, so every triplet
    of every team reads one table.  Building it interns every state of the
    graph and fills their rows of ``_TRIP_EXCESS``.

    The graph holds 2,316 states, reached from the 36 clean roots by 7,392
    moves.  The excess is 0 wherever one axis's braid is trivial, so only
    states with two nontrivial braids are stored.
    """
    perms = list(itertools.permutations((1, 2, 3)))
    roots = []
    for p1, p2 in itertools.product(perms, repeat=2):
        orders1, orders2 = _orders(p1), _orders(p2)
        pairs = tuple(_PAIR_STATE[(o1, o2, 0, 0)] for o1, o2 in zip(orders1, orders2))
        trips = (_trip_state((0, 0, _codes(p1)[0], _codes(p2)[0])),)
        roots.append(GridNode(p1, p2, pairs, trips, 0, 0, 0, None, None))
    nodes, distances = _grid_distances(roots, 2_316)
    # Each state with two nontrivial braids: its index, its key in a column
    # and its three pairs' keys in their tables.
    tangled = []
    for k, node in enumerate(nodes):
        key = _TRIP_KEYS[node.trips[0]]
        if key[0] and key[1]:
            tangled.append((k, key, *(_PAIR_KEYS[p] for p in node.pairs)))
    tables = _pair_distances()
    columns: list[dict] = [{} for _ in range(64)]
    for (t1, t2), dist in distances.items():
        orders1, orders2 = _orders(t1), _orders(t2)
        table12, table13, table23 = (tables[orders] for orders in zip(orders1, orders2))
        column = columns[8 * _codes(t1)[0] + _codes(t2)[0]]
        for k, key, pair12, pair13, pair23 in tangled:
            excess = dist[k] - table12[pair12] - table13[pair13] - table23[pair23]
            if excess:
                column[key] = excess
    rows: dict[int, list[int]] = {}
    for col, column in enumerate(columns):
        for key, excess in column.items():
            rows.setdefault(_trip_state(key), [0] * 64)[col] = excess
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for q, row in rows.items():
        _TRIP_EXCESS[q] = shared.setdefault(tuple(row), tuple(row))
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
    counts and each triplet's word lengths, the shortest for every braid a
    plan can hold."""
    return sum(map(_PAIR_LETTERS.__getitem__, node.pairs)) + sum(
        map(_TRIP_LETTERS.__getitem__, node.trips)
    )


def _best_first(root: GridNode, cols: tuple, key, done, budget: int) -> _Stage:
    """Expand nodes in ascending ``key(node)`` order until one is ``done``;
    ``cols`` is the target's ``_columns``.

    Ties on the key pop the newest node first, diving across plateaus, so
    the result is deterministic.  A child is queued only when it improves
    on the best g seen for its state.  Stops with the done node (reason
    "goal"), with None after ``budget`` expansions ("max_expansions"), or
    with None once the queue runs dry ("exhausted").
    """
    moves = _moves(len(root.pi1))
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
        children, braid_rejected = _expand(node, moves, cols, True)
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


def _search(root: GridNode, target: PermutationState, cols: tuple, budget: int) -> _Stage:
    """The direct stage: best-first to the target by f = g + h, ties on lower h.

    h is ``_WEIGHT * (hsum + xsum)``: the pair bound (see
    ``_pair_distances``) plus the summed triplet excess, each triplet's
    exact n = 3 distance beyond its pairs' (see ``_excess_columns``).  At
    n = 3 that sum is the exact distance, so the search walks down a
    shortest path.
    """

    def key(node: GridNode) -> tuple[float, float]:
        h = _WEIGHT * (node.hsum + node.xsum)
        return node.g + h, h

    return _best_first(
        root, cols, key, lambda node: node.pi1 == target.pi1 and node.pi2 == target.pi2, budget
    )


def _unwind(root: GridNode, cols: tuple, budget: int) -> _Stage:
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
        root, cols, lambda node: (_tangle(node), node.g), lambda node: _tangle(node) == 0, budget
    )


def _axis_sort(
    root: GridNode, target: PermutationState, cols: tuple, axes: tuple[int, int] = (1, 2)
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
    moves, pair_next = _moves(n), _pair_next()
    node = root
    expanded = 0
    for axis in axes:
        goal = target.pi1 if axis == 1 else target.pi2
        axis_pairs, axis_trips = pair_next[axis - 1], _TRIP_NEXT[axis - 1]
        inv = [0] * (n + 1)
        for robot0, r in enumerate(node.pi1 if axis == 1 else node.pi2):
            inv[r] = robot0 + 1
        # A swap of ranks k and k + 1 changes no pair below rank k - 1, so
        # the next lowest pair out of order is at k - 1 or above.
        k = 1
        while k < n:
            i, j = inv[k], inv[k + 1]
            if goal[i - 1] < goal[j - 1]:
                k += 1
                continue
            expanded += 1
            node = _child(node, moves[i][j], cols, axis_pairs, axis_trips, axis, k, i, j)
            if node is None:
                return None, SearchTrace(expanded, expanded - 1, 1, 0, "max_expansions")
            inv[k], inv[k + 1] = j, i
            k = max(k - 1, 1)
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
    on each axis where its order is wrong, so the pair bound ``hsum``, a
    lower bound on every path, is at least the inversion count.  When
    ``hsum`` exceeds it, both sorts must fail, and neither runs.

    Only when both sorts are rejected or skipped does the direct best-first
    search run.  It orders nodes by g + 2 * (pair bound + summed triplet
    excess, from the exact distances of two- and three-robot teams; see
    ``_search``) and stops after ``_DIRECT_BUDGET`` (2,000) expansions.  A
    query it cannot solve within that is taken to be stuck against heavily
    tangled carried-over braids: up to
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
    cols = _columns(target)
    root, inversions = _root(start, braids, target, cols)
    if root.hsum >= _INF:
        # Some pair's carried-over cable state makes its target order
        # provably unreachable; no amount of search can help.
        return PlanResult((), None, SearchTrace(0, 0, 0, 0, "exhausted"))
    stages: list[SearchTrace] = []
    node = None
    if root.hsum <= inversions:
        for axes in ((1, 2), (2, 1)):
            node, trace = _axis_sort(root, target, cols, axes)
            stages.append(trace)
            if node is not None:
                break
    if node is None:
        node, trace = _search(root, target, cols, _DIRECT_BUDGET)
        stages.append(trace)
        if trace.reason == "max_expansions":
            unwound, unwind_trace = _unwind(root, cols, _UNWIND_BUDGET)
            stages.append(unwind_trace)
            if unwound is not None:
                node, sort_trace = _axis_sort(unwound, target, cols)
                stages.append(sort_trace)
    if len(stages) > 1:
        trace = _chain(stages, "goal" if node is not None else trace.reason)

    if node is None:
        return PlanResult((), None, trace)
    path = []
    cur = node
    while cur is not None:
        path.append(_path_state(cur.pi1, cur.pi2))
        cur = cur.parent
    path.reverse()
    return PlanResult(tuple(path), node.braids, trace)
