"""Braid-layer tests cross-checked by an independent Burau oracle.

The oracle (``burau_oracle``) recomputes reduced Burau images over integer
Laurent polynomials using plain dicts and tuples.  The Burau representation is
faithful on three strands, so the oracle decides word equivalence on its
own, sharing no code with the package's integer key (the matrix at
t = -1 plus the exponent sum).  The frozen literals were produced by the
same dict arithmetic run standalone.
"""

from __future__ import annotations

import random

import pytest

from braidplan import braid
from braidplan.braid import (
    BraidLetter,
    BraidWord,
    free_reduce,
    triplet_element,
    triplet_state_from_word,
    triplet_word_text,
    update_pair,
    update_triplet,
)
from braidplan.errors import InputError
from braidplan.planner import BraidTable, to_serializable
from burau_oracle import (
    ORACLE_GEN,
    ORACLE_ID,
    RELATION_FROZEN,
    freeze,
    mmul,
    oracle_burau,
    parse_keys,
)


def _at_minus_one(m):
    """An oracle matrix evaluated at t = -1, as a flat (a, b, c, d)."""
    return tuple(sum(c * (-1) ** e for e, c in p.items()) for row in m for p in row)


def _keys(word: BraidWord):
    return [(l.index, l.sign) for l in word.letters]


def _oracle_element(keys):
    """The package's key for a word, recomputed from the oracle."""
    return _at_minus_one(oracle_burau(keys)) + (sum(sign for _, sign in keys),)


# Frozen oracle values for the four entangling triplet patterns and for the
# braid relation word.
_FORBIDDEN_FROZEN = {
    "s1 S2 s1": (
        (((1, -1), (2, 1)), ((-1, -1), (0, 1), (1, -1))),
        (((1, -1),), ((-1, -1), (0, 1))),
    ),
    "s2 S1 s2": (
        (((-1, -1), (0, 1)), ((0, -1),)),
        (((0, -1), (1, 1), (2, -1)), ((1, -1), (2, 1))),
    ),
    "S1 s2 S1": (
        (((-2, 1), (-1, -1)), ((-2, -1), (-1, 1), (0, -1))),
        (((0, -1),), ((0, 1), (1, -1))),
    ),
    "S2 s1 S2": (
        (((0, 1), (1, -1)), ((-1, -1),)),
        (((-1, -1), (0, 1), (1, -1)), ((-2, 1), (-1, -1))),
    ),
}
_IDENTITY_FROZEN = ((((0, 1),), ()), ((), ((0, 1),)))


def _random_word(rng, max_len, strands=3):
    n = rng.randrange(max_len + 1)
    letters = tuple(
        BraidLetter(rng.randrange(1, strands), rng.choice((1, -1))) for _ in range(n)
    )
    return BraidWord(strands, letters)


def _inverted(word: BraidWord) -> BraidWord:
    """Group inverse: the reversed word with every letter inverted."""
    return BraidWord(word.strands, tuple(l.inverse() for l in reversed(word.letters)))


def _flagged(word: BraidWord) -> bool:
    """The package's violated flag for the state of a 3-strand word."""
    return braid._VIOLATED[triplet_state_from_word(word)]


def _word(state: int) -> BraidWord:
    return BraidWord.from_text(triplet_word_text(state), 3)


# ---------------------------------------------------------------------------
# Oracle trustworthiness, then package-vs-oracle agreement.
# ---------------------------------------------------------------------------


def test_oracle_self_check():
    for i in (1, 2):
        assert freeze(mmul(ORACLE_GEN[(i, 1)], ORACLE_GEN[(i, -1)])) == _IDENTITY_FROZEN
        assert freeze(mmul(ORACLE_GEN[(i, -1)], ORACLE_GEN[(i, 1)])) == _IDENTITY_FROZEN
    left = oracle_burau(parse_keys("s1 s2 s1"))
    right = oracle_burau(parse_keys("s2 s1 s2"))
    assert freeze(left) == freeze(right) == RELATION_FROZEN


def test_generator_images_match_oracle():
    for key in ORACLE_GEN:
        word = BraidWord(3, (BraidLetter(*key),))
        assert triplet_element(word) == _oracle_element([key])
    assert triplet_element(BraidWord.from_text("s1", 3)) == (1, 1, 0, 1, 1)
    assert triplet_element(BraidWord.from_text("s2", 3)) == (1, 0, -1, 1, 1)


def test_braid_relation_exact():
    left = triplet_element(BraidWord.from_text("s1 s2 s1", 3))
    right = triplet_element(BraidWord.from_text("s2 s1 s2", 3))
    assert left == right == (0, 1, -1, 0, 3)
    assert _at_minus_one(oracle_burau(parse_keys("s1 s2 s1"))) == left[:4]


def test_random_words_match_oracle():
    rng = random.Random(0)
    for _ in range(200):
        word = _random_word(rng, 12)
        assert triplet_element(word) == _oracle_element(_keys(word))


def test_element_classes_match_oracle_exhaustively():
    """Every word of length <= 6 falls into the same classes under both keys."""
    by_oracle: dict = {}
    by_element: dict = {}
    layer = [((), ORACLE_ID)]
    for _ in range(7):
        for keys, matrix in layer:
            word = BraidWord(3, tuple(BraidLetter(i, s) for i, s in keys))
            by_oracle.setdefault(freeze(matrix), set()).add(keys)
            by_element.setdefault(triplet_element(word), set()).add(keys)
        layer = [
            (keys + (key,), mmul(matrix, gen))
            for keys, matrix in layer
            for key, gen in ORACLE_GEN.items()
        ]
    classes = {frozenset(c) for c in by_oracle.values()}
    assert classes == {frozenset(c) for c in by_element.values()}
    assert len(classes) < sum(4**k for k in range(7))  # the relations merge words


def test_full_twist_is_not_the_identity():
    """D^4 = (s1 s2)^6 maps to the identity matrix; only its exponent sum tells."""
    half = BraidWord.from_text("s1 s2 " * 3, 3)
    full = BraidWord.from_text("s1 s2 " * 6, 3)
    assert triplet_element(half) == (-1, 0, 0, -1, 6)
    assert triplet_element(full) == (1, 0, 0, 1, 12)
    assert triplet_element(full) != triplet_element(BraidWord(3))
    assert _at_minus_one(oracle_burau(_keys(full))) == (1, 0, 0, 1)
    assert freeze(oracle_burau(_keys(full))) != _IDENTITY_FROZEN
    assert triplet_state_from_word(full) != 0


def test_inverse_cancellation():
    rng = random.Random(1)
    identity = triplet_element(BraidWord(3))
    assert identity == (1, 0, 0, 1, 0)
    for _ in range(60):
        word = _random_word(rng, 12)
        both = BraidWord(3, word.letters + _inverted(word).letters)
        assert triplet_element(both) == identity
        assert free_reduce(both).letters == ()


# ---------------------------------------------------------------------------
# Entangling patterns.
# ---------------------------------------------------------------------------


def test_forbidden_matrices_frozen_distinct_nonidentity():
    elements = set()
    for text, frozen in _FORBIDDEN_FROZEN.items():
        keys = parse_keys(text)
        assert freeze(oracle_burau(keys)) == frozen != _IDENTITY_FROZEN
        word = BraidWord.from_text(text, 3)
        assert triplet_element(word) == _oracle_element(keys)
        assert _flagged(word)
        elements.add(triplet_element(word))
    assert len(elements) == 4
    assert triplet_element(BraidWord(3)) not in elements


def _rewrite_once(rng, keys):
    """One random equivalence-preserving rewrite of an (index, sign) list."""
    relation = {
        ((1, 1), (2, 1), (1, 1)): ((2, 1), (1, 1), (2, 1)),
        ((2, 1), (1, 1), (2, 1)): ((1, 1), (2, 1), (1, 1)),
        ((1, -1), (2, -1), (1, -1)): ((2, -1), (1, -1), (2, -1)),
        ((2, -1), (1, -1), (2, -1)): ((1, -1), (2, -1), (1, -1)),
    }
    ops = []
    if len(keys) + 2 <= 12:
        ops.append("insert")
    for i in range(len(keys) - 1):
        if keys[i][0] == keys[i + 1][0] and keys[i][1] == -keys[i + 1][1]:
            ops.append(("delete", i))
    for i in range(len(keys) - 2):
        if tuple(keys[i : i + 3]) in relation:
            ops.append(("swap", i))
    if not ops:
        return keys
    op = rng.choice(ops)
    if op == "insert":
        pos = rng.randrange(len(keys) + 1)
        idx = rng.randrange(1, 3)
        sign = rng.choice((1, -1))
        return keys[:pos] + [(idx, sign), (idx, -sign)] + keys[pos:]
    kind, i = op
    if kind == "delete":
        return keys[:i] + keys[i + 2 :]
    return keys[:i] + list(relation[tuple(keys[i : i + 3])]) + keys[i + 3 :]


def test_bounded_rewrites_stay_flagged():
    rng = random.Random(2)
    for seed_text, frozen in _FORBIDDEN_FROZEN.items():
        seen = set()
        for _ in range(120):
            keys = parse_keys(seed_text)
            for _ in range(rng.randrange(1, 7)):
                keys = _rewrite_once(rng, keys)
            seen.add(tuple(keys))
        for keys in seen:
            assert len(keys) <= 12
            # each rewrite preserved the group element
            assert freeze(oracle_burau(keys)) == frozen
            word = BraidWord(3, tuple(BraidLetter(i, s) for i, s in keys))
            assert _flagged(word)


def test_near_misses_not_flagged():
    assert not _flagged(BraidWord(3))
    assert not _flagged(BraidWord.from_text("s1 s2 s1", 3))
    assert not _flagged(BraidWord.from_text("s1 S2", 3))
    for text in _FORBIDDEN_FROZEN:
        longer = BraidWord.from_text(text + " s2", 3)
        assert not _flagged(longer)


# ---------------------------------------------------------------------------
# Free reduction.
# ---------------------------------------------------------------------------


def test_free_reduce_pinned():
    assert free_reduce(BraidWord.from_text("s1 S1", 3)).letters == ()
    assert free_reduce(BraidWord.from_text("s1 s2 S2 S1", 3)).letters == ()
    assert _text(free_reduce(BraidWord.from_text("s1 s1 S1", 3))) == "s1"
    assert _text(free_reduce(BraidWord.from_text("s1 s2 s1", 3))) == "s1 s2 s1"


def test_free_reduce_properties():
    rng = random.Random(3)
    for _ in range(300):
        word = _random_word(rng, 14)
        reduced = free_reduce(word)
        for a, b in zip(reduced.letters, reduced.letters[1:]):
            assert not (a.index == b.index and a.sign == -b.sign)
        assert free_reduce(reduced) == reduced
        assert freeze(oracle_burau(_keys(reduced))) == freeze(oracle_burau(_keys(word)))


# ---------------------------------------------------------------------------
# Incremental pair states: a pair braid is its signed crossing count.
# ---------------------------------------------------------------------------


def test_update_pair_counts_and_cap():
    up = BraidLetter(1, 1)
    down = BraidLetter(1, -1)
    assert update_pair(0, up) == (1, True)
    assert update_pair(1, down) == (0, True)
    assert update_pair(1, up) == (2, False)
    assert update_pair(0, down) == (-1, True)
    assert update_pair(-1, down) == (-2, False)


def test_update_pair_violated_is_sticky():
    st, ok = update_pair(1, BraidLetter(1, 1))
    assert not ok
    with pytest.raises(InputError):
        update_pair(st, BraidLetter(1, -1))
    with pytest.raises(InputError):
        update_pair(-3, BraidLetter(1, 1))


def test_update_pair_rejects_other_generators():
    with pytest.raises(InputError):
        update_pair(0, BraidLetter(2, 1))


def test_pair_state_default_flag():
    # a table stores a pair as its count, flagged exactly when |count| >= 2
    for count in (-2, -1, 0, 1, 2):
        table = BraidTable(2, (count,), ())
        (entry,) = to_serializable((table,))["pairs"]
        assert table.is_clean == (abs(count) < 2) == (not entry["violated"])


def test_pair_prefix_cap_matches_running_sum():
    rng = random.Random(4)
    for _ in range(200):
        signs = [rng.choice((1, -1)) for _ in range(rng.randrange(1, 30))]
        st = 0
        total = 0
        for k, sign in enumerate(signs):
            total += sign
            st, ok = update_pair(st, BraidLetter(1, sign))
            assert st == total
            if abs(total) >= 2:
                assert not ok
                break
            assert ok


# ---------------------------------------------------------------------------
# Incremental triplet states.
# ---------------------------------------------------------------------------


def test_update_triplet_flags_entangling_word():
    st = 0
    for text, expect_ok in (("s1", True), ("S2", True), ("s1", False)):
        letter = BraidWord.from_text(text, 3).letters[0]
        st, ok = update_triplet(st, letter)
        assert ok == expect_ok
    assert braid._VIOLATED[st]
    with pytest.raises(InputError):
        update_triplet(st, BraidLetter(1, 1))


def test_update_triplet_free_reduces_letters():
    st, ok = update_triplet(0, BraidLetter(1, 1))
    assert ok
    st, ok = update_triplet(st, BraidLetter(1, -1))
    assert ok
    assert st == 0
    assert triplet_word_text(st) == "e"


def test_update_triplet_rejects_bad_generator():
    with pytest.raises(InputError):
        update_triplet(0, BraidLetter(3, 1))


def test_incremental_matches_batch_small():
    rng = random.Random(5)
    forbidden = set(_FORBIDDEN_FROZEN.values())
    for _ in range(300):
        word = _random_word(rng, 40)
        st = 0
        tripped = False
        for k, letter in enumerate(word.letters):
            st, ok = update_triplet(st, letter)
            if not ok:
                prefix = _keys(word)[: k + 1]
                assert freeze(oracle_burau(prefix)) in forbidden
                tripped = True
                break
        if tripped:
            continue
        batch = triplet_state_from_word(word)
        assert st == batch
        assert braid._KEY[st] == _oracle_element(_keys(word))
        # the stored word is one freely reduced witness of the same element
        witness = _word(st)
        assert free_reduce(witness) == witness
        assert freeze(oracle_burau(_keys(witness))) == freeze(oracle_burau(_keys(word)))


def test_interning_canonicalizes_equal_elements():
    a = triplet_state_from_word(BraidWord.from_text("s1 s2 s1", 3))
    b = triplet_state_from_word(BraidWord.from_text("s2 s1 s2", 3))
    assert a == b
    assert triplet_state_from_word(BraidWord(3)) == 0


def _shortlex_geodesics(max_len):
    """Oracle class -> its shortlex-least shortest word (as (index, sign)
    keys), for every braid of at most ``max_len`` letters, in shortlex
    order of those words."""
    letters = ((1, 1), (1, -1), (2, 1), (2, -1))  # s1 < S1 < s2 < S2
    best = {freeze(ORACLE_ID): ()}
    layer = [((), ORACLE_ID)]
    for _ in range(max_len):
        nxt = []
        for keys, matrix in layer:
            for key in letters:
                m = mmul(matrix, ORACLE_GEN[key])
                if freeze(m) not in best:
                    best[freeze(m)] = keys + (key,)
                    nxt.append((keys + (key,), m))
        layer = nxt
    return best


def test_seeded_braids_cover_every_plannable_state():
    """Words whose every prefix keeps each strand pair's crossing count
    within +-1 (the planner's pair check), not extended past a forbidden
    prefix, reach exactly 19 clean and 4 forbidden braids, none longer than
    three letters.  The package numbers them all at import, so each has
    its shortlex-least shortest word whatever the process met first."""
    forbidden = set(_FORBIDDEN_FROZEN.values())
    # BFS over braids; the strand order and the pair counts follow from the
    # braid, so a braid met once need not be met again.
    start = ((), ORACLE_ID, (0, 1, 2), {(0, 1): 0, (0, 2): 0, (1, 2): 0})
    seen = {freeze(ORACLE_ID): ()}
    layer = [start]
    while layer:
        nxt = []
        for keys, matrix, strands, counts in layer:
            if freeze(matrix) in forbidden:
                continue
            for index, sign in ((1, 1), (1, -1), (2, 1), (2, -1)):
                a, b = strands[index - 1], strands[index]
                pair = (min(a, b), max(a, b))
                if abs(counts[pair] + sign) > 1:
                    continue
                m = mmul(matrix, ORACLE_GEN[(index, sign)])
                if freeze(m) in seen:
                    continue
                seen[freeze(m)] = keys + ((index, sign),)
                swapped = list(strands)
                swapped[index - 1], swapped[index] = b, a
                nxt.append((
                    keys + ((index, sign),), m, tuple(swapped),
                    {**counts, pair: counts[pair] + sign},
                ))
        layer = nxt
    reached_forbidden = [c for c in seen if c in forbidden]
    assert len(seen) - len(reached_forbidden) == 19
    assert len(reached_forbidden) == 4
    assert max(len(keys) for keys in seen.values()) <= 3

    geodesics = _shortlex_geodesics(3)
    assert len(geodesics) == 47
    # the package numbers exactly these braids first, in this order
    assert [_keys(_word(s)) for s in range(47)] == [list(k) for k in geodesics.values()]
    interned = len(braid._KEY)
    for cls, keys in seen.items():
        state = triplet_state_from_word(BraidWord(3, tuple(BraidLetter(*k) for k in keys)))
        assert _keys(_word(state)) == list(geodesics[cls])
        assert braid._VIOLATED[state] == (cls in forbidden)
    assert len(braid._KEY) == interned


def test_violated_flag_follows_value():
    built = triplet_state_from_word(BraidWord.from_text("s1 S2 s1", 3))
    assert braid._VIOLATED[built]
    st = 0
    for letter in BraidWord.from_text("s1 S2 s1", 3).letters:
        st, ok = update_triplet(st, letter)
    assert not ok and st == built
    assert triplet_state_from_word(BraidWord.from_text("s1 s2 S2 S2 s1", 3)) == built


# ---------------------------------------------------------------------------
# Text form and validation.
# ---------------------------------------------------------------------------


def _text(word: BraidWord) -> str:
    """The text form ``BraidWord.from_text`` reads (see ``braid``'s docstring)."""
    return " ".join(map(str, word.letters)) or "e"


def test_text_round_trip():
    rng = random.Random(6)
    for _ in range(100):
        word = _random_word(rng, 10)
        assert BraidWord.from_text(_text(word), 3) == word
    assert _text(BraidWord(3)) == "e"
    assert BraidWord.from_text("e", 3) == BraidWord(3)
    assert BraidWord.from_text("  ", 3) == BraidWord(3)
    assert _text(BraidWord.from_text("s1 S2", 3)) == "s1 S2"


def test_from_text_rejects_garbage():
    for bad in ("x1", "s", "s1S2", "1s", "s-1"):
        with pytest.raises(InputError):
            BraidWord.from_text(bad, 3)


def test_word_and_letter_validation():
    with pytest.raises(InputError):
        BraidLetter(0, 1)
    with pytest.raises(InputError):
        BraidLetter(1, 2)
    with pytest.raises(InputError):
        BraidWord(1)
    with pytest.raises(InputError):
        BraidWord(3, (BraidLetter(3, 1),))
    with pytest.raises(InputError):
        BraidWord.from_text("s2", 2)
    assert BraidLetter(2, 1).inverse() == BraidLetter(2, -1)


def test_triplet_element_validation():
    with pytest.raises(InputError):
        triplet_element(BraidWord(2, (BraidLetter(1, 1),)))
    with pytest.raises(InputError):
        triplet_element(BraidWord(4, (BraidLetter(3, 1),)))
    with pytest.raises(InputError):
        triplet_state_from_word(BraidWord(2))

