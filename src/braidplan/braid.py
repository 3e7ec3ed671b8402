"""Braid words on two and three strands, with an exact equality oracle.

Cable entanglement between robots is always witnessed by a pair or a
triplet of strands, so the only braid groups this package ever needs are
B2 and B3.  B2 is infinite cyclic: a pair braid is fully described by the
signed count of its crossings.  For B3 we track an integer key: the
reduced Burau matrix at t = -1, which sends s1 to [[1, 1], [0, 1]] and s2
to [[1, 0], [-1, 1]], together with the exponent sum.  That map
B3 -> SL(2, Z) has kernel <D^4> = <(s1 s2)^6>, where D = s1 s2 s1 is the
half twist (Kassel & Turaev, *Braid Groups*, GTM 247, 2008).  The kernel
element D^(4k) has exponent sum 12k, which is 0 only for the identity, so
the pair (matrix, exponent sum) is faithful on B3: two words are
equivalent exactly when their keys are equal.  All arithmetic is on
Python integers and exact.

The entangling patterns rejected during planning and verification:

* pair words whose running crossing count reaches +-2 (a doubled
  same-sign crossing, ``s1 s1`` or ``S1 S1``),
* triplet words equivalent to one of ``s1 S2 s1``, ``s2 S1 s2``,
  ``S1 s2 S1``, ``S2 s1 S2`` (a strand weaving over-under-over, or
  under-over-under, through its two neighbours).

A triplet state is a small int indexing per-id lists of keys, words,
violated flags and transitions.  At import the 47 braids of at most three
letters are numbered breadth first in shortlex order over s1 < S1 < s2 <
S2 (id 0 is the identity), so each has its shortlex-least shortest word.
They include the 19 clean and 4 forbidden braids a triplet can reach while
every strand pair's crossing count stays within +-1, so the words that
plans, carried tables and violation reports hold follow from the braid
alone.  Other braids are interned when first met, with the word that
reached them.

Text form: lowercase ``s1`` is a positive generator, uppercase ``S1`` its
inverse, letters are space-separated and the empty word is ``"e"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputError

__all__ = [
    "BraidLetter",
    "BraidWord",
    "free_reduce",
    "pair_word_text",
    "triplet_element",
    "triplet_state_from_word",
    "triplet_word_text",
    "update_pair",
    "update_triplet",
]


@dataclass(frozen=True)
class BraidLetter:
    """One elementary crossing: generator ``index`` with ``sign`` +1 or -1.

    Sign +1 means the left strand passes over the right one.
    """

    index: int
    sign: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise InputError(f"generator index must be >= 1, got {self.index}")
        if self.sign not in (1, -1):
            raise InputError(f"letter sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> "BraidLetter":
        return BraidLetter(self.index, -self.sign)

    def __str__(self) -> str:
        return f"s{self.index}" if self.sign > 0 else f"S{self.index}"


# At most four ASCII digits, so a hostile word cannot hand ``int`` a huge index.
_LETTER_RE = re.compile(r"^([sS])([1-9][0-9]{0,3})$", re.ASCII)


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[BraidLetter, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise InputError(f"a braid needs at least 2 strands, got {self.strands}")
        for letter in self.letters:
            if letter.index > self.strands - 1:
                raise InputError(
                    f"generator s{letter.index} does not exist on {self.strands} strands"
                )

    @classmethod
    def from_text(cls, text: str, strands: int) -> "BraidWord":
        text = text.strip()
        if text == "e" or text == "":
            return cls(strands, ())
        letters = []
        for token in text.split():
            m = _LETTER_RE.match(token)
            if m is None:
                raise InputError(f"unrecognized braid letter {token!r}")
            sign = 1 if m.group(1) == "s" else -1
            letters.append(BraidLetter(int(m.group(2)), sign))
        return cls(strands, tuple(letters))


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[BraidLetter] = []
    for letter in word.letters:
        if stack and stack[-1].index == letter.index and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(word.strands, tuple(stack))


# ---------------------------------------------------------------------------
# The exact B3 key: the t = -1 Burau matrix and the exponent sum.
# ---------------------------------------------------------------------------

# Images of s1, s2 and their inverses in SL(2, Z), as (a, b, c, d) for the
# matrix [[a, b], [c, d]]: the reduced Burau matrices at t = -1.
_GENERATORS = {
    (1, 1): (1, 1, 0, 1),
    (1, -1): (1, -1, 0, 1),
    (2, 1): (1, 0, -1, 1),
    (2, -1): (1, 0, 1, 1),
}

_IDENTITY_ELEMENT = (1, 0, 0, 1, 0)


def _times(element: tuple[int, ...], key: tuple[int, int]) -> tuple[int, ...]:
    """The key of ``element`` followed by the letter ``key`` = (index, sign)."""
    a, b, c, d, e = element
    p, q, r, s = _GENERATORS[key]
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s, e + key[1])


def triplet_element(word: BraidWord) -> tuple[int, int, int, int, int]:
    """The exact B3 key ``(a, b, c, d, e)`` of a 3-strand word.

    ``[[a, b], [c, d]]`` is the word's matrix (letters act left to right)
    and ``e`` its exponent sum; two words are equivalent exactly when their
    keys are equal.
    """
    if word.strands != 3:
        raise InputError(f"triplet elements need 3-strand words, got {word.strands}")
    element = _IDENTITY_ELEMENT
    for letter in word.letters:
        element = _times(element, (letter.index, letter.sign))
    return element


# The four entangling triplet patterns and their keys.
_FORBIDDEN_WORDS = ("s1 S2 s1", "s2 S1 s2", "S1 s2 S1", "S2 s1 S2")
_FORBIDDEN3 = frozenset(triplet_element(BraidWord.from_text(text, 3)) for text in _FORBIDDEN_WORDS)


# ---------------------------------------------------------------------------
# Incrementally checked braid states.
# ---------------------------------------------------------------------------


def update_pair(count: int, letter: BraidLetter) -> tuple[int, bool]:
    """Append one crossing to a pair braid, given as its signed crossing count.

    Returns the new count and whether it is still safe.  The count may never
    reach +-2; an unsafe count is returned as it is and must not be updated
    further.
    """
    if abs(count) >= 2:
        raise InputError("cannot update a violated pair braid state")
    if letter.index != 1:
        raise InputError(f"pair braids only have generator s1, got s{letter.index}")
    count += letter.sign
    return count, abs(count) < 2


def pair_word_text(count: int) -> str:
    """The serialized word of a pair braid with this crossing count."""
    return " ".join(["s1" if count > 0 else "S1"] * abs(count)) or "e"


# Per-id lists: ``_KEY[s]`` is state s's key (``_ID`` maps it back),
# ``_WORD[s]`` its word, ``_VIOLATED[s]`` its flag, and ``_NEXT[4 * s + slot]``
# the state after letter ``slot`` (0-3: s1, S1, s2, S2), -1 until first used.
# The lists only grow and are never rebound, so importers may hold them.
_KEY: list[tuple[int, ...]] = []
_ID: dict[tuple[int, ...], int] = {}
_WORD: list[tuple[BraidLetter, ...]] = []
_VIOLATED: list[bool] = []
_NEXT: list[int] = []


def _intern(word: tuple[BraidLetter, ...], key: tuple[int, ...]) -> int:
    state = len(_KEY)
    _KEY.append(key)
    _ID[key] = state
    _WORD.append(word)
    _VIOLATED.append(key in _FORBIDDEN3)
    _NEXT.extend((-1, -1, -1, -1))
    return state


def _append(state: int, letter: BraidLetter) -> int:
    """The state reached from ``state`` by ``letter``.  A braid met for the
    first time is interned with ``state``'s word plus the letter, which
    cancels the word's last letter if that is its inverse."""
    slot = 4 * state + 2 * letter.index - 2 + (letter.sign < 0)
    new = _NEXT[slot]
    if new < 0:
        key = _times(_KEY[state], (letter.index, letter.sign))
        new = _ID.get(key)
        if new is None:
            prior = _WORD[state]
            cancels = prior and prior[-1] == letter.inverse()
            new = _intern(prior[:-1] if cancels else prior + (letter,), key)
        _NEXT[slot] = new
    return new


def _seed(length: int) -> None:
    """Intern every braid of at most ``length`` letters, breadth first: each
    state of the last layer is extended by s1, S1, s2 and S2 in turn, so a
    braid is first met through its shortlex-least shortest word."""
    lo, hi = 0, len(_KEY)
    for _ in range(length):
        for state in range(lo, hi):
            for index, sign in _GENERATORS:
                _append(state, BraidLetter(index, sign))
        lo, hi = hi, len(_KEY)


_intern((), _IDENTITY_ELEMENT)  # id 0
_seed(3)


def update_triplet(state: int, letter: BraidLetter) -> tuple[int, bool]:
    """Append one crossing to a triplet braid and check it.

    Returns the new state and whether it is still safe: the update is
    unsafe when the new braid is one of the four entangling patterns.
    Violated states are sticky.
    """
    if _VIOLATED[state]:
        raise InputError("cannot update a violated triplet braid state")
    if letter.index not in (1, 2):
        raise InputError(f"triplet braids have generators s1, s2, got s{letter.index}")
    new = _append(state, letter)
    return new, not _VIOLATED[new]


def triplet_state_from_word(word: BraidWord) -> int:
    """The state of a 3-strand word.  A braid met for the first time is
    interned with the word's free reduction as its word."""
    key = triplet_element(word)
    state = _ID.get(key)
    return _intern(free_reduce(word).letters, key) if state is None else state


def triplet_word_text(state: int) -> str:
    """The serialized word of a triplet braid state."""
    return " ".join(map(str, _WORD[state])) or "e"
