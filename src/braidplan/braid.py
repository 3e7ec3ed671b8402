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
    "TripletBraidState",
    "free_reduce",
    "identity_triplet",
    "is_forbidden_triplet",
    "pair_word_text",
    "triplet_element",
    "triplet_state_from_word",
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

    def to_text(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(str(l) for l in self.letters)

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


# Keys of the four entangling triplet patterns.
_FORBIDDEN3 = frozenset(
    triplet_element(BraidWord.from_text(text, 3))
    for text in ("s1 S2 s1", "s2 S1 s2", "S1 s2 S1", "S2 s1 S2")
)


def is_forbidden_triplet(word: BraidWord) -> bool:
    """True when the word is equivalent to one of the four entangling patterns."""
    return triplet_element(word) in _FORBIDDEN3


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


class TripletBraidState:
    """Running state of a 3-strand braid.

    ``letters`` is the freely reduced word so far (kept for diagnostics and
    serialization); ``element`` is its key from ``triplet_element``, and
    ``violated`` says whether that key is one of the four entangling
    patterns.  Only ``triplet_state_from_word``, ``identity_triplet`` and
    ``update_triplet`` make states, and they intern them by key, so equal
    braids are one object and ``==`` and ``hash`` are identity.
    """

    __slots__ = ("letters", "element", "violated", "_trans")

    def __init__(self, letters: tuple[BraidLetter, ...], element: tuple[int, ...]):
        self.letters = letters
        self.element = element
        self.violated = element in _FORBIDDEN3
        # per-state transition cache, filled lazily by update_triplet
        self._trans: dict[tuple[int, int], tuple[TripletBraidState, bool]] = {}

    @property
    def word(self) -> BraidWord:
        return BraidWord(3, self.letters)

    def __repr__(self) -> str:
        flag = ", violated" if self.violated else ""
        return f"TripletBraidState({self.word.to_text()!r}{flag})"


# Interning makes one triplet state per group element, so state equality is
# identity.  Different reduced words can name the same element
# (s1 s2 s1 = s2 s1 s2), so the key is ``triplet_element``, never the word;
# the stored word is one witness for it.  The table is never cleared: every
# state's ``_trans`` cache keeps its successors reachable from the identity
# state anyway, and re-interning an element would make a second object for it.
_TRIPLET_INTERN: dict[tuple[int, ...], TripletBraidState] = {}


def _intern_triplet(
    letters: tuple[BraidLetter, ...], element: tuple[int, ...]
) -> TripletBraidState:
    state = _TRIPLET_INTERN.get(element)
    if state is None:
        state = TripletBraidState(letters, element)
        _TRIPLET_INTERN[element] = state
    return state


_IDENTITY_TRIPLET = _intern_triplet((), _IDENTITY_ELEMENT)


def update_triplet(state: TripletBraidState, letter: BraidLetter) -> tuple[TripletBraidState, bool]:
    """Append one crossing to a triplet braid and check it.

    The new word is the free reduction of the old word plus the letter, and
    the update is unsafe when the new element is one of the four entangling
    patterns.  Violated states are sticky.
    """
    if state.violated:
        raise InputError("cannot update a violated triplet braid state")
    if letter.index not in (1, 2):
        raise InputError(f"triplet braids have generators s1, s2, got s{letter.index}")
    key = (letter.index, letter.sign)
    hit = state._trans.get(key)
    if hit is not None:
        return hit
    prior = state.letters
    if prior and prior[-1].index == letter.index and prior[-1].sign == -letter.sign:
        letters = prior[:-1]  # appending the inverse of the last letter cancels it
    else:
        letters = prior + (letter,)
    new = _intern_triplet(letters, _times(state.element, key))
    state._trans[key] = hit = (new, not new.violated)
    return hit


def triplet_state_from_word(word: BraidWord) -> TripletBraidState:
    """Canonical triplet state for a word, with its free reduction as witness."""
    reduced = free_reduce(word)
    return _intern_triplet(reduced.letters, triplet_element(reduced))


def identity_triplet() -> TripletBraidState:
    return _IDENTITY_TRIPLET
