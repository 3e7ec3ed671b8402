"""Braid words on two and three strands, with an exact equality oracle.

Cable entanglement between robots is always witnessed by a pair or a
triplet of strands, so the only braid groups this package ever needs are
B2 and B3.  B2 is infinite cyclic: a pair braid is fully described by the
signed count of its crossings.  For B3 we track the reduced Burau
representation, which is faithful on three strands, so two words are
equivalent exactly when their Burau matrices agree entry for entry.  The
matrices live over integer Laurent polynomials and all arithmetic is
exact.

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
from typing import Iterable

from .errors import InputError

__all__ = [
    "BraidLetter",
    "BraidWord",
    "LaurentPoly",
    "LaurentMatrix",
    "PairBraidState",
    "TripletBraidState",
    "burau",
    "burau_letter",
    "free_reduce",
    "forbidden_triplet_matrices",
    "identity_pair",
    "identity_triplet",
    "is_forbidden_triplet",
    "pair_state",
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


_LETTER_RE = re.compile(r"^([sS])(\d+)$")


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

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def inverted(self) -> "BraidWord":
        """Group inverse: reversed word with every letter inverted."""
        return BraidWord(self.strands, tuple(l.inverse() for l in reversed(self.letters)))

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
# Exact Laurent-polynomial arithmetic for the reduced Burau representation.
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Integer Laurent polynomial in one variable t.

    Immutable; stored as sorted (exponent, coefficient) pairs with no zero
    coefficients.  Python integers keep every coefficient exact no matter
    how long the tracked braid word grows.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        for exp, coeff in terms:
            acc[exp] = acc.get(exp, 0) + coeff
        self.terms: tuple[tuple[int, int], ...] = tuple(
            sorted((e, c) for e, c in acc.items() if c)
        )
        self._hash = hash(self.terms)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls(((exp, coeff),))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(self.terms + other.terms)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = e1 + e2
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(out.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            else:
                base = "t" if e == 1 else f"t^{e}"
                parts.append(base if c == 1 else f"-{base}" if c == -1 else f"{c}*{base}")
        return " + ".join(parts).replace("+ -", "- ")


_P_ZERO = LaurentPoly.zero()
_P_ONE = LaurentPoly.monomial(0)


class LaurentMatrix:
    """2x2 matrix of Laurent polynomials; the value type of Burau images."""

    __slots__ = ("a", "b", "c", "d", "_hash")

    def __init__(self, a: LaurentPoly, b: LaurentPoly, c: LaurentPoly, d: LaurentPoly):
        self.a, self.b, self.c, self.d = a, b, c, d
        self._hash = hash((a.terms, b.terms, c.terms, d.terms))

    @classmethod
    def identity(cls) -> "LaurentMatrix":
        return cls(_P_ONE, _P_ZERO, _P_ZERO, _P_ONE)

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return LaurentMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]]"


_IDENTITY_MATRIX = LaurentMatrix.identity()

# Reduced Burau images of s1, s2 and their inverses.  Faithful on B3, so
# matrix equality is exactly word equivalence on three strands.
_BURAU = {
    (1, 1): LaurentMatrix(LaurentPoly.monomial(1, -1), _P_ONE, _P_ZERO, _P_ONE),
    (2, 1): LaurentMatrix(_P_ONE, _P_ZERO, LaurentPoly.monomial(1), LaurentPoly.monomial(1, -1)),
    (1, -1): LaurentMatrix(LaurentPoly.monomial(-1, -1), LaurentPoly.monomial(-1), _P_ZERO, _P_ONE),
    (2, -1): LaurentMatrix(_P_ONE, _P_ZERO, _P_ONE, LaurentPoly.monomial(-1, -1)),
}


def burau_letter(letter: BraidLetter) -> LaurentMatrix:
    """Reduced Burau image of a single B3 generator."""
    try:
        return _BURAU[(letter.index, letter.sign)]
    except KeyError:
        raise InputError(f"no 3-strand Burau image for generator index {letter.index}")


def burau(word: BraidWord) -> LaurentMatrix:
    """Reduced Burau image of a 3-strand word (letters act left to right)."""
    if word.strands != 3:
        raise InputError(f"burau is defined here for 3 strands, got {word.strands}")
    m = _IDENTITY_MATRIX
    for letter in word.letters:
        m = m * burau_letter(letter)
    return m


def _forbidden() -> dict[LaurentMatrix, str]:
    out = {}
    for text in ("s1 S2 s1", "s2 S1 s2", "S1 s2 S1", "S2 s1 S2"):
        out[burau(BraidWord.from_text(text, 3))] = text
    return out


# Burau images of the four entangling triplet patterns, keyed for lookup.
_FORBIDDEN3 = _forbidden()


def forbidden_triplet_matrices() -> tuple[LaurentMatrix, ...]:
    return tuple(_FORBIDDEN3)


def is_forbidden_triplet(word: BraidWord) -> bool:
    """True when the word is equivalent to one of the four entangling patterns."""
    return burau(word) in _FORBIDDEN3


# ---------------------------------------------------------------------------
# Incrementally checked braid states.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairBraidState:
    """Running state of a 2-strand braid: its crossing count and a sticky flag.

    Only ``pair_state``, ``identity_pair`` and ``update_pair`` make states,
    and they intern them, so equal braids are one object and ``==`` and
    ``hash`` are identity.
    """

    exponent_sum: int
    violated: bool


_PAIR_INTERN: dict[tuple[int, bool], PairBraidState] = {}


def _intern_pair(exponent_sum: int, violated: bool) -> PairBraidState:
    key = (exponent_sum, violated)
    state = _PAIR_INTERN.get(key)
    if state is None:
        state = PairBraidState(exponent_sum, violated)
        _PAIR_INTERN[key] = state
    return state


def update_pair(state: PairBraidState, letter: BraidLetter) -> tuple[PairBraidState, bool]:
    """Append one crossing to a pair braid.

    Returns the new state and whether it is still safe.  The running sum may
    never reach +-2; an unsafe result is returned with ``violated`` set and
    must not be updated further.
    """
    if state.violated:
        raise InputError("cannot update a violated pair braid state")
    if letter.index != 1:
        raise InputError(f"pair braids only have generator s1, got s{letter.index}")
    total = state.exponent_sum + letter.sign
    ok = abs(total) <= 1
    return _intern_pair(total, not ok), ok


class TripletBraidState:
    """Running state of a 3-strand braid.

    ``letters`` is the freely reduced word so far (kept for diagnostics and
    serialization); ``matrix`` is its reduced Burau image.  Only
    ``triplet_state_from_word``, ``identity_triplet`` and ``update_triplet``
    make states, and they intern them by matrix and flag, so equal braids
    are one object and ``==`` and ``hash`` are identity.
    """

    __slots__ = ("letters", "matrix", "violated", "_trans")

    def __init__(self, letters: tuple[BraidLetter, ...], matrix: LaurentMatrix, violated: bool):
        self.letters = letters
        self.matrix = matrix
        self.violated = violated
        # per-state transition cache, filled lazily by update_triplet
        self._trans: dict[tuple[int, int], tuple[TripletBraidState, bool]] = {}

    @property
    def word(self) -> BraidWord:
        return BraidWord(3, self.letters)

    def __repr__(self) -> str:
        flag = ", violated" if self.violated else ""
        return f"TripletBraidState({self.word.to_text()!r}{flag})"


# Interning makes one triplet state per group element and flag, so state
# equality is identity.  Different reduced words can name the same element
# (s1 s2 s1 = s2 s1 s2), so the key is the Burau matrix, never the word; the
# stored word is one witness for it.  The table is never cleared: every
# state's ``_trans`` cache keeps its successors reachable from the identity
# state anyway, and re-interning an element would make a second object for it.
_TRIPLET_INTERN: dict[tuple[LaurentMatrix, bool], TripletBraidState] = {}


def _intern_triplet(
    letters: tuple[BraidLetter, ...], matrix: LaurentMatrix, violated: bool
) -> TripletBraidState:
    key = (matrix, violated)
    state = _TRIPLET_INTERN.get(key)
    if state is None:
        state = TripletBraidState(letters, matrix, violated)
        _TRIPLET_INTERN[key] = state
    return state


_IDENTITY_TRIPLET = _intern_triplet((), _IDENTITY_MATRIX, False)


def update_triplet(state: TripletBraidState, letter: BraidLetter) -> tuple[TripletBraidState, bool]:
    """Append one crossing to a triplet braid and check it.

    The new word is the free reduction of the old word plus the letter, the
    new matrix its Burau image, and the update is unsafe when that matrix
    equals one of the four entangling patterns.  Violated states are sticky.
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
    matrix = state.matrix * _BURAU[key]
    ok = matrix not in _FORBIDDEN3
    new = _intern_triplet(letters, matrix, not ok)
    state._trans[key] = (new, ok)
    return new, ok


def triplet_state_from_word(word: BraidWord, violated: bool = False) -> TripletBraidState:
    """Canonical triplet state for a word: freely reduced, Burau-keyed."""
    if word.strands != 3:
        raise InputError(f"triplet states need 3-strand words, got {word.strands}")
    reduced = free_reduce(word)
    return _intern_triplet(reduced.letters, burau(reduced), violated)


def pair_state(exponent_sum: int, violated: bool | None = None) -> PairBraidState:
    """Canonical pair state; ``violated`` defaults to the cap check."""
    if violated is None:
        violated = abs(exponent_sum) >= 2
    return _intern_pair(exponent_sum, violated)


def identity_pair() -> PairBraidState:
    return _intern_pair(0, False)


def identity_triplet() -> TripletBraidState:
    return _IDENTITY_TRIPLET
