"""The sixty identities of Bol-Moufang type and their classification.

An identity of Bol-Moufang type equates two bracketings of the same
four-letter word in three variables, where one variable appears twice.
The six possible words are labeled A..F and the five bracketings 1..5;
the pair (i, j) with i < j names which two bracketings are equated.
Commutative idempotent groupoids satisfying any one of these identities
fall into eight varieties; TABLE1_CLASSES lists the identities of each class
and inclusion_order gives the containment order among the eight classes.
"""

from __future__ import annotations

import functools
import itertools

from cigroupoids.core import CayleyTable, Identity, Prod, Term, Var, _Record, check_identity

ORDERINGS = {
    "A": "xxyz",
    "B": "xyxz",
    "C": "xyyz",
    "D": "xyzx",
    "E": "xyzy",
    "F": "xyzz",
}

# Bracketing shapes for a word abcd, numbered 1..5.
BRACKETINGS = {
    1: lambda a, b, c, d: Prod(a, Prod(b, Prod(c, d))),
    2: lambda a, b, c, d: Prod(a, Prod(Prod(b, c), d)),
    3: lambda a, b, c, d: Prod(Prod(a, b), Prod(c, d)),
    4: lambda a, b, c, d: Prod(Prod(a, Prod(b, c)), d),
    5: lambda a, b, c, d: Prod(Prod(Prod(a, b), c), d),
}

LETTERS = "ABCDEF"


@functools.total_ordering
class BMIdentity(_Record):
    """One of the sixty names Xij with X in A..F and 1 <= i < j <= 5,
    ordered by (letter, i, j)."""

    __slots__ = _fields = ("letter", "i", "j")

    def __init__(self, letter: str, i: int, j: int):
        if letter not in LETTERS:
            raise ValueError(f"ordering letter must be A..F, got {letter!r}")
        if not (1 <= i < j <= 5):
            raise ValueError(f"need 1 <= i < j <= 5, got ({i}, {j})")
        self._init(letter, i, j)

    # spelled out: `decode`'s cache hashes one name per identity checked
    def _values(self) -> tuple[str, int, int]:
        return self.letter, self.i, self.j

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() < other._values()

    @property
    def name(self) -> str:
        return f"{self.letter}{self.i}{self.j}"

    def __str__(self) -> str:
        return self.name


def bm(name: str) -> BMIdentity:
    """Parse a name like 'E15'."""
    if len(name) != 3:
        raise ValueError(f"bad Bol-Moufang name {name!r}")
    return BMIdentity(name[0], int(name[1]), int(name[2]))


def bracketed(word: str, shape: int) -> Term:
    leaves = [Var(c) for c in word]
    return BRACKETINGS[shape](*leaves)


@functools.cache
def decode(b: BMIdentity) -> Identity:
    """The actual two-sided identity named by b.

    Memoized, so every caller shares one Identity per name, and with it the
    identity's compiled form.
    """
    word = ORDERINGS[b.letter]
    return Identity(bracketed(word, b.i), bracketed(word, b.j))


ALL_BM: tuple[BMIdentity, ...] = tuple(
    BMIdentity(letter, i, j)
    for letter in LETTERS
    for i, j in itertools.combinations(range(1, 6), 2)
)


# Name -> position of that identity's bit in a classify_bm profile.
BM_INDEX: dict[str, int] = {b.name: k for k, b in enumerate(ALL_BM)}


def classify_bm(g: CayleyTable) -> tuple[bool, ...]:
    """Satisfaction bit for each of the 60 identities, in canonical order."""
    return tuple(check_identity(g, decode(b)) for b in ALL_BM)


def profile_string(profile: tuple[bool, ...]) -> str:
    return "".join("1" if bit else "0" for bit in profile)


# The eight variety classes. Every one of the sixty identities, taken
# together with commutativity and idempotence, defines one of these eight
# varieties (many identities collapse to the same variety).
TABLE1_CLASSES: dict[str, tuple[str, ...]] = {
    "C": ("B45", "D24", "E12"),
    "2SL": ("A13", "A45", "C12", "C45", "F12", "F35"),
    "X": ("A24", "A25", "B24", "B25", "E14", "E24", "F14", "F24"),
    "SL": (
        "A12", "A15", "A23", "A34", "A35",
        "B14", "B15", "B34", "B35",
        "C13", "C14", "C23", "C24", "C25", "C34", "C35",
        "D12", "D14", "D23", "D25", "D34", "D45",
        "E13", "E15", "E23", "E25",
        "F13", "F15", "F23", "F34", "F45",
    ),
    "T2": ("C15",),
    "T1": ("A14", "F25"),
    "S2": ("B12", "D15", "E45"),
    "S1": ("B13", "B23", "D13", "D35", "E34", "E35"),
}

CLASS_NAMES = tuple(TABLE1_CLASSES)


# Covers of the containment order on the eight classes: three chains from
# SL up to C. The full order is the reflexive-transitive closure.
INCLUSION_COVERS: tuple[tuple[str, str], ...] = (
    ("SL", "X"), ("X", "2SL"), ("2SL", "C"),
    ("SL", "T1"), ("T1", "T2"), ("T2", "C"),
    ("SL", "S1"), ("S1", "S2"), ("S2", "C"),
)


@functools.lru_cache(maxsize=1)
def inclusion_order() -> frozenset[tuple[str, str]]:
    """All pairs (K1, K2) with K1 a subvariety of K2 (reflexive, transitive)."""
    pairs = {(k, k) for k in CLASS_NAMES} | set(INCLUSION_COVERS)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(pairs), repeat=2):
            if b == c and (a, d) not in pairs:
                pairs.add((a, d))
                changed = True
    return frozenset(pairs)


def is_subvariety(k1: str, k2: str) -> bool:
    return (k1, k2) in inclusion_order()

