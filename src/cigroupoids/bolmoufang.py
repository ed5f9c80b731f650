"""The sixty identities of Bol-Moufang type and their classification.

An identity of Bol-Moufang type equates two bracketings of the same
four-letter word in three variables, where one variable appears twice.
The six possible words are labeled A..F and the five bracketings 1..5;
the pair (i, j) with i < j names which two bracketings are equated.
Commutative idempotent groupoids satisfying any one of these identities
fall into eight varieties; TABLE1_CLASSES lists the identities of each class
and INCLUSION_COVERS the covers of the containment order among the eight
classes. An identity is its name, a plain string, and `decode` turns it into
the two-sided identity.
"""

from __future__ import annotations

import functools
import itertools

from cigroupoids.core import CayleyTable, Identity, Prod, Term, Var, check_identity

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


def bracketed(word: str, shape: int) -> Term:
    leaves = [Var(c) for c in word]
    return BRACKETINGS[shape](*leaves)


@functools.cache
def decode(name: str) -> Identity:
    """The identity named by a string like 'E15': letter X in A..F, then
    the bracketings 1 <= i < j <= 5 it equates.

    Memoized, so every caller shares one Identity per name, and with it the
    identity's compiled form.
    """
    if len(name) != 3 or not name.isascii() or not name[1:].isdigit():
        raise ValueError(f"bad Bol-Moufang name {name!r}")
    letter, i, j = name[0], int(name[1]), int(name[2])
    if letter not in LETTERS:
        raise ValueError(f"ordering letter must be A..F, got {letter!r}")
    if not (1 <= i < j <= 5):
        raise ValueError(f"need 1 <= i < j <= 5, got ({i}, {j})")
    word = ORDERINGS[letter]
    return Identity(bracketed(word, i), bracketed(word, j))


# The sixty names in canonical order, which is also their string order.
ALL_BM: tuple[str, ...] = tuple(
    f"{letter}{i}{j}"
    for letter in LETTERS
    for i, j in itertools.combinations(range(1, 6), 2)
)


# Name -> position of that identity's bit in a classify_bm profile.
BM_INDEX: dict[str, int] = {name: k for k, name in enumerate(ALL_BM)}


def classify_bm(g: CayleyTable) -> tuple[bool, ...]:
    """Satisfaction bit for each of the 60 identities, in canonical order."""
    return tuple(check_identity(g, decode(name)) for name in ALL_BM)


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


def is_subvariety(k1: str, k2: str) -> bool:
    """Whether class k1 is contained in class k2, following the covers up."""
    if k1 == k2:
        return k1 in TABLE1_CLASSES
    return any(is_subvariety(upper, k2) for lower, upper in INCLUSION_COVERS if lower == k1)
