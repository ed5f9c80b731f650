"""Tests for the sixty identities, duality, and the variety classification."""

import itertools

import pytest

from cigroupoids.bolmoufang import (
    ALL_BM,
    BM_INDEX,
    CLASS_NAMES,
    INCLUSION_COVERS,
    TABLE1_CLASSES,
    classify_bm,
    decode,
    is_subvariety,
    profile_string,
)
from cigroupoids.core import check_identity, load_fixture

_DUAL_LETTER = {"A": "F", "B": "E", "C": "C", "D": "D", "E": "B", "F": "A"}
_DUAL_BRACKET = {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}


def dual(name: str) -> str:
    """Mirror-image identity: reverse the word and flip all bracketings.

    Swapping i and j keeps the names in i < j normal form, so the map is an
    involution on the sixty names.
    """
    letter, i, j = name[0], int(name[1]), int(name[2])
    return f"{_DUAL_LETTER[letter]}{_DUAL_BRACKET[j]}{_DUAL_BRACKET[i]}"


def test_sixty_distinct():
    items = [decode(name) for name in ALL_BM]
    assert len(items) == 60
    term_pairs = {(str(i.lhs), str(i.rhs)) for i in items}
    assert len(term_pairs) == 60


def test_canonical_order():
    names = list(ALL_BM)
    assert names[0] == "A12"
    assert names[1] == "A13"
    assert names[-1] == "F45"
    assert names == sorted(names)


def test_frozen_decodes():
    expect = {
        "E15": "(x (y (z y))) ≈ (((x y) z) y)",
        "A12": "(x (x (y z))) ≈ (x ((x y) z))",
        "A14": "(x (x (y z))) ≈ ((x (x y)) z)",
        "C15": "(x (y (y z))) ≈ (((x y) y) z)",
        "B13": "(x (y (x z))) ≈ ((x y) (x z))",
        "B12": "(x (y (x z))) ≈ (x ((y x) z))",
        "D23": "(x ((y z) x)) ≈ ((x y) (z x))",
    }
    for name, text in expect.items():
        assert str(decode(name)) == text


def test_decode_is_shared():
    # one Identity per name, so its compiled form is built once
    for names in TABLE1_CLASSES.values():
        for name in names:
            assert decode(name) is decode(ALL_BM[BM_INDEX[name]])


def test_decode_validates_names():
    # wrong length, bad letter, non-digit, and i >= j or out of 1..5
    cases = [
        ("A1", "bad Bol-Moufang name 'A1'"),
        ("A123", "bad Bol-Moufang name 'A123'"),
        ("", "bad Bol-Moufang name ''"),
        ("G12", "ordering letter must be A..F, got 'G'"),
        ("a12", "ordering letter must be A..F, got 'a'"),
        ("A1x", "invalid literal for int"),
        ("Ax2", "invalid literal for int"),
        ("A22", r"need 1 <= i < j <= 5, got \(2, 2\)"),
        ("A21", r"need 1 <= i < j <= 5, got \(2, 1\)"),
        ("A06", r"need 1 <= i < j <= 5, got \(0, 6\)"),
        ("F16", r"need 1 <= i < j <= 5, got \(1, 6\)"),
        # non-ASCII digits, which int() would read
        ("A\u0661\u0662", "bad Bol-Moufang name 'A\u0661\u0662'"),
        ("A\u00b23", "bad Bol-Moufang name 'A\u00b23'"),
    ]
    for name, message in cases:
        with pytest.raises(ValueError, match=message):
            decode(name)


def test_variables_in_first_occurrence_order():
    for ident in map(decode, ALL_BM):
        from cigroupoids.core import variables

        assert variables(ident.lhs)[0] == "x"
        assert set(variables(ident.lhs)) == {"x", "y", "z"}
        assert set(variables(ident.rhs)) == {"x", "y", "z"}


def test_dual_involution():
    for name in ALL_BM:
        assert dual(dual(name)) == name


def test_dual_frozen_cases():
    assert dual("E15") == "B15"
    assert dual("C15") == "C15"
    assert dual("A14") == "F25"
    assert dual("B45") == "E12"
    assert dual("D24") == "D24"


def test_classes_partition():
    all_names = sorted(ALL_BM)
    listed = sorted(n for names in TABLE1_CLASSES.values() for n in names)
    assert listed == all_names
    sizes = {k: len(v) for k, v in TABLE1_CLASSES.items()}
    assert sizes == {"C": 3, "2SL": 6, "X": 8, "SL": 31, "T2": 1, "T1": 2, "S2": 3, "S1": 6}


def test_classes_closed_under_dual():
    for names in TABLE1_CLASSES.values():
        assert {dual(name) for name in names} == set(names)


def test_variety_class_frozen():
    assert "B45" in TABLE1_CLASSES["C"]
    assert "C15" in TABLE1_CLASSES["T2"]
    assert "D35" in TABLE1_CLASSES["S1"]
    assert "A14" in TABLE1_CLASSES["T1"]
    assert "A24" in TABLE1_CLASSES["X"]
    assert "A13" in TABLE1_CLASSES["2SL"]
    assert "B12" in TABLE1_CLASSES["S2"]
    assert "E15" in TABLE1_CLASSES["SL"]


def test_classify_semilattice_all_true():
    from cigroupoids.core import CayleyTable

    meet = CayleyTable([[0, 0], [0, 1]])
    profile = classify_bm(meet)
    assert all(profile)
    assert profile_string(profile) == "1" * 60


def test_classify_fig3b():
    profile = dict(zip(ALL_BM, classify_bm(load_fixture("fig3b"))))
    assert profile["C15"] is True
    assert profile["A14"] is False


def test_classify_fig2b():
    g = load_fixture("fig2b")
    profile = dict(zip(ALL_BM, classify_bm(g)))
    for name in TABLE1_CLASSES["2SL"]:
        assert profile[name] is True, name
    assert profile["A24"] is False


def test_dual_bits_agree_on_commutative_tables():
    from cigroupoids.core import check_property

    checked = 0
    for name in ("fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b", "fig4c"):
        g = load_fixture(name)
        if not check_property(g, "commutative"):
            continue
        checked += 1
        profile = dict(zip(ALL_BM, classify_bm(g)))
        for b in ALL_BM:
            assert profile[b] == profile[dual(b)], (name, b)
    assert checked >= 7


def inclusion_closure() -> set[tuple[str, str]]:
    """The reflexive-transitive closure of INCLUSION_COVERS, by squaring."""
    pairs = {(k, k) for k in CLASS_NAMES} | set(INCLUSION_COVERS)
    while True:
        more = pairs | {(a, d) for a, b in pairs for c, d in pairs if b == c}
        if more == pairs:
            return pairs
        pairs = more


def incomparable():
    """Unordered pairs of classes with neither a subvariety of the other."""
    return {
        frozenset((a, b))
        for a, b in itertools.combinations(CLASS_NAMES, 2)
        if not is_subvariety(a, b) and not is_subvariety(b, a)
    }


def test_inclusion_order_frozen():
    assert is_subvariety("SL", "T2")
    assert is_subvariety("X", "C")
    assert is_subvariety("SL", "SL")
    assert not is_subvariety("T1", "S1")
    assert not is_subvariety("S1", "T1")
    assert not is_subvariety("C", "SL")
    assert not is_subvariety("Q", "Q")
    assert {(a, b) for a in CLASS_NAMES for b in CLASS_NAMES if is_subvariety(a, b)} == (
        inclusion_closure()
    )
    assert len({(a, b) for a, b in inclusion_closure() if a != b}) == 16
    assert len(incomparable()) == 12


def test_inclusion_order_is_an_order():
    for k in CLASS_NAMES:
        assert is_subvariety(k, k)
    for a, b, c in itertools.product(CLASS_NAMES, repeat=3):
        if is_subvariety(a, b) and is_subvariety(b, c):
            assert is_subvariety(a, c)
    # antisymmetry
    for a, b in itertools.permutations(CLASS_NAMES, 2):
        assert not (is_subvariety(a, b) and is_subvariety(b, a))


def test_incomparable_pairs_frozen():
    pairs = incomparable()
    assert frozenset(("S1", "T1")) in pairs
    assert frozenset(("2SL", "T2")) in pairs
    for a, b in pairs:
        assert not is_subvariety(a, b)
        assert not is_subvariety(b, a)
