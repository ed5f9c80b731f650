"""Tests for the sixty identities, duality, and the variety classification."""

import itertools

import pytest

from cigroupoids.bolmoufang import (
    ALL_BM,
    CLASS_NAMES,
    TABLE1_CLASSES,
    bm,
    classify_bm,
    decode,
    dual,
    enumerate_bm,
    inclusion_order,
    is_subvariety,
    profile_string,
)
from cigroupoids.core import check_identity, load_fixture


def test_sixty_distinct():
    items = enumerate_bm()
    assert len(items) == 60
    term_pairs = {(str(i.lhs), str(i.rhs)) for _, i in items}
    assert len(term_pairs) == 60


def test_canonical_order():
    names = [b.name for b in ALL_BM]
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
        assert str(decode(bm(name))) == text


def test_decode_is_shared():
    # one Identity per name, so its compiled form is built once
    for b, ident in enumerate_bm():
        assert decode(b) is ident
        assert decode(bm(b.name)) is ident


def test_variables_in_first_occurrence_order():
    for b, ident in enumerate_bm():
        from cigroupoids.core import variables

        assert variables(ident.lhs)[0] == "x"
        assert set(variables(ident.lhs)) == {"x", "y", "z"}
        assert set(variables(ident.rhs)) == {"x", "y", "z"}


def test_dual_involution():
    for b in ALL_BM:
        assert dual(dual(b)) == b


def test_dual_frozen_cases():
    assert dual(bm("E15")) == bm("B15")
    assert dual(bm("C15")) == bm("C15")
    assert dual(bm("A14")) == bm("F25")
    assert dual(bm("B45")) == bm("E12")
    assert dual(bm("D24")) == bm("D24")


def test_classes_partition():
    all_names = sorted(b.name for b in ALL_BM)
    listed = sorted(n for names in TABLE1_CLASSES.values() for n in names)
    assert listed == all_names
    sizes = {k: len(v) for k, v in TABLE1_CLASSES.items()}
    assert sizes == {"C": 3, "2SL": 6, "X": 8, "SL": 31, "T2": 1, "T1": 2, "S2": 3, "S1": 6}


def test_classes_closed_under_dual():
    for names in TABLE1_CLASSES.values():
        assert {dual(bm(name)).name for name in names} == set(names)


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
    assert profile[bm("C15")] is True
    assert profile[bm("A14")] is False


def test_classify_fig2b():
    g = load_fixture("fig2b")
    profile = dict(zip(ALL_BM, classify_bm(g)))
    for name in TABLE1_CLASSES["2SL"]:
        assert profile[bm(name)] is True, name
    assert profile[bm("A24")] is False


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
            assert profile[b] == profile[dual(b)], (name, b.name)
    assert checked >= 7


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
    assert len({(a, b) for a, b in inclusion_order() if a != b}) == 16
    assert len(incomparable()) == 12


def test_inclusion_order_is_an_order():
    order = inclusion_order()
    for k in CLASS_NAMES:
        assert (k, k) in order
    for a, b in order:
        for c, d in order:
            if b == c:
                assert (a, d) in order
    # antisymmetry
    for a, b in order:
        if a != b:
            assert (b, a) not in order


def test_incomparable_pairs_frozen():
    pairs = incomparable()
    assert frozenset(("S1", "T1")) in pairs
    assert frozenset(("2SL", "T2")) in pairs
    for a, b in pairs:
        assert not is_subvariety(a, b)
        assert not is_subvariety(b, a)
