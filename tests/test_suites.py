"""Helpers and premises of the verify suites, checked against their oracles."""

import itertools
from collections import Counter

from cigroupoids.bolmoufang import TABLE1_CLASSES, classify_bm, decode
from cigroupoids.core import (
    COMMUTATIVE_LAW,
    CayleyTable,
    check_identity_witness,
    load_fixture,
)
from cigroupoids.search import all_models, canonical_form, find_separating_model
from cigroupoids.suites import (
    CheckResult,
    _holds_on_all,
    _identity_on_models,
    _models_of_class,
    separated_at,
)

PROFILES = [(n, classify_bm(g)) for n in range(1, 5) for g in all_models(n, ())]


def _oracle_n(a, b):
    model = find_separating_model((decode(a),), (decode(b),), 4)
    return None if model is None else model.n


def test_separated_at_matches_search_on_class_representatives():
    reps = [names[0] for names in TABLE1_CLASSES.values()]
    sizes = Counter()
    for a, b in itertools.permutations(reps, 2):
        n = separated_at(a, b, PROFILES)
        assert n == _oracle_n(a, b), (a, b)
        sizes[n] += 1
    # every branch of the scan runs: found at n=3, at n=4, and not at all
    assert sizes == {3: 33, 4: 6, None: 17}


def test_separated_at_matches_search_within_s1():
    pairs = list(itertools.permutations(TABLE1_CLASSES["S1"], 2))
    assert len(pairs) == 30
    for a, b in pairs:
        assert separated_at(a, b, PROFILES) is None
        assert _oracle_n(a, b) is None


def test_holds_on_all_reports_the_first_failing_item():
    # the second (n=3) and third (n=2) models are not commutative
    models = [CayleyTable([[0, 0], [0, 1]]), load_fixture("fig1"), load_fixture("leftzero")]
    witnesses = [check_identity_witness(g, COMMUTATIVE_LAW) for g in models]
    assert witnesses[0] is None and None not in witnesses[1:]
    row = _identity_on_models("commutes", models, COMMUTATIVE_LAW)
    assert row == CheckResult("commutes", False, f"fails on an n=3 model at {witnesses[1]}")

    seen = []

    def fails(g):
        seen.append(g)
        return check_identity_witness(g, COMMUTATIVE_LAW)

    row = _holds_on_all("commutes", models, fails, "ok", lambda g, w: (g.n, w))
    assert row == CheckResult("commutes", False, (3, witnesses[1]))
    assert seen == models[:2]


def test_holds_on_all_passes_with_the_ok_text():
    models = [CayleyTable([[0]]), CayleyTable([[0, 0], [0, 1]])]
    row = _identity_on_models("commutes", models, COMMUTATIVE_LAW)
    assert row == CheckResult("commutes", True, "holds on all 2 models")


def test_t2_fixtures_are_among_the_enumerated_t2_models():
    # t2-structure and appendix check the enumerated models only; the two
    # T2 fixtures are covered because their canonical forms are among them
    models = set(_models_of_class("T2", 6))
    assert len(models) == 109
    for name in ("fig3b", "fig4a"):
        assert canonical_form(load_fixture(name)) in models
    assert load_fixture("fig3b") not in models
