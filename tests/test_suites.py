"""Helpers and premises of the verify suites, checked against their oracles."""

import itertools
from collections import Counter

from cigroupoids.bolmoufang import TABLE1_CLASSES, bm, classify_bm, decode
from cigroupoids.core import load_fixture
from cigroupoids.search import all_models, canonical_form, find_separating_model
from cigroupoids.suites import _models_of_class, separated_at

PROFILES = [(n, classify_bm(g)) for n in range(1, 5) for g in all_models(n, ())]


def _oracle_n(a, b):
    model = find_separating_model((decode(bm(a)),), (decode(bm(b)),), 4)
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


def test_t2_fixtures_are_among_the_enumerated_t2_models():
    # t2-structure and appendix check the enumerated models only; the two
    # T2 fixtures are covered because their canonical forms are among them
    models = set(_models_of_class("T2", 6))
    assert len(models) == 109
    for name in ("fig3b", "fig4a"):
        assert canonical_form(load_fixture(name)) in models
    assert load_fixture("fig3b") not in models
