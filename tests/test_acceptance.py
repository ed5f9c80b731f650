"""Acceptance gate: eleven criteria, one test and one report line each.

Every test carries its runtime budget as a hard assertion. Budgets are
upper bounds for a cold run on modest hardware; the suites themselves
run far below them. Each suite's rows must also match, byte for byte, the
`verify --format tsv` output recorded in bench/transcript.json.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

from cigroupoids.bolmoufang import (
    ALL_BM,
    TABLE1_CLASSES,
    decode,
)
from cigroupoids.congruences import all_congruences, is_sd_meet
from cigroupoids.core import (
    check_property,
    load_fixture,
    parse_identity,
    product_algebra,
)
from cigroupoids.plonka import cie_cyclic
from cigroupoids.search import all_models, variety_identities
from cigroupoids.suites import run_suite
from test_bolmoufang import dual
from test_search import count_models

TRANSCRIPT = {
    entry["name"]: entry
    for entry in json.loads(
        (Path(__file__).resolve().parent.parent / "bench" / "transcript.json").read_text()
    )
}


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"ran {elapsed:.1f}s, budget {seconds}s"


def _suite_passes(name):
    report = run_suite(name)
    failed = [c.check for c in report.checks if not c.passed]
    assert report.overall, f"suite {name} failed: {failed}"
    rows = "".join(
        f"{c.check}\t{'pass' if c.passed else 'fail'}\t{c.witness}\n" for c in report.checks
    )
    recorded = TRANSCRIPT[f"verify {name}"]
    assert (rows, 0) == (recorded["stdout"], recorded["exit"])
    return report


def test_criterion_01_name_scheme():
    with budget(1):
        pairs = [(b, decode(b)) for b in ALL_BM]
        assert len(pairs) == 60
        assert len({b for b, _ in pairs}) == 60
        for b in ALL_BM:
            assert dual(dual(b)) == b
        sizes = {cls: len(names) for cls, names in TABLE1_CLASSES.items()}
        assert sizes == {
            "C": 3, "2SL": 6, "X": 8, "SL": 31,
            "T2": 1, "T1": 2, "S2": 3, "S1": 6,
        }
        named = [n for names in TABLE1_CLASSES.values() for n in names]
        assert len(named) == 60 and len(set(named)) == 60
        moufang = parse_identity("(x (y (z y))) = (((x y) z) y)")
        assert decode("E15") == moufang
        assert dual("E15") == "B15"


def test_criterion_02_figure_witnesses():
    with budget(1):
        report = _suite_passes("figures")
        witnesses = {c.witness for c in report.checks}
        assert "0(0(1·2))≠(0(0·1))2 (5 vs 0)" in witnesses
        assert "0(1(0·1))≠(0·1)(0·1) (3 vs 2)" in witnesses


def test_criterion_03_classification_soundness():
    with budget(600):
        report = _suite_passes("table1")
        kinds = [c.check for c in report.checks]
        assert sum(k.startswith("separate-") for k in kinds) == 40
        assert sum(k.startswith("equivalent-within-") for k in kinds) == 8


def test_criterion_04_uniqueness_counts():
    with budget(1):
        assert count_models(3, "squag") == 1
        s1 = all_models(3, variety_identities("S1"))
        nonassociative = [
            g for g in s1 if not check_property(g, "associative")
        ]
        assert len(nonassociative) == 1


def test_criterion_05_squag_square_congruences():
    with budget(60):
        squag = load_fixture("fig4a")
        lattice = all_congruences(product_algebra(squag, squag))
        assert len(lattice.elements) == 6
        assert len(lattice.atoms()) == 4
        assert lattice.height() == 2
        assert not is_sd_meet(lattice)


def test_criterion_06_s2_term_conditions():
    with budget(60):
        _suite_passes("s2-terms")


def test_criterion_07_t2_structure():
    with budget(600):
        _suite_passes("t2-structure")


def test_criterion_08_derived_identities():
    with budget(600):
        _suite_passes("appendix")


def test_criterion_09_reduction_equivalence():
    with budget(600):
        report = _suite_passes("reduction")
        for c in report.checks:
            if c.check.startswith("reduction-equisat-"):
                assert c.witness.startswith("100/100")
        fold = [c for c in report.checks
                if c.check == "fold-order-sigma-invariance"]
        assert len(fold) == 1 and fold[0].witness.startswith("100/100")


def test_criterion_10_cyclic_models():
    with budget(300):
        assert cie_cyclic(3).rows == load_fixture("fig4a").rows
        _suite_passes("cid")


def test_criterion_11_bounded_intersections():
    with budget(600):
        _suite_passes("intersections")
