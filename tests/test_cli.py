"""End-to-end tests for the command-line interface.

Everything goes through main(argv) so exit codes and printed output are
checked exactly as a shell user would see them.
"""

import ast
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cigroupoids.cli import build_parser, entry, main
from cigroupoids.core import CayleyTable, format_alg, load_fixture, parse_alg
from cigroupoids.csp import parse_csp, solve_brute
from cigroupoids.plonka import adjoin_infinity, decompose, format_system
from cigroupoids.suites import SUITE_NAMES


FIG4A_PROFILE = (
    "001000000000000000010001000000000001000010000000000000001000"
)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# alg


def test_check_property_satisfied(capsys):
    rc, out, _ = run(capsys, "alg", "check", "squag", "fig4a")
    assert rc == 0
    assert out.strip() == "satisfied"


def test_check_bm_name_failure_carries_witness(capsys):
    rc, out, _ = run(capsys, "alg", "check", "C15", "fig2a.alg")
    assert rc == 1
    assert out.startswith("fails")
    assert "x=0, y=1, z=1" in out


def test_check_identity_literal(capsys):
    rc, out, _ = run(capsys, "alg", "check", "(x y) = (y x)", "leftzero")
    assert rc == 1
    rc, out, _ = run(capsys, "alg", "check", "(x x) = x", "leftzero")
    assert rc == 0


def test_check_latin_square(capsys):
    assert run(capsys, "alg", "check", "latin-square", "fig4a")[0] == 0
    assert run(capsys, "alg", "check", "latin-square", "fig1")[0] == 1


@pytest.mark.parametrize("depth", [5000, 5001])
def test_deep_star_chain_terms(capsys, depth):
    # x*y*...*y nests `depth` products to the left, deeper than the default
    # recursion limit. On the squag fig4a, (xy)y = x, so the chain equals x
    # for even depth and xy for odd depth.
    assert depth > sys.getrecursionlimit()
    chain = "x" + "*y" * depth
    rc, out, _ = run(capsys, "alg", "check", f"{chain} = x", "fig4a")
    if depth % 2 == 0:
        assert (rc, out) == (0, "satisfied\n")
    else:
        shown = "(" * depth + "x" + " y)" * depth
        assert (rc, out) == (1, f"fails {shown} ≈ x at x=0, y=1\n")
    rc, out, _ = run(capsys, "plonka", "check", "--join", chain, "fig4a")
    short = "x" if depth % 2 == 0 else "x*y"
    assert (rc, out) == run(capsys, "plonka", "check", "--join", short, "fig4a")[:2]
    assert out.startswith("P1 ")


@pytest.mark.parametrize("depth", [5000, 5001])
def test_deep_parenthesised_terms(capsys, depth):
    # ((...(x y) y)...) nests `depth` parentheses; it is the same term as the
    # star chain x*y*...*y, so the output must match the chain's exactly.
    assert depth > sys.getrecursionlimit()
    nested = "(" * depth + "x" + " y)" * depth
    chain = "x" + "*y" * depth
    got = run(capsys, "alg", "check", f"{nested} = x", "fig4a")
    assert got == run(capsys, "alg", "check", f"{chain} = x", "fig4a")
    assert got[0] == (0 if depth % 2 == 0 else 1)


@pytest.mark.parametrize("depth, short", [(5000, "x*y*y"), (5001, "x*y")])
def test_deep_required_identity_in_enumerate(capsys, depth, short):
    # At n=3 a right translation x -> xy that is a bijection fixes y (y*y = y),
    # so its order is 1 or 2. Hence x*y^5000 = x holds exactly when
    # x*y^2 = x does, and x*y^5001 = x exactly when x*y = x does.
    assert depth > sys.getrecursionlimit()
    chain = "x" + "*y" * depth
    got = run(capsys, "alg", "enumerate", "-n", "3", "--require", f"{chain} = x")
    assert got == run(capsys, "alg", "enumerate", "-n", "3", "--require", f"{short} = x")
    assert got[0] == 0


def test_check_bad_identity_is_usage_error(capsys):
    rc, _, err = run(capsys, "alg", "check", "Z99", "fig4a")
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, pair",
    [
        (("alg", "check", "A22", "fig4a"), (2, 2)),
        (("alg", "check", "A51", "fig4a"), (5, 1)),
        (("alg", "check", "F66", "fig4a"), (6, 6)),
        (("alg", "enumerate", "-n", "3", "--require", "A21"), (2, 1)),
    ],
)
def test_bm_name_out_of_order_is_usage_error(capsys, argv, pair):
    # a letter and two digits is read as a Bol-Moufang name, so i >= j
    # is refused rather than parsed as an identity literal
    assert run(capsys, *argv) == (2, "", f"error: need 1 <= i < j <= 5, got {pair}\n")


@pytest.mark.parametrize("name", ["A\u0661\u0662", "A\u00b23"])
def test_non_ascii_digits_are_no_bm_name(capsys, name):
    # Arabic-Indic digits and a superscript two pass str.isdigit, yet the
    # string is no Bol-Moufang name: it is parsed as an identity literal
    assert run(capsys, "alg", "check", name, "fig4a") == (
        2, "", f"error: identity needs a '=' separator: {name!r}\n"
    )


def test_classify_text(capsys):
    rc, out, _ = run(capsys, "alg", "classify", "fig4a")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == FIG4A_PROFILE
    assert lines[1] == "classes: C T2 T1"


def test_classify_tsv(capsys):
    rc, out, _ = run(capsys, "--format", "tsv", "alg", "classify", "fig4a")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 61
    assert "A14\t1" in lines
    assert "E15\t0" in lines
    assert lines[-1] == "classes\tC,T2,T1"


def test_classify_semilattice_hits_every_class(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2\n0 0\n0 1\n"))
    rc, out, _ = run(capsys, "alg", "classify", "-")
    assert rc == 0
    assert out.splitlines()[0] == "1" * 60
    assert out.splitlines()[1].split(": ")[1].split() == [
        "C", "2SL", "X", "SL", "T2", "T1", "S2", "S1",
    ]



@pytest.mark.parametrize("table", ["fig1", "leftzero"])
def test_classify_names_no_class_for_a_table_that_is_not_ci(capsys, table):
    # neither table is commutative; the left-zero band xy = x satisfies all
    # sixty identities
    rc, out, _ = run(capsys, "alg", "classify", table)
    lines = out.splitlines()
    assert (rc, len(lines[0]), lines[1]) == (0, 60, "classes: (none)")
    rc, out, _ = run(capsys, "--format", "tsv", "alg", "classify", table)
    lines = out.splitlines()
    assert (rc, len(lines), lines[-1]) == (0, 61, "classes\t")


def test_enumerate_streams_models(capsys):
    rc, out, _ = run(capsys, "alg", "enumerate", "-n", "3")
    assert rc == 0
    blocks = out.split("\n\n")
    assert blocks[-1].strip().splitlines()[-1] == "# count=7"
    tables = [parse_alg(b.split("# count")[0]) for b in blocks]
    assert len(tables) == 7
    assert all(g.n == 3 for g in tables)


def test_enumerate_variety_squag_order_four_empty(capsys):
    rc, out, _ = run(capsys, "alg", "enumerate", "-n", "4",
                     "--variety", "squag")
    assert rc == 0
    assert out.strip() == "# count=0"


def test_enumerate_unconstrained_variety_past_its_bound_fails_fast(capsys):
    rc, out, err = run(capsys, "alg", "enumerate", "-n", "6", "--variety", "C")
    assert (rc, out) == (2, "")
    assert err == (
        "error: BoundExceeded: n=6 exceeds the supported bound 5"
        " for a search that no ground instance constrains\n"
    )


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_separate_rejects_max_n_below_one(capsys, max_n):
    rc, out, err = run(capsys, "alg", "separate", "--unsat", "A14", "--max-n", max_n)
    assert (rc, out, err) == (2, "", f"error: max_n must be at least 1, got {max_n}\n")


def test_separate_max_n_defaults_to_six(capsys):
    # the default comes from search.MAX_N_CONSTRAINED, read in the handler
    rc, out, err = run(capsys, "alg", "separate", "--sat", "C15", "--unsat", "A14")
    assert rc == 0 and parse_alg(out).n > 1
    assert (rc, out, err) == run(
        capsys, "alg", "separate", "--sat", "C15", "--unsat", "A14", "--max-n", "6"
    )


def test_separate_finds_and_reports_none(capsys):
    rc, out, _ = run(capsys, "alg", "separate", "--sat", "A14",
                     "--unsat", "E15", "--max-n", "4")
    assert rc == 0
    assert parse_alg(out).n == 3

    rc, out, _ = run(capsys, "alg", "separate", "--sat", "A14",
                     "--unsat", "A14", "--max-n", "3")
    assert rc == 1
    assert out.strip() == "none"


def test_congruences_summary(capsys):
    rc, out, _ = run(capsys, "alg", "congruences", "fig3b")
    assert rc == 0
    got = dict(line.split() for line in out.splitlines())
    assert got == {
        "elements": "4", "atoms": "1", "height": "3", "sd-meet": "true",
    }


def test_congruences_fixture_tsv(capsys):
    rc, out, _ = run(capsys, "--format", "tsv", "alg", "congruences", "fig3a")
    assert rc == 0
    assert out == "elements\t5\natoms\t1\nheight\t3\nsd-meet\ttrue\n"


def test_congruences_chain4_x_chain3(capsys, tmp_path):
    # The semilattice 4-chain x 3-chain: 12 elements, inside the n <= 12
    # bound, with 533 congruences.
    rows = [[max(x // 3, y // 3) * 3 + max(x % 3, y % 3) for y in range(12)] for x in range(12)]
    path = tmp_path / "chain4x3.alg"
    path.write_text(format_alg(CayleyTable(rows)))
    rc, out, _ = run(capsys, "alg", "congruences", str(path))
    assert rc == 0
    assert out == "elements 533\natoms 5\nheight 11\nsd-meet true\n"


def test_table_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2\n0 0\n0 1\n"))
    rc, out, _ = run(capsys, "alg", "check", "semilattice", "-")
    assert rc == 0
    assert out.strip() == "satisfied"


@pytest.mark.parametrize(
    "text, message",
    [
        ("2\n0 x\n1 1\n", "table entry is not an integer: '0 x'"),
        ("two\n0 0\n0 1\n", "table size is not an integer: 'two'"),
        # once reported as "expected -1 rows, found 0"
        ("-1\n", "table size is negative: '-1'"),
        ("0\n", "carrier must have at least one element"),
    ],
    ids=["entry", "size", "negative-size", "zero-size"],
)
def test_alg_rejects_malformed_table(capsys, monkeypatch, text, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, "alg", "classify", "-") == (2, "", f"error: {message}\n")


def test_missing_table_file(capsys):
    rc, _, err = run(capsys, "alg", "classify", "no-such-table.alg")
    assert rc == 2
    assert "no such table file or fixture" in err


# ---------------------------------------------------------------------------
# plonka


def test_plonka_check_p5_failure_line(capsys):
    rc, out, _ = run(capsys, "plonka", "check", "fig3b")
    assert rc == 0  # P1-P4 hold, so the table is a pseudopartition
    assert out.strip() == "P1 P2 P3 P4 ok; P5 FAIL witness=(1, 2, 0)"


def test_plonka_check_all_five(capsys, tmp_path):
    path = tmp_path / "ainf.alg"
    path.write_text(format_alg(adjoin_infinity(load_fixture("fig4a"))))
    rc, out, _ = run(capsys, "plonka", "check", str(path))
    assert rc == 0
    assert out.strip() == "P1 P2 P3 P4 P5 ok"


def test_plonka_check_failure_exit(capsys):
    rc, out, _ = run(capsys, "plonka", "check", "fig1")
    assert rc == 1
    assert "P2 FAIL" in out


def test_plonka_check_tsv(capsys):
    rc, out, _ = run(capsys, "--format", "tsv", "plonka", "check", "fig3b")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "P1\tok\t"
    assert lines[4] == "P5\tfail\t(1, 2, 0)"


def test_plonka_decompose_sum_roundtrip(capsys, tmp_path):
    ainf = adjoin_infinity(load_fixture("fig4a"))
    path = tmp_path / "ainf.alg"
    path.write_text(format_alg(ainf))
    rc, out, _ = run(capsys, "plonka", "decompose", str(path))
    assert rc == 0
    system = tmp_path / "sys.txt"
    system.write_text(out)
    rc, out, _ = run(capsys, "plonka", "sum", str(system))
    assert rc == 0
    assert out == format_alg(ainf)


def test_plonka_decompose_rejects_non_pseudopartition(capsys):
    rc, _, err = run(capsys, "plonka", "decompose", "fig1")
    assert rc == 2
    assert "NotPseudopartition" in err


@pytest.mark.parametrize(
    "good, bad, message",
    [
        ("# fiber 1 elements 3", "# fiber 1", "bad fiber header: '# fiber 1'"),
        ("# map 0 1: 0 0 0", "# map 0 1 0 0 0", "bad map line: '# map 0 1 0 0 0'"),
        ("# fiber 1 elements 3", "# fiber 1 elements x",
         "fiber element is not an integer: '# fiber 1 elements x'"),
        ("# map 0 1: 0 0 0", "# map 0 z: 0 0 0",
         "map end is not an integer: '# map 0 z: 0 0 0'"),
        ("# map 0 1: 0 0 0", "# map 0 1: 0 y 0",
         "map image is not an integer: '# map 0 1: 0 y 0'"),
        # the globals still partition 0..3, but the headers move element 2
        ("elements 0 1 2\n3\n0 2 1\n2 1 0\n1 0 2\n# fiber 1 elements 3",
         "elements 0 1\n3\n0 2 1\n2 1 0\n1 0 2\n# fiber 1 elements 2 3",
         "fiber 0 lists 2 elements for a 3-element table"),
    ],
    ids=["fiber-header", "map-line", "fiber-element", "map-end", "map-image",
         "fiber-length"],
)
def test_plonka_sum_rejects_malformed_line(capsys, monkeypatch, good, bad, message):
    system = format_system(decompose(adjoin_infinity(load_fixture("fig4a"))))
    assert good in system
    monkeypatch.setattr(sys, "stdin", io.StringIO(system.replace(good, bad)))
    assert run(capsys, "plonka", "sum", "-") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "good, bad, message",
    [
        ("# map 0 0: 0 1 2", "# map 0 0: 0 2 1", "map 0 -> 0 is not the identity"),
        ("# map 0 1: 0 0 0", "# map 0 1: 0 0 1", "map 0 -> 1 has the wrong shape"),
        ("# map 0 1: 0 0 0\n", "", "MissingFiberMaps: no map for 0 -> 1"),
    ],
    ids=["not-identity", "wrong-shape", "missing-map"],
)
def test_plonka_sum_rejects_invalid_maps(capsys, monkeypatch, good, bad, message):
    system = format_system(decompose(adjoin_infinity(load_fixture("fig4a"))))
    assert good in system
    monkeypatch.setattr(sys, "stdin", io.StringIO(system.replace(good, bad)))
    assert run(capsys, "plonka", "sum", "-") == (2, "", f"error: {message}\n")


SQUAG_REPLICA_SYSTEM = (
    "3\n0 2 1\n2 1 0\n1 0 2\n"
    + "".join(f"# fiber {s} elements {s}\n1\n0\n" for s in range(3))
    + "".join(f"# map {s} {s}: 0\n" for s in range(3))
)


@pytest.mark.parametrize(
    "system, message",
    [
        (SQUAG_REPLICA_SYSTEM, "replica must be a semilattice"),
        (format_system(decompose(adjoin_infinity(load_fixture("fig4a")))) + "# map 1 0: 0\n",
         "stray map 1 -> 0: the replica has no 1 ≤ 0"),
        ("1\n0\n# fiber 0 elements 0\n1\n0\n# map 0 0: 0\n1\n0\n",
         "unexpected line after the map lines: '1'"),
        # without a replica first, the rows after the map would be read as one
        ("# fiber 0 elements 0\n1\n0\n# map 0 0: 0\n1\n0\n",
         "unexpected line after the map lines: '1'"),
    ],
    ids=["squag-replica", "stray-map", "rows-after-maps", "replica-after-maps"],
)
def test_plonka_sum_rejects_a_system_breaking_the_contract(capsys, monkeypatch, system, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(system))
    assert run(capsys, "plonka", "sum", "-") == (2, "", f"error: {message}\n")


def test_plonka_adjoin_infinity(capsys):
    rc, out, _ = run(capsys, "plonka", "adjoin-infinity", "fig4a")
    assert rc == 0
    g = parse_alg(out)
    assert g.n == 4
    assert g.rows[3] == (3, 3, 3, 3)
    assert all(g.rows[i][3] == 3 for i in range(4))


# ---------------------------------------------------------------------------
# cie


def test_cie_three_is_the_cyclic_squag(capsys):
    rc, out, _ = run(capsys, "cie", "3")
    assert rc == 0
    assert out == format_alg(load_fixture("fig4a"))


def test_cie_exponent(capsys):
    rc, out, _ = run(capsys, "cie", "9", "--exponent")
    assert rc == 0
    assert out.strip() == "6"


def test_cie_rejects_even_modulus(capsys):
    rc, _, err = run(capsys, "cie", "4")
    assert rc == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# csp


def _write_instance(capsys, tmp_path, seed, template):
    rc, out, _ = run(capsys, "csp", "gen", "--seed", str(seed),
                     "--template", template)
    assert rc == 0
    path = tmp_path / f"inst{seed}.csp"
    path.write_text(out)
    return path, out


def test_csp_gen_is_deterministic(capsys, tmp_path):
    _, first = _write_instance(capsys, tmp_path, 7, "fig4b")
    _, again = _write_instance(capsys, tmp_path, 7, "fig4b")
    assert first == again
    assert parse_csp(first).variables == ("v0", "v1", "v2", "v3", "v4")


def test_csp_solve_agrees_with_library(capsys, tmp_path):
    path, text = _write_instance(capsys, tmp_path, 7, "fig4b")
    rc, out, _ = run(capsys, "csp", "solve", str(path))
    expected = solve_brute(parse_csp(text))
    assert rc == 0
    got = dict(line.split("=") for line in out.splitlines())
    assert {k: int(v) for k, v in got.items()} == expected

    rc_b, out_b, _ = run(capsys, "csp", "solve", "--method", "brute",
                         str(path))
    assert (rc_b, out_b) == (rc, out)


def test_csp_solve_unsat_exit_code(capsys, monkeypatch):
    text = ("sorts 1\n2\n0 0\n0 1\n"
            "var x 0\n"
            "con x\nt 0\nend\n"
            "con x\nt 1\nend\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc, out, _ = run(capsys, "csp", "solve", "-")
    assert rc == 10
    assert out.strip() == "unsatisfiable"


def test_csp_solve_brute_bound_exit_code(capsys, tmp_path):
    # 3^15 assignments: past the brute-force bound, not past the default's
    rc, text, _ = run(capsys, "csp", "gen", "--seed", "1", "--template", "fig4a",
                      "--vars", "15")
    assert rc == 0
    path = tmp_path / "wide.csp"
    path.write_text(text)
    rc, out, err = run(capsys, "csp", "solve", "--method", "brute", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: BoundExceeded: search space exceeds 10000000\n"
    rc, out, _ = run(capsys, "csp", "solve", str(path))
    assert rc == 0
    assert len(out.splitlines()) == 15


def test_csp_solve_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.csp"
    path.write_text("sorts 1\nnot a table\n")
    rc, _, err = run(capsys, "csp", "solve", str(path))
    assert rc == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text, message, old",
    [
        ("sorts 2\n2\n0 0\n0 1\n", "'sorts 2' declares 2 sorts, found 1",
         "list index out of range"),
        ("sorts 2\n2\n0 0\n0 1\nvar x 0\n", "'sorts 2' declares 2 sorts, found 1",
         "invalid literal"),
        ("sorts 1\n2\n0 0\n0 1\nvar x\n", "var line needs a name and a sort id: 'var x'",
         "not enough values to unpack"),
        ("sorts 1\n2\n0 0\n0 1\nvar x 0\ncon x y\nt 0 0\nend\n",
         "undeclared variable 'y' in 'con x y'", "is not in list"),
        ("sorts x\n", "sort count is not an integer: 'sorts x'", "invalid literal"),
        ("sorts 1\ntwo\n", "table size is not an integer: 'two'", "invalid literal"),
        ("sorts 1\n-2\n0 0\n0 1\nvar x 0\n", "table size is negative: '-2'",
         "empty algebra file"),
        ("sorts 1\n2\n0 0\n0 1\nvar x y\n", "sort id is not an integer: 'var x y'",
         "invalid literal"),
        ("sorts 1\n2\n0 0\n0 1\nvar x 0\ncon x\nt 1.0\nend\n",
         "tuple entry is not an integer: 't 1.0'", "invalid literal"),
        ("sorts 1\n2\n0 x\n1 1\nvar v 0\n", "table entry is not an integer: '0 x'",
         "invalid literal"),
        ("sorts 1\n2\n0 0\n0 1\nvar x 0\ncon \nend\n",
         "constraints[0] has an empty scope", "empty sequence"),
        # a short inline table stops at the next block or sort line
        ("sorts 1\n3\n0 0\n0 1\nvar x 0\n", "expected 3 rows, found 2",
         "table entry is not an integer"),
        ("sorts 2\n3\n0 0\n0 1\n@file fig1.alg\nvar x 0\n", "expected 3 rows, found 2",
         "table entry is not an integer"),
        ("sorts 1\n2\n0 0\n0 1\n1 1\nvar x 0\n", "unrecognized line '1 1'", "expected"),
    ],
    ids=["missing-sort", "sort-then-var", "var-line", "con-scope", "sort-count",
         "table-size", "negative-table-size", "var-sort-id", "tuple-entry", "sort-entry", "empty-scope",
         "short-table-then-var", "short-table-then-file", "long-table"],
)
def test_csp_solve_rejects_malformed_line(capsys, monkeypatch, text, message, old):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc, out, err = run(capsys, "csp", "solve", "-")
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert old not in err


@pytest.mark.parametrize("flag", ["--vars", "--max-arity"])
def test_csp_gen_rejects_zero_size(capsys, flag):
    rc, out, err = run(capsys, "csp", "gen", "--seed", "1", "--template", "fig4a", flag, "0")
    assert (rc, out, err) == (2, "", f"error: {flag} must be at least 1, got 0\n")


def test_csp_gen_rejects_negative_constraints(capsys):
    args = ("csp", "gen", "--seed", "1", "--template", "fig4a", "--vars", "2")
    rc, out, err = run(capsys, *args, "--constraints", "-3")
    assert (rc, out, err) == (2, "", "error: --constraints must be at least 0, got -3\n")
    rc, out, err = run(capsys, *args, "--constraints", "0")
    assert (rc, err) == (0, "")
    assert parse_csp(out).constraints == ()


def test_csp_reduce_pipeline(capsys, tmp_path):
    ainf = tmp_path / "ainf.alg"
    ainf.write_text(format_alg(adjoin_infinity(load_fixture("fig4a"))))
    path, text = _write_instance(capsys, tmp_path, 3, str(ainf))

    rc, out, _ = run(capsys, "csp", "reduce", str(path))
    assert rc == 0
    assert out.splitlines()[0].startswith("# a[")
    reduced = parse_csp(out)
    assert len(reduced.sorts) >= 1

    # reduction preserves the verdict of the original instance
    original_sat = solve_brute(parse_csp(text)) is not None
    assert (solve_brute(reduced) is not None) == original_sat


def test_csp_reduce_rejects_bad_template(capsys, tmp_path):
    path, _ = _write_instance(capsys, tmp_path, 7, "fig4b")
    rc, _, err = run(capsys, "csp", "reduce", str(path))
    assert rc == 2
    assert "NotPseudopartition" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_suite_passes(capsys):
    rc, out, _ = run(capsys, "verify", "s2-terms")
    assert rc == 0
    assert out.splitlines()[-1] == "suite s2-terms: PASS (5/5)"
    assert all(line.startswith("ok") for line in out.splitlines()[:-1])


def test_verify_tsv(capsys):
    rc, out, _ = run(capsys, "--format", "tsv", "verify", "s2-terms")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("s2-wnu3\tpass\t")


def test_verify_unknown_suite(capsys):
    rc, out, err = run(capsys, "verify", "galaxy")
    assert (rc, out) == (2, "")
    assert "galaxy" in err and "figures" in err
    choices = ", ".join(SUITE_NAMES)
    assert err == f"error: unknown suite 'galaxy'; choose from {choices}\n"


def test_verify_help_lists_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    # help lines may wrap, even at a hyphen, so compare without whitespace
    text = "".join(capsys.readouterr().out.split())
    assert ",".join(SUITE_NAMES) in text


# ---------------------------------------------------------------------------
# transcript

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRANSCRIPT = {e["name"]: e for e in json.loads((BENCH / "transcript.json").read_text())}


def _transcript_commands():
    """bench/wl_verify.py's COMMANDS past the verify suites: (name, argv,
    name of the command whose recorded stdout is fed on stdin)."""
    tree = ast.parse((BENCH / "wl_verify.py").read_text())
    value = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "COMMANDS"
    )
    return ast.literal_eval(value.right)


@pytest.mark.parametrize(
    "name, argv, stdin_from", [pytest.param(*cmd, id=cmd[0]) for cmd in _transcript_commands()]
)
def test_transcript_command(capsys, monkeypatch, name, argv, stdin_from):
    # each command's stdout and exit code, byte for byte as recorded
    ref = TRANSCRIPT[name]
    assert ref["argv"] == argv
    stdin = TRANSCRIPT[stdin_from]["stdout"] if stdin_from else ""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    rc, out, _ = run(capsys, *argv)
    assert (out, rc) == (ref["stdout"], ref["exit"])


def test_transcript_commands_cover_the_transcript():
    replayed = [name for name, _, _ in _transcript_commands()]
    verify = [name for name in TRANSCRIPT if name.startswith("verify ")]
    assert len(replayed) == 16
    assert sorted(replayed + verify) == sorted(TRANSCRIPT)


def test_bench_spans_resolve():
    # bench/spans.py installs its wrappers with getattr, so a renamed or
    # deleted function would break traced benchmark runs and nothing else.
    tree = ast.parse((BENCH / "spans.py").read_text())
    value = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPANS"
    )
    rows = [(row.elts[0].value, row.elts[1].value) for row in value.elts]
    assert rows
    for module, attr in rows:
        obj = importlib.import_module(f"cigroupoids.{module}")
        for name in attr.split("."):
            assert hasattr(obj, name), (module, attr)
            obj = getattr(obj, name)
        assert callable(obj), (module, attr)
    # each in-process benchmark pass clears the model cache through these
    all_models = importlib.import_module("cigroupoids.search").all_models
    assert hasattr(all_models, "cache_info")
    assert hasattr(all_models, "cache_clear")


# ---------------------------------------------------------------------------
# wiring


def test_parser_subcommands_complete():
    parser = build_parser()
    text = parser.format_help()
    for word in ("alg", "plonka", "cie", "csp", "verify"):
        assert word in text


SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(code: str, *flags: str) -> str:
    """Run code in a new interpreter that imports the package from src/."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("command", ["csp solve", "csp reduce", "plonka sum"])
def test_files_are_read_as_utf8_under_an_ascii_locale(tmp_path, command):
    if command == "plonka sum":
        text = format_system(decompose(adjoin_infinity(load_fixture("fig4a"))))
    else:
        text = "sorts 1\n3\n0 2 1\n2 1 0\n1 0 2\nvar v 0\ncon v\nt 1\nend\n"
    path = tmp_path / "input.txt"
    path.write_text("# x ≈ y\n" + text, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "cigroupoids.cli", *command.split(), str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def _modules_after(command: str | None) -> set[str]:
    """The package modules a fresh process holds after importing cli and,
    unless command is None, running main on its shell words with output discarded."""
    code = "import contextlib, io, sys\nimport cigroupoids.cli as cli\n"
    if command is not None:
        code += "with contextlib.redirect_stdout(io.StringIO()):\n"
        code += f"    cli.main({shlex.split(command)!r})\n"
    code += "print(*(m for m in sys.modules if m.split('.')[0] == 'cigroupoids'))"
    return set(_fresh_python(code).split())


FOOTPRINTS = [
    (None, ()),
    ("alg check squag fig4a", ()),
    ('alg check "(x y) = (y x)" fig4a', ()),
    ("alg check F25 fig4a", ("bolmoufang",)),
    ("alg classify fig4a", ("bolmoufang",)),
    ("alg enumerate -n 3", ("search",)),
    ("alg congruences fig3b", ("congruences",)),
    ("plonka check fig3b", ("plonka",)),
    ("cie 7", ("plonka",)),
    ("csp gen --seed 3 --template fig4b", ("csp",)),
    ("verify s2-terms", ("bolmoufang", "search", "suites")),
    ("verify reduction", ("congruences", "plonka", "csp", "suites")),
]


@pytest.mark.parametrize(
    "command, layers", [pytest.param(*f, id=f[0] or "import") for f in FOOTPRINTS]
)
def test_import_footprint(command, layers):
    # a cold process compiles and runs every module it imports, so each
    # command loads only the layers it runs; the parser loads none
    expected = {"cigroupoids", "cigroupoids.core", "cigroupoids.cli"}
    expected |= {f"cigroupoids.{m}" for m in layers}
    assert _modules_after(command) == expected


def _cold_modules(code: str) -> set[str]:
    """Every module a new interpreter holds after running code. Without
    site (-S) the interpreter starts with the bare minimum, which pytest
    itself and a site hook may not: both can load `typing`."""
    out = _fresh_python(code + "\nimport sys\nprint(*sys.modules)", "-S")
    return set(out.splitlines()[-1].split())


RECORD_MACHINERY = {"dataclasses", "typing", "inspect"}


def test_cold_import_loads_no_record_machinery():
    # FOOTPRINTS' first row shows that the import loads no layer
    assert not _cold_modules("import cigroupoids.cli") & RECORD_MACHINERY
    # csp's records are `core._Record`s too
    assert not _cold_modules("import cigroupoids.csp") & RECORD_MACHINERY
    # σ is the one part of the Płonka layer that builds a congruence
    assert "cigroupoids.congruences" not in _cold_modules("import cigroupoids.plonka")


def test_csp_gen_and_solve_do_not_load_plonka(tmp_path):
    path = tmp_path / "instance.csp"
    code = (
        "import contextlib\nimport cigroupoids.cli as cli\n"
        f"with open({str(path)!r}, 'w') as fh, contextlib.redirect_stdout(fh):\n"
        "    assert cli.main(['csp', 'gen', '--seed', '3', '--template', 'fig4b']) == 0\n"
        f"assert cli.main(['csp', 'solve', {str(path)!r}]) == 0\n"
    )
    loaded = _cold_modules(code)
    assert "cigroupoids.csp" in loaded
    assert "cigroupoids.plonka" not in loaded
    assert not loaded & RECORD_MACHINERY


@pytest.mark.parametrize(
    "module",
    ["core", "bolmoufang", "search", "congruences", "plonka", "csp", "suites", "cli"],
)
def test_layer_imports_on_its_own(module):
    # an import cycle hidden by the usual import order shows up when a
    # layer is the first one a process imports
    _fresh_python(f"import cigroupoids.{module}")


def test_reduction_templates_from_a_fresh_suites_import():
    # the structure and csp benchmarks build their templates this way
    out = _fresh_python(
        "import cigroupoids.suites as suites\nprint(*suites.reduction_templates())"
    )
    assert out.split() == ["ainf-squag", "cyclic-3", "cyclic-3-inf", "t1-sum-6"]


def test_entry_raises_system_exit(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["cigroupoids", "alg", "check",
                                      "idempotent", "fig4a"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
