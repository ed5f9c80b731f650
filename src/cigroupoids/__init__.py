"""Workbench for finite commutative idempotent groupoids.

Subpackages cover Cayley-table algebra and term evaluation (core), the sixty
Bol-Moufang identities and their variety classes (bolmoufang), exhaustive
model enumeration (search), congruence lattices (congruences), semilattice
decompositions of groupoids (plonka), a small CSP engine (csp), and the
verification suites plus command line front end (suites, cli).
"""

from cigroupoids.core import (
    CayleyTable,
    Identity,
    Prod,
    Term,
    Var,
    check_identity,
    check_identity_witness,
    check_property,
    eval_term,
    format_alg,
    load_alg,
    load_fixture,
    parse_alg,
    parse_identity,
    parse_term,
    power_term,
    term_condition,
)

__all__ = [
    "CayleyTable",
    "Identity",
    "Prod",
    "Term",
    "Var",
    "check_identity",
    "check_identity_witness",
    "check_property",
    "eval_term",
    "format_alg",
    "load_alg",
    "load_fixture",
    "parse_alg",
    "parse_identity",
    "parse_term",
    "power_term",
    "term_condition",
]
