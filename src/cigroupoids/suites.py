"""Named verification suites over the bundled example tables.

Each suite replays one cluster of claims: the figure witnesses, the 60-identity
classification, variety intersections, the weak-near-unanimity terms, the
fiber structure of the x(y(yz))≈((xy)y)z variety, derived-identity checks,
reduction equivalence on seeded instances, and the distributive-groupoid
exponent. A report carries one row per check with a human-readable witness.

Table 1's within-class rows come from one pass of classify_bm profiles over
the commutative idempotent models with n <= 4: identity a is separated from
b at size n exactly when some n-element model has a's bit set and b's bit
clear (separated_at). Only the between-class rows search for a model.

Every row that claims a property of all of a list (models, fibers, pairs
of identities) is built by _holds_on_all, which reports the first item that
fails; only the rows that tally counts build their results by hand.

At module level this imports `core` alone. Each suite, and
reduction_templates, imports the layers it runs when it is called, so a
process that runs one suite loads only those: `s2-terms` never loads `csp`,
`plonka` or `congruences`, and `reduction` never loads `search` or
`bolmoufang`.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable

from cigroupoids.core import (
    ASSOCIATIVE_LAW,
    COMMUTATIVE_LAW,
    IDEMPOTENT_LAW,
    STANDARD_JOIN,
    TWO_SEMILATTICE_LAW,
    CayleyTable,
    Identity,
    Prod,
    Term,
    Var,
    _fold,
    _Record,
    check_identity,
    check_identity_witness,
    check_property,
    eval_term,
    is_latin_square,
    load_fixture,
    parse_identity,
    parse_term,
    power_term,
    substitute,
    term_condition,
)


class UnknownSuite(ValueError):
    """run_suite was asked for a name outside SUITE_NAMES."""


class CheckResult(_Record):
    __slots__ = _fields = ("check", "passed", "witness")  # str, bool, str


class SuiteReport(_Record):
    __slots__ = _fields = ("name", "checks")  # str, tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


def _ground(t: Term, env: dict[str, int]) -> str:
    """Product rendering with literal arguments: digits joined by a middle
    dot, compound factors parenthesized, as in 0(0(1·2))."""

    def node(left: tuple[str, bool], right: tuple[str, bool]) -> tuple[str, bool]:
        # each operand is (its text, whether it is a product)
        (a, a_prod), (b, b_prod) = left, right
        if not (a_prod or b_prod):
            return f"{a}·{b}", True
        return (f"({a})" if a_prod else a) + (f"({b})" if b_prod else b), True

    return _fold(t.signature, lambda name: (str(env[name]), False), node)[0]


def _inequality_check(
    check: str, g: CayleyTable, ident: Identity, env: dict[str, int]
) -> CheckResult:
    lhs, rhs = ident.lhs, ident.rhs
    lv, rv = eval_term(lhs, env, g), eval_term(rhs, env, g)
    text = f"{_ground(lhs, env)}≠{_ground(rhs, env)} ({lv} vs {rv})"
    return CheckResult(check, lv != rv, text)


def _holds_on_all(
    check: str, items: Iterable, fails: Callable, ok_text: str, fail_text: Callable
) -> CheckResult:
    """One "holds on all of these" row.

    fails(item) is None where the property holds and a witness where it
    does not. The first failing item is reported, as fail_text(item, witness).
    """
    for item in items:
        w = fails(item)
        if w is not None:
            return CheckResult(check, False, fail_text(item, w))
    return CheckResult(check, True, ok_text)


def _fails_at(g: CayleyTable, w: object) -> str:
    return f"fails on an n={g.n} model at {w}"


def _identity_on_models(
    check: str, models: list[CayleyTable], ident: Identity
) -> CheckResult:
    return _holds_on_all(
        check,
        models,
        lambda g: check_identity_witness(g, ident),
        f"holds on all {len(models)} models",
        _fails_at,
    )


def _models_of_class(cls: str, max_n: int) -> list[CayleyTable]:
    from cigroupoids.search import all_models, variety_identities

    out: list[CayleyTable] = []
    for n in range(1, max_n + 1):
        out.extend(all_models(n, variety_identities(cls)))
    return out


# ---------------------------------------------------------------------------
# figures


def _suite_figures() -> list[CheckResult]:
    from cigroupoids.bolmoufang import decode
    from cigroupoids.search import variety_identities

    two_sl = TWO_SEMILATTICE_LAW
    x, y = Var("x"), Var("y")
    two_sl_expanded = Identity(Prod(x, Prod(x, y)), Prod(Prod(x, x), y))
    a14, a24 = decode("A14"), decode("A24")
    b12, b13, c15 = decode("B12"), decode("B13"), decode("C15")
    ci = (COMMUTATIVE_LAW, IDEMPOTENT_LAW)
    xy, xyz = {"x": 0, "y": 1}, {"x": 0, "y": 1, "z": 2}

    # (check, fixture, identities that all hold) or
    # (check, fixture, identity, an assignment where it fails).
    # fig1 is not commutative, so its row alone leaves out the CI laws.
    rows = (
        ("fig1-satisfies-A15-A23", "fig1", (decode("A15"), decode("A23"))),
        ("fig1-fails-two-semilattice", "fig1", two_sl, xy),
        ("fig2a-commutative-idempotent", "fig2a", ci),
        ("fig2a-fails-two-semilattice", "fig2a", two_sl, xy),
        ("fig2a-fails-C15", "fig2a", c15, {"x": 0, "y": 1, "z": 1}),
        ("fig2a-fails-B12", "fig2a", b12, {"x": 0, "y": 0, "z": 1}),
        ("fig2b-two-semilattice", "fig2b", ci + (two_sl,)),
        ("fig2b-fails-A24", "fig2b", a24, xyz),
        ("fig3a-in-X", "fig3a", ci + variety_identities("X")),
        ("fig3a-fails-C15", "fig3a", c15, xyz),
        ("fig3a-fails-B12", "fig3a", b12, xyz),
        ("fig3a-not-associative", "fig3a", ASSOCIATIVE_LAW, xyz),
        ("fig3b-in-T2", "fig3b", ci + (c15,)),
        ("fig3b-fails-A14", "fig3b", a14, xyz),
        ("fig4a-in-T1", "fig4a", ci + variety_identities("T1")),
        ("fig4a-fails-two-semilattice", "fig4a", two_sl_expanded, xy),
        ("fig4a-fails-B12", "fig4a", b12, {"x": 0, "y": 0, "z": 1}),
        ("fig4b-in-S2", "fig4b", ci + variety_identities("S2")),
        ("fig4b-fails-B13", "fig4b", b13, {"x": 0, "y": 1, "z": 1}),
        ("fig4c-in-S1", "fig4c", ci + variety_identities("S1")),
        ("fig4c-fails-two-semilattice", "fig4c", two_sl, xy),
        ("fig4c-fails-C15", "fig4c", c15, {"x": 0, "y": 0, "z": 1}),
    )

    fig1 = load_fixture("fig1")
    checks = [
        CheckResult("fig1-idempotent", check_property(fig1, "idempotent"), "x·x=x")
    ]
    for check, name, *spec in rows:
        g = load_fixture(name)
        if len(spec) == 2:
            checks.append(_inequality_check(check, g, *spec))
            continue
        checks.append(
            _holds_on_all(
                check,
                spec[0],
                lambda ident: check_identity_witness(g, ident),
                "all defining identities hold",
                lambda ident, w: f"fails {ident} at {w}",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# table1


def separated_at(
    a: str, b: str, profiles: list[tuple[int, tuple[bool, ...]]]
) -> int | None:
    """Smallest n of a profiled model that satisfies a and fails b, or None.

    When profiles holds (n, classify_bm(g)) for every CI model g with
    n <= m, in increasing n, this is the size of
    find_separating_model((a,), (b,), m), read off the bits.
    """
    from cigroupoids.bolmoufang import BM_INDEX

    i, j = BM_INDEX[a], BM_INDEX[b]
    return next((n for n, bits in profiles if bits[i] and not bits[j]), None)


def _suite_table1() -> list[CheckResult]:
    from cigroupoids.bolmoufang import (
        CLASS_NAMES,
        TABLE1_CLASSES,
        classify_bm,
        decode,
        is_subvariety,
    )
    from cigroupoids.search import all_models, find_separating_model, variety_identities

    checks: list[CheckResult] = []

    all_names = [n for cls in CLASS_NAMES for n in TABLE1_CLASSES[cls]]
    sizes = tuple(len(TABLE1_CLASSES[cls]) for cls in CLASS_NAMES)
    checks.append(
        CheckResult(
            "classes-partition-60",
            len(all_names) == 60 and len(set(all_names)) == 60
            and sizes == (3, 6, 8, 31, 1, 2, 3, 6),
            f"sizes {dict(zip(CLASS_NAMES, sizes))}",
        )
    )

    profiles = [(n, classify_bm(g)) for n in range(1, 5) for g in all_models(n, ())]
    for cls in CLASS_NAMES:
        pairs = list(itertools.permutations(sorted(TABLE1_CLASSES[cls]), 2))
        checks.append(
            _holds_on_all(
                f"equivalent-within-{cls}",
                pairs,
                lambda ab: separated_at(*ab, profiles),
                f"{len(pairs)} ordered pairs inseparable up to n=4",
                lambda ab, n: f"{ab[0]} vs {ab[1]} separated at n={n}",
            )
        )

    for p in CLASS_NAMES:
        for q in CLASS_NAMES:
            if p == q or is_subvariety(p, q):
                continue
            sat = variety_identities(p)
            unsat = variety_identities(q)
            model = find_separating_model(sat, unsat, 6)
            check = f"separate-{p}-from-{q}"
            if model is None:
                checks.append(CheckResult(check, False, "no model up to n=6"))
                continue
            ok = all(check_identity(model, i) for i in sat) and all(
                not check_identity(model, i) for i in unsat
            )
            name0 = TABLE1_CLASSES[q][0]
            w = check_identity_witness(model, decode(name0))
            checks.append(
                CheckResult(
                    check,
                    ok,
                    f"n={model.n} model fails {name0} at {w}",
                )
            )
    return checks


# ---------------------------------------------------------------------------
# intersections


def _suite_intersections() -> list[CheckResult]:
    from cigroupoids.search import all_models, variety_identities

    checks = []
    for p, q in (("2SL", "T2"), ("2SL", "S2"), ("T2", "S2")):
        require = variety_identities(p) + variety_identities(q)
        by_size = [all_models(n, require) for n in range(1, 6)]
        checks.append(
            _holds_on_all(
                f"intersection-{p}-{q}-semilattices",
                itertools.chain.from_iterable(by_size),
                lambda g: None if check_property(g, "semilattice") else g.n,
                f"counts by size {[len(ms) for ms in by_size]}, all semilattices",
                lambda g, n: f"non-semilattice model of size {n}",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# s2-terms


V_TERM = parse_term("((x y) (z (x y)))")
W_TERM = parse_term("((x y) (z u))")
_x, _y = Var("x"), Var("y")
# v(y,x,x) ≈ w(y,x,x,x)
TERM_AGREEMENT = Identity(
    substitute(V_TERM, {"x": _y, "y": _x, "z": _x}),
    substitute(W_TERM, {"x": _y, "y": _x, "z": _x, "u": _x}),
)
ABSORPTION = parse_identity("(x (x y)) ≈ ((x y) (x (x y)))")


def _suite_s2_terms() -> list[CheckResult]:
    models = _models_of_class("S2", 4)
    checks = [
        _holds_on_all(
            check,
            models,
            lambda g: None if term_condition(g, t, "wnu", k) else g.n,
            f"{text} is WNU({k}) on all {len(models)} models",
            lambda g, n: f"fails on an n={n} model",
        )
        for check, t, k, text in (
            ("s2-wnu3", V_TERM, 3, "(xy)(z(xy))"),
            ("s2-wnu4", W_TERM, 4, "(xy)(zu)"),
        )
    ]
    checks.append(
        _holds_on_all(
            "s2-term-agreement",
            models,
            lambda g: check_identity_witness(g, TERM_AGREEMENT),
            "v(y,x,x)=w(y,x,x,x) everywhere",
            _fails_at,
        )
    )
    checks.append(
        _identity_on_models("s2-absorption-law", models, ABSORPTION)
    )

    squag = load_fixture("fig4a")
    checks.append(
        _inequality_check(
            "squag-absorption-fails", squag, ABSORPTION, {"x": 0, "y": 1}
        )
    )
    return checks


# ---------------------------------------------------------------------------
# t2-structure


def _suite_t2_structure() -> list[CheckResult]:
    from cigroupoids.plonka import check_pseudopartition, decompose, plonka_sum

    models = _models_of_class("T2", 6)
    fibers = [(g, f) for g in models for f in decompose(g).fibers]
    t1_models = _models_of_class("T1", 6)
    status = check_pseudopartition(load_fixture("fig3b"))
    return [
        _holds_on_all(
            "t2-join-pseudopartition",
            models,
            lambda g: None if check_pseudopartition(g).pseudopartition else g.n,
            f"y(xy) passes P1-P4 on all {len(models)} models",
            lambda g, n: f"P1-P4 fail on an n={n} model",
        ),
        _holds_on_all(
            "t2-fibers-are-squags",
            fibers,
            lambda gf: None if check_property(gf[1], "squag") else gf[1].n,
            f"{len(fibers)} fibers, every one a squag",
            lambda gf, m: f"non-squag fiber of size {m} in an n={gf[0].n} model",
        ),
        CheckResult(
            "fig3b-fails-P5",
            status.pseudopartition and not status.holds("P5"),
            f"P1-P4 hold, P5 fails at {status.witnesses.get('P5')}",
        ),
        _holds_on_all(
            "t1-join-partition",
            t1_models,
            lambda g: None if check_pseudopartition(g).all_five else g.n,
            f"P1-P5 hold on all {len(t1_models)} models",
            lambda g, n: f"fails on an n={n} model",
        ),
        _holds_on_all(
            "t1-sum-roundtrip",
            t1_models,
            lambda g: None if plonka_sum(decompose(g)) == g else g.n,
            f"sum of decomposition reproduces all {len(t1_models)} models",
            lambda g, n: f"mismatch on an n={n} model",
        ),
    ]


# ---------------------------------------------------------------------------
# appendix


T2_DERIVED_LAWS = tuple(
    parse_identity(s)
    for s in (
        "(x (y (y x))) ≈ (y (y x))",
        "(x (y (x (x (y (x (x z))))))) ≈ (x (y (y z)))",
        "(x (y (y z))) ≈ (x (y (y (x (x z)))))",
        "((x y) (x (x z))) ≈ ((x y) z)",
        "(x (y (y (z (z u))))) ≈ (x ((y z) (u (y z))))",
        "(x (y (z (z (y (z (z u))))))) ≈ (x (y (y (z (z u)))))",
        "(x (y (x (z (z y))))) ≈ (z (z (y (y x))))",
        "(x (y (y (z (y (y x)))))) ≈ (x (z (y (y x))))",
        "((x (y (y z))) (y (y u))) ≈ ((x (y (y z))) u)",
        "(x (y (y (z (z x))))) ≈ (y (y (z (z x))))",
        "((x y) (z (x y))) ≈ (y (y (x (x z))))",
        "(x (x (y (y z)))) ≈ (y (y (x (x z))))",
    )
)
T2_COLLAPSE_LAW = parse_identity(
    "(x (x (y (y z)))) ≈ ((y (x y)) (z (y (x y))))"
)
D23_ROTATION_1 = parse_identity("(((x y) x) x) ≈ (x ((y x) x))")
D23_ROTATION_2 = parse_identity("(x ((y x) x)) ≈ (x (y x))")


def _pseudopartition_term_identities() -> tuple[tuple[str, Identity], ...]:
    x, y, z = Var("x"), Var("y"), Var("z")

    def j(a: Term, b: Term) -> Term:
        # a∨b by the package's one join, core.STANDARD_JOIN
        return substitute(STANDARD_JOIN, {"x": a, "y": b})

    return (
        ("P1", Identity(j(x, x), x)),
        ("P2", Identity(j(j(x, y), z), j(x, j(y, z)))),
        ("P3", Identity(j(x, j(y, z)), j(x, j(z, y)))),
        ("P4", Identity(j(y, Prod(x, z)), j(j(y, x), z))),
    )


def _suite_appendix() -> list[CheckResult]:
    from cigroupoids.bolmoufang import decode
    from cigroupoids.search import SearchSpec, enumerate_models

    checks = []
    t2 = _models_of_class("T2", 6)
    for i, ident in enumerate(T2_DERIVED_LAWS, start=1):
        checks.append(_identity_on_models(f"t2-derived-law-{i:02d}", t2, ident))
    checks.append(_identity_on_models("t2-collapse-law", t2, T2_COLLAPSE_LAW))
    for tag, ident in _pseudopartition_term_identities():
        checks.append(
            _identity_on_models(f"t2-join-term-{tag}", t2, ident)
        )

    d23 = decode("D23")
    d23_models: list[CayleyTable] = []
    for n in range(1, 5):
        d23_models.extend(enumerate_models(SearchSpec(n, (d23,), commutative=False)))
    checks.append(
        _identity_on_models("d23-rotation-law-1", d23_models, D23_ROTATION_1)
    )
    checks.append(
        _identity_on_models("d23-rotation-law-2", d23_models, D23_ROTATION_2)
    )
    checks.append(
        _identity_on_models(
            "d23-implies-two-semilattice", d23_models, TWO_SEMILATTICE_LAW
        )
    )
    return checks


# ---------------------------------------------------------------------------
# reduction


def reduction_templates() -> dict[str, CayleyTable]:
    from cigroupoids.plonka import adjoin_infinity, cie_cyclic, make_system, plonka_sum

    squag = load_fixture("fig4a")
    replica = CayleyTable([[0, 1], [1, 1]])
    sum6 = plonka_sum(
        make_system(replica, (squag, squag), {(0, 1): (0, 1, 2)})
    )
    return {
        "ainf-squag": adjoin_infinity(squag),
        "cyclic-3": cie_cyclic(3),
        "cyclic-3-inf": adjoin_infinity(cie_cyclic(3)),
        "t1-sum-6": sum6,
    }


def _suite_reduction() -> list[CheckResult]:
    import random

    from cigroupoids.csp import fold_join, gen_instance, reduce_instance, solve_brute
    from cigroupoids.plonka import join_matrix, sigma

    checks = []
    templates = reduction_templates()
    for name, template in templates.items():
        agree = 0
        sat = 0
        transform_ok = True
        mismatch = None
        for seed in range(100):
            inst = gen_instance(seed, template, num_vars=5, num_constraints=4)
            red = reduce_instance(inst)
            orig = solve_brute(inst)
            reduced = solve_brute(red.reduced)
            if (orig is None) == (reduced is None):
                agree += 1
            elif mismatch is None:
                mismatch = seed
            if orig is not None:
                sat += 1
                image = red.transform(orig)
                for scope, rel in red.reduced.constraints:
                    if tuple(image[v] for v in scope) not in rel.tuples:
                        transform_ok = False
        checks.append(
            CheckResult(
                f"reduction-equisat-{name}",
                agree == 100,
                f"{agree}/100 verdicts agree ({sat} satisfiable)"
                if mismatch is None
                else f"verdict mismatch at seed {mismatch}",
            )
        )
        checks.append(
            CheckResult(
                f"reduction-transform-{name}",
                transform_ok,
                f"f(v)∨a_v solves the reduced instance for all {sat} solutions"
                if transform_ok
                else "transformed solution violates a reduced constraint",
            )
        )

    rng = random.Random(0)
    folds = [
        (g.n, join_matrix(g, STANDARD_JOIN), sigma(g)) for g in templates.values()
    ]
    ok = 0
    for round_ in range(100):
        n, jm, part = folds[round_ % len(folds)]
        values = rng.sample(range(n), rng.randint(1, n))
        shuffled = values[:]
        rng.shuffle(shuffled)
        if part.related(fold_join(jm, values), fold_join(jm, shuffled)):
            ok += 1
    checks.append(
        CheckResult(
            "fold-order-sigma-invariance",
            ok == 100,
            f"{ok}/100 permuted folds stayed in the ascending fold's class",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# cid


def _suite_cid() -> list[CheckResult]:
    from cigroupoids.plonka import cid_exponent, cie_cyclic, decompose

    checks = []
    squag = load_fixture("fig4a")
    same = cie_cyclic(3) == squag
    checks.append(
        CheckResult(
            "cyclic-3-is-squag-fixture",
            same,
            "tables identical" if same else "tables differ",
        )
    )

    models = _models_of_class("CID", 5)
    exponents = [cid_exponent(g) for g in models]
    checks.append(
        _holds_on_all(
            "cid-exponent-latin-fibers",
            zip(models, exponents),
            lambda ge: None
            if all(is_latin_square(f) for f in decompose(ge[0], power_term(ge[1])).fibers)
            else ge[0].n,
            f"{len(models)} models up to size 5, max exponent {max(exponents)}, all fibers Latin",
            lambda ge, n: f"non-Latin fiber on an n={n} model",
        )
    )
    checks.append(
        _holds_on_all(
            "cyclic-odd-entropic-distributive",
            [cie_cyclic(n) for n in (1, 3, 5, 7)],
            lambda g: None
            if check_property(g, "entropic") and check_property(g, "distributive")
            else g.n,
            "n in {1,3,5,7} all entropic and distributive",
            lambda g, n: f"fails at n={n}",
        )
    )
    return checks


# ---------------------------------------------------------------------------


_SUITES = {
    "figures": _suite_figures,
    "table1": _suite_table1,
    "intersections": _suite_intersections,
    "s2-terms": _suite_s2_terms,
    "t2-structure": _suite_t2_structure,
    "appendix": _suite_appendix,
    "reduction": _suite_reduction,
    "cid": _suite_cid,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> SuiteReport:
    """Execute one named suite and report per-check outcomes."""
    if name not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    return SuiteReport(name, tuple(_SUITES[name]()))
