"""Named verification suites over the bundled example tables.

Each suite replays one cluster of claims: the figure witnesses, the 60-identity
classification, variety intersections, the weak-near-unanimity terms, the
fiber structure of the x(y(yz))≈((xy)y)z variety, derived-identity checks,
reduction equivalence on seeded instances, and the distributive-groupoid
exponent. A report carries one row per check with a human-readable witness.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from cigroupoids.bolmoufang import (
    CLASS_NAMES,
    TABLE1_CLASSES,
    bm,
    decode,
    is_subvariety,
)
from cigroupoids.core import (
    ASSOCIATIVE_LAW,
    TWO_SEMILATTICE_LAW,
    CayleyTable,
    Identity,
    Prod,
    Term,
    Var,
    check_identity,
    check_identity_witness,
    check_property,
    eval_term,
    is_latin_square,
    load_fixture,
    parse_identity,
    parse_term,
    power_term,
    term_condition,
)
from cigroupoids.csp import fold_join, gen_instance, reduce_instance, solve_brute
from cigroupoids.plonka import (
    STANDARD_JOIN,
    adjoin_infinity,
    check_pseudopartition,
    cid_exponent,
    cie_cyclic,
    decompose,
    join_matrix,
    make_system,
    plonka_sum,
    sigma,
)
from cigroupoids.search import (
    all_models,
    canonical_form,
    find_separating_model,
    variety_identities,
)


class UnknownSuite(Exception):
    """run_suite was asked for a name outside SUITE_NAMES."""


@dataclass(frozen=True)
class CheckResult:
    check: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


SUITE_NAMES = (
    "figures",
    "table1",
    "intersections",
    "s2-terms",
    "t2-structure",
    "appendix",
    "reduction",
    "cid",
)


def _ground(t: Term, env: dict[str, int]) -> str:
    """Product rendering with literal arguments: digits joined by a middle
    dot, compound factors parenthesized, as in 0(0(1·2))."""
    if isinstance(t, Var):
        return str(env[t.name])
    left, right = _ground(t.left, env), _ground(t.right, env)
    if isinstance(t.left, Var) and isinstance(t.right, Var):
        return f"{left}·{right}"
    if isinstance(t.left, Prod):
        left = f"({left})"
    if isinstance(t.right, Prod):
        right = f"({right})"
    return f"{left}{right}"


def _inequality_check(
    check: str, g: CayleyTable, lhs: Term, rhs: Term, env: dict[str, int]
) -> CheckResult:
    lv, rv = eval_term(lhs, env, g), eval_term(rhs, env, g)
    text = f"{_ground(lhs, env)}≠{_ground(rhs, env)} ({lv} vs {rv})"
    return CheckResult(check, lv != rv, text)


def _identity_on_models(
    check: str, models: list[CayleyTable], ident: Identity
) -> CheckResult:
    for g in models:
        w = check_identity_witness(g, ident)
        if w is not None:
            return CheckResult(
                check, False, f"fails on an n={g.n} model at {w}"
            )
    return CheckResult(check, True, f"holds on all {len(models)} models")


def _models_of_class(cls: str, max_n: int) -> list[CayleyTable]:
    out: list[CayleyTable] = []
    for n in range(1, max_n + 1):
        out.extend(all_models(n, variety_identities(cls)))
    return out


# ---------------------------------------------------------------------------
# figures


def _suite_figures() -> list[CheckResult]:
    two_sl = TWO_SEMILATTICE_LAW
    x, y = Var("x"), Var("y")
    two_sl_expanded = Identity(Prod(x, Prod(x, y)), Prod(Prod(x, x), y))
    a14, a24 = decode(bm("A14")), decode(bm("A24"))
    b12, b13, c15 = decode(bm("B12")), decode(bm("B13")), decode(bm("C15"))

    checks: list[CheckResult] = []

    def membership(check: str, g: CayleyTable, idents, require_ci=True) -> None:
        if require_ci and not (
            check_property(g, "commutative") and check_property(g, "idempotent")
        ):
            checks.append(CheckResult(check, False, "not commutative idempotent"))
            return
        for ident in idents:
            w = check_identity_witness(g, ident)
            if w is not None:
                checks.append(CheckResult(check, False, f"fails {ident} at {w}"))
                return
        checks.append(CheckResult(check, True, "all defining identities hold"))

    def fails(check: str, g: CayleyTable, ident: Identity, env) -> None:
        checks.append(_inequality_check(check, g, ident.lhs, ident.rhs, env))

    fig1 = load_fixture("fig1")
    checks.append(
        CheckResult("fig1-idempotent", check_property(fig1, "idempotent"), "x·x=x")
    )
    membership(
        "fig1-satisfies-A15-A23",
        fig1,
        (decode(bm("A15")), decode(bm("A23"))),
        require_ci=False,
    )
    fails("fig1-fails-two-semilattice", fig1, two_sl, {"x": 0, "y": 1})

    fig2a = load_fixture("fig2a")
    membership("fig2a-commutative-idempotent", fig2a, ())
    fails("fig2a-fails-two-semilattice", fig2a, two_sl, {"x": 0, "y": 1})
    fails("fig2a-fails-C15", fig2a, c15, {"x": 0, "y": 1, "z": 1})
    fails("fig2a-fails-B12", fig2a, b12, {"x": 0, "y": 0, "z": 1})

    fig2b = load_fixture("fig2b")
    membership("fig2b-two-semilattice", fig2b, (two_sl,))
    fails("fig2b-fails-A24", fig2b, a24, {"x": 0, "y": 1, "z": 2})

    fig3a = load_fixture("fig3a")
    membership("fig3a-in-X", fig3a, variety_identities("X"))
    fails("fig3a-fails-C15", fig3a, c15, {"x": 0, "y": 1, "z": 2})
    fails("fig3a-fails-B12", fig3a, b12, {"x": 0, "y": 1, "z": 2})
    fails("fig3a-not-associative", fig3a, ASSOCIATIVE_LAW, {"x": 0, "y": 1, "z": 2})

    fig3b = load_fixture("fig3b")
    membership("fig3b-in-T2", fig3b, (c15,))
    fails("fig3b-fails-A14", fig3b, a14, {"x": 0, "y": 1, "z": 2})

    fig4a = load_fixture("fig4a")
    membership("fig4a-in-T1", fig4a, variety_identities("T1"))
    fails("fig4a-fails-two-semilattice", fig4a, two_sl_expanded, {"x": 0, "y": 1})
    fails("fig4a-fails-B12", fig4a, b12, {"x": 0, "y": 0, "z": 1})

    fig4b = load_fixture("fig4b")
    membership("fig4b-in-S2", fig4b, variety_identities("S2"))
    fails("fig4b-fails-B13", fig4b, b13, {"x": 0, "y": 1, "z": 1})

    fig4c = load_fixture("fig4c")
    membership("fig4c-in-S1", fig4c, variety_identities("S1"))
    fails("fig4c-fails-two-semilattice", fig4c, two_sl, {"x": 0, "y": 1})
    fails("fig4c-fails-C15", fig4c, c15, {"x": 0, "y": 0, "z": 1})

    return checks


# ---------------------------------------------------------------------------
# table1


def _suite_table1() -> list[CheckResult]:
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

    for cls in CLASS_NAMES:
        idents = {name: decode(bm(name)) for name in TABLE1_CLASSES[cls]}
        bad = None
        pairs = 0
        for a, b in itertools.permutations(sorted(idents), 2):
            pairs += 1
            model = find_separating_model((idents[a],), (idents[b],), 4)
            if model is not None:
                bad = (a, b, model.n)
                break
        checks.append(
            CheckResult(
                f"equivalent-within-{cls}",
                bad is None,
                f"{pairs} ordered pairs inseparable up to n=4"
                if bad is None
                else f"{bad[0]} vs {bad[1]} separated at n={bad[2]}",
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
            w = check_identity_witness(model, decode(bm(name0)))
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
    checks = []
    for p, q in (("2SL", "T2"), ("2SL", "S2"), ("T2", "S2")):
        require = variety_identities(p) + variety_identities(q)
        counts = []
        bad = None
        for n in range(1, 6):
            models = all_models(n, require)
            counts.append(len(models))
            for g in models:
                if not check_property(g, "semilattice"):
                    bad = g
                    break
            if bad:
                break
        checks.append(
            CheckResult(
                f"intersection-{p}-{q}-semilattices",
                bad is None,
                f"counts by size {counts}, all semilattices"
                if bad is None
                else f"non-semilattice model of size {bad.n}",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# s2-terms


V_TERM = parse_term("((x y) (z (x y)))")
W_TERM = parse_term("((x y) (z u))")
ABSORPTION = parse_identity("(x (x y)) ≈ ((x y) (x (x y)))")


def _suite_s2_terms() -> list[CheckResult]:
    models = _models_of_class("S2", 4)
    checks = []

    bad3 = [g for g in models if not term_condition(g, V_TERM, "wnu", 3)]
    checks.append(
        CheckResult(
            "s2-wnu3",
            not bad3,
            f"(xy)(z(xy)) is WNU(3) on all {len(models)} models"
            if not bad3
            else f"fails on an n={bad3[0].n} model",
        )
    )
    bad4 = [g for g in models if not term_condition(g, W_TERM, "wnu", 4)]
    checks.append(
        CheckResult(
            "s2-wnu4",
            not bad4,
            f"(xy)(zu) is WNU(4) on all {len(models)} models"
            if not bad4
            else f"fails on an n={bad4[0].n} model",
        )
    )

    agree = True
    witness = "v(y,x,x)=w(y,x,x,x) everywhere"
    for g in models:
        for a in range(g.n):
            for b in range(g.n):
                lhs = eval_term(V_TERM, {"x": b, "y": a, "z": a}, g)
                rhs = eval_term(W_TERM, {"x": b, "y": a, "z": a, "u": a}, g)
                if lhs != rhs:
                    agree = False
                    witness = f"differ at x={a}, y={b} on an n={g.n} model"
    checks.append(CheckResult("s2-term-agreement", agree, witness))

    checks.append(
        _identity_on_models("s2-absorption-law", models, ABSORPTION)
    )

    squag = load_fixture("fig4a")
    checks.append(
        _inequality_check(
            "squag-absorption-fails",
            squag,
            ABSORPTION.lhs,
            ABSORPTION.rhs,
            {"x": 0, "y": 1},
        )
    )
    return checks


# ---------------------------------------------------------------------------
# t2-structure


def _t2_models(max_n: int) -> list[CayleyTable]:
    models = _models_of_class("T2", max_n)
    # fixtures that happen to lie in the variety ride along
    for name in ("fig3b", "fig4a"):
        g = load_fixture(name)
        if canonical_form(g) not in {canonical_form(m) for m in models}:
            models.append(g)
    return models


def _suite_t2_structure() -> list[CheckResult]:
    checks = []
    models = _t2_models(6)

    bad = [g for g in models if not check_pseudopartition(g).pseudopartition]
    checks.append(
        CheckResult(
            "t2-join-pseudopartition",
            not bad,
            f"y(xy) passes P1-P4 on all {len(models)} models"
            if not bad
            else f"P1-P4 fail on an n={bad[0].n} model",
        )
    )

    fiber_count = 0
    bad_fiber = None
    for g in models:
        for f in decompose(g).fibers:
            fiber_count += 1
            if not check_property(f, "squag"):
                bad_fiber = (g.n, f.n)
    checks.append(
        CheckResult(
            "t2-fibers-are-squags",
            bad_fiber is None,
            f"{fiber_count} fibers, every one a squag"
            if bad_fiber is None
            else f"non-squag fiber of size {bad_fiber[1]} in an n={bad_fiber[0]} model",
        )
    )

    status = check_pseudopartition(load_fixture("fig3b"))
    w = status.witnesses.get("P5")
    checks.append(
        CheckResult(
            "fig3b-fails-P5",
            status.pseudopartition and not status.p5,
            f"P1-P4 hold, P5 fails at {w}",
        )
    )

    t1_models = _models_of_class("T1", 6)
    bad_t1 = [g for g in t1_models if not check_pseudopartition(g).all_five]
    checks.append(
        CheckResult(
            "t1-join-partition",
            not bad_t1,
            f"P1-P5 hold on all {len(t1_models)} models"
            if not bad_t1
            else f"fails on an n={bad_t1[0].n} model",
        )
    )

    bad_rt = None
    for g in t1_models:
        rebuilt = plonka_sum(decompose(g))
        if canonical_form(rebuilt) != canonical_form(g):
            bad_rt = g
            break
    checks.append(
        CheckResult(
            "t1-sum-roundtrip",
            bad_rt is None,
            f"sum of decomposition reproduces all {len(t1_models)} models"
            if bad_rt is None
            else f"mismatch on an n={bad_rt.n} model",
        )
    )
    return checks


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


def _join_of(a: Term, b: Term) -> Term:
    # x∨y = y(xy), applied to subterms
    return Prod(b, Prod(a, b))


def _pseudopartition_term_identities() -> tuple[tuple[str, Identity], ...]:
    x, y, z = Var("x"), Var("y"), Var("z")
    j = _join_of
    return (
        ("P1", Identity(j(x, x), x)),
        ("P2", Identity(j(j(x, y), z), j(x, j(y, z)))),
        ("P3", Identity(j(x, j(y, z)), j(x, j(z, y)))),
        ("P4", Identity(j(y, Prod(x, z)), j(j(y, x), z))),
    )


def _suite_appendix() -> list[CheckResult]:
    checks = []
    t2 = _t2_models(6)
    for i, ident in enumerate(T2_DERIVED_LAWS, start=1):
        checks.append(_identity_on_models(f"t2-derived-law-{i:02d}", t2, ident))
    checks.append(_identity_on_models("t2-collapse-law", t2, T2_COLLAPSE_LAW))
    for tag, ident in _pseudopartition_term_identities():
        checks.append(
            _identity_on_models(f"t2-join-term-{tag}", t2, ident)
        )

    d23 = decode(bm("D23"))
    d23_models: list[CayleyTable] = []
    for n in range(1, 5):
        d23_models.extend(
            all_models(n, (d23,), commutative=False, idempotent=True)
        )
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
    checks = []
    for name, template in reduction_templates().items():
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
    templates = list(reduction_templates().values())
    ok = 0
    for round_ in range(100):
        g = templates[round_ % len(templates)]
        jm = join_matrix(g, STANDARD_JOIN)
        part = sigma(g)
        values = rng.sample(range(g.n), rng.randint(1, g.n))
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

    count = 0
    max_e = 0
    bad = None
    for n in range(1, 6):
        for g in all_models(n, variety_identities("CID")):
            count += 1
            e = cid_exponent(g)
            max_e = max(max_e, e)
            fibers = decompose(g, power_term(e)).fibers
            if not all(is_latin_square(f) for f in fibers):
                bad = g
    checks.append(
        CheckResult(
            "cid-exponent-latin-fibers",
            bad is None,
            f"{count} models up to size 5, max exponent {max_e}, all fibers Latin"
            if bad is None
            else f"non-Latin fiber on an n={bad.n} model",
        )
    )

    bad_n = None
    for n in (1, 3, 5, 7):
        g = cie_cyclic(n)
        if not (
            check_property(g, "entropic") and check_property(g, "distributive")
        ):
            bad_n = n
    checks.append(
        CheckResult(
            "cyclic-odd-entropic-distributive",
            bad_n is None,
            "n in {1,3,5,7} all entropic and distributive"
            if bad_n is None
            else f"fails at n={bad_n}",
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


def run_suite(name: str) -> SuiteReport:
    """Execute one named suite and report per-check outcomes."""
    if name not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    return SuiteReport(name, tuple(_SUITES[name]()))
