"""Constraint instances, solvers, and the fiber-collapse reduction."""

import copy
import itertools
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cigroupoids.core import FIXTURE_NAMES, BoundExceeded, CayleyTable, load_fixture
from cigroupoids.csp import (
    CARRIER_BOUND,
    CSPInstance,
    NotInvariant,
    Relation,
    SortMismatch,
    _arc_consistency,
    _backtrack,
    _closing,
    _template_split,
    close_under,
    fold_join,
    format_csp,
    gen_instance,
    is_invariant,
    parse_csp,
    reduce_instance,
    solve_brute,
    solve_consistency,
)
from cigroupoids.plonka import (
    STANDARD_JOIN,
    FiberSplit,
    NotPseudopartition,
    adjoin_infinity,
    cie_cyclic,
    join_matrix,
    sigma,
)
from cigroupoids.suites import reduction_templates

SQUAG = load_fixture("fig4a")
AINF = adjoin_infinity(SQUAG)
FIG2A = load_fixture("fig2a")
FIG4B = load_fixture("fig4b")
MEET2 = CayleyTable([[0, 0], [0, 1]])
MEET4 = CayleyTable([[min(a, b) for b in range(4)] for a in range(4)])


def replace(record, **changes):
    """A record like `record` with the given fields changed, built through its constructor."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def single_sorted_instance(template: CayleyTable, variables, constraints) -> CSPInstance:
    """A one-carrier instance from variable names and (scope, tuples) pairs."""
    cons = []
    for scope, tuples in constraints:
        tuples = frozenset(tuple(t) for t in tuples)
        cons.append((tuple(scope), Relation.single_sorted(tuples, len(tuple(scope)))))
    return CSPInstance(tuple(variables), (template,), (0,) * len(variables), tuple(cons))


def neq(n: int) -> frozenset:
    return frozenset((a, b) for a in range(n) for b in range(n) if a != b)


def naive_projections(rel: Relation) -> tuple[int, ...]:
    """The mask of the values at each position, one set per position."""
    return tuple(
        sum(1 << a for a in {t[p] for t in rel.tuples}) for p in range(len(rel.signature))
    )


def naive_invariant(tuples, g: CayleyTable) -> bool:
    for t1 in tuples:
        for t2 in tuples:
            if tuple(g.rows[a][b] for a, b in zip(t1, t2)) not in tuples:
                return False
    return True


class CountingTuples(frozenset):
    """A tuple set that counts the scans of it."""

    scans = 0

    def __iter__(self):
        CountingTuples.scans += 1
        return super().__iter__()


# ---------------------------------------------------------------------------
# Relations and instances


def test_relation_validates_shape():
    with pytest.raises(ValueError):
        Relation((0, 0), frozenset({(0, 1, 2)}))
    # an entry that no carrier holds is refused as the relation is built,
    # before a projection mask is made for it
    for entry in (-1, CARRIER_BOUND, 10**30):
        with pytest.raises(ValueError, match=rf"^tuple \({entry},\) escapes its sort carrier$"):
            Relation.single_sorted({(entry,)}, 1)
    top = Relation.single_sorted({(0, 1), (CARRIER_BOUND - 1, 1)}, 2)
    assert top.projections == (1 | 1 << CARRIER_BOUND - 1, 2) == naive_projections(top)


def test_instance_validation():
    r = Relation.single_sorted({(0, 1)}, 2)
    with pytest.raises(ValueError):
        CSPInstance(("x",), (SQUAG,), (0,), ((("x", "ghost"), r),))
    with pytest.raises(ValueError):
        CSPInstance(("x", "x"), (SQUAG,), (0, 0), ())
    with pytest.raises(ValueError):
        CSPInstance(("x",), (SQUAG,), (1,), ())
    with pytest.raises(ValueError):
        # tuple entry 7 escapes the 3-element carrier
        bad = Relation.single_sorted({(7,)}, 1)
        CSPInstance(("x",), (SQUAG,), (0,), ((("x",), bad),))


def test_shared_relation_is_checked_against_its_carriers_once():
    # a relation shared by thousands of constraints is checked against the
    # carriers from its projections, with no scan of its tuples: about
    # 0.01 s on a 2-vCPU virtual machine (Python 3.11), where a scan per
    # constraint took about 3 s
    n, k = 50, 6000
    chain = CayleyTable([[max(a, b) for b in range(n)] for a in range(n)])
    rel = Relation.single_sorted(itertools.product(range(n), repeat=2), 2)
    object.__setattr__(rel, "tuples", CountingTuples(rel.tuples))
    CountingTuples.scans = 0
    names = tuple(f"v{i}" for i in range(100))
    cons = tuple(((names[i % 100], names[(7 * i + 1) % 100]), rel) for i in range(k))
    start = time.perf_counter()
    inst = CSPInstance(names, (chain,), (0,) * 100, cons)
    elapsed = time.perf_counter() - start
    assert len(inst.constraints) == k
    assert elapsed < 0.5, f"checking {k} constraints took {elapsed:.2f} s"
    assert CountingTuples.scans == 0
    # smaller carriers fail the check each time, and only then are the
    # tuples scanned, for one that escapes
    for scans in (1, 2):
        with pytest.raises(ValueError, match=r"^tuple \(\d+, \d+\) escapes its sort carrier$"):
            CSPInstance(("x", "y"), (SQUAG,), (0, 0), ((("x", "y"), rel),))
        assert CountingTuples.scans == scans


def test_instance_search_space():
    inst = CSPInstance(("x", "y"), (MEET2, SQUAG), (0, 1), ())
    assert inst.search_space() == 6
    assert inst.domain[inst.variables.index("y")] == 1


# ---------------------------------------------------------------------------
# Invariance


def test_sigma_graph_is_invariant():
    part = sigma(AINF)
    graph = frozenset(
        (a, b) for a in range(4) for b in range(4) if part.related(a, b)
    )
    assert is_invariant(Relation.single_sorted(graph, 2), AINF)


def test_two_element_unary_not_invariant():
    # 0·1 = 2 escapes {0, 1}
    r = Relation.single_sorted({(0,), (1,)}, 1)
    assert not is_invariant(r, SQUAG)


def test_disequality_not_invariant_on_squag():
    # cancellation gives a≠b ⟹ ac≠bc, but invariance checks products of
    # arbitrary tuple pairs: (0,1)·(1,0) = (2,2) has equal coordinates
    r = Relation.single_sorted(neq(3), 2)
    assert not is_invariant(r, SQUAG)
    assert (SQUAG.rows[0][1], SQUAG.rows[1][0]) == (2, 2)
    for a, b in neq(3):
        for c in range(3):
            assert SQUAG.rows[a][c] != SQUAG.rows[b][c]


def test_equality_graph_invariant():
    r = Relation.single_sorted({(a, a) for a in range(3)}, 2)
    assert is_invariant(r, SQUAG)


def test_noncommutative_invariance_checks_both_orders():
    # {0, 1} keeps 0·0, 1·1 and one of the two cross products; the other
    # leaves it, whichever of the two tuples the scan takes first
    for cross in ((0, 2), (2, 0)):
        g = CayleyTable([[0, cross[0], 0], [cross[1], 1, 1], [2, 2, 2]])
        r = Relation.single_sorted({(0,), (1,)}, 1)
        assert not is_invariant(r, g)
        assert not naive_invariant(r.tuples, g)


def test_is_invariant_sort_mismatch():
    with pytest.raises(SortMismatch):
        is_invariant(Relation((0, 1), frozenset({(0, 0)})), SQUAG)
    with pytest.raises(SortMismatch):
        is_invariant(Relation.single_sorted({(5,)}, 1), SQUAG)


@given(
    st.sets(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=0, max_size=9
    )
)
@settings(max_examples=80)
def test_invariance_matches_naive(tuples):
    r = Relation.single_sorted(tuples, 2)
    assert is_invariant(r, SQUAG) == naive_invariant(frozenset(tuples), SQUAG)


def naive_fixpoint_closure(template: CayleyTable, seeds) -> frozenset:
    """Add every product of every ordered pair until nothing new appears."""
    out = set(seeds)
    while True:
        new = {
            tuple(template.rows[a][b] for a, b in zip(t1, t2)) for t1 in out for t2 in out
        } - out
        if not new:
            return frozenset(out)
        out |= new


KERNEL_TEMPLATES = {
    "fig1": load_fixture("fig1"),
    "leftzero": load_fixture("leftzero"),
    "squag": SQUAG,
    "ainf-squag": AINF,
}


def test_product_kernel_matches_naive():
    """`is_invariant` and `close_under` both read the one closure
    `_closing`, whose products come from one column kernel. It yields each
    tuple of the closure that is not a seed exactly once, and nothing for a
    closed set; `is_invariant` and `close_under` agree with pair-by-pair
    oracles on commutative and non-commutative templates, at arities 1 to 4
    and on the empty relation."""
    rng = random.Random(2021)
    verdicts = {name: set() for name in KERNEL_TEMPLATES}
    for name, g in KERNEL_TEMPLATES.items():
        for arity in range(1, 5):
            empty = Relation.single_sorted((), arity)
            assert is_invariant(empty, g) and naive_invariant(empty.tuples, g)
            assert close_under(g, []) == frozenset()
            assert list(_closing(g.rows, set())) == []
            for _ in range(30):
                seeds = [
                    tuple(rng.randrange(g.n) for _ in range(arity))
                    for _ in range(rng.randint(1, 4))
                ]
                closed = close_under(g, seeds)
                assert closed == naive_fixpoint_closure(g, seeds), (name, seeds)
                new = list(_closing(g.rows, set(seeds)))
                assert len(set(new)) == len(new), (name, seeds)
                assert not set(new) & set(seeds), (name, seeds)
                assert set(seeds).union(new) == closed, (name, seeds)
                assert list(_closing(g.rows, closed)) == [], (name, seeds)
                # the closure, and arbitrary sets around it: a closure plus
                # one stray tuple, and a closure less one tuple
                stray = tuple(rng.randrange(g.n) for _ in range(arity))
                for tuples in (closed, closed | {stray}, closed - {min(closed)}, set(seeds)):
                    verdict = is_invariant(Relation.single_sorted(tuples, arity), g)
                    assert verdict == naive_invariant(frozenset(tuples), g), (name, tuples)
                    verdicts[name].add(verdict)
    # x·y = x on the left-zero band, so every relation is invariant there
    assert verdicts.pop("leftzero") == {True}
    assert all(v == {True, False} for v in verdicts.values()), verdicts


# ---------------------------------------------------------------------------
# Brute-force solver


def test_brute_single_unary():
    inst = single_sorted_instance(SQUAG, ["v"], [(["v"], {(2,)})])
    assert solve_brute(inst) == {"v": 2}


def test_brute_forced_least():
    inst = single_sorted_instance(
        SQUAG, ["u", "v"], [(["u", "v"], neq(3)), (["u"], {(0,)})]
    )
    assert solve_brute(inst) == {"u": 0, "v": 1}


def test_brute_triangle_coloring():
    inst = single_sorted_instance(
        SQUAG,
        ["x", "y", "z"],
        [(["x", "y"], neq(3)), (["y", "z"], neq(3)), (["x", "z"], neq(3))],
    )
    assert solve_brute(inst) == {"x": 0, "y": 1, "z": 2}


def test_brute_unsat():
    inst = single_sorted_instance(
        MEET2,
        ["x", "y", "z"],
        [(["x", "y"], neq(2)), (["y", "z"], neq(2)), (["x", "z"], neq(2))],
    )
    assert solve_brute(inst) is None


def test_brute_lex_least_matches_enumeration():
    inst = single_sorted_instance(
        SQUAG,
        ["a", "b"],
        [(["a", "b"], {(1, 2), (2, 0), (1, 0)})],
    )
    sols = [
        dict(zip(("a", "b"), vals))
        for vals in itertools.product(range(3), repeat=2)
        if vals in {(1, 2), (2, 0), (1, 0)}
    ]
    assert solve_brute(inst) == sols[0]


def test_brute_bound():
    inst = single_sorted_instance(
        load_fixture("fig3b"), [f"v{i}" for i in range(10)], []
    )
    with pytest.raises(BoundExceeded):
        solve_brute(inst)


def test_brute_many_sorted():
    rel = Relation((0, 1), frozenset({(1, 2)}))
    inst = CSPInstance(("u", "v"), (MEET2, SQUAG), (0, 1), ((("u", "v"), rel),))
    assert solve_brute(inst) == {"u": 1, "v": 2}


# ---------------------------------------------------------------------------
# Consistency solver


def test_arc_inconsistency_detected():
    inst = single_sorted_instance(
        SQUAG, ["v"], [(["v"], {(0,)}), (["v"], {(1,)})]
    )
    assert solve_consistency(inst) is None


def test_consistency_agrees_on_handmade():
    cases = [
        single_sorted_instance(SQUAG, ["v"], [(["v"], {(2,)})]),
        single_sorted_instance(
            SQUAG,
            ["x", "y", "z"],
            [(["x", "y"], neq(3)), (["y", "z"], neq(3)), (["x", "z"], neq(3))],
        ),
        single_sorted_instance(
            MEET2,
            ["x", "y", "z"],
            [(["x", "y"], neq(2)), (["y", "z"], neq(2)), (["x", "z"], neq(2))],
        ),
    ]
    for inst in cases:
        assert solve_consistency(inst) == solve_brute(inst)

    # x=0 forces w=0 through y and w=1 through z, though each constraint
    # alone is arc consistent
    def forcing(a, b):
        return {(a, b)} | {(c, d) for c in range(3) for d in range(3) if c != a}

    inst = single_sorted_instance(
        SQUAG,
        ["x", "y", "z", "w"],
        [(["x", "y"], forcing(0, 0)), (["y", "w"], forcing(0, 0)),
         (["x", "z"], forcing(0, 1)), (["z", "w"], forcing(1, 1))],
    )
    assert solve_consistency(inst) == solve_brute(inst) == {"x": 1, "y": 0, "z": 0, "w": 0}
    # x + y + z is even and x != y: every value has support, z = 0 has no
    # solution
    inst = single_sorted_instance(
        MEET2,
        ["x", "y", "z"],
        [(["x", "y", "z"], {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}),
         (["x", "y"], {(0, 1), (1, 0)})],
    )
    assert solve_consistency(inst) == solve_brute(inst) == {"x": 0, "y": 1, "z": 1}


@pytest.mark.parametrize("template", [FIG4B, SQUAG], ids=["s2", "squag"])
def test_consistency_matches_brute_on_generated(template):
    # the consistency search is also lex-least because pruning is sound
    for seed in range(100):
        inst = gen_instance(seed, template, num_vars=5, num_constraints=4)
        assert solve_consistency(inst) == solve_brute(inst), seed


def test_consistency_repeated_scope_variable():
    rel = Relation.single_sorted({(0, 1), (1, 1), (2, 0)}, 2)
    inst = CSPInstance(("x",), (SQUAG,), (0,), ((("x", "x"), rel),))
    assert solve_brute(inst) == {"x": 1}
    assert solve_consistency(inst) == {"x": 1}


def random_relation_instance(rng: random.Random, template: CayleyTable, num_vars: int):
    """Arbitrary relations, not invariant in general: unary, empty, full and
    sparse ones, and scopes that repeat a variable."""
    names = [f"v{i}" for i in range(num_vars)]
    cons = []
    for _ in range(rng.randint(0, 6)):
        arity = rng.randint(1, 3)
        scope = [rng.choice(names) for _ in range(arity)]
        density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
        tuples = {
            t
            for t in itertools.product(range(template.n), repeat=arity)
            if rng.random() < density
        }
        cons.append((scope, tuples))
    return single_sorted_instance(template, names, cons)


def random_binary_network(rng: random.Random, template: CayleyTable, num_vars: int):
    """Dense random binary relations on most pairs of variables."""
    names = [f"v{i}" for i in range(num_vars)]
    density, coverage = rng.uniform(0.55, 0.9), rng.uniform(0.4, 0.9)
    cons = [
        (
            [names[u], names[v]],
            {t for t in itertools.product(range(template.n), repeat=2) if rng.random() < density},
        )
        for u, v in itertools.combinations(range(num_vars), 2)
        if rng.random() < coverage
    ]
    return single_sorted_instance(template, names, cons)


def gf3_solvable(n: int, equations) -> bool:
    """Gaussian elimination over GF(3) on the rows (coefficients, constant)."""
    rows = [[0] * n + [d] for _, _, d in equations]
    for row, (scope, coeffs, _) in zip(rows, equations):
        for v, c in zip(scope, coeffs):
            row[v] = (row[v] + c) % 3
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [x * rows[rank][col] % 3 for x in rows[rank]]  # c*c = 1 mod 3
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % 3 for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return all(any(row[:n]) or row[n] == 0 for row in rows)


def planted_3lin(rng: random.Random, n: int, sat: bool):
    """Random 3-LIN mod 3 over cie_cyclic(3), every relation invariant:
    1.5n equations satisfied by a planted assignment, or, if not sat, with
    one constant flipped."""
    planted = [rng.randrange(3) for _ in range(n)]
    equations = []
    for _ in range(3 * n // 2):
        scope = rng.sample(range(n), 3)
        coeffs = [rng.choice((1, 2)) for _ in scope]
        equations.append((scope, coeffs, sum(c * planted[v] for c, v in zip(coeffs, scope)) % 3))
    if not sat:
        scope, coeffs, d = equations[0]
        equations[0] = (scope, coeffs, (d + 1) % 3)
    names = [f"v{i}" for i in range(n)]
    cons = [
        (
            [names[v] for v in scope],
            {
                t
                for t in itertools.product(range(3), repeat=3)
                if sum(c * e for c, e in zip(coeffs, t)) % 3 == d
            },
        )
        for scope, coeffs, d in equations
    ]
    return single_sorted_instance(cie_cyclic(3), names, cons), equations


GENERATED_TEMPLATES = [load_fixture(name) for name in FIXTURE_NAMES] + [MEET2]
REDUCTION_TEMPLATES = list(reduction_templates().values())


def mixed_instances(count: int, seed: int, max_vars: int):
    """gen_instance over every fixture and MEET2, arbitrary relations, dense
    binary networks, 3-LIN mod 3 with binary relations on top (whose pair
    projections tell nothing) and many-sorted reduced instances, in turn."""
    rng = random.Random(seed)
    for k in range(count):
        num_vars = rng.randint(2, max_vars)
        family, turn = k % 5, k // 5
        if family == 0:
            template = GENERATED_TEMPLATES[turn % len(GENERATED_TEMPLATES)]
            yield gen_instance(
                rng.randrange(10**6), template, num_vars, rng.randint(1, 2 * num_vars)
            )
        elif family == 1:
            yield random_relation_instance(rng, rng.choice(GENERATED_TEMPLATES), num_vars)
        elif family == 2:
            yield random_binary_network(rng, rng.choice(GENERATED_TEMPLATES), num_vars)
        elif family == 3:
            lin, _ = planted_3lin(rng, max(num_vars, 3), sat=rng.random() < 0.5)
            extra = random_binary_network(rng, lin.sorts[0], len(lin.variables))
            yield replace(lin, constraints=lin.constraints + extra.constraints)
        else:
            template = REDUCTION_TEMPLATES[turn % len(REDUCTION_TEMPLATES)]
            inst = gen_instance(rng.randrange(10**6), template, num_vars, rng.randint(1, num_vars))
            yield reduce_instance(inst).reduced


def test_consistency_matches_brute_random():
    verdicts = set()
    for k, inst in enumerate(mixed_instances(2000, seed=11, max_vars=8)):
        expected = solve_brute(inst)
        assert solve_consistency(inst) == expected, k
        verdicts.add(expected is None)
    assert verdicts == {True, False}
    rng = random.Random(12)
    for k in range(12):
        inst, equations = planted_3lin(rng, 12 + k % 2, sat=k % 3 != 0)
        found = solve_consistency(inst)
        assert found == solve_brute(inst), k
        assert (found is not None) == gf3_solvable(len(inst.variables), equations), k


def test_propagate_is_sound_and_closed():
    """Both solvers return the least solution of the lexicographic scan, on
    instances with repeated scope variables, unary constraints and empty
    relations. At the arc consistency fixpoint every solution lies in the
    domains and in each constraint's live tuples, which are exactly the
    relation's tuples inside the domains and project onto exactly the
    domains."""
    wiped = closed = repeated = unary = empty = 0
    for k, inst in enumerate(mixed_instances(900, seed=21, max_vars=6)):
        positions = {v: i for i, v in enumerate(inst.variables)}
        cons = [([positions[v] for v in scope], rel.tuples) for scope, rel in inst.constraints]
        solutions = [
            vals
            for vals in itertools.product(*(range(inst.sorts[s].n) for s in inst.domain))
            if all(tuple(map(vals.__getitem__, idxs)) in tuples for idxs, tuples in cons)
        ]
        # itertools.product runs in lexicographic order: an oracle for the
        # search that solve_brute and solve_consistency share
        least = dict(zip(inst.variables, solutions[0])) if solutions else None
        assert solve_brute(inst) == least, k
        assert solve_consistency(inst) == least, k
        for scope, rel in inst.constraints:
            repeated += len(set(scope)) < len(scope)
            unary += len(set(scope)) == 1
            empty += not rel.tuples
        dom, live = _arc_consistency(inst)
        for vals in solutions:
            assert all(dom[u] >> a & 1 for u, a in enumerate(vals)), k
        for (idxs, tuples), kept in zip(cons, live):
            assert sorted(kept) == sorted(
                t for t in tuples if all(dom[u] >> e & 1 for u, e in zip(idxs, t))
            ), k
            for vals in solutions:
                assert tuple(map(vals.__getitem__, idxs)) in kept, k
            for p, u in enumerate(idxs):
                assert sum({1 << t[p] for t in kept}) == dom[u], k
        if all(dom):
            closed += 1
        else:
            wiped += 1
            assert not solutions, k
    assert wiped and closed
    assert repeated and unary and empty


def naive_gac(inst: CSPInstance):
    """Set-based generalized arc consistency on a many-sorted instance:
    every constraint keeps its tuples inside the domains and cuts each
    domain to their projection, over and over until nothing changes.
    Returns the domain masks and each constraint's tuple set."""
    positions = {v: i for i, v in enumerate(inst.variables)}
    scopes = [[positions[v] for v in scope] for scope, _ in inst.constraints]
    dom = [set(range(inst.sorts[s].n)) for s in inst.domain]
    live = [set(rel.tuples) for _, rel in inst.constraints]
    changed = True
    while changed:
        changed = False
        for k, idxs in enumerate(scopes):
            live[k] = {t for t in live[k] if all(e in dom[u] for e, u in zip(t, idxs))}
            for p, u in enumerate(idxs):
                projection = {t[p] for t in live[k]}
                if dom[u] - projection:
                    dom[u] &= projection
                    changed = True
    return [sum(1 << a for a in d) for d in dom], live


def gac_instances(count: int, seed: int):
    """Three families, in turn: subdirect 3-LIN mod 3 (every relation
    projects onto Z3 at every position, so no constraint can cut); 3-LIN
    with arbitrary relations on top (cutting, full, empty, unary and with
    repeated scope variables), some of them relations that project onto the
    full sort yet have no tuple with equal entries where a scope repeats a
    variable; and many-sorted reduced instances."""
    rng = random.Random(seed)
    for k in range(count):
        family = k % 3
        if family == 0:
            inst, _ = planted_3lin(rng, rng.randint(3, 9), sat=rng.random() < 0.5)
            yield family, inst
        elif family == 1:
            lin, _ = planted_3lin(rng, rng.randint(3, 6), sat=rng.random() < 0.5)
            extra = random_relation_instance(rng, lin.sorts[0], len(lin.variables))
            shift = Relation.single_sorted({(a, (a + 1) % 3) for a in range(3)}, 2)
            x, y = rng.choice(lin.variables), rng.choice(lin.variables)
            cons = lin.constraints + extra.constraints + (((x, x), shift), ((x, y), shift))
            yield family, replace(lin, constraints=tuple(rng.sample(cons, len(cons))))
        else:
            template = REDUCTION_TEMPLATES[(k // 3) % len(REDUCTION_TEMPLATES)]
            num_vars = rng.randint(2, 7)
            inst = gen_instance(rng.randrange(10**6), template, num_vars, rng.randint(1, num_vars))
            yield family, reduce_instance(inst).reduced


def test_arc_consistency_matches_naive_fixpoint():
    """The fixpoint is the naive one whichever constraints start in the
    queue; where none can cut the full domains, the full domains come back
    and every constraint keeps its relation's tuples."""
    seen = {(family, kind) for family in range(3) for kind in ("cut", "uncut", "wiped")}
    for k, (family, inst) in enumerate(gac_instances(600, seed=31)):
        dom, live = _arc_consistency(inst)
        naive_dom, naive_live = naive_gac(inst)
        assert dom == naive_dom, k
        assert [set(kept) for kept in live] == naive_live, k
        full = [(1 << inst.sorts[s].n) - 1 for s in inst.domain]
        assert all(rel.projections == naive_projections(rel) for _, rel in inst.constraints), k
        cutting = any(
            rel.projections != tuple((1 << inst.sorts[s].n) - 1 for s in rel.signature)
            for _, rel in inst.constraints
        )
        if not cutting:
            assert dom == full, k
            assert live == [rel.tuples for _, rel in inst.constraints], k
            # the relation's own set, not a copy
            assert all(kept is rel.tuples for kept, (_, rel) in zip(live, inst.constraints)), k
        seen.discard((family, "wiped" if not all(dom) else "cut" if cutting else "uncut"))
    # a subdirect 3-LIN instance never cuts, so never empties; the others do
    # both, and a reduced instance may be subdirect or not
    assert seen == {(0, "cut"), (0, "wiped")}, seen


# ---------------------------------------------------------------------------
# Forward checking against the lexicographic scan


def least_solution(inst: CSPInstance):
    """The first assignment in lexicographic order (the order in which
    itertools.product runs) that satisfies every constraint, or None: the
    ground truth for the forward-checking search of both solvers."""
    positions = {v: i for i, v in enumerate(inst.variables)}
    cons = [([positions[v] for v in scope], rel.tuples) for scope, rel in inst.constraints]
    for vals in itertools.product(*(range(inst.sorts[s].n) for s in inst.domain)):
        if all(tuple(map(vals.__getitem__, idxs)) in tuples for idxs, tuples in cons):
            return dict(zip(inst.variables, vals))
    return None


def assert_both_least(inst: CSPInstance, label):
    expected = least_solution(inst)
    assert solve_brute(inst) == expected, label
    assert solve_consistency(inst) == expected, label
    return expected


def test_solvers_least_on_planted_3lin():
    rng = random.Random(41)
    verdicts = set()
    for n in range(3, 9):
        for sat in (True, False):
            for _ in range(4):
                inst, equations = planted_3lin(rng, n, sat)
                found = assert_both_least(inst, (n, sat))
                assert (found is not None) == gf3_solvable(n, equations), (n, sat)
                assert found is not None or not sat
                verdicts.add(found is None)
    assert verdicts == {True, False}


def base_twin(inst: CSPInstance, base) -> CSPInstance:
    """The instance with each domain mask of `base` written as a unary
    constraint on its variable."""
    pins = tuple(
        ((v,), Relation((s,), frozenset((a,) for a in range(inst.sorts[s].n) if mask >> a & 1)))
        for v, s, mask in zip(inst.variables, inst.domain, base)
    )
    return replace(inst, constraints=inst.constraints + pins)


def test_resolve_under_many_bases():
    """Self-reduction's shape: one instance searched again and again under
    other domain masks, pinning one more variable to its value each time
    among them. Every search reads the plan the first one built and finds
    the lexicographic scan's least solution of a twin that writes the masks
    as unary constraints; both solvers agree on one instance whichever runs
    first."""
    rng = random.Random(71)
    repeated = unary = pinned = 0
    for k, inst in enumerate(mixed_instances(250, seed=73, max_vars=5)):
        for scope, _ in inst.constraints:
            repeated += len(set(scope)) < len(scope)
            unary += len(set(scope)) == 1
        full = [(1 << inst.sorts[s].n) - 1 for s in inst.domain]
        bases = [full] + [
            [0 if rng.random() < 0.05 else rng.randrange(1, m + 1) if rng.random() < 0.6 else m
             for m in full]
            for _ in range(8)
        ]
        least = least_solution(inst)
        if least is not None:
            values = [least[v] for v in inst.variables]
            bases += [[1 << a for a in values[:i]] + full[i:] for i in range(1, len(full) + 1)]
            pinned += 1
        plan = None
        for j, base in enumerate(bases):
            assert _backtrack(inst, base) == least_solution(base_twin(inst, base)), (k, j)
            plan = plan or inst._plan
            assert inst._plan is plan, (k, j)
        for order in ((solve_brute, solve_consistency), (solve_consistency, solve_brute)):
            again = replace(inst)
            for solve in order + order:
                assert solve(again) == least, (k, order, solve)
    assert repeated and unary and pinned


def shared_relations(rng: random.Random, template: CayleyTable, count: int):
    """Arbitrary relations of arity 2 or 3, each a fresh object."""
    rels = []
    for _ in range(count):
        arity = rng.randint(2, 3)
        density = rng.choice((0.3, 0.5, 0.8))
        tuples = {
            t
            for t in itertools.product(range(template.n), repeat=arity)
            if rng.random() < density
        }
        rels.append(Relation.single_sorted(tuples, arity))
    return rels


def test_one_relation_under_two_scope_orders():
    # each relation object is used twice in one instance, once on a scope
    # and once on a different arrangement of variables, so its support
    # tables are read under two different key and target positions
    rel = Relation.single_sorted({(0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 2, 0)}, 3)
    inst = CSPInstance(
        ("x", "y", "z"), (SQUAG,), (0, 0, 0),
        ((("x", "y", "z"), rel), (("z", "x", "y"), rel)),
    )
    assert assert_both_least(inst, "rotated") == {"x": 0, "y": 1, "z": 2}
    inst = replace(inst, constraints=((("x", "y", "z"), rel), (("y", "x", "z"), rel)))
    assert assert_both_least(inst, "transposed") == {"x": 2, "y": 2, "z": 0}
    inst = replace(inst, constraints=((("y", "z", "x"), rel), (("x", "z", "y"), rel)))
    assert assert_both_least(inst, "swapped") is None
    rng = random.Random(51)
    verdicts = set()
    for k in range(300):
        template = rng.choice(GENERATED_TEMPLATES)
        num_vars = rng.randint(2, 5)
        names = [f"v{i}" for i in range(num_vars)]
        cons = []
        for rel in shared_relations(rng, template, rng.randint(1, 3)):
            arity = len(rel.signature)
            first = tuple(rng.choice(names) for _ in range(arity))
            second = first
            while second == first:
                second = tuple(rng.choice(names) for _ in range(arity))
            cons += [(first, rel), (second, rel)]
        inst = CSPInstance(tuple(names), (template,), (0,) * num_vars, tuple(cons))
        verdicts.add(assert_both_least(inst, k) is None)
    assert verdicts == {True, False}


def test_one_relation_shared_by_two_instances_in_both_orders():
    # the tables one instance builds on a relation serve the other, whichever
    # is solved first and whichever solver runs first
    rng = random.Random(61)
    names = tuple(f"v{i}" for i in range(4))
    for k in range(150):
        template = rng.choice(GENERATED_TEMPLATES)
        seed = rng.randrange(10**6)
        arities = [len(rel.signature) for rel in shared_relations(random.Random(seed), template, 2)]
        scopes = [[tuple(rng.sample(names, a)) for a in arities] for _ in range(2)]

        def pair():
            rels = shared_relations(random.Random(seed), template, 2)
            return [
                CSPInstance(names, (template,), (0,) * 4, tuple(zip(side, rels)))
                for side in scopes
            ]

        expected = [least_solution(inst) for inst in pair()]
        for order, solvers in (((0, 1), (solve_brute, solve_consistency)),
                               ((1, 0), (solve_consistency, solve_brute))):
            insts = pair()
            for side in order:
                for solve in solvers:
                    assert solve(insts[side]) == expected[side], (k, order, solve)


def test_relation_memo_is_invisible():
    tuples = {(0, 1, 2), (1, 2, 0), (2, 0, 0), (1, 1, 1)}
    rel = Relation.single_sorted(tuples, 3)
    fresh = Relation.single_sorted(tuples, 3)
    inst = CSPInstance(
        ("x", "y", "z"), (SQUAG,), (0, 0, 0),
        ((("x", "y", "z"), rel), (("z", "x", "x"), rel)),
    )
    text = format_csp(inst)
    assert_both_least(inst, "memo")
    _arc_consistency(inst)
    assert format_csp(inst) == text
    assert inst == replace(inst, constraints=tuple((scope, fresh) for scope, _ in inst.constraints))
    masks = naive_projections(rel)
    assert rel.projections == masks
    # a copy or pickle builds its projections from the tuples, not from
    # the slot of the relation it came from
    object.__setattr__(rel, "projections", (0, 0, 0))
    for other in (copy.copy(rel), copy.deepcopy(rel), pickle.loads(pickle.dumps(rel))):
        assert other.projections == masks
    object.__setattr__(rel, "projections", masks)
    for other in (rel, replace(rel), pickle.loads(pickle.dumps(rel))):
        assert other == fresh
        assert hash(other) == hash(fresh)
        # a frozenset's repr follows its iteration order, which a rebuilt
        # set need not share; the memo must not show in either way
        assert repr(other) == f"Relation(signature={other.signature!r}, tuples={other.tuples!r})"
    # a copy with other tuples builds its own tables
    for kept in ({(2, 0, 0)}, {(1, 1, 1), (0, 1, 2)}, set()):
        smaller = replace(rel, tuples=frozenset(kept))
        assert smaller.projections == naive_projections(smaller)
        assert_both_least(
            replace(inst, constraints=tuple((scope, smaller) for scope, _ in inst.constraints)),
            kept,
        )


def test_instance_index_is_invisible():
    rel = Relation.single_sorted({(0, 1, 2), (1, 2, 0), (2, 0, 0), (1, 1, 1)}, 3)
    inst = CSPInstance(
        ("x", "y", "z"), (SQUAG,), (0, 0, 0),
        ((("x", "y", "z"), rel), (("z", "x", "x"), rel), (("y", "y", "y"), rel)),
    )
    # a repeated variable gets its index at each of its positions
    assert inst._scopes == ((0, 1, 2), (2, 0, 0), (1, 1, 1))
    twin = CSPInstance(inst.variables, inst.sorts, inst.domain, inst.constraints)
    copied = pickle.loads(pickle.dumps(inst))
    for other in (inst, twin, copied, replace(inst)):
        assert other == inst
        assert hash(other) == hash(inst)
        assert other._scopes == inst._scopes
        # a pickled frozenset may iterate, and so print, in another order
        assert repr(other) == (
            f"CSPInstance(variables={other.variables!r}, sorts={other.sorts!r}, "
            f"domain={other.domain!r}, constraints={other.constraints!r})"
        )
    # replace builds the index for the new fields
    renamed = replace(inst, variables=("z", "y", "x"))
    assert renamed._scopes == ((2, 1, 0), (0, 2, 2), (1, 1, 1))
    fewer = replace(inst, constraints=((("y", "x", "y"), rel),))
    assert fewer._scopes == ((1, 0, 1),)
    assert solve_brute(fewer) == least_solution(fewer)
    with pytest.raises(AttributeError):
        inst._scopes = ((0, 0, 0),) * 3
    with pytest.raises(AttributeError):
        del inst._scopes
    assert inst._scopes == ((0, 1, 2), (2, 0, 0), (1, 1, 1))

    # the search plan the first solve keeps is just as invisible
    unary = Relation.single_sorted({(1,), (2,)}, 1)
    inst = CSPInstance(
        ("x", "y", "z"), (SQUAG,), (0, 0, 0),
        ((("x", "y", "z"), rel), (("z", "x", "x"), rel), (("y",), unary)),
    )
    expected = least_solution(inst)
    assert expected is not None
    assert inst._plan is None
    assert solve_brute(inst) == expected
    plan = inst._plan
    assert plan is not None
    # a second search reads the plan the first one built, under any base
    restricted = least_solution(replace(inst, constraints=inst.constraints + ((("x",), unary),)))
    assert restricted not in (None, expected)
    assert _backtrack(inst, [0b111] * 3) == expected
    assert _backtrack(inst, [0b110, 0b111, 0b111]) == restricted
    assert solve_consistency(inst) == expected
    assert inst._plan is plan
    # it takes no part in ==, hash or repr
    twin = CSPInstance(inst.variables, inst.sorts, inst.domain, inst.constraints)
    assert twin._plan is None
    assert twin == inst
    assert hash(twin) == hash(inst)
    assert repr(twin) == repr(inst)
    # replace and a pickle rebuild through the constructor, without a plan; both solve
    fresh, unpickled = replace(inst), pickle.loads(pickle.dumps(inst))
    assert fresh._plan is None and unpickled._plan is None
    for other in (fresh, unpickled, twin):
        assert other == inst
        assert solve_brute(other) == solve_consistency(other) == expected
        assert _backtrack(other, [0b110, 0b111, 0b111]) == restricted
    fewer = replace(inst, constraints=inst.constraints[:1])
    assert fewer._plan is None
    assert solve_brute(fewer) == least_solution(fewer)
    with pytest.raises(AttributeError):
        inst._plan = None
    with pytest.raises(AttributeError):
        del inst._plan
    assert inst._plan is plan


def test_invariance_verdict_is_kept():
    """Each (relation, table) verdict is proved once and kept, a False one
    too; a relation that does not fit the table raises on every call."""
    pair = Relation.single_sorted({(0, 0), (1, 1), (2, 2), (3, 3), (0, 1)}, 2)
    for _ in range(2):
        # fig4a × {0..3} does not fit: 3 leaves its carrier
        with pytest.raises(SortMismatch):
            is_invariant(pair, SQUAG)
    with pytest.raises(SortMismatch):
        is_invariant(Relation((0, 1), frozenset({(0, 0)})), AINF)
    diagonal = Relation.single_sorted({(a, a) for a in range(4)}, 2)
    for _ in range(2):
        assert is_invariant(pair, AINF) == naive_invariant(pair.tuples, AINF)
        assert is_invariant(pair, MEET4) == naive_invariant(pair.tuples, MEET4)
        assert is_invariant(diagonal, AINF)
    assert pair._tables["invariant", AINF] is False
    assert pair._tables["invariant", MEET4] is True
    assert diagonal._tables["invariant", AINF] is True
    # an equal table built as a separate object reads the same verdict
    kept = dict(pair._tables)
    assert not is_invariant(pair, CayleyTable(AINF.rows))
    assert pair._tables == kept
    # the verdict takes no part in ==, hash or repr
    fresh = Relation.single_sorted(pair.tuples, 2)
    assert pair == fresh
    assert hash(pair) == hash(fresh)
    assert repr(pair) == repr(fresh)
    # a reduction reads the kept False verdict and refuses on every call
    inst = single_sorted_instance(AINF, ["v"], [(["v"], {(0,), (1,)})])
    for _ in range(3):
        with pytest.raises(NotInvariant):
            reduce_instance(inst)
    (_, rel), = inst.constraints
    assert rel._tables["invariant", AINF] is False


def test_invariance_memo_hit_reads_no_tuples():
    """A kept verdict, proved by `is_invariant` or recorded by
    `gen_instance`, is read without a scan of the tuples; a relation that
    does not fit the table gets no verdict and is scanned, and refused, on
    each call."""
    proved = Relation.single_sorted({(0, 1), (1, 1), (3, 3)}, 2)
    is_invariant(proved, AINF)
    (_, recorded), = gen_instance(1, AINF, num_constraints=1).constraints
    assert recorded._tables["invariant", AINF] is True
    for rel in (proved, recorded):
        expected = naive_invariant(rel.tuples, AINF)
        object.__setattr__(rel, "tuples", CountingTuples(rel.tuples))
        CountingTuples.scans = 0
        for _ in range(2):
            assert is_invariant(rel, AINF) == expected
        assert CountingTuples.scans == 0
    bad = Relation.single_sorted({(0,), (3,)}, 1)  # 3 is outside fig4a's carrier
    object.__setattr__(bad, "tuples", CountingTuples(bad.tuples))
    for scans in (1, 2):
        with pytest.raises(SortMismatch):
            is_invariant(bad, SQUAG)
        assert CountingTuples.scans == scans
    assert ("invariant", SQUAG) not in bad._tables


# ---------------------------------------------------------------------------
# Reduction


def test_reduce_forces_absorbing_top():
    inst = single_sorted_instance(
        AINF, ["v"], [(["v"], {(0,), (1,), (2,), (3,)})]
    )
    red = reduce_instance(inst)
    assert not red.trivially_unsat
    assert red.a == {"v": 3}
    assert red.b_sets == {"v": (0, 1, 2, 3)}
    assert red.b_prime == {"v": (3,)}
    assert red.reduced.sorts[red.reduced.domain[red.reduced.variables.index("v")]].n == 1
    assert solve_brute(red.reduced) == {"v": 0}


def test_reduce_into_squag_fiber():
    inst = single_sorted_instance(AINF, ["v"], [(["v"], {(0,), (1,), (2,)})])
    red = reduce_instance(inst)
    assert red.a["v"] in (0, 1, 2)
    assert red.a == {"v": 0}
    fiber = red.reduced.sorts[red.reduced.domain[red.reduced.variables.index("v")]]
    assert fiber == SQUAG
    assert solve_brute(red.reduced) is not None


def test_reduce_is_identity_inside_one_fiber():
    graph = {(a, b, SQUAG.rows[a][b]) for a in range(3) for b in range(3)}
    inst = single_sorted_instance(AINF, ["x", "y", "z"], [(["x", "y", "z"], graph)])
    red = reduce_instance(inst)
    assert red.b_prime == {v: (0, 1, 2) for v in "xyz"}
    (scope, rel), = (
        c for c in red.reduced.constraints if len(c[0]) == 3
    )
    # fiber 0 keeps the parent labels, so the tuples come back unchanged
    assert rel.tuples == frozenset(graph)
    assert solve_brute(red.reduced) is not None


def test_reduce_rejects_non_invariant():
    inst = single_sorted_instance(AINF, ["v"], [(["v"], {(0,), (1,)})])
    with pytest.raises(NotInvariant):
        reduce_instance(inst)


def test_reduce_rejects_bad_template():
    inst = single_sorted_instance(FIG2A, ["v"], [(["v"], {(0,)})])
    with pytest.raises(NotPseudopartition):
        reduce_instance(inst)
    xor = CayleyTable([[0, 1], [1, 0]])
    with pytest.raises(NotPseudopartition):
        reduce_instance(single_sorted_instance(xor, ["v"], []))


def all_solutions(inst: CSPInstance):
    positions = {v: i for i, v in enumerate(inst.variables)}
    cons = [([positions[v] for v in scope], rel.tuples) for scope, rel in inst.constraints]
    for vals in itertools.product(*(range(inst.sorts[s].n) for s in inst.domain)):
        if all(tuple(map(vals.__getitem__, idxs)) in tuples for idxs, tuples in cons):
            yield dict(zip(inst.variables, vals))


def test_template_split_cache_is_invisible():
    """Equal templates built as separate objects share one cached split,
    and a reduction read from the cache equals one computed cold,
    `transform` included, whichever template object comes first."""
    rng = random.Random(77)
    transformed = 0
    for name, template in reduction_templates().items():
        for _ in range(8):
            inst = gen_instance(rng.randrange(10**6), template, num_vars=4, num_constraints=3)
            twin = replace(inst, sorts=(CayleyTable(template.rows),))
            assert twin.sorts[0] is not template
            solutions = list(all_solutions(inst))
            for first, second in ((inst, twin), (twin, inst)):
                _template_split.cache_clear()
                cold = reduce_instance(first)
                assert _template_split.cache_info().misses == 1
                warm = [reduce_instance(second), reduce_instance(first)]
                assert _template_split.cache_info().hits == 2
                for red in warm:
                    assert red == cold
                    assert red.reduced.sorts == cold.reduced.sorts
                    for solution in solutions:
                        assert red.transform(solution) == cold.transform(solution)
                        transformed += 1
    assert transformed
    assert _template_split.cache_info().maxsize is not None


def test_reduction_result_survives_pickle():
    """A pickled reduction equals the original, and its `transform` maps
    every solution, or refuses a trivially unsatisfiable one, the same way."""
    rng = random.Random(78)
    transformed = refused = 0
    for template in reduction_templates().values():
        for seed in [3] + [rng.randrange(10**6) for _ in range(5)]:
            inst = gen_instance(seed, template, num_vars=4, num_constraints=3)
            red = reduce_instance(inst)
            back = pickle.loads(pickle.dumps(red))
            assert back == red and repr(back) == repr(red)
            assert back.fiber_globals == red.fiber_globals
            solutions = list(all_solutions(inst))
            if red.trivially_unsat:
                with pytest.raises(ValueError, match="trivially unsatisfiable"):
                    back.transform(dict.fromkeys(inst.variables, 0))
                refused += 1
            for solution in solutions:
                assert back.transform(solution) == red.transform(solution)
                transformed += 1
    assert transformed and refused


def test_template_split_cache_keeps_no_failure():
    inst = single_sorted_instance(FIG2A, ["v"], [(["v"], {(0,)})])
    xor = single_sorted_instance(CayleyTable([[0, 1], [1, 0]]), ["v"], [])
    size = _template_split.cache_info().currsize
    for _ in range(3):
        for bad in (inst, xor):
            with pytest.raises(NotPseudopartition):
                reduce_instance(bad)
    assert _template_split.cache_info().currsize == size


def test_cached_split_cannot_be_mutated():
    inst = gen_instance(3, AINF, num_vars=4, num_constraints=3)
    expected = reduce_instance(inst)
    split = _template_split(AINF, STANDARD_JOIN)
    for name in FiberSplit._fields:
        part = getattr(split, name)
        assert isinstance(part, tuple)
        for entry in part:
            assert isinstance(entry, (int, tuple, CayleyTable))
    with pytest.raises(AttributeError):
        split.jm = ()
    with pytest.raises(TypeError):
        split.jm[0][0] = 1
    red = reduce_instance(inst)
    with pytest.raises(TypeError):
        red.fiber_globals[0][0] = 1
    fiber = red.reduced.sorts[0]
    assert fiber is split.fibers[0]
    with pytest.raises(AttributeError):
        fiber.rows = ((0,),)
    with pytest.raises(AttributeError):
        fiber.n = 1
    with pytest.raises(AttributeError):
        del fiber.rows
    # what a reduction hands out per call is its own to change
    for v in red.b_prime:
        red.b_prime[v] = ()
        red.a[v] = -1
    assert reduce_instance(inst) == expected
    assert pickle.loads(pickle.dumps(fiber)) == fiber


def test_reduce_requires_single_sort():
    inst = CSPInstance(("v",), (SQUAG, MEET2), (0,), ())
    with pytest.raises(ValueError):
        reduce_instance(inst)


def test_reduce_empty_projection_short_circuits():
    inst = single_sorted_instance(
        AINF, ["v", "w"], [(["v"], {(0,)}), (["v"], {(1,)})]
    )
    red = reduce_instance(inst)
    assert red.trivially_unsat
    assert red.b_sets["v"] == ()
    assert solve_brute(red.reduced) is None
    with pytest.raises(ValueError):
        red.transform({"v": 0, "w": 0})


def test_reduce_unconstrained_variable_gets_full_projection():
    inst = single_sorted_instance(AINF, ["v", "w"], [(["v"], {(3,)})])
    red = reduce_instance(inst)
    assert red.b_sets["w"] == (0, 1, 2, 3)
    assert red.a["w"] == 3


def test_reduce_sat_equivalence_on_generated():
    sat_seen = unsat_seen = 0
    for seed in range(60):
        inst = gen_instance(seed, AINF, num_vars=4, num_constraints=3)
        red = reduce_instance(inst)
        orig = solve_brute(inst)
        reduced = solve_brute(red.reduced)
        assert (orig is None) == (reduced is None), seed
        if orig is None:
            unsat_seen += 1
        else:
            sat_seen += 1
            image = red.transform(orig)
            for scope, rel in red.reduced.constraints:
                assert tuple(image[v] for v in scope) in rel.tuples, seed
    assert sat_seen and unsat_seen


def naive_subdirect(inst: CSPInstance):
    """Set-based subdirect normalization: restrict every relation to the
    current projections and recompute them until nothing changes. Returns
    the sorted projections and each constraint's tuples."""
    b_sets = {v: set(range(inst.sorts[0].n)) for v in inst.variables}
    live = [set(rel.tuples) for _, rel in inst.constraints]
    scopes = [scope for scope, _ in inst.constraints]
    for i, scope in enumerate(scopes):
        for pos, v in enumerate(scope):
            b_sets[v] &= {t[pos] for t in live[i]}
    changed = True
    while changed:
        changed = False
        for i, scope in enumerate(scopes):
            keep = {t for t in live[i] if all(t[pos] in b_sets[v] for pos, v in enumerate(scope))}
            if len(keep) != len(live[i]):
                live[i] = keep
                changed = True
            for pos, v in enumerate(scope):
                proj = {t[pos] for t in keep}
                if b_sets[v] - proj:
                    b_sets[v] &= proj
                    changed = True
    return {v: tuple(sorted(b)) for v, b in b_sets.items()}, live


def assert_reduction_matches_naive(inst: CSPInstance) -> bool:
    """reduce_instance's projections, fold values and reduced relations
    follow from naive_subdirect; returns whether it is trivially unsat."""
    red = reduce_instance(inst)
    b_sets, live = naive_subdirect(inst)
    assert red.b_sets == b_sets
    assert red.trivially_unsat == (not all(b_sets.values()))
    jm = join_matrix(inst.sorts[0], STANDARD_JOIN)
    assert red.a == {v: fold_join(jm, b) if b else -1 for v, b in b_sets.items()}
    positions = {v: i for i, v in enumerate(inst.variables)}
    for (scope, _), tuples, (red_scope, rel) in zip(
        inst.constraints, live, red.reduced.constraints
    ):
        fibers = [red.fiber_globals[red.reduced.domain[positions[v]]] for v in scope]
        assert red_scope == tuple(scope)
        assert rel.tuples == {
            tuple(f.index(e) for f, e in zip(fibers, t))
            for t in tuples
            if all(e in red.b_prime[v] for e, v in zip(t, scope))
        }
    pinned = red.reduced.constraints[len(inst.constraints):]
    assert [(scope, rel.tuples) for scope, rel in pinned] == [
        ((v,), frozenset()) for v, b in b_sets.items() if not b
    ]
    return red.trivially_unsat


@pytest.mark.parametrize("name", list(reduction_templates()))
def test_reduce_matches_naive_subdirect(name):
    template = reduction_templates()[name]
    instances = [
        gen_instance(seed, template, num_vars=5, num_constraints=4) for seed in range(100)
    ]
    # invariant relations whose scopes repeat a variable, e.g. (v0, v0, v1)
    rng = random.Random(5)
    names = ["v0", "v1", "v2", "v3"]
    for _ in range(60):
        cons = []
        for _ in range(rng.randint(1, 3)):
            scope = [rng.choice(names) for _ in range(rng.randint(2, 3))]
            seeds = [
                tuple(rng.randrange(template.n) for _ in scope)
                for _ in range(rng.randint(1, 2))
            ]
            cons.append((scope, close_under(template, seeds)))
        # v0 takes 0, 1 and 2 in each place, but equal values only in (2, 2, 2)
        cons.append((["v0", "v0", "v1"], close_under(template, [(0, 1, 2), (1, 0, 2)])))
        instances.append(single_sorted_instance(template, names, cons))
    verdicts = [assert_reduction_matches_naive(inst) for inst in instances]
    assert set(verdicts[:100]) == set(verdicts[100:]) == {True, False}


def test_fold_result_stays_in_one_sigma_class():
    jm = join_matrix(AINF, STANDARD_JOIN)
    part = sigma(AINF)
    rng = random.Random(7)
    for _ in range(30):
        size = rng.randint(1, 4)
        values = rng.sample(range(4), size)
        results = {
            fold_join(jm, list(p)) for p in itertools.permutations(values)
        }
        blocks = {part.block_of[r] for r in results}
        assert len(blocks) == 1


# ---------------------------------------------------------------------------
# Generation


def test_gen_deterministic():
    a = gen_instance(1, SQUAG)
    b = gen_instance(1, SQUAG)
    assert a == b
    assert gen_instance(2, SQUAG) != a


def test_generated_relations_are_invariant():
    # gen_instance records the verdict its closure proves; the independent
    # oracle checks each relation, so the record cannot hide a closure bug
    for template in [SQUAG, FIG4B, AINF] + REDUCTION_TEMPLATES:
        for seed in range(20):
            inst = gen_instance(seed, template, num_vars=4, num_constraints=3)
            for _, rel in inst.constraints:
                assert rel._tables["invariant", template] is True
                assert is_invariant(rel, template)
                assert naive_invariant(rel.tuples, template)


def test_closure_frozen_values():
    # a single tuple is already closed, by idempotence
    assert close_under(SQUAG, {(0, 1)}) == frozenset({(0, 1)})
    assert close_under(SQUAG, {(0, 1), (1, 0)}) == frozenset(
        {(0, 1), (1, 0), (2, 2)}
    )


def naive_close_under(template, seeds):
    """The closure with both products t1·t2 and t2·t1 of every pair."""
    out = set(tuple(t) for t in seeds)
    frontier = list(out)
    while frontier:
        t1 = frontier.pop()
        for t2 in list(out):
            for p in (
                tuple(template.rows[a][b] for a, b in zip(t1, t2)),
                tuple(template.rows[b][a] for a, b in zip(t1, t2)),
            ):
                if p not in out:
                    out.add(p)
                    frontier.append(p)
    return frozenset(out)


def test_closure_matches_two_product_oracle():
    rng = random.Random(368)
    templates = REDUCTION_TEMPLATES + [load_fixture("leftzero")]
    for n in (2, 3, 4):
        for _ in range(4):
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            rows[0][1], rows[1][0] = 0, 1  # noncommutative
            templates.append(CayleyTable(rows))
    for template in templates:
        for _ in range(25):
            arity = rng.randint(1, 3)
            seeds = [
                tuple(rng.randrange(template.n) for _ in range(arity))
                for _ in range(rng.randint(1, 3))
            ]
            assert close_under(template, seeds) == naive_close_under(template, seeds)


@given(
    st.sets(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4
    )
)
@settings(max_examples=60)
def test_closure_matches_naive_fixpoint(seeds):
    got = close_under(SQUAG, seeds)
    ref = set(seeds)
    while True:
        new = {
            tuple(SQUAG.rows[a][b] for a, b in zip(t1, t2))
            for t1 in ref
            for t2 in ref
        } - ref
        if not new:
            break
        ref |= new
    assert got == frozenset(ref)
    assert naive_invariant(got, SQUAG)


# ---------------------------------------------------------------------------
# Serialization


def test_format_frozen():
    inst = single_sorted_instance(
        SQUAG, ["x", "y"], [(["x", "y"], {(0, 0), (1, 1)})]
    )
    assert format_csp(inst) == (
        "sorts 1\n"
        "3\n"
        "0 2 1\n"
        "2 1 0\n"
        "1 0 2\n"
        "var x 0\n"
        "var y 0\n"
        "con x y\n"
        "t 0 0\n"
        "t 1 1\n"
        "end\n"
    )


def test_format_parse_roundtrip():
    rel = Relation((0, 1), frozenset({(1, 2), (0, 0)}))
    inst = CSPInstance(("u", "v"), (MEET2, SQUAG), (0, 1), ((("u", "v"), rel),))
    assert parse_csp(format_csp(inst)) == inst


def test_parse_shares_equal_relations():
    # equal blocks (tuples in any order) share one Relation and its memos;
    # a block with another signature or other tuples gets its own
    text = (
        "sorts 2\n3\n0 2 1\n2 1 0\n1 0 2\n2\n0 0\n0 1\n"
        "var x 0\nvar y 0\nvar z 0\nvar w 1\n"
        "con x y\nt 0 1\nt 1 2\nt 2 0\nend\n"
        "con y z\nt 2 0\nt 0 1\nt 1 2\nend\n"
        "con z x\nt 0 1\nt 1 0\nend\n"
        "con x w\nt 0 1\nt 1 0\nend\n"
        "con x y\nt 1 2\nt 2 0\nt 0 1\nend\n"
    )
    inst = parse_csp(text)
    rels = [rel for _, rel in inst.constraints]
    assert rels[0] is rels[1] is rels[4]
    assert len({id(rel) for rel in rels}) == 3
    # the same instance with a fresh relation per block reads and solves alike
    fresh = replace(inst, constraints=tuple(
        (scope, Relation(rel.signature, rel.tuples)) for scope, rel in inst.constraints
    ))
    assert fresh == inst
    assert format_csp(inst) == format_csp(fresh)
    assert parse_csp(format_csp(inst)) == inst
    for solve in (solve_brute, solve_consistency):
        assert solve(inst) == solve(fresh) == {"x": 1, "y": 2, "z": 0, "w": 0}


def test_parse_at_file(tmp_path):
    from cigroupoids.core import format_alg

    (tmp_path / "base.alg").write_text(format_alg(SQUAG))
    text = "sorts 1\n@file base.alg\nvar v 0\ncon v\nt 2\nend\n"
    inst = parse_csp(text, base_dir=str(tmp_path))
    assert inst.sorts == (SQUAG,)
    assert solve_brute(inst) == {"v": 2}


def test_parse_accepts_comments_and_blanks():
    text = "# instance\nsorts 1\n2\n0 0\n0 1\n\nvar v 0\n"
    inst = parse_csp(text)
    assert inst.sorts == (MEET2,)
    assert inst.variables == ("v",)


def test_parse_is_linear_in_the_variables():
    # each scope entry is one dict lookup: about 0.1 s on a 2-vCPU virtual
    # machine (Python 3.11), where a scan of the variables declared so far
    # took about 3 s
    n = 8000
    lines = ["sorts 1", "2", "0 0", "0 1"] + [f"var v{i} 0" for i in range(n)]
    for i in range(n):
        lines += [f"con v{i} v{(7 * i + 1) % n} v{(13 * i + 5) % n}", "t 0 0 0", "t 1 1 1", "end"]
    text = "\n".join(lines) + "\n"
    start = time.perf_counter()
    inst = parse_csp(text)
    elapsed = time.perf_counter() - start
    assert len(inst.variables) == n and len(inst.constraints) == n
    assert inst._scopes[1] == (1, 8, 18)
    assert elapsed < 1.0, f"parsing {n} variables took {elapsed:.2f} s"


@pytest.mark.parametrize(
    "body, message",
    [
        ("var x 0\ncon x y\nt 0 0\n", "undeclared variable 'y' in 'con x y'"),
        ("var x 0\ncon x z\nt 0 0\nend\nvar z 0\n", "undeclared variable 'z' in 'con x z'"),
        ("var x 0\nvar x 0\ncon x q\nt 0 0\nend\n", "undeclared variable 'q' in 'con x q'"),
        ("var x 0\nvar x 1\ncon x\nt 2\nend\n", "duplicate variable names"),
        ("var x 0\nvar y 1\ncon y x\nt 1 2\nend\n", "tuple (1, 2) escapes its sort carrier"),
        ("var x 0\ncon x\nt -1\nend\n", "tuple (-1,) escapes its sort carrier"),
        # refused before a projection mask is built for it
        (
            "var x 0\ncon x\nt 10000000000000000\nend\n",
            "tuple (10000000000000000,) escapes its sort carrier",
        ),
    ],
)
def test_parse_error_messages(body, message):
    # an undeclared name, and an entry that no carrier holds, are reported
    # as their `con` block is read, before the checks the instance runs
    # once the whole file is parsed
    text = "sorts 2\n2\n0 0\n0 1\n3\n0 2 1\n2 1 0\n1 0 2\n" + body
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_csp(text)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_csp("var v 0\n")
    with pytest.raises(ValueError):
        parse_csp("sorts 1\n2\n0 0\n0 1\nvar v 0\ncon v\nt 0\n")
    with pytest.raises(ValueError):
        parse_csp("sorts 1\n2\n0 0\n0 1\nfrobnicate\n")
    with pytest.raises(ValueError, match=re.escape("sort count is negative: 'sorts -1'")):
        parse_csp("sorts -1\n")
    # no sorts at all is the empty instance
    assert parse_csp("sorts 0\n") == CSPInstance((), (), (), ())
