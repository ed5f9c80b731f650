"""Tests for tables, terms, evaluation, and the named predicates."""

import copy
import hashlib
import itertools
import pickle
import random
import sys
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cigroupoids.core import (
    ArityMismatch,
    CayleyTable,
    Identity,
    FIXTURE_NAMES,
    InvalidExponent,
    Prod,
    UnboundVariable,
    Var,
    check_identity,
    check_identity_witness,
    check_property,
    compile_term,
    eval_term,
    format_alg,
    load_fixture,
    parse_alg,
    parse_identity,
    parse_term,
    positional_variables,
    power_term,
    product_algebra,
    term_condition,
    term_function,
    variables,
)

SQUAG = load_fixture("fig4a")
MEET2 = CayleyTable([[0, 0], [0, 1]])
LEFTZERO = load_fixture("leftzero")
XOR2 = CayleyTable([[0, 1], [1, 0]])


# --- terms and parsing ---------------------------------------------------


def test_parse_roundtrip():
    t = parse_term("(x (y (z y)))")
    assert str(t) == "(x (y (z y)))"
    assert variables(t) == ("x", "y", "z")


def test_parse_star_shorthand():
    assert parse_term("a*b") == Prod(Var("a"), Var("b"))
    # chains associate left
    assert parse_term("a*b*c") == Prod(Prod(Var("a"), Var("b")), Var("c"))
    assert parse_term("(x (a*b))") == Prod(Var("x"), Prod(Var("a"), Var("b")))


def test_parse_rejects_garbage():
    for bad in ("", "(x", "x)", "(x y z)", "x y", "( )", "x+"):
        with pytest.raises(ValueError):
            parse_term(bad)


def test_parse_identity_both_separators():
    i1 = parse_identity("(x (x y)) = y")
    i2 = parse_identity("(x (x y)) ≈ y")
    assert i1 == i2


def naive_repr(t):
    """The dataclass form of a term, written out recursively."""
    if isinstance(t, Var):
        return f"Var(name={t.name!r})"
    return f"Prod(left={naive_repr(t.left)}, right={naive_repr(t.right)})"


def test_repr_and_pickle_match_dataclass_form():
    t = parse_term("((x y) (z x))")
    assert repr(t) == (
        "Prod(left=Prod(left=Var(name='x'), right=Var(name='y')), "
        "right=Prod(left=Var(name='z'), right=Var(name='x')))"
    )
    shallow = [Var("x"), Var("y")]  # every term of depth <= 2 over x, y
    for _ in range(2):
        shallow += [Prod(a, b) for a in shallow for b in shallow]
    for t in shallow:
        assert repr(t) == naive_repr(t)
        back = pickle.loads(pickle.dumps(t))
        assert back == t and repr(back) == repr(t)
        assert type(back) is type(t)


@pytest.mark.parametrize("depth", [5000, 5001])
def test_deep_term_repr_and_pickle(depth):
    # x*y*...*y nests `depth` products to the left, deeper than the default
    # recursion limit.
    assert depth > sys.getrecursionlimit()
    ident = parse_identity("x" + "*y" * depth + " = x")
    text = repr(ident)
    assert text == (
        "Identity(lhs=" + "Prod(left=" * depth + "Var(name='x')"
        + ", right=Var(name='y'))" * depth + ", rhs=Var(name='x'))"
    )
    for back in (pickle.loads(pickle.dumps(ident)), copy.deepcopy(ident)):
        assert back == ident
        assert repr(back) == text


def test_term_signature_walked_once(monkeypatch):
    # Hashing an identity hashes both terms; each walks its tree for the
    # postfix signature once and keeps it, so a second hash walks nothing.
    import cigroupoids.core as core

    ident = parse_identity("(z (x y)) = (y x)")
    walks = []
    real = core._signature
    monkeypatch.setattr(core, "_signature", lambda t: walks.append(t) or real(t))
    assert hash(ident) == hash(ident)
    assert len(walks) == 2
    assert walks[0] is ident.lhs and walks[1] is ident.rhs


# --- evaluation ----------------------------------------------------------


def test_eval_on_squag():
    t = parse_term("(x (x y))")
    assert eval_term(t, {"x": 0, "y": 1}, SQUAG) == 1


def test_eval_variable_leaf():
    g = CayleyTable([[j % 7 for j in range(7)] for _ in range(7)])
    assert eval_term(Var("x"), {"x": 5}, g) == 5


def test_eval_fig3b_frozen():
    # hand-computed: 0*1=0, 2*3=1, then 0*1=0
    g = load_fixture("fig3b")
    t = parse_term("((x y) (z u))")
    assert eval_term(t, {"x": 0, "y": 1, "z": 2, "u": 3}, g) == 0


def test_eval_unbound():
    with pytest.raises(UnboundVariable):
        eval_term(parse_term("(x y)"), {"x": 0}, SQUAG)


# --- identity checking, with an independent naive oracle -----------------


def naive_eval(g, t, env):
    """Recursive reference evaluation, no compilation."""
    if isinstance(t, Var):
        return env[t.name]
    return g.rows[naive_eval(g, t.left, env)][naive_eval(g, t.right, env)]


def naive_witness(g, ident):
    """First failing assignment in product order over the sorted names, or None.

    One assignment at a time, no compilation and no blocks.
    """
    names = sorted(set(variables(ident.lhs)) | set(variables(ident.rhs)))
    for vals in itertools.product(range(g.n), repeat=len(names)):
        env = dict(zip(names, vals))
        if naive_eval(g, ident.lhs, env) != naive_eval(g, ident.rhs, env):
            return env
    return None


def assert_witness_matches(g, ident):
    w = naive_witness(g, ident)
    assert check_identity_witness(g, ident) == w
    assert check_identity(g, ident) == (w is None)
    return w


def terms(depth, names=("x", "y", "z")):
    """Terms over the given variables of depth at most `depth`."""
    leaf = st.sampled_from(names).map(Var)
    if depth == 0:
        return leaf
    sub = terms(depth - 1, names)
    return st.one_of(leaf, st.builds(Prod, sub, sub))


TERMS = terms(6)
TERMS4 = terms(4, ("w", "x", "y", "z"))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_load_fixture_reads_the_package_data(name):
    # load_fixture opens the file beside the module; the package-resource
    # view of the same data must give the same table
    text = files("cigroupoids.data").joinpath(f"{name}.alg").read_text("utf-8")
    assert load_fixture(name) == parse_alg(text)


FIXTURE_TABLES = [load_fixture(n) for n in ("fig1", "fig2a", "fig2b", "fig4a", "fig4c", "leftzero")]
SOME_IDENTITIES = [
    parse_identity("(x y) = (y x)"),
    parse_identity("(x x) = x"),
    parse_identity("((x y) z) = (x (y z))"),
    parse_identity("(x (x y)) = (x y)"),
    parse_identity("(x (x y)) = y"),
    parse_identity("(x (y (z y))) = (((x y) z) y)"),
    parse_identity("((x y) (z w)) = ((x z) (y w))"),
]


@pytest.mark.parametrize("g", FIXTURE_TABLES, ids=lambda g: f"n{g.n}")
def test_check_identity_matches_oracle(g):
    for ident in SOME_IDENTITIES:
        assert_witness_matches(g, ident)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_check_identity_matches_oracle_random(data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    g = CayleyTable(rows)
    assert_witness_matches(g, data.draw(st.sampled_from(SOME_IDENTITIES)))
    t = data.draw(TERMS)
    env = {v: data.draw(st.integers(0, n - 1)) for v in ("x", "y", "z")}
    assert eval_term(t, env, g) == naive_eval(g, t, env)
    assert_witness_matches(g, Identity(t, data.draw(TERMS)))
    assert_witness_matches(g, Identity(data.draw(TERMS4), data.draw(TERMS4)))


# The generated code names the table r, its functions f, its assignments
# asgs, and its values vI and tK; identities may use the same names.
COLLIDING = ("r", "f", "v0", "t0", "asgs")
COLLIDING_IDENTITIES = [
    parse_identity("(r f) = (f r)"),
    parse_identity("((r f) v0) = (r (f v0))"),
    parse_identity("(asgs (asgs t0)) = t0"),
    parse_identity("(v0 (f (t0 f))) = (((v0 f) t0) f)"),
    parse_identity("((r f) (v0 t0)) = ((r v0) (f t0))"),
    parse_identity("(asgs (r (f (v0 t0)))) = ((((asgs r) f) v0) t0)"),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_term_function_matches_recursive_oracle(data):
    g = data.draw(st.sampled_from(FIXTURE_TABLES))
    t = data.draw(st.one_of(TERMS, TERMS4))
    names = ("w", "x", "y", "z")
    vals = data.draw(st.tuples(*[st.integers(0, g.n - 1)] * len(names)))
    f = term_function(compile_term(t, names), len(names))
    assert f(g.rows, *vals) == naive_eval(g, t, dict(zip(names, vals)))


@pytest.mark.parametrize("g", FIXTURE_TABLES, ids=lambda g: f"n{g.n}")
def test_witness_matches_oracle_colliding_names(g):
    for ident in COLLIDING_IDENTITIES:
        assert_witness_matches(g, ident)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_witness_matches_oracle_colliding_names_random(data):
    g = data.draw(st.sampled_from(FIXTURE_TABLES))
    side = terms(4, COLLIDING)
    assert_witness_matches(g, Identity(data.draw(side), data.draw(side)))


def chain_semilattice(n):
    return CayleyTable([[min(a, b) for b in range(n)] for a in range(n)])


def last_block_table(n):
    """Row n-1 is the identity map and every other row is constant 0.

    On it x(yz) = x(zy) fails only at x = n-1, and z(w(xy)) = z(w(yx)) only
    at w = z = n-1: the failures lie under the last leading value alone.
    """
    return CayleyTable([list(range(n)) if a == n - 1 else [0] * n for a in range(n)])


def perturbed(g, rng):
    rows = [list(r) for r in g.rows]
    a, b = rng.randrange(g.n), rng.randrange(g.n)
    rows[a][b] = (rows[a][b] + rng.randrange(1, g.n)) % g.n
    return CayleyTable(rows)


# Each holds on semilattices and on idempotent commutative entropic tables.
SPLIT_IDENTITIES = {
    3: [
        parse_identity("(x (y z)) = ((x y) (x z))"),
        parse_identity("((x y) z) = ((x z) (y z))"),
        parse_identity("(x (y z)) = (x (z y))"),
    ],
    4: [
        parse_identity("((x y) (z w)) = ((x z) (y w))"),
        parse_identity("(z (w (x y))) = (z (w (y x)))"),
    ],
}


@pytest.mark.parametrize("n,k", [(17, 3), (18, 3), (9, 4), (10, 4)])
def test_witness_matches_oracle_split_blocks(n, k):
    # The leading variable runs over n values, each heading n**(k-1)
    # assignments; the witness must still be the first failure in product order.
    from cigroupoids.plonka import cie_cyclic

    rng = random.Random(n * 10 + k)
    holding = [chain_semilattice(n)]
    if n % 2:
        holding.append(cie_cyclic(n))
    if n == 9:
        holding.append(product_algebra(cie_cyclic(3), cie_cyclic(3)))  # AG(2,3) squag
    tables = holding + [perturbed(g, rng) for g in holding for _ in range(3)]
    tables.append(CayleyTable([[rng.randrange(n) for _ in range(n)] for _ in range(n)]))
    lead_values = set()
    for g in tables:
        for ident in SPLIT_IDENTITIES[k]:
            w = assert_witness_matches(g, ident)
            if g in holding:
                assert w is None
            elif w is not None:
                lead_values.add(min(w.items())[1])
    assert len(lead_values) > 1  # failures found beyond the first leading value
    ident = SPLIT_IDENTITIES[k][-1]
    w = assert_witness_matches(last_block_table(n), ident)
    expected = {"x": n - 1, "y": 1, "z": n - 1} if k == 3 else {
        "w": n - 1, "x": 1, "y": n - 1, "z": n - 1
    }
    assert w == expected


def test_compiled_form_is_cached():
    ident = parse_identity("(z (x y)) = (y x)")
    names, lhs, rhs = ident.compiled
    assert names == ("x", "y", "z")
    assert (lhs, rhs) == (compile_term(ident.lhs, names), compile_term(ident.rhs, names))
    assert ident.compiled is ident.compiled


def test_witness_on_squag_two_semilattice():
    w = check_identity_witness(SQUAG, parse_identity("(x (x y)) = (x y)"))
    assert w is not None
    x, y = w["x"], w["y"]
    assert SQUAG.rows[x][SQUAG.rows[x][y]] != SQUAG.rows[x][y]
    # the first failing assignment in scan order is x=0, y=1
    assert w == {"x": 0, "y": 1}


def test_witnesses_golden():
    # Pinned before identity checking moved from one assignment at a time
    # to blocks of assignments: every witness (or None) on the nine fixtures
    # and every CI model with n <= 4, against the sixty Bol-Moufang
    # identities and every PROPERTY_LAWS law.
    from cigroupoids.bolmoufang import ALL_BM, decode
    from cigroupoids.core import FIXTURE_NAMES, PROPERTY_LAWS
    from cigroupoids.search import all_models

    laws = dict.fromkeys(law for group in PROPERTY_LAWS.values() for law in group)
    idents = [decode(b) for b in ALL_BM] + list(laws)
    tables = [load_fixture(name) for name in FIXTURE_NAMES]
    tables += [g for n in range(1, 5) for g in all_models(n, ())]
    assert (len(idents), len(tables)) == (67, 210)
    out = [check_identity_witness(g, ident) for g in tables for ident in idents]
    assert sum(w is None for w in out) == 1846
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "d3f55674cd003f09e69867162b660f116979d6627dea2cef2ed64619961c2fd0"
    )


def test_singleton_satisfies_everything():
    one = CayleyTable([[0]])
    for ident in SOME_IDENTITIES:
        assert check_identity(one, ident)


# --- properties ----------------------------------------------------------


def test_squag_properties():
    assert check_property(SQUAG, "latin-square")
    assert check_property(SQUAG, "squag")
    assert not check_property(SQUAG, "two-semilattice")
    assert not check_property(SQUAG, "associative")


def test_leftzero_not_commutative():
    assert not check_property(LEFTZERO, "commutative")
    assert check_property(LEFTZERO, "idempotent")
    assert check_property(LEFTZERO, "associative")


def test_meet_semilattice_properties():
    for p in ("commutative", "idempotent", "associative", "two-semilattice", "semilattice"):
        assert check_property(MEET2, p)


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        check_property(MEET2, "magic")


def test_squag_implies_latin():
    for g in FIXTURE_TABLES:
        if check_property(g, "squag"):
            assert check_property(g, "latin-square")


def test_idempotent_entropic_implies_distributive():
    for g in FIXTURE_TABLES + [XOR2, MEET2]:
        if check_property(g, "idempotent") and check_property(g, "entropic"):
            assert check_property(g, "distributive")


# --- power terms ---------------------------------------------------------


def test_power_term_shapes():
    x, y = Var("x"), Var("y")
    assert power_term(1) == Prod(x, y)
    assert power_term(2) == Prod(Prod(x, y), y)
    assert power_term(4) == Prod(Prod(Prod(Prod(x, y), y), y), y)
    with pytest.raises(InvalidExponent):
        power_term(0)


# --- term conditions -----------------------------------------------------


def test_squag_maltsev():
    q = parse_term("(y (x z))")
    assert term_condition(SQUAG, q, "maltsev")


def test_wnu2_iff_ci():
    xy = parse_term("(x y)")
    for g in FIXTURE_TABLES + [MEET2, XOR2]:
        expected = check_property(g, "commutative") and check_property(g, "idempotent")
        assert term_condition(g, xy, "wnu", k=2) == expected


def test_fig4c_wnu3():
    v = parse_term("((x y) (z (x y)))")
    assert term_condition(load_fixture("fig4c"), v, "wnu", k=3)


def test_nu_stricter_than_wnu():
    # xy on a semilattice is WNU(2) but not NU(2): f(y,x)=x fails
    xy = parse_term("(x y)")
    assert term_condition(MEET2, xy, "wnu", k=2)
    assert not term_condition(MEET2, xy, "nu", k=2)


def test_squag_has_2edge_term():
    # swap the first two arguments of the Maltsev term: f(x,y,z) = x(yz)
    f = parse_term("(x (y z))")
    assert term_condition(SQUAG, f, "edge", k=2)


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        term_condition(SQUAG, parse_term("(x y)"), "maltsev")
    with pytest.raises(ArityMismatch):
        term_condition(SQUAG, parse_term("(x (y z))"), "wnu", k=4)


def test_explicit_order_override():
    # default order binds positions to x,y,z; overriding rebinds them
    q = parse_term("(y (x z))")
    assert term_condition(SQUAG, q, "maltsev")
    assert not term_condition(MEET2, q, "maltsev")


def naive_term_condition(g, t, kind, k=None):
    """Oracle: the term conditions as direct loops over the values of x and y."""
    arity = {"maltsev": 3, "wnu": k, "nu": k, "edge": (k or 0) + 1}[kind]
    names = positional_variables(t)
    assert len(names) == arity

    def f(*args):
        return eval_term(t, dict(zip(names, args)), g)

    rng = range(g.n)
    if kind == "maltsev":
        return all(f(x, y, y) == x and f(y, y, x) == x for x in rng for y in rng)
    if kind == "edge":
        patterns = [(0, 1), (0, 2)] + [(p,) for p in range(3, arity)]
        for x in rng:
            for y in rng:
                for xs in patterns:
                    args = [y] * arity
                    for p in xs:
                        args[p] = x
                    if f(*args) != y:
                        return False
        return True
    for x in rng:
        if f(*[x] * arity) != x:
            return False
    for x in rng:
        for y in rng:
            vals = []
            for pos in range(arity):
                args = [x] * arity
                args[pos] = y
                vals.append(f(*args))
            if any(v != vals[0] for v in vals[1:]):
                return False
            if kind == "nu" and vals[0] != x:
                return False
    return True


def _random_term(rng, names, size):
    """A random term with `size` leaves that uses every name in names."""
    leaves = list(names) + [rng.choice(names) for _ in range(size - len(names))]
    rng.shuffle(leaves)
    terms = [Var(v) for v in leaves]
    while len(terms) > 1:
        i = rng.randrange(len(terms) - 1)
        terms[i : i + 2] = [Prod(terms[i], terms[i + 1])]
    return terms[0]


@pytest.mark.parametrize("kind", ["maltsev", "wnu", "nu", "edge"])
def test_term_condition_matches_naive_oracle(kind):
    rng = random.Random(f"term-condition-{kind}")
    verdicts = set()
    for _ in range(300):
        k = rng.choice((2, 3, 4))
        arity = {"maltsev": 3, "wnu": k, "nu": k, "edge": k + 1}[kind]
        t = _random_term(rng, ("x", "y", "z", "u", "v", "w")[:arity], arity + rng.randrange(3))
        n = rng.randint(1, 4)
        # semilattices, squags and random idempotent tables, where the
        # conditions hold often, and random tables, where they rarely do
        shape = rng.randrange(4)
        rows = [
            [
                a if a == b and shape < 3
                else min(a, b) if shape == 0
                else (-(a + b)) % n if shape == 1
                else rng.randrange(n)
                for b in range(n)
            ]
            for a in range(n)
        ]
        g = CayleyTable(rows)
        got = term_condition(g, t, kind, None if kind == "maltsev" else k)
        assert got == naive_term_condition(g, t, kind, k), (kind, k, t, rows)
        verdicts.add(got)
    assert verdicts == {True, False}


# --- file format ---------------------------------------------------------


def test_alg_roundtrip():
    text = format_alg(SQUAG)
    assert text == "3\n0 2 1\n2 1 0\n1 0 2\n"
    assert parse_alg(text) == SQUAG


def test_alg_comments_and_blanks():
    g = parse_alg("# a comment\n\n2\n# another\n0 0\n0 1\n")
    assert g == MEET2


def test_alg_bad_shape():
    with pytest.raises(ValueError):
        parse_alg("2\n0 0 0\n0 1\n")
    with pytest.raises(ValueError):
        parse_alg("2\n0 2\n0 1\n")


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.data())
def test_alg_roundtrip_random(n, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    g = CayleyTable(rows)
    assert parse_alg(format_alg(g)) == g


def test_fixtures_all_load():
    from cigroupoids.core import FIXTURE_NAMES

    sizes = {"fig1": 3, "fig2a": 3, "fig2b": 3, "fig3a": 4, "fig3b": 6,
             "fig4a": 3, "fig4b": 4, "fig4c": 3, "leftzero": 2}
    for name in FIXTURE_NAMES:
        assert load_fixture(name).n == sizes[name]


# --- product ------------------------------------------------------------


def test_product_algebra_componentwise():
    p = product_algebra(SQUAG, MEET2)
    assert p.n == 6
    for a in range(3):
        for b in range(2):
            for c in range(3):
                for d in range(2):
                    got = p.rows[a * 2 + b][c * 2 + d]
                    assert got == SQUAG.rows[a][c] * 2 + MEET2.rows[b][d]
