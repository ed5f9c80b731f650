"""Tests for pseudopartitions, σ, decomposition, and the cyclic builders."""

import copy
import hashlib
import itertools
import pickle
import random
import re
from collections import Counter

import pytest

from cigroupoids.congruences import PartitionCongruence, is_compatible
from cigroupoids.core import (
    CayleyTable,
    check_identity,
    check_property,
    is_latin_square,
    load_fixture,
    parse_identity,
    parse_term,
    power_term,
    term_function,
)
from cigroupoids.plonka import (
    STANDARD_JOIN,
    EvenModulus,
    MissingFiberMaps,
    NoExponent,
    NotCID,
    NotPseudopartition,
    PlonkaSystem,
    adjoin_infinity,
    check_pseudopartition,
    cid_exponent,
    cie_cyclic,
    decompose,
    format_system,
    join_matrix,
    make_system,
    parse_system,
    plonka_sum,
    sigma,
)
from test_congruences import from_pairs, identity_congruence

SQUAG = load_fixture("fig4a")
MEET2 = CayleyTable([[0, 0], [0, 1]])
AINF = adjoin_infinity(SQUAG)


def test_standard_join_shape():
    assert str(STANDARD_JOIN) == "(y (x y))"


def test_join_matrix_squag():
    jm = join_matrix(SQUAG, STANDARD_JOIN)
    # 0∨1 = 1·(0·1) = 1·2 = 0 and 1∨0 = 0·(1·0) = 0·2 = 1
    assert jm[0][1] == 0
    assert jm[1][0] == 1


def test_join_matrix_compiles_once():
    # sigma tabulates the join on every call, and the csp workload calls it
    # hundreds of times per pass: equal join terms built apart must reuse
    # one compiled function instead of running exec again.
    first = parse_term(str(STANDARD_JOIN))
    expected = join_matrix(SQUAG, first)
    before = term_function.cache_info()
    for _ in range(5):
        join = parse_term(str(STANDARD_JOIN))
        assert join == first and join is not first
        assert join_matrix(SQUAG, join) == expected
    after = term_function.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 5


def test_join_matrix_rejects_foreign_variables():
    with pytest.raises(ValueError):
        join_matrix(SQUAG, parse_term("(z (x y))"))


# --- sigma ---------------------------------------------------------------


def test_sigma_squag_is_full():
    assert sigma(SQUAG).blocks() == [(0, 1, 2)]


def test_sigma_semilattice_is_identity():
    assert sigma(MEET2) == identity_congruence(2)


def test_sigma_adjoined_infinity_blocks():
    part = sigma(AINF)
    assert part.blocks() == [(0, 1, 2), (3,)]


def test_sigma_naive_oracle():
    # direct evaluation over all pairs, where P1..P4 hold; fig4b fails P4,
    # so sigma raises there, though its σ is a congruence
    for g in (load_fixture("fig3b"), SQUAG, AINF):
        jm = join_matrix(g, STANDARD_JOIN)
        part = sigma(g)
        for a in range(g.n):
            for b in range(g.n):
                related = jm[a][b] == a and jm[b][a] == b
                assert related == part.related(a, b), (g, a, b)
    with pytest.raises(NotPseudopartition, match="^P1:ok P2:ok P3:ok P4:FAIL P5:FAIL$"):
        sigma(load_fixture("fig4b"))


def test_sigma_rejects_nonreflexive():
    # with join = xy on a non-idempotent table, x∨x = x fails: sigma checks
    # P1..P4, not what σ would be
    xor2 = CayleyTable([[0, 1], [1, 0]])
    with pytest.raises(NotPseudopartition, match="^P1:FAIL P2:ok P3:ok P4:ok P5:FAIL$"):
        sigma(xor2, parse_term("(x y)"))


def test_sigma_rejects_nontransitive():
    # join = xy relates 0~1 and 1~2 directly but not 0~2, and P2..P4 fail
    g = CayleyTable([[0, 0, 1], [1, 1, 1], [0, 2, 2]])
    with pytest.raises(NotPseudopartition, match="^P1:ok P2:FAIL P3:FAIL P4:FAIL P5:FAIL$"):
        sigma(g, parse_term("(x y)"))


class NotACongruence(Exception):
    """The relation fails to be an operation-compatible equivalence."""

    def __init__(self, reason, witness):
        super().__init__(f"{reason}: witness {witness}")
        self.reason = reason
        self.witness = witness


def oracle_sigma(g, join):
    """σ built and checked with no appeal to P1..P4: the equivalence that
    the related pairs generate, then a scan of each class for an unrelated
    pair, then a compatibility scan."""
    jm = join_matrix(g, join)
    n = g.n

    def related(a, b):
        return jm[a][b] == a and jm[b][a] == b

    for a in range(n):
        if not related(a, a):
            raise NotACongruence("sigma is not reflexive", (a,))
    part = from_pairs(n, [(a, b) for a in range(n) for b in range(a + 1, n) if related(a, b)])
    for blk in part.blocks():
        for a in blk:
            for b in blk:
                if not related(a, b):
                    raise NotACongruence("sigma is not transitive", (a, b))
    ok, witness = is_compatible(g, part)
    if not ok:
        raise NotACongruence("sigma is not operation-compatible", witness)
    return part


GOLDEN_JOINS = (STANDARD_JOIN, parse_term("(x y)"), parse_term("x"), power_term(2), power_term(3))


def _sigma_or_status(g, join):
    """sigma's partition, or the P1..P4 status it raised on."""
    try:
        return sigma(g, join)
    except NotPseudopartition as exc:
        status = check_pseudopartition(g, join)
        assert not status.pseudopartition and str(exc) == str(status), (g, join)
        return status


def test_sigma_matches_the_pair_closure_oracle():
    # Where P1..P4 hold, sigma and the oracle build the same partition.
    # Where they fail, sigma raises NotPseudopartition with the status
    # text, whatever σ is: the counts pin what the oracle makes of those
    # pairs, 825 of which are congruences all the same.
    from cigroupoids.core import FIXTURE_NAMES
    from cigroupoids.search import all_models
    from cigroupoids.suites import reduction_templates

    tables = [load_fixture(name) for name in FIXTURE_NAMES]
    tables += [g for n in range(1, 5) for g in all_models(n, ())]
    tables += list(reduction_templates().values())
    # tables with no laws at all, where σ also fails to be reflexive or
    # transitive
    rng = random.Random(23)
    tables += [
        CayleyTable([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        for n in (2, 3, 4) for _ in range(40)
    ]
    outcomes = Counter()
    for g in tables:
        for join in GOLDEN_JOINS:
            got = _sigma_or_status(g, join)
            try:
                want = oracle_sigma(g, join)
            except NotACongruence as exc:
                assert not isinstance(got, PartitionCongruence), (g, join)
                outcomes[exc.reason] += 1
                continue
            if isinstance(got, PartitionCongruence):
                assert got == want, (g, join)
                outcomes["P1..P4 hold"] += 1
            else:
                outcomes["P1..P4 fail, a congruence all the same"] += 1
    assert outcomes == {
        "P1..P4 hold": 439,
        "P1..P4 fail, a congruence all the same": 825,
        "sigma is not reflexive": 383,
        "sigma is not transitive": 3,
        "sigma is not operation-compatible": 20,
    }


def _tables_of_size(n, codes):
    """The n-element tables numbered by codes, entries read base n."""
    return [
        CayleyTable([[code // n ** (n * a + b) % n for b in range(n)] for a in range(n)])
        for code in codes
    ]


def test_p1_to_p4_make_sigma_a_congruence_with_closed_classes():
    # Płonka's theorem, which sigma, fiber_split and decompose rely on
    # instead of checking: where P1..P4 hold, σ is the congruence the
    # oracle finds, its classes are closed under ·, and x -> x∨b maps the
    # fiber of x into the fiber of b whenever the replica has [x] ≤ [b].
    # Most tables here are neither idempotent nor commutative.
    from cigroupoids.core import FIXTURE_NAMES
    from cigroupoids.search import all_models
    from cigroupoids.suites import reduction_templates

    ci = [g for n in range(1, 5) for g in all_models(n, ())]
    tables = _tables_of_size(2, range(2**4))
    tables += _tables_of_size(3, random.Random(24).sample(range(3**9), 2000))
    tables += [load_fixture(name) for name in FIXTURE_NAMES]
    tables += ci + list(reduction_templates().values())
    pairs = [(g, join) for g in tables for join in GOLDEN_JOINS]
    pairs += [
        (g, power_term(cid_exponent(g))) for g in ci if check_property(g, "distributive")
    ]
    holds = 0
    for g, join in pairs:
        part = _sigma_or_status(g, join)
        if not isinstance(part, PartitionCongruence):
            continue
        holds += 1
        assert oracle_sigma(g, join) == part, (g, join)
        fiber = part.block_of
        blocks = part.blocks()
        for blk in blocks:
            assert {fiber[g.rows[a][b]] for a in blk for b in blk} == {fiber[blk[0]]}, (g, join)
        jm = join_matrix(g, join)
        system = decompose(g, join)
        assert system.globals == tuple(blocks)
        for s, t in itertools.product(range(len(blocks)), repeat=2):
            if system.replica.rows[s][t] == t:
                assert {fiber[jm[x][b]] for x in blocks[s] for b in blocks[t]} == {t}, (g, join)
    assert (holds, len(pairs) - holds) == (2341, 8821)


# --- P1..P5 --------------------------------------------------------------


def test_t2_models_pseudopartition():
    from cigroupoids.bolmoufang import decode
    from cigroupoids.search import SearchSpec, enumerate_models

    for n in range(2, 5):
        for g in enumerate_models(SearchSpec(n=n, require=(decode("C15"),))):
            st = check_pseudopartition(g)
            assert st.pseudopartition, (n, g)


def test_fig3b_fails_p5_only():
    st = check_pseudopartition(load_fixture("fig3b"))
    assert st.pseudopartition
    assert not st.holds("P5")
    x1, x2, y = st.witnesses["P5"]
    jm = join_matrix(load_fixture("fig3b"), STANDARD_JOIN)
    g = load_fixture("fig3b")
    assert jm[g.rows[x1][x2]][y] != g.rows[jm[x1][y]][jm[x2][y]]


def test_t1_models_satisfy_all_five():
    from cigroupoids.bolmoufang import decode
    from cigroupoids.search import SearchSpec, enumerate_models

    for n in range(2, 5):
        for g in enumerate_models(SearchSpec(n=n, require=(decode("A14"),))):
            assert check_pseudopartition(g).all_five, (n, g)


def test_semilattice_join_is_multiplication():
    st = check_pseudopartition(MEET2)
    assert st.all_five
    # on a semilattice y(xy) collapses to xy
    jm = join_matrix(MEET2, STANDARD_JOIN)
    assert jm == [list(r) for r in MEET2.rows]


def test_status_witnesses_present_on_failure():
    # the 2-semilattice of Fig. 2(a) is not in T2, so some P fails
    st = check_pseudopartition(load_fixture("fig2a"))
    assert not st.pseudopartition
    failed = [name for name in ("P1", "P2", "P3", "P4") if not st.holds(name)]
    assert failed
    for name in failed:
        assert f"{name}:FAIL" in str(st)


# --- decomposition and reassembly ---------------------------------------


def test_decompose_ainf():
    sys = decompose(AINF)
    assert sys.replica == CayleyTable([[0, 1], [1, 1]])
    assert sys.globals == ((0, 1, 2), (3,))
    assert sys.fibers[0] == SQUAG
    assert sys.fibers[1] == CayleyTable([[0]])
    assert sys.fiber_maps is not None
    assert sys.fiber_maps[(0, 1)] == (0, 0, 0)


def test_fiber_maps_are_read_only():
    # the maps checked when the system was built are the maps plonka_sum reads
    sys = decompose(AINF)
    with pytest.raises(TypeError):
        sys.fiber_maps[(0, 1)] = (0, 5, 9)
    maps = dict(sys.fiber_maps)
    built = PlonkaSystem(sys.replica, sys.fibers, sys.globals, maps)
    maps[(0, 1)] = (0, 5, 9)
    assert built.fiber_maps[(0, 1)] == (0, 0, 0)
    assert built == sys
    assert plonka_sum(built) == plonka_sum(sys) == AINF
    for back in (pickle.loads(pickle.dumps(sys)), copy.deepcopy(sys)):
        assert back == sys
        with pytest.raises(TypeError):
            back.fiber_maps[(0, 1)] = (0, 5, 9)


def test_decompose_squag_single_fiber():
    sys = decompose(SQUAG)
    assert sys.replica.n == 1
    assert sys.fibers == (SQUAG,)


def test_decompose_fig3b_fibers_are_squags_no_maps():
    sys = decompose(load_fixture("fig3b"))
    assert sys.fiber_maps is None
    assert sys.replica.n == 2
    squag_law = parse_identity("(x (x y)) = y")
    for fiber in sys.fibers:
        assert check_property(fiber, "commutative")
        assert check_identity(fiber, squag_law)
        assert fiber.n == 3


def test_decompose_rejects_non_pseudopartition():
    with pytest.raises(NotPseudopartition):
        decompose(load_fixture("fig2a"))


def test_sum_roundtrip_ainf():
    assert plonka_sum(decompose(AINF)) == AINF


def test_sum_roundtrip_t1_models():
    from cigroupoids.bolmoufang import decode
    from cigroupoids.search import SearchSpec, enumerate_models

    for n in range(2, 5):
        for g in enumerate_models(SearchSpec(n=n, require=(decode("A14"),))):
            assert plonka_sum(decompose(g)) == g


def test_sum_requires_maps():
    sys = decompose(load_fixture("fig3b"))
    with pytest.raises(MissingFiberMaps):
        plonka_sum(sys)


def test_maps_are_validated_once_where_the_system_is_built(monkeypatch):
    import cigroupoids.plonka as plonka

    calls = []
    validate = plonka._validate_maps
    monkeypatch.setattr(plonka, "_validate_maps", lambda *args: calls.append(1) or validate(*args))
    assert plonka_sum(decompose(AINF)) == AINF
    assert len(calls) == 1
    text = format_system(decompose(AINF))
    assert len(calls) == 2
    assert plonka_sum(parse_system(text)) == AINF
    assert len(calls) == 3


def test_parse_system_rejects_a_map_that_is_not_the_identity():
    text = format_system(decompose(AINF)).replace("# map 0 0: 0 1 2", "# map 0 0: 0 2 1")
    with pytest.raises(ValueError, match="map 0 -> 0 is not the identity"):
        parse_system(text)


def test_hand_built_two_squag_sum():
    chain = CayleyTable([[0, 1], [1, 1]])
    ident = (0, 1, 2)
    sys = make_system(chain, (SQUAG, SQUAG), {(0, 1): ident})
    g = plonka_sum(sys)
    assert g.n == 6
    # products across fibers land in the top copy through the identity map
    assert g.rows[0][3] == SQUAG.rows[0][0] + 3
    assert g.rows[1][5] == SQUAG.rows[1][2] + 3
    from cigroupoids.bolmoufang import decode

    assert check_identity(g, decode("A14"))
    assert check_pseudopartition(g).all_five


def test_make_system_rejects_bad_map():
    chain = CayleyTable([[0, 1], [1, 1]])
    # 0,1 -> 0,1 but 2 -> 0 breaks phi(0*1)=phi(0)*phi(1)
    with pytest.raises(ValueError):
        make_system(chain, (SQUAG, SQUAG), {(0, 1): (0, 1, 0)})


def test_singleton_replica_sum_is_fiber():
    one = CayleyTable([[0]])
    sys = make_system(one, (SQUAG,), {})
    assert plonka_sum(sys) == SQUAG



ONE = CayleyTable([[0]])
CHAIN2 = CayleyTable([[0, 1], [1, 1]])
CHAIN3 = CayleyTable([[max(a, b) for b in range(3)] for a in range(3)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_system(CHAIN2, (SQUAG,), {}),
         "one fiber and one globals entry per replica element"),
        (lambda: PlonkaSystem(ONE, (SQUAG,), ((0, 1),)),
         "fiber 0 lists 2 elements for a 3-element table"),
        (lambda: PlonkaSystem(ONE, (SQUAG,), ((0, 1, 3),)),
         "fiber globals must partition 0..n-1"),
        (lambda: make_system(SQUAG, (ONE, ONE, ONE), {}), "replica must be a semilattice"),
        (lambda: make_system(CHAIN2, (SQUAG, SQUAG), {(0, 1): (0, 1, 0)}),
         "map 0 -> 1 is not a homomorphism at (0, 1)"),
        # rows 0 and 1 of the 3-chain map through (0, 1, 0) alike until (1, 2)
        (lambda: make_system(CHAIN2, (CHAIN3, CHAIN3), {(0, 1): (0, 1, 0)}),
         "map 0 -> 1 is not a homomorphism at (1, 2)"),
        # x -> -x is an automorphism of the squag, so each map alone is fine
        (lambda: make_system(CHAIN3, (SQUAG,) * 3,
                             {(0, 1): (0, 1, 2), (1, 2): (0, 1, 2), (0, 2): (0, 2, 1)}),
         "maps do not compose: 0 -> 1 -> 2"),
        (lambda: make_system(CHAIN2, (SQUAG, SQUAG), {(0, 1): (0, 1, 2), (1, 0): (0, 1, 2)}),
         "stray map 1 -> 0: the replica has no 1 ≤ 0"),
        # a later line for the same pair would silently replace the first
        (lambda: parse_system(format_system(decompose(AINF)).replace(
            "# map 0 0: 0 1 2", "# map 0 0: 2 2 2\n# map 0 0: 0 1 2")),
         "repeated map 0 -> 0: '# map 0 0: 0 1 2'"),
    ],
    ids=["fiber-count", "globals-length", "globals-partition", "replica", "homomorphism",
         "homomorphism-later-row", "composition", "stray-map", "repeated-map"],
)
def test_system_checks_its_contract_where_it_is_built(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


# --- serialization -------------------------------------------------------


def test_system_serialization_roundtrip():
    for g in (AINF, SQUAG):
        sys = decompose(g)
        text = format_system(sys)
        back = parse_system(text)
        assert back == PlonkaSystem(sys.replica, sys.fibers, sys.globals, sys.fiber_maps)
        assert plonka_sum(back) == g


def test_system_serialization_no_maps():
    sys = decompose(load_fixture("fig3b"))
    text = format_system(sys)
    assert "# map" not in text
    back = parse_system(text)
    assert back.fiber_maps is None
    assert back.fibers == sys.fibers


def test_system_format_frozen():
    text = format_system(decompose(AINF))
    assert text == (
        "2\n0 1\n1 1\n"
        "# fiber 0 elements 0 1 2\n"
        "3\n0 2 1\n2 1 0\n1 0 2\n"
        "# fiber 1 elements 3\n"
        "1\n0\n"
        "# map 0 0: 0 1 2\n"
        "# map 0 1: 0 0 0\n"
        "# map 1 1: 0\n"
    )


# --- adjoin_infinity -----------------------------------------------------


def test_adjoin_infinity_table():
    assert AINF == CayleyTable([[0, 2, 1, 3], [2, 1, 0, 3], [1, 0, 2, 3], [3, 3, 3, 3]])


def test_adjoin_infinity_singleton():
    assert adjoin_infinity(CayleyTable([[0]])) == CayleyTable([[0, 1], [1, 1]])


def test_adjoin_infinity_in_t1():
    from cigroupoids.bolmoufang import decode

    assert check_identity(AINF, decode("A14"))


# --- cyclic CIE groupoids ------------------------------------------------


def test_cie3_is_the_squag():
    assert cie_cyclic(3) == SQUAG


def test_cie1_singleton():
    assert cie_cyclic(1) == CayleyTable([[0]])


def test_cie_rejects_even():
    with pytest.raises(EvenModulus):
        cie_cyclic(4)
    with pytest.raises(EvenModulus):
        cie_cyclic(0)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_cie_entropic_distributive(n):
    g = cie_cyclic(n)
    assert check_property(g, "commutative")
    assert check_property(g, "idempotent")
    assert check_property(g, "entropic")
    assert check_property(g, "distributive")
    assert is_latin_square(g)


# --- cid_exponent --------------------------------------------------------


def test_exponent_squag():
    assert cid_exponent(SQUAG) == 2


def test_exponent_semilattice():
    assert cid_exponent(MEET2) == 1


def test_exponent_ainf():
    e = cid_exponent(AINF)
    sys = decompose(AINF, power_term(e))
    for fiber in sys.fibers:
        assert is_latin_square(fiber)
    assert sys.globals == ((0, 1, 2), (3,))


def test_exponent_rejects_non_cid():
    with pytest.raises(NotCID):
        cid_exponent(load_fixture("fig2a"))
    with pytest.raises(NotCID):
        cid_exponent(load_fixture("leftzero"))


def test_exponent_matches_term_route():
    # dual route: the matrix iteration must agree with evaluating the term
    for g in (SQUAG, MEET2, AINF, cie_cyclic(5)):
        e = cid_exponent(g)
        assert check_pseudopartition(g, power_term(e)).pseudopartition
        for smaller in range(1, e):
            assert not check_pseudopartition(g, power_term(smaller)).pseudopartition


# --- pinned outputs --------------------------------------------------------


def _random_ci(rng, n):
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        rows[a][a] = a
        for b in range(a + 1, n):
            rows[a][b] = rows[b][a] = rng.randrange(n)
    return CayleyTable(rows)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error is part of the pinned output
        return (type(exc).__name__, str(exc))


def test_plonka_outputs_golden():
    # Pinned before the P1..P5 laws became rows and before decompose and
    # reduce_instance shared one fiber split: statuses with witnesses, every
    # decomposition where P1..P4 hold, and every reduction, for five joins.
    from cigroupoids.core import FIXTURE_NAMES
    from cigroupoids.csp import format_csp, gen_instance, reduce_instance
    from cigroupoids.search import all_models
    from cigroupoids.suites import reduction_templates

    rng = random.Random(2015)
    tables = [load_fixture(name) for name in FIXTURE_NAMES]
    tables += [g for n in range(1, 5) for g in all_models(n, ())]
    tables += [_random_ci(rng, rng.randint(2, 7)) for _ in range(60)]
    out = []
    decomposed = 0
    for g in tables:
        for join in GOLDEN_JOINS:
            st = check_pseudopartition(g, join)
            out.append((str(st), sorted(st.witnesses.items())))
            if st.pseudopartition:
                sys = _outcome(decompose, g, join)
                decomposed += isinstance(sys, PlonkaSystem)
                out.append(format_system(sys) if isinstance(sys, PlonkaSystem) else sys)

    def reduced(inst, join):
        red = reduce_instance(inst, join)
        return format_csp(red.reduced), sorted(red.a.items()), sorted(red.b_prime.items())

    reductions = 0
    for template in reduction_templates().values():
        for seed in range(20):
            inst = gen_instance(seed, template)
            for join in GOLDEN_JOINS:
                red = _outcome(reduced, inst, join)
                reductions += isinstance(red[0], str) and red[0].startswith("sorts")
                out.append(red)
    assert (len(tables), decomposed, reductions) == (270, 389, 240)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "2f92706422e6da93e69ad6a3e8f39c95c66f34a6909715fee48e839abc9b5b93"
    )
