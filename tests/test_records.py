"""The contract of the package's immutable records, every one a `core._Record`.

Each record keeps what a frozen dataclass gave it: equality within its own
type only, a hash shared by equal instances, the dataclass-form repr,
pickling and copying, and no attribute that can be set or deleted. A record
that only stores its fields is built by the base constructor, which binds
positional and keyword arguments to the fields and refuses missing, extra
and repeated ones. A memo (`Relation._tables`, `CSPInstance._scopes` and
`_plan`) takes no part in equality or repr, and `ReductionResult.transform`
is a method, so a reduction pickles with its fields alone. A Bol-Moufang
identity, now its plain name string, keeps the old (letter, i, j) order, and
`SearchSpec` and `PartitionCongruence` keep their validation.
"""

import collections
import copy
import itertools
import pickle

import pytest

from cigroupoids.bolmoufang import ALL_BM
from cigroupoids.congruences import CongruenceLattice, PartitionCongruence, all_congruences
from cigroupoids.core import (
    COMMUTATIVE_LAW,
    CayleyTable,
    Identity,
    Prod,
    Var,
    load_fixture,
    parse_identity,
)
from cigroupoids.csp import CSPInstance, ReductionResult, Relation, reduce_instance
from cigroupoids.plonka import (
    STANDARD_JOIN,
    FiberSplit,
    P5Status,
    PlonkaSystem,
    adjoin_infinity,
    check_pseudopartition,
    decompose,
    fiber_split,
    make_system,
)
from cigroupoids.search import SearchSpec
from cigroupoids.suites import CheckResult, SuiteReport

FIG3B = load_fixture("fig3b")
SQUAG = load_fixture("fig4a")
AINF = adjoin_infinity(SQUAG)

# each record type with its fields, in constructor order
FIELDS = {
    Var: ("name",),
    Prod: ("left", "right"),
    Identity: ("lhs", "rhs"),
    SearchSpec: ("n", "require", "forbid", "commutative", "idempotent"),
    CheckResult: ("check", "passed", "witness"),
    SuiteReport: ("name", "checks"),
    PartitionCongruence: ("block_of",),
    CongruenceLattice: ("n", "elements", "depths", "irreducibles"),
    P5Status: ("witnesses",),
    PlonkaSystem: ("replica", "fibers", "globals", "fiber_maps"),
    FiberSplit: ("jm", "block_of", "blocks", "local", "fibers"),
    Relation: ("signature", "tuples"),
    CSPInstance: ("variables", "sorts", "domain", "constraints"),
    ReductionResult: ("reduced", "trivially_unsat", "a", "b_sets", "b_prime", "split"),
}


def instance(scope=("x", "y")) -> CSPInstance:
    """A small instance over the squag fig4a with one relation used twice."""
    rel = Relation.single_sorted({(0, 1), (1, 2), (2, 0)}, 2)
    return CSPInstance(("x", "y"), (SQUAG,), (0, 0), ((scope, rel), (("y", "y"), rel)))


def reduction():
    """A reduction over AINF, the squag fig4a with an absorbing element."""
    inst = CSPInstance(
        ("x", "y"), (AINF,), (0, 0),
        ((("x", "y"), Relation.single_sorted({(0, 1), (1, 2), (2, 0), (3, 3)}, 2)),),
    )
    return reduce_instance(inst)


def samples():
    """For each record type, a maker of (a record, an unequal record of the
    same type); each call builds new objects, so two calls give equal twins."""
    yield lambda: (Var("x"), Var("y"))
    yield lambda: (Prod(Var("x"), Var("y")), Prod(Var("y"), Var("x")))
    yield lambda: (parse_identity("(x y) = (y x)"), parse_identity("(x (x y)) = y"))
    yield lambda: (SearchSpec(3, (COMMUTATIVE_LAW,)), SearchSpec(3, commutative=False))
    yield lambda: (CheckResult("c", True, "w"), CheckResult("c", False, "w"))
    yield lambda: (
        SuiteReport("s", (CheckResult("c", True, "w"),)),
        SuiteReport("s", ()),
    )
    yield lambda: (PartitionCongruence((0, 0, 1)), PartitionCongruence((0, 1, 1)))
    yield lambda: (all_congruences(FIG3B), all_congruences(AINF))
    yield lambda: (check_pseudopartition(FIG3B), check_pseudopartition(load_fixture("fig2a")))
    yield lambda: (decompose(FIG3B), decompose(AINF))
    yield lambda: (
        make_system(CayleyTable([[0]]), [CayleyTable([[0]])], {}),
        PlonkaSystem(CayleyTable([[0]]), (CayleyTable([[0]]),), ((0,),)),
    )
    yield lambda: (fiber_split(FIG3B, STANDARD_JOIN)[1], fiber_split(AINF, STANDARD_JOIN)[1])
    yield lambda: (
        Relation.single_sorted({(0, 1), (1, 2), (2, 0)}, 2),
        Relation((0, 0), frozenset({(0, 1)})),
    )
    yield lambda: (instance(), instance(("y", "x")))
    yield lambda: (reduction(), reduce_instance(instance()))


SAMPLES = list(samples())
IDS = [type(make()[0]).__name__ for make in SAMPLES]


def values(r) -> tuple:
    return tuple(getattr(r, f) for f in FIELDS[type(r)])


def test_samples_cover_every_record_type():
    assert {type(make()[0]) for make in SAMPLES} == set(FIELDS)


@pytest.mark.parametrize("make", SAMPLES, ids=IDS)
def test_equal_records_share_a_hash(make):
    (a, other), (b, _) = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    try:
        h = hash(a)
    except TypeError:
        # a field that does not hash (a dict) makes the record unhashable
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hash(b) == h


@pytest.mark.parametrize("make", SAMPLES, ids=IDS)
def test_record_equals_no_other_type(make):
    a, _ = make()
    fields = FIELDS[type(a)]
    lookalike = collections.namedtuple(type(a).__name__, fields)(*values(a))
    for other in (values(a), lookalike):
        assert a != other and other != a
        assert not a == other and not other == a
    for make_other in SAMPLES:
        b, _ = make_other()
        if type(b) is not type(a):
            assert a != b and not a == b


@pytest.mark.parametrize("make", SAMPLES, ids=IDS)
def test_repr_keeps_the_dataclass_form(make):
    for r in make():
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(FIELDS[type(r)], values(r)))
        assert repr(r) == f"{type(r).__name__}({fields})"


@pytest.mark.parametrize("make", SAMPLES, ids=IDS)
def test_pickle_and_copies_round_trip(make):
    for r in make():
        for back in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert type(back) is type(r)
            assert back == r
            assert repr(back) == repr(r)


@pytest.mark.parametrize("make", SAMPLES, ids=IDS)
def test_attributes_cannot_be_set_or_deleted(make):
    r, _ = make()
    before = repr(r)
    for f in FIELDS[type(r)]:
        with pytest.raises(AttributeError):
            setattr(r, f, getattr(r, f))
        with pytest.raises(AttributeError):
            delattr(r, f)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert repr(r) == before


def test_search_spec_validates():
    assert SearchSpec(n=2) == SearchSpec(2, (), (), True, True)
    with pytest.raises(ValueError, match="carrier size must be >= 1"):
        SearchSpec(0)
    with pytest.raises(ValueError, match="require and forbid overlap"):
        SearchSpec(3, require=(COMMUTATIVE_LAW,), forbid=(COMMUTATIVE_LAW,))
    with pytest.raises(TypeError):
        SearchSpec()


def test_partition_congruence_normalizes_and_validates():
    assert PartitionCongruence("bab").block_of == (0, 1, 0)
    assert PartitionCongruence(block_of=[7, 7, 3]) == PartitionCongruence((0, 0, 1))
    assert PartitionCongruence(iter((2, 1, 2))).block_of == (0, 1, 0)
    with pytest.raises(TypeError):
        PartitionCongruence([[0], [1]])  # labels must hash
    with pytest.raises(TypeError):
        PartitionCongruence(3)
    with pytest.raises(TypeError):
        PartitionCongruence()


def test_plonka_system_fiber_maps_stay_read_only():
    sys = decompose(FIG3B)
    with pytest.raises(TypeError):
        sys.fiber_maps[(0, 0)] = ()
    assert pickle.loads(pickle.dumps(sys)).fiber_maps == sys.fiber_maps


def test_bm_identities_keep_their_order():
    # the name order is the order the deleted BMIdentity record compared by
    assert sorted(ALL_BM) == list(ALL_BM)
    assert sorted(reversed(ALL_BM)) == list(ALL_BM)
    for a, b in itertools.combinations(ALL_BM, 2):
        assert a < b and a <= b and b > a and b >= a
        assert not b < a and (a[0], int(a[1]), int(a[2])) < (b[0], int(b[1]), int(b[2]))
    assert "A12" <= "A12" >= "A12"
    with pytest.raises(TypeError):
        ALL_BM[0] < ("A", 1, 2)


def test_base_constructor_binds_its_fields():
    assert CheckResult(witness="w", check="c", passed=True) == CheckResult("c", True, "w")
    assert CheckResult("c", passed=True, witness="w") == CheckResult("c", True, "w")
    assert Var(name="x") == Var("x")
    assert P5Status(witnesses={}) == P5Status({})
    with pytest.raises(TypeError, match="missing"):
        Var()
    with pytest.raises(TypeError, match="missing"):
        CheckResult("c", True)
    with pytest.raises(TypeError, match="missing"):
        CheckResult("c", witness="w")
    with pytest.raises(TypeError, match="positional argument"):
        Var("x", "y")
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        Var("x", label="y")
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        SuiteReport(name="s", checks=(), extra=1)
    with pytest.raises(TypeError, match="multiple values for argument"):
        Var("x", name="y")
    with pytest.raises(TypeError, match="multiple values for argument"):
        CheckResult("c", True, "w", check="d")


def test_reduction_result_keeps_transform_out_of_equality():
    res, twin = reduction(), reduction()
    assert res == twin and hash(res.reduced) == hash(twin.reduced)
    assert "transform" not in repr(res)
    assert repr(res) == repr(twin)
    assert repr(res).startswith("ReductionResult(reduced=CSPInstance(")
    for back in (pickle.loads(pickle.dumps(res)), copy.copy(res), copy.deepcopy(res)):
        assert back == res
        assert back.fiber_globals == res.fiber_globals == res.split.blocks
        assert back.transform({"x": 0, "y": 1}) == res.transform({"x": 0, "y": 1})
    for f in ("fiber_globals", "transform"):
        with pytest.raises(AttributeError):
            setattr(res, f, getattr(res, f))
        with pytest.raises(AttributeError):
            delattr(res, f)
