"""Tests for congruence computation and the lattice predicates.

The fast lattice code is checked against the slow definitions it replaced,
kept here as oracles: the all-pairs join closure, the filter of all set
partitions by compatibility, SD(∧) over every triple, and the height and
atoms read off the refinement order.
"""

import hashlib
import itertools
import random

import pytest

from cigroupoids.congruences import (
    CongruenceLattice,
    PartitionCongruence,
    all_congruences,
    from_pairs,
    is_compatible,
    is_sd_meet,
    join,
    meet,
    principal_congruence,
)
from cigroupoids.core import (
    FIXTURE_NAMES,
    BoundExceeded,
    CayleyTable,
    load_fixture,
    product_algebra,
)
from cigroupoids.plonka import adjoin_infinity
from cigroupoids.suites import reduction_templates

SQUAG = load_fixture("fig4a")
MEET2 = CayleyTable([[0, 0], [0, 1]])


def identity_congruence(n: int) -> PartitionCongruence:
    """The least congruence, Δ: every element in a block of its own."""
    return PartitionCongruence(tuple(range(n)))


def naive_principal(g, a, b):
    """Fixpoint oracle: relate, close under translations and transitivity."""
    n = g.n
    rel = {(x, x) for x in range(n)} | {(a, b), (b, a)}
    changed = True
    while changed:
        changed = False
        for (x, y) in list(rel):
            for c in range(n):
                for p in ((g.rows[x][c], g.rows[y][c]), (g.rows[c][x], g.rows[c][y])):
                    if p not in rel:
                        rel.add(p)
                        rel.add((p[1], p[0]))
                        changed = True
        for (x, y) in list(rel):
            for (y2, z) in list(rel):
                if y == y2 and (x, z) not in rel:
                    rel.add((x, z))
                    rel.add((z, x))
                    changed = True
    return from_pairs(n, rel)


def test_squag_principal_full():
    assert principal_congruence(SQUAG, 0, 1).blocks() == [(0, 1, 2)]


def test_principal_reflexive_pair():
    assert principal_congruence(SQUAG, 1, 1) == identity_congruence(3)


def test_adjoined_top_principal():
    g = adjoin_infinity(SQUAG)
    got = principal_congruence(g, 0, 1)
    assert got.blocks() == [(0, 1, 2), (3,)]


@pytest.mark.parametrize("bad", [-1, 3, 7])
def test_principal_rejects_an_element_outside_the_carrier(bad):
    # -1 once wrapped round to the last element and 3 raised IndexError
    for pair in ((bad, 0), (0, bad)):
        with pytest.raises(ValueError, match=f"element {bad} is outside 0..2"):
            principal_congruence(SQUAG, *pair)


def test_principal_is_compatible():
    for name in ("fig3a", "fig3b", "fig4b"):
        g = load_fixture(name)
        for a in range(g.n):
            for b in range(g.n):
                ok, _ = is_compatible(g, principal_congruence(g, a, b))
                assert ok


@pytest.mark.parametrize("size", [2, 4, 5])
def test_is_compatible_rejects_a_partition_of_another_size(size):
    # the scan over related pairs once answered (False, (0, 0, 0, 1)) for
    # the 4- and 5-element partitions and raised IndexError for the other
    part = PartitionCongruence([0, 0] + [1] * (size - 2))
    with pytest.raises(ValueError, match=f"partition of {size} elements .* table of 3 elements"):
        is_compatible(SQUAG, part)


def test_squag_simple():
    lat = all_congruences(SQUAG)
    assert len(lat.elements) == 2


def test_semilattice_2_simple():
    assert len(all_congruences(MEET2).elements) == 2


def test_squag_square_lattice_m4():
    sq = product_algebra(SQUAG, SQUAG)
    lat = all_congruences(sq)
    assert len(lat.elements) == 6
    assert len(lat.atoms()) == 4
    assert lat.height() == 2
    assert not is_sd_meet(lat)


def test_fig4c_sd_meet():
    lat = all_congruences(load_fixture("fig4c"))
    assert is_sd_meet(lat)


def test_two_element_lattice_sd_meet():
    lat = all_congruences(MEET2)
    assert is_sd_meet(lat)


def test_congruence_bound():
    big = CayleyTable([[0] * 13 for _ in range(13)])
    with pytest.raises(BoundExceeded):
        all_congruences(big)


@pytest.mark.parametrize("op", [join, meet])
def test_join_and_meet_reject_partitions_of_different_sizes(op):
    # both once failed with "zip() argument 2 is shorter than argument 1"
    p, q = identity_congruence(3), identity_congruence(4)
    name = op.__name__
    with pytest.raises(ValueError, match=f"partition of 3 elements and one of 4 elements have no {name}"):
        op(p, q)
    with pytest.raises(ValueError, match=f"partition of 4 elements and one of 3 elements have no {name}"):
        op(q, p)


def test_meet_join_lattice_ops():
    p = from_pairs(4, [(0, 1)])
    q = from_pairs(4, [(2, 3)])
    assert meet(p, q) == identity_congruence(4)
    assert join(p, q).blocks() == [(0, 1), (2, 3)]
    r = from_pairs(4, [(1, 2)])
    assert join(join(p, q), r).blocks() == [(0, 1, 2, 3)]


def test_lattice_closed_under_meet_and_join():
    lat = all_congruences(load_fixture("fig3b"))
    elems = set(lat.elements)
    for p, q in itertools.combinations(lat.elements, 2):
        assert meet(p, q) in elems
        assert join(p, q) in elems


def test_partition_normalization_enforced():
    assert PartitionCongruence((1, 0, 0)) == from_pairs(3, [(1, 2)])
    assert PartitionCongruence((1, 0, 0)).block_of == (0, 1, 1)


# --- oracles: the definitions the lattice code replaced ------------------


def chain(n):
    return CayleyTable([[max(a, b) for b in range(n)] for a in range(n)])


def left_zero(n):
    return CayleyTable([[a] * n for a in range(n)])


def naive_join(p, q):
    """Equivalence generated by both partitions' blocks."""
    pairs = [pr for part in (p, q) for blk in part.blocks() for pr in zip(blk, blk[1:])]
    return from_pairs(p.n, pairs)


def naive_meet(p, q):
    pairs = [
        (x, y)
        for x, y in itertools.combinations(range(p.n), 2)
        if p.related(x, y) and q.related(x, y)
    ]
    return from_pairs(p.n, pairs)


def naive_leq(p, q):
    return all(
        q.related(x, y)
        for x, y in itertools.combinations(range(p.n), 2)
        if p.related(x, y)
    )


def naive_all_congruences(g):
    """Principal congruences, then every pair re-joined until nothing is new."""
    n = g.n
    found = {identity_congruence(n)}
    for a in range(n):
        for b in range(a + 1, n):
            found.add(principal_congruence(g, a, b))
    changed = True
    while changed:
        changed = False
        for p, q in itertools.combinations(list(found), 2):
            j = naive_join(p, q)
            if j not in found:
                found.add(j)
                changed = True
    return tuple(sorted(found, key=lambda e: (e.num_blocks, e.block_of), reverse=True))


def set_partitions(n):
    """Every partition of range(n), as a normalized block array."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield PartitionCongruence(tuple(prefix))
            return
        for b in range(top + 2):
            yield from grow(prefix + [b], max(top, b))

    yield from grow([0], 0)


def filtered_partitions(g):
    return {p for p in set_partitions(g.n) if is_compatible(g, p)[0]}


def naive_height(elements):
    order = sorted(elements, key=lambda e: e.num_blocks, reverse=True)
    depth = {e: 0 for e in order}
    for i, e in enumerate(order):
        for f in order[:i]:
            if f != e and naive_leq(f, e):
                depth[e] = max(depth[e], depth[f] + 1)
    return max(depth.values())


def naive_atoms(elements):
    delta = identity_congruence(elements[0].n)
    return [
        e
        for e in elements
        if e != delta
        and not any(f != delta and f != e and naive_leq(f, e) for f in elements)
    ]


def naive_sd_meet(elements):
    """x∧y = x∧z implies x∧(y∨z) = x∧y, over every triple (operations tabulated)."""
    index = {e: i for i, e in enumerate(elements)}
    m = [[index[naive_meet(p, q)] for q in elements] for p in elements]
    j = [[index[naive_join(p, q)] for q in elements] for p in elements]
    r = range(len(elements))
    return all(
        m[x][y] != m[x][z] or m[x][j[y][z]] == m[x][y]
        for x in r
        for y in r
        for z in r
    )


def random_ci(rng, n):
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        rows[a][a] = a
        for b in range(a + 1, n):
            rows[a][b] = rows[b][a] = rng.randrange(n)
    return CayleyTable(rows)


def oracle_tables():
    """Named tables whose lattices have at most 64 elements."""
    rng = random.Random(2008)
    out = [(name, load_fixture(name)) for name in FIXTURE_NAMES]
    out += [(f"chain{n}", chain(n)) for n in range(1, 8)]
    out += [(f"leftzero{n}", left_zero(n)) for n in range(1, 6)]
    out += [
        ("squag^2", product_algebra(SQUAG, SQUAG)),
        ("squag x chain2", product_algebra(SQUAG, chain(2))),
        ("squag x chain3", product_algebra(SQUAG, chain(3))),
        ("squag x leftzero2", product_algebra(SQUAG, left_zero(2))),
        ("leftzero3 x squag", product_algebra(left_zero(3), SQUAG)),
        ("chain3 x leftzero2", product_algebra(chain(3), left_zero(2))),
        ("t1-sum-6 x chain2", product_algebra(reduction_templates()["t1-sum-6"], chain(2))),
        # SD(∧) fails at some principal congruences but not at the finest
        # or the coarsest one
        ("leftzero3 + 2 infinities", adjoin_infinity(adjoin_infinity(left_zero(3)))),
        ("chain2 x (leftzero3 + infinity)", product_algebra(chain(2), adjoin_infinity(left_zero(3)))),
    ]
    out += [(f"random CI n={n} #{k}", random_ci(rng, n)) for n in range(2, 7) for k in range(8)]
    out += [
        (f"random CI {a}x{b} #{k}", product_algebra(random_ci(rng, a), random_ci(rng, b)))
        for a, b in ((2, 2), (2, 3), (3, 3))
        for k in range(3)
    ]
    return out


ORACLE_TABLES = oracle_tables()
ORACLE_IDS = [name for name, _ in ORACLE_TABLES]
ORACLE_GS = [g for _, g in ORACLE_TABLES]


@pytest.mark.parametrize("g", ORACLE_GS, ids=ORACLE_IDS)
def test_lattice_matches_oracles(g):
    lat = all_congruences(g)
    elements = naive_all_congruences(g)
    assert len(elements) <= 64
    assert lat.elements == elements
    if g.n <= 6:
        assert set(elements) == filtered_partitions(g)
    assert lat.height() == naive_height(elements)
    assert lat.atoms() == naive_atoms(elements)
    assert is_sd_meet(lat) == naive_sd_meet(elements)


def test_principal_matches_oracle():
    # the oracle tables include left-zero bands and products that are not
    # commutative, where the rows and the columns differ or repeat
    for name, g in ORACLE_TABLES:
        for a in range(g.n):
            for b in range(a, g.n):
                assert principal_congruence(g, a, b) == naive_principal(g, a, b), (name, a, b)


def test_principals_are_the_distinct_nontrivial_principal_congruences():
    for g in ORACLE_GS:
        lat = all_congruences(g)
        expected = {naive_principal(g, a, b) for a, b in itertools.combinations(range(g.n), 2)}
        assert set(lat.principals) == expected
        assert len(lat.principals) == len(expected)
        assert list(lat.principals) == [e for e in lat.elements if e in expected]


def test_sweep_joins_only_where_it_steps_up(monkeypatch):
    # the sweep computes f∨j for a join-irreducible j exactly when f
    # separates the pair generating j, and then it lies strictly above f
    import cigroupoids.congruences as congruences

    sweep, plain_join = congruences._sweep, congruences._join

    for g in ORACLE_GS:
        made = []

        def recording_sweep(*args):
            # record only the sweep's joins, not those of the irreducibility test
            monkeypatch.setattr(congruences, "_join", lambda f, j: made.append((f, j)) or plain_join(f, j))
            try:
                return sweep(*args)
            finally:
                monkeypatch.setattr(congruences, "_join", plain_join)

        monkeypatch.setattr(congruences, "_sweep", recording_sweep)
        lat = all_congruences(g)
        monkeypatch.undo()
        assert all(plain_join(f, j) != f for f, j in made)
        expected = [
            (f.block_of, j.block_of)
            for f in lat.elements
            for j in lat.irreducibles
            if not naive_leq(j, f)
        ]
        assert made == expected


def naive_irreducibles(elements):
    """The elements other than the bottom that differ from the join of all
    elements strictly below them."""
    out = []
    for e in elements[1:]:
        below = identity_congruence(e.n)
        for f in elements:
            if f != e and naive_leq(f, e):
                below = naive_join(below, f)
        if below != e:
            out.append(e)
    return out


def golden_small_tables():
    """The tables of the golden lattice digest with n <= 8."""
    from cigroupoids.search import all_models

    tables = [load_fixture(name) for name in FIXTURE_NAMES]
    tables += [g for n in range(1, 5) for g in all_models(n, ())]
    tables += [chain(n) for n in range(1, 9)]
    tables += [left_zero(n) for n in range(1, 8)]
    return [g for g in tables if g.n <= 8]


def test_irreducibles_match_oracle():
    for g in ORACLE_GS + golden_small_tables():
        lat = all_congruences(g)
        assert list(lat.irreducibles) == naive_irreducibles(lat.elements)
        irreducible = set(lat.irreducibles)
        assert list(lat.irreducibles) == [p for p in lat.principals if p in irreducible]


def test_join_and_meet_match_oracles():
    rng = random.Random(4)
    for n in range(1, 9):
        parts = list(itertools.islice(set_partitions(n), 300))
        for _ in range(200):
            p, q = rng.choice(parts), rng.choice(parts)
            assert join(p, q) == naive_join(p, q)
            assert meet(p, q) == naive_meet(p, q)


# --- lattices past the old code's reach ----------------------------------
# (the 4-chain x 3-chain, 533 congruences, is pinned through the CLI in
# tests/test_cli.py)


def test_chain8_sd_meet():
    lat = all_congruences(chain(8))
    assert len(lat.elements) == 2**7
    assert (lat.height(), len(lat.atoms())) == (7, 7)
    assert is_sd_meet(lat)


def test_chain10_sd_meet():
    lat = all_congruences(chain(10))
    assert len(lat.elements) == 2**9
    assert (lat.height(), len(lat.atoms())) == (9, 9)
    assert is_sd_meet(lat)


def test_leftzero7_bell():
    lat = all_congruences(left_zero(7))
    assert len(lat.elements) == 877  # Bell(7): every partition is a congruence
    assert (lat.height(), len(lat.atoms())) == (6, 21)
    assert not is_sd_meet(lat)


def test_lattice_outputs_golden():
    # Pinned before the lattice came from one sweep with stored depths and
    # before partitions were normalized in one place: every element's block
    # array in order, the principals, height, atoms and SD(∧).
    from cigroupoids.search import all_models

    t1_sum6 = reduction_templates()["t1-sum-6"]
    tables = [load_fixture(name) for name in FIXTURE_NAMES]
    tables += [g for n in range(1, 5) for g in all_models(n, ())]
    tables += [chain(n) for n in range(1, 9)]
    tables += [left_zero(n) for n in range(1, 8)]
    tables += [
        product_algebra(SQUAG, SQUAG),
        product_algebra(SQUAG, chain(4)),
        product_algebra(t1_sum6, chain(2)),
        product_algebra(chain(4), chain(3)),
    ]
    out = []
    for g in tables:
        lat = all_congruences(g)
        out.append(
            (
                [e.block_of for e in lat.elements],
                [e.block_of for e in lat.principals],
                lat.height(),
                [e.block_of for e in lat.atoms()],
                is_sd_meet(lat),
            )
        )
    assert len(tables) == 229
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "76a2889bbcbca9f2243e1f9fdfe25f9d405a320981a67f80b453165569dae9c9"
    )
