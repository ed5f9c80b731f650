"""The row scans of the Płonka and congruence layers against the naive scans.

`naive_laws` is the element-by-element scan that `plonka.LAWS` replaced:
P1..P5 as generator expressions over every tuple of elements. The row
scans must give the same verdict and the same first witness, in the same
scan order, and each law the same full list of failing tuples.
`naive_is_compatible` is compatibility as four nested loops over pairs of
related elements; `congruences.is_compatible` is the same scan over one
flat list of related pairs, and must give the same verdict and witness.
"""

import hashlib
import itertools
import random

from cigroupoids.congruences import (
    PartitionCongruence,
    is_compatible,
    principal_congruence,
)
from cigroupoids.core import FIXTURE_NAMES, CayleyTable, load_fixture, parse_term, power_term
from cigroupoids.plonka import (
    LAWS,
    STANDARD_JOIN,
    _columns,
    check_pseudopartition,
    join_matrix,
    make_system,
    plonka_sum,
    sigma,
)
from cigroupoids.search import all_models, variety_identities
from test_congruences import from_pairs, identity_congruence

JOINS = (STANDARD_JOIN, parse_term("(x y)"), power_term(2))

naive_laws = (
    ("P1", lambda r, j, k: ((x,) for x in k if j[x][x] != x)),
    ("P2", lambda r, j, k: (
        (x, y, z) for x in k for y in k for z in k
        if j[j[x][y]][z] != j[x][j[y][z]]
    )),
    ("P3", lambda r, j, k: (
        (x, y, z) for x in k for y in k for z in k
        if j[x][j[y][z]] != j[x][j[z][y]]
    )),
    ("P4", lambda r, j, k: (
        (y, x1, x2) for y in k for x1 in k for x2 in k
        if j[y][r[x1][x2]] != j[j[y][x1]][x2]
    )),
    ("P5", lambda r, j, k: (
        (x1, x2, y) for x1 in k for x2 in k for y in k
        if j[r[x1][x2]][y] != r[j[x1][y]][j[x2][y]]
    )),
)


def naive_witnesses(g, join):
    """Each failing law's first failing tuple, by the naive scans."""
    jm = join_matrix(g, join)
    wit = {}
    for name, failures in naive_laws:
        w = next(failures(g.rows, jm, range(g.n)), None)
        if w is not None:
            wit[name] = w
    return wit


def naive_is_compatible(g, part):
    """Check a≡a' and b≡b' imply ab≡a'b'; return a witness on failure."""
    blocks = part.blocks()
    for blk_a in blocks:
        for a, a2 in itertools.product(blk_a, repeat=2):
            for blk_b in blocks:
                for b, b2 in itertools.product(blk_b, repeat=2):
                    if not part.related(g.rows[a][b], g.rows[a2][b2]):
                        return False, (a, a2, b, b2)
    return True, None


# --- inputs ------------------------------------------------------------------


def random_table(rng, n, kind):
    """A random table: commutative idempotent, idempotent, or arbitrary."""
    rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    if kind != "any":
        for a in range(n):
            rows[a][a] = a
    if kind == "ci":
        for a in range(n):
            for b in range(a):
                rows[a][b] = rows[b][a]
    return CayleyTable(rows)


def random_tables(seed, count):
    rng = random.Random(seed)
    kinds = ("ci", "idempotent", "any")
    return [random_table(rng, 1 + i % 8, kinds[i % 3]) for i in range(count)]


def pinned_tables():
    """Every fixture, the T1 and T2 models with n <= 6, 200 random tables."""
    tables = [load_fixture(name) for name in FIXTURE_NAMES]
    for variety in ("T1", "T2"):
        tables += [g for n in range(1, 7) for g in all_models(n, variety_identities(variety))]
    return tables + random_tables(16, 200)


def random_partition(rng, n):
    return PartitionCongruence([rng.randrange(max(1, n // 2)) for _ in range(n)])


def sigma_candidate(g, join=STANDARD_JOIN):
    """The equivalence generated by a σ b, before any congruence check."""
    jm = join_matrix(g, join)
    return from_pairs(g.n, [
        (a, b) for a in range(g.n) for b in range(a + 1, g.n)
        if jm[a][b] == a and jm[b][a] == b
    ])


def partitions(g, rng):
    """Partitions where both verdicts occur: principal congruences, the
    σ candidate, the identity, the full relation and random partitions."""
    n = g.n
    out = [identity_congruence(n), PartitionCongruence([0] * n), sigma_candidate(g)]
    out += [principal_congruence(g, a, b) for a in range(n) for b in range(a + 1, n)]
    out += [random_partition(rng, n) for _ in range(4)]
    return out


def squag_power(d, x, y):
    """x*y = -(x+y) coordinatewise on Z3^d, elements as base-3 numbers."""
    out, scale = 0, 1
    for _ in range(d):
        out += ((-(x % 3) - (y % 3)) % 3) * scale
        x, y, scale = x // 3, y // 3, scale * 3
    return out


def big_sum(seed):
    """A Płonka sum of squags Z3^d with at least 40 elements, relabeled.

    The replica is the join-semilattice of the 3-bit masks. Fiber dimensions
    do not grow along the order, and each map keeps the low base-3 digits,
    so the maps compose and are homomorphisms.
    """
    rng = random.Random(seed)
    masks = list(range(8))
    replica = CayleyTable([[s | t for t in masks] for s in masks])
    while True:
        weights = [rng.randint(0, 1) for _ in range(3)]
        top = rng.randint(2, 4)
        dims = [
            min(2, max(0, top - sum(w for i, w in enumerate(weights) if m >> i & 1)))
            for m in masks
        ]
        if sum(3**d for d in dims) >= 40:
            break
    fibers = [
        CayleyTable([[squag_power(d, i, j) for j in range(3**d)] for i in range(3**d)])
        for d in dims
    ]
    maps = {
        (s, t): tuple(i % 3 ** dims[t] for i in range(3 ** dims[s]))
        for s in masks for t in masks if s | t == t
    }
    g = plonka_sum(make_system(replica, fibers, maps))
    labels = list(range(g.n))
    rng.shuffle(labels)
    rows = [[0] * g.n for _ in range(g.n)]
    for a in range(g.n):
        for b in range(g.n):
            rows[labels[a]][labels[b]] = labels[g.rows[a][b]]
    return CayleyTable(rows)


# --- pinned digests ----------------------------------------------------------


def test_law_witnesses_golden():
    # Pinned before P1..P5 were scanned row by row: every status and
    # witness, for three joins, on the fixtures, T1/T2 and random tables.
    tables = pinned_tables()
    out = []
    for g in tables:
        for join in JOINS:
            st = check_pseudopartition(g, join)
            out.append((str(st), sorted(st.witnesses.items())))
    assert len(tables) == 426
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "030be8a36fcd82f25e4d08cadedbd89b8178e1c2a2a4b9ae195d5a3959491c02"
    )


def test_compatibility_witnesses_golden():
    # Pinned before compatibility compared mapped rows: every verdict and
    # witness on the partitions of `partitions`, on the same tables.
    rng = random.Random(2008)
    out = [is_compatible(g, p) for g in pinned_tables() for p in partitions(g, rng)]
    assert (len(out), sum(ok for ok, _ in out)) == (7914, 6690)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "268fbff711ee62ff3c7e02c50a315695aae60d50f51257224ffcbddaa2b22975"
    )


# --- row scans against the naive scans ----------------------------------------


def perturbed(g, rng):
    """g with one cell set to another value, so that some laws fail."""
    rows = [list(r) for r in g.rows]
    a, b = rng.randrange(g.n), rng.randrange(g.n)
    rows[a][b] = (rows[a][b] + 1 + rng.randrange(g.n - 1)) % g.n
    return CayleyTable(rows)


def test_laws_match_naive_on_small_tables():
    tables = [load_fixture(name) for name in FIXTURE_NAMES] + random_tables(3, 300)
    failed = {name: 0 for name, _ in LAWS}
    for g in tables:
        for join in JOINS:
            wit = check_pseudopartition(g, join).witnesses
            assert wit == naive_witnesses(g, join), (g, join)
            for name in wit:
                failed[name] += 1
    # every law fails somewhere, so every witness order is compared
    assert all(count >= 20 for count in failed.values()), failed


def test_laws_match_naive_on_big_sums():
    rng = random.Random(45)
    failed = set()
    for seed in (1, 2, 3):
        g = big_sum(seed)
        assert g.n >= 40
        assert check_pseudopartition(g).all_five
        assert naive_witnesses(g, STANDARD_JOIN) == {}
        for _ in range(4):
            h = perturbed(g, rng)
            wit = check_pseudopartition(h).witnesses
            assert wit == naive_witnesses(h, STANDARD_JOIN)
            failed |= set(wit)
    assert failed >= {"P2", "P3", "P4", "P5"}


def failure_lists(g, join):
    """Each law's full list of failing tuples, by `LAWS` and by the naive
    scans, so the whole scan order is compared and not only the witness."""
    jm = join_matrix(g, join)
    k = range(g.n)
    columns = _columns(jm)
    fast = {name: list(failures(g.rows, jm, k, *columns)) for name, failures in LAWS}
    naive = {name: list(failures(g.rows, jm, k)) for name, failures in naive_laws}
    return fast, naive


def all_tables(n):
    return [
        CayleyTable([cells[a * n:(a + 1) * n] for a in range(n)])
        for cells in itertools.product(range(n), repeat=n * n)
    ]


def test_law_failures_match_naive_in_full():
    # the joins x (every column of j equal) and y (every row equal) are the
    # extremes of the column cut; n = 1 and 2 are the widths where an
    # itemgetter over the columns returns a bare value
    joins = JOINS + (parse_term("x"), parse_term("y"))
    tables = all_tables(1) + all_tables(2) + random_tables(7, 200)
    tables += [g for v in ("T1", "T2") for n in range(1, 7) for g in all_models(n, variety_identities(v))]
    failed = {name: 0 for name, _ in LAWS}
    repeated = 0
    for g in tables:
        for join in joins:
            fast, naive = failure_lists(g, join)
            assert fast == naive, (g, join)
            for name, tuples in fast.items():
                failed[name] += bool(tuples)
            repeated += len(_columns(join_matrix(g, join))[2]) < g.n
    assert all(count >= 20 for count in failed.values()), failed
    assert repeated >= 500


def test_law_failures_match_naive_in_repeated_columns_of_big_sums():
    # a cell in a column of j that repeats an earlier column, so the cut
    # compares that column only at its first occurrence
    rng = random.Random(17)
    failed = set()
    for seed in (1, 2, 3):
        g = big_sum(seed)
        _, first, firsts = _columns(join_matrix(g, STANDARD_JOIN))
        assert len(firsts) < g.n
        later = [b for b in range(g.n) if first[b] != b]
        for _ in range(2):
            a, b = rng.randrange(g.n), rng.choice(later)
            rows = [list(r) for r in g.rows]
            rows[a][b] = (rows[a][b] + 1 + rng.randrange(g.n - 1)) % g.n
            h = CayleyTable(rows)
            fast, naive = failure_lists(h, STANDARD_JOIN)
            assert fast == naive
            failed |= {name for name, tuples in fast.items() if tuples}
    assert failed >= {"P2", "P3", "P4", "P5"}, failed


def test_is_compatible_matches_naive_on_small_tables():
    rng = random.Random(59)
    verdicts = set()
    for g in [load_fixture(name) for name in FIXTURE_NAMES] + random_tables(5, 300):
        for part in partitions(g, rng):
            got = is_compatible(g, part)
            assert got == naive_is_compatible(g, part), (g, part)
            verdicts.add(got[0])
    assert verdicts == {True, False}


def test_is_compatible_matches_naive_on_big_sums():
    rng = random.Random(40)
    verdicts = []
    for seed in (1, 2, 3):
        g = big_sum(seed)
        s = sigma(g)
        blocks = s.blocks()
        merged = [0 if b == 1 else b for b in s.block_of]
        split = [s.num_blocks if x == blocks[0][0] else b for x, b in enumerate(s.block_of)]
        parts = [s, PartitionCongruence(merged), PartitionCongruence(split)]
        parts += [principal_congruence(g, *rng.sample(range(g.n), 2)) for _ in range(3)]
        parts += [random_partition(rng, g.n) for _ in range(3)]
        for part in parts:
            got = is_compatible(g, part)
            assert got == naive_is_compatible(g, part)
            verdicts.append(got[0])
    assert True in verdicts and False in verdicts
