"""Tests for canonical forms and the model enumerator."""

import hashlib
import itertools
import random

import pytest

from cigroupoids.bolmoufang import decode
from cigroupoids.core import (
    ASSOCIATIVE_LAW,
    COMMUTATIVE_LAW,
    DISTRIBUTIVE_LAW,
    IDEMPOTENT_LAW,
    SQUAG_LAW,
    TWO_SEMILATTICE_LAW,
    BoundExceeded,
    CayleyTable,
    check_identity,
    check_property,
    format_alg,
    load_fixture,
    parse_identity,
)
from cigroupoids.search import (
    SearchSpec,
    _ground_instances,
    all_models,
    canonical_form,
    enumerate_models,
    find_separating_model,
    variety_identities,
)

SQUAG = load_fixture("fig4a")


def count_models(n: int, variety: str) -> int:
    """Isomorphism classes of size n in the variety (over the CI base)."""
    return len(all_models(n, variety_identities(variety)))


# --- canonical forms -----------------------------------------------------


def permute(g, perm):
    n = g.n
    inv = {perm[i]: i for i in range(n)}
    return CayleyTable(
        [[perm[g.rows[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    )


def test_canonical_iso_invariant():
    for perm in itertools.permutations(range(3)):
        assert canonical_form(permute(SQUAG, perm)) == canonical_form(SQUAG)


def test_canonical_idempotent():
    c = canonical_form(SQUAG)
    assert canonical_form(c) == c


def test_meet_join_semilattices_isomorphic():
    meet = CayleyTable([[0, 0], [0, 1]])
    join = CayleyTable([[0, 1], [1, 1]])
    assert canonical_form(meet) == canonical_form(join)


def test_fig2a_fig4a_not_isomorphic():
    assert canonical_form(load_fixture("fig2a")) != canonical_form(SQUAG)


def naive_canonical(g):
    """Lexicographically least relabeling, minimized over all n! permutations."""
    n = g.n

    def image(perm):
        inv = [0] * n
        for a, pa in enumerate(perm):
            inv[pa] = a
        return tuple(perm[g.rows[inv[i]][inv[j]]] for i in range(n) for j in range(n))

    best = min(image(perm) for perm in itertools.permutations(range(n)))
    return CayleyTable([best[i * n : (i + 1) * n] for i in range(n)])


def random_table(rng, n, commutative, idempotent):
    rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if commutative:
                rows[i][j] = rows[j][i]
        if idempotent:
            rows[i][i] = i
    return CayleyTable(rows)


def tie_heavy_table(rng, n):
    """Tables with large automorphism groups or many equal entries."""
    kind = rng.choice(["semilattice", "near-semilattice", "left-zero", "constant-rows"])
    if kind == "left-zero":
        rows = [[i] * n for i in range(n)]
    elif kind == "constant-rows":
        rows = [[rng.randrange(n)] * n for _ in range(n)]
    else:
        # meet in a random rooted tree: nearest common ancestor
        parent = [0] + [rng.randrange(i) for i in range(1, n)]

        def ancestors(a):
            out = [a]
            while a:
                a = parent[a]
                out.append(a)
            return out

        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            up = ancestors(a)
            for b in range(n):
                rows[a][b] = max(set(up) & set(ancestors(b)))
        if kind == "near-semilattice" and n > 1:
            a, b = rng.sample(range(n), 2)
            rows[a][b] = rows[b][a] = rng.randrange(n)
    perm = list(range(n))
    rng.shuffle(perm)
    return permute(CayleyTable(rows), perm)


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("idempotent", [True, False])
def test_canonical_matches_naive_oracle_random(commutative, idempotent):
    rng = random.Random(20150101 + 2 * commutative + idempotent)
    for n in range(1, 7):
        for _ in range(150 if n < 6 else 60):
            g = random_table(rng, n, commutative, idempotent)
            assert canonical_form(g) == naive_canonical(g), g


def test_canonical_matches_naive_oracle_tie_heavy():
    rng = random.Random(1995)
    for n in range(1, 7):
        for _ in range(150 if n < 6 else 100):
            g = tie_heavy_table(rng, n)
            assert canonical_form(g) == naive_canonical(g), g


# Tables whose rows are one value off the diagonal, so that the canonical
# form's bound goes on past row 0: the models of T2 and SL, chains, flat
# semilattices (all products of distinct elements are the bottom) and
# left-zero bands, where every relabeling ties.
def chain(n):
    return CayleyTable([[min(a, b) for b in range(n)] for a in range(n)])


def flat_semilattice(n):
    return CayleyTable([[a if a == b else 0 for b in range(n)] for a in range(n)])


def left_zero(n):
    return CayleyTable([[a] * n for a in range(n)])


def relabelings(rng, g, count):
    yield g
    for _ in range(count):
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield permute(g, perm)


@pytest.mark.parametrize("variety", ["T2", "SL"])
def test_canonical_matches_naive_oracle_on_models(variety):
    rng = random.Random(2014)
    for n in range(1, 7):
        models = all_models(n, variety_identities(variety))
        assert models
        for g in models:
            want = naive_canonical(g)
            for h in relabelings(rng, g, 2):
                assert canonical_form(h) == want, h


@pytest.mark.parametrize(
    "family, top", [(chain, 6), (flat_semilattice, 6), (left_zero, 5)]
)
def test_canonical_matches_naive_oracle_on_flat_rows(family, top):
    rng = random.Random(60)
    for n in range(1, top + 1):
        g = family(n)
        want = naive_canonical(g)
        for h in relabelings(rng, g, 4):
            assert canonical_form(h) == want, h


# --- enumeration ---------------------------------------------------------


def test_unique_3_element_squag():
    models = list(enumerate_models(SearchSpec(n=3, require=(SQUAG_LAW,))))
    assert len(models) == 1
    assert models[0] == canonical_form(SQUAG)


def test_unique_3_element_nonassociative_b13():
    models = list(
        enumerate_models(
            SearchSpec(n=3, require=(decode("B13"),), forbid=(ASSOCIATIVE_LAW,))
        )
    )
    assert len(models) == 1
    assert models[0] == canonical_form(load_fixture("fig4c"))


def test_single_2_element_ci_groupoid():
    models = list(enumerate_models(SearchSpec(n=2)))
    assert len(models) == 1
    assert check_property(models[0], "semilattice")


def naive_enumerate(n, require=(), forbid=(), commutative=True, idempotent=True):
    """Generate every table outright, filter, and dedup by the naive canonical form."""
    cells = [
        (i, j)
        for i in range(n)
        for j in range(i if commutative else 0, n)
        if not (idempotent and i == j)
    ]
    seen = set()
    for vals in itertools.product(range(n), repeat=len(cells)):
        rows = [[i] * n for i in range(n)]
        for (i, j), v in zip(cells, vals):
            rows[i][j] = v
            if commutative:
                rows[j][i] = v
        g = CayleyTable(rows)
        if all(check_identity(g, r) for r in require) and all(
            not check_identity(g, f) for f in forbid
        ):
            seen.add(naive_canonical(g))
    return sorted(seen, key=lambda t: t.rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matches_naive_oracle_unconstrained(n):
    fast = list(enumerate_models(SearchSpec(n=n)))
    slow = naive_enumerate(n)
    assert fast == slow


def test_matches_naive_oracle_constrained():
    c15 = decode("C15")
    fast = list(enumerate_models(SearchSpec(n=3, require=(c15,))))
    slow = naive_enumerate(3, require=(c15,))
    assert fast == slow
    fast = list(enumerate_models(SearchSpec(n=3, forbid=(ASSOCIATIVE_LAW,))))
    slow = naive_enumerate(3, forbid=(ASSOCIATIVE_LAW,))
    assert fast == slow


# Required identities whose ground instances move between watch lists as
# cells are filled: the golden streams only see their combined effect.
@pytest.mark.parametrize(
    "n, require, commutative, idempotent",
    [
        (4, (decode("C15"),), True, True),
        (4, (decode("A14"),), True, True),
        (4, (TWO_SEMILATTICE_LAW, DISTRIBUTIVE_LAW), True, True),
        (3, (decode("C15"),), False, True),
        (3, (DISTRIBUTIVE_LAW,), False, True),
        (3, (ASSOCIATIVE_LAW,), True, False),
        (1, (decode("C15"),), True, True),
        (1, (decode("C15"),), False, True),
        (1, (ASSOCIATIVE_LAW,), True, False),
    ],
    ids=["C15-n4", "A14-n4", "2SL+CID-n4", "C15-n3-noncomm", "CID-n3-noncomm",
         "assoc-n3-nonidem", "C15-n1", "C15-n1-noncomm", "assoc-n1-nonidem"],
)
def test_watch_lists_match_naive_oracle(n, require, commutative, idempotent):
    spec = SearchSpec(
        n=n, require=require, commutative=commutative, idempotent=idempotent
    )
    fast = list(enumerate_models(spec))
    slow = naive_enumerate(
        n, require=require, commutative=commutative, idempotent=idempotent
    )
    assert fast == slow
    assert fast


def test_base_laws_merge_instances_only_where_the_spec_assumes_them():
    # Modulo commutativity every instance of xy = yx is trivially true, and
    # modulo idempotence so is every instance of xx = x. Where the base does
    # not assume the law, its instances are real constraints: the models are
    # exactly the 7 commutative idempotent groupoids at n = 3.
    cases = [
        (COMMUTATIVE_LAW, dict(commutative=False), 138),
        (IDEMPOTENT_LAW, dict(idempotent=False), 129),
    ]
    for law, base, unconstrained in cases:
        assert len(list(enumerate_models(SearchSpec(3, **base)))) == unconstrained
        got = list(enumerate_models(SearchSpec(3, (law,), **base)))
        assert got == list(enumerate_models(SearchSpec(3))) == naive_enumerate(3)


# Ground instances of each variety's identities at n = 6, out of n^k per
# identity, that are kept once equal sides and repeated pairs of sides
# modulo commutativity and idempotence are merged.
KEPT_INSTANCES_N6 = {"T2": (216, 90), "T1": (432, 180), "S2": (648, 90),
                     "2SL": (1296, 270), "X": (1728, 345), "C": (648, 0)}


@pytest.mark.parametrize("variety", sorted(KEPT_INSTANCES_N6))
def test_ground_instances_kept_per_distinct_pair(variety):
    require = variety_identities(variety)
    total = sum(6 ** len(ident.compiled[0]) for ident in require)
    kept = _ground_instances(SearchSpec(6, require))
    assert (total, len(kept)) == KEPT_INSTANCES_N6[variety]
    # the same identities keep more instances on a base without
    # commutativity, and no fewer without idempotence (C's identities
    # follow from commutativity alone)
    assert len(_ground_instances(SearchSpec(6, require, commutative=False))) > len(kept)
    assert len(_ground_instances(SearchSpec(6, require, idempotent=False))) >= len(kept)


def test_identity_failing_before_any_cell_is_filled():
    # x = y has no product, so the root decides every ground instance: one
    # fails at n = 3 before cell 0 is filled, and at n = 1, where there is no
    # free cell, all hold and the single table is the model.
    trivial = parse_identity("x = y")
    for n, count in ((3, 0), (1, 1)):
        fast = list(enumerate_models(SearchSpec(n, (trivial,))))
        assert fast == naive_enumerate(n, require=(trivial,))
        assert len(fast) == count
    assert list(enumerate_models(SearchSpec(1, forbid=(SQUAG_LAW,)))) == []


def test_stream_sorted_and_canonical():
    out = list(enumerate_models(SearchSpec(n=4, require=(decode("C15"),))))
    assert out == sorted(out, key=lambda t: t.rows)
    for g in out:
        assert canonical_form(g) == g
        assert check_property(g, "commutative")
        assert check_property(g, "idempotent")
        assert check_identity(g, decode("C15"))


# Golden streams: (variety, n, commutative, idempotent, count, sha256 of the
# concatenated format_alg stream), recorded before the enumerator's partial
# table changed representation. Any change to the order, the content or the
# number of emitted models fails here. C at n=5 is the full CI n=5 search
# and too slow to pin.
GOLDEN_STREAMS = [
    ("CI", 1, True, True, 1, "5d90ef7fc0d040fd56a1e48697cfa99e0dfaf4fd803aefefc3b5053ec1d36aea"),
    ("CI", 2, True, True, 1, "55bc6ea841574879ce514f4e6c9761c42c1158c536a10c6cbb625d85d2de1afc"),
    ("CI", 3, True, True, 7, "3c8bd638b9447afc9d4964a682f5d7214a869c8e042267fcf5076312290b0c95"),
    ("CI", 4, True, True, 192, "ccb9e0c1df0c77df1bab984d108dbc89ac0ecb20c3131a505d2815609452e105"),
    ("C", 1, True, True, 1, "5d90ef7fc0d040fd56a1e48697cfa99e0dfaf4fd803aefefc3b5053ec1d36aea"),
    ("C", 2, True, True, 1, "55bc6ea841574879ce514f4e6c9761c42c1158c536a10c6cbb625d85d2de1afc"),
    ("C", 3, True, True, 7, "3c8bd638b9447afc9d4964a682f5d7214a869c8e042267fcf5076312290b0c95"),
    ("C", 4, True, True, 192, "ccb9e0c1df0c77df1bab984d108dbc89ac0ecb20c3131a505d2815609452e105"),
    ("2SL", 5, True, True, 119, "3f2154fe0b9c42cf0e783dc058a655c5ddd0bcabf2827557a7ac4a2c544e8255"),
    ("X", 5, True, True, 28, "088d54eed40adb63f2e128cde5ac0012dec7231b51abbc0f672b4d44e8edf497"),
    ("SL", 5, True, True, 15, "395a7148d19fe5f4fad6517dee21a9fabb4d7f82cac4cfa62407164590fd46de"),
    ("T2", 5, True, True, 21, "79816bfc783fd80c86c43fbd029de35548ae9d3cc2c2afee32f093b409a72c9c"),
    ("T1", 5, True, True, 21, "79816bfc783fd80c86c43fbd029de35548ae9d3cc2c2afee32f093b409a72c9c"),
    ("S2", 5, True, True, 52, "e4cfa6550538f153fbd5028b04bbd9a71847119268af66c46baf9f42a4d5168d"),
    ("S1", 5, True, True, 33, "55874d4aa964cc3cf5b9750b17417d0a83834cc34c2a54c4558c5f565c753a61"),
    ("squag", 5, True, True, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("CID", 5, True, True, 22, "3edb82d9c686d82ee7a912430aa4e5dba536d73905fb550aee0b0b3fe558a234"),
    ("CIE", 5, True, True, 22, "3edb82d9c686d82ee7a912430aa4e5dba536d73905fb550aee0b0b3fe558a234"),
    ("associative", 5, True, True, 15, "395a7148d19fe5f4fad6517dee21a9fabb4d7f82cac4cfa62407164590fd46de"),
    ("T1", 6, True, True, 75, "761f852307c0a7f052a57af6afde44b4ec284685e8a58fcc174ddae753e68db0"),
    ("T2", 6, True, True, 76, "c9f1c384cfc4f758acc7e9ca3e5a6e108d574d5561b416ace118a13a8019ce8b"),
    ("X", 6, True, True, 249, "24d3db8e4aeee69fe5f84effee40144f00e7f6513858644a2d1a9e5def93589a"),
    ("S1", 6, True, True, 148, "bdd2ba4f7bc03afe4b664ce770c1ca30c1cc882e36e95f272b8b91f10e02a333"),
    ("S2", 6, True, True, 358, "bfd955f8137db51200dedf7087e2fd1e9e00c71c0558464cd2ac17a0e637f551"),
    ("CI", 1, False, True, 1, "5d90ef7fc0d040fd56a1e48697cfa99e0dfaf4fd803aefefc3b5053ec1d36aea"),
    ("CI", 2, False, True, 3, "3ed4a642113cf42947a03faf5b936d1901a2ebd6782abb62ef33249e8983adf0"),
    ("CI", 3, False, True, 138, "746e05f1267e4cfc913f29c978d797aa7e37756376be741615d096a39cc5dd36"),
    ("CI", 3, True, False, 129, "ee015eb0b359ba4a7fef6a80624b28e5a60649480fdb83c5ac7572a2d53926c3"),
]


@pytest.mark.parametrize(
    "variety, n, commutative, idempotent, count, digest",
    GOLDEN_STREAMS,
    ids=[f"{v}-n{n}-c{int(c)}-i{int(i)}" for v, n, c, i, _, _ in GOLDEN_STREAMS],
)
def test_golden_stream(variety, n, commutative, idempotent, count, digest):
    spec = SearchSpec(
        n=n,
        require=variety_identities(variety),
        commutative=commutative,
        idempotent=idempotent,
    )
    h = hashlib.sha256()
    got = 0
    for g in enumerate_models(spec):
        h.update(format_alg(g).encode())
        got += 1
    assert (got, h.hexdigest()) == (count, digest)


# Golden streams of required identities on bases that are not commutative
# or not idempotent, recorded before ground instances were merged modulo
# the base laws: there, instances that agree only up to commutativity or
# idempotence are different constraints and must all be kept.
C15 = decode("C15")
GOLDEN_BASE_STREAMS = [
    ("CID", (DISTRIBUTIVE_LAW,), 1, False, True, 1, "5d90ef7fc0d040fd56a1e48697cfa99e0dfaf4fd803aefefc3b5053ec1d36aea"),
    ("CID", (DISTRIBUTIVE_LAW,), 2, False, True, 3, "3ed4a642113cf42947a03faf5b936d1901a2ebd6782abb62ef33249e8983adf0"),
    ("CID", (DISTRIBUTIVE_LAW,), 3, False, True, 17, "6c658fac48ad3d03e77db8e07112b8410a075332702db734db8d041e6f1e4a77"),
    ("C15", (C15,), 1, False, True, 1, "5d90ef7fc0d040fd56a1e48697cfa99e0dfaf4fd803aefefc3b5053ec1d36aea"),
    ("C15", (C15,), 2, False, True, 3, "3ed4a642113cf42947a03faf5b936d1901a2ebd6782abb62ef33249e8983adf0"),
    ("C15", (C15,), 3, False, True, 13, "70bc284c3c21b63f7ec426ad2a3647f57603c566edb0d31f9591eed6001ba2e2"),
    ("assoc", (ASSOCIATIVE_LAW,), 1, True, False, 1, "5d90ef7fc0d040fd56a1e48697cfa99e0dfaf4fd803aefefc3b5053ec1d36aea"),
    ("assoc", (ASSOCIATIVE_LAW,), 2, True, False, 3, "d16165faf16da407cb4a9b0693e8aef3b3fcc4b5729fd278d11fa479d56c93f1"),
    ("assoc", (ASSOCIATIVE_LAW,), 3, True, False, 12, "9749ea25bc390d0f2df2675f0a63a23d6669c8201eb8a2304b7aa5aa1e0182c0"),
    ("2SL-law", (TWO_SEMILATTICE_LAW,), 1, True, False, 1, "5d90ef7fc0d040fd56a1e48697cfa99e0dfaf4fd803aefefc3b5053ec1d36aea"),
    ("2SL-law", (TWO_SEMILATTICE_LAW,), 2, True, False, 2, "387417d78c4e1f6b9532a6cf08cfc3940f1e0087e044f48d6dfc26ff259164e1"),
    ("2SL-law", (TWO_SEMILATTICE_LAW,), 3, True, False, 7, "73300b6b05e2b00830e89010465c7028f118cd32ff217c9d2d628cb28dc21229"),
]


@pytest.mark.parametrize(
    "name, require, n, commutative, idempotent, count, digest",
    GOLDEN_BASE_STREAMS,
    ids=[f"{name}-n{n}-c{int(c)}-i{int(i)}" for name, _, n, c, i, _, _ in GOLDEN_BASE_STREAMS],
)
def test_golden_stream_off_the_ci_base(name, require, n, commutative, idempotent, count, digest):
    spec = SearchSpec(n, require, commutative=commutative, idempotent=idempotent)
    h = hashlib.sha256()
    got = 0
    for g in enumerate_models(spec):
        h.update(format_alg(g).encode())
        got += 1
    assert (got, h.hexdigest()) == (count, digest)


def test_determinism():
    spec = SearchSpec(n=4, require=(SQUAG_LAW,))
    assert list(enumerate_models(spec)) == list(enumerate_models(spec))


def test_noncommutative_base():
    # 2-element idempotent groupoids: both semilattices, left-zero, right-zero
    models = list(enumerate_models(SearchSpec(n=2, commutative=False)))
    assert len(models) == 3
    leftzero = canonical_form(load_fixture("leftzero"))
    assert leftzero in models


def test_bounds_enforced():
    with pytest.raises(BoundExceeded):
        list(enumerate_models(SearchSpec(n=6)))
    with pytest.raises(BoundExceeded):
        list(enumerate_models(SearchSpec(n=7, require=(SQUAG_LAW,))))
    with pytest.raises(BoundExceeded):
        find_separating_model([SQUAG_LAW], [], max_n=7)


def test_bound_follows_the_instances_kept():
    # C's identities keep none of their ground instances once sides are
    # merged modulo commutativity and idempotence, so C at n=6 is the
    # unconstrained CI search and fails fast; T2 keeps 90 and is allowed.
    with pytest.raises(BoundExceeded, match="no ground instance"):
        count_models(6, "C")
    assert count_models(6, "T2") == 76


def test_all_models_one_cache_key_per_value():
    all_models.cache_clear()
    all_models(3, ())
    all_models(3, ())
    info = all_models.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    with pytest.raises(TypeError):
        all_models(3)
    with pytest.raises(TypeError):
        all_models(3, (), True)
    with pytest.raises(TypeError):
        all_models(n=3, require=())


def test_require_forbid_overlap_rejected():
    with pytest.raises(ValueError):
        SearchSpec(n=3, require=(SQUAG_LAW,), forbid=(SQUAG_LAW,))


# --- separation search ---------------------------------------------------


def test_separate_t2_from_t1():
    g = find_separating_model([decode("C15")], [decode("A14")], max_n=6)
    assert g is not None
    assert g.n == 6
    assert g == canonical_form(load_fixture("fig3b"))


def test_separate_x_from_t2_s2():
    got = find_separating_model(
        [decode("A24")],
        [decode("C15"), decode("B12"), ASSOCIATIVE_LAW],
        max_n=4,
    )
    assert got is not None
    assert got.n == 4
    fig3a = load_fixture("fig3a")
    assert check_identity(fig3a, decode("A24"))
    assert not check_identity(fig3a, decode("C15"))
    assert not check_identity(fig3a, decode("B12"))
    assert not check_property(fig3a, "associative")


def test_associative_implies_all_bm():
    assert find_separating_model([ASSOCIATIVE_LAW], [decode("C15")], max_n=4) is None


# --- counting ------------------------------------------------------------


def test_count_squags():
    assert count_models(3, "squag") == 1
    assert count_models(1, "squag") == 1
    assert count_models(2, "squag") == 0


def test_count_singleton():
    for variety in ("C", "SL", "T1", "squag", "CI"):
        assert count_models(1, variety) == 1


def test_count_c_equals_all_ci():
    # the C-class identities follow from commutativity alone
    assert count_models(3, "C") == count_models(3, "CI")


def test_count_c_frozen():
    # value frozen from the naive first-run oracle (see tests below)
    assert count_models(3, "C") == 7
    assert naive_enumerate(3) == naive_enumerate(
        3, require=tuple(variety_identities("C"))
    )


def test_unknown_variety():
    with pytest.raises(ValueError):
        count_models(3, "Q")
