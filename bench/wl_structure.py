"""The `structure` workload: congruence lattices and Płonka decompositions.

Two sizes of input, so that closure cost and triple cost separate:

* A few large lattices, the same for every seed: the 6-chain semilattice
  (32 congruences), the 6-element left-zero band (203), the square of the
  squag (6), squag x 4-chain (28) and t1-sum-6 x 2-chain (25). Each item runs
  `all_congruences`, `is_sd_meet`, `height` and `atoms`.
* Many small tables drawn from the seed: a hundred Płonka sums of squags
  Z3^k, twenty each of 4, 5, 6, 7 and 8 elements, each running `all_congruences`, then
  `check_pseudopartition` -> `decompose` -> `plonka_sum`; plus two sums of
  about 48 elements that run the Płonka chain only, so P1-P5 do real work.

References are computed here, independently of the package: closed forms
(an n-chain has 2^(n-1) congruences and is SD(meet); an n-element left-zero
band has Bell(n) and is not, for n >= 3; the squag square has 6, 4 atoms,
height 2, not SD(meet)), a worklist closure of principal congruences, a
filter of all set partitions by compatibility for n <= 6, P1-P5 holding on
every Płonka sum, and `plonka_sum(decompose(g)) == g`.

The probe, `all_congruences` on the 12-element semilattice 4-chain x
3-chain, is inside the documented bound n <= 12 but did not finish at the
seed; it stays an item under the deadline.
"""

from __future__ import annotations

import itertools
import random
from math import comb

from cigroupoids import congruences, core, plonka, suites
from harness import Item, Workload, setup_command

DEADLINE_S = 5.0  # about 3x the slowest regular item
PROBE_DEADLINE_S = 2.0
SMALL_SUMS = 100
BIG_SUMS = 2


# ---------------------------------------------------------------------------
# Inputs


def chain(n: int) -> core.CayleyTable:
    return core.CayleyTable([[max(a, b) for b in range(n)] for a in range(n)])


def left_zero(n: int) -> core.CayleyTable:
    return core.CayleyTable([[a] * n for a in range(n)])


def chain_product(m: int, k: int) -> core.CayleyTable:
    """The semilattice m-chain x k-chain, element (a, b) encoded as a*k + b."""
    n = m * k
    return core.CayleyTable([
        [max(x // k, y // k) * k + max(x % k, y % k) for y in range(n)] for x in range(n)
    ])


def squag_power(d: int, x: int, y: int) -> int:
    """x*y = -(x+y) coordinatewise on Z3^d, elements as base-3 numbers."""
    out, scale = 0, 1
    for _ in range(d):
        out += ((-(x % 3) - (y % 3)) % 3) * scale
        x, y, scale = x // 3, y // 3, scale * 3
    return out


def plonka_sum_table(rng: random.Random, bits: int, max_dim: int, lo: int, hi: int) -> tuple[core.CayleyTable, int]:
    """A random Płonka sum of squags Z3^k over a join-semilattice of bit masks.

    Fiber dimensions fall as masks grow, and the map from a fiber to one
    above it keeps the leading coordinates, so the maps compose and are
    homomorphisms. Elements are shuffled so fibers are not contiguous.
    Returns the table and its number of fibers.
    """
    while True:
        masks = {rng.randrange(1 << bits) for _ in range(rng.randint(1, bits + 1))}
        grown = True
        while grown:
            new = {a | b for a in masks for b in masks} - masks
            grown = bool(new)
            masks |= new
        masks = sorted(masks)
        weights = [rng.randint(0, 2) for _ in range(bits)]
        top = rng.randint(0, 2 * bits)
        dims = [
            min(max_dim, max(0, top - sum(w for i, w in enumerate(weights) if m >> i & 1)))
            for m in masks
        ]
        n = sum(3**d for d in dims)
        if lo <= n <= hi:
            break
    index = {m: s for s, m in enumerate(masks)}
    members = [(s, i) for s, d in enumerate(dims) for i in range(3**d)]
    labels = list(range(n))
    rng.shuffle(labels)
    label = {e: labels[k] for k, e in enumerate(members)}
    rows = [[0] * n for _ in range(n)]
    for (s, i), (t, j) in itertools.product(members, repeat=2):
        u = index[masks[s] | masks[t]]
        size = 3 ** dims[u]
        rows[label[(s, i)]][label[(t, j)]] = label[(u, squag_power(dims[u], i % size, j % size))]
    return core.CayleyTable(rows), len(masks)


# ---------------------------------------------------------------------------
# Independent references


def _blocks_key(block_of) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(b, len(seen)) for b in block_of)


def _compatible(g: core.CayleyTable, key: tuple[int, ...]) -> bool:
    n = g.n
    cls = [[] for _ in range(max(key) + 1)]
    for x, b in enumerate(key):
        cls[b].append(x)
    rep = [c[0] for c in cls]
    for x in range(n):
        rx = rep[key[x]]
        for y in range(n):
            ry = rep[key[y]]
            if key[g.rows[x][y]] != key[g.rows[rx][ry]]:
                return False
    return True


def _join(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    parent = list(range(len(p)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for part in (p, q):
        first: dict[int, int] = {}
        for x, b in enumerate(part):
            if b in first:
                ra, rb = find(first[b]), find(x)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            else:
                first[b] = x
    return _blocks_key([find(x) for x in range(len(p))])


def _principal(g: core.CayleyTable, a: int, b: int) -> tuple[int, ...]:
    """Least congruence containing (a, b): merge translates of related pairs to a fixpoint."""
    n = g.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    union(a, b)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(x + 1, n):
                if find(x) == find(y):
                    for z in range(n):
                        changed |= union(g.rows[x][z], g.rows[y][z])
                        changed |= union(g.rows[z][x], g.rows[z][y])
    return _blocks_key([find(x) for x in range(n)])


def lattice_reference(g: core.CayleyTable) -> frozenset:
    """Every congruence: joins of principal ones, by a worklist."""
    n = g.n
    principals = {_principal(g, a, b) for a in range(n) for b in range(a + 1, n)}
    found = {tuple(range(n))} | principals
    work = list(principals)
    while work:
        p = work.pop()
        for q in principals:
            j = _join(p, q)
            if j not in found:
                found.add(j)
                work.append(j)
    return frozenset(found)


def set_partitions(n: int):
    """All partitions of range(n) as normalized block keys (restricted growth strings)."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(top + 2):
            yield from grow(prefix + [b], max(top, b))

    yield from grow([0], 0)


def _leq(p, q) -> bool:
    return all(q[x] == q[y] for x in range(len(p)) for y in range(x) if p[x] == p[y])


def _meet(p, q):
    return _blocks_key(list(zip(p, q)))


def order_facts(elements: frozenset) -> tuple[int, int]:
    """(height, number of atoms) of a lattice of partitions."""
    elems = sorted(elements, key=lambda e: -len(set(e)))
    depth = {}
    for i, e in enumerate(elems):
        depth[e] = max((depth[f] + 1 for f in elems[:i] if _leq(f, e)), default=0)
    atoms = sum(1 for e in elems if depth[e] == 1)
    return max(depth.values()), atoms


def sd_meet_reference(elements: frozenset) -> bool:
    for x, y, z in itertools.product(elements, repeat=3):
        if _meet(x, y) == _meet(x, z) and _meet(x, _join(y, z)) != _meet(x, y):
            return False
    return True


def bell(n: int) -> int:
    return 1 if n == 0 else sum(bell(k) * comb(n - 1, k) for k in range(n))


def filtered_partitions(g: core.CayleyTable) -> frozenset:
    return frozenset(p for p in set_partitions(g.n) if _compatible(g, p))


# ---------------------------------------------------------------------------
# Items


def _lattice_item(name: str, g: core.CayleyTable, closed: dict | None) -> Item:
    def run(ctx):
        lat = congruences.all_congruences(g)
        return (
            frozenset(e.block_of for e in lat.elements),
            congruences.is_sd_meet(lat),
            lat.height(),
            len(lat.atoms()),
        )

    def reference():
        elements = lattice_reference(g)
        if g.n <= 6 and elements != filtered_partitions(g):
            raise ValueError("closure and partition filter disagree")
        height, atoms = order_facts(elements)
        if closed is None:
            return elements, sd_meet_reference(elements), height, atoms
        if (len(elements), height, atoms) != (closed["count"], closed["height"], closed["atoms"]):
            raise ValueError("closure disagrees with the closed form")
        return elements, closed["sd"], height, atoms

    return Item(name, run, _checker(reference), DEADLINE_S)


def _plonka_chain(g: core.CayleyTable):
    status = plonka.check_pseudopartition(g)
    system = plonka.decompose(g)
    return status.all_five, len(system.fibers), plonka.plonka_sum(system) == g


def _sum_item(name: str, g: core.CayleyTable, fibers: int, with_lattice: bool) -> Item:
    def run(ctx):
        elements = None
        if with_lattice:
            elements = frozenset(e.block_of for e in congruences.all_congruences(g).elements)
        return elements, _plonka_chain(g)

    def reference():
        elements = None
        if with_lattice:
            elements = lattice_reference(g)
            if g.n <= 6 and elements != filtered_partitions(g):
                raise ValueError("closure and partition filter disagree")
        return elements, (True, fibers, True)

    return Item(name, run, _checker(reference), DEADLINE_S)


def _checker(reference):
    memo = []

    def check(out) -> bool:
        if not memo:
            memo.append(reference())
        return out == memo[0]

    return check


def _probe_item() -> Item:
    g = chain_product(4, 3)

    def run(ctx):
        return frozenset(e.block_of for e in congruences.all_congruences(g).elements)

    return Item("probe all_congruences 4-chain x 3-chain", run,
                lambda out: out == lattice_reference(g), PROBE_DEADLINE_S, probe=True)


def build(seed: int) -> Workload:
    rng = random.Random(seed)
    squag = core.load_fixture("fig4a")
    t1_sum6 = suites.reduction_templates()["t1-sum-6"]
    items = [
        _lattice_item("chain6", chain(6), {"count": 32, "height": 5, "atoms": 5, "sd": True}),
        _lattice_item("leftzero6", left_zero(6),
                      {"count": bell(6), "height": 5, "atoms": 15, "sd": False}),
        _lattice_item("squag^2", core.product_algebra(squag, squag),
                      {"count": 6, "height": 2, "atoms": 4, "sd": False}),
        _lattice_item("squag x 4-chain", core.product_algebra(squag, chain(4)), None),
        _lattice_item("t1-sum-6 x 2-chain", core.product_algebra(t1_sum6, chain(2)), None),
        _probe_item(),
    ]
    for k in range(SMALL_SUMS):
        n = 4 + k % 5  # sizes 4..8 in equal numbers, so the item mix does not drift with the seed
        g, fibers = plonka_sum_table(rng, bits=2, max_dim=1, lo=n, hi=n)
        items.append(_sum_item(f"small sum {k} n={g.n}", g, fibers, with_lattice=True))
    for k in range(BIG_SUMS):
        g, fibers = plonka_sum_table(rng, bits=4, max_dim=2, lo=40, hi=56)
        items.append(_sum_item(f"big sum {k} n={g.n}", g, fibers, with_lattice=False))
    return Workload(items, in_process=True, setup_cmd=setup_command("structure", seed))
