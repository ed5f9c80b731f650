"""Semilattice decompositions of groupoids.

A binary term x∨y is a pseudopartition operation for a groupoid when the
first four of five identities P1..P4 hold (P5 is extra):

    P1  x∨x = x
    P2  (x∨y)∨z = x∨(y∨z)
    P3  x∨(y∨z) = x∨(z∨y)
    P4  y∨(x1·x2) = (y∨x1)∨x2
    P5  (x1·x2)∨y = (x1∨y)·(x2∨y)

Under P1..P4 the relation a σ b iff a∨b=a and b∨a=b is a congruence whose
classes are subgroupoids and whose quotient is a semilattice (Płonka, "On
a method of construction of abstract algebras", Fund. Math. 61, 1967); the
groupoid is then a disjoint union of its σ-classes glued along that
semilattice. When P5 also holds, the maps x -> x∨b between classes are
homomorphisms and the groupoid is a full Płonka sum: the product of
elements in different fibers is computed by pushing both into the join
fiber first.

The part of the theorem this module relies on follows from P1..P4 alone,
with neither idempotence nor commutativity of ·. P2 and P3 give
(x∨y)∨z = (x∨z)∨y, so with P1, (x∨y)∨y = x∨y = (x∨y)∨x. P4 at y = uv
and P1 give uv = ((uv)∨u)∨v, and then these give (uv)∨u = uv = (uv)∨v.
- σ is an equivalence: reflexive by P1, symmetric by definition, and if
  a σ b σ c then a∨c = (a∨b)∨c = a∨(b∨c) = a∨b = a by P2, and c∨a = c
  likewise.
- σ is compatible with · on both sides. If w∨u = w and u σ u', then
  w∨u' = (w∨u)∨u' = w∨(u∨u') = w. So for a σ a', (ab)∨a' = ab, and by P4
  (ab)∨(a'b) = ((ab)∨a')∨b = (ab)∨b = ab; swapping a and a' gives
  ab σ a'b. Likewise (ba)∨(ba') = ((ba)∨b)∨a' = (ba)∨a' = ba.
- Each class is closed under ·: a∨(ab) = (a∨a)∨b = a∨b by P4 and P1, so
  a σ b gives a∨(ab) = a, and with (ab)∨a = ab, ab σ a.
- The maps land in the right fiber: if xb σ b, then
  b = b∨(xb) = (b∨x)∨b = (b∨b)∨x = b∨x, so b∨(x∨b) = (b∨x)∨b = b and
  (x∨b)∨b = x∨b, that is x∨b σ b.

The candidate join used throughout the workbench is x∨y = y·(x·y).

P1..P5 are written once, as the rows of `LAWS`: a law's name and the
tuples where it fails on the tabulated join j, in the lexicographic order
of the law's variables as listed above, so the first failing tuple is the
witness. The scans compare whole rows rather than single elements, and
they tabulate j's columns once. Where columns z and z' of j are equal, a
law that reads a variable only through its column of j fails at z'
exactly where it fails at z, so that variable is compared at the first
index of each distinct column only. In a Płonka sum x∨y depends on y only
through y's σ-class, so j has one distinct column per class, and with c
classes P2..P5 take about n²·c steps rather than n³.
- P2 reads z through column z of j on both sides: (x∨y)∨z is that column
  at x∨y, and x∨(y∨z) is row x at that column's value at y. Each (x, y)
  compares row x∨y of j with row y mapped through row x, at the first
  indices.
- P3 fails at x exactly when row x of j separates y∨z from z∨y, that is,
  when columns y∨z and z∨y of j differ at x, so a pair whose two sides
  name equal columns never fails. The pairs with different columns are
  collected once, and each x is compared on them only.
- P4 reads x1 through column x1 of j, as y∨x1, and through the columns of
  j that row x1 of the table names, as y∨(x1·x2). Two x1 that agree on
  both fail at the same (y, x2), so each y compares one x1 per class.
  When every column is distinct, every class is one x1 and none is built.
- P5 reads y through column y of j only, the map x -> x∨y that must be a
  homomorphism: (x1·x2)∨y and (x1∨y)·(x2∨y) read that column at x1·x2, x1
  and x2. Each x1 compares the distinct columns, each for all x2 at once.
Only a comparison that fails is scanned element by element, over every
index, so each law yields the same tuples in the same order as a scan
over every tuple, and its witness is that scan's first.

`fiber_split` tabulates the join, checks P1..P5 and builds σ once each,
and returns the status with one immutable `FiberSplit`, the record that
`decompose`, `sigma` and `csp.reduce_instance` all read. P1..P4 are the
only check it makes: by the proof above σ is then a congruence with
closed classes, so it is built straight from its rows. Row a lists the b
with a∨b = a and b∨a = b, which is a's class; the classes are the
distinct rows, in order of least element. The replica's semilattice law
is checked where every `PlonkaSystem` is built.

A `PlonkaSystem`'s contract is checked in its `__init__` only, which
every builder goes through: one fiber and one globals entry per replica
element, each globals entry as long as its fiber, globals partitioning
0..n-1, a semilattice replica, and maps, when present, on exactly the
pairs s ≤ t, each the identity on s -> s, a homomorphism, and composing.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import chain, compress, count, product, starmap
from operator import itemgetter, ne
from types import MappingProxyType

from cigroupoids.core import (
    STANDARD_JOIN,
    CayleyTable,
    Term,
    _Record,
    check_property,
    compile_term,
    format_alg,
    parse_alg,
    parse_int,
    term_function,
    variables,
)


class NotPseudopartition(Exception):
    """P1..P4 do not all hold for the given groupoid and join term."""


class MissingFiberMaps(Exception):
    """The system has no (or incomplete) fiber maps, so it cannot be summed."""


class EvenModulus(Exception):
    """The cyclic construction needs an odd modulus."""


class NotCID(Exception):
    """The table is not a commutative idempotent distributive groupoid."""


class NoExponent(Exception):
    """No power of y gave a pseudopartition operation within the bound."""


def join_matrix(g: CayleyTable, join: Term) -> list[list[int]]:
    """Tabulate a∨b for all pairs; join must use only variables x and y."""
    names = set(variables(join))
    if not names <= {"x", "y"}:
        raise ValueError(f"join term must use variables x, y only, got {sorted(names)}")
    f = term_function(compile_term(join, ("x", "y")), 2)
    rows = g.rows
    return [[f(rows, a, b) for b in range(g.n)] for a in range(g.n)]


# The laws compare rows read through an itemgetter, or rows of j
# converted the same way, so both sides of a comparison have one shape: a
# tuple, or for a single key the bare value. Each law gets the columns of j
# as tuples, the first index of each column's value, and the list of those
# first indices; a variable that enters a law only through a column of j is
# compared at its first indices only. Only a comparison that fails is
# scanned element by element for the law's failing tuples.


def _p1(r, j, k, cols, first, firsts):
    return ((x,) for x in k if j[x][x] != x)


def _p2(r, j, k, cols, first, firsts):
    # (x∨y)∨z = x∨(y∨z): row x∨y of j against row y of j mapped through row
    # x, both read at the z that head a column class. Row y read there is
    # also the keys of row y's getter (a bare value for a single head).
    rows = list(map(itemgetter(*firsts), j))
    through = list(starmap(itemgetter, rows) if len(firsts) > 1 else map(itemgetter, rows))
    for x in k:
        jx = j[x]
        for y in k:
            if rows[jx[y]] != through[y](jx):
                lhs, rhs = j[jx[y]], j[y]
                yield from ((x, y, z) for z in k if lhs[z] != jx[rhs[z]])


def _p3(r, j, k, cols, first, firsts):
    # x∨(y∨z) = x∨(z∨y) can fail only at the pairs with y∨z != z∨y, and at
    # x it fails exactly when row x of j separates y∨z from z∨y for one of
    # them. Two elements that head the same column class are never
    # separated, so only the pairs of different heads are compared: collect
    # them once, then compare each row of j on them.
    flat = list(chain.from_iterable(j))
    swapped = list(chain.from_iterable(cols))
    unequal = list(map(ne, flat, swapped))
    values = {
        (first[a], first[b]) for a, b in zip(compress(flat, unequal), compress(swapped, unequal))
        if first[a] != first[b]
    }
    if not values:
        return
    left, right = (itemgetter(*side) for side in zip(*values))
    for x in k:
        jx = j[x]
        if left(jx) != right(jx):
            yield from (
                (x, y, z) for y, z in compress(product(k, repeat=2), unequal)
                if jx[j[y][z]] != jx[j[z][y]]
            )


def _p4(r, j, k, cols, first, firsts):
    # y∨(x1·x2) = (y∨x1)∨x2: row x1 of r mapped through row y of j against
    # row y∨x1 of j. x1 enters through column x1 of j and through the
    # column classes that row x1 of r names, so the x1 that agree on both
    # fail alike: each y compares one x1 per class, and a y where one
    # fails is scanned over every x1.
    rows = list(map(itemgetter(*k), j))
    through = list(starmap(itemgetter, r))
    reps = k
    if len(firsts) < len(k):
        classes: dict = {}
        for x1 in k:
            classes.setdefault((first[x1], through[x1](first)), x1)
        reps = classes.values()
    for y in k:
        jy = j[y]
        for x1 in reps:
            if through[x1](jy) != rows[jy[x1]]:
                break
        else:
            continue
        for x1 in k:
            if through[x1](jy) != rows[jy[x1]]:
                lhs, rhs = r[x1], j[jy[x1]]
                yield from ((y, x1, x2) for x2 in k if jy[lhs[x2]] != rhs[x2])


def _p5(r, j, k, cols, first, firsts):
    # (x1·x2)∨y = (x1∨y)·(x2∨y) says that column y of j, the map x -> x∨y,
    # is a homomorphism: row x1 of r mapped through the column against the
    # column mapped through row x1∨y of r. y enters through its column
    # only, so each x1 compares the distinct columns, and an x1 where one
    # fails is scanned over every (x2, y).
    maps = [(y, cols[y], itemgetter(*cols[y])) for y in firsts]
    through = list(starmap(itemgetter, r))
    for x1 in k:
        row, jx1 = through[x1], j[x1]
        for head, col, image in maps:
            if row(col) != image(r[jx1[head]]):
                yield from (
                    (x1, x2, y) for x2 in k for y in k
                    if j[r[x1][x2]][y] != r[jx1[y]][j[x2][y]]
                )
                break


def _columns(j):
    """The columns of j as tuples, the first index of each column's value,
    and those first indices, ascending."""
    cols = list(zip(*j))
    heads: dict = {}
    first = list(map(heads.setdefault, cols, count()))
    return cols, first, list(heads.values())


# P1..P5 as rows: (name, the tuples where the law fails), given the table
# rows r, the join matrix j, the carrier k = range(n) and `_columns(j)`.
# Each law yields its failing tuples in the lexicographic order of its own
# variables, as written in the module docstring, so its first failing
# tuple is its witness whichever way the law compares.
LAWS = (
    ("P1", _p1),
    ("P2", _p2),
    ("P3", _p3),
    ("P4", _p4),
    ("P5", _p5),
)


class P5Status(_Record):
    """P1..P5 on one table: each law that fails maps to its first failing
    tuple, so a law holds exactly when it has no witness."""

    __slots__ = _fields = ("witnesses",)  # dict[str, tuple]

    def holds(self, name: str) -> bool:
        return name not in self.witnesses

    @property
    def pseudopartition(self) -> bool:
        return self.witnesses.keys() <= {"P5"}

    @property
    def all_five(self) -> bool:
        return not self.witnesses

    def __str__(self) -> str:
        return " ".join(
            f"{name}:{'ok' if self.holds(name) else 'FAIL'}" for name, _ in LAWS
        )


def _status_from_matrix(g: CayleyTable, jm: list[list[int]]) -> P5Status:
    wit: dict[str, tuple] = {}
    columns = _columns(jm)
    for name, failures in LAWS:
        w = next(failures(g.rows, jm, range(g.n), *columns), None)
        if w is not None:
            wit[name] = w
    return P5Status(wit)


def check_pseudopartition(g: CayleyTable, join: Term = STANDARD_JOIN) -> P5Status:
    """Exhaustively check P1..P5 for the join term on g."""
    return _status_from_matrix(g, join_matrix(g, join))


class FiberSplit(_Record):
    """A table split into σ-fibers, all of it immutable."""

    # jm: a∨b; block_of: the σ-class of each element; blocks: the
    # σ-classes, as parent elements; local: the index of each element in
    # its σ-class; fibers: each σ-class's sub-table, in local indices
    __slots__ = _fields = ("jm", "block_of", "blocks", "local", "fibers")


def fiber_split(g: CayleyTable, join: Term) -> tuple[P5Status, FiberSplit]:
    """The P1..P5 status and the split into σ-fibers, each computed once;
    P1..P4 must hold, and the module docstring proves the rest."""
    jm = join_matrix(g, join)
    status = _status_from_matrix(g, jm)
    if not status.pseudopartition:
        raise NotPseudopartition(str(status))
    n = g.n
    # row a of σ, the b with a∨b = a and b∨a = b, is a's class
    rows = [tuple(b for b in range(n) if jm[a][b] == a and jm[b][a] == b) for a in range(n)]
    blocks = tuple(dict.fromkeys(rows))
    block_of = tuple(map(blocks.index, rows))
    local = tuple(row.index(x) for x, row in enumerate(rows))
    fibers = tuple(
        CayleyTable([[local[g.rows[a][b]] for b in blk] for a in blk]) for blk in blocks
    )
    return status, FiberSplit(tuple(map(tuple, jm)), block_of, blocks, local, fibers)


def sigma(g: CayleyTable, join: Term = STANDARD_JOIN) -> PartitionCongruence:
    """The congruence a σ b iff a∨b=a and b∨a=b, as `fiber_split` builds it.

    P1..P4 must hold for the join on g; where they fail this raises
    `NotPseudopartition`, whatever σ happens to be.
    """
    from cigroupoids.congruences import PartitionCongruence

    return PartitionCongruence(fiber_split(g, join)[1].block_of)


class PlonkaSystem(_Record):
    """Fibers over a semilattice replica, with optional gluing maps.

    globals[s] lists the parent elements of fiber s in ascending order;
    fibers[s] is that block's sub-table in local indices. fiber_maps, when
    present, sends (s, t) with s below t in the replica to the tuple of
    local images in fiber t. It is kept as a read-only view of a copy, so
    the maps checked here stay the maps `plonka_sum` reads.

    Every builder (`decompose`, `make_system`, `parse_system`) goes
    through `__init__`, so the contract is checked there and nowhere
    else, and `plonka_sum` trusts any system it is given:
    - one fiber and one globals entry per replica element;
    - each globals entry as long as its fiber;
    - the globals partition 0..n-1;
    - the replica is a semilattice;
    - the maps, when present, are exactly the pairs s ≤ t of the replica,
      each a homomorphism of the right shape, the identity on s -> s, and
      closed under composition (`_validate_maps`).
    """

    __slots__ = _fields = ("replica", "fibers", "globals", "fiber_maps")

    def __init__(
        self,
        replica: CayleyTable,
        fibers: tuple[CayleyTable, ...],
        globals: tuple[tuple[int, ...], ...],
        fiber_maps: Mapping[tuple[int, int], tuple[int, ...]] | None = None,
    ):
        if not len(fibers) == len(globals) == replica.n:
            raise ValueError("one fiber and one globals entry per replica element")
        for s, (blk, f) in enumerate(zip(globals, fibers)):
            if len(blk) != f.n:
                raise ValueError(f"fiber {s} lists {len(blk)} elements for a {f.n}-element table")
        if sorted(chain.from_iterable(globals)) != list(range(sum(f.n for f in fibers))):
            raise ValueError("fiber globals must partition 0..n-1")
        if not check_property(replica, "semilattice"):
            raise ValueError("replica must be a semilattice")
        if fiber_maps is not None:
            fiber_maps = MappingProxyType(dict(fiber_maps))
            _validate_maps(replica, fibers, fiber_maps)
        self._init(replica, fibers, globals, fiber_maps)

    def __reduce__(self):
        # a mappingproxy neither pickles nor deep-copies: rebuild from a dict
        maps = None if self.fiber_maps is None else dict(self.fiber_maps)
        return PlonkaSystem, (self.replica, self.fibers, self.globals, maps)

    @property
    def size(self) -> int:
        return sum(f.n for f in self.fibers)


def decompose(g: CayleyTable, join: Term = STANDARD_JOIN) -> PlonkaSystem:
    """Split g into σ-classes over the semilattice quotient.

    Fiber maps are attached exactly when P5 holds. Each x -> x∨b lands in
    b's fiber by the proof in the module docstring; the system checks the
    maps as homomorphisms where it is built, so a failure there raises
    rather than degrades.
    """
    status, split = fiber_split(g, join)
    jm, block_of, blocks, local = split.jm, split.block_of, split.blocks, split.local
    k = len(blocks)
    # σ is a congruence, so the classes multiply like their least elements
    reps = [blk[0] for blk in blocks]
    replica = CayleyTable([[block_of[g.rows[a][b]] for b in reps] for a in reps])

    maps: dict[tuple[int, int], tuple[int, ...]] | None = None
    if status.holds("P5"):
        maps = {}
        for s in range(k):
            for t in range(k):
                if replica.rows[s][t] != t:
                    continue
                b = blocks[t][0]
                maps[(s, t)] = tuple(local[jm[x][b]] for x in blocks[s])
    return PlonkaSystem(replica, split.fibers, blocks, maps)


def _validate_maps(
    replica: CayleyTable,
    fibers: list[CayleyTable] | tuple[CayleyTable, ...],
    maps: Mapping[tuple[int, int], tuple[int, ...]],
) -> None:
    k = replica.n
    up = [(s, t) for s in range(k) for t in range(k) if replica.rows[s][t] == t]
    for s, t in up:
        if (s, t) not in maps:
            raise MissingFiberMaps(f"no map for {s} -> {t}")
        phi = maps[(s, t)]
        if len(phi) != fibers[s].n or not all(0 <= v < fibers[t].n for v in phi):
            raise ValueError(f"map {s} -> {t} has the wrong shape")
        if s == t:
            if phi != tuple(range(fibers[s].n)):
                raise ValueError(f"map {s} -> {s} is not the identity")
            continue
        # row i of fiber s read through phi against row phi(i) of fiber t
        # read at the images, as tuples or, for one element, bare values
        image, target = itemgetter(*phi), fibers[t].rows
        for i, row in enumerate(fibers[s].rows):
            if itemgetter(*row)(phi) != image(target[phi[i]]):
                j = next(j for j, v in enumerate(row) if phi[v] != target[phi[i]][phi[j]])
                raise ValueError(f"map {s} -> {t} is not a homomorphism at ({i}, {j})")
    stray = set(maps).difference(up)
    if stray:
        s, t = min(stray)
        raise ValueError(f"stray map {s} -> {t}: the replica has no {s} ≤ {t}")
    for s, t in up:
        for u in range(k):
            if replica.rows[t][u] == u:
                st, tu, su = maps[(s, t)], maps[(t, u)], maps[(s, u)]
                if tuple(map(tu.__getitem__, st)) != su:
                    raise ValueError(f"maps do not compose: {s} -> {t} -> {u}")


def make_system(
    replica: CayleyTable,
    fibers: list[CayleyTable] | tuple[CayleyTable, ...],
    maps: dict[tuple[int, int], tuple[int, ...]],
) -> PlonkaSystem:
    """Assemble a system by hand: identity maps fill in the diagonal and
    globals are assigned consecutively; the system checks the rest."""
    maps = dict(maps)
    globals_: list[tuple[int, ...]] = []
    next_id = 0
    for s, f in enumerate(fibers):
        maps.setdefault((s, s), tuple(range(f.n)))
        globals_.append(tuple(range(next_id, next_id + f.n)))
        next_id += f.n
    return PlonkaSystem(replica, tuple(fibers), tuple(globals_), maps)


def plonka_sum(sys: PlonkaSystem) -> CayleyTable:
    """Compose the fibers back into one table on the union of the globals."""
    if sys.fiber_maps is None:
        raise MissingFiberMaps("system carries no fiber maps")
    n = sys.size
    place = {}
    for s, blk in enumerate(sys.globals):
        for i, x in enumerate(blk):
            place[x] = (s, i)
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        s, i = place[x]
        for y in range(n):
            t, j = place[y]
            u = sys.replica.rows[s][t]
            iu = sys.fiber_maps[(s, u)][i]
            ju = sys.fiber_maps[(t, u)][j]
            rows[x][y] = sys.globals[u][sys.fibers[u].rows[iu][ju]]
    return CayleyTable(rows)


def adjoin_infinity(g: CayleyTable) -> CayleyTable:
    """One new absorbing element on top; the rest of the table is unchanged."""
    n = g.n
    rows = [list(r) + [n] for r in g.rows]
    rows.append([n] * (n + 1))
    return CayleyTable(rows)


def cie_cyclic(n: int) -> CayleyTable:
    """The cyclic groupoid i·j = k(i+j) mod n where k inverts 2 mod n."""
    if n < 1 or n % 2 == 0:
        raise EvenModulus(f"modulus must be odd and positive, got {n}")
    k = (n + 1) // 2
    return CayleyTable([[(k * (i + j)) % n for j in range(n)] for i in range(n)])


def cid_exponent(g: CayleyTable) -> int:
    """Least e >= 1 making x·y^e a pseudopartition operation for g.

    Only defined on commutative idempotent distributive tables; for those
    an exponent at most n! always exists, so running off the end signals an
    internal inconsistency rather than a legitimate outcome.
    """
    for p in ("commutative", "idempotent", "distributive"):
        if not check_property(g, p):
            raise NotCID(f"table is not {p}")
    n = g.n
    limit = math.factorial(n)
    jm = [list(r) for r in g.rows]
    for e in range(1, limit + 1):
        if _status_from_matrix(g, jm).pseudopartition:
            return e
        jm = [[g.rows[jm[x][y]][y] for y in range(n)] for x in range(n)]
    raise NoExponent(f"no exponent up to {limit}")


# ---------------------------------------------------------------------------
# Serialization


def format_system(sys: PlonkaSystem) -> str:
    """Replica block, fiber blocks with headers, then map lines."""
    parts = [format_alg(sys.replica)]
    for s, fiber in enumerate(sys.fibers):
        ids = " ".join(str(x) for x in sys.globals[s])
        parts.append(f"# fiber {s} elements {ids}\n")
        parts.append(format_alg(fiber))
    if sys.fiber_maps is not None:
        for s, t in sorted(sys.fiber_maps):
            images = " ".join(str(v) for v in sys.fiber_maps[(s, t)])
            parts.append(f"# map {s} {t}: {images}\n")
    return "".join(parts)


def parse_system(text: str) -> PlonkaSystem:
    lines = text.splitlines()
    replica_lines: list[str] = []
    fibers: list[CayleyTable] = []
    globals_: list[tuple[int, ...]] = []
    maps: dict[tuple[int, int], tuple[int, ...]] = {}
    current: list[str] | None = None

    def flush() -> None:
        if current is not None:
            fibers.append(parse_alg("\n".join(current)))

    for ln in lines:
        stripped = ln.strip()
        if stripped.startswith("# fiber "):
            flush()
            toks = stripped.split()
            if len(toks) < 4 or toks[3] != "elements":
                raise ValueError(f"bad fiber header: {ln!r}")
            globals_.append(tuple(parse_int(t, ln, "fiber element") for t in toks[4:]))
            current = []
        elif stripped.startswith("# map "):
            flush()
            current = None
            head, colon, images = stripped[len("# map ") :].partition(":")
            ends = head.split()
            if not colon or len(ends) != 2:
                raise ValueError(f"bad map line: {ln!r}")
            s, t = (parse_int(v, ln, "map end") for v in ends)
            if (s, t) in maps:
                raise ValueError(f"repeated map {s} -> {t}: {ln!r}")
            maps[(s, t)] = tuple(parse_int(v, ln, "map image") for v in images.split())
        elif maps and stripped and not stripped.startswith("#"):
            raise ValueError(f"unexpected line after the map lines: {ln!r}")
        elif current is not None:
            current.append(ln)
        else:
            replica_lines.append(ln)
    flush()
    replica = parse_alg("\n".join(replica_lines))
    return PlonkaSystem(
        replica, tuple(fibers), tuple(globals_), maps if maps else None
    )
