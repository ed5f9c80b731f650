"""Semilattice decompositions of groupoids.

A binary term x∨y is a pseudopartition operation for a groupoid when the
first four of five identities P1..P4 hold (P5 is extra):

    P1  x∨x = x
    P2  (x∨y)∨z = x∨(y∨z)
    P3  x∨(y∨z) = x∨(z∨y)
    P4  y∨(x1·x2) = (y∨x1)∨x2
    P5  (x1·x2)∨y = (x1∨y)·(x2∨y)

Under P1..P4 the relation a σ b iff a∨b=a and b∨a=b is a congruence whose
quotient is a semilattice; the groupoid is then a disjoint union of its
σ-classes glued along that semilattice. When P5 also holds, the maps
x -> x∨b between classes are homomorphisms and the groupoid is a full
Płonka sum: the product of elements in different fibers is computed by
pushing both into the join fiber first.

The candidate join used throughout the workbench is x∨y = y·(x·y).

P1..P5 are written once, as the rows of `LAWS`: a law's name and the
tuples where it fails on the tabulated join, in the law's own scan order,
so the first failing tuple is the witness. `decompose` and
`csp.reduce_instance` share one split of the table into σ-fibers, which
tabulates the join, checks P1..P5 and validates σ once each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from cigroupoids.congruences import (
    NotACongruence,
    PartitionCongruence,
    from_pairs,
    is_compatible,
)
from cigroupoids.core import (
    CayleyTable,
    Prod,
    Term,
    Var,
    check_property,
    compile_term,
    eval_postfix,
    format_alg,
    parse_alg,
    variables,
)

STANDARD_JOIN: Term = Prod(Var("y"), Prod(Var("x"), Var("y")))


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
    ops = compile_term(join, ("x", "y"))
    rows = g.rows
    return [[eval_postfix(ops, (a, b), rows) for b in range(g.n)] for a in range(g.n)]


# P1..P5 as rows: (name, the tuples where the law fails), given the table
# rows r, the join matrix j and the carrier k = range(n). Each law scans its
# own variables in its own order, and its first failing tuple is its witness.
LAWS = (
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


@dataclass(frozen=True)
class P5Status:
    p1: bool
    p2: bool
    p3: bool
    p4: bool
    p5: bool
    witnesses: dict[str, tuple] = field(default_factory=dict, compare=False)

    @property
    def pseudopartition(self) -> bool:
        return self.p1 and self.p2 and self.p3 and self.p4

    @property
    def all_five(self) -> bool:
        return self.pseudopartition and self.p5

    def __str__(self) -> str:
        bits = [self.p1, self.p2, self.p3, self.p4, self.p5]
        return " ".join(
            f"P{i}:{'ok' if b else 'FAIL'}" for i, b in enumerate(bits, start=1)
        )


def _status_from_matrix(g: CayleyTable, jm: list[list[int]]) -> P5Status:
    wit: dict[str, tuple] = {}
    for name, failures in LAWS:
        w = next(failures(g.rows, jm, range(g.n)), None)
        if w is not None:
            wit[name] = w
    return P5Status(*(name not in wit for name, _ in LAWS), wit)


def check_pseudopartition(g: CayleyTable, join: Term = STANDARD_JOIN) -> P5Status:
    """Exhaustively check P1..P5 for the join term on g."""
    return _status_from_matrix(g, join_matrix(g, join))


def sigma(g: CayleyTable, join: Term = STANDARD_JOIN) -> PartitionCongruence:
    """The relation a σ b iff a∨b=a and b∨a=b, validated as a congruence."""
    return _sigma(g, join_matrix(g, join))


def _sigma(g: CayleyTable, jm: list[list[int]]) -> PartitionCongruence:
    n = g.n

    def related(a: int, b: int) -> bool:
        return jm[a][b] == a and jm[b][a] == b

    for a in range(n):
        if not related(a, a):
            raise NotACongruence("sigma is not reflexive", (a,))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if related(a, b)]
    part = from_pairs(n, pairs)
    for blk in part.blocks():
        for a in blk:
            for b in blk:
                if not related(a, b):
                    raise NotACongruence("sigma is not transitive", (a, b))
    ok, witness = is_compatible(g, part)
    if not ok:
        raise NotACongruence("sigma is not operation-compatible", witness)
    return part


def _fiber_split(g: CayleyTable, join: Term) -> tuple:
    """(join matrix, P1..P5 status, σ, σ-classes, index of each element in
    its class, class sub-tables), each computed once; P1..P4 must hold."""
    jm = join_matrix(g, join)
    status = _status_from_matrix(g, jm)
    if not status.pseudopartition:
        raise NotPseudopartition(str(status))
    part = _sigma(g, jm)
    blocks = part.blocks()
    local = {x: i for blk in blocks for i, x in enumerate(blk)}
    fibers = []
    for blk in blocks:
        for a in blk:
            for b in blk:
                if part.block_of[g.rows[a][b]] != part.block_of[a]:
                    raise NotACongruence("sigma class not closed", (a, b))
        fibers.append(CayleyTable([[local[g.rows[a][b]] for b in blk] for a in blk]))
    return jm, status, part, blocks, local, tuple(fibers)


@dataclass(frozen=True)
class PlonkaSystem:
    """Fibers over a semilattice replica, with optional gluing maps.

    globals[s] lists the parent elements of fiber s in ascending order;
    fibers[s] is that block's sub-table in local indices. fiber_maps, when
    present, sends (s, t) with s below t in the replica to the tuple of
    local images in fiber t.
    """

    replica: CayleyTable
    fibers: tuple[CayleyTable, ...]
    globals: tuple[tuple[int, ...], ...]
    fiber_maps: dict[tuple[int, int], tuple[int, ...]] | None = None

    @property
    def size(self) -> int:
        return sum(f.n for f in self.fibers)


def decompose(g: CayleyTable, join: Term = STANDARD_JOIN) -> PlonkaSystem:
    """Split g into σ-classes over the semilattice quotient.

    Fiber maps are attached exactly when P5 holds; their validation as
    homomorphisms is a consistency check on the theory, so a failure there
    raises rather than degrades.
    """
    jm, status, part, blocks, local, fibers = _fiber_split(g, join)
    k = len(blocks)
    # σ is a congruence, so the classes multiply like their least elements
    reps = [blk[0] for blk in blocks]
    replica = CayleyTable([[part.block_of[g.rows[a][b]] for b in reps] for a in reps])
    if not check_property(replica, "semilattice"):
        raise NotPseudopartition("quotient is not a semilattice")

    maps: dict[tuple[int, int], tuple[int, ...]] | None = None
    if status.p5:
        maps = {}
        for s in range(k):
            for t in range(k):
                if replica.rows[s][t] != t:
                    continue
                b = blocks[t][0]
                images = []
                for x in blocks[s]:
                    y = jm[x][b]
                    if part.block_of[y] != t:
                        raise NotACongruence("fiber map leaves its target", (x, b))
                    images.append(local[y])
                maps[(s, t)] = tuple(images)
        _validate_maps(replica, fibers, maps)
    return PlonkaSystem(replica, fibers, tuple(blocks), maps)


def _validate_maps(
    replica: CayleyTable,
    fibers: list[CayleyTable] | tuple[CayleyTable, ...],
    maps: dict[tuple[int, int], tuple[int, ...]],
) -> None:
    k = replica.n
    for s in range(k):
        for t in range(k):
            if replica.rows[s][t] != t:
                continue
            if (s, t) not in maps:
                raise MissingFiberMaps(f"no map for {s} -> {t}")
            phi = maps[(s, t)]
            if len(phi) != fibers[s].n or not all(0 <= v < fibers[t].n for v in phi):
                raise ValueError(f"map {s} -> {t} has the wrong shape")
            if s == t and phi != tuple(range(fibers[s].n)):
                raise ValueError(f"map {s} -> {s} is not the identity")
            for i in range(fibers[s].n):
                for j in range(fibers[s].n):
                    if phi[fibers[s].rows[i][j]] != fibers[t].rows[phi[i]][phi[j]]:
                        raise ValueError(
                            f"map {s} -> {t} is not a homomorphism at ({i}, {j})"
                        )
    for s in range(k):
        for t in range(k):
            if replica.rows[s][t] != t:
                continue
            for u in range(k):
                if replica.rows[t][u] != u:
                    continue
                st, tu, su = maps[(s, t)], maps[(t, u)], maps[(s, u)]
                if tuple(tu[v] for v in st) != su:
                    raise ValueError(f"maps do not compose: {s} -> {t} -> {u}")


def make_system(
    replica: CayleyTable,
    fibers: list[CayleyTable] | tuple[CayleyTable, ...],
    maps: dict[tuple[int, int], tuple[int, ...]],
) -> PlonkaSystem:
    """Assemble a system by hand; globals are assigned consecutively."""
    if not check_property(replica, "semilattice"):
        raise ValueError("replica must be a semilattice")
    if len(fibers) != replica.n:
        raise ValueError("one fiber per replica element")
    maps = dict(maps)
    for s in range(replica.n):
        maps.setdefault((s, s), tuple(range(fibers[s].n)))
    globals_: list[tuple[int, ...]] = []
    next_id = 0
    for f in fibers:
        globals_.append(tuple(range(next_id, next_id + f.n)))
        next_id += f.n
    _validate_maps(replica, fibers, maps)
    return PlonkaSystem(replica, tuple(fibers), tuple(globals_), maps)


def plonka_sum(sys: PlonkaSystem) -> CayleyTable:
    """Compose the fibers back into one table on the union of the globals."""
    if sys.fiber_maps is None:
        raise MissingFiberMaps("system carries no fiber maps")
    _validate_maps(sys.replica, sys.fibers, sys.fiber_maps)
    n = sys.size
    flat = sorted(x for blk in sys.globals for x in blk)
    if flat != list(range(n)):
        raise ValueError("fiber globals must partition 0..n-1")
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
            globals_.append(tuple(int(t) for t in toks[4:]))
            current = []
        elif stripped.startswith("# map "):
            flush()
            current = None
            head, colon, images = stripped[len("# map ") :].partition(":")
            ends = head.split()
            if not colon or len(ends) != 2:
                raise ValueError(f"bad map line: {ln!r}")
            s, t = (int(v) for v in ends)
            maps[(s, t)] = tuple(int(v) for v in images.split())
        elif current is not None:
            current.append(ln)
        else:
            replica_lines.append(ln)
    flush()
    replica = parse_alg("\n".join(replica_lines))
    if len(fibers) != replica.n or len(globals_) != replica.n:
        raise ValueError("fiber count does not match the replica size")
    return PlonkaSystem(
        replica, tuple(fibers), tuple(globals_), maps if maps else None
    )
