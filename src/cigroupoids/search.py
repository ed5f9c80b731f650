"""Exhaustive enumeration of small groupoids up to isomorphism.

The enumerator fills upper-triangle cells in row-major order (full rows when
commutativity is off), propagating idempotence and commutativity eagerly.
Its partial table has one extra element per free cell: unfilled cell k
holds the sentinel n+k, row u >= n is all u, and column u >= n of the rows
below n is u. The ordinary term evaluator therefore returns a value below n
when a term's value is determined, and otherwise the sentinel of the first
unfilled cell the evaluation needed.

Required identities are ground once, over every assignment. Both sides of
each ground instance are hash-consed modulo the base laws the spec assumes
(commutativity, idempotence): an instance whose sides are equal there holds
in every table of the search and is dropped, and of the instances with the
same unordered pair of sides only one is kept. Each kept instance is decided
by one compiled function (`core.instance_function`) that computes both sides
and returns agree, fail or the cell it waits on. The instances are settled
once at the root, before any cell is filled. Settling an instance decides
it or parks it: one whose two sides are known and differ prunes the branch,
one whose sides agree is dropped, and one still undecided moves to the
watch list of an unfilled cell it is blocked on. Filling a cell settles only
that cell's watchers (the scheme of Mace4 and SEM), and a trail undoes the
moves on backtrack. Every instance is thus checked at the first node where
both sides are determined, as if all pending instances were re-evaluated
after each cell. With no free cells (n = 1, idempotent) the root settles
every instance and the search is a single leaf.

A node is also pruned when its table is larger than its image under some
transposition of two elements on the determined prefix. Each branch passes
down the transpositions still tied there, each with the position where its
comparison stopped: one whose image was found larger stays larger below,
so children resume only the tied comparisons.

Leaves are emitted only when they equal their own canonical form, which
makes the output stream duplicate-free and lexicographically sorted without
any post-hoc merge. The canonical form is the exact lexicographically least
relabeling, found by branch and bound over relabelings: labels are placed
one at a time, and the image's rows are compared with the best image found
so far by one rule, row 0 included. A branch is cut as soon as the known
prefix of a row exceeds the best image's; a row that ties goes on to the
next only when it is known in full (see `canonical_form`).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterator, Sequence

from cigroupoids.core import (
    ASSOCIATIVE_LAW,
    DISTRIBUTIVE_LAW,
    ENTROPIC_LAW,
    SQUAG_LAW,
    BoundExceeded,
    CayleyTable,
    Identity,
    _fold,
    _Record,
    check_identity,
    instance_function,
)

MAX_N_CONSTRAINED = 6
MAX_N_UNCONSTRAINED = 5


def canonical_form(g: CayleyTable) -> CayleyTable:
    """Lexicographically least relabeling; equal iff isomorphic.

    Branch and bound over relabelings: new labels 0, 1, ... are handed out
    to old elements one at a time. With k labels placed, entry j < k of a
    placed row of the image is known exactly when the old element it names
    is placed, and is at least k otherwise.

    The placed rows are compared with the best image found so far in
    order, each by one rule. A branch is cut when a row's known prefix is
    larger than the best image's. A row whose prefix ties is known in full
    when every label is placed, or when its unplaced columns all give one
    placed value, as the bottom of a semilattice does; only then is the
    next row compared. Known rows stay known and equal to the best image
    below the node where they were found, so each branch passes their
    number down. At a leaf the whole image has been compared, and it
    replaces the best image from its first smaller row.
    """
    n = g.n
    rows = g.rows
    best = [list(row) for row in rows]
    label = [-1] * n  # old element -> new label, -1 while unplaced
    order: list[int] = []  # new label -> old element

    def bound(k: int, eq: int) -> int:
        # -1 to cut; otherwise how many leading image rows are known and
        # equal to best, given that the first eq of them are
        i = eq
        while True:
            row = rows[order[i]]
            want = best[i]
            for j in range(k):
                v = label[row[order[j]]]
                b = want[j]
                if v < 0:
                    return -1 if b < k else i
                if v != b:
                    return -1 if v > b else i
            if k < n:
                z = -1
                for c in range(n):
                    if label[c] < 0:
                        if z < 0:
                            z = row[c]
                        elif row[c] != z:
                            return i
                v = label[z]
                if v < 0:
                    return i
                for j in range(k, n):
                    b = want[j]
                    if v != b:
                        return -1 if v > b else i
            i += 1
            if i == k:
                return k

    def place(k: int, eq: int) -> None:
        if k == n:
            # rows before eq equal best, and row eq, if any, is smaller
            if eq < n:
                best[eq:] = [[label[rows[a][c]] for c in order] for a in order[eq:]]
            return
        for e in range(n):
            if label[e] < 0:
                label[e] = k
                order.append(e)
                known = bound(k + 1, eq)
                if known >= 0:
                    place(k + 1, known)
                order.pop()
                label[e] = -1

    place(0, 0)
    return CayleyTable(best)


class SearchSpec(_Record):
    __slots__ = _fields = ("n", "require", "forbid", "commutative", "idempotent")

    def __init__(
        self,
        n: int,
        require: tuple[Identity, ...] = (),
        forbid: tuple[Identity, ...] = (),
        commutative: bool = True,
        idempotent: bool = True,
    ):
        if n < 1:
            raise ValueError("carrier size must be >= 1")
        if set(require) & set(forbid):
            raise ValueError("require and forbid overlap")
        self._init(n, require, forbid, commutative, idempotent)


def _free_cells(n: int, commutative: bool, idempotent: bool) -> list[tuple[int, int]]:
    cells = []
    for i in range(n):
        for j in range(n):
            if idempotent and i == j:
                continue
            if commutative and i > j:
                continue
            cells.append((i, j))
    return cells


def _ground_instances(spec: SearchSpec) -> list[tuple[Callable, tuple[int, ...]]]:
    """One ground instance of the required identities per distinct constraint.

    Both sides of every instance are hash-consed modulo the base laws the
    spec assumes: a product of two equal sides is that side under
    idempotence, and the two factors are unordered under commutativity.
    Elements are ids 0..n-1 and each distinct product gets the next id.
    The partial table obeys those laws wherever values are determined, so a
    side is determined at the same nodes as its hash-consed form, with the
    same value. Instances whose sides are equal there never fail and are
    dropped, and of the instances with the same unordered pair of sides only
    the first is kept: the others are decided at the same nodes the same
    way. Each is (f, a), f from `instance_function` and a the assignment.
    """
    n = spec.n
    ids: dict[tuple[int, int], int] = {}

    def node(left: int, right: int) -> int:
        if spec.idempotent and left == right:
            return left
        key = (right, left) if spec.commutative and right < left else (left, right)
        found = ids.get(key)
        if found is None:
            found = ids[key] = n + len(ids)
        return found

    def products(left: Sequence[int], right: Sequence[int]) -> list[int]:
        return list(map(node, left, right))

    kept: dict[tuple[int, int], tuple[Callable, tuple[int, ...]]] = {}
    for ident in spec.require:
        names, lhs, rhs = ident.compiled
        asgs = list(itertools.product(range(n), repeat=len(names)))
        columns = list(zip(*asgs))
        sides = [_fold(ops, columns.__getitem__, products) for ops in (lhs, rhs)]
        f = instance_function(lhs, rhs, len(names))
        for asg, a, b in zip(asgs, *sides):
            if a != b:
                kept.setdefault((a, b) if a < b else (b, a), (f, asg))
    return list(kept.values())


def enumerate_models(spec: SearchSpec) -> Iterator[CayleyTable]:
    """One representative per isomorphism class, in lexicographic order."""
    n = spec.n
    # grounding takes n^k assignments per identity, so n is bounded first
    if n > MAX_N_CONSTRAINED:
        raise BoundExceeded(f"n={n} exceeds the supported bound {MAX_N_CONSTRAINED}")
    instances = _ground_instances(spec)
    # identities whose instances all hold by the base laws constrain nothing,
    # so the search is as large as the one that requires nothing
    if not instances and n > MAX_N_UNCONSTRAINED:
        raise BoundExceeded(
            f"n={n} exceeds the supported bound {MAX_N_UNCONSTRAINED} "
            "for a search that no ground instance constrains"
        )

    cells = _free_cells(n, spec.commutative, spec.idempotent)
    size = n + len(cells)
    rows = [list(range(size)) for _ in range(n)]
    rows += [[u] * size for u in range(n, size)]
    for k, (i, j) in enumerate(cells):
        rows[i][j] = n + k
        if spec.commutative:
            rows[j][i] = n + k

    # watch[k] holds the ground instances blocked on cell k; they move
    # forward as cells are filled.
    watch: list[list[tuple]] = [[] for _ in cells]

    def settle(insts: list[tuple], trail: list[list[tuple]]) -> bool:
        # Decide each instance or move it to the watch list of an unfilled
        # cell it is blocked on, recording the move on the trail; False as
        # soon as one instance fails.
        for inst in insts:
            f, asg = inst
            c = f(rows, n, asg)
            if c >= 0:
                later = watch[c]
                later.append(inst)
                trail.append(later)
            elif c < -1:
                return False
        return True

    transpositions = []
    for a in range(n):
        for b in range(a + 1, n):
            perm = list(range(n))
            perm[a], perm[b] = b, a
            transpositions.append(perm)
    # the cells in row-major order, the order tables are compared in
    positions = [(i, j) for i in range(n) for j in range(n)]

    def still_tied(pending: list[tuple]) -> list[tuple] | None:
        # Compare the table with each pending transposed image on the
        # determined prefix, resuming where the last comparison stopped.
        # None when an image is smaller there: every completion inherits
        # that first difference. An image found larger stays larger below,
        # so only the tied ones, with where they stopped, are passed on.
        tied = []
        for perm, start in pending:
            for p in range(start, n * n):
                i, j = positions[p]
                v = rows[i][j]
                w = rows[perm[i]][perm[j]]
                if v >= n or w >= n:
                    tied.append((perm, p))
                    break
                w = perm[w]
                if v != w:
                    if v > w:
                        return None
                    break
        return tied

    def descend(depth: int, pending: list[tuple]) -> Iterator[CayleyTable]:
        if depth == len(cells):
            g = CayleyTable(r[:n] for r in rows[:n])
            if g == canonical_form(g):
                if all(not check_identity(g, f) for f in spec.forbid):
                    yield g
            return
        i, j = cells[depth]
        watchers = watch[depth]
        for v in range(n):
            rows[i][j] = v
            if spec.commutative:
                rows[j][i] = v
            trail: list[list[tuple]] = []
            if settle(watchers, trail):
                tied = still_tied(pending)
                if tied is not None:
                    yield from descend(depth + 1, tied)
            for later in trail:
                later.pop()
        rows[i][j] = n + depth
        if spec.commutative:
            rows[j][i] = n + depth

    # the root's moves are never undone, so its trail is thrown away
    if settle(instances, []):
        yield from descend(0, [(perm, 0) for perm in transpositions])


@functools.lru_cache(maxsize=1024)
def all_models(n: int, require: tuple[Identity, ...], /) -> tuple[CayleyTable, ...]:
    """Memoized full CI enumeration for one size and requirement set.

    Many separation queries share the same positive side, so caching on the
    requirements alone lets the negative side be a cheap post-filter. Both
    arguments are positional and required, so each value has one cache key.
    """
    return tuple(enumerate_models(SearchSpec(n, require)))


def find_separating_model(
    sat: Sequence[Identity],
    unsat: Sequence[Identity],
    max_n: int,
) -> CayleyTable | None:
    """Smallest, canonically least CI model of sat violating all of unsat."""
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    if max_n > MAX_N_CONSTRAINED:
        raise BoundExceeded(f"max_n={max_n} exceeds {MAX_N_CONSTRAINED}")
    unsat = tuple(unsat)
    for n in range(1, max_n + 1):
        # forbids never prune the interior of the search, so filtering the
        # cached require-only stream visits models in the identical order
        for g in all_models(n, tuple(sat)):
            if all(not check_identity(g, ident) for ident in unsat):
                return g
    return None


def variety_identities(variety: str) -> tuple[Identity, ...]:
    """Defining identities of a named variety, on top of the CI base."""
    if variety == "squag":
        return (SQUAG_LAW,)
    if variety == "CI":
        return ()
    if variety == "CID":
        return (DISTRIBUTIVE_LAW,)
    if variety == "CIE":
        return (ENTROPIC_LAW,)
    if variety == "associative":
        return (ASSOCIATIVE_LAW,)
    from cigroupoids.bolmoufang import TABLE1_CLASSES, decode  # loaded for Table 1 only

    if variety in TABLE1_CLASSES:
        return tuple(map(decode, TABLE1_CLASSES[variety]))
    raise ValueError(f"unknown variety {variety!r}")
