"""Exhaustive enumeration of small groupoids up to isomorphism.

The enumerator fills upper-triangle cells in row-major order (full rows when
commutativity is off), propagating idempotence and commutativity eagerly.
Its partial table has one extra element per free cell: unfilled cell k
holds the sentinel n+k, row u >= n is all u, and column u >= n of the rows
below n is u. The ordinary term evaluator therefore returns a value below n
when a term's value is determined, and otherwise the sentinel of the first
unfilled cell the evaluation needed.

Required identities are ground once, over every assignment, and each
instance sits on the watch list of a cell it is blocked on, all of them on
cell 0 at the start. Filling a cell re-evaluates only that cell's watchers
(the scheme of Mace4 and SEM): an instance whose two sides are known and
differ prunes the branch, one whose sides agree is dropped, and one still
undecided moves to the watch list of a later cell it is blocked on. A
trail undoes the moves on backtrack. Every instance is thus checked at the
first node where both sides are determined, as if all pending instances
were re-evaluated after each cell.

Leaves are emitted only when they equal their own canonical form, which
makes the output stream duplicate-free and lexicographically sorted without
any post-hoc merge. The canonical form is the exact lexicographically least
relabeling, found by branch and bound over relabelings: labels are placed
one at a time and a branch is cut as soon as the known prefix of its
image's first row exceeds the best image found so far.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from cigroupoids.core import (
    ASSOCIATIVE_LAW,
    DISTRIBUTIVE_LAW,
    ENTROPIC_LAW,
    SQUAG_LAW,
    BoundExceeded,
    CayleyTable,
    Identity,
    check_identity,
    eval_postfix,
)
from cigroupoids.bolmoufang import TABLE1_CLASSES, bm, decode

MAX_N_CONSTRAINED = 6
MAX_N_UNCONSTRAINED = 5


def canonical_form(g: CayleyTable) -> CayleyTable:
    """Lexicographically least relabeling; equal iff isomorphic.

    Branch and bound over relabelings: new labels 0, 1, ... are handed out
    to old elements one at a time. With k labels placed, entry j < k of row
    0 of the image is known exactly when the old element it names is
    placed, and is at least k otherwise. A branch whose known prefix is
    already larger than the best image found so far is cut; full images
    are compared only at the leaves.
    """
    n = g.n
    rows = g.rows
    best = [list(row) for row in rows]
    label = [-1] * n  # old element -> new label, -1 while unplaced
    order: list[int] = []  # new label -> old element

    def prefix_larger(k: int) -> bool:
        top = rows[order[0]]
        first = best[0]
        for j in range(k):
            v = label[top[order[j]]]
            b = first[j]
            if v < 0:
                return b < k
            if v != b:
                return v > b
        return False

    def leaf() -> None:
        for i in range(n):
            row = rows[order[i]]
            image = [label[row[c]] for c in order]
            if image != best[i]:
                if image < best[i]:
                    best[i:] = [image] + [
                        [label[rows[a][c]] for c in order] for a in order[i + 1 :]
                    ]
                return

    def place(k: int) -> None:
        if k == n:
            leaf()
            return
        for e in range(n):
            if label[e] < 0:
                label[e] = k
                order.append(e)
                if not prefix_larger(k + 1):
                    place(k + 1)
                order.pop()
                label[e] = -1

    place(0)
    return CayleyTable(best)


@dataclass(frozen=True)
class SearchSpec:
    n: int
    require: tuple[Identity, ...] = ()
    forbid: tuple[Identity, ...] = ()
    commutative: bool = True
    idempotent: bool = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("carrier size must be >= 1")
        req = {(i.lhs, i.rhs) for i in self.require}
        forb = {(i.lhs, i.rhs) for i in self.forbid}
        if req & forb:
            raise ValueError("require and forbid overlap")


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


def enumerate_models(spec: SearchSpec) -> Iterator[CayleyTable]:
    """One representative per isomorphism class, in lexicographic order."""
    n = spec.n
    bound = MAX_N_CONSTRAINED if spec.require else MAX_N_UNCONSTRAINED
    if n > bound:
        raise BoundExceeded(f"n={n} exceeds the supported bound {bound}")

    if n == 1:
        g = CayleyTable([[0]])
        if all(check_identity(g, r) for r in spec.require) and all(
            not check_identity(g, f) for f in spec.forbid
        ):
            yield g
        return

    cells = _free_cells(n, spec.commutative, spec.idempotent)
    size = n + len(cells)
    rows = [list(range(size)) for _ in range(n)]
    rows += [[u] * size for u in range(n, size)]
    if spec.idempotent:
        for i in range(n):
            rows[i][i] = i
    for k, (i, j) in enumerate(cells):
        rows[i][j] = n + k
        if spec.commutative:
            rows[j][i] = n + k

    # watch[k] holds the ground instances (lhs, rhs, assignment) blocked on
    # cell k; all start on cell 0 and move forward as cells are filled.
    watch: list[list[tuple]] = [[] for _ in cells]
    for ident in spec.require:
        names, lhs, rhs = ident.compiled
        watch[0].extend(
            (lhs, rhs, asg) for asg in itertools.product(range(n), repeat=len(names))
        )

    transpositions = []
    for a in range(n):
        for b in range(a + 1, n):
            perm = list(range(n))
            perm[a], perm[b] = b, a
            transpositions.append(tuple(perm))

    def not_minimal_prefix() -> bool:
        # Prune when some transposed image is lexicographically smaller on
        # the already-determined prefix; every completion would inherit the
        # same non-minimal first difference.
        for perm in transpositions:
            for i in range(n):
                row = rows[i]
                image = rows[perm[i]]
                for j in range(n):
                    v = row[j]
                    if v >= n:
                        break
                    w = image[perm[j]]
                    if w >= n:
                        break
                    w = perm[w]
                    if v != w:
                        if v > w:
                            return True
                        break
                else:
                    continue
                break
        return False

    def descend(depth: int) -> Iterator[CayleyTable]:
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
            # every watcher is either decided now or blocked on a later
            # cell; the trail records the moves so they can be undone
            trail: list[list[tuple]] = []
            ok = True
            for inst in watchers:
                lhs, rhs, asg = inst
                a = eval_postfix(lhs, asg, rows)
                b = eval_postfix(rhs, asg, rows)
                blocked = a if a > b else b
                if blocked >= n:
                    later = watch[blocked - n]
                    later.append(inst)
                    trail.append(later)
                elif a != b:
                    ok = False
                    break
            if ok and not not_minimal_prefix():
                yield from descend(depth + 1)
            for later in trail:
                later.pop()
        rows[i][j] = n + depth
        if spec.commutative:
            rows[j][i] = n + depth

    yield from descend(0)


@functools.lru_cache(maxsize=1024)
def all_models(
    n: int,
    require: tuple[Identity, ...] = (),
    commutative: bool = True,
    idempotent: bool = True,
) -> tuple[CayleyTable, ...]:
    """Memoized full enumeration for one size and requirement set.

    Many separation queries share the same positive side, so caching on the
    requirements alone lets the negative side be a cheap post-filter.
    """
    spec = SearchSpec(
        n=n, require=require, commutative=commutative, idempotent=idempotent
    )
    return tuple(enumerate_models(spec))


def find_separating_model(
    sat: Sequence[Identity],
    unsat: Sequence[Identity],
    max_n: int,
) -> CayleyTable | None:
    """Smallest, canonically least CI model of sat violating all of unsat."""
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
    if variety in TABLE1_CLASSES:
        return tuple(decode(bm(name)) for name in TABLE1_CLASSES[variety])
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
    raise ValueError(f"unknown variety {variety!r}")


def count_models(n: int, variety: str) -> int:
    """Isomorphism classes of size n in the variety (over the CI base)."""
    return len(all_models(n, variety_identities(variety)))
