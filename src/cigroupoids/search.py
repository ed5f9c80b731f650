"""Exhaustive enumeration of small groupoids up to isomorphism.

The enumerator fills upper-triangle cells in row-major order (full rows when
commutativity is off), propagating idempotence and commutativity eagerly and
testing required identities on every assignment whose value is already
determined by the partial table. That table has one extra element, n, for
"unknown": unfilled cells hold n and row n and column n are all n, so the
ordinary term evaluator carries an unknown operand through every later
product and returns n exactly when a value is not yet determined. Leaves
are emitted only when they equal their own canonical form, which makes the
output stream duplicate-free and lexicographically sorted without any
post-hoc merge.

Tables here are small (n <= 6), so isomorphism rejection by brute-force
minimization over all n! relabelings is affordable and simple.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
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
    compile_term,
    eval_postfix,
    variables,
)
from cigroupoids.bolmoufang import TABLE1_CLASSES, bm, decode

MAX_N_CONSTRAINED = 6
MAX_N_UNCONSTRAINED = 5


def _relabel(rows: Sequence[Sequence[int]], perm: Sequence[int]) -> tuple[int, ...]:
    """Flat row-major image of the table under the carrier permutation."""
    n = len(rows)
    inv = [0] * n
    for a, pa in enumerate(perm):
        inv[pa] = a
    return tuple(
        perm[rows[inv[i]][inv[j]]] for i in range(n) for j in range(n)
    )


def canonical_form(g: CayleyTable) -> CayleyTable:
    """Lexicographically least relabeling; equal iff isomorphic."""
    n = g.n
    best = min(_relabel(g.rows, perm) for perm in itertools.permutations(range(n)))
    return CayleyTable([best[i * n : (i + 1) * n] for i in range(n)])


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


class _Constraint:
    """A required identity compiled, with the assignments still to check."""

    __slots__ = ("lhs", "rhs", "assignments")

    def __init__(self, ident: Identity, n: int):
        names = tuple(sorted(set(variables(ident.lhs)) | set(variables(ident.rhs))))
        self.lhs = compile_term(ident.lhs, names)
        self.rhs = compile_term(ident.rhs, names)
        self.assignments = list(itertools.product(range(n), repeat=len(names)))


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

    rows = [[n] * (n + 1) for _ in range(n + 1)]
    if spec.idempotent:
        for i in range(n):
            rows[i][i] = i
    cells = _free_cells(n, spec.commutative, spec.idempotent)
    constraints = [_Constraint(ident, n) for ident in spec.require]
    constraints.sort(key=lambda c: len(c.assignments))
    pendings = [c.assignments for c in constraints]

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
                    if v == n:
                        break
                    w = image[perm[j]]
                    if w == n:
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

    def descend(depth: int, pendings: list[list[tuple[int, ...]]]) -> Iterator[CayleyTable]:
        if depth == len(cells):
            if all(not p for p in pendings):
                g = CayleyTable(r[:n] for r in rows[:n])
                if g == canonical_form(g):
                    if all(not check_identity(g, f) for f in spec.forbid):
                        yield g
            return
        i, j = cells[depth]
        for v in range(n):
            rows[i][j] = v
            if spec.commutative:
                rows[j][i] = v
            ok = True
            new_pendings: list[list[tuple[int, ...]]] = []
            for c, pending in zip(constraints, pendings):
                keep: list[tuple[int, ...]] = []
                for asg in pending:
                    a = eval_postfix(c.lhs, asg, rows)
                    b = eval_postfix(c.rhs, asg, rows)
                    if a == n or b == n:
                        keep.append(asg)
                    elif a != b:
                        ok = False
                        break
                if not ok:
                    break
                new_pendings.append(keep)
            if ok and not not_minimal_prefix():
                yield from descend(depth + 1, new_pendings)
        rows[i][j] = n
        if spec.commutative:
            rows[j][i] = n

    if n == 1:
        g = CayleyTable([[0]])
        if all(check_identity(g, r) for r in spec.require) and all(
            not check_identity(g, f) for f in spec.forbid
        ):
            yield g
        return
    yield from descend(0, pendings)


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
