"""Relations, constraint satisfaction instances, solvers, and the
fiber-collapse reduction.

Instances may be single-sorted (one carrier) or many-sorted (one carrier
per sort, each variable assigned a sort by the domain function).

Both solvers share one search, `_backtrack`: variables in index order, each
taking the least value left in its candidate mask (an int, bit a for value
a), with forward checking. A constraint is checked as soon as all but its
last variable are set, and cuts that variable's mask to the values that
complete it; a mask that empties rejects the value just set. One
generalized arc consistency fixpoint, `_arc_consistency`, serves
`solve_consistency` and the reduction: each constraint keeps the tuples
inside the domains and cuts each domain to what they support, and a
constraint is filtered again only when a domain in its scope shrinks.
Neither removes a value that a solution uses, so both solvers return the
same lexicographically least solution.

An instance over a CSP(Γ) template draws its relations from a fixed
language, and many constraints share one `Relation`. So each relation
memoizes the lookup tables the solvers read (`Relation.support`): they are
built once per relation, and every instance and every solver call over it
reuses them.

The reduction takes an instance over an idempotent groupoid together with
a pseudopartition term, computes for each variable the join a_v of its
constrained values, and replaces every domain by the σ-class of a_v. The
reduced instance is many-sorted over the σ-fibers and is satisfiable
exactly when the original is.
"""

from __future__ import annotations

import operator
import os
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from cigroupoids.core import (
    BoundExceeded,
    CayleyTable,
    Term,
    check_property,
    format_alg,
    load_alg,
    parse_alg,
    parse_int,
)
from cigroupoids.plonka import STANDARD_JOIN, NotPseudopartition, _fiber_split

BRUTE_LIMIT = 10**7


class SortMismatch(Exception):
    """Relation and operation disagree about the carrier."""


class NotInvariant(Exception):
    """A constraint relation is not preserved by the template operation."""


@dataclass(frozen=True)
class Relation:
    signature: tuple[int, ...]
    tuples: frozenset[tuple[int, ...]]
    # support tables (keyed on the arguments of `support`) and projection
    # masks (keyed on None); they depend on the tuples only, so they
    # live as long as the relation and take no part in ==, hash or repr
    _tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for t in self.tuples:
            if len(t) != len(self.signature):
                raise ValueError(f"tuple {t} has the wrong arity")

    @staticmethod
    def single_sorted(tuples: Iterable[tuple[int, ...]], arity: int, sort: int = 0) -> "Relation":
        return Relation((sort,) * arity, frozenset(tuples))

    def sorted_tuples(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)

    def support(
        self, key: tuple[int, ...], target: int, same: tuple[tuple[int, int], ...]
    ) -> dict:
        """Over the tuples t with t[p] == t[q] for each pair (p, q) in
        `same`: the mask of the values t[target] for each key value, which
        is t[key[0]] for one key position, the tuple of t at the key
        positions for several, and () for none. Built on the first call
        with these arguments, then read from the relation."""
        table = self._tables.get((key, target, same))
        if table is None:
            key_of = operator.itemgetter(*key) if key else lambda t: ()
            table = {}
            for t in self.tuples:
                if not same or all(t[p] == t[q] for p, q in same):
                    k = key_of(t)
                    table[k] = table.get(k, 0) | 1 << t[target]
            self._tables[(key, target, same)] = table
        return table

    def projections(self) -> tuple[int, ...]:
        """The mask of the values at each position, built on the first call."""
        masks = self._tables.get(None)
        if masks is None:
            masks = self._tables[None] = tuple(
                sum({1 << t[p] for t in self.tuples}) for p in range(len(self.signature))
            )
        return masks


@dataclass(frozen=True)
class CSPInstance:
    variables: tuple[str, ...]
    sorts: tuple[CayleyTable, ...]
    domain: tuple[int, ...]  # sort id per variable, aligned with variables
    constraints: tuple[tuple[tuple[str, ...], Relation], ...]

    def __post_init__(self) -> None:
        index = {v: i for i, v in enumerate(self.variables)}
        if len(index) != len(self.variables):
            raise ValueError("duplicate variable names")
        if len(self.domain) != len(self.variables):
            raise ValueError("domain function must cover all variables")
        for s in self.domain:
            if not (0 <= s < len(self.sorts)):
                raise ValueError(f"sort id {s} out of range")
        for i, (scope, rel) in enumerate(self.constraints):
            if not scope:
                raise ValueError(f"constraints[{i}] has an empty scope")
            if len(scope) != len(rel.signature):
                raise ValueError(f"scope {scope} does not match arity {len(rel.signature)}")
            for pos, v in enumerate(scope):
                if v not in index:
                    raise ValueError(f"unknown variable {v!r} in scope")
                if rel.signature[pos] != self.domain[index[v]]:
                    raise ValueError(
                        f"constraint signature {rel.signature} disagrees with "
                        f"variable {v!r} of sort {self.domain[index[v]]}"
                    )
            for t in rel.tuples:
                for pos, e in enumerate(t):
                    if not (0 <= e < self.sorts[rel.signature[pos]].n):
                        raise ValueError(f"tuple {t} escapes its sort carrier")

    def search_space(self) -> int:
        size = 1
        for s in self.domain:
            size *= self.sorts[s].n
        return size


Solution = dict[str, int]


def single_sorted_instance(
    template: CayleyTable,
    variables: Sequence[str],
    constraints: Sequence[tuple[Sequence[str], Iterable[tuple[int, ...]]]],
) -> CSPInstance:
    """Convenience builder for one-carrier instances."""
    cons = []
    for scope, tuples in constraints:
        tuples = frozenset(tuple(t) for t in tuples)
        arity = len(tuple(scope))
        cons.append((tuple(scope), Relation.single_sorted(tuples, arity)))
    return CSPInstance(
        tuple(variables),
        (template,),
        (0,) * len(variables),
        tuple(cons),
    )


# ---------------------------------------------------------------------------
# Invariance


def _commutes(g: CayleyTable) -> bool:
    """Whether g equals its transpose. Then t2·t1 = t1·t2 coordinatewise,
    so one product per unordered pair of tuples suffices."""
    return g.rows == tuple(zip(*g.rows))


def is_invariant(r: Relation, g: CayleyTable) -> bool:
    """Closure of the tuple set under the coordinatewise product of pairs."""
    if any(s != r.signature[0] for s in r.signature):
        raise SortMismatch("relation is not single-sorted")
    for t in r.tuples:
        for e in t:
            if not (0 <= e < g.n):
                raise SortMismatch(f"tuple entry {e} outside carrier 0..{g.n - 1}")
    tuples = r.tuples
    rows = g.rows
    commutative = _commutes(g)
    listed = list(tuples)
    for i, t1 in enumerate(listed):
        for t2 in listed[i:] if commutative else listed:
            if tuple(rows[a][b] for a, b in zip(t1, t2)) not in tuples:
                return False
    return True


# ---------------------------------------------------------------------------
# Solvers


def _backtrack(inst: CSPInstance, base: Sequence[int]) -> Solution | None:
    """The lexicographically least solution inside the domain masks
    `base`, or None.

    Variables are set in index order, each to the least value left in its
    mask. Forward checking: a constraint on two or more distinct variables
    is checked once all but its last one (in index order) are set, and cuts
    that variable's mask to the values its support table allows after the
    values set; a unary constraint cuts `base` before the search starts. A
    value cut out of a mask has no extension that satisfies the constraint
    that cut it, so no solution is lost; a mask that empties means the value
    just set has no extension at all, and the next value is tried at once.
    Values are still tried in ascending order, so the first complete
    assignment is the least solution, and every constraint holds on it
    because its last variable took a value from the cut mask.

    Each level keeps the masks in force when its variable is set and copies
    them only when a check cuts one, so backtracking undoes nothing. The
    support tables come from the relations (`Relation.support`), built once
    per relation and read by every later call."""
    positions = {v: i for i, v in enumerate(inst.variables)}
    dom = list(base)
    # checks[u]: (getter of the key values, support table, last variable)
    # for each constraint whose last but one distinct variable is u
    checks: list[list[tuple[Callable, dict, int]]] = [[] for _ in dom]
    for scope, rel in inst.constraints:
        idxs = [positions[v] for v in scope]
        # the positions by variable, a repeated variable's first position first
        order = sorted(range(len(idxs)), key=idxs.__getitem__)
        same: tuple[tuple[int, int], ...] = ()
        if len(set(idxs)) < len(idxs):
            first: dict[int, int] = {}
            for p in order:
                first.setdefault(idxs[p], p)
            same = tuple((p, first[u]) for p, u in enumerate(idxs) if p != first[u])
            order = list(first.values())
        # the key positions in ascending order, whatever the variables' order,
        # so scopes that differ only in that order share one table
        keys, target = sorted(order[:-1]), order[-1]
        table = rel.support(tuple(keys), target, same)
        if keys:
            get = operator.itemgetter(*[idxs[p] for p in keys])
            checks[idxs[order[-2]]].append((get, table, idxs[target]))
        else:
            dom[idxs[target]] &= table.get((), 0)
    if not all(dom):
        return None
    if not dom:
        return {}

    n = len(dom)
    assign = [0] * n
    left = [0] * n  # candidates not tried yet, per variable
    masks = [dom] * n  # masks[u]: the masks in force once the variables before u are set
    left[0] = dom[0]
    pos = 0
    while True:
        mask = left[pos]
        if not mask:
            pos -= 1
            if pos < 0:
                return None
            continue
        low = mask & -mask
        left[pos] = mask ^ low
        assign[pos] = low.bit_length() - 1
        cur = masks[pos]
        for get, table, last in checks[pos]:
            cut = cur[last] & table.get(get(assign), 0)
            if cut != cur[last]:
                if not cut:
                    break
                if cur is masks[pos]:
                    cur = cur.copy()
                cur[last] = cut
        else:
            pos += 1
            if pos == n:
                return dict(zip(inst.variables, assign))
            masks[pos] = cur
            left[pos] = cur[pos]


def solve_brute(inst: CSPInstance) -> Solution | None:
    """The lexicographically least solution, or None: the forward-checking
    search of `_backtrack` over the full domains, with no propagation
    first. Refuses instances whose search space exceeds BRUTE_LIMIT. The
    tests check it against a scan of every assignment in lexicographic
    order."""
    if inst.search_space() > BRUTE_LIMIT:
        raise BoundExceeded(f"search space exceeds {BRUTE_LIMIT}")
    return _backtrack(inst, [(1 << inst.sorts[s].n) - 1 for s in inst.domain])


def _arc_consistency(inst: CSPInstance) -> tuple[list[int], list[list[tuple[int, ...]]]]:
    """Domain masks and each constraint's live tuples at the generalized
    arc consistency fixpoint: the live tuples are the relation's tuples
    inside the domains, in the relation's iteration order, and they project
    onto exactly the domains.

    A constraint none of whose domains has narrowed yet keeps all its
    tuples and reads its supports from the relation's projections; its
    tuples are filtered only once a domain in its scope narrows. Runs on
    after a domain empties, so everything that depends on it empties too;
    applies no equality rule to a repeated scope variable."""
    positions = {v: i for i, v in enumerate(inst.variables)}
    full = [(1 << inst.sorts[s].n) - 1 for s in inst.domain]
    dom = list(full)
    scopes = [[positions[v] for v in scope] for scope, _ in inst.constraints]
    rels = [rel for _, rel in inst.constraints]
    live: list = [None] * len(scopes)  # None: every tuple, not filtered yet
    woken_by: list[list[int]] = [[] for _ in dom]
    for k, idxs in enumerate(scopes):
        for u in dict.fromkeys(idxs):
            woken_by[u].append(k)
    queue = deque(range(len(scopes)))
    queued = [True] * len(scopes)
    while queue:
        k = queue.popleft()
        queued[k] = False
        idxs = scopes[k]
        narrowed = [(p, dom[u]) for p, u in enumerate(idxs) if dom[u] != full[u]]
        if narrowed:
            kept = rels[k].tuples if live[k] is None else live[k]
            live[k] = kept = [t for t in kept if all(m >> t[p] & 1 for p, m in narrowed)]
        else:
            projections = rels[k].projections()
        for p, u in enumerate(idxs):
            support = sum({1 << t[p] for t in kept}) if narrowed else projections[p]
            if dom[u] & ~support:
                dom[u] &= support
                for j in woken_by[u]:
                    if not queued[j]:
                        queued[j] = True
                        queue.append(j)
    return dom, [list(rel.tuples) if kept is None else kept for kept, rel in zip(live, rels)]


def solve_consistency(inst: CSPInstance) -> Solution | None:
    """Generalized arc consistency on bitmasks, then the forward-checking
    search of `solve_brute` inside the domains left. Arc consistency removes
    no value that a solution uses, so this is the same lexicographically
    least solution, or None. The support tables and projections both read
    are the relations' own, so calling both solvers on one instance, or
    either on many instances over one language, builds each table once."""
    dom, _ = _arc_consistency(inst)
    return _backtrack(inst, dom) if all(dom) else None


# ---------------------------------------------------------------------------
# The fiber-collapse reduction


@dataclass(frozen=True)
class ReductionResult:
    """Reduced instance plus everything needed to audit the construction."""

    reduced: CSPInstance
    trivially_unsat: bool
    a: dict[str, int]  # the fold values a_v, as parent elements
    b_sets: dict[str, tuple[int, ...]]  # normalized B_v, parent elements
    b_prime: dict[str, tuple[int, ...]]  # σ-class of a_v, parent elements
    fiber_globals: tuple[tuple[int, ...], ...]  # reduced sort -> parent elements
    # maps an original solution through v -> f(v)∨a_v into local coordinates
    transform: Callable[[Mapping[str, int]], Solution] = field(
        compare=False, repr=False
    )


def fold_join(jm: list[list[int]], values: Sequence[int]) -> int:
    """Left fold of the join over the values in the given order."""
    it = iter(values)
    acc = next(it)
    for v in it:
        acc = jm[acc][v]
    return acc


def reduce_instance(
    inst: CSPInstance, join: Term = STANDARD_JOIN
) -> ReductionResult:
    """Collapse every variable's domain to one σ-fiber.

    Requires a single-sorted instance over an idempotent table for which
    the join term satisfies P1..P4 and all constraint relations are
    invariant. Projections are first normalized to a subdirect fixpoint,
    the arc consistency fixpoint of `solve_consistency`; an empty
    projection short-circuits to a trivially unsatisfiable instance.
    """
    if len(inst.sorts) != 1:
        raise ValueError("reduction expects a single-sorted instance")
    g = inst.sorts[0]
    if not check_property(g, "idempotent"):
        raise NotPseudopartition("template is not idempotent")
    jm, _, part, blocks, local, fibers = _fiber_split(g, join)
    for scope, rel in inst.constraints:
        if not is_invariant(rel, g):
            raise NotInvariant(f"constraint on {scope} is not invariant")

    dom, live = _arc_consistency(inst)
    b_sets = {
        v: tuple(a for a in range(g.n) if mask >> a & 1) for v, mask in zip(inst.variables, dom)
    }
    empty = not all(dom)
    a_v: dict[str, int] = {}
    b_prime: dict[str, tuple[int, ...]] = {}
    domain = []
    for v in inst.variables:
        if b_sets[v]:
            a = fold_join(jm, b_sets[v])
            a_v[v] = a
            blk = part.block_of[a]
            b_prime[v] = blocks[blk]
            domain.append(blk)
        else:
            a_v[v] = -1
            b_prime[v] = ()
            domain.append(0)

    new_cons = []
    var_pos = {v: i for i, v in enumerate(inst.variables)}
    for (scope, _), tuples in zip(inst.constraints, live):
        sig = tuple(domain[var_pos[v]] for v in scope)
        kept = [
            tuple(local[e] for e in t)
            for t in tuples
            if all(e in b_prime[v] for e, v in zip(t, scope))
        ]
        new_cons.append((tuple(scope), Relation(sig, frozenset(kept))))
    for v in inst.variables:
        if not b_sets[v]:
            # an empty unary pins the unsatisfiability in-instance
            new_cons.append(((v,), Relation((domain[var_pos[v]],), frozenset())))

    reduced = CSPInstance(inst.variables, fibers, tuple(domain), tuple(new_cons))

    def transform(solution: Mapping[str, int]) -> Solution:
        if empty:
            raise ValueError("instance is trivially unsatisfiable")
        out = {}
        for v in inst.variables:
            img = jm[solution[v]][a_v[v]]
            out[v] = local[img]
        return out

    return ReductionResult(
        reduced=reduced,
        trivially_unsat=empty,
        a=a_v,
        b_sets=b_sets,
        b_prime=b_prime,
        fiber_globals=tuple(blocks),
        transform=transform,
    )


# ---------------------------------------------------------------------------
# Instance generation


def close_under(template: CayleyTable, seeds: Iterable[tuple[int, ...]]) -> frozenset:
    """Smallest tuple set containing seeds closed under the coordinatewise op."""
    rows = template.rows
    # Each tuple taken off the frontier meets itself and every tuple taken
    # before it, so each pair is met once.
    both = not _commutes(template)
    out = set(tuple(t) for t in seeds)
    frontier = list(out)
    done: list[tuple[int, ...]] = []
    while frontier:
        t1 = frontier.pop()
        done.append(t1)
        for t2 in done:
            for x, y in ((t1, t2), (t2, t1)) if both else ((t1, t2),):
                p = tuple(rows[a][b] for a, b in zip(x, y))
                if p not in out:
                    out.add(p)
                    frontier.append(p)
    return frozenset(out)


def gen_instance(
    seed: int,
    template: CayleyTable,
    num_vars: int = 5,
    num_constraints: int = 4,
    max_arity: int = 3,
) -> CSPInstance:
    """Deterministic random instance whose relations are invariant by
    construction: each is the closure of a few seed tuples under the
    template operation."""
    rng = random.Random(seed)
    names = tuple(f"v{i}" for i in range(num_vars))
    cons = []
    for _ in range(num_constraints):
        arity = rng.randint(1, min(max_arity, num_vars))
        scope = tuple(rng.sample(names, arity))
        seeds = [
            tuple(rng.randrange(template.n) for _ in range(arity))
            for _ in range(rng.randint(1, 3))
        ]
        tuples = close_under(template, seeds)
        cons.append((scope, Relation.single_sorted(tuples, arity)))
    return CSPInstance(names, (template,), (0,) * num_vars, tuple(cons))


# ---------------------------------------------------------------------------
# File format


def format_csp(inst: CSPInstance) -> str:
    lines = [f"sorts {len(inst.sorts)}"]
    for t in inst.sorts:
        lines.append(format_alg(t).rstrip("\n"))
    for v, s in zip(inst.variables, inst.domain):
        lines.append(f"var {v} {s}")
    for scope, rel in inst.constraints:
        lines.append("con " + " ".join(scope))
        for t in rel.sorted_tuples():
            lines.append("t " + " ".join(str(e) for e in t))
        lines.append("end")
    return "\n".join(lines) + "\n"


def parse_csp(text: str, base_dir: str = ".") -> CSPInstance:
    lines = [
        ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")
    ]
    pos = 0
    if not lines or not lines[pos].startswith("sorts "):
        raise ValueError("instance must start with 'sorts <k>'")
    k = parse_int(lines[pos][len("sorts ") :], lines[pos], "sort count")
    pos += 1
    sorts = []
    for _ in range(k):
        if pos == len(lines) or lines[pos].startswith(("var ", "con ")):
            raise ValueError(f"{lines[0]!r} declares {k} sorts, found {len(sorts)}")
        if lines[pos].startswith("@file "):
            path = lines[pos][len("@file ") :].strip()
            sorts.append(load_alg(os.path.join(base_dir, path)))
            pos += 1
        else:
            n = parse_int(lines[pos], lines[pos], "table size")
            block = lines[pos : pos + n + 1]
            sorts.append(parse_alg("\n".join(block)))
            pos += n + 1
    variables: list[str] = []
    domain: list[int] = []
    cons: list[tuple[tuple[str, ...], Relation]] = []
    while pos < len(lines):
        ln = lines[pos]
        if ln.startswith("var "):
            toks = ln.split()
            if len(toks) != 3:
                raise ValueError(f"var line needs a name and a sort id: {ln!r}")
            variables.append(toks[1])
            domain.append(parse_int(toks[2], ln, "sort id"))
            pos += 1
        elif ln.startswith("con "):
            scope = tuple(ln.split()[1:])
            for v in scope:
                if v not in variables:
                    raise ValueError(f"undeclared variable {v!r} in {ln!r}")
            pos += 1
            tuples = []
            while pos < len(lines) and lines[pos] != "end":
                if not lines[pos].startswith("t "):
                    raise ValueError(f"expected tuple line, got {lines[pos]!r}")
                tuples.append(
                    tuple(parse_int(e, lines[pos], "tuple entry") for e in lines[pos].split()[1:])
                )
                pos += 1
            if pos >= len(lines):
                raise ValueError("unterminated constraint block")
            pos += 1  # skip 'end'
            sig = tuple(domain[variables.index(v)] for v in scope)
            cons.append((scope, Relation(sig, frozenset(tuples))))
        else:
            raise ValueError(f"unrecognized line {ln!r}")
    return CSPInstance(tuple(variables), tuple(sorts), tuple(domain), tuple(cons))
