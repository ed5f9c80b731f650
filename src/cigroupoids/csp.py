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
`solve_consistency` and the reduction. It first cuts every domain by the
projections of the constraints on it; if none narrows, as on a subdirect
instance such as 3-LIN equations, that is the fixpoint. Otherwise, as in
AC-3, each constraint on a narrowed domain keeps the tuples inside the
domains and cuts each domain to what they support, and a constraint is
filtered again only when a domain in its scope shrinks. Neither search
nor fixpoint removes a value that a solution uses, so both solvers return
the same lexicographically least solution.

An instance checks its scopes once, when it is built, and keeps each as a
tuple of variable indices (`CSPInstance._scopes`); the solvers and the
reduction read that index and build no name lookup of their own. The
search's plan (the unary cuts and each variable's forward checks,
`CSPInstance._plan`) is built on the instance's first solve and kept with
it, so solving the same instance object again, under any domain masks,
sets nothing up; a caller that solves an instance once gains nothing.

An instance over a CSP(Γ) template draws its relations from a fixed
language, and many constraints share one `Relation`. So each relation
memoizes the lookup tables the solvers read (`Relation.support`), the
sort sizes its tuples were found to fit, and its invariance verdict under
each template (`is_invariant`): each is computed once per relation, and
every instance, solver call and reduction over it reuses them. `parse_csp`
gives the `con` blocks with equal signature and tuples one `Relation`, so
an instance read from a file shares them too.

The reduction takes an instance over an idempotent groupoid together with
a pseudopartition term, computes for each variable the join a_v of its
constrained values, and replaces every domain by the σ-class of a_v. The
reduced instance is many-sorted over the σ-fibers and is satisfiable
exactly when the original is. The template's split into σ-fibers,
`plonka.fiber_split`'s immutable `FiberSplit`, depends on the template
and the term only, so a bounded cache keyed on both keeps it for every
instance over that template. A `ReductionResult` keeps the split as a
field, and its `transform` is a method, so it pickles like any record.

`is_invariant` and `close_under` share one kernel, `_products`, that
multiplies a tuple with many tuples at once, reading the table row by row
down the columns of their coordinates.
"""

from __future__ import annotations

import operator
import os
from collections import deque
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import chain

from cigroupoids.core import (
    STANDARD_JOIN,
    BoundExceeded,
    CayleyTable,
    Term,
    _Record,
    check_property,
    format_alg,
    load_alg,
    parse_alg,
    parse_int,
    parse_size,
)

BRUTE_LIMIT = 10**7


class SortMismatch(Exception):
    """Relation and operation disagree about the carrier."""


class NotInvariant(Exception):
    """A constraint relation is not preserved by the template operation."""


class Relation(_Record):
    # _tables: support tables (keyed on the arguments of `support`),
    # projection masks (keyed on None), the sort sizes the tuples fit (keyed
    # on ("carriers", sizes)) and the invariance verdict under a table g
    # (keyed on ("invariant", g)); they depend on the tuples only, so they
    # live as long as the relation and take no part in ==, hash or repr
    __slots__ = ("signature", "tuples", "_tables")
    _fields = ("signature", "tuples")

    def __init__(self, signature: tuple[int, ...], tuples: frozenset[tuple[int, ...]]):
        for t in tuples:
            if len(t) != len(signature):
                raise ValueError(f"tuple {t} has the wrong arity")
        self._init(signature, tuples)
        object.__setattr__(self, "_tables", {})

    @staticmethod
    def single_sorted(tuples: Iterable[tuple[int, ...]], arity: int) -> "Relation":
        return Relation((0,) * arity, frozenset(tuples))

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


class CSPInstance(_Record):
    # _scopes: each constraint's scope as variable indices, built with the
    # checks below; _plan: the search plan `_backtrack` builds on the first
    # solve (`_search_plan`). Both depend on the fields only, so they take
    # no part in ==, hash or repr; a copy or pickle starts without a plan
    __slots__ = ("variables", "sorts", "domain", "constraints", "_scopes", "_plan")
    _fields = ("variables", "sorts", "domain", "constraints")

    def __init__(
        self,
        variables: tuple[str, ...],
        sorts: tuple[CayleyTable, ...],
        domain: tuple[int, ...],  # sort id per variable, aligned with variables
        constraints: tuple[tuple[tuple[str, ...], Relation], ...],
    ):
        index = {v: i for i, v in enumerate(variables)}
        if len(index) != len(variables):
            raise ValueError("duplicate variable names")
        if len(domain) != len(variables):
            raise ValueError("domain function must cover all variables")
        for s in domain:
            if not (0 <= s < len(sorts)):
                raise ValueError(f"sort id {s} out of range")
        for i, (scope, rel) in enumerate(constraints):
            if not scope:
                raise ValueError(f"constraints[{i}] has an empty scope")
            if len(scope) != len(rel.signature):
                raise ValueError(f"scope {scope} does not match arity {len(rel.signature)}")
            for pos, v in enumerate(scope):
                if v not in index:
                    raise ValueError(f"unknown variable {v!r} in scope")
                if rel.signature[pos] != domain[index[v]]:
                    raise ValueError(
                        f"constraint signature {rel.signature} disagrees with "
                        f"variable {v!r} of sort {domain[index[v]]}"
                    )
            sizes = tuple(sorts[s].n for s in rel.signature)
            if ("carriers", sizes) not in rel._tables:
                for t in rel.tuples:
                    for pos, e in enumerate(t):
                        if not (0 <= e < sizes[pos]):
                            raise ValueError(f"tuple {t} escapes its sort carrier")
                rel._tables["carriers", sizes] = True
        self._init(variables, sorts, domain, constraints)
        scopes = tuple(tuple(index[v] for v in scope) for scope, _ in constraints)
        object.__setattr__(self, "_scopes", scopes)
        object.__setattr__(self, "_plan", None)

    def search_space(self) -> int:
        size = 1
        for s in self.domain:
            size *= self.sorts[s].n
        return size


Solution = dict[str, int]


# ---------------------------------------------------------------------------
# Invariance


def _commutes(g: CayleyTable) -> bool:
    """Whether g equals its transpose. Then t2·t1 = t1·t2 coordinatewise,
    so one product per unordered pair of tuples suffices."""
    return g.rows == tuple(zip(*g.rows))


def _products(rows: Sequence[Sequence[int]], t: tuple[int, ...], columns: Sequence[Sequence[int]]):
    """The coordinatewise products t·u, in order, for the tuples u whose
    coordinates `columns` lists position by position: columns[p][j] is
    u_j[p]. One row of the table per coordinate, read down that column."""
    return zip(*[map(rows[a].__getitem__, column) for a, column in zip(t, columns)])


def is_invariant(r: Relation, g: CayleyTable) -> bool:
    """Closure of the tuple set under the coordinatewise product of pairs.
    The verdict, True or False, is kept in the relation's memo, keyed on
    ("invariant", g), and read by every later call with that table. A
    relation that is not single-sorted or whose tuples leave the carrier of
    g raises `SortMismatch` before a verdict is proved; such a pair never
    gets one, so it raises on every call."""
    verdict = r._tables.get(("invariant", g))
    if verdict is None:
        if any(s != r.signature[0] for s in r.signature):
            raise SortMismatch("relation is not single-sorted")
        for t in r.tuples:
            for e in t:
                if not (0 <= e < g.n):
                    raise SortMismatch(f"tuple entry {e} outside carrier 0..{g.n - 1}")
        tuples = r.tuples
        rows = g.rows
        listed = list(tuples)
        columns = list(zip(*listed))
        if _commutes(g):
            # t_i meets t_i, t_i+1, ...: each unordered pair once
            verdict = all(
                tuples.issuperset(_products(rows, t, [column[i:] for column in columns]))
                for i, t in enumerate(listed)
            )
        else:
            verdict = all(tuples.issuperset(_products(rows, t, columns)) for t in listed)
        r._tables["invariant", g] = verdict
    return verdict


# ---------------------------------------------------------------------------
# Solvers


# one forward check: (getter of the key values, support table, last variable)
_Check = tuple[Callable, dict, int]


def _search_plan(inst: CSPInstance) -> tuple[list[tuple[int, int]], list[list[_Check]]]:
    """The search plan of `_backtrack`, built on the instance's first solve
    and kept in `CSPInstance._plan`: a (variable, mask of the values it
    allows) cut for each constraint on one distinct variable, and each
    variable's forward checks, one (getter of the key values, support
    table, last variable) per constraint whose last but one distinct
    variable it is. Nothing reads it but `_backtrack`, which never writes
    to it, so it is kept as built.

    Keeping it pays only when the same instance object is solved again, as
    when both solvers run on one instance or a self-reduction re-solves it
    under other domain masks; a caller that solves each instance once
    builds the plan once and never reads it again."""
    if inst._plan is not None:
        return inst._plan
    cuts: list[tuple[int, int]] = []
    checks: list[list[_Check]] = [[] for _ in inst.domain]
    for idxs, (_, rel) in zip(inst._scopes, inst.constraints):
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
            cuts.append((idxs[target], table.get((), 0)))
    plan = (cuts, checks)
    object.__setattr__(inst, "_plan", plan)
    return plan


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
    unary cuts and the checks come from the instance's plan (`_search_plan`),
    built on its first solve from the scopes as variable indices
    (`CSPInstance._scopes`) and the relations' support tables
    (`Relation.support`); every later call, under any `base`, reads it."""
    cuts, checks = _search_plan(inst)
    dom = list(base)
    for v, mask in cuts:
        dom[v] &= mask
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


def _arc_consistency(inst: CSPInstance) -> tuple[list[int], list[Collection[tuple[int, ...]]]]:
    """Domain masks and each constraint's live tuples at the generalized
    arc consistency fixpoint: the live tuples are the relation's tuples
    inside the domains, and they project onto exactly the domains. A
    constraint that was never filtered returns its relation's own tuple
    set; a filtered one a list in the relation's iteration order.

    Every domain is first cut by the projections (`Relation.projections`,
    memoized per relation) of the constraints on it. If none narrowed, as
    on every subdirect instance such as 3-LIN equations, the full domains
    are the fixpoint and every relation keeps its tuples. Otherwise, as in
    AC-3, the queue starts with the constraints on a narrowed domain, the
    only ones whose tuples the domains can cut; a filtered constraint cuts
    each domain in its scope to what its live tuples support, and is
    filtered again when a domain in its scope shrinks. The fixpoint is
    unique, so the order changes neither the domains nor the live tuples.
    Runs on after a domain empties, so everything that depends on it
    empties too; applies no equality rule to a repeated scope variable."""
    full_of = [(1 << t.n) - 1 for t in inst.sorts]
    full = [full_of[s] for s in inst.domain]
    dom = list(full)
    rels = [rel for _, rel in inst.constraints]
    scopes = inst._scopes
    for idxs, rel in zip(scopes, rels):
        for u, projection in zip(idxs, rel.projections()):
            dom[u] &= projection
    live: list[Collection[tuple[int, ...]]] = [rel.tuples for rel in rels]
    if dom == full:
        return dom, live

    woken_by: list[list[int]] = [[] for _ in dom]
    for k, idxs in enumerate(scopes):
        for u in dict.fromkeys(idxs):
            woken_by[u].append(k)
    queued = [any(dom[u] != full[u] for u in idxs) for idxs in scopes]
    queue = deque(k for k, q in enumerate(queued) if q)
    while queue:
        k = queue.popleft()
        queued[k] = False
        idxs = scopes[k]
        narrowed = [(p, dom[u]) for p, u in enumerate(idxs) if dom[u] != full[u]]
        live[k] = kept = [t for t in live[k] if all(m >> t[p] & 1 for p, m in narrowed)]
        for p, u in enumerate(idxs):
            support = sum({1 << t[p] for t in kept})
            if dom[u] & ~support:
                dom[u] &= support
                for j in woken_by[u]:
                    if not queued[j]:
                        queued[j] = True
                        queue.append(j)
    return dom, live


def solve_consistency(inst: CSPInstance) -> Solution | None:
    """Generalized arc consistency on bitmasks, then the forward-checking
    search of `solve_brute` inside the domains left. Arc consistency removes
    no value that a solution uses, so this is the same lexicographically
    least solution, or None. The support tables and projections both read
    are the relations' own, and the search plan the instance's own, so
    calling both solvers on one instance, or either on many instances over
    one language, builds each table and the plan once."""
    dom, _ = _arc_consistency(inst)
    return _backtrack(inst, dom) if all(dom) else None


# ---------------------------------------------------------------------------
# The fiber-collapse reduction


class ReductionResult(_Record):
    """Reduced instance plus everything needed to audit the construction."""

    __slots__ = _fields = ("reduced", "trivially_unsat", "a", "b_sets", "b_prime", "split")
    reduced: CSPInstance
    trivially_unsat: bool
    a: dict[str, int]  # the fold values a_v, as parent elements
    b_sets: dict[str, tuple[int, ...]]  # normalized B_v, parent elements
    b_prime: dict[str, tuple[int, ...]]  # σ-class of a_v, parent elements
    split: FiberSplit  # the template's, from `plonka.fiber_split`

    @property
    def fiber_globals(self) -> tuple[tuple[int, ...], ...]:
        """Reduced sort -> parent elements."""
        return self.split.blocks

    def transform(self, solution: Mapping[str, int]) -> Solution:
        """An original solution mapped through v -> f(v)∨a_v into local
        coordinates."""
        if self.trivially_unsat:
            raise ValueError("instance is trivially unsatisfiable")
        jm, local = self.split.jm, self.split.local
        return {v: local[jm[solution[v]][a]] for v, a in self.a.items()}


def fold_join(jm: Sequence[Sequence[int]], values: Sequence[int]) -> int:
    """Left fold of the join over the values in the given order."""
    it = iter(values)
    acc = next(it)
    for v in it:
        acc = jm[acc][v]
    return acc


@lru_cache(maxsize=32)
def _template_split(g: CayleyTable, join: Term):
    """The `plonka.FiberSplit` of an idempotent template, from
    `plonka.fiber_split`, which checks that the join satisfies P1..P4. It
    depends on (g, join) only, so the reduction computes it once per
    template; a template that fails raises on every call, since nothing is
    cached then. The reduction is the one path of this module that loads
    `plonka`."""
    from cigroupoids.plonka import NotPseudopartition, fiber_split

    if not check_property(g, "idempotent"):
        raise NotPseudopartition("template is not idempotent")
    return fiber_split(g, join)[1]


def reduce_instance(
    inst: CSPInstance, join: Term = STANDARD_JOIN
) -> ReductionResult:
    """Collapse every variable's domain to one σ-fiber.

    Requires a single-sorted instance over an idempotent table for which
    the join term satisfies P1..P4 and all constraint relations are
    invariant. The template's `FiberSplit` (join matrix, σ, fibers) comes
    from a bounded cache keyed on (template, join), `_template_split`, and
    each relation's invariance verdict from its memo (`is_invariant`), so a
    relation is proved invariant once per template. Projections are
    first normalized to a subdirect fixpoint, the arc consistency fixpoint
    of `solve_consistency`; an empty projection short-circuits to a
    trivially unsatisfiable instance. On a subdirect instance that fixpoint
    is the full domains, found from the relations' projections alone.

    Each variable v takes the σ-class of a_v, the join of its domain, as
    its sort, and a constraint keeps, in local coordinates, the live tuples
    whose every entry lies in the σ-class of its variable. A variable whose
    domain emptied has no live tuples, so the sort 0 it gets admits none.
    """
    if len(inst.sorts) != 1:
        raise ValueError("reduction expects a single-sorted instance")
    g = inst.sorts[0]
    split = _template_split(g, join)
    jm, block_of, blocks, local = split.jm, split.block_of, split.blocks, split.local
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
            blk = block_of[a]
            b_prime[v] = blocks[blk]
            domain.append(blk)
        else:
            a_v[v] = -1
            b_prime[v] = ()
            domain.append(0)

    new_cons = []
    for (scope, _), idxs, tuples in zip(inst.constraints, inst._scopes, live):
        sig = tuple(domain[u] for u in idxs)
        kept = [
            tuple(local[e] for e in t)
            for t in tuples
            if all(block_of[e] == blk for e, blk in zip(t, sig))
        ]
        new_cons.append((tuple(scope), Relation(sig, frozenset(kept))))
    for v in inst.variables:
        if not b_sets[v]:
            # an empty unary pins the unsatisfiability in-instance
            new_cons.append(((v,), Relation((0,), frozenset())))

    reduced = CSPInstance(inst.variables, split.fibers, tuple(domain), tuple(new_cons))

    return ReductionResult(
        reduced=reduced,
        trivially_unsat=empty,
        a=a_v,
        b_sets=b_sets,
        b_prime=b_prime,
        split=split,
    )


# ---------------------------------------------------------------------------
# Instance generation


def close_under(template: CayleyTable, seeds: Iterable[tuple[int, ...]]) -> frozenset:
    """Smallest tuple set containing seeds closed under the coordinatewise op."""
    rows = template.rows
    # Each tuple taken off the frontier meets itself and every tuple taken
    # before it, whose coordinates `columns` keeps position by position, so
    # each pair is met once; both products of a pair are taken in turn
    # unless the table commutes.
    flipped = None if _commutes(template) else tuple(zip(*rows))
    out = set(tuple(t) for t in seeds)
    frontier = list(out)
    columns: list[list[int]] = [[] for _ in frontier[0]] if frontier else []
    while frontier:
        t1 = frontier.pop()
        for column, e in zip(columns, t1):
            column.append(e)
        products = _products(rows, t1, columns)
        if flipped is not None:
            # t2·t1 reads the transposed table at (t1, t2)
            products = chain.from_iterable(zip(products, _products(flipped, t1, columns)))
        for p in products:
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
    template operation, and enters its memo as invariant under the
    template, so `is_invariant` does not prove it again."""
    import random

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
        rel = Relation.single_sorted(close_under(template, seeds), arity)
        rel._tables["invariant", template] = True
        cons.append((scope, rel))
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
        for t in sorted(rel.tuples):
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
    if k < 0:
        raise ValueError(f"sort count is negative: {lines[pos]!r}")
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
            n = parse_size(lines[pos])
            block = lines[pos : pos + n + 1]
            sorts.append(parse_alg("\n".join(block)))
            pos += n + 1
    variables: list[str] = []
    domain: list[int] = []
    index: dict[str, int] = {}  # a repeated name keeps its first position
    cons: list[tuple[tuple[str, ...], Relation]] = []
    relations: dict[tuple, Relation] = {}  # equal blocks share one Relation
    while pos < len(lines):
        ln = lines[pos]
        if ln.startswith("var "):
            toks = ln.split()
            if len(toks) != 3:
                raise ValueError(f"var line needs a name and a sort id: {ln!r}")
            index.setdefault(toks[1], len(variables))
            variables.append(toks[1])
            domain.append(parse_int(toks[2], ln, "sort id"))
            pos += 1
        elif ln.startswith("con "):
            scope = tuple(ln.split()[1:])
            for v in scope:
                if v not in index:
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
            key = (tuple(domain[index[v]] for v in scope), frozenset(tuples))
            if key not in relations:
                relations[key] = Relation(*key)
            cons.append((scope, relations[key]))
        else:
            raise ValueError(f"unrecognized line {ln!r}")
    return CSPInstance(tuple(variables), tuple(sorts), tuple(domain), tuple(cons))
