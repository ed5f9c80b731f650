"""The `csp` workload: the solvers and the fiber-collapse reduction.

* Planted 3-LIN mod 3 over `cie_cyclic(3)` (x*y = -(x+y) mod 3, under which
  every affine relation is invariant): equations a1*x + a2*y + a3*z = d with
  nonzero a, about 1.5n of them. Half are satisfiable (the constants come
  from a planted assignment); the other half flip one constant of such a
  system. Each runs `solve_consistency`, and `solve_brute` too where
  3^n <= BRUTE_LIMIT. SAT stops at the first solution; UNSAT exhausts the
  tree, so the two halves load the solver differently. Two families:
  - chained, n = 12..20: every variable after the first two shares an
    equation with two earlier ones, plus n/2 random equations. Propagation
    and a shallow search decide them, so their times barely vary with the
    seed and the pass stays steady.
  - random, n = 12..13: 1.5n equations on random scopes. These carry the
    exponential search tail. Random systems at 18-20 variables took 0.05 s
    to 4 s each, and even n = 14 moved the pass time with the seed, so
    they stay small.
* Planted instances over `t1-sum-6` and `ainf-squag`: each relation is the
  closure under the template of a few tuples including the planted one. They
  run `reduce_instance`, then `solve_consistency` on the reduced instance.

References: this module's own Gaussian elimination over GF(3) gives the
3-LIN verdict; every returned solution is checked against the constraints;
reduced solutions are lifted through `fiber_globals` and checked against
the original instance. Instances are generated here from the seed, not with
`gen_instance`, whose output at 10 or more variables is almost always
trivially UNSAT.
"""

from __future__ import annotations

import itertools
import random

from cigroupoids import csp, plonka, suites
from harness import Item, Workload, setup_command

DEADLINE_S = 5.0
CHAINED_INSTANCES = 220
RANDOM_INSTANCES = 40
REDUCE_INSTANCES = 20

CYCLIC3 = plonka.cie_cyclic(3)


# ---------------------------------------------------------------------------
# 3-LIN mod 3


def _lin_relations() -> dict:
    return {
        (a, d): csp.Relation.single_sorted(
            (t for t in itertools.product(range(3), repeat=3)
             if sum(ai * ti for ai, ti in zip(a, t)) % 3 == d),
            3,
        )
        for a in itertools.product((1, 2), repeat=3)
        for d in range(3)
    }


def gf3_consistent(n: int, equations) -> bool:
    """Gaussian elimination over GF(3): does A x = b have a solution?"""
    rows = []
    for scope, a, d in equations:
        row = [0] * (n + 1)
        for v, c in zip(scope, a):
            row[v] = (row[v] + c) % 3
        row[n] = d
        rows.append(row)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]  # 1 and 2 are their own inverses mod 3
        rows[rank] = [(x * inv) % 3 for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % 3 for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return all(any(row[:n]) or row[n] == 0 for row in rows)


def _satisfies(inst: csp.CSPInstance, solution) -> bool:
    return all(tuple(solution[v] for v in scope) in rel.tuples for scope, rel in inst.constraints)


def _lin_item(rng: random.Random, relations: dict, n: int, sat: bool, chained: bool) -> Item:
    planted = [rng.randrange(3) for _ in range(n)]
    if chained:
        scopes = [tuple(rng.sample(range(v), 2)) + (v,) for v in range(2, n)]
        scopes += [tuple(rng.sample(range(n), 3)) for _ in range(n // 2)]
    else:
        scopes = [tuple(rng.sample(range(n), 3)) for _ in range(3 * n // 2)]
    equations = []
    for scope in scopes:
        a = tuple(rng.choice((1, 2)) for _ in range(3))
        equations.append((scope, a, sum(c * planted[v] for c, v in zip(a, scope)) % 3))
    if not sat:
        k = rng.randrange(len(equations))
        scope, a, d = equations[k]
        equations[k] = (scope, a, (d + 1) % 3)
    rng.shuffle(equations)
    names = tuple(f"v{i}" for i in range(n))
    inst = csp.CSPInstance(
        names, (CYCLIC3,), (0,) * n,
        tuple((tuple(names[v] for v in scope), relations[(a, d)]) for scope, a, d in equations),
    )
    use_brute = 3**n <= csp.BRUTE_LIMIT

    def run(ctx):
        found = csp.solve_consistency(inst)
        return found, csp.solve_brute(inst) if use_brute else found

    def check(out) -> bool:
        expected = gf3_consistent(n, equations)
        return all(
            (s is not None) == expected and (s is None or _satisfies(inst, s)) for s in out
        )

    kind = "chained" if chained else "random"
    return Item(f"3lin {kind} n={n} {'sat' if sat else 'unsat'}", run, check, DEADLINE_S)


# ---------------------------------------------------------------------------
# Reduction over templates with a pseudopartition join


def _closure(template, seeds) -> frozenset:
    out = set(seeds)
    frontier = list(out)
    while frontier:
        t1 = frontier.pop()
        for t2 in list(out):
            for p in (tuple(template.rows[a][b] for a, b in zip(t1, t2)),
                      tuple(template.rows[b][a] for a, b in zip(t1, t2))):
                if p not in out:
                    out.add(p)
                    frontier.append(p)
    return frozenset(out)


def _reduce_item(rng: random.Random, name: str, template) -> Item:
    n = rng.randint(10, 16)
    planted = [rng.randrange(template.n) for _ in range(n)]
    names = tuple(f"v{i}" for i in range(n))
    constraints = []
    for _ in range(2 * n):
        arity = rng.choice((2, 3))
        scope = rng.sample(range(n), arity)
        seeds = [tuple(planted[v] for v in scope)] + [
            tuple(rng.randrange(template.n) for _ in scope) for _ in range(rng.randint(0, 2))
        ]
        constraints.append((tuple(names[v] for v in scope),
                            csp.Relation.single_sorted(_closure(template, seeds), arity)))
    inst = csp.CSPInstance(names, (template,), (0,) * n, tuple(constraints))

    def run(ctx):
        red = csp.reduce_instance(inst)
        return red, csp.solve_consistency(red.reduced)

    def check(out) -> bool:
        red, local = out
        if red.trivially_unsat or local is None:
            return False  # the planted assignment satisfies the instance
        lifted = {
            v: red.fiber_globals[red.reduced.domain[i]][local[v]] for i, v in enumerate(names)
        }
        return _satisfies(red.reduced, local) and _satisfies(inst, lifted)

    return Item(f"reduce {name} n={n}", run, check, DEADLINE_S)


def build(seed: int) -> Workload:
    rng = random.Random(seed)
    relations = _lin_relations()
    items = [
        _lin_item(rng, relations, 12 + (k // 2) % 9, sat=k % 2 == 0, chained=True)
        for k in range(CHAINED_INSTANCES)
    ] + [
        _lin_item(rng, relations, 12 + (k // 2) % 2, sat=k % 2 == 0, chained=False)
        for k in range(RANDOM_INSTANCES)
    ]
    templates = suites.reduction_templates()
    for k in range(REDUCE_INSTANCES):
        name = ("t1-sum-6", "ainf-squag")[k % 2]
        items.append(_reduce_item(rng, name, templates[name]))
    return Workload(items, in_process=True, setup_cmd=setup_command("csp", seed))
