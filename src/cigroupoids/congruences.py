"""Congruences of finite groupoids and the meet-semidistributivity test.

A congruence is stored as a block-id array: block_of[x] is the id of the
class containing x, with ids normalized so that they appear in increasing
order of least element. `PartitionCongruence.__post_init__` is the one
place that normalizes: `from_pairs`, `principal_congruence`, `join` and
`meet` pass raw labels (union-find roots, pairs of block ids), so each
partition is normalized exactly once and no instance breaks the
convention. Equivalences are generated through one union-find, `_find`
with path halving, shared by `from_pairs`, `principal_congruence` and
`join`.

A partition is a congruence exactly when every translation x -> a·x and
x -> x·a maps blocks into blocks (Freese 2008, below). `is_compatible`
tests this on whole lines: it maps each row and column of the table
through the block ids once, and the partition is compatible exactly when
every element's two mapped lines equal those of its block's first
element. On failure only the first failing pair (a, a2) of related
elements is searched for its (b, b2), so the witness is the first one the
scan over all related pairs (a, a2) and (b, b2) would report.

The lattice is built from the distinct principal congruences Cg(a, b),
following Freese, "Computing congruences efficiently" (Algebra Universalis,
2008). Every congruence is the join of the principal ones it contains, so
one sweep from the identity reaches them all: each element found is joined
once with each principal congruence, never with the other elements, which
takes O(L*P) joins for L congruences and P principal ones. The sweep goes
level by level, from most blocks to fewest, since f∨p ≠ f has fewer blocks
than f.

Meet-semidistributivity, SD(∧), says x∧y = x∧z implies x∧(y∨z) = x∧y.
`is_sd_meet` groups, for each x, the elements z by the meet x∧z and checks
that x meets the join of each group G in the group's key m. The two agree:
if SD(∧) holds, G is closed under binary joins, so ∨G lies in G.
Conversely, if x∧(∨G) = m, then for y, z in G, m = x∧y ≤ x∧(y∨z) ≤
x∧(∨G) = m. It suffices to take x join-irreducible: if SD(∧) fails at x,
y, z with x∧y = x∧z = m, let j be minimal among the join-irreducibles
below x∧(y∨z) but not below m. The join-irreducibles below its lower cover
j_* are below m, so j_* ≤ m; and j ≰ y, z, or else j ≤ x∧y = m. So
j∧y = j∧z = j_* while j∧(y∨z) = j. Join-irreducible congruences are principal, so x runs
over the principal congruences only: O(P*L) meets and joins instead of the
O(L^3) of the triple definition.

The order facts come from the same sweep. Every cover f ≺ e has the form
e = f∨p for a principal p (any p ≤ e with p ≰ f), so the longest chain from
the bottom up to e is a longest path over the edges f -> f∨p. Everything
below e lies on an earlier level, so the sweep has settled e's depth by the
time it reaches e, and stores it. `height` is the largest depth and `atoms`
are the elements of depth 1; neither joins or meets anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from cigroupoids.core import BoundExceeded, CayleyTable

MAX_N_CONGRUENCES = 12


class NotACongruence(Exception):
    """The relation fails to be an operation-compatible equivalence."""

    def __init__(self, reason: str, witness: tuple):
        super().__init__(f"{reason}: witness {witness}")
        self.reason = reason
        self.witness = witness


def _normalize(labels) -> tuple[int, ...]:
    """Relabel hashable labels 0, 1, ... in order of first occurrence."""
    relabel: dict = {}
    return tuple([relabel.setdefault(b, len(relabel)) for b in labels])


def _find(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class PartitionCongruence:
    n: int
    block_of: tuple[int, ...]

    def __post_init__(self) -> None:
        """Relabel any hashable labels to the normalized block ids."""
        if len(self.block_of) != self.n:
            raise ValueError("block array length must equal n")
        object.__setattr__(self, "block_of", _normalize(self.block_of))

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1

    def blocks(self) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return [tuple(b) for b in out]

    def related(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]


def identity_congruence(n: int) -> PartitionCongruence:
    return PartitionCongruence(n, tuple(range(n)))


def from_pairs(n: int, pairs) -> PartitionCongruence:
    """Equivalence generated by the pairs (no compatibility check)."""
    parent = list(range(n))
    for a, b in pairs:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
    return PartitionCongruence(n, [_find(parent, x) for x in range(n)])


def is_compatible(g: CayleyTable, part: PartitionCongruence) -> tuple[bool, tuple | None]:
    """Check a≡a' and b≡b' imply ab≡a'b'; return a witness on failure.

    The witness is the first (a, a2, b, b2) with a≡a2, b≡b2 and ab, a2b2 in
    different blocks, blocks taken in order and each pair in lexicographic
    order. The pair (a, a2) has such a (b, b2) exactly when the mapped rows
    of a and a2 differ or x -> a·x splits a block, so only the first such
    pair is scanned for its (b, b2).
    """
    n = g.n
    if part.n != n:
        raise ValueError(f"a partition of {part.n} elements does not fit a table of {n} elements")
    block = part.block_of.__getitem__
    left = [list(map(block, row)) for row in g.rows]  # left[a][x]: block of a·x
    right = [list(map(block, col)) for col in zip(*g.rows)]  # right[a][x]: block of x·a
    first: dict[int, int] = {}
    lead = [first.setdefault(b, x) for x, b in enumerate(part.block_of)]
    if left == [left[p] for p in lead] and right == [right[p] for p in lead]:
        return True, None
    # the elements a whose translation x -> a·x splits a block
    splits = {
        a for x, p in enumerate(lead) if right[x] != right[p]
        for a in range(n) if right[x][a] != right[p][a]
    }
    related = [pair for blk in part.blocks() for pair in itertools.product(blk, repeat=2)]
    a, a2 = next((a, a2) for a, a2 in related if a in splits or left[a] != left[a2])
    b, b2 = next((b, b2) for b, b2 in related if left[a][b] != left[a2][b2])
    return False, (a, a2, b, b2)


def principal_congruence(g: CayleyTable, a: int, b: int) -> PartitionCongruence:
    """Smallest congruence identifying a and b.

    Standard closure: merge a with b, then repeatedly close merged pairs
    under the translations x -> x*c and x -> c*x; the union-find supplies
    transitivity for free.
    """
    n = g.n
    rows = g.rows
    parent = list(range(n))
    work: list[tuple[int, int]] = []

    def union(x: int, y: int) -> None:
        rx, ry = _find(parent, x), _find(parent, y)
        if rx != ry:
            parent[rx] = ry
            work.append((x, y))

    union(a, b)
    # each merge event propagates its own translates; transitivity then
    # carries the translates of every derived pair, so one worklist pass
    # reaches the fixpoint
    while work:
        x, y = work.pop()
        for c in range(n):
            union(rows[x][c], rows[y][c])
            union(rows[c][x], rows[c][y])
    return PartitionCongruence(n, [_find(parent, x) for x in range(n)])


def join(p: PartitionCongruence, q: PartitionCongruence) -> PartitionCongruence:
    """Transitive closure of the union: p's blocks merged along q's blocks."""
    p_of = p.block_of
    parent = list(range(p.n))  # over p's block ids
    first: dict[int, int] = {}  # q-block -> p-block of its least element
    for a, b in zip(p_of, q.block_of):
        r = first.setdefault(b, a)
        if r != a:
            ra, rb = _find(parent, r), _find(parent, a)
            if ra != rb:
                parent[ra] = rb
    return PartitionCongruence(p.n, [_find(parent, a) for a in p_of])


def meet(p: PartitionCongruence, q: PartitionCongruence) -> PartitionCongruence:
    return PartitionCongruence(p.n, list(zip(p.block_of, q.block_of)))


def _lattice_order(e: PartitionCongruence) -> tuple:
    """Sort key, reversed: most blocks (finest) first, so f < e puts f before e."""
    return (e.num_blocks, e.block_of)


@dataclass(frozen=True)
class CongruenceLattice:
    """All congruences, finest first, each with the length of the longest
    chain up to it from the bottom, and the distinct nontrivial principal
    congruences among them, in the same order."""

    n: int
    elements: tuple[PartitionCongruence, ...]
    depths: tuple[int, ...]
    principals: tuple[PartitionCongruence, ...]

    def height(self) -> int:
        """Length (edge count) of the longest chain."""
        return max(self.depths)

    def atoms(self) -> list[PartitionCongruence]:
        """The elements covering the bottom, in lattice order."""
        return [e for e, d in zip(self.elements, self.depths) if d == 1]


def all_congruences(g: CayleyTable) -> CongruenceLattice:
    """The full congruence lattice: one sweep of joins with the principal congruences."""
    n = g.n
    if n > MAX_N_CONGRUENCES:
        raise BoundExceeded(f"n={n} exceeds the congruence bound {MAX_N_CONGRUENCES}")
    principals = sorted(
        {principal_congruence(g, a, b) for a in range(n) for b in range(a + 1, n)},
        key=_lattice_order,
        reverse=True,
    )
    # levels[k] maps each element with k blocks found so far to its depth
    levels: list[dict[PartitionCongruence, int]] = [{} for _ in range(n + 1)]
    levels[n][identity_congruence(n)] = 0
    elements: list[PartitionCongruence] = []
    depths: list[int] = []
    for level in reversed(levels):
        for f in sorted(level, key=_lattice_order, reverse=True):
            d = level[f]
            elements.append(f)
            depths.append(d)
            for p in principals:
                e = join(f, p)
                if e != f:
                    up = levels[e.num_blocks]
                    if up.get(e, 0) <= d:
                        up[e] = d + 1
    return CongruenceLattice(n, tuple(elements), tuple(depths), tuple(principals))


def is_sd_meet(lat: CongruenceLattice) -> bool:
    """Meet-semidistributivity: for each principal x, join the classes of z under x∧z."""
    for x in lat.principals:
        joins: dict[PartitionCongruence, PartitionCongruence] = {}
        for z in lat.elements:
            m = meet(x, z)
            j = joins.get(m)
            joins[m] = z if j is None else join(j, z)
        if any(meet(x, j) != m for m, j in joins.items()):
            return False
    return True

