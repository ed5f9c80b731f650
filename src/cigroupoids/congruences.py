"""Congruences of finite groupoids and the meet-semidistributivity test.

A congruence is stored as a block-id array: block_of[x] is the id of the
class containing x, with ids normalized so that they appear in increasing
order of least element. `_normalize` is the one function that normalizes.
`PartitionCongruence.__post_init__` applies it to whatever labels it is
given (union-find roots, class labels, pairs of block ids), so no instance
breaks the convention. The lattice code works on normalized block arrays,
plain tuples, and builds a `PartitionCongruence` only for each element of
the lattice it returns. `from_pairs` and `_join` generate equivalences
through one union-find, `_find` with path halving; `_join` serves the
sweep, the irreducibility test, SD(∧) and the public `join`.

A partition is a congruence exactly when every translation x -> a·x and
x -> x·a maps blocks into blocks (Freese 2008, below). `is_compatible`
tests this on whole lines: it maps each row and column of the table
through the block ids once, and the partition is compatible exactly when
every element's two mapped lines equal those of its block's first
element. On failure only the first failing pair (a, a2) of related
elements is searched for its (b, b2), so the witness is the first one the
scan over all related pairs (a, a2) and (b, b2) would report.

The lattice is built from the principal congruences Cg(a, b), following
Freese, "Computing congruences efficiently" (Algebra Universalis, 2008).
`_principals` tabulates the table's distinct translations once and closes
every pair (a, b) over them, keeping each distinct principal congruence
with the first pair that generates it; Cg(a, b) ≤ f holds exactly when f
relates a and b. `_irreducibles` keeps the J join-irreducible ones: p =
Cg(a, b) is the join of the principals strictly below it exactly when
that join relates a and b.

Every congruence is the join of the join-irreducibles it contains, and
every cover f ≺ e has the form e = f∨j for a join-irreducible j: any j ≤ e
with j ≰ f will do, and one exists, or e would lie below f. So one sweep
from the identity reaches every element and every cover. `_sweep` joins
each element f once with each join-irreducible j that f separates (f does
not relate the pair generating j), never with the other elements: O(L*J)
joins for L congruences, every one a step up. It goes level by level,
from most blocks to fewest, since f∨j ≠ f has fewer blocks than f, and
its levels are keyed on the block arrays.

`_closure` closes a merged pair under the translations x -> c·x and
x -> x·c, the rows and the columns of the table, each distinct map once:
on a commutative table they coincide, which halves the work. A translate
is tested far more often than two classes merge (at most n - 1 times), so
the closure keeps a class label per element, where a test is two
lookups, and a merge relabels one class. `principal_congruence`, for a
single pair, tabulates the translations itself.

Meet-semidistributivity, SD(∧), says x∧y = x∧z implies x∧(y∨z) = x∧y.
`is_sd_meet` groups, for each x, the elements z by the meet x∧z and checks
that x meets the join of each group G in the group's key m. The two agree:
if SD(∧) holds, G is closed under binary joins, so ∨G lies in G.
Conversely, if x∧(∨G) = m, then for y, z in G, m = x∧y ≤ x∧(y∨z) ≤
x∧(∨G) = m. It suffices to take x join-irreducible: if SD(∧) fails at x,
y, z with x∧y = x∧z = m, let j be minimal among the join-irreducibles
below x∧(y∨z) but not below m. The join-irreducibles below its lower cover
j_* are below m, so j_* ≤ m; and j ≰ y, z, or else j ≤ x∧y = m. So
j∧y = j∧z = j_* while j∧(y∨z) = j. Hence x runs over the J join-irreducibles
the sweep used: O(J*L) meets and joins instead of the O(L^3) of the triple
definition.

The order facts come from the same sweep. Since every cover f ≺ e is
f∨j for a join-irreducible j, the longest chain from the bottom up to e
is a longest path over the edges f -> f∨j. Everything below e lies on an
earlier level, so the sweep has settled e's depth by the time it reaches
e, and stores it. `height` is the largest depth and `atoms` are the
elements of depth 1; neither joins or meets anything.
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
    block_of: tuple[int, ...]

    def __post_init__(self) -> None:
        """Relabel any hashable labels to the normalized block ids."""
        object.__setattr__(self, "block_of", _normalize(self.block_of))

    @property
    def n(self) -> int:
        return len(self.block_of)

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


def from_pairs(n: int, pairs) -> PartitionCongruence:
    """Equivalence generated by the pairs (no compatibility check)."""
    parent = list(range(n))
    for a, b in pairs:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
    return PartitionCongruence([_find(parent, x) for x in range(n)])


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


def _translations(g: CayleyTable) -> tuple[tuple[int, ...], ...]:
    """The distinct translations x -> c·x and x -> x·c: the table's rows
    and columns, a map that repeats taken once."""
    rows = g.rows
    return tuple(dict.fromkeys(rows + tuple(zip(*rows))))


def _closure(maps: tuple[tuple[int, ...], ...], n: int, a: int, b: int) -> list[int]:
    """Class labels of Cg(a, b): merge a with b, then close each merged pair
    under the translations `maps`; relabeling a whole class gives
    transitivity for free."""
    label = list(range(n))  # label[x]: an element of x's class
    label[b] = a
    work = [(a, b)]
    # each merge propagates its own translates; transitivity then carries
    # the translates of every derived pair, so one worklist pass reaches
    # the fixpoint
    while work:
        x, y = work.pop()
        for t in maps:
            u, v = t[x], t[y]
            i, j = label[u], label[v]
            if i != j:
                label = [i if k == j else k for k in label]
                work.append((u, v))
    return label


def principal_congruence(g: CayleyTable, a: int, b: int) -> PartitionCongruence:
    """Smallest congruence identifying a and b; a ValueError names an
    element outside the carrier."""
    n = g.n
    for x in (a, b):
        if not 0 <= x < n:
            raise ValueError(f"element {x} is outside 0..{n - 1}")
    return PartitionCongruence(_closure(_translations(g), n, a, b))


def _join(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Join of two normalized block arrays of one size, normalized: p's
    blocks merged along q's blocks."""
    parent = list(range(len(p)))  # over p's block ids
    first: dict[int, int] = {}  # q-block -> p-block of its least element
    for a, b in zip(p, q):
        r = first.setdefault(b, a)
        if r != a:
            ra, rb = _find(parent, r), _find(parent, a)
            if ra != rb:
                parent[ra] = rb
    return _normalize([_find(parent, a) for a in p])


def join(p: PartitionCongruence, q: PartitionCongruence) -> PartitionCongruence:
    """Transitive closure of the union; a ValueError names both sizes if they differ."""
    if p.n != q.n:
        raise ValueError(f"a partition of {p.n} elements and one of {q.n} elements have no join")
    return PartitionCongruence(_join(p.block_of, q.block_of))


def meet(p: PartitionCongruence, q: PartitionCongruence) -> PartitionCongruence:
    """Intersection; a ValueError names both sizes if they differ."""
    if p.n != q.n:
        raise ValueError(f"a partition of {p.n} elements and one of {q.n} elements have no meet")
    return PartitionCongruence(list(zip(p.block_of, q.block_of)))


def _lattice_order(key: tuple[int, ...]) -> tuple:
    """Sort key of a normalized block array, reversed: most blocks (finest)
    first, so f < e puts f before e."""
    return (max(key), key)


@dataclass(frozen=True)
class CongruenceLattice:
    """All congruences, finest first, each with the length of the longest
    chain up to it from the bottom; the distinct nontrivial principal
    congruences among them, in the same order; and the join-irreducible
    ones among those, again in the same order. The join-irreducibles are
    the principal congruences that are not the join of the principal
    congruences strictly below them, and every congruence is the join of
    the join-irreducibles below it."""

    n: int
    elements: tuple[PartitionCongruence, ...]
    depths: tuple[int, ...]
    principals: tuple[PartitionCongruence, ...]
    irreducibles: tuple[PartitionCongruence, ...]

    def height(self) -> int:
        """Length (edge count) of the longest chain."""
        return max(self.depths)

    def atoms(self) -> list[PartitionCongruence]:
        """The elements covering the bottom, in lattice order."""
        return [e for e, d in zip(self.elements, self.depths) if d == 1]


Step = tuple[tuple[int, ...], int, int]  # a principal congruence and its first generating pair


def _principals(g: CayleyTable) -> list[Step]:
    """Each distinct nontrivial principal congruence with the first pair
    (a, b) that generates it, in lattice order; the translations are
    tabulated once for all pairs."""
    n = g.n
    maps = _translations(g)
    generators: dict[tuple[int, ...], tuple[int, int]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            generators.setdefault(_normalize(_closure(maps, n, a, b)), (a, b))
    return [(p, *generators[p]) for p in sorted(generators, key=_lattice_order, reverse=True)]


def _irreducibles(principals: list[Step]) -> list[Step]:
    """The join-irreducible principal congruences, in the same order.

    Cg(a, b) is the join of the principals strictly below it exactly when
    that join relates a and b. Each principal below p is the join of the
    irreducibles below it, and those come earlier in lattice order, so p
    is tested against the irreducibles found so far, stopping once their
    join relates p's pair.
    """
    out: list[Step] = []
    for p, a, b in principals:
        below = None
        for j, c, d in out:
            # j <= p exactly when p relates j's pair, and j != p
            if p[c] == p[d]:
                below = j if below is None else _join(below, j)
                if below[a] == below[b]:
                    break
        else:
            out.append((p, a, b))
    return out


def _sweep(n: int, irreducibles: list[Step]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Every congruence's block array in lattice order, with its depth:
    the sweep from the identity over joins with the irreducibles."""
    # levels[k] maps the block array of each element with k blocks found so
    # far to its depth
    levels: list[dict[tuple[int, ...], int]] = [{} for _ in range(n + 1)]
    levels[n][tuple(range(n))] = 0
    keys: list[tuple[int, ...]] = []
    depths: list[int] = []
    for level in reversed(levels):
        for f in sorted(level, reverse=True):
            d = level[f]
            keys.append(f)
            depths.append(d)
            for j, a, b in irreducibles:
                # Cg(a, b) <= f exactly when f relates a and b; otherwise
                # f∨j lies strictly above f
                if f[a] != f[b]:
                    e = _join(f, j)
                    up = levels[max(e) + 1]
                    if up.get(e, -1) <= d:
                        up[e] = d + 1
    return keys, depths


def all_congruences(g: CayleyTable) -> CongruenceLattice:
    """The full congruence lattice: one sweep of joins with the join-irreducible
    principal congruences."""
    n = g.n
    if n > MAX_N_CONGRUENCES:
        raise BoundExceeded(f"n={n} exceeds the congruence bound {MAX_N_CONGRUENCES}")
    principals = _principals(g)
    irreducibles = _irreducibles(principals)
    keys, depths = _sweep(n, irreducibles)
    elements = tuple(map(PartitionCongruence, keys))
    element = dict(zip(keys, elements))
    return CongruenceLattice(
        n,
        elements,
        tuple(depths),
        tuple(element[p] for p, _, _ in principals),
        tuple(element[j] for j, _, _ in irreducibles),
    )


def is_sd_meet(lat: CongruenceLattice) -> bool:
    """Meet-semidistributivity: for each join-irreducible x, join the classes of z under x∧z."""
    blocks = [z.block_of for z in lat.elements]
    for x in [j.block_of for j in lat.irreducibles]:
        joins: dict[tuple[int, ...], tuple[int, ...]] = {}
        for z in blocks:
            m = _normalize(zip(x, z))
            j = joins.get(m)
            joins[m] = z if j is None else _join(j, z)
        if any(_normalize(zip(x, j)) != m for m, j in joins.items()):
            return False
    return True
