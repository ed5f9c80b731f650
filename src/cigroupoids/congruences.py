"""Congruences of finite groupoids and the meet-semidistributivity test.

A `PartitionCongruence` stores a block-id array: block_of[x] is the id of
the class containing x, with ids normalized so that they appear in
increasing order of least element. `_normalize` is the one function that
normalizes. `PartitionCongruence.__init__` applies it to whatever labels
it is given (class labels, the rows of σ, pairs of block ids), so no
instance breaks the convention. `related`, like `principal_congruence`,
refuses an element outside the carrier.

Inside this module a congruence is a plain tuple of least-element labels:
label[x] is the least element of x's class. Labels are as canonical as
normalized ids, so they key dicts, and they sort the same way: two
partitions that agree before position i agree there in both forms, and at
i the smaller id names the class with the smaller least element. The
number of blocks is the number of distinct labels. The closure, the
irreducibility test, the sweep and `is_sd_meet` work on labels and never
normalize. `PartitionCongruence` normalizes once per element of the
lattice that `all_congruences` returns, and `_labels` reads the labels
back off a normalized array, for `join` and `is_sd_meet`. `_join` and
`_meet` serve the lattice code and the public `join` and `meet`.

A partition is a congruence exactly when related elements have related
products. `is_compatible` tests a given partition by that definition; no
workload calls it, and the lattice never tests a partition, since it
builds every congruence by closure.

The lattice is built from the principal congruences Cg(a, b), following
Freese, "Computing congruences efficiently" (Algebra Universalis, 2008).
`_principals` tabulates the table's distinct translations once and closes
every pair (a, b) over them, keeping each distinct principal congruence
with the first pair that generates it; Cg(a, b) ≤ f holds exactly when f
relates a and b. `_irreducibles` keeps the J join-irreducible ones: p =
Cg(a, b) is the join of the principals strictly below it exactly when
that join relates a and b.

Every congruence is the join of the join-irreducibles it contains. Let
S_f be the join-irreducibles that f separates, those whose generating pair
f does not relate. If e covers f, some j ≤ e lies in S_f, or e would lie
below f; take j' ≤ j minimal in S_f. Then f < f∨j' ≤ f∨j = e, so
f∨j' = e. So every cover of f is f∨j' for a minimal member j' of S_f, and
one sweep from the identity that joins each element f once with each
minimal member of S_f, and with nothing else, reaches every element and
every cover. Every join is a step up. `_sweep` tabulates, for each
irreducible j_i, the mask of those strictly below it (j_k < j_i when
k ≠ i and j_i relates j_k's generating pair) and reads S_f off f's labels
as a mask. It goes level by level, from most blocks to fewest, since
f∨j ≠ f has fewer blocks than f.

That is one join per minimal member of S_f: at most J for each of the L
congruences, and all of S_f only where its members are pairwise
incomparable. On the 6-element left-zero band, whose irreducibles are all
atoms, the sweep makes 2,265 joins, as many as joining with all of S_f.
On the 4-chain × 3-chain it makes 2,174 against 5,479, and over the
`structure` benchmark's 100 small Płonka sums for seed 1 it makes 1,040
against 1,678.

Both loops that generate equivalences, `_closure` and `_join`, test two
labels, and merge two classes through `_merged`, which relabels the larger
label to the smaller: the merged class is labeled by its least element,
and relabeling a whole class gives transitivity for free. A test happens
far more often than a merge (at most n - 1 of them, each rewriting n
labels). `_closure` closes a merged pair under the translations x -> c·x
and x -> x·c, the rows and the columns of the table, each distinct map
once: on a commutative table they coincide, which halves the work.
`_join(p, q)` starts from p's labels and merges along q's spanning edges
(x, q[x]), one for each element that is not the least of its q-class, so
a join with an atom is one merge. `principal_congruence`, for a single
pair, tabulates the translations itself.

Meet-semidistributivity, SD(∧), says x∧y = x∧z implies x∧(y∨z) = x∧y.
`is_sd_meet` groups, for each x, the elements z by the meet x∧z (`_meet`:
y's class in x∧z is that of the label pair (x[y], z[y])) and checks that
x meets the join of each group G in the group's key m. The two agree:
if SD(∧) holds, G is closed under binary joins, so ∨G lies in G.
Conversely, if x∧(∨G) = m, then for y, z in G, m = x∧y ≤ x∧(y∨z) ≤
x∧(∨G) = m. It suffices to take x join-irreducible: if SD(∧) fails at x,
y, z with x∧y = x∧z = m, let j be minimal among the join-irreducibles
below x∧(y∨z) but not below m. The join-irreducibles below its lower cover
j_* are below m, so j_* ≤ m; and j ≰ y, z, or else j ≤ x∧y = m. So
j∧y = j∧z = j_* while j∧(y∨z) = j. Hence x runs over the J join-irreducibles
the sweep used: O(J*L) meets and joins instead of the O(L^3) of the triple
definition.

The order facts come from the same sweep. Since every cover of f is one
of the joins the sweep makes from f, the longest chain from the bottom up
to e is a longest path over those edges. Everything below e lies on an
earlier level, so the sweep has settled e's depth by the time it reaches
e, and stores it. `height` is the largest depth and `atoms` are the
elements of depth 1; neither joins or meets anything.
"""

from __future__ import annotations

import itertools

from cigroupoids.core import BoundExceeded, CayleyTable, _Record

MAX_N_CONGRUENCES = 12


def _normalize(labels) -> tuple[int, ...]:
    """Relabel hashable labels 0, 1, ... in order of first occurrence."""
    relabel: dict = {}
    return tuple([relabel.setdefault(b, len(relabel)) for b in labels])


def _check_elements(n: int, *elements: int) -> None:
    """Raise a ValueError naming the first element outside 0..n-1."""
    for x in elements:
        if not 0 <= x < n:
            carrier = f"0..{n - 1}" if n else "the empty carrier"
            raise ValueError(f"element {x} is outside {carrier}")


class PartitionCongruence(_Record):
    __slots__ = _fields = ("block_of",)
    block_of: tuple[int, ...]

    def __init__(self, block_of) -> None:
        """Relabel any hashable labels to the normalized block ids."""
        object.__setattr__(self, "block_of", _normalize(block_of))

    @property
    def n(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return max(self.block_of, default=-1) + 1

    def blocks(self) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return [tuple(b) for b in out]

    def related(self, a: int, b: int) -> bool:
        """Whether a and b share a block; a ValueError names an element
        outside the carrier."""
        block = self.block_of
        _check_elements(len(block), a, b)
        return block[a] == block[b]


def is_compatible(g: CayleyTable, part: PartitionCongruence) -> tuple[bool, tuple | None]:
    """Check a≡a' and b≡b' imply ab≡a'b'; return a witness on failure.

    The witness is the first (a, a2, b, b2) with a≡a2, b≡b2 and ab, a2b2 in
    different blocks, blocks taken in order and each pair in lexicographic
    order. The scan checks each related pair (a, a2) against every related
    pair (b, b2): at most (Σ|B|²)² checks over the blocks B.
    """
    n = g.n
    if part.n != n:
        raise ValueError(f"a partition of {part.n} elements does not fit a table of {n} elements")
    block, rows = part.block_of, g.rows
    related = [pair for blk in part.blocks() for pair in itertools.product(blk, repeat=2)]
    for a, a2 in related:
        for b, b2 in related:
            if block[rows[a][b]] != block[rows[a2][b2]]:
                return False, (a, a2, b, b2)
    return True, None


def _translations(g: CayleyTable) -> tuple[tuple[int, ...], ...]:
    """The distinct translations x -> c·x and x -> x·c: the table's rows
    and columns, a map that repeats taken once."""
    rows = g.rows
    return tuple(dict.fromkeys(rows + tuple(zip(*rows))))


def _merged(label: list[int], i: int, j: int) -> list[int]:
    """The labels with the classes labeled i and j merged under the smaller
    label, which keeps every label the least element of its class."""
    if i > j:
        i, j = j, i
    return [i if k == j else k for k in label]


def _closure(maps: tuple[tuple[int, ...], ...], n: int, a: int, b: int) -> list[int]:
    """Least-element labels of Cg(a, b): merge a with b, then close each
    merged pair under the translations `maps`; relabeling a whole class
    gives transitivity for free."""
    label = _merged(list(range(n)), a, b)
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
                label = _merged(label, i, j)
                work.append((u, v))
    return label


def principal_congruence(g: CayleyTable, a: int, b: int) -> PartitionCongruence:
    """Smallest congruence identifying a and b; a ValueError names an
    element outside the carrier."""
    n = g.n
    _check_elements(n, a, b)
    return PartitionCongruence(_closure(_translations(g), n, a, b))


def _labels(block_of: tuple[int, ...]) -> tuple[int, ...]:
    """Least-element labels of a normalized block array: the ids appear in
    order of least element, so block k's least element is where id k first
    appears."""
    least: list[int] = []
    for x, b in enumerate(block_of):
        if b == len(least):
            least.append(x)
    return tuple([least[b] for b in block_of])


def _join(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Join of two least-element label arrays of one size, as labels: p's
    classes merged along q's spanning edges (x, q[x])."""
    label = list(p)
    for x, r in enumerate(q):
        if r != x:
            i, j = label[x], label[r]
            if i != j:
                label = _merged(label, i, j)
    return tuple(label)


def _meet(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Meet of two label arrays of one size, whatever their labels, as
    least-element labels: x's class is that of the pair (p[x], q[x]), and
    its least element is where that pair first appears."""
    first: dict[tuple[int, int], int] = {}
    return tuple([first.setdefault(pair, x) for x, pair in enumerate(zip(p, q))])


def join(p: PartitionCongruence, q: PartitionCongruence) -> PartitionCongruence:
    """Transitive closure of the union; a ValueError names both sizes if they differ."""
    if p.n != q.n:
        raise ValueError(f"a partition of {p.n} elements and one of {q.n} elements have no join")
    return PartitionCongruence(_join(_labels(p.block_of), _labels(q.block_of)))


def meet(p: PartitionCongruence, q: PartitionCongruence) -> PartitionCongruence:
    """Intersection; a ValueError names both sizes if they differ."""
    if p.n != q.n:
        raise ValueError(f"a partition of {p.n} elements and one of {q.n} elements have no meet")
    return PartitionCongruence(_meet(p.block_of, q.block_of))


def _lattice_order(key: tuple[int, ...]) -> tuple:
    """Sort key of a least-element label array, reversed: most blocks
    (finest) first, so f < e puts f before e."""
    return (len(set(key)), key)


class CongruenceLattice(_Record):
    """All congruences, finest first, each with the length of the longest
    chain up to it from the bottom, and the join-irreducible ones among
    them, in the same order. The join-irreducibles are the principal
    congruences that are not the join of the principal congruences
    strictly below them, and every congruence is the join of the
    join-irreducibles below it."""

    __slots__ = _fields = ("n", "elements", "depths", "irreducibles")

    def height(self) -> int:
        """Length (edge count) of the longest chain."""
        return max(self.depths)

    def atoms(self) -> list[PartitionCongruence]:
        """The elements covering the bottom, in lattice order."""
        return [e for e, d in zip(self.elements, self.depths) if d == 1]


Step = tuple[tuple[int, ...], int, int]  # a principal congruence's labels and its first generating pair


def _principals(g: CayleyTable) -> list[Step]:
    """Each distinct nontrivial principal congruence with the first pair
    (a, b) that generates it, in lattice order; the translations are
    tabulated once for all pairs."""
    n = g.n
    maps = _translations(g)
    generators: dict[tuple[int, ...], tuple[int, int]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            generators.setdefault(tuple(_closure(maps, n, a, b)), (a, b))
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
    """Every congruence's labels in lattice order, with its depth: the sweep
    from the identity over joins with the minimal irreducibles each
    element separates."""
    pairs = [(1 << k, c, d) for k, (_, c, d) in enumerate(irreducibles)]
    # j_k < j_i exactly when k != i and j_i relates j_k's generating pair
    steps = [
        (bit, sum(b for b, c, d in pairs if b != bit and j[c] == j[d]), j)
        for (j, _, _), (bit, _, _) in zip(irreducibles, pairs)
    ]
    bottom = tuple(range(n))
    depth = {bottom: 0}
    # levels[k]: the elements with k blocks found so far
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    levels[n].append(bottom)
    keys: list[tuple[int, ...]] = []
    for level in reversed(levels):
        for f in sorted(level, reverse=True):
            keys.append(f)
            up = depth[f] + 1
            # the irreducibles f separates: Cg(c, d) <= f exactly when f
            # relates c and d
            separated = sum(bit for bit, c, d in pairs if f[c] != f[d])
            for bit, below, j in steps:
                if separated & bit and not separated & below:
                    e = _join(f, j)
                    if e not in depth:
                        levels[len(set(e))].append(e)
                        depth[e] = up
                    elif depth[e] < up:
                        depth[e] = up
    return keys, [depth[f] for f in keys]


def all_congruences(g: CayleyTable) -> CongruenceLattice:
    """The full congruence lattice: one sweep of joins with the join-irreducible
    principal congruences."""
    n = g.n
    if n > MAX_N_CONGRUENCES:
        raise BoundExceeded(f"n={n} exceeds the congruence bound {MAX_N_CONGRUENCES}")
    irreducibles = _irreducibles(_principals(g))
    keys, depths = _sweep(n, irreducibles)
    elements = tuple(map(PartitionCongruence, keys))
    element = dict(zip(keys, elements))
    return CongruenceLattice(
        n, elements, tuple(depths), tuple(element[j] for j, _, _ in irreducibles)
    )


def is_sd_meet(lat: CongruenceLattice) -> bool:
    """Meet-semidistributivity: for each join-irreducible x, join the classes of z under x∧z."""
    elements = [_labels(z.block_of) for z in lat.elements]
    for x in [_labels(j.block_of) for j in lat.irreducibles]:
        joins: dict[tuple[int, ...], tuple[int, ...]] = {}
        for z in elements:
            m = _meet(x, z)
            j = joins.get(m)
            joins[m] = z if j is None else _join(j, z)
        if any(_meet(x, j) != m for m, j in joins.items()):
            return False
    return True
