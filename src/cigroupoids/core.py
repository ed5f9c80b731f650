"""Finite groupoids as Cayley tables, terms over one binary operation, and
identity checking.

Elements are 0-based integers and tables are row major: entry (i, j) of the
table is the product i*j. Terms are fully parenthesized binary trees; there is
no implicit associativity anywhere, since the whole point of this package is
the study of operations that need not associate.

Every term is evaluated from the postfix ops of `compile_term`, by one of two
loops over them: `eval_postfix` computes one value for one assignment, and
identity checking runs the same ops on columns, one value per assignment of a
block, so each product node is a single pass over the block.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


class UnboundVariable(Exception):
    """A term variable has no value in the given assignment."""


class InvalidExponent(Exception):
    """Power terms x*y^j are only defined for j >= 1."""


class ArityMismatch(Exception):
    """The term's variable count does not fit the requested term condition."""


class BoundExceeded(Exception):
    """The requested computation is outside the supported size bounds."""


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Prod:
    left: "Term"
    right: "Term"

    # Equality and hashing go through the postfix signature rather than the
    # recursive dataclass defaults, so terms of any depth can be compared
    # and used as cache keys; the signature is walked once per instance.
    @functools.cached_property
    def signature(self) -> tuple[str | None, ...]:
        return _signature(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prod):
            return NotImplemented
        return self is other or self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)

    def __str__(self) -> str:
        return _render(self, lambda v: v.name, "({} {})".format)

    # The dataclass repr and pickling recurse; these do not.
    def __repr__(self) -> str:
        return _render(self, repr, "Prod(left={}, right={})".format)

    def __reduce__(self):
        return _from_signature, (self.signature,)


Term = Var | Prod


def postorder(t: Term) -> Iterator[Term]:
    """The nodes of t, children before parents and left before right.

    An explicit stack rather than recursion, so terms of any depth work.
    """
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        u, expanded = stack.pop()
        if expanded or isinstance(u, Var):
            yield u
        else:
            stack.append((u, True))
            stack.append((u.right, False))
            stack.append((u.left, False))


def _signature(t: Term) -> tuple[str | None, ...]:
    """Postfix listing of t: variable names, None for each product.

    Postfix notation is unambiguous for binary trees, so two terms are equal
    exactly when their signatures are.
    """
    return tuple(u.name if isinstance(u, Var) else None for u in postorder(t))


def _from_signature(sig: tuple[str | None, ...]) -> Term:
    """The term whose postfix signature is sig; inverse of `_signature`."""
    stack: list[Term] = []
    for name in sig:
        if name is None:
            right = stack.pop()
            stack[-1] = Prod(stack[-1], right)
        else:
            stack.append(Var(name))
    return stack[0]


def _render(t: Term, leaf, node) -> str:
    """Fold t into a string bottom up: leaf(v) for a variable, node(l, r) for a product."""
    out: list[str] = []
    for u in postorder(t):
        if isinstance(u, Var):
            out.append(leaf(u))
        else:
            right = out.pop()
            out[-1] = node(out[-1], right)
    return out[0]


def variables(t: Term) -> tuple[str, ...]:
    """Variable names of t in order of first occurrence."""
    return tuple(dict.fromkeys(u.name for u in postorder(t) if isinstance(u, Var)))


def parse_term(text: str) -> Term:
    """Parse the term grammar: term := variable | '(' term ' ' term ')'.

    The infix shorthand 'a*b' is accepted and normalized to '(a b)'; chains
    like 'a*b*c' associate to the left.
    """
    tokens = _tokenize(text)
    # One frame for the whole text and one per open '(': the finished first
    # operand inside the parentheses, if any, the star chain being built,
    # and whether a '*' still waits for its right operand. An explicit stack
    # rather than recursion, so nesting of any depth parses.
    frames: list[list] = [[None, None, False]]
    for tok in tokens:
        frame = frames[-1]
        first, cur, star = frame
        if tok == "*":
            if cur is None or star:
                raise ValueError(f"unexpected '*' in term: {text!r}")
            frame[2] = True
            continue
        if tok == ")":
            if cur is None or star:
                raise ValueError(f"unexpected ')' in term: {text!r}")
            if len(frames) == 1:
                raise ValueError(f"trailing tokens in term: {text!r}")
            frames.pop()
            # '(a b)' is a product, '(a)' just groups
            t = cur if first is None else Prod(first, cur)
        else:
            if cur is not None and not star:
                # a second operand starts inside '(...)'
                if len(frames) == 1:
                    raise ValueError(f"trailing tokens in term: {text!r}")
                if first is not None:
                    raise ValueError(f"missing ')' in term: {text!r}")
                frame[0], frame[1] = cur, None
            if tok == "(":
                frames.append([None, None, False])
                continue
            t = Var(tok)
        frame = frames[-1]
        frame[1] = Prod(frame[1], t) if frame[2] else t
        frame[2] = False
    first, cur, star = frames[-1]
    if cur is None or star or (len(frames) > 1 and first is None):
        raise ValueError(f"unexpected end of term: {text!r}")
    if len(frames) > 1:
        raise ValueError(f"missing ')' in term: {text!r}")
    return cur


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()*":
            tokens.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"bad character {c!r} in term: {text!r}")
    return tokens


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} ≈ {self.rhs}"

    @functools.cached_property
    def compiled(self) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
        """(names, lhs ops, rhs ops): both sides compiled over the sorted variables.

        Cached on the instance, since hashing an identity for a lookup would
        walk both terms just as compiling them does.
        """
        names = tuple(sorted(set(variables(self.lhs)) | set(variables(self.rhs))))
        return names, compile_term(self.lhs, names), compile_term(self.rhs, names)


def parse_identity(text: str) -> Identity:
    """Parse 'lhs = rhs' (also accepts the Unicode approx sign)."""
    for sep in ("≈", "="):
        if sep in text:
            lhs, rhs = text.split(sep, 1)
            return Identity(parse_term(lhs), parse_term(rhs))
    raise ValueError(f"identity needs a '=' separator: {text!r}")


# Argument positions for term conditions follow the customary variable order
# rather than alphabetical or first-occurrence order, so q(x,y,z) = y(xz)
# reads positionally as expected.
CONVENTIONAL_ORDER = ("x", "y", "z", "u", "v", "w")


def positional_variables(t: Term) -> tuple[str, ...]:
    """Variables of t ordered x, y, z, u, v, w first, then first occurrence."""
    occ = variables(t)
    head = [v for v in CONVENTIONAL_ORDER if v in occ]
    tail = [v for v in occ if v not in CONVENTIONAL_ORDER]
    return tuple(head) + tuple(tail)


# ---------------------------------------------------------------------------
# Cayley tables


class CayleyTable:
    """A finite binary operation on {0..n-1}.

    Commutativity and idempotence are deliberately not invariants of the
    type; plenty of useful counterexamples (the left-zero semigroup, say)
    are neither.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        if self.n < 1:
            raise ValueError("carrier must have at least one element")
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("table must be square")
            for v in r:
                if not (0 <= v < self.n):
                    raise ValueError(f"entry {v} outside 0..{self.n - 1}")

    def prod(self, a: int, b: int) -> int:
        return self.rows[a][b]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CayleyTable) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"CayleyTable({list(map(list, self.rows))!r})"


def parse_alg(text: str) -> CayleyTable:
    """Parse the .alg format: '#' comment lines, then n, then n rows."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty algebra file")
    n = int(lines[0].strip())
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
    return CayleyTable(rows)


def format_alg(g: CayleyTable) -> str:
    """Bit-exact .alg serialization: no trailing spaces, newline terminated."""
    out = [str(g.n)]
    for row in g.rows:
        out.append(" ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def load_alg(path: str) -> CayleyTable:
    with open(path, encoding="utf-8") as fh:
        return parse_alg(fh.read())


def load_fixture(name: str) -> CayleyTable:
    """Load one of the bundled example tables (fig1 .. fig4c, leftzero)."""
    from importlib.resources import files

    text = files("cigroupoids.data").joinpath(f"{name}.alg").read_text("utf-8")
    return parse_alg(text)


FIXTURE_NAMES = (
    "fig1",
    "fig2a",
    "fig2b",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig4c",
    "leftzero",
)


# ---------------------------------------------------------------------------
# Evaluation and identity checking

Assignment = Mapping[str, int]


def eval_term(t: Term, a: Assignment, g: CayleyTable) -> int:
    """The value of t under the assignment a."""
    names = tuple(a)
    return eval_postfix(compile_term(t, names), tuple(a[v] for v in names), g.rows)


def compile_term(t: Term, order: tuple[str, ...]) -> tuple[int, ...]:
    """Flatten t to postfix ops: i >= 0 pushes variable order[i], -1 multiplies.

    This is the only route to evaluation: every term the package evaluates
    is compiled here, then run by eval_postfix on one assignment or by the
    column loop of check_identity_witness on a block of assignments.
    """
    ops: list[int] = []
    for u in postorder(t):
        if isinstance(u, Prod):
            ops.append(-1)
        else:
            try:
                ops.append(order.index(u.name))
            except ValueError:
                raise UnboundVariable(u.name) from None
    return tuple(ops)


def eval_postfix(ops: tuple[int, ...], asg: Sequence[int], rows) -> int:
    """Run compiled ops with variable i bound to asg[i]; products are rows[a][b]."""
    stack: list[int] = []
    push = stack.append
    pop = stack.pop
    for op in ops:
        if op < 0:
            b = pop()
            push(rows[pop()][b])
        else:
            push(asg[op])
    return stack[0]


def check_identity(g: CayleyTable, ident: Identity) -> bool:
    """Exhaustive check over all assignments, early exit on the first failure."""
    return check_identity_witness(g, ident) is None


# Most assignments evaluated at once; bounds the column memory for any n.
_BLOCK = 4096


@functools.lru_cache(maxsize=64)
def _block_columns(n: int, j: int) -> tuple[tuple[list[int], ...], tuple[list[int], ...]]:
    """The columns of a block over j variables, and the constant columns.

    Column i holds variable i's values over the n**j assignments in
    itertools.product order; constant column v is [v] * n**j.
    """
    block = list(itertools.product(range(n), repeat=j))
    return tuple(map(list, zip(*block))), tuple([v] * len(block) for v in range(n))


def _eval_columns(ops: tuple[int, ...], cols: Sequence[list[int]], rows) -> list[int]:
    """Run compiled ops on columns: variable i pushes cols[i], products go entrywise."""
    stack: list[list[int]] = []
    push = stack.append
    pop = stack.pop
    for op in ops:
        if op < 0:
            right = pop()
            push([rows[a][b] for a, b in zip(pop(), right)])
        else:
            push(cols[op])
    return stack[0]


def check_identity_witness(g: CayleyTable, ident: Identity) -> dict[str, int] | None:
    """None when the identity holds; otherwise the first failing assignment.

    Assignments run in itertools.product order over the sorted variable
    names. The longest run of trailing variables with at most _BLOCK joint
    assignments is evaluated column-wise in one block; the leading variables
    run in order, each bound to a constant column, so a failure stops at the
    first block that contains one.
    """
    names, lhs, rhs = ident.compiled
    n, k = g.n, len(names)
    j = k
    while n**j > _BLOCK:
        j -= 1
    cols, consts = _block_columns(n, j)
    rows = g.rows
    for lead in itertools.product(range(n), repeat=k - j):
        env = [consts[v] for v in lead] + list(cols)
        left = _eval_columns(lhs, env, rows)
        right = _eval_columns(rhs, env, rows)
        if left != right:
            i = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
            return dict(zip(names, lead + tuple(c[i] for c in cols)))
    return None


_X, _Y, _Z, _W = Var("x"), Var("y"), Var("z"), Var("w")

COMMUTATIVE_LAW = Identity(Prod(_X, _Y), Prod(_Y, _X))
IDEMPOTENT_LAW = Identity(Prod(_X, _X), _X)
ASSOCIATIVE_LAW = Identity(Prod(Prod(_X, _Y), _Z), Prod(_X, Prod(_Y, _Z)))
TWO_SEMILATTICE_LAW = Identity(Prod(_X, Prod(_X, _Y)), Prod(_X, _Y))
DISTRIBUTIVE_LAW = Identity(
    Prod(_X, Prod(_Y, _Z)), Prod(Prod(_X, _Y), Prod(_X, _Z))
)
ENTROPIC_LAW = Identity(
    Prod(Prod(_X, _Y), Prod(_Z, _W)), Prod(Prod(_X, _Z), Prod(_Y, _W))
)
SQUAG_LAW = Identity(Prod(_X, Prod(_X, _Y)), _Y)

PROPERTY_LAWS = {
    "commutative": (COMMUTATIVE_LAW,),
    "idempotent": (IDEMPOTENT_LAW,),
    "associative": (ASSOCIATIVE_LAW,),
    "two-semilattice": (TWO_SEMILATTICE_LAW,),
    "distributive": (DISTRIBUTIVE_LAW,),
    "entropic": (ENTROPIC_LAW,),
    "squag": (COMMUTATIVE_LAW, IDEMPOTENT_LAW, SQUAG_LAW),
    "semilattice": (COMMUTATIVE_LAW, IDEMPOTENT_LAW, ASSOCIATIVE_LAW),
}


def is_latin_square(g: CayleyTable) -> bool:
    """Each element exactly once per row and per column."""
    full = set(range(g.n))
    for i in range(g.n):
        if set(g.rows[i]) != full:
            return False
        if {g.rows[j][i] for j in range(g.n)} != full:
            return False
    return True


def check_property(g: CayleyTable, name: str) -> bool:
    if name == "latin-square":
        return is_latin_square(g)
    try:
        laws = PROPERTY_LAWS[name]
    except KeyError:
        raise ValueError(f"unknown property {name!r}") from None
    return all(check_identity(g, law) for law in laws)


def power_term(j: int) -> Term:
    """The left-nested power x*y^j: x*y^1 = xy, x*y^(j+1) = (x*y^j)y."""
    if j < 1:
        raise InvalidExponent(j)
    t: Term = Prod(_X, _Y)
    for _ in range(j - 1):
        t = Prod(t, _Y)
    return t


def term_condition(
    g: CayleyTable,
    t: Term,
    kind: str,
    k: int | None = None,
    order: tuple[str, ...] | None = None,
) -> bool:
    """Check a named term condition for t on g.

    kind is one of 'wnu', 'nu', 'maltsev', 'edge'. For 'wnu' and 'nu', k is
    the arity; 'maltsev' is ternary; for 'edge', k counts the identities and
    the term is (k+1)-ary. Positions bind variables in the customary order
    x, y, z, u unless an explicit order is given.
    """
    kind = kind.lower()
    if kind == "maltsev":
        arity = 3
    elif kind in ("wnu", "nu"):
        if k is None or k < 2:
            raise ArityMismatch("wnu/nu need an arity k >= 2")
        arity = k
    elif kind == "edge":
        if k is None or k < 2:
            raise ArityMismatch("edge needs k >= 2")
        arity = k + 1
    else:
        raise ValueError(f"unknown term condition kind {kind!r}")
    names = positional_variables(t) if order is None else tuple(order)
    if len(names) != arity:
        raise ArityMismatch(f"term has {len(names)} variables, need {arity}")
    ops = compile_term(t, names)
    rows = g.rows
    rng = range(g.n)
    if kind == "maltsev":
        return all(
            eval_postfix(ops, (x, y, y), rows) == x
            and eval_postfix(ops, (y, y, x), rows) == x
            for x in rng
            for y in rng
        )
    if kind == "edge":
        patterns = [(0, 1), (0, 2)] + [(p,) for p in range(3, arity)]
        for x in rng:
            for y in rng:
                for xs in patterns:
                    args = [y] * arity
                    for p in xs:
                        args[p] = x
                    if eval_postfix(ops, args, rows) != y:
                        return False
        return True
    for x in rng:
        if eval_postfix(ops, [x] * arity, rows) != x:
            return False
    for x in rng:
        for y in rng:
            vals = []
            for pos in range(arity):
                args = [x] * arity
                args[pos] = y
                vals.append(eval_postfix(ops, args, rows))
            if any(v != vals[0] for v in vals[1:]):
                return False
            if kind == "nu" and vals[0] != x:
                return False
    return True


def product_algebra(g: CayleyTable, h: CayleyTable) -> CayleyTable:
    """Direct product on pairs, encoded as a*h.n + b."""
    n, m = g.n, h.n
    rows = [[0] * (n * m) for _ in range(n * m)]
    for a in range(n):
        for b in range(m):
            for c in range(n):
                for d in range(m):
                    rows[a * m + b][c * m + d] = g.rows[a][c] * m + h.rows[b][d]
    return CayleyTable(rows)
