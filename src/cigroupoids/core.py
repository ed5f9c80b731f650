"""Finite groupoids as Cayley tables, terms over one binary operation, and
identity checking.

Elements are 0-based integers and tables are row major: entry (i, j) of the
table is the product i*j. Terms are fully parenthesized binary trees; there is
no implicit associativity anywhere, since the whole point of this package is
the study of operations that need not associate.

A term's tree is walked once, by `_signature`, into its postfix signature:
variable names, None for each product. Equality and hashing compare
signatures, and one fold, `_fold`, reads them back for str, repr, pickling
and substitution. The compiled ops of `compile_term` are the signature with
each name replaced by its position in a variable order, so the same fold
turns them into straight-line code.

Every term is evaluated from its compiled ops, which are turned once per
distinct ops tuple into a straight-line Python function, one statement per
product: `term_function` computes one value for one assignment,
`instance_function` settles one ground instance of an identity on a partial
table, and identity checking runs both sides of an identity inside one loop
over the assignments, stopping at the first that tells them apart. Term
conditions are sets of identities in x and y, so term_condition decides them
through the same scan.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable, Iterable, Mapping
from functools import lru_cache


class UnboundVariable(Exception):
    """A term variable has no value in the given assignment."""


class InvalidExponent(Exception):
    """Power terms x*y^j are only defined for j >= 1."""


class ArityMismatch(Exception):
    """The term's variable count does not fit the requested term condition."""


class BoundExceeded(Exception):
    """The requested computation is outside the supported size bounds."""


# ---------------------------------------------------------------------------
# Records


class _Record:
    """Base of the package's immutable records, plain `__slots__` classes.

    A record lists its fields in `_fields`, in constructor order, and keeps
    a memo in a slot outside them. The base constructor binds positional or
    keyword arguments to the fields and raises `TypeError` on a missing,
    extra or repeated one; a record that validates or normalizes its
    arguments has its own `__init__`, which stores them through `_init`.
    Records are equal when they are of one type with equal fields, hash by
    their fields and print in the dataclass form `Name(field=value, ...)`.
    Pickling and copying rebuild a record through its constructor from its
    fields, so no memo is carried. No attribute can be set or deleted.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self._init(*args)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call with keywords or a wrong count."""
        fields, name, k = cls._fields, cls.__name__, len(args)
        if k > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {k} were given")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if fields.index(key) < k:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        missing = [f for f in fields[k:] if f not in kwargs]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {missing}")
        return args + tuple(kwargs[f] for f in fields[k:])

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


# ---------------------------------------------------------------------------
# Terms


class Var(_Record):
    __slots__ = _fields = ("name",)

    @property
    def signature(self) -> tuple[str]:
        return (self.name,)

    def __str__(self) -> str:
        return self.name


class Prod(_Record):
    __slots__ = ("left", "right", "_sig")
    _fields = ("left", "right")

    # The postfix signature is walked once per instance and kept. Equality,
    # hashing, str, repr and pickling all read it rather than the fields,
    # which would recurse, so terms of any depth can be compared, printed,
    # pickled and used as cache keys.
    @property
    def signature(self) -> tuple[str | None, ...]:
        try:
            return self._sig
        except AttributeError:
            sig = _signature(self)
            object.__setattr__(self, "_sig", sig)
            return sig

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prod):
            return NotImplemented
        return self is other or self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)

    def __str__(self) -> str:
        return _fold(self.signature, str, "({} {})".format)

    def __repr__(self) -> str:
        return _fold(self.signature, lambda name: repr(Var(name)), "Prod(left={}, right={})".format)

    def __reduce__(self):
        return _fold, (self.signature, Var, Prod)


Term = Var | Prod
# A compiled term (see compile_term): variable positions, None per product.
Ops = tuple[int | None, ...]


def _signature(t: Term) -> tuple[str | None, ...]:
    """Postfix listing of t: variable names, None for each product.

    The one walk of a term's tree. Postfix notation is unambiguous for
    binary trees, so two terms are equal exactly when their signatures are.
    An explicit stack rather than recursion, so terms of any depth work: it
    lists t backwards, each product before its right and then its left
    operand, and reverses the list at the end.
    """
    out: list[str | None] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.append(u.name)
        else:
            out.append(None)
            stack.append(u.left)
            stack.append(u.right)
    out.reverse()
    return tuple(out)


def _fold(postfix: Iterable, leaf: Callable, node: Callable):
    """Fold a postfix sequence bottom up: leaf(item) for each item that is
    not None, node(left, right) for each None, which marks a product.

    The one reader of a postfix sequence, signatures and compiled ops alike.
    """
    out: list = []
    for item in postfix:
        if item is None:
            right = out.pop()
            out[-1] = node(out[-1], right)
        else:
            out.append(leaf(item))
    return out[0]


def substitute(t: Term, env: Mapping[str, Term]) -> Term:
    """t with each variable v replaced by the term env[v]."""
    return _fold(t.signature, env.__getitem__, Prod)


def variables(t: Term) -> tuple[str, ...]:
    """Variable names of t in order of first occurrence."""
    return tuple(dict.fromkeys(name for name in t.signature if name is not None))


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


class Identity(_Record):
    __slots__ = ("lhs", "rhs", "_compiled")
    _fields = ("lhs", "rhs")

    def __str__(self) -> str:
        return f"{self.lhs} ≈ {self.rhs}"

    @property
    def compiled(self) -> tuple[tuple[str, ...], Ops, Ops]:
        """(names, lhs ops, rhs ops): both sides compiled over the sorted variables.

        Kept on the instance, since hashing an identity for a lookup would
        walk both terms just as compiling them does.
        """
        try:
            return self._compiled
        except AttributeError:
            names = tuple(sorted(set(variables(self.lhs)) | set(variables(self.rhs))))
            out = names, compile_term(self.lhs, names), compile_term(self.rhs, names)
            object.__setattr__(self, "_compiled", out)
            return out


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


class CayleyTable(_Record):
    """A finite binary operation on {0..n-1}.

    Commutativity and idempotence are deliberately not invariants of the
    type; plenty of useful counterexamples (the left-zero semigroup, say)
    are neither.

    A table is immutable: it serves as a cache key (see
    `csp.reduce_instance`), so its attributes are set once, here.
    """

    __slots__ = ("n", "rows")
    _fields = ("rows",)
    rows: tuple[tuple[int, ...], ...]
    n: int

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n < 1:
            raise ValueError("carrier must have at least one element")
        for r in rows:
            if len(r) != n:
                raise ValueError("table must be square")
            for v in r:
                if not (0 <= v < n):
                    raise ValueError(f"entry {v} outside 0..{n - 1}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CayleyTable) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"CayleyTable({list(map(list, self.rows))!r})"


def parse_int(token: str, line: str, what: str) -> int:
    """One integer token of a text format; a bad token names its line."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{what} is not an integer: {line!r}") from None


def parse_size(line: str) -> int:
    """The size line heading a .alg table; a bad or negative one names its line."""
    n = parse_int(line, line, "table size")
    if n < 0:
        raise ValueError(f"table size is negative: {line!r}")
    return n


def parse_alg(text: str) -> CayleyTable:
    """Parse the .alg format: '#' comment lines, then n, then n rows."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty algebra file")
    n = parse_size(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = [[parse_int(tok, ln, "table entry") for tok in ln.split()] for ln in lines[1:]]
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
    return load_alg(os.path.join(os.path.dirname(__file__), "data", f"{name}.alg"))


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
    f = term_function(compile_term(t, names), len(names))
    return f(g.rows, *(a[v] for v in names))


def compile_term(t: Term, order: tuple[str, ...]) -> Ops:
    """t's postfix signature with each name replaced by its position in order.

    None still marks a product. This is the only route to evaluation: every
    term the package evaluates is compiled here, then turned into Python by
    term_function for one assignment, by instance_function for one ground
    instance of an identity or by the identity scan of check_identity_witness.
    """
    ops: list = []
    for name in t.signature:
        try:
            ops.append(None if name is None else order.index(name))
        except ValueError:
            raise UnboundVariable(name) from None
    return tuple(ops)


def _straight_line(ops: Ops, body: list[str]) -> str:
    """Append one statement `tK = r[a][b]` per product of ops to body.

    Returns the name that holds the term's value: vI for a variable, else
    the last temporary. K is the statement's line in body, so each product
    gets its own temporary, because a nested r[r[..]] expression stops
    compiling a few hundred levels deep. The source holds only r, vI and tK
    with integer I and K, so no text from outside the program reaches exec.
    """

    def product(left: str, right: str) -> str:
        temp = f"t{len(body)}"
        body.append(f"{temp} = r[{left}][{right}]")
        return temp

    return _fold(ops, "v{}".format, product)


def _define(lines: list[str]) -> Callable:
    """exec the function source `lines` and return the function f it defines.

    The file name hashes the source: profilers tell functions apart by file, line and name.
    """
    source = "\n".join(lines) + "\n"
    namespace: dict = {}
    exec(compile(source, f"<compiled {hash(source):x}>", "exec"), namespace)
    return namespace["f"]


@lru_cache(maxsize=1024)
def term_function(ops: Ops, arity: int) -> Callable[..., int]:
    """f(rows, v0, .., v{arity-1}): the value of compiled ops on table rows."""
    body: list[str] = []
    value = _straight_line(ops, body)
    params = "".join(f", v{i}" for i in range(arity))
    return _define([f"def f(r{params}):"] + [f"    {s}" for s in body] + [f"    return {value}"])


@lru_cache(maxsize=1024)
def instance_function(lhs: Ops, rhs: Ops, arity: int) -> Callable:
    """f(rows, n, assignment): one ground instance of lhs ≈ rhs on a partial table.

    Entries n and above of rows stand for unknown cells. f returns -1 when
    both sides are the same element, -2 when they are different elements,
    and otherwise the larger side minus n: the cell the instance waits on.
    """
    body: list[str] = []
    left = _straight_line(lhs, body)
    right = _straight_line(rhs, body)
    asg = "".join(f"v{i}, " for i in range(arity))
    return _define(
        ["def f(r, n, a):", f"    {asg}= a"]
        + [f"    {s}" for s in body]
        + [
            f"    m = {left} if {left} > {right} else {right}",
            "    if m >= n:",
            "        return m - n",
            f"    return -1 if {left} == {right} else -2",
        ]
    )


@lru_cache(maxsize=1024)
def _identity_scan(lhs: Ops, rhs: Ops, arity: int) -> Callable:
    """f(rows, assignments): the first assignment where lhs and rhs differ, or None."""
    body: list[str] = []
    left = _straight_line(lhs, body)
    right = _straight_line(rhs, body)
    asg = "".join(f"v{i}, " for i in range(arity))
    return _define(
        ["def f(r, asgs):", f"    for {asg}in asgs:"]
        + [f"        {s}" for s in body]
        + [f"        if {left} != {right}:", f"            return {asg}"]
    )


def check_identity(g: CayleyTable, ident: Identity) -> bool:
    """Exhaustive check over all assignments, early exit on the first failure."""
    return check_identity_witness(g, ident) is None


def check_identity_witness(g: CayleyTable, ident: Identity) -> dict[str, int] | None:
    """None when the identity holds; otherwise the first failing assignment.

    Assignments run in itertools.product order over the sorted variable
    names, and the scan stops at the first one where the sides differ.
    """
    names, lhs, rhs = ident.compiled
    k = len(names)
    w = _identity_scan(lhs, rhs, k)(g.rows, itertools.product(range(g.n), repeat=k))
    return None if w is None else dict(zip(names, w))


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

# The candidate join x∨y = y·(x·y) of the Płonka layer (see `plonka`), the
# default of both that layer and the CSP reduction.
STANDARD_JOIN: Term = Prod(_Y, Prod(_X, _Y))

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


def term_condition(g: CayleyTable, t: Term, kind: str, k: int | None = None) -> bool:
    """Check a named term condition for t on g.

    kind is one of 'wnu', 'nu', 'maltsev', 'edge'. For 'wnu' and 'nu', k is
    the arity; 'maltsev' is ternary; for 'edge', k counts the identities and
    the term is (k+1)-ary. Positions bind variables in the customary order
    x, y, z, u. Each condition is a set of identities in x and y, made by
    putting x and y into t's positions, and holds when all of them do.
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
    names = positional_variables(t)
    if len(names) != arity:
        raise ArityMismatch(f"term has {len(names)} variables, need {arity}")

    def put(positions: Iterable[int], a: Term, b: Term) -> Term:
        """t with a in the given positions and b in all others."""
        return substitute(t, {v: a if i in positions else b for i, v in enumerate(names)})

    if kind == "maltsev":
        # f(x,y,y) ≈ x ≈ f(y,y,x)
        pairs = [(put((0,), _X, _Y), _X), (put((2,), _X, _Y), _X)]
    elif kind == "edge":
        # f(x,x,y,..,y) ≈ f(x,y,x,y,..,y) ≈ y, then x in each later position alone
        patterns = [(0, 1), (0, 2)] + [(p,) for p in range(3, arity)]
        pairs = [(put(p, _X, _Y), _Y) for p in patterns]
    else:
        # f(x,..,x) ≈ x and f(y,x,..,x) ≈ f(x,..,y,..,x) for y in each later position
        first = put((0,), _Y, _X)
        pairs = [(put((), _Y, _X), _X)]
        pairs += [(first, put((q,), _Y, _X)) for q in range(1, arity)]
        if kind == "nu":
            pairs.append((first, _X))
    return all(check_identity(g, Identity(lhs, rhs)) for lhs, rhs in pairs)


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
