"""Command-line front end.

Subcommands mirror the library layers: `alg` for identity checking and
model search, `plonka` for decomposition and sums, `cie` for the cyclic
groupoids, `csp` for instances and the reduction, and `verify` for the
named suites. Exit codes: 0 success (or satisfiable), 1 a check or search
came up negative (10 for an unsatisfiable instance), 2 usage or data error.

A process imports only the layers its subcommand runs. This module loads
`core` alone, and building the parser imports no layer; each handler
imports its own layer when it is called:

- `alg check`: nothing more for a named property or an identity literal,
  `bolmoufang` for a Bol-Moufang name;
- `alg classify`: `bolmoufang`;
- `alg enumerate`, `alg separate`: `search`, and `bolmoufang` for a
  Bol-Moufang name or a Table 1 class;
- `alg congruences`: `congruences`;
- `plonka`, `cie`: `plonka` (`congruences` only through `plonka.sigma`);
- `csp gen`, `csp solve`: `csp`;
- `csp reduce`: `csp`, then `plonka` for the template's split;
- `verify`: `suites`, then each suite the layers it runs.

No command loads `dataclasses` or `typing`: every record is a plain
`__slots__` class (`core._Record`).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from cigroupoids.core import (
    FIXTURE_NAMES,
    CayleyTable,
    Identity,
    PROPERTY_LAWS,
    STANDARD_JOIN,
    check_identity_witness,
    check_property,
    format_alg,
    is_latin_square,
    load_alg,
    load_fixture,
    parse_alg,
    parse_identity,
    parse_term,
)


def _read_text(path: str) -> str:
    """The text of a file, read as UTF-8 whatever the locale, or of stdin ('-')."""
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_table(path: str) -> CayleyTable:
    """Read a Cayley table from a file, stdin ('-'), or a bundled fixture."""
    if path == "-":
        return parse_alg(_read_text(path))
    if os.path.exists(path):
        return load_alg(path)
    stem = os.path.basename(path)
    if stem.endswith(".alg"):
        stem = stem[:-4]
    if stem in FIXTURE_NAMES:
        return load_fixture(stem)
    raise FileNotFoundError(f"no such table file or fixture: {path}")


def _parse_identity_arg(text: str) -> Identity:
    """A Bol-Moufang name like D23 (this loads `bolmoufang`), or an identity literal."""
    t = text.strip()
    # a name's shape (bolmoufang.LETTERS, two digits); decode checks the rest
    if len(t) == 3 and t[0] in "ABCDEF" and t[1:].isdigit():
        from cigroupoids.bolmoufang import decode

        return decode(t)
    return parse_identity(t)


def _identity_list(args: Sequence[str]) -> tuple[Identity, ...]:
    return tuple(_parse_identity_arg(a) for a in args)


def _emit(rows: list[tuple[str, ...]], fmt: str) -> None:
    if fmt == "tsv":
        for row in rows:
            print("\t".join(row))
    else:
        for row in rows:
            print(" ".join(row))


# ---------------------------------------------------------------------------
# alg


def _cmd_alg_check(args, fmt: str) -> int:
    g = _load_table(args.table)
    what = args.identity.strip()
    if what == "latin-square":
        ok = is_latin_square(g)
        print("satisfied" if ok else "fails (row or column repeats)")
        return 0 if ok else 1
    idents: tuple[Identity, ...]
    if what in PROPERTY_LAWS:
        idents = PROPERTY_LAWS[what]
    else:
        idents = (_parse_identity_arg(what),)
    for ident in idents:
        w = check_identity_witness(g, ident)
        if w is not None:
            assignment = ", ".join(f"{k}={v}" for k, v in sorted(w.items()))
            print(f"fails {ident} at {assignment}")
            return 1
    print("satisfied")
    return 0


def _cmd_alg_classify(args, fmt: str) -> int:
    from cigroupoids.bolmoufang import (
        ALL_BM,
        BM_INDEX,
        TABLE1_CLASSES,
        classify_bm,
        profile_string,
    )

    g = _load_table(args.table)
    bits = classify_bm(g)
    # the classes are varieties of commutative idempotent groupoids
    ci = check_property(g, "commutative") and check_property(g, "idempotent")
    classes = [
        cls
        for cls in TABLE1_CLASSES
        if ci and all(bits[BM_INDEX[name]] for name in TABLE1_CLASSES[cls])
    ]
    if fmt == "tsv":
        rows = [(name, str(int(bit))) for name, bit in zip(ALL_BM, bits)]
        rows.append(("classes", ",".join(classes)))
        _emit(rows, fmt)
    else:
        print(profile_string(bits))
        print("classes:", " ".join(classes) if classes else "(none)")
    return 0


def _cmd_alg_enumerate(args, fmt: str) -> int:
    from cigroupoids.search import SearchSpec, enumerate_models, variety_identities

    require = list(_identity_list(args.require))
    if args.variety:
        require.extend(variety_identities(args.variety))
    spec = SearchSpec(
        n=args.n,
        require=tuple(require),
        forbid=_identity_list(args.forbid),
        commutative=not args.noncommutative,
        idempotent=not args.nonidempotent,
    )
    count = 0
    for g in enumerate_models(spec):
        if count:
            print()
        print(format_alg(g), end="")
        count += 1
    print(f"# count={count}")
    return 0


def _cmd_alg_separate(args, fmt: str) -> int:
    from cigroupoids.search import MAX_N_CONSTRAINED, find_separating_model

    max_n = MAX_N_CONSTRAINED if args.max_n is None else args.max_n
    model = find_separating_model(
        _identity_list(args.sat), _identity_list(args.unsat), max_n
    )
    if model is None:
        print("none")
        return 1
    print(format_alg(model), end="")
    return 0


def _cmd_alg_congruences(args, fmt: str) -> int:
    from cigroupoids.congruences import all_congruences, is_sd_meet

    g = _load_table(args.table)
    lat = all_congruences(g)
    rows = [
        ("elements", str(len(lat.elements))),
        ("atoms", str(len(lat.atoms()))),
        ("height", str(lat.height())),
        ("sd-meet", "true" if is_sd_meet(lat) else "false"),
    ]
    _emit(rows, fmt)
    return 0


# ---------------------------------------------------------------------------
# plonka


def _join_term(text: str | None):
    return STANDARD_JOIN if text is None else parse_term(text)


def _cmd_plonka_check(args, fmt: str) -> int:
    from cigroupoids.plonka import LAWS, check_pseudopartition

    g = _load_table(args.table)
    status = check_pseudopartition(g, _join_term(args.join))
    flags = [(name, status.holds(name)) for name, _ in LAWS]
    if fmt == "tsv":
        rows = []
        for name, ok in flags:
            w = "" if ok else str(status.witnesses.get(name, ""))
            rows.append((name, "ok" if ok else "fail", w))
        _emit(rows, fmt)
    else:
        passing = [name for name, ok in flags if ok]
        parts = []
        if passing:
            parts.append(f"{' '.join(passing)} ok")
        for name, ok in flags:
            if not ok:
                parts.append(f"{name} FAIL witness={status.witnesses[name]}")
        print("; ".join(parts))
    return 0 if status.pseudopartition else 1


def _cmd_plonka_decompose(args, fmt: str) -> int:
    from cigroupoids.plonka import decompose, format_system

    g = _load_table(args.table)
    print(format_system(decompose(g, _join_term(args.join))), end="")
    return 0


def _cmd_plonka_sum(args, fmt: str) -> int:
    from cigroupoids.plonka import parse_system, plonka_sum

    print(format_alg(plonka_sum(parse_system(_read_text(args.system)))), end="")
    return 0


def _cmd_plonka_adjoin(args, fmt: str) -> int:
    from cigroupoids.plonka import adjoin_infinity

    g = _load_table(args.table)
    print(format_alg(adjoin_infinity(g)), end="")
    return 0


# ---------------------------------------------------------------------------
# cie / csp / verify


def _cmd_cie(args, fmt: str) -> int:
    from cigroupoids.plonka import cid_exponent, cie_cyclic

    g = cie_cyclic(args.n)
    if args.exponent:
        print(cid_exponent(g))
    else:
        print(format_alg(g), end="")
    return 0


def _load_instance(path: str):
    from cigroupoids.csp import parse_csp

    return parse_csp(_read_text(path), base_dir=os.path.dirname(path) or ".")


def _cmd_csp_gen(args, fmt: str) -> int:
    from cigroupoids.csp import format_csp, gen_instance

    for flag, value, least in (
        ("--vars", args.vars, 1),
        ("--max-arity", args.max_arity, 1),
        ("--constraints", args.constraints, 0),
    ):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    template = _load_table(args.template)
    inst = gen_instance(
        args.seed,
        template,
        num_vars=args.vars,
        num_constraints=args.constraints,
        max_arity=args.max_arity,
    )
    print(format_csp(inst), end="")
    return 0


def _cmd_csp_solve(args, fmt: str) -> int:
    from cigroupoids.csp import solve_brute, solve_consistency

    inst = _load_instance(args.instance)
    solver = solve_brute if args.method == "brute" else solve_consistency
    solution = solver(inst)
    if solution is None:
        print("unsatisfiable")
        return 10
    for v in inst.variables:
        print(f"{v}={solution[v]}")
    return 0


def _cmd_csp_reduce(args, fmt: str) -> int:
    from cigroupoids.csp import format_csp, reduce_instance

    inst = _load_instance(args.instance)
    red = reduce_instance(inst, _join_term(args.join))
    if red.trivially_unsat:
        print("# trivially-unsat")
    for v in inst.variables:
        if red.b_sets[v]:
            fiber = ",".join(str(e) for e in red.b_prime[v])
            print(f"# a[{v}]={red.a[v]} fiber={fiber}")
    print(format_csp(red.reduced), end="")
    return 0


def _cmd_verify(args, fmt: str) -> int:
    from cigroupoids.suites import run_suite

    report = run_suite(args.suite)
    if fmt == "tsv":
        _emit([(c.check, "pass" if c.passed else "fail", c.witness)
               for c in report.checks], fmt)
    else:
        for c in report.checks:
            status = "ok" if c.passed else "FAIL"
            print(f"{status:4s} {c.check:36s} {c.witness}")
        passed = sum(c.passed for c in report.checks)
        verdict = "PASS" if report.overall else "FAIL"
        print(f"suite {report.name}: {verdict} ({passed}/{len(report.checks)})")
    return 0 if report.overall else 1


# ---------------------------------------------------------------------------


class _SuiteListFormatter(argparse.HelpFormatter):
    """Help for `verify`: the `suite` argument's help is the list of suite
    names, read from `suites` only when the help is printed."""

    def _get_help_string(self, action):
        if action.dest == "suite":
            from cigroupoids.suites import SUITE_NAMES

            return ", ".join(SUITE_NAMES)
        return super()._get_help_string(action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cigroupoids",
        description="Commutative idempotent groupoids: identities, models, "
        "decompositions, and constraint instances.",
    )
    parser.add_argument(
        "--format", choices=("text", "tsv"), default="text",
        help="report output format",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("alg", help="Cayley-table checks and searches")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)

    p = alg_sub.add_parser("check", help="test one identity or named property")
    p.add_argument("identity", help="Bol-Moufang name, identity literal, or property")
    p.add_argument("table", help=".alg file, fixture name, or -")
    p.set_defaults(func=_cmd_alg_check)

    p = alg_sub.add_parser("classify", help="60-identity profile and classes")
    p.add_argument("table")
    p.set_defaults(func=_cmd_alg_classify)

    p = alg_sub.add_parser("enumerate", help="stream models up to isomorphism")
    p.add_argument("-n", type=int, required=True, help="carrier size")
    p.add_argument("--variety", help="named variety, e.g. squag or T1")
    p.add_argument("--require", action="append", default=[], metavar="IDENT")
    p.add_argument("--forbid", action="append", default=[], metavar="IDENT")
    p.add_argument("--noncommutative", action="store_true")
    p.add_argument("--nonidempotent", action="store_true")
    p.set_defaults(func=_cmd_alg_enumerate)

    p = alg_sub.add_parser("separate", help="smallest model of sat failing unsat")
    p.add_argument("--sat", action="append", default=[], metavar="IDENT")
    p.add_argument("--unsat", action="append", required=True, metavar="IDENT")
    p.add_argument("--max-n", type=int)
    p.set_defaults(func=_cmd_alg_separate)

    p = alg_sub.add_parser("congruences", help="congruence lattice summary")
    p.add_argument("table")
    p.set_defaults(func=_cmd_alg_congruences)

    plonka = sub.add_parser("plonka", help="semilattice-sum structure")
    plonka_sub = plonka.add_subparsers(dest="subcommand", required=True)

    p = plonka_sub.add_parser("check", help="P1-P5 status for a join term")
    p.add_argument("--join", metavar="TERM", help="join term, default (y (x y))")
    p.add_argument("table")
    p.set_defaults(func=_cmd_plonka_check)

    p = plonka_sub.add_parser("decompose", help="replica, fibers, and maps")
    p.add_argument("--join", metavar="TERM")
    p.add_argument("table")
    p.set_defaults(func=_cmd_plonka_decompose)

    p = plonka_sub.add_parser("sum", help="compose a serialized system")
    p.add_argument("system", help="system file or -")
    p.set_defaults(func=_cmd_plonka_sum)

    p = plonka_sub.add_parser("adjoin-infinity", help="append an absorbing element")
    p.add_argument("table")
    p.set_defaults(func=_cmd_plonka_adjoin)

    p = sub.add_parser("cie", help="cyclic entropic groupoid of odd order")
    p.add_argument("n", type=int)
    p.add_argument("--exponent", action="store_true",
                   help="print the least decomposition exponent instead")
    p.set_defaults(func=_cmd_cie)

    csp = sub.add_parser("csp", help="constraint instances")
    csp_sub = csp.add_subparsers(dest="subcommand", required=True)

    p = csp_sub.add_parser("gen", help="seeded random instance over a template")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--template", required=True, help=".alg file or fixture name")
    p.add_argument("--vars", type=int, default=5)
    p.add_argument("--constraints", type=int, default=4)
    p.add_argument("--max-arity", type=int, default=3)
    p.set_defaults(func=_cmd_csp_gen)

    p = csp_sub.add_parser("solve", help="decide an instance")
    p.add_argument("--method", choices=("brute", "consistency"),
                   default="consistency")
    p.add_argument("instance", help="instance file or -")
    p.set_defaults(func=_cmd_csp_solve)

    p = csp_sub.add_parser("reduce", help="collapse domains to join fibers")
    p.add_argument("--join", metavar="TERM")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_csp_reduce)

    p = sub.add_parser("verify", help="run a named verification suite",
                       formatter_class=_SuiteListFormatter)
    p.add_argument("suite", help="filled in by _SuiteListFormatter")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, args.format)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # domain errors from the library layers
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
