"""Span tracing that wraps the package's layer functions from outside.

Nothing in the package changes. `install` replaces each traced function by
a wrapper, in the defining module and in every module that bound it with
`from ... import`, and in the benchmark's own modules. A wrapped call opens
a span whose parent is the span open when the call began; a span's self time
is its duration minus the time covered by its child spans. Spans are folded
into per-name totals as they close, and each parent -> child edge is
counted, so memory stays flat however many calls a pass makes.

Hot functions (`congruences.join`, `congruences.meet`) get count-only
wrappers: their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

# The benchmark's own root spans; their self time is time spent in no layer.
ROOT_SPANS = ("bench.item", "bench.child")

LAYERS = ("core", "bolmoufang", "search", "congruences", "plonka", "csp", "suites", "cli")


class Tracer:
    """Span stack plus per-name aggregates for one process."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (parent span, child span) -> calls
        self.counters: Counter = Counter()
        self.values: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [name, start, time covered by children]

    @property
    def depth(self) -> int:
        return len(self._stack)

    def record_call(self, name: str) -> None:
        self.calls[name] += 1
        parent = self._stack[-1][0] if self._stack else None
        self.edges[(parent, name)] += 1

    def enter(self, name: str, call: bool = True) -> None:
        if call:
            self.record_call(name)
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        name, start, covered = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def cover(self, seconds: float) -> None:
        """Charge time measured elsewhere (a traced child process) to the open span's children."""
        self._stack[-1][2] += seconds

    def unwind(self, depth: int) -> None:
        """Close spans left open by an interrupt that landed inside a wrapper."""
        while len(self._stack) > depth:
            self.exit()

    def total_self(self) -> float:
        return sum(self.self_s.values())

    def to_json(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": [[p, c, k] for (p, c), k in self.edges.items()],
            "counters": dict(self.counters),
            "values": dict(self.values),
        }

    def merge(self, data: dict) -> None:
        self.calls.update(data["calls"])
        for k, v in data["self_s"].items():
            self.self_s[k] += v
        for p, c, k in data["edges"]:
            self.edges[(p, c)] += k
        self.counters.update(data["counters"])
        for k, v in data["values"].items():
            self.values[k] += v


# ---------------------------------------------------------------------------
# Result hooks: counts read off a wrapped call's arguments and result


def _lattice_size(tr, args, out, dur):
    tr.counters["congruences.lattice_elements"] += len(out.elements)


def _fibers(tr, args, out, dur):
    tr.counters["plonka.fibers"] += len(out.fibers)


def _suite(tr, args, out, dur):
    tr.values[f"suites.{out.name}.wall_s"] += dur
    tr.counters["suites.checks"] += len(out.checks)


def _verdict(tr, args, out, dur):
    tr.counters["csp.unsat" if out is None else "csp.sat"] += 1


def _reduction(tr, args, out, dur):
    tr.counters["csp.trivially_unsat"] += int(out.trivially_unsat)
    tr.values["csp.reduce.log10_space_in"] += math.log10(args[0].search_space())
    tr.values["csp.reduce.log10_space_out"] += math.log10(out.reduced.search_space())


# (module, attribute, span name, kind, hook); kind is "timed", "count" or "gen".
# A dotted attribute names a method of a class in the module.
SPANS = (
    ("core", "check_identity", "core.check_identity", "timed", None),
    ("core", "check_identity_witness", "core.check_identity", "timed", None),
    ("core", "term_condition", "core.term_condition", "timed", None),
    ("bolmoufang", "classify_bm", "bolmoufang.classify_bm", "timed", None),
    ("search", "all_models", "search.all_models", "timed", None),
    ("search", "enumerate_models", "search.enumerate_models", "gen", None),
    ("search", "canonical_form", "search.canonical_form", "timed", None),
    ("search", "find_separating_model", "search.find_separating_model", "timed", None),
    ("congruences", "all_congruences", "congruences.all_congruences", "timed", _lattice_size),
    ("congruences", "principal_congruence", "congruences.principal_congruence", "timed", None),
    ("congruences", "join", "congruences.join", "count", None),
    ("congruences", "meet", "congruences.meet", "count", None),
    ("congruences", "is_sd_meet", "congruences.is_sd_meet", "timed", None),
    ("congruences", "is_compatible", "congruences.is_compatible", "timed", None),
    ("congruences", "CongruenceLattice.height", "congruences.lattice.height", "timed", None),
    ("congruences", "CongruenceLattice.atoms", "congruences.lattice.atoms", "timed", None),
    ("plonka", "check_pseudopartition", "plonka.check_pseudopartition", "timed", None),
    ("plonka", "sigma", "plonka.sigma", "timed", None),
    ("plonka", "decompose", "plonka.decompose", "timed", _fibers),
    ("plonka", "plonka_sum", "plonka.plonka_sum", "timed", None),
    ("plonka", "join_matrix", "plonka.join_matrix", "timed", None),
    ("csp", "solve_consistency", "csp.solve_consistency", "timed", _verdict),
    ("csp", "solve_brute", "csp.solve_brute", "timed", _verdict),
    ("csp", "reduce_instance", "csp.reduce_instance", "timed", _reduction),
    ("csp", "is_invariant", "csp.is_invariant", "timed", None),
    ("suites", "run_suite", "suites.run_suite", "timed", _suite),
    ("cli", "main", "cli.main", "timed", None),
)


def _timed(tr: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = tr.exit()
        if hook is not None:
            hook(tr, args, out, dur)
        return out

    return wrapper


def _counted(tr: Tracer, name: str, fn):
    calls = tr.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _generator(tr: Tracer, name: str, fn):
    # The span is open only while the generator runs, so the consumer's work
    # between items is not charged to it.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.record_call(name)
        it = fn(*args, **kwargs)
        while True:
            tr.enter(name, call=False)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.exit()
            tr.counters["search.models_emitted"] += 1
            yield item

    return wrapper


class Installation:
    """The bindings replaced by `install`; `restore` puts the originals back."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()


def install(tr: Tracer) -> Installation:
    """Wrap every function in SPANS wherever it is bound; see the module docstring."""
    mods = {m: importlib.import_module(f"cigroupoids.{m}") for m in LAYERS}
    inst = Installation()
    for modname, attr, name, kind, hook in SPANS:
        owner = mods[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            inst.patches.append((cls, meth, orig))
            setattr(cls, meth, _timed(tr, name, orig, hook))
            continue
        orig = getattr(owner, attr)
        if kind == "count":
            wrapper = _counted(tr, name, orig)
        elif kind == "gen":
            wrapper = _generator(tr, name, orig)
        else:
            wrapper = _timed(tr, name, orig, hook)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is orig:
                    inst.patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)
    return inst


def model_cache():
    """The lru_cache object behind `search.all_models`, under any wrappers."""
    fn = importlib.import_module("cigroupoids.search").all_models
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    return fn


def record_cache(tr: Tracer) -> None:
    """Fold the model cache's hit and miss counts into the counters."""
    info = model_cache().cache_info()
    tr.counters["search.all_models.cache_hits"] += info.hits
    tr.counters["search.all_models.cache_misses"] += info.misses


# ---------------------------------------------------------------------------
# Per-layer metrics: name, unit, better, and how to read it off a Tracer


def _calls(span):
    return lambda tr: tr.calls.get(span, 0)


def _self(span):
    return lambda tr: tr.self_s.get(span, 0.0)


def _counter(key):
    return lambda tr: tr.counters.get(key, 0)


def _value(key):
    return lambda tr: tr.values.get(key, 0.0)


def _leaf_accept(tr):
    leaves = tr.edges.get(("search.enumerate_models", "search.canonical_form"), 0)
    return tr.counters.get("search.models_emitted", 0) / leaves if leaves else 0.0


SUITE_NAMES = (
    "figures", "table1", "intersections", "s2-terms",
    "t2-structure", "appendix", "reduction", "cid",
)


def _timed_pair(span, better="lower"):
    return [
        (f"{span}.calls", "count", better, _calls(span)),
        (f"{span}.self_s", "s", "lower", _self(span)),
    ]


LAYER_METRICS = (
    _timed_pair("core.check_identity")
    + _timed_pair("core.term_condition")
    + _timed_pair("bolmoufang.classify_bm")
    + _timed_pair("search.all_models")
    + [
        ("search.all_models.cache_hits", "count", "higher", _counter("search.all_models.cache_hits")),
        ("search.all_models.cache_misses", "count", "lower", _counter("search.all_models.cache_misses")),
        ("search.enumerate_models.self_s", "s", "lower", _self("search.enumerate_models")),
        ("search.models_emitted", "count", "higher", _counter("search.models_emitted")),
    ]
    + _timed_pair("search.canonical_form")
    + [("search.leaf_accept_ratio", "ratio", "higher", _leaf_accept)]
    + _timed_pair("search.find_separating_model")
    + _timed_pair("congruences.all_congruences")
    + _timed_pair("congruences.principal_congruence")
    + [
        ("congruences.join.calls", "count", "lower", _calls("congruences.join")),
        ("congruences.meet.calls", "count", "lower", _calls("congruences.meet")),
    ]
    + _timed_pair("congruences.is_sd_meet")
    + [
        ("congruences.lattice.height_s", "s", "lower", _self("congruences.lattice.height")),
        ("congruences.lattice.atoms_s", "s", "lower", _self("congruences.lattice.atoms")),
        ("congruences.lattice_elements", "count", "higher", _counter("congruences.lattice_elements")),
    ]
    + _timed_pair("congruences.is_compatible")
    + _timed_pair("plonka.check_pseudopartition")
    + _timed_pair("plonka.sigma")
    + _timed_pair("plonka.decompose")
    + _timed_pair("plonka.plonka_sum")
    + _timed_pair("plonka.join_matrix")
    + [("plonka.fibers", "count", "higher", _counter("plonka.fibers"))]
    + _timed_pair("csp.solve_consistency")
    + _timed_pair("csp.solve_brute")
    + _timed_pair("csp.reduce_instance")
    + _timed_pair("csp.is_invariant")
    + [
        ("csp.sat", "count", "higher", _counter("csp.sat")),
        ("csp.unsat", "count", "higher", _counter("csp.unsat")),
        ("csp.trivially_unsat", "count", "higher", _counter("csp.trivially_unsat")),
        ("csp.reduce.log10_space_in", "log10", "lower", _value("csp.reduce.log10_space_in")),
        ("csp.reduce.log10_space_out", "log10", "lower", _value("csp.reduce.log10_space_out")),
    ]
    + [(f"suites.{s}.wall_s", "s", "lower", _value(f"suites.{s}.wall_s")) for s in SUITE_NAMES]
    + [
        ("suites.checks", "count", "higher", _counter("suites.checks")),
        ("cli.main.self_s", "s", "lower", _self("cli.main")),
        ("cli.process_start_s", "s", "lower", _value("cli.process_start_s")),
    ]
)
