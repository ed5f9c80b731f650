"""Benchmark for the cigroupoids workbench.

    python3 bench/run.py --workload {verify,structure,csp} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src. The
workload's items run one at a time, each under a per-item deadline enforced
from here (SIGALRM in this process, or a killed child for `verify`). At least
two full passes run (one round when traced), and more while another one
fits in S seconds; every output is checked against an independent
reference after its timing ends. Times are reported in calibration loops
(unit `cal`, see harness.calibrate) timed beside and during each item, so
that the host's drifting speed cancels out.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates untraced and traced passes and reports the per-layer metrics.
Human-readable summary lines come first; the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

See bench/README.md for the workloads and how to read a trace.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans
from harness import ROOT, SRC, Context, Outcome, alarm, child_env, run_pass

WORKLOADS = ("verify", "structure", "csp")
SETUP_REPEATS = 5
MIN_PASSES = 2


def time_setup(cmd: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb(in_process: bool, passes: list[list[Outcome]]) -> float:
    """Peak RSS of whatever ran the items: this process, or the largest child.

    Probes are left out: how much memory a probe reaches before its deadline
    depends on how fast the host ran.
    """
    if in_process:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    else:
        kib = max(o.rss_kib for p in passes for o in p if not o.item.probe)
    return kib / 1024.0


def pass_wall(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


def item_costs(passes: list[list[Outcome]]) -> list[float]:
    """Each regular item's median cost over the passes, sorted.

    A cost is the item's time over the calibration loop's time next to it.
    The host's speed drifts by up to 2x, for stretches from under a second
    to over a minute; the item and the loop beside it slow down together,
    so their ratio stays steady where seconds do not. Probes are left out:
    a wall-clock deadline costs fewer loops on a slower host.
    """
    costs: dict[int, list[float]] = {}
    for p in passes:
        for o in p:
            if not o.item.probe:
                costs.setdefault(id(o.item), []).append(o.cost)
    return sorted(statistics.median(c) for c in costs.values())


def layer_metrics(tr: spans.Tracer, untraced: list, traced: list) -> dict:
    """Per-layer metrics as per-pass averages over the traced passes."""
    k = len(traced)
    out = {}
    for name, unit, _better, read in spans.LAYER_METRICS:
        value = read(tr)
        if unit != "ratio":
            value = value / k
        out[name] = {"value": value, "unit": unit}
    traced_wall = statistics.mean(pass_wall(p) for p in traced)
    outside = sum(tr.self_s.get(r, 0.0) for r in spans.ROOT_SPANS)
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    # The traced and untraced passes ran at different host speeds, so the
    # overhead is taken in calibration loops and turned back into seconds.
    extra_cal = sum(item_costs(traced)) - sum(item_costs(untraced))
    cal_s = statistics.median(o.cal_s for p in traced for o in p)
    out["trace.overhead_s"] = {"value": extra_cal * cal_s, "unit": "s"}
    out["trace.outside_s"] = {"value": outside / k, "unit": "s"}
    out["trace.unaccounted_s"] = {"value": traced_wall - tr.total_self() / k, "unit": "s"}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (times set-up)")
    args = parser.parse_args(argv)

    if not (SRC / "cigroupoids" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'cigroupoids'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(f"wl_{args.workload}")
    if args.setup_only:
        module.build(args.seed)
        return 0

    load_before = os.getloadavg()
    env = child_env()
    tmp = ROOT / ".bench_tmp"
    tmp.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, alarm)
    try:
        wl = module.build(args.seed)
        time_setup(wl.setup_cmd, env)  # warm-up: .pyc compilation lands here
        # More set-ups follow each pass, so the median spans the whole run.
        setups = [time_setup(wl.setup_cmd, env) for _ in range(SETUP_REPEATS)]

        rng = random.Random(args.seed)
        untraced: list[list[Outcome]] = []
        traced: list[list[Outcome]] = []
        tracer = spans.Tracer() if args.trace else None
        # Probes cost their whole deadline, so they run in the first pass
        # only. Untraced runs make at least two passes, so each item's cost
        # is a median; one traced round is enough.
        min_passes = 1 if tracer is not None else MIN_PASSES
        start = time.perf_counter()
        while True:
            first = not untraced
            lap = time.perf_counter()
            untraced.append(run_pass(wl, Context(env, tmp), rng, probes=first))
            if tracer is not None:
                installed = spans.install(tracer) if wl.in_process else None
                try:
                    traced.append(run_pass(wl, Context(env, tmp, tracer), rng, probes=first))
                finally:
                    if installed is not None:
                        installed.restore()
            setups.append(time_setup(wl.setup_cmd, env))
            now = time.perf_counter()
            if len(untraced) >= min_passes and now - start + (now - lap) > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    load_after = os.getloadavg()

    outcomes = [o for p in untraced + traced for o in p]
    failures = [o for o in outcomes if o.failed]
    base = [o for p in untraced for o in p]
    costs = item_costs(untraced)
    p90 = statistics.quantiles(costs, n=10)[8]
    end_to_end = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_cal": {"value": sum(costs), "unit": "cal"},
        "item_p50_cal": {"value": statistics.median(costs), "unit": "cal"},
        "item_p90_cal": {"value": p90, "unit": "cal"},
        "peak_rss_mb": {"value": peak_rss_mb(wl.in_process, untraced), "unit": "MiB"},
    }
    cal_s = statistics.median(o.cal_s for o in base)
    fail_frac = sum(o.failed or o.probe_timeout for o in base) / len(base)

    print(f"# env python={platform.python_version()} nproc={os.cpu_count()} "
          f"loadavg_before={load_before[0]:.2f} loadavg_after={load_after[0]:.2f}")
    print(f"# workload={args.workload} seed={args.seed} passes={len(untraced)} "
          f"traced_passes={len(traced)} items_per_pass={len(wl.items)} "
          f"beyond_p90={sum(x > p90 for x in costs)} "
          f"probe_timeouts={sum(o.probe_timeout for o in outcomes)}")
    for name, m in end_to_end.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_frac = {fail_frac:.6g} ratio")
    print(f"# wall_s = {statistics.median(pass_wall(p) for p in untraced):.6g} s "
          f"(median pass, probes included; 1 cal = {cal_s * 1e3:.4g} ms in this run)")
    for o in failures:
        print(f"# FAILED {o.item.name}: {o.status}")

    metrics = layer_metrics(tracer, untraced, traced) if tracer is not None else end_to_end
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
