"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload csp --seeds 1-10 [--seconds 25] [--trace 0]

For every metric it prints the median, the quartiles and the interquartile
range as a share of the median (statistics.quantiles(values, n=4)), and
for end-to-end metrics whether that share is below a third of the bound in
BENCHMARK.json. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                  if k in bounds or args.trace), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        verdict = ""
        if name in bounds:
            verdict = "ok" if share < bounds[name] / 3 else "WIDE"
            if name == "setup_s":
                verdict += " (not gated)"
        print(f"{name:40s} median={med:.5g} q1={q1:.5g} q3={q3:.5g} iqr/median={share:.4f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
