"""Items, workloads and the loop that runs them under a per-item deadline.

Shared by run.py and the workload modules (wl_*.py).
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALIBRATION_ROUNDS = 2_000
CALIBRATIONS_BETWEEN = 3  # loops timed between two items
SAMPLE_EVERY_S = 0.01  # of CPU time, while an item runs


class DeadlineExceeded(BaseException):
    """An item ran past its per-item deadline.

    A BaseException, like KeyboardInterrupt, so that no `except Exception`
    in the code under test can swallow the interrupt.
    """


@dataclass
class Item:
    name: str
    run: Callable[["Context"], object]  # the timed work; returns its output
    check: Callable[[object], bool]  # untimed comparison with the reference
    deadline_s: float
    probe: bool = False  # a known-defect input, expected to miss its deadline


@dataclass
class Workload:
    items: list[Item]
    in_process: bool
    setup_cmd: list[str]  # one cold set-up, timed from outside


@dataclass
class Context:
    env: dict
    tmp: Path
    tracer: spans.Tracer | None = None
    rss_kib: int = 0  # peak RSS of the item's child process, set by items that start one
    samples: list[float] = field(default_factory=list)  # calibration loops timed during the item


@dataclass
class Outcome:
    item: Item
    seconds: float
    status: str  # "ok", "deadline", "mismatch" or "error: ..."
    rss_kib: int = 0
    samples: list[float] = field(default_factory=list)
    cal_s: float = 0.0  # median calibration loop during and around the item

    @property
    def cost(self) -> float:
        """The item's time in calibration loops timed beside it."""
        return self.seconds / self.cal_s

    @property
    def failed(self) -> bool:
        return self.status != "ok" and not (self.item.probe and self.status == "deadline")

    @property
    def probe_timeout(self) -> bool:
        return self.item.probe and self.status == "deadline"


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs right now.

    Dict lookups and int arithmetic, like the package's inner loops. It
    allocates no container, so it never triggers the garbage collector,
    whose cost depends on what the item under test left on the heap.
    About 0.5 ms on an unloaded host.
    """
    t0 = time.perf_counter()
    seen: dict = {}
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        key = (i & 63) * 7 + i % 7
        acc += seen.get(key, i) ^ (i * 3)
        seen[key] = acc & 1023
    return time.perf_counter() - t0


class Sampler:
    """Times the calibration loop every SAMPLE_EVERY_S of CPU time, into `samples`.

    The loop runs from a SIGPROF handler, in the thread doing the work, so
    the samples follow the host's speed through a long item.
    """

    def __init__(self, samples: list[float]) -> None:
        self.samples = samples

    def _sample(self, signum, frame) -> None:
        self.samples.append(calibrate())

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)  # drop a signal still pending


def alarm(signum, frame):
    """SIGALRM handler: the in-process deadline interrupts the running item."""
    raise DeadlineExceeded()


def execute(item: Item, wl: Workload, ctx: Context) -> Outcome:
    tr = ctx.tracer
    if tr is not None:
        depth = tr.depth
        tr.enter("bench.item")
    status = "ok"
    out = None
    ctx.rss_kib = 0
    ctx.samples = []
    t0 = time.perf_counter()
    try:
        if wl.in_process:
            signal.setitimer(signal.ITIMER_REAL, item.deadline_s)
        try:
            if wl.in_process and tr is None:  # samples would land in traced self times
                with Sampler(ctx.samples):
                    out = item.run(ctx)
            else:
                out = item.run(ctx)
        finally:
            if wl.in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        status = "deadline"
    except Exception as exc:  # any failure of the program is a failed item
        status = f"error: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0 - sum(ctx.samples)
    if tr is not None:
        tr.unwind(depth)
    if status == "ok":
        try:
            if not item.check(out):
                status = "mismatch"
        except Exception as exc:  # a malformed output is a mismatch too
            status = f"mismatch: {type(exc).__name__}: {exc}"
    return Outcome(item, seconds, status, ctx.rss_kib, ctx.samples)


def run_pass(wl: Workload, ctx: Context, rng: random.Random, probes: bool) -> list[Outcome]:
    """One pass over the items in a seeded order; probes only when asked.

    The calibration loop runs between items, and during untraced ones (in
    a child for `verify`); an item's `cal_s` is the median of the loops
    just before, during and just after it.
    """
    order = [item for item in wl.items if probes or not item.probe]
    rng.shuffle(order)
    if wl.in_process:
        spans.model_cache().cache_clear()
    outcomes = []
    before = [calibrate() for _ in range(CALIBRATIONS_BETWEEN)]
    for item in order:
        outcome = execute(item, wl, ctx)
        after = [calibrate() for _ in range(CALIBRATIONS_BETWEEN)]
        outcome.cal_s = statistics.median(before + after + outcome.samples)
        before = after
        outcomes.append(outcome)
    if wl.in_process and ctx.tracer is not None:
        spans.record_cache(ctx.tracer)
    return outcomes


def setup_command(workload: str, seed: int) -> list[str]:
    """A cold process that imports the package and builds the workload's inputs."""
    return [sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--setup-only"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
