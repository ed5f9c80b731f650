"""The `verify` workload: the paper-replay path, one cold CLI process per command.

Each of the eight suites runs as `cigroupoids.cli --format tsv verify
<suite>` in a cold process, and so do the README's CLI examples plus a few
more subcommands. The process is child.py, which calls `cli.main` and
times the calibration loop while the command runs (or traces it).
Standard output and exit code must match, byte for byte, the transcript in
transcript.json, which was captured at the seed commit with

    python3 bench/wl_verify.py --capture

(run that only on a commit whose output is known good). `csp solve` uses
`--method brute` so that the consistency solver stays bypassed here.

The probe `alg enumerate -n 4 --noncommutative` lies inside the documented
bound n <= 5 but did not finish at the seed. It has no transcript: if it
ever finishes, its output is checked for shape (one idempotent table per
model, then a matching count line).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from harness import ROOT, SRC, DeadlineExceeded, Item, Workload

BENCH = Path(__file__).resolve().parent
TRANSCRIPT = BENCH / "transcript.json"
DEADLINE_S = 10.0  # about 3x the slowest suite started cold
PROBE_DEADLINE_S = 3.0

SUITES = ("figures", "table1", "intersections", "s2-terms",
          "t2-structure", "appendix", "reduction", "cid")

# (name, argv, name of the command whose transcript stdout is fed on stdin)
COMMANDS = [(f"verify {s}", ["--format", "tsv", "verify", s], None) for s in SUITES] + [
    ("classify fig4a", ["alg", "classify", "fig4a"], None),
    ("check F25 fig4a", ["alg", "check", "F25", "fig4a"], None),
    ("enumerate n3", ["alg", "enumerate", "-n", "3"], None),
    ("separate T2-not-T1", ["alg", "separate", "--sat", "C15", "--unsat", "A14", "--max-n", "6"], None),
    ("separate none", ["alg", "separate", "--sat", "A14", "--unsat", "F25", "--max-n", "5"], None),
    ("plonka check fig3b", ["plonka", "check", "fig3b"], None),
    ("plonka decompose fig3b", ["plonka", "decompose", "fig3b"], None),
    ("plonka adjoin fig4a", ["plonka", "adjoin-infinity", "fig4a"], None),
    ("plonka decompose ainf", ["plonka", "decompose", "-"], "plonka adjoin fig4a"),
    ("plonka sum", ["plonka", "sum", "-"], "plonka decompose ainf"),
    ("cie 7", ["cie", "7"], None),
    ("cie 9 exponent", ["cie", "9", "--exponent"], None),
    ("csp gen fig4b", ["csp", "gen", "--seed", "3", "--template", "fig4b"], None),
    ("csp solve", ["csp", "solve", "--method", "brute", "-"], "csp gen fig4b"),
    ("csp gen fig3b", ["csp", "gen", "--seed", "1", "--template", "fig3b", "--vars", "6"], None),
    ("csp reduce", ["csp", "reduce", "-"], "csp gen fig3b"),
]
PROBE = ("probe enumerate n4 noncommutative", ["alg", "enumerate", "-n", "4", "--noncommutative"])


def spawn(argv: list[str], stdin: str, deadline_s: float, ctx) -> tuple[str, int]:
    """Run one CLI command in a fresh process through child.py, traced when ctx has a tracer.

    The child is reaped with os.wait4, so its own peak RSS lands in
    ctx.rss_kib; an untimed child's calibration samples land in
    ctx.samples. At the deadline it gets SIGTERM (the child then writes its
    report), and SIGKILL if it is still alive 5 s later.
    """
    tr = ctx.tracer
    fd, report = tempfile.mkstemp(dir=ctx.tmp, suffix=".json")
    os.close(fd)
    cmd = [sys.executable, str(BENCH / "child.py"), "time" if tr is None else "trace",
           report, repr(time.perf_counter()), "--", *argv]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=ctx.env, cwd=ROOT)
    expired = threading.Event()

    def stop():
        expired.set()
        proc.terminate()

    timers = [threading.Timer(deadline_s, stop), threading.Timer(deadline_s + 5, proc.kill)]
    for t in timers:
        t.start()
    try:
        writer = threading.Thread(target=_feed, args=(proc.stdin, stdin.encode()))
        writer.start()
        out = proc.stdout.read()
        proc.stdout.close()
        writer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for t in timers:
            t.cancel()
        if proc.returncode is None:  # interrupted before the child was reaped
            proc.kill()
            proc.wait()
    ctx.rss_kib = usage.ru_maxrss
    text = Path(report).read_text()
    Path(report).unlink()
    if text:  # empty when the child was killed before writing
        data = json.loads(text)
        if tr is None:
            ctx.samples.extend(data["samples"])
        else:
            tr.merge(data)
            tr.cover(sum(data["self_s"].values()))
    if expired.is_set():
        raise DeadlineExceeded()
    return out.decode(), proc.returncode


def _feed(pipe, data: bytes) -> None:
    try:
        pipe.write(data)
    except BrokenPipeError:  # the command exited without reading its input
        pass
    finally:
        pipe.close()


def _check_probe(result: tuple[str, int]) -> bool:
    stdout, code = result
    lines = stdout.splitlines()
    if code != 0 or not lines or not lines[-1].startswith("# count="):
        return False
    body = [ln for ln in lines[:-1] if ln.strip() and not ln.startswith("#")]
    tables = []
    while body:
        n = int(body[0])
        tables.append([[int(v) for v in row.split()] for row in body[1 : n + 1]])
        body = body[n + 1 :]
    ok = all(len(t) == 4 and all(t[i][i] == i for i in range(4)) for t in tables)
    return ok and len(tables) == int(lines[-1].split("=")[1])


def build(seed: int) -> Workload:
    transcript = {e["name"]: e for e in json.loads(TRANSCRIPT.read_text())}
    items = []
    for name, argv, stdin_from in COMMANDS:
        ref = transcript[name]
        if ref["argv"] != argv:
            raise ValueError(f"transcript entry {name!r} was captured for other arguments")
        stdin = transcript[stdin_from]["stdout"] if stdin_from else ""
        expected = (ref["stdout"], ref["exit"])
        items.append(Item(
            name,
            lambda ctx, argv=argv, stdin=stdin: spawn(argv, stdin, DEADLINE_S, ctx),
            lambda result, expected=expected: result == expected,
            DEADLINE_S,
        ))
    name, argv = PROBE
    items.append(Item(name, lambda ctx: spawn(argv, "", PROBE_DEADLINE_S, ctx), _check_probe,
                      PROBE_DEADLINE_S, probe=True))
    setup_cmd = [sys.executable, "-c", "import cigroupoids.cli"]
    return Workload(items, in_process=False, setup_cmd=setup_cmd)


def capture() -> None:
    entries = []
    by_name = {}
    for name, argv, stdin_from in COMMANDS:
        stdin = by_name[stdin_from]["stdout"] if stdin_from else ""
        p = subprocess.run([sys.executable, "-m", "cigroupoids.cli", *argv], input=stdin.encode(),
                           capture_output=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)})
        entry = {"name": name, "argv": argv, "stdout": p.stdout.decode(), "exit": p.returncode}
        by_name[name] = entry
        entries.append(entry)
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        capture()
    else:
        sys.exit("usage: python3 bench/wl_verify.py --capture")
