"""Run one CLI command in its own process, timed or traced.

    python3 bench/child.py {time,trace} REPORT SPAWNED_AT -- CLI-ARGS...

Standard output and the exit code are the CLI's own, so they can be checked
against the transcript. What goes to REPORT as JSON, also when the command
is stopped by SIGTERM at its deadline:

- `time`: the calibration loops timed while the command ran (see
  harness.Sampler), as {"samples": [seconds, ...]};
- `trace`: the span totals with every layer traced, the model cache's
  counts and the process start time.

SPAWNED_AT is the parent's time.perf_counter() just before it started this
process; on Linux that clock is system-wide.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    mode, report_path, spawned_at = sys.argv[1], sys.argv[2], float(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1 :]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

    def stop(signum, frame):
        raise SystemExit(124)

    signal.signal(signal.SIGTERM, stop)
    if mode == "time":
        from harness import Sampler

        samples: list[float] = []
        code = 124
        try:
            with Sampler(samples):
                import cigroupoids.cli as cli

                code = cli.main(argv)
                sys.stdout.flush()
        finally:
            with open(report_path, "w") as fh:
                json.dump({"samples": samples}, fh)
        return code

    import spans

    tr = spans.Tracer()
    tr.enter("bench.child")
    import cigroupoids.cli as cli

    spans.install(tr)
    started = time.perf_counter()
    tr.values["cli.process_start_s"] += started - spawned_at
    code = 124
    try:
        code = cli.main(argv)
        sys.stdout.flush()
    finally:
        tr.unwind(0)
        spans.record_cache(tr)
        with open(report_path, "w") as fh:
            json.dump(tr.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
