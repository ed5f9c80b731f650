"""The README's library quick start and CLI examples run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import cigroupoids.search

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def test_library_quick_start_runs(monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    stated = int(re.search(r"# (\d+) commutative idempotent tables", block).group(1))
    # count the tables the block's own loop runs over
    seen = []
    enumerate_models = cigroupoids.search.enumerate_models

    def counted(spec):
        for g in enumerate_models(spec):
            seen.append(g)
            yield g

    monkeypatch.setattr(cigroupoids.search, "enumerate_models", counted)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(seen) == stated == 192
    system = namespace["system"]
    assert (len(system.fibers), system.replica.n) == (2, 2)


def test_cli_examples_print_what_the_readme_shows(tmp_path):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", text, re.S).group(1)
    # each "$ cigroupoids ..." line and the lines printed under it
    examples: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ cigroupoids "):
            examples.append((line.removeprefix("$ cigroupoids "), []))
        elif line:
            examples[-1][1].append(line)
    assert len(examples) == 5
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for command, shown in examples:
        command, _, tail = command.partition(" | ")
        command, _, target = command.partition(" > ")
        proc = subprocess.run(
            [sys.executable, "-m", "cigroupoids.cli", *shlex.split(command)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.stderr == "", command
        out = proc.stdout
        if tail:
            assert tail == "tail -1"
            out = "".join(out.splitlines(keepends=True)[-1:])
        if target:
            (tmp_path / target).write_text(out, encoding="utf-8")
            out = ""
        assert out == "".join(line + "\n" for line in shown), command
