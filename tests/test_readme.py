"""The README's library quick start runs as written."""

import re
from pathlib import Path

import cigroupoids.search

README = Path(__file__).resolve().parent.parent / "README.md"


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
