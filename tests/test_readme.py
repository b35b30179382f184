"""The README's library example runs as written against the current API."""

from __future__ import annotations

import re
from pathlib import Path

from ceal.mealy import find_counterexample

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_example_runs(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)  # the example names benchmarks/ relative to the root
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert "RunResult(" in capsys.readouterr().out
    # the hand-wired loop over a noise-free system learns the target exactly
    assert find_counterexample(namespace["final"], namespace["target"]) is None
