"""The README's library example runs as written, and every exported name resolves."""

from __future__ import annotations

import re
from pathlib import Path

import ceal
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


def test_every_exported_name_resolves():
    assert [name for name in ceal.__all__ if not hasattr(ceal, name)] == []
