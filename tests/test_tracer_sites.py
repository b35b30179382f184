"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py patches ceal's entry points where they are looked up,
reading each original from ``owner.__dict__``; a renamed or deleted name
would otherwise surface only in a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_is_defined_where_it_is_wrapped():
    sites = load_tracer().Tracer(calibrate=False)._sites()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in sites
        if attr not in owner.__dict__
    ]
    assert sites
    assert missing == []
