"""The benchmark tracer's targets still name functions the program looks up.

``perfbench/tracer.py`` wraps functions under the module names their
callers use.  A moved or renamed function would otherwise only show up
when a traced benchmark run refuses to start.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()  # raises LookupError naming every missing target
    finally:
        tracer.uninstall()
