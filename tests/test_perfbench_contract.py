"""The benchmark's tracer wraps opbar functions and methods by name.

A rename in `src/opbar` would break only `perfbench/run.py --trace 1`,
which no other test runs; this test resolves every wrapped name.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for module, name, _ in tracer.SPANS + tracer.COUNTS:
        owner = importlib.import_module("opbar." + module)
        if "." in name:
            cls_name, meth = name.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append("%s.%s" % (module, name))
    assert not missing, missing
