"""The benchmark's tracer wraps opbar functions and methods by name.

A rename in `src/opbar` would break only `perfbench/run.py --trace 1`,
which no other test runs; these tests resolve every wrapped name and run
the installed tracer on two CLI commands.
"""

import importlib
import json
import os
import subprocess
import sys
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


# Run in a child process: Tracer.install() rebinds names in every loaded
# opbar module and cannot be undone.
_TRACED_RUN = """
import contextlib, io, json, sys
from tracer import Tracer
tracer = Tracer()
tracer.install()
import opbar.cli
for argv in (
    ["bar", "--input", "data/trunc.json", "--field", "F2", "--max-degree", "6"],
    ["cochains", "--bar", "--input", "data/s2_minimal.json", "--field", "F2", "--max-degree", "6"],
):
    tracer.start_job(argv[0])
    with contextlib.redirect_stdout(io.StringIO()):
        code = opbar.cli.main(argv)
    tracer.end_job()
    assert code == 0, (argv, code)
print(json.dumps(tracer.metrics()))
"""


def test_tracer_reads_the_attributes_it_wraps():
    # the tracer reads SparseMatrix.entries, rank's matrix field and a bar
    # build's module.diff; a storage change must fail here, not only in a
    # traced benchmark run
    root = PERFBENCH.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PERFBENCH), str(root / "src")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    for key in ("linalg.rank.calls", "linalg.rank.nnz", "linalg.matmul.calls", "bar.words", "bar.diff_nnz"):
        assert metrics[key] > 0, key
