import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbar.dg import DgModule
from opbar.jsonio import (
    algebra_from_json,
    algebra_to_json,
    dgmodule_from_json,
    dgmodule_to_json,
    field_from_json,
    field_to_json,
    operad_from_json,
    operad_to_json,
    parse_field_flag,
)
from opbar.linalg import CoeffField
from opbar.modules import DgAlgebra, check_algebra
from opbar.operads import check_operad, commutative_operad, stasheff_operad

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "opbar.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_field_round_trip():
    for f in (Q, F2, CoeffField.prime(7)):
        assert field_from_json(field_to_json(f)) == f
    assert parse_field_flag("F5") == CoeffField.prime(5)
    assert parse_field_flag("Q") == Q


def test_dgmodule_round_trip():
    mod = DgModule.from_data(
        Q, [("a", 0), ("b", 1), ("c", 1)], {"b": {"a": Q.of_int(-2)}, "c": {"a": Q.parse("1/3")}}
    )
    data = dgmodule_to_json(mod)
    back, f = dgmodule_from_json(data)
    assert {d: back.dim(d) for d in back.degrees()} == {0: 1, 1: 2}
    assert back.apply_diff(1, {"b": f.one()}) == {"a": f.of_int(-2)}


def test_algebra_round_trip():
    alg = DgAlgebra(
        F2,
        "comm",
        DgModule.from_data(F2, [("x", 1), ("x2", 2)]),
        {2: {("x", "x"): {"x2": F2.one()}}},
    )
    back, _ = algebra_from_json(algebra_to_json(alg))
    assert back.kind == "comm"
    assert back.op_apply(2, ("x", "x")) == {"x2": F2.one()}
    assert check_algebra(back, 3)


def test_operad_round_trip():
    for op in (commutative_operad(Q, 3), stasheff_operad(Q, 3)):
        data = operad_to_json(op, 3)
        back = operad_from_json(data)
        check_operad(back, 3, deep=True)
        assert {n: back.component(n).total_dim() for n in back.sigma.arities()} == {
            n: op.component(n).total_dim() for n in op.sigma.arities()
        }


def test_cli_bar_exterior():
    r = run_cli("bar", "--field", "F2", "--input", "data/exterior.json", "--max-degree", "12")
    assert r.returncode == 0
    lines = [l.split() for l in r.stdout.splitlines()[2:]]
    table = {int(d): int(v) for d, v in lines}
    assert table == {d: (1 if d % 2 == 0 and d >= 2 else 0) for d in range(0, 13)}


def test_cli_iterated_bar():
    r = run_cli("bar", "--iterations", "2", "--input", "data/exterior.json", "--field", "F2", "--max-degree", "6")
    assert r.returncode == 0
    lines = [l.split() for l in r.stdout.splitlines()[2:]]
    table = {int(d): int(v) for d, v in lines}
    assert table == {0: 0, 1: 0, 2: 0, 3: 1, 4: 0, 5: 1, 6: 1}


def test_cli_rejects_invalid_algebra():
    r = run_cli("bar", "--input", "data/nonassoc.json", "--max-degree", "6")
    assert r.returncode == 2
    assert "AlgebraCheckFailed" in r.stderr
    assert "structure relation" in r.stderr


def test_cli_cochains_loop_table(tmp_path):
    out = tmp_path / "s2.json"
    r = run_cli(
        "cochains", "--input", "data/s2_minimal.json", "--bar", "--field", "F2",
        "--max-degree", "8", "--output", str(out),
    )
    assert r.returncode == 0
    report = json.loads(out.read_text())
    assert report["degrees"] == {str(k): 1 for k in range(1, 9)}
    assert report["provenance"]["cohomological_degrees"] is True
    assert report["provenance"]["exact_in_window"] is True


def test_cli_cochains_export_trivial_cohomology():
    r = run_cli("cochains", "--input", "data/delta1.json", "--field", "Q")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    back, _ = algebra_from_json(data)
    from opbar.dg import homology

    assert all(v == 0 for v in homology(back.module).values())


def test_cli_malformed_input():
    r = run_cli("cochains", "--input", "data/exterior.json")
    assert r.returncode == 2


def test_cli_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        r = run_cli(
            "bar", "--field", "F2", "--input", "data/trunc.json",
            "--max-degree", "8", "--seed", "3", "--output", str(out),
        )
        assert r.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_suite():
    r = run_cli("verify", "--suite", "stasheff", "--arity-bound", "6")
    assert r.returncode == 0
    assert "all 4 checks passed" in r.stdout


def test_cli_export_builtin():
    r = run_cli("export", "--builtin", "K", "--arity-bound", "2", "--field", "Q")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    back = operad_from_json(data)
    check_operad(back, 2)


def test_cli_quasi_iso_tables_match():
    r1 = run_cli("cochains", "--input", "data/s2_minimal.json", "--bar", "--field", "F2", "--max-degree", "8")
    r2 = run_cli("cochains", "--input", "data/s2_boundary.json", "--bar", "--field", "F2", "--max-degree", "8")
    assert r1.returncode == 0 and r2.returncode == 0
    t1 = [l for l in r1.stdout.splitlines() if not l.startswith("report")]
    t2 = [l for l in r2.stdout.splitlines() if not l.startswith("report")]
    assert t1 == t2


def _algebra_json(output_name, coeff):
    return {
        "operad": "Com",
        "carrier": {
            "field": "Q",
            "basis": [{"name": "x", "degree": 1}, {"name": "y", "degree": 3}, {"name": "x2", "degree": 2}],
            "differential": [],
        },
        "operations": [{"op": "mu2", "inputs": ["x", "x"], "output": [{"name": output_name, "coeff": coeff}]}],
    }


def _with_basis_entry(index, entry):
    data = _algebra_json("x2", "1")
    data["carrier"]["basis"][index] = entry
    return data


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["bar", "--max-degree", "4"], [1, 2], "must hold a JSON object"),
        (["cochains", "--bar", "--max-degree", "4"], [], "must hold a JSON object"),
        (["bar", "--max-degree", "4"], _algebra_json("x2", "1/0"), "coefficient '1/0'"),
        (["bar", "--max-degree", "4"], _algebra_json("y", "1"), "outputs need degree 2"),
        (["bar", "--max-degree", "4", "--weight-bound", "-1"], None, "--weight-bound must be at least 1"),
        (["bar", "--max-degree", "4", "--weight-bound", "0"], None, "--weight-bound must be at least 1"),
        (["bar", "--max-degree", "4", "--iterations", "0"], None, "--iterations must be at least 1"),
        (["cochains", "--bar", "--max-degree", "4", "--iterations", "0"], None, "--iterations must be at least 1"),
        (["bar", "--max-degree", "4"], {"operad": "Com", "carrier": []}, "carrier must be an object, got a list"),
        (["bar", "--max-degree", "4"], _algebra_json("x2", "1") | {"operations": {}}, "operations must be a list"),
        (["bar", "--max-degree", "4"], _with_basis_entry(1, {"name": "y"}), "carrier.basis[1] has no 'degree' field"),
        (
            ["bar", "--max-degree", "4"],
            _with_basis_entry(0, {"name": "x", "degree": True}),
            "carrier.basis[0].degree must be an integer, got a boolean",
        ),
        (
            ["cochains", "--bar", "--max-degree", "4"],
            {"basepoint": "pt", "simplices": [{"name": "pt", "dim": 0}, {"name": "e", "dim": 1, "faces": ["pt", 0]}]},
            "simplices[1].faces[1] must be a string, got an integer",
        ),
    ],
)
def test_cli_rejects_malformed_input(tmp_path, argv, data, message):
    if data is None:
        path = DATA / ("s2_minimal.json" if argv[0] == "cochains" else "exterior.json")
    else:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
    r = run_cli(*argv, "--input", str(path))
    assert r.returncode == 2
    assert message in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], {"a": (3, 4), "b": 1}),
        (["--arity-bound", "2", "--max-degree", "5", "--seed", "9"], {"a": (2, 5), "b": 9}),
    ],
)
def test_cli_verify_all_forwards_flags(monkeypatch, capsys, flags, expected):
    from opbar import verify
    from opbar.cli import main

    seen = {}

    def suite_a(arity=3, max_degree=4):
        seen["a"] = (arity, max_degree)
        return [("a.check", True, "")]

    def suite_b(seed=1):
        seen["b"] = seed
        return [("b.check", True, "")]

    monkeypatch.setattr(verify, "SUITES", {"a": suite_a, "b": suite_b})
    assert main(["verify", "--suite", "all", *flags]) == 0
    assert seen == expected
    assert "all 2 checks passed" in capsys.readouterr().out


def _json_paths(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=3,
)

# data file -> CLI command it feeds
_FUZZ_ARGV = {
    "delta1.json": ["cochains", "--bar", "--max-degree", "3"],
    "exterior.json": ["bar", "--max-degree", "4"],
    "lambda_x3_f2.json": ["bar", "--max-degree", "4"],
    "nonassoc.json": ["bar", "--max-degree", "4"],
    "s1.json": ["cochains", "--bar", "--max-degree", "3"],
    "s2_boundary.json": ["cochains", "--bar", "--max-degree", "3"],
    "s2_minimal.json": ["cochains", "--bar", "--max-degree", "3"],
    "s3_minimal.json": ["cochains", "--bar", "--max-degree", "3"],
    "trunc.json": ["bar", "--max-degree", "4"],
}


@st.composite
def _mutated_data_file(draw):
    """A data/*.json document with one key dropped or one value swapped for another JSON type."""
    name = draw(st.sampled_from(sorted(_FUZZ_ARGV)))
    doc = json.loads((DATA / name).read_text())
    path = draw(st.sampled_from(list(_json_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        old = type(parent[key])
        parent[key] = draw(_JSON_VALUES.filter(lambda v: type(v) is not old))
    return name, doc


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_mutated_data_file())
def test_cli_survives_mutated_data_files(case):
    from opbar.cli import main

    name, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(_FUZZ_ARGV[name] + ["--input", str(path)])
    assert code in (0, 2)
