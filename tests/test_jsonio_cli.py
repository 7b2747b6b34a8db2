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
from opbar.errors import ArityBoundExceeded, MalformedInput
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
from opbar.operads import (
    AssociativeOperad,
    CommutativeOperad,
    FreeOperad,
    associative_operad,
    check_operad,
    commutative_operad,
    refuse_large_table,
    stasheff_operad,
)

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)
F3 = CoeffField.prime(3)

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
    ok, diags = check_algebra(back, 3)
    assert ok and not diags


def test_operad_round_trip():
    for op in (commutative_operad(Q, 3), stasheff_operad(Q, 3)):
        data = operad_to_json(op, 3)
        back = operad_from_json(data)
        back.sigma.check_relations()
        check_operad(back, 3)
        assert {n: back.component(n).total_dim() for n in back.sigma.arities()} == {
            n: op.component(n).total_dim() for n in op.sigma.arities()
        }


def _scale_the_binary_action_of_as3(data):
    """Turn `data` into an As(3) export whose arity-2 action is scaled by 2, so s_1^2 != 1."""
    data.clear()
    data.update(operad_to_json(associative_operad(Q, 3), 3))
    for action in data["actions"]:
        if action["arity"] == 2:
            for out in action["output"]:
                out["coeff"] = "2"


def _scale_a2_o1_a2_of_as3_over_f3(data):
    """Turn `data` into an As(3) export over F_3 whose a2 o_1 a2 is scaled by 2:
    a Sigma-module whose composition breaks equivariance."""
    data.clear()
    data.update(operad_to_json(associative_operad(F3, 3), 3))
    for entry in data["compositions"]:
        if (entry["p"], entry["slot"], entry["q"]) == ("a2_d0_0", 1, "a2_d0_0"):
            for out in entry["output"]:
                out["coeff"] = "2"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["components"][0].pop("arity"), "components[0] has no 'arity' field"),
        (lambda d: d.update(components={}), "components must be a list, got an object"),
        (
            lambda d: d["components"][1]["basis"][0].update(name=d["components"][0]["basis"][0]["name"]),
            "components[1].basis names 'a1_d0_0', which arity 1 already uses",
        ),
        (lambda d: d["components"][1].update(arity=1), "components[1].arity: arity 1 is given twice"),
        (_scale_the_binary_action_of_as3, "actions: s_1^2 != 1 on 'a2_d0_0' (arity 2)"),
        (
            _scale_a2_o1_a2_of_as3_over_f3,
            "operad laws: equivariance fails at (2, 0, 'a2_d0_0') o_2 (2, 0, 'a2_d0_0')",
        ),
        (lambda d: d.update(unit="a2_d0_0"), "unit names 'a2_d0_0' of arity 2 and degree 0, not 1 and 0"),
        (
            lambda d: d["compositions"][2].update(slot=7),
            "compositions[2].slot: slot 7 is out of range for 'a2_d0_0' of arity 2",
        ),
        (
            lambda d: d["compositions"][2]["output"][0].update(name="a1_d0_0"),
            "compositions[2].output[0].name names 'a1_d0_0' of arity 1 and degree 0, not 2 and 0",
        ),
    ],
    ids=[
        "component-without-arity",
        "components-object",
        "name-in-two-components",
        "arity-twice",
        "scaled-action",
        "scaled-composition",
        "unit-of-arity-2",
        "slot-out-of-range",
        "output-of-wrong-arity",
    ],
)
def test_operad_from_json_rejects_bad_shapes(mutate, message):
    data = operad_to_json(commutative_operad(Q, 2), 2)
    mutate(data)
    with pytest.raises(MalformedInput) as exc:
        operad_from_json(data)
    assert message in str(exc.value)


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


@pytest.mark.parametrize(
    "argv, code, stderr, builds",
    [
        (["--field", "F2", "--max-degree", "8"], 0, "", 1),
        (
            ["--max-degree", "4", "--iterations", "2"],
            2,
            "error: NotCommutative: the iterated bar of a cochain algebra needs a strictly commutative model; "
            "supply one as a commutative algebra instead\n",
            0,
        ),
    ],
    ids=["bar", "iterations-2"],
)
def test_cli_cochains_bar_builds_the_cochain_algebra_at_most_once(monkeypatch, capsys, argv, code, stderr, builds):
    from opbar import simplicial
    from opbar.cli import main

    built = []
    build = simplicial.CochainAlgebra._build

    def counting(self):
        built.append(self)
        build(self)

    monkeypatch.setattr(simplicial.CochainAlgebra, "_build", counting)
    assert main(["cochains", "--input", str(DATA / "s2_minimal.json"), "--bar", *argv]) == code
    assert capsys.readouterr().err == stderr
    assert len(built) == builds


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


@pytest.fixture
def small_operad_builds(monkeypatch):
    """Builds of As or K with an arity bound above 5 fail instead of running:
    As(9) and K(6) would take seconds and hundreds of megabytes."""
    from opbar.operads import AssociativeOperad, FreeOperad

    for cls, position in ((AssociativeOperad, 0), (FreeOperad, 1)):

        def init(self, field, *args, real=cls.__init__, position=position):
            assert args[position] <= 5, "unguarded build at arity bound %d" % args[position]
            real(self, field, *args)

        monkeypatch.setattr(cls, "__init__", init)


@pytest.mark.parametrize("builtin, name, size", [("As", "As(9)", 362880), ("K", "K(6)", 141840)])
def test_cli_export_refuses_an_arity_bound_too_large_to_build(small_operad_builds, capsys, builtin, name, size):
    from opbar.cli import main

    assert main(["export", "--builtin", builtin, "--arity-bound", "30"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: ArityBoundExceeded: %s would have %d basis elements, over the limit of 50000: "
        "arity bound 30 is too large\n" % (name, size)
    )


@pytest.mark.parametrize(
    "builtin, fits, refused, entries", [("As", 7, (8,), 587367), ("Com", 83, (84, 10**9), 102340)], ids=["As", "Com"]
)
def test_cli_export_refuses_a_composition_table_over_the_limit(monkeypatch, capsys, builtin, fits, refused, entries):
    from opbar.cli import main

    def no_building(*args, **kwargs):
        raise AssertionError("an operad was built")

    for cls in (AssociativeOperad, CommutativeOperad, FreeOperad):
        monkeypatch.setattr(cls, "__init__", no_building)
    for bound in refused:
        assert main(["export", "--builtin", builtin, "--arity-bound", str(bound)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: ArityBoundExceeded: the composition table of %s through arity %d would have %d entries, "
            "over the limit of 100000: arity bound %d is too large\n" % (builtin, refused[0], entries, bound)
        )
    # the largest bound that fits goes on to the build
    with pytest.raises(AssertionError, match="an operad was built"):
        main(["export", "--builtin", builtin, "--arity-bound", str(fits)])


def test_the_k_export_is_limited_by_its_components_first():
    refuse_large_table("K", 5)  # 38,127 entries
    with pytest.raises(ArityBoundExceeded, match="K\\(6\\) would have 141840 basis elements"):
        refuse_large_table("K", 6)


def test_cli_verify_refuses_a_stasheff_bound_it_cannot_check(monkeypatch, capsys):
    from opbar import operads
    from opbar.cli import main

    def unguarded(*args):
        raise AssertionError("the symbolic d^2 check ran")

    monkeypatch.setattr(operads, "_d_squared_vanishes", unguarded)
    assert main(["verify", "--suite", "stasheff", "--arity-bound", "17"]) == 1
    out, err = capsys.readouterr()
    (line,) = [line for line in out.splitlines() if line.startswith("stasheff.d_squared")]
    assert line.split()[1:] == (
        "FAIL ArityBoundExceeded: the symbolic d^2 check stops at arity 16: arity bound 17 is too large".split()
    )
    assert err == "FAILED: stasheff.d_squared\n"


def test_cli_verify_names_the_refused_arity_bound(small_operad_builds, capsys):
    from opbar.cli import main

    assert main(["verify", "--suite", "bar-module", "--arity-bound", "30"]) == 1
    out, err = capsys.readouterr()
    (line,) = [line for line in out.splitlines() if line.startswith("bar_module.B_K.d_squared")]
    assert line.split()[1:3] == ["FAIL", "ArityBoundExceeded:"]
    assert "K(6) would have 141840 basis elements, over the limit of 50000" in line
    assert err == "FAILED: bar_module.B_K.d_squared\n"


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
        (["export", "--builtin", "K", "--arity-bound", "0"], None, "--arity-bound must be at least 1"),
        (["export", "--builtin", "As", "--arity-bound", "-2"], None, "--arity-bound must be at least 1"),
        (["verify", "--suite", "stasheff", "--arity-bound", "0"], None, "--arity-bound must be at least 1"),
        (["bar", "--max-degree", "4", "--field", "F"], None, "cannot parse field 'F' (use Q or F<p>)"),
        (["cochains", "--bar", "--max-degree", "4", "--field", "Fx"], None, "cannot parse field 'Fx'"),
        (["export", "--builtin", "K", "--field", ""], None, "cannot parse field ''"),
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
    "suite, flag, value, least",
    [
        ("stasheff", "--arity-bound", "1", 2),
        ("bar-module", "--arity-bound", "1", 2),
        ("extension", "--arity-bound", "1", 2),
        ("loops", "--max-degree", "-3", 1),
        ("shuffle", "--max-degree", "0", 1),
    ],
)
def test_cli_verify_rejects_nonsense_bounds(suite, flag, value, least):
    r = run_cli("verify", "--suite", suite, flag, value)
    assert r.returncode == 2
    assert "verify needs %s of at least %d, got %s" % (flag, least, value) in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""  # rejected before any check ran


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

    monkeypatch.setattr(verify, "SUITES", {"a": (suite_a, ("arity", "max_degree")), "b": (suite_b, ("seed",))})
    assert main(["verify", "--suite", "all", *flags]) == 0
    assert seen == expected
    assert "all 2 checks passed" in capsys.readouterr().out


def test_each_suite_takes_exactly_the_command_line_options_it_lists():
    import inspect

    from opbar.verify import SUITES

    for name, (suite, takes) in SUITES.items():
        assert set(takes) == {"arity", "max_degree", "seed"} & set(inspect.signature(suite).parameters), name


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


def test_cli_builds_its_parser_once_per_process():
    import gc

    from opbar import cli

    assert cli.build_parser() is cli.build_parser()
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(2):
                assert cli.main(["export", "--builtin", "As", "--arity-bound", "2"]) == 0
        # a fresh argparse parser per call is several hundred objects of cyclic garbage
        assert gc.collect() < 100
    finally:
        gc.enable()
