"""Homotopy transfer: the memoised, degree-pruned tree sums against the
recursive formula they replace, the refusal off F_2, the refusal of an
unsound window before any tree sum, and the S^2 gate."""

import json
import time
from itertools import product
from pathlib import Path

import pytest

import opbar.transfer
from opbar.cli import main
from opbar.dg import DegreeWindow
from opbar.errors import AlgebraCheckFailed, TruncationUnsound
from opbar.fixtures import random_commutative_algebra, random_tensor_algebra
from opbar.jsonio import load_json
from opbar.linalg import CoeffField, combo_add
from opbar.simplicial import bar_of_cochains, normalized_cochains, simplicial_set_from_json
from opbar.transfer import Retract, _tree_sums, transfer_a_infinity
from test_modules import massey_algebra

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)
F3 = CoeffField.prime(3)

DATA = Path(__file__).resolve().parent.parent / "data"

# one vertex, three loops, two triangles: its sign-free transfer has
# nonzero mu_3, mu_4 and mu_5 over every field
TORUS = {
    "basepoint": "pt",
    "simplices": [
        {"dim": 0, "name": "pt"},
        {"dim": 1, "name": "a", "faces": ["pt", "pt"]},
        {"dim": 1, "name": "b", "faces": ["pt", "pt"]},
        {"dim": 1, "name": "c", "faces": ["pt", "pt"]},
        {"dim": 2, "name": "U", "faces": ["b", "c", "a"]},
        {"dim": 2, "name": "L", "faces": ["a", "c", "b"]},
    ],
}


def column(m, j):
    """Column j of the sparse matrix m, as {row: entry}."""
    return {i: v for (i, jj), v in m.entries.items() if jj == j}


def _recursive_transfer_ops(algebra, max_arity):
    """The tree sums as they were before memoisation: lambda recomputed on
    every sub-interval of every word, every word of every arity projected.
    {r: table}, tables in `product` order."""
    f = algebra.field
    mod = algebra.module
    ret = Retract(mod)
    hmod = ret.homology_module()
    h_labels = {d: hmod.labels(d) for d in hmod.degrees()}

    def include_combo(d, a):
        return {(d, mod.labels(d)[i]): v for i, v in column(ret.include[d], a).items()}

    def apply_h(combo):
        out = {}
        for (d, l), c in combo.items():
            labels_up = mod.labels(d + 1)
            for i, v in column(ret.homotopy[d], mod.index(d, l)).items():
                combo_add(f, out, (d + 1, labels_up[i]), f.mul(c, v))
        return out

    def lam(args):
        if len(args) == 1:
            return args[0]
        out = {}
        r = len(args)
        for s in range(1, r):
            left = lam(args[:s])
            right = lam(args[s:])
            left_h = apply_h(left) if s > 1 else left
            right_h = apply_h(right) if r - s > 1 else right
            for (d1, l1), c1 in left_h.items():
                for (d2, l2), c2 in right_h.items():
                    for l3, c3 in algebra.op_apply(2, (l1, l2)).items():
                        combo_add(f, out, (d1 + d2, l3), f.mul(f.mul(c1, c2), c3))
        return out

    ops = {}
    for r in range(2, max_arity + 1):
        table = {}
        letters = [(d, a) for d in sorted(h_labels) for a in range(len(h_labels[d]))]
        for word in product(letters, repeat=r):
            projected = {}
            for (d, l), c in lam([include_combo(d, a) for (d, a) in word]).items():
                for idx, v in column(ret.project[d], mod.index(d, l)).items():
                    combo_add(f, projected, ("h", d, idx), f.mul(c, v))
            if projected:
                table[tuple(("h", d, a) for (d, a) in word)] = projected
        if table:
            ops[r] = table
    return ops


def _oracle_fixtures():
    for field in (F2, F3, Q):
        yield massey_algebra(field), 5
        yield normalized_cochains(simplicial_set_from_json(TORUS), field).algebra(), 5
    for seed in range(12):
        yield random_tensor_algebra(F2, seed), 4
        yield random_commutative_algebra(F2, seed), 4
    for path in sorted(DATA.glob("*.json")):
        data = load_json(path)
        if "simplices" in data:
            space = simplicial_set_from_json(data)
            for field in (F2, F3, Q):
                yield normalized_cochains(space, field).algebra(), 6


def test_memoised_transfer_matches_recursive_oracle():
    fixtures = higher = 0
    for alg, arity in _oracle_fixtures():
        expect = _recursive_transfer_ops(alg, arity)
        got = _tree_sums(alg, Retract(alg.module), arity)
        # repr compares the order of every table and combo too
        assert repr(got) == repr(expect), alg.name
        fixtures += 1
        higher += any(r >= 3 for r in expect)
    assert fixtures == 45 and higher == 6


def test_transfer_refuses_higher_operations_off_f2():
    assert list(transfer_a_infinity(massey_algebra(F2), 4).ops) == [3]
    for field in (F3, Q):
        with pytest.raises(AlgebraCheckFailed, match="mu_3 is nonzero over %r.*exact only over F_2" % field):
            transfer_a_infinity(massey_algebra(field), 4)
    # mu_2 needs no sign: a homology product alone is transferred over Q
    mu2_only = transfer_a_infinity(normalized_cochains(simplicial_set_from_json(TORUS), Q).algebra(), 2)
    assert list(mu2_only.ops) == [2]


def test_cli_refuses_an_unsound_window_before_any_tree_sum(tmp_path, capsys, monkeypatch):
    # the torus has classes in degree 1, so its transferred model has suspended
    # degree 0 and no weight truncation of its bar is sound; the retract's homology
    # degrees say so before any tree sum (over F_3 and Q the tree sums used to run
    # and be refused off F_2 first)
    def no_tree_sums(*args):
        raise AssertionError("the tree sums ran")

    monkeypatch.setattr(opbar.transfer, "_tree_sums", no_tree_sums)
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(TORUS))
    runs = [(str(path), "F2", 4), (str(path), "F3", 3), (str(path), "Q", 3), (str(DATA / "s1.json"), "F2", 8)]
    for source, field, max_degree in runs:
        argv = ["cochains", "--input", source, "--bar", "--field", field, "--max-degree", str(max_degree)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: TruncationUnsound: mixed-sign suspended degrees [")
    with pytest.raises(TruncationUnsound, match=r"\[-1, 0\] need an explicit weight bound"):
        bar_of_cochains(simplicial_set_from_json(TORUS), F2, 1, DegreeWindow(1, 4))


def test_s2_boundary_loop_tables_match_the_minimal_model():
    # the James count H(Omega S^2) = T(y_1), degree 16, every field
    boundary = simplicial_set_from_json(load_json(DATA / "s2_boundary.json"))
    minimal = simplicial_set_from_json(load_json(DATA / "s2_minimal.json"))
    window = DegreeWindow(1, 16)
    start = time.time()
    for field in (F2, F3, Q):
        big, info = bar_of_cochains(boundary, field, 1, window)
        small, _ = bar_of_cochains(minimal, field, 1, window)
        assert info["reduced_model"]
        assert {d: n for d, n in big.items() if n} == {d: n for d, n in small.items() if n}
        assert {d: n for d, n in big.items() if n} == {d: 1 for d in range(1, 17)}
    assert time.time() - start < 10
