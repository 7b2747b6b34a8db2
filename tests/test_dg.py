import pytest

from opbar.dg import DegreeWindow, DgMap, DgModule, dg_tensor_swap, homology, suspension, tensor
from opbar.errors import CompositionNotZero, FieldMismatch
from opbar.linalg import CoeffField

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)


def two_term(field=Q):
    # x in degree 1 mapping to y in degree 0
    return DgModule.from_data(field, [("y", 0), ("x", 1)], {"x": {"y": field.one()}})


def test_d_squared_checked():
    with pytest.raises(CompositionNotZero):
        DgModule.from_data(
            Q,
            [("a", 2), ("b", 1), ("c", 0)],
            {"a": {"b": Q.one()}, "b": {"c": Q.one()}},
        )


def test_from_data_names_unknown_labels():
    with pytest.raises(ValueError, match="'y'"):
        DgModule.from_data(Q, [("x", 1)], {"x": {"y": Q.one()}})
    with pytest.raises(ValueError, match="'z'"):
        DgModule.from_data(Q, [("x", 1), ("y", 0)], {"z": {"y": Q.one()}})


def test_from_rule_names_a_label_outside_the_degree_below():
    basis = {0: ("y",), 1: ("x",)}
    m = DgModule.from_rule(Q, basis, lambda d, label: {"y": Q.one()} if d == 1 else {})
    assert m.apply_diff(1, {"x": Q.one()}) == {"y": Q.one()}
    for wrong in ("w", "x"):  # unknown, and a basis label of the wrong degree
        with pytest.raises(ValueError, match="'%s'" % wrong):
            DgModule.from_rule(Q, basis, lambda d, label: {wrong: Q.one()} if d == 1 else {})


def test_tensor_with_ground_is_canonical():
    k = DgModule.ground(Q)
    m = two_term()
    t = tensor(k, m)
    assert [t.dim(d) for d in (0, 1)] == [1, 1]
    assert t.labels(0) == (("1", "y"),)
    assert t.apply_diff(1, {("1", "x"): Q.one()}) == {("1", "y"): Q.one()}


def test_tensor_of_a_label_in_two_degrees():
    # u in degree 1 maps to the other u in degree 0
    a = DgModule.from_rule(Q, {0: ("u",), 1: ("u",)}, lambda d, label: {"u": Q.one()} if d == 1 else {})
    t = tensor(a, two_term())
    assert [t.dim(d) for d in (0, 1, 2)] == [1, 2, 1]
    assert t.labels(1) == (("u", "x"), ("u", "y"))
    assert t.apply_diff(1, {("u", "x"): Q.one()}) == {("u", "y"): Q.one()}
    assert t.apply_diff(1, {("u", "y"): Q.one()}) == {("u", "y"): Q.one()}
    assert t.apply_diff(2, {("u", "x"): Q.one()}) == {("u", "x"): Q.one(), ("u", "y"): Q.of_int(-1)}
    t.check_differential()


def test_tensor_one_dimensionals():
    a = DgModule.from_data(Q, [("u", 1)])
    b = DgModule.from_data(Q, [("v", 2)])
    t = tensor(a, b)
    assert t.degrees() == [3] and t.dim(3) == 1
    assert t.diff == {}


def test_tensor_koszul_sign():
    m = two_term()
    t = tensor(m, m)
    # d(x (x) x) = y (x) x - x (x) y
    out = t.apply_diff(2, {("x", "x"): Q.one()})
    assert out == {("y", "x"): Q.one(), ("x", "y"): Q.of_int(-1)}


def test_tensor_field_mismatch():
    with pytest.raises(FieldMismatch):
        tensor(two_term(Q), two_term(F2))


def test_suspension_shifts_and_signs():
    m = two_term()
    s = suspension(m)
    assert s.degrees() == [1, 2]
    assert s.apply_diff(2, {("s", "x"): Q.one()}) == {("s", "y"): Q.of_int(-1)}
    ss = suspension(s)
    assert ss.apply_diff(3, {("s", ("s", "x")): Q.one()}) == {("s", ("s", "y")): Q.one()}


def test_homology_zero_differential():
    m = DgModule.from_data(Q, [("a", 0), ("b", 1)])
    assert homology(m) == {0: 1, 1: 1}


def test_homology_acyclic():
    assert homology(two_term()) == {0: 0, 1: 0}


def test_homology_exterior_generator():
    m = DgModule.from_data(F2, [("1", 0), ("x", 1)])
    assert homology(m, DegreeWindow(0, 1)) == {0: 1, 1: 1}


def test_swap_is_chain_iso_and_involution():
    m = DgModule.from_data(
        Q,
        [("a", 0), ("b", 1), ("c", 2)],
        {"c": {"b": Q.of_int(3)}},
    )
    ab = tensor(m, m)
    sw = dg_tensor_swap(m, m, ab, ab)
    assert sw.is_chain_map()
    assert sw.is_iso()
    twice = sw.compose(sw)
    assert twice == DgMap.identity(ab)


def test_swap_signs_degree01():
    deg0 = DgModule.ground(Q, "e")
    deg1 = DgModule.from_data(Q, [("f", 1)])
    sw0 = dg_tensor_swap(deg0, deg0)
    assert sw0.apply(0, {("e", "e"): Q.one()}) == {("e", "e"): Q.one()}
    sw1 = dg_tensor_swap(deg1, deg1)
    assert sw1.apply(2, {("f", "f"): Q.one()}) == {("f", "f"): Q.of_int(-1)}


def test_tensor_associative_on_bases():
    a = two_term()
    b = DgModule.from_data(Q, [("u", 1)])
    c = DgModule.from_data(Q, [("w", 0), ("v", 1)], {"v": {"w": Q.of_int(2)}})
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    rebracket = DgMap.from_rule(
        left, right, 0, lambda d, lab: {(lab[0][0], (lab[0][1], lab[1])): Q.one()}
    )
    assert rebracket.is_chain_map() and rebracket.is_iso()


def test_suspension_commutes_with_homology():
    m = DgModule.from_data(
        Q,
        [("a", 0), ("b", 1), ("c", 1), ("d", 2)],
        {"d": {"b": Q.one(), "c": Q.of_int(-1)}},
    )
    h = homology(m)
    hs = homology(suspension(m))
    for d, v in h.items():
        assert hs[d + 1] == v


def test_direct_sum():
    m = two_term()
    s = m.direct_sum(m)
    assert s.dim(0) == 2 and s.dim(1) == 2
    assert homology(s) == {0: 0, 1: 0}


def test_homology_rechecks_d_squared_on_unchecked_modules():
    m = DgModule.from_data(
        Q,
        [("a", 2), ("b", 1), ("c", 0)],
        {"a": {"b": Q.one()}, "b": {"c": Q.one()}},
        check=False,
    )
    with pytest.raises(CompositionNotZero):
        homology(m)


def test_homology_ranks_each_nonzero_block_once(monkeypatch):
    import opbar.dg
    import opbar.linalg

    # d x_k = y_{k-1}: nonzero blocks in degrees 1, 2, 3
    m = DgModule.from_data(
        Q,
        [("y0", 0), ("x1", 1), ("y1", 1), ("x2", 2), ("y2", 2), ("x3", 3)],
        {"x1": {"y0": Q.one()}, "x2": {"y1": Q.one()}, "x3": {"y2": Q.one()}},
    )
    ranked = []
    real_rank = opbar.linalg.rank

    def counting_rank(block):
        ranked.append(block)
        return real_rank(block)

    monkeypatch.setattr(opbar.linalg, "rank", counting_rank)
    monkeypatch.setattr(opbar.dg, "rank", counting_rank)
    assert homology(m) == {0: 0, 1: 0, 2: 0, 3: 0}
    assert sorted(id(b) for b in ranked) == sorted(id(m.diff_block(d)) for d in (1, 2, 3))


def test_homology_skips_the_d_squared_check_made_at_construction(monkeypatch):
    import opbar.linalg

    products = []
    real_matmul = opbar.linalg.SparseMatrix.matmul

    def counting_matmul(self, other):
        products.append((self, other))
        return real_matmul(self, other)

    monkeypatch.setattr(opbar.linalg.SparseMatrix, "matmul", counting_matmul)
    # d x_k = y_{k-1}, d y_k = 0: consecutive nonzero blocks in degrees 1, 2, 3
    m = DgModule.from_data(
        Q,
        [("y0", 0), ("x1", 1), ("y1", 1), ("x2", 2), ("y2", 2), ("x3", 3)],
        {"x1": {"y0": Q.one()}, "x2": {"y1": Q.one()}, "x3": {"y2": Q.one()}},
    )
    assert len(products) == 2  # d_1 d_2 and d_2 d_3, once each
    products.clear()
    assert homology(m) == {0: 0, 1: 0, 2: 0, 3: 0}
    assert products == []
    # the one check stays at construction
    d_squared_not_zero = {"a": {"b": Q.one()}, "b": {"c": Q.one()}}
    with pytest.raises(CompositionNotZero):
        DgModule.from_rule(Q, {2: ("a",), 1: ("b",), 0: ("c",)}, lambda d, label: d_squared_not_zero.get(label, {}))
