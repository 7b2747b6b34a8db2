import pytest

from opbar.dg import DegreeWindow, homology
from opbar.errors import NotCommutative, SimplicialIdentityViolation
from opbar.linalg import CoeffField
from opbar.modules import DgAlgebra, check_algebra
from opbar.bar import bar, iterated_bar
from opbar.simplicial import (
    FiniteSimplicialSet,
    boundary_of_simplex,
    minimal_sphere,
    normalized_cochains,
    parse_face_expression,
    simplicial_set_from_json,
)
from opbar.transfer import Retract, transfer_a_infinity

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)
F3 = CoeffField.prime(3)
F5 = CoeffField.prime(5)


def standard_simplex(n):
    """Delta^n: the boundary of the n-simplex and its top simplex, whose
    face d_i is the facet without the i-th vertex."""
    b = boundary_of_simplex(n)

    def vertices(name):
        faces = b.faces_of.get(name)
        return frozenset.union(*(vertices(core) for _, core in faces)) if faces else frozenset([name])

    ordered = b.nondegenerate(0)
    facet = {vertices(name): name for name in b.nondegenerate(n - 1)}
    top = [((), facet[frozenset(ordered[:i] + ordered[i + 1 :])]) for i in range(n + 1)]
    return FiniteSimplicialSet({**b.dim_of, "top": n}, {**b.faces_of, "top": top}, b.basepoint)


def simplicial_to_json(space):
    out = {"simplices": [], "basepoint": space.basepoint}
    for name in sorted(space.dim_of, key=lambda n: (space.dim_of[n], n)):
        entry = {"name": name, "dim": space.dim_of[name]}
        if space.dim_of[name] > 0:
            entry["faces"] = [_face_expr(w, core) for (w, core) in space.faces_of[name]]
        out["simplices"].append(entry)
    return out


def _face_expr(word, core):
    text = core
    for j in reversed(word):
        text = "s%d(%s)" % (j, text)
    return text


def test_parse_face_expressions():
    assert parse_face_expression("e") == ((), "e")
    assert parse_face_expression("s0(pt)") == ((0,), "pt")
    assert parse_face_expression("s1(s0(pt))") == ((1, 0), "pt")
    assert parse_face_expression("s1 s0 pt") == ((1, 0), "pt")


def test_degeneracy_word_normalization():
    x = minimal_sphere(2)
    # s_0 s_0 = s_1 s_0
    a = x.degeneracy(0, x.degeneracy(0, ((), "pt")))
    b = x.degeneracy(1, x.degeneracy(0, ((), "pt")))
    assert a == b
    # words stay strictly decreasing
    assert a[0][0] > a[0][1]


def test_identities_checked_symbolically():
    minimal_sphere(2)
    minimal_sphere(3)
    boundary_of_simplex(3)
    standard_simplex(2)
    # broken face data: a 2-simplex whose faces do not satisfy d_i d_j
    with pytest.raises(SimplicialIdentityViolation):
        FiniteSimplicialSet(
            {"pt": 0, "q": 0, "sigma": 2},
            {"sigma": [((0,), "pt"), ((0,), "q"), ((0,), "pt")]},
            "pt",
        )


def test_minimal_sphere_cochains():
    c1 = normalized_cochains(minimal_sphere(1), F2)
    assert {d: c1.module.dim(d) for d in c1.module.degrees()} == {-1: 1}
    c2 = normalized_cochains(minimal_sphere(2), F2)
    assert {d: c2.module.dim(d) for d in c2.module.degrees()} == {-2: 1}
    # cup squares vanish for dimension reasons
    assert c1.algebra().op_apply(2, ("e", "e")) == {}


def test_contractible_models():
    for n in (1, 2):
        c = normalized_cochains(standard_simplex(n), Q)
        assert all(v == 0 for v in homology(c.module).values())


def test_boundary_sphere_cohomology():
    cb = normalized_cochains(boundary_of_simplex(3), F2)
    assert {d: cb.module.dim(d) for d in cb.module.degrees()} == {0: 3, -1: 6, -2: 4}
    h = {d: v for d, v in homology(cb.module).items() if v}
    assert h == {-2: 1}
    cb4 = normalized_cochains(boundary_of_simplex(4), F3)
    assert {d: v for d, v in homology(cb4.module).items() if v} == {-3: 1}


def test_cup_checks_all_fields():
    for field in (F2, Q, F3):
        assert check_algebra(normalized_cochains(boundary_of_simplex(3), field).algebra(), 4)
    assert check_algebra(normalized_cochains(standard_simplex(2), Q).algebra(), 4)


def test_james_table_for_s2():
    c2 = normalized_cochains(minimal_sphere(2), F2)
    b = bar(c2.algebra(), DegreeWindow(-8, -1))
    assert {d: v for d, v in b.homology().items() if v} == {-k: 1 for k in range(1, 9)}


def test_divided_power_table_for_s3():
    for field in (F2, F3, F5):
        c3 = normalized_cochains(minimal_sphere(3), field)
        b = bar(c3.algebra(), DegreeWindow(-8, -1))
        assert {d: v for d, v in b.homology().items() if v} == {-k: 1 for k in range(2, 9, 2)}


def test_iterated_bar_commutative_model_s3():
    # H^*(S^3) = Lambda(x_3) as a strictly commutative cochain model;
    # B^2 gives the F2[u_1, u_3, u_7]-type pattern through degree 7
    from opbar.dg import DgModule

    lx3 = DgAlgebra(F2, "comm", DgModule.from_data(F2, [("x", -3)]), {2: {}}, name="lambda_x3")
    levels = iterated_bar(lx3, 2, DegreeWindow(-7, -1))
    got = {-d: v for d, v in levels[-1].homology().items() if v}
    assert got == {1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 4}


def test_iterated_cochains_need_commutative_model():
    cb = normalized_cochains(boundary_of_simplex(3), F2).algebra()
    with pytest.raises(NotCommutative):
        iterated_bar(cb, 2, DegreeWindow(-6, -1))


def test_retract_and_transfer():
    cb = normalized_cochains(boundary_of_simplex(3), F2)
    ret = Retract(cb.module)
    assert ret.verify()
    reduced = transfer_a_infinity(cb.algebra(), 6)
    assert {d: reduced.module.dim(d) for d in reduced.module.degrees()} == {-2: 1}
    assert check_algebra(reduced, 5)


def test_quasi_iso_invariance_of_bar_tables():
    c_min = normalized_cochains(minimal_sphere(2), F2)
    t_min = {d: v for d, v in bar(c_min.algebra(), DegreeWindow(-8, -1)).homology().items()}
    reduced = transfer_a_infinity(normalized_cochains(boundary_of_simplex(3), F2).algebra(), 9)
    t_big = {d: v for d, v in bar(reduced, DegreeWindow(-8, -1)).homology().items()}
    assert t_min == t_big


def test_retract_over_q_and_f3():
    for field in (Q, F3):
        cb = normalized_cochains(boundary_of_simplex(3), field)
        ret = Retract(cb.module)
        assert ret.verify()
        # degree-forced-trivial transfer is valid over any field here
        reduced = transfer_a_infinity(cb.algebra(), 5)
        assert not reduced.ops


def test_json_round_trip():
    x = boundary_of_simplex(3)
    y = simplicial_set_from_json(simplicial_to_json(x))
    assert y.dim_of == x.dim_of
    c1 = normalized_cochains(x, F2)
    c2 = normalized_cochains(y, F2)
    assert {d: c1.module.dim(d) for d in c1.module.degrees()} == {
        d: c2.module.dim(d) for d in c2.module.degrees()
    }
