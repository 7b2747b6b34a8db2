import pytest

from opbar.dg import DgModule, tensor as dg_tensor
from opbar.errors import InvalidMorphism
from opbar.fixtures import random_commutative_algebra, random_tensor_algebra
from opbar.linalg import CoeffField
from opbar.modules import (
    DgAlgebra,
    TensorRightModule,
    check_algebra,
    direct_sum_right_modules,
    extension,
    module_hom_dimension,
    operad_right_module,
    restriction,
    suspend_right_module,
    sym_apply,
    sym_over_operad,
)
from opbar.operads import (
    alpha_to_com,
    associative_operad,
    commutative_operad,
    eps_to_assoc,
    identity_morphism,
    stasheff_operad,
)

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)


def exterior(field):
    return DgAlgebra(field, "comm", DgModule.from_data(field, [("x", 1)]), {2: {}}, name="ext")


def trunc_poly(field):
    """F_2[x]/x^3 with |x| = 1, or Q[x]/x^3 with |x| = 2 (so that the
    square survives graded commutativity)."""
    deg = 1 if field.p == 2 else 2
    return DgAlgebra(
        field,
        "comm",
        DgModule.from_data(field, [("x", deg), ("x2", 2 * deg)]),
        {2: {("x", "x"): {"x2": field.one()}}},
        name="trunc",
    )


def test_operads_are_modules_over_themselves():
    for op in (associative_operad(Q, 3), commutative_operad(Q, 3), stasheff_operad(Q, 3)):
        operad_right_module(op).check_module(3)


def test_suspended_module_axioms():
    suspend_right_module(operad_right_module(stasheff_operad(Q, 3))).check_module(3)


def test_tensor_right_module_axioms():
    Com = commutative_operad(Q, 3)
    mod = operad_right_module(Com)
    TensorRightModule([mod, mod], 3).as_right_module().check_module(3)


def test_check_algebra_catches_corruption():
    bad = DgAlgebra(
        Q,
        "assoc",
        DgModule.from_data(Q, [("a", 1), ("b", 2), ("c", 3)]),
        {2: {("a", "a"): {"b": Q.one()}, ("a", "b"): {"c": Q.one()}, ("b", "a"): {"c": Q.of_int(-1)}}},
    )
    ok, diags = check_algebra(bad, 4, report=True)
    assert not ok and any("arity 3" in d for d in diags)


def test_check_algebra_rejects_misgraded_product():
    # mu_2(x, x) should land in degree 2; y sits in degree 3
    bad = DgAlgebra(F2, "assoc", DgModule.from_data(F2, [("x", 1), ("y", 3)]), {2: {("x", "x"): {"y": F2.one()}}})
    ok, diags = check_algebra(bad, 4, report=True)
    assert not ok and diags == ["mu_2('x', 'x') output degree wrong at 'y'"]
    assert not check_algebra(bad, 4)


def test_check_algebra_kinds():
    assert check_algebra(exterior(F2), 4)
    assert check_algebra(trunc_poly(F2), 4)
    # K-algebra via restriction: only mu_2, associativity is the arity-3 relation
    a = DgAlgebra(Q, "ainf", trunc_poly(Q).module, dict(trunc_poly(Q).ops))
    assert check_algebra(a, 4)
    # commutativity with Koszul signs: odd generator over Q squares to zero
    odd = DgAlgebra(Q, "comm", DgModule.from_data(Q, [("x", 1), ("y", 2)]), {2: {("x", "x"): {"y": Q.one()}}})
    assert not check_algebra(odd, 3)


def test_ainf_with_mu3():
    a3 = DgAlgebra(
        Q,
        "ainf",
        DgModule.from_data(Q, [("x", 1), ("w", 4)]),
        {3: {("x", "x", "x"): {"w": Q.one()}}},
    )
    assert check_algebra(a3, 6)


def test_sym_apply_counts():
    x0 = DgModule.ground(Q, "x")
    Com = commutative_operad(Q, 3)
    As = associative_operad(Q, 3)
    s1 = sym_apply(Com.sigma, x0, [1, 2, 3])
    s2 = sym_apply(As.sigma, x0, [1, 2, 3])
    assert s1.module.dim(0) == 3  # one symmetric power per weight
    assert s2.module.dim(0) == 3  # coinvariants of the regular representation


def test_sym_apply_odd_generator_over_q():
    # Sym(Com, x odd) kills the even-weight powers over Q (x.x ~ -x.x)
    x1 = DgModule.from_data(Q, [("x", 1)])
    Com = commutative_operad(Q, 3)
    s = sym_apply(Com.sigma, x1, [1, 2, 3])
    dims = {d: s.module.dim(d) for d in s.module.degrees()}
    assert dims == {1: 1}
    # over F2 nothing dies
    x1f = DgModule.from_data(F2, [("x", 1)])
    ComF = commutative_operad(F2, 3)
    sf = sym_apply(ComF.sigma, x1f, [1, 2, 3])
    assert {d: sf.module.dim(d) for d in sf.module.degrees()} == {1: 1, 2: 1, 3: 1}


def test_sym_over_operad_identity_functor():
    for field in (F2, Q):
        Com = commutative_operad(field, 3)
        a = trunc_poly(field)
        so = sym_over_operad(operad_right_module(Com), a, Com, [1, 2, 3])
        dims = {d: so.module.dim(d) for d in so.module.degrees()}
        expect = {d: a.module.dim(d) for d in a.module.degrees()}
        assert dims == expect
        As = associative_operad(field, 3)
        a2 = DgAlgebra(field, "assoc", a.module, dict(a.ops))
        so2 = sym_over_operad(operad_right_module(As), a2, As, [1, 2, 3])
        assert {d: so2.module.dim(d) for d in so2.module.degrees()} == expect


def test_sym_tensor_preservation():
    # Sym_Com(Com (x) Com, A) = A (x) A
    Com = commutative_operad(F2, 4)
    mod = operad_right_module(Com)
    tensor_mod = TensorRightModule([mod, mod], 4).as_right_module()
    a = trunc_poly(F2)
    so = sym_over_operad(tensor_mod, a, Com, [2, 3, 4])
    expect = dg_tensor(a.module, a.module)
    assert {d: so.module.dim(d) for d in so.module.degrees()} == {
        d: expect.dim(d) for d in expect.degrees()
    }


def test_sym_direct_sum_preservation():
    Com = commutative_operad(F2, 2)
    mod = operad_right_module(Com)
    both = direct_sum_right_modules(mod, mod)
    a = exterior(F2)
    so = sym_over_operad(both, a, Com, [1, 2])
    single = sym_over_operad(mod, a, Com, [1, 2])
    assert {d: so.module.dim(d) for d in so.module.degrees()} == {
        d: 2 * single.module.dim(d) for d in single.module.degrees()
    }


def test_extension_of_free_module_is_target():
    K = stasheff_operad(Q, 3)
    As = associative_operad(Q, 3)
    ext = extension(operad_right_module(K), eps_to_assoc(K, As), 3)
    assert ext.sigma.dims() == As.sigma.dims()
    ext.module.check_module(3)


def test_extension_along_identity():
    As = associative_operad(Q, 3)
    ext = extension(operad_right_module(As), identity_morphism(As), 3)
    assert ext.sigma.dims() == As.sigma.dims()


def test_extension_preserves_tensor():
    As = associative_operad(F2, 3)
    Com = commutative_operad(F2, 3)
    alpha = alpha_to_com(As, Com)
    mod = operad_right_module(As)
    pair = TensorRightModule([mod, mod], 3).as_right_module()
    ext_pair = extension(pair, alpha, 3)
    ext_single = extension(mod, alpha, 3)
    com_mod = operad_right_module(Com)
    expect = TensorRightModule([com_mod, com_mod], 3).as_right_module()
    assert ext_pair.sigma.dims() == expect.sigma.dims()
    assert ext_single.sigma.dims() == Com.sigma.dims()


def test_restriction_identity_and_factoring():
    As = associative_operad(Q, 3)
    Com = commutative_operad(Q, 3)
    alpha = alpha_to_com(As, Com)
    res = restriction(operad_right_module(Com), alpha)
    res.check_module(3)
    back = restriction(operad_right_module(As), identity_morphism(As))
    back.check_module(3)


def test_invalid_morphism_rejected():
    As = associative_operad(Q, 3)
    Com = commutative_operad(Q, 3)

    def bad_rule(triple):
        n, d, label = triple
        if n == 1:
            return {Com.unit_label: Q.one()}
        return {"e": Q.of_int(2)} if n == 2 else {"e": Q.one()}

    from opbar.operads import OperadMorphism

    bad = OperadMorphism(As, Com, bad_rule)
    with pytest.raises(InvalidMorphism):
        extension(operad_right_module(As), bad, 3)


def test_adjunction_dimension_count():
    # Mor_S(psi_! M, N) = Mor_R(M, psi^* N) for psi = alpha: As -> Com,
    # M = As over itself, N = Com over itself
    As = associative_operad(Q, 2)
    Com = commutative_operad(Q, 2)
    alpha = alpha_to_com(As, Com)
    M = operad_right_module(As)
    N = operad_right_module(Com)
    lhs_module = extension(M, alpha, 2).module
    lhs = module_hom_dimension(lhs_module, N, 2)
    rhs = module_hom_dimension(M, restriction(N, alpha, check_morphism=False), 2)
    assert lhs == rhs == 1


def test_sym_extension_restriction_identity():
    # Sym_S(M o_R S, B) = Sym_R(M, psi^* B)
    As = associative_operad(F2, 3)
    Com = commutative_operad(F2, 3)
    alpha = alpha_to_com(As, Com)
    M = operad_right_module(As)
    B = trunc_poly(F2)
    lhs = sym_over_operad(extension(M, alpha, 3).module, B, Com, [1, 2, 3])
    B_as = DgAlgebra(F2, "assoc", B.module, dict(B.ops))
    rhs = sym_over_operad(M, B_as, As, [1, 2, 3])
    assert {d: lhs.module.dim(d) for d in lhs.module.degrees()} == {
        d: rhs.module.dim(d) for d in rhs.module.degrees()
    }


def test_random_fixture_validity():
    for seed in range(4):
        assert check_algebra(random_tensor_algebra(Q, seed), 4)
        assert check_algebra(random_commutative_algebra(Q, seed), 4)
        assert check_algebra(random_commutative_algebra(F2, seed + 10), 4)
