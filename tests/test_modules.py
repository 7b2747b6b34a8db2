import importlib
import random
from itertools import product
from pathlib import Path

import pytest

from opbar.bar import bar, shuffle_product
from opbar.dg import DegreeWindow, DgModule, tensor as dg_tensor
from opbar.errors import InvalidMorphism
from opbar.fixtures import random_commutative_algebra, random_tensor_algebra
from opbar.jsonio import algebra_from_json, load_json
from opbar.linalg import CoeffField, combo_add
from opbar.simplicial import normalized_cochains, simplicial_set_from_json
from opbar.transfer import transfer_a_infinity
from opbar.modules import (
    DgAlgebra,
    RightModule,
    TensorRightModule,
    _tensor_diff_terms,
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
    stasheff_sign,
)

ROOT = Path(__file__).resolve().parent.parent
Q = CoeffField.rationals()
F2 = CoeffField.prime(2)
F3 = CoeffField.prime(3)


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


def test_check_module_rejects_a_corrupted_action():
    As = associative_operad(Q, 4)
    m = (2, 0, (1, 2))
    image = As.compose_partial(m, 1, m)

    def action(m_triple, slot, q_triple):
        if (m_triple, slot, q_triple) == (m, 1, m):
            return {label: Q.of_int(2) for label in image}
        return As.compose_partial(m_triple, slot, q_triple)

    operad_right_module(As).check_module(4)
    with pytest.raises(ValueError):
        RightModule(Q, As.sigma, As, action).check_module(4)


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


def massey_algebra(field=F2):
    """A dga whose homology a, b, c, m carries the Massey product
    <a, b, c> = xc + ay = m: dx = ab, dy = bc, xc = m."""
    one = field.one()
    mod = DgModule.from_data(
        field,
        [("a", 1), ("b", 1), ("c", 1), ("ab", 2), ("bc", 2), ("x", 3), ("y", 3), ("m", 4)],
        {"x": {"ab": one}, "y": {"bc": one}},
    )
    ops = {("a", "b"): {"ab": one}, ("b", "c"): {"bc": one}, ("x", "c"): {"m": one}}
    return DgAlgebra(field, "assoc", mod, {2: ops}, name="massey")


def _exhaustive_check_algebra(a, max_arity=None, partial_range=None):
    """check_algebra as it was before it derived its words from the
    stored tables: every relation on all N^r words.  (ok, diagnostics)."""
    f = a.field
    mod = a.module
    diags = []
    top = max_arity or (a.max_op_arity() + 1)
    misgraded = False
    for r, table in a.ops.items():
        if a.kind in ("assoc", "comm") and r != 2:
            diags.append("kind %s admits only the binary product, found mu_%d" % (a.kind, r))
        for labels, out in table.items():
            din = sum(a.degree_of(l) for l in labels)
            for l2, c in out.items():
                if a.degree_of(l2) != din + r - 2:
                    diags.append("mu_%d%r output degree wrong at %r" % (r, labels, l2))
                    misgraded = True
    if a.kind == "comm":
        for (x, y), out in a.ops.get(2, {}).items():
            sgn = f.sign(a.degree_of(x) * a.degree_of(y))
            scaled = {k: f.mul(sgn, v) for k, v in a.op_apply(2, (y, x)).items()}
            if {k: v for k, v in out.items() if not f.is_zero(v)} != scaled:
                diags.append("commutativity fails at (%r,%r)" % (x, y))
    if misgraded:
        return False, diags
    labels_all = [(d, l) for d in mod.degrees() for l in mod.labels(d)]
    for r in range(2, top + 1):
        for word in product(labels_all, repeat=r):
            degs = [d for d, _ in word]
            labs = [l for _, l in word]
            if partial_range is not None:
                lo, hi = partial_range
                d_out = sum(degs) + r - 2
                needed = [d_out, d_out - 1]
                for s in range(2, r):
                    for i in range(1, s + 1):
                        t = r + 1 - s
                        needed.append(sum(degs[i - 1 : i - 1 + t]) + t - 2)
                if any(dd < lo or dd > hi for dd in needed):
                    continue
            lhs = {}
            for l2, c in a.op_apply(r, labs).items():
                for l3, c3 in mod.apply_diff(sum(degs) + r - 2, {l2: c}).items():
                    combo_add(f, lhs, l3, c3)
            sgn = f.sign(r - 1)
            for c, j, l2 in _tensor_diff_terms(f, degs, labs, mod):
                for l3, c3 in a.op_apply(r, labs[:j] + [l2] + labs[j + 1 :]).items():
                    combo_add(f, lhs, l3, f.mul(f.mul(sgn, c), c3))
            rhs = {}
            for s in range(2, r):
                t = r + 1 - s
                for i in range(1, s + 1):
                    sign = f.sign(stasheff_sign(s, t, i) + (t - 2) * sum(degs[: i - 1]))
                    for lmid, cmid in a.op_apply(t, labs[i - 1 : i - 1 + t]).items():
                        outer = labs[: i - 1] + [lmid] + labs[i - 1 + t :]
                        for l3, c3 in a.op_apply(s, outer).items():
                            combo_add(f, rhs, l3, f.mul(sign, f.mul(cmid, c3)))
            if lhs != rhs:
                diags.append("structure relation fails at arity %d word %r" % (r, tuple(labs)))
                if len(diags) > 8:
                    return False, diags
    return not diags, diags


def _one_coefficient_mutant(alg, rng):
    """alg with one mu_2 coefficient moved by a nonzero scalar (a new
    entry if it was zero, none if it becomes zero); degrees are kept.
    None if no product can land in the basis."""
    f = alg.field
    mod = alg.module
    letters = [(d, l) for d in mod.degrees() for l in mod.labels(d)]
    spots = [((x, y), z) for dx, x in letters for dy, y in letters for z in mod.labels(dx + dy)]
    if not spots:
        return None
    key, z = rng.choice(spots)
    ops = {r: {k: dict(v) for k, v in table.items()} for r, table in alg.ops.items()}
    out = ops.setdefault(2, {}).setdefault(key, {})
    step = f.of_int(rng.choice([1, 2, -1]) if f.p is None else rng.randint(1, f.p - 1))
    new = f.add(out.get(z, f.zero()), step)
    if f.is_zero(new):
        del out[z]
    else:
        out[z] = new
    return DgAlgebra(f, alg.kind, mod, ops, name="mutant")


def _oracle_fixtures():
    """(algebra, max_arity, partial_range) cases with at most 20 basis elements."""
    yield exterior(F2), 4, None
    yield trunc_poly(F2), 4, None
    yield DgAlgebra(Q, "ainf", trunc_poly(Q).module, dict(trunc_poly(Q).ops)), 4, None
    yield DgAlgebra(Q, "comm", DgModule.from_data(Q, [("x", 1), ("y", 2)]), {2: {("x", "x"): {"y": Q.one()}}}), 3, None
    yield DgAlgebra(
        Q,
        "assoc",
        DgModule.from_data(Q, [("a", 1), ("b", 2), ("c", 3)]),
        {2: {("a", "a"): {"b": Q.one()}, ("a", "b"): {"c": Q.one()}, ("b", "a"): {"c": Q.of_int(-1)}}},
    ), 4, None
    yield DgAlgebra(Q, "ainf", DgModule.from_data(Q, [("x", 1), ("w", 4)]), {3: {("x", "x", "x"): {"w": Q.one()}}}), 6, None
    yield algebra_from_json(load_json(ROOT / "data" / "nonassoc.json"))[0], None, None
    rng = random.Random(2006)
    for seed in range(24):
        for field in (F2, F3, Q):
            for make in (random_tensor_algebra, random_commutative_algebra):
                mutant = _one_coefficient_mutant(make(field, seed), rng)
                if mutant is not None:
                    yield mutant, None, None
    for seed, field, hi in ((0, F2, 7), (6, Q, 5), (7, F2, 5), (7, Q, 6), (10, F2, 5)):
        b = bar(random_commutative_algebra(field, seed), DegreeWindow(0, hi))
        yield shuffle_product(b), 3, (b.window.lo - 1, b.window.hi + 1)
    s2 = simplicial_set_from_json(load_json(ROOT / "data" / "s2_boundary.json"))
    yield normalized_cochains(s2, F2).algebra(), None, None
    massey = massey_algebra()
    transferred = transfer_a_infinity(massey, 4)
    assert list(transferred.ops) == [3]
    yield transferred, 5, None
    # the dga itself, with mu_3(a, b, c) = m added as an A-infinity structure
    ainf = DgAlgebra(F2, "ainf", massey.module, {2: massey.ops[2], 3: {("a", "b", "c"): {"m": F2.one()}}})
    for alg in (massey, ainf):
        yield alg, 4, None
        for _ in range(3):
            yield _one_coefficient_mutant(alg, rng), 4, None
    workloads = importlib.import_module("workloads")
    for seed in range(3):
        yield algebra_from_json(workloads.late_violation_algebra_json(seed))[0], None, None


def test_check_algebra_matches_exhaustive_oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    mutants = failing = with_diff = 0
    for alg, max_arity, prange in _oracle_fixtures():
        assert alg.module.total_dim() <= 20
        expect = _exhaustive_check_algebra(alg, max_arity, prange)
        assert check_algebra(alg, max_arity, report=True, partial_range=prange) == expect, alg.name
        if alg.name == "mutant":
            mutants += 1
            failing += not expect[0]
            with_diff += bool(alg.module.diff)
    assert mutants >= 100 and failing >= 50 and with_diff >= 20


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
