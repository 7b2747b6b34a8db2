from pathlib import Path

import pytest

from opbar.dg import DegreeWindow, DgModule, homology
from opbar.errors import AlgebraCheckFailed, NotCommutative, TruncationUnsound
from opbar.fixtures import random_commutative_algebra, random_tensor_algebra
from opbar.jsonio import algebra_from_json, load_json
from opbar.linalg import CoeffField, kernel_basis
from opbar.modules import DgAlgebra, check_algebra
from opbar.bar import (
    bar,
    bar_extension_iso,
    bar_filtration_layer,
    bar_module,
    iterated_bar,
    shuffle_product,
    shuffle_word_product,
    sound_weight_bound,
    sym_bar_comparison,
)
from opbar.operads import (
    alpha_to_com,
    associative_operad,
    commutative_operad,
    eps_to_assoc,
    identity_morphism,
    stasheff_operad,
)
from opbar.transfer import Retract

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)
F3 = CoeffField.prime(3)


def exterior(field, deg=1):
    return DgAlgebra(field, "comm", DgModule.from_data(field, [("x", deg)]), {2: {}}, name="ext")


def trunc_f2():
    return DgAlgebra(
        F2,
        "comm",
        DgModule.from_data(F2, [("x", 1), ("x2", 2)]),
        {2: {("x", "x"): {"x2": F2.one()}}},
        name="trunc",
    )


def resolution_tor_dims(field, maps, internal_degrees, through_weight):
    """Reduced Tor dims from an explicit periodic free resolution.

    `maps` lists the multipliers of ... -> R -> R -> k (e.g. [x, x^2]
    cyclically for R = k[x]/x^3); after applying k (x)_R -, every map
    is zero, so Tor_n = k in internal degree accumulating the
    multiplier degrees.  Returns {total degree: dim} in bar grading
    (total = weight + internal).
    """
    out = {}
    acc = 0
    for n in range(1, through_weight + 1):
        acc += internal_degrees[(n - 1) % len(internal_degrees)]
        out[n + acc] = out.get(n + acc, 0) + 1
    return out


def test_trivial_product_tensor_coalgebra():
    b = bar(exterior(Q), DegreeWindow(0, 12))
    assert {d: b.module.dim(d) for d in b.module.degrees()} == {d: 1 for d in range(2, 13, 2)}
    assert b.module.diff == {}


def test_sound_weight_bound():
    assert sound_weight_bound([2], DegreeWindow(0, 12)) == 6
    assert sound_weight_bound([-1], DegreeWindow(-8, -1)) == 9
    assert sound_weight_bound([0, 2], DegreeWindow(0, 6)) is None
    assert sound_weight_bound([-1, 2], DegreeWindow(-6, 6)) is None


def test_mixed_sign_requires_weight_bound():
    mixed = DgAlgebra(Q, "comm", DgModule.from_data(Q, [("a", 1), ("b", -2)]), {2: {}})
    with pytest.raises(TruncationUnsound):
        bar(mixed, DegreeWindow(-4, 4))
    b = bar(mixed, DegreeWindow(-4, 4), weight_bound=3)
    assert not b.exact_in_window


def test_algebra_guard():
    bad = DgAlgebra(
        Q,
        "assoc",
        DgModule.from_data(Q, [("a", 1), ("b", 2), ("c", 3)]),
        {2: {("a", "a"): {"b": Q.one()}, ("a", "b"): {"c": Q.one()}, ("b", "a"): {"c": Q.of_int(-1)}}},
    )
    with pytest.raises(AlgebraCheckFailed):
        bar(bad, DegreeWindow(0, 6))


def test_exterior_tor_pattern():
    # oracle: periodic resolution ... -> L -> L -> k with multiplier x
    b = bar(exterior(F2), DegreeWindow(0, 12))
    oracle = resolution_tor_dims(F2, ["x"], [1], 6)
    got = {d: v for d, v in b.homology().items() if v}
    assert got == oracle


def test_trunc_poly_tor_pattern():
    # oracle: periodic resolution with multipliers x, x^2 (degrees 1, 2)
    b = bar(trunc_f2(), DegreeWindow(0, 10))
    oracle = {d: v for d, v in resolution_tor_dims(F2, ["x", "x2"], [1, 2], 6).items() if d <= 10}
    got = {d: v for d, v in b.homology().items() if v}
    assert got == oracle


def test_random_bars_square_zero():
    for seed in range(4):
        for field in (Q, F2):
            bar(random_tensor_algebra(field, seed), DegreeWindow(-12, 12))


def test_ainf_bar_square_zero():
    a3 = DgAlgebra(
        Q,
        "ainf",
        DgModule.from_data(Q, [("x", 1), ("w", 4)]),
        {3: {("x", "x", "x"): {"w": Q.one()}}},
    )
    bar(a3, DegreeWindow(0, 12))


def test_filtration_layers():
    b = bar(trunc_f2(), DegreeWindow(0, 8))
    layer1 = bar_filtration_layer(b, 1)
    # B_{<=1} = Sigma A with the internal differential only
    assert {d: layer1.dim(d) for d in layer1.degrees()} == {2: 1, 3: 1}
    full = bar_filtration_layer(b, b.weight_bound)
    assert {d: full.dim(d) for d in full.degrees()} == {
        d: b.module.dim(d) for d in b.module.degrees()
    }
    with pytest.raises(ValueError):
        bar_filtration_layer(b, b.weight_bound + 1)
    # associated graded carries the internal differential only
    for n in range(1, b.weight_bound + 1):
        assert b.layer_quotient_matches_tensor_power(n)


def test_shuffle_term_counts():
    b = bar(exterior(F2), DegreeWindow(0, 8))
    u = ((1, "x"),)
    v = ((1, "x"), (1, "x"))
    prod = shuffle_word_product(F2, u, v)
    # (2,1) shuffles: C(3,1) = 3 terms; over F2 with equal letters they pile up
    total = sum(1 for _ in prod) if prod else 0
    assert total <= 3
    w11 = shuffle_word_product(Q, ((1, "x"),), ((2, "y"),))
    # (Sx).(Sy) = Sx(x)Sy + (-1)^{|Sx||Sy|} Sy(x)Sx
    assert w11 == {((1, "x"), (2, "y")): Q.one(), ((2, "y"), (1, "x")): Q.one()}
    w11b = shuffle_word_product(Q, ((1, "x"),), ((3, "z"),))
    assert w11b[((3, "z"), (1, "x"))] == Q.one()
    w11c = shuffle_word_product(Q, ((2, "y"),), ((2, "y2"),))
    assert w11c[((2, "y2"), (2, "y"))] == Q.of_int(-1)


def test_shuffle_requires_commutative():
    assoc = DgAlgebra(Q, "assoc", DgModule.from_data(Q, [("x", 1)]), {2: {}})
    b = bar(assoc, DegreeWindow(0, 6))
    with pytest.raises(NotCommutative):
        shuffle_product(b)


def test_shuffle_algebra_checks_on_seeded_fixture():
    alg = random_commutative_algebra(F2, 42)
    b = bar(alg, DegreeWindow(0, 8))
    sh = shuffle_product(b)
    assert check_algebra(sh, 3, partial_range=(b.window.lo - 1, b.window.hi + 1))


def test_iterated_bar_b2_exterior():
    levels = iterated_bar(exterior(F2), 2, DegreeWindow(0, 6))
    got = {d: v for d, v in levels[-1].homology(DegreeWindow(1, 6)).items() if v}
    # oracle: reduced Tor over Gamma[y_2] = Lambda(y_2) (x) Lambda(y_4) (x) ...
    # through degree 6: degrees 3 (sy_2), 5 (sy_4), 6 (gamma_2 sy_2)
    assert got == {3: 1, 5: 1, 6: 1}


def test_iterated_bar_trivial_products():
    levels = iterated_bar(exterior(Q, 2), 2, DegreeWindow(0, 9))
    b2 = levels[-1]
    # B(B) of a trivial-product algebra: T^c(Sigma T^c(Sigma A)) dims
    inner_degrees = {d: 1 for d in range(3, 10, 3)}  # letters of B^1: degree 3 each... weight w: 3w
    mod = b2.module
    # words of letters with degrees {3k+1}: verify pure tensor coalgebra count at low degrees
    assert mod.dim(4) == 1  # (s[sx])
    assert mod.dim(7) == 1  # (s[sx|sx])
    assert mod.dim(8) == 1  # (s[sx], s[sx])


def test_homology_of_bar_is_graded_commutative_over_q():
    # classes of cycle representatives commute up to boundaries
    alg = DgAlgebra(
        Q,
        "comm",
        DgModule.from_data(Q, [("x", 2), ("x2", 4)]),
        {2: {("x", "x"): {"x2": Q.one()}}},
        name="truncQ",
    )
    b = bar(alg, DegreeWindow(0, 12))
    sh = shuffle_product(b)
    mod = b.module
    from opbar.linalg import solve

    for du in (3, 6):
        for dv in (3, 6):
            if du + dv not in mod.basis:
                continue
            cycles_u = kernel_basis(mod.diff_block(du))
            cycles_v = kernel_basis(mod.diff_block(dv))
            if not cycles_u or not cycles_v:
                continue
            u = mod.combo(du, cycles_u[0])
            v = mod.combo(dv, cycles_v[0])
            uv = {}
            vu = {}
            for lu, cu in u.items():
                for lv, cv in v.items():
                    for w, c in sh.op_apply(2, (lu, lv)).items():
                        uv[w] = Q.add(uv.get(w, Q.zero()), Q.mul(Q.mul(cu, cv), c))
                    for w, c in sh.op_apply(2, (lv, lu)).items():
                        vu[w] = Q.add(vu.get(w, Q.zero()), Q.mul(Q.mul(cu, cv), c))
            sgn = Q.sign(du * dv)
            dif = dict(uv)
            for w, c in vu.items():
                dif[w] = Q.sub(dif.get(w, Q.zero()), Q.mul(sgn, c))
            dif = {w: c for w, c in dif.items() if not Q.is_zero(c)}
            # the difference must be a boundary
            target = mod.vector(du + dv, dif)
            assert solve(mod.diff_block(du + dv + 1), target) is not None


def test_bar_module_dims_com():
    Com = commutative_operad(Q, 3)
    bm = bar_module(Com, 3)
    # B_Com(r): words of weight m routed by multishuffles: C(r-1, m-1) cosets... enumerable:
    # arity 1: weight 1: 1;  arity 2: weights 1, 2 -> dims 1, 2;  arity 3: 1, 6?, ...
    dims = bm.dims()
    assert dims[1] == {1: 1}
    assert dims[2] == {1: 1, 2: 2}
    assert sum(dims[3].values()) == 1 + 6 + 6  # weights 1..3 at arity 3


def test_bar_module_assoc_coderivation_drops_weight_by_one():
    # for As only mu_2 contributes: weight drops by exactly one
    As = associative_operad(Q, 3)
    bm = bar_module(As, 3)
    for r in bm.sigma.arities():
        comp = bm.component(r)
        for d in comp.degrees():
            for label in comp.labels(d):
                n = label[0]
                for (n2, _), c in bm.diff_label(r, d, label).items():
                    assert n2 in (n, n - 1)


def test_sym_bar_comparison_all_three():
    Com = commutative_operad(F2, 3)
    sym_bar_comparison(bar_module(Com, 3), exterior(F2), [1, 2, 3], DegreeWindow(0, 6))
    As = associative_operad(F2, 3)
    a_assoc = DgAlgebra(F2, "assoc", trunc_f2().module, dict(trunc_f2().ops))
    sym_bar_comparison(bar_module(As, 3), a_assoc, [1, 2, 3], DegreeWindow(0, 6))
    K = stasheff_operad(Q, 3)
    a_k = DgAlgebra(Q, "ainf", DgModule.from_data(Q, [("a", 1), ("b", 2)]), {2: {("a", "a"): {"b": Q.one()}}})
    sym_bar_comparison(bar_module(K, 3), a_k, [1, 2, 3], DegreeWindow(0, 6))


def test_bar_extension_isos():
    K = stasheff_operad(Q, 3)
    As = associative_operad(Q, 3)
    Com = commutative_operad(Q, 3)
    bar_extension_iso(bar_module(K, 3), eps_to_assoc(K, As), 3)
    bar_extension_iso(bar_module(As, 3), alpha_to_com(As, Com), 3)
    bm = bar_module(Com, 3)
    bar_extension_iso(bm, identity_morphism(Com), 3, bar_mod_s=bm)


def test_bar_module_k_arity4_consistency():
    K = stasheff_operad(Q, 4)
    bm = bar_module(K, 4)  # construction checks (delta+partial)^2 = 0
    assert sum(sum(dd.values()) for dd in bm.dims().values()) > 0


def _data_algebra(name, field):
    return algebra_from_json(load_json(str(Path(__file__).resolve().parent.parent / "data" / name)), field)[0]


@pytest.mark.parametrize("field", [F2, F3, Q], ids=repr)
def test_retract_of_bar_complexes(field):
    algebras = [_data_algebra("exterior.json", field)] + [random_tensor_algebra(field, seed) for seed in range(4)]
    if field == F2:
        algebras.append(_data_algebra("trunc.json", field))
    with_differential = 0
    for algebra in algebras:
        module = bar(algebra, DegreeWindow(0, 5)).module
        with_differential += bool(module.diff)
        ret = Retract(module)
        assert ret.verify()
        hom = homology(module)
        assert all(ret.h_basis[d] == hom[d] for d in module.degrees())
    assert with_differential >= 4  # the tensor algebras give nonzero bar differentials
