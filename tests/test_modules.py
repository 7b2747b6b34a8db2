import gc
import hashlib
import importlib
import random
import re
import weakref
from itertools import product
from pathlib import Path

import pytest

import opbar.modules
import opbar.sigma
from opbar import trees
from opbar.bar import BarModule, bar, bar_extension_iso, bar_module, shuffle_product, sym_bar_comparison
from opbar.dg import DegreeWindow, DgModule, tensor as dg_tensor
from opbar.errors import AlgebraCheckFailed, ArityBoundExceeded, InvalidMorphism
from opbar.fixtures import random_commutative_algebra, random_tensor_algebra
from opbar.jsonio import algebra_from_json, load_json, operad_from_json, operad_to_json
from opbar.linalg import CoeffField, combo_add, quotient_data
from opbar.simplicial import normalized_cochains, simplicial_set_from_json
from opbar.sigma import SigmaModule, compose
from opbar.transfer import transfer_a_infinity
from opbar.verify import _fixture_algebras
from opbar.modules import (
    DgAlgebra,
    RightModule,
    SymOverOperad,
    SymPresentation,
    TensorRightModule,
    check_algebra,
    evaluate_operad_element,
    extension,
    operad_right_module,
    restriction,
    suspend_right_module,
)
from opbar.operads import (
    alpha_to_com,
    associative_operad,
    commutative_operad,
    compose_morphisms,
    eps_to_assoc,
    free_operad,
    identity_morphism,
    operad_morphism_check,
    stasheff_operad,
    stasheff_sign,
)
from test_dg import direct_sum
from test_operads import spy_full_morphism_checks

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
    t = TensorRightModule([mod, mod], 3)
    RightModule(t.field, t.words.as_sigma(), t.operad, t.act_partial).check_module(3)


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


def _tensor_diff_terms(field, degrees, labels, module):
    """The oracle's own Koszul differential of a word of algebra basis
    elements: yields (coeff, position, new_label)."""
    prefix = 0
    for j, (d, l) in enumerate(zip(degrees, labels)):
        for l2, c in module.apply_diff(d, {l: field.one()}).items():
            yield field.mul(field.sign(prefix), c), j, l2
        prefix += d


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
    s1 = SymPresentation(Com.sigma, x0, [1, 2, 3])
    s2 = SymPresentation(As.sigma, x0, [1, 2, 3])
    assert s1.module.dim(0) == 3  # one symmetric power per weight
    assert s2.module.dim(0) == 3  # coinvariants of the regular representation


def test_sym_apply_odd_generator_over_q():
    # Sym(Com, x odd) kills the even-weight powers over Q (x.x ~ -x.x)
    x1 = DgModule.from_data(Q, [("x", 1)])
    Com = commutative_operad(Q, 3)
    s = SymPresentation(Com.sigma, x1, [1, 2, 3])
    dims = {d: s.module.dim(d) for d in s.module.degrees()}
    assert dims == {1: 1}
    # over F2 nothing dies
    x1f = DgModule.from_data(F2, [("x", 1)])
    ComF = commutative_operad(F2, 3)
    sf = SymPresentation(ComF.sigma, x1f, [1, 2, 3])
    assert {d: sf.module.dim(d) for d in sf.module.degrees()} == {1: 1, 2: 1, 3: 1}


def test_sym_over_operad_identity_functor():
    for field in (F2, Q):
        Com = commutative_operad(field, 3)
        a = trunc_poly(field)
        so = SymOverOperad(operad_right_module(Com), a, Com, [1, 2, 3])
        dims = {d: so.module.dim(d) for d in so.module.degrees()}
        expect = {d: a.module.dim(d) for d in a.module.degrees()}
        assert dims == expect
        As = associative_operad(field, 3)
        a2 = DgAlgebra(field, "assoc", a.module, dict(a.ops))
        so2 = SymOverOperad(operad_right_module(As), a2, As, [1, 2, 3])
        assert {d: so2.module.dim(d) for d in so2.module.degrees()} == expect


def test_sym_tensor_preservation():
    # Sym_Com(Com (x) Com, A) = A (x) A
    Com = commutative_operad(F2, 4)
    mod = operad_right_module(Com)
    t = TensorRightModule([mod, mod], 4)
    tensor_mod = RightModule(t.field, t.words.as_sigma(), t.operad, t.act_partial)
    a = trunc_poly(F2)
    so = SymOverOperad(tensor_mod, a, Com, [2, 3, 4])
    expect = dg_tensor(a.module, a.module)
    assert {d: so.module.dim(d) for d in so.module.degrees()} == {
        d: expect.dim(d) for d in expect.degrees()
    }


def test_sym_over_operad_refuses_weights_that_miss_an_arity_below_the_bound():
    # the d0 - d1 relations of weight 1 reach B_As(4) within As's arity bound 4,
    # and those of weight 1 reach B_As(2) when weight 2 is left out
    As4 = associative_operad(F2, 4)
    with pytest.raises(ArityBoundExceeded, match=r"weights \[1, 2, 3\] miss arity 4 of B_As, .* arity bound 4 of As"):
        SymOverOperad(bar_module(As4, 4).right_module, exterior(F2), As4, [1, 2, 3])
    As3 = associative_operad(F2, 3)
    with pytest.raises(ArityBoundExceeded, match=r"weights \[1, 3\] miss arity 2 of B_As, .* arity bound 3 of As"):
        SymOverOperad(bar_module(As3, 3).right_module, exterior(F2), As3, [1, 3])


def direct_sum_right_modules(m1, m2):
    """M (+) N with the slotwise action; labels are tagged L/R."""
    f = m1.field
    if m1.operad is not m2.operad:
        raise ValueError("summands over different operads")
    components = {
        n: direct_sum(m1.sigma.component(n), m2.sigma.component(n))
        for n in sorted(set(m1.sigma.arities()) | set(m2.sigma.arities()))
    }

    def act(n, s_i, d, label):
        tag, l = label
        src = m1 if tag == "L" else m2
        return {(tag, l2): c for l2, c in src.sigma.act_perm_combo(n, s_i, d, {l: f.one()}).items()}

    sigma = SigmaModule.from_rule(f, components, act)

    def action(m_triple, slot, q_triple):
        n, d, (tag, label) = m_triple
        src = m1 if tag == "L" else m2
        return {(tag, l2): c for l2, c in src.act_partial((n, d, label), slot, q_triple).items()}

    return RightModule(f, sigma, m1.operad, action, name="%s(+)%s" % (m1.name, m2.name))


def test_sym_direct_sum_preservation():
    Com = commutative_operad(F2, 2)
    mod = operad_right_module(Com)
    both = direct_sum_right_modules(mod, mod)
    a = exterior(F2)
    so = SymOverOperad(both, a, Com, [1, 2])
    single = SymOverOperad(mod, a, Com, [1, 2])
    assert {d: so.module.dim(d) for d in so.module.degrees()} == {
        d: 2 * single.module.dim(d) for d in single.module.degrees()
    }


def test_direct_sum_refuses_summands_over_different_operads():
    """Two free operads share the name "free" but not their generators."""
    m = operad_right_module(free_operad(Q, {2: [("m", 0)]}, 2))
    n = operad_right_module(free_operad(Q, {2: [("n", 1)]}, 2))
    with pytest.raises(ValueError, match="summands over different operads"):
        direct_sum_right_modules(m, n)


def _koszul_reordered(field, word, args):
    """(sign, letters): the arguments a_1 .. a_n moved into the order
    a_{w_1} .. a_{w_n}, with (-1)^{|a||b|} for every pair that crosses."""
    n = len(word)
    e = sum(args[word[p] - 1][0] * args[word[q] - 1][0] for p in range(n) for q in range(p + 1, n) if word[p] > word[q])
    return field.sign(e), [args[v - 1] for v in word]


def _product(alg, letters, coeff):
    """coeff times the product x_1 x_2 ... x_n of the letters (degree, label), through mu_2."""
    f = alg.field
    cur = {letters[0]: coeff}
    for d, l in letters[1:]:
        nxt = {}
        for (d0, l0), c in cur.items():
            for l2, c2 in alg.op_apply(2, (l0, l)).items():
                combo_add(f, nxt, (d0 + d, l2), f.mul(c, c2))
        cur = nxt
    return cur


def _generators(alg):
    return [(d, l) for d, l in alg.module.basis_pairs() if len(l) == 1]


@pytest.mark.parametrize("field", [F3, Q], ids=repr)
def test_as_acts_by_koszul_signed_monomials(field):
    """The word w of As(n) sends a_1 .. a_n to +-a_{w_1} ... a_{w_n}, the
    Koszul sign of the reordering, in a noncommutative algebra."""
    alg = random_tensor_algebra(field, 7, length_cap=3)
    letters = _generators(alg)
    assert sorted(d for d, _ in letters) == [1, 1, 2]
    As = associative_operad(field, 3)
    nonzero = 0
    for n in (1, 2, 3):
        for triple in As.basis_triples(n):
            for args in product(letters, repeat=n):
                sign, ordered = _koszul_reordered(field, triple[2], args)
                expect = _product(alg, ordered, sign)
                assert evaluate_operad_element(alg, As, triple, list(args)) == expect, (triple, args)
                nonzero += bool(expect)
    assert nonzero == 3 + 2 * 9 + 6 * 27


@pytest.mark.parametrize("field", [F3, Q], ids=repr)
def test_com_acts_by_the_product_in_argument_order(field):
    alg = random_commutative_algebra(field, 6, length_cap=3)
    letters = _generators(alg)
    assert sorted(d for d, _ in letters) == [1, 2, 3]
    Com = commutative_operad(field, 3)
    nonzero = 0
    for n in (1, 2, 3):
        for triple in Com.basis_triples(n):
            for args in product(letters, repeat=n):
                expect = _product(alg, list(args), field.one())
                assert evaluate_operad_element(alg, Com, triple, list(args)) == expect, (triple, args)
                nonzero += bool(expect)
    assert nonzero > 20


def _ainf_fixture(field):
    """x, y odd and even, mu_2(x, y) = mu_2(y, x) = z, mu_3(x, x, x) = w,
    mu_2(x, w) = mu_2(w, x) = v: an A-infinity algebra with d = 0."""
    one = field.one()
    mod = DgModule.from_data(field, [("x", 1), ("y", 2), ("z", 3), ("w", 4), ("v", 5)])
    ops = {
        2: {("x", "y"): {"z": one}, ("y", "x"): {"z": one}, ("x", "w"): {"v": one}, ("w", "x"): {"v": one}},
        3: {("x", "x", "x"): {"w": one}},
    }
    return DgAlgebra(field, "ainf", mod, ops, name="ainf")


@pytest.mark.parametrize("field", [F3, Q], ids=repr)
def test_k_acts_by_its_trees(field):
    alg = _ainf_fixture(field)
    assert check_algebra(alg, 5)
    K = stasheff_operad(field, 4)
    letters = [(1, "x"), (2, "y")]
    corollas = 0
    for r in (2, 3):
        for triple in K.basis_triples(r):
            tree = triple[2]
            if len(trees.vertex_word(tree)) != 1:
                continue
            corollas += 1
            for args in product(letters, repeat=r):
                sign, ordered = _koszul_reordered(field, trees.leaf_labels(tree), args)
                degree = sum(d for d, _ in args) + r - 2
                expect = {
                    (degree, l): field.mul(sign, c) for l, c in alg.op_apply(r, [l for _, l in ordered]).items()
                }
                assert evaluate_operad_element(alg, K, triple, list(args)) == expect, (triple, args)
    assert corollas == 2 + 6
    # mu_2 o_2 mu_3: mu_3 passes the odd x in front of it, mu_2 o_1 mu_3 passes nothing
    x4 = [(1, "x")] * 4
    mu3 = (("mu", 3), trees.leaf(2), trees.leaf(3), trees.leaf(4))
    right = (("mu", 2), trees.leaf(1), mu3)
    left = (("mu", 2), (("mu", 3), trees.leaf(1), trees.leaf(2), trees.leaf(3)), trees.leaf(4))
    assert evaluate_operad_element(alg, K, (4, 1, right), x4) == {(5, "v"): field.neg(field.one())}
    assert evaluate_operad_element(alg, K, (4, 1, left), x4) == {(5, "v"): field.one()}
    # the leaves name the arguments: swapping two odd x's costs a sign
    swapped = (("mu", 2), trees.leaf(1), (("mu", 3), trees.leaf(3), trees.leaf(2), trees.leaf(4)))
    assert evaluate_operad_element(alg, K, (4, 1, swapped), x4) == {(5, "v"): field.one()}


@pytest.mark.parametrize(
    "kind, make_operad, name",
    [("ainf", associative_operad, "As"), ("assoc", commutative_operad, "Com"), ("ainf", commutative_operad, "Com")],
)
def test_sym_over_operad_refuses_an_algebra_of_the_wrong_kind(kind, make_operad, name):
    op = make_operad(Q, 3)
    alg = DgAlgebra(Q, kind, trunc_poly(Q).module, dict(trunc_poly(Q).ops))
    with pytest.raises(AlgebraCheckFailed, match="algebra of kind '%s' cannot be fed to operad '%s'" % (kind, name)):
        SymOverOperad(operad_right_module(op), alg, op, [1, 2, 3])


@pytest.mark.parametrize(
    "make_operad",
    [
        lambda: free_operad(Q, {2: [("m", 0)]}, 3),
        lambda: operad_from_json(operad_to_json(commutative_operad(Q, 3))),
    ],
    ids=["free", "table"],
)
def test_sym_over_operad_refuses_an_operad_without_an_action(make_operad):
    """Only As, Com and K act on a DgAlgebra; any other operad is refused
    before a relation is built, even for a commutative algebra."""
    op = make_operad()
    with pytest.raises(AlgebraCheckFailed, match="algebra of kind 'comm' cannot be fed to operad"):
        SymOverOperad(operad_right_module(op), trunc_poly(Q), op, [1, 2, 3])


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
    t = TensorRightModule([mod, mod], 3)
    pair = RightModule(t.field, t.words.as_sigma(), t.operad, t.act_partial)
    ext_pair = extension(pair, alpha, 3)
    ext_single = extension(mod, alpha, 3)
    com_mod = operad_right_module(Com)
    t = TensorRightModule([com_mod, com_mod], 3)
    expect = RightModule(t.field, t.words.as_sigma(), t.operad, t.act_partial)
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


def _bad_alpha(As, Com):
    """As -> Com sending arity 2 to 2e: no operad morphism (2e o_1 2e = 4e, not 2e)."""

    def bad_rule(triple):
        n, d, label = triple
        if n == 1:
            return {Com.unit_label: Q.one()}
        return {"e": Q.of_int(2)} if n == 2 else {"e": Q.one()}

    from opbar.operads import OperadMorphism

    return OperadMorphism(As, Com, bad_rule)


def test_invalid_morphism_rejected():
    As = associative_operad(Q, 3)
    Com = commutative_operad(Q, 3)
    with pytest.raises(InvalidMorphism):
        extension(operad_right_module(As), _bad_alpha(As, Com), 3)
    with pytest.raises(InvalidMorphism):
        restriction(operad_right_module(Com), _bad_alpha(As, Com))
    with pytest.raises(InvalidMorphism, match="eta: K -> R is not an operad morphism"):
        BarModule(Com, _bad_alpha(As, Com), 3)


def test_a_composite_with_an_unrecorded_non_morphism_is_refused():
    K = stasheff_operad(Q, 3)
    As = associative_operad(Q, 3)
    Com = commutative_operad(Q, 3)
    eps = eps_to_assoc(K, As)
    assert operad_morphism_check(eps)
    bad_eta = compose_morphisms(_bad_alpha(As, Com), eps)
    assert bad_eta.checked_through == 0
    with pytest.raises(InvalidMorphism):
        BarModule(Com, bad_eta, 3)
    with pytest.raises(InvalidMorphism):
        extension(operad_right_module(K), bad_eta, 3)
    with pytest.raises(InvalidMorphism):
        restriction(operad_right_module(Com), bad_eta)
    assert bad_eta.checked_through == 0


def test_a_bar_module_checks_only_an_unrecorded_eta(monkeypatch):
    checked = spy_full_morphism_checks(monkeypatch)
    bar_module(stasheff_operad(Q, 4), 4)
    assert checked == []  # eta is the identity of K
    bar_module(associative_operad(Q, 4), 4)
    assert checked == ["eps"]


def test_each_canonical_morphism_is_built_and_checked_once_per_operad(monkeypatch):
    checked = spy_full_morphism_checks(monkeypatch)
    for op in (stasheff_operad(Q, 3), associative_operad(Q, 3), commutative_operad(Q, 3)):
        eta = op.from_stasheff()
        assert op.from_stasheff() is eta and eta.target is op
        bar_module(op, 3)
        bar_module(op, 2)
        assert bar_module(op, 3).eta is eta and eta.checked_through == 3
    assert checked == ["eps", "alpha.eps"]
    # another operad object builds, and checks, its own
    assert associative_operad(Q, 3).from_stasheff() is not associative_operad(Q, 3).from_stasheff()


def test_bar_extension_iso_checks_psi_before_building_b_s(monkeypatch):
    As = associative_operad(Q, 3)
    Com = commutative_operad(Q, 3)
    bm = bar_module(As, 3)
    built = _count_inits(monkeypatch, BarModule)
    with pytest.raises(InvalidMorphism):
        bar_extension_iso(bm, _bad_alpha(As, Com), 3)
    assert built == []


def module_hom_dimension(m, n, arity_bound=None):
    """dim of the space of degree-0 right-module chain maps M -> N.

    Unknowns are the matrix entries per (arity, degree); constraints:
    symmetric-group equivariance, commutation with differentials, and
    compatibility with the operad action.  Solved by exact elimination.
    """
    f = m.field
    bound = arity_bound or min(m.sigma.arity_bound(), n.sigma.arity_bound())
    unknowns = []
    index = {}
    for a in range(1, bound + 1):
        mc, nc = m.sigma.component(a), n.sigma.component(a)
        for d in mc.degrees():
            for lm in mc.labels(d):
                for ln in nc.labels(d):
                    index[(a, d, lm, ln)] = len(unknowns)
                    unknowns.append((a, d, lm, ln))
    relations = []

    def add_relation(coeffs):
        vec = {}
        for key, c in coeffs.items():
            if key not in index:
                return False  # forced term outside the unknown space: inconsistent row
            vec[index[key]] = c
        if vec:
            relations.append(vec)
        return True

    for a in range(1, bound + 1):
        mc, nc = m.sigma.component(a), n.sigma.component(a)
        for d in mc.degrees():
            for lm in mc.labels(d):
                # equivariance per generator: f(x.s_i) = f(x).s_i
                for i in range(1, a):
                    lhs = m.sigma.act_adjacent(a, i, d, lm)
                    for ln in nc.labels(d):
                        coeffs = {}
                        for lm2, c in lhs.items():
                            combo_add(f, coeffs, (a, d, lm2, ln), c)
                        for ln2 in nc.labels(d):
                            out = n.sigma.act_adjacent(a, i, d, ln2)
                            c = out.get(ln)
                            if c is not None:
                                combo_add(f, coeffs, (a, d, lm, ln2), f.neg(c))
                        add_relation(coeffs)
                # chain map: f(dx) = d(f(x))
                for ln in nc.labels(d - 1):
                    coeffs = {}
                    for lm2, c in mc.apply_diff(d, {lm: f.one()}).items():
                        combo_add(f, coeffs, (a, d - 1, lm2, ln), c)
                    for ln2 in nc.labels(d):
                        c = nc.apply_diff(d, {ln2: f.one()}).get(ln)
                        if c is not None:
                            combo_add(f, coeffs, (a, d, lm, ln2), f.neg(c))
                    add_relation(coeffs)
                # module action: f(x o_i q) = f(x) o_i q
                for s in m.operad.sigma.arities():
                    if a + s - 1 > bound:
                        continue
                    for q in m.operad.basis_triples(s):
                        for i in range(1, a + 1):
                            acted = m.act_partial((a, d, lm), i, q)
                            a2, d2 = a + s - 1, d + q[1]
                            for ln in n.sigma.component(a2).labels(d2):
                                coeffs = {}
                                for lm2, c in acted.items():
                                    combo_add(f, coeffs, (a2, d2, lm2, ln), c)
                                for ln2 in n.sigma.component(a).labels(d):
                                    c = n.act_partial((a, d, ln2), i, q).get(ln)
                                    if c is not None:
                                        combo_add(f, coeffs, (a, d, lm, ln2), f.neg(c))
                                add_relation(coeffs)
    if not unknowns:
        return 0
    kept, _ = quotient_data(f, len(unknowns), relations)
    return len(kept)


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
    rhs = module_hom_dimension(M, restriction(N, alpha), 2)
    assert lhs == rhs == 1


def test_sym_extension_restriction_identity():
    # Sym_S(M o_R S, B) = Sym_R(M, psi^* B)
    As = associative_operad(F2, 3)
    Com = commutative_operad(F2, 3)
    alpha = alpha_to_com(As, Com)
    M = operad_right_module(As)
    B = trunc_poly(F2)
    lhs = SymOverOperad(extension(M, alpha, 3).module, B, Com, [1, 2, 3])
    B_as = DgAlgebra(F2, "assoc", B.module, dict(B.ops))
    rhs = SymOverOperad(M, B_as, As, [1, 2, 3])
    assert {d: lhs.module.dim(d) for d in lhs.module.degrees()} == {
        d: rhs.module.dim(d) for d in rhs.module.degrees()
    }


def test_random_fixture_validity():
    for seed in range(4):
        assert check_algebra(random_tensor_algebra(Q, seed), 4)
        assert check_algebra(random_commutative_algebra(Q, seed), 4)
        assert check_algebra(random_commutative_algebra(F2, seed + 10), 4)


# the coequalizers, pinned byte for byte -----------------------------------------


def _module_parts(mod):
    """Kept basis and differential entries of a dg-module, in their stored order."""
    parts = []
    for d in mod.degrees():
        parts.append((d, mod.labels(d)))
        m = mod.diff.get(d)
        if m is not None:
            parts.append((d, m.rows, m.cols, list(m.entries.items())))
    return parts


def _digest(parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _extension_cases(field):
    K = stasheff_operad(field, 3)
    As = associative_operad(field, 3)
    Com = commutative_operad(field, 3)
    yield "eps", bar_module(K, 3), eps_to_assoc(K, As), None
    yield "alpha", bar_module(As, 3), alpha_to_com(As, Com), None
    yield "composite", bar_module(K, 3), compose_morphisms(alpha_to_com(As, Com), eps_to_assoc(K, As)), None
    bm = bar_module(Com, 3)
    yield "identity", bm, identity_morphism(Com), bm


# sha256 over kept bases, differentials, Sigma actions and iso blocks of
# bar_extension_iso at arity 3; the values are those of quotienting by the
# Sigma relations and then by the projected d0 - d1 relations, which the
# one-stage quotient must reproduce byte for byte
EXTENSION_DIGESTS = {
    "Q": {
        "eps": "7fb894cc95ea370ca24723f36c0a4e54ad17f2e34a3e6fd5875e41f44420afcd",
        "alpha": "35c40875bd9cd4f4b85d021bc2f6fc567e7228dc9b11c849ef21a19fcf462885",
        "composite": "bfbe43ee6bf511e6b40fae72d85edf4d78b86857b4be9ab8c29e98a6ed9ff691",
        "identity": "03c091701f8c5a445ab6242949004e8067cdf97b0c2c88f182ef9810af004ae6",
    },
    "F2": {
        "eps": "d595d3be9788c56363de219ef58e346c42ce58afc85bb50cfe705693d0d35a0f",
        "alpha": "a4d088825e971db9a9ee4fc5ff6a5b3d77961fc7f091d7441c88d83d5192f625",
        "composite": "df8f1b3b56b1f56c868d2f466242fde8f5c6131d0cf5a109b1979c80d9c5d0dc",
        "identity": "027294ac5a0a6e7a9c78a8c5ac724384f143ef08e7c855b83cf224ba7438feef",
    },
    "F3": {
        "eps": "6b1a8b9675df66c4b2afa487452a07af30dd789e14ddc3a80b01f4fbb251e8a2",
        "alpha": "04b433ff1f684ba4c4e9665fa3aa78bee502cb79ca848d26fe6636921d0044eb",
        "composite": "bb75c3d1d732046af3056db62b771484d7db1e7fe1737dfae7b6d03fd779e486",
        "identity": "6c56649f2867f9ff780956ffdabdd1f568d1420b40f677c3eb2cc4da0e19196c",
    },
}

# sha256 over the kept labels per degree and the differential of Sym_R(B_R, A)
# for the module-functor fixtures, pinned the same way
SYM_DIGESTS = {
    "Com/exterior": "b4fbcf39ad42b0e9f98a94a068f5103dbe61f6d41e2e20cd5c2c72af9222b411",
    "Com/trunc": "15b87d0c6b75a35a1bac4ade70e7dcfc9f77506bf35aabe64f99cc253249f8af",
    "As/exterior": "a1ee7fa3ae3789264750ea3e26101b55f3086e77331b0a633233fb72f7b9c953",
    "As/trunc": "463c6de761efef3d069699772ff62de2fe58186104e59a0ab1179c8177641484",
    "K/exterior": "11e3778bcfd967424add2b12bf09b977b4fb8f93b3f0509bc14a25781626d889",
    "K/trunc": "57cc9f94e229638158609b56c866a707ca6233a2b152a6b064ee7e79e241db26",
}


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_bar_extension_iso_is_pinned(field):
    got = {}
    for name, bm, psi, bm_s in _extension_cases(field):
        ext, _, blocks = bar_extension_iso(bm, psi, 3, bar_mod_s=bm_s)
        parts = [(r, _module_parts(ext.sigma.component(r))) for r in ext.sigma.arities()]
        parts += [(key, [(k, list(v.items())) for k, v in table.items()]) for key, table in ext.sigma.actions.items()]
        parts.append([(key, b.rows, b.cols, list(b.entries.items())) for key, b in sorted(blocks.items())])
        got[name] = _digest(parts)
    assert got == EXTENSION_DIGESTS[repr(field)]


def test_sym_over_operad_is_pinned():
    got = {}
    for rname, operad, algebras in (
        ("Com", commutative_operad(F2, 3), _fixture_algebras(F2, "comm")),
        ("As", associative_operad(F2, 3), _fixture_algebras(F2, "assoc")),
        ("K", stasheff_operad(Q, 3), _fixture_algebras(Q, "ainf")),
    ):
        bm = bar_module(operad, 3)
        for alg in algebras:
            sym, _, _ = sym_bar_comparison(bm, alg, [1, 2, 3])
            got["%s/%s" % (rname, alg.name)] = _digest(_module_parts(sym.module))
    assert got == SYM_DIGESTS


def _count_builds(monkeypatch, module, name):
    """Count the constructions of module.name made through that module's global."""
    calls = []
    original = getattr(module, name)

    class Counted(original):
        def __init__(self, *args, **kwargs):
            calls.append(name)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(module, name, Counted)
    return calls


def _count_inits(monkeypatch, cls):
    """Count the constructions of cls and of its subclasses."""
    calls = []
    original = cls.__init__

    def counted(self, *args, **kwargs):
        calls.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


def _bar_module_parts(bm):
    """Basis, differential entries and Sigma-action tables of B_R, and its right
    action on every (m, slot, q) within the arity bound, in their stored order."""
    operad, sigma = bm.operad, bm.right_module.sigma
    parts = [(r, _module_parts(sigma.component(r))) for r in sigma.arities()]
    parts += [(key, [(k, list(v.items())) for k, v in table.items()]) for key, table in sigma.actions.items()]
    for r in sigma.arities():
        for m in sigma.basis_triples(r):
            for s in operad.sigma.arities():
                if r + s - 1 > bm.arity_bound:
                    continue
                for q in operad.basis_triples(s):
                    for slot in range(1, r + 1):
                        parts.append((m, slot, q, list(bm.right_module.act_partial(m, slot, q).items())))
    return parts


# sha256 over `_bar_module_parts` of bar_module(R, n), taken from the build
# that suspended the operad twice and kept two word spaces per weight
BAR_MODULE_DIGESTS = {
    "K/Q": "d769a91c6a0d4c5707d22ffbdd57bf518eede5d134af1c0577db70febcae4d3a",
    "As/F2": "ffb96a4fa8e6adc7d7000a02605181fbeff3e53158f459267fd23c66ad78b223",
    "Com/F2": "2fb80fd33ef4a71dc350162af39f645bfe4ba697b72a7aaeefd4f3b3c0de6e62",
    "As/F3": "7223f060fc10d02569f970d9a11854134fcaef6a4ac44ae7b00c231e45c1e72e",
    "Com/F3": "d3ec3ea8159b10f4fe962a2cf154adc47491217322fd878ea3aed59ec196a3cc",
    "As/Q": "76863379950da731557b4804e05ba90090ae942ddf9023e15eeb754735e95e68",
    "Com/Q": "fa2722a224015acf9db72f95ab5aa9f685dd5c7b71633e55efaa1185c7257f39",
}


def test_bar_module_is_pinned():
    got = {"K/Q": _digest(_bar_module_parts(bar_module(stasheff_operad(Q, 4), 4)))}
    for field in (F2, F3, Q):
        got["As/%r" % field] = _digest(_bar_module_parts(bar_module(associative_operad(field, 3), 3)))
        got["Com/%r" % field] = _digest(_bar_module_parts(bar_module(commutative_operad(field, 3), 3)))
    assert got == BAR_MODULE_DIGESTS


def _count_suspensions(monkeypatch):
    calls = []
    suspend = opbar.sigma.SigmaModule.suspend

    def counted(self):
        calls.append("suspend")
        return suspend(self)

    monkeypatch.setattr(opbar.sigma.SigmaModule, "suspend", counted)
    return calls


def test_bar_module_suspends_once_and_builds_one_word_space_per_weight(monkeypatch):
    K = stasheff_operad(Q, 4)
    words = _count_inits(monkeypatch, opbar.sigma.WordSpace)
    suspensions = _count_suspensions(monkeypatch)
    bar_module(K, 4)
    assert len(words) == 4
    assert len(suspensions) == 1


def test_bar_module_refuses_an_operad_without_a_morphism_from_k(monkeypatch):
    makers = (stasheff_operad, associative_operad, commutative_operad)
    imported = [operad_from_json(operad_to_json(make(Q, 3))) for make in makers]
    assert [op.name for op in imported] == ["K", "As", "Com"]
    words = _count_inits(monkeypatch, opbar.sigma.WordSpace)
    suspensions = _count_suspensions(monkeypatch)
    for op in imported + [free_operad(Q, {2: [("m", 0)]}, 3)]:
        named = "operad %r (%s) has no canonical morphism from K" % (op.name, type(op).__name__)
        with pytest.raises(ValueError, match=re.escape(named)):
            bar_module(op, 3)
    # refused before any word space or suspension is built
    assert words == [] and suspensions == []


def test_each_coequalizer_builds_one_quotient_per_key(monkeypatch):
    quotients = _count_builds(monkeypatch, opbar.sigma, "Quotient")
    coequalizers = _count_inits(monkeypatch, opbar.sigma.Coequalizer)
    K = stasheff_operad(Q, 3)
    As = associative_operad(Q, 3)
    M = bar_module(K, 3).right_module
    compose(M.sigma, As.sigma, 3)
    per_key = len(quotients)
    del quotients[:], coequalizers[:]
    extension(M, eps_to_assoc(K, As), 3)
    # M o_R S: one coequalizer, one quotient per (arity, degree) of the pure labels of M o S, as for M o S itself
    assert coequalizers == ["Coequalizer"]
    assert len(quotients) == per_key
    Com = commutative_operad(F2, 3)
    a = trunc_poly(F2)
    del quotients[:]
    SymPresentation(Com.sigma, a.module, [1, 2, 3])
    per_key = len(quotients)
    del quotients[:], coequalizers[:]
    SymOverOperad(operad_right_module(Com), a, Com, [1, 2, 3])
    # Sym_R(M, A): one coequalizer, one quotient per degree of the pure labels of Sym(M, A)
    assert coequalizers == ["SymPresentation"]
    assert len(quotients) == per_key


def _guard_d0_d1(monkeypatch):
    """Per d0 - d1 enumeration, record the collapses it asks for, the
    right-module gamma calls and the evaluations it makes; returns the list
    of records."""
    mod = opbar.modules
    records = []
    relations, collapse, gamma, evaluate = (
        mod._d0_d1_relations, mod.RightModule.collapse, mod.RightModule.gamma, mod.routed_compose)

    def counted_relations(*args):
        records.append({"d0": [], "gamma": 0, "eval": []})
        return relations(*args)

    def counted_collapse(self, m_triple, word):
        records[-1]["d0"].append((self, m_triple, word))
        return collapse(self, m_triple, word)

    def counted_gamma(self, m_triple, args):
        records[-1]["gamma"] += 1
        return gamma(self, m_triple, args)

    def counted_evaluate(field, word, args, *rest, outer=None):
        records[-1]["eval"].append((word, args, outer and outer[0]))
        return evaluate(field, word, args, *rest, outer=outer)

    monkeypatch.setattr(mod, "_d0_d1_relations", counted_relations)
    monkeypatch.setattr(mod.RightModule, "collapse", counted_collapse)
    monkeypatch.setattr(mod.RightModule, "gamma", counted_gamma)
    monkeypatch.setattr(mod, "routed_compose", counted_evaluate)
    return records


@pytest.mark.parametrize("suite", ["module-functor", "extension"])
def test_d0_once_per_m_and_r_word_and_d1_once_per_r_word_and_tail(monkeypatch, suite):
    from opbar.verify import run_suite

    records = _guard_d0_d1(monkeypatch)
    assert all(ok for _, ok, _ in run_suite(suite))
    assert len(records) == {"module-functor": 6, "extension": 4}[suite]
    for rec in records:
        # each enumeration asks once per (module, m, R-word) for its collapse
        assert rec["d0"] and len(set(rec["d0"])) == len(rec["d0"])
        # the evaluation runs once per distinct (R-word, tail)
        assert rec["eval"] and len(set(rec["eval"])) == len(rec["eval"])
    # the gamma behind a collapse runs once per distinct (module, m, R-word)
    # over the whole suite: coequalizers on one module share its collapses
    asked = [key for rec in records for key in rec["d0"]]
    assert sum(rec["gamma"] for rec in records) == len(set(asked))
    assert (len(asked), len(set(asked))) == {"module-functor": (98, 49), "extension": (77, 77)}[suite]
    # every R-word asked for is a generator: the identity routing on (q, u, ..., u)
    for module, _, (w, inner) in asked:
        q, units = inner[0], inner[1:]
        unit = module.operad.unit_triple()
        assert w == tuple(range(1, len(w) + 1)) and q != unit and set(units) <= {unit}


def _every_d0_d1_relation(coeq, right_module, r_operad, r_bound, evaluate):
    """Reference for `_d0_d1_relations`: d0 - d1 on every pure three-level
    word (m; R-word; tail), the R-words being every basis word of n factors
    of R under every routing, keyed as in `coeq`."""
    f = coeq.field
    relations = {}
    for n in coeq.factor_counts:
        m_triples = list(right_module.sigma.basis_triples(n))
        r_words = opbar.sigma.WordSpace(f, [r_operad.sigma] * n, r_bound)
        for b in range(n, r_bound + 1):
            tails = coeq.tail(b)
            for dr, lr in r_words.component(b).basis_pairs():
                collapsed = [(m, right_module.collapse(m, lr)) for m in m_triples]
                for r in coeq.tail_arities:
                    for dt, t in tails.component(r).basis_pairs():
                        evaluated = evaluate(lr, t)
                        for m, d0 in collapsed:
                            rel = {(m2, t): c for m2, c in d0.items()}
                            for t2, c in evaluated.items():
                                combo_add(f, rel, (m, t2), f.neg(c))
                            if rel:
                                relations.setdefault((r, m[1] + dr + dt), []).append(rel)
    return relations


def _quotient_images(quotients):
    """Per key, the kept labels and the projection of every pure label."""
    out = {}
    for key, quot in quotients.items():
        out[key] = (quot.kept, [quot.project({lab: quot.field.one()}) for lab in quot.labels])
    return out


def _assert_same_quotients_as_every_r_word(monkeypatch, build):
    """`build()` returns the `Coequalizer` of a Sym_R or an M o_R S; its
    quotients must equal those of the same coequalizer built from d0 - d1
    on every R-word."""
    got = _quotient_images(build().quotients)
    with monkeypatch.context() as patch:
        patch.setattr(opbar.modules, "_d0_d1_relations", _every_d0_d1_relation)
        want = _quotient_images(build().quotients)
    assert got == want


def _sym_cases(field, arity):
    """(name, R, algebras) of the module-functor suite, over `field`."""
    return (
        ("Com", commutative_operad(field, arity), _fixture_algebras(field, "comm")),
        ("As", associative_operad(field, arity), _fixture_algebras(field, "assoc")),
        ("K", stasheff_operad(field, arity), _fixture_algebras(field, "ainf")),
    )


@pytest.mark.parametrize("field", [Q, F2, F3], ids=repr)
def test_generating_r_words_give_the_quotients_of_every_r_word(monkeypatch, field):
    for _, bm, psi, _ in _extension_cases(field):
        _assert_same_quotients_as_every_r_word(
            monkeypatch, lambda: extension(bm.right_module, psi, 3).coequalizer)
    for _, operad, algebras in _sym_cases(field, 3):
        bm = bar_module(operad, 3)
        if operad.name != "Com":
            # a tensor algebra with d != 0
            algebras = algebras + [random_tensor_algebra(field, 1, length_cap=1)]
        for alg in algebras:
            _assert_same_quotients_as_every_r_word(
                monkeypatch, lambda: SymOverOperad(bm.right_module, alg, operad, [1, 2, 3]).sym)


def test_generating_r_words_give_the_quotients_of_every_r_word_at_arity_4(monkeypatch):
    """Arity 4 reaches R-words with two non-unit factors (step 3 of `_d0_d1_relations`)."""
    for rname, operad, algebras in _sym_cases(F2, 4):
        bm = bar_module(operad, 4)
        for alg in algebras:
            if rname != "Com" and alg.name == "trunc":
                continue
            _assert_same_quotients_as_every_r_word(
                monkeypatch, lambda: SymOverOperad(bm.right_module, alg, operad, [1, 2, 3, 4]).sym)


@pytest.mark.parametrize("field", [F2, Q], ids=repr)
@pytest.mark.parametrize("make_operad", [associative_operad, stasheff_operad], ids=["As", "K"])
def test_sym_bar_comparison_with_a_nonzero_algebra_differential(field, make_operad):
    """Sym_R(B_R, A) = B(A) on a tensor algebra with d != 0 (the module-functor
    suite's algebras all have d = 0)."""
    alg = random_tensor_algebra(field, 1, length_cap=1)
    assert alg.module.diff
    sym, _, _ = sym_bar_comparison(bar_module(make_operad(field, 3), 3), alg, [1, 2, 3])
    assert sym.module.total_dim() == 14
    assert sym.module.diff


def test_coequalizers_and_bar_modules_are_freed_without_the_cycle_collector():
    K = stasheff_operad(Q, 3)
    As = associative_operad(Q, 3)
    M = bar_module(K, 3).right_module
    alg = _fixture_algebras(Q, "ainf")[0]
    gc.collect()
    gc.disable()
    try:
        for make in (
            lambda: bar_module(K, 3),
            lambda: compose(M.sigma, As.sigma, 3),
            lambda: extension(M, eps_to_assoc(K, As), 3),
            lambda: SymOverOperad(M, alg, K, [1, 2, 3]),
        ):
            obj = make()
            ref = weakref.ref(obj)
            del obj
            assert ref() is None, "a reference cycle keeps the object alive"
    finally:
        gc.enable()
