import hashlib
import random
import re
import time

import pytest

from opbar import catbar
from opbar.catbar import (
    CategoricalBar,
    NormalizedComplex,
    SimplicialDgModule,
    _coproduct_module,
    _coproduct_product,
    bar_cat_comparison,
    cat_bar_module_vs_bar_module,
    categorical_bar_module,
    eilenberg_maclane,
    simplicial_categorical_bar,
    tensor_simplicial,
)
from opbar.dg import DegreeWindow, DgMap, DgModule, homology
from opbar.errors import NotCommutative, SimplicialIdentityViolation
from opbar.fixtures import random_commutative_algebra
from opbar.linalg import CoeffField, SparseMatrix, combo_add, rank
from opbar.modules import DgAlgebra
from opbar.bar import bar_module, sound_weight_bound
from opbar.operads import commutative_operad
from opbar.verify import _constant_simplicial

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)
F3 = CoeffField.prime(3)


def exterior(field, deg=1):
    return DgAlgebra(field, "comm", DgModule.from_data(field, [("x", deg)]), {2: {}}, name="ext")


def trunc(field):
    deg = 1 if field.p == 2 else 2
    return DgAlgebra(
        field,
        "comm",
        DgModule.from_data(field, [("x", deg), ("x2", 2 * deg)]),
        {2: {("x", "x"): {"x2": field.one()}}},
        name="trunc",
    )


def coproduct_algebra(algebras):
    """The coproduct A_1 v ... v A_n of non-unital commutative algebras,
    with its whole product table: the oracle of the EM product table and
    of `koszul_diff` on the coproduct words.

    Carrier basis: (S, word) for nonempty S = (i_1 < ... < i_k) and word a
    tuple of (degree, label) letters, letter j from A_{i_j}.  Returns
    (DgAlgebra, injections) where injections[i] maps A_i basis labels into
    the coproduct.
    """
    module, labels = _coproduct_module(algebras)
    field = module.field
    table = {}
    for left in labels:
        for right in labels:
            out = _coproduct_product(field, algebras, left, right)
            if out:
                table[(left, right)] = out
    alg = DgAlgebra(field, "comm", module, {2: table}, name="v".join(a.name for a in algebras))
    injections = [lambda lab, d, i=i: ((i,), (((d, lab)),)) for i in range(1, len(algebras) + 1)]
    return alg, injections


def two_dim_fixture(field):
    return DgAlgebra(
        field, "comm", DgModule.from_data(field, [("x", 1), ("y", 2)]), {2: {}}, name="xy"
    )


def test_coproduct_dims_and_zero():
    a = trunc(Q)
    co, _ = coproduct_algebra([a, a])
    # dim(A v B) = dimA + dimB + dimA*dimB per compatible degrees
    assert co.module.total_dim() == 2 + 2 + 4
    single, _ = coproduct_algebra([a])
    assert {d: single.module.dim(d) for d in single.module.degrees()} == {
        d: a.module.dim(d) for d in a.module.degrees()
    }


def test_simplicial_identities_on_categorical_bar():
    alg = two_dim_fixture(Q)
    simplicial_categorical_bar(alg, 3)  # raises SimplicialIdentityViolation on any failed identity


def test_inner_face_is_product():
    a = trunc(F2)
    sx = simplicial_categorical_bar(a, 2)
    d1 = sx.face(2, 1)
    # on the A(x)A summand of level 2, d_1 folds via the product
    out = d1.apply(2, {((1, 2), ((1, "x"), (1, "x"))): F2.one()})
    assert out == {((1,), ((2, "x2"),)): F2.one()}
    # on a singleton summand it is the identity of A, from either copy
    for S in ((1,), (2,)):
        assert d1.apply(1, {(S, ((1, "x"),)): F2.one()}) == {((1,), ((1, "x"),)): F2.one()}


def test_degeneracies_split_and_normalization_counts():
    a = exterior(F2)
    sx = simplicial_categorical_bar(a, 3)
    nc = NormalizedComplex(sx)
    # normalized part at level n = full tensor summand: dim 1 per level here
    dims = {d: nc.module.dim(d) for d in nc.module.degrees()}
    assert dims == {2: 1, 4: 1, 6: 1}


def test_normalize_constant_simplicial_object():
    mod = DgModule.from_data(Q, [("a", 0), ("b", 1)])
    levels = {n: mod for n in range(4)}
    ident = DgMap.identity(mod)
    faces = {(n, i): ident for n in range(1, 4) for i in range(n + 1)}
    degeneracies = {(n, j): ident for n in range(3) for j in range(n + 1)}
    sx = SimplicialDgModule(Q, levels, faces, degeneracies, 3)
    n = NormalizedComplex(sx).module
    assert {d: n.dim(d) for d in n.degrees()} == {0: 1, 1: 1}


def test_simplicial_identity_violation_detected():
    mod = DgModule.from_data(Q, [("a", 0)])
    zero_map = DgMap(mod, mod, 0, {})
    ident = DgMap.identity(mod)
    levels = {n: mod for n in range(3)}
    faces = {(n, i): (zero_map if (n, i) == (2, 0) else ident) for n in range(1, 3) for i in range(n + 1)}
    degeneracies = {(n, j): ident for n in range(2) for j in range(n + 1)}
    with pytest.raises(SimplicialIdentityViolation):
        SimplicialDgModule(Q, levels, faces, degeneracies, 2)


@pytest.mark.parametrize(
    "broken, message",
    [
        (None, None),
        (("faces", (2, 0)), "d_0 d_1 at level 2"),
        (("faces", (3, 1)), "d_0 d_1 at level 3"),
        (("degeneracies", (1, 1)), "d_0 s_1 at level 1"),
        (("degeneracies", (0, 0)), "d_0 s_0 at level 0"),
    ],
    ids=["valid", "d0-out-of-2", "d1-out-of-3", "s1-out-of-1", "s0-out-of-0"],
)
def test_simplicial_identities_on_images_of_several_terms(broken, message):
    """Every face and degeneracy is the involution a -> a, b -> a - b, whose
    images have two terms; one map replaced by b -> a + b breaks an identity."""
    mod = DgModule.from_data(Q, [("a", 0), ("b", 0)])

    def involution(sign):
        return DgMap.from_rule(mod, mod, 0, lambda d, l: {"a": Q.one()} if l == "a" else {"a": Q.one(), "b": sign})

    p = involution(Q.of_int(-1))
    levels = {n: mod for n in range(4)}
    maps = {
        "faces": {(n, i): p for n in range(1, 4) for i in range(n + 1)},
        "degeneracies": {(n, j): p for n in range(3) for j in range(n + 1)},
    }
    if broken is None:
        SimplicialDgModule(Q, levels, maps["faces"], maps["degeneracies"], 3)
        return
    maps[broken[0]][broken[1]] = involution(Q.one())
    with pytest.raises(SimplicialIdentityViolation, match=re.escape(message)):
        SimplicialDgModule(Q, levels, maps["faces"], maps["degeneracies"], 3)


def _then(*maps):
    """The composite of index maps, the last applied first; None propagates."""

    def composite(x):
        for m in reversed(maps):
            if x is None:
                return None
            x = m(x)
        return x

    return composite


def test_index_rule_satisfies_the_simplicial_identities():
    d, s = catbar._face_index, catbar._degeneracy_index
    checked = 0
    for n in range(7):

        def agree(f, g):
            return [f(x) for x in range(1, n + 1)] == [g(x) for x in range(1, n + 1)]

        for j in range(n + 1):  # d_i d_j = d_{j-1} d_i out of level n, i < j
            for i in range(j):
                assert agree(_then(d(n - 1, i), d(n, j)), _then(d(n - 1, j - 1), d(n, i))), (n, i, j)
                checked += 1
        for j in range(n + 1):  # d_i s_j out of level n
            for i in range(n + 2):
                if i < j:
                    rhs = _then(s(j - 1), d(n, i))
                elif i in (j, j + 1):
                    rhs = _then()
                else:
                    rhs = _then(s(j), d(n, i - 1))
                assert agree(_then(d(n + 1, i), s(j)), rhs), (n, i, j)
                checked += 1
        for j in range(n + 1):  # s_i s_j = s_{j+1} s_i out of level n, i <= j
            for i in range(j + 1):
                assert agree(_then(s(i), s(j)), _then(s(j + 1), s(i))), (n, i, j)
                checked += 1
    assert checked == 308
    # the outer faces drop an index, an inner face sends i and i+1 to i
    assert [d(3, 0)(x) for x in (1, 2, 3)] == [None, 1, 2]
    assert [d(3, 3)(x) for x in (1, 2, 3)] == [1, 2, None]
    assert [d(3, 1)(x) for x in (1, 2, 3)] == [1, 1, 2]


def test_a_face_rule_that_breaks_an_identity_is_refused(monkeypatch):
    face_index = catbar._face_index

    def broken(n, i):  # d_0 out of level 2 acts as d_1
        return face_index(n, 1 if (n, i) == (2, 0) else i)

    monkeypatch.setattr(catbar, "_face_index", broken)
    with pytest.raises(SimplicialIdentityViolation, match="d_0 d_1 at level 3"):
        simplicial_categorical_bar(two_dim_fixture(Q), 3)
    with pytest.raises(SimplicialIdentityViolation, match="d_0 d_1 at level 3"):
        categorical_bar_module(commutative_operad(Q, 2), 2, 3)


def test_a_levelwise_tensor_with_a_broken_face_is_refused():
    sx = simplicial_categorical_bar(two_dim_fixture(Q), 2)
    d0 = sx.faces[(2, 0)]
    # d_0 out of level 2 doubled after the check: the tensor has d_0 s_0 = 4 on level 1
    sx.faces[(2, 0)] = DgMap(d0.source, d0.target, 0, {d: m.scale(Q.of_int(2)) for d, m in d0.blocks.items()})
    with pytest.raises(SimplicialIdentityViolation, match="d_0 s_0 at level 1"):
        tensor_simplicial(sx, sx)


def test_simplicial_circle_homology():
    # k[S^1]: level n has dims n+1; H = (1, 1)
    field = Q

    def circle_level(n):
        return DgModule(field, {0: tuple(["pt"] + ["e%d" % j for j in range(n)])}, {})

    levels = {n: circle_level(n) for n in range(4)}

    def face_rule(n, i):
        def rule(q, label):
            if label == "pt":
                return {"pt": field.one()}
            j = int(label[1:])
            vals = [0 if k <= j else 1 for k in range(n + 1)]
            newvals = [vals[k] if k < i else vals[k + 1] for k in range(n)]
            if all(v == 0 for v in newvals) or all(v == 1 for v in newvals):
                return {"pt": field.one()}
            return {"e%d" % (sum(1 for v in newvals if v == 0) - 1): field.one()}

        return rule

    def degeneracy_rule(n, j):
        def rule(q, label):
            if label == "pt":
                return {"pt": field.one()}
            jj = int(label[1:])
            vals = [0 if k <= jj else 1 for k in range(n + 1)]
            newvals = [vals[k] if k <= j else vals[k - 1] for k in range(n + 2)]
            return {"e%d" % (sum(1 for v in newvals if v == 0) - 1): field.one()}

        return rule

    faces = {
        (n, i): DgMap.from_rule(levels[n], levels[n - 1], 0, face_rule(n, i))
        for n in range(1, 4)
        for i in range(n + 1)
    }
    degeneracies = {
        (n, j): DgMap.from_rule(levels[n], levels[n + 1], 0, degeneracy_rule(n, j))
        for n in range(3)
        for j in range(n + 1)
    }
    sx = SimplicialDgModule(field, levels, faces, degeneracies, 3)
    n = NormalizedComplex(sx).module
    h = homology(n, DegreeWindow(0, 2))
    assert h == {0: 1, 1: 1, 2: 0}


def test_em_chain_map_and_bilow_terms():
    alg = two_dim_fixture(Q)
    sx = simplicial_categorical_bar(alg, 3)
    em, nc, nd, cd = eilenberg_maclane(sx, sx, bound=3)
    assert em.is_chain_map()
    # bidegree (1,1): two shuffle terms with opposite signs
    u = (1, ((1,), ((1, "x"),)))
    out = em.apply(4, {(u, u): Q.one()})
    assert len(out) == 2
    assert sorted(v for v in out.values()) == [Q.of_int(-1), Q.one()]


def test_em_requires_no_commutativity_but_cat_does():
    assoc = DgAlgebra(Q, "assoc", DgModule.from_data(Q, [("x", 1)]), {2: {}})
    with pytest.raises(NotCommutative):
        simplicial_categorical_bar(assoc, 2)


def test_b_equals_c_fixtures():
    bar_cat_comparison(exterior(F2), DegreeWindow(0, 10))
    bar_cat_comparison(trunc(F2), DegreeWindow(0, 8))
    bar_cat_comparison(trunc(Q), DegreeWindow(0, 10))
    # odd internal degrees off F2, where the p q_y twist of the EM product
    # shows; random seed 0 also has d != 0
    for field in (F3, Q):
        bar_cat_comparison(two_dim_fixture(field), DegreeWindow(0, 6))
        bar_cat_comparison(random_commutative_algebra(field, 0), DegreeWindow(0, 5))


def test_trivial_product_c_is_tensor_coalgebra():
    b, cat, iso = bar_cat_comparison(exterior(Q, 2), DegreeWindow(0, 9))
    dims_c = {d: cat.module.dim(d) for d in cat.module.degrees()}
    assert dims_c == {d: b.module.dim(d) for d in b.module.degrees()}
    assert cat.module.diff == {}


def degeneracies_split_injective(cm):
    """Every s_j of a categorical bar module is injective levelwise (free on a summand inclusion)."""
    return all(
        rank(sx.degeneracy(n, j).block(d)) == sx.level(n).dim(d)
        for sx in (normalized.simplicial for normalized in cm.normalized.values())
        for n in range(1, cm.dimension_bound)
        for j in range(n + 1)
        for d in sx.level(n).degrees()
    )


def test_categorical_bar_module_dims_and_identity():
    for field in (F2, Q):
        Com = commutative_operad(field, 3)
        cm = categorical_bar_module(Com, 3, 3)
        for n in range(1, 4):
            dims = cm.levels[n].sigma.dims()
            for r in range(1, 4):
                assert dims.get(r, {}).get(0, 0) == n ** r
        assert degeneracies_split_injective(cm)
        assert cat_bar_module_vs_bar_module(cm, bar_module(Com, 3))


# --- one-pass map images ---------------------------------------------------------
#
# The categorical bars that the commutative-identity and em suites build
# (exterior and truncated algebras at their sound weight bounds, the
# two-generator probe at 3, the constant case at 2), each also over the
# fields the suites leave out, so F2, F3 and Q are all covered.

_CAT_FIXTURES = {
    "exterior.F2": (lambda: exterior(F2), 5),
    "exterior.F3": (lambda: exterior(F3), 5),
    "trunc.F2": (lambda: trunc(F2), 4),
    "trunc.F3": (lambda: trunc(F3), 3),
    "trunc.Q": (lambda: trunc(Q), 3),
    "probe.F2": (lambda: two_dim_fixture(F2), 3),
    "probe.F3": (lambda: two_dim_fixture(F3), 3),
    "probe.Q": (lambda: two_dim_fixture(Q), 3),
}

_FIELDS = {"F2": F2, "F3": F3, "Q": Q}


@pytest.fixture(scope="module")
def suite_objects():
    """The fixtures built once: name -> (CategoricalBar, its levelwise
    tensor square), the constant case per field as (em, normalized target),
    and the Com categorical bar module per field."""
    cats = {}
    for name, (make, bound) in _CAT_FIXTURES.items():
        cat = CategoricalBar(make(), bound)
        cats[name] = cat, tensor_simplicial(cat.simplicial, cat.simplicial, bound)
    constant, com_modules = {}, {}
    for field_name, field in _FIELDS.items():
        sx = simplicial_categorical_bar(exterior(field), 2)
        const = _constant_simplicial(field, DgModule.ground(field, "k"), 2)
        em, _, _, cd = eilenberg_maclane(const, sx, bound=2)
        constant[field_name] = em, cd
        com_modules[field_name] = categorical_bar_module(commutative_operad(field, 3), 3, 3)
    return cats, constant, com_modules


def _simplicial_objects(suite_objects):
    """(name, simplicial object) for every one the fixtures build."""
    cats, constant, com_modules = suite_objects
    for name, (cat, tsx) in cats.items():
        yield name, cat.simplicial
        yield name + ".tensor", tsx
    for field_name in _FIELDS:
        yield "constant." + field_name, constant[field_name][1].simplicial
        for r, normalized in com_modules[field_name].normalized.items():
            yield "com_module.%s.arity%d" % (field_name, r), normalized.simplicial


def _maps(sx):
    return list(sx.faces.values()) + list(sx.degeneracies.values())


def _assert_images_equal_apply(m, d, context):
    field = m.source.field
    want = {}
    for j, label in enumerate(m.source.labels(d)):
        image = m.apply(d, {label: field.one()})
        if image:
            want[j] = image
    got = m.images(d)
    assert got == want, context
    for j, image in got.items():
        assert list(image) == list(want[j]), context  # same key order
        for label, c in image.items():
            assert type(c) is type(want[j][label]) and not field.is_zero(c), context


def test_images_equal_per_label_apply(suite_objects):
    checked = 0
    for name, sx in _simplicial_objects(suite_objects):
        for m in _maps(sx):
            for d in m.source.degrees():
                _assert_images_equal_apply(m, d, name)
                checked += 1
    assert checked > 300


def test_images_keep_apply_key_order_on_dense_blocks():
    # the suites' maps send a basis vector to at most one term, so key order
    # is tested here on blocks with several terms per column, whose entries
    # were cancelled and written again out of column order
    for field in (F2, F3, Q):
        rng = random.Random(str(field))
        for _ in range(20):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            block = SparseMatrix(field, rows, cols)
            for _ in range(rng.randint(0, 3 * rows * cols)):
                block.add_to(rng.randrange(rows), rng.randrange(cols), field.of_int(rng.randint(-3, 3)))
            source = DgModule(field, {0: tuple("s%d" % j for j in range(cols))}, {})
            target = DgModule(field, {0: tuple("t%d" % i for i in range(rows))}, {})
            _assert_images_equal_apply(DgMap(source, target, 0, {0: block}), 0, field)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _differential_rows(module):
    return [(d, module.labels(d), module.diff_block(d).to_rows()) for d in module.degrees()]


# sha256 of repr() of the normalized differentials (labels and to_rows() per
# degree, in stored order) and of the EM product tables, as the per-vector
# `apply` code computed them
_PINS = {
    'exterior.F2.normalized': '5d06fc540c4a9e5be921fe5f303d22cf1706d77c9b89a00acca704d42bfe6c2a',
    'exterior.F2.em_table': '44d7cbab5df39ac0d957296ab0d1a353d927dfde41ba8d57a6db891e801330b5',
    'exterior.F3.normalized': '5d06fc540c4a9e5be921fe5f303d22cf1706d77c9b89a00acca704d42bfe6c2a',
    'exterior.F3.em_table': '5cb9491871cbb0911cbe59c2a451524e145bf03a2901237df98447546246b218',
    'trunc.F2.normalized': '01248ea7d3c24cdb9513bccbb55b7c5ccc594ab2e44c35c75cbe6f5813f29161',
    'trunc.F2.em_table': 'f5c96ac984a0e624931fb8b0843e04d3a997d7e38588506871eaa3ca27207ddb',
    'trunc.F3.normalized': '2aeac2f0ae8001171799fff06d81a05a9e20cdf768598ab317a6c6a0719396c4',
    'trunc.F3.em_table': 'b0d6f51ec9f1d845bffd1c03af864b18ac3d4f760d77a0a5059962bbc93f9f19',
    'trunc.Q.normalized': 'abef822577bdcf56a21d8a10ff95552a5e4cb8bca857ae43b45302ec6d310535',
    'trunc.Q.em_table': '6153355ea0db5077dc1029a0d1d1bed40bdd6b07a87293dac87b9b5ae4a8bbb4',
    'probe.F2.normalized': '7b6d52e49279c80fc1585b2399824c035635acd87862d833c2213c85227594ab',
    'probe.F2.em_table': '8a68aec9fa17638ae5b7ad2a22e65f901f92a229aa034ddb95aefe85488443a3',
    'probe.F3.normalized': '7b6d52e49279c80fc1585b2399824c035635acd87862d833c2213c85227594ab',
    'probe.F3.em_table': '25462f4632632718a966ae7655fa1202f980e90d4d749da565fb37af38b35cc4',
    'probe.Q.normalized': '7b6d52e49279c80fc1585b2399824c035635acd87862d833c2213c85227594ab',
    'probe.Q.em_table': 'c2b2f5842936334bf18f16cad0304f883ab073bab7107174e1b032b5850b6f28',
    'constant.F2.normalized': '008dd6e41170e9f83a922ba1bbeac9d06cd9ce460d44cede87914870d7bed289',
    'constant.F2.em': '1521afc019c0897656d820da59dd81d719898534a1e449c205fc94fe5c615ba8',
    'com_module.F2.normalized': '5419929e8c58001376728e9bccb78add53c2cdd3b2004956e525336987e436ce',
    'constant.F3.normalized': '008dd6e41170e9f83a922ba1bbeac9d06cd9ce460d44cede87914870d7bed289',
    'constant.F3.em': '1521afc019c0897656d820da59dd81d719898534a1e449c205fc94fe5c615ba8',
    'com_module.F3.normalized': '6f60cacd58723ff2ca8bea58049af7532983f05fdf3687bdda453f0f8ecec3be',
    'constant.Q.normalized': '008dd6e41170e9f83a922ba1bbeac9d06cd9ce460d44cede87914870d7bed289',
    'constant.Q.em': 'af1e9318c7b7a783136cf6710e6bfa1ee00947995f82ac7009b01b2b207f9591',
    'com_module.Q.normalized': '262d8945d04256cb461c627e0af2577ad68515a173f09de6e864727cf7f84194',
}


def _pinned(suite_objects):
    cats, constant, com_modules = suite_objects
    for name, (cat, _) in cats.items():
        yield name + ".normalized", _differential_rows(cat.module)
        yield name + ".em_table", cat.em_product_table()
    for field_name in _FIELDS:
        em, cd = constant[field_name]
        yield "constant.%s.normalized" % field_name, _differential_rows(cd.module)
        yield "constant.%s.em" % field_name, [(d, em.block(d).to_rows()) for d in sorted(em.blocks)]
        cm = com_modules[field_name]
        yield "com_module.%s.normalized" % field_name, [_differential_rows(cm.normalized[r].module) for r in (1, 2, 3)]


def test_normalized_differentials_and_em_tables_match_pins(suite_objects):
    got = {name: _digest(value) for name, value in _pinned(suite_objects)}
    assert got == _PINS


def test_face_and_tensor_factor_maps_are_read_in_one_pass(monkeypatch):
    sx = simplicial_categorical_bar(trunc(F2), 3)
    applied = []
    per_vector = SparseMatrix.apply

    def counting(self, vec):
        applied.append(self)
        return per_vector(self, vec)

    monkeypatch.setattr(SparseMatrix, "apply", counting)
    NormalizedComplex(sx)
    tsx = tensor_simplicial(sx, sx, 3)
    NormalizedComplex(tsx)
    watched = {id(m) for mp in _maps(sx) + _maps(tsx) for m in mp.blocks.values()}
    assert watched and applied  # the level differentials still go through apply
    assert not [m for m in applied if id(m) in watched]
    # the guard sees a map applied to one basis vector
    sx.face(2, 1).apply(2, {((1, 2), ((1, "x"), (1, "x"))): F2.one()})
    assert id(applied[-1]) in watched


# --- the EM product table without N(C (x) C) -------------------------------------


def _reference_em_table(cat):
    """The EM product table by the route through N(C (x) C): the shuffle
    map into N(C (x) C), then each level's coproduct_algebra product, then
    projection into N(C), one term at a time."""
    f = cat.field
    sx = cat.simplicial
    em, _, _, _ = eilenberg_maclane(sx, sx)
    level_algebras = {n: coproduct_algebra([cat.algebra] * n)[0] for n in range(1, sx.dimension_bound + 1)}
    table = {}
    for dtot in em.source.degrees():
        for (u, v) in em.source.labels(dtot):
            folded = {}
            for (n, (xl, yl)), c in em.apply(dtot, {(u, v): f.one()}).items():
                for l3, c3 in level_algebras[n].op_apply(2, (xl, yl)).items():
                    q3 = sum(d for d, _ in l3[1])
                    for l4, c4 in cat.normalized.project(n, q3, {l3: c3}).items():
                        combo_add(f, folded, (n, l4), f.mul(c, c4))
            if folded:
                table[(u, v)] = folded
    return table


def _assert_em_table_matches_reference(cat):
    got, want = cat.em_product_table(), _reference_em_table(cat)
    assert repr(got) == repr(want)  # key order, term order and scalar types
    return got


def test_em_table_equals_the_route_through_the_tensor_object(suite_objects):
    cats, _, _ = suite_objects
    for name, (cat, _) in cats.items():
        assert _assert_em_table_matches_reference(cat), name


@pytest.mark.parametrize(
    "make, window",
    [(lambda: trunc(Q), DegreeWindow(0, 10))]  # commutative-identity's truncQ
    # seed 0 has d(g1) = g0 and d(g0 g1) = g0 g0: d != 0 on A and on N(C(A)) past the faces
    + [(lambda f=f: random_commutative_algebra(f, 0), DegreeWindow(0, 5)) for f in (F2, F3, Q)],
    ids=["truncQ", "random0-F2", "random0-F3", "random0-Q"],
)
def test_em_table_equals_the_route_through_the_tensor_object_on_windows(make, window):
    algebra = make()
    susp = [d + 1 for d in algebra.module.degrees()]
    assert _assert_em_table_matches_reference(CategoricalBar(algebra, sound_weight_bound(susp, window)))


def test_comparison_scales_to_weight_five():
    start = time.perf_counter()
    _, cat, _ = bar_cat_comparison(trunc(F2), DegreeWindow(0, 10))
    assert time.perf_counter() - start < 2.0
    assert cat.dimension_bound == 5


def test_comparison_builds_no_tensor_object_and_no_level_products(monkeypatch):
    calls = {"tensor_simplicial": 0, "eilenberg_maclane": 0, "_coproduct_product": 0}
    normalized, built, during = [], [], []  # during: calls made while building each simplicial object

    def counting(name):
        fn = getattr(catbar, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(catbar, name, counting(name))
    simplicial = catbar.simplicial_categorical_bar

    def building(*args, **kwargs):
        before = dict(calls)
        built.append(simplicial(*args, **kwargs))
        during.append({name: calls[name] - before[name] for name in calls})
        return built[-1]

    class Recording(NormalizedComplex):
        def __init__(self, sx):
            normalized.append(sx)
            super().__init__(sx)

    monkeypatch.setattr(catbar, "simplicial_categorical_bar", building)
    monkeypatch.setattr(catbar, "NormalizedComplex", Recording)
    bar_cat_comparison(trunc(F2), DegreeWindow(0, 8))
    assert calls["tensor_simplicial"] == calls["eilenberg_maclane"] == 0
    assert during == [{name: 0 for name in calls}]  # the simplicial object makes no product
    assert calls["_coproduct_product"] > 0  # the table multiplies levelwise
    assert normalized == built  # N(C) alone: no N(C (x) C)
