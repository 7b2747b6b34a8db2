import random
from itertools import product
from pathlib import Path

import pytest

from opbar import perm
from opbar.bar import bar, bar_module, iterated_bar
from opbar.dg import DegreeWindow, DgMap, DgModule, homology, koszul_diff, suspension, tensor
from opbar.errors import CompositionNotZero, FieldMismatch, NotAnIsomorphism
from opbar.fixtures import random_commutative_algebra, random_sigma_module, random_tensor_algebra
from opbar.jsonio import algebra_from_json, load_json
from opbar.linalg import CoeffField, SparseMatrix, combo_add, rank
from opbar.modules import SymPresentation
from opbar.operads import associative_operad, commutative_operad, stasheff_operad
from opbar.sigma import SigmaModule, WordSpace, compose
from opbar.verify import _fixture_algebras
from test_catbar import coproduct_algebra

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)
FIELDS = [F2, CoeffField.prime(3), Q]
DATA = Path(__file__).resolve().parent.parent / "data"


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


def dg_tensor_swap(a, b):
    """The symmetry chain isomorphism a(x)b -> b(x)a with Koszul signs."""
    field = a.field

    degree_of_a = {l: d for d in a.degrees() for l in a.labels(d)}
    degree_of_b = {l: d for d in b.degrees() for l in b.labels(d)}

    def rule(d, label):
        x, y = label
        sgn = field.sign(degree_of_a[x] * degree_of_b[y])
        return {(y, x): sgn}

    return DgMap.from_rule(tensor(a, b), tensor(b, a), 0, rule)


def test_swap_is_chain_iso_and_involution():
    m = DgModule.from_data(
        Q,
        [("a", 0), ("b", 1), ("c", 2)],
        {"c": {"b": Q.of_int(3)}},
    )
    ab = tensor(m, m)
    sw = dg_tensor_swap(m, m)
    assert sw.is_chain_map()
    assert sw.is_iso()
    for d in ab.degrees():
        assert sw.block(d).matmul(sw.block(d)).sub(SparseMatrix.identity(Q, ab.dim(d))).is_zero()


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


def direct_sum(a, b):
    """a (+) b with the blockwise differential; labels are tagged L/R."""
    if a.field != b.field:
        raise FieldMismatch("direct_sum over different fields")
    basis = {}
    for d in sorted(set(a.basis) | set(b.basis)):
        basis[d] = tuple(("L", l) for l in a.labels(d)) + tuple(("R", l) for l in b.labels(d))
    diff = {}
    for d in sorted(set(a.diff) | set(b.diff)):
        m = SparseMatrix.zero(a.field, a.dim(d - 1) + b.dim(d - 1), a.dim(d) + b.dim(d))
        for (i, j), v in a.diff_block(d).entries.items():
            m.add_to(i, j, v)
        off_r, off_c = a.dim(d - 1), a.dim(d)
        for (i, j), v in b.diff_block(d).entries.items():
            m.add_to(i + off_r, j + off_c, v)
        diff[d] = m
    return DgModule(a.field, basis, diff, check=False)


def test_direct_sum():
    m = two_term()
    s = direct_sum(m, m)
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

    def counting_rank(block, *args, **kwargs):
        ranked.append(block)
        return real_rank(block, *args, **kwargs)

    monkeypatch.setattr(opbar.linalg, "rank", counting_rank)
    monkeypatch.setattr(opbar.dg, "rank", counting_rank)
    assert homology(m) == {0: 0, 1: 0, 2: 0, 3: 0}
    assert sorted(id(b) for b in ranked) == sorted(id(m.diff_block(d)) for d in (1, 2, 3))


def _random_complex(field, seed, lo, hi):
    """A seeded complex on degrees lo..hi with d^2 = 0 and known homology.

    Each degree k holds h_k homology classes, e_k vectors that d maps onto
    the b_{k-1} boundaries of degree k-1 (e_k = b_{k-1}) and b_k
    boundaries; seeded elementary changes of basis (d_k E and E^-1 d_{k+1}
    for each column operation E on C_k) then scramble every block.
    Returns (basis, {degree: dense block}, {degree: h_k}).
    """
    rng = random.Random(seed)
    b = {k: rng.randint(0, 3) if lo <= k < hi else 0 for k in range(lo - 1, hi + 1)}
    h = {k: rng.randint(0, 2) for k in range(lo, hi + 1)}
    dims = {k: b[k - 1] + h[k] + b[k] for k in range(lo, hi + 1)}
    one, zero = field.one(), field.zero()
    blocks = {}
    for k in range(lo + 1, hi + 1):
        m = [[zero] * dims[k] for _ in range(dims[k - 1])]
        for t in range(b[k - 1]):  # the t-th e of C_k onto the t-th b of C_{k-1}
            m[b[k - 2] + h[k - 1] + t][t] = one
        blocks[k] = m
    for k in range(lo, hi + 1):
        for _ in range(3 * dims[k]):
            i, j = rng.randrange(dims[k]), rng.randrange(dims[k])
            c = field.of_int(rng.randint(1, 4))
            if i == j or field.is_zero(c):
                continue
            for row in blocks.get(k, ()):  # column i += c column j
                row[i] = field.add(row[i], field.mul(c, row[j]))
            if k + 1 in blocks:  # row j -= c row i
                up = blocks[k + 1]
                up[j] = [field.sub(x, field.mul(c, y)) for x, y in zip(up[j], up[i])]
    basis = {k: tuple("c%d_%d" % (k, i) for i in range(dims[k])) for k in range(lo, hi + 1)}
    return basis, blocks, h


def _sparse(field, dense):
    return SparseMatrix(field, len(dense), len(dense[0]) if dense else 0,
                        {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if not field.is_zero(v)})


def _spy_rank(monkeypatch):
    """Record (args, kwargs) past the block of every `rank` call that `homology` makes."""
    import opbar.dg

    calls = []
    real_rank = opbar.dg.rank

    def spying_rank(block, *args, **kwargs):
        calls.append((args, kwargs))
        return real_rank(block, *args, **kwargs)

    monkeypatch.setattr(opbar.dg, "rank", spying_rank)
    return calls


def _directions(calls):
    return {kwargs.get("columns", False) for _, kwargs in calls}


def _per_block_homology(m, window):
    """The oracle for `homology`: dim C_d - rank d_d - rank d_{d+1}, each
    block ranked on its own by `linalg.rank`, with no clearing."""
    return {d: m.dim(d) - rank(m.diff_block(d)) - rank(m.diff_block(d + 1)) for d in window}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_clearing_matches_known_homology_on_scrambled_complexes(field, monkeypatch):
    calls = _spy_rank(monkeypatch)
    for seed in range(40):
        basis, blocks, h = _random_complex(field, seed, 0, 5)
        m = DgModule(field, basis, {k: _sparse(field, d) for k, d in blocks.items()})
        assert m.d_squared_checked
        for window in (DegreeWindow(0, 5), DegreeWindow(1, 4), DegreeWindow(2, 5), DegreeWindow(0, 3)):
            want = {d: h[d] for d in window}
            assert homology(m, window) == want == _per_block_homology(m, window), (seed, window)
    assert _directions(calls) == {False, True}  # both directions ran


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_clearing_matches_per_block_ranks_on_seeded_bars(field, monkeypatch):
    calls = _spy_rank(monkeypatch)
    for seed in range(6):
        for algebra in (random_tensor_algebra(field, seed, 3, 3), random_commutative_algebra(field, seed, 3, 3)):
            m = bar(algebra, DegreeWindow(0, 9)).module
            assert m.d_squared_checked
            w = m.window()
            # the module's own window starts at the zero block (rows, upward);
            # one degree past its top, the zero block is at the other end (columns, downward)
            for window in (w, DegreeWindow(w.lo + 1, w.hi + 1)):
                assert homology(m, window) == _per_block_homology(m, window), (seed, window)
    assert _directions(calls) == {False, True}


def test_clearing_runs_downward_on_a_cochain_side_bar(monkeypatch):
    algebra = algebra_from_json(load_json(str(DATA / "lambda_x3_f2.json")), None)[0]
    m = iterated_bar(algebra, 2, DegreeWindow(-13, -1))[-1].module
    assert m.dim(-14) > m.dim(0) == 0
    window = DegreeWindow(-13, -1)
    per_block = _per_block_homology(m, window)
    calls = _spy_rank(monkeypatch)
    assert homology(m, window) == per_block
    assert calls and _directions(calls) == {True}  # every block by columns
    # F_2[x_1, x_3, x_7] through degree 13: the solutions of a + 3b + 7c = n
    assert per_block == {-n: sum(1 for b in range(5) for c in range(2) if 3 * b + 7 * c <= n) for n in range(1, 14)}


def test_require_iso_names_the_map_it_refuses():
    m = DgModule.from_data(Q, [("x", 1), ("y", 0)], {"x": {"y": Q.one()}})
    identity = DgMap.identity(m)
    assert identity.require_iso("the identity") is identity
    # the identity in degree 1 only: d f(x) = y but f(d x) = 0
    with pytest.raises(NotAnIsomorphism, match="^probe is not a chain map$"):
        DgMap(m, m, 0, {1: identity.block(1)}).require_iso("probe")
    zero = DgMap(m, m, 0, {})
    assert zero.is_chain_map()
    with pytest.raises(NotAnIsomorphism, match="^probe is not bijective$"):
        zero.require_iso("probe")


def test_homology_checks_an_unchecked_module_before_it_clears(monkeypatch):
    # d^2 != 0: the clearing argument fails, and homology must refuse before any rank
    bad = DgModule.from_data(Q, [("a", 2), ("b", 1), ("c", 0)], {"a": {"b": Q.one()}, "b": {"c": Q.one()}}, check=False)
    calls = _spy_rank(monkeypatch)
    with pytest.raises(CompositionNotZero):
        homology(bad)
    assert not bad.d_squared_checked and calls == []
    # an unchecked module with d^2 = 0 gets the record and is cleared
    good = DgModule.from_data(Q, [("y", 0), ("x", 1)], {"x": {"y": Q.one()}}, check=False)
    assert homology(good) == {0: 0, 1: 0}
    assert good.d_squared_checked
    assert calls and all("pivots" in kwargs for _, kwargs in calls)


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


# koszul_diff against the hand-written loops it replaced ---------------------
#
# Each reference below is a loop as it stood in its module before the tensor
# differential was routed through `koszul_diff`; outputs must agree in repr,
# the order of terms included.



def _entries(mod):
    """The basis per degree and the differential entries in stored order."""
    basis = [(d, mod.basis[d]) for d in mod.degrees()]
    return repr((basis, [(d, list(m.entries.items())) for d, m in mod.diff.items()]))


def _ref_tensor(a, b):
    """dg.tensor's rule, without a window."""
    field = a.field
    degree_pairs = {}
    for da in a.degrees():
        for db in b.degrees():
            degree_pairs.setdefault(da + db, []).append((da, db))
    basis, split = {}, {}
    for d in sorted(degree_pairs):
        basis[d] = tuple((x, y) for da, db in degree_pairs[d] for x in a.labels(da) for y in b.labels(db))
        split[d] = {(x, y): (da, db) for da, db in degree_pairs[d] for x in a.labels(da) for y in b.labels(db)}
    one = field.one()
    d_a = {(da, x): a.apply_diff(da, {x: one}) for da in a.degrees() for x in a.labels(da)}
    d_b = {(db, y): b.apply_diff(db, {y: one}) for db in b.degrees() for y in b.labels(db)}

    def rule(d, label):
        x, y = label
        da, db = split[d][label]
        sgn = field.sign(da)
        out = {(x2, y): v for x2, v in d_a[(da, x)].items()}
        for y2, v in d_b[(db, y)].items():
            out[(x, y2)] = field.mul(sgn, v)
        return out

    return DgModule.from_rule(field, basis, rule, check=False)


def _ref_tensor_diff_terms(field, degrees, labels, module):
    """modules._tensor_diff_terms, read by check_algebra."""
    prefix = 0
    for j, (d, l) in enumerate(zip(degrees, labels)):
        for l2, c in module.apply_diff(d, {l: field.one()}).items():
            yield field.mul(field.sign(prefix), c), j, l2
        prefix += d


def _ref_word_space_diff(ws, label):
    """WordSpace.diff_combo."""
    f = ws.field
    w, inner = label
    out = {}
    prefix = 0
    for j, (a, d, l) in enumerate(inner):
        comp = ws.factors[j].component(a)
        for l2, c in comp.apply_diff(d, {l: f.one()}).items():
            lab2 = (w, inner[:j] + ((a, d - 1, l2),) + inner[j + 1 :])
            combo_add(f, out, lab2, f.mul(f.sign(prefix), c))
        prefix += d
    return out


def _ref_sym_diff_big(sym, label):
    """The Sym(M, A) coequalizer's diff_big."""
    f = sym.field
    (n, dm, lm), w = label
    out = {}
    for lm2, c in sym.left.component(n).apply_diff(dm, {lm: f.one()}).items():
        combo_add(f, out, ((n, dm - 1, lm2), w), c)
    sgn = f.sign(dm)
    degs = [dd for dd, _ in w]
    labs = [ll for _, ll in w]
    for c, j, l2 in _ref_tensor_diff_terms(f, degs, labs, sym.tails[n].module):
        w2 = w[:j] + ((degs[j] - 1, l2),) + w[j + 1 :]
        combo_add(f, out, ((n, dm, lm), w2), f.mul(sgn, c))
    return out


def _ref_compose_diff_big(cr, label):
    """The M o N coequalizer's diff_big, over the reference word-space differential."""
    f = cr.field
    (k, dm, lm), lw = label
    out = {}
    for lm2, c in cr.left.component(k).apply_diff(dm, {lm: f.one()}).items():
        combo_add(f, out, ((k, dm - 1, lm2), lw), c)
    sgn = f.sign(dm)
    for lw2, c in _ref_word_space_diff(cr.tails[k], lw).items():
        combo_add(f, out, ((k, dm, lm), lw2), f.mul(sgn, c))
    return out


def _ref_coproduct_diff(algebras, elements):
    """The differential loop of the coproduct (`test_catbar.coproduct_algebra`)."""
    field = algebras[0].field
    diff = {}
    for (S, w), deg in elements:
        targets = {}
        prefix = 0
        for j, (d, l) in enumerate(w):
            amod = algebras[S[j] - 1].module
            for l2, c in amod.apply_diff(d, {l: field.one()}).items():
                w2 = w[:j] + ((d - 1, l2),) + w[j + 1 :]
                combo_add(field, targets, (S, w2), field.mul(field.sign(prefix), c))
            prefix += d
        if targets:
            diff[(S, w)] = targets
    return diff


def _generators(alg):
    """The one-letter words of a fixture algebra: their degrees and d(upper) = lower."""
    f = alg.field
    deg, diff_pairs = {}, {}
    for d, w in alg.module.basis_pairs():
        if len(w) == 1:
            deg[w[0]] = d
            for (low,), c in alg.module.apply_diff(d, {w: f.one()}).items():
                assert c == f.one()
                diff_pairs[w[0]] = low
    return deg, diff_pairs


def _ref_tensor_algebra_diff(alg):
    """The differential loop of fixtures.random_tensor_algebra."""
    f = alg.field
    deg, diff_pairs = _generators(alg)
    diff_map = {}
    for _, w in alg.module.basis_pairs():
        targets = {}
        prefix = 0
        for j, g in enumerate(w):
            low = diff_pairs.get(g)
            if low is not None:
                w2 = w[:j] + (low,) + w[j + 1 :]
                c = f.sign(prefix)
                cur = targets.get(w2, f.zero())
                new = f.add(cur, c)
                if f.is_zero(new):
                    targets.pop(w2, None)
                else:
                    targets[w2] = new
            prefix += deg[g]
        if targets:
            diff_map[w] = targets
    return diff_map


def _ref_sort_in_place(f, letters):
    order = sorted(range(len(letters)), key=lambda a: (letters[a][0], letters[a][1]))
    degs = [l[2] for l in letters]
    sigma = [0] * len(letters)
    for newpos, old in enumerate(order):
        sigma[old] = newpos + 1
    sign = perm.koszul_sign_exponent(degs, tuple(sigma))
    return tuple(letters[a][0] for a in order), f.sign(sign)


def _ref_commutative_algebra_diff(alg):
    """The differential loop of fixtures.random_commutative_algebra, and its products."""
    f = alg.field
    deg, diff_pairs = _generators(alg)
    mono_deg = dict((m, d) for d, m in alg.module.basis_pairs())
    diff_map = {}
    for m in mono_deg:
        targets = {}
        prefix = 0
        for j, g in enumerate(m):
            low = diff_pairs.get(g)
            if low is not None:
                in_place = [(h, pos, deg[h]) for pos, h in enumerate(m[:j])]
                in_place.append((low, j, deg[low]))
                in_place.extend((h, pos + len(m), deg[h]) for pos, h in enumerate(m[j + 1 :]))
                merged, sgn = _ref_sort_in_place(f, in_place)
                if merged not in mono_deg:
                    continue
                c = f.mul(f.sign(prefix), sgn)
                cur = targets.get(merged, f.zero())
                new = f.add(cur, c)
                if f.is_zero(new):
                    targets.pop(merged, None)
                else:
                    targets[merged] = new
            prefix += deg[g]
        if targets:
            diff_map[m] = targets
    prod = {}
    for u in sorted(mono_deg):
        for v in sorted(mono_deg):
            if len(u) + len(v) > 2:  # the fixtures' default length cap
                continue
            letters = [(g, 0, deg[g]) for g in u] + [(g, 1, deg[g]) for g in v]
            merged, sgn = _ref_sort_in_place(f, letters)
            if merged in mono_deg:
                prod[(u, v)] = {merged: sgn}
    return diff_map, prod


def _rebuilt(alg, diff_map):
    return DgModule.from_data(alg.field, [(w, d) for d, w in alg.module.basis_pairs()], diff_map)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_koszul_diff_matches_the_fixture_loops(field):
    for seed in range(12):
        ta = random_tensor_algebra(field, seed)
        assert _entries(ta.module) == _entries(_rebuilt(ta, _ref_tensor_algebra_diff(ta)))
        ca = random_commutative_algebra(field, seed)
        diff_map, prod = _ref_commutative_algebra_diff(ca)
        assert _entries(ca.module) == _entries(_rebuilt(ca, diff_map))
        assert repr(ca.ops.get(2, {})) == repr(prod)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_koszul_diff_matches_tensor(field):
    for seed in range(12):
        a = random_tensor_algebra(field, seed).module
        b = random_commutative_algebra(field, seed).module
        for x, y in [(a, b), (b, a), (a, a)]:
            t = tensor(x, y)
            assert _entries(t) == _entries(_ref_tensor(x, y))
            t.check_differential()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_koszul_diff_matches_check_algebra_terms(field):
    for seed in range(12):
        for alg in (random_tensor_algebra(field, seed), random_commutative_algebra(field, seed)):
            mod = alg.module
            letters = mod.basis_pairs()
            for r in (1, 2, 3):
                for word in product(letters, repeat=r):
                    ref = {}
                    labs = [l for _, l in word]
                    for c, j, l2 in _ref_tensor_diff_terms(field, [d for d, _ in word], labs, mod):
                        combo_add(field, ref, tuple(labs[:j] + [l2] + labs[j + 1 :]), c)
                    got = koszul_diff(field, word, lambda j, x: (x[0], mod.differential_combo(x)))
                    assert repr(ref) == repr({tuple(l for _, l in w): c for w, c in got.items()})


def _sigma_modules(field, seed):
    """Two random Sigma-modules (zero differentials) and three with differentials:
    Stasheff's K, its suspension, and D = two_term (x -> y) in arity 1, whose
    words carry d != 0 on every factor."""
    M, _ = random_sigma_module(field, seed, arity_bound=3)
    N, _ = random_sigma_module(field, seed + 1, arity_bound=3)
    K = stasheff_operad(field, 4).sigma
    return M, N, K, K.suspend(), SigmaModule(field, {1: two_term(field)})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_koszul_diff_matches_word_spaces(field):
    M, N, K, sK, D = _sigma_modules(field, 0)
    spaces = [([M, N], 4), ([N, N, N], 4), ([M, K], 4), ([K, sK], 5), ([sK, K, sK], 5), ([D, D, D], 3), ([D, K, D], 4)]
    M2, N2 = _sigma_modules(field, 2)[:2]
    for factors, arity_bound in spaces + [([M2, N2], 4), ([N2, M2, N2], 4)]:
        ws = WordSpace(field, factors, arity_bound)
        for r in ws.arities():
            comp = ws.component(r)
            comp.check_differential()
            for d, label in comp.basis_pairs():
                assert repr(ws.diff_combo(label)) == repr(_ref_word_space_diff(ws, label))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_koszul_diff_matches_compose_diff_big(field):
    """On compose-oracle pairs of random Sigma-modules, on K and its suspension,
    and on D, whose arity-3 tails carry three factors with d != 0."""
    M, N, K, sK, D = _sigma_modules(field, 11)
    pairs = [(M, N), (K, sK), (sK, K), (M, sK), (K, D), (sK, D)]
    pairs += [_sigma_modules(field, seed)[:2] for seed in (13, 15)]
    for left, right in pairs:
        cr = compose(left, right, 3)
        for k, ws in cr.tails.items():
            for m in left.basis_triples(k):
                for r in ws.arities():
                    for _, lw in ws.component(r).basis_pairs():
                        label = (m, lw)
                        assert repr(cr.diff_big(label)) == repr(_ref_compose_diff_big(cr, label))
    compose(associative_operad(field, 3).sigma, D, 3).sigma.check_relations()


def test_koszul_diff_matches_sym_diff_big():
    """On the Sym(B_R, A) words of the module-functor suite."""
    for field, operad, kind in [
        (CoeffField.prime(2), commutative_operad(CoeffField.prime(2), 3), "comm"),
        (CoeffField.prime(2), associative_operad(CoeffField.prime(2), 3), "assoc"),
        (Q, stasheff_operad(Q, 3), "ainf"),
    ]:
        sigma = bar_module(operad, 3).right_module.sigma
        for alg in _fixture_algebras(field, kind) + [random_tensor_algebra(field, 1, length_cap=1)]:
            sym = SymPresentation(sigma, alg.module, [1, 2, 3])
            for n, words in sym.tails.items():
                for label in product(sym.left.basis_triples(n), [w for _, w in words.component(0).basis_pairs()]):
                    assert repr(sym.diff_big(label)) == repr(_ref_sym_diff_big(sym, label))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_koszul_diff_matches_coproduct_algebra(field):
    for seeds in [(0, 7), (6, 9), (0, 1, 7)]:
        algebras = [random_commutative_algebra(field, s) for s in seeds]
        co, _ = coproduct_algebra(algebras)
        elements = [(label, d) for d, label in co.module.basis_pairs()]
        ref = DgModule.from_data(field, elements, _ref_coproduct_diff(algebras, elements))
        assert _entries(co.module) == _entries(ref)
