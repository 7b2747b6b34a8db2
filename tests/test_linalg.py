import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbar.bar import bar
from opbar.dg import DegreeWindow
from opbar.errors import CompositionNotZero
from opbar.fixtures import random_commutative_algebra, random_tensor_algebra
from opbar.linalg import (
    CoeffField,
    Quotient,
    SparseMatrix,
    combo_add,
    combo_map,
    echelon,
    homology_dimension,
    kernel_basis,
    quotient_data,
    rank,
    solve,
)

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)


def mat(field, rows, cols, data):
    m = SparseMatrix(field, rows, cols)
    for (i, j), v in data.items():
        m.add_to(i, j, field.of_int(v))
    return m


def transpose(m):
    """The transpose of the sparse matrix m."""
    t = SparseMatrix(m.field, m.cols, m.rows)
    t.entries = {(j, i): v for (i, j), v in m.entries.items()}
    return t


def test_prime_check():
    with pytest.raises(ValueError):
        CoeffField.prime(6)
    CoeffField.prime(7)


def test_rank_identity_f2():
    assert rank(SparseMatrix.identity(F2, 2)) == 2


def test_rank_zero_matrix():
    assert rank(SparseMatrix.zero(Q, 3, 4)) == 0


def test_rank_dependent_rows_q():
    m = mat(Q, 2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(SparseMatrix.identity(F2, 2)) == []


def test_kernel_zero_1x3():
    ker = kernel_basis(SparseMatrix.zero(Q, 1, 3))
    assert len(ker) == 3


def test_kernel_f2_sum():
    m = mat(F2, 1, 2, {(0, 0): 1, (0, 1): 1})
    ker = kernel_basis(m)
    assert ker == [{1: 1, 0: 1}] or ker == [{0: 1, 1: 1}]


def test_homology_point_complex():
    d_in = SparseMatrix.zero(Q, 1, 0)
    d_out = SparseMatrix.zero(Q, 0, 1)
    assert homology_dimension(d_in, d_out) == 1


def test_homology_acyclic_two_term():
    # k -> k with the identity differential: H = 0 at both spots
    ident = SparseMatrix.identity(Q, 1)
    z_in = SparseMatrix.zero(Q, 1, 0)
    z_out = SparseMatrix.zero(Q, 0, 1)
    assert homology_dimension(ident, z_out) == 0
    assert homology_dimension(z_in, ident) == 0


def test_homology_rejects_nonzero_composite():
    ident = SparseMatrix.identity(Q, 1)
    with pytest.raises(CompositionNotZero):
        homology_dimension(ident, ident)


def test_rank_transpose_property():
    rng = random.Random(11)
    for field in (Q, F2, CoeffField.prime(5)):
        for _ in range(25):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            m = SparseMatrix(field, r, c)
            for _ in range(rng.randint(0, 12)):
                m.add_to(rng.randrange(r), rng.randrange(c), field.of_int(rng.randint(-3, 3)))
            assert rank(m) == rank(transpose(m))


def test_rank_plus_kernel_is_cols():
    rng = random.Random(12)
    for _ in range(30):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = SparseMatrix(F2, r, c)
        for _ in range(rng.randint(0, 15)):
            m.add_to(rng.randrange(r), rng.randrange(c), 1)
        ker = kernel_basis(m)
        assert rank(m) + len(ker) == c
        for v in ker:
            assert m.apply(v) == {}


def test_homology_invariant_under_permutation():
    # permuting the middle basis consistently leaves homology alone
    rng = random.Random(13)
    for _ in range(10):
        a, b, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        d_in = SparseMatrix(Q, b, c)
        for _ in range(rng.randint(0, 8)):
            d_in.add_to(rng.randrange(b), rng.randrange(c), Q.of_int(rng.randint(-2, 2)))
        # build d_out with d_out @ d_in = 0: take d_out rows from kernel of d_in^T
        ker = kernel_basis(transpose(d_in))
        d_out = SparseMatrix(Q, a, b)
        for i in range(min(a, len(ker))):
            for j, v in ker[i].items():
                d_out.add_to(i, j, v)
        h = homology_dimension(d_in, d_out)
        perm = list(range(b))
        rng.shuffle(perm)
        p = SparseMatrix(Q, b, b)
        for i, j in enumerate(perm):
            p.add_to(i, j, Q.one())
        h2 = homology_dimension(p.matmul(d_in), d_out.matmul(transpose(p)))
        assert h == h2


def test_solve_and_quotient():
    m = mat(Q, 2, 3, {(0, 0): 1, (0, 2): 1, (1, 1): 2})
    v = solve(m, {0: Q.of_int(3), 1: Q.of_int(4)})
    assert m.apply(v) == {0: Q.of_int(3), 1: Q.of_int(4)}
    assert solve(mat(Q, 2, 1, {(0, 0): 1}), {1: Q.one()}) is None

    kept, proj = quotient_data(Q, 3, [{0: Q.one(), 1: Q.of_int(-1)}])
    assert kept == [1, 2]
    assert proj.apply({0: Q.one()}) == proj.apply({1: Q.one()})


def test_quotient_projects_and_guards_missing_components():
    q = Quotient(Q, ["a", "b", "c"], [{"a": Q.one(), "b": Q.of_int(-1)}])
    assert q.kept == ("b", "c")
    assert q.project({"a": Q.of_int(2), "c": Q.one()}) == {"b": Q.of_int(2), "c": Q.one()}
    assert q.project({"a": Q.one(), "b": Q.of_int(-1)}) == {}
    quotients = {(1, 0): q}
    assert Quotient.project_in(Q, quotients, (1, 0), {"a": Q.one()}) == {"b": Q.one()}
    assert Quotient.project_in(Q, quotients, (2, 5), {}) == {}
    assert Quotient.project_in(Q, quotients, (2, 5), {"z": Q.zero()}) == {}
    with pytest.raises(ValueError, match=r"\(2, 5\)"):
        Quotient.project_in(Q, quotients, (2, 5), {"z": Q.one()})


@pytest.mark.parametrize("field", [F2, CoeffField.prime(3), Q], ids=["F2", "F3", "Q"])
def test_combo_map_drops_cancelled_labels_and_keeps_its_inputs(field):
    one, two = field.one(), field.of_int(2)
    images = {"a": {"x": one, "y": one}, "b": {"x": field.neg(one), "z": two}}
    combo = {"a": one, "b": one}
    before = (dict(combo), {k: dict(v) for k, v in images.items()})
    # x cancels: 1*1 + 1*(-1) = 0
    out = combo_map(field, combo, images.__getitem__)
    expect = {"y": one}
    combo_add(field, expect, "z", two)  # 2 = 0 over F2
    assert out == expect and "x" not in out
    assert ("z" in out) == (field.p != 2)
    # added into a given acc, which is returned; y cancels there
    acc = {"y": field.neg(one), "w": one}
    assert combo_map(field, {"a": one}, images.__getitem__, acc) is acc
    assert acc == {"w": one, "x": one}
    assert (combo, images) == before
    assert combo_map(field, {}, images.__getitem__) == {}


def test_fp_scalar_parse_format():
    f5 = CoeffField.prime(5)
    assert f5.parse("7") == 2
    assert f5.parse("1/2") == 3
    assert Q.parse("-3/6") == Q.parse("-1/2")


def test_scalar_constants_are_shared_and_signs_unchanged():
    assert Q.one() is Q.one() and Q.zero() is Q.zero() and Q.sign(1) is Q.sign(3)
    for field in (F2, CoeffField.prime(3), Q):
        for parity in range(-3, 4):
            expect = field.of_int(-1 if parity % 2 else 1)
            got = field.sign(parity)
            assert got == expect and type(got) is type(expect)
        assert type(field.one()) is type(field.of_int(1)) and field.one() == field.of_int(1)
        assert type(field.zero()) is type(field.of_int(0)) and field.zero() == field.of_int(0)


_MUL_FIELDS = [Q, F2, CoeffField.prime(3), CoeffField.prime(5)]


@st.composite
def _mul_cases(draw):
    field = draw(st.sampled_from(_MUL_FIELDS))
    shared = [field.one(), field.sign(1), field.zero()]
    if field.p:
        operand = st.one_of(st.sampled_from(shared), st.integers(0, field.p - 1))
    else:
        operand = st.one_of(
            st.sampled_from(shared + [Fraction(1), Fraction(-1)]),
            st.integers(-5, 5),
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
        )
    return field, draw(operand), draw(operand)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_mul_cases())
def test_mul_equals_plain_product_in_value_and_type(case):
    field, a, b = case
    want = a * b if field.p is None else (a * b) % field.p
    for got in (field.mul(a, b), field.mul(b, a)):
        assert got == want and type(got) is type(want)


def test_mul_by_a_shared_sign_returns_the_other_operand():
    x = Fraction(3, 7)
    assert Q.mul(Q.one(), x) is x and Q.mul(x, Q.one()) is x
    assert Q.mul(Q.sign(1), x) == -x and Q.mul(x, Q.sign(1)) == -x
    assert Q.mul(Q.sign(1), Q.sign(1)) == 1 and Q.mul(Fraction(1), x) == x
    # an int operand still gets the Fraction product
    assert type(Q.mul(Q.one(), 2)) is Fraction and type(Q.mul(-1, Q.sign(1))) is Fraction


def test_add_to_reduces_over_fp():
    f3 = CoeffField.prime(3)
    a, b = SparseMatrix(f3, 1, 2), SparseMatrix(f3, 1, 2)
    a.add_to(0, 0, 5)
    b.add_to(0, 0, 2)
    assert a == b and a.entries == {(0, 0): 2}
    a.add_to(0, 1, -1)
    b.add_to(0, 1, 2)
    assert a == b
    a.add_to(0, 0, 4)  # 2 + 4 = 0 mod 3
    assert a.entries == {(0, 1): 2}
    assert SparseMatrix(F2, 1, 1, {(0, 0): -1}).entries == {(0, 0): 1}
    assert SparseMatrix(f3, 1, 1, {(0, 0): 6}).is_zero()


# --- dense oracle ------------------------------------------------------------
#
# Textbook Gauss-Jordan elimination on dense lists, written here so that it
# shares no code with opbar.linalg.  Over F_p it works on ints mod p, over Q
# on Fractions.  RREF is unique, so every kernel vector, solution and
# quotient projection it derives must equal opbar's exactly.


def _dense_rref(p, rows, ncols):
    """(pivot columns, reduced nonzero rows) of a dense list of rows."""
    norm = (lambda a: a % p) if p else Fraction
    m = [[norm(a) for a in row] for row in rows]
    pivcols = []
    top = 0
    for col in range(ncols):
        hit = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if hit is None:
            continue
        m[top], m[hit] = m[hit], m[top]
        inv = pow(m[top][col], -1, p) if p else 1 / m[top][col]
        m[top] = [norm(a * inv) for a in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col] != 0:
                c = m[r][col]
                m[r] = [norm(a - c * b) for a, b in zip(m[r], m[top])]
        pivcols.append(col)
        top += 1
    return pivcols, m[:top]


def _dense(m):
    out = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        out[i][j] = v
    return out


def _oracle_kernel(p, rows, ncols):
    pivcols, red = _dense_rref(p, rows, ncols)
    one = 1 if p else Fraction(1)
    basis = []
    for j in range(ncols):
        if j in pivcols:
            continue
        v = {j: one}
        for c, row in zip(pivcols, red):
            if row[j] != 0:
                v[c] = (-row[j]) % p if p else -row[j]
        basis.append(v)
    return basis


def _oracle_solve(p, rows, ncols, target):
    aug = [row + [target.get(i, 0)] for i, row in enumerate(rows)]
    pivcols, red = _dense_rref(p, aug, ncols + 1)
    if ncols in pivcols:
        return None
    return {c: row[ncols] for c, row in zip(pivcols, red) if row[ncols] != 0}


def _oracle_quotient(p, rows, dim):
    pivcols, red = _dense_rref(p, rows, dim)
    kept = [j for j in range(dim) if j not in pivcols]
    pos = {j: a for a, j in enumerate(kept)}
    project = {(pos[j], j): 1 if p else Fraction(1) for j in kept}
    for c, row in zip(pivcols, red):
        for j in kept:
            if row[j] != 0:
                project[(pos[j], c)] = (-row[j]) % p if p else -row[j]
    return kept, project


def _random_matrix(field, rng, rows, cols):
    """Seeded sparse matrix of low rank: each row is a combination of a few
    sparse base rows, some rows and columns left zero."""
    p = field.p

    def scalar():
        if p:
            return rng.randrange(1, p)
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3, 7)))

    live_cols = [j for j in range(cols) if rng.random() < 0.8]
    base = []
    for _ in range(rng.randint(1, max(1, rows // 2))):
        base.append({j: scalar() for j in rng.sample(live_cols, min(len(live_cols), rng.randint(1, 6)))})
    m = SparseMatrix(field, rows, cols)
    for i in range(rows):
        if rng.random() < 0.15:
            continue  # a zero row
        for b in rng.sample(base, min(len(base), rng.randint(1, 3))):
            c = scalar()
            for j, v in b.items():
                m.add_to(i, j, field.mul(c, v))
    return m


_ORACLE_FIELDS = [F2, CoeffField.prime(3), CoeffField.prime(5), Q]
_SHAPES = [(1, 1), (3, 7), (8, 5), (12, 12), (20, 40), (15, 150), (40, 133)]


@pytest.mark.parametrize("field", _ORACLE_FIELDS, ids=repr)
def test_kernel_matches_dense_oracle(field):
    rng = random.Random("oracle-%r" % field)
    p = field.p
    scalar_type = int if p else Fraction
    for rows, cols in _SHAPES * 3:
        m = _random_matrix(field, rng, rows, cols)
        dense = _dense(m)
        pivcols, _ = _dense_rref(p, dense, cols)
        assert rank(m) == len(pivcols)

        ker = kernel_basis(m)
        assert ker == _oracle_kernel(p, dense, cols)
        assert all(type(v) is scalar_type for vec in ker for v in vec.values())

        x = {j: field.of_int(rng.randint(-4, 4)) for j in range(cols) if rng.random() < 0.5}
        consistent = m.apply(x)
        got = solve(m, consistent)
        assert got == _oracle_solve(p, dense, cols, consistent)
        assert m.apply(got) == consistent
        assert all(type(v) is scalar_type for v in got.values())
        if len(pivcols) < rows:
            # a target outside the column space: some unit vector is one
            for i in range(rows):
                if _oracle_solve(p, dense, cols, {i: field.one()}) is None:
                    assert solve(m, {i: field.one()}) is None
                    break
            else:
                raise AssertionError("rank-deficient matrix with every unit target consistent")

        relations = [row for _, row in sorted(m.to_rows().items())]
        kept, project = quotient_data(field, cols, relations)
        want_kept, want_project = _oracle_quotient(p, dense, cols)
        assert kept == want_kept
        assert project.entries == want_project
        assert all(type(v) is scalar_type for v in project.entries.values())


def _relation_sets():
    """A field, a label count and two relation sets over labels 0..n-1."""

    @st.composite
    def build(draw):
        field = draw(st.sampled_from([F2, CoeffField.prime(3), Q]))
        n = draw(st.integers(1, 8))
        scalars = st.integers(-3, 3).map(field.of_int)
        relation = st.dictionaries(st.integers(0, n - 1), scalars, max_size=4)
        return field, n, draw(st.lists(relation, max_size=6)), draw(st.lists(relation, max_size=6))

    return build()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_relation_sets())
def test_one_stage_quotient_equals_two_stage(case):
    # quotienting by R1 + R2 at once equals quotienting by R1, then by R2 projected through it
    field, n, r1, r2 = case
    labels = list(range(n))
    one = Quotient(field, labels, r1 + r2)
    first = Quotient(field, labels, r1)
    second = Quotient(field, first.kept, [first.project(rel) for rel in r2])
    assert one.kept == second.kept
    for lab in labels:
        assert one.project({lab: field.one()}) == second.project(first.project({lab: field.one()}))


# --- matmul kernels ----------------------------------------------------------


def reference_matmul(a, b):
    """The entries of a @ b by the plain dict-of-products loop, one field
    operation per scalar product."""
    f = a.field
    by_row = {}
    for (i, k), v in a.entries.items():
        by_row.setdefault(k, []).append((i, v))
    acc = {}
    for (k, j), w in b.entries.items():
        for i, v in by_row.get(k, ()):
            key = (i, j)
            cur = acc.get(key)
            acc[key] = f.mul(v, w) if cur is None else f.add(cur, f.mul(v, w))
    return {k: v for k, v in acc.items() if not f.is_zero(v)}


_MATMUL_FIELDS = [F2, CoeffField.prime(3), CoeffField.prime(5), Q]


def _matmul_cases():
    """A field and two composable matrices, filled through add_to.

    Scalars include unreduced F_p ints (5 over F_3 is stored as 5) and,
    over Q, plain ints beside Fractions.  In a "cancel" case the columns
    of the second factor are combinations of kernel vectors of the first,
    so the product is zero although its scalar products are not; in an
    "empty" case one factor has no entries or a zero dimension.
    """

    @st.composite
    def build(draw):
        field = draw(st.sampled_from(_MATMUL_FIELDS))
        kind = draw(st.sampled_from(["product", "cancel", "empty"]))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))

        def scalar():
            if field.p:
                return rng.randint(-7, 12)
            if rng.random() < 0.5:
                return rng.randint(-4, 4)
            return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 9]))

        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        inner = rng.randint(rows + 1, 8) if kind == "cancel" else rng.randint(1, 6)
        if kind == "empty":
            rows, inner, cols = (n * rng.randint(0, 1) for n in (rows, inner, cols))

        def fill(m):
            if kind == "empty" and rng.random() < 0.5:
                return
            density = rng.choice([0.2, 0.5, 0.9])
            for i in range(m.rows):
                for j in range(m.cols):
                    if rng.random() < density:
                        m.add_to(i, j, scalar())

        a = SparseMatrix(field, rows, inner)
        b = SparseMatrix(field, inner, cols)
        fill(a)
        if kind == "cancel":
            # inner > rows, so the kernel of a is not zero
            ker = kernel_basis(a)
            for j in range(cols):
                for v in rng.sample(ker, min(len(ker), rng.randint(1, 3))):
                    c = scalar()
                    for k, x in v.items():
                        b.add_to(k, j, field.mul(field.of_int(c) if field.p else c, x))
        else:
            fill(b)
        return a, b

    return build()


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(_matmul_cases())
def test_matmul_kernel_equals_reference(case):
    a, b = case
    f = a.field
    got = a.matmul(b)
    want = reference_matmul(a, b)
    assert (got.field, got.rows, got.cols) == (f, a.rows, b.cols)
    assert got.entries == want
    assert got.to_rows() == SparseMatrix(f, a.rows, b.cols, want).to_rows()
    for v in got.entries.values():
        if f.p:
            assert type(v) is int and 0 < v < f.p
        else:
            assert type(v) is Fraction and v != 0


def test_matmul_cancels_unreduced_and_int_entries():
    f3 = CoeffField.prime(3)
    a = SparseMatrix(f3, 1, 2)
    a.entries[(0, 0)] = 5  # stored unreduced, past add_to
    a.add_to(0, 1, 1)
    b = SparseMatrix(f3, 2, 1)
    b.add_to(0, 0, 1)
    b.add_to(1, 0, 1)
    assert a.entries[(0, 0)] == 5 and a.matmul(b).is_zero()  # 5 + 1 = 0 mod 3
    b.add_to(1, 0, 1)
    assert a.matmul(b).entries == {(0, 0): 1}  # 5 + 2 = 1 mod 3
    qa = SparseMatrix(Q, 1, 2)
    qa.add_to(0, 0, 3)  # a plain int over Q
    qa.add_to(0, 1, Fraction(1, 2))
    qb = SparseMatrix(Q, 2, 1)
    qb.add_to(0, 0, Fraction(1, 6))
    qb.add_to(1, 0, -1)
    assert qa.matmul(qb).is_zero()
    qb.add_to(1, 0, Fraction(1, 3))
    assert qa.matmul(qb).entries == {(0, 0): Fraction(1, 6)}
    assert SparseMatrix(Q, 0, 3).matmul(SparseMatrix(Q, 3, 2)).entries == {}
    assert SparseMatrix(F2, 2, 0).matmul(SparseMatrix(F2, 0, 2)).entries == {}


def test_matmul_rejects_shape_and_field_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        SparseMatrix.identity(Q, 2).matmul(SparseMatrix.identity(Q, 3))
    with pytest.raises(ValueError, match="field mismatch"):
        SparseMatrix.identity(F2, 2).matmul(SparseMatrix.identity(Q, 2))
    with pytest.raises(ValueError, match="field mismatch"):
        SparseMatrix.identity(CoeffField.prime(3), 2).matmul(SparseMatrix.identity(CoeffField.prime(5), 2))


@pytest.mark.parametrize("field", _ORACLE_FIELDS, ids=repr)
def test_rank_pivots_and_clearing(field):
    # `pivots` receives the lowest entry of each echelon vector: the pivot
    # columns of the rref by rows, the pivot rows of the transpose's rref by
    # columns.  For E with D E = 0, the rows of E at D's pivot columns and
    # the columns of D at E's pivot rows can be skipped without changing a rank.
    rng = random.Random("clearing-%r" % field)
    for rows, cols in _SHAPES * 2:
        d = _random_matrix(field, rng, rows, cols)
        by_rows, by_cols = set(), set()
        r = rank(d, pivots=by_rows)
        assert r == rank(d, columns=True, pivots=by_cols) == rank(transpose(d))
        assert sorted(by_rows) == _dense_rref(field.p, _dense(d), cols)[0]
        assert sorted(by_cols) == _dense_rref(field.p, _dense(transpose(d)), rows)[0]
        # E: seeded combinations of a kernel basis of D, so D E = 0
        ker = kernel_basis(d)
        e = SparseMatrix(field, cols, rng.randint(1, 2 * len(ker) + 1))
        for j in range(e.cols):
            for v in rng.sample(ker, min(len(ker), rng.randint(0, 3))):
                c = field.of_int(rng.randint(1, 4))
                for i, x in v.items():
                    e.add_to(i, j, field.mul(c, x))
        assert d.matmul(e).is_zero()
        e_pivots = set()
        assert rank(e, skip=by_rows) == rank(e, columns=True, pivots=e_pivots) == rank(e)
        assert rank(d, skip=e_pivots, columns=True) == r
        assert rank(e, skip=range(e.rows)) == rank(e, skip=range(e.cols), columns=True) == 0


# --- rank does not depend on the order rows are fed in ------------------------


def _bar_blocks():
    for make in (random_tensor_algebra, random_commutative_algebra):
        for seed in range(12):
            for field in (F2, CoeffField.prime(3), Q):
                module = bar(make(field, seed), DegreeWindow(0, 6)).module
                for d in module.degrees():
                    yield module.diff_block(d)


def test_rank_is_order_free_on_bar_differentials():
    blocks = 0
    for m in _bar_blocks():
        before = dict(m.entries)
        e = echelon(m.field)
        for _, row in sorted(m.to_rows().items()):  # lowest row first
            e.add(row)
        pivcols, _ = _dense_rref(m.field.p, _dense(m), m.cols)
        assert rank(m) == len(e) == len(pivcols)
        assert m.entries == before and list(m.entries.items()) == list(before.items())
        blocks += bool(m.entries)
    assert blocks > 150
