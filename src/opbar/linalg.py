"""Exact scalar arithmetic and sparse linear algebra over Q and F_p.

Scalars are plain Python objects: `Fraction` over the rationals, ints in
[0, p) over a prime field.  A `CoeffField` instance owns all arithmetic,
so no floating point can sneak in anywhere.

Elimination uses a fixed pivot order (lowest remaining row, then lowest
column) so ranks, kernels and quotient bases are reproducible
bit-for-bit across runs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CompositionNotZero


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class CoeffField:
    """The ground field: either Q or F_p for a prime p."""

    def __init__(self, p=None):
        if p is None:
            self.kind = "rationals"
            self.p = None
        else:
            if not _is_prime(p):
                raise ValueError("characteristic must be prime, got %r" % (p,))
            self.kind = "prime_field"
            self.p = p

    @staticmethod
    def rationals():
        return CoeffField()

    @staticmethod
    def prime(p):
        return CoeffField(p)

    def __eq__(self, other):
        return isinstance(other, CoeffField) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Q" if self.p is None else "F%d" % self.p

    # scalar constructors ------------------------------------------------

    def zero(self):
        return 0 if self.p else Fraction(0)

    def one(self):
        return 1 if self.p else Fraction(1)

    def of_int(self, n):
        return n % self.p if self.p else Fraction(n)

    def parse(self, text):
        """Parse a decimal scalar string, rationals as "a/b"."""
        text = text.strip()
        if self.p:
            if "/" in text:
                a, b = text.split("/")
                return self.div(int(a) % self.p, int(b) % self.p)
            return int(text) % self.p
        return Fraction(text)

    def format(self, a):
        return str(a)

    # arithmetic ---------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.p else Fraction(1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return (a % self.p == 0) if self.p else a == 0

    def sign(self, parity):
        """(-1)**parity as a field scalar."""
        return self.of_int(-1 if parity % 2 else 1)


class SparseMatrix:
    """A rows x cols matrix storing only nonzero entries.

    `entries` maps (row, col) -> nonzero scalar.  The matrix acts on
    column vectors, so it represents a map k^cols -> k^rows.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                self.add_to(i, j, v)

    def add_to(self, i, j, v):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d,%d) outside %dx%d" % (i, j, self.rows, self.cols))
        f = self.field
        cur = self.entries.get((i, j))
        new = f.add(cur, v) if cur is not None else v
        if f.is_zero(new):
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = new

    @staticmethod
    def identity(field, n):
        m = SparseMatrix(field, n, n)
        one = field.one()
        for i in range(n):
            m.entries[(i, i)] = one
        return m

    @staticmethod
    def zero(field, rows, cols):
        return SparseMatrix(field, rows, cols)

    def copy(self):
        m = SparseMatrix(self.field, self.rows, self.cols)
        m.entries = dict(self.entries)
        return m

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("SparseMatrix is mutable; not hashable")

    def transpose(self):
        m = SparseMatrix(self.field, self.cols, self.rows)
        m.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return m

    def scale(self, c):
        f = self.field
        m = SparseMatrix(f, self.rows, self.cols)
        if not f.is_zero(c):
            m.entries = {k: f.mul(c, v) for k, v in self.entries.items()}
        return m

    def add(self, other):
        self._check_shape(other, same=True)
        m = self.copy()
        for (i, j), v in other.entries.items():
            m.add_to(i, j, v)
        return m

    def sub(self, other):
        return self.add(other.scale(self.field.neg(self.field.one())))

    def matmul(self, other):
        """self @ other, composing self after other."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d @ %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        by_row = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(k, []).append((i, v))
        out = SparseMatrix(f, self.rows, other.cols)
        acc = {}
        for (k, j), w in other.entries.items():
            for i, v in by_row.get(k, ()):
                key = (i, j)
                cur = acc.get(key)
                acc[key] = f.mul(v, w) if cur is None else f.add(cur, f.mul(v, w))
        out.entries = {k: v for k, v in acc.items() if not f.is_zero(v)}
        return out

    def apply(self, vec):
        """Apply to a sparse column vector {index: scalar}."""
        f = self.field
        out = {}
        for (i, j), v in self.entries.items():
            w = vec.get(j)
            if w is None:
                continue
            cur = out.get(i)
            nv = f.mul(v, w) if cur is None else f.add(cur, f.mul(v, w))
            out[i] = nv
        return {i: v for i, v in out.items() if not f.is_zero(v)}

    def column(self, j):
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def _check_shape(self, other, same=False):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if same and (self.rows != other.rows or self.cols != other.cols):
            raise ValueError("shape mismatch")

    def to_rows(self):
        rows = {}
        for (i, j), v in self.entries.items():
            rows.setdefault(i, {})[j] = v
        return rows

    def __repr__(self):
        return "SparseMatrix(%dx%d over %r, %d nonzero)" % (self.rows, self.cols, self.field, len(self.entries))


def _reduce_into(field, row, pivot_rows, pivots):
    """Reduce one sparse row against an echelon state; record it if it survives.

    `row` ({col: scalar}) is consumed.  It is eliminated against the
    recorded pivots, lowest column first; if anything is left, it is
    normalized to pivot value 1 at its lowest column and appended as a
    new pivot row.  Returns True when a pivot was added.
    """
    f = field
    while row:
        c = min(row)
        if c not in pivots:
            inv = f.inv(row[c])
            pivots[c] = len(pivot_rows)
            pivot_rows.append({j: f.mul(inv, v) for j, v in row.items()})
            return True
        r = pivot_rows[pivots[c]]
        coef = row.pop(c)
        for j, v in r.items():
            if j == c:
                continue
            cur = row.get(j, None)
            nv = f.sub(cur, f.mul(coef, v)) if cur is not None else f.neg(f.mul(coef, v))
            if f.is_zero(nv):
                row.pop(j, None)
            else:
                row[j] = nv
    return False


def _row_echelon(field, row_list, ncols):
    """Reduce a list of sparse rows ({col: scalar}) to row echelon form.

    Rows are fed to `_reduce_into` in order.  Returns (pivot_rows,
    pivots) where pivots maps col -> index into pivot_rows, each pivot
    row normalized to pivot value 1.
    """
    pivot_rows = []
    pivots = {}
    for row in row_list:
        _reduce_into(field, dict(row), pivot_rows, pivots)
    return pivot_rows, pivots


def _back_substitute(field, pivot_rows, pivots):
    """Turn an echelon set of rows into fully reduced form (RREF)."""
    f = field
    for c in sorted(pivots, reverse=True):
        i = pivots[c]
        row = pivot_rows[i]
        for c2 in sorted(pivots):
            if c2 <= c:
                continue
            coef = row.get(c2)
            if coef is None:
                continue
            other = pivot_rows[pivots[c2]]
            for j, v in other.items():
                cur = row.get(j)
                nv = f.sub(cur, f.mul(coef, v)) if cur is not None else f.neg(f.mul(coef, v))
                if f.is_zero(nv):
                    row.pop(j, None)
                else:
                    row[j] = nv
    return pivot_rows, pivots


def rref(m):
    """Reduced row echelon form data of a SparseMatrix.

    Returns (pivot_rows, pivots): pivots maps pivot column -> row index.
    """
    rows_dict = m.to_rows()
    row_list = [rows_dict[i] for i in range(m.rows) if i in rows_dict]
    pivot_rows, pivots = _row_echelon(m.field, row_list, m.cols)
    return _back_substitute(m.field, pivot_rows, pivots)


def rank(m):
    """Rank over the field, by deterministic Gaussian elimination."""
    rows_dict = m.to_rows()
    row_list = [rows_dict[i] for i in range(m.rows) if i in rows_dict]
    _, pivots = _row_echelon(m.field, row_list, m.cols)
    return len(pivots)


def kernel_basis(m):
    """Basis of the null space {v : m.apply(v) = 0}.

    Returns a list of sparse column vectors, one per non-pivot column,
    ordered by free column index.  len(result) == cols - rank(m).
    """
    f = m.field
    pivot_rows, pivots = rref(m)
    free_cols = [j for j in range(m.cols) if j not in pivots]
    basis = []
    one = f.one()
    for j in free_cols:
        v = {j: one}
        for c, i in pivots.items():
            coef = pivot_rows[i].get(j)
            if coef is not None:
                v[c] = f.neg(coef)
        basis.append(v)
    return basis


def homology_dimension(d_in, d_out):
    """dim ker(d_out) - rank(d_in) for consecutive differentials.

    `d_in` maps into the middle space, `d_out` maps out of it; the
    composite d_out @ d_in must vanish (checked), otherwise the sign
    conventions upstream are broken.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("d_in lands in a %d-space but d_out starts from a %d-space" % (d_in.rows, d_out.cols))
    if not d_out.matmul(d_in).is_zero():
        raise CompositionNotZero("d_out . d_in != 0")
    return (d_out.cols - rank(d_out)) - rank(d_in)


def solve(m, target):
    """One solution v of m.apply(v) == target, or None if inconsistent.

    Deterministic: free coordinates are set to zero.
    """
    f = m.field
    rows_dict = m.to_rows()
    aug = []
    AUG = m.cols  # augmented column index
    for i in range(m.rows):
        row = dict(rows_dict.get(i, {}))
        t = target.get(i)
        if t is not None and not f.is_zero(t):
            row[AUG] = t
        if row:
            aug.append(row)
    pivot_rows, pivots = _back_substitute(f, *_row_echelon(f, aug, m.cols + 1))
    if AUG in pivots:
        return None
    v = {}
    for c, i in pivots.items():
        coef = pivot_rows[i].get(AUG)
        if coef is not None:
            v[c] = coef
    return v


def quotient_data(field, dim, relations):
    """Present the quotient of k^dim by the span of `relations`.

    `relations` is an iterable of sparse vectors {index: scalar}.
    Returns (kept, project) where `kept` lists the indices whose classes
    form the deterministic complement basis (non-pivot indices of the
    relation RREF) and `project` is the (len(kept) x dim) matrix of the
    projection in that basis.
    """
    f = field
    pivot_rows, pivots = _back_substitute(f, *_row_echelon(f, list(relations), dim))
    kept = [j for j in range(dim) if j not in pivots]
    pos = {j: a for a, j in enumerate(kept)}
    project = SparseMatrix(f, len(kept), dim)
    one = f.one()
    for j in kept:
        project.entries[(pos[j], j)] = one
    for c, i in pivots.items():
        # e_c == -sum of the non-pivot tail of its relation row
        for j, v in pivot_rows[i].items():
            if j == c:
                continue
            project.add_to(pos[j], c, f.neg(v))
    return kept, project


def project_combo(field, labels, index, kept, project, combo):
    """Image of a combo over `labels` in the quotient basis of quotient_data.

    `index` maps a label to its position in `labels`; (kept, project)
    come from quotient_data.  The result is keyed by the kept labels.
    """
    vec = {}
    for lab, c in combo.items():
        for i, v in project.column(index[lab]).items():
            cur = vec.get(i)
            vec[i] = field.mul(v, c) if cur is None else field.add(cur, field.mul(v, c))
    return {labels[kept[i]]: v for i, v in vec.items() if not field.is_zero(v)}
