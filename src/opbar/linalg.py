"""Exact scalar arithmetic and sparse linear algebra over Q and F_p.

Scalars are plain Python objects: `Fraction` over the rationals, ints in
[0, p) over a prime field.  A `CoeffField` instance owns all arithmetic,
so no floating point can sneak in anywhere.  Over Q, `one()`, `zero()`
and `sign()` hand out shared `Fraction` objects, and `mul` has a fast
path for the signs: when one operand *is* the shared 1 or -1 and the
other is a `Fraction`, it returns the other operand or its negation
without multiplying.  Most scalar products outside the matrices are a
sign times a coefficient, and the result has the same value and type as
the product.  `SparseMatrix.add_to` reduces every entry it stores over
F_p, so equal matrices have equal `entries`.

Elimination uses a fixed pivot order (rows fed lowest first, each
reduced lowest column first) so kernels, solutions and quotient bases
are reproducible bit-for-bit across runs.  `rank` alone feeds the rows
last first: a count does not depend on pivot order, and on bar
differentials that order leaves far less fill-in.  `rank` is also the
one step of clearing (`dg.homology`): it can feed the columns instead,
skip the rows or columns that the previous differential's pivots show
to lie in the span of the rest (sound only where d^2 = 0), never
building them, and hand its own pivots on to the next.  The eliminations
that hand out a basis or pivot order (`rref`, `kernel_basis`, `solve`,
`quotient_data` and the homotopy retract) keep lowest row first.  Every
elimination runs through one `Echelon`, whose row representation
depends on the field:

  F_2   a Python int bitset per row, reduced by XOR;
  F_p   {col: int} rows with inline `% p` arithmetic;
  Q     {col: int} rows, scaled once by the lcm of the row's denominators
        and eliminated fraction-free with gcd content removal.

Scalars leave an `Echelon` as field scalars again (`Fraction` over Q)
only when `rref()` hands out the reduced rows.  `SparseMatrix.matmul`
likewise sums plain ints in one kernel per field (bitset columns over
F_2, one `% p` per output entry over F_p, one division per output entry
over Q).

Elements of a space with a named basis are combos {label: scalar}.
`combo_add` and `combo_map` sum them and drop the labels whose
coefficients cancel; `combo_map` evaluates a map fixed on basis labels
on a whole combo, by linear extension.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import CompositionNotZero


# shared scalars over Q (Fractions are immutable)
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)
_Q_MINUS_ONE = Fraction(-1)


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
        return 0 if self.p else _Q_ZERO

    def one(self):
        return 1 if self.p else _Q_ONE

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
        if self.p:
            return (a * b) % self.p
        # the shared signs, tested by identity: a sign times a Fraction needs no product
        if a is _Q_ONE or a is _Q_MINUS_ONE:
            if type(b) is Fraction:
                return b if a is _Q_ONE else -b
        elif b is _Q_ONE or b is _Q_MINUS_ONE:
            if type(a) is Fraction:
                return a if b is _Q_ONE else -a
        return a * b

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
        if parity % 2:
            return self.p - 1 if self.p else _Q_MINUS_ONE
        return self.one()


def combo_add(field, acc, label, coeff):
    """acc[label] += coeff in place, dropping the label if its coefficient vanishes."""
    cur = acc.get(label)
    new = field.add(cur, coeff) if cur is not None else coeff
    if field.is_zero(new):
        acc.pop(label, None)
    else:
        acc[label] = new


def combo_map(field, combo, image, acc=None):
    """The sum of combo[l] * image(l) over the labels l of `combo`.

    `image(l)` returns a combo.  The sum is added into `acc` (and `acc`
    returned) when one is given, else into a new combo; neither `combo`
    nor the images are modified.
    """
    out = {} if acc is None else acc
    mul, p = field.mul, field.p
    for label, c in combo.items():
        for label2, c2 in image(label).items():
            # combo_add, inlined: `mul` hands back a reduced scalar
            new = mul(c, c2)
            cur = out.get(label2)
            if cur is not None:
                new = (cur + new) % p if p else cur + new
            if new:
                out[label2] = new
            else:
                out.pop(label2, None)
    return out


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
        p = self.field.p
        cur = self.entries.get((i, j))
        new = v if cur is None else cur + v
        if p:
            new %= p
        if new:
            self.entries[(i, j)] = new
        else:
            self.entries.pop((i, j), None)

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
        """self @ other, composing self after other.

        One kernel per field, all summing plain ints: over F_2 each column
        of `self` is an int bitset over rows and an output column is the
        XOR of the columns its column of `other` names; over F_p products
        are summed as ints with one `% p` per output entry; over Q each
        factor is scaled once by the lcm of its denominators and each
        surviving sum divided once by the product of the two.  The result
        holds reduced field scalars (`Fraction`s over Q).
        """
        self._check_shape(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d @ %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        out = SparseMatrix(self.field, self.rows, other.cols)
        p = self.field.p
        if p == 2:
            out.entries = _matmul_f2(self.entries, other.entries)
        elif p:
            sums = _int_products(self.entries.items(), other.entries.items())
            out.entries = {(i, j): r for j, col in sums.items() for i, s in col.items() if (r := s % p)}
        else:
            da, a = _scaled_to_ints(self.entries)
            db, b = _scaled_to_ints(other.entries)
            den = da * db
            sums = _int_products(a, b)
            out.entries = {(i, j): Fraction(s, den) for j, col in sums.items() for i, s in col.items() if s}
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

    def _check_shape(self, other, same=False):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if same and (self.rows != other.rows or self.cols != other.cols):
            raise ValueError("shape mismatch")

    def to_rows(self, skip=(), columns=False):
        """{row: {col: scalar}} over the nonzero rows not in `skip`; with
        `columns`, {col: {row: scalar}} over the nonzero columns not in `skip`."""
        rows = {}
        if columns:
            for (j, i), v in self.entries.items():
                if i not in skip:
                    rows.setdefault(i, {})[j] = v
        else:
            for (i, j), v in self.entries.items():
                if i not in skip:
                    rows.setdefault(i, {})[j] = v
        return rows

    def __repr__(self):
        return "SparseMatrix(%dx%d over %r, %d nonzero)" % (self.rows, self.cols, self.field, len(self.entries))


def _matmul_f2(a, b):
    """The entries of A @ B over F_2, for the entry dicts of A and B."""
    cols = {}
    for (i, k), v in a.items():
        if v % 2:
            cols[k] = cols.get(k, 0) | 1 << i
    acc = {}
    for (k, j), w in b.items():
        c = cols.get(k)
        if c and w % 2:
            acc[j] = acc.get(j, 0) ^ c
    return {(i, j): 1 for j, c in acc.items() for i in _bits(c)}


def _scaled_to_ints(entries):
    """(D, the entries times D as ((row, col), int) pairs), where D is the
    lcm of the denominators; the pairs are produced as they are read."""
    den = lcm(*(v.denominator for v in entries.values()))
    return den, ((key, v.numerator * (den // v.denominator)) for key, v in entries.items())


def _int_products(a, b):
    """{j: {i: sum over k of A[i, k] * B[k, j]}} for the ((row, col), int)
    entry pairs of A and B; sums that cancel to 0 are kept."""
    by_k = {}
    for (i, k), v in a:
        by_k.setdefault(k, []).append((i, v))
    acc = {}
    for (k, j), w in b:
        terms = by_k.get(k)
        if terms is None:
            continue
        col = acc.get(j)
        if col is None:
            col = acc[j] = {}
        for i, v in terms:
            col[i] = col.get(i, 0) + v * w
    return acc


def _bits(r):
    """The set bit positions of a nonnegative int, lowest first: one step per set bit."""
    out = []
    while r:
        low = r & -r
        out.append(low.bit_length() - 1)
        r ^= low
    return out


class Echelon:
    """An echelon form over one field, grown one row at a time.

    `add(row)` reduces a sparse row ({col: scalar}, left untouched)
    against the pivot rows kept so far, lowest column first; if anything
    is left it becomes a new pivot row at its lowest column, and `add`
    returns True.  `len()` is the number of pivots; `pivots` maps pivot
    column -> row index, in the order the pivots were found.  `rref()`
    reduces the kept rows fully and hands them out in field scalars.
    Build one with `echelon(field)`; the subclass owns the field's row
    representation.
    """

    def __init__(self):
        self.rows = []
        self.pivots = {}

    def __len__(self):
        return len(self.pivots)


class _F2Echelon(Echelon):
    """Rows are Python int bitsets (bit j = column j), reduced by XOR."""

    def add(self, row):
        r = 0
        for j, v in row.items():
            if v % 2:
                r |= 1 << j
        pivots = self.pivots
        rows = self.rows
        while r:
            c = (r & -r).bit_length() - 1
            i = pivots.get(c)
            if i is None:
                pivots[c] = len(rows)
                rows.append(r)
                return True
            r ^= rows[i]
        return False

    def rref(self):
        rows, pivots = self.rows, self.pivots
        mask = 0
        for c in pivots:
            mask |= 1 << c
        # highest pivot first: every row it is reduced against is already reduced,
        # so clearing one pivot column never sets another
        for c in sorted(pivots, reverse=True):
            i = pivots[c]
            r = rows[i]
            hits = (r & mask) ^ (1 << c)
            while hits:
                low = hits & -hits
                r ^= rows[pivots[low.bit_length() - 1]]
                hits ^= low
            rows[i] = r
        return [dict.fromkeys(_bits(r), 1) for r in rows], pivots


class _FpEchelon(Echelon):
    """Rows are {col: int in [1, p)} tails right of a pivot of value 1."""

    def __init__(self, p):
        super().__init__()
        self.p = p

    def add(self, row):
        p = self.p
        r = {}
        for j, v in row.items():
            v %= p
            if v:
                r[j] = v
        pivots = self.pivots
        rows = self.rows
        while r:
            c = min(r)
            i = pivots.get(c)
            if i is None:
                inv = pow(r.pop(c), -1, p)
                pivots[c] = len(rows)
                rows.append({j: v * inv % p for j, v in r.items()})  # fresh: r keeps the table size its deletions left
                return True
            _sub_mod(r, r.pop(c), rows[i], p)
        return False

    def rref(self):
        p, rows, pivots = self.p, self.rows, self.pivots
        for c in sorted(pivots, reverse=True):
            r = rows[pivots[c]]
            for c2 in sorted(j for j in r if j in pivots):
                _sub_mod(r, r.pop(c2), rows[pivots[c2]], p)
        return [{c: 1, **dict(sorted(rows[i].items()))} for c, i in pivots.items()], pivots


def _sub_mod(r, coef, s, p):
    """r -= coef * s over F_p, in place, dropping the entries that vanish."""
    get = r.get
    for j, v in s.items():
        nv = (get(j, 0) - coef * v) % p
        if nv:
            r[j] = nv
        else:
            del r[j]


class _QEchelon(Echelon):
    """Rows are primitive integer tails {col: int} right of an integer pivot.

    A row is scaled once by the lcm of its denominators and then
    eliminated fraction-free: r := (a/g) r - (b/g) s for pivot value a of
    s and entry b of r, g = gcd(a, b), followed by removal of the row's
    content.  `lead[i]` is the pivot value of row i.
    """

    def __init__(self):
        super().__init__()
        self.lead = []

    def add(self, row):
        items = [(j, v) for j, v in row.items() if v]
        if not items:
            return False
        den = lcm(*(v.denominator for _, v in items))
        r = {j: v.numerator * (den // v.denominator) for j, v in items}
        pivots, rows, lead = self.pivots, self.rows, self.lead
        while r:
            c = min(r)
            i = pivots.get(c)
            b = r.pop(c)
            if i is None:
                g = gcd(b, *r.values())
                if b < 0:
                    g = -g
                pivots[c] = len(rows)
                rows.append({j: v // g for j, v in r.items()})  # fresh: r keeps the table size its deletions left
                lead.append(b // g)
                return True
            r, scale = _eliminate(r, b, lead[i], rows[i])
            if scale != 1 and r:
                g = gcd(*r.values())
                if g != 1:
                    r = {j: v // g for j, v in r.items()}
        return False

    def rref(self):
        rows, pivots, lead = self.rows, self.pivots, self.lead
        for c in sorted(pivots, reverse=True):
            i = pivots[c]
            r, a = rows[i], lead[i]
            for c2 in sorted(j for j in r if j in pivots):
                i2 = pivots[c2]
                r, scale = _eliminate(r, r.pop(c2), lead[i2], rows[i2])
                a *= scale
            g = gcd(a, *r.values())
            rows[i] = {j: v // g for j, v in r.items()} if g != 1 else r
            lead[i] = a // g
        out = []
        for c, i in pivots.items():
            a = lead[i]
            out.append({c: Fraction(1), **{j: Fraction(v, a) for j, v in sorted(rows[i].items())}})
        return out, pivots


def _eliminate(r, b, a, s):
    """Clear one entry of an integer row, fraction-free.

    `r` is a row whose entry b (at the pivot column of `s`) was just
    popped, `s` the tail of a pivot row of pivot value a.  Returns
    ((a/g) r - (b/g) s, a/g) with g = gcd(a, b); the caller scales
    whatever else belongs to r (its own pivot value) by a/g.
    """
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        r = {j: a * v for j, v in r.items()}
    get = r.get
    for j, v in s.items():
        nv = get(j, 0) - b * v
        if nv:
            r[j] = nv
        else:
            del r[j]
    return r, a


def echelon(field):
    """An empty `Echelon` over `field` in the field's row representation."""
    if field.p is None:
        return _QEchelon()
    if field.p == 2:
        return _F2Echelon()
    return _FpEchelon(field.p)


def _matrix_echelon(m, target=None, last_first=False, skip=(), columns=False):
    """Echelon of the nonzero rows of a SparseMatrix, fed lowest row first
    (highest first with `last_first`); with `target` ({row: scalar}), of
    the augmented matrix [m | target].  With `columns`, of its columns
    (the rows of the transpose).  The rows (columns) indexed in `skip`
    are neither built nor fed."""
    rows = m.to_rows(skip, columns)
    for i, t in (target or {}).items():
        rows.setdefault(i, {})[m.cols] = t
    e = echelon(m.field)
    for i in sorted(rows, reverse=last_first):
        e.add(rows.pop(i))  # drop each input row once fed: they and the echelon never peak together
    return e


def rref(m):
    """Reduced row echelon form data of a SparseMatrix.

    Returns (pivot_rows, pivots): pivots maps pivot column -> row index,
    and each pivot row is {col: scalar} with pivot value 1.
    """
    return _matrix_echelon(m).rref()


def rank(m, skip=(), columns=False, pivots=None):
    """Rank over the field, by deterministic Gaussian elimination.

    The rows are fed last first: a count does not depend on pivot order,
    and on bar differentials this order leaves far less fill-in.  With
    `columns` the columns are fed instead, last first.

    Clearing: the rows (columns) indexed in `skip` are never built or
    fed, so the result is the rank only if each of them lies in the span
    of the others.  `pivots`, a set, receives the pivot of every echelon
    vector: the lowest column of each reduced row (the lowest row of each
    reduced column).  Where d_{k-1} d_k = 0, the rows of d_k at the pivot
    columns of d_{k-1} are such rows, and the columns of d_{k-1} at the
    pivot rows of d_k (fed by columns) are such columns; `dg.homology`
    hands them on from one block to the next.
    """
    e = _matrix_echelon(m, last_first=True, skip=skip, columns=columns)
    if pivots is not None:
        pivots.update(e.pivots)
    return len(e)


def kernel_basis(m):
    """Basis of the null space {v : m.apply(v) = 0}.

    Returns a list of sparse column vectors, one per non-pivot column,
    ordered by free column index.  len(result) == cols - rank(m).
    """
    f = m.field
    pivot_rows, pivots = rref(m)
    basis = {j: {j: f.one()} for j in range(m.cols) if j not in pivots}
    for c, i in pivots.items():
        for j, v in pivot_rows[i].items():
            if j != c:
                basis[j][c] = f.neg(v)
    return list(basis.values())


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
    AUG = m.cols  # augmented column index
    pivot_rows, pivots = _matrix_echelon(m, target).rref()
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
    e = echelon(f)
    for row in relations:
        e.add(row)
    pivot_rows, pivots = e.rref()
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


class Quotient:
    """k^labels modulo the span of `relations`, in the basis quotient_data keeps.

    `relations` is an iterable of combos {label: scalar} over `labels`,
    consumed once.  `kept` lists the labels whose classes form the
    deterministic complement basis; `project(combo)` maps a combo over
    `labels` to one over `kept`.
    """

    def __init__(self, field, labels, relations):
        self.field = field
        self.labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(self.labels)}
        vectors = ({index[lab]: c for lab, c in rel.items()} for rel in relations)
        kept, matrix = quotient_data(field, len(self.labels), vectors)
        self.kept = tuple(self.labels[i] for i in kept)
        # the image of each label as a combo over `kept`, read once off the projection matrix
        self._images = {lab: {} for lab in self.labels}
        for (i, j), v in matrix.entries.items():
            self._images[self.labels[j]][self.kept[i]] = v

    def project(self, combo):
        return combo_map(self.field, combo, self._images.__getitem__)

    @staticmethod
    def project_in(field, quotients, key, combo):
        """quotients[key].project(combo).

        Where `quotients` has no `key`, a zero combo projects to {} and a
        nonzero one raises ValueError naming the key.
        """
        q = quotients.get(key)
        if q is not None:
            return q.project(combo)
        if any(not field.is_zero(c) for c in combo.values()):
            raise ValueError("no quotient at %r to project a nonzero combo into" % (key,))
        return {}
