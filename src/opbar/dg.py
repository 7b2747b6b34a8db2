"""Differential graded modules over an exact coefficient field.

Grading is lower (homological): the differential has degree -1.  Upper
graded (cochain) data is imported via C^n -> C_{-n} at the boundary of
the simplicial module, so everything downstream sees one convention.

A DgModule stores a finite basis per degree inside its support window
and is zero outside; constructions that are infinite in nature (bar
complexes) choose finite truncations *before* building a DgModule, and
their soundness rules live with them.

Sign conventions, fixed once:
  * tensor differential      d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy
  * operator evaluation      (f (x) g)(x (x) y) = (-1)^{|g||x|} f(x) (x) g(y)
  * suspension               d(s x) = -s(d x)
  * symmetry                 x (x) y -> (-1)^{|x||y|} y (x) x
`koszul_diff` is the one implementation of the tensor differential: the
tensor products here, the word spaces and coequalizers of `sigma.py` and
`modules.py`, `check_algebra`, the coproducts of `catbar.py` and the
fixtures all take their word differentials from it.  The one exception
is `BarComplex` (`bar.py`): it stores each suspended letter's
differential once, with its coefficient after an even and after an odd
suspended prefix and the suspension sign d(sa) = -s(da) already folded
in, and it codes each letter by its index in the algebra's basis, so
its words are tuples of small ints until it decodes its basis.  That
loop is the hot path of every bar table, and a callback per letter
would only slow it.
Every DgModule checks d^2 = 0 once, when it is built (the constructor,
`from_rule` and `from_data` alike, with no way to skip it), which pins
the conventions in practice.  So d^2 = 0 holds for every module that
exists, and `homology` ranks its blocks by clearing (see
`_cleared_ranks`), which needs it.  Every comparison isomorphism is
certified by `DgMap.require_iso`.
"""

from __future__ import annotations

from functools import cached_property

from .errors import CompositionNotZero, FieldMismatch, NotAnIsomorphism
from .linalg import SparseMatrix, combo_add, rank


class DegreeWindow:
    """Closed degree interval [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError("empty window [%d, %d]" % (lo, hi))
        self.lo = lo
        self.hi = hi

    def __contains__(self, d):
        return self.lo <= d <= self.hi

    def __eq__(self, other):
        return isinstance(other, DegreeWindow) and (self.lo, self.hi) == (other.lo, other.hi)

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __repr__(self):
        return "[%d, %d]" % (self.lo, self.hi)


class DgModule:
    """Finite dg-module: ordered basis labels per degree plus differential.

    `basis` maps degree -> tuple of hashable labels; `diff` maps degree d
    -> SparseMatrix representing C_d -> C_{d-1} in the stored basis
    orders.  Degrees absent from `basis` are zero.
    """

    def __init__(self, field, basis, diff):
        self.field = field
        self.basis = {d: tuple(labels) for d, labels in basis.items() if labels}
        self.diff = {}
        for d, m in diff.items():
            if m is None or m.is_zero():
                continue
            self.diff[d] = m
        for d, m in self.diff.items():
            if m.cols != self.dim(d) or m.rows != self.dim(d - 1):
                raise ValueError("differential block at degree %d has wrong shape" % d)
        self.check_differential()

    @cached_property
    def _index(self):
        """{degree: {label: position}}, built on first use (no caller reads it on a top-level bar module)."""
        return {d: {label: i for i, label in enumerate(labels)} for d, labels in self.basis.items()}

    # basic queries --------------------------------------------------------

    def degrees(self):
        return sorted(self.basis)

    def dim(self, d):
        return len(self.basis.get(d, ()))

    def total_dim(self):
        return sum(len(v) for v in self.basis.values())

    def window(self):
        if not self.basis:
            return None
        ds = self.degrees()
        return DegreeWindow(ds[0], ds[-1])

    def index(self, d, label):
        return self._index[d][label]

    def labels(self, d):
        return self.basis.get(d, ())

    def basis_pairs(self):
        """The basis as (degree, label) pairs, degree by degree."""
        return [(d, label) for d in self.degrees() for label in self.basis[d]]

    def diff_block(self, d):
        m = self.diff.get(d)
        if m is None:
            return SparseMatrix.zero(self.field, self.dim(d - 1), self.dim(d))
        return m

    def is_zero(self):
        return not self.basis

    def check_differential(self):
        for d in list(self.diff):
            below = self.diff.get(d - 1)
            if below is not None and not below.matmul(self.diff[d]).is_zero():
                raise CompositionNotZero("d^2 != 0 from degree %d" % d)

    # element helpers -------------------------------------------------------

    def vector(self, d, combo):
        """{label: scalar} -> sparse index vector in degree d."""
        idx = self._index.get(d, {})
        return {idx[l]: c for l, c in combo.items() if not self.field.is_zero(c)}

    def combo(self, d, vec):
        labels = self.basis.get(d, ())
        return {labels[i]: c for i, c in vec.items()}

    def apply_diff(self, d, combo):
        return self.combo(d - 1, self.diff_block(d).apply(self.vector(d, combo)))

    def differential_combo(self, letter):
        """d of a basis letter (degree, label), as {(degree - 1, label2): coeff}."""
        d, label = letter
        return {(d - 1, l2): c for l2, c in self.apply_diff(d, {label: self.field.one()}).items()}

    # constructions ----------------------------------------------------------

    @staticmethod
    def zero(field):
        return DgModule(field, {}, {})

    @staticmethod
    def ground(field, label="1", degree=0):
        return DgModule(field, {degree: (label,)}, {})

    @staticmethod
    def from_rule(field, basis, rule):
        """Build from a basis {degree: labels} and rule(d, label) -> {label in degree d-1: coeff}.

        A rule that names a label outside the basis of degree d-1 raises
        ValueError naming it.  The blocks are filled into the module built
        on the basis alone, then checked, so the module keeps one label
        index.
        """
        mod = DgModule(field, basis, {})
        p = field.p
        for d in mod.degrees():
            below = mod._index.get(d - 1, {})
            m = SparseMatrix.zero(field, len(below), mod.dim(d))
            # a combo's labels are distinct, so each entry is written once
            for j, label in enumerate(mod.basis[d]):
                for lab2, c in rule(d, label).items():
                    i = below.get(lab2)
                    if i is None:
                        raise ValueError("d(%r) names %r, not a basis label in degree %d" % (label, lab2, d - 1))
                    if p:
                        c %= p
                    if c:
                        m.entries[(i, j)] = c
            if not m.is_zero():
                mod.diff[d] = m
        mod.check_differential()
        return mod

    @staticmethod
    def from_data(field, elements, diff_map=None):
        """Build from [(label, degree)] and {label: {label2: coeff}}."""
        basis = {}
        degree_of = {}
        for label, d in elements:
            basis.setdefault(d, []).append(label)
            if label in degree_of:
                raise ValueError("duplicate label %r" % (label,))
            degree_of[label] = d
        diff_map = diff_map or {}
        for src in diff_map:
            if src not in degree_of:
                raise ValueError("differential given for unknown label %r" % (src,))
        return DgModule.from_rule(field, basis, lambda d, label: diff_map.get(label, {}))

    def __repr__(self):
        w = self.window()
        return "DgModule(%r, dims %s)" % (
            self.field,
            {d: self.dim(d) for d in self.degrees()} if w else "0",
        )


class DgMap:
    """Homogeneous map of dg-modules of a fixed degree.

    `blocks` maps source degree d -> SparseMatrix source_d ->
    target_{d+degree}.  A degree-k chain map satisfies
    d f = (-1)^k f d.
    """

    def __init__(self, source, target, degree, blocks):
        self.source = source
        self.target = target
        self.degree = degree
        self.blocks = {}
        for d, m in blocks.items():
            if m is None or m.is_zero():
                continue
            if m.cols != source.dim(d) or m.rows != target.dim(d + degree):
                raise ValueError("block at degree %d has wrong shape" % d)
            self.blocks[d] = m

    def block(self, d):
        m = self.blocks.get(d)
        if m is None:
            return SparseMatrix.zero(self.source.field, self.target.dim(d + self.degree), self.source.dim(d))
        return m

    @staticmethod
    def from_rule(source, target, degree, rule):
        """rule(d, label) -> {target_label: coeff} in degree d+degree."""
        p = source.field.p
        blocks = {}
        for d in source.degrees():
            td = d + degree
            index = target._index.get(td, {})
            m = blocks[d] = SparseMatrix.zero(source.field, target.dim(td), source.dim(d))
            # a combo's labels are distinct, so each entry is written once
            for j, label in enumerate(source.labels(d)):
                for out_label, c in rule(d, label).items():
                    i = index.get(out_label)
                    if i is None:
                        target.index(td, out_label)  # raises the KeyError naming the label or degree
                    if p:
                        c %= p
                    if c:
                        m.entries[(i, j)] = c
        return DgMap(source, target, degree, blocks)

    @staticmethod
    def identity(module):
        return DgMap(
            module,
            module,
            0,
            {d: SparseMatrix.identity(module.field, module.dim(d)) for d in module.degrees()},
        )

    def apply(self, d, combo):
        vec = self.block(d).apply(self.source.vector(d, combo))
        return self.target.combo(d + self.degree, vec)

    def images(self, d):
        """The image of every basis vector of degree d, as {column: combo}.

        One pass over the block's entries, where `apply` walks them all
        for each vector.  Columns with a zero image are absent.  Each
        combo lists its labels in the order `apply` gives them, with the
        stored scalars.
        """
        m = self.blocks.get(d)
        if m is None:
            return {}
        labels = self.target.labels(d + self.degree)
        out = {}
        for (i, j), v in m.entries.items():
            col = out.get(j)
            if col is None:
                out[j] = {labels[i]: v}
            else:
                col[labels[i]] = v
        return out

    def is_chain_map(self):
        f = self.source.field
        sign = f.sign(self.degree)
        for d in self.source.degrees():
            lhs = self.target.diff_block(d + self.degree).matmul(self.block(d))
            rhs = self.block(d - 1).matmul(self.source.diff_block(d)).scale(sign)
            if not lhs.sub(rhs).is_zero():
                return False
        return True

    def is_iso(self):
        """Bijective in every degree (degree-0 maps only)."""
        if self.degree != 0:
            return False
        degs = set(self.source.degrees()) | set(self.target.degrees())
        for d in degs:
            if self.source.dim(d) != self.target.dim(d):
                return False
            if rank(self.block(d)) != self.source.dim(d):
                return False
        return True

    def require_iso(self, what):
        """self if it is a chain map and bijective in every degree; NotAnIsomorphism naming `what` otherwise."""
        if not self.is_chain_map():
            raise NotAnIsomorphism("%s is not a chain map" % what)
        if not self.is_iso():
            raise NotAnIsomorphism("%s is not bijective" % what)
        return self


# tensor products -----------------------------------------------------------


def koszul_diff(field, word, letter_diff):
    """The Koszul differential of a tensor word, as {word2: coeff}.

    d(x_1 ... x_n) = sum_j (-1)^{|x_1| + ... + |x_{j-1}|} x_1 ... dx_j ... x_n.
    `word` is a tuple of letters and `letter_diff(j, x)` returns (|x|, dx)
    for the letter x at position j, dx a combo over letters.  Terms are
    summed in position order.
    """
    out = {}
    prefix = 0
    for j, x in enumerate(word):
        degree, dx = letter_diff(j, x)
        sgn = field.sign(prefix)
        for x2, c in dx.items():
            combo_add(field, out, word[:j] + (x2,) + word[j + 1 :], field.mul(sgn, c))
        prefix += degree
    return out


def tensor(a, b):
    """Tensor product with the Koszul differential; labels are pairs."""
    if a.field != b.field:
        raise FieldMismatch("tensor over different fields")
    field = a.field
    basis = {}
    degree_pairs = {}
    for da in a.degrees():
        for db in b.degrees():
            degree_pairs.setdefault(da + db, []).append((da, db))
    split = {}  # tensor degree -> {pair label: its factor degrees (da, db)}
    for d in sorted(degree_pairs):
        basis[d] = tuple((x, y) for da, db in degree_pairs[d] for x in a.labels(da) for y in b.labels(db))
        split[d] = {(x, y): (da, db) for da, db in degree_pairs[d] for x in a.labels(da) for y in b.labels(db)}
    one = field.one()
    diffs = [{(dx, x): m.apply_diff(dx, {x: one}) for dx in m.degrees() for x in m.labels(dx)} for m in (a, b)]

    def rule(d, label):
        degrees = split[d][label]
        return koszul_diff(field, label, lambda j, x: (degrees[j], diffs[j][(degrees[j], x)]))

    return DgModule.from_rule(field, basis, rule)


def suspension(a):
    """Degree shift by +1 with d(s x) = -s(d x); labels are tagged with 's'."""
    field = a.field
    basis = {d + 1: tuple(("s", l) for l in a.labels(d)) for d in a.degrees()}
    diff = {d + 1: a.diff_block(d).scale(field.sign(1)) for d in a.diff}
    return DgModule(field, basis, diff)


def homology(a, window=None):
    """dim H_d for every degree d with d-1, d, d+1 inside the support.

    With `window` given, degrees are restricted to it; the module is
    zero outside its basis support, so boundary degrees are exact too.

    The blocks are ranked by clearing (`_cleared_ranks`), which needs
    d^2 = 0: every DgModule checked it when it was built.
    """
    w = a.window()
    if w is None:
        return {d: 0 for d in window} if window else {}
    degrees = list(window) if window is not None else list(w)
    ranks = _cleared_ranks(a, degrees[0], degrees[-1])
    return {d: a.dim(d) - ranks[d] - ranks[d + 1] for d in degrees}


def _cleared_ranks(a, lo, hi):
    """{k: rank d_k} for lo <= k <= hi + 1, by clearing; needs d^2 = 0.

    The blocks are ranked in sequence, each by one `rank` call, starting
    from the end whose first block feeds fewer vectors.  Going up
    (dim C_{lo-1} <= dim C_{hi+1}) the rows are eliminated, and the rows
    of d_k at the pivot columns of d_{k-1} are skipped; going down the
    columns are, and the columns of d_k at the pivot rows of d_{k+1} are
    skipped.  Why no rank changes, going up (down is the transpose): an
    echelon row v of d_{k-1} is a combination of its rows with lowest
    entry at its pivot c, and v d_k = 0 since d_{k-1} d_k = 0, so row c
    of d_k lies in the span of the rows past c.  By induction from the
    highest pivot down, every skipped row lies in the span of the rows
    fed.  After clearing, only homology classes reduce to zero.
    """
    up = a.dim(lo - 1) <= a.dim(hi + 1)
    cleared = set()
    ranks = {}
    for k in range(lo, hi + 2) if up else range(hi + 1, lo - 1, -1):
        block = a.diff_block(k)
        pivots = set()
        ranks[k] = rank(block, skip=cleared, columns=not up, pivots=pivots) if block.entries else 0
        cleared = pivots
    return ranks
