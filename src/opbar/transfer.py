"""Homotopy retraction of a dg-algebra onto its homology.

The canonical retract splits each degree as

    A_d = (image of d) (+) (chosen homology representatives) (+) (pivot coexact part)

using deterministic elimination, giving maps p: A -> H, i: H -> A and a
homotopy h with dh + hd = 1 - ip, ph = 0, hi = 0, h^2 = 0.

The transferred operations are the standard sums over planar binary
trees with the homotopy on inner edges: mu_r = p lambda_r (i x ... x i),
where lambda_r of a word is the sum over its binary splits of
mu_2(h lambda(left), h lambda(right)), a single letter x standing for
i(x) in place of h lambda.

Cost.  lambda of a word and h lambda of it are memoised on the subword,
a tuple of (degree, index) letters, across all words and arities, so
each subword is summed once and h applied to it once; the columns of
i, h and p are read once per call.  A word whose output degree
sum(d_i) + r - 2 carries no homology is skipped before any tree sum:
p kills it.  On a sphere model with one class x in degree -n every
word x^r lands in degree -r(n - 1) - 2, so every word is skipped.

Signs are omitted, which is exact over F_2.  mu_2 = p mu (i x i) needs
no sign and is kept over every field; over a field of characteristic
other than 2 a nonzero mu_r with r >= 3 raises AlgebraCheckFailed.  The
result must also pass the structure relations.
"""

from __future__ import annotations

from itertools import product

from .dg import DgModule
from .errors import AlgebraCheckFailed
from .linalg import SparseMatrix, combo_add, combo_map, echelon, kernel_basis
from .modules import DgAlgebra, check_algebra


class Retract:
    """Deterministic strong deformation retract of a DgModule onto H."""

    def __init__(self, module):
        self.module = module
        self.field = module.field
        self._build()

    def _build(self):
        f = self.field
        mod = self.module
        self.h_basis = {}
        self.include = {}
        self.project = {}
        self.homotopy = {}
        decomp = {}
        for d in mod.degrees():
            dim = mod.dim(d)
            # one echelon per degree: a candidate is kept iff it is independent
            # of everything kept before it
            e = echelon(f)
            # image basis: independent columns of D_in, lowest column first
            cols = {}
            for (i, j), v in mod.diff_block(d + 1).entries.items():
                cols.setdefault(j, {})[i] = v
            image_preimage_cols = [j for j in sorted(cols) if e.add(cols[j])]
            image_vectors = [cols[j] for j in image_preimage_cols]
            # homology representatives: kernel vectors of D_out independent mod image
            hom_vectors = [v for v in kernel_basis(mod.diff_block(d)) if e.add(v)]
            # coexact part: unit vectors completing the basis
            coexact = [j for j in range(dim) if e.add({j: f.one()})]
            if len(e) != dim:
                raise AssertionError("decomposition failed in degree %d" % d)
            decomp[d] = (image_vectors, image_preimage_cols, hom_vectors, coexact)
        # assemble matrices: change of basis per degree
        for d in mod.degrees():
            image_vectors, pre_cols, hom_vectors, coexact = decomp[d]
            dim = mod.dim(d)
            nb = len(image_vectors)
            nh = len(hom_vectors)
            # rows of [C | I], C the split basis vectors as columns; the RREF is [I | C^-1]
            rows = [{dim + i: f.one()} for i in range(dim)]
            for col, vec in enumerate(image_vectors + hom_vectors + [{j: f.one()} for j in coexact]):
                for i, v in vec.items():
                    rows[i][col] = v
            e = echelon(f)
            for row in rows:
                e.add(row)
            pivot_rows, pivots = e.rref()
            # coords[j]: the coordinates of e_j in the split basis, column dim + j of C^-1
            coords = [{} for _ in range(dim)]
            for k, i in pivots.items():
                for col, v in pivot_rows[i].items():
                    if col >= dim:
                        coords[col - dim][k] = v
            self.h_basis[d] = nh
            proj = SparseMatrix.zero(f, nh, dim)
            hmat = SparseMatrix.zero(f, mod.dim(d + 1), dim)
            for j in range(dim):
                for k, v in coords[j].items():
                    if nb <= k < nb + nh:
                        proj.add_to(k - nb, j, v)
                    elif k < nb:
                        # homotopy: image vector k has preimage column pre_cols[k]
                        hmat.add_to(pre_cols[k], j, v)
            self.project[d] = proj
            self.homotopy[d] = hmat
            inc = SparseMatrix.zero(f, dim, nh)
            for a, vec in enumerate(hom_vectors):
                for i, v in vec.items():
                    inc.add_to(i, a, v)
            self.include[d] = inc

    def homology_module(self):
        basis = {d: tuple(("h", d, a) for a in range(n)) for d, n in self.h_basis.items() if n}
        return DgModule(self.field, basis, {})

    def verify(self):
        """dh + hd = 1 - ip and the side conditions, matrixwise."""
        f = self.field
        mod = self.module
        for d in mod.degrees():
            dim = mod.dim(d)
            D_out = mod.diff_block(d)
            D_in = mod.diff_block(d + 1)
            h_d = self.homotopy[d]
            h_prev = self.homotopy.get(d - 1, SparseMatrix.zero(f, mod.dim(d), mod.dim(d - 1)))
            lhs = D_in.matmul(h_d).add(h_prev.matmul(D_out))
            rhs = SparseMatrix.identity(f, dim).sub(self.include[d].matmul(self.project[d]))
            if not lhs.sub(rhs).is_zero():
                return False
            if not self.project[d].matmul(self.include[d]).sub(
                SparseMatrix.identity(f, self.h_basis[d])
            ).is_zero():
                return False
        return True


def transfer_a_infinity(algebra, max_arity, retract=None):
    """Transferred Stasheff-algebra structure on the homology.

    Sign-free tree sums: exact over F_2.  Over a field of another
    characteristic a nonzero mu_r with r >= 3 raises AlgebraCheckFailed;
    otherwise the result is returned only if it passes the structure
    relations.  `retract`, a Retract of the algebra's module, is built
    here when not given.
    """
    f = algebra.field
    ret = retract if retract is not None else Retract(algebra.module)
    if not ret.verify():
        raise AssertionError("retract construction failed verification")
    ops = _tree_sums(algebra, ret, max_arity)
    higher = [r for r in ops if r >= 3]
    if higher and f.p != 2:
        raise AlgebraCheckFailed(
            "transferred mu_%d is nonzero over %r: the sign-free transfer is exact only over F_2"
            % (higher[0], f)
        )
    out = DgAlgebra(f, "ainf", ret.homology_module(), ops, name="H(%s)" % algebra.name)
    ok, diags = check_algebra(out, max_arity + 1)
    if not ok:
        raise AlgebraCheckFailed(
            "transferred structure fails the relations (signs are only valid over F_2): %s"
            % "; ".join(diags[:2])
        )
    return out


def _tree_sums(algebra, ret, max_arity):
    """{r: table} of the nonzero p lambda_r (i x ... x i), 2 <= r <= max_arity.

    Table keys are words of ("h", d, a) labels in `product` order.
    """
    f = algebra.field
    mod = algebra.module
    # label-keyed columns of i, h and p, built once
    include, homotopy, project = {}, {}, {}
    for d in mod.degrees():
        labels, up = mod.labels(d), mod.labels(d + 1)
        for (i, a), v in ret.include[d].entries.items():
            include.setdefault((d, a), {})[(d, labels[i])] = v
        for (i, j), v in ret.homotopy[d].entries.items():
            homotopy.setdefault((d, labels[j]), {})[(d + 1, up[i])] = v
        for (k, j), v in ret.project[d].entries.items():
            project.setdefault((d, labels[j]), {})[("h", d, k)] = v

    # memos over subwords of (degree, index) letters, shared by every word
    # of every arity; their combos are read, never modified
    lam = {}
    edge = {(x,): col for x, col in include.items()}

    def lam_of(word):
        """lambda on a word of length >= 2: a sum over the binary splits."""
        out = lam.get(word)
        if out is None:
            out = lam[word] = {}
            for s in range(1, len(word)):
                right = edge_of(word[s:])
                for (d1, l1), c1 in edge_of(word[:s]).items():
                    for (d2, l2), c2 in right.items():
                        c12 = f.mul(c1, c2)
                        for l3, c3 in algebra.op_apply(2, (l1, l2)).items():
                            combo_add(f, out, (d1 + d2, l3), f.mul(c12, c3))
        return out

    def edge_of(word):
        """The value on an edge above `word`: i(x) for a letter, else h lambda."""
        out = edge.get(word)
        if out is None:
            out = edge[word] = combo_map(f, lam_of(word), lambda key: homotopy.get(key, {}))
        return out

    letters = [(d, a) for d in sorted(ret.h_basis) for a in range(ret.h_basis[d])]
    ops = {}
    for r in range(2, max_arity + 1):
        table = {}
        for word in product(letters, repeat=r):
            # lambda_r lands in degree sum(d) + r - 2; with no homology there,
            # p kills it
            if not ret.h_basis.get(sum(d for d, _ in word) + r - 2):
                continue
            projected = combo_map(f, lam_of(word), lambda key: project.get(key, {}))
            if projected:
                table[tuple(("h", d, a) for (d, a) in word)] = projected
        if table:
            ops[r] = table
    return ops
