"""Homotopy retraction of a dg-algebra onto its homology.

The canonical retract splits each degree as

    A_d = (image of d) (+) (chosen homology representatives) (+) (pivot coexact part)

using deterministic elimination, giving maps p: A -> H, i: H -> A and a
homotopy h with dh + hd = 1 - ip, ph = 0, hi = 0, h^2 = 0.

The transferred operations are the standard sums over planar binary
trees with the homotopy on inner edges.  Signs are omitted, which is
correct over F_2; for other fields the construction is accepted only
when the result verifies the structure relations (in particular, when
every operation is forced to vanish for degree reasons the result is
valid over any field).
"""

from __future__ import annotations

from .dg import DgModule
from .errors import AlgebraCheckFailed
from .linalg import SparseMatrix, _reduce_into, kernel_basis, solve
from .modules import DgAlgebra, check_algebra
from .sigma import _combo_add


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
            # one echelon state per degree, (pivot_rows, pivots): a candidate
            # is kept iff it is independent of everything kept before it
            echelon = ([], {})
            # image basis: independent columns of D_in, lowest column first
            cols = {}
            for (i, j), v in mod.diff_block(d + 1).entries.items():
                cols.setdefault(j, {})[i] = v
            image_preimage_cols = [j for j in sorted(cols) if _reduce_into(f, dict(cols[j]), *echelon)]
            image_vectors = [cols[j] for j in image_preimage_cols]
            # homology representatives: kernel vectors of D_out independent mod image
            hom_vectors = [v for v in kernel_basis(mod.diff_block(d)) if _reduce_into(f, dict(v), *echelon)]
            # coexact part: unit vectors completing the basis
            coexact = [j for j in range(dim) if _reduce_into(f, {j: f.one()}, *echelon)]
            if len(echelon[1]) != dim:
                raise AssertionError("decomposition failed in degree %d" % d)
            decomp[d] = (image_vectors, image_preimage_cols, hom_vectors, coexact)
        # assemble matrices: change of basis per degree
        for d in mod.degrees():
            image_vectors, pre_cols, hom_vectors, coexact = decomp[d]
            dim = mod.dim(d)
            nb = len(image_vectors)
            nh = len(hom_vectors)
            cols_matrix = SparseMatrix.zero(f, dim, dim)
            col = 0
            for vec in image_vectors:
                for i, v in vec.items():
                    cols_matrix.add_to(i, col, v)
                col += 1
            for vec in hom_vectors:
                for i, v in vec.items():
                    cols_matrix.add_to(i, col, v)
                col += 1
            for j in coexact:
                cols_matrix.add_to(j, col, f.one())
                col += 1
            # solve for each standard basis vector: coordinates in the split basis
            self.h_basis[d] = nh
            proj = SparseMatrix.zero(f, nh, dim)
            hmat = SparseMatrix.zero(f, mod.dim(d + 1), dim)
            for j in range(dim):
                coords = solve(cols_matrix, {j: f.one()})
                for k, v in coords.items():
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

    def homology_module(self, wrap=None):
        wrap = wrap or (lambda d, a: ("h", d, a))
        basis = {d: tuple(wrap(d, a) for a in range(n)) for d, n in self.h_basis.items() if n}
        return DgModule(self.field, basis, {}, check=False)

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


def transfer_a_infinity(algebra, max_arity, name=None):
    """Transferred Stasheff-algebra structure on the homology.

    Sign-free tree sums: exact over F_2; over other fields the result is
    returned only if it passes the structure relations (e.g. when all
    operations vanish for degree reasons).
    """
    f = algebra.field
    ret = Retract(algebra.module)
    if not ret.verify():
        raise AssertionError("retract construction failed verification")
    hmod = ret.homology_module()
    h_labels = {d: hmod.labels(d) for d in hmod.degrees()}

    def include_combo(d, a):
        col = ret.include[d].column(a)
        return {(d, algebra.module.labels(d)[i]): v for i, v in col.items()}

    # lambda_r on included elements, recursively with h on inner edges
    def lam(args):
        """args: list of combos over (degree, label); returns combo."""
        if len(args) == 1:
            return args[0]
        out = {}
        r = len(args)
        for s in range(1, r):
            left = lam(args[:s])
            right = lam(args[s:])
            left_h = _apply_h(ret, left) if s > 1 else left
            right_h = _apply_h(ret, right) if r - s > 1 else right
            for (d1, l1), c1 in left_h.items():
                for (d2, l2), c2 in right_h.items():
                    for l3, c3 in algebra.op_apply(2, (l1, l2)).items():
                        _combo_add(f, out, (d1 + d2, l3), f.mul(f.mul(c1, c2), c3))
        return out

    ops = {}
    for r in range(2, max_arity + 1):
        table = {}
        degree_lists = [(d, a) for d in sorted(h_labels) for a in range(len(h_labels[d]))]

        def words(k):
            if k == 0:
                yield ()
                return
            for rest in words(k - 1):
                for da in degree_lists:
                    yield rest + (da,)

        for word in words(r):
            args = [include_combo(d, a) for (d, a) in word]
            total = lam(args)
            projected = {}
            for (d, l), c in total.items():
                col = ret.project[d].column(algebra.module.index(d, l))
                for idx, v in col.items():
                    _combo_add(f, projected, ("h", d, idx), f.mul(c, v))
            if projected:
                table[tuple(("h", d, a) for (d, a) in word)] = projected
        if table:
            ops[r] = table
    out = DgAlgebra(f, "ainf", hmod, ops, name=name or ("H(%s)" % algebra.name))
    ok, diags = check_algebra(out, max_arity + 1, report=True)
    if not ok:
        raise AlgebraCheckFailed(
            "transferred structure fails the relations (signs are only valid over F_2): %s"
            % "; ".join(diags[:2])
        )
    return out


def _apply_h(ret, combo):
    f = ret.field
    out = {}
    for (d, l), c in combo.items():
        col = ret.homotopy[d].column(ret.module.index(d, l))
        labels_up = ret.module.labels(d + 1)
        for i, v in col.items():
            _combo_add(f, out, (d + 1, labels_up[i]), f.mul(c, v))
    return out
