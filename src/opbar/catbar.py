"""The categorical bar construction and its comparison with the bar.

The simplicial object C(A) has level n the n-fold coproduct of A; for
non-unital commutative algebras the coproduct has the closed form

    A v B = A (+) B (+) A (x) B,

so level n is the direct sum over nonempty subsets S of {1..n} of the
tensor products A^{(x)S}.  One index rule gives every face and
degeneracy: d_i keeps the indices up to i and moves those past it down
one, dropping index 1 under d_0 and index n under d_n, and s_j moves the
indices past j up one.  On C(A) a dropped slot kills the word and the
two slots an inner face sends to one index fold through the product
(the codiagonal); on the module version C_R the colors are renamed the
same way.  `SimplicialDgModule.from_maps` is the one loop that builds
the maps of every level, and every simplicial dg-module checks the
simplicial identities when it is built.

Normalized chains are the quotient by degeneracy images with a
deterministic complement; the total differential is

    D = delta_internal + (-1)^q (sum_i (-1)^i d_i)        (q = internal degree)

and the comparison with the bar complex is the signed basis bijection

    a_1 (x) ... (x) a_n  |->  (-1)^{sum_j j |a_j|} (n, a_1 (x) ... (x) a_n),

which the tests verify to be an isomorphism of dg-algebras, matching
the shuffle product against the Eilenberg-Mac Lane product.

That product is the shuffle map into N(C (x) C) followed by the
levelwise product, but its table skips N(C (x) C): projecting there
first changes nothing, since the levelwise product commutes with the
degeneracies.  One helper, `_shuffle_sum`, holds the sign convention.
"""

from __future__ import annotations

from itertools import combinations, product

from . import perm
from .bar import bar, full_window, shuffle_word_product, sound_weight_bound
from .dg import DgMap, DgModule, koszul_diff, tensor as dg_tensor
from .errors import FieldMismatch, NotCommutative, SimplicialIdentityViolation
from .linalg import Quotient, combo_add, combo_map
from .sigma import SigmaModule, compose


class SimplicialDgModule:
    """Levels of dg-modules with face/degeneracy chain maps.

    `faces[(n, i)]` and `degeneracies[(n, j)]` are DgMaps out of level
    n; identities are verified on basis vectors up to the dimension bound.
    """

    def __init__(self, field, levels, faces, degeneracies, dimension_bound):
        self.field = field
        self.levels = levels
        self.faces = faces
        self.degeneracies = degeneracies
        self.dimension_bound = dimension_bound
        self.check_identities()

    @classmethod
    def from_maps(cls, field, levels, bound, face, degeneracy):
        """The object whose d_i and s_j out of level n are face(n, i) and
        degeneracy(n, j), for every level up to `bound`."""
        faces = {(n, i): face(n, i) for n in range(1, bound + 1) for i in range(n + 1)}
        degeneracies = {(n, j): degeneracy(n, j) for n in range(bound) for j in range(n + 1)}
        return cls(field, levels, faces, degeneracies, bound)

    def level(self, n):
        mod = self.levels.get(n)
        return mod if mod is not None else DgModule.zero(self.field)

    def face(self, n, i):
        return self.faces[(n, i)]

    def degeneracy(self, n, j):
        return self.degeneracies[(n, j)]

    def check_identities(self):
        """d_i d_j = d_{j-1} d_i (i<j), the s_j relations, and mixed.

        Each side is composed on basis vectors: the image of a vector under
        the first map, sent through the images of the second.  The images
        of a map (`DgMap.images`) are read once per degree.
        """
        f = self.field
        one = f.one()
        read = {}  # id of a map, degree -> its images by source label

        def images(g, d):
            out = read.get((id(g), d))
            if out is None:
                labels = g.source.labels(d)
                out = read[(id(g), d)] = {labels[j]: c for j, c in g.images(d).items()}
            return out

        def composite(g, h):
            """g after h, as (degree, {(source degree, label): image})."""
            if h.target is not g.source and h.target.basis != g.source.basis:
                raise ValueError("composition source/target mismatch")
            out = {}
            for d in h.source.degrees():
                later = images(g, d + h.degree)
                for lab, combo in images(h, d).items():
                    if len(combo) == 1:
                        # most images are one signed label: a face or degeneracy moves indices
                        [(x, c)] = combo.items()
                        image = later.get(x)
                        if image is not None:
                            out[(d, lab)] = image if c == one else {y: f.mul(c, v) for y, v in image.items()}
                    else:
                        image = combo_map(f, combo, lambda x: later.get(x, {}))
                        if image:
                            out[(d, lab)] = image
            return g.degree + h.degree, out

        for n in range(2, self.dimension_bound + 1):
            for j in range(n + 1):
                for i in range(j):
                    lhs = composite(self.face(n - 1, i), self.face(n, j))
                    rhs = composite(self.face(n - 1, j - 1), self.face(n, i))
                    if lhs != rhs:
                        raise SimplicialIdentityViolation("d_%d d_%d at level %d" % (i, j, n))
        for n in range(0, self.dimension_bound):
            identity = (0, {(d, lab): {lab: one} for d, lab in self.level(n).basis_pairs()})
            for i in range(n + 1):
                for j in range(n + 1):
                    lhs = composite(self.face(n + 1, i), self.degeneracy(n, j))
                    # level 0 has i = j = 0 only: the identity case
                    if i < j:
                        rhs = composite(self.degeneracy(n - 1, j - 1), self.face(n, i))
                    elif i in (j, j + 1):
                        rhs = identity
                    else:
                        rhs = composite(self.degeneracy(n - 1, j), self.face(n, i - 1))
                    if lhs != rhs:
                        raise SimplicialIdentityViolation("d_%d s_%d at level %d" % (i, j, n))
        for n in range(0, self.dimension_bound - 1):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    lhs = composite(self.degeneracy(n + 1, i), self.degeneracy(n, j))
                    rhs = composite(self.degeneracy(n + 1, j + 1), self.degeneracy(n, i))
                    if lhs != rhs:
                        raise SimplicialIdentityViolation("s_%d s_%d at level %d" % (i, j, n))


class NormalizedComplex:
    """N_*(C): quotient of each level by the degeneracy images.

    `module` is the total dg-module with labels (n, level_label) and
    degree n + internal degree; `quotients[(n, q)]` presents level n in
    internal degree q, and `project(n, q, combo)` maps level elements
    into the kept basis.
    """

    def __init__(self, simplicial):
        self.simplicial = simplicial
        self.field = simplicial.field
        self.quotients = {}
        self._build()

    def _build(self):
        f = self.field
        sx = self.simplicial
        basis = {}
        for n in range(sx.dimension_bound + 1):
            lvl = sx.level(n)
            for q in lvl.degrees():
                relations = []
                if n >= 1:
                    dim = sx.level(n - 1).dim(q)
                    for j in range(n):
                        images = sx.degeneracy(n - 1, j).images(q)
                        relations.extend(images.get(k, {}) for k in range(dim))
                self.quotients[(n, q)] = Quotient(f, lvl.labels(q), relations)
                basis.setdefault(n + q, []).extend((n, label) for label in self.quotients[(n, q)].kept)

        # the signed face images of one (n, q) group at a time: the rule
        # visits the labels of each group together
        group = {}

        def faces(n, q):
            if (n, q) not in group:
                group.clear()
                group[(n, q)] = [(f.sign(q + i), sx.face(n, i).images(q)) for i in range(n + 1)]
            return group[(n, q)]

        def rule(d, label):
            n, lab = label
            q = d - n
            out = {}
            # internal differential
            for lab2, c in self.project(n, q - 1, sx.level(n).apply_diff(q, {lab: f.one()})).items():
                combo_add(f, out, (n, lab2), c)
            # simplicial boundary with the bicomplex sign (-1)^(q + i)
            if n >= 1:
                j = sx.level(n).index(q, lab)
                for coeff, images in faces(n, q):
                    image = images.get(j)
                    if image:
                        for lab2, c in self.project(n - 1, q, image).items():
                            combo_add(f, out, (n - 1, lab2), f.mul(coeff, c))
            return out

        self.module = DgModule.from_rule(f, dict(sorted(basis.items())), rule)

    def project(self, n, q, combo):
        """Project a level-n internal-degree-q combo to kept labels."""
        return Quotient.project_in(self.field, self.quotients, (n, q), combo)


# coproducts of commutative algebras -------------------------------------------


def _coproduct_module(algebras):
    """The carrier dg-module of A_1 v ... v A_n, with no product table, and
    its labels (S, word), subset by subset with S in lexicographic order."""
    if not algebras:
        raise ValueError("need at least one algebra")
    field = algebras[0].field
    for a in algebras:
        if a.field != field:
            raise FieldMismatch("coproduct over different fields")
        if not a.is_commutative_kind():
            raise NotCommutative("closed-form coproduct needs commutative algebras")
    n = len(algebras)
    subsets = sorted(S for k in range(1, n + 1) for S in combinations(range(1, n + 1), k))
    labels = [(S, w) for S in subsets for w in product(*(algebras[i - 1].module.basis_pairs() for i in S))]
    diff = {}
    for S, w in labels:
        targets = koszul_diff(field, w, lambda j, x: (x[0], algebras[S[j] - 1].module.differential_combo(x)))
        if targets:
            diff[(S, w)] = {(S, w2): c for w2, c in targets.items()}
    elements = [((S, w), sum(d for d, _ in w)) for S, w in labels]
    return DgModule.from_data(field, elements, diff), labels


def _coproduct_product(field, algebras, left, right):
    """Multiply (S, u) by (T, v): interleave and fold overlaps."""
    S, u = left
    T, v = right
    U = tuple(sorted(set(S) | set(T)))
    # Koszul: rearrange the concatenated letters into U-order, x before y
    items = list(zip(S + T, u + v))
    _, e = perm.koszul_sort(S + T, [d for _, (d, _) in items])
    sign = field.sign(e)
    # fold: walk U; overlap indices multiply in their algebra
    letters_per_index = {}
    for i, letter in items:
        letters_per_index.setdefault(i, []).append(letter)
    result_words = [((), sign)]
    for i in U:
        letters = letters_per_index[i]
        if len(letters) == 1:
            result_words = [(w + (letters[0],), c) for w, c in result_words]
        else:
            (d1, l1), (d2, l2) = letters
            prod = algebras[i - 1].op_apply(2, (l1, l2))
            nxt = []
            for w, c in result_words:
                for l3, c3 in prod.items():
                    nxt.append((w + ((d1 + d2, l3),), field.mul(c, c3)))
            result_words = nxt
    out = {}
    for w, c in result_words:
        if not field.is_zero(c):
            combo_add(field, out, (U, w), c)
    return out


# the simplicial categorical bar ------------------------------------------------


def simplicial_categorical_bar(algebra, dimension_bound):
    """C(A)_n = A^{v n} with fold faces and zero-insertion degeneracies."""
    if not algebra.is_commutative_kind():
        raise NotCommutative("the categorical bar needs a commutative algebra")
    field = algebra.field
    levels = {0: DgModule.zero(field)}
    levels.update((n, _coproduct_module([algebra] * n)[0]) for n in range(1, dimension_bound + 1))
    return SimplicialDgModule.from_maps(
        field,
        levels,
        dimension_bound,
        lambda n, i: _slot_map(algebra, levels[n], levels[n - 1], _face_index(n, i)),
        lambda n, j: _slot_map(algebra, levels[n], levels[n + 1], _degeneracy_index(j)),
    )


def _face_index(n, i):
    """Where d_i sends an index of 1..n; None where an outer face drops it."""

    def index(x):
        y = x if x <= i else x - 1
        return y if 1 <= y < n else None

    return index


def _degeneracy_index(j):
    """Where s_j sends an index: the indices past j move up one."""
    return lambda x: x if x <= j else x + 1


def _slot_map(algebra, src, dst, index):
    """The level map of C(A) sending each slot of (S, word) through `index`:
    a dropped slot kills the word, two slots on one index fold through mu_2."""
    field = algebra.field

    def rule(d, label):
        S, w = label
        T = tuple(index(x) for x in S)
        if None in T:
            return {}
        for j in range(len(T) - 1):
            if T[j] == T[j + 1]:
                (d1, l1), (d2, l2) = w[j], w[j + 1]
                out = {}
                for l3, c in algebra.op_apply(2, (l1, l2)).items():
                    combo_add(field, out, (T[: j + 1] + T[j + 2 :], w[:j] + ((d1 + d2, l3),) + w[j + 2 :]), c)
                return out
        return {(T, w): field.one()}

    return DgMap.from_rule(src, dst, 0, rule)


def _insert_slots(S, indices):
    """s_j for each j of `indices` in turn on a subset S of {1..n}."""
    for j in indices:
        S = tuple(map(_degeneracy_index(j), S))
    return S


# Eilenberg-Mac Lane ---------------------------------------------------------------


def tensor_simplicial(c, d, dimension_bound=None):
    """Levelwise tensor product of simplicial dg-modules."""
    bound = dimension_bound or min(c.dimension_bound, d.dimension_bound)
    field = c.field
    levels = {n: dg_tensor(c.level(n), d.level(n)) for n in range(bound + 1)}
    return SimplicialDgModule.from_maps(
        field,
        levels,
        bound,
        lambda n, i: _tensor_map(field, levels[n], levels[n - 1], c.face(n, i), d.face(n, i)),
        lambda n, j: _tensor_map(field, levels[n], levels[n + 1], c.degeneracy(n, j), d.degeneracy(n, j)),
    )


def _tensor_map(field, src, dst, f_map, g_map):
    """f (x) g on levelwise tensors (both degree 0: no Koszul twist)."""
    f_images, g_images = {}, {}  # degree -> the map's images there, read once
    degree_of = _degree_index(f_map.source)

    def image(images, m, d, label):
        if d not in images:
            images[d] = m.images(d)
        return images[d].get(m.source.index(d, label), {})

    def rule(q, label):
        x, y = label
        dx = degree_of[x]
        fx = image(f_images, f_map, dx, x)
        gy = image(g_images, g_map, q - dx, y)
        # distinct pairs of nonzero coefficients: nothing to sum, nothing cancels
        return {(lx, ly): field.mul(cx, cy) for lx, cx in fx.items() for ly, cy in gy.items()}

    return DgMap.from_rule(src, dst, 0, rule)


def eilenberg_maclane(c, d, bound=None):
    """The shuffle map N(C) (x) N(D) -> N(C (x) D).

    On x (x) y with x of bidegree (p, internal q_x) and y of bidegree
    (q, internal q_y) it is the sum over (p,q)-shuffles (mu, nu) of

        (-1)^{sign(mu,nu) + p q_y} s_nu x (x) s_mu y;

    the internal-degree twist p q_y makes the induced product on
    normalized categorical bars agree with the shuffle product on the
    bar complex under the standard comparison.  Returns the DgMap
    between the total complexes.
    """
    field = c.field
    bound = bound or min(c.dimension_bound, d.dimension_bound)
    nc = NormalizedComplex(c)
    nd = NormalizedComplex(d)
    cd = NormalizedComplex(tensor_simplicial(c, d, bound))
    source = dg_tensor(nc.module, nd.module)
    target = cd.module
    c_degree = {n: _degree_index(c.level(n)) for n in range(bound + 1)}
    d_degree = {n: _degree_index(d.level(n)) for n in range(bound + 1)}

    def rule(total_deg, label):
        (p, x), (q, y) = label
        if p + q > bound:
            return {}
        qx = c_degree[p][x]
        qy = d_degree[q][y]

        def term(mu, nu):  # s_nu x (x) s_mu y
            xs, ys = {x: field.one()}, {y: field.one()}
            for k, j in enumerate(nu):
                xs = c.degeneracy(p + k, j).apply(qx, xs)
            for k, j in enumerate(mu):
                ys = d.degeneracy(q + k, j).apply(qy, ys)
            return {(lx, ly): field.mul(cx, cy) for lx, cx in xs.items() for ly, cy in ys.items()}

        # the sum over the shuffles in C_{p+q} (x) D_{p+q}, projected once (projection is linear)
        total = _shuffle_sum(field, p, q, qy, term)
        return {(p + q, lab): c2 for lab, c2 in cd.project(p + q, qx + qy, total).items()}

    return DgMap.from_rule(source, target, 0, rule), nc, nd, cd


def _shuffle_sum(field, p, q, qy, term):
    """The sum over (p, q)-shuffles (mu, nu) of (-1)^{sign(mu,nu) + p q_y} term(mu, nu).

    term(mu, nu) is a combo built from s_nu x and s_mu y, for x of
    simplicial degree p and y of simplicial degree q, internal degree q_y.
    mu lists the ascending positions of the x-block inside {0..p+q-1} and
    nu the rest; s_nu and s_mu are applied in ascending index order (the
    innermost degeneracy first), which respects the level bounds.
    """
    total = {}
    for mu in combinations(range(p + q), p):
        nu = tuple(k for k in range(p + q) if k not in mu)
        sign = field.sign(sum(mu[a] - a for a in range(p)) + p * qy)
        for label, c in term(mu, nu).items():
            combo_add(field, total, label, field.mul(sign, c))
    return total


# the categorical bar with its product -------------------------------------------


class CategoricalBar:
    """C(A) = N(C(A)) with the Eilenberg-Mac Lane product."""

    def __init__(self, algebra, dimension_bound):
        self.algebra = algebra
        self.field = algebra.field
        self.simplicial = simplicial_categorical_bar(algebra, dimension_bound)
        self.normalized = NormalizedComplex(self.simplicial)
        self.module = self.normalized.module
        self.dimension_bound = dimension_bound

    def em_product_table(self):
        """Structure constants of the EM product on the normalized complex.

        For u = (p, x), v = (q, y) with p + q within the bound, u.v is the
        signed shuffle sum of the levelwise products s_nu x . s_mu y in
        C(A)_{p+q}, projected once into N(C(A)).  The EM map would project
        s_nu x (x) s_mu y into N(C (x) C) first; that changes nothing, as
        the levelwise product commutes with the degeneracies (degenerate
        goes to degenerate).  Keys follow the basis of N (x) N: total
        degree, then the degree of u, then labels.
        """
        f = self.field
        algebras = [self.algebra] * self.dimension_bound

        def entry(du, u, dv, v):
            (p, (S, x)), (q, (T, y)) = u, v

            def term(mu, nu):  # the levelwise product s_nu u . s_mu v
                return _coproduct_product(f, algebras, (_insert_slots(S, nu), x), (_insert_slots(T, mu), y))

            total = _shuffle_sum(f, p, q, dv - q, term)
            return {(p + q, lab): c for lab, c in self.normalized.project(p + q, du + dv - p - q, total).items()}

        degrees = self.module.degrees()
        table = {}
        for d in sorted({du + dv for du in degrees for dv in degrees}):
            for du in degrees:
                for u in self.module.labels(du):
                    for v in self.module.labels(d - du):
                        if u[0] + v[0] <= self.dimension_bound:
                            out = entry(du, u, d - du, v)
                            if out:
                                table[(u, v)] = out
        return table


def _degree_index(module):
    """label -> degree over a module's basis; a label in several degrees keeps the lowest."""
    return {label: d for d in reversed(module.degrees()) for label in module.labels(d)}


class CategoricalBarModule:
    """C_R: normalized chains of the simplicial module R(I^{(+) n}).

    Level n is the free R-algebra on n arity-one generators ("colors"),
    materialized through the composition product; a face or degeneracy
    recolors through the index rule of the algebra's slots (a dropped
    color kills, two colors may merge) and projects.  Levels are
    normalized arity by arity.
    """

    def __init__(self, operad, arity_bound, dimension_bound):
        self.operad = operad
        self.field = operad.field
        self.arity_bound = arity_bound
        self.dimension_bound = dimension_bound
        f = self.field
        self.levels = {}
        for n in range(1, dimension_bound + 1):
            colors = SigmaModule(f, {1: DgModule(f, {0: tuple(("c", j) for j in range(1, n + 1))}, {})})
            self.levels[n] = compose(operad.sigma, colors, arity_bound)
        self.normalized = {}
        for r in range(1, arity_bound + 1):
            components = {0: DgModule.zero(f), **{n: level.sigma.component(r) for n, level in self.levels.items()}}
            sx = SimplicialDgModule.from_maps(
                f,
                components,
                dimension_bound,
                lambda n, i: self._recolor(r, components, n, n - 1, _face_index(n, i)),
                lambda n, j: self._recolor(r, components, n, n + 1, _degeneracy_index(j)),
            )
            self.normalized[r] = NormalizedComplex(sx)

    def _recolor(self, r, components, n, m, index):
        """The arity-r map level n -> level m recoloring x as index(x) (None kills)."""
        f = self.field

        def rule(d, label):
            op, (w, inner) = label
            recolored = []
            for a, deg, (_, x) in inner:
                y = index(x)
                if y is None:
                    return {}
                recolored.append((a, deg, ("c", y)))
            return self.levels[m].project(r, d, {(op, (w, tuple(recolored))): f.one()})

        return DgMap.from_rule(components[n], components[m], 0, rule)


def categorical_bar_module(operad, arity_bound, dimension_bound):
    return CategoricalBarModule(operad, arity_bound, dimension_bound)


def cat_bar_module_vs_bar_module(cat_mod, bar_mod):
    """N(C_Com) ~= B_Com arity by arity: explicit chain isomorphism.

    The bar word with letters of arities (a_1..a_m) routed by w maps to
    the class of the pure level-m element whose input p' carries the
    color of the letter owning value block position p'.
    """
    f = cat_mod.field
    for r in range(1, cat_mod.arity_bound + 1):
        def rule(d, label):
            m, (w, inner) = label
            # value block position p is owned by the letter whose block holds it
            colors = [("c", j) for j, (a, _, _) in enumerate(inner, 1) for _ in range(a)]
            pure = ((r, 0, "e"), (w, tuple((1, 0, c) for c in colors)))
            cls = cat_mod.levels[m].project(r, 0, {pure: f.one()})
            return {(m, lab): c for lab, c in cat_mod.normalized[r].project(m, 0, cls).items()}

        iso = DgMap.from_rule(bar_mod.component(r), cat_mod.normalized[r].module, 0, rule)
        iso.require_iso("N(C_Com) vs B_Com in arity %d" % r)
    return True


def bar_cat_comparison(algebra, window):
    """B(A) vs N(C(A)): the signed basis bijection, as dg-algebras.

    Builds both sides at the sound weight bound for `window`, maps the
    bar word a_1..a_n to (-1)^{sum j |a_j|} times the class of the full
    tensor summand at level n, and verifies: chain iso; and that the
    Eilenberg-Mac Lane product corresponds to the shuffle product on
    every pair of words u, v with |u| + |v| within the weight bound and
    the product degree in the basis.  Returns (bar_complex, categorical,
    iso).
    """
    f = algebra.field
    susp = [d + 1 for d in algebra.module.degrees()]
    wb = sound_weight_bound(susp, window)
    if wb is None:
        raise NotCommutative("mixed-sign degrees: supply a commutative model")
    b = bar(algebra, full_window(susp, wb), weight_bound=wb)
    cat = CategoricalBar(algebra, wb)

    def iso_rule(d, word):
        n = len(word)
        sgn = f.sign(sum((j + 1) * word[j][0] for j in range(n)))
        S = tuple(range(1, n + 1))
        return {(n, (S, word)): sgn}

    iso = DgMap.from_rule(b.module, cat.module, 0, iso_rule).require_iso("B(A) -> N(C(A))")
    em_table = cat.em_product_table()
    for du in b.module.degrees():
        for u in b.module.labels(du):
            for dv in b.module.degrees():
                for v in b.module.labels(dv):
                    if len(u) + len(v) > wb or du + dv not in b.module.basis:
                        continue
                    shuffle = shuffle_word_product(f, u, v)
                    shuffle = {w: c for w, c in shuffle.items() if w in b.weight_of}
                    lhs = combo_map(f, shuffle, lambda w: iso_rule(du + dv, w))
                    ((u_img, cu),) = iso_rule(du, u).items()
                    ((v_img, cv),) = iso_rule(dv, v).items()
                    cuv = f.mul(cu, cv)
                    rhs = {lab: f.mul(cuv, c) for lab, c in em_table.get((u_img, v_img), {}).items()}
                    if lhs != rhs:
                        raise AssertionError("product mismatch at %r * %r: %r vs %r" % (u, v, lhs, rhs))
    return b, cat, iso
