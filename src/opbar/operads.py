"""Operads: the associative and commutative operads, free operads on
regular generator collections, and the chain operad of Stasheff's
associahedra.

The differential of the Stasheff operad is fixed on generators by

    d(mu_r) = sum_{s+t=r+1, s,t>=2} sum_{i=1..s} (-1)^{i(t+1)+s+t} mu_s o_i mu_t

together with the vertex-word Koszul convention for grafting (trees are
identified with the tensors of their generator labels in preorder).
Solving d^2 = 0 through arity 6 leaves exactly two conventions up to a
global sign; this one is additionally coherent with the suspended
operators b_r = s . mu_r . (s^{-1})^{(x) r} of the bar coderivation,
which the bar-module tests enforce.

K, As and Com each name their canonical morphism from K
(`from_stasheff`) and a Stasheff tree it sends to each basis element
(`stasheff_lift`); every other operad refuses both by name.

A morphism records the arity bound its check passed (`checked_through`),
so none is checked twice; As and K refuse, before building anything, a
component of more than `MAX_COMPONENT_BASIS` elements, and an export
refuses a composition table of more than `MAX_TABLE_ENTRIES` entries.
"""

from __future__ import annotations

from itertools import permutations as _permutations, product
from math import comb, factorial

from . import perm, trees
from .dg import DgModule
from .errors import ArityBoundExceeded
from .linalg import combo_add, combo_map
from .sigma import SigmaModule


def gamma_partial(field, compose_fn, head, args):
    """Full composition head(q_1,...,q_k) via left-to-right partials.

    `compose_fn(triple, slot, q)` returns a label combo; triples are
    (arity, degree, label).  Left-to-right insertion carries no extra
    Koszul signs in the vertex-word convention.  Every term of a partial
    composite has the same arity and degree, so the combo is kept over
    labels and wrapped into triples once at the end.
    """
    n, d, label = head
    cur = {label: field.one()}
    slot = 1
    for q in args:
        cur = combo_map(field, cur, lambda lab: compose_fn((n, d, lab), slot, q))
        n, d = n + q[0] - 1, d + q[1]
        slot += q[0]
    return {(n, d, lab): c for lab, c in cur.items()}


class Operad:
    """A concrete operad over an explicit basis.

    Subclasses provide `compose_basic(p_triple, i, q_triple)` returning
    a combo {label: coeff} in arity s+t-1, degree dp+dq, where a triple
    is (arity, degree, label).
    """

    name = "operad"
    # the DgAlgebra kinds that carry an action of this operad, through `stasheff_lift`
    algebra_kinds = ()

    def __init__(self, field, sigma, unit_label):
        self.field = field
        self.sigma = sigma
        self.unit_label = unit_label
        self._eta = None

    # shared helpers ---------------------------------------------------------

    def arity_bound(self):
        return self.sigma.arity_bound()

    def component(self, n):
        return self.sigma.component(n)

    def unit_triple(self):
        return (1, 0, self.unit_label)

    def compose_partial(self, p_triple, i, q_triple):
        s = p_triple[0]
        if not 1 <= i <= s:
            raise ValueError("slot %d out of range for arity %d" % (i, s))
        if s + q_triple[0] - 1 > self.arity_bound():
            raise ArityBoundExceeded(
                "composition lands in arity %d beyond bound %d" % (s + q_triple[0] - 1, self.arity_bound())
            )
        return self.compose_basic(p_triple, i, q_triple)

    def gamma(self, p_triple, args):
        """Full composition p(q_1,...,q_s), args a list of triples."""
        return gamma_partial(self.field, self.compose_partial, p_triple, args)

    def basis_triples(self, n):
        return self.sigma.basis_triples(n)

    def stasheff_lift(self, triple):
        """A Stasheff tree that the canonical morphism K -> self sends to
        the basis element `triple`.

        An algebra over this operad is a K-algebra through that morphism,
        so the tree acts on it as the element does.
        """
        raise ValueError("no evaluation rule for operad %r" % (self.name,))

    def from_stasheff(self):
        """The canonical morphism K -> self (only K, As and Com name one).

        It is built once per operad, so the check it records serves every
        bar module of this operad.
        """
        if self._eta is None:
            self._eta = self._build_from_stasheff()
        return self._eta

    def _build_from_stasheff(self):
        raise ValueError("operad %r (%s) has no canonical morphism from K" % (self.name, type(self).__name__))


def _left_comb(labels):
    """The left comb ((l_1 l_2) l_3) ... of binary Stasheff vertices on the leaves `labels`."""
    tree = trees.leaf(labels[0])
    for label in labels[1:]:
        tree = (("mu", 2), tree, trees.leaf(label))
    return tree


class AssociativeOperad(Operad):
    """As: As(n) is the regular representation, basis = monomial words.

    A word w (a permutation of 1..n in one-line form) stands for the
    multilinear monomial x_{w_1} x_{w_2} ... x_{w_n}; composition is
    substitution of monomials, the right action relabels variables.
    """

    name = "As"
    algebra_kinds = ("assoc", "comm")

    def __init__(self, field, arity_bound):
        comps = {
            n: DgModule(field, {0: tuple(sorted(_permutations(range(1, n + 1))))}, {})
            for n in range(1, arity_bound + 1)
        }

        def act(n, s_i, d, w):
            inv = perm.inverse(s_i)
            return {tuple(inv[x - 1] for x in w): field.one()}

        super().__init__(field, SigmaModule.from_rule(field, comps, act), (1,))

    def compose_basic(self, p_triple, i, q_triple):
        s, _, w = p_triple
        t, _, v = q_triple
        out = []
        for x in w:
            if x < i:
                out.append(x)
            elif x == i:
                out.extend(y + i - 1 for y in v)
            else:
                out.append(x + t - 1)
        return {tuple(out): self.field.one()}

    def stasheff_lift(self, triple):
        return _left_comb(triple[2])

    def _build_from_stasheff(self):
        return eps_to_assoc(stasheff_operad(self.field, self.arity_bound()), self)


class CommutativeOperad(Operad):
    """Com: the trivial representation in every arity, degree 0."""

    name = "Com"
    algebra_kinds = ("comm",)

    def __init__(self, field, arity_bound):
        comps = {n: DgModule.ground(field, "e") for n in range(1, arity_bound + 1)}
        super().__init__(field, SigmaModule(field, comps), "e")

    def compose_basic(self, p_triple, i, q_triple):
        return {"e": self.field.one()}

    def stasheff_lift(self, triple):
        return _left_comb(range(1, triple[0] + 1))

    def _build_from_stasheff(self):
        as_op = associative_operad(self.field, self.arity_bound())
        return compose_morphisms(alpha_to_com(as_op, self), as_op.from_stasheff())


class FreeOperad(Operad):
    """Free operad on generators {arity: [(name, degree)]}, each
    generating a free symmetric orbit; basis = planar trees with
    bijectively labeled leaves.

    `gen_diff` maps a generator name to its differential, a dict
    {tree: coeff} of trees of the generator's arity; it is extended as
    a derivation.
    """

    name = "free"

    def __init__(self, field, generators, arity_bound, gen_diff=None):
        self.generators = {r: list(gens) for r, gens in generators.items() if r >= 2}
        self.degree_of = {}
        arities = {}
        for r, gens in self.generators.items():
            for (gname, gdeg) in gens:
                if gname in self.degree_of:
                    raise ValueError("generator name %r reused" % (gname,))
                self.degree_of[gname] = gdeg
                arities.setdefault(r, []).append(gname)
        self.gen_diff = gen_diff or {}
        comps = {1: DgModule.ground(field, trees.leaf(1))}
        tree_bases = {1: [trees.leaf(1)]}
        for n in range(2, arity_bound + 1):
            tree_bases[n] = trees.enumerate_trees(n, arities)
        for n in range(2, arity_bound + 1):
            by_degree = {}
            for t in tree_bases[n]:
                by_degree.setdefault(trees.degree(t, self.degree_of), []).append(t)
            comps[n] = DgModule.from_rule(field, by_degree, lambda d, t: self._tree_diff(field, t))
        sigma = SigmaModule.from_rule(field, comps, lambda n, s_i, d, t: {trees.act(t, s_i): field.one()})
        super().__init__(field, sigma, trees.leaf(1))

    def compose_basic(self, p_triple, i, q_triple):
        s, _, p = p_triple
        t, _, q = q_triple
        if trees.is_leaf(p):
            return {q: self.field.one()}
        if trees.is_leaf(q):
            return {p: self.field.one()}
        par, out = trees.graft(p, i, q, self.degree_of)
        return {out: self.field.sign(par)}

    def _tree_diff(self, field, t):
        """Derivation extension of the generator differentials.

        Works on planar-standard shapes via one-child-at-a-time
        decomposition, then transports along the leaf relabeling.
        """
        f = field
        labels = trees.leaf_labels(t)
        n = len(labels)
        shape = trees.relabel(t, {labels[k]: k + 1 for k in range(n)})
        out_shape = self._shape_diff(f, shape)
        out = {}
        for t2, c in out_shape.items():
            combo_add(f, out, trees.relabel(t2, {k + 1: labels[k] for k in range(n)}), c)
        return out

    def _shape_diff(self, f, t):
        if trees.is_leaf(t):
            return {}
        children = t[1:]
        if all(trees.is_leaf(c) for c in children):
            return dict(self.gen_diff.get(t[0], {}))
        # split off the leftmost non-leaf child: t = p o_j c
        j = None
        offset = 0
        for idx, c in enumerate(children):
            a = trees.arity(c)
            if not trees.is_leaf(c):
                j = offset + 1
                child = c
                child_index = idx
                break
            offset += a
        a_child = trees.arity(child)
        # p: t with that child collapsed to one leaf, labels renormalized
        new_children = []
        for idx, c in enumerate(children):
            if idx == child_index:
                new_children.append(trees.leaf(j))
            else:
                shift = {l: (l if l < j else l - a_child + 1) for l in trees.leaf_labels(c)}
                new_children.append(trees.relabel(c, shift))
        p = (t[0],) + tuple(new_children)
        c_std = trees.relabel(child, {l: l - j + 1 for l in trees.leaf_labels(child)})
        dp = self._shape_diff(f, p)
        dc = self._shape_diff(f, c_std)
        out = {}
        for p2, cp in dp.items():
            par, tr = trees.graft(p2, j, c_std, self.degree_of)
            combo_add(f, out, tr, f.mul(cp, f.sign(par)))
        sgn = f.sign(trees.degree(p, self.degree_of))
        for c2, cc in dc.items():
            par, tr = trees.graft(p, j, c2, self.degree_of)
            combo_add(f, out, tr, f.mul(f.mul(sgn, cc), f.sign(par)))
        return out


def stasheff_sign(s, t, i):
    """Exponent of the sign of mu_s o_i mu_t inside d(mu_r)."""
    return (i * (t + 1) + s + t) % 2


def stasheff_generator_diff(field, r):
    """d(mu_r) as {tree: coeff} over the corolla generators."""
    out = {}
    for tree, par, (s, t, i) in _generator_diff_terms(r):
        combo_add(field, out, tree, field.sign(stasheff_sign(s, t, i) + par))
    return out


def _generator_diff_terms(r):
    """The terms of d(mu_r) apart from their rule signs: (tree, grafting parity, (s, t, i))
    for each mu_s o_i mu_t, s + t = r + 1.  Under a sign rule the term enters at
    (-1)^{rule(s, t, i) + parity}."""
    degs = {("mu", k): k - 2 for k in range(2, r + 1)}
    out = []
    for s in range(2, r):
        t = r + 1 - s
        for i in range(1, s + 1):
            par, tree = trees.graft(trees.corolla(("mu", s), s), i, trees.corolla(("mu", t), t), degs)
            out.append((tree, par, (s, t, i)))
    return out


def stasheff_d_squared_vanishes(field, max_arity):
    """Symbolic check that d(d(mu_r)) = 0 for r <= max_arity.

    Works on tree combinations directly (no operad materialization), so
    arity 7 runs in well under a second; above MAX_STASHEFF_CHECK_ARITY
    it raises ArityBoundExceeded before any grafting.
    """
    if max_arity > MAX_STASHEFF_CHECK_ARITY:
        raise ArityBoundExceeded(
            "the symbolic d^2 check stops at arity %d: arity bound %d is too large"
            % (MAX_STASHEFF_CHECK_ARITY, max_arity)
        )
    return _d_squared_vanishes(field, max_arity, [stasheff_sign]) == [True]


def _d_squared_vanishes(field, max_arity, signs):
    """For each sign rule of `signs`, whether d(d(mu_r)) = 0 for every r <= max_arity,
    d(mu_r) entering each mu_s o_i mu_t at (-1)^{rule(s, t, i)} times its grafting sign.

    d of the term mu_s o_i mu_t of d(mu_r) is the derivation rule
    d(mu_s) o_i mu_t + (-1)^{|mu_s|} mu_s o_i d(mu_t).  The trees of
    d(d(mu_r)) and the parts of their signs that no rule changes are built
    once per arity (`_d_squared_terms`); each rule still vanishing below r is
    then evaluated on them.  All coefficients are signs, so the sum on a
    tree is an integer mapped into the field.
    """
    alive = list(range(len(signs)))
    diff_terms = {2: []}
    for r in range(3, max_arity + 1):
        diff_terms[r] = _generator_diff_terms(r)
        n_trees, terms = _d_squared_terms(r, diff_terms)
        keys = {key for term in terms for key in term[2:]}
        still = []
        for k in alive:
            rule = {key: signs[k](*key) for key in keys}
            acc = [0] * n_trees
            for tree, par, outer, inner in terms:
                acc[tree] += -1 if (par + rule[outer] + rule[inner]) % 2 else 1
            if all(field.is_zero(field.of_int(c)) for c in acc):
                still.append(k)
        alive = still
    return [k in alive for k in range(len(signs))]


def _d_squared_terms(r, diff_terms):
    """The terms of d(d(mu_r)) apart from their rule signs, from the terms
    `diff_terms[k]` = `_generator_diff_terms(k)` of every d(mu_k), k <= r.

    Returns (number of trees, terms), a term (tree index, parity, outer,
    inner): the tree carries (-1)^{parity + rule(outer) + rule(inner)}, outer
    the (s, t, i) of the term of d(mu_r) and inner that of d(mu_s) or d(mu_t)
    within it.
    """
    degs = {("mu", k): k - 2 for k in range(2, r + 1)}
    mu = {k: trees.corolla(("mu", k), k) for k in range(2, r + 1)}
    index = {}
    terms = []
    for _, par0, (s, t, i) in diff_terms[r]:
        for ptree, ppar, pkey in diff_terms[s]:
            par, tree = trees.graft(ptree, i, mu[t], degs)
            terms.append((index.setdefault(tree, len(index)), par0 + ppar + par, (s, t, i), pkey))
        for qtree, qpar, qkey in diff_terms[t]:
            par, tree = trees.graft(mu[s], i, qtree, degs)
            terms.append((index.setdefault(tree, len(index)), par0 + s - 2 + qpar + par, (s, t, i), qkey))
    return len(index), terms


def stasheff_unique_sign_convention(field, max_arity=5):
    """All exponent patterns a*i+b*s+c*t+d*it+e*is+f*st+g with d^2 = 0.

    Returns the list of coefficient tuples, in the order of
    product([0, 1], repeat=7); exactly two survive through arity 5 (a
    global-sign pair), one of which is the pinned convention.  The trees of
    d(d(mu_r)) do not depend on the pattern, so they are grafted once per
    arity and the 128 patterns are evaluated on them.
    """
    patterns = list(product([0, 1], repeat=7))

    def rule(a, b, c, d, e, f_, g):
        return lambda s, t, i: (a * i + b * s + c * t + d * i * t + e * i * s + f_ * s * t + g) % 2

    vanishes = _d_squared_vanishes(field, max_arity, [rule(*coeffs) for coeffs in patterns])
    return [coeffs for coeffs, ok in zip(patterns, vanishes) if ok]


def _binary_word(tree):
    """The leaf labels of a tree whose vertices are all binary, left to right; None otherwise."""
    word = []

    def walk(node):
        if trees.is_leaf(node):
            word.append(node[1])
            return True
        return len(node) == 3 and walk(node[1]) and walk(node[2])

    return tuple(word) if walk(tree) else None


def eps_kills_stasheff_differential(field, max_arity):
    """eps(d mu_r) = 0 in As for every r <= max_arity (dg-compatibility).

    For r = 3 this is associativity of the product; beyond, every term
    carries a generator of arity > 2 and dies.
    """
    for r in range(3, max_arity + 1):
        acc = {}
        for tr, c in stasheff_generator_diff(field, r).items():
            w = _binary_word(tr)
            if w is not None:
                combo_add(field, acc, w, c)
        if acc:
            return False
    return True


class StasheffOperad(FreeOperad):
    """K = (Free(mu_*), d); every algebra kind is a K-algebra."""

    name = "K"
    algebra_kinds = ("assoc", "comm", "ainf")

    def stasheff_lift(self, triple):
        return triple[2]

    def _build_from_stasheff(self):
        return identity_morphism(self)


MAX_COMPONENT_BASIS = 50_000  # As(8) and K(5) fit, As(9) and K(6) do not
MAX_TABLE_ENTRIES = 100_000  # the composition tables of As(7), K(5) and Com(83) fit
MAX_STASHEFF_CHECK_ARITY = 16  # about a second for the symbolic d^2 check, whose work grows about as arity^5.5


def little_schroder(n):
    """Planar trees with n >= 2 leaves and no unary vertex, 1, 3, 11, 45, ..., summed over their vertex count k."""
    return sum(comb(n - 2, k - 1) * comb(n + k - 1, k - 1) // k for k in range(1, n))


_BASIS_SIZES = {"K": lambda n: factorial(n) * little_schroder(n) if n > 1 else 1, "As": factorial, "Com": lambda n: 1}


def _refuse_large_components(name, arity_bound):
    """ArityBoundExceeded at the first arity n <= arity_bound with more than MAX_COMPONENT_BASIS basis elements."""
    size = _BASIS_SIZES[name]
    for n in range(2, arity_bound + 1):
        if size(n) > MAX_COMPONENT_BASIS:
            raise ArityBoundExceeded(
                "%s(%d) would have %d basis elements, over the limit of %d: arity bound %d is too large"
                % (name, n, size(n), MAX_COMPONENT_BASIS, arity_bound)
            )


def refuse_large_table(name, arity_bound):
    """ArityBoundExceeded, before anything is built, if the exported composition table
    of the built-in operad `name` would pass MAX_TABLE_ENTRIES entries: one per p o_i q,
    so sum_{s+t=n+1} |P(s)| |P(t)| s land in arity n.  As and K first refuse a component
    as `associative_operad` and `stasheff_operad` do."""
    if name != "Com":
        _refuse_large_components(name, arity_bound)
    size = _BASIS_SIZES[name]
    entries = 0
    for n in range(1, arity_bound + 1):
        entries += sum(size(s) * size(n + 1 - s) * s for s in range(1, n + 1))
        if entries > MAX_TABLE_ENTRIES:
            raise ArityBoundExceeded(
                "the composition table of %s through arity %d would have %d entries, over the limit of %d: "
                "arity bound %d is too large" % (name, n, entries, MAX_TABLE_ENTRIES, arity_bound)
            )


def stasheff_operad(field, arity_bound):
    """The chain operad of Stasheff's associahedra, K = (Free(mu_*), d)."""
    if arity_bound < 2:
        raise ValueError("arity_bound must be at least 2")
    _refuse_large_components("K", arity_bound)
    generators = {r: [(("mu", r), r - 2)] for r in range(2, arity_bound + 1)}
    gen_diff = {("mu", r): stasheff_generator_diff(field, r) for r in range(2, arity_bound + 1)}
    return StasheffOperad(field, generators, arity_bound, gen_diff)


def free_operad(field, generators, arity_bound, gen_diff=None):
    for r in generators:
        if r < 2:
            raise ValueError("free operad generators must have arity >= 2")
    return FreeOperad(field, generators, arity_bound, gen_diff)


def associative_operad(field, arity_bound):
    _refuse_large_components("As", arity_bound)
    return AssociativeOperad(field, arity_bound)


def commutative_operad(field, arity_bound):
    return CommutativeOperad(field, arity_bound)


class TableOperad(Operad):
    """Operad backed by an explicit composition table (JSON import)."""

    name = "table"

    def __init__(self, field, sigma, unit_label, table, name="table"):
        super().__init__(field, sigma, unit_label)
        self.table = table
        self.name = name

    def compose_basic(self, p_triple, i, q_triple):
        s, dp, lp = p_triple
        t, dq, lq = q_triple
        if (s, lp) == (1, self.unit_label):
            return {lq: self.field.one()}
        if (t, lq) == (1, self.unit_label):
            return {lp: self.field.one()}
        key = (s, lp, i, t, lq)
        out = self.table.get(key)
        if out is None:
            return {}
        return dict(out)


# morphisms -------------------------------------------------------------------


class OperadMorphism:
    """Arity-indexed family of chain maps between operads.

    `rule(triple)` returns {label: coeff} in the target component of the
    same arity and degree.  `checked_through` is the arity bound through
    which it is known to be an operad morphism (0: not known).
    """

    def __init__(self, source, target, rule, name="morphism"):
        self.source = source
        self.target = target
        self.rule = rule
        self.name = name
        self.checked_through = 0

    def apply_triple(self, triple):
        return {k: v for k, v in self.rule(triple).items() if not self.source.field.is_zero(v)}


def identity_morphism(op):
    identity = OperadMorphism(op, op, lambda triple: {triple[2]: op.field.one()}, name="id")
    identity.checked_through = op.arity_bound()
    return identity


def eps_to_assoc(k_operad, as_operad):
    """The augmentation K -> As: binary trees to monomials, mu_{r>2} to 0."""

    def rule(triple):
        n, d, t = triple
        if n == 1:
            return {as_operad.unit_label: k_operad.field.one()}
        word = _binary_word(t) if d == 0 else None
        return {} if word is None else {word: k_operad.field.one()}

    return OperadMorphism(k_operad, as_operad, rule, name="eps")


def alpha_to_com(as_operad, com_operad):
    """As -> Com: every monomial to the arity generator."""

    def rule(triple):
        n, d, w = triple
        if n == 1:
            return {com_operad.unit_label: as_operad.field.one()}
        return {"e": as_operad.field.one()}

    return OperadMorphism(as_operad, com_operad, rule, name="alpha")


def compose_morphisms(g, f):
    """g after f; recorded through the smaller record when g starts from the very operad f lands in."""

    def rule(triple):
        n, d, _ = triple
        return combo_map(f.source.field, f.apply_triple(triple), lambda label: g.apply_triple((n, d, label)))

    composite = OperadMorphism(f.source, g.target, rule, name="%s.%s" % (g.name, f.name))
    if g.source is f.target:
        composite.checked_through = min(g.checked_through, f.checked_through)
    return composite


def operad_morphism_check(f, arity_bound=None):
    """True iff f commutes with units, differentials, actions and o_i.

    A pass is recorded on f, and a bound its record covers returns at
    once.
    """
    bound = arity_bound or min(f.source.arity_bound(), f.target.arity_bound())
    failures = [] if f.checked_through >= bound else _morphism_failures(f, bound)
    if not failures:
        f.checked_through = max(f.checked_through, bound)
    return not failures


def _morphism_failures(f, bound):
    """The relations of an operad morphism that f breaks through arity `bound`, as strings."""
    src, dst = f.source, f.target
    field = src.field
    failures = []
    images = {}  # triple -> f(triple); the relations below share most of their triples

    def apply(triple):
        image = images.get(triple)
        if image is None:
            image = images[triple] = f.apply_triple(triple)
        return image

    unit_img = apply(src.unit_triple())
    if unit_img != {dst.unit_label: field.one()}:
        failures.append("unit is not preserved")

    for n in range(1, bound + 1):
        for triple in src.basis_triples(n):
            d = triple[1]
            image = apply(triple)
            lhs = combo_map(field, src.sigma.differential_combo(triple), apply)
            if lhs != dst.component(n).apply_diff(d, image):
                failures.append("differential not preserved at %r" % (triple,))
            for i in range(1, n):
                s_i = perm.apply_adjacent(perm.identity(n), i)
                acted = src.sigma.act_perm_combo(n, s_i, d, {triple[2]: field.one()})
                lhs = combo_map(field, acted, lambda label: apply((n, d, label)))
                if lhs != dst.sigma.act_perm_combo(n, s_i, d, image):
                    failures.append("equivariance fails at %r s_%d" % (triple, i))

    for s in range(1, bound + 1):
        for t in range(1, bound + 1):
            if s + t - 1 > bound:
                continue
            for p in src.basis_triples(s):
                fp = apply(p)
                for q in src.basis_triples(t):
                    fq = apply(q)
                    for i in range(1, s + 1):
                        lhs = combo_map(
                            field,
                            src.compose_partial(p, i, q),
                            lambda label: apply((s + t - 1, p[1] + q[1], label)),
                        )
                        rhs = combo_map(
                            field,
                            fp,
                            lambda lp: combo_map(
                                field, fq, lambda lq: dst.compose_partial((s, p[1], lp), i, (t, q[1], lq))
                            ),
                        )
                        if lhs != rhs:
                            failures.append("composition fails at %r o_%d %r" % (p, i, q))
    return failures


# structural checks -----------------------------------------------------------


def check_operad(op, arity_bound=None):
    """Unit, associativity, equivariance and derivation checks.

    Raises ValueError on the first failure.  The right unit,
    associativity and derivation laws are those of `op` as a right
    module over itself, checked by `RightModule.check_module`; the left
    unit and equivariance are checked here.  The Sigma-module relations
    are `op.sigma.check_relations()`, which the operad import runs.
    """
    from .modules import operad_right_module  # modules imports this module

    field = op.field
    bound = arity_bound or op.arity_bound()
    unit = op.unit_triple()
    for n in range(1, bound + 1):
        for p in op.basis_triples(n):
            if op.compose_partial(unit, 1, p) != {p[2]: field.one()}:
                raise ValueError("left unit law fails at %r" % (p,))
    operad_right_module(op).check_module(bound)

    # equivariance: (p.sigma) o_i (q.tau) = (p o_{sigma(i)} q).(sigma o_i tau)
    for s in range(1, bound + 1):
        for t in range(1, bound + 1):
            if s + t - 1 > bound:
                continue
            gens_s = [perm.apply_adjacent(perm.identity(s), i) for i in range(1, s)] or [perm.identity(s)]
            gens_t = [perm.apply_adjacent(perm.identity(t), i) for i in range(1, t)] or [perm.identity(t)]
            for p in op.basis_triples(s):
                for q in op.basis_triples(t):
                    for sg in gens_s:
                        p_sg = op.sigma.act_perm_combo(s, sg, p[1], {p[2]: field.one()})
                        for tg in gens_t:
                            q_tg = op.sigma.act_perm_combo(t, tg, q[1], {q[2]: field.one()})
                            for i in range(1, s + 1):
                                lhs = combo_map(
                                    field,
                                    p_sg,
                                    lambda lp: combo_map(
                                        field, q_tg, lambda lq: op.compose_partial((s, p[1], lp), i, (t, q[1], lq))
                                    ),
                                )
                                big = perm.block_substitution(sg, i, tg)
                                rhs = op.sigma.act_perm_combo(
                                    s + t - 1, big, p[1] + q[1], op.compose_partial(p, sg[i - 1], q)
                                )
                                if lhs != rhs:
                                    raise ValueError(
                                        "equivariance fails at %r o_%d %r with generators" % (p, i, q)
                                    )
