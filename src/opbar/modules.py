"""Right modules over operads, algebras, and the represented functors.

The functor of a right module M over an operad R sends an R-algebra A
to the coequalizer Sym_R(M, A) of

    Sym(M o R, A)  ==>  Sym(M, A)

where one arrow collapses R into M by the module action and the other
evaluates R on A.  Everything here is materialized on explicit bases,
and one class, `sigma.Coequalizer`, builds Sym(M, A) as it builds M o N:
Sym_R(M, A) is one quotient of the words (m; a_1..a_n) by the symmetric
group identifications and the image of (d0 - d1) on pure three-level
words together, and so is M o_R S over the words (m; S-word); one
enumerator, `_d0_d1_relations`, gives both sets of (d0 - d1) relations.
It runs d0 - d1 only on the generating R-words (q, u, ..., u), q a
non-unit basis element of R and u the unit under the identity routing:
with the Sigma relations, these partial composites m o_1 q span the
relations of every R-word.
One elimination gives what quotienting by the symmetric relations R1
and then by the projected (d0 - d1) relations R2 would: pivots are taken
at the lowest column, so a quotient keeps exactly the labels that lead
no vector of the relation span and projects along that span; every
pivot row's tail lies right of its pivot, so projecting R2 through the
first quotient leaves its leading columns among the kept labels
unchanged.  The result depends on the span alone, not on the order or
scaling of the relations.  Coinvariants are always true quotients computed by
elimination, never averages, so prime characteristic is handled
correctly.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from . import perm, trees
from .dg import DgModule, koszul_diff
from .errors import AlgebraCheckFailed, ArityBoundExceeded, InvalidMorphism
from .linalg import combo_add, combo_map
from .operads import gamma_partial, operad_morphism_check, stasheff_sign
from .sigma import Coequalizer, WordSpace, routed_compose


class RightModule:
    """A Sigma-module with a right operad action.

    `action_fn(m_triple, slot, q_triple)` returns a label combo in the
    component of arity m+q-1 and degree dm+dq.
    """

    def __init__(self, field, sigma, operad, action_fn, name="module"):
        self.field = field
        self.sigma = sigma
        self.operad = operad
        self.action_fn = action_fn
        self.name = name
        self._collapsed = {}  # (m, R-word) -> collapse(m, R-word)

    def act_partial(self, m_triple, slot, q_triple):
        return self.action_fn(m_triple, slot, q_triple)

    def gamma(self, m_triple, args):
        return gamma_partial(self.field, self.act_partial, m_triple, args)

    def collapse(self, m_triple, word):
        """Collapse the operad layer `word` (an R-word label) into m by the
        right action, as a combo over M(b): the d0 of a coequalizer.

        Memoised on the module, since every coequalizer built on it
        collapses the same pairs; callers only read the combo.
        """
        key = (m_triple, word)
        out = self._collapsed.get(key)
        if out is None:
            w_r, inner = word
            b = sum(t[0] for t in inner)
            dmb = m_triple[1] + sum(t[1] for t in inner)
            composed = {lab: c for (_, _, lab), c in self.gamma(m_triple, list(inner)).items()}
            acted = self.sigma.act_perm_combo(b, w_r, dmb, composed)
            out = self._collapsed[key] = {(b, dmb, lab): c for lab, c in acted.items()}
        return out

    def component(self, n):
        return self.sigma.component(n)

    def check_module(self, arity_bound=None):
        """Unit, associativity (nested and disjoint), derivation.

        Raises ValueError on the first failure.
        """
        f = self.field
        op = self.operad
        bound = arity_bound or self.sigma.arity_bound()
        unit = op.unit_triple()
        for n in self.sigma.arities():
            if n > bound:
                continue
            for m in self.sigma.basis_triples(n):
                for i in range(1, n + 1):
                    if self.act_partial(m, i, unit) != {m[2]: f.one()}:
                        raise ValueError("module unit law fails at %r slot %d" % (m, i))
        for n in self.sigma.arities():
            for m in self.sigma.basis_triples(n):
                for s in op.sigma.arities():
                    for q in op.basis_triples(s):
                        for t in op.sigma.arities():
                            if n + s + t - 2 > bound:
                                continue
                            for r_ in op.basis_triples(t):
                                # arity and degree of m o q, q o r and m o r
                                mq = (n + s - 1, m[1] + q[1])
                                qr = (s + t - 1, q[1] + r_[1])
                                mr = (n + t - 1, m[1] + r_[1])
                                sgn = f.sign(q[1] * r_[1])
                                for i in range(1, n + 1):
                                    m_q = self.act_partial(m, i, q)
                                    # nested
                                    for j in range(1, s + 1):
                                        lhs = combo_map(f, m_q, lambda lab: self.act_partial((*mq, lab), i + j - 1, r_))
                                        q_r = op.compose_partial(q, j, r_)
                                        rhs = combo_map(f, q_r, lambda lab: self.act_partial(m, i, (*qr, lab)))
                                        if lhs != rhs:
                                            raise ValueError("nested module law fails at %r" % (m,))
                                    # disjoint
                                    for j in range(i + 1, n + 1):
                                        lhs = combo_map(f, m_q, lambda lab: self.act_partial((*mq, lab), j + s - 1, r_))
                                        m_r = {lab: f.mul(sgn, c) for lab, c in self.act_partial(m, j, r_).items()}
                                        rhs = combo_map(f, m_r, lambda lab: self.act_partial((*mr, lab), i, q))
                                        if lhs != rhs:
                                            raise ValueError("disjoint module law fails at %r" % (m,))
        # derivation: d(m o_i q) = dm o_i q + (-1)^{|m|} m o_i dq
        for n in self.sigma.arities():
            for m in self.sigma.basis_triples(n):
                dm = self.sigma.differential_combo(m)
                sgn = f.sign(m[1])
                for s in op.sigma.arities():
                    if n + s - 1 > bound:
                        continue
                    for q in op.basis_triples(s):
                        dq = {q2: f.mul(sgn, c) for q2, c in op.sigma.differential_combo(q).items()}
                        for i in range(1, n + 1):
                            lhs = self.component(n + s - 1).apply_diff(m[1] + q[1], self.act_partial(m, i, q))
                            rhs = combo_map(f, dm, lambda m2: self.act_partial(m2, i, q))
                            combo_map(f, dq, lambda q2: self.act_partial(m, i, q2), rhs)
                            if lhs != rhs:
                                raise ValueError("module derivation fails at %r o_%d %r" % (m, i, q))


def operad_right_module(op):
    """The operad as a right module over itself."""
    return RightModule(op.field, op.sigma, op, op.compose_partial, name=op.name)


def suspend_right_module(mod):
    """Suspension of a right module; the action passes through untouched.

    The suspension coordinate carries no inputs, and the convention
    d(sx) = -s(dx) forces the unsigned action (checked by the module
    derivation law).
    """
    field = mod.field

    def action(m_triple, slot, q_triple):
        n, d, label = m_triple
        inner = (n, d - 1, label[1])
        out = {}
        for lab, c in mod.act_partial(inner, slot, q_triple).items():
            out[("s", lab)] = c
        return out

    return RightModule(field, mod.sigma.suspend(), mod.operad, action, name="s" + mod.name)


class TensorRightModule:
    """Tensor power of right modules, with the slotwise right action."""

    def __init__(self, factors, arity_bound):
        if not factors:
            raise ValueError("need factors")
        self.field = factors[0].field
        self.factors = factors
        self.operad = factors[0].operad
        self.words = WordSpace(self.field, [m.sigma for m in factors], arity_bound)

    def act_partial(self, w_triple, slot, q_triple):
        r, d, label = w_triple

        def action_fn(owner, local, factor_triple, p_triple):
            out = {}
            for lab, c in self.factors[owner].act_partial(factor_triple, local, p_triple).items():
                out[(factor_triple[1] + p_triple[1], lab)] = c
            return out

        return self.words.compose_into_slot(label, slot, q_triple[0], q_triple[1], q_triple[2], action_fn)


# algebras --------------------------------------------------------------------


class DgAlgebra:
    """Algebra over As, Com or the Stasheff operad, in dg-modules.

    Structure constants are stored for the generating operations:
    `ops[r]` maps r-tuples of basis labels to {label: coeff}; the output
    degree is (sum of input degrees) + r - 2.  Associative and
    commutative algebras use only r = 2.  `checked_through` is the arity
    bound through which `check_algebra` passed (0 at first).
    """

    def __init__(self, field, kind, module, ops, name="A"):
        if kind not in ("assoc", "comm", "ainf"):
            raise ValueError("kind must be assoc, comm or ainf")
        self.field = field
        self.kind = kind
        self.module = module
        self.ops = {r: dict(table) for r, table in ops.items() if table}
        self.name = name
        self.checked_through = 0
        self._degree_of = {}
        for d in module.degrees():
            for l in module.labels(d):
                self._degree_of[l] = d

    def degree_of(self, label):
        return self._degree_of[label]

    def max_op_arity(self):
        return max(self.ops) if self.ops else 2

    def op_apply(self, r, labels):
        """mu_r on a tuple of basis labels; {} if not stored."""
        table = self.ops.get(r)
        if table is None:
            return {}
        return dict(table.get(tuple(labels), {}))

    def is_commutative_kind(self):
        return self.kind == "comm"


def check_algebra(a, max_arity=None, report=False, partial_range=None):
    """Verify the structure relations of a DgAlgebra.

    For `ainf` input this is the full coherence tower up to max_arity:
    the Hom-differential of mu_r equals the sum of two-vertex
    compositions weighted by the Stasheff signs.  For `assoc` it reduces
    to Leibniz plus associativity; `comm` adds graded commutativity.
    Returns True/False, or (ok, diagnostics) with report=True.

    `partial_range`, for degree-truncated carriers: relations whose
    inputs or outputs would leave the closed interval (lo, hi) are
    skipped instead of failed (the data beyond the truncation is
    unknown, not zero).

    A passing check without `partial_range` records its arity bound on
    `a` (`checked_through`); the record is never read here.

    The relations are checked only on the words `_reachable_words`
    derives from the stored tables: the words on which at least one term
    (delta.mu_r, mu_r.delta or a composite mu_s o_i mu_t) reads a table
    entry.  On every other word both sides are the empty combination,
    so skipping it cannot change the verdict; the visited words come in
    the order of `product(labels_all, repeat=r)`, so the diagnostics and
    the stop after the ninth are those of the exhaustive scan.
    """
    f = a.field
    mod = a.module
    diags = []
    top = max_arity or (a.max_op_arity() + 1)
    misgraded = False

    for r, table in a.ops.items():
        if a.kind in ("assoc", "comm") and r != 2:
            diags.append("kind %s admits only the binary product, found mu_%d" % (a.kind, r))
        for labels, out in table.items():
            din = sum(a.degree_of(l) for l in labels)
            for l2, c in out.items():
                if a.degree_of(l2) != din + r - 2:
                    diags.append("mu_%d%r output degree wrong at %r" % (r, labels, l2))
                    misgraded = True

    if a.kind == "comm":
        for (x, y), out in a.ops.get(2, {}).items():
            sgn = f.sign(a.degree_of(x) * a.degree_of(y))
            flipped = a.op_apply(2, (y, x))
            scaled = {k: f.mul(sgn, v) for k, v in flipped.items()}
            if {k: v for k, v in out.items() if not f.is_zero(v)} != scaled:
                diags.append("commutativity fails at (%r,%r)" % (x, y))

    if misgraded:
        # the relations below apply the differential in the degrees mu_r should land in
        return (False, diags) if report else False

    labels_all = mod.basis_pairs()

    reachable = _reachable_words(a, labels_all, top)
    for r in range(2, top + 1):
        for word in reachable[r]:
            degs = [d for d, _ in word]
            labs = [l for _, l in word]
            if partial_range is not None:
                lo, hi = partial_range
                d_out = sum(degs) + r - 2
                needed = [d_out, d_out - 1]
                for s in range(2, r):
                    t = r + 1 - s
                    if t < 2:
                        continue
                    for i in range(1, s + 1):
                        needed.append(sum(degs[i - 1 : i - 1 + t]) + t - 2)
                if any(dd < lo or dd > hi for dd in needed):
                    continue
            # delta . mu_r
            lhs = mod.apply_diff(sum(degs) + r - 2, a.op_apply(r, labs))
            # - (-1)^{|mu_r|} mu_r . delta
            sgn = f.sign(r - 2 + 1)
            for word2, c in koszul_diff(f, word, lambda j, x: (x[0], mod.differential_combo(x))).items():
                for l3, c3 in a.op_apply(r, [l for _, l in word2]).items():
                    combo_add(f, lhs, l3, f.mul(f.mul(sgn, c), c3))
            rhs = {}
            for s in range(2, r):
                t = r + 1 - s
                if t < 2:
                    continue
                for i in range(1, s + 1):
                    # the Stasheff sign, and the Koszul sign of mu_t passing the first i-1 letters
                    sgn_i = f.sign(stasheff_sign(s, t, i) + (t - 2) * sum(degs[: i - 1]))
                    inner = {lmid: f.mul(sgn_i, c) for lmid, c in a.op_apply(t, labs[i - 1 : i - 1 + t]).items()}
                    combo_map(f, inner, lambda lmid: a.op_apply(s, labs[: i - 1] + [lmid] + labs[i - 1 + t :]), rhs)
            if lhs != rhs:
                diags.append("structure relation fails at arity %d word %r" % (r, tuple(labs)))
                if len(diags) > 8:
                    ok = False
                    return (ok, diags) if report else ok
    ok = not diags
    if ok and partial_range is None:
        a.checked_through = max(a.checked_through, top)
    return (ok, diags) if report else ok


def _reachable_words(a, labels_all, top):
    """{r: words} for r = 2..top: the arity-r words (tuples of letters of
    `labels_all`) on which some term of the arity-r relation of
    `check_algebra` reads a stored entry, in `product(labels_all,
    repeat=r)` order.  A word qualifies if
      (a) its labels are a key of mu_r (delta.mu_r),
      (b) replacing one letter by a term of its differential gives a key
          of mu_r (mu_r.delta), or
      (c) it is ks o_i kt: kt a key of mu_t, ks a key of mu_s with
          s + t - 1 = r whose i-th letter occurs in mu_t(kt).
    """
    letters = {}  # label -> positions in labels_all carrying it
    hits = {}  # label -> positions of the letters whose differential reaches it
    for n, (d, l) in enumerate(labels_all):
        letters.setdefault(l, []).append(n)
        for l2 in a.module.apply_diff(d, {l: a.field.one()}):
            hits.setdefault(l2, []).append(n)
    by_slot = {}  # s -> (i, label) -> keys of mu_s with that label in slot i
    for s, table in a.ops.items():
        index = by_slot[s] = {}
        for ks in table:
            for i, l in enumerate(ks):
                index.setdefault((i, l), []).append(ks)
    reachable = {}
    for r in range(2, top + 1):
        slots = []  # per candidate: the positions allowed in each slot
        for key in a.ops.get(r, {}):
            slots.append([letters.get(l, ()) for l in key])
            for j in range(r):
                slots.append([(hits if k == j else letters).get(l, ()) for k, l in enumerate(key)])
        for t, inner in a.ops.items():
            s = r + 1 - t
            if t < 2 or s < 2 or s not in a.ops:
                continue
            for kt, out in inner.items():
                for lmid in out:
                    for i in range(s):
                        for ks in by_slot[s].get((i, lmid), ()):
                            slots.append([letters.get(l, ()) for l in ks[:i] + kt + ks[i + 1 :]])
        words = set()
        for choice in slots:
            words.update(product(*choice))
        reachable[r] = [tuple(labels_all[n] for n in w) for w in sorted(words)]
    return reachable


def evaluate_tree(alg, tree, arg_triples):
    """Evaluate a Stasheff-operad basis tree on algebra elements.

    Leaf k reads the argument arg_triples[k - 1].  The arguments pay the
    Koszul sign of moving into the planar order of their leaves, and the
    tree is evaluated bottom-up with the operator tensor sign rule.
    """
    f = alg.field
    if trees.is_leaf(tree):
        return {arg_triples[tree[1] - 1]: f.one()}
    labels = trees.leaf_labels(tree)
    degs = [d for d, _ in arg_triples]
    # letter j moves to the planar position of its leaf
    sigma = tuple(labels.index(j) + 1 for j in range(1, len(labels) + 1))
    sign = f.sign(perm.koszul_sign_exponent(degs, sigma))
    return {t: f.mul(sign, c) for t, c in _evaluate_shape(alg, tree, arg_triples).items()}


def _evaluate_shape(alg, node, args):
    """The value of `node` on the arguments its leaves name, without the reordering sign."""
    f = alg.field
    if trees.is_leaf(node):
        return {args[node[1] - 1]: f.one()}
    children = node[1:]
    # operator tensor rule: a child's operator degree crosses the arguments of the children before it
    sign = 0
    prefix = 0
    for ch in children:
        sign += sum(r - 2 for _, r in trees.vertex_word(ch)) * prefix  # the vertex ("mu", r) has degree r - 2
        prefix += sum(args[l - 1][0] for l in trees.leaf_labels(ch))
    r = len(children)
    out = {}
    for terms in product(*(_evaluate_shape(alg, ch, args).items() for ch in children)):
        coeff = f.sign(sign)
        for _, c in terms:
            coeff = f.mul(coeff, c)
        degree = sum(d for (d, _), _ in terms) + r - 2
        for l2, c2 in alg.op_apply(r, tuple(l for (_, l), _ in terms)).items():
            combo_add(f, out, (degree, l2), f.mul(coeff, c2))
    return out


def evaluate_operad_element(alg, operad, triple, arg_triples):
    """Evaluate an operad basis element on algebra args.

    The algebra acts through the canonical morphism K -> operad, so the
    element acts as any Stasheff tree over it, here its `stasheff_lift`.
    """
    return evaluate_tree(alg, operad.stasheff_lift(triple), arg_triples)


# Sym and its quotients ---------------------------------------------------------


class AlgebraWords:
    """A^{(x)n} on the words of n letters (degree, label) of A, in arity 0.

    The n-th tail space of Sym(M, A): the words in `product` order
    within each degree, the Koszul differential, and the Koszul swap of
    adjacent letters.  Its words take no inputs, so no Sigma_r acts.
    """

    def __init__(self, module, n):
        self.field = module.field
        self.module = module
        by_degree = {}
        for w in product(module.basis_pairs(), repeat=n):
            by_degree.setdefault(self.degree(w), []).append(w)
        basis = dict(sorted(by_degree.items()))
        self._words = DgModule.from_rule(self.field, basis, lambda d, w: self.diff_combo(w), check=False)

    def component(self, r):
        return self._words if r == 0 else DgModule.zero(self.field)

    @staticmethod
    def degree(w):
        return sum(d for d, _ in w)

    def diff_combo(self, w):
        return koszul_diff(self.field, w, lambda _, a: (a[0], self.module.differential_combo(a)))

    def factor_swap(self, i, w):
        """Koszul swap of letters i, i+1 (1-based)."""
        (d1, l1), (d2, l2) = w[i - 1], w[i]
        return {w[: i - 1] + ((d2, l2), (d1, l1)) + w[i + 1 :]: self.field.sign(d1 * d2)}


class SymPresentation(Coequalizer):
    """Sym(M, A) = (+)_n (M(n) (x) A^{(x)n})_{Sigma_n} over the weights n.

    The coequalizer whose tails are the algebra words, so all of it lies
    in arity 0: `quotients[(0, d)]` presents degree d and `module` is the
    quotient dg-module.
    """

    def __init__(self, sigma, algebra_module, weights, relations=None):
        super().__init__(sigma, lambda n: AlgebraWords(algebra_module, n), weights, (0,), relations)
        self.module = self.sigma.component(0)


def _d0_d1_relations(coeq, right_module, r_operad, r_bound, evaluate):
    """d0 - d1 on the generating pure three-level words (m; R-word; tail), keyed as in `coeq`.

    The coequalizer arrows of Sym_R(M, A) and M o_R S: d0 collapses the
    R-word into m by the right action (`RightModule.collapse`), d1 =
    `evaluate(R-word, tail)` evaluates it on the tail (a combo over
    tails).  For m in M(n) the R-words are the partial composites
    m o_1 q: the identity routing on (q, u, ..., u), u the unit and q any
    other basis element of R with b = arity(q) + n - 1 <= r_bound; the
    tails come from `coeq.tail(b)`.  d0 runs once per (m; R-word) on each
    right module, memoised there across coequalizers; d1 runs once per
    (R-word; tail), and m enters its terms only as the label.

    Together with the Sigma relations these span what d0 - d1 on every
    R-word under every routing spans, provided the right action is
    unital, associative and Sigma-equivariant, the unit u is a basis
    element of arity 1 and degree 0, and every arity of M that an action
    lands in, up to r_bound, is a factor count of `coeq`:
      1. an R-word of units only gives (m.sigma; t) - (m; sigma.t), a
         Sigma relation already;
      2. a routing, or the non-unit factor at a position j > 1, moves to
         the identity routing and position 1 modulo Sigma relations, by
         equivariance of the action and of the evaluation;
      3. a word with several non-unit factors telescopes, by associativity
         of the action, into relations of one non-unit factor each:
         (m.(q1, q2); t) - (m; (q1, q2)(t)) is (m'.q2'; t) - (m'; q2'(t))
         plus (m'; q2'(t)) - (m; q1(q2'(t))), m' = m.q1.
    The quotient depends on the span alone, so it is unchanged.
    """
    f = coeq.field
    unit = r_operad.unit_triple()
    generators = [q for a in r_operad.sigma.arities() for q in r_operad.basis_triples(a) if q != unit]
    relations = {}
    for n in coeq.factor_counts:
        m_triples = list(right_module.sigma.basis_triples(n))
        for q in generators:
            b = q[0] + n - 1
            if b > r_bound:
                continue
            tails = coeq.tail(b)
            lr = (perm.identity(b), (q,) + (unit,) * (n - 1))
            collapsed = [(m, right_module.collapse(m, lr)) for m in m_triples]
            for r in coeq.tail_arities:
                for dt, t in tails.component(r).basis_pairs():
                    evaluated = evaluate(lr, t)
                    for m, d0 in collapsed:
                        rel = {(m2, t): c for m2, c in d0.items()}
                        for t2, c in evaluated.items():
                            combo_add(f, rel, (m, t2), f.neg(c))
                        if rel:
                            relations.setdefault((r, m[1] + q[1] + dt), []).append(rel)
    return relations


class SymOverOperad:
    """Sym_R(M, A): the coequalizer quotient of Sym(M, A).

    `sym` presents it in one quotient per degree: the pure Sym(M, A)
    words modulo the Sigma relations and the images of (d0 - d1) on pure
    three-level words (m; R-word; A-word), eliminated together.
    `module` is the resulting dg-module.  Weights that leave out an arity
    of M between the lowest weight and the operad's arity bound raise
    ArityBoundExceeded, since the d0 - d1 relations reach it.
    """

    def __init__(self, right_module, algebra, operad, weights):
        self.right_module = right_module
        self.algebra = algebra
        self.operad = operad
        self.field = right_module.field
        if algebra.kind not in operad.algebra_kinds:
            raise AlgebraCheckFailed(
                "algebra of kind %r cannot be fed to operad %r" % (algebra.kind, operad.name)
            )
        bound = operad.arity_bound()
        lowest = min(weights, default=bound)
        missing = [a for a in right_module.sigma.arities() if lowest < a <= bound and a not in weights]
        if missing:
            raise ArityBoundExceeded(
                "weights %s miss arity %d of %s, which the d0 - d1 relations reach within the arity bound %d of %s"
                % (list(weights), missing[0], right_module.name, bound, operad.name)
            )
        self.sym = SymPresentation(
            right_module.sigma,
            algebra.module,
            weights,
            lambda coeq: _d0_d1_relations(coeq, right_module, operad, operad.arity_bound(), self._d1),
        )
        self.module = self.sym.module

    def _d1(self, r_word, a_word):
        """Evaluate the operad layer on the algebra arguments."""
        return routed_compose(
            self.field,
            r_word,
            a_word,
            lambda q, args: evaluate_operad_element(self.algebra, self.operad, q, args),
            lambda letters: letters,
        )


# extension / restriction -------------------------------------------------------


def gamma_along(psi, q_triple, args):
    """gamma_S(psi(q); args) for q in R and a list of S-triples args."""
    n, d, _ = q_triple
    return combo_map(psi.target.field, psi.apply_triple(q_triple), lambda lq: psi.target.gamma((n, d, lq), args))


class ExtendedModule:
    """psi_! M = M o_R S as a right S-module, via the coequalizer.

    `coequalizer` presents it in one quotient per (arity, degree): the
    pure (m; S-word) labels of M o S modulo the Sigma relations and the
    images of (d0 - d1) on pure three-level words (m; R-word; S-word),
    eliminated together.  `sigma` and `module` are read off it.
    """

    def __init__(self, right_module, psi, arity_bound):
        self.field = right_module.field
        self.left = right_module
        self.psi = psi
        self.r_op = psi.source
        self.s_op = psi.target
        bound = min(arity_bound, self.r_op.arity_bound(), self.s_op.arity_bound())
        if not operad_morphism_check(psi, bound):
            raise InvalidMorphism("psi is not an operad morphism")
        self.arity_bound = arity_bound
        f, s_op = self.field, self.s_op
        # a tail rule or action closing over self would make a cycle, left to the cycle collector
        self.coequalizer = Coequalizer(
            right_module.sigma,
            lambda k: WordSpace(f, [s_op.sigma] * k, arity_bound),
            [k for k in right_module.sigma.arities() if k <= arity_bound],
            range(1, arity_bound + 1),
            lambda coeq: _d0_d1_relations(coeq, right_module, self.r_op, arity_bound, self._d1),
        )
        self.sigma = self.coequalizer.sigma
        action = partial(_extended_action, self.coequalizer, s_op)
        self.module = RightModule(f, self.sigma, s_op, action, name="%s o_R S" % self.left.name)

    def _d1(self, r_word, s_word):
        """Evaluate psi of the R-layer on the S-layer, inside S."""
        w_s, s_inner = s_word
        return routed_compose(
            self.field,
            r_word,
            s_inner,
            lambda q, args: gamma_along(self.psi, q, args),
            lambda word: word,
            outer=(w_s, self.s_op.sigma),
        )


def _extended_action(coeq, s_op, m_triple, slot, q_triple):
    """Right S-action on M o_R S (the coequalizer `coeq`), through pure representatives."""
    r, d, label = m_triple
    (k, dm, lm), s_word = label

    def action_fn(owner, local, factor_triple, p_triple):
        composed = s_op.compose_partial(factor_triple, local, p_triple)
        return {(factor_triple[1] + p_triple[1], lab): c for lab, c in composed.items()}

    moved = coeq.tails[k].compose_into_slot(s_word, slot, q_triple[0], q_triple[1], q_triple[2], action_fn)
    pure = {((k, dm, lm), lab): c for lab, c in moved.items()}
    return coeq.project(r + q_triple[0] - 1, d + q_triple[1], pure)


def extension(right_module, psi, arity_bound):
    """Extension of structure psi_! M = M o_R S along psi: R -> S."""
    return ExtendedModule(right_module, psi, arity_bound)


def restriction(right_module_over_s, psi):
    """Restriction of structure: same module, action through psi."""
    if not operad_morphism_check(psi):
        raise InvalidMorphism("psi is not an operad morphism")
    s_module = right_module_over_s
    field = s_module.field

    def action(m_triple, slot, q_triple):
        n, d, _ = q_triple
        return combo_map(field, psi.apply_triple(q_triple), lambda lq: s_module.act_partial(m_triple, slot, (n, d, lq)))

    return RightModule(field, s_module.sigma, psi.source, action, name="psi^*" + s_module.name)
