"""Right modules over operads, algebras, and the represented functors.

The functor of a right module M over an operad R sends an R-algebra A
to the coequalizer Sym_R(M, A) of

    Sym(M o R, A)  ==>  Sym(M, A)

where one arrow collapses R into M by the module action and the other
evaluates R on A.  Everything here is materialized on explicit bases:
Sym(M, A) is presented as a quotient of words (m; a_1..a_n) by the
symmetric group identifications, and the coequalizer is a further
quotient by the image of (d0 - d1) ranging over pure three-level
words.  Coinvariants are always true quotients computed by elimination,
never averages, so prime characteristic is handled correctly.
"""

from __future__ import annotations

from . import perm, trees
from .dg import DgModule
from .errors import AlgebraCheckFailed, InvalidMorphism
from .linalg import SparseMatrix, project_combo, quotient_data
from .operads import stasheff_sign
from .sigma import SigmaModule, WordSpace, _combo_add, compose, routed_compose


def gamma_partial(field, compose_fn, head, args):
    """Full composition head(q_1,...,q_k) via left-to-right partials.

    `compose_fn(triple, slot, q)` returns a label combo; triples are
    (arity, degree, label).  Left-to-right insertion carries no extra
    Koszul signs in the conventions of this engine.
    """
    cur = {head: field.one()}
    slot = 1
    for q in args:
        nxt = {}
        for t, c in cur.items():
            for label, c2 in compose_fn(t, slot, q).items():
                _combo_add(field, nxt, (t[0] + q[0] - 1, t[1] + q[1], label), field.mul(c, c2))
        cur = nxt
        slot += q[0]
    return cur


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

    def act_partial(self, m_triple, slot, q_triple):
        return self.action_fn(m_triple, slot, q_triple)

    def gamma(self, m_triple, args):
        return gamma_partial(self.field, self.act_partial, m_triple, args)

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
            for m in _basis_triples(self.sigma, n):
                for i in range(1, n + 1):
                    if self.act_partial(m, i, unit) != {m[2]: f.one()}:
                        raise ValueError("module unit law fails at %r slot %d" % (m, i))
        for n in self.sigma.arities():
            for m in _basis_triples(self.sigma, n):
                for s in op.sigma.arities():
                    for q in op.basis_triples(s):
                        for t in op.sigma.arities():
                            if n + s + t - 2 > bound:
                                continue
                            for r_ in op.basis_triples(t):
                                for i in range(1, n + 1):
                                    # nested
                                    for j in range(1, s + 1):
                                        lhs = {}
                                        for lab, c in self.act_partial(m, i, q).items():
                                            for lab2, c2 in self.act_partial(
                                                (n + s - 1, m[1] + q[1], lab), i + j - 1, r_
                                            ).items():
                                                _combo_add(f, lhs, lab2, f.mul(c, c2))
                                        rhs = {}
                                        for lab, c in op.compose_partial(q, j, r_).items():
                                            for lab2, c2 in self.act_partial(
                                                m, i, (s + t - 1, q[1] + r_[1], lab)
                                            ).items():
                                                _combo_add(f, rhs, lab2, f.mul(c, c2))
                                        if lhs != rhs:
                                            raise ValueError("nested module law fails at %r" % (m,))
                                    # disjoint
                                    for j in range(i + 1, n + 1):
                                        lhs = {}
                                        for lab, c in self.act_partial(m, i, q).items():
                                            for lab2, c2 in self.act_partial(
                                                (n + s - 1, m[1] + q[1], lab), j + s - 1, r_
                                            ).items():
                                                _combo_add(f, lhs, lab2, f.mul(c, c2))
                                        rhs = {}
                                        sgn = f.sign(q[1] * r_[1])
                                        for lab, c in self.act_partial(m, j, r_).items():
                                            for lab2, c2 in self.act_partial(
                                                (n + t - 1, m[1] + r_[1], lab), i, q
                                            ).items():
                                                _combo_add(f, rhs, lab2, f.mul(f.mul(sgn, c), c2))
                                        if lhs != rhs:
                                            raise ValueError("disjoint module law fails at %r" % (m,))
        # derivation: d(m o_i q) = dm o_i q + (-1)^{|m|} m o_i dq
        for n in self.sigma.arities():
            for m in _basis_triples(self.sigma, n):
                for s in op.sigma.arities():
                    if n + s - 1 > bound:
                        continue
                    for q in op.basis_triples(s):
                        for i in range(1, n + 1):
                            lhs = {}
                            out_comp = self.component(n + s - 1)
                            for lab, c in self.act_partial(m, i, q).items():
                                for l2, c2 in out_comp.apply_diff(m[1] + q[1], {lab: c}).items():
                                    _combo_add(f, lhs, l2, c2)
                            rhs = {}
                            for l2, c in self.component(n).apply_diff(m[1], {m[2]: f.one()}).items():
                                for lab, c2 in self.act_partial((n, m[1] - 1, l2), i, q).items():
                                    _combo_add(f, rhs, lab, f.mul(c, c2))
                            sgn = f.sign(m[1])
                            for q2, cq in op.differential_combo(q).items():
                                for lab, c2 in self.act_partial(m, i, q2).items():
                                    _combo_add(f, rhs, lab, f.mul(f.mul(sgn, cq), c2))
                            if lhs != rhs:
                                raise ValueError("module derivation fails at %r o_%d %r" % (m, i, q))


def _basis_triples(sigma, n):
    comp = sigma.component(n)
    for d in comp.degrees():
        for label in comp.labels(d):
            yield (n, d, label)


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

    def as_right_module(self):
        return RightModule(self.field, self.words.as_sigma(), self.operad, self.act_partial)


# algebras --------------------------------------------------------------------


class DgAlgebra:
    """Algebra over As, Com or the Stasheff operad, in dg-modules.

    Structure constants are stored for the generating operations:
    `ops[r]` maps r-tuples of basis labels to {label: coeff}; the output
    degree is (sum of input degrees) + r - 2.  Associative and
    commutative algebras use only r = 2.
    """

    def __init__(self, field, kind, module, ops, name="A"):
        if kind not in ("assoc", "comm", "ainf"):
            raise ValueError("kind must be assoc, comm or ainf")
        self.field = field
        self.kind = kind
        self.module = module
        self.ops = {r: dict(table) for r, table in ops.items() if table}
        self.name = name
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

    def suspended_degrees(self):
        return sorted({d + 1 for d in self.module.degrees()})

    def zero_ops(self):
        return not self.ops


def _tensor_diff_terms(field, degrees, labels, module):
    """Koszul differential terms of a word of algebra basis elements.

    Yields (coeff, position, new_label); degrees are the letters' own
    degrees.
    """
    prefix = 0
    for j, (d, l) in enumerate(zip(degrees, labels)):
        for l2, c in module.apply_diff(d, {l: field.one()}).items():
            yield field.mul(field.sign(prefix), c), j, l2
        prefix += d


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

    labels_all = [(d, l) for d in mod.degrees() for l in mod.labels(d)]

    def words(r):
        def rec(k):
            if k == 0:
                yield ()
                return
            for rest in rec(k - 1):
                for dl in labels_all:
                    yield rest + (dl,)

        return rec(r)

    for r in range(2, top + 1):
        if r not in a.ops and not any(s + t - 1 == r and s in a.ops and t in a.ops for s in a.ops for t in a.ops):
            continue
        for word in words(r):
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
            lhs = {}
            # delta . mu_r
            for l2, c in a.op_apply(r, labs).items():
                for l3, c3 in mod.apply_diff(sum(degs) + r - 2, {l2: c}).items():
                    _combo_add(f, lhs, l3, c3)
            # - (-1)^{|mu_r|} mu_r . delta
            sgn = f.sign(r - 2 + 1)
            for c, j, l2 in _tensor_diff_terms(f, degs, labs, mod):
                labs2 = labs[:j] + [l2] + labs[j + 1 :]
                for l3, c3 in a.op_apply(r, labs2).items():
                    _combo_add(f, lhs, l3, f.mul(f.mul(sgn, c), c3))
            rhs = {}
            for s in range(2, r):
                t = r + 1 - s
                if t < 2:
                    continue
                for i in range(1, s + 1):
                    base = stasheff_sign(s, t, i)
                    inner_prefix = sum(degs[: i - 1])
                    kos = (t - 2) * inner_prefix
                    inner = a.op_apply(t, labs[i - 1 : i - 1 + t])
                    for lmid, cmid in inner.items():
                        dmid = sum(degs[i - 1 : i - 1 + t]) + t - 2
                        outer_labs = labs[: i - 1] + [lmid] + labs[i - 1 + t :]
                        for l3, c3 in a.op_apply(s, outer_labs).items():
                            _combo_add(
                                f, rhs, l3, f.mul(f.sign(base + kos), f.mul(cmid, c3))
                            )
            if lhs != rhs:
                diags.append("structure relation fails at arity %d word %r" % (r, tuple(labs)))
                if len(diags) > 8:
                    ok = False
                    return (ok, diags) if report else ok
    ok = not diags
    return (ok, diags) if report else ok


def evaluate_monomial(alg, word_label, arg_triples):
    """Evaluate an As-monomial (a permutation word) on algebra elements.

    arg_triples are (degree, label); returns {(degree, label): coeff}.
    """
    f = alg.field
    degs = [d for d, _ in arg_triples]
    sign = perm.koszul_sign_exponent(degs, perm.inverse(word_label))
    ordered = [arg_triples[v - 1] for v in word_label]
    return _iterated_product(alg, ordered, f.sign(sign))


def evaluate_com(alg, r, arg_triples):
    return _iterated_product(alg, list(arg_triples), alg.field.one())


def _iterated_product(alg, ordered, coeff):
    f = alg.field
    if len(ordered) == 1:
        return {ordered[0]: coeff}
    cur = {ordered[0]: coeff}
    for (d, l) in ordered[1:]:
        nxt = {}
        for (dc, lc), c in cur.items():
            for l2, c2 in alg.op_apply(2, (lc, l)).items():
                _combo_add(f, nxt, (dc + d, l2), f.mul(c, c2))
        cur = nxt
    return cur


def evaluate_tree(alg, tree, arg_triples):
    """Evaluate a Stasheff-operad basis tree on algebra elements.

    Leaves are matched to arguments by label; the arguments are Koszul
    reordered into planar position first, then the tree is evaluated
    bottom-up with the operator tensor sign rule.
    """
    f = alg.field
    if trees.is_leaf(tree):
        return {arg_triples[tree[1] - 1]: f.one()}
    labels = trees.leaf_labels(tree)
    degs = [d for d, _ in arg_triples]
    # letter j moves to the planar position of its leaf
    sigma = tuple(labels.index(j) + 1 for j in range(1, len(labels) + 1))
    sign = f.sign(perm.koszul_sign_exponent(degs, sigma))
    ordered = [arg_triples[l - 1] for l in labels]
    shape = trees.relabel(tree, {labels[k]: k + 1 for k in range(len(labels))})
    out = {}
    for (d, l), c in _evaluate_shape(alg, shape, ordered).items():
        _combo_add(f, out, (d, l), f.mul(sign, c))
    return out


def _evaluate_shape(alg, shape, args):
    f = alg.field
    if trees.is_leaf(shape):
        return {args[0]: f.one()}
    children = shape[1:]
    blocks = []
    pos = 0
    for ch in children:
        a = trees.arity(ch)
        blocks.append(args[pos : pos + a])
        pos += a
    # operator tensor rule: child operator degrees cross earlier blocks
    child_results = []
    sign = 0
    prefix = 0
    for ch, block in zip(children, blocks):
        opdeg = 0 if trees.is_leaf(ch) else trees.degree(ch, alg_degree_map(alg, ch))
        sign += opdeg * prefix
        prefix += sum(d for d, _ in block)
        child_results.append(_evaluate_shape(alg, ch, block))
    r = len(children)
    out = {}

    def rec(j, acc_triples, coeff):
        if j == r:
            for l2, c2 in alg.op_apply(r, tuple(l for _, l in acc_triples)).items():
                d2 = sum(d for d, _ in acc_triples) + r - 2
                _combo_add(f, out, (d2, l2), f.mul(coeff, c2))
            return
        for triple, c in child_results[j].items():
            rec(j + 1, acc_triples + [triple], f.mul(coeff, c))

    rec(0, [], f.sign(sign))
    return out


def alg_degree_map(alg, tree):
    return {name: name[1] - 2 for name in set(trees.vertex_word(tree))}


def evaluate_operad_element(alg, operad, triple, arg_triples):
    """Dispatch evaluation of an operad basis element on algebra args."""
    n, d, label = triple
    if n == 1 and label == operad.unit_label:
        return {arg_triples[0]: alg.field.one()}
    kind = operad.name
    if kind == "As":
        return evaluate_monomial(alg, label, arg_triples)
    if kind == "Com":
        return evaluate_com(alg, n, arg_triples)
    if kind == "K":
        return evaluate_tree(alg, label, arg_triples)
    raise ValueError("no evaluation rule for operad %r" % (kind,))


def algebra_suits_operad(alg, operad):
    """Does this algebra restrict along the canonical maps to `operad`?

    Commutative algebras serve Com, As and K; associative ones serve As
    and K; A-infinity ones only K.
    """
    order = {"comm": 3, "assoc": 2, "ainf": 1}
    need = {"Com": 3, "As": 2, "K": 1}
    return order[alg.kind] >= need.get(operad.name, 3)


# Sym and its quotients ---------------------------------------------------------


class SymPresentation:
    """Sym(M, A) = (+)_n (M(n) (x) A^{(x)n})_{Sigma_n} presented on words.

    Pure labels are (m_triple, a_labels) with a_labels a tuple of
    (degree, label) pairs; `module` is the quotient dg-module; `weight`
    maps kept labels to their word length.
    """

    def __init__(self, field, sigma, algebra_module, weights, extra_relations=None):
        self.field = field
        self.sigma = sigma
        self.algebra_module = algebra_module
        self.weights = list(weights)
        self.presentation = {}
        self.weight_of = {}
        self._build(extra_relations or (lambda d, bigs, index: []))

    def _pure_labels(self, n):
        comp = self.sigma.component(n)
        amod = self.algebra_module
        a_words = [()]
        for _ in range(n):
            a_words = [w + ((d, l),) for w in a_words for d in amod.degrees() for l in amod.labels(d)]
        for dm in comp.degrees():
            for lm in comp.labels(dm):
                for w in a_words:
                    yield ((n, dm, lm), w)

    def _build(self, extra_relations):
        f = self.field
        by_degree = {}
        for n in self.weights:
            for label in self._pure_labels(n):
                (nn, dm, lm), w = label
                d = dm + sum(dd for dd, _ in w)
                by_degree.setdefault(d, []).append(label)
        kept_basis = {}
        for d in sorted(by_degree):
            bigs = by_degree[d]
            index = {lab: i for i, lab in enumerate(bigs)}
            relations = []
            for label in bigs:
                (n, dm, lm), w = label
                for i in range(1, n):
                    rel = {}
                    # (m.s_i) (x) (s_i.a) - m (x) a
                    acted_m = self.sigma.act_adjacent(n, i, dm, lm)
                    aw, sgn = _word_swap(f, w, i)
                    for lm2, cm in acted_m.items():
                        _combo_add(f, rel, ((n, dm, lm2), aw), f.mul(cm, sgn))
                    _combo_add(f, rel, label, f.neg(f.one()))
                    if rel:
                        relations.append({index[lab]: c for lab, c in rel.items()})
            relations.extend(extra_relations(d, bigs, index))
            kept, project = quotient_data(f, len(bigs), relations)
            self.presentation[d] = (bigs, index, kept, project)
            kept_basis[d] = tuple(bigs[i] for i in kept)
            for lab in kept_basis[d]:
                self.weight_of[lab] = len(lab[1])
        mod = DgModule(f, kept_basis, {}, check=False)
        diff = {}
        for d in sorted(kept_basis):
            m = SparseMatrix.zero(f, mod.dim(d - 1), mod.dim(d))
            for label in kept_basis[d]:
                for lab2, c in self.project(d - 1, self.diff_big(label)).items():
                    m.add_to(mod.index(d - 1, lab2), mod.index(d, label), c)
            if not m.is_zero():
                diff[d] = m
        self.module = DgModule(f, kept_basis, diff, check=True)

    def diff_big(self, label):
        f = self.field
        (n, dm, lm), w = label
        out = {}
        comp = self.sigma.component(n)
        for lm2, c in comp.apply_diff(dm, {lm: f.one()}).items():
            _combo_add(f, out, ((n, dm - 1, lm2), w), c)
        sgn = f.sign(dm)
        degs = [dd for dd, _ in w]
        labs = [ll for _, ll in w]
        for c, j, l2 in _tensor_diff_terms(f, degs, labs, self.algebra_module):
            w2 = w[:j] + ((degs[j] - 1, l2),) + w[j + 1 :]
            _combo_add(f, out, ((n, dm, lm), w2), f.mul(sgn, c))
        return out

    def project(self, d, big_combo):
        f = self.field
        pres = self.presentation.get(d)
        if pres is None:
            if any(not f.is_zero(c) for c in big_combo.values()):
                raise ValueError("no Sym component in degree %d" % d)
            return {}
        return project_combo(f, *pres, big_combo)


def _word_swap(field, w, i):
    """Koszul swap of letters i, i+1 (1-based) of an algebra word."""
    (d1, l1), (d2, l2) = w[i - 1], w[i]
    w2 = w[: i - 1] + ((d2, l2), (d1, l1)) + w[i + 1 :]
    return w2, field.sign(d1 * d2)


def sym_apply(sigma, algebra_module, weights):
    """The symmetric-tensor functor Sym(M, E) on explicit weights."""
    return SymPresentation(sigma.field, sigma, algebra_module, weights)


def _d0(right_module, m_triple, word, tail):
    """Collapse the operad layer `word` into m by the right action.

    The coequalizer arrow shared by Sym_R(M, A) and M o_R S; `tail` is
    the untouched last layer (an algebra word or an S-word).
    """
    f = right_module.field
    w_r, inner = word
    out = {}
    for (b, dmb, lm2), c in right_module.gamma(m_triple, list(inner)).items():
        for lm3, c3 in right_module.sigma.act_perm_combo(b, w_r, dmb, {lm2: c}).items():
            _combo_add(f, out, ((b, dmb, lm3), tail), c3)
    return out


class SymOverOperad:
    """Sym_R(M, A): the coequalizer quotient of Sym(M, A).

    `module` is the resulting dg-module; `project_big` maps pure
    Sym(M,A) words into it.  Relations are generated by pure three-level
    words (m; R-word; A-word) via d0 - d1.
    """

    def __init__(self, right_module, algebra, operad, weights, morphism=None):
        self.right_module = right_module
        self.algebra = algebra
        self.operad = operad
        self.field = right_module.field
        if not algebra_suits_operad(algebra, operad) and morphism is None:
            raise AlgebraCheckFailed(
                "algebra of kind %r cannot be fed to operad %r" % (algebra.kind, operad.name)
            )
        self.free = sym_apply(right_module.sigma, algebra.module, weights)
        self._coequalize(weights)

    def _coequalize(self, weights):
        f = self.field
        extra = {}
        for n in weights:
            mcomp = self.right_module.sigma.component(n)
            if mcomp.is_zero():
                continue
            for b in range(n, self.operad.arity_bound() + 1):
                ws = WordSpace(f, [self.operad.sigma] * n, b)
                wcomp = ws.component(b)
                if wcomp.is_zero():
                    continue
                amod = self.algebra.module
                a_words = [()]
                for _ in range(b):
                    a_words = [w + ((d, l),) for w in a_words for d in amod.degrees() for l in amod.labels(d)]
                for dm in mcomp.degrees():
                    for lm in mcomp.labels(dm):
                        for dw in wcomp.degrees():
                            for lw in wcomp.labels(dw):
                                for aw in a_words:
                                    rel = {}
                                    d_total = dm + dw + sum(dd for dd, _ in aw)
                                    for lab, c in _d0(self.right_module, (n, dm, lm), lw, aw).items():
                                        _combo_add(f, rel, lab, c)
                                    for lab, c in self._d1((n, dm, lm), lw, aw).items():
                                        _combo_add(f, rel, lab, f.neg(c))
                                    if rel:
                                        extra.setdefault(d_total, []).append(rel)
        # rebuild the quotient over Sym(M, A) with the extra relations
        def extra_relations(d, bigs, index):
            out = []
            for rel in extra.get(d, ()):
                out.append({index[lab]: c for lab, c in rel.items()})
            return out

        rebuilt = SymPresentation(
            f, self.right_module.sigma, self.algebra.module, self.free.weights, extra_relations
        )
        self.sym = rebuilt
        self.module = rebuilt.module
        self.weight_of = rebuilt.weight_of

    def _d1(self, m_triple, word_label, a_word):
        """Evaluate the operad layer on the algebra arguments."""
        return routed_compose(
            self.field,
            word_label,
            a_word,
            lambda q, args: evaluate_operad_element(self.algebra, self.operad, q, args),
            lambda letters: (m_triple, letters),
        )

    def project_pure(self, m_triple, a_word):
        return self.sym.project(m_triple[1] + sum(d for d, _ in a_word), {(m_triple, a_word): self.field.one()})


def sym_over_operad(right_module, algebra, operad, weights):
    return SymOverOperad(right_module, algebra, operad, weights)


# extension / restriction -------------------------------------------------------


def gamma_along(psi, q_triple, args):
    """gamma_S(psi(q); args) for q in R and a list of S-triples args."""
    f = psi.target.field
    out = {}
    for lq, cq in psi.apply_triple(q_triple).items():
        for triple, c in psi.target.gamma((q_triple[0], q_triple[1], lq), args).items():
            _combo_add(f, out, triple, f.mul(cq, c))
    return out


class ExtendedModule:
    """psi_! M = M o_R S as a right S-module, via the coequalizer."""

    def __init__(self, right_module, psi, arity_bound, check_morphism=True):
        self.field = right_module.field
        self.left = right_module
        self.psi = psi
        self.r_op = psi.source
        self.s_op = psi.target
        if check_morphism:
            from .operads import operad_morphism_check

            if not operad_morphism_check(psi, min(arity_bound, self.r_op.arity_bound(), self.s_op.arity_bound())):
                raise InvalidMorphism("psi is not an operad morphism")
        self.arity_bound = arity_bound
        self.compose_ms = compose(right_module.sigma, self.s_op.sigma, arity_bound)
        self._coequalize()

    def _coequalize(self):
        f = self.field
        relations = {}
        for n in self.left.sigma.arities():
            mcomp = self.left.sigma.component(n)
            for b in range(n, self.arity_bound + 1):
                ws_r = WordSpace(f, [self.r_op.sigma] * n, b)
                if ws_r.component(b).is_zero():
                    continue
                for r_total in range(b, self.arity_bound + 1):
                    ws_s = WordSpace(f, [self.s_op.sigma] * b, r_total)
                    scomp = ws_s.component(r_total)
                    if scomp.is_zero():
                        continue
                    rcomp = ws_r.component(b)
                    for dm in mcomp.degrees():
                        for lm in mcomp.labels(dm):
                            for dr in rcomp.degrees():
                                for lr in rcomp.labels(dr):
                                    for ds in scomp.degrees():
                                        for ls in scomp.labels(ds):
                                            rel = {}
                                            for lab, c in _d0(self.left, (n, dm, lm), lr, ls).items():
                                                _combo_add(f, rel, lab, c)
                                            for lab, c in self._d1((n, dm, lm), lr, ls).items():
                                                _combo_add(f, rel, lab, f.neg(c))
                                            if rel:
                                                relations.setdefault(
                                                    (r_total, dm + dr + ds), []
                                                ).append(rel)
        # quotient the composed module by the relations
        self._quotient(relations)

    def _d1(self, m_triple, r_word, s_word):
        """Evaluate psi of the R-layer on the S-layer, inside S."""
        w_s, s_inner = s_word
        return routed_compose(
            self.field,
            r_word,
            s_inner,
            lambda q, args: gamma_along(self.psi, q, args),
            lambda word: (m_triple, word),
            outer=(w_s, self.s_op.sigma),
        )

    def _quotient(self, relations):
        f = self.field
        base = self.compose_ms
        components = {}
        self.presentation = {}
        for r in base.sigma.arities():
            comp = base.sigma.component(r)
            kept_basis = {}
            for d in comp.degrees():
                quot_labels = comp.labels(d)
                index = {lab: i for i, lab in enumerate(quot_labels)}
                rels = []
                for rel in relations.get((r, d), ()):  # rel over pure labels of M o S
                    vec = {}
                    projected = base.project(r, d, rel)
                    for lab, c in projected.items():
                        vec[index[lab]] = c
                    if vec:
                        rels.append(vec)
                kept, project = quotient_data(f, len(quot_labels), rels)
                self.presentation[(r, d)] = (quot_labels, index, kept, project)
                if kept:
                    kept_basis[d] = tuple(quot_labels[i] for i in kept)
            if not kept_basis:
                continue
            mod = DgModule(f, kept_basis, {}, check=False)
            diff = {}
            for d in sorted(kept_basis):
                m = SparseMatrix.zero(f, mod.dim(d - 1), mod.dim(d))
                for label in kept_basis[d]:
                    big_diff = base.diff_big(label)
                    projected = base.project(r, d - 1, big_diff)
                    for lab2, c in self.project_quotient(r, d - 1, projected).items():
                        m.add_to(mod.index(d - 1, lab2), mod.index(d, label), c)
                if not m.is_zero():
                    diff[d] = m
            components[r] = DgModule(f, kept_basis, diff, check=True)
        actions = {}
        for r in components:
            comp = components[r]
            for i in range(1, r):
                sigma_perm = perm.apply_adjacent(perm.identity(r), i)
                table = {}
                for d in comp.degrees():
                    for label in comp.labels(d):
                        acted = base.sigma.act_perm_combo(r, sigma_perm, d, {label: f.one()})
                        outc = self.project_quotient(r, d, acted)
                        if outc != {label: f.one()}:
                            table[(d, label)] = outc
                if table:
                    actions[(r, i)] = table
        self.sigma = SigmaModule(f, components, actions, check=False)
        self.module = RightModule(f, self.sigma, self.s_op, self._action, name="%s o_R S" % self.left.name)

    def project_quotient(self, r, d, combo_over_compose_basis):
        pres = self.presentation.get((r, d))
        if pres is None:
            if combo_over_compose_basis:
                raise ValueError("no component (%d,%d)" % (r, d))
            return {}
        return project_combo(self.field, *pres, combo_over_compose_basis)

    def project_pure(self, r, d, pure_combo):
        """Project a combo over pure (m; s-word) labels into the quotient."""
        return self.project_quotient(r, d, self.compose_ms.project(r, d, pure_combo))

    def _action(self, m_triple, slot, q_triple):
        """Right S-action on the quotient, through pure representatives."""
        f = self.field
        r, d, label = m_triple
        (k, dm, lm), s_word = label

        ws = self.compose_ms.word_spaces[k]

        def action_fn(owner, local, factor_triple, p_triple):
            out = {}
            for lab, c in self.s_op.compose_partial(factor_triple, local, p_triple).items():
                out[(factor_triple[1] + p_triple[1], lab)] = c
            return out

        moved = ws.compose_into_slot(s_word, slot, q_triple[0], q_triple[1], q_triple[2], action_fn)
        pure = {}
        for lab, c in moved.items():
            pure[((k, dm, lm), lab)] = c
        return self.project_pure(r + q_triple[0] - 1, d + q_triple[1], pure)


def extension(right_module, psi, arity_bound, check_morphism=True):
    """Extension of structure psi_! M = M o_R S along psi: R -> S."""
    return ExtendedModule(right_module, psi, arity_bound, check_morphism)


def direct_sum_right_modules(m1, m2):
    """M (+) N with the slotwise action; labels are tagged L/R."""
    f = m1.field
    if m1.operad is not m2.operad and m1.operad.name != m2.operad.name:
        raise ValueError("summands over different operads")
    components = {}
    actions = {}
    for n in sorted(set(m1.sigma.arities()) | set(m2.sigma.arities())):
        c1, c2 = m1.sigma.component(n), m2.sigma.component(n)
        basis = {}
        for d in sorted(set(c1.degrees()) | set(c2.degrees())):
            basis[d] = tuple(("L", l) for l in c1.labels(d)) + tuple(("R", l) for l in c2.labels(d))
        mod = DgModule(f, basis, {}, check=False)
        diff = {}
        for d in sorted(basis):
            mat = SparseMatrix.zero(f, mod.dim(d - 1), mod.dim(d))
            for tag, src in ((("L",), m1), (("R",), m2)):
                comp = src.sigma.component(n)
                for l in comp.labels(d):
                    for l2, c in comp.apply_diff(d, {l: f.one()}).items():
                        mat.add_to(mod.index(d - 1, (tag[0], l2)), mod.index(d, (tag[0], l)), c)
            if not mat.is_zero():
                diff[d] = mat
        components[n] = DgModule(f, basis, diff, check=False)
        for i in range(1, n):
            table = {}
            for d in basis:
                for tag, src in ((("L",), m1), (("R",), m2)):
                    comp = src.sigma.component(n)
                    for l in comp.labels(d):
                        out = src.sigma.act_adjacent(n, i, d, l)
                        if out != {l: f.one()}:
                            table[(d, (tag[0], l))] = {(tag[0], l2): c for l2, c in out.items()}
            if table:
                actions[(n, i)] = table
    sigma = SigmaModule(f, components, actions, check=False)

    def action(m_triple, slot, q_triple):
        n, d, (tag, label) = m_triple
        src = m1 if tag == "L" else m2
        return {(tag, l2): c for l2, c in src.act_partial((n, d, label), slot, q_triple).items()}

    return RightModule(f, sigma, m1.operad, action, name="%s(+)%s" % (m1.name, m2.name))


def module_hom_dimension(m, n, arity_bound=None):
    """dim of the space of degree-0 right-module chain maps M -> N.

    Unknowns are the matrix entries per (arity, degree); constraints:
    symmetric-group equivariance, commutation with differentials, and
    compatibility with the operad action.  Solved by exact elimination.
    """
    f = m.field
    bound = arity_bound or min(m.sigma.arity_bound(), n.sigma.arity_bound())
    unknowns = []
    index = {}
    for a in range(1, bound + 1):
        mc, nc = m.sigma.component(a), n.sigma.component(a)
        for d in mc.degrees():
            for lm in mc.labels(d):
                for ln in nc.labels(d):
                    index[(a, d, lm, ln)] = len(unknowns)
                    unknowns.append((a, d, lm, ln))
    relations = []

    def add_relation(coeffs):
        vec = {}
        for key, c in coeffs.items():
            if key not in index:
                return False  # forced term outside the unknown space: inconsistent row
            vec[index[key]] = c
        if vec:
            relations.append(vec)
        return True

    for a in range(1, bound + 1):
        mc, nc = m.sigma.component(a), n.sigma.component(a)
        for d in mc.degrees():
            for lm in mc.labels(d):
                # equivariance per generator: f(x.s_i) = f(x).s_i
                for i in range(1, a):
                    lhs = m.sigma.act_adjacent(a, i, d, lm)
                    for ln in nc.labels(d):
                        coeffs = {}
                        for lm2, c in lhs.items():
                            _combo_add(f, coeffs, (a, d, lm2, ln), c)
                        for ln2 in nc.labels(d):
                            out = n.sigma.act_adjacent(a, i, d, ln2)
                            c = out.get(ln)
                            if c is not None:
                                _combo_add(f, coeffs, (a, d, lm, ln2), f.neg(c))
                        add_relation(coeffs)
                # chain map: f(dx) = d(f(x))
                for ln in nc.labels(d - 1):
                    coeffs = {}
                    for lm2, c in mc.apply_diff(d, {lm: f.one()}).items():
                        _combo_add(f, coeffs, (a, d - 1, lm2, ln), c)
                    for ln2 in nc.labels(d):
                        c = nc.apply_diff(d, {ln2: f.one()}).get(ln)
                        if c is not None:
                            _combo_add(f, coeffs, (a, d, lm, ln2), f.neg(c))
                    add_relation(coeffs)
                # module action: f(x o_i q) = f(x) o_i q
                for s in m.operad.sigma.arities():
                    if a + s - 1 > bound:
                        continue
                    for q in m.operad.basis_triples(s):
                        for i in range(1, a + 1):
                            acted = m.act_partial((a, d, lm), i, q)
                            a2, d2 = a + s - 1, d + q[1]
                            for ln in n.sigma.component(a2).labels(d2):
                                coeffs = {}
                                for lm2, c in acted.items():
                                    _combo_add(f, coeffs, (a2, d2, lm2, ln), c)
                                for ln2 in n.sigma.component(a).labels(d):
                                    c = n.act_partial((a, d, ln2), i, q).get(ln)
                                    if c is not None:
                                        _combo_add(f, coeffs, (a, d, lm, ln2), f.neg(c))
                                add_relation(coeffs)
    if not unknowns:
        return 0
    from .linalg import quotient_data

    kept, _ = quotient_data(f, len(unknowns), relations)
    return len(kept)


def restriction(right_module_over_s, psi, check_morphism=True):
    """Restriction of structure: same module, action through psi."""
    if check_morphism:
        from .operads import operad_morphism_check

        if not operad_morphism_check(psi):
            raise InvalidMorphism("psi is not an operad morphism")
    s_module = right_module_over_s
    field = s_module.field

    def action(m_triple, slot, q_triple):
        f = field
        out = {}
        for lq, cq in psi.apply_triple(q_triple).items():
            for lab, c in s_module.act_partial(m_triple, slot, (q_triple[0], q_triple[1], lq)).items():
                _combo_add(f, out, lab, f.mul(cq, c))
        return out

    return RightModule(field, s_module.sigma, psi.source, action, name="psi^*" + s_module.name)
