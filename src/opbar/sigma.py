"""Sigma_*-modules: arity-indexed dg-modules with symmetric group actions.

Conventions:
  * components are indexed by arities n >= 0; operads and their modules
    are non-unitary (zero in arity 0), and only Sym(M, A) lives there;
  * symmetric groups act on the RIGHT; generator actions (adjacent
    transpositions s_1..s_{n-1}) are stored, arbitrary permutations act
    through their transposition words;
  * tensor products of Sigma-modules are materialized on the induced
    basis: a word label is (w, inner) where inner lists the factors'
    (arity, degree, label) triples and w is the canonical representative
    of the right coset (Sigma_{a_1} x ... x Sigma_{a_k})\\Sigma_r,
    the one whose inverse is increasing on each value block.

Routing semantics for (x (x) w): the tensor x expects inputs in
consecutive blocks; block position v is fed by global input w^{-1}(v).

`Coequalizer` is the one builder of M o N and Sym(M, A) (whose algebra
word tails take no inputs, so it sits in arity 0) and, with the (d0 - d1)
relations of `modules.py`, of M o_R S and Sym_R(M, A).
"""

from __future__ import annotations

from itertools import product

from .dg import DgModule, koszul_diff
from .errors import FieldMismatch
from .linalg import Quotient, combo_add, combo_map
from . import perm


class SigmaModule:
    """Collection {M(n)} of dg-modules with right Sigma_n actions.

    `actions` maps (n, i) to {(degree, label): {label2: coeff}}; entries
    missing from the map act as the identity on that basis element.
    Actions of built-in objects are signed basis permutations; computed
    quotients may carry general invertible matrices.  The relations are
    not checked at construction; call check_relations() for that.

    The image of one basis label under one permutation, and the
    differential of one basis triple, are computed once and memoised on
    the module (`_perm_image`, `_diff_image`); the public methods hand
    out new combos, so no caller can change a memoised one.
    """

    def __init__(self, field, components, actions=None):
        self.field = field
        self.components = {n: c for n, c in components.items() if not c.is_zero()}
        self.actions = actions or {}
        self._perm_images = {}
        self._diffs = {}

    @staticmethod
    def from_rule(field, components, act):
        """Build from components {n: DgModule} and act(n, s_i, d, label) -> the combo label . s_i.

        s_i is the adjacent transposition (i i+1) of 1..n as a
        permutation; images equal to the label itself are not stored.
        """
        one = field.one()
        actions = {}
        for n, comp in sorted(components.items()):
            for i in range(1, n):
                s_i = perm.apply_adjacent(perm.identity(n), i)
                table = {}
                for d in comp.degrees():
                    for label in comp.labels(d):
                        out = act(n, s_i, d, label)
                        if out != {label: one}:
                            table[(d, label)] = out
                if table:
                    actions[(n, i)] = table
        return SigmaModule(field, components, actions)

    def arities(self):
        return sorted(self.components)

    def arity_bound(self):
        return max(self.components) if self.components else 0

    def component(self, n):
        c = self.components.get(n)
        return c if c is not None else DgModule.zero(self.field)

    def basis_triples(self, n):
        """The basis of M(n) as (arity, degree, label) triples, degree by degree."""
        comp = self.component(n)
        for d in comp.degrees():
            for label in comp.labels(d):
                yield (n, d, label)

    def differential_combo(self, triple):
        """d of a basis element (arity, degree, label), as a new combo {triple: coeff}."""
        return dict(self._diff_image(triple))

    def _diff_image(self, triple):
        """d of a basis triple, memoised: the combo is shared and must not be modified."""
        out = self._diffs.get(triple)
        if out is None:
            n, d, label = triple
            diff = self.component(n).apply_diff(d, {label: self.field.one()})
            out = self._diffs[triple] = {(n, d - 1, l2): c for l2, c in diff.items()}
        return out

    def dims(self):
        return {n: {d: c.dim(d) for d in c.degrees()} for n, c in sorted(self.components.items())}

    def total_dim(self, n):
        return self.component(n).total_dim()

    def is_zero(self):
        return not self.components

    # actions ---------------------------------------------------------------

    def act_adjacent(self, n, i, d, label):
        """Right action of s_i on a basis element; returns a combo."""
        table = self.actions.get((n, i))
        if table is None:
            return {label: self.field.one()}
        out = table.get((d, label))
        if out is None:
            return {label: self.field.one()}
        return dict(out)

    def act_perm_combo(self, n, sigma, d, combo):
        """combo . sigma by the stored right action, as a new combo.

        Each basis label of `combo` is mapped through `_perm_image`, so the
        transposition word of sigma is walked once per label and module.
        """
        return combo_map(self.field, combo, lambda label: self._perm_image(n, sigma, d, label))

    def _perm_image(self, n, sigma, d, label):
        """label . sigma, memoised: the combo is shared and must not be modified."""
        key = (n, sigma, d, label)
        out = self._perm_images.get(key)
        if out is None:
            word = perm.transposition_word(sigma)
            out = self._perm_images[key] = self._act_word(n, word, d, {label: self.field.one()})
        return out

    def _act_word(self, n, word, d, combo):
        """combo . s_{word[0]} ... s_{word[-1]}, a new combo."""
        cur = dict(combo)
        for i in word:
            cur = combo_map(self.field, cur, lambda label: self.act_adjacent(n, i, d, label))
        return cur

    def suspend(self):
        """Degree shift +1 on every component, labels wrapped with 's'.

        The group actions are unchanged (the suspension coordinate has
        no inputs); differentials flip sign per the suspension rule.
        """
        from .dg import suspension

        comps = {n: suspension(c) for n, c in self.components.items()}
        actions = {}
        for (n, i), table in self.actions.items():
            actions[(n, i)] = {
                (d + 1, ("s", label)): {("s", l2): c for l2, c in out.items()}
                for (d, label), out in table.items()
            }
        return SigmaModule(self.field, comps, actions)

    def check_relations(self):
        """Involution, braid and commutation relations; action vs diff.  Returns self."""
        one = self.field.one()
        for n, comp in self.components.items():
            gens = list(range(1, n))
            for d, label in comp.basis_pairs():
                for i in gens:
                    if self._act_word(n, (i, i), d, {label: one}) != {label: one}:
                        raise ValueError("s_%d^2 != 1 on %r (arity %d)" % (i, label, n))
            for i in gens:
                for j in range(i + 1, n):
                    word_a = [i, j, i] if j == i + 1 else [i, j]
                    word_b = [j, i, j] if j == i + 1 else [j, i]
                    for d, label in comp.basis_pairs():
                        x = {label: one}
                        if self._act_word(n, word_a, d, x) != self._act_word(n, word_b, d, x):
                            raise ValueError("braid/commutation failure at s_%d,s_%d (arity %d)" % (i, j, n))
            # action commutes with the differential
            for i in gens:
                for d in list(comp.diff):
                    for label in comp.labels(d):
                        lhs = comp.apply_diff(d, self.act_adjacent(n, i, d, label))
                        rhs = self._act_word(n, (i,), d - 1, comp.apply_diff(d, {label: one}))
                        if lhs != rhs:
                            raise ValueError("action does not commute with diff (arity %d)" % n)
        return self

    def __repr__(self):
        return "SigmaModule(%r, arities %s)" % (self.field, self.arities())


# ---------------------------------------------------------------------------
# word spaces: tensor powers / products of Sigma-modules


class WordSpace:
    """N_1 (x) ... (x) N_k materialized arity by arity.

    Basis label at arity r: (w, inner), inner a k-tuple of
    (arity, degree, label) triples into the factors, w the canonical
    right-coset representative for the block sizes.
    """

    def __init__(self, field, factors, arity_bound):
        if not factors:
            raise ValueError("need at least one factor")
        for fac in factors:
            if fac.field != field:
                raise FieldMismatch("word space factors over different fields")
        self.field = field
        self.factors = list(factors)
        self.arity_bound = arity_bound
        self._components = {}
        self._splits = {}
        self._build()
        self._sigma = None

    # construction -----------------------------------------------------------

    def _build(self):
        k = len(self.factors)
        for r in range(k, self.arity_bound + 1):
            by_degree = {}
            for sizes in self._arity_splits(r):
                cosets = perm.multishuffles(sizes)
                inner_choices = []
                for j, a in enumerate(sizes):
                    comp = self.factors[j].component(a)
                    triples = []
                    for d in comp.degrees():
                        for l in comp.labels(d):
                            triples.append((a, d, l))
                    inner_choices.append(triples)
                for inner in product(*inner_choices):
                    d_total = sum(t[1] for t in inner)
                    for w in cosets:
                        by_degree.setdefault(d_total, []).append((w, inner))
            if by_degree:
                self._components[r] = DgModule.from_rule(self.field, by_degree, lambda d, label: self.diff_combo(label))

    def _arity_splits(self, r):
        k = len(self.factors)
        out = []

        def rec(j, remaining, acc):
            if j == k:
                if remaining == 0:
                    out.append(tuple(acc))
                return
            for a in self.factors[j].arities():
                if a > remaining - (k - j - 1):
                    continue
                rec(j + 1, remaining - a, acc + [a])

        rec(0, r, [])
        return out

    def component(self, r):
        c = self._components.get(r)
        return c if c is not None else DgModule.zero(self.field)

    def arities(self):
        return sorted(self._components)

    # label operations --------------------------------------------------------

    @staticmethod
    def degree(label):
        """The degree of a word label, the sum of its factors' degrees."""
        return sum(t[1] for t in label[1])

    def diff_combo(self, label):
        """Koszul differential: sum over factors of the internal diffs."""
        w, inner = label
        terms = koszul_diff(self.field, inner, lambda j, t: (t[1], self.factors[j]._diff_image(t)))
        return {(w, inner2): c for inner2, c in terms.items()}

    def right_act(self, r, sigma, label):
        """(x (x) w) . sigma = (x . h) (x) w' where w sigma = h w'."""
        w, inner = label
        h_parts, w2 = self._coset_split(perm.compose(w, sigma), tuple(t[0] for t in inner))
        return _act_blockwise(self.field, self.factors, h_parts, w2, inner)

    def _coset_split(self, sigma, sizes):
        """perm.coset_canonicalize(sigma, sizes) as (h_parts tuple, w), memoised on this word space."""
        key = (sigma, sizes)
        out = self._splits.get(key)
        if out is None:
            h_parts, w = perm.coset_canonicalize(sigma, sizes)
            out = self._splits[key] = (tuple(h_parts), w)
        return out

    def factor_swap(self, j, label):
        """Swap factors j and j+1 (1-based); Koszul sign, coset recomputed.

        Only valid when the two factor modules coincide.
        """
        f = self.field
        w, inner = label
        a1, d1, l1 = inner[j - 1]
        a2, d2, l2 = inner[j]
        sizes = tuple(t[0] for t in inner)
        offset = sum(sizes[: j - 1])
        # rho maps the new value blocks order-preservingly onto the old
        # ones; the new routing is w' = rho^{-1} o w, which is again
        # canonical.
        rho_local = tuple([v + a1 for v in range(1, a2 + 1)] + [v for v in range(1, a1 + 1)])
        rho = perm.block_sum(
            [perm.identity(offset), rho_local, perm.identity(sum(sizes) - offset - a1 - a2)]
        )
        w2 = perm.compose(perm.inverse(rho), w)
        new_inner = inner[: j - 1] + ((a2, d2, l2), (a1, d1, l1)) + inner[j + 1 :]
        return {(w2, new_inner): f.sign(d1 * d2)}

    def apply_at(self, label, i, rlen, op, op_degree):
        """Apply an operator to the contiguous factors i..i+rlen-1.

        `op(u, sub_inner)` consumes the inner canonical representative u
        and the sub-factors' triples, returning a combo over
        (degree, label) pairs in the merged target component (whose
        arity is the sum of the consumed arities).  The Koszul prefix
        sign of moving the degree-`op_degree` operator past the first
        i-1 factors is applied here.  Result combos are labeled for the
        word space with the consumed factors replaced by one factor.
        """
        f = self.field
        w, inner = label
        sizes = tuple(t[0] for t in inner)
        coarse = sizes[: i - 1] + (sum(sizes[i - 1 : i - 1 + rlen]),) + sizes[i - 1 + rlen :]
        # w is canonical for the fine blocks, so w = h . w_coarse with h the
        # identity off the merged block, where it is the inner representative u
        h_parts, w_coarse = self._coset_split(w, coarse)
        u = h_parts[i - 1]
        sub = inner[i - 1 : i - 1 + rlen]
        merged_arity = coarse[i - 1]
        prefix = sum(t[1] for t in inner[: i - 1])
        sgn = f.sign(op_degree * prefix)
        out = {}
        for (d2, l2), c in op(u, sub).items():
            lab2 = (w_coarse, inner[: i - 1] + ((merged_arity, d2, l2),) + inner[i - 1 + rlen :])
            combo_add(f, out, lab2, f.mul(sgn, c))
        return out

    def compose_into_slot(self, label, slot, p_arity, p_degree, p_label, action_fn):
        """Right operadic action: insert p into global input `slot`.

        `action_fn(j_factor, local_slot, factor_triple, p)` returns the
        combo of (degree,label) pairs in the owning factor's component
        at arity a_j + p_arity - 1 after partial composition.  The
        Koszul sign of moving p past the factors to the right of the
        owner is applied here; the coset becomes w o_slot id, then is
        re-canonicalized.
        """
        f = self.field
        w, inner = label
        sizes = tuple(t[0] for t in inner)
        v = w[slot - 1]
        # owning factor: the value block containing v
        acc = 0
        owner = None
        for j, a in enumerate(sizes):
            if v <= acc + a:
                owner = j
                local = v - acc
                break
            acc += a
        tail_deg = sum(t[1] for t in inner[owner + 1 :])
        sgn = f.sign(p_degree * tail_deg)
        w_new = perm.block_substitution(w, slot, perm.identity(p_arity))
        new_sizes = sizes[:owner] + (sizes[owner] + p_arity - 1,) + sizes[owner + 1 :]
        h_parts, w_canon = self._coset_split(w_new, new_sizes)
        out = {}
        for (d2, l2), c in action_fn(owner, local, inner[owner], (p_arity, p_degree, p_label)).items():
            new_inner = inner[:owner] + ((new_sizes[owner], d2, l2),) + inner[owner + 1 :]
            for lab, c2 in _act_blockwise(f, self.factors, h_parts, w_canon, new_inner).items():
                combo_add(f, out, lab, f.mul(f.mul(sgn, c), c2))
        return out

    def as_sigma(self):
        """Materialize as a SigmaModule (actions computed via cosets)."""
        if self._sigma is not None:
            return self._sigma
        self._sigma = SigmaModule.from_rule(
            self.field, dict(self._components), lambda r, s_i, d, label: self.right_act(r, s_i, label)
        )
        return self._sigma


# ---------------------------------------------------------------------------
# routed composition


def _act_blockwise(field, factors, h_parts, w, inner):
    """The word label (w, inner) with h = h_1 x ... x h_k acting on its factors.

    Factor j, the triple inner[j], is acted on by h_parts[j] through the
    Sigma-module factors[j].  Returns {(w, triples): coeff}.
    """
    expanded = [factors[j]._perm_image(a, h_parts[j], d, l) for j, (a, d, l) in enumerate(inner)]
    result = {}
    for choice in product(*(c.items() for c in expanded)):
        c_total = field.one()
        triples = []
        for (a, d, _), (l2, c2) in zip(inner, choice):
            c_total = field.mul(c_total, c2)
            triples.append((a, d, l2))
        combo_add(field, result, (w, tuple(triples)), c_total)
    return result


def routed_compose(field, word, args, evaluate, label, outer=None):
    """Evaluate the factors of a routed word on the arguments routed to them.

    `word` = (w, inner) is a word-space label: argument p feeds factor j
    when w(p) lies in value block j, and factor j takes its arguments in
    increasing order of p.  `evaluate(inner[j], group_args)` returns the
    value of factor j as a combo.  The product of the factors' values
    carries the Koszul sign of moving the arguments into factor order
    and, by (f (x) g)(x (x) y) = (-1)^{|g||x|} f(x) (x) g(y), the sign of
    each factor's degree passing the arguments of the factors before it.
    `label(keys)` names the term for one key per factor.

    Without `outer`, the arguments are letters (degree, label).  With
    `outer` = (w_s, sigma), they are the factor triples (arity, degree,
    label) of the routed word (w_s, args) in the Sigma-module `sigma`,
    and each factor's value is an element of `sigma` whose inputs are
    those of its arguments in order.  The terms are then words over
    `sigma`, re-canonicalised, and `label` receives their labels (w, triples).
    """
    w, inner = word
    w_inv = perm.inverse(w)
    groups = [[w_inv[v - 1] for v in blk] for blk in perm.blocks_of(tuple(t[0] for t in inner))]
    degrees = [a[0] if outer is None else a[1] for a in args]
    # Koszul sign of moving the arguments into factor order
    order = [0] * len(w)
    for newpos, p in enumerate(p for group in groups for p in group):
        order[p - 1] = newpos + 1
    exponent = perm.koszul_sign_exponent(degrees, tuple(order))
    # operator sign: factor j passes the arguments of factors 1..j-1
    prefix = 0
    for (_, d_j, _), group in zip(inner, groups):
        exponent += d_j * prefix
        prefix += sum(degrees[p - 1] for p in group)
    values = [evaluate(t, [args[p - 1] for p in group]) for t, group in zip(inner, groups)]
    if outer is not None:
        # the composite routing: factor j's inputs are those of its arguments
        w_s, sigma = outer
        w_s_inv = perm.inverse(w_s)
        s_blocks = perm.blocks_of(tuple(a[0] for a in args))
        inputs = [[w_s_inv[v - 1] for p in group for v in s_blocks[p - 1]] for group in groups]
        routing = [0] * len(w_s)
        for pos, inp in enumerate((inp for lst in inputs for inp in lst), 1):
            routing[inp - 1] = pos
        h_parts, w_canon = perm.coset_canonicalize(tuple(routing), tuple(len(lst) for lst in inputs))
        factors = [sigma] * len(inner)
    sign = field.sign(exponent)
    out = {}
    for choice in product(*(v.items() for v in values)):
        c = sign
        for _, c2 in choice:
            c = field.mul(c, c2)
        keys = tuple(k for k, _ in choice)
        if outer is None:
            combo_add(field, out, label(keys), c)
        else:
            for lab, c3 in _act_blockwise(field, factors, h_parts, w_canon, keys).items():
                combo_add(field, out, label(lab), field.mul(c, c3))
    return out


def sigma_tensor(m, n, arity_bound):
    """Tensor product of Sigma-modules on the induced basis."""
    return WordSpace(m.field, [m, n], arity_bound).as_sigma()


class Coequalizer:
    """(+)_k M(k) (x)_{Sigma_k} T_k, presented as one quotient per key.

    The one builder of M o N, M o_R S, Sym(M, A) and Sym_R(M, A).  Pure
    labels are (m, t), m = (k, degree, label) in M(k) with k in
    `factor_counts` and t a basis label of the tail space T_k = tail(k):
    the word space N^{(x)k} for M o N, the words of k algebra letters
    (`modules.AlgebraWords`, in arity 0) for Sym(M, A).  A tail space
    gives `component(r)`, `degree(t)`, `diff_combo(t)`, `factor_swap(i,
    t)` (s_i on its factors, Koszul signed) and, in arity r > 0,
    `right_act(r, s_i, t)`.  Per key (r, degree), r in `tail_arities`,
    one Quotient eliminates the Sigma relations (m.s_i; t) - (m; s_i.t)
    together with `relations(self)[key]`, further combos over the pure
    labels.  `sigma` is the quotient Sigma-module.
    """

    def __init__(self, left, tail, factor_counts, tail_arities, relations=None):
        self.field = left.field
        self.left = left
        self._make_tail = tail
        self.tails = {}
        self.factor_counts = [k for k in factor_counts if not left.component(k).is_zero()]
        for k in self.factor_counts:  # before `relations` reads them
            self.tail(k)
        self.tail_arities = tuple(tail_arities)
        self.quotients = {}
        self._build(relations(self) if relations else {})

    def tail(self, k):
        """The k-th tail space, built on first use."""
        if k not in self.tails:
            self.tails[k] = self._make_tail(k)
        return self.tails[k]

    def _build(self, relations):
        f = self.field
        components = {}
        for r in self.tail_arities:
            by_degree = {}
            for k in self.factor_counts:
                tcomp = self.tails[k].component(r)
                for m in self.left.basis_triples(k):
                    for dt, t in tcomp.basis_pairs():
                        by_degree.setdefault(m[1] + dt, []).append((m, t))
            for d in sorted(by_degree):
                rels = []
                for (k, dm, lm), t in by_degree[d]:
                    for i in range(1, k):
                        rel = {}
                        for lm2, cm in self.left.act_adjacent(k, i, dm, lm).items():
                            combo_add(f, rel, ((k, dm, lm2), t), cm)
                        for t2, ct in self.tails[k].factor_swap(i, t).items():
                            combo_add(f, rel, ((k, dm, lm), t2), f.neg(ct))
                        if rel:
                            rels.append(rel)
                rels.extend(relations.get((r, d), ()))
                self.quotients[(r, d)] = Quotient(f, by_degree[d], rels)
            basis = {d: self.quotients[(r, d)].kept for d in sorted(by_degree)}
            components[r] = DgModule.from_rule(f, basis, lambda d, label: self.project(r, d - 1, self.diff_big(label)))
        self.sigma = SigmaModule.from_rule(f, components, self._act)

    def _act(self, r, s_i, d, label):
        m, t = label
        acted = self.tails[m[0]].right_act(r, s_i, t)
        return self.project(r, d, {(m, t2): c for t2, c in acted.items()})

    def diff_big(self, label):
        """d of a pure label, the two-letter word (m, t)."""
        tail = self.tails[label[0][0]]

        def letter_diff(j, x):
            if j == 0:
                return x[1], self.left.differential_combo(x)
            return tail.degree(x), tail.diff_combo(x)

        return koszul_diff(self.field, label, letter_diff)

    def project(self, r, d, big_combo):
        """Project a combo over pure labels to the kept quotient basis."""
        return Quotient.project_in(self.field, self.quotients, (r, d), big_combo)


def compose(m, n, arity_bound):
    """The composition product M o N of Sigma-modules, up to `arity_bound`."""
    factor_counts = [k for k in m.arities() if k <= arity_bound]
    return Coequalizer(m, lambda k: WordSpace(m.field, [n] * k, arity_bound), factor_counts, range(1, arity_bound + 1))
