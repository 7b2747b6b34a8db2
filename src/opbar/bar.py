"""The bar complex, the bar module, shuffle products, iterated bar.

A bar word is a tuple of letters (degree, label) from the source
algebra; the word's dg-degree is the sum of the suspended degrees
(degree + 1 per letter).  The differential is the sum of

  * the internal part: the Koszul differential of the suspended word,
    each letter contributing d(s a) = -s(d a) past the suspended prefix;
  * the bar coderivation: for each generating operation mu_r and each
    position, the suspended operator

        b_r = s . mu_r . (s^{-1})^{(x) r}

    applied to r consecutive letters, with all signs produced by the
    operator tensor rule.

Each piece of the differential is computed once per complex: every
letter's differential is read from the algebra when the complex is
built, and each signed b_r is memoised on its chunk of r letters, so a
word's differential only places stored terms with the sign of its
suspended prefix.

Inside the build a letter is coded by its index in the algebra's
`basis_pairs()`, which lists the letters by ascending degree.  Words,
b_r chunks and the row index of each block are tuples of these small
ints, and the (degree, label) words are decoded once, for the basis.
Words are enumerated depth-first with the letters in order; after a
prefix, the letters that can still reach the window form one slice of
the ascending suspended degrees, found by bisection.  `diff_word`
encodes a word, runs the same coded kernel and decodes the terms.

Weight truncation is exact when the suspended letter degrees all have
the same sign: a degree-d word then has weight at most |d|+1 over the
minimal absolute suspended degree, and `sound_weight_bound` computes
the cutoff for a requested window.  Mixed-sign inputs require an
explicit weight bound and raise TruncationUnsound otherwise.

The bar module B_R = B(eta^* R) is built along the morphism eta: K -> R
that the operad names (`Operad.from_stasheff`), with one word space of
suspended letters per weight and each b_r operator built once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property, partial

from . import perm, trees
from .dg import DegreeWindow, DgMap, DgModule, homology
from .errors import AlgebraCheckFailed, InvalidMorphism, NotCommutative, TruncationUnsound
from .linalg import SparseMatrix, combo_add, combo_map
from .modules import (
    DgAlgebra,
    RightModule,
    SymOverOperad,
    TensorRightModule,
    check_algebra,
    evaluate_operad_element,
    extension,
    gamma_along,
    operad_right_module,
    suspend_right_module,
)
from .operads import compose_morphisms, operad_morphism_check
from .sigma import SigmaModule, routed_compose


def sound_weight_bound(suspended_degrees, window):
    """Largest weight that can meet [window.lo - 1, window.hi + 1].

    Returns None when truncation by weight cannot be exact (mixed signs
    or a zero suspended degree).
    """
    degs = sorted(set(suspended_degrees))
    if not degs:
        return 0
    if degs[0] > 0:
        reach = window.hi + 1
        if reach < degs[0]:
            return 0
        return reach // degs[0]
    if degs[-1] < 0:
        reach = 1 - window.lo
        if reach < -degs[-1]:
            return 0
        return reach // (-degs[-1])
    return None


def require_sound_weight_bound(suspended_degrees, window):
    """sound_weight_bound, raising TruncationUnsound where truncation by weight cannot be exact."""
    bound = sound_weight_bound(suspended_degrees, window)
    if bound is None:
        raise TruncationUnsound(
            "mixed-sign suspended degrees %r need an explicit weight bound" % (sorted(set(suspended_degrees)),)
        )
    return bound


def desuspension_parity(susp_degs):
    """Parity of (s^{-1})^{(x) r} on letters of the given suspended degrees."""
    r = len(susp_degs)
    return sum((r - j - 1) * susp_degs[j] for j in range(r)) % 2


class BarComplex:
    """B(A), truncated to a weight bound and a degree window."""

    def __init__(self, algebra, window, weight_bound=None):
        self.algebra = algebra
        self.field = algebra.field
        self.window = window
        # an algebra whose record covers every relation its operations enter is not checked again
        if algebra.checked_through < algebra.max_op_arity() + 1:
            ok, diags = check_algebra(algebra, report=True)
            if not ok:
                raise AlgebraCheckFailed("; ".join(diags[:3]))
        susp = [d + 1 for d in algebra.module.degrees()]
        auto = sound_weight_bound(susp, window)
        if weight_bound is None:
            weight_bound = require_sound_weight_bound(susp, window)
        self.weight_bound = weight_bound
        self.exact_in_window = auto is not None and weight_bound >= auto
        self._build()

    # construction -------------------------------------------------------------

    def _build(self):
        f = self.field
        amod = self.algebra.module
        letters = self._letters = amod.basis_pairs()
        self._code = {letter: x for x, letter in enumerate(letters)}
        susp = [d + 1 for d, _ in letters]
        self._odd = [s & 1 for s in susp]
        first = {}  # degree -> code of its first letter
        for x, (d, _) in enumerate(letters):
            first.setdefault(d, x)
        # d(s a) = -s(d a): each letter's terms with their coefficient after an even and
        # after an odd suspended prefix, read in one pass over each degree's block
        self._letter_diff = [[] for _ in letters]
        minus, one = f.sign(1), f.one()
        for d, m in amod.diff.items():
            for (i, j), c in m.entries.items():
                c = f.mul(one, c)  # reduced, as `apply_diff` hands it out
                if c:
                    self._letter_diff[first[d] + j].append((first[d - 1] + i, f.mul(minus, c), c))
        # 0 stands for the internal part, left out when no letter has a differential
        internal = (0,) if any(self._letter_diff) else ()
        self._arities = internal + tuple(sorted(self.algebra.ops))
        self._b_terms = {}
        lo, hi = self.window.lo - 1, self.window.hi + 1
        # the furthest one more letter can move the degree down and up
        down = min(susp + [0])
        up = max(susp + [0])
        wb = self.weight_bound
        words_by_degree = {}
        # depth-first, letters in order: children are pushed in reverse
        stack = [((), 0)]
        while stack:
            word, deg = stack.pop()
            n = len(word)
            if n >= 1 and lo <= deg <= hi:
                words_by_degree.setdefault(deg, []).append(word)
            if n == wb:
                continue
            remaining = wb - n - 1
            # the letters after which `remaining` more letters can still reach [lo, hi]:
            # one slice of the ascending suspended degrees
            start = bisect_left(susp, lo - deg - up * remaining)
            for x in range(bisect_right(susp, hi - deg - down * remaining) - 1, start - 1, -1):
                stack.append((word + (x,), deg + susp[x]))
        basis, diff = {}, {}
        rows = {}  # coded word -> row, for the words one degree below
        for d in sorted(words_by_degree):
            words = words_by_degree.pop(d)
            if d - 1 not in basis:
                rows = {}
            # words of degree window.lo - 1 keep no differential; inside the window every
            # target word was enumerated
            if d >= self.window.lo:
                m = diff[d] = SparseMatrix(f, len(rows), len(words))
                entries = m.entries
                for j, w in enumerate(words):
                    for w2, c in self._coded_diff(w).items():
                        i = rows.get(w2)
                        if i is None:
                            raise ValueError(
                                "d(%r) names %r, not a basis label in degree %d"
                                % (self._decode(w), self._decode(w2), d - 1)
                            )
                        entries[(i, j)] = c
            basis[d] = tuple([self._decode(w) for w in words])
            rows = {w: j for j, w in enumerate(words)}
        self.module = DgModule(f, basis, diff)

    @cached_property
    def weight_of(self):
        """word -> weight, over the whole basis; built on first use."""
        return {w: len(w) for d in self.module.degrees() for w in self.module.labels(d)}

    def _decode(self, w):
        """A coded word as its tuple of (degree, label) letters."""
        return tuple(map(self._letters.__getitem__, w))

    def _b_term(self, chunk):
        """b_r on a coded chunk of r letters, memoised: per term of mu_r its letter's code
        and its coefficient after an even and after an odd suspended prefix."""
        f = self.field
        letters = [self._letters[x] for x in chunk]
        r = len(chunk)
        sgn = f.sign(desuspension_parity([d + 1 for d, _ in letters]))
        d2 = sum(d for d, _ in letters) + r - 2
        terms = []
        for l2, c in self.algebra.op_apply(r, tuple(l for _, l in letters)).items():
            x2 = self._code.get((d2, l2))
            if x2 is None:
                raise ValueError("mu_%d names %r, not a basis label in degree %d" % (r, l2, d2))
            c = f.mul(sgn, c)
            if c:
                terms.append((x2, c, f.mul(f.sign(1), c)))
        terms = self._b_terms[chunk] = tuple(terms)
        return terms

    def _coded_diff(self, w):
        """The differential of a coded word, as {coded word: coeff}: the internal
        part letter by letter, then each b_r at every position,
        r ascending, each term signed by its suspended prefix and summed in as
        `combo_add` would."""
        p = self.field.p
        letter_diff, b_terms, odd_of = self._letter_diff, self._b_terms, self._odd
        out = {}
        get = out.get
        n = len(w)
        # r = 0 stands for the internal part, whose pieces are single letters
        for r in self._arities:
            k = r or 1
            if k > n:
                break
            odd = 0  # parity of the suspended letters before position i
            for i in range(n - k + 1):
                if r:
                    chunk = w[i : i + k]
                    terms = b_terms.get(chunk)
                    if terms is None:
                        terms = self._b_term(chunk)
                else:
                    terms = letter_diff[w[i]]
                if terms:
                    head, tail = w[:i], w[i + k :]
                    for x2, c_even, c_odd in terms:
                        w2 = head + (x2,) + tail
                        c = c_odd if odd else c_even
                        cur = get(w2)
                        if cur is not None:
                            c = (cur + c) % p if p else cur + c
                            if not c:
                                del out[w2]
                                continue
                        out[w2] = c
                odd ^= odd_of[w[i]]
        return out

    def diff_word(self, word):
        """Internal differential plus bar coderivation of a basis word."""
        out = self._coded_diff(tuple(map(self._code.__getitem__, word)))
        return {self._decode(w2): c for w2, c in out.items()}

    # structure ------------------------------------------------------------------

    def homology(self, window=None):
        return homology(self.module, window or self.window)


def bar(algebra, window, weight_bound=None):
    return BarComplex(algebra, window, weight_bound)


# shuffle product ---------------------------------------------------------------


def shuffle_word_product(field, u, v):
    """Sum over (m,n)-shuffles with Koszul signs in suspended degrees (all +1 over F_2, so not computed there)."""
    m, n = len(u), len(v)
    letters = list(u) + list(v)
    susp = [d + 1 for d, _ in letters]
    signed = field.p != 2
    out = {}
    for w in perm.shuffles(m, n):
        placed = [None] * (m + n)
        for j, pos in enumerate(w):
            placed[pos - 1] = letters[j]
        sgn = field.sign(perm.koszul_sign_exponent(susp, w)) if signed else field.one()
        combo_add(field, out, tuple(placed), sgn)
    return out


def shuffle_product(bar_complex):
    """The commutative algebra structure on B(A) for commutative A.

    Returns a DgAlgebra whose carrier is the bar complex; products whose
    degree falls outside the carrier support are omitted (they are never
    needed at the sound weight bound).  It is recorded as checked through
    arity 3: B(A) of a commutative A, which `bar` checked, is commutative.
    """
    if not bar_complex.algebra.is_commutative_kind():
        raise NotCommutative("shuffle product requires a commutative source algebra")
    f = bar_complex.field
    mod = bar_complex.module
    degrees = mod.degrees()
    table = {}
    # only the degree buckets whose sum lies in the support, paired in the order of
    # a scan over all pairs
    for du in degrees:
        targets = [(mod.labels(dv), mod._index[du + dv]) for dv in degrees if du + dv in mod._index]
        for u in mod.labels(du):
            for vs, words in targets:
                for v in vs:
                    prod = {w: c for w, c in shuffle_word_product(f, u, v).items() if w in words}
                    if prod:
                        table[(u, v)] = prod
    out = DgAlgebra(f, "comm", mod, {2: table}, name="B(%s)" % bar_complex.algebra.name)
    out.checked_through = 3
    return out


def iterated_bar(algebra, iterations, window, weight_bounds=None):
    """B^n(A) for commutative A, re-equipped each round via shuffles.

    Inner windows are derived from the requested outer window; the
    construction raises TruncationUnsound when a level's support makes
    exact weight truncation impossible.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not algebra.is_commutative_kind():
        raise NotCommutative("iterated bar requires a commutative algebra")
    windows = [window]
    for _ in range(iterations - 1):
        w = windows[-1]
        if w.hi <= -1:
            windows.append(DegreeWindow(w.lo - 2, -2))
        elif w.lo >= 0:
            windows.append(DegreeWindow(min(1, w.lo), w.hi))
        else:
            windows.append(DegreeWindow(w.lo - 2, w.hi))
    windows.reverse()
    cur = algebra
    complexes = []
    for level in range(iterations):
        wb = None if weight_bounds is None else weight_bounds[level]
        b = bar(cur, windows[level], wb)
        complexes.append(b)
        if level < iterations - 1:
            cur = shuffle_product(b)
    return complexes


# the bar module ------------------------------------------------------------------


class BarModule:
    """B_R = B(eta^* R): the right R-module of suspended operad words.

    Arity components collect all weights (weight <= arity, since every
    letter has arity >= 1); the differential is internal + coderivation,
    with the left Stasheff action given by eta followed by the operad
    composition.  `tensor_modules[n].words`, over the one suspension of
    the operad, gives the basis, differential, Sigma- and right action.
    """

    def __init__(self, operad, eta, arity_bound):
        self.operad = operad
        self.eta = eta
        self.field = operad.field
        self.arity_bound = arity_bound
        if not operad_morphism_check(eta, min(arity_bound, eta.source.arity_bound())):
            raise InvalidMorphism("eta: K -> R is not an operad morphism")
        self.susp_module = suspend_right_module(operad_right_module(operad))
        self.tensor_modules = {
            n: TensorRightModule([self.susp_module] * n, arity_bound) for n in range(1, arity_bound + 1)
        }
        self._b_operators = {rr: self._b_operator(rr) for rr in range(2, min(arity_bound, operad.arity_bound()) + 1)}
        self._build()

    def _build(self):
        f = self.field
        components = {}
        for r in range(1, self.arity_bound + 1):
            by_degree = {}
            for n in range(1, r + 1):
                comp = self.tensor_modules[n].words.component(r)
                for d in comp.degrees():
                    for label in comp.labels(d):
                        by_degree.setdefault(d, []).append((n, label))
            if not by_degree:
                continue
            basis = {d: tuple(ls) for d, ls in sorted(by_degree.items())}
            components[r] = DgModule.from_rule(f, basis, lambda d, label: self.diff_label(r, d, label))
        self.sigma = SigmaModule.from_rule(f, components, self._act_adjacent)
        # an action closing over self would make a cycle, left to the cycle collector
        action = partial(_tensor_word_action, self.tensor_modules)
        self.right_module = RightModule(f, self.sigma, self.operad, action, name="B_%s" % self.operad.name)

    def _act_adjacent(self, r, s_i, d, label):
        n, word = label
        return {(n, lab): c for lab, c in self.tensor_modules[n].words.right_act(r, s_i, word).items()}

    # differential ---------------------------------------------------------------

    def _b_operator(self, rr):
        """The suspended operation applied to rr consecutive letters."""
        f = self.field
        op = self.operad
        head = self.eta.apply_triple((rr, rr - 2, trees.corolla(("mu", rr), rr)))

        def apply_b(u, sub_triples):
            sgn = f.sign(desuspension_parity([t[1] for t in sub_triples]))
            bare = [(t[0], t[1] - 1, t[2][1]) for t in sub_triples]
            # every term of eta(mu_rr)(bare) has the arity b and degree dgb
            b = sum(t[0] for t in bare)
            dgb = rr - 2 + sum(t[1] for t in bare)
            composed = combo_map(
                f, head, lambda lh: {lab: c for (_, _, lab), c in op.gamma((rr, rr - 2, lh), bare).items()}
            )
            acted = op.sigma.act_perm_combo(b, u, dgb, composed)
            return {(dgb + 1, ("s", lab)): f.mul(sgn, c) for lab, c in acted.items()}

        return apply_b

    def diff_label(self, r, d, label):
        """Total differential of a basis element (n, word_label)."""
        f = self.field
        n, word = label
        ws = self.tensor_modules[n].words
        out = {}
        for lab2, c in ws.diff_combo(word).items():
            combo_add(f, out, (n, lab2), c)
        for rr in range(2, min(n, self.operad.arity_bound()) + 1):
            b_op = self._b_operators[rr]
            for i in range(1, n - rr + 2):
                for lab2, c in ws.apply_at(word, i, rr, b_op, 1).items():
                    combo_add(f, out, (n - rr + 1, lab2), c)
        return out

    def component(self, r):
        return self.sigma.component(r)

    def dims(self):
        return self.sigma.dims()


def _tensor_word_action(tensor_modules, m_triple, slot, q_triple):
    """The right action of B_R on a basis element (n, word): slotwise on the word."""
    r, d, (n, word) = m_triple
    return {(n, lab2): c for lab2, c in tensor_modules[n].act_partial((r, d, word), slot, q_triple).items()}


def bar_module(operad, arity_bound):
    """B_R along R's canonical morphism from K; ValueError, before any
    building, for an operad that names none."""
    return BarModule(operad, operad.from_stasheff(), arity_bound)


def sym_bar_comparison(bar_mod, algebra, weights):
    """Construct Sym_R(B_R, A) -> B(A) and verify it is a chain iso.

    Returns (sym_object, bar_complex, iso).  Raises AssertionError if
    the map fails to kill the coequalizer relations, and NotAnIsomorphism
    if it is not a chain map or not bijective in every degree.
    """
    f = bar_mod.field
    op = bar_mod.operad
    sym = SymOverOperad(bar_mod.right_module, algebra, op, weights)
    # the Sym side enumerates all words per weight; match its full range
    maxw = max(weights)
    susp = [d + 1 for d in algebra.module.degrees()]
    full = DegreeWindow(min(min(susp), maxw * min(susp)), max(max(susp), maxw * max(susp)))
    target = bar(algebra, full, weight_bound=maxw)

    def evaluate(letter, args):
        """A suspended operad letter, desuspended, evaluated on A."""
        a, d, (_, label) = letter
        return evaluate_operad_element(algebra, op, (a, d - 1, label), args)

    def collapse(pure_label):
        """Map a pure (bar-word; a-word) label into B(A) words."""
        (_, _, (_, word_label)), a_word = pure_label
        return routed_compose(f, word_label, a_word, evaluate, lambda word: word)

    # relations die under the map: each pure label maps as its projection does
    for (_, d), quotient in sym.sym.quotients.items():
        for lab in quotient.labels:
            image = {k: v for k, v in collapse(lab).items() if not f.is_zero(v)}
            if image != combo_map(f, sym.sym.project(0, d, {lab: f.one()}), collapse):
                raise AssertionError("comparison map does not descend to the coequalizer at %r" % (lab,))
    iso = DgMap.from_rule(sym.module, target.module, 0, lambda d, label: collapse(label))
    return sym, target, iso.require_iso("Sym_R(B_R, A) -> B(A)")


def bar_extension_iso(bar_mod_r, psi, arity_bound, bar_mod_s=None):
    """The isomorphism B_R o_R S -> B_S induced by psi: R -> S.

    Both sides are computed independently; the collapse map, defined on
    the kept basis of the coequalizer, is checked to be a chain map and
    bijective in every arity.  Returns (extended, bar_mod_s, iso_blocks)
    with iso_blocks[(r, d)] its matrix in arity r and degree d.  Raises
    InvalidMorphism up front when psi is not an operad morphism.
    """
    f = bar_mod_r.field
    # extension() checks psi before it builds anything, so before B_S too
    ext = extension(bar_mod_r.right_module, psi, arity_bound)
    if bar_mod_s is None:
        # psi and eta_R are recorded by their checks, so their composite is too: B_S checks nothing again
        bar_mod_s = BarModule(psi.target, compose_morphisms(psi, bar_mod_r.eta), arity_bound)

    def evaluate(letter, args):
        """psi of a suspended R-letter, desuspended, composed with its S-arguments."""
        a, d, (_, label) = letter
        return {(t[0], t[1] + 1, ("s", t[2])): c for t, c in gamma_along(psi, (a, d - 1, label), args).items()}

    def collapse(pure_label):
        """(bar word of R; s-word) -> bar words of S."""
        (_, _, (n, word_label)), (w_s, s_inner) = pure_label
        return routed_compose(
            f, word_label, s_inner, evaluate, lambda word: (n, word), outer=(w_s, bar_mod_s.susp_module.sigma)
        )

    iso_blocks = {}
    for r in ext.sigma.arities():
        comp = ext.sigma.component(r)
        iso = DgMap.from_rule(comp, bar_mod_s.component(r), 0, lambda d, lab: collapse(lab))
        iso.require_iso("B_R o_R S -> B_S in arity %d" % r)
        for d in comp.degrees():
            iso_blocks[(r, d)] = iso.block(d)
    return ext, bar_mod_s, iso_blocks
