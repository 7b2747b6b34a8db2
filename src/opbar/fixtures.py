"""Seeded fixture generators for the verification suites.

All constructions are honest by design: tensor algebras are truncated
by word length (a differential ideal), commutative fixtures are free
graded-commutative algebras truncated the same way, and differentials
come from acyclic generator pairs, so d^2 = 0 and the Leibniz rule hold
exactly rather than by accident of the random draw.
"""

from __future__ import annotations

import random
from itertools import permutations as _permutations, product
from math import comb, factorial

from . import perm
from .dg import DgModule, koszul_diff
from .linalg import combo_add, quotient_data
from .modules import DgAlgebra
from .sigma import SigmaModule


def random_tensor_algebra(field, seed, max_generators=3, length_cap=2):
    """Seeded dg tensor algebra T(V)/(length > cap), dim <= 6ish.

    Generators optionally come in acyclic pairs (dv = u); the
    differential extends as a derivation, and products are word
    concatenation (zero past the cap).
    """
    rng = random.Random(seed)
    gens = []
    diff_pairs = {}
    n_gens = rng.randint(2, max_generators)
    next_deg = rng.randint(1, 2)
    k = 0
    while k < n_gens:
        name = "g%d" % k
        gens.append((name, next_deg))
        if rng.random() < 0.5 and k + 1 < n_gens:
            # acyclic pair: d(g_{k+1}) = g_k, both consumed
            upper = "g%d" % (k + 1)
            gens.append((upper, next_deg + 1))
            diff_pairs[upper] = name
            k += 1
        next_deg = next_deg + rng.randint(0, 2)
        k += 1
    deg = dict(gens)
    layer = [()]
    words = []
    for _ in range(length_cap):
        layer = [w + (g,) for w in layer for g, _ in gens]
        words.extend(layer)
    word_deg = {w: sum(deg[g] for g in w) for w in words}
    module_elements = [(w, word_deg[w]) for w in words]
    f = field
    letter_diff = _generator_diff(f, deg, diff_pairs)
    diff_map = {}
    for w in words:
        targets = koszul_diff(f, w, letter_diff)
        if targets:
            diff_map[w] = targets
    module = DgModule.from_data(f, module_elements, diff_map)
    prod = {}
    for u in words:
        for v in words:
            if len(u) + len(v) <= length_cap:
                prod[(u, v)] = {u + v: f.one()}
    return DgAlgebra(f, "assoc", module, {2: prod}, name="T%d" % seed)


def random_commutative_algebra(field, seed, max_generators=3, length_cap=2):
    """Seeded free graded-commutative algebra, length-truncated.

    Monomials are sorted generator words; odd generators square to zero
    unless the characteristic is 2.
    """
    rng = random.Random(seed)
    n_gens = rng.randint(1, max_generators)
    gens = []
    diff_pairs = {}
    deg = {}
    d = rng.randint(1, 3)
    k = 0
    while k < n_gens:
        name = "g%d" % k
        gens.append(name)
        deg[name] = d
        if rng.random() < 0.4 and k + 1 < n_gens:
            upper = "g%d" % (k + 1)
            gens.append(upper)
            deg[upper] = d + 1
            diff_pairs[upper] = name
            k += 1
        d += rng.randint(0, 2)
        k += 1
    char2 = field.p == 2

    def admissible(mono):
        if char2:
            return True
        seen = {}
        for g in mono:
            if deg[g] % 2:
                seen[g] = seen.get(g, 0) + 1
                if seen[g] > 1:
                    return False
        return True

    layer = [()]
    monos = set()
    for _ in range(length_cap):
        layer = [tuple(sorted(m + (g,))) for m in layer for g in gens]
        monos.update(layer)
    monos = sorted(m for m in monos if m and admissible(m))
    mono_deg = {m: sum(deg[g] for g in m) for m in monos}
    f = field

    def merge(word):
        """The sorted word, with the Koszul sign of sorting it."""
        order, e = perm.koszul_sort(word, [deg[g] for g in word])
        return tuple(word[a] for a in order), f.sign(e)

    letter_diff = _generator_diff(f, deg, diff_pairs)
    diff_map = {}
    for m in monos:
        targets = {}
        for w, c in koszul_diff(f, m, letter_diff).items():
            merged, sgn = merge(w)
            if merged in mono_deg:
                combo_add(f, targets, merged, f.mul(c, sgn))
        if targets:
            diff_map[m] = targets
    module = DgModule.from_data(f, [(m, mono_deg[m]) for m in monos], diff_map)
    prod = {}
    for u in monos:
        for v in monos:
            if len(u) + len(v) > length_cap:
                continue
            merged, sgn = merge(u + v)
            if merged not in mono_deg:
                continue
            prod[(u, v)] = {merged: sgn}
    return DgAlgebra(f, "comm", module, {2: prod}, name="C%d" % seed)


def _generator_diff(field, deg, diff_pairs):
    """letter_diff for `koszul_diff` over generator words: dg = low for each acyclic pair."""
    one = field.one()
    return lambda j, g: (deg[g], {diff_pairs[g]: one} if g in diff_pairs else {})


# random Sigma-modules ----------------------------------------------------------


def random_sigma_module(field, seed, arity_bound=4):
    """Seeded Sigma-module: direct sums of trivial, sign and regular orbits.

    Returns (SigmaModule, description) where description records per
    arity the list of ("trivial" | "sign" | "regular", degree) orbits;
    relations hold by construction.
    """
    rng = random.Random(seed)
    kinds = ["trivial", "regular", "sign"]
    components = {}
    actions = {}
    description = {}
    for n in range(1, arity_bound + 1):
        orbits = []
        for k in range(rng.randint(0, 2)):
            kind = rng.choice(kinds if n > 1 else ["trivial", "regular"])
            degree = rng.randint(-2, 2)
            orbits.append((kind, degree))
        if not orbits:
            continue
        description[n] = orbits
        by_degree = {}
        for idx, (kind, degree) in enumerate(orbits):
            if kind == "regular" and n > 1:
                for w in sorted(_permutations(range(1, n + 1))):
                    by_degree.setdefault(degree, []).append(("o%d" % idx, w))
            else:
                by_degree.setdefault(degree, []).append(("o%d" % idx, kind))
        components[n] = DgModule(field, {d: tuple(ls) for d, ls in by_degree.items()}, {})
        for i in range(1, n):
            table = {}
            s_i = perm.apply_adjacent(perm.identity(n), i)
            inv = perm.inverse(s_i)
            for idx, (kind, degree) in enumerate(orbits):
                if kind == "regular" and n > 1:
                    for w in _permutations(range(1, n + 1)):
                        table[(degree, ("o%d" % idx, w))] = {
                            ("o%d" % idx, perm.compose(w, s_i)): field.one()
                        }
                elif kind == "sign":
                    table[(degree, ("o%d" % idx, kind))] = {
                        ("o%d" % idx, kind): field.sign(1)
                    }
            if table:
                actions[(n, i)] = table
    return SigmaModule(field, components, actions).check_relations(), description


def compose_dims_oracle(field, m_sigma, n_sigma, arity_bound):
    """Brute-force dims of (M o N)(r): generator relations, flat basis.

    Enumerates the pure two-level basis directly (tuples of factors
    with a full permutation recording the input routing, no canonical
    coset choices) and eliminates the identifications of the adjacent
    transpositions of every symmetric group involved.  Those span the
    identifications of every group element.  With T_sigma the action of
    sigma on the flat basis, the identifications of sigma are the values
    of T_sigma - 1, and

        T_{sigma tau} - 1 = T_sigma (T_tau - 1) + (T_sigma - 1).

    By induction on the length of sigma's transposition word, every
    value of T_sigma - 1 lies in the span S of the adjacent relations, so
    T_sigma maps S into S; for tau adjacent both terms then lie in S.
    Independent of the canonical-representative machinery used by the
    implementation.
    """
    out = {}
    for r in range(1, arity_bound + 1):
        routings = list(_permutations(range(1, r + 1)))
        by_degree = {}
        for k in m_sigma.arities():
            for sizes in _compositions(r, k, n_sigma.arities()):
                factor_triples = [list(n_sigma.basis_triples(a)) for a in sizes]
                for mt in m_sigma.basis_triples(k):
                    for inners in product(*factor_triples):
                        by_degree.setdefault(mt[1] + sum(t[1] for t in inners), []).append((mt, inners))
        for d, pures in by_degree.items():
            # the flat basis: every pure label under every input routing
            index = {}
            for mt, inners in pures:
                for routing in routings:
                    index[(mt, inners, routing)] = len(index)
            relations = []
            for mt, inners in pures:
                for terms, moved, slot_map, c_moved in _generator_moves(field, m_sigma, n_sigma, mt, inners):
                    for routing in routings:
                        rel = {}
                        for (mt2, inners2), c in terms:
                            combo_add(field, rel, index[(mt2, inners2, routing)], c)
                        rerouted = tuple(slot_map[v - 1] for v in routing)
                        combo_add(field, rel, index[moved + (rerouted,)], c_moved)
                        if rel:
                            relations.append(rel)
            kept, _ = quotient_data(field, len(index), relations)
            if kept:
                out.setdefault(r, {})[d] = len(kept)
    return out


def _generator_moves(field, m_sigma, n_sigma, mt, inners):
    """The identifications of the generators at the pure label (mt, inners), for any routing.

    Each is (terms, moved, slot_map, c): the relation sum(c' (x', routing)
    over terms) + c (moved, routing'), where the routing' of the input
    routing is slot_map applied to each value.
      (a) inner input action, s_i on factor j: the factor is acted on,
          and the routing absorbs the embedded s_i;
      (b) outer coinvariants, s_i in S_k: m.s_i (x) x ~ m (x) s_i.x, the
          factors permuted with their Koszul sign and each factor's inputs
          keeping their global slots.
    """
    one = field.one()
    k = mt[0]
    sizes = tuple(t[0] for t in inners)
    moves = []
    for j, (a, dj, lj) in enumerate(inners):
        for i in range(1, a):
            h = perm.apply_adjacent(perm.identity(a), i)
            emb = perm.block_sum([perm.identity(sizes[x]) if x != j else h for x in range(k)])
            acted = n_sigma.act_perm_combo(a, h, dj, {lj: one})
            terms = [((mt, inners[:j] + ((a, dj, l2),) + inners[j + 1 :]), c) for l2, c in acted.items()]
            moves.append((terms, (mt, inners), emb, field.sign(1)))
    old_offsets = _offsets(sizes)
    for i in range(1, k):
        sig = perm.apply_adjacent(perm.identity(k), i)
        acted_m = m_sigma.act_perm_combo(k, sig, mt[1], {mt[2]: one})
        sig_inv = perm.inverse(sig)
        permuted = tuple(inners[sig_inv[j] - 1] for j in range(k))
        kos = perm.koszul_sign_exponent([t[1] for t in inners], sig)
        new_offsets = _offsets(tuple(t[0] for t in permuted))
        slot_map = [0] * sum(sizes)
        for j in range(k):
            for a in range(sizes[j]):
                slot_map[old_offsets[j] + a] = new_offsets[sig[j] - 1] + a + 1
        terms = [(((k, mt[1], lm2), inners), cm) for lm2, cm in acted_m.items()]
        moves.append((terms, (mt, permuted), tuple(slot_map), field.sign(kos + 1)))
    return moves


def _offsets(sizes):
    out = []
    acc = 0
    for s in sizes:
        out.append(acc)
        acc += s
    return out


def _compositions(r, k, allowed):
    out = []

    def rec(j, remaining, acc):
        if j == k:
            if remaining == 0:
                out.append(tuple(acc))
            return
        for a in allowed:
            if a <= remaining - (k - j - 1) * min(allowed) if allowed else False:
                rec(j + 1, remaining - a, acc + [a])

    if allowed:
        rec(0, r, [])
    return out


def tensor_dims_formula(m_sigma, n_sigma, arity_bound):
    """dim (M (x) N)(r) = sum_{s+t=r} C(r,s) dim M(s) dim N(t)."""
    out = {}
    for r in range(1, arity_bound + 1):
        per_degree = {}
        for s in m_sigma.arities():
            t = r - s
            if t not in n_sigma.arities():
                continue
            mc, nc = m_sigma.component(s), n_sigma.component(t)
            for dm in mc.degrees():
                for dn in nc.degrees():
                    per_degree[dm + dn] = per_degree.get(dm + dn, 0) + comb(r, s) * mc.dim(dm) * nc.dim(dn)
        if per_degree:
            out[r] = per_degree
    return out


def is_sigma_free(description):
    """True when every orbit of arity >= 2 is a regular one."""
    return all(kind == "regular" for k, orbits in description.items() if k >= 2 for kind, _ in orbits)


def sigma_free_compose_dims_formula(m_description, n_sigma, arity_bound):
    """Counting formula for (M o N)(r) when M is Sigma-free.

    A regular orbit of M(k) contributes dim N^{(x)k}(r) (the coinvariant
    of regular (x) X is X); arity-1 orbits contribute dim N(r).  The
    word dimension is the multinomial coset count times the factor dims.
    """
    out = {}
    for r in range(1, arity_bound + 1):
        per_degree = {}
        for k, orbits in m_description.items():
            sizes_list = _compositions(r, k, n_sigma.arities())
            for _, dm in orbits:
                for sizes in sizes_list:
                    cosets = factorial(r)
                    for a in sizes:
                        cosets //= factorial(a)
                    dims_prod = {0: 1}
                    for a in sizes:
                        comp = n_sigma.component(a)
                        nxt = {}
                        for dacc, cacc in dims_prod.items():
                            for d in comp.degrees():
                                nxt[dacc + d] = nxt.get(dacc + d, 0) + cacc * comp.dim(d)
                        dims_prod = nxt
                    for d, c in dims_prod.items():
                        per_degree[d + dm] = per_degree.get(d + dm, 0) + cosets * c
        per_degree = {d: c for d, c in per_degree.items() if c}
        if per_degree:
            out[r] = per_degree
    return out
