"""Permutation combinatorics for symmetric group actions.

A permutation of n is a tuple w of length n with w[k] = w(k+1), values
in 1..n (one-line notation).  Groups act on the RIGHT throughout the
engine: x.(sigma tau) = (x.sigma).tau.

Induced modules over Young subgroups use right cosets H\\Sigma_m for
H = Sigma_{m_1} x ... x Sigma_{m_k} embedded blockwise; the canonical
coset representative w is the one whose inverse is increasing on each
block of values.
"""

from __future__ import annotations

from itertools import combinations


def identity(n):
    return tuple(range(1, n + 1))


def compose(a, b):
    """(a o b)(k) = a(b(k))."""
    return tuple(a[b[k] - 1] for k in range(len(b)))


def inverse(a):
    inv = [0] * len(a)
    for k, v in enumerate(a):
        inv[v - 1] = k + 1
    return tuple(inv)


def parity(a):
    """Number of inversions mod 2."""
    n = len(a)
    p = 0
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] > a[j]:
                p ^= 1
    return p


def transposition_word(a):
    """Adjacent transpositions with a = s_{i1} s_{i2} ... s_{ik}.

    Indices are 1-based: s_i swaps i and i+1.  Applying a on the right
    of x means applying x.s_{i1}, then .s_{i2}, etc.
    """
    seq = list(a)
    swaps = []
    n = len(seq)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps.append(i + 1)
                changed = True
    swaps.reverse()
    return swaps


def apply_adjacent(a, i):
    """a . s_i (right multiplication by the adjacent transposition)."""
    b = list(a)
    b[i - 1], b[i] = b[i], b[i - 1]
    return tuple(b)


def block_sum(perms):
    out = []
    offset = 0
    for p in perms:
        out.extend(v + offset for v in p)
        offset += len(p)
    return tuple(out)


def block_substitution(sigma, i, tau):
    """sigma o_i tau: blow input i of sigma up into a block permuted by tau.

    For sigma in Sigma_s, tau in Sigma_t the result lies in
    Sigma_{s+t-1}; it is the permutation of operadic composition
    equivariance: (p.sigma) o_i (q.tau) = (p o_{sigma(i)} q).(sigma o_i tau).
    """
    s, t = len(sigma), len(tau)
    si = sigma[i - 1]

    def f(m):
        return m if m < si else m + t - 1

    out = []
    for k in range(1, s + t):
        if k < i:
            out.append(f(sigma[k - 1]))
        elif k <= i + t - 1:
            out.append(si - 1 + tau[k - i])
        else:
            out.append(f(sigma[k - t]))
    return tuple(out)


def blocks_of(sizes):
    """Value blocks B_1..B_k: consecutive ranges of 1..sum(sizes)."""
    out = []
    start = 1
    for m in sizes:
        out.append(range(start, start + m))
        start += m
    return out


def coset_canonicalize(sigma, sizes):
    """Decompose sigma = h . w with h blockwise and w canonical.

    h preserves each consecutive value block; w is the representative of
    the right coset H.sigma whose inverse is increasing on each block.
    Returns (h_parts, w) where h_parts[j] is h restricted to block j,
    rebased to a permutation of {1..sizes[j]}.
    """
    m = len(sigma)
    starts = []
    s = 1
    for size in sizes:
        starts.append(s)
        s += size
    # positions hitting each block, in increasing order
    block_of_value = {}
    for j, blk in enumerate(blocks_of(sizes)):
        for v in blk:
            block_of_value[v] = j
    positions = [[] for _ in sizes]
    for k in range(1, m + 1):
        positions[block_of_value[sigma[k - 1]]].append(k)
    w = [0] * m
    for j, pos in enumerate(positions):
        for a, k in enumerate(pos):
            w[k - 1] = starts[j] + a
    w = tuple(w)
    h = compose(sigma, inverse(w))
    h_parts = []
    for j, size in enumerate(sizes):
        base = starts[j]
        h_parts.append(tuple(h[base - 1 + a] - base + 1 for a in range(size)))
    return h_parts, w


def multishuffles(sizes):
    """All canonical representatives of H\\Sigma_m for block sizes.

    Deterministic order: lexicographic in the position sets assigned to
    the blocks, chosen left to right.
    """
    m = sum(sizes)
    out = []

    def rec(remaining, j, w):
        if j == len(sizes):
            out.append(tuple(w))
            return
        size = sizes[j]
        start = sum(sizes[:j]) + 1
        for chosen in combinations(remaining, size):
            w2 = list(w)
            for a, k in enumerate(chosen):
                w2[k - 1] = start + a
            rest = [x for x in remaining if x not in chosen]
            rec(rest, j + 1, w2)

    rec(list(range(1, m + 1)), 0, [0] * m)
    return out


def koszul_sign_exponent(degrees, sigma):
    """Parity of the Koszul sign moving letter k to position sigma(k).

    Counts inversion pairs i<j with sigma(i) > sigma(j), weighting each
    by the product of the letters' degrees.
    """
    e = 0
    n = len(sigma)
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j]:
                e += degrees[i] * degrees[j]
    return e % 2


def koszul_sort(keys, degrees):
    """Stable sort of letters by key, with its Koszul sign.

    Returns (order, e): order[k] is the old position of the letter that
    lands at position k, and e the parity of the Koszul sign of moving
    letters of the given degrees into that order.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    sigma = [0] * len(keys)
    for newpos, old in enumerate(order):
        sigma[old] = newpos + 1
    return order, koszul_sign_exponent(degrees, sigma)


def shuffles(m, n):
    """(m,n)-shuffles: permutations of m+n increasing on both blocks."""
    out = []
    for first in combinations(range(1, m + n + 1), m):
        rest = [k for k in range(1, m + n + 1) if k not in first]
        w = [0] * (m + n)
        for a, k in enumerate(first):
            w[a] = k
        for a, k in enumerate(rest):
            w[m + a] = k
        out.append(tuple(w))
    return out
