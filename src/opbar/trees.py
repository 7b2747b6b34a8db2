"""Rooted planar trees with labeled leaves: the basis of free operads.

A tree is a nested tuple: ("leaf", k) for the leaf carrying input label
k, or (gen_name, child_1, ..., child_r) for an internal vertex labeled
by a generator of arity r >= 2.  The planar structure is the order of
the children; the symmetric group acts by relabeling leaves only.

Degrees and signs: generator degrees are supplied by a `degree_of` map.
A tree is identified with the tensor of its vertex labels in preorder;
grafting splices the vertex word of the grafted tree into the host word
and picks up the Koszul sign of jumping over the tail of the host word.
"""

from __future__ import annotations

from itertools import product

from . import perm


def leaf(k):
    return ("leaf", k)


def is_leaf(t):
    return t[0] == "leaf"


def corolla(gen, arity):
    return (gen,) + tuple(leaf(k) for k in range(1, arity + 1))


def leaf_labels(t):
    """Leaf labels in planar (left to right) order."""
    if is_leaf(t):
        return [t[1]]
    out = []
    for child in t[1:]:
        out.extend(leaf_labels(child))
    return out


def arity(t):
    return len(leaf_labels(t))


def vertex_word(t):
    """Generator names in preorder (vertex, then children left to right)."""
    if is_leaf(t):
        return []
    out = [t[0]]
    for child in t[1:]:
        out.extend(vertex_word(child))
    return out


def degree(t, degree_of):
    return sum(degree_of[g] for g in vertex_word(t))


def relabel(t, mapping):
    if is_leaf(t):
        return leaf(mapping[t[1]])
    return (t[0],) + tuple(relabel(c, mapping) for c in t[1:])


def act(t, sigma):
    """Right action: relabel every leaf k by sigma^{-1}(k); no sign."""
    inv = perm.inverse(sigma)
    return relabel(t, {k: inv[k - 1] for k in range(1, len(sigma) + 1)})


def split_at_leaf(t, label):
    """(position, tail_degree_fn) bookkeeping for grafting at a leaf.

    Returns (pos, tail): pos = number of vertices before the leaf in
    preorder, tail = list of generator names of vertices after it.
    """
    word = []
    tail_start = [None]

    def walk(node):
        if is_leaf(node):
            if node[1] == label:
                tail_start[0] = len(word)
            return
        word.append(node[0])
        for child in node[1:]:
            walk(child)

    walk(t)
    if tail_start[0] is None:
        raise ValueError("no leaf labeled %d" % label)
    pos = tail_start[0]
    return pos, word[pos:]


def graft(p, i, q, degree_of):
    """p o_i q: substitute q at the leaf of p labeled i.

    Leaf labels: p's labels < i stay, q's labels shift by i-1, p's
    labels > i shift by arity(q)-1.  Returns (parity, tree) where the
    Koszul parity is |q| * |tail of p's vertex word after the leaf|.
    """
    s = arity(p)
    t = arity(q)
    _, tail = split_at_leaf(p, i)
    tail_deg = sum(degree_of[g] for g in tail)
    q_deg = degree(q, degree_of)
    par = (q_deg * tail_deg) % 2

    q_shift = relabel(q, {k: k + i - 1 for k in range(1, t + 1)})
    p_map = {}
    for k in range(1, s + 1):
        if k < i:
            p_map[k] = k
        elif k > i:
            p_map[k] = k + t - 1

    def substitute(node):
        if is_leaf(node):
            if node[1] == i:
                return q_shift
            return leaf(p_map[node[1]])
        return (node[0],) + tuple(substitute(c) for c in node[1:])

    return par, substitute(p)


def shapes(n, arities):
    """All planar tree shapes with n leaves and vertex arities from `arities`.

    Leaves carry placeholder labels by planar position 1..n.  Every
    internal vertex name is chosen by its arity via arities[r] -> list
    of generator names.
    """
    if n == 1:
        return [leaf(1)]
    out = []
    for r in sorted(arities):
        if r < 2 or r > n:
            continue
        for split in _compositions(n, r):
            offset = 0
            parts = []
            for size in split:
                subs = shapes(size, arities)
                parts.append([relabel(s, {k: k + offset for k in range(1, size + 1)}) for s in subs])
                offset += size
            for combo in product(*parts):
                for gen in arities[r]:
                    out.append((gen,) + tuple(combo))
    return out


def _compositions(n, r):
    """Ordered tuples of r positive integers summing to n."""
    if r == 1:
        return [(n,)]
    out = []
    for first in range(1, n - r + 2):
        for rest in _compositions(n - first, r - 1):
            out.append((first,) + rest)
    return out


def enumerate_trees(n, arities):
    """All trees with n leaves: shapes x leaf labelings, deterministic order."""
    from itertools import permutations

    out = []
    for shape in shapes(n, arities):
        for sigma in permutations(range(1, n + 1)):
            out.append(relabel(shape, {k: sigma[k - 1] for k in range(1, n + 1)}))
    return out
