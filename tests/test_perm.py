import math
from itertools import combinations, permutations, product

from opbar import perm


def test_compose_inverse_identity():
    for n in range(1, 6):
        for a in permutations(range(1, n + 1)):
            assert perm.compose(a, perm.inverse(a)) == perm.identity(n)
            assert perm.compose(perm.inverse(a), a) == perm.identity(n)


def test_transposition_word_reconstructs():
    for n in range(1, 6):
        for a in permutations(range(1, n + 1)):
            x = perm.identity(n)
            for i in perm.transposition_word(a):
                x = perm.apply_adjacent(x, i)
            assert x == a


def test_parity_multiplicative():
    for a in permutations(range(1, 5)):
        for b in permutations(range(1, 5)):
            assert perm.parity(perm.compose(a, b)) == (perm.parity(a) + perm.parity(b)) % 2


def test_coset_canonicalize():
    for sizes in [(2, 1), (1, 2), (2, 2), (3, 1), (1, 1, 2)]:
        m = sum(sizes)
        for sigma in permutations(range(1, m + 1)):
            h_parts, w = perm.coset_canonicalize(sigma, sizes)
            assert perm.compose(perm.block_sum(h_parts), w) == sigma
            winv = perm.inverse(w)
            start = 1
            for size in sizes:
                vals = [winv[v - 1] for v in range(start, start + size)]
                assert vals == sorted(vals)
                start += size


def test_multishuffle_count():
    for sizes in [(2, 1), (2, 2), (1, 1, 1), (3, 2)]:
        ms = perm.multishuffles(sizes)
        expect = math.factorial(sum(sizes))
        for s in sizes:
            expect //= math.factorial(s)
        assert len(ms) == len(set(ms)) == expect


def test_refine_decompose_roundtrip():
    for sizes in [(1, 2, 1), (2, 1, 1), (1, 1, 1, 1), (2, 2, 1)]:
        for w in perm.multishuffles(sizes):
            u, wc, cs = perm.refine_decompose(w, sizes, 2, 2)
            h_full = perm.block_sum([perm.identity(cs[j]) if j != 1 else u for j in range(len(cs))])
            assert perm.compose(h_full, wc) == w


def test_block_substitution_units():
    assert perm.block_substitution((1, 2), 1, (1, 2)) == (1, 2, 3)
    assert perm.block_substitution((1,), 1, (2, 1)) == (2, 1)
    # associativity of substitution
    s, t, u = (2, 1), (1, 2), (2, 1)
    lhs = perm.block_substitution(perm.block_substitution(s, 1, t), 2, u)
    rhs = perm.block_substitution(s, 1, perm.block_substitution(t, 2, u))
    assert lhs == rhs


def test_shuffles_increase_on_blocks():
    sh = perm.shuffles(2, 2)
    assert len(sh) == 6
    for w in sh:
        assert w[0] < w[1] and w[2] < w[3]


def test_koszul_sign_composition():
    degs = (1, 2, 1)
    for a in permutations(range(1, 4)):
        assert perm.koszul_sign_exponent(degs, a) in (0, 1)
    # swapping two odd letters is a sign; even-odd swap is not
    assert perm.koszul_sign_exponent((1, 1), (2, 1)) == 1
    assert perm.koszul_sign_exponent((2, 1), (2, 1)) == 0


def test_koszul_sort_is_stable_and_signed():
    keys = ["b", "a", "b", "c", "a"]
    for degrees in product([0, 1, 2], repeat=len(keys)):
        order, e = perm.koszul_sort(keys, list(degrees))
        assert order == sorted(range(len(keys)), key=lambda k: (keys[k], k))
        # a stable sort swaps exactly the pairs i < j with keys[i] > keys[j]
        swapped = sum(degrees[i] * degrees[j] for i, j in combinations(range(len(keys)), 2) if keys[i] > keys[j])
        assert e == swapped % 2
