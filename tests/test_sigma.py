import itertools

import pytest

from opbar import perm
from opbar.bar import bar_module
from opbar.dg import DgModule
from opbar.fixtures import (
    _compositions,
    compose_dims_oracle,
    random_sigma_module,
    tensor_dims_formula,
)
from opbar.linalg import CoeffField, quotient_data
from opbar.operads import stasheff_operad
from opbar.sigma import SigmaModule, WordSpace, compose, routed_compose, sigma_tensor

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)
F3 = CoeffField.prime(3)


def com_like(field, bound=3):
    comps = {n: DgModule.ground(field, ("e", n)) for n in range(1, bound + 1)}
    return SigmaModule(field, comps, {}).check_relations()


def sign_mod(field):
    comps = {2: DgModule.from_data(field, [("x", 1)])}
    act = {(2, 1): {(1, "x"): {"x": field.of_int(-1)}}}
    return SigmaModule(field, comps, act).check_relations()


def test_relations_catch_bad_action():
    comps = {2: DgModule.from_data(Q, [("x", 0)])}
    act = {(2, 1): {(0, "x"): {"x": Q.of_int(2)}}}  # not an involution
    with pytest.raises(ValueError):
        SigmaModule(Q, comps, act).check_relations()
    with pytest.raises(ValueError):
        SigmaModule.from_rule(Q, comps, lambda n, s_i, d, label: {"x": Q.of_int(2)}).check_relations()


def test_from_rule_stores_no_identity_images():
    comps = {3: DgModule(Q, {0: ("a", "b", "c")}, {}, check=False)}
    seen = []

    def act(n, s_i, d, label):
        seen.append(s_i)
        return {{"a": "b", "b": "a"}.get(label, label): Q.one()}

    s = SigmaModule.from_rule(Q, comps, act)
    s.check_relations()
    assert sorted(set(seen)) == [(1, 3, 2), (2, 1, 3)]
    assert s.actions[(3, 1)] == {(0, "a"): {"b": Q.one()}, (0, "b"): {"a": Q.one()}}
    assert s.act_adjacent(3, 1, 0, "c") == {"c": Q.one()}


def test_tensor_dims_com():
    C = com_like(Q)
    CC = sigma_tensor(C, C, 3)
    assert CC.total_dim(1) == 0
    assert CC.total_dim(2) == 2
    assert CC.total_dim(3) == 6
    CC.check_relations()


def test_word_space_action_is_action():
    S = sign_mod(Q)
    ws = WordSpace(Q, [S, S], 4)
    comp = ws.component(4)
    label = comp.labels(2)[0]
    for s1 in itertools.permutations(range(1, 5)):
        for s2 in [(2, 1, 3, 4), (1, 3, 2, 4), (4, 3, 2, 1)]:
            acc = {}
            for lab, c in ws.right_act(4, s1, label).items():
                for lab2, c2 in ws.right_act(4, s2, lab).items():
                    acc[lab2] = acc.get(lab2, Q.zero()) + c * c2
            acc = {k: v for k, v in acc.items() if v}
            assert acc == ws.right_act(4, perm.compose(s1, s2), label)


def test_factor_swap_involution_and_equivariance():
    S = sign_mod(Q)
    ws = WordSpace(Q, [S, S], 4)
    comp = ws.component(4)
    for label in comp.labels(2):
        back = {}
        for lab, c in ws.factor_swap(1, label).items():
            for lab2, c2 in ws.factor_swap(1, lab).items():
                back[lab2] = back.get(lab2, Q.zero()) + c * c2
        back = {k: v for k, v in back.items() if v}
        assert back == {label: Q.one()}
        for sigma in itertools.permutations(range(1, 5)):
            lhs = {}
            for lab, c in ws.factor_swap(1, label).items():
                for lab2, c2 in ws.right_act(4, sigma, lab).items():
                    lhs[lab2] = lhs.get(lab2, Q.zero()) + c * c2
            rhs = {}
            for lab, c in ws.right_act(4, sigma, label).items():
                for lab2, c2 in ws.factor_swap(1, lab).items():
                    rhs[lab2] = rhs.get(lab2, Q.zero()) + c * c2
            assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


def test_compose_unit_laws():
    I = SigmaModule(Q, {1: DgModule.ground(Q, "1")})
    for M in (sign_mod(Q), com_like(Q)):
        left = compose(I, M, 3).sigma
        right = compose(M, I, 3).sigma
        assert left.dims() == M.dims()
        assert right.dims() == M.dims()


def test_compose_com_dims():
    C = com_like(Q)
    CC = compose(C, C, 3)
    assert CC.sigma.total_dim(2) == 2
    assert CC.sigma.total_dim(3) == 5
    CC.sigma.check_relations()


def test_tensor_with_unit_is_not_identity():
    # I is the unit for composition, not for the tensor product
    I = SigmaModule(Q, {1: DgModule.ground(Q, "1")})
    C = com_like(Q, 2)
    t = sigma_tensor(I, C, 3)
    assert t.dims() != C.dims()


def test_compose_matches_oracle_seeded():
    for seed in (1, 2):
        M, _ = random_sigma_module(Q, seed, arity_bound=3)
        N, _ = random_sigma_module(Q, seed + 50, arity_bound=3)
        if M.is_zero() or N.is_zero():
            continue
        impl = {
            r: {d: n for d, n in dd.items() if n} for r, dd in compose(M, N, 3).sigma.dims().items()
        }
        impl = {r: dd for r, dd in impl.items() if dd}
        assert impl == compose_dims_oracle(Q, M, N, 3)


def test_tensor_matches_formula_seeded():
    M, _ = random_sigma_module(F2, 3, arity_bound=3)
    N, _ = random_sigma_module(F2, 53, arity_bound=3)
    if M.is_zero() or N.is_zero():
        pytest.skip("empty fixture draw")
    ws = sigma_tensor(M, N, 3)
    tdims = {
        r: {d: ws.component(r).dim(d) for d in ws.component(r).degrees()} for r in ws.arities()
    }
    tdims = {r: dd for r, dd in tdims.items() if dd}
    assert tdims == tensor_dims_formula(M, N, 3)


def test_suspension_of_sigma_module():
    S = sign_mod(Q)
    SS = S.suspend()
    assert SS.component(2).degrees() == [2]
    SS.check_relations()


def test_as_compose_as_two_ways():
    from opbar.operads import associative_operad

    As = associative_operad(Q, 2)
    impl = {
        r: {d: n for d, n in dd.items() if n}
        for r, dd in compose(As.sigma, As.sigma, 2).sigma.dims().items()
    }
    impl = {r: dd for r, dd in impl.items() if dd}
    oracle = compose_dims_oracle(Q, As.sigma, As.sigma, 2)
    assert impl == oracle
    assert impl[2] == {0: 4}


def test_sym_of_unit_module_is_identity():
    from opbar.modules import SymPresentation

    E = DgModule.from_data(Q, [("a", 0), ("b", 2)], {})
    I = SigmaModule(Q, {1: DgModule.ground(Q, "1")})
    s = SymPresentation(I, E, [1])
    assert {d: s.module.dim(d) for d in s.module.degrees()} == {
        d: E.dim(d) for d in E.degrees()
    }


def _stub_evaluate(q, args):
    # factor q on its arguments: q's label then theirs, in two terms so the product is expanded
    name = q[2] + "".join(l for _, l in args)
    return {name: Q.one(), name + "'": Q.of_int(2)}


@pytest.mark.parametrize(
    "inner, w, expected_sign",
    [
        # prefix sign only: (f (x) g)(x (x) y) = (-1)^{|g||x|} f(x) (x) g(y), |g| = |x| = 1
        (((1, 0, "f"), (1, 1, "g")), (1, 2), -1),
        # reorder sign only: x feeds g and y feeds f; x (x) y -> y (x) x costs (-1)^{|x||y|}
        (((1, 0, "f"), (1, 0, "g")), (2, 1), -1),
        # both: (-1)^{|x||y|} from the reorder, then (-1)^{|g||y|} from the prefix
        (((1, 0, "f"), (1, 1, "g")), (2, 1), 1),
    ],
)
def test_routed_compose_signs(inner, w, expected_sign):
    args = ((1, "x"), (1, "y"))
    got = routed_compose(Q, (w, inner), args, _stub_evaluate, lambda keys: keys)
    f_arg, g_arg = ("x", "y") if w == (1, 2) else ("y", "x")
    s = Q.of_int(expected_sign)
    assert got == {
        ("f" + f_arg, "g" + g_arg): s,
        ("f" + f_arg, "g" + g_arg + "'"): 2 * s,
        ("f" + f_arg + "'", "g" + g_arg): 2 * s,
        ("f" + f_arg + "'", "g" + g_arg + "'"): 4 * s,
    }


def test_routed_compose_groups_arguments_in_order():
    # w = (1, 3, 2) sends arguments a, c to f (arity 2) and b to g: moving
    # a (x) b (x) c to a (x) c (x) b costs (-1)^{|b||c|} = -1, and g passing
    # a (x) c costs (-1)^{|g|(|a|+|c|)} = -1
    inner = ((2, 0, "f"), (1, 1, "g"))
    args = ((0, "a"), (1, "b"), (1, "c"))
    got = routed_compose(Q, ((1, 3, 2), inner), args, _stub_evaluate, lambda keys: keys)
    assert got == {("fac", "gb"): 1, ("fac", "gb'"): 2, ("fac'", "gb"): 2, ("fac'", "gb'"): 4}


def test_routed_compose_recanonicalizes_outer_word():
    # f (arity 2) takes the S-arguments p, q; w_s = (2, 1) feeds input 1 to q
    # and input 2 to p, so f(p, q) sees its inputs as (2, 1): the routing is
    # s_1 . id, and s_1 acts on the value by -1
    S = sign_mod(Q)

    def evaluate(q, args):
        assert [a[2] for a in args] == ["p", "q"]
        return {(2, 1, "x"): Q.of_int(3)}

    word = ((1, 2), ((2, 1, "f"),))
    args = ((1, 0, "p"), (1, 0, "q"))
    got = routed_compose(Q, word, args, evaluate, lambda lab: ("out", lab), outer=((2, 1), S))
    assert got == {("out", ((1, 2), ((2, 1, "x"),))): Q.of_int(-3)}


# the compose oracle: generator relations against every group element ---------------


def _compose_oracle_fixtures(seed, count=20):
    """The (field, M, N) pairs of `verify.suite_compose_oracle(seed, count)`, in its order."""
    fields = [Q, F2, F3]
    out = []
    k = 0
    while len(out) < count and k < count * 4:
        field = fields[k % 3]
        M, _ = random_sigma_module(field, seed + 2 * k, arity_bound=3)
        N, _ = random_sigma_module(field, seed + 2 * k + 1, arity_bound=3)
        k += 1
        if not (M.is_zero() or N.is_zero()):
            out.append((field, M, N))
    return out


def _full_group_compose_dims(field, m_sigma, n_sigma, arity_bound):
    """dims of (M o N)(r) with the outer-coinvariant relation of every sigma in S_k.

    The reference for `compose_dims_oracle`, which relates by the adjacent
    transpositions only.  Actions are read off the stored tables through
    transposition words, not through the modules' memos.
    """

    def act(module, n, sigma, d, label):
        return module._act_word(n, perm.transposition_word(sigma), d, {label: field.one()})

    out = {}
    for r in range(1, arity_bound + 1):
        by_degree = {}
        for k in m_sigma.arities():
            for sizes in _compositions(r, k, n_sigma.arities()):
                factor_triples = [list(n_sigma.basis_triples(a)) for a in sizes]
                for mt in m_sigma.basis_triples(k):
                    for inners in itertools.product(*factor_triples):
                        for routing in itertools.permutations(range(1, r + 1)):
                            d = mt[1] + sum(t[1] for t in inners)
                            by_degree.setdefault(d, []).append((mt, inners, routing))
        for d, bigs in by_degree.items():
            index = {b: i for i, b in enumerate(bigs)}
            relations = []

            def relate(pairs):
                rel = {}
                for key, c in pairs:
                    rel[index[key]] = field.add(rel.get(index[key], field.zero()), c)
                rel = {i: c for i, c in rel.items() if not field.is_zero(c)}
                if rel:
                    relations.append(rel)

            for mt, inners, routing in bigs:
                k = mt[0]
                sizes = tuple(t[0] for t in inners)
                offsets = [sum(sizes[:j]) for j in range(k)]
                for j, (a, dj, lj) in enumerate(inners):
                    for i in range(1, a):
                        h = perm.apply_adjacent(perm.identity(a), i)
                        emb = perm.block_sum([perm.identity(sizes[x]) if x != j else h for x in range(k)])
                        pairs = [
                            ((mt, inners[:j] + ((a, dj, l2),) + inners[j + 1 :], routing), c)
                            for l2, c in act(n_sigma, a, h, dj, lj).items()
                        ]
                        relate(pairs + [((mt, inners, perm.compose(emb, routing)), field.sign(1))])
                for sig in itertools.permutations(range(1, k + 1)):
                    if sig == perm.identity(k):
                        continue
                    sig_inv = perm.inverse(sig)
                    permuted = tuple(inners[sig_inv[j] - 1] for j in range(k))
                    kos = perm.koszul_sign_exponent([t[1] for t in inners], sig)
                    new_offsets = [sum(t[0] for t in permuted[:j]) for j in range(k)]
                    slot_map = {}
                    for j in range(k):
                        for a in range(sizes[j]):
                            slot_map[offsets[j] + a + 1] = new_offsets[sig[j] - 1] + a + 1
                    rerouted = tuple(slot_map[v] for v in routing)
                    acted = act(m_sigma, k, sig, mt[1], mt[2])
                    pairs = [(((k, mt[1], lm2), inners, routing), c) for lm2, c in acted.items()]
                    relate(pairs + [((mt, permuted, rerouted), field.sign(kos + 1))])
            kept, _ = quotient_data(field, len(bigs), relations)
            if kept:
                out.setdefault(r, {})[d] = len(kept)
    return out


@pytest.mark.parametrize("seed", [11, 5])  # the suite's default seed and a held-out one
def test_generator_relations_give_the_full_group_dims(seed):
    fixtures = _compose_oracle_fixtures(seed)
    assert len(fixtures) == 20
    for field, M, N in fixtures:
        assert compose_dims_oracle(field, M, N, 3) == _full_group_compose_dims(field, M, N, 3)


# memos: each against the uncached computation ---------------------------------------


def standard_rep(field):
    """The 2-dimensional irreducible of Sigma_3 on a = e1 - e2, b = e2 - e3: images of two terms."""
    one, minus = field.one(), field.of_int(-1)
    comps = {3: DgModule(field, {0: ("a", "b")}, {}, check=False)}
    act = {
        (3, 1): {(0, "a"): {"a": minus}, (0, "b"): {"a": one, "b": one}},
        (3, 2): {(0, "a"): {"a": one, "b": one}, (0, "b"): {"b": minus}},
    }
    return SigmaModule(field, comps, act).check_relations()


def _memo_fixtures():
    for field in (Q, F2, F3):
        yield standard_rep(field)
        for seed in (0, 3, 8):
            M, _ = random_sigma_module(field, seed, arity_bound=3)
            N, _ = random_sigma_module(field, seed + 1, arity_bound=3)
            yield M
            yield compose(M, N, 3).sigma
    yield bar_module(stasheff_operad(Q, 3), 3).sigma  # a nonzero differential


def test_action_and_differential_memos_match_the_uncached_maps():
    for module in _memo_fixtures():
        f = module.field
        for n in module.arities():
            for sigma in itertools.permutations(range(1, n + 1)):
                word = perm.transposition_word(sigma)
                pairs = [(d, l) for d in module.component(n).degrees() for l in module.component(n).labels(d)]
                for d, label in pairs:
                    expect = module._act_word(n, word, d, {label: f.one()})
                    got = module.act_perm_combo(n, sigma, d, {label: f.one()})
                    assert got == expect
                    got[label] = f.of_int(2)  # a caller that writes to its combo
                    got.clear()
                    assert module.act_perm_combo(n, sigma, d, {label: f.one()}) == expect
                for (d, a), (d2, b) in zip(pairs, pairs[1:]):
                    if d == d2:  # a combo of two labels
                        combo = {a: f.one(), b: f.of_int(-1)}
                        assert module.act_perm_combo(n, sigma, d, combo) == module._act_word(n, word, d, combo)
            for triple in module.basis_triples(n):
                _, d, label = triple
                expect = {(n, d - 1, l2): c for l2, c in module.component(n).apply_diff(d, {label: f.one()}).items()}
                got = module.differential_combo(triple)
                assert got == expect
                got.clear()
                assert module.differential_combo(triple) == expect
    assert any(module.differential_combo(t) for t in module.basis_triples(3))


def test_coset_split_memo_matches_coset_canonicalize():
    for field in (Q, F2, F3):
        M, _ = random_sigma_module(field, 0, arity_bound=3)
        N, _ = random_sigma_module(field, 5, arity_bound=3)
        ws = WordSpace(field, [M, N], 3)
        for r in ws.arities():
            for label in ws.component(r).labels(ws.component(r).degrees()[0]):
                for sigma in itertools.permutations(range(1, r + 1)):
                    ws.right_act(r, sigma, label)
        assert ws._splits
        for (sigma, sizes), (h_parts, w) in ws._splits.items():
            expect_h, expect_w = perm.coset_canonicalize(sigma, sizes)
            assert (list(h_parts), w) == (list(expect_h), expect_w)
