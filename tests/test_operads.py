import copy
from itertools import product
from math import factorial

import pytest

import opbar.operads
from opbar import trees
from opbar.errors import ArityBoundExceeded, MalformedInput
from opbar.jsonio import operad_from_json, operad_to_json
from opbar.linalg import CoeffField
from opbar.operads import (
    OperadMorphism,
    alpha_to_com,
    associative_operad,
    check_operad,
    commutative_operad,
    compose_morphisms,
    eps_kills_stasheff_differential,
    eps_to_assoc,
    identity_morphism,
    little_schroder,
    operad_morphism_check,
    stasheff_d_squared_vanishes,
    stasheff_generator_diff,
    stasheff_operad,
    stasheff_sign,
    stasheff_unique_sign_convention,
    free_operad,
)

Q = CoeffField.rationals()
F2 = CoeffField.prime(2)
F3 = CoeffField.prime(3)


def test_basic_dims():
    As = associative_operad(Q, 3)
    Com = commutative_operad(Q, 3)
    assert As.component(3).total_dim() == 6
    assert Com.component(3).total_dim() == 1


def test_structural_checks_as_com():
    for op in (associative_operad(Q, 4), commutative_operad(F2, 4)):
        op.sigma.check_relations()
        check_operad(op, 4)


def test_com_all_products_hit_generator():
    Com = commutative_operad(Q, 3)
    for s in (1, 2):
        for t in (1, 2):
            if s + t - 1 > 3:
                continue
            for p in Com.basis_triples(s):
                for q in Com.basis_triples(t):
                    for i in range(1, s + 1):
                        assert Com.compose_partial(p, i, q) == {"e": Q.one()}


def test_free_operad_binary_dims():
    # one binary generator: arity 3 has 2 shapes x 6 labelings = 12
    op = free_operad(Q, {2: [("m", 0)]}, 3)
    assert op.component(3).total_dim() == 12
    op.sigma.check_relations()
    check_operad(op, 3)


def test_grafting_distinct_and_unit():
    op = free_operad(Q, {2: [("m", 0)]}, 3)
    m2 = trees.corolla("m", 2)
    left = op.compose_partial((2, 0, m2), 1, (2, 0, m2))
    right = op.compose_partial((2, 0, m2), 2, (2, 0, m2))
    assert left != right
    unit = op.unit_triple()
    assert op.compose_partial((2, 0, m2), 1, unit) == {m2: Q.one()}
    assert op.compose_partial(unit, 1, (2, 0, m2)) == {m2: Q.one()}


def test_stasheff_derivative_small():
    # d(mu_2) = 0
    assert stasheff_generator_diff(Q, 2) == {}
    # d(mu_3) = -(m2 o_1 m2) + (m2 o_2 m2)
    d3 = stasheff_generator_diff(Q, 3)
    t1 = trees.graft(trees.corolla(("mu", 2), 2), 1, trees.corolla(("mu", 2), 2), {("mu", 2): 0})[1]
    t2 = trees.graft(trees.corolla(("mu", 2), 2), 2, trees.corolla(("mu", 2), 2), {("mu", 2): 0})[1]
    assert d3 == {t1: Q.of_int(-1), t2: Q.one()}


def test_stasheff_d_squared_arity7():
    assert stasheff_d_squared_vanishes(Q, 7)
    assert stasheff_d_squared_vanishes(F2, 7)


def test_the_symbolic_d_squared_check_refuses_a_large_arity_before_grafting(monkeypatch):
    def unguarded(*args):
        raise AssertionError("the symbolic d^2 check ran")

    monkeypatch.setattr(opbar.operads, "_d_squared_vanishes", unguarded)
    for bound in (17, 10**9):
        with pytest.raises(ArityBoundExceeded, match="stops at arity 16: arity bound %d is too large" % bound):
            stasheff_d_squared_vanishes(Q, bound)
    with pytest.raises(AssertionError, match="ran"):  # the largest bound allowed goes on
        stasheff_d_squared_vanishes(Q, 16)


def test_sign_convention_unique_up_to_global_sign():
    sols = stasheff_unique_sign_convention(Q, 5)
    families = {s[:6] for s in sols}
    assert len(families) == 2
    pinned = (1, 0, 1, 1, 0, 0)  # i + t + it + s "+ t": exponent i(t+1)+s+t
    # the pinned convention must be among the solutions
    found = any(
        all(stasheff_sign(s, t, i) == (a * i + b * s + c * t + d * i * t + e * i * s + f * s * t + g) % 2
            for s in range(2, 5) for t in range(2, 5) for i in range(1, s + 1))
        for (a, b, c, d, e, f, g) in sols
    )
    assert found


def _d_squared_by_grafting(field, max_arity, sign):
    """d(d(mu_r)) = 0 for every r <= max_arity under one sign rule, each term
    grafted on its own: the reference for the shared terms of `_d_squared_vanishes`."""
    degs = {("mu", k): k - 2 for k in range(2, max_arity + 1)}
    mu = {k: trees.corolla(("mu", k), k) for k in range(2, max_arity + 1)}

    def generator_diff(r):
        out = {}
        for s in range(2, r):
            for i in range(1, s + 1):
                par, tree = trees.graft(mu[s], i, mu[r + 1 - s], degs)
                out[tree] = field.add(out.get(tree, field.zero()), field.sign(sign(s, r + 1 - s, i) + par))
        return out

    for r in range(2, max_arity + 1):
        acc = {}
        for s in range(2, r):
            t = r + 1 - s
            for i in range(1, s + 1):
                c0 = field.sign(sign(s, t, i) + trees.graft(mu[s], i, mu[t], degs)[0])
                terms = [(trees.graft(p, i, mu[t], degs), pc) for p, pc in generator_diff(s).items()]
                terms += [(trees.graft(mu[s], i, q, degs), field.mul(field.sign(s - 2), qc))
                          for q, qc in generator_diff(t).items()]
                for (par, tree), c in terms:
                    acc[tree] = field.add(acc.get(tree, field.zero()), field.mul(c0, field.mul(c, field.sign(par))))
        if any(not field.is_zero(c) for c in acc.values()):
            return False
    return True


def test_the_sign_scan_pins_its_patterns_and_matches_grafting_per_pattern():
    assert stasheff_unique_sign_convention(Q, 5) == [
        (1, 0, 0, 1, 0, 1, 0),
        (1, 0, 0, 1, 0, 1, 1),
        (1, 1, 1, 1, 0, 0, 0),
        (1, 1, 1, 1, 0, 0, 1),
    ]
    def rule(a, b, c, d, e, f, g):
        return lambda s, t, i: (a * i + b * s + c * t + d * i * t + e * i * s + f * s * t + g) % 2

    patterns = list(product([0, 1], repeat=7))
    for field, max_arity in ((Q, 5), (F3, 5), (F2, 4)):
        expect = [p for p in patterns if _d_squared_by_grafting(field, max_arity, rule(*p))]
        assert stasheff_unique_sign_convention(field, max_arity) == expect
    assert len(stasheff_unique_sign_convention(F2, 5)) == 128  # every sign is 1 over F_2
    assert _d_squared_by_grafting(Q, 7, stasheff_sign) and stasheff_d_squared_vanishes(Q, 7)
    assert not _d_squared_by_grafting(Q, 4, lambda s, t, i: 0)
    assert opbar.operads._d_squared_vanishes(Q, 4, [lambda s, t, i: 0]) == [False]


def test_stasheff_operad_checks():
    K = stasheff_operad(Q, 4)
    K.sigma.check_relations()
    check_operad(K, 3)
    check_operad(K, 4)
    dims = {n: K.component(n).total_dim() for n in K.sigma.arities()}
    assert dims == {1: 1, 2: 2, 3: 18, 4: 264}


def test_morphisms():
    K = stasheff_operad(Q, 4)
    As = associative_operad(Q, 4)
    Com = commutative_operad(Q, 4)
    eps = eps_to_assoc(K, As)
    alpha = alpha_to_com(As, Com)
    # the composite first, while neither factor is recorded, so it is checked in full
    assert operad_morphism_check(compose_morphisms(alpha, eps), 4)
    assert operad_morphism_check(eps, 4)
    assert operad_morphism_check(alpha, 4)
    assert operad_morphism_check(identity_morphism(As), 4)
    assert eps_kills_stasheff_differential(Q, 7)


def test_eta_sends_higher_generators_to_zero():
    K = stasheff_operad(Q, 4)
    As = associative_operad(Q, 4)
    Com = commutative_operad(Q, 4)
    eta = compose_morphisms(alpha_to_com(As, Com), eps_to_assoc(K, As))
    mu2 = trees.corolla(("mu", 2), 2)
    mu3 = trees.corolla(("mu", 3), 3)
    assert eta.apply_triple((2, 0, mu2)) == {"e": Q.one()}
    assert eta.apply_triple((3, 1, mu3)) == {}


def spy_full_morphism_checks(monkeypatch):
    """The morphisms that `operad_morphism_check` checks relation by relation, by name."""
    checked = []
    real = opbar.operads._morphism_failures

    def spying(f, bound):
        checked.append(f.name)
        return real(f, bound)

    monkeypatch.setattr(opbar.operads, "_morphism_failures", spying)
    return checked


def test_identity_is_recorded_and_never_checked(monkeypatch):
    checked = spy_full_morphism_checks(monkeypatch)
    for op in (stasheff_operad(Q, 4), associative_operad(Q, 3)):
        identity = identity_morphism(op)
        assert identity.checked_through == op.arity_bound()
        assert operad_morphism_check(identity)
        assert operad_morphism_check(identity, 2) is True
    assert checked == []


def test_a_passing_check_is_recorded_and_covers_lower_bounds(monkeypatch):
    K = stasheff_operad(Q, 4)
    As = associative_operad(Q, 4)
    eps = eps_to_assoc(K, As)
    assert eps.checked_through == 0
    checked = spy_full_morphism_checks(monkeypatch)
    assert operad_morphism_check(eps, 3)
    assert eps.checked_through == 3
    assert operad_morphism_check(eps, 2) is True and operad_morphism_check(eps, 3) is True
    assert checked == ["eps"]
    # a higher bound than the record is checked again, and recorded
    assert operad_morphism_check(eps)
    assert eps.checked_through == 4 and checked == ["eps", "eps"]


def test_a_composite_of_recorded_morphisms_is_recorded(monkeypatch):
    K = stasheff_operad(Q, 4)
    As = associative_operad(Q, 4)
    Com = commutative_operad(Q, 4)
    eps, alpha = eps_to_assoc(K, As), alpha_to_com(As, Com)
    assert compose_morphisms(alpha, eps).checked_through == 0
    assert operad_morphism_check(eps, 4) and operad_morphism_check(alpha, 3)
    checked = spy_full_morphism_checks(monkeypatch)
    eta = compose_morphisms(alpha, eps)
    assert eta.checked_through == 3  # the smaller of the two records
    assert compose_morphisms(identity_morphism(Com), eta).checked_through == 3
    assert operad_morphism_check(eta, 3) and checked == []
    # g must start from the very operad f lands in: an equal copy of As is not enough
    other_alpha = alpha_to_com(associative_operad(Q, 4), Com)
    assert operad_morphism_check(other_alpha)
    assert compose_morphisms(other_alpha, eps).checked_through == 0


def test_a_failed_check_records_nothing():
    K = stasheff_operad(Q, 3)
    As = associative_operad(Q, 3)
    eps = eps_to_assoc(K, As)
    bad = OperadMorphism(K, As, lambda triple: {} if triple[0] == 3 else eps.apply_triple(triple))
    assert not operad_morphism_check(bad, 3)
    assert bad.checked_through == 0
    # still refused on a second look: the failure was not turned into a record
    assert operad_morphism_check(bad, 3) is False
    assert opbar.operads._morphism_failures(bad, 3)
    assert operad_morphism_check(bad, 2) and bad.checked_through == 2


def test_broken_morphism_detected():
    K = stasheff_operad(Q, 3)
    As = associative_operad(Q, 3)
    eps = eps_to_assoc(K, As)

    def broken_rule(triple):
        n, d, t = triple
        # correct everywhere except one composite tree, breaking o_i compatibility
        if n == 3 and d == 0 and t == trees.graft(
            trees.corolla(("mu", 2), 2), 1, trees.corolla(("mu", 2), 2), {("mu", 2): 0}
        )[1]:
            return {}
        return eps.apply_triple(triple)

    bad = OperadMorphism(K, As, broken_rule)
    assert operad_morphism_check(bad, 3) is False
    failures = opbar.operads._morphism_failures(bad, 3)
    assert any(f.startswith("composition fails at ") for f in failures)


def test_d_squared_enforced_at_construction():
    from opbar.errors import CompositionNotZero

    gens = {2: [("a", 0), ("b", 1), ("c", 2)]}
    bad_diff = {
        "c": {trees.corolla("b", 2): Q.one()},
        "b": {trees.corolla("a", 2): Q.one()},
    }
    with pytest.raises(CompositionNotZero):
        free_operad(Q, gens, 2, bad_diff)
    # an honest acyclic pair passes
    good = free_operad(Q, {2: [("a", 0), ("b", 1)]}, 3, {"b": {trees.corolla("a", 2): Q.one()}})
    check_operad(good, 3)


def _compositions(data, s, t):
    """The entries p o_i q of an exported composition table with p of arity s and q of arity t."""
    arity = {e["name"]: c["arity"] for c in data["components"] for e in c["basis"]}
    return [e for e in data["compositions"] if (arity[e["p"]], arity[e["q"]]) == (s, t)]


def _drop_binary_composition(data):
    data["compositions"].remove(_compositions(data, 2, 2)[0])


def _swap_binary_output(data):
    entries = _compositions(data, 2, 2)
    other = next(e for e in entries if e["output"] != entries[0]["output"])
    entries[0]["output"] = copy.deepcopy(other["output"])


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize(
    "build", [associative_operad, commutative_operad, stasheff_operad], ids=["As", "Com", "K"]
)
def test_check_operad_rejects_one_entry_mutants(build, field):
    # arity bound 4, so that mu_2 o_i mu_2 meets a third mu_2 in the associativity laws
    data = operad_to_json(build(field, 4), 4)
    check_operad(operad_from_json(data), 4)
    edits = [_drop_binary_composition]
    if build is not commutative_operad:  # Com has one element per arity: nothing to swap in
        edits.append(_swap_binary_output)
    for edit in edits:
        mutant = copy.deepcopy(data)
        edit(mutant)
        with pytest.raises(MalformedInput, match="operad laws"):
            operad_from_json(mutant)


def test_check_operad_rejects_a_dropped_action():
    data = operad_to_json(associative_operad(Q, 3), 3)
    # one dropped entry of s_1 breaks s_1^2 = 1, which the import refuses
    broken = copy.deepcopy(data)
    del broken["actions"][0]
    with pytest.raises(MalformedInput, match=r"s_1\^2 != 1"):
        operad_from_json(broken)
    # with the whole arity-2 action dropped the import holds a Sigma-module, but not an operad
    data["actions"] = [a for a in data["actions"] if a["arity"] != 2]
    with pytest.raises(MalformedInput, match="equivariance fails"):
        operad_from_json(data)


def test_check_operad_checks_associativity_as_a_module_law():
    # doubling every mu_2 o_i mu_3 of Com keeps it equivariant and breaks associativity
    data = operad_to_json(commutative_operad(Q, 4), 4)
    for entry in _compositions(data, 2, 3):
        entry["output"][0]["coeff"] = "2"
    with pytest.raises(MalformedInput, match="module law"):
        operad_from_json(data)


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
def test_operad_json_keeps_the_differentials(field):
    op = stasheff_operad(field, 4)
    back = operad_from_json(operad_to_json(op, 4))
    for n in range(1, 5):
        a, b = op.component(n), back.component(n)
        assert sorted(a.diff) == sorted(b.diff)
        for d in a.diff:
            assert sorted(a.diff[d].to_rows().items()) == sorted(b.diff[d].to_rows().items())
    assert back.component(3).diff and back.component(4).diff


def test_check_operad_checks_the_derivation_law_of_an_import():
    # doubling d in arity 3 keeps d^2 = 0 (arity 3 has degrees 0 and 1 only) but breaks
    # d(mu_2 o_i mu_3) = mu_2 o_i d(mu_3) in arity 4
    data = operad_to_json(stasheff_operad(Q, 4), 4)
    (arity3,) = [c for c in data["components"] if c["arity"] == 3]
    assert arity3["differential"]
    for entry in arity3["differential"]:
        entry["coeff"] = str(2 * int(entry["coeff"]))
    with pytest.raises(MalformedInput, match="derivation"):
        operad_from_json(data)


def test_component_sizes_in_closed_form():
    assert [little_schroder(n) for n in range(2, 10)] == [1, 3, 11, 45, 197, 903, 4279, 20793]
    K = stasheff_operad(Q, 5)
    As = associative_operad(Q, 5)
    for n in range(2, 6):
        assert K.component(n).total_dim() == factorial(n) * little_schroder(n)
        assert As.component(n).total_dim() == factorial(n)


@pytest.mark.parametrize(
    "build, fits, refused, size",
    [(associative_operad, 8, 9, "362880"), (stasheff_operad, 5, 6, "141840")],
    ids=["As", "K"],
)
def test_a_component_over_the_limit_is_refused_before_anything_is_built(monkeypatch, build, fits, refused, size):
    def no_building(*args, **kwargs):
        raise AssertionError("an operad was built")

    for cls in (opbar.operads.AssociativeOperad, opbar.operads.FreeOperad):
        monkeypatch.setattr(cls, "__init__", no_building)
    for bound in (refused, 30, 10**9):
        with pytest.raises(ArityBoundExceeded, match="%s basis elements, over the limit of 50000" % size):
            build(Q, bound)
    with pytest.raises(AssertionError, match="an operad was built"):  # the largest bound that fits goes on
        build(Q, fits)
