"""Cross-module identity suites behind `opbar verify` and the tests.

Each suite returns a list of (name, passed, details) triples; every
check names the structural identity it exercises.  Suites are
deterministic for a fixed seed.
"""

from __future__ import annotations

from .bar import (
    bar,
    bar_extension_iso,
    bar_module,
    iterated_bar,
    shuffle_product,
    shuffle_word_product,
    sym_bar_comparison,
)
from .catbar import (
    SimplicialDgModule,
    bar_cat_comparison,
    cat_bar_module_vs_bar_module,
    categorical_bar_module,
    eilenberg_maclane,
    simplicial_categorical_bar,
)
from .dg import DegreeWindow, DgMap, DgModule
from .fixtures import (
    compose_dims_oracle,
    is_sigma_free,
    random_commutative_algebra,
    random_sigma_module,
    random_tensor_algebra,
    sigma_free_compose_dims_formula,
    tensor_dims_formula,
)
from .linalg import CoeffField, combo_add, combo_map
from .modules import DgAlgebra, check_algebra
from .operads import (
    alpha_to_com,
    associative_operad,
    commutative_operad,
    compose_morphisms,
    eps_kills_stasheff_differential,
    eps_to_assoc,
    identity_morphism,
    operad_morphism_check,
    stasheff_d_squared_vanishes,
    stasheff_operad,
    stasheff_unique_sign_convention,
)
from .sigma import compose, sigma_tensor
from .simplicial import boundary_of_simplex, minimal_sphere, normalized_cochains
from .transfer import transfer_a_infinity


def _run(checks):
    out = []
    for name, fn in checks:
        try:
            ok, details = fn()
        except Exception as exc:  # a raised invariant is a failure with a reason
            ok, details = False, "%s: %s" % (type(exc).__name__, exc)
        out.append((name, bool(ok), details))
    return out


def suite_stasheff(arity=7, field=None):
    """d^2 = 0 on K and eps: K -> As is a dg operad morphism."""
    f = field or CoeffField.rationals()

    def d2():
        return stasheff_d_squared_vanishes(f, arity), "generators mu_2..mu_%d" % arity

    def eps_gen():
        return eps_kills_stasheff_differential(f, arity), "eps(d mu_r) = 0 through arity %d" % arity

    def eps_full():
        bound = min(arity, 4)
        K = stasheff_operad(f, bound)
        As = associative_operad(f, bound)
        return operad_morphism_check(eps_to_assoc(K, As), bound), "full morphism check through arity %d" % bound

    def uniqueness():
        sols = stasheff_unique_sign_convention(f, 5)
        families = {tuple(s[:6]) for s in sols}
        return len(families) == 2, "%d sign conventions (2 families up to global sign)" % len(sols)

    return _run(
        [
            ("stasheff.d_squared", d2),
            ("stasheff.eps_generators", eps_gen),
            ("stasheff.eps_morphism", eps_full),
            ("stasheff.sign_uniqueness", uniqueness),
        ]
    )


def suite_bar_module(arity=4, seed=2024, max_degree=12):
    """(delta+partial)^2 = 0 for random dg-algebras and for B_K."""
    checks = []
    window = DegreeWindow(-max_degree, max_degree)
    for field, fname in ((CoeffField.prime(2), "F2"), (CoeffField.rationals(), "Q")):
        for k in range(5):
            def one(field=field, k=k, fname=fname):
                alg = random_tensor_algebra(field, seed + k, max_generators=2)
                assert alg.module.total_dim() <= 6
                bar(alg, window)  # construction verifies the squared differential
                return True, "%s seed %d dim %d" % (fname, seed + k, alg.module.total_dim())

            checks.append(("bar.d_squared.random.%s.%d" % (fname, k), one))

    def bk(arity=arity):
        f = CoeffField.rationals()
        K = stasheff_operad(f, arity)
        bm = bar_module(K, arity)
        dims = bm.dims()
        return True, "B_K dims per arity: %s" % ({r: sum(dd.values()) for r, dd in dims.items()},)

    checks.append(("bar_module.B_K.d_squared", bk))

    def bk_action():
        f = CoeffField.rationals()
        K = stasheff_operad(f, 3)
        bm = bar_module(K, 3)
        bm.right_module.check_module(3)
        return True, "action axioms + derivation through arity 3"

    checks.append(("bar_module.B_K.action", bk_action))
    return _run(checks)


def _fixture_algebras(field, kind_needed):
    ext = DgAlgebra(field, "comm", DgModule.from_data(field, [("x", 1)]), {2: {}}, name="exterior")
    trunc = DgAlgebra(
        field,
        "comm",
        DgModule.from_data(field, [("x", 1), ("x2", 2)]),
        {2: {("x", "x"): {"x2": field.one()}}},
        name="trunc",
    )
    if kind_needed == "comm":
        return [ext, trunc]
    assoc = DgAlgebra(field, kind_needed, ext.module, {2: {}}, name="exterior")
    trunc2 = DgAlgebra(field, kind_needed, trunc.module, dict(trunc.ops), name="trunc")
    return [assoc, trunc2]


def suite_module_functor(arity=3, max_weight=3):
    """Sym_R(B_R, A) ~ B(A) for R in {As, Com, K}, two fixtures each."""
    checks = []
    F2 = CoeffField.prime(2)
    Q = CoeffField.rationals()
    cases = [
        ("Com", commutative_operad(F2, arity), _fixture_algebras(F2, "comm")),
        ("As", associative_operad(F2, arity), _fixture_algebras(F2, "assoc")),
        ("K", stasheff_operad(Q, arity), _fixture_algebras(Q, "ainf")),
    ]
    weights = list(range(1, max_weight + 1))
    for rname, operad, algebras in cases:
        bm = bar_module(operad, arity)
        for alg in algebras:
            def one(bm=bm, alg=alg, rname=rname):
                sym, target, iso = sym_bar_comparison(bm, alg, weights)
                return True, "%s / %s: %d basis elements matched" % (
                    rname,
                    alg.name,
                    sym.module.total_dim(),
                )

            checks.append(("module_functor.%s.%s" % (rname, alg.name), one))
    return _run(checks)


def suite_extension(arity=3):
    """B_K o_K As ~ B_As and B_As o_As Com ~ B_Com, plus identity."""
    Q = CoeffField.rationals()
    As = associative_operad(Q, arity)
    Com = commutative_operad(Q, arity)
    # As's own eps, so that B_As and the composite below reuse its recorded check
    eps = As.from_stasheff()
    K = eps.source
    alpha = alpha_to_com(As, Com)

    def eps_case():
        bm = bar_module(K, arity)
        ext, bs, _ = bar_extension_iso(bm, eps, arity)
        return True, "dims %s" % ({r: sum(dd.values()) for r, dd in bs.dims().items()},)

    def alpha_case():
        bm = bar_module(As, arity)
        ext, bs, _ = bar_extension_iso(bm, alpha, arity)
        return True, "dims %s" % ({r: sum(dd.values()) for r, dd in bs.dims().items()},)

    def eta_case():
        bm = bar_module(K, arity)
        ext, bs, _ = bar_extension_iso(bm, compose_morphisms(alpha, eps), arity)
        return True, "composite K -> Com"

    def identity_case():
        bm = bar_module(Com, arity)
        ext, bs, _ = bar_extension_iso(bm, identity_morphism(Com), arity, bar_mod_s=bm)
        return True, "identity extension"

    return _run(
        [
            ("extension.B_K_to_As", eps_case),
            ("extension.B_As_to_Com", alpha_case),
            ("extension.B_K_to_Com", eta_case),
            ("extension.identity", identity_case),
        ]
    )


def suite_shuffle(seed=7, count=10, max_degree=10):
    """Commutativity, associativity and the derivation rule for shuffles."""
    checks = []
    window = DegreeWindow(0, max_degree)
    fields = [CoeffField.prime(2), CoeffField.rationals()]
    for k in range(count):
        field = fields[k % 2]

        def one(field=field, k=k):
            alg = random_commutative_algebra(field, seed + k)
            if alg.module.is_zero():
                return True, "empty fixture"
            b = bar(alg, window)
            sh = shuffle_product(b)
            prange = (b.window.lo - 1, b.window.hi + 1)
            ok1, diags = check_algebra(sh, 3, partial_range=prange)
            if not ok1:
                return False, "commutativity/associativity: %s" % diags[:1]
            if not _shuffle_is_derivation(b, sh):
                return False, "derivation identity fails"
            if not _matches_independent_shuffle(b):
                return False, "independent shuffle mismatch"
            return True, "fixture %d over %r, bar dim %d" % (k, field, b.module.total_dim())

        checks.append(("shuffle.fixture.%d" % k, one))
    return _run(checks)


def _shuffle_is_derivation(b, sh, cap=40):
    """(delta+partial)(u.v) = Du.v + (-1)^{|u|} u.Dv on basis pairs.

    Exhaustive on fixtures with at most `cap` words, deterministic
    prefix otherwise.
    """
    f = b.field
    mod = b.module
    picked = [(d, u) for d in mod.degrees() for u in mod.labels(d)][:cap]
    for du, u in picked:
        for dv, v in picked:
            if (du + dv) not in mod.basis or (du + dv - 1) not in mod.basis:
                continue
            # words beyond the truncation carry no products: D(u.v) is compared inside B(A)
            d_uv = combo_map(f, sh.op_apply(2, (u, v)), b.diff_word)
            lhs = {w: c for w, c in d_uv.items() if w in b.weight_of}
            rhs = combo_map(f, b.diff_word(u), lambda u2: sh.op_apply(2, (u2, v)))
            sgn = f.sign(du)
            dv = {v2: f.mul(sgn, c) for v2, c in b.diff_word(v).items()}
            combo_map(f, dv, lambda v2: sh.op_apply(2, (u, v2)), rhs)
            if lhs != rhs:
                return False
    return True


def _matches_independent_shuffle(b):
    """shuffle_word_product vs the last-letter recursion with signs."""
    f = b.field
    mod = b.module
    words = [w for d in mod.degrees() for w in mod.labels(d)][:12]
    for u in words:
        for v in words:
            got = shuffle_word_product(f, u, v)
            exp = _independent_shuffle_signed(f, u, v)
            if got != exp:
                return False
    return True


def _independent_shuffle_signed(field, u, v):
    """Signed last-letter recursion: the last letter of the product is
    the last letter of u or of v; in the second case that letter crossed
    nothing, in the first case it crossed all of v's remaining letters.
    """
    if not u:
        return {v: field.one()}
    if not v:
        return {u: field.one()}
    out = {}
    a = u[-1]
    susp_a = a[0] + 1
    susp_v = sum(x[0] + 1 for x in v)
    sgn = field.sign(susp_a * susp_v)
    for w, c in _independent_shuffle_signed(field, u[:-1], v).items():
        combo_add(field, out, w + (a,), field.mul(sgn, c))
    b_ = v[-1]
    for w, c in _independent_shuffle_signed(field, u, v[:-1]).items():
        combo_add(field, out, w + (b_,), c)
    return out


def suite_commutative_identity(max_degree=10):
    """B(A) ~ N(C(A)) as dg-algebras, and N(C_Com) ~ B_Com (arity 3)."""
    F2 = CoeffField.prime(2)
    Q = CoeffField.rationals()

    exterior, trunc = _fixture_algebras(F2, "comm")

    def fixture1():
        bar_cat_comparison(exterior, DegreeWindow(0, max_degree))
        return True, "exterior over F2, window [0,%d]" % max_degree

    def fixture2():
        bar_cat_comparison(trunc, DegreeWindow(0, 8))
        return True, "truncated polynomial over F2"

    def fixture3():
        alg = DgAlgebra(
            Q,
            "comm",
            DgModule.from_data(Q, [("x", 2), ("x2", 4)]),
            {2: {("x", "x"): {"x2": Q.one()}}},
            name="truncQ",
        )
        bar_cat_comparison(alg, DegreeWindow(0, 10))
        return True, "truncated polynomial over Q (signs exercised)"

    def module_level():
        for field in (F2, Q):
            Com = commutative_operad(field, 3)
            cm = categorical_bar_module(Com, 3, 3)
            bm = bar_module(Com, 3)
            cat_bar_module_vs_bar_module(cm, bm)
        return True, "N(C_Com) ~ B_Com through arity 3 over F2 and Q"

    return _run(
        [
            ("cat.B_equals_C.exterior", fixture1),
            ("cat.B_equals_C.trunc", fixture2),
            ("cat.B_equals_C.truncQ", fixture3),
            ("cat.module_level", module_level),
        ]
    )


def suite_em(seed=5):
    """The Eilenberg-Mac Lane map is a chain map; constant case is iso."""
    Q = CoeffField.rationals()

    def chain_map():
        alg = DgAlgebra(Q, "comm", DgModule.from_data(Q, [("x", 1), ("y", 2)]), {2: {}}, name="probe")
        sx = simplicial_categorical_bar(alg, 3)
        em, _, _, _ = eilenberg_maclane(sx, sx, bound=3)
        return em.is_chain_map(), "on the categorical bar of a two-generator fixture"

    def constant_case():
        # constant simplicial object (x) arbitrary: EM is the canonical iso
        alg = DgAlgebra(Q, "comm", DgModule.from_data(Q, [("x", 1)]), {2: {}}, name="c")
        sx = simplicial_categorical_bar(alg, 2)
        const = _constant_simplicial(Q, DgModule.ground(Q, "k"), 2)
        eilenberg_maclane(const, sx, bound=2)[0].require_iso("EM on constant (x) C(A)")
        return True, "constant (x) C(A): canonical isomorphism"

    return _run([("em.chain_map", chain_map), ("em.constant_iso", constant_case)])


def _constant_simplicial(field, module, bound):
    def identity(n, k):
        return DgMap.identity(module)

    return SimplicialDgModule.from_maps(field, {n: module for n in range(bound + 1)}, bound, identity, identity)


def suite_compose_oracle(seed=11, count=20, arity=4):
    """Composition/tensor dimensions vs brute-force enumeration."""
    checks = []
    fields = [CoeffField.rationals(), CoeffField.prime(2), CoeffField.prime(3)]
    made = 0
    k = 0
    while made < count and k < count * 4:
        field = fields[k % 3]
        M, descM = random_sigma_module(field, seed + 2 * k, arity_bound=3)
        N, _descN = random_sigma_module(field, seed + 2 * k + 1, arity_bound=3)
        k += 1
        if M.is_zero() or N.is_zero():
            continue
        made += 1

        def one(field=field, M=M, N=N, descM=descM):
            impl = {
                r: {d: n for d, n in dd.items() if n}
                for r, dd in compose(M, N, 3).sigma.dims().items()
            }
            impl = {r: dd for r, dd in impl.items() if dd}
            oracle = compose_dims_oracle(field, M, N, 3)
            if impl != oracle:
                return False, "compose dims %r != oracle %r" % (impl, oracle)
            ws = sigma_tensor(M, N, 3)
            tdims = {
                r: {d: ws.component(r).dim(d) for d in ws.component(r).degrees()}
                for r in ws.arities()
            }
            tdims = {r: dd for r, dd in tdims.items() if dd}
            if tdims != tensor_dims_formula(M, N, 3):
                return False, "tensor dims mismatch"
            extra = ""
            if is_sigma_free(descM):
                if impl != sigma_free_compose_dims_formula(descM, N, 3):
                    return False, "sigma-free counting formula mismatch"
                extra = " (+ counting formula)"
            return True, "over %r%s" % (field, extra)

        checks.append(("compose_oracle.%d" % made, one))
    return _run(checks)


def suite_loops(max_degree=8):
    """Desk-scale loop space tables against classical oracles."""
    F2 = CoeffField.prime(2)
    F3 = CoeffField.prime(3)

    def james():
        c2 = normalized_cochains(minimal_sphere(2), F2)
        b = bar(c2.algebra(), DegreeWindow(-max_degree, -1))
        H = b.homology()
        expect = {-k: 1 for k in range(1, max_degree + 1)}
        got = {d: v for d, v in H.items() if v}
        return got == expect, "H(B(N~(S^2))) = tensor algebra dims %r" % (got,)

    def divided_powers():
        for field in (F2, F3):
            c3 = normalized_cochains(minimal_sphere(3), field)
            b = bar(c3.algebra(), DegreeWindow(-max_degree, -1))
            H = {d: v for d, v in b.homology().items() if v}
            expect = {-k: 1 for k in range(2, max_degree + 1, 2)}
            if H != expect:
                return False, "Gamma[y_2] pattern fails over %r: %r" % (field, H)
        return True, "H(B(Lambda(x_3))) = Gamma[y_2] dims over F2 and F3"

    def iterated():
        ext = DgAlgebra(F2, "comm", DgModule.from_data(F2, [("x", 1)]), {2: {}}, name="Lx")
        levels = iterated_bar(ext, 2, DegreeWindow(0, 6))
        H = {d: v for d, v in levels[-1].homology(DegreeWindow(1, 6)).items() if v}
        return H == {3: 1, 5: 1, 6: 1}, "H(B^2(Lambda(x_1); F2)) through degree 6: %r" % (H,)

    def quasi_iso():
        c_min = normalized_cochains(minimal_sphere(2), F2)
        b_min = bar(c_min.algebra(), DegreeWindow(-max_degree, -1))
        t_min = {-d: v for d, v in b_min.homology().items()}
        c_big = normalized_cochains(boundary_of_simplex(3), F2)
        reduced = transfer_a_infinity(c_big.algebra(), max_degree + 1)
        b_big = bar(reduced, DegreeWindow(-max_degree, -1))
        t_big = {-d: v for d, v in b_big.homology().items()}
        return t_min == t_big, "minimal vs boundary-of-simplex tables: %r" % (t_min,)

    return _run(
        [
            ("loops.james_S2", james),
            ("loops.divided_powers_S3", divided_powers),
            ("loops.iterated_B2", iterated),
            ("loops.quasi_iso_invariance", quasi_iso),
        ]
    )


# name -> (suite, the command-line options it takes)
SUITES = {
    "stasheff": (suite_stasheff, ("arity",)),
    "bar-module": (suite_bar_module, ("arity", "seed", "max_degree")),
    "module-functor": (suite_module_functor, ("arity",)),
    "extension": (suite_extension, ("arity",)),
    "shuffle": (suite_shuffle, ("seed", "max_degree")),
    "commutative-identity": (suite_commutative_identity, ("max_degree",)),
    "em": (suite_em, ("seed",)),
    "compose-oracle": (suite_compose_oracle, ("seed", "arity")),
    "loops": (suite_loops, ("max_degree",)),
}


def run_suite(name, **kwargs):
    """Run suite `name` (or every suite, for "all") with the given options
    it takes; an option a suite does not take, or one set to None, is
    ignored."""
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(run_suite(key, **kwargs))
        return out
    if name not in SUITES:
        raise KeyError("unknown suite %r (have %s)" % (name, ", ".join(sorted(SUITES) + ["all"])))
    fn, takes = SUITES[name]
    return fn(**{k: v for k, v in kwargs.items() if k in takes and v is not None})
