"""Finite pointed simplicial sets and their reduced cochain algebras.

Simplices of the generated simplicial set are written (word, name)
where `name` is a nondegenerate simplex and `word` is an admissible
degeneracy word (strictly decreasing indices, applied innermost last).
Face and degeneracy operators normalize eagerly through the simplicial
identities; the face expressions of nondegenerate simplices are part of
the input data.

Cochains are stored lower-graded (C^n in degree -n); the reduced
complex drops the basepoint vertex dual.  The cup product is the
front-face/back-face formula

    (u . v)(sigma) = u(front_p sigma) * v(back_q sigma),

which is associative and satisfies the Leibniz rule (both verified by
the tests; degenerate front/back pieces pair to zero).
"""

from __future__ import annotations

import re

from .dg import DgModule
from .errors import SimplicialIdentityViolation
from .jsonio import _member, _objects, _typed
from .modules import DgAlgebra
from .sigma import _combo_add


class FiniteSimplicialSet:
    """Nondegenerate simplices with symbolic face data and a basepoint.

    `simplices` maps name -> dimension; `face_data` maps name -> list
    of dim+1 simplex expressions (word, name); `basepoint` is a
    0-simplex name.
    """

    def __init__(self, simplices, face_data, basepoint, check=True):
        self.dim_of = dict(simplices)
        self.faces_of = {k: list(v) for k, v in face_data.items()}
        self.basepoint = basepoint
        if basepoint not in self.dim_of or self.dim_of[basepoint] != 0:
            raise ValueError("basepoint must be a 0-simplex")
        for name, dim in self.dim_of.items():
            if dim == 0:
                continue
            faces = self.faces_of.get(name)
            if faces is None or len(faces) != dim + 1:
                raise ValueError("simplex %r of dim %d needs %d faces" % (name, dim, dim + 1))
            for expr in faces:
                w, core = expr
                if core not in self.dim_of:
                    raise ValueError("face of %r names no simplex: %r" % (name, expr))
                if self.dim_of[core] + len(w) != dim - 1:
                    raise ValueError("face of %r has wrong dimension: %r" % (name, expr))
        if check:
            self.check_identities()

    def dimension(self):
        return max(self.dim_of.values())

    def nondegenerate(self, dim):
        return sorted(name for name, d in self.dim_of.items() if d == dim)

    # symbolic simplex operators ------------------------------------------------

    def degeneracy(self, j, simplex):
        """s_j applied to (word, name), keeping the word admissible.

        Words are strictly decreasing tuples (w_1 > w_2 > ...), meaning
        s_{w_1} s_{w_2} ... applied to the core; the relation
        s_j s_w = s_{w+1} s_j for j <= w normalizes insertions.
        """
        word, name = simplex
        if not word:
            return ((j,), name)
        w1 = word[0]
        if j > w1:
            return ((j,) + word, name)
        sub_word, _ = self.degeneracy(j, (word[1:], name))
        return ((w1 + 1,) + sub_word, name)

    def face(self, i, simplex):
        """d_i applied to (word, name).

        Pushes the face through the degeneracy word by the simplicial
        identities, then consults the stored face expressions.
        """
        word, name = simplex
        if not word:
            dim = self.dim_of[name]
            if dim == 0:
                raise ValueError("no faces of a vertex")
            w, core = self.faces_of[name][i]
            return (w, core)
        j = word[0]
        rest = (tuple(word[1:]), name)
        if i < j:
            sub = self.face(i, rest)
            return self.degeneracy(j - 1, sub)
        if i in (j, j + 1):
            return rest
        sub = self.face(i - 1, rest)
        return self.degeneracy(j, sub)

    def check_identities(self):
        """d_i d_j = d_{j-1} d_i for i < j on all nondegenerate simplices."""
        for name, dim in self.dim_of.items():
            if dim < 2:
                continue
            top = ((), name)
            for j in range(dim + 1):
                for i in range(j):
                    lhs = self.face(i, self.face(j, top))
                    rhs = self.face(j - 1, self.face(i, top))
                    if lhs != rhs:
                        raise SimplicialIdentityViolation(
                            "d_%d d_%d %r: %r != %r" % (i, j, name, lhs, rhs)
                        )

    def iterated_front(self, simplex, target_dim):
        """Front face: drop last vertices via d_top until target_dim."""
        cur = simplex
        cur_dim = self.dim_of[cur[1]] + len(cur[0])
        while cur_dim > target_dim:
            cur = self.face(cur_dim, cur)
            cur_dim -= 1
        return cur

    def iterated_back(self, simplex, target_dim):
        """Back face: drop first vertices via d_0 until target_dim."""
        cur = simplex
        cur_dim = self.dim_of[cur[1]] + len(cur[0])
        while cur_dim > target_dim:
            cur = self.face(0, cur)
            cur_dim -= 1
        return cur


def parse_face_expression(text):
    """Parse "s1(s0(pt))" / "s1 s0 pt" / "e" into (word, name)."""
    text = text.strip()
    word = []
    rest = text
    pattern = re.compile(r"^s(\d+)\s*\(\s*(.*)\s*\)$")
    while True:
        m = pattern.match(rest)
        if m:
            word.append(int(m.group(1)))
            rest = m.group(2)
            continue
        parts = rest.split()
        if len(parts) > 1 and all(p.startswith("s") and p[1:].isdigit() for p in parts[:-1]):
            word.extend(int(p[1:]) for p in parts[:-1])
            rest = parts[-1]
        break
    return (tuple(word), rest.strip())


def simplicial_set_from_json(data):
    simplices = {}
    face_data = {}
    for entry, at in _objects(data, "simplices"):
        name, dim = _member(entry, "name", str, at), _member(entry, "dim", int, at)
        simplices[name] = dim
        if dim > 0:
            faces = _member(entry, "faces", list, at)
            face_data[name] = [
                parse_face_expression(_typed(t, str, "%s.faces[%d]" % (at, k))) for k, t in enumerate(faces)
            ]
    return FiniteSimplicialSet(simplices, face_data, _member(data, "basepoint", str))


# built-in models ----------------------------------------------------------------


def minimal_sphere(n, point="pt", cell="sigma"):
    """S^n with one vertex and one nondegenerate n-simplex."""
    word = tuple(range(n - 2, -1, -1))
    faces = [(word, point) for _ in range(n + 1)]
    return FiniteSimplicialSet({point: 0, cell: n}, {cell: faces}, point)


def boundary_of_simplex(n):
    """The boundary of the n-simplex: nondegenerate faces of [0..n]."""
    simplices = {}
    face_data = {}
    from itertools import combinations

    for k in range(n):
        for verts in combinations(range(n + 1), k + 1):
            simplices[_vname(verts)] = k
    for name in list(simplices):
        verts = _vparse(name)
        if len(verts) == 1:
            continue
        face_data[name] = [((), _vname(verts[:i] + verts[i + 1 :])) for i in range(len(verts))]
    return FiniteSimplicialSet(simplices, face_data, _vname((0,)))


def standard_simplex(n):
    """Delta^n as a finite simplicial set (contractible)."""
    simplices = {}
    face_data = {}
    from itertools import combinations

    for k in range(n + 1):
        for verts in combinations(range(n + 1), k + 1):
            simplices[_vname(verts)] = k
    for name in list(simplices):
        verts = _vparse(name)
        if len(verts) == 1:
            continue
        face_data[name] = [((), _vname(verts[:i] + verts[i + 1 :])) for i in range(len(verts))]
    return FiniteSimplicialSet(simplices, face_data, _vname((0,)))


def _vname(verts):
    return "v" + "".join(str(v) for v in verts)


def _vparse(name):
    return tuple(int(c) for c in name[1:])


# cochains -------------------------------------------------------------------------


class CochainAlgebra:
    """The reduced normalized cochain algebra, lower graded."""

    def __init__(self, space, field):
        self.space = space
        self.field = field
        self._build()

    def _build(self):
        f = self.field
        x = self.space
        top = x.dimension()
        elements = []
        for n in range(top + 1):
            for name in x.nondegenerate(n):
                if n == 0 and name == x.basepoint:
                    continue
                elements.append((name, -n))
        # coboundary: coefficient of tau* in d(sigma*) is sum_i (-1)^i [d_i tau = sigma]
        diff_map = {}
        for n in range(1, top + 1):
            for tau in x.nondegenerate(n):
                for i in range(n + 1):
                    w, core = x.face(i, ((), tau))
                    if w:
                        continue
                    if core == x.basepoint and n - 1 == 0:
                        continue
                    _combo_add(f, diff_map.setdefault(core, {}), tau, f.sign(i))
        diff_map = {k: v for k, v in diff_map.items() if v}
        self.module = DgModule.from_data(f, elements, diff_map)
        self._cup_table = self._build_cup()

    def _build_cup(self):
        f = self.field
        x = self.space
        table = {}
        top = x.dimension()
        for n in range(0, top + 1):
            for tau in x.nondegenerate(n):
                if n == 0 and tau == x.basepoint:
                    continue
                for p in range(n + 1):
                    q = n - p
                    fw, front = x.iterated_front(((), tau), p)
                    bw, back = x.iterated_back(((), tau), q)
                    if fw or bw:
                        continue
                    if (p == 0 and front == x.basepoint) or (q == 0 and back == x.basepoint):
                        continue
                    _combo_add(f, table.setdefault((front, back), {}), tau, f.one())
        return {k: v for k, v in table.items() if v}

    def algebra(self):
        """As a DgAlgebra (associative kind)."""
        ops = {2: {}}
        for (u, v), out in self._cup_table.items():
            ops[2][(u, v)] = dict(out)
        return DgAlgebra(self.field, "assoc", self.module, ops, name="N~(%s)" % getattr(self.space, "name", "X"))


def normalized_cochains(space, field):
    """The reduced cochain algebra of a finite pointed simplicial set."""
    return CochainAlgebra(space, field)


def bar_of_cochains(space, field, iterations, window, weight_bound=None):
    """Homology table of B^n of the reduced cochain algebra.

    `window` is in cohomological degrees (positive).  For n = 1 the cup
    product suffices (the bar needs only associativity); when the
    suspended degrees are mixed-sign, the algebra is first retracted
    onto its homology as a Stasheff algebra.  n >= 2 requires a strictly
    commutative model and is rejected here.

    Returns (table, info): table maps cohomological degree -> dim,
    info records the weight bound, exactness and whether the retract
    was used.
    """
    from .bar import bar, sound_weight_bound
    from .dg import DegreeWindow
    from .errors import NotCommutative
    from .transfer import transfer_a_infinity

    if iterations >= 2:
        raise NotCommutative(
            "the iterated bar of a cochain algebra needs a strictly commutative model; "
            "supply one as a commutative algebra instead"
        )
    algebra = normalized_cochains(space, field).algebra()
    lower = DegreeWindow(-window.hi, -window.lo)
    reduced = False
    susp = [d + 1 for d in algebra.module.degrees()]
    if sound_weight_bound(susp, lower) is None and weight_bound is None:
        algebra = transfer_a_infinity(algebra, window.hi + 1)
        reduced = True
    b = bar(algebra, lower, weight_bound)
    table = {-d: v for d, v in b.homology().items()}
    info = {
        "weight_bound": b.weight_bound,
        "exact_in_window": b.exact_in_window,
        "reduced_model": reduced,
    }
    return table, info
