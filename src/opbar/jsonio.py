"""JSON import/export for dg-modules, algebras, operads and reports.

Formats:
  field         "Q" or {"Fp": p}
  dg-module     {"field": ..., "basis": [{"name": str, "degree": int}],
                 "differential": [{"from": str, "to": str, "coeff": str}]}
  algebra       {"operad": "As"|"Com"|"K", "carrier": <dg-module>,
                 "operations": [{"op": "mu<r>", "inputs": [names],
                                 "output": [{"name": str, "coeff": str}]}]}
  simplicial    {"simplices": [{"name": str, "dim": int,
                                "faces": ["s0(pt)", "e", ...]}],
                 "basepoint": str}
Coefficients are decimal strings, rationals as "a/b".  A missing field
or a value of the wrong JSON type raises `MalformedInput` naming its
path in the input, e.g. `carrier.basis[0]`.
"""

from __future__ import annotations

import json

from .dg import DgModule
from .errors import AlgebraCheckFailed, MalformedInput, OpbarError
from .linalg import CoeffField
from .modules import DgAlgebra


_REQUIRED = object()
_JSON_TYPE = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number", type(None): "null"}


def _typed(value, kind, where):
    """`value` if it has JSON type `kind` (a boolean is not an integer)."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    got = "a boolean" if isinstance(value, bool) else _JSON_TYPE.get(type(value), type(value).__name__)
    raise MalformedInput("%s must be %s, got %s" % (where, _JSON_TYPE[kind], got))


def _path(where, key):
    return "%s.%s" % (where, key) if where else key


def _member(obj, key, kind, where="", default=_REQUIRED):
    """obj[key] of JSON type `kind` (any type for None); `where` is obj's path."""
    if key not in obj:
        if default is _REQUIRED:
            raise MalformedInput("%s has no %r field" % (where or "the input", key))
        return default
    return obj[key] if kind is None else _typed(obj[key], kind, _path(where, key))


def _objects(obj, key, where="", default=_REQUIRED):
    """The list obj[key] of JSON objects, as (object, path) pairs."""
    out = []
    for k, e in enumerate(_member(obj, key, list, where, default)):
        at = "%s[%d]" % (_path(where, key), k)
        out.append((_typed(e, dict, at), at))
    return out


def _coeff(field, text):
    """A coefficient string as an element of `field`."""
    if isinstance(text, str):
        try:
            return field.parse(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise OpbarError('coefficient %r is not an element of %r (decimal strings, rationals as "a/b")' % (text, field))


def field_to_json(field):
    return "Q" if field.p is None else {"Fp": field.p}


def field_from_json(data, where="field"):
    if data == "Q":
        return CoeffField.rationals()
    if isinstance(data, dict) and "Fp" in data:
        return CoeffField.prime(_typed(data["Fp"], int, where + ".Fp"))
    raise OpbarError("unknown field spec %r" % (data,))


def parse_field_flag(text):
    """--field values: Q, or F<p>."""
    text = text.strip()
    if text.upper() == "Q":
        return CoeffField.rationals()
    if text[0] in "Ff":
        return CoeffField.prime(int(text[1:]))
    raise OpbarError("cannot parse field %r (use Q or F<p>)" % (text,))


def dgmodule_to_json(module, namer=None):
    namer = namer or (lambda d, label: label if isinstance(label, str) else repr(label))
    basis = []
    names = {}
    for d in module.degrees():
        for label in module.labels(d):
            name = namer(d, label)
            if name in names:
                raise OpbarError("duplicate exported name %r" % (name,))
            names[name] = (d, label)
            basis.append({"name": name, "degree": d})
    rev = {(d, label): name for name, (d, label) in names.items()}
    differential = []
    f = module.field
    for d in sorted(module.diff):
        block = module.diff[d]
        for (i, j), v in sorted(block.entries.items()):
            differential.append(
                {
                    "from": rev[(d, module.labels(d)[j])],
                    "to": rev[(d - 1, module.labels(d - 1)[i])],
                    "coeff": f.format(v),
                }
            )
    return {"field": field_to_json(f), "basis": basis, "differential": differential}


def dgmodule_from_json(data, field=None, where=""):
    f = field or field_from_json(_member(data, "field", None, where), _path(where, "field"))
    elements = [(_member(e, "name", str, at), _member(e, "degree", int, at)) for e, at in _objects(data, "basis", where)]
    names = {name for name, _ in elements}
    diff = {}
    for entry, at in _objects(data, "differential", where, ()):
        src, dst = _member(entry, "from", str, at), _member(entry, "to", str, at)
        for name in (src, dst):
            if name not in names:
                raise MalformedInput("%s names %r, which is not a basis element" % (at, name))
        diff.setdefault(src, {})[dst] = _coeff(f, _member(entry, "coeff", None, at))
    return DgModule.from_data(f, elements, diff), f


_KIND_BY_OPERAD = {"As": "assoc", "Com": "comm", "K": "ainf"}
_OPERAD_BY_KIND = {v: k for k, v in _KIND_BY_OPERAD.items()}


def algebra_to_json(algebra):
    data = {
        "operad": _OPERAD_BY_KIND[algebra.kind],
        "carrier": dgmodule_to_json(algebra.module),
        "operations": [],
    }
    f = algebra.field
    for r in sorted(algebra.ops):
        for inputs, out in sorted(algebra.ops[r].items(), key=lambda kv: repr(kv[0])):
            data["operations"].append(
                {
                    "op": "mu%d" % r,
                    "inputs": list(inputs),
                    "output": [{"name": l, "coeff": f.format(c)} for l, c in sorted(out.items(), key=repr)],
                }
            )
    return data


def algebra_from_json(data, field=None):
    operad_name = _member(data, "operad", str)
    if operad_name not in _KIND_BY_OPERAD:
        raise OpbarError("unknown operad %r (expected As, Com or K)" % (operad_name,))
    module, f = dgmodule_from_json(_member(data, "carrier", dict), field, "carrier")
    degree_of = {l: d for d in module.degrees() for l in module.labels(d)}
    ops = {}
    for entry, at in _objects(data, "operations", "", ()):
        op = _member(entry, "op", str, at)
        if not (op.startswith("mu") and op[2:].isdigit()):
            raise OpbarError("operation name %r not of the form mu<r>" % (op,))
        r = int(op[2:])
        inputs = tuple(
            _typed(x, str, "%s.inputs[%d]" % (at, k)) for k, x in enumerate(_member(entry, "inputs", list, at))
        )
        if len(inputs) != r:
            raise OpbarError("operation %r expects %d inputs, got %d" % (op, r, len(inputs)))
        out = {
            _member(o, "name", str, oat): _coeff(f, _member(o, "coeff", None, oat))
            for o, oat in _objects(entry, "output", at)
        }
        for name in inputs + tuple(out):
            if name not in degree_of:
                raise OpbarError("operation %s%r names %r, which is not a basis element" % (op, inputs, name))
        expected = sum(degree_of[name] for name in inputs) + r - 2
        for name in out:
            if degree_of[name] != expected:
                raise AlgebraCheckFailed(
                    "%s%r -> %r has degree %d; mu_r has degree r - 2, so outputs need degree %d"
                    % (op, inputs, name, degree_of[name], expected)
                )
        ops.setdefault(r, {})[inputs] = out
    name = _member(data, "name", str, "", "A")
    return DgAlgebra(f, _KIND_BY_OPERAD[operad_name], module, ops, name=name), f


def simplicial_to_json(space):
    out = {"simplices": [], "basepoint": space.basepoint}
    for name in sorted(space.dim_of, key=lambda n: (space.dim_of[n], n)):
        entry = {"name": name, "dim": space.dim_of[name]}
        if space.dim_of[name] > 0:
            entry["faces"] = [_face_expr(w, core) for (w, core) in space.faces_of[name]]
        out["simplices"].append(entry)
    return out


def _face_expr(word, core):
    text = core
    for j in reversed(word):
        text = "s%d(%s)" % (j, text)
    return text


def operad_to_json(operad, arity_bound=None):
    """Mirror of the Sigma-module plus the full composition table."""
    bound = arity_bound or operad.arity_bound()
    f = operad.field
    namer = {}
    components = []
    for n in range(1, bound + 1):
        comp = operad.component(n)
        entries = []
        for d in comp.degrees():
            for i, label in enumerate(comp.labels(d)):
                name = "a%d_d%d_%d" % (n, d, i)
                namer[(n, d, label)] = name
                entries.append({"name": name, "degree": d})
        components.append({"arity": n, "basis": entries})
    table = []
    for s in range(1, bound + 1):
        for t in range(1, bound + 1):
            if s + t - 1 > bound:
                continue
            for p in operad.basis_triples(s):
                for q in operad.basis_triples(t):
                    for i in range(1, s + 1):
                        out = operad.compose_partial(p, i, q)
                        if not out:
                            continue
                        table.append(
                            {
                                "p": namer[p],
                                "slot": i,
                                "q": namer[q],
                                "output": [
                                    {"name": namer[(s + t - 1, p[1] + q[1], l)], "coeff": f.format(c)}
                                    for l, c in out.items()
                                ],
                            }
                        )
    actions = []
    for n in range(1, bound + 1):
        comp = operad.component(n)
        for i in range(1, n):
            for d in comp.degrees():
                for label in comp.labels(d):
                    img = operad.sigma.act_adjacent(n, i, d, label)
                    if img != {label: f.one()}:
                        actions.append(
                            {
                                "arity": n,
                                "transposition": i,
                                "source": namer[(n, d, label)],
                                "output": [
                                    {"name": namer[(n, d, l)], "coeff": f.format(c)} for l, c in img.items()
                                ],
                            }
                        )
    return {
        "field": field_to_json(f),
        "name": operad.name,
        "unit": namer[operad.unit_triple()],
        "components": components,
        "compositions": table,
        "actions": actions,
    }


def operad_from_json(data):
    from .operads import TableOperad
    from .sigma import SigmaModule

    f = field_from_json(data["field"])
    comps = {}
    degree_of = {}
    arity_of = {}
    for comp in data["components"]:
        n = comp["arity"]
        by_degree = {}
        for e in comp["basis"]:
            by_degree.setdefault(e["degree"], []).append(e["name"])
            degree_of[e["name"]] = e["degree"]
            arity_of[e["name"]] = n
        comps[n] = DgModule(f, {d: tuple(ls) for d, ls in by_degree.items()}, {}, check=False)
    actions = {}
    for a in data.get("actions", ()):
        n, i = a["arity"], a["transposition"]
        src = a["source"]
        actions.setdefault((n, i), {})[(degree_of[src], src)] = {
            o["name"]: _coeff(f, o["coeff"]) for o in a["output"]
        }
    sigma = SigmaModule(f, comps, actions, check=False)
    table = {}
    for entry in data.get("compositions", ()):
        p, i, q = entry["p"], entry["slot"], entry["q"]
        key = (arity_of[p], p, i, arity_of[q], q)
        table[key] = {o["name"]: _coeff(f, o["coeff"]) for o in entry["output"]}
    return TableOperad(f, sigma, data["unit"], table, name=data.get("name", "table"))


def bar_to_json(bar_complex):
    """Bar complex export: dg-module with a weight annotation per word."""
    namer = {}
    for d in bar_complex.module.degrees():
        for i, label in enumerate(bar_complex.module.labels(d)):
            namer[(d, label)] = "w%d_d%d_%d" % (len(label), d, i)
    data = dgmodule_to_json(bar_complex.module, lambda d, l: namer[(d, l)])
    weights = {}
    for d in bar_complex.module.degrees():
        for label in bar_complex.module.labels(d):
            weights[namer[(d, label)]] = len(label)
    data["weight"] = weights
    return data


def load_json(path):
    """An input file: every input format is a JSON object."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise OpbarError("input %s must hold a JSON object, got %s" % (path, type(data).__name__))
    return data


def dump_json(data, path=None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
