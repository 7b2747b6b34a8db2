"""Workload definitions: seeded inputs, job lists and output checks.

A job is one `opbar` command line run in-process through
`opbar.cli.main(argv)`.  Every job has a seed-invariant id; the expected
output for that id lives in `expected.json`, and independent oracles
(James, divided powers, exterior algebra) are checked on top of it.

How the seed enters each workload, and why the cost of a workload does
not depend on it:

* bar_tables: the random tensor algebras are written as seeded
  isomorphic copies of one fixture (seeded basis names and seeded unit
  rescaling of every basis vector).  The rescaling keeps the sparsity of
  every elimination step, so cost is the same for every seed, and the
  homology table must be the same for every seed.  The late-violation
  control is drawn from seeded commutative fixtures.
* loop_tables: the seed draws which face of the malformed control is
  broken.  The spheres are the shipped files: renaming simplices would
  reorder the cochain basis and move elimination cost by up to 20%.
* verify_suites: the seed is passed to compose-oracle, whose cost does
  not depend on it.  bar-module's cost moves 3x with its fixture seed and
  em ignores its seed, so both run at their defaults.
  `shuffle` stays at its default fixture seed: its cost is set by its
  largest fixture and varies by three orders of magnitude across seeds.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# verify --suite all drops --max-degree/--seed/--arity-bound (run_suite("all")
# calls each suite without kwargs), so each suite is its own job.
SUITES = (
    "stasheff",
    "bar-module",
    "module-functor",
    "extension",
    "shuffle",
    "commutative-identity",
    "em",
    "compose-oracle",
    "loops",
)
# bar-module is not seeded: its cost moves 3x with its fixture seed
SEEDED_SUITES = ("compose-oracle",)
# shuffle at its default fixture seed: --max-degree 9 takes ~8-11s (the
# default 10 takes ~40s), and check_algebra does most of the workload's work
SHUFFLE_MAX_DEGREE = 9

# random_tensor_algebra(F, 1, max_generators=3, length_cap=3): 10,578 bar
# words and 42k nonzeros on [0,14]; Q stops at 13 (14 takes ~13s, mostly
# elimination).
TENSOR_FIXTURE_SEED = 1
TENSOR_JOBS = (("F2", 14), ("F3", 14), ("Q", 13))
LAMBDA_B2_MAX_DEGREE = 19
BOUNDARY_MAX_DEGREE = 13
MINIMAL_MAX_DEGREE = 60


class Job:
    """One CLI invocation with what its output is checked against."""

    def __init__(self, job_id, argv, field=None, oracle=None):
        self.id = job_id
        self.argv = argv
        self.field = field  # "F2", "Fp", "Q" or None (mixed fields)
        self.oracle = oracle


def field_class(flag):
    if flag == "Q":
        return "Q"
    return "F2" if flag == "F2" else "Fp"


# --- seeded inputs -----------------------------------------------------------


def _unit(field, rng):
    """A seeded unit of the field: +-1 over Q, any nonzero class over F_p."""
    if field.p is None:
        return Fraction(rng.choice((1, -1)))
    return rng.randrange(1, field.p) % field.p


def isomorphic_algebra_json(algebra, rng):
    """JSON of a seeded isomorphic copy: new names, basis rescaled by units.

    With e'_i = u_i e_i, structure constants become
    d e'_i = sum u_i c_ij / u_j e'_j and e'_a e'_b = sum u_a u_b c / u_k e'_k.
    Basis order is kept, so every elimination sees the same pivots.
    """
    f = algebra.field
    mod = algebra.module
    labels = [(d, l) for d in mod.degrees() for l in mod.labels(d)]
    tags = rng.sample(range(10 * len(labels) + 10), len(labels))
    name = {l: "b%d_%d" % (tag, d if d >= 0 else -d) for (d, l), tag in zip(labels, tags)}
    unit = {l: _unit(f, rng) for _, l in labels}

    def scaled(c, num, den):
        return f.div(f.mul(c, num), den)

    differential = []
    for d, l in labels:
        for l2, c in mod.apply_diff(d, {l: f.one()}).items():
            differential.append(
                {"from": name[l], "to": name[l2], "coeff": f.format(scaled(c, unit[l], unit[l2]))}
            )
    operations = []
    for r in sorted(algebra.ops):
        for inputs, out in algebra.ops[r].items():
            num = f.one()
            for l in inputs:
                num = f.mul(num, unit[l])
            operations.append(
                {
                    "op": "mu%d" % r,
                    "inputs": [name[l] for l in inputs],
                    "output": [
                        {"name": name[l2], "coeff": f.format(scaled(c, num, unit[l2]))}
                        for l2, c in out.items()
                    ],
                }
            )
    field_json = "Q" if f.p is None else {"Fp": f.p}
    operad = {"assoc": "As", "comm": "Com", "ainf": "K"}[algebra.kind]
    return {
        "operad": operad,
        "carrier": {
            "field": field_json,
            "basis": [{"name": name[l], "degree": d} for d, l in labels],
            "differential": differential,
        },
        "operations": operations,
    }


def late_violation_algebra_json(seed):
    """Commutative algebra over F_3 with one associativity violation late
    in check_algebra's enumeration order.

    A seeded differential-free random_commutative_algebra (length cap 3)
    is moved to negative degrees (parities, hence all Koszul signs, are
    kept).  check_algebra enumerates words in ascending degree, so the
    generators, now of the highest degrees, come last.  The product
    u.v = (x.y).v of the last generators is doubled on both sides (u.v
    and v.u), which keeps commutativity and degrees and breaks only
    (x.y).v = x.(y.v) and its mirror images: words whose letters are all
    generators.
    """
    from opbar.fixtures import random_commutative_algebra
    from opbar.linalg import CoeffField

    f = CoeffField.prime(3)
    rng = random.Random("late-violation-%d" % seed)
    while True:
        alg = random_commutative_algebra(f, rng.randrange(10**6), max_generators=3, length_cap=3)
        if alg.module.diff or alg.module.total_dim() < 12:
            continue
        table = alg.ops.get(2, {})
        gens = [l for d in alg.module.degrees() for l in alg.module.labels(d) if len(l) == 1]
        # the last generators in enumeration order once degrees are negated
        late = sorted(gens, key=lambda l: (alg.degree_of(l), -gens.index(l)))
        ops = _doubled_late_product(f, table, late)
        if ops is None:
            continue
        name = {l: "".join(l) for d in alg.module.degrees() for l in alg.module.labels(d)}
        basis = [
            {"name": name[l], "degree": -d}
            for d in sorted(alg.module.degrees(), reverse=True)
            for l in alg.module.labels(d)
        ]
        operations = [
            {
                "op": "mu2",
                "inputs": [name[a], name[b]],
                "output": [{"name": name[k], "coeff": f.format(c)} for k, c in out.items()],
            }
            for (a, b), out in ops.items()
        ]
        return {
            "operad": "Com",
            "carrier": {"field": {"Fp": 3}, "basis": basis, "differential": []},
            "operations": operations,
        }


def _doubled_late_product(f, table, late):
    """Double u.v and v.u for u = x.y, with x, y, v taken as late as
    possible, such that (x.y).v != x.(y.v) afterwards; None if no triple
    does."""

    def mul(ops, a, b):
        out = {}
        for m, c in a.items():
            for n, e in b.items():
                for k, g in ops.get((m, n), {}).items():
                    out[k] = f.add(out.get(k, f.zero()), f.mul(f.mul(c, e), g))
        return {k: c for k, c in out.items() if not f.is_zero(c)}

    two = f.of_int(2)
    for x in late:
        for y in late:
            xy = table.get((x, y))
            if not xy:
                continue
            (u,) = xy
            for v in late:
                if not table.get((u, v)):
                    continue
                ops = {key: dict(out) for key, out in table.items()}
                for key in ((u, v), (v, u)):
                    ops[key] = {k: f.mul(two, c) for k, c in ops[key].items()}
                one = f.one()
                lhs = mul(ops, mul(ops, {x: one}, {y: one}), {v: one})
                rhs = mul(ops, {x: one}, mul(ops, {y: one}, {v: one}))
                if lhs != rhs:
                    return ops
    return None


def malformed_simplicial_json(data, seed):
    """The shipped simplicial set with one seeded face of a 2-simplex
    replaced by another edge: dimensions still match, identities fail."""
    rng = random.Random("malformed-%d" % seed)
    data = json.loads(json.dumps(data))
    tris = [e for e in data["simplices"] if e["dim"] == 2]
    edges = [e["name"] for e in data["simplices"] if e["dim"] == 1]
    tri = rng.choice(tris)
    i = rng.randrange(3)
    tri["faces"][i] = rng.choice([e for e in edges if e != tri["faces"][i]])
    return data


# --- job lists ------------------------------------------------------------------


def build_jobs(workload, seed, root, workdir):
    """Write the seeded inputs into `workdir`; return the job list."""
    data = os.path.join(root, "data")
    jobs = []

    def write(name, obj):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def out(job_id):
        return os.path.join(workdir, job_id + ".report.json")

    if workload == "bar_tables":
        from opbar.fixtures import random_tensor_algebra
        from opbar.jsonio import parse_field_flag

        jobs.append(
            Job(
                "lambda_x3.B2.F2",
                ["bar", "--iterations", "2", "--input", os.path.join(data, "lambda_x3_f2.json"),
                 "--field", "F2", "--max-degree", str(LAMBDA_B2_MAX_DEGREE)],
                field="F2",
            )
        )
        for flag, hi in TENSOR_JOBS:
            rng = random.Random("tensor-%s-%d" % (flag, seed))
            alg = random_tensor_algebra(parse_field_flag(flag), TENSOR_FIXTURE_SEED, 3, 3)
            path = write("tensor_%s.json" % flag, isomorphic_algebra_json(alg, rng))
            jobs.append(
                Job("tensor.%s.w%d" % (flag, hi),
                    ["bar", "--input", path, "--field", flag, "--max-degree", str(hi)],
                    field=field_class(flag))
            )
        for name, hi in (("exterior", 12), ("trunc", 12)):
            jobs.append(
                Job("%s.F2.w%d" % (name, hi),
                    ["bar", "--input", os.path.join(data, name + ".json"), "--field", "F2",
                     "--max-degree", str(hi)],
                    field="F2", oracle="exterior" if name == "exterior" else None)
            )
        jobs.append(
            Job("exterior.B2.F2.w6",
                ["bar", "--iterations", "2", "--input", os.path.join(data, "exterior.json"),
                 "--field", "F2", "--max-degree", "6"],
                field="F2")
        )
        # negative controls
        jobs.append(
            Job("control.nonassoc",
                ["bar", "--input", os.path.join(data, "nonassoc.json"), "--max-degree", "6"],
                field="Q")
        )
        path = write("late_violation.json", late_violation_algebra_json(seed))
        jobs.append(
            Job("control.late_violation", ["bar", "--input", path, "--max-degree", "12"], field="Fp")
        )
    elif workload == "loop_tables":
        boundary = os.path.join(data, "s2_boundary.json")
        for flag in ("F2", "F3", "Q"):
            jobs.append(
                Job("s2_boundary.%s.w%d" % (flag, BOUNDARY_MAX_DEGREE),
                    ["cochains", "--input", boundary, "--bar", "--field", flag,
                     "--max-degree", str(BOUNDARY_MAX_DEGREE)],
                    field=field_class(flag), oracle="james")
            )
        for name, flag, oracle in (
            ("s2_minimal", "F2", "james"),
            ("s3_minimal", "F2", "divided_powers"),
            ("s3_minimal", "F3", "divided_powers"),
        ):
            jobs.append(
                Job("%s.%s.w%d" % (name, flag, MINIMAL_MAX_DEGREE),
                    ["cochains", "--input", os.path.join(data, name + ".json"), "--bar", "--field",
                     flag, "--max-degree", str(MINIMAL_MAX_DEGREE)],
                    field=field_class(flag), oracle=oracle)
            )
        jobs.append(
            Job("delta1.F2.w8",
                ["cochains", "--input", os.path.join(data, "delta1.json"), "--bar", "--field", "F2",
                 "--max-degree", "8"],
                field="F2")
        )
        # negative controls
        jobs.append(
            Job("control.s1_unsound",
                ["cochains", "--input", os.path.join(data, "s1.json"), "--bar", "--field", "F2",
                 "--max-degree", "8"],
                field="F2")
        )
        with open(boundary) as fh:
            path = write("malformed.json", malformed_simplicial_json(json.load(fh), seed))
        jobs.append(
            Job("control.malformed_simplicial",
                ["cochains", "--input", path, "--bar", "--field", "F2", "--max-degree", "4"],
                field="F2")
        )
    elif workload == "verify_suites":
        for suite in SUITES:
            argv = ["verify", "--suite", suite]
            if suite == "shuffle":
                argv += ["--max-degree", str(SHUFFLE_MAX_DEGREE)]
            if suite in SEEDED_SUITES:
                argv += ["--seed", str(random.Random("%s-%d" % (suite, seed)).randrange(10**6))]
            jobs.append(Job("verify.%s" % suite, argv))
    else:
        raise KeyError("unknown workload %r" % (workload,))
    for job in jobs:
        job.argv = job.argv + ["--output", out(job.id)]
    return jobs


# --- checking -------------------------------------------------------------------


def summarize(job, code, stderr, report_path):
    """The comparable part of a job's result.

    The provenance `threads` field is left out: it is min(4, cpu_count),
    so it depends on the machine.
    """
    result = {"exit": code}
    if code == 2:
        line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        result["error"] = line.split(":")[1].strip() if line.startswith("error:") else line
        return result
    if not os.path.exists(report_path):
        return result
    with open(report_path) as fh:
        report = json.load(fh)
    if job.argv[0] == "verify":
        result["checks"] = [[c["name"], c["passed"]] for c in report["checks"]]
    else:
        prov = report["provenance"]
        result["degrees"] = report["degrees"]
        result["weight_bound_used"] = prov.get("weight_bound_used")
        result["exact_in_window"] = prov.get("exact_in_window")
    return result


def oracle_ok(job, result):
    """Independent checks that do not rely on expected.json."""
    if job.oracle is None:
        return True
    degrees = {int(d): n for d, n in result.get("degrees", {}).items()}
    if not degrees:
        return False
    if job.oracle == "james":  # H_*(Omega S^2) = T(y_1)
        return all(n == 1 for d, n in degrees.items() if d >= 1)
    if job.oracle == "divided_powers":  # H_*(Omega S^3) = Gamma[y_2]
        return all(n == (1 if d % 2 == 0 else 0) for d, n in degrees.items() if d >= 1)
    if job.oracle == "exterior":  # Tor^{Lambda[x_1]}(k, k) = k[y_2], reduced
        return all(n == (1 if d >= 2 and d % 2 == 0 else 0) for d, n in degrees.items())
    raise KeyError(job.oracle)


def check(job, result, expected):
    """None if the result is right, else a one-line reason."""
    want = expected.get(job.id)
    if want is None:
        return "no expected output for %s" % job.id
    if result != want:
        return "%s: got %s, expected %s" % (job.id, json.dumps(result)[:300], json.dumps(want)[:300])
    if not oracle_ok(job, result):
        return "%s: oracle %s fails on %s" % (job.id, job.oracle, result.get("degrees"))
    return None
