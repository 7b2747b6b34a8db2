"""Spans and counters around the public entry points of `src/opbar`.

The wrappers are installed from here, never from the program: each
traced function is rebound in every `opbar.*` module that imported it by
name, and the hot methods get count-only wrappers (no span, no clock).

Spans are kept in memory as (id, name, start, end, parent, job) and
turned into self times after the pass.  A span's self time is the wall
time during which it was a leaf of the active span tree.  When several
leaves are active at once (homology blocks on the thread pool), each
gets an equal share, so self times plus `unattributed.s` add up to the
traced wall time of the jobs.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

from workloads import SUITES

# (module, function or Class.method, span name); the name may be a callable
# of the call's arguments.
SPANS = [
    ("linalg", "rank", lambda a, k: "linalg.rank." + _field_tag(a[0].field)),
    ("linalg", "SparseMatrix.matmul", "linalg.matmul"),
    ("linalg", "quotient_data", "linalg.quotient_data"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "homology_dimension", "dg.homology_dimension"),
    ("dg", "homology", "dg.homology"),
    ("cli", "parallel_homology", "cli.parallel_homology"),
    ("bar", "BarComplex._build", "bar.build"),
    ("bar", "shuffle_product", "bar.shuffle_product"),
    ("bar", "iterated_bar", "bar.iterated"),
    ("bar", "BarModule.__init__", "bar.module"),
    ("bar", "sym_bar_comparison", "bar.comparison"),
    ("bar", "bar_extension_iso", "bar.comparison"),
    ("modules", "check_algebra", "modules.check_algebra"),
    ("modules", "SymPresentation.__init__", "modules.sym"),
    ("modules", "SymOverOperad.__init__", "modules.sym"),
    ("modules", "ExtendedModule.__init__", "modules.extension"),
    ("modules", "RightModule.check_module", "modules.check_module"),
    ("sigma", "compose", "sigma.compose"),
    ("sigma", "WordSpace.__init__", "sigma.word_space"),
    ("operads", "stasheff_operad", "operads.build"),
    ("operads", "associative_operad", "operads.build"),
    ("operads", "commutative_operad", "operads.build"),
    ("operads", "free_operad", "operads.build"),
    ("operads", "operad_morphism_check", "operads.check"),
    ("operads", "check_operad", "operads.check"),
    ("operads", "stasheff_d_squared_vanishes", "operads.check"),
    ("operads", "stasheff_unique_sign_convention", "operads.check"),
    ("operads", "eps_kills_stasheff_differential", "operads.check"),
    ("catbar", "bar_cat_comparison", "catbar"),
    ("catbar", "categorical_bar_module", "catbar"),
    ("catbar", "cat_bar_module_vs_bar_module", "catbar"),
    ("catbar", "eilenberg_maclane", "catbar"),
    ("catbar", "simplicial_categorical_bar", "catbar"),
    ("transfer", "Retract.__init__", "transfer.retract"),
    ("transfer", "transfer_a_infinity", "transfer.tree_sum"),
    ("simplicial", "normalized_cochains", "simplicial.cochains"),
    ("simplicial", "bar_of_cochains", "simplicial.bar_of_cochains"),
    ("simplicial", "simplicial_set_from_json", "simplicial.from_json"),
    ("jsonio", "load_json", "jsonio"),
    ("jsonio", "dump_json", "jsonio"),
    ("jsonio", "algebra_from_json", "jsonio"),
    ("jsonio", "algebra_to_json", "jsonio"),
    ("fixtures", "random_tensor_algebra", "fixtures"),
    ("fixtures", "random_commutative_algebra", "fixtures"),
    ("fixtures", "random_sigma_module", "fixtures"),
    ("fixtures", "compose_dims_oracle", "fixtures"),
    ("verify", "run_suite", lambda a, k: "verify." + a[0]),
]

# hot methods: counted, never timed
COUNTS = [
    ("modules", "DgAlgebra.op_apply", "op_apply"),
    ("bar", "BarComplex.diff_word", "bar.diff_word.calls"),
    ("bar", "shuffle_word_product", "bar.shuffle_pairs"),
    ("operads", "Operad.gamma", "operads.gamma.calls"),
]

TIME_METRICS = sorted(
    {s[2] for s in SPANS if isinstance(s[2], str)}
    | {"linalg.rank.F2", "linalg.rank.Fp", "linalg.rank.Q"}
    | {"verify." + s for s in SUITES}
)


def _field_tag(field):
    if field.p is None:
        return "Q"
    return "F2" if field.p == 2 else "Fp"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.jobs = []  # (job id, start, end)
        self.job = None
        self.pool_busy = 0.0  # thread CPU seconds inside homology_dimension
        self._ids = itertools.count()
        self._local = threading.local()
        self._pool_parent = None
        self._lock = threading.Lock()

    # --- recording -----------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid = next(tracer._ids)
            st = tracer._stack()
            parent = st[-1][0] if st else tracer._pool_parent
            st.append((sid, label))
            pool = label == "cli.parallel_homology"
            if pool:
                tracer._pool_parent = sid
            # homology blocks run by the pool: their thread CPU time is pool work
            in_pool = parent is not None and parent == tracer._pool_parent
            cpu0 = time.thread_time() if in_pool else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.pop()
                if pool:
                    tracer._pool_parent = None
                tracer.spans.append((sid, label, t0, t1, parent, tracer.job))
                with tracer._lock:
                    if in_pool:
                        tracer.pool_busy += time.thread_time() - cpu0
                    tracer._after(label, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, label, args, kwargs):
        c = self.counts
        if label.startswith("linalg.rank."):
            c["linalg.rank.calls"] += 1
            c["linalg.rank.nnz"] += len(args[0].entries)
        elif label == "linalg.matmul":
            c["linalg.matmul.calls"] += 1
        elif label == "linalg.quotient_data":
            c["linalg.quotient_data.calls"] += 1
        elif label == "dg.homology_dimension":
            c["dg.homology_dimension.calls"] += 1
        elif label == "modules.check_algebra":
            c["modules.check_algebra.calls"] += 1
        elif label == "bar.build":
            mod = args[0].module
            c["bar.words"] += mod.total_dim()
            c["bar.diff_nnz"] += sum(len(m.entries) for m in mod.diff.values())

    def counter(self, fn, key):
        counts = self.counts
        if key == "op_apply":
            local = self._local

            def wrapper(*args, **kwargs):
                st = getattr(local, "stack", None)
                if st and st[-1][1] == "transfer.tree_sum":
                    counts["transfer.op_apply.calls"] += 1
                else:
                    counts["modules.op_apply.calls"] += 1
                return fn(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installation ------------------------------------------------------------

    def install(self):
        import importlib
        import sys

        mods = {}
        for name in ("linalg", "dg", "cli", "bar", "modules", "sigma", "operads", "catbar",
                     "transfer", "simplicial", "jsonio", "fixtures", "verify"):
            mods[name] = importlib.import_module("opbar." + name)
        loaded = [m for n, m in sys.modules.items() if n == "opbar" or n.startswith("opbar.")]
        for specs, make in ((SPANS, self.span), (COUNTS, self.counter)):
            for modname, attr, label in specs:
                owner = mods[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, make(cls.__dict__[meth], label))
                    continue
                orig = getattr(owner, attr)
                wrapped = make(orig, label)
                for m in loaded:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)

    # --- jobs -------------------------------------------------------------------------

    def start_job(self, job_id):
        self.job = job_id
        self._job_t0 = time.perf_counter()

    def end_job(self):
        self.jobs.append((self.job, self._job_t0, time.perf_counter()))
        self.job = None

    def dump(self, path):
        """Write the spans as [id, name, start, end, parent, job], times in
        seconds from the first job's start."""
        origin = self.jobs[0][1] if self.jobs else 0.0
        rows = [[sid, label, t0 - origin, t1 - origin, parent, job]
                for sid, label, t0, t1, parent, job in sorted(self.spans)]
        with open(path, "w") as fh:
            json.dump(rows, fh)

    # --- analysis -------------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: self times per span name, counts, pool use."""
        self_time = defaultdict(float)
        events = []
        for sid, label, t0, t1, parent, job in self.spans:
            events.append((t0, 1, sid, parent))
            events.append((t1, 0, sid, parent))
        events.sort(key=lambda e: (e[0], e[1]))
        label_of = {s[0]: s[1] for s in self.spans}
        active_children = defaultdict(int)
        active = set()
        leaves = set()
        covered = 0.0
        last = None
        for t, is_start, sid, parent in events:
            if last is not None and active:
                dt = t - last
                covered += dt
                share = dt / len(leaves)
                for leaf in leaves:
                    self_time[label_of[leaf]] += share
            last = t
            if is_start:
                active.add(sid)
                leaves.add(sid)
                if parent in active:
                    active_children[parent] += 1
                    leaves.discard(parent)
            else:
                active.discard(sid)
                leaves.discard(sid)
                if parent in active:
                    active_children[parent] -= 1
                    if active_children[parent] == 0:
                        leaves.add(parent)
        job_wall = sum(t1 - t0 for _, t0, t1 in self.jobs)
        out = {name + ".s": self_time.get(name, 0.0) for name in TIME_METRICS}
        out["linalg.rank.s"] = sum(out["linalg.rank.%s.s" % f] for f in ("F2", "Fp", "Q"))
        pool_wall = sum(t1 - t0 for _, label, t0, t1, _, _ in self.spans if label == "cli.parallel_homology")
        out["cli.parallel_homology.wall_s"] = float(pool_wall)
        out["cli.parallel_homology.busy_ratio"] = self.pool_busy / pool_wall if pool_wall else 0.0
        out["unattributed.s"] = job_wall - covered
        out["trace.wall_s"] = job_wall
        for key in COUNT_METRICS:
            out[key] = self.counts.get(key, 0)
        return out


COUNT_METRICS = (
    "linalg.rank.calls",
    "linalg.rank.nnz",
    "linalg.matmul.calls",
    "linalg.quotient_data.calls",
    "dg.homology_dimension.calls",
    "bar.words",
    "bar.diff_nnz",
    "bar.diff_word.calls",
    "bar.shuffle_pairs",
    "modules.check_algebra.calls",
    "modules.op_apply.calls",
    "operads.gamma.calls",
    "transfer.op_apply.calls",
)
