"""opbar benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload bar_tables|loop_tables|verify_suites \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass is a fresh process
(`passrun.py`) that runs the workload's job list once; passes repeat
until `--seconds` would be exceeded.  Job-list times are means over
passes; other metrics are medians over passes.
`--trace 0` prints the end-to-end metrics; `--trace 1`
alternates untraced and traced passes and prints the per-layer metrics
(see README.md).  The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bar_tables", "loop_tables", "verify_suites")
RUN_LIMIT_S = 175  # a run, every pass included, ends within this


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def one_pass(workload, seed, trace, workdir, timeout=RUN_LIMIT_S):
    env = dict(os.environ)
    env.pop("OPBAR_THREADS", None)  # the pool stays at its default size
    # string hashing orders set iteration; a random hash seed moves job
    # times by up to 30% from one process to the next
    env["PYTHONHASHSEED"] = "0"
    t0 = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--t0", repr(t0), "--workdir", workdir],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail("a pass of %s did not end within %.0fs" % (workload, timeout))
    elapsed = time.time() - t0
    if proc.returncode != 0:
        fail("pass exited %d:\n%s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def src_line_count():
    src = os.path.join(ROOT, "src", "opbar")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for needed in ("src/opbar/cli.py", "data/s2_boundary.json", "perfbench/expected.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("run from an opbar checkout: %s is missing" % needed)

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        passes = run_passes(args, workdir)
        if args.trace:
            # the spans of the last traced pass outlive the run
            spans = os.path.join(scratch, "spans-%s-seed%d.json" % (args.workload, args.seed))
            os.replace(os.path.join(workdir, "spans.json"), spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only if empty
    print_result(args, passes)


def run_passes(args, workdir):
    """Passes until the next one would end after --seconds (at least one
    of each kind).  With tracing, kinds alternate: untraced, traced."""
    kinds = (0, 1) if args.trace else (0,)
    passes = {k: [] for k in kinds}
    took = {k: [] for k in kinds}
    start = time.time()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if all(passes[k] for k in kinds):
            elapsed = time.time() - start
            if elapsed + statistics.median(took[kind]) > args.seconds:
                break
        timeout = RUN_LIMIT_S - (time.time() - start)
        record, dt = one_pass(args.workload, args.seed, kind, workdir, timeout)
        passes[kind].append(record)
        took[kind].append(dt)
        i += 1
    return passes


def print_result(args, passes):
    sys.path.insert(0, HERE)
    from tracer import COUNT_METRICS

    plain = passes[0]
    records = [r for rs in passes.values() for r in rs]
    digests = {r["digest"] for r in records}
    failures = [f for r in records for f in r["failures"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(digests) > 1:
        # tables and verdicts must not depend on the pass or on tracing
        failures.append("outputs differ between passes")
        failed += 1
    for f in failures[:10]:
        print("FAILED %s" % f)

    def med(key, rs=plain):
        return statistics.median(r[key] for r in rs)

    def job_wall(rs, jobs):
        # mean over passes: the machine's speed drifts over whole passes,
        # and the mean of a few passes spreads less than their median
        return sum(statistics.mean(r["job_wall"][j] for r in rs) for j in jobs)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": {("traced" if k else "untraced"): len(v) for k, v in passes.items()},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "opbar_threads_default": min(4, os.cpu_count() or 1),
        "src_opbar_lines": src_line_count(),
        "jobs": sorted(plain[0]["summaries"]),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for job_id in meta["jobs"]:
        print("job %-32s %s" % (job_id, " ".join("%.3f" % r["job_wall"][job_id] for r in plain)))
    if args.trace:
        traced = passes[1]
        metrics = {}
        for key in sorted(traced[0]["layers"]):
            value = statistics.median(r["layers"][key] for r in traced)
            unit = "count" if key in COUNT_METRICS else "s"
            if key.endswith("busy_ratio"):
                unit = "ratio"
            metrics[key] = {"value": value, "unit": unit}
        for f in ("F2", "Fp", "Q"):
            ids = [j for j, jf in plain[0]["job_field"].items() if jf == f]
            metrics["wall_s." + f] = {"value": job_wall(plain, ids), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": job_wall(traced, meta["jobs"]) - job_wall(plain, meta["jobs"]), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": job_wall(plain, meta["jobs"]), "unit": "s"},
            "setup_s": {"value": med("setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
