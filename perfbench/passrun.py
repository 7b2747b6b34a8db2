"""One pass of one workload, in a fresh process.

    python3 perfbench/passrun.py --workload W --seed N --trace 0|1 \
        --t0 EPOCH --workdir DIR

Sets up (imports, seeded inputs, expected outputs), runs the job list
once as a closed loop through `opbar.cli.main(argv)`, then checks every
output.  Prints one JSON object as its last line.  `run.py` starts one
of these per pass, so no job runs twice in a process: a cache pays only
if it pays within one command, as it would for a CLI user.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_job(main, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an unexpected exception is a failed job
            code = "raised %s: %s" % (type(exc).__name__, exc)
    return code, err.getvalue()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import opbar.catbar  # noqa: F401  imported up front: set-up, not job time
    import opbar.cli
    import opbar.simplicial  # noqa: F401
    import opbar.transfer  # noqa: F401
    import opbar.verify  # noqa: F401
    import workloads

    expected = {}
    if os.path.exists(os.path.join(HERE, "expected.json")):
        with open(os.path.join(HERE, "expected.json")) as fh:
            expected = json.load(fh)["jobs"]
    jobs = workloads.build_jobs(args.workload, args.seed, ROOT, args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup_s = time.time() - args.t0
    results = []
    job_wall = {}
    for job in jobs:
        if tracer:
            tracer.start_job(job.id)
        t0 = time.perf_counter()
        code, stderr = run_job(opbar.cli.main, job)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_job()
        job_wall[job.id] = dt
        results.append((job, code, stderr))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    summaries = {}
    for job, code, stderr in results:
        summary = workloads.summarize(job, code, stderr, job.argv[-1])
        summaries[job.id] = summary
        reason = workloads.check(job, summary, expected)
        if reason:
            failures.append(reason)
    digest = hashlib.sha256(json.dumps(summaries, sort_keys=True).encode()).hexdigest()
    record = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "job_wall": job_wall,
        "job_field": {job.id: job.field for job in jobs},
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "digest": digest,
        "summaries": summaries,
    }
    if tracer:
        record["layers"] = tracer.metrics()
        tracer.dump(os.path.join(args.workdir, "spans.json"))
    print(json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    main()
