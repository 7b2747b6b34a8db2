"""Regenerate expected.json from the program's current outputs.

    python3 perfbench/make_expected.py

Runs one untraced pass of every workload for the default seed (0) and
for a held-out seed (1), requires the two to agree job by job and every
oracle to hold, and writes the summaries.  Every job id is
seed-invariant, so the file covers every seed.  Run it only when the
job list changes, never to absorb a change in the program's output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (0, 1)


def main():
    sys.path.insert(0, HERE)
    from run import WORKLOADS, one_pass
    import workloads

    sys.path.insert(0, os.path.join(ROOT, "src"))
    jobs = {}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    for workload in WORKLOADS:
        per_seed = []
        for seed in SEEDS:
            workdir = tempfile.mkdtemp(prefix="expected-", dir=os.path.join(ROOT, ".perfbench"))
            try:
                record, _ = one_pass(workload, seed, 0, workdir)
                listed = {j.id: j for j in workloads.build_jobs(workload, seed, ROOT, workdir)}
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for job_id, summary in record["summaries"].items():
                if not workloads.oracle_ok(listed[job_id], summary):
                    sys.exit("oracle fails for %s (seed %d): %s" % (job_id, seed, summary))
            per_seed.append(record["summaries"])
        if per_seed[0] != per_seed[1]:
            diff = [k for k in per_seed[0] if per_seed[0][k] != per_seed[1].get(k)]
            sys.exit("seeds %s disagree on %s" % (SEEDS, diff))
        jobs.update(per_seed[0])
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump({"seeds": list(SEEDS), "jobs": jobs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
