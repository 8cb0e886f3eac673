"""Rewrite expected.json, the output digests the correctness gate compares with.

    python3 perfbench/record_expected.py

Run it only on a commit whose outputs are known to be right: the gate then
holds every later commit to them.  Only what no draw affects is recorded:
jobs on drawn points are not, and of a conjecture job only F_mu is.
"""

from __future__ import annotations

import json

import workloads
from worker import EXPECTED, gate, import_rectchar, run_jobs


def main() -> None:
    rc = import_rectchar()
    expected = {}
    passes = []
    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, 0)
        _, outputs = run_jobs(rc, jobs)
        passes.append((jobs, outputs))
        for job, out in zip(jobs, outputs):
            if job.key == job.id and not isinstance(out, Exception):
                expected[job.id] = workloads.digest(workloads.recorded(job, out))
    # the checks that do not rest on a digest must pass before anything is kept
    failed = [job_id for jobs, outputs in passes for job_id in gate(jobs, outputs, expected)]
    if failed:
        raise SystemExit(f"not recorded: {len(failed)} jobs fail, first {failed[0]}")
    EXPECTED.write_text(json.dumps(dict(sorted(expected.items())), indent=0) + "\n")
    print(f"recorded {len(expected)} digests in {EXPECTED}")


if __name__ == "__main__":
    main()
