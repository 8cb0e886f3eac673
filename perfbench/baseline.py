"""Run every workload several times, each run a separate run.py, and summarise.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Every workload in BENCHMARK.json gets RUNS timed runs of run_seconds, with
seeds 1..RUNS, and two traced runs with seed 1, whose counts must agree
exactly.
Prints, per workload, each end-to-end metric's median, quartiles, spread
(interquartile distance over the median) and run count, the error rate, and
the traced run's layer shares.  --out stores all of it as JSON; the copy in
baseline.json is the reference that later changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from run import provenance
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10

# Which end-to-end metric each per-layer metric should move, and on which
# workloads; on the others the prediction is no change.
MOVES = {
    "characters.*": ("wall_s, peak_rss_mb", "stack-interpolate; little on box-pairsum; "
                     "none on stack-residue"),
    "partitions.*": ("wall_s", "stack-interpolate"),
    "factorization.*": ("wall_s", "box-pairsum only"),
    "frobenius.*, series.self_s": ("wall_s", "stack-residue only"),
    "polynomials.*": ("wall_s", "stack-residue and stack-interpolate; not box-pairsum"),
    "interpolation.*": ("wall_s, peak_rss_mb", "stack-interpolate"),
    "leading.self_s": ("wall_s", "stack-residue"),
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    load1 = os.getloadavg()[0]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["load1"] = load1
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values), "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    out = {"provenance": provenance(), "run_seconds": seconds, "runs": RUNS,
           "moves": {k: {"end_to_end": v[0], "workloads": v[1]} for k, v in MOVES.items()},
           "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = [run_once(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        traced, again = (run_once(name, 1, seconds, 1)["metrics"] for _ in range(2))
        counts = {k for k, v in traced.items() if v["unit"] == "count"}
        repeat = all(traced[k]["value"] == again[k]["value"] for k in counts)
        end_to_end = {
            m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
            for m in spec["end_to_end"]
        }
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        self_total = sum(traced[f"{layer}.self_s"]["value"] for layer in LAYERS)
        shares = {layer: traced[f"{layer}.self_s"]["value"] / self_total for layer in LAYERS}
        out["workloads"][name] = {
            "why": workload["why"],
            "end_to_end": end_to_end,
            "error_rate": failed / attempted,
            "load1_before_runs": [r["load1"] for r in runs],
            "per_layer": {k: v["value"] for k, v in traced.items()},
            "counts_repeat_exactly": repeat,
            "layer_share_of_self_time": shares,
        }
        print(f"== {name}  error_rate {failed / attempted:.6g} ({failed} of {attempted} jobs)"
              f"  traced counts repeat: {repeat}")
        for metric, s in end_to_end.items():
            print(f"   {metric:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.1%}  n={s['n']}")
        print("   layer shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items() if share >= 0.001))
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
