"""The rectchar benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload box-pairsum --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; rectchar is imported from its src/.  Every
pass of the workload's job list runs in a new process, because rectchar's
caches live per process and a command-line user refills them on every call.
Passes run one at a time, at least one, and no further pass starts that
would, judged by the one before, end after --seconds.

--trace 0 reports the end-to-end metrics: the median over passes of wall_s
(summed job call time), peak_rss_mb (ru_maxrss of the pass), and setup_s
(interpreter start to rectchar imported and jobs built), the last also
sampled by extra set-up-only processes.  wall_s and setup_s are given at
the reference speed (see worker.py), which cancels most drift in a shared
host's speed; their raw medians are printed alongside.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics;
see tracer.py.

Human-readable lines (provenance, quartiles, sample counts, error_rate) come
first; the last line of stdout is the JSON result.  Exits 2 without a result
when the checkout has no rectchar sources or a pass fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("box-pairsum", "stack-residue", "stack-interpolate")
SETUP_SAMPLES = 12
# A run must end within 180 s; no pass may start a child that outlives this.
RUN_LIMIT_S = 170.0


def provenance() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cpu": cpu,
        "git_rev": git_rev(),
    }


def git_rev() -> str:
    """The checkout's commit, or "unknown" outside a git work tree."""
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_pass(workload: str, seed: int, deadline: float, mode: str) -> dict:
    """One pass in a fresh worker process, killed if it outlives deadline."""
    load1 = os.getloadavg()[0]
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), mode, repr(t0)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        cwd=ROOT,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} pass of {workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["load1"] = load1
    return result


def summarise(series: dict[str, tuple[str, list[float]]]) -> tuple[dict, list[str]]:
    """Each series' median as its metric, and a line with its quartiles and count."""
    metrics, lines = {}, []
    for name, (unit, values) in series.items():
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(f"{name:<30} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                     f"n={len(values)}")
    return metrics, lines


def repeat(step, seconds: float) -> None:
    """Call step() at least once, and again while another call should end
    within seconds of the start, judged by the last call's duration."""
    start = time.monotonic()
    while True:
        begin = time.monotonic()
        step()
        end = time.monotonic()
        if end - start + (end - begin) > seconds:
            return


def timed_run(run: Callable[[str], dict], seconds: float) -> tuple[list[dict], dict, list[str]]:
    passes = []
    repeat(lambda: passes.append(run("timed")), seconds)
    extra = [run("setup") for _ in range(SETUP_SAMPLES)]
    setups = [p["setup_s"] for p in passes + extra]
    series = {
        "wall_s": ("s", [p["wall_s"] for p in passes]),
        "setup_s": ("s", setups),
        "peak_rss_mb": ("MB", [p["peak_rss_mb"] for p in passes]),
    }
    metrics, lines = summarise(series)
    _, raw_lines = summarise({
        "raw_wall_s": ("s", [p["raw_wall_s"] for p in passes]),
        "raw_setup_s": ("s", [p["raw_setup_s"] for p in passes + extra]),
    })
    return passes, metrics, lines + raw_lines


def layer_metrics(traced: dict, timed_wall: float) -> dict[str, tuple[str, float]]:
    """Per-layer metrics of one traced pass (see tracer.py for the spans)."""
    layers = traced["layers"]
    calls, own, total = layers["calls"], layers["self_s"], layers["total_s"]
    counters = layers["counters"]

    def layer_sum(table, layer):
        return sum(v for name, v in table.items() if name.split(".")[0] == layer)

    def count(name):
        return calls.get(name, 0)

    def cache(name, field):
        # a cache that a later change removes or renames reads as 0
        return traced["cache_info"].get(name, {}).get(field, 0)

    out: dict[str, tuple[str, float]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", layer_sum(own, layer))
    residue_calls = count("frobenius.rational_x_inverse_coefficient")
    node_eval_s = layers["node_eval_s"]
    out.update({
        "characters.calls": ("count", layer_sum(calls, "characters")),
        "characters.chi_cache_hits": ("count", cache("characters._chi", "hits")),
        "characters.chi_cache_misses": ("count", cache("characters._chi", "misses")),
        "characters.chi_cache_size": ("count", cache("characters._chi", "currsize")),
        "partitions.syt_cache_size": ("count", cache("partitions.syt_count", "currsize")),
        "factorization.pairs_enumerated": (
            "count", counters.get("factorization.pairs_enumerated", 0)),
        "factorization.poly_cache_hits": (
            "count", cache("factorization.factorization_poly", "hits")),
        "frobenius.residue_calls": ("count", residue_calls),
        "frobenius.window_sum": ("count", counters.get("frobenius.window_sum", 0)),
        "frobenius.window_retries": ("count", count("series.linear_product") - residue_calls),
        "polynomials.constructs": ("count", count("polynomials.MultivarPoly.__init__")),
        "polynomials.mul_calls": ("count", count("polynomials.MultivarPoly.__mul__")
                                  + count("polynomials.MultivarPoly.__rmul__")),
        "polynomials.add_calls": ("count", count("polynomials.MultivarPoly.__add__")
                                  + count("polynomials.MultivarPoly.__radd__")),
        "polynomials.terms_out": ("count", counters.get("polynomials.terms_out", 0)),
        "interpolation.nodes": ("count", counters.get("interpolation.nodes", 0)),
        "interpolation.node_eval_s": ("s", node_eval_s),
        "interpolation.solve_s": (
            "s", total.get("interpolation.f_mu_interpolate", 0.0) - node_eval_s),
        "tracing.spans": ("count", layers["spans"]),
        "tracing.traced_wall_s": ("s", traced["raw_wall_s"]),
        "tracing.overhead_s": ("s", traced["raw_wall_s"] - timed_wall),
    })
    return out


def traced_run(run: Callable[[str], dict], seconds: float) -> tuple[list[dict], dict, list[str]]:
    timed, traced = [], []

    def pair():
        timed.append(run("timed"))
        traced.append(run("traced"))

    repeat(pair, seconds)
    # traced passes run without the speed probe, so both sides are raw times
    timed_wall = statistics.median(p["raw_wall_s"] for p in timed)
    samples: dict[str, tuple[str, list[float]]] = {}
    for p in traced:
        for name, (unit, value) in layer_metrics(p, timed_wall).items():
            samples.setdefault(name, (unit, []))[1].append(value)
    metrics, lines = summarise(samples)
    self_total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    lines.append("layer share of traced self time: " + ", ".join(
        f"{layer} {metrics[f'{layer}.self_s']['value'] / self_total:.1%}" for layer in LAYERS
    ))
    return timed + traced, metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rectchar" / "__init__.py").is_file():
        print(f"no rectchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    print("provenance " + json.dumps({**provenance(), "workload": args.workload,
                                      "seed": args.seed, "trace": args.trace}))
    try:
        measure = traced_run if args.trace else timed_run
        passes, metrics, lines = measure(
            lambda mode: run_pass(args.workload, args.seed, deadline, mode), args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    print("load1 before each pass: " + " ".join(f"{p['load1']:.2f}" for p in passes))
    for line in lines:
        print(line)
    print(f"{'error_rate':<30} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for p in passes:
        for job_id in p["failed"][:5]:
            print(f"failed job: {job_id}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
