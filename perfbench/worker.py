"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE T0

MODE is "timed", "traced" (spans recorded, see tracer.py) or "setup", which
stops once set-up is done.  T0 is the parent's time.monotonic() just before
it started this process, so raw_setup_s runs from interpreter start to
rectchar imported and jobs built.  Prints one JSON object on stdout.  Only
job calls are timed; the correctness gate runs after the timed loop.
wall_s and setup_s are the job and set-up times at the reference speed;
raw_wall_s and raw_setup_s are the times as measured.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"

# A shared host's speed can drift by tens of percent over seconds and minutes,
# with process CPU time drifting alongside, so a raw time measures the host as
# much as rectchar.  The end-to-end times are therefore given at a fixed reference
# speed: scaled by REF_SLICE_S over the time that a fixed slice of stdlib-only
# work (reference_slice) takes in the same process at the same time.
# REF_SLICE_S is close to the slice's typical time on a 2-core Xeon host, so
# scaled and raw times are of the same size there.
REF_SLICE_S = 0.0006
REF_TRIES = 2
REF_EVERY_S = 0.025
SETUP_SLICES = 5


def import_rectchar():
    """Import rectchar from this checkout's src/, never from anywhere else."""
    if not (SRC / "rectchar" / "__init__.py").is_file():
        raise SystemExit(f"no rectchar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rectchar

    if not Path(rectchar.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"rectchar was imported from {rectchar.__file__}, not {SRC}")
    return rectchar


def find_caches(rc) -> dict:
    """Every functools cache at module level in rectchar's layers."""
    out = {}
    for layer in LAYERS:
        module = getattr(rc, layer)
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                out[f"{layer}.{attr}"] = value
    return out


def reference_slice() -> float:
    """Time of a fixed, stdlib-only slice of interpreter work: the fastest of
    REF_TRIES tries, with the garbage collector held off."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REF_TRIES):
            start = time.perf_counter()
            table, acc, frac = {}, 0, Fraction(0)
            for i in range(1, 1200):
                acc = (acc * 31 + i * i) % 1000003
                table[(i & 127, i & 3)] = acc
                acc += table.get((acc & 127, 1), 0)
                if i % 40 == 0:
                    frac += Fraction(acc % 97, i)
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


def at_reference_speed(seconds: float, slices: list[float]) -> float:
    """seconds scaled by the mean of REF_SLICE_S / slice."""
    return seconds * statistics.fmean(REF_SLICE_S / t for t in slices)


class SpeedProbe:
    """Samples the host's speed while it is active: a SIGALRM handler times a
    reference slice every REF_EVERY_S of wall time.  spent_s is the time
    spent in the handler, which the timed code must leave out."""

    def __init__(self):
        self.slices: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.slices.append(reference_slice())
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def scale(self, seconds: float) -> float:
        """seconds at the reference speed.  The samples are evenly spaced in
        time, so the mean of REF_SLICE_S / slice is the mean speed ratio."""
        if not self.slices:
            self.slices.append(reference_slice())
        return at_reference_speed(seconds, self.slices)


def run_jobs(rc, jobs, probe: SpeedProbe | None = None) -> tuple[dict, list]:
    """Call every job in order; return the timings and the outputs.

    The timings are the summed call time, raw and, with a probe, scaled to
    the reference speed.  A job that raises yields the exception as its
    output; the run goes on.
    """
    clock = time.perf_counter
    probe = probe or SpeedProbe()
    raw, outputs = 0.0, []
    for job in jobs:
        spent = probe.spent_s
        start = clock()
        try:
            out = job.call(rc)
        except Exception as exc:  # a failed job is counted, not fatal
            out = exc
            traceback.clear_frames(exc.__traceback__)
        raw += clock() - start - (probe.spent_s - spent)
        outputs.append(out)
    return {"raw_s": raw, "scaled_s": probe.scale(raw)}, outputs


def gate(jobs, outputs, expected: dict) -> list[str]:
    """Ids of the jobs whose output raised or failed its check."""
    failed = []
    for job, out in zip(jobs, outputs):
        try:
            ok = not isinstance(out, Exception) and workloads.check(job, out, expected)
        except Exception:  # a check that cannot read the output fails the job
            ok = False
        if not ok:
            failed.append(job.id)
    return failed


def main(argv: list[str]) -> None:
    workload, seed, mode, t0 = argv[0], int(argv[1]), argv[2], float(argv[3])
    rc = import_rectchar()
    jobs = workloads.build(workload, seed)
    raw_setup_s = time.monotonic() - t0
    slices = [reference_slice() for _ in range(SETUP_SLICES)]
    setup = {"raw_setup_s": raw_setup_s, "setup_s": at_reference_speed(raw_setup_s, slices)}
    if mode == "setup":
        print(json.dumps(setup))
        return
    caches = find_caches(rc)
    tracer = None
    if mode == "traced":
        # no probe here: its handler's time would land in the open spans
        tracer = Tracer()
        tracer.install(rc)
        timing, outputs = run_jobs(rc, jobs)
    else:
        with SpeedProbe() as probe:
            timing, outputs = run_jobs(rc, jobs, probe)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cache_info = {name: fn.cache_info()._asdict() for name, fn in caches.items()}
    layers = tracer.report() if tracer else None
    if tracer:
        tracer.uninstall()
    expected = json.loads(EXPECTED.read_text())
    failed = gate(jobs, outputs, expected)
    print(json.dumps({
        "workload": workload,
        "seed": seed,
        "mode": mode,
        **setup,
        "wall_s": timing["scaled_s"],
        "raw_wall_s": timing["raw_s"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs),
        "failed": failed,
        "digests": {job.id: workloads.digest(out) for job, out in zip(jobs, outputs)},
        "cache_info": cache_info,
        "layers": layers,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
