"""Tests of the benchmark itself, on small slices of its job lists.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

import workloads
from tracer import Tracer
from worker import (EXPECTED, HERE, REF_SLICE_S, SpeedProbe, find_caches, gate, import_rectchar,
                    run_jobs)

rc = import_rectchar()
EXPECTED_DIGESTS = json.loads(EXPECTED.read_text())


def _size(job) -> int:
    """A cost proxy: the numbers in the job's id after its name, or a drawn mu."""
    if job.id.startswith("drawn_"):
        return sum(job.drawn[2])
    return sum(int(x) for f in job.id.split("|")[1:] for x in f.split(",") if x.isdigit())


def _slice(workload: str, limit: int, seed: int = 1) -> list:
    return [job for job in workloads.build(workload, seed) if _size(job) <= limit]


SLICES = {"box-pairsum": 6, "stack-residue": 6, "stack-interpolate": 4}


def _fresh_pass(jobs, traced: bool):
    """Run jobs on empty caches; return digests, cache_info and the trace report."""
    caches = find_caches(rc)
    for fn in caches.values():
        fn.cache_clear()
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(rc)
    try:
        _, outputs = run_jobs(rc, jobs)
    finally:
        if tracer:
            tracer.uninstall()
    digests = [workloads.digest(out) for out in outputs]
    info = {name: fn.cache_info()._asdict() for name, fn in caches.items()}
    return digests, info, tracer.report() if tracer else None, outputs


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_tracing_is_transparent(workload):
    jobs = _slice(workload, SLICES[workload])
    assert len(jobs) >= 4
    plain_digests, plain_info, _, outputs = _fresh_pass(jobs, traced=False)
    traced_digests, traced_info, report, _ = _fresh_pass(jobs, traced=True)
    assert traced_digests == plain_digests
    assert traced_info == plain_info
    assert report["spans"] > 0
    assert gate(jobs, outputs, EXPECTED_DIGESTS) == []


def test_uninstall_restores_every_binding():
    before = {name: getattr(rc, name) for name in rc.__all__}
    init = rc.MultivarPoly.__init__
    tracer = Tracer()
    tracer.install(rc)
    assert rc.factorization_poly is not before["factorization_poly"]
    assert rc.interpolation.normalized_character is not before["normalized_character"]
    tracer.uninstall()
    assert {name: getattr(rc, name) for name in rc.__all__} == before
    assert rc.MultivarPoly.__init__ is init
    assert rc.frobenius.linear_product is rc.series.linear_product


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_counters_repeat_exactly(workload):
    jobs = _slice(workload, SLICES[workload])
    _, _, first, _ = _fresh_pass(jobs, traced=True)
    _, _, second, _ = _fresh_pass(jobs, traced=True)
    assert first["counters"] == second["counters"]
    assert first["calls"] == second["calls"]


def test_counters_measure_the_named_work():
    jobs = [
        workloads.Job("pairs", lambda rc: rc.factorization_poly((3, 1))),
        workloads.Job("fk", lambda rc: rc.f_k_polynomial(2, 2)),
        workloads.Job("interp", lambda rc: rc.f_mu_interpolate(1, (2,))),
    ]
    _, _, report, _ = _fresh_pass(jobs, traced=True)
    counters, calls = report["counters"], report["calls"]
    assert counters["factorization.pairs_enumerated"] == 24
    assert counters["frobenius.window_sum"] > 0
    assert calls["frobenius.rational_x_inverse_coefficient"] == 1
    assert calls["series.linear_product"] == 1
    # m = 1, k = 2: a 4 x 4 node grid plus the off-grid guard point
    assert counters["interpolation.nodes"] == 17
    assert counters["polynomials.terms_out"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_only_the_drawn_points(workload):
    one = workloads.build(workload, 1)
    two = workloads.build(workload, 2)
    assert [job.id for job in one] != [job.id for job in two]
    by_id = {job.id: job for job in two}
    assert sorted(by_id) == sorted(job.id for job in one)
    drawn = [job for job in one if job.drawn]
    assert all(by_id[job.id].drawn == () for job in one if not job.drawn)
    assert all(job.key == by_id[job.id].key and job.kind == by_id[job.id].kind for job in one)
    if workload != "stack-residue":
        assert drawn
        assert any(job.drawn != by_id[job.id].drawn for job in drawn)
    again = workloads.build(workload, 1)
    assert [(job.id, job.drawn) for job in again] == [(job.id, job.drawn) for job in one]


def test_conjecture_gate_holds_for_every_draw():
    for seed in (1, 2, 3):
        jobs = [job for job in workloads.build("stack-interpolate", seed)
                if job.id == "conjecture1_check|2|1"]
        _, outputs = run_jobs(rc, jobs)
        assert jobs[0].drawn and gate(jobs, outputs, EXPECTED_DIGESTS) == []


def test_failures_raise_the_error_count():
    jobs = _slice("box-pairsum", 6)
    _, _, _, outputs = _fresh_pass(jobs, traced=False)
    assert gate(jobs, outputs, EXPECTED_DIGESTS) == []

    def boom(rc):
        raise RuntimeError("injected")

    broken = jobs + [workloads.Job("injected", boom, "true")]
    _, outputs = run_jobs(rc, broken)
    assert gate(broken, outputs, EXPECTED_DIGESTS) == ["injected"]

    recorded = next(job for job in jobs if job.key)
    corrupted = dict(EXPECTED_DIGESTS, **{recorded.key: "0" * 16})
    assert gate(jobs, outputs[:-1], corrupted) == [recorded.id]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "box-pairsum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_samples_and_is_left_out():
    def spin(rc):
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        timing, _ = run_jobs(rc, [workloads.Job("spin", spin)], probe)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.slices) >= 5 and probe.spent_s > 0
    # the spin ends at a fixed clock time, so the handler's time comes out of it
    assert timing["raw_s"] < 0.3
    assert timing["scaled_s"] == pytest.approx(
        timing["raw_s"] * statistics.fmean(REF_SLICE_S / t for t in probe.slices))
