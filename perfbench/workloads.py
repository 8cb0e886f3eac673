"""The benchmark's job lists: fixed grids plus seeded draws.

A job is one timed call (or a short fixed chain of calls) into rectchar's
public API, with a correctness check that runs after timing.  The grids are
the benchmark's own copy: they do not follow rectchar.verify, whose grids
are program data that later changes may move.  The seed drives the job
order and every drawn point; the fixed grids never depend on it.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

# Seeded Theorem-1 points on boxes with both sides in BOX_DRAW_SIDES, which
# lie outside the fixed grid of sides up to BOX_GRID_SIDE.
BOX_DRAWS = 24
BOX_GRID_SIDE = 4
BOX_DRAW_SIDES = (5, 8)
# (m, largest k) for the symbolic F_k and its integrality witness.
RESIDUE_GRID = {1: 8, 2: 6, 3: 5, 4: 4}
LEADING_K = 5
FROBENIUS_N = 14


@dataclass(frozen=True)
class Job:
    """One unit of timed work.

    call receives the rectchar package and returns the output.  After
    timing, check() tests the output: kind names the test, and key names the
    recorded digest the output must match (None when no digest applies).
    drawn holds the values taken from the seed; the id never depends on it.
    """

    id: str
    call: Callable[[object], object]
    kind: str = "digest"
    key: str | None = None
    drawn: tuple = ()


def digest(value) -> str:
    """Short stable fingerprint of a job output (polynomials by canonical terms)."""
    return hashlib.sha256(_canonical(value).encode()).hexdigest()[:16]


def _canonical(value) -> str:
    if hasattr(value, "canonical_terms"):
        body = ";".join(f"{e}:{c}" for e, c in value.canonical_terms())
        return f"poly{value.nvars}[{body}]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_canonical(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    return str(value)


def recorded(job: Job, output):
    """The part of an output that its digest covers.  Of a conjecture job it
    is F_mu alone: the fidelity comes from a drawn point and is checked below."""
    return output[0] if job.kind == "conjecture" else output


def check(job: Job, output, expected: dict) -> bool:
    """The correctness gate for one job output."""
    if job.key is not None and digest(recorded(job, output)) != expected.get(job.key):
        return False
    if job.kind == "true":
        return output is True
    if job.kind in ("fk", "special"):
        # (-1)^k F_k(1..1, -1..-1) is the falling factorial (k+m-1)_k
        m, k = map(int, job.id.split("|")[1:])
        value = output
        if job.kind == "fk":
            value = output.evaluate((1,) * m + (-1,) * m)
            value = -value if k % 2 else value
        return value == math.perm(k + m - 1, k)
    if job.kind == "conjecture":
        _, passed, fidelity = output
        return passed is True and fidelity in (True, None)
    return job.kind == "digest"


def _fmt(mu) -> str:
    return ",".join(map(str, mu))


def _partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n, largest part first (the benchmark's own generator)."""

    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, cap), 0, -1):
            for tail in rec(rest - part, part):
                yield (part,) + tail

    return list(rec(n, n))


def _recorded(job_id: str, call) -> Job:
    """A job whose output must match the digest recorded under its own id."""
    return Job(job_id, call, "digest", job_id)


# -- workloads -------------------------------------------------------------


def box_pairsum(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    small = [mu for k in range(1, 9) for mu in _partitions(k)]
    for mu in small:
        jobs.append(_recorded(
            f"factorization_poly|{_fmt(mu)}", lambda rc, mu=mu: rc.factorization_poly(mu)
        ))
    for p in range(1, BOX_GRID_SIDE + 1):
        for q in range(1, BOX_GRID_SIDE + 1):
            for mu in small:
                if sum(mu) <= p * q:
                    jobs.append(Job(
                        f"theorem1_check|{p}|{q}|{_fmt(mu)}",
                        lambda rc, p=p, q=q, mu=mu: rc.theorem1_check(p, q, mu),
                        "true",
                    ))
    for k in range(1, 7):
        for mu in _partitions(k):
            for p in range(1, BOX_GRID_SIDE + 1):
                for q in range(1, BOX_GRID_SIDE + 1):
                    jobs.append(Job(
                        f"sss_identity_check|{k}|{p}|{q}|{_fmt(mu)}",
                        lambda rc, k=k, p=p, q=q, mu=mu: rc.sss_identity_check(k, p, q, mu),
                        "true",
                    ))
    for k in range(1, 9):
        jobs.append(_recorded(f"catalan_pair_count|{k}", lambda rc, k=k: rc.catalan_pair_count(k)))
    for k in range(1, 8):
        jobs.append(_recorded(f"narayana_refinement|{k}", lambda rc, k=k: rc.narayana_refinement(k)))
    for i in range(BOX_DRAWS):
        p, q = (rng.randint(*BOX_DRAW_SIDES) for _ in range(2))
        mu = rng.choice(small)
        jobs.append(Job(
            f"drawn_theorem1_check|{i}",
            lambda rc, p=p, q=q, mu=mu: rc.theorem1_check(p, q, mu),
            "true",
            drawn=(p, q, mu),
        ))
    return jobs


def stack_residue(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    cases = [(m, k) for m, kmax in RESIDUE_GRID.items() for k in range(1, kmax + 1)]
    for m, k in cases:
        # one rectangle: F_k must equal the pair-sum polynomial of the k-cycle
        key = f"factorization_poly|{k}" if m == 1 else f"f_k_polynomial|{m}|{k}"
        jobs.append(Job(
            f"f_k_polynomial|{m}|{k}", lambda rc, m=m, k=k: rc.f_k_polynomial(m, k), "fk", key
        ))
        jobs.append(Job(
            f"integrality_witness|{m}|{k}",
            lambda rc, m=m, k=k: rc.integrality_witness(m, k),
            "true",
        ))
    for m in range(1, 5):
        for k in range(1, 9):
            jobs.append(Job(
                f"f_k_special_value|{m}|{k}",
                lambda rc, m=m, k=k: rc.f_k_special_value(m, k),
                "special",
            ))
    for n in range(1, FROBENIUS_N + 1):
        for lam in _partitions(n):
            for k in range(1, n + 1):
                jobs.append(_recorded(
                    f"frobenius_normalized|{_fmt(lam)}|{k}",
                    lambda rc, lam=lam, k=k: rc.frobenius_normalized(lam, k),
                ))
    for m in range(1, 4):
        for k in range(1, LEADING_K + 1):
            for name in ("g_k_via_lagrange", "elizalde_formula"):
                jobs.append(_recorded(
                    f"{name}|{m}|{k}", lambda rc, name=name, m=m, k=k: getattr(rc, name)(m, k)
                ))
        jobs.append(Job(
            f"gk_generating_check|{m}|{LEADING_K}",
            lambda rc, m=m: rc.gk_generating_check(m, LEADING_K),
            "true",
        ))
    for m, kmax in ((1, 10), (2, 8)):
        jobs.append(_recorded(
            f"s_k_sequence|{m}|{kmax}", lambda rc, m=m, kmax=kmax: rc.s_k_sequence(m, kmax)
        ))
    return jobs


def stack_interpolate(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    cases = [(2, mu) for k in range(1, 5) for mu in _partitions(k)]
    cases += [(3, mu) for k in range(1, 3) for mu in _partitions(k)]
    for m, mu in cases:
        # the off-grid spot check runs at m = 2 only; at m = 3 the grids hold
        # 729 or 4096 nodes per mu
        seed = rng.randrange(2**32) if m == 2 else None
        job_id = f"conjecture1_check|{m}|{_fmt(mu)}"
        jobs.append(Job(
            job_id,
            lambda rc, m=m, mu=mu, seed=seed: _conjecture(rc, m, mu, seed),
            "conjecture",
            job_id,
            () if seed is None else (seed,),
        ))
    return jobs


def _conjecture(rc, m: int, mu, seed) -> tuple:
    """(F_mu, report passed, off-grid fidelity or None when not drawn)."""
    report = rc.conjecture1_check(m, mu)
    fidelity = None
    if seed is not None:
        fidelity = rc.off_grid_fidelity(m, mu, report.poly, seed=seed)
    return report.poly, report.passed, fidelity


WORKLOADS = {
    "box-pairsum": box_pairsum,
    "stack-residue": stack_residue,
    "stack-interpolate": stack_interpolate,
}


def build(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for this seed, in seeded order."""
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
