"""Umbrella checks: every identity the package implements, run end to end.

Each criterion function sweeps a fixed parameter grid with exact arithmetic
and returns (passed, detail); run_criteria wraps them with timing.  The quick
grids are the acceptance targets; full=True extends each one notch for longer
soak runs.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

from .characters import normalized_character
from .factorization import (
    catalan_pair_count,
    factorization_poly,
    narayana_refinement,
    sss_identity_check,
    theorem1_check,
)
from .frobenius import (
    f_k_residue,
    f_k_special_value,
    flipped_polynomial,
    frobenius_normalized,
)
from .interpolation import (
    conjecture1_check,
    f_k_polynomial,
    f_mu_interpolate,
    off_grid_fidelity,
)
from .leading import (
    elizalde_formula,
    g_k_leading,
    g_k_via_lagrange,
    gk_generating_check,
    narayana_check,
    narayana_number,
    s_k_from_coefficient_sums,
    s_k_sequence,
)
from .partitions import (
    cellset_hooks,
    cells,
    complement,
    conjugate,
    content,
    hook_lengths,
    hook_product,
    partitions_in_box,
    partitions_of,
    rectangle,
    sq_shape,
)
from .schur import lemma_check

#: Frozen two-rectangle reference data: flipped single-cycle polynomials for
#: k = 1..4, as exponent-tuple -> coefficient with variables (p1, p2, q1, q2).
#: Values transcribed by hand and machine-verified against the residue route.
REFERENCE_FLIPPED_TWO_RECT: dict[int, dict[tuple[int, int, int, int], int]] = {
    1: {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1},
    2: {
        (2, 0, 1, 0): 1,
        (1, 0, 2, 0): 1,
        (1, 1, 0, 1): 2,
        (0, 2, 0, 1): 1,
        (0, 1, 0, 2): 1,
    },
    3: {
        (3, 0, 1, 0): 1,
        (2, 0, 2, 0): 3,
        (2, 1, 0, 1): 3,
        (1, 0, 3, 0): 1,
        (1, 1, 1, 1): 3,
        (1, 2, 0, 1): 3,
        (1, 1, 0, 2): 3,
        (0, 3, 0, 1): 1,
        (0, 2, 0, 2): 3,
        (0, 1, 0, 3): 1,
        (1, 0, 1, 0): 1,
        (0, 1, 0, 1): 1,
    },
    4: {
        (4, 0, 1, 0): 1,
        (3, 0, 2, 0): 6,
        (3, 1, 0, 1): 4,
        (2, 0, 3, 0): 6,
        (2, 1, 1, 1): 12,
        (2, 2, 0, 1): 6,
        (2, 1, 0, 2): 6,
        (1, 0, 4, 0): 1,
        (1, 1, 2, 1): 4,
        (1, 2, 1, 1): 4,
        (1, 1, 1, 2): 4,
        (1, 3, 0, 1): 4,
        (1, 2, 0, 2): 14,
        (1, 1, 0, 3): 4,
        (0, 4, 0, 1): 1,
        (0, 3, 0, 2): 6,
        (0, 2, 0, 3): 6,
        (0, 1, 0, 4): 1,
        (2, 0, 1, 0): 5,
        (1, 0, 2, 0): 5,
        (1, 1, 0, 1): 10,
        (0, 2, 0, 1): 5,
        (0, 1, 0, 2): 5,
    },
}


def catalan_number(k: int) -> int:
    """C_k by the convolution recurrence (independent of any closed form)."""
    table = [1]
    for n in range(k):
        table.append(sum(table[i] * table[n - i] for i in range(n + 1)))
    return table[k]


def criterion_theorem1(full: bool = False) -> tuple[bool, str]:
    """Normalized box characters equal the pair-sum polynomial, whole grid."""
    side = 5 if full else 4
    checked = 0
    for p in range(1, side + 1):
        for q in range(1, side + 1):
            for k in range(1, min(8, p * q) + 1):
                for mu in partitions_of(k):
                    if not theorem1_check(p, q, mu):
                        return False, f"mismatch at p={p}, q={q}, mu={mu}"
                    checked += 1
    return True, f"{checked} (box, type) pairs matched exactly"


def _box_sweep(full: bool, check, verified: str) -> tuple[bool, str]:
    """Run check(lam, p, q), which returns a failure text or "", on every
    shape in every p-by-q box up to the cap; stop at the first failure."""
    side = 6 if full else 5
    checked = 0
    for p in range(1, side + 1):
        for q in range(1, side + 1):
            for lam in partitions_in_box(p, q):
                failure = check(lam, p, q)
                if failure:
                    return False, f"{failure} at p={p}, q={q}, lam={lam}"
                checked += 1
    return True, f"{checked} {verified}"


def criterion_lemma(full: bool = False) -> tuple[bool, str]:
    """Hook-product lemma over every shape in every box up to the cap."""
    return _box_sweep(
        full,
        lambda lam, p, q: "" if lemma_check(lam, p, q) else "lemma fails",
        "shapes verified",
    )


def hook_identities(lam, p: int, q: int) -> tuple[Counter[int], bool, bool]:
    """Hook multiset of the glued cell set sq_shape(lam, p, q), whether it is
    the box's hooks plus lam's hooks, and whether its hook product equals the
    content-product form."""
    actual = cellset_hooks(sq_shape(lam, p, q))
    expected = Counter(hook_lengths(rectangle(p, q)) + hook_lengths(lam))
    product = math.prod(h**c for h, c in actual.items())
    content_form = (
        hook_product(complement(lam, p, q))
        * math.prod(p + content(u) for u in cells(lam))
        * math.prod(q + content(v) for v in cells(conjugate(lam)))
    )
    return actual, actual == expected, product == content_form


def _hook_failure(lam, p: int, q: int) -> str:
    _, multiset_ok, product_ok = hook_identities(lam, p, q)
    if not multiset_ok:
        return "hook multiset off"
    return "" if product_ok else "hook product form off"


def criterion_hooks(full: bool = False) -> tuple[bool, str]:
    """Hook multiset union and the content-product form of the same product."""
    return _box_sweep(
        full, _hook_failure, "skew shapes verified (multiset and product)"
    )


def criterion_reference_data(full: bool = False) -> tuple[bool, str]:
    """Two-rectangle single-cycle polynomials of the residue route against the
    frozen reference."""
    for k, expected in REFERENCE_FLIPPED_TWO_RECT.items():
        flipped = flipped_polynomial(f_k_residue(2, k), 2, k)
        if flipped.terms != expected:
            return False, f"k={k} flipped polynomial differs from reference"
    if REFERENCE_FLIPPED_TWO_RECT[4][(1, 2, 0, 2)] != 14:
        return False, "reference table corrupted"
    return True, "k=1..4 two-rectangle polynomials reproduced verbatim"


# integrality is checked symbolically on a graded grid that keeps the
# residue polynomials' sizes sane; each is also compared with the face fill,
# the production route; the all-ones special value uses the specialized
# (integer-root) expansion so the large-k cases stay cheap
_WITNESS_GRID = {1: 8, 2: 6, 3: 5, 4: 4}
_WITNESS_GRID_FULL = {1: 10, 2: 7, 3: 6, 4: 4}


def criterion_special_value(full: bool = False) -> tuple[bool, str]:
    """All-ones special value, mod-k integrality of the raw extraction, and
    the residue F_k against the face fill."""
    m_cap, k_cap = (5, 9) if full else (4, 8)
    for m in range(1, m_cap + 1):
        for k in range(1, k_cap + 1):
            if f_k_special_value(m, k) != math.perm(k + m - 1, k):
                return False, f"special value wrong at m={m}, k={k}"
    grid = _WITNESS_GRID_FULL if full else _WITNESS_GRID
    for m, kmax in grid.items():
        for k in range(1, kmax + 1):
            residue = f_k_residue(m, k)
            if not residue.is_integral():
                return False, f"coefficient not divisible by k at m={m}, k={k}"
            if residue != f_k_polynomial(m, k):
                return False, f"face fill differs from the residue route at m={m}, k={k}"
    return True, (
        f"special values to m<={m_cap}, k<={k_cap}; "
        f"divisibility and face-fill agreement on {sum(grid.values())} "
        "symbolic polynomials"
    )


def criterion_frobenius_vs_strips(full: bool = False) -> tuple[bool, str]:
    """Residue route equals border-strip route for every shape up to the cap.

    At k = 2, 3 and 4 the strip side is read off the power sums of lam's
    contents (Ch_(2) = 2 p_1, for one), which normalized_character takes
    from the bead tuple with no strip enumerated; that is still a route
    apart from the residue one."""
    n_cap = 15 if full else 14
    checked = 0
    for n in range(1, n_cap + 1):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                if frobenius_normalized(lam, k) != normalized_character(lam, (k,)):
                    return False, f"disagreement at lam={lam}, k={k}"
                checked += 1
    return True, f"{checked} (shape, cycle) evaluations agreed"


def criterion_leading_terms(full: bool = False) -> tuple[bool, str]:
    """Homogeneous-part route vs Lagrange route vs generating-function route."""
    k_cap = 5 if full else 4
    for m in range(1, 4):
        for k in range(1, k_cap + 1):
            if g_k_leading(m, k) != g_k_via_lagrange(m, k):
                return False, f"leading terms differ at m={m}, k={k}"
        if not gk_generating_check(m, k_cap):
            return False, f"generating function route fails at m={m}"
    return True, f"three routes agree for m<=3, k<={k_cap}"


def criterion_specializations(full: bool = False) -> tuple[bool, str]:
    """Catalan, Narayana, and Schroeder specializations."""
    cat_cap = 12 if full else 10
    seq = s_k_sequence(1, cat_cap)
    for k in range(1, cat_cap + 1):
        if seq[k - 1] != catalan_number(k):
            return False, f"one-rectangle S_{k} = {seq[k - 1]} != C_{k}"
    if not narayana_check(cat_cap):
        return False, "flipped leading coefficients differ from Narayana numbers"
    schroeder_cap = 10 if full else 8
    if s_k_sequence(2, schroeder_cap) != s_k_from_coefficient_sums(2, schroeder_cap):
        return False, "two-rectangle S_k routes disagree"
    return True, (
        f"Catalan match to k={cat_cap}, Narayana to k={cat_cap}, "
        f"Schroeder routes agree to k={schroeder_cap}"
    )


def criterion_factorization_counts(full: bool = False) -> tuple[bool, str]:
    """Full-cycle factorization counts against Catalan and Narayana numbers."""
    for k in range(1, 9):
        if catalan_pair_count(k) != catalan_number(k):
            return False, f"pair count at k={k} is not the Catalan number"
    ref_cap = 8 if full else 7
    for k in range(1, ref_cap + 1):
        refinement = narayana_refinement(k)
        expected = {i: narayana_number(k, i) for i in range(1, k + 1)}
        if refinement != expected:
            return False, f"refinement at k={k} differs from closed form"
    return True, f"pair counts to k=8, refinements to k={ref_cap}"


def criterion_elizalde(full: bool = False) -> tuple[bool, str]:
    """Closed-form coefficients equal the flipped leading terms."""
    k_cap = 6 if full else 5
    for m in range(1, 4):
        for k in range(1, k_cap + 1):
            closed = elizalde_formula(m, k)
            oracle = flipped_polynomial(g_k_leading(m, k), m, k)
            if closed != oracle:
                diff = (closed - oracle).canonical_terms()[:3]
                return False, (
                    f"closed form differs at m={m}, k={k}; "
                    f"first differing terms {diff}"
                )
    return True, f"closed form matches for m<=3, k<={k_cap}"


def criterion_conjecture_sweep(full: bool = False) -> tuple[bool, str]:
    """Interpolated F_mu checks for every mu up to the size cap, m=2, and
    m=3 with k<=3 in full; at m=1 every F_mu of size up to 6 (8 in full)
    against the pair sum."""
    k_caps = [(2, 5), (3, 3)] if full else [(2, 4)]
    cases = [
        (m, mu) for m, k_cap in k_caps for k in range(1, k_cap + 1) for mu in partitions_of(k)
    ]
    for m, mu in cases:
        report = conjecture1_check(m, mu)
        if not report.passed:
            return False, f"conjecture checks fail at m={m}, mu={mu}: {report.findings}"
        k = report.k
        if m == 2 and mu == (k,) and k <= 4:
            if report.flipped.terms != REFERENCE_FLIPPED_TWO_RECT[k]:
                return False, f"interpolated F_({k}) differs from reference"
        if not off_grid_fidelity(m, mu, report.poly):
            return False, f"off-grid fidelity fails at m={m}, mu={mu}"
    pair_cap = 8 if full else 6
    pair_sums = [mu for k in range(1, pair_cap + 1) for mu in partitions_of(k)]
    for mu in pair_sums:
        if f_mu_interpolate(1, mu) != factorization_poly(mu):
            return False, f"interpolated F_mu at m=1 differs from the pair sum at mu={mu}"
    return True, (
        f"{len(cases)} cycle types swept with 20 off-grid spot checks each; "
        f"F_mu at m=1 equals the pair sum for {len(pair_sums)} mu"
    )


def criterion_shape_sum(full: bool = False) -> tuple[bool, str]:
    """Shape-sum identity equals the pair-sum on its whole grid."""
    k_cap = 7 if full else 6
    checked = 0
    for k in range(1, k_cap + 1):
        for mu in partitions_of(k):
            for p in range(1, 5):
                for q in range(1, 5):
                    if not sss_identity_check(k, p, q, mu):
                        return False, f"identity fails at k={k}, mu={mu}, p={p}, q={q}"
                    checked += 1
    return True, f"{checked} instances verified"


CRITERIA: list[tuple[str, object]] = [
    ("theorem1-grid", criterion_theorem1),
    ("lemma-exhaustive", criterion_lemma),
    ("hook-multisets", criterion_hooks),
    ("two-rect-reference-data", criterion_reference_data),
    ("special-value-integrality", criterion_special_value),
    ("frobenius-vs-strips", criterion_frobenius_vs_strips),
    ("leading-terms-routes", criterion_leading_terms),
    ("catalan-narayana-schroeder", criterion_specializations),
    ("factorization-counts", criterion_factorization_counts),
    ("elizalde-closed-form", criterion_elizalde),
    ("conjecture-sweep", criterion_conjecture_sweep),
    ("shape-sum-vs-pair-sum", criterion_shape_sum),
]


@dataclass(frozen=True)
class VerifyReport:
    """One criterion's outcome; detail holds the counterexample on failure."""

    number: int
    name: str
    passed: bool
    elapsed: float
    detail: str

    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "detail": self.detail,
        }


def _check_criterion_number(idx: int) -> None:
    if not 1 <= idx <= len(CRITERIA):
        raise ValueError(f"criterion number out of range: {idx}")


def run_criteria(
    numbers: list[int] | None = None, full: bool = False
) -> list[VerifyReport]:
    """Run the selected criteria (1-based numbers; default all), in order.

    A number that names no criterion raises ValueError before any runs, so
    a wrong selection never reads as an empty pass."""
    for idx in numbers or ():
        _check_criterion_number(idx)
    reports = []
    for idx, (name, fn) in enumerate(CRITERIA, start=1):
        if numbers is not None and idx not in numbers:
            continue
        start = time.monotonic()
        try:
            passed, detail = fn(full)
        except Exception as exc:  # a crash is a failure with the error as payload
            passed, detail = False, f"exception: {exc!r}"
        reports.append(VerifyReport(idx, name, passed, time.monotonic() - start, detail))
    return reports

