"""End-to-end acceptance run: every headline guarantee of the package,
executed exactly (integer arithmetic, no tolerances), one criterion per test.

Each test prints a single PASS/FAIL line outside pytest's capture so the
summary is always visible, and enforces a wall-clock budget.
"""

from rectchar.verify import run_criteria

BUDGETS = {
    1: 60.0,
    2: 5.0,
    3: 5.0,
    4: 10.0,
    5: 30.0,
    6: 60.0,
    7: 30.0,
    8: 60.0,
    9: 60.0,
    10: 60.0,
    11: 600.0,
    12: 60.0,
}


def _run(number: int, capsys) -> None:
    (report,) = run_criteria([number])
    status = "PASS" if report.passed else "FAIL"
    line = (
        f"{status} criterion {number:2d}/12 ({report.name}): {report.detail} "
        f"[{report.elapsed:.2f}s]"
    )
    with capsys.disabled():
        print(line, flush=True)
    assert report.passed, line
    budget = BUDGETS[number]
    assert report.elapsed <= budget, (
        f"criterion {number} ({report.name}) took {report.elapsed:.2f}s, "
        f"budget {budget:.0f}s"
    )


def test_criterion_01_theorem1_grid(capsys):
    _run(1, capsys)


def test_criterion_02_lemma_exhaustive(capsys):
    _run(2, capsys)


def test_criterion_03_hook_multisets(capsys):
    _run(3, capsys)


def test_criterion_04_two_rect_reference_data(capsys):
    _run(4, capsys)


def test_criterion_05_special_value_integrality(capsys):
    _run(5, capsys)


def test_criterion_06_frobenius_vs_strips(capsys):
    _run(6, capsys)


def test_criterion_07_leading_terms_routes(capsys):
    _run(7, capsys)


def test_criterion_08_catalan_narayana_schroeder(capsys):
    _run(8, capsys)


def test_criterion_09_factorization_counts(capsys):
    _run(9, capsys)


def test_criterion_10_elizalde_closed_form(capsys):
    _run(10, capsys)


def test_criterion_11_conjecture_sweep(capsys):
    _run(11, capsys)


def test_criterion_12_shape_sum_vs_pair_sum(capsys):
    _run(12, capsys)
