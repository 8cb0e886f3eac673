import pytest

from rectchar import verify
from rectchar.verify import (
    CRITERIA,
    REFERENCE_FLIPPED_TWO_RECT,
    VerifyReport,
    catalan_number,
    criterion_conjecture_sweep,
    run_criteria,
)

from oracles import CATALAN


def test_criteria_roster():
    assert len(CRITERIA) == 12
    names = [name for name, _ in CRITERIA]
    assert names[0] == "theorem1-grid"
    assert names[3] == "two-rect-reference-data"
    assert names[11] == "shape-sum-vs-pair-sum"
    assert len(set(names)) == 12


def test_reference_tables_are_plausible():
    assert set(REFERENCE_FLIPPED_TWO_RECT) == {1, 2, 3, 4}
    for k, table in REFERENCE_FLIPPED_TWO_RECT.items():
        assert all(coef > 0 for coef in table.values())
        assert all(len(exps) == 4 for exps in table)
        # every non-constant term mixes a row variable with a column variable
        assert all(
            (e[0] + e[1] > 0) and (e[2] + e[3] > 0) for e in table if any(e)
        )


def test_catalan_number_helper():
    assert [catalan_number(i) for i in range(len(CATALAN))] == CATALAN


def test_run_criteria_subset_orders_and_reports():
    reports = run_criteria(numbers=[4, 2])
    assert [r.number for r in reports] == [2, 4]
    for r in reports:
        assert isinstance(r, VerifyReport)
        assert r.passed is True
        assert r.elapsed >= 0.0
        assert r.detail
        d = r.to_dict()
        assert d["number"] == r.number and d["passed"] is True


@pytest.mark.parametrize("numbers", [[99], [-1], [0], [2, 13]])
def test_unknown_criterion_numbers_raise_before_any_run(monkeypatch, numbers):
    ran = []
    monkeypatch.setattr(verify, "CRITERIA", [(name, ran.append) for name, _ in CRITERIA])
    bad = next(x for x in numbers if not 1 <= x <= 12)
    with pytest.raises(ValueError, match=f"^criterion number out of range: {bad}$"):
        run_criteria(numbers)
    assert ran == []


def test_exception_becomes_failure(monkeypatch):
    import rectchar.verify as verify_mod

    def explodes(full=False):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify_mod, "CRITERIA", [("explodes", explodes)])
    reports = run_criteria()
    assert len(reports) == 1
    assert reports[0].passed is False
    assert "RuntimeError" in reports[0].detail



def test_full_conjecture_sweep_adds_three_rectangles():
    # m = 2 with k <= 5 (18 cycle types), then m = 3 with k <= 3 (6 more);
    # at m = 1 every mu of size at most 8 (66 of them) against the pair sum
    assert criterion_conjecture_sweep(full=True) == (
        True,
        "24 cycle types swept with 20 off-grid spot checks each; "
        "F_mu at m=1 equals the pair sum for 66 mu",
    )


def test_residue_reference_never_reads_the_face_fill(monkeypatch):
    from rectchar import interpolation
    from rectchar.frobenius import integrality_witness

    def refuse(s, nu):
        raise AssertionError("face fill reached")

    monkeypatch.setattr(interpolation, "_face", refuse)
    with pytest.raises(AssertionError, match="face fill reached"):
        interpolation.f_k_polynomial(1, 2)
    assert integrality_witness(2, 3)
    assert verify.criterion_reference_data() == (
        True,
        "k=1..4 two-rectangle polynomials reproduced verbatim",
    )


def test_box_sweeps_report_their_first_failure(monkeypatch):
    assert verify.criterion_lemma() == (True, "912 shapes verified")
    assert verify.criterion_hooks() == (
        True,
        "912 skew shapes verified (multiset and product)",
    )
    monkeypatch.setattr(verify, "lemma_check", lambda lam, p, q: lam != (2, 1))
    assert verify.criterion_lemma() == (False, "lemma fails at p=2, q=2, lam=(2, 1)")
    monkeypatch.setattr(
        verify, "hook_identities", lambda lam, p, q: (None, True, q < 3)
    )
    assert verify.criterion_hooks() == (
        False,
        "hook product form off at p=1, q=3, lam=()",
    )
