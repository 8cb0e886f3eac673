from rectchar.characters import (
    mn_character,
    normalized_character,
    rect_character_sum,
    rect_normalized_via_hooks,
)
from rectchar.factorization import factorization_poly
from rectchar.frobenius import f_k_polynomial
from rectchar.interpolation import f_mu_interpolate
from rectchar.partitions import partitions_of, rectangle
from rectchar.verify import (
    CRITERIA,
    REFERENCE_FLIPPED_TWO_RECT,
    VerifyReport,
    catalan_number,
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


def test_exception_becomes_failure(monkeypatch):
    import rectchar.verify as verify_mod

    def explodes(full=False):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify_mod, "CRITERIA", [("explodes", explodes)])
    reports = run_criteria()
    assert len(reports) == 1
    assert reports[0].passed is False
    assert "RuntimeError" in reports[0].detail


def test_consistency_spot_checks_clean():
    """Cross-module identities too small for their own criterion."""
    for p in range(1, 5):
        for q in range(1, 5):
            box = rectangle(p, q)
            for k in range(1, min(6, p * q) + 1):
                for mu in partitions_of(k):
                    direct = mn_character(box, mu + (1,) * (p * q - k))
                    assert rect_character_sum(p, q, mu) == direct, (p, q, mu)
                    via_hooks = rect_normalized_via_hooks(p, q, mu)
                    assert via_hooks == normalized_character(box, mu), (p, q, mu)
    for m in (1, 2):
        for k in range(1, 4):
            assert f_mu_interpolate(m, (k,)) == f_k_polynomial(m, k), (m, k)
    for k in range(1, 7):
        assert f_k_polynomial(1, k) == factorization_poly((k,)), k
