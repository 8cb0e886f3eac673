import decimal
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rectchar import characters, cli, factorization
from rectchar.polynomials import MultivarPoly


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


def test_chi(capsys):
    code, out, _ = run_cli(capsys, "chi", "--shape", "3,3", "--type", "3,1,1,1")
    assert (code, out) == (0, "-1")


def test_chi_deep_type(capsys):
    # 1000 transpositions recurse 1000 levels deep; the trivial character is 1
    twos = ",".join(["2"] * 1000)
    code, out, _ = run_cli(capsys, "chi", "--shape", "2000", "--type", twos)
    assert (code, out) == (0, "1")


def test_chi_rectangle_flags(capsys):
    code, out, _ = run_cli(capsys, "chi", "--p", "2", "--q", "2", "--type", "2,1,1")
    assert (code, out) == (0, "0")


def test_normalized(capsys):
    code, out, _ = run_cli(capsys, "normalized", "--shape", "2,2,2", "--mu", "2")
    assert (code, out) == (0, "-6")


def _digits(value: int) -> str:
    """value in decimal, by a route that Python's int-to-str digit limit
    does not cover."""
    return str(decimal.Decimal(value))


def _str_digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_answers_past_the_str_digit_limit_print_in_full(capsys):
    # f^lam of the 60-by-60 box has 5018 digits and (3000)_2000 has 6564,
    # above the default limit of 4300; the caller's limit is kept
    from rectchar.partitions import rectangle, syt_count

    limit = _str_digit_limit()
    ones = ",".join(["1"] * 3600)
    code, out, err = run_cli(capsys, "chi", "--p", "60", "--q", "60", "--type", ones)
    expected = _digits(syt_count(rectangle(60, 60)))
    assert (code, out, err) == (0, expected, "") and len(expected) == 5018
    mu = ",".join(["1"] * 2000)
    code, out, err = run_cli(capsys, "normalized", "--p", "3000", "--q", "1", "--mu", mu)
    expected = _digits(math.perm(3000, 2000))
    assert (code, out, err) == (0, expected, "") and len(expected) == 6564
    code, out, err = run_cli(
        capsys, "normalized", "--p", "3000", "--q", "1", "--mu", mu, "--json"
    )
    assert (code, err) == (0, "") and json.loads(out)["value"] == expected
    assert _str_digit_limit() == limit


def test_theorem1_poly(capsys):
    code, out, _ = run_cli(capsys, "theorem1", "--mu", "2")
    assert (code, out) == (0, "-p^2*q + p*q^2")


def test_theorem1_poly_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "theorem1", "--mu", "2,1", "--json")
    assert code == 0
    terms = json.loads(out)
    poly = MultivarPoly.from_json_terms(2, terms)
    from rectchar.factorization import factorization_poly

    assert poly == factorization_poly((2, 1))


def test_theorem1_evaluation(capsys):
    code, out, _ = run_cli(capsys, "theorem1", "--mu", "2,1", "--p", "3", "--q", "4")
    assert code == 0
    from rectchar.characters import normalized_character
    from rectchar.partitions import rectangle

    assert int(out) == normalized_character(rectangle(3, 4), (2, 1))


def test_theorem1_reads_a_tall_box_as_one_block(capsys):
    # p = 3 * 10^8 rows would take gigabytes as a tuple; the box's one block
    # is read in O(1), and at (2, 2) the column's value is (p)_4
    code, out, _ = run_cli(capsys, "theorem1", "--mu", "2,2", "--p", "300000000", "--q", "1")
    assert (code, out) == (0, str(math.perm(300000000, 4)))


def test_theorem1_refuses_the_cap_before_reading_the_box(capsys, monkeypatch):
    # the pair sum goes first: k = 11 is refused before a sweep over the
    # box's 3 * 10^6 beads starts
    def sweep(*args):
        raise AssertionError("the box was swept before the cap was checked")

    monkeypatch.setattr(characters, "_strip_sweep", sweep)
    code, out, err = run_cli(capsys, "theorem1", "--mu", "11", "--p", "3000000", "--q", "1")
    assert (code, out, err) == (2, "", "error: k=11 exceeds enumeration cap 10\n")


def test_lemma_sweep(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--p", "4", "--q", "6")
    assert code == 0
    assert out == "verified 210 shapes in 4x6"


def test_hooks_single(capsys):
    code, out, _ = run_cli(capsys, "hooks", "--p", "3", "--q", "3", "--lam", "2,1")
    assert code == 0
    # the 3x3 box hooks plus the hooks 3, 1, 1 of (2, 1)
    assert "hook multiset: 1^3 2^2 3^4 4^2 5" in out
    assert "multiset union: ok" in out
    assert "product identity: ok" in out


def test_hooks_json(capsys):
    code, out, _ = run_cli(
        capsys, "hooks", "--p", "2", "--q", "2", "--lam", "1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["multiset_ok"] and data["product_ok"]
    assert sum(data["hooks"].values()) == 5


def test_fk_flip_text(capsys):
    code, out, _ = run_cli(capsys, "fk", "--m", "2", "--k", "1", "--flip")
    assert (code, out) == (0, "a*b + p*q")


def test_fk_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "fk", "--m", "2", "--k", "3", "--json")
    assert code == 0
    from rectchar.frobenius import f_k_residue

    assert MultivarPoly.from_json_terms(4, json.loads(out)) == f_k_residue(2, 3)


def test_fk_and_gk_never_reach_the_residue_route(capsys, monkeypatch):
    # F_k and G_k are filled from faces; the residue expansion is only the
    # reference that verify and the tests compare them with
    from rectchar import frobenius
    from rectchar.interpolation import f_k_polynomial
    from rectchar.leading import elizalde_formula, g_k_leading
    from rectchar.verify import REFERENCE_FLIPPED_TWO_RECT

    def refuse(k, upper, lower):
        raise AssertionError("residue route reached")

    monkeypatch.setattr(frobenius, "_residue_character", refuse)
    with pytest.raises(AssertionError, match="residue route reached"):
        frobenius.f_k_residue(1, 1)
    flipped = frobenius.flipped_polynomial(f_k_polynomial(2, 3), 2, 3)
    assert flipped.terms == REFERENCE_FLIPPED_TWO_RECT[3]
    assert frobenius.flipped_polynomial(g_k_leading(2, 3), 2, 3) == elizalde_formula(2, 3)
    assert run_cli(capsys, "fk", "--m", "2", "--k", "1", "--flip")[:2] == (0, "a*b + p*q")
    assert run_cli(capsys, "gk", "--m", "1", "--k", "2", "--flip")[:2] == (0, "p^2*q + p*q^2")


def test_gk(capsys):
    code, out, _ = run_cli(capsys, "gk", "--m", "1", "--k", "2", "--flip")
    assert (code, out) == (0, "p^2*q + p*q^2")


def test_sk(capsys):
    code, out, _ = run_cli(capsys, "sk", "--m", "1", "--kmax", "5")
    assert (code, out) == (0, "1 2 5 14 42")


def test_sk_json(capsys):
    code, out, _ = run_cli(capsys, "sk", "--m", "2", "--kmax", "4", "--json")
    assert code == 0
    assert json.loads(out) == {"m": 2, "values": [2, 6, 22, 90]}


def test_narayana(capsys):
    code, out, _ = run_cli(capsys, "narayana", "--k", "3")
    assert code == 0
    assert "closed form: match" in out


def test_elizalde_check(capsys):
    code, out, _ = run_cli(capsys, "elizalde", "--m", "2", "--k", "2", "--check")
    assert code == 0
    assert out == "a^2*b + 2*a*p*q + a*b^2 + p^2*q + p*q^2"


def test_elizalde_budget_edge():
    # one rectangle takes (k + 2)^2 steps, 6324^2 inside the budget
    assert cli._elizalde_oversize(1, 6322) is None
    assert cli._elizalde_oversize(1, 6323) == "40005625"


@pytest.mark.parametrize(
    "m, k, work",
    [
        ("1", "6323", "40005625"),
        ("40", "3", "152522460"),
        # C(a + b, b) >= 2^min(a, b) refuses both at once, with no binomial
        ("9223372036854775807", "9223372036854775807", "over 2^9223372036854775808"),
    ],
)
def test_elizalde_over_its_budget_is_a_usage_error(capsys, m, k, work):
    assert run_cli(capsys, "elizalde", "--m", m, "--k", k) == (
        2,
        "",
        f"error: m={m}, k={k} takes {work} steps (C(k + 2m, k + 1) exponent "
        "vectors times 2m + k), above the bound 40000000\n",
    )


def test_catalan_pairs(capsys):
    code, out, _ = run_cli(capsys, "catalan-pairs", "--k", "5")
    assert (code, out) == (0, "42")


def test_conjecture_text(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--m", "2", "--mu", "2")
    assert code == 0
    assert "integer coefficients: yes" in out
    assert "coefficient sum: 6 (expected 6)" in out
    assert "off-grid fidelity: pass" in out


def test_conjecture_json(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--m", "1", "--mu", "1,1", "--samples", "5"
    )
    assert code == 0


def test_verify_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "2,4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("[ 2/12] lemma-exhaustive")
    assert lines[1].startswith("[ 4/12] two-rect-reference-data")
    assert lines[-1] == "2/2 criteria passed"


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert data[0]["name"] == "two-rect-reference-data"
    assert data[0]["passed"] is True


def test_verify_failure_exit_code(capsys, monkeypatch):
    import rectchar.verify as verify_mod

    def broken(full=False):
        return False, "forced failure for the exit-code contract"

    monkeypatch.setattr(verify_mod, "CRITERIA", [("forced-failure", broken)])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL" in out


def test_usage_errors(capsys):
    assert run_cli(capsys, "chi", "--type", "2")[0] == 2
    assert run_cli(capsys, "fk", "--m", "0", "--k", "1")[0] == 2
    assert run_cli(capsys, "normalized", "--shape", "1,2", "--mu", "1")[0] == 2
    assert run_cli(capsys, "theorem1", "--mu", "5", "--p", "1", "--q", "2")[0] == 2
    assert run_cli(capsys, "verify", "--only", "99")[0] == 2


@pytest.mark.parametrize("only", ["a", "4,,4", "2,x", ""])
def test_only_with_a_non_integer_chunk_is_a_usage_error(capsys, only):
    code, out, err = run_cli(capsys, "verify", "--only", only)
    assert (code, out) == (2, "")
    assert err == f"error: --only takes comma-separated criterion numbers, got {only!r}\n"


def test_unknown_subcommand(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0


def test_shape_flag_conflicts(capsys):
    code, _, err = run_cli(
        capsys, "chi", "--shape", "2,1", "--p", "2", "--q", "2", "--type", "2,1"
    )
    assert code == 2
    assert "not both" in err


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_sk", broken)
    code, out, err = run_cli(capsys, "sk", "--m", "1", "--kmax", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("--mu", "2", "--p", "3"), "give both --p and --q, or neither"),
        (("--mu", "2", "--p", "0", "--q", "3"), "p must be a positive integer, got 0"),
        (("--mu", "5", "--p", "1", "--q", "2"), "|mu| = 5 exceeds |lam| = 2"),
    ],
)
def test_theorem1_usage_errors_come_before_enumeration(capsys, monkeypatch, argv, err):
    def enumerate_pairs(mu):
        raise AssertionError("the pair sum was enumerated before validation")

    monkeypatch.setattr(factorization, "_pair_sum", enumerate_pairs)
    code, out, stderr = run_cli(capsys, "theorem1", *argv)
    assert (code, out, stderr) == (2, "", f"error: {err}\n")


def test_negative_samples_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "conjecture", "--m", "1", "--mu", "1", "--samples", "-3"
    )
    assert (code, out) == (2, "")
    assert err == "error: samples must be nonnegative, got -3\n"
    code, out, _ = run_cli(
        capsys, "conjecture", "--m", "1", "--mu", "1", "--samples", "0"
    )
    assert code == 0
    assert "(0 samples)" in out


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_nonpositive_node_budget_is_a_usage_error(capsys, budget):
    code, out, err = run_cli(
        capsys, "conjecture", "--m", "1", "--mu", "1", "--max-nodes", budget
    )
    assert (code, out) == (2, "")
    assert err == f"error: max-nodes must be a positive integer, got {budget}\n"


BIG = "10000000000000000000"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("sk", "--m", "1", "--kmax", BIG), f"error: kmax={BIG} is too large\n"),
        (
            # fits a machine index, but its values would not fit in memory
            ("sk", "--m", "1", "--kmax", "4611686018427387904"),
            "error: kmax=4611686018427387904 exceeds the cap 1500\n",
        ),
        (("sk", "--m", "2", "--kmax", "1501"), "error: kmax=1501 exceeds the cap 1500\n"),
        (("fk", "--m", "1", "--k", BIG), f"error: k={BIG} is too large\n"),
        (("gk", "--m", "1", "--k", BIG), f"error: k={BIG} is too large\n"),
        (
            ("catalan-pairs", "--k", BIG),
            f"error: k={BIG} exceeds enumeration cap 10\n",
        ),
        (
            # (m + 1)^2 nodes
            ("conjecture", "--m", BIG, "--mu", "1"),
            "error: grid has 100000000000000000020000000000000000001 nodes, "
            "above the limit 20000; raise max_nodes to force the run\n",
        ),
        (
            # rejected before sampling, which would otherwise run until killed
            ("conjecture", "--m", "1", "--mu", "1", "--samples", BIG),
            f"error: samples={BIG} is too large\n",
        ),
    ],
    ids=[
        "sk",
        "sk-over-cap",
        "sk-cap-plus-one",
        "fk",
        "gk",
        "catalan-pairs",
        "conjecture",
        "conjecture-samples",
    ],
)
def test_argument_too_large_for_the_machine_is_a_usage_error(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err)


def test_fk_refusal_names_no_option(capsys):
    # fk has no node budget to raise, so its refusal names none
    assert run_cli(capsys, "fk", "--m", "1000000", "--k", "5") == (
        2,
        "",
        "error: grid has 86112002781430563097230483337900001 nodes, above the "
        "limit 9223372036854775807\n",
    )


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (
            ArithmeticError("S_3 came out non-integral"),
            1,
            "check failed: S_3 came out non-integral\n",
        ),
        (
            ZeroDivisionError("division by zero"),
            3,
            "internal error: ZeroDivisionError: division by zero\n",
        ),
    ],
    ids=["plain", "subclass"],
)
def test_only_a_plain_arithmetic_error_is_a_failed_check(
    capsys, monkeypatch, exc, code, err
):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_sk", broken)
    assert run_cli(capsys, "sk", "--m", "1", "--kmax", "2") == (code, "", err)


def test_closed_stdout_ends_the_run_quietly():
    # the reader is gone before the child writes: every write hits a closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "rectchar.cli", "fk", "--m", "3", "--k", "6"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, b"")
