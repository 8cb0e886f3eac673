"""Command-line front end.

Exit codes: 0 on success, 1 when a mathematical check fails, 2 on usage
errors, 3 on an internal error: any other exception, reported on stderr as
"internal error: <Type>: <message>" without a traceback.  A reader that
closes stdout early (``rectchar fk --m 3 --k 6 | head``) is not an error:
the run stops quietly with exit code 0.  Answers of any length are
printed in full: Python's limit on int-to-str digits is lifted while a
command runs and restored afterwards.  Every polynomial
is printed in canonical order (total degree descending, ties by leading
exponents descending); --json switches to the documented term schema.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .characters import mn_character, normalized_character
from .factorization import (
    _theorem1_sides,
    catalan_pair_count,
    factorization_poly,
    narayana_refinement,
)
from .frobenius import flipped_polynomial
from .interpolation import (
    DEFAULT_MAX_NODES,
    conjecture1_check,
    f_k_polynomial,
    off_grid_fidelity,
)
from .leading import elizalde_formula, g_k_leading, narayana_number, s_k_sequence
from .partitions import (
    fits_in_box,
    format_partition,
    parse_partition,
    partitions_in_box,
    rectangle,
)
from .polynomials import MultivarPoly, default_names
from .schur import lemma_check
from .verify import CRITERIA, _check_criterion_number, hook_identities, run_criteria


# sk --kmax 250 takes about 10 s at m = sys.maxsize and 1.3 s at m = 2 on a
# 2-core Xeon host, and each doubling of kmax costs about ten times more
_SK_KMAX_CAP = 250


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _require_positive(name: str, value: int) -> int:
    """value, if it is a positive integer that fits a machine index."""
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    if value > sys.maxsize:
        raise ValueError(f"{name}={value} is too large")
    return value


def _resolve_shape(args) -> tuple[int, ...]:
    if args.shape is not None:
        if args.p is not None or args.q is not None:
            raise ValueError("give either --shape or --p/--q, not both")
        return parse_partition(args.shape)
    if args.p is None or args.q is None:
        raise ValueError("give --shape, or both --p and --q for a rectangle")
    return rectangle(_require_positive("p", args.p), _require_positive("q", args.q))


def _print_poly(poly: MultivarPoly, m: int, as_json: bool) -> None:
    if as_json:
        _emit_json(poly.to_json_terms())
    else:
        print(poly.to_string(default_names(m)))


def cmd_chi(args) -> int:
    shape = _resolve_shape(args)
    cycle_type = parse_partition(args.type)
    print(mn_character(shape, cycle_type))
    return 0


def cmd_normalized(args) -> int:
    shape = _resolve_shape(args)
    mu = parse_partition(args.mu)
    value = normalized_character(shape, mu)
    if args.json:
        _emit_json({"shape": list(shape), "mu": list(mu), "value": str(value)})
    else:
        print(value)
    return 0


def cmd_theorem1(args) -> int:
    mu = parse_partition(args.mu)
    if not mu:
        raise ValueError("mu must be a nonempty partition")
    if args.p is None and args.q is None:
        _print_poly(factorization_poly(mu), 1, args.json)
        return 0
    if args.p is None or args.q is None:
        raise ValueError("give both --p and --q, or neither")
    p = _require_positive("p", args.p)
    q = _require_positive("q", args.q)
    lhs, rhs = _theorem1_sides(p, q, mu)
    if lhs != rhs:
        print(f"MISMATCH: character route {lhs}, pair-sum route {rhs}")
        return 1
    if args.json:
        _emit_json({"p": p, "q": q, "mu": list(mu), "value": str(lhs)})
    else:
        print(lhs)
    return 0


def _sweep_box(p: int, q: int, check, suffix: str) -> int:
    """Run check(lam) on every shape in the p-by-q box; stop at a failure."""
    count = 0
    for lam in partitions_in_box(p, q):
        if not check(lam):
            print(f"FAIL at lam={format_partition(lam)}")
            return 1
        count += 1
    print(f"verified {count} shapes in {p}x{q}{suffix}")
    return 0


def cmd_lemma(args) -> int:
    p = _require_positive("p", args.p)
    q = _require_positive("q", args.q)
    if args.lam is None:
        return _sweep_box(p, q, lambda lam: lemma_check(lam, p, q), "")
    lam = parse_partition(args.lam)
    if not lemma_check(lam, p, q):
        print(f"FAIL: lemma does not hold for lam={format_partition(lam)}")
        return 1
    print(f"verified lam={format_partition(lam)} in {p}x{q}")
    return 0


def cmd_hooks(args) -> int:
    p = _require_positive("p", args.p)
    q = _require_positive("q", args.q)
    if args.lam is None:
        suffix = " (multiset and product)"
        return _sweep_box(p, q, lambda lam: all(hook_identities(lam, p, q)[1:]), suffix)
    lam = parse_partition(args.lam)
    if not fits_in_box(lam, p, q):
        raise ValueError(f"lam={format_partition(lam)} does not fit in {p}x{q}")
    hooks, multiset_ok, product_ok = hook_identities(lam, p, q)
    hooks = dict(sorted(hooks.items()))
    if args.json:
        _emit_json(
            {
                "lam": list(lam),
                "p": p,
                "q": q,
                "hooks": {str(h): c for h, c in hooks.items()},
                "multiset_ok": multiset_ok,
                "product_ok": product_ok,
            }
        )
    else:
        body = " ".join(f"{h}^{c}" if c > 1 else str(h) for h, c in hooks.items())
        print(f"hook multiset: {body}")
        print(f"multiset union: {'ok' if multiset_ok else 'FAIL'}")
        print(f"product identity: {'ok' if product_ok else 'FAIL'}")
    return 0 if multiset_ok and product_ok else 1


def cmd_poly(args) -> int:
    """fk and gk: the polynomial args.build(m, k), optionally flipped."""
    m = _require_positive("m", args.m)
    k = _require_positive("k", args.k)
    poly = args.build(m, k)
    if args.flip:
        poly = flipped_polynomial(poly, m, k)
    _print_poly(poly, m, args.json)
    return 0


def cmd_sk(args) -> int:
    m = _require_positive("m", args.m)
    kmax = _require_positive("kmax", args.kmax)
    if kmax > _SK_KMAX_CAP:
        raise ValueError(f"kmax={kmax} exceeds the cap {_SK_KMAX_CAP}")
    values = s_k_sequence(m, kmax)
    if args.json:
        _emit_json({"m": m, "values": values})
    else:
        print(" ".join(str(v) for v in values))
    return 0


def cmd_narayana(args) -> int:
    k = _require_positive("k", args.k)
    counts = narayana_refinement(k)
    expected = {i: narayana_number(k, i) for i in range(1, k + 1)}
    matches = counts == expected
    if args.json:
        _emit_json(
            {
                "k": k,
                "counts": {str(i): c for i, c in sorted(counts.items())},
                "matches_closed_form": matches,
            }
        )
    else:
        for i in range(1, k + 1):
            print(f"i={i}: {counts.get(i, 0)} (closed form {expected[i]})")
        print(f"row sum: {sum(counts.values())}")
        print(f"closed form: {'match' if matches else 'MISMATCH'}")
    return 0 if matches else 1


def cmd_elizalde(args) -> int:
    m = _require_positive("m", args.m)
    k = _require_positive("k", args.k)
    poly = elizalde_formula(m, k)
    if args.check:
        oracle = flipped_polynomial(g_k_leading(m, k), m, k)
        if poly != oracle:
            diff = poly - oracle
            print("MISMATCH against the leading-term route; difference:")
            print(diff.to_string(default_names(m)))
            return 1
    _print_poly(poly, m, args.json)
    return 0


def cmd_catalan_pairs(args) -> int:
    k = args.k
    if k < 1:  # no size check: the enumeration cap bounds k
        raise ValueError(f"k must be a positive integer, got {k}")
    count = catalan_pair_count(k)
    if args.json:
        _emit_json({"k": k, "count": count})
    else:
        print(count)
    return 0


def cmd_conjecture(args) -> int:
    m = args.m
    if m < 1:  # no size check: the node budget bounds m
        raise ValueError(f"m must be a positive integer, got {m}")
    mu = parse_partition(args.mu)
    if not mu:
        raise ValueError("mu must be a nonempty partition")
    if args.samples < 0:
        raise ValueError(f"samples must be nonnegative, got {args.samples}")
    if args.samples > sys.maxsize:
        raise ValueError(f"samples={args.samples} is too large")
    if args.max_nodes < 1:  # no size check: a huge budget forces the run
        raise ValueError(f"max-nodes must be a positive integer, got {args.max_nodes}")
    report = conjecture1_check(m, mu, max_nodes=args.max_nodes)
    fidelity_ok = off_grid_fidelity(
        m, mu, report.poly, samples=args.samples, seed=args.seed
    )
    passed = report.passed and fidelity_ok
    if args.json:
        payload = report.to_dict()
        payload["off_grid_ok"] = fidelity_ok
        payload["off_grid_samples"] = args.samples
        _emit_json(payload)
        return 0 if passed else 1
    print(f"m={m}, mu={format_partition(mu)}, k={report.k}")
    print(f"integer coefficients: {'yes' if report.integer_coefficients else 'NO'}")
    print(f"nonnegative after flip: {'yes' if report.nonnegative else 'NO'}")
    print(
        f"coefficient sum: {report.coefficient_sum} "
        f"(expected {report.expected_sum})"
    )
    print(f"off-grid fidelity: {'pass' if fidelity_ok else 'FAIL'} "
          f"({args.samples} samples)")
    if report.integer_coefficients:
        print(f"flipped polynomial: {report.flipped.to_string(default_names(m))}")
    for finding in report.findings:
        print(f"finding: {finding}")
    return 0 if passed else 1


def cmd_verify(args) -> int:
    numbers = None
    if args.only is not None:
        numbers = []
        for chunk in args.only.split(","):
            try:
                idx = int(chunk)
            except ValueError:
                raise ValueError(
                    f"--only takes comma-separated criterion numbers, got {args.only!r}"
                ) from None
            # checked chunk by chunk, so the first bad chunk is the one named
            _check_criterion_number(idx)
            numbers.append(idx)
    reports = run_criteria(numbers=numbers, full=args.full)
    if args.json:
        _emit_json([r.to_dict() for r in reports])
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(
                f"[{r.number:2d}/{len(CRITERIA)}] {r.name:<28} {status:<4} "
                f"{r.elapsed:8.2f}s  {r.detail}"
            )
        passed = sum(1 for r in reports if r.passed)
        print(f"{passed}/{len(reports)} criteria passed")
    return 0 if all(r.passed for r in reports) else 1


def _add_shape_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--shape", help="partition as comma-separated parts")
    sub.add_argument("--p", type=int, help="rectangle rows (with --q)")
    sub.add_argument("--q", type=int, help="rectangle columns (with --p)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectchar",
        description="Exact character computations for rectangular shapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("chi", help="irreducible character value")
    _add_shape_flags(s)
    s.add_argument("--type", required=True, help="full cycle type, e.g. 3,1,1,1")
    s.set_defaults(handler=cmd_chi)

    s = sub.add_parser("normalized", help="normalized character value")
    _add_shape_flags(s)
    s.add_argument("--mu", required=True, help="partition of the moved points")
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_normalized)

    s = sub.add_parser("theorem1", help="pair-sum polynomial or its evaluation")
    s.add_argument("--mu", required=True)
    s.add_argument("--p", type=int)
    s.add_argument("--q", type=int)
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_theorem1)

    s = sub.add_parser("lemma", help="hook-product lemma over a box")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--lam", help="single shape instead of the whole box")
    s.set_defaults(handler=cmd_lemma)

    s = sub.add_parser("hooks", help="hook multiset union and product identity")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--lam", help="single shape instead of the whole box")
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_hooks)

    s = sub.add_parser("fk", help="single-cycle polynomial F_k")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--flip", action="store_true", help="print (-1)^k F_k(q->-q)")
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_poly, build=f_k_polynomial)

    s = sub.add_parser("gk", help="leading homogeneous part G_k")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--flip", action="store_true")
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_poly, build=g_k_leading)

    s = sub.add_parser("sk", help="coefficient-sum sequence S_1..S_kmax")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--kmax", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_sk)

    s = sub.add_parser("narayana", help="cycle-count refinement vs closed form")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_narayana)

    s = sub.add_parser("elizalde", help="closed-form flipped leading terms")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--check", action="store_true", help="compare to the oracle")
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_elizalde)

    s = sub.add_parser("catalan-pairs", help="full-cycle factorization count")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_catalan_pairs)

    s = sub.add_parser("conjecture", help="interpolate F_mu and run the checks")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--mu", required=True)
    s.add_argument("--samples", type=int, default=20)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_conjecture)

    s = sub.add_parser("verify", help="run the acceptance checks")
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", help="default grid")
    mode.add_argument("--full", action="store_true", help="one notch larger")
    s.add_argument("--only", help="comma-separated criterion numbers")
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # the limit dates from Python 3.11; without it there is nothing to lift
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise  # the reader closed stdout; main() ends the run quietly
    except (ValueError, OverflowError) as exc:
        # OverflowError: an argument too large for a machine-sized integer
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a failed check raises plain ArithmeticError; subclasses are faults
        if type(exc) is ArithmeticError:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe may first show here
    except BrokenPipeError:
        # send what is still buffered to devnull so shutdown stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
