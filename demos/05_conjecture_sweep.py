#!/usr/bin/env python3
"""Positivity sweep for stacked-rectangle character polynomials.

For shapes built from m stacked rectangles, the normalized character at a
cycle type mu extends to a polynomial in the 2m side lengths. The open
question: after the sign-normalizing flip, are all coefficients nonnegative
integers, with total sum counting a family of lattice paths? This script
recovers the polynomials by exact interpolation on the lower set cut out by
their degree bounds and checks every property.
"""

from rectchar import (
    conjecture1_check,
    default_names,
    format_partition,
    off_grid_fidelity,
    partitions_of,
)


def main() -> None:
    print("Interpolated two-rectangle polynomials, flipped:")
    for mu in [(1,), (2,), (3,), (2, 1), (1, 1)]:
        report = conjecture1_check(2, mu)
        fidelity = off_grid_fidelity(2, mu, report.poly, samples=10)
        flags = []
        flags.append("integer" if report.integer_coefficients else "NON-INTEGER")
        flags.append("nonnegative" if report.nonnegative else "NEGATIVE")
        flags.append(
            "sum ok" if report.coefficient_sum == report.expected_sum else
            f"sum {report.coefficient_sum} != {report.expected_sum}"
        )
        flags.append("off-grid ok" if fidelity else "OFF-GRID FAIL")
        print(f"\n  mu = {format_partition(mu)}  "
              f"[{', '.join(flags)}]")
        print(f"    {report.flipped.to_string(default_names(2))}")

    print()
    print("Three stacked rectangles, every cycle type of size at most 3:")
    for k in range(1, 4):
        for mu in partitions_of(k):
            report = conjecture1_check(3, mu)
            fidelity = off_grid_fidelity(3, mu, report.poly, samples=10)
            print(f"  mu = {format_partition(mu):<6}"
                  f"integer: {report.integer_coefficients}, "
                  f"nonnegative: {report.nonnegative}, "
                  f"coefficient sum: {report.coefficient_sum} "
                  f"(expected {report.expected_sum}), "
                  f"off-grid: {'ok' if fidelity else 'FAIL'}")

    print()
    print("All findings above are exact — no floating point anywhere.")


if __name__ == "__main__":
    main()
