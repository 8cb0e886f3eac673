"""Principal Schur specializations and the hook-product lemma tying them together.

s_lam(1^a) has the cell-product form prod (a + content)/hook; substituting a
negative argument is legitimate because the product is a polynomial in a, and
it transposes: s_lam at -q equals (-1)^|lam| times the conjugate shape at q.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import (
    Partition,
    as_partition,
    cells,
    content,
    fits_in_box,
    complement,
    hook_product,
    rectangle,
)


def content_product(lam: Partition, shift: int) -> int:
    """prod over cells of (shift + content)."""
    out = 1
    for cell in cells(as_partition(lam)):
        out *= shift + content(cell)
    return out


def schur_principal(lam: Partition, p: int) -> Fraction | int:
    """Schur function of shape lam at p variables all set to 1.

    A negative p gives the polynomial continuation used by the lemma.
    """
    lam = as_partition(lam)
    value = Fraction(content_product(lam, p), hook_product(lam))
    return int(value) if value.denominator == 1 else value


def lemma_check(lam: Partition, p: int, q: int) -> bool:
    """Box hook product as a signed product over a contained shape.

    Checks hook_product(p-by-q box) == (-1)^|lam| * hook_product(lam)
    * hook_product(complement) * schur_principal(lam, p) * schur_principal(lam, -q)
    exactly.
    """
    lam = as_partition(lam)
    if not fits_in_box(lam, p, q):
        raise ValueError(f"{lam} does not fit in a {p}x{q} box")
    sign = -1 if sum(lam) % 2 else 1
    rhs = (
        sign
        * hook_product(lam)
        * hook_product(complement(lam, p, q))
        * schur_principal(lam, p)
        * schur_principal(lam, -q)
    )
    return hook_product(rectangle(p, q)) == rhs
