"""Principal Schur specializations and the hook-product lemma tying them together.

s_lam(1^a) has the cell-product form prod (a + content)/hook; substituting a
negative argument is legitimate because the product is a polynomial in a, and
it transposes: s_lam at -q equals (-1)^|lam| times the conjugate shape at q.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .partitions import (
    Partition,
    _complement,
    _hook_product,
    as_partition,
    fits_in_box,
    rectangle,
)


def _content_product(lam: Partition, shift: int) -> int:
    """prod over cells of (shift + content), content = column - row."""
    return math.prod(shift + j - i for i, row in enumerate(lam) for j in range(row))


def schur_principal(lam: Partition, p: int) -> Fraction | int:
    """Schur function of shape lam at p variables all set to 1.

    A negative p gives the polynomial continuation used by the lemma.
    """
    lam = as_partition(lam)
    value = Fraction(_content_product(lam, p), _hook_product(lam))
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
    hooks = _hook_product(lam)
    rhs = (
        sign
        * hooks
        * _hook_product(_complement(lam, p, q))
        * Fraction(_content_product(lam, p), hooks)
        * Fraction(_content_product(lam, -q), hooks)
    )
    return _hook_product(rectangle(p, q)) == rhs
