"""The hook-product lemma for a shape inside a box, checked in integers.

The principal specialization s_lam(1^a) is the cell product
prod (a + content)/hook, a polynomial in a, so a negative argument is
legitimate and transposes: s_lam at -q equals (-1)^|lam| times the conjugate
shape at q.  Only the content products are computed; the hook product in the
denominator is multiplied through.
"""

from __future__ import annotations

import math

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


def lemma_check(lam: Partition, p: int, q: int) -> bool:
    """Box hook product as a signed product over a contained shape.

    H_box = (-1)^|lam| H_lam H_complement s_lam(1^p) s_lam(1^-q), multiplied
    through by H_lam and checked in integers, since s_lam(1^a) is
    content_product(lam, a) / H_lam.
    """
    lam = as_partition(lam)
    if not fits_in_box(lam, p, q):
        raise ValueError(f"{lam} does not fit in a {p}x{q} box")
    sign = -1 if sum(lam) % 2 else 1
    return _hook_product(rectangle(p, q)) * _hook_product(lam) == (
        sign
        * _hook_product(_complement(lam, p, q))
        * _content_product(lam, p)
        * _content_product(lam, -q)
    )
