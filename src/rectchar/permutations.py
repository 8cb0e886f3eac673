"""Permutations of {1..k} in one-line notation and cycle-type representatives.

A permutation w is stored as a tuple of images: w[i - 1] is the image of i.
Composition is (u * v)(i) = u(v(i)), so the right factor acts first.
"""

from __future__ import annotations

import math
from collections import Counter

from .partitions import Partition, as_partition

Permutation = tuple[int, ...]


def compose(u: Permutation, v: Permutation) -> Permutation:
    """(u * v)(i) = u(v(i))."""
    if len(u) != len(v):
        raise ValueError("degree mismatch")
    return tuple(u[x - 1] for x in v)


def inverse(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for i, img in enumerate(w, start=1):
        inv[img - 1] = i
    return tuple(inv)


def canonical_permutation(mu: Partition) -> Permutation:
    """The permutation whose cycles are consecutive blocks 1..mu_1, mu_1+1.., etc."""
    mu = as_partition(mu)
    images: list[int] = []
    start = 1
    for part in mu:
        block = list(range(start + 1, start + part)) + [start]
        images.extend(block)
        start += part
    return tuple(images)


def centralizer_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    mu = as_partition(mu)
    mult = Counter(mu)
    return math.prod(
        part**count * math.factorial(count) for part, count in mult.items()
    )
