"""The canonical permutation of a cycle type, in one-line notation.

A permutation w is stored as a tuple of images: w[i - 1] is the image of i.
"""

from __future__ import annotations

from .partitions import Partition, as_partition

Permutation = tuple[int, ...]


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
