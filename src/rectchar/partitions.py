"""Integer partitions, Young diagrams, hooks, contents, and box complements.

Conventions used throughout the package: English notation, cells are 1-based
(row, column) pairs with row 1 at the top.  A partition is a tuple of weakly
decreasing positive integers; the empty partition is ().  Serialized form is
comma separated parts ("4,3,1") with "-" standing for the empty partition.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import Counter
from collections.abc import Iterable, Iterator

Partition = tuple[int, ...]
Cell = tuple[int, int]
CellSet = frozenset[Cell]


def _integers(parts: Iterable[int]) -> tuple[int, ...]:
    """The parts as a tuple of ints; a part that is not an integer is rejected,
    never truncated.  The parts are converted in one map, and only a failed
    conversion looks for the part to name."""
    try:
        parts = tuple(parts)
    except TypeError:
        raise ValueError(f"parts must be a sequence of integers: {parts!r}") from None
    try:
        return tuple(map(operator.index, parts))
    except TypeError:
        for x in parts:
            try:
                operator.index(x)
            except TypeError:
                raise ValueError(f"parts must be integers: {x!r}") from None
        raise


def _size(x: int) -> int:
    """A size as an int; a size that is not an integer is rejected, never
    truncated or used as it is."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"sizes must be integers: {x!r}") from None


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize a part sequence to a partition tuple, dropping trailing zeros.

    This is the one validator of shapes: public functions call it once on
    their argument and hand the result to private kernels that trust it.
    """
    lam = _integers(parts)
    end = len(lam)
    while end and lam[end - 1] == 0:
        end -= 1
    lam = lam[:end]
    if lam and min(lam) <= 0:
        raise ValueError(f"parts must be positive: {lam}")
    if not all(map(operator.ge, lam, lam[1:])):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse the serialized form: "4,3,1" or "-" for the empty partition."""
    if not isinstance(text, str):
        raise ValueError(f"not a partition string: {text!r}")
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        parts = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise ValueError(f"not a partition string: {text!r}") from None
    return as_partition(parts)


def format_partition(lam: Partition) -> str:
    """The serialized form of a partition, which parse_partition reads back."""
    lam = as_partition(lam)
    return ",".join(str(x) for x in lam) if lam else "-"


def _box(p: int, q: int) -> tuple[int, int]:
    """The sides of the p-by-q rectangle, checked as rectangle checks them,
    for callers that never build its rows."""
    p, q = _size(p), _size(q)
    if p < 0 or q < 0:
        raise ValueError("rectangle sides must be nonnegative")
    if q and p > sys.maxsize:
        raise ValueError(f"rectangle side p = {p} is more rows than a tuple holds")
    return p, q


def rectangle(p: int, q: int) -> Partition:
    """The p-by-q rectangular partition (p rows of length q)."""
    p, q = _box(p, q)
    return (q,) * p if q else ()


def fits_in_box(lam: Partition, p: int, q: int) -> bool:
    """lam has at most p parts, each at most q."""
    lam = as_partition(lam)
    p, q = _size(p), _size(q)
    if p < 0 or q < 0:
        raise ValueError("box sides must be nonnegative")
    return len(lam) <= p and (not lam or lam[0] <= q)


def cells(lam: Partition) -> Iterator[Cell]:
    """The cells of lam's diagram, row by row.  Raises ValueError at the call
    when lam is not a partition."""
    lam = as_partition(lam)
    return ((i, j) for i, row in enumerate(lam, start=1) for j in range(1, row + 1))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the diagram: column lengths become row lengths."""
    return _conjugate(as_partition(lam))


def _conjugate(lam: Partition) -> Partition:
    """Column lengths, read in one pass from the bottom row up: row i (1-based)
    ends columns len(conj)+1..lam[i-1], which all have length i."""
    conj: list[int] = []
    for i in range(len(lam), 0, -1):
        conj.extend([i] * (lam[i - 1] - len(conj)))
    return tuple(conj)


def _cell(cell: Cell) -> Cell:
    """A cell, checked: a tuple of two ints, each at least 1."""
    if isinstance(cell, tuple) and len(cell) == 2:
        i, j = cell
        if isinstance(i, int) and isinstance(j, int) and i >= 1 and j >= 1:
            return cell
    raise ValueError(f"malformed cell: {cell!r}")


def content(cell: Cell) -> int:
    """Column index minus row index."""
    i, j = _cell(cell)
    return j - i


def hook_lengths(lam: Partition) -> list[int]:
    """Hook lengths of every cell, row by row."""
    return _hook_lengths(as_partition(lam))


def _hook_lengths(lam: Partition) -> list[int]:
    # 0-based cell (i, j): arm lam[i] - j - 1 plus leg conj[j] - i - 1 plus one
    conj = _conjugate(lam)
    return [row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row)]


def hook_product(lam: Partition) -> int:
    """Product of the hook lengths of lam (H_lam = n!/f^lam)."""
    return _hook_product(as_partition(lam))


def _hook_product(lam: Partition) -> int:
    return math.prod(_hook_lengths(lam))


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    return _syt_count(as_partition(lam))


def _syt_count(lam: Partition) -> int:
    return math.factorial(sum(lam)) // _hook_product(lam)


def complement(lam: Partition, p: int, q: int) -> Partition:
    """Complement of lam inside the p-by-q box, read upper left justified.

    Row i of the complement has q - lam[p + 1 - i] cells, so the box minus a
    180-degree rotated copy of lam removed from its lower right corner.
    """
    lam = as_partition(lam)
    p, q = _size(p), _size(q)
    if not fits_in_box(lam, p, q):
        raise ValueError(f"{lam} does not fit in a {p}x{q} box")
    return _complement(lam, p, q)


def _complement(lam: Partition, p: int, q: int) -> Partition:
    # row i is q - lam[p - i] (1-based, lam padded with zeros); rows of lam
    # as wide as the box leave empty rows, which come last and are dropped
    return rectangle(p - len(lam), q) + tuple(q - x for x in reversed(lam) if x < q)


def sq_shape(lam: Partition, p: int, q: int) -> CellSet:
    """Skew diagram whose hooks are those of the p-by-q box plus those of lam.

    Construction: take the box complement of lam (the box minus a rotated
    copy of lam removed from its lower right corner), then attach the
    180-degree rotation of lam twice: once above the top edge of the box,
    right-aligned with the box's last column, and once to the left of the
    left edge, bottom-aligned with the box's last row.  Coordinates are
    shifted by (len(lam), lam[0]) so every cell stays positive.  The result
    has p*q + |lam| cells and its hook multiset is the disjoint union of the
    hook multisets of the box and of lam (tested exhaustively for p, q <= 5).
    """
    lam = as_partition(lam)
    p, q = _size(p), _size(q)
    if not fits_in_box(lam, p, q):
        raise ValueError(f"{lam} does not fit in a {p}x{q} box")
    ell = len(lam)
    width = lam[0] if lam else 0
    out: set[Cell] = set()
    # rotated copy above the top edge, rows 1..ell, right edge at column width+q
    for r in range(1, ell + 1):
        row_len = lam[ell - r]
        for j in range(width + q - row_len + 1, width + q + 1):
            out.add((r, j))
    # box complement, rows ell+1..ell+p, left edge at column width+1
    for i, row_len in enumerate(_complement(lam, p, q), start=1):
        for j in range(width + 1, width + row_len + 1):
            out.add((ell + i, j))
    # rotated copy left of the left edge, rows p+1..p+ell, right edge at column width
    for r in range(1, ell + 1):
        row_len = lam[ell - r]
        for j in range(width - row_len + 1, width + 1):
            out.add((p + r, j))
    assert len(out) == p * q + sum(lam)
    return frozenset(out)


def cellset_hooks(diagram: CellSet) -> Counter[int]:
    """Hook length multiset of an explicit cell set (arm + leg + 1 by counting).

    Rows of the cell set must be contiguous column intervals.
    """
    try:
        cells_set = set(diagram)
    except TypeError:  # not iterable, or a cell that is not hashable
        raise ValueError(f"not a set of cells: {diagram!r}") from None
    rows: dict[int, list[int]] = {}
    for cell in cells_set:
        i, j = _cell(cell)
        rows.setdefault(i, []).append(j)
    for i, cols in rows.items():
        if max(cols) - min(cols) + 1 != len(cols):
            raise ValueError(f"row {i} is not contiguous")
    hooks: Counter[int] = Counter()
    for i, j in cells_set:
        arm = sum(1 for jj in rows[i] if jj > j)
        leg = sum(1 for ii, jj in cells_set if jj == j and ii > i)
        hooks[arm + leg + 1] += 1
    return hooks


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest part first, in reverse lexicographic order.

    Each partition is reached from the one before in place, so no recursion
    depth grows with the number of parts.  Raises ValueError at the call
    when n is negative or not an integer.
    """
    n = _size(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _partitions_of(n)


def _partitions_of(n: int) -> Iterator[Partition]:
    lam = [n] if n else []
    while True:
        yield tuple(lam)
        # next in reverse lexicographic order: lower the rightmost part above
        # 1 by one and refill the cells after it greedily, none above it
        tail = 0
        for i in range(len(lam) - 1, -1, -1):
            part = lam[i] - 1
            if part:
                whole, rest = divmod(tail + 1, part)
                lam[i:] = [part] * (whole + 1) + ([rest] if rest else [])
                break
            tail += lam[i]
        else:
            return


def partitions_in_box(p: int, q: int) -> Iterator[Partition]:
    """All partitions with at most p parts, each at most q (the empty one included).

    Every shape comes before its extensions, with larger parts first: the
    order of a depth-first walk that adds one row at a time.  Raises
    ValueError at the call, as rectangle does, when a side is negative or
    not an integer.
    """
    p, q = _size(p), _size(q)
    if p < 0 or q < 0:
        raise ValueError("box sides must be nonnegative")
    return _partitions_in_box(p, q)


def _partitions_in_box(p: int, q: int) -> Iterator[Partition]:
    lam: list[int] = []
    yield ()
    while True:
        cap = lam[-1] if lam else q
        if len(lam) < p and cap > 0:
            lam.append(cap)
        else:
            while lam and lam[-1] == 1:
                lam.pop()
            if not lam:
                return
            lam[-1] -= 1
        yield tuple(lam)
