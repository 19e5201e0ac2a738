"""Independent brute-force oracles used to check the package.

Everything here works on plain ints with math.inf standing in for the
infinite estimate, deliberately sharing no arithmetic with the package.
"""

from __future__ import annotations

import math
from typing import Iterator

Num = float  # int or math.inf


def set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    """Every partition of a finite set into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]
        yield [[first]] + partial


def block_size_multisets(d: int) -> set[tuple[int, ...]]:
    """Distinct multisets of block sizes over all set partitions of
    {1..d}, each as a non-increasing tuple."""
    seen = set()
    for partition in set_partitions(list(range(1, d + 1))):
        seen.add(tuple(sorted((len(b) for b in partition), reverse=True)))
    return seen


def bm_min_over_set_partitions(base: Num, conn1: Num, table: dict[int, Num], d: int) -> Num:
    """min over set partitions P of {1..d} of base + sum of c(|block|),
    with c(1) = conn1 and c(s) = table[s] for s >= 2."""
    sizes = dict(table)
    sizes[1] = conn1
    best = math.inf
    for partition in set_partitions(list(range(1, d + 1))):
        total = base
        for block in partition:
            total = _add(total, sizes[len(block)])
        best = min(best, total)
    return best


def _add(a: Num, b: Num) -> Num:
    """Exact sum: math.inf absorbs without turning a huge int into a float."""
    return math.inf if math.inf in (a, b) else a + b


def hbm_oracle(d: int, conn1: Num, cocart: dict[int, Num]) -> Num:
    return bm_min_over_set_partitions(1 - d, conn1, cocart, d)


def dual_hbm_oracle(d: int, conn1: Num, cart: dict[int, Num]) -> Num:
    return bm_min_over_set_partitions(d - 1, conn1, cart, d)


def as_num(degree) -> Num:
    """Package Degree -> plain number, via the public value field only."""
    return math.inf if degree.value is None else degree.value
