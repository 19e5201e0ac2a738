"""Core value types: connectivity degrees, integer partitions, cube profiles.

A degree is an integer or the infinite estimate; addition absorbs into
infinity and comparison places infinity above every finite value.  A profile
records, for an n-cube whose faces behave uniformly per dimension, the map
connectivity of its 1-faces and one cartesian or cocartesian degree per
sub-dimension 2..n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class Degree:
    """A connectivity estimate: a finite integer or the infinite estimate.

    Finite values may be negative.  There is no negative infinity; nothing
    here can construct one.  Finite arithmetic is exact at any magnitude.
    """

    value: int | None

    def __post_init__(self) -> None:
        v = self.value
        if v is None:
            return
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"degree must be an int or None (infinite), got {v!r}")

    @classmethod
    def parse(cls, text: str) -> Degree:
        """Read a degree from its textual form: an optionally signed
        integer, or ``inf``."""
        text = text.strip()
        if text == "inf":
            return INF
        try:
            return cls(int(text))
        except ValueError:
            raise ValueError(f"not a degree: {text!r}") from None

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def finite(self) -> int:
        """The integer value; raises on the infinite estimate."""
        if self.value is None:
            raise ValueError("degree is infinite")
        return self.value

    def __add__(self, other: Degree | int) -> Degree:
        other = as_degree(other)
        if self.value is None or other.value is None:
            return INF
        return Degree(self.value + other.value)

    __radd__ = __add__

    def __sub__(self, amount: int) -> Degree:
        if isinstance(amount, bool) or not isinstance(amount, int):
            return NotImplemented
        return self + (-amount)

    def __lt__(self, other: Degree | int) -> bool:
        other = as_degree(other)
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def __repr__(self) -> str:
        return f"Degree({self})"


INF = Degree(None)


def as_degree(value: Degree | int) -> Degree:
    if isinstance(value, Degree):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a Degree or int, got {value!r}")
    return Degree(value)


def deg_add(a: Degree | int, b: Degree | int) -> Degree:
    """Exact degree addition; anything involving the infinite estimate is
    infinite."""
    return as_degree(a) + as_degree(b)


def deg_min(values: Iterable[Degree | int]) -> Degree:
    """Minimum of one or more degrees; every finite value beats infinity.

    An empty collection is an error: there is no neutral element on offer.
    """
    coerced = [as_degree(v) for v in values]
    if not coerced:
        raise ValueError("deg_min needs at least one value")
    return min(coerced)


def _partitions(d: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if d == 0:
        yield ()
        return
    for first in range(min(d, max_part), 0, -1):
        for rest in _partitions(d - first, first):
            yield (first, *rest)


@functools.lru_cache(maxsize=None)
def integer_partitions(d: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of d into positive parts.

    Each partition lists its parts in non-increasing order and the
    partitions themselves come in decreasing lexicographic order, so
    ``integer_partitions(3)`` is ``((3,), (2, 1), (1, 1, 1))``.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"partitions need a positive integer, got {d!r}")
    return tuple(_partitions(d, d))


@functools.lru_cache(maxsize=None)
def partition_count(d: int) -> int:
    """p(d), the number of partitions of d, counted without enumerating."""
    counts = [1] + [0] * d
    for part in range(1, d + 1):
        for m in range(part, d + 1):
            counts[m] += counts[m - part]
    return counts[d]


class Mode(str, Enum):
    """Which family of degrees a profile carries."""

    CARTESIAN = "cartesian"
    COCARTESIAN = "cocartesian"

    @property
    def dual(self) -> Mode:
        return Mode.COCARTESIAN if self is Mode.CARTESIAN else Mode.CARTESIAN

    @property
    def short(self) -> str:
        return "cart" if self is Mode.CARTESIAN else "cocart"


@dataclass(frozen=True, init=False, slots=True)
class Profile:
    """Connectivity data of an n-cube, uniform per face dimension.

    ``conn1`` is the connectivity of the 1-dimensional faces (the maps);
    ``degrees`` holds one degree for each sub-dimension 2..dim, all tagged
    with a single mode.  Construction demands exactly those keys.
    Transforms never mutate; they hand back new profiles.
    """

    dim: int
    conn1: Degree
    mode: Mode
    degrees: tuple[Degree, ...]

    def __init__(
        self,
        dim: int,
        conn1: Degree | int,
        mode: Mode | str,
        degrees: Mapping[int, Degree | int] | None = None,
    ) -> None:
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        given = dict(degrees or {})
        wanted = range(2, dim + 1)
        if set(given) != set(wanted):
            raise ValueError(
                f"profile of dim {dim} needs degrees for exactly {{2..{dim}}}, "
                f"got keys {sorted(given)}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "conn1", as_degree(conn1))
        object.__setattr__(self, "mode", Mode(mode))
        object.__setattr__(self, "degrees", tuple(as_degree(given[d]) for d in wanted))

    def degree(self, d: int) -> Degree:
        """Degree recorded for dimension d; d == 1 reads conn1."""
        if d == 1:
            return self.conn1
        if not 2 <= d <= self.dim:
            raise ValueError(f"profile of dim {self.dim} has no dimension {d}")
        return self.degrees[d - 2]

    @property
    def full_degree(self) -> Degree:
        """Degree of the whole cube; for a 1-cube this is the map
        connectivity."""
        return self.degree(self.dim)

    def degree_map(self) -> dict[int, Degree]:
        return {d: self.degrees[d - 2] for d in range(2, self.dim + 1)}

    def shifted(self, amount: int) -> Profile:
        """Every degree moved by amount; the infinite estimate stays put."""
        return Profile(
            self.dim,
            self.conn1 + amount,
            self.mode,
            {d: v + amount for d, v in self.degree_map().items()},
        )

    def with_mode(self, mode: Mode) -> Profile:
        return Profile(self.dim, self.conn1, mode, self.degree_map())

    def describe(self) -> str:
        head = f"{self.dim}-cube {self.mode.value} (conn1={self.conn1}"
        if self.dim == 1:
            return head + ")"
        pairs = ", ".join(f"{d}={v}" for d, v in self.degree_map().items())
        return f"{head}; {self.mode.short} {pairs})"


def check_r(r: int | float) -> int | float:
    """Validate a suspension/loop extent: a positive integer or math.inf."""
    if isinstance(r, bool):
        raise TypeError("r must be a positive integer or inf")
    if isinstance(r, int):
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        return r
    if isinstance(r, float) and r == math.inf:
        return math.inf
    raise ValueError(f"r must be a positive integer or inf, got {r!r}")


def fmt_r(r: int | float) -> str:
    return "inf" if r == math.inf else str(r)


def parse_r(text: str) -> int | float:
    text = text.strip()
    if text == "inf":
        return math.inf
    try:
        return check_r(int(text))
    except ValueError:
        raise ValueError(f"not a valid r: {text!r}") from None


@dataclass(frozen=True, slots=True)
class ParameterSet:
    """Validated triple of the standing parameters: relative connectivity
    k_rel >= 0, extent r (positive or infinite), cube stage n >= 0."""

    k_rel: Degree
    r: int | float
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_rel", as_degree(self.k_rel))
        if self.k_rel < 0:
            raise ValueError(f"k_rel must be >= 0, got {self.k_rel}")
        object.__setattr__(self, "r", check_r(self.r))
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"n must be a non-negative integer, got {self.n!r}")
