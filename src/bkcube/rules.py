"""Single inference rules on degrees and profiles.

Each minimisation rule returns a RuleOutcome carrying every candidate it
weighed, so a derivation can be replayed and displayed term by term.  The
partition rules take their minimum from one knapsack table on plain ints
and build their candidate lists only when first read.  The
face-relation helpers (``fr_*``) and the stable shifts return bare degrees;
callers wanting them in a trace wrap the inputs into candidates themselves.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from .core import INF, Degree, Mode, Profile, as_degree, deg_min, integer_partitions, partition_count


@dataclass(frozen=True, slots=True)
class Candidate:
    """One term of a minimisation.

    Identified either by the partition blocks that produced it or by a
    short label; ``terms`` holds the addends when the value is a sum.
    """

    value: Degree
    blocks: tuple[int, ...] | None = None
    label: str | None = None
    terms: tuple[Degree, ...] = ()

    def describe(self) -> str:
        name = f"[{','.join(map(str, self.blocks))}]" if self.blocks is not None else self.label
        if len(self.terms) > 1:
            addends = "+".join(str(t) for t in self.terms).replace("+-", "-")
            return f"{name}: {addends} = {self.value}"
        return f"{name}: {self.value}"


def _check_minimum(rule: str, result: Degree, expect: Degree) -> None:
    if result != expect:
        raise ValueError(f"{rule}: result {result} is not the candidate minimum {expect}")


class PartitionCandidates(Sequence[Candidate]):
    """The candidates of one partition minimisation, built on first read.

    ``key`` is (d, the rule's base, the degree table c(1..d)); equality and
    hashing go by it.  The first read enumerates the partitions of d in
    ``integer_partitions`` order and raises ValueError unless ``result`` is
    their minimum; ``len`` counts them without enumerating.
    """

    __slots__ = ("rule", "key", "result", "_items")

    def __init__(self, rule: str, d: int, base: int, table: tuple[Degree, ...], result: Degree):
        self.rule, self.key, self.result, self._items = rule, (d, base, table), result, None

    def _read(self) -> tuple[Candidate, ...]:
        if self._items is None:
            d, plain_base, table = self.key
            base, items, low = Degree(plain_base), [], None
            costs = [c.value for c in table]
            for blocks in integer_partitions(d):
                parts, value = [costs[s - 1] for s in blocks], INF
                if None not in parts:
                    total = plain_base + sum(parts)
                    value, low = Degree(total), total if low is None else min(low, total)
                items.append(Candidate(value, blocks, None, (base, *[table[s - 1] for s in blocks])))
            _check_minimum(self.rule, self.result, INF if low is None else Degree(low))
            self._items = tuple(items)
        return self._items

    def __len__(self) -> int:
        return partition_count(self.key[0])

    def __getitem__(self, index):
        return self._read()[index]

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self._read())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartitionCandidates) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


@dataclass(frozen=True, slots=True)
class RuleOutcome:
    """A rule application: its candidates and the minimum it settled on.
    Partition candidates check the minimum when first read, others here."""

    rule: str
    dim: int
    candidates: Sequence[Candidate]
    result: Degree

    def __post_init__(self) -> None:
        cands = self.candidates
        if isinstance(cands, PartitionCandidates):
            if (cands.rule, cands.result) != (self.rule, self.result):
                object.__setattr__(self, "candidates", PartitionCandidates(self.rule, *cands.key, self.result))
        elif cands:
            _check_minimum(self.rule, self.result, deg_min([c.value for c in cands]))

    def describe(self) -> str:
        if not self.candidates:
            return f"{self.rule} d={self.dim} => {self.result}"
        listing = "; ".join(c.describe() for c in self.candidates)
        return f"{self.rule} d={self.dim}: minimum of {listing} => {self.result}"


class DegreeTable(Mapping[int, Degree]):
    """One profile's degrees c(1) = conn1 and c(s), s = 2..n, read as the
    mapping of s >= 2.  Its knapsack minima for every d <= n are built once,
    on first use, so the partition rules at every d share one O(n^2) table."""

    __slots__ = ("costs", "_best")

    def __init__(self, costs: tuple[Degree, ...]) -> None:
        self.costs, self._best = costs, None

    def __getitem__(self, s: int) -> Degree:
        if not 2 <= s <= len(self.costs):
            raise KeyError(s)
        return self.costs[s - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(range(2, len(self.costs) + 1))

    def __len__(self) -> int:
        return len(self.costs) - 1

    def best(self, d: int) -> int | None:
        """min over the partitions of d of the sum of c(block); None is
        infinite.  The first call fills best[m] = min_s c(s) + best[m - s]."""
        if self._best is None:
            costs, best = [c.value for c in self.costs], [0]
            for _ in costs:  # pairs c(s) with best[m - s] for s = 1..m
                sums = [c + r for c, r in zip(costs, reversed(best)) if c is not None and r is not None]
                best.append(min(sums, default=None))
            self._best = best
        return self._best[d]


def _partition_rule(
    rule: str, d: int, base: int, conn1: Degree | int, by_dim: Mapping[int, Degree | int], what: str
) -> RuleOutcome:
    if d < 2:
        raise ValueError(f"{rule} needs d >= 2, got {d}")
    table = by_dim
    if not (isinstance(table, DegreeTable) and d <= len(table.costs) and table.costs[0] == conn1):
        for s in range(2, d + 1):
            if s not in by_dim:
                raise ValueError(f"missing {what} degree for dimension {s}")
        table = DegreeTable((as_degree(conn1), *(as_degree(by_dim[s]) for s in range(2, d + 1))))
    low = table.best(d)
    result = INF if low is None else Degree(base + low)
    return RuleOutcome(rule, d, PartitionCandidates(rule, d, base, table.costs[:d], result), result)


def hbm_cartesian(d: int, conn1: Degree | int, cocart: Mapping[int, Degree | int]) -> RuleOutcome:
    """Cartesian degree of a d-cube from cocartesian data (higher
    Blakers-Massey shape).

    Minimises 1 - d + sum of c(s) over the integer partitions of d, with
    c(1) = conn1 and c(s) = cocart[s] for larger blocks.
    """
    return _partition_rule("hbm_cartesian", d, 1 - d, conn1, cocart, "cocartesian")


def dual_hbm_cocartesian(d: int, conn1: Degree | int, cart: Mapping[int, Degree | int]) -> RuleOutcome:
    """Cocartesian degree of a d-cube from cartesian data (dual shape):
    minimises d - 1 + sum of c(s) over the integer partitions of d."""
    return _partition_rule("dual_hbm_cocartesian", d, d - 1, conn1, cart, "cartesian")


def stable_cart_from_cocart(d: int, k: Degree | int) -> Degree:
    """k-cocartesian to cartesian for a d-cube of spectra: k - d + 1.

    Stably the total cofibre of a d-cube is the d-fold suspension of its
    total fibre, so the two degrees sit exactly d - 1 apart; the infinite
    estimate is preserved.
    """
    if d < 1:
        raise ValueError(f"stable shift needs d >= 1, got {d}")
    return as_degree(k) + (1 - d)


def stable_cocart_from_cart(d: int, k: Degree | int) -> Degree:
    """Inverse shift of stable_cart_from_cocart at the same d: k + d - 1."""
    if d < 1:
        raise ValueError(f"stable shift needs d >= 1, got {d}")
    return as_degree(k) + (d - 1)


def fr_square_from_legs(m: Degree | int) -> Degree:
    """Cartesian degree of a square whose two parallel legs are
    m-connected: m - 1."""
    return as_degree(m) - 1


def fr_source_from_total(total: Degree | int, target_face: Degree | int) -> Degree:
    """Cartesian degree of the source face of a cube, from the whole cube
    and the target face: the minimum of the two."""
    return deg_min([total, target_face])


def fr_total_from_faces(source_face: Degree | int, target_face: Degree | int) -> Degree:
    """Cartesian degree of a whole cube from its source and target faces:
    min(source, target - 1)."""
    return deg_min([as_degree(source_face), as_degree(target_face) - 1])


def fr_parallel_map(square_cart: Degree | int, other_map_conn: Degree | int) -> Degree:
    """Connectivity of one leg of a square from the square's cartesian
    degree and the opposite leg: the minimum of the two."""
    return deg_min([square_cart, other_map_conn])


def compose_connectivity(conns: Iterable[Degree | int]) -> Degree:
    """Connectivity of a composite of maps: the minimum of the stages."""
    return deg_min(conns)


def object_to_map_connectivity(k: Degree | int) -> Degree:
    """A k-connected retractive object has a (k+1)-connected structure
    map."""
    return as_degree(k) + 1


def fiber_transfer(total: Profile, base: Profile) -> Profile:
    """Cartesian profile of the fibrewise fibre of a map of cubes.

    Supported exactly when both inputs are cartesian cubes of one
    dimension with conn1 = 3 and degree(d) = d + 2 throughout; the fibre
    cube then carries conn1 = 2 and degree(d) = d + 1.  Anything else is
    an error rather than a guess.
    """
    if total.dim != base.dim:
        raise ValueError(f"fiber_transfer needs equal dims, got {total.dim} and {base.dim}")
    for name, p in (("total", total), ("base", base)):
        if p.mode is not Mode.CARTESIAN:
            raise ValueError(f"fiber_transfer needs cartesian profiles; {name} is {p.mode.value}")
        for d in range(1, p.dim + 1):
            if p.degree(d) != Degree(d + 2):
                raise ValueError(
                    f"fiber_transfer supports only conn1=3, degree(d)=d+2 inputs; "
                    f"{name} has degree {p.degree(d)} at dimension {d}"
                )
    dim = total.dim
    return Profile(dim, Degree(2), Mode.CARTESIAN, {d: Degree(d + 1) for d in range(2, dim + 1)})
