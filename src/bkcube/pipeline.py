"""Profile transforms and the iterated loop-suspension pipeline.

A transform takes a profile and hands back a new one; the traced variants
also report the rule applications they made.  ``iterate`` drives the
loop-suspension step until the profile stops moving and records the whole
run as a Derivation.

Conventions: the connectivity of a comparison map is read off a profile as
its full-cube cartesian degree.  An extent r >= 2 is applied as one block
shift per step (the records carry the extent, so traces show it).  A 1-cube
profile is accepted by every transform in either mode; only its tag flips.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

from .core import Degree, Mode, Profile, check_r
from .rules import (
    Candidate,
    DegreeTable,
    RuleOutcome,
    dual_hbm_cocartesian,
    fiber_transfer,
    hbm_cartesian,
    stable_cart_from_cocart,
)

DEFAULT_MAX_ITERS = 32
MAX_ITERS_ENV = "BKCUBE_MAX_ITERS"


def default_max_iters() -> int:
    """Iteration bound: BKCUBE_MAX_ITERS when set, else 32."""
    raw = os.environ.get(MAX_ITERS_ENV)
    if raw is None:
        return DEFAULT_MAX_ITERS
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ValueError(f"{MAX_ITERS_ENV} must be a positive integer, got {raw!r}")
    return bound


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One transform inside a step: what ran, the rule applications it
    made, and the profile it produced."""

    transform: str
    amount: int | float | None
    outcomes: tuple[RuleOutcome, ...]
    profile: Profile


@dataclass(frozen=True, slots=True)
class IterationStep:
    """One pass of the pipeline: its 1-based index, the transform records
    in order, and the resulting profile."""

    index: int
    records: tuple[StepRecord, ...]
    profile: Profile


@dataclass(frozen=True, slots=True)
class Derivation:
    """A full traced run: initial profile, the steps taken, and the first
    index (if any) at which the output repeated its input."""

    label: str
    initial: Profile
    r: int | float | None
    steps: tuple[IterationStep, ...]
    stabilized_at: int | None

    def __hash__(self) -> int:
        # equal derivations agree on these; hashing the steps too would cost a walk of the trace
        return hash((self.label, self.initial, self.r, len(self.steps), self.stabilized_at))


def _require_mode(p: Profile, mode: Mode, op: str) -> None:
    if p.dim >= 2 and p.mode is not mode:
        raise ValueError(f"{op} needs a {mode.value} profile, got {p.mode.value}")


def _check_shift(r: int, op: str) -> int:
    if isinstance(r, bool) or not isinstance(r, int) or r < 0:
        raise ValueError(f"{op} extent must be a non-negative integer, got {r!r}")
    return r


def suspend(p: Profile, r: int = 1) -> Profile:
    """r suspensions: every degree climbs by r.  Needs a cocartesian
    profile (1-cubes excepted); r >= 2 lands as a single block."""
    _require_mode(p, Mode.COCARTESIAN, "suspend")
    _check_shift(r, "suspend")
    return p.shifted(r) if r else p


def loop(p: Profile, r: int = 1) -> Profile:
    """r loopings: every degree drops by r.  Needs a cartesian profile
    (1-cubes excepted)."""
    _require_mode(p, Mode.CARTESIAN, "loop")
    _check_shift(r, "loop")
    return p.shifted(-r) if r else p


def _per_dimension(p: Profile, transform: str) -> tuple[Profile, tuple[RuleOutcome, ...]]:
    """dualize, cartesianize or stabilize: the other mode's degrees 2..dim,
    one rule outcome each.  The rules all read one DegreeTable of the
    profile, so the partition minima come from one knapsack table."""
    mode = Mode.CARTESIAN if transform == "dualize" else Mode.COCARTESIAN
    _require_mode(p, mode, transform)
    if p.dim == 1:
        return p.with_mode(mode.dual), ()
    rules = {"dualize": dual_hbm_cocartesian, "cartesianize": hbm_cartesian, "stabilize": _stable_shift}
    table = DegreeTable((p.conn1, *p.degrees))
    outcomes = tuple(rules[transform](d, p.conn1, table) for d in range(2, p.dim + 1))
    return Profile(p.dim, p.conn1, mode.dual, {o.dim: o.result for o in outcomes}), outcomes


def _cartesianize(p: Profile) -> tuple[Profile, tuple[RuleOutcome, ...]]:
    return _per_dimension(p, "cartesianize")


def _stable_shift(d: int, conn1: Degree, cocart: DegreeTable) -> RuleOutcome:
    value = stable_cart_from_cocart(d, cocart[d])
    cand = Candidate(value=value, label="stable shift", terms=(cocart[d], Degree(1 - d)))
    return RuleOutcome("stable_shift", d, (cand,), value)


def dualize(p: Profile) -> Profile:
    """Cocartesian degrees of a cartesian profile, one dual minimisation
    per dimension."""
    return _per_dimension(p, "dualize")[0]


def cartesianize(p: Profile) -> Profile:
    """Cartesian degrees of a cocartesian profile, one minimisation per
    dimension."""
    return _cartesianize(p)[0]


def stabilize_spectra(p: Profile) -> Profile:
    """Stable (r = inf) passage: cartesian degree d reads the cocartesian
    one shifted down by d - 1; conn1 is untouched."""
    return _per_dimension(p, "stabilize")[0]


def omega_sigma_step(
    p: Profile, r: int | float = 1, first_step: bool = False
) -> tuple[Profile, tuple[StepRecord, ...]]:
    """One pass of the loop-suspension pipeline.

    Unless this is the first step the profile arrives cartesian and is
    dualized first.  A finite extent then suspends, takes cartesian
    degrees, and loops back down; the infinite extent stabilises instead.
    """
    r = check_r(r)
    records: list[StepRecord] = []
    current = p

    def record(transform: str, amount: int | float | None, out: Profile, outcomes) -> Profile:
        records.append(StepRecord(transform, amount, tuple(outcomes), out))
        return out

    if first_step:
        _require_mode(current, Mode.COCARTESIAN, "first step")
    else:
        current = record("dualize", None, *_per_dimension(current, "dualize"))
    if r == math.inf:
        current = record("stabilize", None, *_per_dimension(current, "stabilize"))
    else:
        current = record("suspend", r, suspend(current, r), ())
        current = record("cartesianize", None, *_per_dimension(current, "cartesianize"))
        current = record("loop", r, loop(current, r), ())
    return current, tuple(records)


def iterate(
    p: Profile,
    r: int | float = 1,
    max_iters: int | None = None,
    label: str = "",
) -> Derivation:
    """Drive omega_sigma_step from p until the profile repeats or the
    bound runs out.

    The first step is taken as such exactly when p arrives cocartesian.
    ``stabilized_at`` is the first index whose output equals its input
    (the initial profile counts as iteration zero's output), so a fixed
    point stabilises at 1.
    """
    r = check_r(r)
    if max_iters is None:
        max_iters = default_max_iters()
    if isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters < 1:
        raise ValueError(f"max_iters must be a positive integer, got {max_iters!r}")
    steps: list[IterationStep] = []
    current = p
    for index in range(1, max_iters + 1):
        first = index == 1 and p.mode is Mode.COCARTESIAN
        nxt, records = omega_sigma_step(current, r, first_step=first)
        steps.append(IterationStep(index, records, nxt))
        if nxt == current:
            break
        current = nxt
    return Derivation(label, p, r, tuple(steps), stabilized_at(p, steps))


def stabilized_at(initial: Profile, steps: Sequence[IterationStep]) -> int | None:
    """Index of the first step whose profile equals the one before it (the
    initial profile precedes the first step), or None."""
    befores = [initial, *(step.profile for step in steps)]
    return next((step.index for step, before in zip(steps, befores) if step.profile == before), None)


def apply_transform(
    p: Profile, transform: str, amount: int | float | None = None
) -> tuple[Profile, tuple[RuleOutcome, ...]]:
    """Apply one named transform; the vocabulary of StepRecord.transform."""
    if transform in ("dualize", "cartesianize", "stabilize"):
        return _per_dimension(p, transform)
    if transform == "suspend":
        return suspend(p, 1 if amount is None else amount), ()
    if transform == "loop":
        return loop(p, 1 if amount is None else amount), ()
    if transform == "fiber_transfer":
        return fiber_transfer(p, p), ()
    if transform == "declare":
        raise ValueError("declare records replay from their stored profile")
    raise ValueError(f"unknown transform {transform!r}")


def replay(derivation: Derivation) -> Derivation:
    """Re-execute a derivation record by record from its initial profile.

    Produces a fresh Derivation with recomputed profiles, outcomes and
    stabilisation index; equality with the original is the determinism
    check.  ``declare`` records (from scripts) reinstate their stored
    profile.
    """
    current = derivation.initial
    steps = []
    for step in derivation.steps:
        records = []
        for rec in step.records:
            if rec.transform == "declare":
                current, outcomes = rec.profile, ()
            else:
                current, outcomes = apply_transform(current, rec.transform, rec.amount)
            records.append(replace(rec, outcomes=tuple(outcomes), profile=current))
        steps.append(IterationStep(step.index, tuple(records), current))
    stabilized = stabilized_at(derivation.initial, steps)
    return Derivation(derivation.label, derivation.initial, derivation.r, tuple(steps), stabilized)
