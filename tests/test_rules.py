import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from bkcube import rules
from bkcube.core import INF, Degree, Mode, Profile, deg_min, integer_partitions
from bkcube.pipeline import iterate, replay
from bkcube.rules import (
    Candidate,
    DegreeTable,
    RuleOutcome,
    compose_connectivity,
    dual_hbm_cocartesian,
    fiber_transfer,
    fr_parallel_map,
    fr_source_from_total,
    fr_square_from_legs,
    fr_total_from_faces,
    hbm_cartesian,
    object_to_map_connectivity,
    stable_cart_from_cocart,
    stable_cocart_from_cart,
)

from _oracles import as_num, dual_hbm_oracle, hbm_oracle

GRID = [Degree(v) for v in range(-2, 9)] + [INF]


def to_degree(num) -> Degree:
    return INF if num == math.inf else Degree(int(num))


def test_hbm_square_with_infinite_pushout():
    out = hbm_cartesian(2, Degree(1), {2: INF})
    assert [c.value for c in out.candidates] == [INF, Degree(1)]
    assert [c.blocks for c in out.candidates] == [(2,), (1, 1)]
    assert out.result == Degree(1)


def test_hbm_square_after_one_suspension():
    out = hbm_cartesian(2, Degree(2), {2: INF})
    assert [c.describe() for c in out.candidates] == ["[2]: -1+inf = inf", "[1,1]: -1+2+2 = 3"]
    assert out.result == Degree(3)


def test_hbm_three_cube():
    out = hbm_cartesian(3, Degree(1), {2: Degree(3), 3: Degree(3)})
    assert [(c.blocks, c.value) for c in out.candidates] == [
        ((3,), Degree(1)),
        ((2, 1), Degree(2)),
        ((1, 1, 1), Degree(1)),
    ]
    assert out.result == Degree(1)


def test_hbm_three_cube_all_infinite_pushouts():
    out = hbm_cartesian(3, Degree(2), {2: INF, 3: INF})
    assert [c.describe() for c in out.candidates] == [
        "[3]: -2+inf = inf",
        "[2,1]: -2+inf+2 = inf",
        "[1,1,1]: -2+2+2+2 = 4",
    ]
    assert out.result == Degree(4)


def test_dual_hbm_square():
    out = dual_hbm_cocartesian(2, Degree(1), {2: Degree(2)})
    assert [c.describe() for c in out.candidates] == ["[2]: 1+2 = 3", "[1,1]: 1+1+1 = 3"]
    assert out.result == Degree(3)


def test_dual_hbm_three_cube():
    out = dual_hbm_cocartesian(3, Degree(1), {2: Degree(2), 3: Degree(3)})
    assert [c.describe() for c in out.candidates] == [
        "[3]: 2+3 = 5",
        "[2,1]: 2+2+1 = 5",
        "[1,1,1]: 2+1+1+1 = 5",
    ]
    assert out.result == Degree(5)


def test_dual_hbm_fixed_point_values():
    assert dual_hbm_cocartesian(2, Degree(2), {2: Degree(3)}).result == Degree(4)
    out = dual_hbm_cocartesian(3, Degree(2), {2: Degree(3), 3: Degree(4)})
    assert [c.describe() for c in out.candidates] == [
        "[3]: 2+4 = 6",
        "[2,1]: 2+3+2 = 7",
        "[1,1,1]: 2+2+2+2 = 8",
    ]
    assert out.result == Degree(6)


def test_hbm_rejects_small_or_incomplete_input():
    with pytest.raises(ValueError):
        hbm_cartesian(1, Degree(1), {})
    with pytest.raises(ValueError):
        hbm_cartesian(3, Degree(1), {2: INF})
    with pytest.raises(ValueError):
        dual_hbm_cocartesian(1, Degree(1), {})


def test_all_infinite_inputs_stay_infinite():
    for d in (2, 3, 4):
        table = {s: INF for s in range(2, d + 1)}
        assert hbm_cartesian(d, INF, table).result == INF
        assert dual_hbm_cocartesian(d, INF, table).result == INF
    assert stable_cart_from_cocart(3, INF) == INF
    assert stable_cocart_from_cart(3, INF) == INF
    assert fr_square_from_legs(INF) == INF
    assert fr_source_from_total(INF, INF) == INF
    assert fr_total_from_faces(INF, INF) == INF
    assert fr_parallel_map(INF, INF) == INF
    assert compose_connectivity([INF, INF]) == INF
    assert object_to_map_connectivity(INF) == INF


def test_stable_shifts():
    assert stable_cart_from_cocart(2, Degree(3)) == Degree(2)
    assert stable_cocart_from_cart(2, Degree(2)) == Degree(3)
    assert stable_cart_from_cocart(1, Degree(7)) == Degree(7)
    assert stable_cocart_from_cart(1, Degree(7)) == Degree(7)
    with pytest.raises(ValueError):
        stable_cart_from_cocart(0, Degree(1))


def test_stable_shifts_mutually_inverse():
    for d in range(1, 7):
        for k in GRID:
            assert stable_cocart_from_cart(d, stable_cart_from_cocart(d, k)) == k
            assert stable_cart_from_cocart(d, stable_cocart_from_cart(d, k)) == k


def test_face_relation_helpers():
    assert fr_square_from_legs(Degree(3)) == Degree(2)
    assert fr_square_from_legs(INF) == INF
    assert fr_source_from_total(Degree(2), Degree(3)) == Degree(2)
    assert fr_total_from_faces(Degree(2), INF) == Degree(2)
    assert fr_total_from_faces(INF, Degree(4)) == Degree(3)
    assert fr_parallel_map(Degree(3), INF) == Degree(3)
    assert compose_connectivity([Degree(3), Degree(4), Degree(5)]) == Degree(3)
    with pytest.raises(ValueError):
        compose_connectivity([])
    assert object_to_map_connectivity(Degree(2)) == Degree(3)


def test_outcome_result_is_candidate_minimum():
    with pytest.raises(ValueError):
        RuleOutcome("x", 2, (Candidate(value=Degree(3), label="a"),), Degree(2))
    out = RuleOutcome("x", 2, (), Degree(2))
    assert out.result == Degree(2)


def test_oracle_equivalence_small_grid():
    for d in (2, 3, 4):
        for conn1 in (Degree(-1), Degree(1), INF):
            table = {s: Degree(s) if s % 2 else INF for s in range(2, d + 1)}
            raw = {s: as_num(v) for s, v in table.items()}
            assert hbm_cartesian(d, conn1, table).result == to_degree(
                hbm_oracle(d, as_num(conn1), raw)
            )
            assert dual_hbm_cocartesian(d, conn1, table).result == to_degree(
                dual_hbm_oracle(d, as_num(conn1), raw)
            )


def test_oracle_equivalence_randomised_d_up_to_6():
    rng = random.Random(20831)
    values = list(range(-2, 9)) + [math.inf]
    for _ in range(200):
        d = rng.randint(2, 6)
        conn1 = rng.choice(values)
        table = {s: rng.choice(values) for s in range(2, d + 1)}
        degrees = {s: to_degree(v) for s, v in table.items()}
        got = hbm_cartesian(d, to_degree(conn1), degrees).result
        assert got == to_degree(hbm_oracle(d, conn1, table))
        got = dual_hbm_cocartesian(d, to_degree(conn1), degrees).result
        assert got == to_degree(dual_hbm_oracle(d, conn1, table))


def test_monotone_in_every_slot_d5_sampled():
    rng = random.Random(5150)
    for _ in range(1500):
        d = 5
        slots = [rng.choice(GRID) for _ in range(d)]
        for rule in (hbm_cartesian, dual_hbm_cocartesian):
            base = rule(d, slots[0], {s: slots[s - 1] for s in range(2, d + 1)}).result
            i = rng.randrange(d)
            if slots[i] == INF:
                continue
            raised = list(slots)
            raised[i] = rng.choice([v for v in GRID if not v < slots[i]])
            got = rule(d, raised[0], {s: raised[s - 1] for s in range(2, d + 1)}).result
            assert not got < base


def test_fiber_transfer_shapes():
    total = Profile(3, Degree(3), Mode.CARTESIAN, {2: Degree(4), 3: Degree(5)})
    fib = fiber_transfer(total, total)
    assert fib == Profile(3, Degree(2), Mode.CARTESIAN, {2: Degree(3), 3: Degree(4)})
    one = Profile(1, Degree(3), Mode.CARTESIAN)
    assert fiber_transfer(one, one) == Profile(1, Degree(2), Mode.CARTESIAN)


def test_fiber_transfer_rejects_everything_else():
    good = Profile(2, Degree(3), Mode.CARTESIAN, {2: Degree(4)})
    off = Profile(2, Degree(3), Mode.CARTESIAN, {2: Degree(5)})
    wrong_conn = Profile(2, Degree(2), Mode.CARTESIAN, {2: Degree(4)})
    cocart = Profile(2, Degree(3), Mode.COCARTESIAN, {2: Degree(4)})
    other_dim = Profile(3, Degree(3), Mode.CARTESIAN, {2: Degree(4), 3: Degree(5)})
    for bad in (off, wrong_conn, cocart):
        with pytest.raises(ValueError):
            fiber_transfer(good, bad)
        with pytest.raises(ValueError):
            fiber_transfer(bad, good)
    with pytest.raises(ValueError):
        fiber_transfer(good, other_dim)


# -- the knapsack kernel against full enumeration and the set-partition oracle

HUGE = 10**400
slot_values = st.one_of(
    st.none(),
    st.integers(-12, 12),
    st.integers(-HUGE, HUGE),
    st.sampled_from([HUGE, -HUGE, HUGE + 1, 1 - HUGE]),
)
BASES = {"hbm_cartesian": lambda d: 1 - d, "dual_hbm_cocartesian": lambda d: d - 1}
RULES = {"hbm_cartesian": hbm_cartesian, "dual_hbm_cocartesian": dual_hbm_cocartesian}
ORACLES = {"hbm_cartesian": hbm_oracle, "dual_hbm_cocartesian": dual_hbm_oracle}


def enumerated(rule: str, d: int, table: tuple[Degree, ...]) -> tuple[Candidate, ...]:
    """The candidates as the enumerate-then-min rule built them, in Degree
    arithmetic."""
    out = []
    for blocks in integer_partitions(d):
        value = Degree(BASES[rule](d))
        terms = [value]
        for s in blocks:
            terms.append(table[s - 1])
            value = value + table[s - 1]
        out.append(Candidate(value=value, blocks=blocks, terms=tuple(terms)))
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(
    rule=st.sampled_from(sorted(BASES)),
    slots=st.integers(2, 8).flatmap(lambda n: st.lists(slot_values, min_size=n, max_size=n)),
)
def test_partition_kernel_matches_enumeration_and_oracle(rule, slots):
    table = tuple(Degree(v) for v in slots)
    shared = DegreeTable(table)
    raw = [math.inf if v is None else v for v in slots]
    for d in range(2, len(table) + 1):
        out = RULES[rule](d, table[0], shared)
        alone = RULES[rule](d, table[0], {s: table[s - 1] for s in range(2, d + 1)})
        assert alone == out and alone.result == out.result
        want = enumerated(rule, d, table)
        assert out.result == deg_min([c.value for c in want])
        oracle = ORACLES[rule](d, raw[0], {s: raw[s - 1] for s in range(2, d + 1)})
        assert out.result == to_degree(oracle)
        assert len(out.candidates) == len(want)
        assert tuple(out.candidates) == want


def test_shared_table_needs_matching_conn1():
    shared = DegreeTable((Degree(1), Degree(3), INF))
    assert dict(shared) == {2: Degree(3), 3: INF}
    assert hbm_cartesian(3, Degree(1), shared).result == Degree(1)
    assert hbm_cartesian(3, Degree(5), shared) == hbm_cartesian(3, Degree(5), dict(shared))
    with pytest.raises(ValueError):
        hbm_cartesian(4, Degree(1), shared)


def test_corrupted_result_fails_when_candidates_are_read(monkeypatch):
    table = {2: Degree(3), 3: INF, 4: Degree(-HUGE)}
    out = hbm_cartesian(4, Degree(1), table)
    bent = replace(out, result=out.result + 1)
    assert bent.result != out.result
    with pytest.raises(ValueError, match="is not the candidate minimum"):
        list(bent.candidates)
    with pytest.raises(ValueError, match="is not the candidate minimum"):
        RuleOutcome(out.rule, 4, out.candidates, Degree(0)).candidates[0]
    assert list(out.candidates)

    def off_by_one(self, d):
        low = best(self, d)
        return None if low is None else low + 1

    best = DegreeTable.best
    monkeypatch.setattr(DegreeTable, "best", off_by_one)
    wrong = hbm_cartesian(4, Degree(1), table)
    assert wrong.result == out.result + 1
    with pytest.raises(ValueError, match="is not the candidate minimum"):
        wrong.describe()


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from([Mode.CARTESIAN, Mode.COCARTESIAN]),
    conn1=st.integers(-2, 6),
    slots=st.lists(st.one_of(st.none(), st.integers(-3, 9)), min_size=1, max_size=6),
    r=st.sampled_from([1, 2, math.inf]),
)
def test_replay_equals_iterate_before_and_after_candidates_are_read(mode, conn1, slots, r):
    p = Profile(len(slots) + 1, Degree(conn1), mode, {d: Degree(v) for d, v in enumerate(slots, 2)})
    deriv = iterate(p, r, 6)
    before = replay(deriv)
    assert before == deriv and hash(before) == hash(deriv)
    outcomes = [o for step in deriv.steps for record in step.records for o in record.outcomes]
    unread = [o for step in replay(deriv).steps for record in step.records for o in record.outcomes]
    for outcome in outcomes:
        assert list(outcome.candidates)
    assert before == deriv and hash(before) == hash(deriv)
    assert replay(deriv) == deriv
    assert outcomes == unread and [hash(o) for o in outcomes] == [hash(o) for o in unread]


def test_candidate_count_needs_no_enumeration(monkeypatch):
    def refuse(d):
        raise AssertionError("enumerated the partitions")

    monkeypatch.setattr(rules, "integer_partitions", refuse)
    out = hbm_cartesian(60, Degree(1), {s: INF for s in range(2, 61)})
    assert out.result == Degree(1)
    assert len(out.candidates) == 966467
    assert out.candidates
