import random

import numpy as np
import pytest

import partycred as pc
from partycred.parties import (
    EMPTY_PLAN,
    budget_exhausted,
    feasible,
    infeasible,
    plan_violation,
)
from partycred.rules import scoring_scores

from conftest import build

P, A, B = 0, 1, 2
PLUR2 = pc.Scoring(vector=(1, 0))
PLUR3 = pc.Scoring(vector=(1, 0, 0))


def pe(*parties):
    return pc.PartyElection([order for order, _ in parties], [size for _, size in parties])


def test_party_validation():
    election = pe(((0, 1), 0), ((1, 0), 2))  # empty parties are allowed
    assert election.sizes.tolist() == [0, 2] and election.num_voters == 2
    with pytest.raises(ValueError, match="party 0 has negative size -1"):
        pe(((0, 1), -1))


@pytest.mark.parametrize("orders, sizes, message", [
    ([(0, 1, 2), (1, 1, 0)], [1, 1], "party 1 has a bad order: duplicate 1"),
    ([(0, 1, 2), (2, 1, 0), (0, 3, 1)], [1, 1, 1],
     r"party 2 has a bad order: candidate 3 out of range \[0, 3\)"),
    ([(0, 1, 2), (0, -1, 2)], [1, 1], r"party 1 has a bad order: candidate -1 out of range"),
    ([(0, 1, 2), (2, 0.5, 1)], [1, 1], r"party 1 has a non-integer order: \(2, 0.5, 1\)"),
    ([(0, 1, 2), ("a", "b", "c")], [1, 1], "party 1 has a non-integer order"),
    ([(0, 1, 2), (2, 1)], [1, 1], "party 1 orders 2 candidates, party 0 orders 3"),
    ([(0, 1), (1, 0)], [1], "1 sizes for 2 parties"),
    ([(0, 1), (1, 0)], [1, 1, 1], "3 sizes for 2 parties"),
    ([], [], "need at least one party"),
    ([(0, 1), (1, 0), (0, 1)], [2, 0, -3], "party 2 has negative size -3"),
    ([(0, 1), (1, 0)], [2, 1.5], "party 1 has a non-integer size: 1.5"),
    ([(0, 1), (1, 0)], [1, 10**20], "party 1 brings the voter count to 100000000000000000001"),
    ([(0, 1), (1, 0)], [2**63 - 1, 1], "party 0 brings the voter count to 9223372036854775807"),
    ([(0, 1), (1, 0)], [2**60, 2**60], r"party 1 brings .* below 2\*\*62"),
])
def test_constructor_rejections(orders, sizes, message):
    with pytest.raises(ValueError, match=message):
        pc.PartyElection(orders, sizes)


def test_constructor_round_trip():
    """``PartyElection(pe.orders, pe.sizes) == pe`` on seeded elections, some
    of whose parties are empty; the input arrays are copied, not frozen."""
    empty = 0
    for seed in range(60):
        rng = random.Random(seed)
        m, l = rng.randint(1, 7), rng.randint(1, 8)
        orders = np.array([rng.sample(range(m), m) for _ in range(l)])
        sizes = np.array([rng.choice((0, 0, 1, 2, 5)) for _ in range(l)])
        election = pc.PartyElection(orders, sizes)
        assert election.orders.tolist() == orders.tolist()
        assert election.sizes.tolist() == sizes.tolist()
        assert pc.PartyElection(election.orders, election.sizes) == election
        assert orders.flags.writeable and sizes.flags.writeable
        empty += int((sizes == 0).sum())
    assert empty >= 30


def test_split_party_weight_additivity():
    split = pe(((0, 1), 2), ((0, 1), 3))
    merged = pe(((0, 1), 5))
    assert scoring_scores(split, (1, 0)) == scoring_scores(merged, (1, 0))


def test_apply_switch_empty_plan():
    election = pe(((0, 1), 3), ((1, 0), 1))
    assert pc.apply_switch(election, EMPTY_PLAN) == election


def test_apply_switch_moves_voters():
    election = pe(((0, 1), 3), ((1, 0), 1))
    after = pc.apply_switch(election, pc.SwitchPlan(moves=((0, 1, 2),)))
    assert after.sizes.tolist() == [1, 3]
    assert after.num_voters == election.num_voters  # conservation


def test_apply_switch_overdraw():
    election = pe(((0, 1), 3), ((1, 0), 1))
    with pytest.raises(ValueError, match="overdraw"):
        pc.apply_switch(election, pc.SwitchPlan(moves=((0, 1, 4),)))


def test_apply_switch_source_is_destination():
    election = pe(((0, 1), 3), ((1, 0), 1))
    assert "destination" in plan_violation(election, pc.SwitchPlan(moves=((1, 1, 1),)))


def test_plan_accessors():
    plan = pc.SwitchPlan(moves=((0, 2, 1), (1, 2, 2), (0, 2, 1)))
    assert plan.total == 4
    assert plan.destinations() == {2}


def test_problem_instance_validation():
    parties = [((P, A), 2), ((A, P), 1)]
    with pytest.raises(ValueError, match="k must be positive"):
        build(PLUR2, parties, p=P, k=0)
    with pytest.raises(ValueError, match="out of range"):
        build(PLUR2, parties, p=7)
    with pytest.raises(ValueError, match=r"not the initial winner \(winner set: \[0\]\)"):
        build(PLUR2, parties, p=A)


def test_check_witness_min_tie_semantics():
    # One switch out of the first party produces the exact tie p = a = 2.
    to_tie = pc.SwitchPlan(moves=((0, 1, 1),))
    inst = build(PLUR3, [((P, A, B), 3), ((A, P, B), 1)], p=P, direction="min")
    assert pc.check_witness(inst, to_tie).ok  # a tie destroys unique winnership
    co = build(
        PLUR3, [((P, A, B), 3), ((A, P, B), 1)], p=P, direction="min", model="cowinner"
    )
    check = pc.check_witness(co, to_tie)  # p is still a co-winner
    assert not check.ok and "success predicate" in check.reason
    assert not pc.check_witness(inst, EMPTY_PLAN).ok


def test_check_witness_max_tie_semantics():
    to_tie = pc.SwitchPlan(moves=((0, 1, 1),))
    inst = build(PLUR3, [((P, A, B), 3), ((A, P, B), 1)], p=P, direction="max")
    assert pc.check_witness(inst, EMPTY_PLAN, k=0).ok
    check = pc.check_witness(inst, to_tie)
    assert not check.ok and "success predicate" in check.reason
    co = build(
        PLUR3, [((P, A, B), 3), ((A, P, B), 1)], p=P, direction="max", model="cowinner"
    )
    assert pc.check_witness(co, to_tie).ok


def test_check_witness_empty_plan_min_fails():
    inst = build(PLUR3, [((P, A, B), 2), ((A, P, B), 1)], p=P, direction="min")
    check = pc.check_witness(inst, EMPTY_PLAN)
    assert not check.ok and "success predicate" in check.reason


def test_check_witness_one_destination_shape():
    inst = build(
        PLUR3, [((P, A, B), 4), ((A, P, B), 1), ((B, A, P), 1)], p=P, k=2,
        direction="min",
    )
    plan = pc.SwitchPlan(moves=((0, 1, 1), (0, 2, 1)))
    check = pc.check_witness(inst, plan)
    assert not check.ok and "multiple destinations" in check.reason


def test_check_witness_bounds_and_monotonicity():
    inst = build(PLUR3, [((P, A, B), 2), ((A, P, B), 1)], p=P, k=1, direction="min")
    plan = pc.SwitchPlan(moves=((0, 1, 1),))
    assert pc.check_witness(inst, plan).ok
    assert not pc.check_witness(inst, plan, k=0).ok  # over the MIN budget
    assert pc.check_witness(inst, plan, k=5).ok  # MIN is upward-closed in k

    maxi = build(PLUR3, [((P, A, B), 3), ((A, B, P), 1)], p=P, k=1, direction="max")
    plan = pc.SwitchPlan(moves=((1, 0, 1),))
    assert pc.check_witness(maxi, plan).ok
    assert not pc.check_witness(maxi, plan, k=2).ok  # under the MAX bound
    assert pc.check_witness(maxi, plan, k=0).ok  # MAX is downward-closed in k


def test_solve_result_contract():
    with pytest.raises(ValueError):
        pc.SolveResult(pc.SolveStatus.FEASIBLE, None, None, "x")
    with pytest.raises(ValueError):
        pc.SolveResult(pc.SolveStatus.FEASIBLE, 1, None, "x")
    inst = build(PLUR3, [((P, A, B), 2), ((A, P, B), 1)], p=P, k=1, direction="min")
    ok = feasible(1, pc.SwitchPlan(moves=((0, 1, 1),)), "x")
    assert ok.answer(inst) is True
    assert feasible(2, pc.SwitchPlan(moves=((0, 1, 2),)), "x").answer(inst) is False
    assert infeasible("x").answer(inst) is False
    assert budget_exhausted("x").answer(inst) is None
