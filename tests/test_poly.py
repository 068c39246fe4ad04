import dataclasses
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import partycred as pc
from partycred import poly
from partycred import reductions as rd
from partycred.poly import (
    _max_pack,
    _shift_moves,
    max_linear,
    max_r_approval,
    max_shift,
    min_condorcet,
    min_scoring,
)
from partycred.solve import poly_solver

from conftest import (
    X3C_NO6, X3C_NO12, build, collect_problems, oracle, random_problem, values_match,
)

P, A, B = 0, 1, 2
PLUR2 = pc.Scoring(vector=(1, 0))
PLUR3 = pc.Scoring(vector=(1, 0, 0))


def test_min_scoring_basic():
    inst = build(
        PLUR3, [((P, A, B), 3), ((A, P, B), 1), ((B, A, P), 1)], p=P, k=1,
        direction="min",
    )
    result = min_scoring(inst)
    assert result.value == 1
    assert pc.check_witness(inst, result.witness, k=result.value).ok


def test_min_scoring_all_parties_top_p():
    inst = build(
        PLUR3, [((P, A, B), 2), ((P, B, A), 2)], p=P, k=1, direction="min"
    )
    assert min_scoring(inst).status is pc.SolveStatus.INFEASIBLE


def test_min_scoring_single_party():
    inst = build(PLUR3, [((P, A, B), 3)], p=P, k=1, direction="min")
    assert min_scoring(inst).status is pc.SolveStatus.INFEASIBLE


def test_min_scoring_rejects_wrong_shape():
    cond = build(
        pc.Condorcet(), [((P, A, B), 3), ((A, P, B), 1)], p=P, k=1, direction="min"
    )
    with pytest.raises(ValueError):
        min_scoring(cond)
    maxi = build(PLUR3, [((P, A, B), 3), ((A, P, B), 1)], p=P, k=1, direction="max")
    with pytest.raises(ValueError):
        min_scoring(maxi)
    multi = build(
        PLUR3, [((P, A, B), 3), ((A, P, B), 1)], p=P, k=1, direction="min",
        dest="multi",
    )
    assert values_match(min_scoring(multi), pc.oracle_min(multi))


def test_min_condorcet_basic():
    inst = build(
        pc.Condorcet(), [((P, A, B), 3), ((A, P, B), 1)], p=P, k=1, direction="min"
    )
    result = min_condorcet(inst)
    assert result.value == 1
    assert pc.check_witness(inst, result.witness, k=result.value).ok


def test_min_condorcet_single_party():
    inst = build(pc.Condorcet(), [((P, A, B), 3)], p=P, k=1, direction="min")
    assert min_condorcet(inst).status is pc.SolveStatus.INFEASIBLE


def test_min_condorcet_no_destination():
    # Every party prefers p to everyone, so no legal destination exists.
    inst = build(
        pc.Condorcet(), [((P, A, B), 2), ((P, B, A), 2)], p=P, k=1, direction="min"
    )
    assert min_condorcet(inst).status is pc.SolveStatus.INFEASIBLE


def test_min_condorcet_checks_only_the_returned_plan(monkeypatch):
    calls = []
    real_check = pc.parties.check_witness

    def counting_check(*args, **kwargs):
        calls.append(args)
        return real_check(*args, **kwargs)

    monkeypatch.setattr("partycred.parties.check_witness", counting_check)
    # Rivals A and B both need one switch.  A has the lower index, and of
    # its destinations (parties 2 and 3) the lower id wins.
    tie = build(
        pc.Condorcet(),
        [((P, A, B), 3), ((B, P, A), 1), ((A, B, P), 1), ((A, P, B), 1)],
        p=P, k=1, direction="min",
    )
    result = min_condorcet(tie)
    assert len(calls) == 1  # before the oracle, which checks its own plan
    assert result.value == 1 == pc.oracle_min(tie).value
    assert result.witness.moves == ((0, 2, 1),)

    problems = [tie] + [
        inst
        for model in ("unique", "cowinner")
        for inst in collect_problems(
            seed_base=11, count=40, rule_spec="condorcet", direction="min",
            model=model, max_candidates=5,
        )
    ]
    statuses = set()
    for inst in problems:
        calls.clear()
        result = min_condorcet(inst)
        statuses.add(result.status)
        expected = 1 if result.status is pc.SolveStatus.FEASIBLE else 0
        assert len(calls) == expected, (inst, result)
    assert statuses == {pc.SolveStatus.FEASIBLE, pc.SolveStatus.INFEASIBLE}


def test_max_r_approval_basic():
    inst = build(PLUR3, [((P, A, B), 3), ((A, B, P), 2)], p=P, k=1, direction="max")
    result = max_r_approval(inst)
    assert result.value == 2
    assert pc.check_witness(inst, result.witness, k=result.value).ok


def test_max_r_approval_single_party():
    inst = build(PLUR3, [((P, A, B), 3)], p=P, k=1, direction="max")
    assert max_r_approval(inst).value == 0


def test_max_r_approval_zero_value_instance():
    # Any single switch dethrones p, so only the empty plan survives.
    rule = pc.Scoring(vector=(1, 1, 0, 0))
    inst = build(
        rule, [((2, 0, 1, 3), 1), ((0, 3, 2, 1), 1)], p=0, k=1, direction="max"
    )
    assert pc.oracle_max(inst).value == 0
    assert max_r_approval(inst).value == 0


def test_max_r_approval_all_zero_vector():
    # No voter approves anyone, so p stays a co-winner whatever moves and
    # every voter outside the smallest party can switch into it.
    rule = pc.Scoring(vector=(0, 0, 0))
    inst = build(
        rule, [((P, A, B), 3), ((A, B, P), 2), ((B, P, A), 4)], p=P, k=1,
        direction="max", model="cowinner",
    )
    result = max_r_approval(inst)
    assert result.value == 7 == pc.oracle_max(inst).value
    assert pc.check_witness(inst, result.witness, k=result.value).ok


def test_max_r_approval_rejects_non_approval_vectors():
    borda = pc.Scoring(vector=(2, 1, 0))
    inst = build(borda, [((P, A, B), 3), ((A, P, B), 1)], p=P, k=1, direction="max")
    with pytest.raises(ValueError):
        max_r_approval(inst)


def test_max_r_approval_rejects_multi_destination():
    inst = build(
        PLUR3, [((P, A, B), 3), ((A, B, P), 2)], p=P, k=1, direction="max",
        dest="multi",
    )
    with pytest.raises(ValueError, match="one-destination"):
        max_r_approval(inst)


def test_max_nonapproving_destination_gap():
    """Destinations that do not approve p can be strictly better.

    With nine p-first voters and two one-voter rival parties, funneling
    three surplus p voters plus one rival voter into the other rival party
    moves four voters while p still leads 6 to 4.  Restricting destinations
    to parties that approve p would cap the answer at two.
    """
    inst = build(
        PLUR2, [((0, 1), 9), ((1, 0), 1), ((1, 0), 1)], p=0, k=1, direction="max"
    )
    full = max_r_approval(inst)
    assert full.value == 4
    assert pc.oracle_max(inst).value == 4
    assert pc.check_witness(inst, full.witness, k=full.value).ok


_MAXIMIN_PARTIES = [((P, A, B), 3), ((A, P, B), 1), ((B, A, P), 1)]


@pytest.mark.parametrize("solver, rule, parties, direction", [
    (min_scoring, PLUR3, [((P, A, B), 3), ((A, P, B), 1)], "min"),
    (min_condorcet, pc.Condorcet(), [((P, A, B), 3), ((A, P, B), 1)], "min"),
    (max_linear, pc.Scoring(vector=(2, 1, 0)), [((P, A, B), 3), ((A, B, P), 1)], "max"),
    (max_r_approval, PLUR3, [((P, A, B), 3), ((A, B, P), 2)], "max"),
    (pc.exact_search_min, pc.Maximin(), _MAXIMIN_PARTIES, "min"),
    (pc.exact_search_max, pc.Maximin(), _MAXIMIN_PARTIES, "max"),
    (pc.oracle_min, pc.Maximin(), _MAXIMIN_PARTIES, "min"),
    (pc.oracle_max, pc.Maximin(), _MAXIMIN_PARTIES, "max"),
], ids=[
    "min_scoring", "min_condorcet", "max_linear", "max_r_approval",
    "exact_search_min", "exact_search_max", "oracle_min", "oracle_max",
])
def test_raises_on_rejected_plan(monkeypatch, solver, rule, parties, direction):
    """Every public solver checks the FEASIBLE result it builds
    (``parties.feasible``), so a plan that ``check_witness`` rejects raises,
    naming the reason, even when the solver is called directly."""
    inst = build(rule, parties, p=P, k=1, direction=direction)
    assert solver(inst).status is pc.SolveStatus.FEASIBLE
    monkeypatch.setattr(
        "partycred.parties.check_witness",
        lambda *args, **kwargs: pc.parties.WitnessCheck(False, "forced rejection"),
    )
    with pytest.raises(RuntimeError, match=f"{solver.__name__} built a rejected plan .*: "
                                           "forced rejection"):
        solver(inst)


def test_nonapproving_destination_case_b():
    """A destination whose own optimum retains every p voter and more.

    p has 4 of 9 voters, so retaining p voters only cannot outvote the
    destination's block.  Into B's party, one A voter may move: p leads 4 to
    2 to 3, while a second switcher would tie B with p.  The instance's
    optimum moves everyone else into p's party, which ``max_r_approval``
    finds without searching plans that retain non-p voters.
    """
    inst = build(
        PLUR3, [((P, A, B), 4), ((A, B, P), 3), ((B, A, P), 2)], p=P, k=1,
        direction="max",
    )
    best_into_b = max(
        sum(counts)
        for counts in itertools.product(range(5), range(4))
        if pc.check_witness(
            inst,
            pc.SwitchPlan(moves=((0, 2, counts[0]), (1, 2, counts[1]))),
            k=sum(counts),
        ).ok
    )
    assert best_into_b == 1
    assert max_r_approval(inst).value == 5 == pc.oracle_max(inst).value


def test_max_r_approval_matches_oracle_wide():
    """approval:3/4 and plurality with m from 4 to 6, veto (r = m - 1) with
    m from 4 to 7, approval:5 with m from 5 to 7 (r = m included), both
    winner models, at most 12 voters."""
    checked = 0
    for rule_spec, min_candidates, max_candidates in (
        ("approval:3", 4, 6), ("approval:4", 4, 6), ("veto", 4, 5),
        ("plurality", 4, 6), ("veto", 6, 7), ("approval:5", 5, 7),
    ):
        for model in ("unique", "cowinner"):
            problems = [
                inst
                for inst in collect_problems(
                    seed_base=7_000, count=80, rule_spec=rule_spec,
                    direction="max", model=model, max_candidates=max_candidates,
                    max_parties=5, max_voters=12,
                )
                if inst.election.num_candidates >= min_candidates
            ]
            for inst in problems:
                mine = max_r_approval(inst)
                assert values_match(mine, pc.oracle_max(inst)), inst
                assert pc.check_witness(inst, mine.witness, k=mine.value).ok
            checked += len(problems)
    assert checked >= 500


def _approval_max_instance(rule_spec, m, num_parties, seed):
    """Seeded one-destination MAX instance, party sizes 1..6, p the unique winner."""
    rng = random.Random(seed)
    rule = pc.instance_io.parse_rule_spec(rule_spec, m)
    while True:
        orders, sizes = [], []
        for _ in range(num_parties):
            order = list(range(m))
            rng.shuffle(order)
            orders.append(order)
            sizes.append(rng.randint(1, 6))
        election = pc.PartyElection(orders, sizes)
        won = pc.winners(election, rule, pc.WinnerModel.UNIQUE)
        if len(won) == 1:
            return pc.ProblemInstance(
                election=election, p=next(iter(won)), k=1, rule=rule,
                model=pc.WinnerModel.UNIQUE,
                destination_mode=pc.DestinationMode.ONE,
                direction=pc.Direction.MAX,
            )


def _blocking_rows_instance(num_parties):
    """approval:3, m = 4: one-voter {p, a, b} parties, then one {p, b, c} and
    one {p, a, c} voter.  Into a {p, a, b} party p keeps its unique win only
    by retaining both of the last two voters."""
    rule = pc.instance_io.parse_rule_spec("approval:3", 4)
    parties = [((0, 1, 2, 3), 1)] * (num_parties - 2) + [
        ((0, 2, 3, 1), 1), ((0, 1, 3, 2), 1),
    ]
    return build(rule, parties, p=0, k=1, direction="max")


SCALING_GATE_INSTANCES = {
    "plurality-6-10": lambda: _approval_max_instance("plurality", 6, 10, seed=10),
    "plurality-6-12": lambda: _approval_max_instance("plurality", 6, 12, seed=12),
    "plurality-6-16": lambda: _approval_max_instance("plurality", 6, 16, seed=16),
    "approval:2-5-12": lambda: _approval_max_instance("approval:2", 5, 12, seed=12),
    "plurality-6-64": lambda: _approval_max_instance("plurality", 6, 64, seed=64),
    "approval:3-4-800": lambda: _blocking_rows_instance(800),
}


@pytest.mark.parametrize("case", list(SCALING_GATE_INSTANCES))
def test_max_r_approval_scaling_gate(case):
    inst = SCALING_GATE_INSTANCES[case]()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = max_r_approval(inst)
        best = min(best, time.perf_counter() - start)
    assert pc.check_witness(inst, result.witness, k=result.value).ok
    assert best < 1.0, f"{case}: {best:.2f}s"


@pytest.mark.parametrize(
    "rule_spec,direction,fn",
    [
        ("plurality", "min", min_scoring),
        ("borda", "min", min_scoring),
        ("condorcet", "min", min_condorcet),
        ("approval:2", "max", max_r_approval),
    ],
)
def test_poly_matches_oracle_sample(rule_spec, direction, fn):
    rng = random.Random(0)
    dests = ("one", "multi") if direction == "min" else ("one",)
    for model in ("unique", "cowinner"):
        seed_base = rng.randint(0, 10**6)
        problems = [
            inst
            for dest in dests
            for inst in collect_problems(
                seed_base=seed_base,
                count=40,
                rule_spec=rule_spec,
                direction=direction,
                model=model,
                dest=dest,
            )
        ]
        for inst in problems:
            mine, ref = fn(inst), oracle(inst)
            assert values_match(mine, ref), (inst, mine, ref)
            if mine.status is pc.SolveStatus.FEASIBLE:
                assert pc.check_witness(inst, mine.witness, k=mine.value).ok


@pytest.mark.parametrize(
    "rule_spec,m,direction,dest,expected",
    [
        ("plurality", 6, "min", "one", min_scoring),
        ("veto", 6, "min", "one", min_scoring),
        ("condorcet", 6, "min", "one", min_condorcet),
        ("copeland:1", 6, "min", "one", None),
        ("plurality", 6, "max", "one", max_r_approval),
        ("veto", 6, "max", "one", max_r_approval),
        ("veto", 7, "max", "one", max_r_approval),
        ("approval:5", 7, "max", "one", max_r_approval),
        ("approval:6", 6, "max", "one", max_r_approval),
        ("borda", 6, "max", "one", max_linear),
        ("condorcet", 6, "max", "one", max_linear),
        ("borda", 6, "max", "multi", max_linear),
        ("maximin", 6, "max", "one", None),
        ("veto", 6, "max", "multi", max_linear),
        ("plurality", 6, "min", "multi", min_scoring),
        ("condorcet", 6, "max", "multi", max_linear),
        ("maximin", 6, "max", "multi", None),
        ("copeland:1/2", 6, "min", "multi", None),
    ],
)
def test_poly_solver_routing(rule_spec, m, direction, dest, expected):
    rule = pc.instance_io.parse_rule_spec(rule_spec, m)
    inst = build(
        rule, [(tuple(range(m)), 2), ((0,) + tuple(range(m - 1, 0, -1)), 1)], p=0,
        k=1, direction=direction, model="cowinner", dest=dest,
    )
    assert poly_solver(inst) is expected


# Packings whose root node cannot settle the optimum, so the search must split.
SPLIT_PACKINGS = [
    ([[1, 1], [0, 2], [1, 2], [2, 0]], [1, 2, 3, 1], [2, 2]),
    ([[1, 1], [1, 0], [0, 2], [2, 0]], [1, 1, 1, 3], [3, 2]),
    ([[0, 0, 2], [1, 2, 1], [2, 0, 0]], [1, 3, 2], [4, 6, 4]),
    ([[1, 1], [0, 2], [2, 0], [1, 2]], [1, 2, 1, 2], [2, 4]),
    ([[1, 1, 1], [2, 1, 0], [0, 1, 2]], [1, 2, 1], [2, 4, 2]),
]


def _small_packings(count, seed):
    """The split packings, then ``count`` seeded ones: <= 4 rows, <= 3
    constraints, costs 0-2, caps <= 3, budgets from -1."""
    for a, caps, budget in SPLIT_PACKINGS:
        yield np.array(a), np.array(caps), np.array(budget)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        yield (
            rng.integers(0, 3, size=(rows, cols)),
            rng.integers(0, 4, size=rows),
            rng.integers(-1, 7, size=cols),
        )


def test_max_pack_matches_enumeration():
    """The optimum is the enumerated one, the counts fit every constraint
    and cap, and None comes exactly with a negative budget.  A ``floor`` at
    the optimum still returns counts that fit."""
    found = none = 0
    for a, caps, budget in _small_packings(400, seed=11):
        x = _max_pack(a, budget, caps)
        if (budget < 0).any():
            assert x is None
            none += 1
            continue
        best = max(
            sum(counts)
            for counts in itertools.product(*(range(int(c) + 1) for c in caps))
            if (np.array(counts) @ a <= budget).all()
        )
        for counts, target in ((x, best), (_max_pack(a, budget, caps, floor=best), None)):
            assert (counts >= 0).all() and (counts <= caps).all()
            assert (counts @ a <= budget).all()
            if target is not None:
                assert counts.sum() == target, (a, caps, budget, counts)
        found += 1
    assert found >= 200 and none >= 50


# Signed packings whose optimum lies only below a node with negative slack.
SIGNED_PACKINGS = [
    ([[2, -1], [2, -2], [-2, 2], [2, 2]], [3, 1, 3, 2], [5, 2]),
    ([[0, 2, 0], [0, -2, 1], [-1, 0, 2], [2, 2, -1]], [1, 2, 2, 2], [1, 6, 1]),
    ([[1, 2, -1], [-1, 2, -1], [2, -2, 2]], [2, 1, 3], [4, 3, 2]),
    ([[-2, 0, 1], [2, -1, 1], [-2, 2, -2], [-1, 1, -1]], [1, 3, 3, 2], [1, 0, 4]),
    ([[-1, 0], [1, 0], [-1, 2], [2, -2]], [0, 3, 1, 1], [1, 1]),
    ([[2, 0], [2, -1], [0, 1], [-1, 2]], [2, 2, 2, 2], [2, 3]),
]


def test_max_pack_signed_costs_match_enumeration(monkeypatch):
    """Costs -2..2 and caps <= 3: the fixed packings, 400 seeded ones with
    budgets >= 0 and 300 with budgets from -3; then 300 with costs -4..4,
    caps <= 4 and budgets from -4, each of at most 4 counts.  The optimum is
    the enumerated one, the counts fit every constraint and cap, and None
    comes exactly when no counts fit.  Raising a count of positive cost can
    leave a node's slack negative, so the relaxation starts with some basic
    slack variable below 0, and the fixed packings need such nodes.  In none
    of these draws, nor in 33,000 further seeded ones with costs up to ±9,
    does the search halve an interval after an integral relaxation; the test
    below drives that path directly."""
    short_slack = []

    def watched(a, room, slack):
        short_slack.append(bool((slack < 0).any()))
        return relaxation(a, room, slack)

    relaxation = poly._lp_relaxation
    monkeypatch.setattr("partycred.poly._lp_relaxation", watched)
    rng = np.random.default_rng(12)
    packings = [tuple(map(np.array, packing)) for packing in SIGNED_PACKINGS]
    for count, lowest, cost, cap in ((400, 0, 2, 3), (300, -3, 2, 3), (300, -4, 4, 4)):
        for _ in range(count):
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            packings.append((
                rng.integers(-cost, cost + 1, size=(rows, cols)),
                rng.integers(0, cap + 1, size=rows),
                rng.integers(lowest, 7, size=cols),
            ))
    none = sum(not _packs_like_enumeration(*packing) for packing in packings)
    assert none >= 30
    assert any(short_slack)


def _packs_like_enumeration(a, caps, budget) -> bool:
    """Assert that ``_max_pack`` finds the enumerated optimum, with counts
    that fit every constraint and cap, or None exactly when no counts fit;
    return whether any counts fit."""
    sums = [
        sum(counts)
        for counts in itertools.product(*(range(int(c) + 1) for c in caps))
        if (np.array(counts) @ a <= budget).all()
    ]
    x = _max_pack(a, budget, caps)
    if not sums:
        assert x is None, (a, caps, budget, x)
        return False
    assert (x >= 0).all() and (x <= caps).all()
    assert (x @ a <= budget).all()
    assert x.sum() == max(sums), (a, caps, budget, x)
    return True


def test_max_pack_halves_an_interval_after_an_integral_relaxation(monkeypatch):
    """With a relaxation that claims every count at its room, integral and
    priced 0, the rounded fill of a node that cannot take every voter does
    not fit, so the search halves the widest interval.  Its bounds stay
    valid, so the packings still equal the enumerated optimum."""
    halved = []

    def all_room(a, room, slack):
        halved.append(bool((room @ a > slack).any()))
        return room.astype(float), np.zeros(a.shape[1])

    monkeypatch.setattr("partycred.poly._lp_relaxation", all_room)
    packings = [tuple(map(np.array, packing)) for packing in SIGNED_PACKINGS]
    packings += [packing for packing in _small_packings(200, seed=13) if (packing[2] >= 0).all()]
    for packing in packings:
        _packs_like_enumeration(*packing)
    assert sum(halved) >= 20


def test_lp_relaxation_meets_its_dual_bound():
    """2,000 seeded signed relaxations (costs -4..4, rooms 0..6, slack
    -20..60): a returned x lies in its box and fits every constraint, and
    its sum rounds down to the dual bound of its own prices, which is strong
    duality checked with no outside solver.  None comes only when no integer
    counts fit.  Both outcomes occur."""
    rng = np.random.default_rng(31)
    solved = infeasible = 0
    for _ in range(2_000):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        a = rng.integers(-4, 5, size=(rows, cols))
        room = rng.integers(0, 7, size=rows)
        slack = rng.integers(-20, 61, size=cols)
        relaxed = poly._lp_relaxation(a, room, slack)
        if relaxed is None:
            infeasible += 1
            boxes = itertools.product(*(range(int(r) + 1) for r in room))
            assert not any((np.array(x) @ a <= slack).all() for x in boxes), (a, room, slack)
            continue
        solved += 1
        x, prices = relaxed
        assert (x >= -1e-7).all() and (x <= room + 1e-7).all(), (a, room, slack, x)
        assert (x @ a <= slack + 1e-7).all(), (a, room, slack, x)
        bound = poly._dual_bound(a, room, slack, prices[None])
        assert math.floor(x.sum() + 1e-6) == bound, (a, room, slack, x, prices)
    assert solved and infeasible


def test_knapsack_prices_keep_the_bound_of_every_weight():
    """The knapsack bound over 1 and the positive costs equals the bound over
    every integer weight up to the largest cost (5,000 seeded packings),
    and a scoring vector with a 10**6 entry no longer sizes the solve's
    memory: the parent peaked at 496 MB (one destination) and 800 MB
    (multi-destination) on this election."""
    rng = np.random.default_rng(23)
    for _ in range(5_000):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        a = rng.integers(-4, int(rng.integers(1, 40)), size=(rows, cols))
        room = rng.integers(0, 6, size=rows)
        slack = rng.integers(-20, 60, size=cols)
        weights = np.arange(1.0, max(a.max(), 1) + 1)
        grid = (np.eye(cols) / weights[:, None, None]).reshape(-1, cols)
        assert poly._dual_bound(a, room, slack, poly._knapsack_prices(a)) == poly._dual_bound(
            a, room, slack, grid
        ), (a, room, slack)
    parties = [((1, 2, 0, 3), 1), ((3, 1, 2, 0), 2), ((0, 1, 3, 2), 4), ((0, 2, 1, 3), 2)]
    for dest in ("one", "multi"):
        inst = build(
            pc.Scoring((10**6, 3, 1, 0)), parties, p=P, k=1, direction="max", dest=dest
        )
        tracemalloc.start()
        try:
            result = max_linear(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (dest, peak)
        assert values_match(result, pc.oracle_max(inst))


def test_max_linear_rejects_other_shapes():
    orders = [((P, A, B), 3), ((A, P, B), 1)]
    for rule, direction, dest in (
        (pc.Copeland(alpha=1), "max", "one"),
        (pc.Scoring(vector=(2, 1, 0)), "min", "one"),
        (pc.Maximin(), "max", "multi"),
        (pc.Condorcet(), "min", "multi"),
    ):
        inst = build(rule, orders, p=P, k=1, direction=direction, dest=dest)
        with pytest.raises(ValueError):
            max_linear(inst)


def _partition_x3c(universe, seed):
    """Three seeded partitions of the universe into triples: every element
    lies in exactly three sets, and each partition is an exact cover."""
    rng = random.Random(seed)
    sets = []
    for _ in range(3):
        elements = list(range(universe))
        rng.shuffle(elements)
        sets += [tuple(elements[i:i + 3]) for i in range(0, universe, 3)]
    return rd.X3CInstance(universe, tuple(sets))


def _copies(x3c, count):
    """``count`` disjoint copies of an X3C instance: a no-instance stays one."""
    u = x3c.universe_size
    return rd.X3CInstance(
        u * count, tuple(tuple(x + u * i for x in s) for i in range(count) for s in x3c.sets)
    )


X3C_SCALING_GATE = {
    "borda-partition-15": (rd.reduce_x3c_to_borda_max, lambda: _partition_x3c(15, 15), True),
    "borda-partition-18": (rd.reduce_x3c_to_borda_max, lambda: _partition_x3c(18, 18), True),
    "condorcet-partition-15": (
        rd.reduce_x3c_to_condorcet_max, lambda: _partition_x3c(15, 15), True,
    ),
    "condorcet-partition-18": (
        rd.reduce_x3c_to_condorcet_max, lambda: _partition_x3c(18, 18), True,
    ),
    "borda-no-12": (rd.reduce_x3c_to_borda_max, lambda: X3C_NO12, False),
    "condorcet-no-6x3": (rd.reduce_x3c_to_condorcet_max, lambda: _copies(X3C_NO6, 3), False),
}


@pytest.mark.parametrize("case", list(X3C_SCALING_GATE))
def test_max_linear_x3c_scaling_gate(case):
    reduce, source, expected = X3C_SCALING_GATE[case]
    inst = reduce(source()).instance
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = max_linear(inst)
        best = min(best, time.perf_counter() - start)
    assert result.answer(inst) is expected
    assert pc.check_witness(inst, result.witness, k=result.value).ok
    assert best < 1.0, f"{case}: {best:.2f}s"


def _multi_max_instance(rule_spec, seed, dominant=False):
    """Seeded multi-destination MAX instance with m = 6 and l = 32, party
    sizes 1..6, p the unique winner.  ``dominant`` gives party 0 three
    quarters of the voters and the only ballot ranking p (candidate 0)
    first; every other ballot ranks 1 or 2 first."""
    rng = random.Random(seed)
    rule = pc.instance_io.parse_rule_spec(rule_spec, 6)
    while True:
        orders = [rng.sample(range(6), 6) for _ in range(32)]
        sizes = [rng.randint(1, 6) for _ in range(32)]
        if dominant:
            tops = [min((1, 2), key=o.index) for o in orders]  # the first of 1 and 2
            orders = [list(range(6))] + [
                [c] + [x for x in o if x != c] for c, o in zip(tops[1:], orders[1:])
            ]
            sizes[0] = 3 * sum(sizes[1:])
        election = pc.PartyElection(orders, sizes)
        won = pc.winners(election, rule, pc.WinnerModel.UNIQUE)
        if len(won) == 1:
            return pc.ProblemInstance(
                election=election, p=next(iter(won)), k=1, rule=rule,
                model=pc.WinnerModel.UNIQUE,
                destination_mode=pc.DestinationMode.MULTI,
                direction=pc.Direction.MAX,
            )


# case: (instance, MAX).  None: every voter moves.  391 of 428 was
# cross-checked against an independent integer program solver.
MULTI_GATE_INSTANCES = {
    "borda-32-a": (lambda: _multi_max_instance("borda", 1), None),
    "borda-32-b": (lambda: _multi_max_instance("borda", 2), None),
    "condorcet-32-a": (lambda: _multi_max_instance("condorcet", 1), None),
    "condorcet-32-b": (lambda: _multi_max_instance("condorcet", 2), None),
    "plurality-32-dominant": (lambda: _multi_max_instance("plurality", 3, dominant=True), 391),
}


@pytest.mark.parametrize("case", list(MULTI_GATE_INSTANCES))
def test_max_linear_multi_destination_gate(case):
    """32 parties, best of 3 under 1 s.  With no majority party the final
    sizes stay as they are and every voter moves, with no packing.  In the
    dominant plurality case party 0 holds three quarters of the voters, so
    the final-size packings run over the merged lead rows: the voters
    leaving p's party reach only two rivals, so not everyone can move."""
    build_instance, expected = MULTI_GATE_INSTANCES[case]
    inst = build_instance()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = max_linear(inst)
        best = min(best, time.perf_counter() - start)
    assert pc.check_witness(inst, result.witness, k=result.value).ok
    n = inst.election.num_voters
    assert result.value == (n if expected is None else expected)
    assert best < 1.0, f"{case}: {best:.2f}s"


MAJORITY_RULES = ("plurality", "veto", "approval:2", "borda", "condorcet")


def test_max_linear_majority_multi_destination_matches_the_oracle():
    """1,000 seeded multi-destination MAX draws with a majority party, 100
    per rule spec and winner model: ``solve_instance`` routes each to
    ``max_linear``'s final-size packings, whose value is the oracle's and
    whose checked plan moves exactly that many voters."""
    drawn = 0
    for index, (rule_spec, model) in enumerate(
        itertools.product(MAJORITY_RULES, ("unique", "cowinner"))
    ):
        seed, count = 11_000 * (index + 1), 0
        while count < 100:
            inst = random_problem(random.Random(seed), rule_spec, "max", model, dest="multi")
            seed += 1
            if inst is None or 2 * inst.election.sizes.max() <= inst.election.num_voters:
                continue
            result, ref = pc.solve_instance(inst), pc.oracle_max(inst)
            assert result.solver == "max_linear"
            assert (result.status, result.value) == (ref.status, ref.value), (inst, result, ref)
            assert result.witness.total == result.value
            count += 1
        drawn += count
    assert drawn == 1_000


def test_shift_moves_places_every_voter_outside_its_party():
    """Random (out, into) with equal sums N and out[q] + into[q] <= N,
    zeros included: the moves leave no party into itself, every count is
    positive, each party sends out[q] and receives into[q], and there are
    at most nnz(out) + nnz(into) - 1 moves."""
    rng = np.random.default_rng(36)
    checked = 0
    while checked < 2_000:
        l = int(rng.integers(1, 9))
        out = rng.integers(0, 6, size=l) * (rng.random(l) < 0.8)
        into = rng.multinomial(out.sum(), rng.dirichlet(np.ones(l))) if rng.random() < 0.8 else out
        total = int(out.sum())
        if (out + into > total).any():
            continue
        moves = _shift_moves(out.tolist(), into.tolist())
        sent, received = np.zeros(l, dtype=np.int64), np.zeros(l, dtype=np.int64)
        for source, dest, count in moves:
            assert source != dest and count > 0, (out, into, moves)
            sent[source] += count
            received[dest] += count
        assert (sent == out).all() and (received == into).all(), (out, into, moves)
        assert len(moves) <= max(0, np.count_nonzero(out) + np.count_nonzero(into) - 1)
        checked += 1
    assert _shift_moves([0, 0], [0, 0]) == ()
    assert _shift_moves([3, 0, 2], [0, 5, 0]) == ((0, 1, 3), (2, 1, 2))  # one destination
    assert _shift_moves([2, 1, 1], [2, 1, 1]) == ((0, 1, 1), (0, 2, 1), (1, 0, 1), (2, 0, 1))


def _majority_instance(rule_spec, seed, parties=200, m=6):
    """Multi-destination MAX over 6 candidates: party 0 ranks p = 0 first
    and holds the other parties' total plus 1-3 voters; the others hold
    1..10 voters each and rank p last or second to last."""
    rng = random.Random(seed)
    orders, sizes = [list(range(m))], [0]
    for _ in range(parties - 1):
        rest = rng.sample(range(1, m), m - 1)
        at = rng.choice((m - 2, m - 1))
        orders.append(rest[:at] + [0] + rest[at:])
        sizes.append(rng.randint(1, 10))
    sizes[0] = sum(sizes) + rng.randint(1, 3)
    return pc.ProblemInstance(
        election=pc.PartyElection(orders, sizes), p=0, k=1,
        rule=pc.instance_io.parse_rule_spec(rule_spec, m), model=pc.WinnerModel.UNIQUE,
        destination_mode=pc.DestinationMode.MULTI, direction=pc.Direction.MAX,
    )


@pytest.mark.parametrize("rule_spec", ["condorcet", "plurality"])
def test_max_linear_majority_scaling_gate(rule_spec):
    """200 parties with a majority party: multi-destination MAX through
    ``solve_instance`` in under 1 s, best of 3.  p keeps its win when party
    0 shrinks to the others' total, so every voter moves.  The packing over
    200 * 199 pair counts took 8-19 s."""
    inst = _majority_instance(rule_spec, 1)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = pc.solve_instance(inst)
        best = min(best, time.perf_counter() - start)
    assert (result.solver, result.value) == ("max_linear", inst.election.num_voters)
    assert result.witness.total == result.value
    assert best < 1.0, f"{rule_spec}: {best:.2f}s"


class _BoundCap(Exception):
    """Raised by a counted ``_dual_bound`` past its cap."""


def _capped_dual_bound(monkeypatch, cap, check=None):
    """Patch ``poly._dual_bound`` to raise ``_BoundCap`` on call cap + 1, and
    to pass each bound and its arguments to ``check``; returns the reset of
    the call count."""
    real, calls = poly._dual_bound, []

    def counted(*args):
        calls.append(None)
        if len(calls) > cap:
            raise _BoundCap(f"more than {cap} dual bounds")
        bound = real(*args)
        if check is not None:
            check(bound, *args)
        return bound

    monkeypatch.setattr(poly, "_dual_bound", counted)
    return calls.clear


DUAL_BOUND_GATE = 40  # dual bounds per max_linear solve; the worst draw needs 19


def test_max_pack_dual_bound_count_gate(monkeypatch):
    """README's "polynomial for a fixed number of candidates" in counts:
    200 seeded one-destination Condorcet MAX files of 6 candidates, 30-39
    parties and 10^3-10^4 voters per party, then the same files with every
    size times 10^6, each solve within ``DUAL_BOUND_GATE`` dual bounds.  A
    Condorcet cost is 0 or +-2 and the budgets can be odd, so without the
    gcd division of ``_max_pack`` a quarter of these files ran for longer
    than 10 s.  The counter raises past the gate, so a stall fails fast.
    The scaled MAX is at least 10^6 times the unscaled one."""
    reset = _capped_dual_bound(monkeypatch, DUAL_BOUND_GATE)
    for seed in range(200):
        inst = pc.generate_random(
            seed, 6, 30 + seed % 10, (1000, 10000), "condorcet", "max", dest="one"
        ).instance
        values = []
        for scale in (1, 10**6):
            election = pc.PartyElection(inst.election.orders, inst.election.sizes * scale)
            scaled = dataclasses.replace(inst, election=election, k=1)
            reset()
            values.append(max_linear(scaled).value)
        assert values[1] >= 10**6 * values[0], (seed, values)


def _exact_dual(a, room, slack, y):
    """slack . y + sum_j room_j * max(0, 1 - (a y)_j) in Fractions."""
    y = [Fraction(v) for v in y.tolist()]
    value = sum(s * v for s, v in zip(slack.tolist(), y))
    for row, r in zip(a.tolist(), room.tolist()):
        value += r * max(0, 1 - sum(c * v for c, v in zip(row, y)))
    return value


def _borda_max_at_10_15(seed):
    """A one-destination Borda MAX file of 6 candidates, 30-39 parties and
    10^14-10^15 voters per party, where float64 cannot count single voters."""
    return pc.generate_random(seed, 6, 30 + seed % 10, (10**14, 10**15), "borda", "max").instance


def test_dual_bound_is_never_below_its_exact_value(monkeypatch):
    """Every ``_dual_bound`` of 30 seeded Borda MAX files at 10^14-10^15
    voters per party, up to 40 per file, against the same formula in
    Fractions for the same prices: the bound is at least the floor of the
    least exact value, so it is valid, and at most that of the row least in
    floats.  At this size float64 sums alone fell one below the exact floor
    on 19 of 717 such bounds, an invalid bound that could prune the
    optimum."""
    checked = []

    def check(bound, a, room, slack, prices):
        floats = prices @ slack + np.maximum(0.0, 1.0 - a @ prices.T).T @ room
        rows = prices[np.argsort(floats)]
        first = math.floor(_exact_dual(a, room, slack, rows[0]))
        assert bound <= first, (bound, first)
        assert first == bound or any(
            math.floor(_exact_dual(a, room, slack, y)) <= bound for y in rows[1:]
        ), bound
        checked.append(bound)

    reset = _capped_dual_bound(monkeypatch, 40, check)
    for seed in range(30):
        reset()
        try:
            pc.solve_instance(_borda_max_at_10_15(seed))
        except _BoundCap:
            pass
    assert len(checked) > 500, len(checked)


@pytest.mark.xfail(strict=True, raises=_BoundCap, reason=(
    "ROADMAP item 13: at 10^14-10^15 voters per party float64 counts have an "
    "ulp of 0.016-0.125, and 9 of 100 seeded one-destination Borda MAX files "
    "run past 2,000 dual bounds; seed 13 is one"
))
def test_borda_max_at_10_15_voters_per_party_finishes(monkeypatch):
    _capped_dual_bound(monkeypatch, 1_000)
    pc.solve_instance(_borda_max_at_10_15(13))


@pytest.mark.parametrize("rule_spec", ["borda", "condorcet", "plurality", "approval:2"])
def test_max_solvers_pick_the_oracles_destination(rule_spec):
    """Among the optimal destinations, the lowest id: the oracle's choice.
    Each merged row's smallest party is its only candidate destination, so a
    larger party of the same lead row never wins a tie."""
    solvers = [max_linear] if rule_spec in ("borda", "condorcet") else [max_linear, max_r_approval]
    for model in ("unique", "cowinner"):
        for inst in collect_problems(
            seed_base=300, count=40, rule_spec=rule_spec, direction="max", model=model,
            max_parties=5,
        ):
            expected = pc.oracle_max(inst).witness.destinations()
            for solver in solvers:
                assert solver(inst).witness.destinations() == expected, (solver, inst)


SHIFT_RULES = (
    "plurality", "veto", "approval:2", "borda", "condorcet",
    "copeland:0", "copeland:1/3", "copeland:1/2", "copeland:1", "maximin",
)


def _assert_shift_plan(inst, result):
    """``max_shift``'s result: value n, a checked plan of at most 2l' - 1
    moves over the l' nonempty parties, each of a positive count between
    two different parties."""
    sizes = inst.election.sizes
    assert (result.status, result.value, result.solver) == (
        pc.SolveStatus.FEASIBLE, inst.election.num_voters, "max_shift"
    )
    assert pc.check_witness(inst, result.witness, k=result.value).ok
    assert len(result.witness.moves) <= max(0, 2 * np.count_nonzero(sizes) - 1)
    assert all(count > 0 and source != dest for source, dest, count in result.witness.moves)


def test_max_shift_matches_the_oracle():
    """1,000 seeded multi-destination MAX draws over ten rule specs and both
    winner models.  Every draw with no majority party routes to
    ``max_shift``, whose value n is the oracle's; every other draw keeps its
    old solver and the oracle's value."""
    routes = {"max_shift": 0, "max_linear": 0, "exact_search_max": 0}
    for index, (rule_spec, model) in enumerate(
        itertools.product(SHIFT_RULES, ("unique", "cowinner"))
    ):
        for inst in collect_problems(
            7_000 * (index + 1), 50, rule_spec=rule_spec, direction="max", model=model,
            dest="multi",
        ):
            sizes = inst.election.sizes
            result, ref = pc.solve_instance(inst), pc.oracle_max(inst)
            assert (result.status, result.value) == (ref.status, ref.value), (inst, result, ref)
            if 2 * sizes.max() <= sizes.sum():
                assert poly_solver(inst) is max_shift
                _assert_shift_plan(inst, result)
            else:
                linear = isinstance(inst.rule, (pc.Scoring, pc.Condorcet))
                assert result.solver == ("max_linear" if linear else "exact_search_max")
            routes[result.solver] += 1
    assert sum(routes.values()) == 1_000
    assert min(routes.values()) >= 100, routes


@pytest.mark.parametrize("sizes, model", [
    ((2, 1, 1), "unique"),  # even n, one party of exactly n / 2
    ((2, 2), "unique"),  # two halves: each moves whole into the other
    ((2, 2, 1), "cowinner"),  # odd n
    ((0, 2, 0, 1, 1, 0), "unique"),  # parties of size 0 take no part
    ((0, 0, 0), "cowinner"),  # no voters: the empty plan moves all of them
], ids=["even-n-half", "two-halves", "odd-n", "empty-parties", "no-voters"])
@pytest.mark.parametrize(
    "rule", [pc.Maximin(), pc.Scoring(vector=(2, 1, 0))], ids=["maximin", "borda"]
)
def test_max_shift_edge_cases(sizes, model, rule):
    orders = [(P, A, B), (P, B, A), (A, P, B), (B, P, A), (P, A, B), (A, B, P)]
    inst = build(rule, list(zip(orders, sizes)), p=P, k=1, direction="max", model=model,
                 dest="multi")
    result = pc.solve_instance(inst)
    _assert_shift_plan(inst, result)
    assert result.value == pc.oracle_max(inst).value


def test_max_shift_refuses_other_instances(monkeypatch):
    """A majority party, MIN or one destination raise ValueError, and a
    plan that ``check_witness`` rejects raises RuntimeError."""
    parties = [((P, A, B), 3), ((A, P, B), 1), ((B, A, P), 1)]
    for direction, dest in (("max", "multi"), ("min", "multi"), ("max", "one")):
        inst = build(pc.Maximin(), parties, p=P, direction=direction, dest=dest)
        assert poly_solver(inst) is None
        with pytest.raises(ValueError, match="max_shift"):
            max_shift(inst)
    inst = build(pc.Maximin(), parties[:1] + parties, p=P, direction="max", dest="multi")
    _assert_shift_plan(inst, max_shift(inst))
    monkeypatch.setattr(
        "partycred.parties.check_witness",
        lambda *args, **kwargs: pc.parties.WitnessCheck(False, "forced rejection"),
    )
    with pytest.raises(RuntimeError, match="max_shift built a rejected plan .*: forced rejection"):
        max_shift(inst)


@pytest.mark.parametrize("rule_spec", ["borda", "copeland:1/2"])
def test_max_shift_scaling_gate(rule_spec):
    """600 parties of 1..5 voters, 5 candidates: multi-destination MAX
    through ``solve_instance`` in under 1 s, with value n.  The packing over
    600 * 599 pair counts took 39.6 s for Borda, and the branch and bound
    ran out of any budget for Copeland."""
    inst = pc.generate_random(
        seed=1, num_candidates=5, num_parties=600, size_range=(1, 5),
        rule_spec=rule_spec, direction="max", dest="multi",
    ).instance
    start = time.perf_counter()
    result = pc.solve_instance(inst)
    elapsed = time.perf_counter() - start
    _assert_shift_plan(inst, result)
    assert elapsed < 1.0, f"{rule_spec}: {elapsed:.2f}s"
