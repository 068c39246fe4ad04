import itertools
import random
import time

import pytest

import partycred as pc
from partycred.poly import max_r_approval, min_condorcet, min_scoring
from partycred.solve import poly_solver

from conftest import build, collect_problems, values_match

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


def test_min_condorcet_raises_on_rejected_plan(monkeypatch):
    inst = build(
        pc.Condorcet(), [((P, A, B), 3), ((A, P, B), 1)], p=P, k=1, direction="min"
    )
    monkeypatch.setattr(
        "partycred.poly.check_witness",
        lambda *args, **kwargs: pc.parties.WitnessCheck(False, "forced rejection"),
    )
    with pytest.raises(RuntimeError, match="forced rejection"):
        min_condorcet(inst)


def test_min_condorcet_checks_only_the_returned_plan(monkeypatch):
    calls = []
    real_check = pc.poly.check_witness

    def counting_check(*args, **kwargs):
        calls.append(args)
        return real_check(*args, **kwargs)

    monkeypatch.setattr("partycred.poly.check_witness", counting_check)
    # Rivals A and B both need one switch.  A has the lower index, and of
    # its destinations (parties 2 and 3) the lower id wins.
    tie = build(
        pc.Condorcet(),
        [((P, A, B), 3), ((B, P, A), 1), ((A, B, P), 1), ((A, P, B), 1)],
        p=P, k=1, direction="min",
    )
    result = min_condorcet(tie)
    assert result.value == 1 == pc.oracle_min(tie).value
    assert result.witness.moves == ((0, 2, 1),)
    assert len(calls) == 1

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


def test_max_r_approval_raises_on_rejected_plan(monkeypatch):
    inst = build(PLUR3, [((P, A, B), 3), ((A, B, P), 2)], p=P, k=1, direction="max")
    monkeypatch.setattr(
        "partycred.poly.check_witness",
        lambda *args, **kwargs: pc.parties.WitnessCheck(False, "forced rejection"),
    )
    with pytest.raises(RuntimeError, match="forced rejection"):
        max_r_approval(inst)


def test_min_scoring_raises_on_rejected_plan(monkeypatch):
    inst = build(PLUR3, [((P, A, B), 3), ((A, P, B), 1)], p=P, k=1, direction="min")
    monkeypatch.setattr(
        "partycred.poly.check_witness",
        lambda *args, **kwargs: pc.parties.WitnessCheck(False, "forced rejection"),
    )
    with pytest.raises(RuntimeError, match="forced rejection"):
        min_scoring(inst)


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
            mine = fn(inst)
            ref = (
                pc.oracle_min(inst) if direction == "min" else pc.oracle_max(inst)
            )
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
        ("borda", 6, "max", "one", None),
        ("maximin", 6, "max", "one", None),
        ("veto", 6, "max", "multi", None),
        ("plurality", 6, "min", "multi", min_scoring),
    ],
)
def test_poly_solver_routing(rule_spec, m, direction, dest, expected):
    rule = pc.instance_io.parse_rule_spec(rule_spec, m)
    inst = build(
        rule, [(tuple(range(m)), 2), ((0,) + tuple(range(m - 1, 0, -1)), 1)], p=0,
        k=1, direction=direction, model="cowinner", dest=dest,
    )
    assert poly_solver(inst) is expected
