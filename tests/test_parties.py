import random

import numpy as np
import pytest

import partycred as pc
from partycred import core, rules
from partycred.instance_io import generate_random, parse_rule_spec
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


def test_check_witness_rejects_negative_and_unknown_moves():
    inst = build(PLUR3, [((P, A, B), 2), ((A, P, B), 1)], p=P, k=1, direction="min")
    check = pc.check_witness(inst, pc.SwitchPlan(moves=((0, 1, -1),)))
    assert not check.ok and check.reason == "negative move count -1"
    check = pc.check_witness(inst, pc.SwitchPlan(moves=((0, 2, 1),)))
    assert not check.ok and check.reason == "unknown party in move (0 -> 2)"


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
    ok = feasible(inst, 1, pc.SwitchPlan(moves=((0, 1, 1),)), "x")
    assert ok.answer(inst) is True
    assert feasible(inst, 2, pc.SwitchPlan(moves=((0, 1, 2),)), "x").answer(inst) is False
    assert infeasible("x").answer(inst) is False
    assert budget_exhausted("x").answer(inst) is None


# Every rule, with Copeland at a tie weight of nothing, 1/3 and a full win.
_CHECK_RULES = (
    "plurality", "veto", "approval:2", "borda", "condorcet", "maximin",
    "copeland:0", "copeland:1/3", "copeland:1",
)


def _reference_check(instance, plan, k):
    """check_witness from scratch: the structure, mode and bound rules, then
    the winners of the switched election, rescored whole."""
    election = instance.election
    if plan_violation(election, plan) is not None:
        return False
    if instance.destination_mode is pc.DestinationMode.ONE and len(plan.destinations()) > 1:
        return False
    total = plan.total
    if instance.direction is pc.Direction.MIN and total > k:
        return False
    if instance.direction is pc.Direction.MAX and total < k:
        return False
    won = pc.winners(pc.apply_switch(election, plan), instance.rule, instance.model)
    return (instance.p in won) == (instance.direction is pc.Direction.MAX)


def _check_plans(rng, sizes, one_destination):
    """(kind, plan) pairs on parties of these sizes: valid plans with zero
    counts and repeated pairs, every voter moving, and plans broken by an
    overdraw or a self-move."""
    l = len(sizes)
    dests = [rng.randrange(l)]
    if not one_destination and l > 1:
        dests.append(rng.choice([d for d in range(l) if d != dests[0]]))
    moves = [
        (q, d, rng.randint(0, sizes[q]) // (1 + (not one_destination)))
        for q in range(l) for d in dests if d != q and rng.random() < 0.7
    ]
    rng.shuffle(moves)
    plans = [("random", moves)]
    zero = [(q, d, 0) for q, d, _ in moves[:2]] + [(dests[0], dests[0], 0)]
    plans.append(("zero counts", zero + moves))
    if one_destination:
        everyone = [(q, dests[0], sizes[q]) for q in range(l) if q != dests[0]]
    else:  # every party empties into its neighbour
        everyone = [(q, (q + 1) % l, sizes[q]) for q in range(l)] if l > 1 else []
    plans.append(("everyone", everyone))
    if moves:
        q, d, c = moves[0]
        plans.append(("split", [(q, d, c // 2), (q, d, c - c // 2)] + moves[1:]))
    q = rng.randrange(l)
    if l > 1:
        plans.append(("overdraw", moves + [(q, (q + 1) % l, sizes[q] + 1)]))
    plans.append(("self-move", moves + [(q, q, 1)]))
    return [(kind, pc.SwitchPlan(moves=tuple(plan))) for kind, plan in plans]


def test_check_witness_matches_a_from_scratch_rescore():
    """Seeded differential: check_witness, which moves the instance's win
    table by the plan, against winners() of the whole switched election, on
    every rule, both models, both destination modes and both directions,
    with k at the plan's total and one step outside the bound."""
    seen: dict[tuple, set] = {}
    kinds: set[str] = set()
    for trial in range(1500):
        rng = random.Random(trial)
        spec = _CHECK_RULES[trial % len(_CHECK_RULES)]
        model = ("unique", "cowinner")[trial // len(_CHECK_RULES) % 2]
        dest = ("one", "multi")[trial // (2 * len(_CHECK_RULES)) % 2]
        direction = ("min", "max")[trial // (4 * len(_CHECK_RULES)) % 2]
        m = rng.randint(3 if spec == "approval:2" else 2, 5)
        l = rng.randint(1, 6)
        election = pc.PartyElection(
            [rng.sample(range(m), m) for _ in range(l)], [rng.randint(0, 4) for _ in range(l)]
        )
        rule = parse_rule_spec(spec, m)
        won = pc.winners(election, rule, pc.WinnerModel(model))
        if not won:
            continue
        instance = pc.ProblemInstance(
            election=election, p=min(won), k=rng.randint(1, 6), rule=rule,
            model=pc.WinnerModel(model), destination_mode=pc.DestinationMode(dest),
            direction=pc.Direction(direction),
        )
        sizes = instance.election.sizes.tolist()
        for kind, plan in _check_plans(rng, sizes, dest == "one"):
            step = 1 if direction == "min" else -1  # k just inside the bound, then just outside
            for k in (None, plan.total, plan.total - step):
                got = pc.check_witness(instance, plan, k=k)
                want = _reference_check(instance, plan, instance.k if k is None else k)
                assert got.ok == want, (spec, model, dest, direction, kind, k, instance, plan)
                assert got.ok == (got.reason is None)
                decided = got.ok or got.reason.startswith("success predicate")
                seen.setdefault((spec, model, dest, direction), set()).add(
                    got.ok if decided else "structure or bound"
                )
                kinds.add(kind)
    # Each of the 72 classes sees the moved table decide both ways.
    assert len(seen) == 4 * 2 * len(_CHECK_RULES)
    assert all({True, False} <= outcomes for outcomes in seen.values()), seen
    assert kinds == {"random", "zero counts", "everyone", "split", "overdraw", "self-move"}


def test_check_witness_rescores_nothing(monkeypatch):
    """A check on a validated 2,000-party, m = 50 instance reads the
    instance's win table and the moved parties' ranks rows only: it calls
    neither the scoring nor the tally nor the Condorcet knockout."""
    def refuse(*args, **kwargs):
        raise AssertionError("check_witness rescored the election")

    for rule in ("plurality", "borda", "condorcet"):
        parsed = generate_random(
            seed=1, num_candidates=50, num_parties=2000, size_range=(1, 9),
            rule_spec=rule, direction="min",
        )
        instance = parsed.instance
        result = pc.solve_instance(instance)
        plan, value = result.witness, result.value
        with monkeypatch.context() as patched:
            for target in (
                (rules, "scoring_scores"), (rules, "_scores"), (rules, "win_table"),
                (rules, "pairwise_matrix"), (core, "pairwise_matrix"),
                (core._kernels, "pairwise_tally"), (rules, "condorcet_winner"),
            ):
                patched.setattr(*target, refuse)
            assert pc.check_witness(instance, plan, k=value).ok
            assert not pc.check_witness(instance, plan, k=value - 1).ok
            assert not pc.check_witness(instance, EMPTY_PLAN).ok
        after = pc.apply_switch(instance.election, plan)
        assert instance.p not in pc.winners(after, instance.rule, instance.model)


@pytest.mark.parametrize("rule_spec", ["borda", "maximin"])
def test_check_witness_reads_the_moved_parties_rows_only(monkeypatch, rule_spec):
    """``check_witness``'s O(moved parties · m) in counted rows: a plan that
    moves voters of 3 parties passes ``rules.voter_terms`` those 3 rows of
    ``ranks``, at l = 1k and at l = 8k alike."""
    shapes = []

    def counted(rule, ranks, p):
        shapes.append(ranks.shape)
        return real(rule, ranks, p)

    real = rules.voter_terms
    monkeypatch.setattr(rules, "voter_terms", counted)
    plan = pc.SwitchPlan(moves=((1, 0, 1), (2, 0, 1)))
    for num_parties in (1_000, 8_000):
        instance = generate_random(
            seed=1, num_candidates=5, num_parties=num_parties, size_range=(1, 9),
            rule_spec=rule_spec, direction="max",
        ).instance
        shapes.clear()
        pc.check_witness(instance, plan, k=2)
        assert shapes == [(3, 5)], (num_parties, shapes)


def test_problem_instance_keeps_the_table_that_validated_it():
    """The kept table is the from-scratch one: scores, the whole tally, or
    p's tally row under Condorcet, whose knockout validation skips."""
    rng = random.Random(11)
    for spec in ("borda", "condorcet", "maximin", "copeland:1/3"):
        parsed = generate_random(
            seed=rng.randrange(10**6), num_candidates=5, num_parties=7, size_range=(0, 5),
            rule_spec=spec, direction="min",
        )
        instance, election = parsed.instance, parsed.instance.election
        table = instance.table
        assert table.p == instance.p and table.n == election.num_voters
        tally = core.pairwise_matrix(election)
        if spec == "borda":
            want = list(rules.scoring_scores(election, instance.rule.vector).values())
        elif spec == "condorcet":
            want = tally[instance.p].tolist()
        else:
            want = tally.tolist()
        assert table.values.tolist() == want
