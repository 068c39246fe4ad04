import math
import random

import pytest

import partycred as pc
from partycred.search import _party_margin_deltas

from conftest import build, collect_problems, random_problem, values_match

P, A, B = 0, 1, 2
PLUR3 = pc.Scoring(vector=(1, 0, 0))

ALL_RULES = (
    "plurality", "veto", "approval:2", "borda", "condorcet", "maximin",
    "copeland:1/2",
)


def test_oracle_min_basic():
    inst = build(
        PLUR3, [((P, A, B), 3), ((A, P, B), 1), ((B, A, P), 1)], p=P, k=1,
        direction="min",
    )
    result = pc.oracle_min(inst)
    assert result.value == 1
    assert pc.check_witness(inst, result.witness, k=result.value).ok


def test_oracle_single_party():
    assert (
        pc.oracle_min(build(PLUR3, [((P, A, B), 3)], p=P, direction="min")).status
        is pc.SolveStatus.INFEASIBLE
    )
    assert pc.oracle_max(build(PLUR3, [((P, A, B), 3)], p=P, direction="max")).value == 0


def test_oracle_max_all_p_top():
    # Everyone approves only p whatever happens; the best plan empties the
    # largest source, i.e. everyone outside the smallest party moves there.
    inst = build(
        PLUR3, [((P, A, B), 4), ((P, B, A), 1)], p=P, k=1, direction="max"
    )
    assert pc.oracle_max(inst).value == 4


def test_oracle_voter_cap():
    inst = build(PLUR3, [((P, A, B), 16), ((A, P, B), 1)], p=P, direction="min")
    with pytest.raises(ValueError, match="size cap"):
        pc.oracle_min(inst, voter_cap=16)


def test_budget_exhaustion_is_distinct():
    inst = build(
        pc.Maximin(), [((P, A, B), 3), ((A, P, B), 1), ((B, A, P), 1)], p=P,
        direction="min",
    )
    result = pc.exact_search_min(inst, node_budget=1)
    assert result.status is pc.SolveStatus.BUDGET_EXHAUSTED
    assert result.answer(inst) is None


def test_search_matches_oracle_quick():
    rng = random.Random(42)
    for i in range(60):
        rule_spec = ALL_RULES[i % len(ALL_RULES)]
        direction = "min" if i % 2 else "max"
        dest = "one" if i % 3 else "multi"
        model = "unique" if i % 5 else "cowinner"
        inst = None
        while inst is None:
            inst = random_problem(
                random.Random(rng.randint(0, 10**9)),
                rule_spec=rule_spec,
                direction=direction,
                model=model,
                dest=dest,
                max_parties=3,
                voter_cap=8,
            )
        if direction == "min":
            mine, ref = pc.exact_search_min(inst), pc.oracle_min(inst)
        else:
            mine, ref = pc.exact_search_max(inst), pc.oracle_max(inst)
        assert values_match(mine, ref), (inst, mine, ref)
        for res in (mine, ref):
            if res.status is pc.SolveStatus.FEASIBLE:
                assert pc.check_witness(inst, res.witness, k=res.value).ok


def _permuted(inst: pc.ProblemInstance, perm: list[int]) -> pc.ProblemInstance:
    parties = tuple(
        pc.Party(id=i, preference=inst.election.parties[q].preference,
                 size=inst.election.parties[q].size)
        for i, q in enumerate(perm)
    )
    return pc.ProblemInstance(
        election=pc.PartyElection(
            num_candidates=inst.election.num_candidates, parties=parties
        ),
        p=inst.p, k=inst.k, rule=inst.rule, model=inst.model,
        destination_mode=inst.destination_mode, direction=inst.direction,
    )


def test_party_permutation_invariance():
    rng = random.Random(5)
    problems = collect_problems(
        seed_base=100, count=25, rule_spec="maximin", direction="min",
        model="unique", max_parties=3, voter_cap=8,
    )
    for inst in problems:
        perm = list(range(len(inst.election.parties)))
        rng.shuffle(perm)
        base = pc.exact_search_min(inst)
        shuffled = pc.exact_search_min(_permuted(inst, perm))
        assert values_match(base, shuffled)


def test_multi_destination_monotone_quick():
    problems = collect_problems(
        seed_base=900, count=20, rule_spec="borda", direction="min",
        model="unique", max_parties=3, voter_cap=7,
    )
    for inst in problems:
        one = pc.oracle_min(inst)
        multi_inst = pc.ProblemInstance(
            election=inst.election, p=inst.p, k=inst.k, rule=inst.rule,
            model=inst.model, destination_mode=pc.DestinationMode.MULTI,
            direction=inst.direction,
        )
        multi = pc.oracle_min(multi_inst)
        one_v = one.value if one.status is pc.SolveStatus.FEASIBLE else math.inf
        multi_v = multi.value if multi.status is pc.SolveStatus.FEASIBLE else math.inf
        assert multi_v <= one_v


def test_party_margin_deltas_match_pairwise_loop():
    """+1 where the party prefers a to b, -1 where it prefers b to a."""
    for seed in range(200):
        rng = random.Random(seed)
        m = rng.randint(1, 7)
        orders = [rng.sample(range(m), m) for _ in range(rng.randint(1, 6))]
        inst = build(
            pc.Scoring(vector=(0,) * m), [(o, 1) for o in orders], p=0,
            model="cowinner",
        )
        expected = [
            [
                [
                    0 if a == b else 1 if party.preference.prefers(a, b) else -1
                    for b in range(m)
                ]
                for a in range(m)
            ]
            for party in inst.election.parties
        ]
        deltas = _party_margin_deltas(inst)
        assert deltas.dtype == "int64"
        assert deltas.tolist() == expected, seed


def _reject_all(*args, **kwargs):
    return pc.parties.WitnessCheck(False, "forced rejection")


@pytest.mark.parametrize("solver", ["search", "oracle", "auto"])
def test_solve_instance_raises_on_rejected_plan(monkeypatch, solver):
    # Maximin has no polynomial solver, so "auto" also runs the search.
    inst = build(
        pc.Maximin(), [((P, A, B), 3), ((A, P, B), 1), ((B, A, P), 1)], p=P, k=1,
        direction="min",
    )
    assert pc.solve_instance(inst, solver).status is pc.SolveStatus.FEASIBLE
    monkeypatch.setattr("partycred.solve.check_witness", _reject_all)
    with pytest.raises(RuntimeError, match="forced rejection"):
        pc.solve_instance(inst, solver)


def test_solve_instance_checks_each_feasible_result_once(monkeypatch):
    calls = []
    real_check = pc.parties.check_witness

    def counting_check(*args, **kwargs):
        calls.append(args)
        return real_check(*args, **kwargs)

    monkeypatch.setattr("partycred.solve.check_witness", counting_check)
    monkeypatch.setattr("partycred.poly.check_witness", counting_check)
    plural = build(
        PLUR3, [((P, A, B), 3), ((A, P, B), 1), ((B, A, P), 1)], p=P, k=1,
        direction="min",
    )
    for solver in ("poly", "auto", "search", "oracle"):
        calls.clear()
        assert pc.solve_instance(plural, solver).value == 1
        assert len(calls) == 1, solver
    calls.clear()
    unsolvable = build(PLUR3, [((P, A, B), 3)], p=P, direction="min")
    assert pc.solve_instance(unsolvable, "search").status is pc.SolveStatus.INFEASIBLE
    assert calls == []
