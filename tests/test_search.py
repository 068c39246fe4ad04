import importlib.util
import itertools
import json
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import partycred as pc
from partycred.core import pairwise_matrix
from partycred.rules import (
    copeland_scores,
    equivalent_alpha,
    maximin_scores,
    p_wins,
    scoring_scores,
    voter_margins,
)
from partycred.search import (
    _BLOCK_CELLS,
    ORACLE_CELL_CAP,
    _BranchAndBound,
    _compositions_upto,
    _margin_scorer,
)

from conftest import (
    build,
    collect_problems,
    exact_search,
    oracle,
    random_problem,
    values_match,
)

P, A, B = 0, 1, 2
PLUR3 = pc.Scoring(vector=(1, 0, 0))

ALL_RULES = (
    "plurality", "veto", "approval:2", "borda", "condorcet", "maximin",
    "copeland:1/2",
)
# The rules the branch and bound serves: every other rule takes ``poly``.
SEARCH_RULES = ("maximin", "copeland:1/2", "copeland:0", "copeland:1", "copeland:1/3")


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


def test_oracle_solves_past_sixteen_voters():
    """The oracle has no voter cap: a 17-voter election is 19 plans, and
    its MIN is the greedy's."""
    inst = build(PLUR3, [((P, A, B), 16), ((A, P, B), 1)], p=P, direction="min")
    result, ref = pc.oracle_min(inst), pc.min_scoring(inst)
    assert (result.status, result.value) == (ref.status, ref.value)
    assert result.status is pc.SolveStatus.FEASIBLE


def test_send_table_rows_are_every_composition_in_key_order():
    """Stars and bars gives every vector of ``slots`` counts summing to at
    most ``total``, in the lexicographic order of a brute-force loop, down
    to the one empty row of 0 slots."""
    for total, slots in itertools.product(range(7), range(5)):
        rows = _compositions_upto(total, slots)
        expected = [
            list(v) for v in itertools.product(range(total + 1), repeat=slots) if sum(v) <= total
        ]
        assert rows.dtype == np.int64
        assert rows.shape == (math.comb(total + slots, slots), slots), (total, slots)
        assert rows.tolist() == expected, (total, slots)


def test_oracle_counts_plans_before_building_tables(monkeypatch):
    """Multi-destination plurality MIN, one 16-voter party and 12 empty ones:
    C(28, 12) = 30,421,755 plans exceed the cap before any table is built."""
    def no_tables(total, slots):
        raise AssertionError("a send table was built")

    monkeypatch.setattr("partycred.search._compositions_upto", no_tables)
    parties = [((P, A, B), 16)] + [((A, B, P), 0)] * 12
    inst = build(PLUR3, parties, p=P, direction="min", dest="multi")
    with pytest.raises(ValueError, match="size cap exceeded: 30421755 plans"):
        pc.oracle_min(inst)


@pytest.mark.parametrize("parties, dest, plans, width", [
    # C(103, 4) plans of the 4 voters into 99 other parties: under 5 million
    # plans, but each is a block row of 100 sizes and 3 scores.
    ([((P, A, B), 4)] + [((A, B, P), 0)] * 99, "multi", 4_421_275, 103),
    # 6,561 plans or fewer per destination, but 800 destinations sum to
    # 8 * 2,187 + 792 * 6,561.
    ([((P, A, B), 2)] * 5 + [((A, B, P), 2)] * 3 + [((A, B, P), 0)] * 792, "one",
     5_213_808, 803),
], ids=["multi-4-voters-100-parties", "one-16-voters-800-parties"])
def test_oracle_cell_cap_sums_every_destination(monkeypatch, parties, dest, plans, width):
    """The one cap counts plans over every destination times the cells of a
    block row, and refuses before any send table is built."""
    def no_tables(total, slots):
        raise AssertionError("a send table was built")

    monkeypatch.setattr("partycred.search._compositions_upto", no_tables)
    inst = build(PLUR3, parties, p=P, direction="min", dest=dest)
    assert plans * width > ORACLE_CELL_CAP
    with pytest.raises(ValueError, match=f"size cap exceeded: {plans} plans of {width} cells"):
        pc.oracle_min(inst)


@pytest.mark.parametrize("size, plans", [
    (10**7 - 1, "299999960000001"),  # 15 digits: printed in full
    (10**10 - 1, "about 10^20"),  # 3 * 10^20 - 4 * 10^10 + 1: 21 digits
], ids=["in-full", "order-of-magnitude"])
def test_oracle_refusal_prints_a_short_plan_count(size, plans):
    """One-destination plurality with parties of s, s - 1 and s - 1 voters:
    3s^2 + 2s plans.  Up to 20 digits the count is printed in full, and
    beyond that as its order of magnitude."""
    inst = build(PLUR3, [((P, A, B), size), ((A, B, P), size - 1), ((B, A, P), size - 1)], p=P)
    with pytest.raises(ValueError, match=re.escape(f"size cap exceeded: {plans} plans of 6 cells")):
        pc.oracle_min(inst)


def test_oracle_blocks_stay_within_the_cell_budget(monkeypatch):
    """At m = 20 a Maximin block's (rows, m, m) margins stay within
    ``_BLOCK_CELLS``, counting l + m² cells per plan, over several blocks;
    the answer is the search's."""
    blocks = []

    def recorded(table, rule, model):
        blocks.append(len(table.values))
        return p_wins(table, rule, model)

    monkeypatch.setattr("partycred.search.p_wins", recorded)
    rng, m, sizes = random.Random(3), 20, [3, 3, 2, 2]
    won = ()
    while len(won) != 1:
        orders = [rng.sample(range(m), m) for _ in sizes]
        won = pc.winners(pc.PartyElection(orders, sizes), pc.Maximin(), pc.WinnerModel.UNIQUE)
    inst = build(pc.Maximin(), list(zip(orders, sizes)), p=min(won), direction="max",
                 dest="multi")
    result, ref = pc.oracle_max(inst), pc.exact_search_max(inst)
    assert len(blocks) > 1, blocks
    assert max(blocks) * (len(sizes) + m * m) <= _BLOCK_CELLS, blocks
    assert (result.status, result.value, result.witness) == (ref.status, ref.value, ref.witness)


def test_budget_exhaustion_is_distinct():
    inst = build(
        pc.Maximin(), [((P, A, B), 3), ((A, P, B), 1), ((B, A, P), 1)], p=P,
        direction="min",
    )
    result = pc.exact_search_min(inst, node_budget=1)
    assert result.status is pc.SolveStatus.BUDGET_EXHAUSTED
    assert result.answer(inst) is None


def test_search_matches_oracle_quick():
    """Each draw's one exact route (``solve_instance``'s ``auto``: ``poly``
    or the branch and bound) against the oracle."""
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
                max_voters=8,
            )
        mine, ref = pc.solve_instance(inst), oracle(inst)
        assert values_match(mine, ref), (inst, mine, ref)
        for res in (mine, ref):
            if res.status is pc.SolveStatus.FEASIBLE:
                assert pc.check_witness(inst, res.witness, k=res.value).ok


def _seeded_problems(count, seed, rules):
    """``count`` seeded instances cycling through rules, directions, models
    and destination modes (<= 4 candidates, <= 4 parties, <= 10 voters)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        i = len(out)
        inst = random_problem(
            random.Random(rng.randint(0, 10**9)),
            rule_spec=rules[i % len(rules)],
            direction=("min", "max")[i % 2],
            model=("unique", "cowinner")[i // 2 % 2],
            dest=("one", "multi")[i // 4 % 2],
        )
        if inst is not None:
            out.append(inst)
    return out


def test_search_witness_equals_oracle():
    """Same status, value and witness: the first optimal plan in the
    shared visit order, which tie-pruning must keep."""
    for inst in _seeded_problems(300, 7, SEARCH_RULES):
        mine, ref = exact_search(inst), oracle(inst)
        assert (mine.status, mine.value, mine.witness) == (
            ref.status, ref.value, ref.witness
        ), (inst, mine, ref)


def test_oracle_never_calls_the_branch_and_bound_scorer(monkeypatch):
    """The oracle asks ``rules.p_wins``, so no error in the search's own
    scorer reaches the ground truth: with ``_margin_scorer`` made to raise,
    it solves two draws of each Copeland (alpha 0, 1/3, 1/2, 1) and Maximin
    class, both directions, destination modes and winner models, and each
    answer is the search's and passes ``check_witness``."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called _margin_scorer")

    problems = _seeded_problems(80, 29, SEARCH_RULES)
    with monkeypatch.context() as patched:
        patched.setattr("partycred.search._margin_scorer", refuse)
        answers = [oracle(inst) for inst in problems]
        with pytest.raises(AssertionError, match="called _margin_scorer"):
            exact_search(problems[0])
    for inst, answer in zip(problems, answers):
        ref = exact_search(inst)
        assert (answer.status, answer.value, answer.witness) == (
            ref.status, ref.value, ref.witness
        ), (inst, answer, ref)
        if answer.status is pc.SolveStatus.FEASIBLE:
            assert pc.check_witness(inst, answer.witness, k=answer.value).ok
    assert {pc.SolveStatus.FEASIBLE, pc.SolveStatus.INFEASIBLE} <= {a.status for a in answers}


def _first_optimal_plan(inst):
    """Reference MIN/MAX by plain enumeration: destinations by rank, then
    every count of every (source, destination) pair in source-then-
    destination order, increasing for MIN and decreasing for MAX; the first
    optimal plan wins."""
    pe, l = inst.election, len(inst.election.sizes)
    sizes = pe.sizes.tolist()
    minimize = inst.direction is pc.Direction.MIN
    if inst.destination_mode is pc.DestinationMode.ONE:
        destinations = [[d] for d in range(l)]
    else:
        destinations = [range(l)]
    best = None
    for dests in destinations:
        pairs = [(q, d) for q in range(l) for d in dests if d != q]
        counts_of = [range(sizes[q] + 1) for q, _ in pairs]
        if not minimize:
            counts_of = [reversed(counts) for counts in counts_of]
        for counts in itertools.product(*counts_of):
            sent = [0] * l
            for (q, _), c in zip(pairs, counts):
                sent[q] += c
            if any(s > size for s, size in zip(sent, sizes)):
                continue
            plan = pc.SwitchPlan(
                moves=tuple((q, d, c) for (q, d), c in zip(pairs, counts) if c)
            )
            won = pc.winners(pc.apply_switch(pe, plan), inst.rule, inst.model)
            if (inst.p in won) == minimize:
                continue
            value = sum(counts)
            if best is None or (value < best[0] if minimize else value > best[0]):
                best = (value, plan.moves)
    return best


def test_oracle_witness_is_the_first_optimal_plan():
    """Status, value and moves of the oracle equal a plain enumeration's
    over every rule, destination mode, winner model and direction."""
    rng = random.Random(17)
    combos = list(itertools.product(
        ALL_RULES, ("one", "multi"), ("unique", "cowinner"), ("min", "max")
    ))
    checked = 0
    while checked < 6 * len(combos):
        rule_spec, dest, model, direction = combos[checked % len(combos)]
        inst = random_problem(
            random.Random(rng.randint(0, 10**9)), rule_spec=rule_spec,
            direction=direction, model=model, dest=dest, max_parties=3,
            max_voters=4,
        )
        if inst is None:
            continue
        checked += 1
        ref, mine = _first_optimal_plan(inst), oracle(inst)
        if ref is None:
            assert mine.status is pc.SolveStatus.INFEASIBLE, (inst, mine)
        else:
            assert mine.status is pc.SolveStatus.FEASIBLE, (inst, mine)
            assert (mine.value, mine.witness.moves) == ref, (inst, mine, ref)


def test_single_candidate_search_matches_oracle():
    """With no rival, p can never lose and always wins (MAX used to raise):
    the same result from the search (Copeland; Maximin needs a rival) and
    the same value from ``auto`` (a scoring rule, Condorcet) as from the
    oracle."""
    for direction in ("min", "max"):
        for rule in (pc.Copeland(alpha=Fraction(0)), pc.Copeland(alpha=Fraction(1, 2))):
            inst = build(rule, [((P,), 3), ((P,), 2)], p=P, direction=direction)
            mine, ref = exact_search(inst), oracle(inst)
            assert (mine.status, mine.value, mine.witness) == (
                ref.status, ref.value, ref.witness
            )
        for rule in (pc.Scoring(vector=(1,)), pc.Condorcet()):
            inst = build(rule, [((P,), 3), ((P,), 2)], p=P, direction=direction)
            assert values_match(pc.solve_instance(inst, "auto"), oracle(inst))


@pytest.mark.parametrize(
    "solver, direction",
    [(pc.exact_search_min, "min"), (pc.exact_search_max, "max"),
     (pc.oracle_min, "min"), (pc.oracle_max, "max")],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_search_and_oracle_reject_the_other_direction(solver, direction):
    """A MAX instance used to come back FEASIBLE from exact_search_min and
    oracle_min with a witness that check_witness rejects."""
    other = "max" if direction == "min" else "min"
    parties = [((P, A, B), 3), ((A, P, B), 1)]  # p is the Maximin winner
    inst = build(pc.Maximin(), parties, p=P, direction=other)
    with pytest.raises(ValueError, match=f"{solver.__name__} solves {direction} instances only"):
        solver(inst)
    own = build(pc.Maximin(), parties, p=P, direction=direction)
    assert solver(own).status is pc.SolveStatus.FEASIBLE


def test_party_leads_match_score_and_margin_gaps():
    """sizes @ leads is p's score lead (scoring rules) or its pairwise margin
    (Condorcet) over every candidate, empty parties included; column p is 0."""
    empty = 0
    for rule_spec in ("plurality", "veto", "approval:2", "borda", "condorcet"):
        for inst in collect_problems(
            seed_base=40, count=30, rule_spec=rule_spec, direction="min",
            model="unique", max_candidates=5, max_parties=6, max_voters=14,
        ):
            pe, p = inst.election, inst.p
            leads = voter_margins(inst.rule, pe.ranks, p)
            assert leads.shape == (len(pe.sizes), pe.num_candidates)
            assert not leads[:, p].any()
            if isinstance(inst.rule, pc.Condorcet):
                n = pairwise_matrix(pe)
                expected = (n[p] - n[:, p]).tolist()
            else:
                scores = scoring_scores(pe, inst.rule.vector)
                expected = [scores[p] - scores[c] for c in range(pe.num_candidates)]
            assert (pe.sizes @ leads).tolist() == expected, inst
            empty += int((pe.sizes == 0).sum())
    assert empty >= 30


def test_bound_slack_and_steps_match_a_per_pair_loop(monkeypatch):
    """Each destination's pairs, units, capacity and each level's slack
    against a loop over the remaining pairs, in one batch and across batch
    boundaries under lowered cell caps (130 cells: 2-3 destinations per
    batch here; 1 cell: one each).  The rivals' rows move only up and p's
    row only down for MIN, and the reverse for MAX.  The loop's extreme
    unit step in that direction is 2 wherever the slack is not 0, with the
    slack's sign, so MIN's clamp of the slack to [-2b, 2b] is the cap at b
    such steps."""
    for cells in (_BLOCK_CELLS, 130, 1):
        monkeypatch.setattr(pc.search, "_BLOCK_CELLS", cells)
        for inst in _seeded_problems(80, 13, SEARCH_RULES):
            bb = _BranchAndBound(inst, inst.direction, node_budget=1)
            deltas, sizes = voter_margins(inst.rule, inst.election.ranks, inst.p), bb.sizes
            l, m = len(sizes), len(deltas[0])
            minimize = inst.direction is pc.Direction.MIN
            up = ((np.arange(m) != inst.p) == minimize)[:, None]
            if inst.destination_mode is pc.DestinationMode.ONE:
                destinations = [[d] for d in range(l)]
            else:
                destinations = [range(l)]
            tables = list(bb._variables())
            assert len(tables) == len(destinations)
            for dests, (pairs, units, slack, remcap) in zip(destinations, tables):
                where = (inst, list(dests), cells)
                assert pairs == [(q, d) for q in range(l) for d in dests if d != q and sizes[q]]
                assert len(units) == len(pairs) and len(slack) == len(remcap) == len(pairs) + 1
                for (q, d), unit in zip(pairs, units):
                    assert unit.tolist() == (deltas[d] - deltas[q]).tolist(), where
                for i in range(len(pairs) + 1):
                    assert remcap[i] == sum(sizes[q] for q, _ in pairs[i:]), where
                    want_slack = np.zeros((m, m), dtype=np.int64)
                    want_steps = np.zeros((m, m), dtype=np.int64)
                    for q, d in pairs[i:]:
                        unit = deltas[d] - deltas[q]
                        rise, fall = np.maximum(unit, 0), np.minimum(unit, 0)
                        want_slack += sizes[q] * np.where(up, rise, fall)
                        want_steps = np.where(
                            up, np.maximum(want_steps, rise), np.minimum(want_steps, fall)
                        )
                    assert slack[i].tolist() == want_slack.tolist(), (where, i)
                    assert (2 * np.sign(slack[i])).tolist() == want_steps.tolist(), (where, i)


def test_search_tables_stay_within_the_cell_cap():
    """A one-destination Copeland search over 2,000 parties at m = 4 builds
    its tables one batch of destinations at a time: an unbatched build of
    every destination's l·m² cells would take about 0.5 GB per array."""
    rng = np.random.default_rng(4)
    l, m = 2_000, 4
    orders = np.argsort(rng.random((l, m)), axis=1)
    orders[: l // 2] = [0, 1, 2, 3]  # candidate 0 wins outright
    election = pc.PartyElection(orders, rng.integers(1, 4, size=l))
    inst = pc.ProblemInstance(
        election=election, p=0, k=1, rule=pc.Copeland(Fraction(1, 2)),
        model=pc.WinnerModel.UNIQUE, destination_mode=pc.DestinationMode.ONE,
        direction=pc.Direction.MAX,
    )
    tracemalloc.start()
    try:
        result = pc.exact_search_max(inst, node_budget=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status is pc.SolveStatus.BUDGET_EXHAUSTED
    assert peak < 64 << 20, peak


def test_multi_destination_max_bound_stops_at_n():
    """No plan moves more than n voters, although the multi-destination
    capacity counts each source once per destination: once a plan moves
    everyone, every other subtree can at best tie it."""
    inst = pc.instance_io.generate_random(
        seed=1, num_candidates=4, num_parties=5, size_range=(1, 3),
        rule_spec="maximin", direction="max", dest="multi",
    ).instance
    n = inst.election.num_voters
    assert inst.election.sizes.tolist() == [2, 2, 2, 3, 2]
    result = pc.exact_search_max(inst, node_budget=1_000)
    assert (result.status, result.value) == (pc.SolveStatus.FEASIBLE, n)
    ref = pc.oracle_max(inst)
    assert (ref.value, ref.witness) == (result.value, result.witness)


def test_node_budget_contract():
    """A FEASIBLE search reruns identically on exactly its node count and
    runs out one node earlier."""
    checked = 0
    for inst in _seeded_problems(120, 11, SEARCH_RULES):
        result = exact_search(inst)
        if result.status is not pc.SolveStatus.FEASIBLE:
            continue
        checked += 1
        assert exact_search(inst, node_budget=result.nodes) == result
        short = exact_search(inst, node_budget=result.nodes - 1)
        assert short.status is pc.SolveStatus.BUDGET_EXHAUSTED
        assert short.nodes == result.nodes
    assert checked >= 60


def _margins(election):
    counts = pairwise_matrix(election)
    return counts - counts.T


def test_pairwise_score_helpers_match_rules():
    """``_margin_scorer``'s doubled units, on one padded (m, m) margin matrix
    and on a (k, m, m) stack, are exactly the rules module's scores: Maximin
    is 2·``maximin_scores``, and Copeland is 2·den·``copeland_scores`` less
    2·num·(m − 1), for num/den = ``equivalent_alpha(alpha, m)``.  The k elections share their parties
    and n, as one instance's plans do, and some of their parties are empty."""
    alphas = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(1)]
    for seed in range(100):
        rng = random.Random(seed)
        m, l, n = rng.randint(2, 6), rng.randint(1, 6), rng.randint(1, 12)
        ranks = np.array([rng.sample(range(m), m) for _ in range(l)], dtype=np.int64)
        elections = [
            pc.PartyElection.from_arrays(
                ranks, np.bincount(rng.choices(range(l), k=n), minlength=l)
            )
            for _ in range(4)
        ]
        stack = np.array([_margins(e) for e in elections])
        expected = [[2 * maximin_scores(e)[c] for c in range(m)] for e in elections]
        pad, maximin = _margin_scorer(pc.Maximin(), m, n)
        assert maximin(stack + pad).tolist() == expected, seed
        assert maximin(stack[0] + pad).tolist() == expected[0], seed
        for alpha in alphas:
            small = equivalent_alpha(alpha, m)
            num, den = small.numerator, small.denominator
            expected = [
                [2 * den * copeland_scores(e, small)[c] - 2 * num * (m - 1) for c in range(m)]
                for e in elections
            ]
            pad, copeland = _margin_scorer(pc.Copeland(alpha=alpha), m, n)
            assert copeland(stack + pad).tolist() == expected, (seed, alpha)
            assert copeland(stack[0] + pad).tolist() == expected[0], (seed, alpha)


def test_copeland_units_of_large_denominators_are_an_equivalent_alphas():
    """At m = 4 a row's doubled Copeland score in raw units would reach
    2·den·3 in size, past 2^63 for den beyond ``last``.  The scorer always
    takes the units of ``equivalent_alpha``, whose denominator is below 2m,
    at the extremes (alpha near 0 and near 1) and one step past ``last``,
    where the weight is 1/4, which orders every Copeland score at m = 4 as
    1/(last + 1) does; the search and the oracle solve alike."""
    m, last = 4, ((1 << 63) - 1) // 6
    # Candidate 0 beats every rival and candidate 3 loses to every one.
    election = pc.PartyElection([(0, 1, 2, 3), (1, 2, 0, 3)], [2, 1])
    margins = _margins(election)
    for alpha in (Fraction(1, last), Fraction(last - 1, last), Fraction(1, last + 1)):
        small = equivalent_alpha(alpha, m)
        assert small.denominator < 2 * m, alpha
        pad, copeland = _margin_scorer(pc.Copeland(alpha=alpha), m, 3)
        expected = [
            2 * small.denominator * copeland_scores(election, small)[c]
            - 2 * small.numerator * (m - 1)
            for c in range(m)
        ]
        assert copeland(margins + pad).tolist() == expected, alpha
    assert equivalent_alpha(Fraction(1, last + 1), m) == Fraction(1, 4)
    for direction in pc.Direction:
        inst = pc.ProblemInstance(
            election=election, p=0, k=1, rule=pc.Copeland(alpha=Fraction(1, last + 1)),
            model=pc.WinnerModel.UNIQUE, destination_mode=pc.DestinationMode.ONE,
            direction=direction,
        )
        result = exact_search(inst)
        assert result.status is pc.SolveStatus.FEASIBLE
        assert (result.value, result.witness) == (oracle(inst).value, oracle(inst).witness)


def test_equivalent_alpha_keeps_every_copeland_comparison():
    """For m = 2..7 and tie weights of every kind (small denominators, which
    stay, and denominators up to 10^40, which are replaced), each difference
    of wins dw plus alpha times a difference of ties dt, both within
    m - 1 of 0, has the same sign under both weights."""
    rng = random.Random(27)
    alphas = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3)]
    for den in (7, 10**6 + 3, 10**18 + 9, 10**40 + 1):
        alphas += [Fraction(rng.randint(0, den), den) for _ in range(40)]
    for m in range(2, 8):
        for alpha in alphas:
            small = equivalent_alpha(alpha, m)
            assert small.denominator <= max(alpha.denominator, 2 * (m - 1)) and 0 <= small <= 1
            if alpha.denominator < m:
                assert small == alpha
            for dw in range(1 - m, m):
                for dt in range(1 - m, m):
                    # The sign of dw + a·dt for a = num/den is that of den·dw + num·dt.
                    signs = [
                        (a.denominator * dw + a.numerator * dt > 0)
                        - (a.denominator * dw + a.numerator * dt < 0)
                        for a in (alpha, small)
                    ]
                    assert signs[0] == signs[1], (m, alpha, dw, dt)


def _permuted(inst: pc.ProblemInstance, perm: list[int]) -> pc.ProblemInstance:
    return pc.ProblemInstance(
        election=pc.PartyElection(inst.election.orders[perm], inst.election.sizes[perm]),
        p=inst.p, k=inst.k, rule=inst.rule, model=inst.model,
        destination_mode=inst.destination_mode, direction=inst.direction,
    )


def test_party_permutation_invariance():
    rng = random.Random(5)
    problems = collect_problems(
        seed_base=100, count=25, rule_spec="maximin", direction="min",
        model="unique", max_parties=3, max_voters=8,
    )
    for inst in problems:
        perm = list(range(len(inst.election.sizes)))
        rng.shuffle(perm)
        base = pc.exact_search_min(inst)
        shuffled = pc.exact_search_min(_permuted(inst, perm))
        assert values_match(base, shuffled)


def test_multi_destination_monotone_quick():
    problems = collect_problems(
        seed_base=900, count=20, rule_spec="borda", direction="min",
        model="unique", max_parties=3, max_voters=7,
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
                [0 if a == b else 1 if order.index(a) < order.index(b) else -1 for b in range(m)]
                for a in range(m)
            ]
            for order in orders
        ]
        deltas = voter_margins(pc.Maximin(), inst.election.ranks, inst.p)
        assert deltas.dtype == "int64"
        assert deltas.tolist() == expected, seed


def _many_parties(rule_spec, direction, dest, parties):
    return pc.generate_random(
        seed=1, num_candidates=5, num_parties=parties, size_range=(1, 5),
        rule_spec=rule_spec, direction=direction, dest=dest,
    ).instance


@pytest.mark.parametrize("rule_spec, direction, dest, parties, status", [
    ("copeland:1/2", "max", "multi", 32, "feasible"),  # 992 pairs
    ("maximin", "min", "multi", 33, "feasible"),
    ("maximin", "max", "one", 1001, "feasible"),
    ("copeland:1/2", "max", "multi", 40, "budget_exhausted"),  # 1,560 pairs
    ("maximin", "max", "one", 1100, "feasible"),
])
def test_branch_and_bound_survives_many_pairs(rule_spec, direction, dest, parties, status):
    """At a thousand (source, destination) pairs and more, the search walks
    its counts in a loop, not by recursion: it returns a checked value, or
    BUDGET_EXHAUSTED one node past the budget, never an exception.  It is
    called directly: ``solve_instance`` sends the multi-destination MAX rows,
    which have no majority party, to ``max_shift``."""
    inst = _many_parties(rule_spec, direction, dest, parties)
    budget = 200_000
    result = exact_search(inst, node_budget=budget)
    assert result.status is pc.SolveStatus(status)
    if result.status is pc.SolveStatus.BUDGET_EXHAUSTED:
        assert result.nodes == budget + 1
    else:
        assert result.nodes <= budget
        assert pc.check_witness(inst, result.witness, k=result.value).ok


@pytest.mark.parametrize("rule_spec, direction, dest, parties, value, nodes", [
    ("copeland:1/2", "max", "multi", 31, 107, 1_038),
    ("maximin", "min", "multi", 31, 1, 4_141),
    ("maximin", "max", "one", 900, 2_769, 8_448),
    ("copeland:1/2", "min", "one", 900, 5, 4_567),
])
def test_branch_and_bound_keeps_its_counts_at_depth(
    rule_spec, direction, dest, parties, value, nodes
):
    """The deepest draws that a search recursing one frame per pair still
    solved: their values and node counts, as that search found them.  The
    search is called directly, as in the test above."""
    inst = _many_parties(rule_spec, direction, dest, parties)
    result = exact_search(inst)
    assert (result.status, result.value, result.nodes) == (
        pc.SolveStatus.FEASIBLE, value, nodes
    )
    assert pc.check_witness(inst, result.witness, k=result.value).ok


def _reject_all(*args, **kwargs):
    return pc.parties.WitnessCheck(False, "forced rejection")


@pytest.mark.parametrize("solver", ["oracle", "auto"])
def test_solve_instance_raises_on_rejected_plan(monkeypatch, solver):
    # Maximin has no polynomial solver, so "auto" runs the search.
    inst = build(
        pc.Maximin(), [((P, A, B), 3), ((A, P, B), 1), ((B, A, P), 1)], p=P, k=1,
        direction="min",
    )
    assert pc.solve_instance(inst, solver).status is pc.SolveStatus.FEASIBLE
    monkeypatch.setattr("partycred.parties.check_witness", _reject_all)
    with pytest.raises(RuntimeError, match="forced rejection"):
        pc.solve_instance(inst, solver)


def test_solve_instance_checks_each_feasible_result_once(monkeypatch):
    calls = []
    real_check = pc.parties.check_witness

    def counting_check(*args, **kwargs):
        calls.append(args)
        return real_check(*args, **kwargs)

    monkeypatch.setattr("partycred.parties.check_witness", counting_check)
    parties = [((P, A, B), 3), ((A, P, B), 1), ((B, A, P), 1)]
    for rule in (PLUR3, pc.Maximin()):  # auto: min_scoring, then the search
        inst = build(rule, parties, p=P, k=1, direction="min")
        for solver in ("auto", "oracle"):
            calls.clear()
            assert pc.solve_instance(inst, solver).value == 1
            assert len(calls) == 1, (rule, solver)
        calls.clear()
        unsolvable = build(rule, [((P, A, B), 3)], p=P, direction="min")
        assert pc.solve_instance(unsolvable).status is pc.SolveStatus.INFEASIBLE
        assert calls == []


def test_benchmark_pools_keep_their_search_node_counts(monkeypatch):
    """The search-one and search-multi pools expand exactly the benchmark's
    ``search.nodes`` (and budget-exhausted entries) at its node budget.

    Every prune depends on how tight the bound is, so a looser bound that
    stays admissible keeps every answer and shows only here.  A change that
    tightens the bound updates these numbers and says why they fell.
    search-multi's 18 MAX entries have no majority party and take
    ``max_shift``, so only its 4 MIN entries reach the search."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    loader = importlib.util.spec_from_file_location("perfbench_instances",
                                                    perfbench / "instances.py")
    pools = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, pools)  # its dataclasses look it up
    loader.loader.exec_module(pools)
    spec = json.loads((perfbench / "spec.json").read_text())
    budget = spec["node_budget"]
    counted = {}
    for workload in ("search-one", "search-multi"):
        nodes = exhausted = 0
        for index in range(pools.pool_size(workload)):
            text = pools.instance_text(workload, index)
            inst = pc.instance_io.parse_instance(text).instance
            if pc.solve.poly_solver(inst) is not None:
                continue
            result = pc.solve_instance(inst, node_budget=budget)
            nodes += result.nodes
            exhausted += result.status is pc.SolveStatus.BUDGET_EXHAUSTED
        counted[workload] = (nodes, exhausted)
    assert counted == {"search-one": (67_440, 0), "search-multi": (137, 0)}
