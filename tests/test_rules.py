import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partycred as pc
from partycred import _kernels
from partycred.rules import (
    VOTER_POINT_BOUND,
    WinTable,
    condorcet_winner,
    copeland_scores,
    maximin_scores,
    p_wins,
    scoring_scores,
    win_table,
)

P, A, B = 0, 1, 2


def election(*ballots):
    """PartyElection from (order, weight) ballots."""
    return pc.PartyElection([order for order, _ in ballots], [w for _, w in ballots])


def test_scoring_vector_named():
    assert pc.scoring_vector_for("plurality", 4) == (1, 0, 0, 0)
    assert pc.scoring_vector_for("veto", 3) == (1, 1, 0)
    assert pc.scoring_vector_for("borda", 3) == (2, 1, 0)
    assert pc.scoring_vector_for("approval", 4, 2) == (1, 1, 0, 0)
    with pytest.raises(ValueError):
        pc.scoring_vector_for("approval", 3, 0)
    with pytest.raises(ValueError):
        pc.scoring_vector_for("nanson", 3)


def test_scoring_vector_validation():
    with pytest.raises(ValueError):
        pc.Scoring(vector=(0, 1))  # increasing
    with pytest.raises(ValueError):
        pc.Scoring(vector=(1, -1))


def test_scoring_scores_plurality():
    e = election(((P, A, B), 3), ((A, P, B), 1))
    assert scoring_scores(e, (1, 0, 0)) == {P: 3, A: 1, B: 0}


def test_scoring_vector_length_mismatch():
    e = election(((0, 1), 1))
    with pytest.raises(ValueError):
        scoring_scores(e, (1, 0, 0))


def test_scoring_refuses_sums_that_could_wrap_int64():
    """n voters times the vector's top entry must stay below
    ``VOTER_POINT_BOUND``.  At the largest top entry below it the scores are
    exact and the MIN solve matches the oracle; one step on, ``winners`` and
    ``ProblemInstance`` raise.  ``Scoring((4 * 10**18, 0))`` over parties of
    3 and 2 once wrapped in int64 and elected candidate 1."""
    e = pc.PartyElection([[0, 1, 2], [1, 0, 2]], [3, 2])
    top = (VOTER_POINT_BOUND - 1) // 5
    assert 5 * top < VOTER_POINT_BOUND <= 5 * (top + 1)
    rule = pc.Scoring((top, top // 2, 0))
    assert scoring_scores(e, rule.vector) == {
        0: 3 * top + 2 * (top // 2), 1: 3 * (top // 2) + 2 * top, 2: 0
    }
    assert pc.winners(e, rule, pc.WinnerModel.UNIQUE) == {0}
    inst = pc.ProblemInstance(
        election=e, p=0, k=1, rule=rule, model=pc.WinnerModel.UNIQUE,
        destination_mode=pc.DestinationMode.ONE, direction=pc.Direction.MIN,
    )
    result, ref = pc.solve_instance(inst), pc.oracle_min(inst)
    assert (result.value, ref.value) == (1, 1)
    assert pc.check_witness(inst, result.witness, k=result.value).ok

    past = pc.Scoring((top + 1, (top + 1) // 2, 0))
    with pytest.raises(ValueError, match="2\\*\\*63 // 3"):
        pc.winners(e, past, pc.WinnerModel.UNIQUE)
    with pytest.raises(ValueError, match="2\\*\\*63 // 3"):
        pc.ProblemInstance(
            election=e, p=0, k=1, rule=past, model=pc.WinnerModel.UNIQUE,
            destination_mode=pc.DestinationMode.ONE, direction=pc.Direction.MIN,
        )
    with pytest.raises(ValueError, match="2\\*\\*63 // 3"):
        pc.winners(
            pc.PartyElection([[0, 1], [1, 0]], [3, 2]), pc.Scoring((4 * 10**18, 0)),
            pc.WinnerModel.UNIQUE,
        )
    # An empty election counts as one voter, so no entry overflows int64.
    with pytest.raises(ValueError, match="2\\*\\*63 // 3"):
        scoring_scores(pc.PartyElection([[0, 1]], [0]), (2**63, 0))


def test_copeland_single_ballot():
    e = election(((P, A), 1))
    assert copeland_scores(e, Fraction(1, 2)) == {P: 1, A: 0}


def test_copeland_tie_scores_alpha():
    e = election(((P, A), 1), ((A, P), 1))
    scores = copeland_scores(e, Fraction(1, 2))
    assert scores == {P: Fraction(1, 2), A: Fraction(1, 2)}
    assert all(isinstance(s, Fraction) for s in scores.values())


def test_copeland_alpha_range():
    with pytest.raises(ValueError):
        pc.Copeland(alpha=Fraction(3, 2))
    with pytest.raises(ValueError):
        pc.Copeland(alpha=Fraction(-1, 2))


def test_maximin_unanimous():
    e = election(((P, A), 3))
    assert maximin_scores(e) == {P: 3, A: 0}


def test_condorcet_cycle_has_no_winner():
    e = election(((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1))
    assert condorcet_winner(e) is None
    for model in pc.WinnerModel:
        assert pc.winners(e, pc.Condorcet(), model) == frozenset()


def test_winners_unique_vs_cowinner():
    e = election(((P, A), 1), ((A, P), 1))
    rule = pc.Scoring(vector=(1, 0))
    assert pc.winners(e, rule, pc.WinnerModel.UNIQUE) == frozenset()
    assert pc.winners(e, rule, pc.WinnerModel.COWINNER) == frozenset({P, A})


@st.composite
def elections(draw, max_candidates=4, max_ballots=4, max_weight=3):
    m = draw(st.integers(2, max_candidates))
    n_ballots = draw(st.integers(1, max_ballots))
    return election(*(
        (draw(st.permutations(range(m))), draw(st.integers(1, max_weight)))
        for _ in range(n_ballots)
    ))


@settings(max_examples=80, deadline=None)
@given(elections(), st.fractions(0, 1, max_denominator=4))
def test_copeland_score_range(e, alpha):
    scores = copeland_scores(e, alpha)
    for s in scores.values():
        assert 0 <= s <= e.num_candidates - 1


@settings(max_examples=80, deadline=None)
@given(elections(), st.data())
def test_scoring_monotone_consistency(e, data):
    """Adding a ballot that tops c never removes c from the argmax set."""
    m = e.num_candidates
    vector = pc.scoring_vector_for(
        data.draw(st.sampled_from(["plurality", "veto", "borda"])), m
    )
    scores = scoring_scores(e, vector)
    best = max(scores.values())
    c = data.draw(st.sampled_from(sorted(k for k, v in scores.items() if v == best)))
    extra_order = (c,) + tuple(x for x in range(m) if x != c)
    bigger = pc.PartyElection(e.orders.tolist() + [extra_order], e.sizes.tolist() + [1])
    new_scores = scoring_scores(bigger, vector)
    assert new_scores[c] == max(new_scores.values())


@settings(max_examples=80, deadline=None)
@given(elections(), st.fractions(0, 1, max_denominator=4))
def test_condorcet_consistency(e, alpha):
    """A Condorcet winner tops both the Copeland and the Maximin scoreboard."""
    w = condorcet_winner(e)
    if w is None:
        return
    cope = copeland_scores(e, alpha)
    assert cope[w] == max(cope.values())
    mm = maximin_scores(e)
    assert mm[w] == max(mm.values())


def test_copeland_winners_are_the_argmax_of_the_fraction_scores():
    """``winners`` reads Copeland's integer units, den·wins + num·ties; they
    pick the argmax of the Fractions wins + alpha·ties, counted here from
    the tally, at alpha 0, 1/3, 1/2, 2/3 and 1 under both models, and
    ``copeland_scores`` gives those Fractions.  Every n is even, so pairwise
    ties occur and alpha decides some draws."""
    rng = random.Random(31)
    alphas = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    ties = unique = 0
    for _ in range(300):
        m, l = rng.randint(2, 6), rng.randint(1, 6)
        sizes = [rng.randint(0, 4) for _ in range(l)]
        total = sum(sizes)
        sizes[0] += 2 if total == 0 else total % 2  # an even n >= 2
        e = pc.PartyElection([rng.sample(range(m), m) for _ in range(l)], sizes)
        tally = pc.core.pairwise_matrix(e).tolist()
        for alpha in alphas:
            scores = {
                c: sum(1 if tally[c][d] > tally[d][c] else alpha if tally[c][d] == tally[d][c] else 0
                       for d in range(m) if d != c)
                for c in range(m)
            }
            assert copeland_scores(e, alpha) == scores
            best = max(scores.values())
            argmax = frozenset(c for c, v in scores.items() if v == best)
            for model in pc.WinnerModel:
                want = argmax if model is pc.WinnerModel.COWINNER or len(argmax) == 1 else frozenset()
                assert pc.winners(e, pc.Copeland(alpha), model) == want, (e, alpha, model)
            unique += len(argmax) == 1
        ties += any(tally[c][d] == tally[d][c] for c in range(m) for d in range(c))
    assert ties >= 100 and unique >= 500


def test_copeland_at_a_30_digit_denominator_parses_and_solves():
    """alpha = 1/(10^30 + 1): an int64 den·wins would overflow, but the file
    parses, its winners are those of the Fraction scores and of alpha = 1/6,
    which orders every score at m = 4 alike, and the oracle and the search
    solve it with the same value and witness."""
    huge = "copeland:1/" + str(10**30 + 1)
    for seed, direction in ((3, "min"), (4, "max")):
        parsed = pc.instance_io.generate_random(
            seed=seed, num_candidates=4, num_parties=4, size_range=(1, 3),
            rule_spec="copeland:1/6", direction=direction,
        )
        text = pc.instance_io.serialize_instance(parsed).replace("copeland:1/6", huge)
        inst = pc.instance_io.parse_instance(text).instance
        alpha = Fraction(1, 10**30 + 1)
        assert inst.rule == pc.Copeland(alpha)
        scores = copeland_scores(inst.election, alpha)
        best = max(scores.values())
        assert pc.winners(inst.election, inst.rule, inst.model) == {
            c for c, v in scores.items() if v == best
        } == pc.winners(inst.election, parsed.instance.rule, inst.model) == {inst.p}
        truth = pc.solve_instance(inst, solver="oracle")
        assert truth.status is pc.SolveStatus.FEASIBLE
        assert pc.check_witness(inst, truth.witness, k=truth.value).ok
        searched = pc.solve_instance(inst)
        assert (searched.value, searched.witness) == (truth.value, truth.witness)


def test_condorcet_winner_reads_one_tally_row(monkeypatch):
    """The winner check stays O(l·m): at m = 50 every tally it asks for is
    one row, the knockout champion's, and never the (m, m) tally."""
    rng = np.random.default_rng(3)
    calls = []
    kernel = _kernels.pairwise_tally

    def spy(ranks, weights, rows=None):
        calls.append(ranks.shape[1] if rows is None else len(rows))
        return kernel(ranks, weights, rows)

    monkeypatch.setattr(_kernels, "pairwise_tally", spy)
    l = 1_300
    won = []
    for keys in (np.arange(50) + rng.normal(0, 4.0, (l, 50)), rng.random((l, 50))):
        e = pc.PartyElection(np.argsort(keys, axis=1).tolist(), rng.integers(1, 9, size=l).tolist())
        for model in pc.WinnerModel:
            won.append(pc.winners(e, pc.Condorcet(), model))
    assert won[0] == {0} and won[2] == frozenset()  # around one order; uniform
    assert calls and max(calls) <= 1, calls


def test_batched_p_wins_is_each_tables_answer():
    """``p_wins`` on a (K, ...) block of win tables, one per election over
    the same parties and n, and on the same block shaped (2, K/2, ...),
    answers as K single calls do, and each is membership in ``winners``.
    All seven rule kinds (Copeland at alpha 0, 1/3, 1/2, 1 and at a
    30-digit denominator), both models, every p, at m = 1..6; Maximin,
    which needs a rival, refuses m = 1 both ways."""
    rng = random.Random(29)
    alphas = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(1, 10**30 + 1))
    seen = {}
    for m in range(1, 7):
        rules = [pc.Scoring(pc.scoring_vector_for(name, m, max(1, m // 2)))
                 for name in ("plurality", "veto", "approval", "borda")]
        rules += [pc.Condorcet(), pc.Maximin()] + [pc.Copeland(a) for a in alphas]
        for _ in range(6):
            l, n, k = rng.randint(1, 5), rng.randint(1, 12), 2 * rng.randint(1, 4)
            ranks = np.array([rng.sample(range(m), m) for _ in range(l)], dtype=np.int64)
            elections = [
                pc.PartyElection.from_arrays(
                    ranks, np.bincount(rng.choices(range(l), k=n), minlength=l)
                )
                for _ in range(k)
            ]
            for rule in rules:
                for model in pc.WinnerModel:
                    if m == 1 and isinstance(rule, pc.Maximin):
                        with pytest.raises(ValueError, match="at least two candidates"):
                            pc.winners(elections[0], rule, model)
                        with pytest.raises(ValueError, match="at least two candidates"):
                            p_wins(win_table(elections[0], rule, 0), rule, model)
                        continue
                    for p in range(m):
                        tables = [win_table(e, rule, p) for e in elections]
                        singles = [p_wins(t, rule, model) for t in tables]
                        assert all(type(won) is bool for won in singles)
                        want = [p in pc.winners(e, rule, model) for e in elections]
                        assert singles == want, (m, rule, model, p)
                        block = np.stack([t.values for t in tables])
                        batched = p_wins(WinTable(p, n, block), rule, model)
                        assert batched.dtype == bool and batched.tolist() == want
                        square = block.reshape((2, k // 2) + block.shape[1:])
                        assert p_wins(WinTable(p, n, square), rule, model).ravel().tolist() == want
                        kind = type(rule).__name__
                        seen.setdefault((kind, model, m > 1), set()).update(want)
    # Every rule kind and model both wins and loses once there are rivals.
    assert all(outcomes == {True, False} for (_, _, rivals), outcomes in seen.items() if rivals)
    assert all(outcomes == {True} for (_, _, rivals), outcomes in seen.items() if not rivals)
