from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partycred as pc
from partycred.rules import (
    condorcet_winner,
    copeland_scores,
    maximin_scores,
    scoring_scores,
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
