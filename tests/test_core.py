import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partycred as pc
from partycred.core import validate_preference


def test_validate_preference_identity():
    assert validate_preference((0, 1, 2), 3) is None


def test_validate_preference_duplicate():
    assert "duplicate 0" in validate_preference((0, 0, 2), 3)


def test_validate_preference_missing():
    assert "missing 3" in validate_preference((2, 1, 0), 4)


def test_validate_preference_out_of_range():
    assert "out of range" in validate_preference((0, 5), 2)


def test_preference_rejects_bad_order():
    with pytest.raises(ValueError):
        pc.Preference(order=(0, 0, 2))


def test_rank_of():
    pref = pc.Preference(order=(0, 1, 2))  # a > b > c
    assert pref.rank_of(0) == 1
    assert pref.rank_of(2) == 3
    two = pc.Preference(order=(1, 0))  # b > a
    assert two.rank_of(0) == 2
    with pytest.raises(ValueError):
        pref.rank_of(9)


def test_prefers():
    pref = pc.Preference(order=(2, 0, 1))
    assert pref.prefers(2, 1)
    assert not pref.prefers(1, 0)


def test_election_validation():
    good = pc.Preference(order=(0, 1))
    with pytest.raises(ValueError):
        pc.Election(num_candidates=2, ballots=((good, 0),))
    with pytest.raises(ValueError):
        pc.Election(num_candidates=3, ballots=((good, 1),))
    with pytest.raises(ValueError):
        pc.Election(num_candidates=2, ballots=())


def test_pairwise_symmetry_two_ballots():
    p_a = pc.Preference(order=(0, 1))
    a_p = pc.Preference(order=(1, 0))
    e = pc.Election(num_candidates=2, ballots=((p_a, 1), (a_p, 1)))
    n = pc.pairwise_matrix(e)
    assert n.n_of(0, 1) == 1 and n.n_of(1, 0) == 1
    assert n.margin(0, 1) == 0


def test_pairwise_unanimous():
    p_a = pc.Preference(order=(0, 1))
    e = pc.Election(num_candidates=2, ballots=((p_a, 3),))
    assert pc.pairwise_matrix(e).n_of(0, 1) == 3


def test_pairwise_diagonal_rejected():
    e = pc.Election(num_candidates=2, ballots=((pc.Preference(order=(0, 1)), 1),))
    with pytest.raises(ValueError):
        pc.pairwise_matrix(e).n_of(1, 1)


def test_ranks_array():
    e = pc.Election(
        num_candidates=3,
        ballots=((pc.Preference(order=(2, 0, 1)), 1),),
    )
    assert e.ranks.tolist() == [[1, 2, 0]]
    assert e.sizes.tolist() == [1]


@st.composite
def elections(draw, max_candidates=5, max_ballots=5, max_weight=4):
    m = draw(st.integers(2, max_candidates))
    n_ballots = draw(st.integers(1, max_ballots))
    ballots = tuple(
        (
            pc.Preference(order=tuple(draw(st.permutations(range(m))))),
            draw(st.integers(1, max_weight)),
        )
        for _ in range(n_ballots)
    )
    return pc.Election(num_candidates=m, ballots=ballots)


@settings(max_examples=60, deadline=None)
@given(elections())
def test_pairwise_completeness(e):
    n = pc.pairwise_matrix(e)
    for c in range(e.num_candidates):
        for d in range(c + 1, e.num_candidates):
            assert n.n_of(c, d) + n.n_of(d, c) == e.num_voters


@settings(max_examples=60, deadline=None)
@given(elections())
def test_pairwise_weight_equivalence(e):
    expanded = pc.Election(
        num_candidates=e.num_candidates,
        ballots=tuple(
            (pref, 1) for pref, weight in e.ballots for _ in range(weight)
        ),
    )
    assert np.array_equal(
        pc.pairwise_matrix(e).counts, pc.pairwise_matrix(expanded).counts
    )
