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
    with pytest.raises(ValueError, match="party 0 has a bad order: duplicate 0"):
        pc.PartyElection([(0, 0, 2)], [1])


def test_rank_of():
    pe = pc.PartyElection([(0, 1, 2), (1, 0, 2)], [1, 1])  # a > b > c, b > a > c
    assert pe.ranks[0].tolist() == [0, 1, 2]
    assert pe.ranks[1, 0] == 1 and pe.ranks[1, 1] == 0


def test_prefers():
    pe = pc.PartyElection([(2, 0, 1)], [1])
    assert pe.ranks[0, 2] < pe.ranks[0, 1]
    assert not pe.ranks[0, 1] < pe.ranks[0, 0]


def test_election_validation():
    with pytest.raises(ValueError, match="need at least one candidate"):
        pc.PartyElection([(), ()], [1, 1])
    pe = pc.PartyElection([(0, 1), (1, 0)], [1, 1])
    assert pe.num_candidates == 2 and pe.num_voters == 2


def test_pairwise_symmetry_two_ballots():
    n = pc.pairwise_matrix(pc.PartyElection([(0, 1), (1, 0)], [1, 1]))
    assert n[0, 1] == 1 and n[1, 0] == 1
    assert n[0, 1] - n[1, 0] == 0


def test_pairwise_unanimous():
    n = pc.pairwise_matrix(pc.PartyElection([(0, 1)], [3]))
    assert n.tolist() == [[0, 3], [0, 0]]


def test_ranks_array():
    pe = pc.PartyElection([(2, 0, 1)], [1])
    assert pe.ranks.tolist() == [[1, 2, 0]]
    assert pe.sizes.tolist() == [1]
    assert pe.orders.tolist() == [[2, 0, 1]]


@st.composite
def elections(draw, max_candidates=5, max_ballots=5, max_weight=4):
    m = draw(st.integers(2, max_candidates))
    n_ballots = draw(st.integers(1, max_ballots))
    ballots = [
        (draw(st.permutations(range(m))), draw(st.integers(1, max_weight)))
        for _ in range(n_ballots)
    ]
    return pc.PartyElection([order for order, _ in ballots], [w for _, w in ballots])


@settings(max_examples=60, deadline=None)
@given(elections())
def test_pairwise_completeness(e):
    n = pc.pairwise_matrix(e)
    for c in range(e.num_candidates):
        for d in range(c + 1, e.num_candidates):
            assert n[c, d] + n[d, c] == e.num_voters


@settings(max_examples=60, deadline=None)
@given(elections())
def test_pairwise_weight_equivalence(e):
    orders, sizes = e.orders.tolist(), e.sizes.tolist()
    expanded = pc.PartyElection(
        [order for order, size in zip(orders, sizes) for _ in range(size)],
        [1] * e.num_voters,
    )
    assert np.array_equal(pc.pairwise_matrix(e), pc.pairwise_matrix(expanded))
