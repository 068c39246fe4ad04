from fractions import Fraction

import pytest

import partycred as pc
from partycred import reductions as rd
from partycred.core import pairwise_matrix
from partycred.rules import (
    condorcet_winner,
    copeland_scores,
    maximin_scores,
    scoring_scores,
)

from conftest import (
    IS_NO,
    IS_YES,
    VC_NO,
    VC_YES,
    X3C_NO6,
    X3C_YES3,
    X3C_YES6,
)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Source problems and naive solvers


def test_x3c_validation():
    with pytest.raises(ValueError, match="multiple of 3"):
        rd.X3CInstance(4, ())
    with pytest.raises(ValueError, match="3 distinct"):
        rd.X3CInstance(3, ((0, 0, 1),) * 3)
    with pytest.raises(ValueError, match="exactly three"):
        rd.X3CInstance(3, ((0, 1, 2),) * 2)


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        rd.GraphInstance(2, ((0, 0),), 1)
    with pytest.raises(ValueError, match="duplicate edge"):
        rd.GraphInstance(2, ((0, 1), (1, 0)), 1)
    with pytest.raises(ValueError, match="out of range"):
        rd.GraphInstance(2, ((0, 5),), 1)


def test_naive_solvers():
    assert rd.solve_x3c_naive(X3C_YES3)
    assert rd.solve_x3c_naive(X3C_YES6)
    assert not rd.solve_x3c_naive(X3C_NO6)
    assert rd.solve_vc_naive(VC_YES, 1)
    assert not rd.solve_vc_naive(VC_NO, 1)
    assert not rd.solve_is_naive(IS_NO, 2)  # triangle: every pair adjacent
    assert rd.solve_is_naive(IS_YES, 2)
    assert rd.solve_is_naive(IS_NO, 0)


def test_naive_size_caps():
    big_graph = rd.GraphInstance(13, (), 1)
    with pytest.raises(ValueError, match="size cap"):
        rd.solve_vc_naive(big_graph, 1)
    with pytest.raises(ValueError, match="size cap"):
        rd.solve_is_naive(big_graph, 1)
    big_x3c = rd.X3CInstance(
        15, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(5)) * 3
    )
    with pytest.raises(ValueError, match="size cap"):
        rd.solve_x3c_naive(big_x3c)


# ---------------------------------------------------------------------------
# Constructor side-assumption enforcement


def test_vc_copeland_assumptions():
    odd = rd.GraphInstance(9, tuple((0, v) for v in range(1, 9)), 1)
    with pytest.raises(ValueError, match="even"):
        rd.reduce_vc_to_copeland_min(odd, HALF)
    big_t = rd.GraphInstance(8, tuple((0, v) for v in range(1, 8)), 2)
    with pytest.raises(ValueError, match="t <"):
        rd.reduce_vc_to_copeland_min(big_t, HALF)
    no_leaves = rd.GraphInstance(
        10, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)), 1
    )
    with pytest.raises(ValueError, match="degree-1"):
        rd.reduce_vc_to_copeland_min(no_leaves, HALF)


def test_x3c_maximin_parity_assumption():
    # Nine sets over a 9-element universe: n - m/3 = 6, even, accepted.
    ok = rd.X3CInstance(
        9, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(3)) * 3
    )
    rd.reduce_x3c_to_maximin_min(ok)
    # The m=3 triple-copy system has n - m/3 = 2 but p starts tied, which
    # the instance invariant rejects loudly.
    with pytest.raises(ValueError, match="not the initial winner"):
        rd.reduce_x3c_to_maximin_min(X3C_YES3)


def test_is_reductions_need_positive_bound():
    g = rd.GraphInstance(3, ((0, 1), (1, 2), (0, 2)), 0)
    with pytest.raises(ValueError, match="at least 1"):
        rd.reduce_is_to_maximin_max(g)
    with pytest.raises(ValueError, match="at least 1"):
        rd.reduce_is_to_copeland_max(g, HALF)
    edgeless = rd.GraphInstance(2, (), 1)
    with pytest.raises(ValueError, match="at least one edge"):
        rd.reduce_is_to_copeland_max(edgeless, HALF)


# ---------------------------------------------------------------------------
# Construction identities


def _names_index(reduced):
    return {name: i for i, name in enumerate(reduced.candidate_names)}


@pytest.mark.parametrize("graph", [VC_YES, VC_NO], ids=["star", "sparse"])
def test_vc_copeland_identities(graph):
    reduced = rd.reduce_vc_to_copeland_min(graph, HALF)
    e = reduced.instance.election
    idx = _names_index(reduced)
    n_edges = len(graph.edges)
    assert e.num_candidates == n_edges + 6
    scores = copeland_scores(e, HALF)
    assert scores[idx["p"]] == n_edges + 4
    assert scores[idx["a1"]] == n_edges + 2
    assert scores[idx["a2"]] == n_edges
    for i in (1, 2, 3):
        assert scores[idx[f"b{i}"]] == 5 - i
    for i in range(1, n_edges + 1):
        assert scores[idx[f"e{i}"]] == n_edges - i + 3
    assert reduced.instance.k == graph.bound


@pytest.mark.parametrize("x3c", [X3C_YES6, X3C_NO6], ids=["yes6", "no6"])
def test_x3c_maximin_identities(x3c):
    reduced = rd.reduce_x3c_to_maximin_min(x3c)
    e = reduced.instance.election
    idx = _names_index(reduced)
    m, n = x3c.universe_size, x3c.num_sets
    assert e.num_candidates == m + 4
    assert e.num_voters == 2 * n + m // 3 + 1
    scores = maximin_scores(e)
    assert scores[idx["p"]] == n + 1
    assert scores[idx["z"]] == n
    assert reduced.instance.k == m // 3


@pytest.mark.parametrize("x3c", [X3C_YES6, X3C_NO6], ids=["yes6", "no6"])
def test_x3c_borda_identities(x3c):
    reduced = rd.reduce_x3c_to_borda_max(x3c)
    e = reduced.instance.election
    idx = _names_index(reduced)
    m, n = x3c.universe_size, x3c.num_sets
    assert e.num_candidates == m + 6
    scores = scoring_scores(e, reduced.instance.rule.vector)
    assert scores[idx["p"]] - scores[idx["z"]] == 5
    assert scores[idx["p"]] - scores[idx["y"]] == 3 * n + 4
    assert reduced.instance.k == n - m // 3


@pytest.mark.parametrize("reduce", [rd.reduce_x3c_to_borda_max, rd.reduce_x3c_to_condorcet_max])
def test_x3c_max_cover_converts_to_a_witness(reduce):
    """The cover of sets 0 and 3 as a plan: Borda moves the parties of the
    other four sets (``complement_selection``), Condorcet those of the two."""
    reduced = reduce(X3C_YES6)
    plan = reduced.witness_plan([0, 3])
    assert plan.total == reduced.instance.k
    assert plan.destinations() == {reduced.destination_party}
    assert pc.check_witness(reduced.instance, plan).ok


@pytest.mark.parametrize("x3c", [X3C_YES6, X3C_NO6], ids=["yes6", "no6"])
def test_x3c_condorcet_identities(x3c):
    reduced = rd.reduce_x3c_to_condorcet_max(x3c)
    e = reduced.instance.election
    m, n = x3c.universe_size, x3c.num_sets
    assert e.num_candidates == 2 * n + m + 9
    assert e.num_voters == 2 * n + 5
    assert condorcet_winner(e) == reduced.instance.p
    assert reduced.instance.k == m // 3


@pytest.mark.parametrize("graph", [IS_NO, IS_YES], ids=["triangle", "path4"])
def test_is_maximin_pairwise_table(graph):
    reduced = rd.reduce_is_to_maximin_max(graph)
    idx = _names_index(reduced)
    n, m = graph.num_vertices, len(graph.edges)
    e = reduced.instance.election
    assert e.num_candidates == m + 3
    counts = pairwise_matrix(e)
    p, a, b = idx["p"], idx["a"], idx["b"]
    edges = [idx[f"e{i + 1}"] for i in range(m)]
    assert counts[p, a] == n + 1
    assert counts[p, b] == n + 1
    assert counts[b, a] == n + 1
    assert counts[a, b] == n
    for e_c in edges:
        assert counts[p, e_c] == n + 2
        assert counts[b, e_c] == n
        assert counts[a, e_c] == n
        assert counts[e_c, b] == n + 1
        assert counts[e_c, a] == n + 1
    for i, e_i in enumerate(edges):
        for j, e_j in enumerate(edges):
            if i == j:
                continue
            floor = n if i > j else n - 1
            assert counts[e_i, e_j] >= floor
    assert reduced.instance.k == graph.bound


@pytest.mark.parametrize("graph", [IS_NO, IS_YES], ids=["triangle", "path4"])
def test_is_copeland_identities(graph):
    reduced = rd.reduce_is_to_copeland_max(graph, HALF)
    e = reduced.instance.election
    n, m = graph.num_vertices, len(graph.edges)
    assert e.num_voters == 2 * n + 1
    counts = pairwise_matrix(e)
    for c in range(e.num_candidates):
        for d in range(c + 1, e.num_candidates):
            assert counts[c, d] != counts[d, c], "no pairwise tie may exist"
    scores = copeland_scores(e, HALF)
    idx = _names_index(reduced)
    assert scores[idx["p"]] == 3 * m  # |A| + |B| + edge-candidate count
    assert reduced.instance.k == graph.bound


# ---------------------------------------------------------------------------
# Soundness on small instances plus witness conversion


def test_vc_copeland_soundness():
    for graph in (VC_YES, VC_NO):
        reduced = rd.reduce_vc_to_copeland_min(graph, HALF)
        answer = pc.exact_search_min(reduced.instance).answer(reduced.instance)
        assert answer == rd.solve_vc_naive(graph, graph.bound)


def test_vc_copeland_witness_from_cover():
    reduced = rd.reduce_vc_to_copeland_min(VC_YES, HALF)
    plan = reduced.witness_plan([0])  # the star center covers every edge
    assert pc.check_witness(reduced.instance, plan).ok


def test_is_reductions_soundness():
    for graph in (IS_NO, IS_YES):
        expected = rd.solve_is_naive(graph, graph.bound)
        for reduced in (
            rd.reduce_is_to_maximin_max(graph),
            rd.reduce_is_to_copeland_max(graph, HALF),
        ):
            answer = pc.exact_search_max(reduced.instance).answer(reduced.instance)
            assert answer == expected, reduced.reduction


def test_is_witness_from_independent_set():
    reduced = rd.reduce_is_to_maximin_max(IS_YES)
    plan = reduced.witness_plan([0, 2])  # endpoints of the path
    assert pc.check_witness(reduced.instance, plan).ok


def test_x3c_maximin_yes_witness():
    reduced = rd.reduce_x3c_to_maximin_min(X3C_YES6)
    plan = reduced.witness_plan([0, 3])  # the two disjoint triples
    assert pc.check_witness(reduced.instance, plan).ok


def test_provenance_fields():
    reduced = rd.reduce_is_to_maximin_max(IS_YES)
    assert reduced.reduction in rd.REDUCTIONS
    assert reduced.source["problem"] == "independent-set"
    assert reduced.party_names[reduced.destination_party] == "P"
    assert set(reduced.source_parties) == set(range(IS_YES.num_vertices))
