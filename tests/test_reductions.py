import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    # The only degree-1 vertices, 0 and 1, share their edge.
    joined_leaves = rd.GraphInstance(
        10, ((0, 1), (2, 3), (3, 4), (4, 2), (5, 6), (6, 7), (7, 5), (8, 9), (9, 2), (8, 5)), 1
    )
    with pytest.raises(ValueError, match="two non-adjacent degree-1 vertices"):
        rd.reduce_vc_to_copeland_min(joined_leaves, HALF)


def test_x3c_maximin_needs_six_elements():
    # Nine sets over a 9-element universe: n - m/3 = 6 voters split evenly.
    ok = rd.X3CInstance(
        9, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(3)) * 3
    )
    rd.reduce_x3c_to_maximin_min(ok)
    rd.reduce_x3c_to_maximin_min(X3C_YES6)
    # At m = 3, p's Maximin score m + 1 = 4 ties the element candidates', so
    # the source is refused before any election is built.
    with pytest.raises(ValueError, match="universe of at least 6 elements, got 3"):
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


def test_vc_copeland_skips_an_isolated_edge():
    # Vertices 0 and 1 are the first degree-1 vertices, but they share the
    # edge (0, 1); the construction reserves 0 and 3, a star leaf.
    graph = rd.GraphInstance(10, ((0, 1),) + tuple((2, v) for v in range(3, 10)), 2)
    reduced = rd.reduce_vc_to_copeland_min(graph, HALF)
    assert reduced.source["degree_one_vertices"] == [0, 3]
    answer = pc.exact_search_min(reduced.instance).answer(reduced.instance)
    assert answer is rd.solve_vc_naive(graph, graph.bound) is True


def test_vc_copeland_matches_naive_with_an_isolated_edge():
    # Seeded random graphs at n = 8 and 10 whose edges include one isolated
    # edge, the case where the first two degree-1 vertices can be adjacent.
    # Graphs with no two non-adjacent degree-1 vertices are refused.
    rng = random.Random(3)
    checked = 0
    for _ in range(300):
        n = rng.choice([8, 10])
        vertices = rng.sample(range(n), n)
        edges = {tuple(sorted(vertices[:2]))}
        rest = vertices[2:]
        density = rng.choice([0.15, 0.3])
        for i, u in enumerate(rest):
            edges.update(tuple(sorted((u, v))) for v in rest[i + 1:] if rng.random() < density)
        graph = rd.GraphInstance(n, tuple(sorted(edges)), rng.randint(1, 2 if n == 10 else 1))
        try:
            reduced = rd.reduce_vc_to_copeland_min(graph, HALF)
        except ValueError as e:
            assert "non-adjacent degree-1" in str(e)
            continue
        answer = pc.exact_search_min(reduced.instance).answer(reduced.instance)
        assert answer == rd.solve_vc_naive(graph, graph.bound), graph
        checked += 1
    assert checked >= 250


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


def test_is_reductions_match_naive_on_random_graphs():
    """Both independent-set MAX constructions against ``solve_is_naive`` on
    80 seeded random graphs of 3-6 vertices with at least one edge, every
    bound t from 1 to n drawn; Copeland cycles through alpha 0, 1/3, 1/2
    and 1."""
    rng = random.Random(6)
    alphas = (Fraction(0), Fraction(1, 3), HALF, Fraction(1))
    answers = set()
    for draw in range(80):
        n = rng.randint(3, 6)
        density = rng.choice([0.3, 0.5, 0.7])
        edges = ()
        while not edges:  # the Copeland construction needs an edge
            edges = tuple(
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
            )
        graph = rd.GraphInstance(n, edges, rng.randint(1, n))
        expected = rd.solve_is_naive(graph, graph.bound)
        for reduced in (
            rd.reduce_is_to_maximin_max(graph),
            rd.reduce_is_to_copeland_max(graph, alphas[draw % len(alphas)]),
        ):
            answer = pc.solve_instance(reduced.instance).answer(reduced.instance)
            assert answer == expected, (reduced.reduction, graph)
        answers.add(expected)
    assert answers == {True, False}


def random_x3c(rng: random.Random, m: int) -> rd.X3CInstance:
    """A 3-regular set system of m sets by the configuration model: three
    copies of each element shuffled into triples, redrawn until no triple
    repeats an element."""
    while True:
        copies = [x for x in range(m) for _ in range(3)]
        rng.shuffle(copies)
        sets = [tuple(copies[i:i + 3]) for i in range(0, 3 * m, 3)]
        if all(len(set(s)) == 3 for s in sets):
            return rd.X3CInstance(m, tuple(sets))


def exact_covers(x3c: rd.X3CInstance) -> list[tuple[int, ...]]:
    """Every exact cover of ``x3c``, as the indices of its m/3 sets."""
    return [
        picks for picks in itertools.combinations(range(x3c.num_sets), x3c.universe_size // 3)
        if len({x for t in picks for x in x3c.sets[t]}) == x3c.universe_size
    ]


def test_x3c_max_reductions_match_naive_on_random_sources():
    """Seeded random 3-regular sources: at 12 elements ``x3c-borda-max``
    answers as ``solve_x3c_naive`` on every draw, and at 6, 9 and 12
    elements both X3C MAX constructions answer yes on every yes-instance.
    Their no-instances below 12 elements (Borda) and at every size tried
    (Condorcet) can answer yes; the strict xfails below keep one visible.
    The sound direction of every X3C construction, ``x3c-maximin-min``'s
    too: each exact cover maps through ``witness_plan`` to a plan that
    ``check_witness`` accepts at the instance's k."""
    rng = random.Random(12)
    answers = {6: set(), 9: set(), 12: set()}
    for m, draws in ((6, 8), (9, 8), (12, 12)):
        for _ in range(draws):
            x3c = random_x3c(rng, m)
            expected = rd.solve_x3c_naive(x3c)
            covers = exact_covers(x3c)
            assert bool(covers) is expected, x3c
            answered = {
                rd.reduce_x3c_to_borda_max: expected or m == 12,
                rd.reduce_x3c_to_condorcet_max: expected,
            }
            for reduce in (rd.reduce_x3c_to_maximin_min, *answered):
                reduced = reduce(x3c)
                for cover in covers:
                    plan = reduced.witness_plan(cover)
                    check = pc.check_witness(reduced.instance, plan)
                    assert check.ok, (reduced.reduction, x3c, cover, check.reason)
                if answered.get(reduce):
                    answer = pc.solve_instance(reduced.instance).answer(reduced.instance)
                    assert answer is expected, (reduced.reduction, x3c)
            answers[m].add(expected)
    assert all(True in seen for seen in answers.values()), answers
    assert answers[12] == {True, False}


@pytest.mark.parametrize("reduce", [
    pytest.param(rd.reduce_x3c_to_borda_max, id="borda", marks=pytest.mark.xfail(
        strict=True,
        reason="x3c-borda-max is not sound on the no-instance X3C_NO6: MAX is 4 = k, "
        "reached by moving voters into party 6, not into the construction's P (party 7)",
    )),
    pytest.param(rd.reduce_x3c_to_condorcet_max, id="condorcet", marks=pytest.mark.xfail(
        strict=True,
        reason="x3c-condorcet-max is not sound on the no-instance X3C_NO6: MAX is 3 >= k = 2, "
        "reached by moving voters into party 1, not into the construction's P (party 16)",
    )),
])
def test_x3c_max_answers_no_on_no6(reduce):
    reduced = reduce(X3C_NO6)
    result = pc.solve_instance(reduced.instance)
    assert result.answer(reduced.instance) is rd.solve_x3c_naive(X3C_NO6), (
        f"MAX {result.value}, k = {reduced.instance.k}, into parties "
        f"{result.witness.destinations()}, P = {reduced.destination_party}"
    )


def test_import_loads_the_reductions_on_first_use():
    """A fresh ``import partycred`` leaves ``partycred.reductions``
    unloaded; every name in ``__all__`` still resolves, and a reduction
    name loads the module."""
    script = (
        "import sys\n"
        "import partycred\n"
        "assert 'partycred.reductions' not in sys.modules\n"
        "missing = [name for name in partycred.__all__ if not hasattr(partycred, name)]\n"
        "assert not missing, missing\n"
        "assert 'partycred.reductions' in sys.modules\n"
        "assert partycred.REDUCTIONS is sys.modules['partycred.reductions'].REDUCTIONS\n"
    )
    src = str(Path(pc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pc.no_such_name


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
