"""The seven acceptance criteria, one pass/fail line each.

The lines are collected in conftest.ACCEPTANCE_REPORT and printed in the
terminal summary after the run.
"""

import functools
import json
import math
import random
import time
from fractions import Fraction

import pytest

import partycred as pc
from partycred import cli
from partycred import reductions as rd
from partycred.core import pairwise_matrix
from partycred.poly import max_linear, max_r_approval, min_condorcet, min_scoring
from partycred.rules import (
    condorcet_winner,
    copeland_scores,
    maximin_scores,
    scoring_scores,
)

import conftest
from conftest import (
    IS_NO,
    IS_YES,
    VC_NO,
    VC_YES,
    X3C_NO6,
    X3C_NO12,
    X3C_YES3,
    X3C_YES6,
    X3C_YES12,
    oracle,
    random_problem,
    values_match,
)

HALF = Fraction(1, 2)


def criterion(number: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_REPORT.append(
                    f"criterion {number} ({title}): FAIL"
                )
                raise
            conftest.ACCEPTANCE_REPORT.append(
                f"criterion {number} ({title}): PASS"
            )

        return wrapper

    return deco


@criterion(1, "polynomial solvers match the oracle")
def test_criterion_1_poly_vs_oracle():
    configs = [
        ("plurality", "min", min_scoring, "one", 500),
        ("veto", "min", min_scoring, "one", 500),
        ("approval:2", "min", min_scoring, "one", 500),
        ("borda", "min", min_scoring, "one", 500),
        ("condorcet", "min", min_condorcet, "one", 500),
        ("plurality", "max", max_r_approval, "one", 500),
        ("approval:2", "max", max_r_approval, "one", 500),
        ("veto", "max", max_r_approval, "one", 500),
        ("borda", "max", max_linear, "one", 500),
        ("condorcet", "max", max_linear, "one", 500),
        ("plurality", "max", max_linear, "multi", 300),
        ("veto", "max", max_linear, "multi", 300),
        ("approval:2", "max", max_linear, "multi", 300),
        ("borda", "max", max_linear, "multi", 300),
        ("condorcet", "max", max_linear, "multi", 300),
    ]
    for cfg_index, (rule_spec, direction, solver, dest, draws) in enumerate(configs):
        count = 0
        seed = 1_000_000 * (cfg_index + 1)
        while count < draws:
            model = "unique" if count % 2 else "cowinner"
            inst = random_problem(
                random.Random(seed),
                rule_spec=rule_spec,
                direction=direction,
                model=model,
                dest=dest,
                max_candidates=4,
                max_parties=4,
                max_voters=10,
            )
            seed += 1
            if inst is None:
                continue
            count += 1
            mine = solver(inst)
            ref = pc.oracle_min(inst) if direction == "min" else pc.oracle_max(inst)
            assert values_match(mine, ref), (rule_spec, direction, inst, mine, ref)
            if mine.status is pc.SolveStatus.FEASIBLE:
                assert pc.check_witness(inst, mine.witness, k=mine.value).ok


def _reduced_answer(reduced: rd.ReducedInstance, use_oracle=False) -> bool:
    inst = reduced.instance
    result = oracle(inst) if use_oracle else pc.solve_instance(inst)
    assert result.status is not pc.SolveStatus.BUDGET_EXHAUSTED
    if result.status is pc.SolveStatus.FEASIBLE:
        assert pc.check_witness(inst, result.witness, k=result.value).ok
    return result.answer(inst)


@criterion(2, "reduction soundness on curated suites")
def test_criterion_2_reduction_soundness():
    # Vertex cover into Copeland MIN.
    for g in (VC_YES, VC_NO):
        reduced = rd.reduce_vc_to_copeland_min(g, HALF)
        assert _reduced_answer(reduced) == rd.solve_vc_naive(g, g.bound)

    # Exact 3-set cover into Maximin MIN: only the yes direction; the no
    # direction is a known construction failure tracked by the strict-xfail
    # test below this one.
    reduced = rd.reduce_x3c_to_maximin_min(X3C_YES6)
    assert _reduced_answer(reduced) is True
    assert rd.solve_x3c_naive(X3C_YES6) is True

    # Exact 3-set cover into Borda MAX.
    small = rd.reduce_x3c_to_borda_max(X3C_YES3)
    assert _reduced_answer(small, use_oracle=True) is True
    for x3c in (X3C_YES12, X3C_NO12):
        reduced = rd.reduce_x3c_to_borda_max(x3c)
        assert _reduced_answer(reduced) == rd.solve_x3c_naive(x3c)

    # Exact 3-set cover into Condorcet MAX.
    small = rd.reduce_x3c_to_condorcet_max(X3C_YES3)
    assert _reduced_answer(small, use_oracle=True) is True
    for x3c in (X3C_YES12, X3C_NO12):
        reduced = rd.reduce_x3c_to_condorcet_max(x3c)
        assert _reduced_answer(reduced) == rd.solve_x3c_naive(x3c)

    # Independent set into Maximin MAX and Copeland MAX.
    for g in (IS_NO, IS_YES):
        expected = rd.solve_is_naive(g, g.bound)
        assert _reduced_answer(rd.reduce_is_to_maximin_max(g)) == expected
        assert _reduced_answer(rd.reduce_is_to_copeland_max(g, HALF)) == expected


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the Maximin MIN construction is not sound for no-instances under "
        "tie-counting success: one switch from any set party into the party "
        "ranked alpha-first ties p with alpha, so every no-instance answers "
        "yes (see the decisions ledger kept outside this repository)"
    ),
)
def test_criterion_2_known_maximin_min_no_instance_failure():
    conftest.ACCEPTANCE_REPORT.append(
        "criterion 2 note: maximin MIN no-instance is an expected failure "
        "(strict xfail)"
    )
    reduced = rd.reduce_x3c_to_maximin_min(X3C_NO6)
    assert _reduced_answer(reduced) == rd.solve_x3c_naive(X3C_NO6)


@criterion(3, "construction identities")
def test_criterion_3_construction_identities():
    # Copeland MIN from vertex cover.
    for g in (VC_YES, VC_NO):
        reduced = rd.reduce_vc_to_copeland_min(g, HALF)
        e = reduced.instance.election
        idx = {name: i for i, name in enumerate(reduced.candidate_names)}
        n_edges = len(g.edges)
        scores = copeland_scores(e, HALF)
        assert scores[idx["p"]] == n_edges + 4
        assert scores[idx["a1"]] == n_edges + 2
        assert scores[idx["a2"]] == n_edges
        for i in (1, 2, 3):
            assert scores[idx[f"b{i}"]] == 5 - i
        for i in range(1, n_edges + 1):
            assert scores[idx[f"e{i}"]] == n_edges - i + 3

    # Maximin MIN from exact 3-set cover.
    for x3c in (X3C_YES6, X3C_NO6, X3C_YES12, X3C_NO12):
        reduced = rd.reduce_x3c_to_maximin_min(x3c)
        e = reduced.instance.election
        idx = {name: i for i, name in enumerate(reduced.candidate_names)}
        m, n = x3c.universe_size, x3c.num_sets
        assert e.num_candidates == m + 4
        assert e.num_voters == 2 * n + m // 3 + 1
        scores = maximin_scores(e)
        assert scores[idx["p"]] == n + 1
        assert scores[idx["z"]] == n

    # Borda MAX from exact 3-set cover.
    for x3c in (X3C_YES3, X3C_YES6, X3C_NO6, X3C_YES12, X3C_NO12):
        reduced = rd.reduce_x3c_to_borda_max(x3c)
        e = reduced.instance.election
        idx = {name: i for i, name in enumerate(reduced.candidate_names)}
        m, n = x3c.universe_size, x3c.num_sets
        assert e.num_candidates == m + 6
        scores = scoring_scores(e, reduced.instance.rule.vector)
        assert scores[idx["p"]] - scores[idx["z"]] == 5
        assert scores[idx["p"]] - scores[idx["y"]] == 3 * n + 4

    # Condorcet MAX from exact 3-set cover.
    for x3c in (X3C_YES3, X3C_YES6, X3C_NO6, X3C_YES12, X3C_NO12):
        reduced = rd.reduce_x3c_to_condorcet_max(x3c)
        e = reduced.instance.election
        m, n = x3c.universe_size, x3c.num_sets
        assert e.num_candidates == 2 * n + m + 9
        assert e.num_voters == 2 * n + 5
        assert condorcet_winner(e) == reduced.instance.p

    # Maximin MAX from independent set: the full pairwise table.
    for g in (IS_NO, IS_YES):
        reduced = rd.reduce_is_to_maximin_max(g)
        idx = {name: i for i, name in enumerate(reduced.candidate_names)}
        n, m = g.num_vertices, len(g.edges)
        counts = pairwise_matrix(reduced.instance.election)
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
            assert counts[e_c, p] == n - 1
        for i, e_i in enumerate(edges):
            for j, e_j in enumerate(edges):
                if i != j:
                    assert counts[e_i, e_j] >= (n if i > j else n - 1)

    # Copeland MAX from independent set.
    for g in (IS_NO, IS_YES):
        reduced = rd.reduce_is_to_copeland_max(g, HALF)
        e = reduced.instance.election
        n, m = g.num_vertices, len(g.edges)
        assert e.num_voters == 2 * n + 1
        counts = pairwise_matrix(e)
        for c in range(e.num_candidates):
            for d in range(c + 1, e.num_candidates):
                assert counts[c, d] != counts[d, c]
        scores = copeland_scores(e, HALF)
        idx = {name: i for i, name in enumerate(reduced.candidate_names)}
        assert scores[idx["p"]] == 3 * m


RULES7 = (
    "plurality", "veto", "approval:2", "borda", "condorcet", "maximin",
    "copeland:1/2",
)


@criterion(4, "exact routes match the oracle")
def test_criterion_4_search_vs_oracle():
    """Each draw's one exact route (``solve_instance``) against the oracle:
    the branch and bound for Copeland and Maximin, ``poly`` for every other
    rule."""
    produced = 0
    seed = 4_000_000
    while produced < 300:
        rule_spec = RULES7[produced % len(RULES7)]
        direction = "min" if produced % 2 else "max"
        dest = "one" if (produced // 7) % 2 else "multi"
        model = "unique" if produced % 3 else "cowinner"
        inst = random_problem(
            random.Random(seed),
            rule_spec=rule_spec,
            direction=direction,
            model=model,
            dest=dest,
            max_candidates=4,
            max_parties=4,
            max_voters=12,
        )
        seed += 1
        if inst is None:
            continue
        produced += 1
        mine, ref = pc.solve_instance(inst), oracle(inst)
        assert values_match(mine, ref), (rule_spec, direction, dest, inst)
        for result in (mine, ref):
            if result.status is pc.SolveStatus.FEASIBLE:
                assert pc.check_witness(inst, result.witness, k=result.value).ok


@criterion(5, "destination-mode monotonicity")
def test_criterion_5_destination_monotonicity():
    produced = 0
    seed = 5_000_000
    while produced < 200:
        direction = "min" if produced % 2 else "max"
        rule_spec = RULES7[produced % len(RULES7)]
        inst = random_problem(
            random.Random(seed),
            rule_spec=rule_spec,
            direction=direction,
            model="unique" if produced % 3 else "cowinner",
            dest="one",
            max_candidates=4,
            max_parties=3,
            max_voters=8,
        )
        seed += 1
        if inst is None:
            continue
        produced += 1
        multi_inst = pc.ProblemInstance(
            election=inst.election, p=inst.p, k=inst.k, rule=inst.rule,
            model=inst.model, destination_mode=pc.DestinationMode.MULTI,
            direction=inst.direction,
        )
        if direction == "min":
            one = pc.oracle_min(inst)
            multi = pc.oracle_min(multi_inst)
            one_v = one.value if one.status is pc.SolveStatus.FEASIBLE else math.inf
            multi_v = (
                multi.value if multi.status is pc.SolveStatus.FEASIBLE else math.inf
            )
            assert multi_v <= one_v, inst
        else:
            assert pc.oracle_max(multi_inst).value >= pc.oracle_max(inst).value, inst


def _performance_instance(
    num_parties: int, seed: int, rule: str = "plurality"
) -> pc.ProblemInstance:
    rng = random.Random(seed)
    m = 50
    orders, sizes = [list(range(m))], [3 * num_parties]
    for _ in range(1, num_parties):
        order = list(range(m))
        rng.shuffle(order)
        orders.append(order)
        sizes.append(rng.randint(1, 3))
    return pc.ProblemInstance(
        election=pc.PartyElection(orders, sizes),
        p=0,
        k=1,
        rule=pc.Scoring(vector=pc.scoring_vector_for(rule, m)),
        model=pc.WinnerModel.UNIQUE,
        destination_mode=pc.DestinationMode.ONE,
        direction=pc.Direction.MIN,
    )


def _best_times(instances, repeats=9):
    """Best-of-``repeats`` ``min_scoring`` time of each instance, after one
    untimed warm-up call each.  Every repeat times the instances in turn, so
    that all of them run under the same machine speed states."""
    for inst in instances:
        min_scoring(inst)
    best = [math.inf] * len(instances)
    for _ in range(repeats):
        for i, inst in enumerate(instances):
            start = time.perf_counter()
            result = min_scoring(inst)
            best[i] = min(best[i], time.perf_counter() - start)
            assert result.status is not pc.SolveStatus.BUDGET_EXHAUSTED
    return best


@criterion(6, "min_scoring performance and scaling")
def test_criterion_6_performance():
    for rule in ("plurality", "borda"):
        t_base, t_double = _best_times([
            _performance_instance(10_000, seed=1, rule=rule),
            _performance_instance(20_000, seed=2, rule=rule),
        ])
        assert t_base < 10.0, f"{rule}: 10k-party solve took {t_base:.2f}s"
        assert t_double <= 2.5 * t_base, (
            f"{rule}: doubling parties scaled x{t_double / t_base:.2f}"
        )


def test_criterion_6_counts_twice_the_cells_at_twice_the_parties(monkeypatch):
    """Criterion 6's doubling in counted work, which no machine load can
    change: its plurality and Borda instances read exactly twice the
    ``_kernels.min_switch_counts`` cells at 20k parties as at 10k, counted
    as ``perfbench/tracing.py`` counts them, l x m per call."""
    cells = []

    def counted(ranks, *args):
        cells.append(ranks.shape[0] * ranks.shape[1])
        return real(ranks, *args)

    real = pc._kernels.min_switch_counts
    monkeypatch.setattr(pc._kernels, "min_switch_counts", counted)
    for rule in ("plurality", "borda"):
        read = []
        for num_parties, seed in ((10_000, 1), (20_000, 2)):
            inst = _performance_instance(num_parties, seed=seed, rule=rule)
            cells.clear()
            min_scoring(inst)
            read.append(sum(cells))
        assert read[1] == 2 * read[0] > 0, (rule, read)


@criterion(7, "byte-identical CLI output")
def test_criterion_7_determinism(tmp_path, capsys):
    gen_args = [
        "gen", "--seed", "11", "--candidates", "4", "--parties", "4",
        "--sizes", "1..3", "--rule", "copeland:1/2", "--direction", "max",
    ]
    files = []
    for name in ("one.txt", "two.txt"):
        out = tmp_path / name
        assert cli.main(gen_args + ["-o", str(out)]) == cli.EXIT_OK
        files.append(out.read_bytes())
    assert files[0] == files[1]

    instance_path = tmp_path / "one.txt"
    outputs = []
    for _ in range(2):
        assert cli.main(["solve", str(instance_path), "--json"]) == cli.EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])  # remains valid JSON
