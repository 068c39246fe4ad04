"""Shared builders and curated source instances for the test suite."""

from __future__ import annotations

import random

import partycred as pc
from partycred import reductions as rd
from partycred.instance_io import parse_rule_spec


ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)


def build(rule, parties, p, k=1, direction="min", model="unique", dest="one"):
    """ProblemInstance from [(order, size), ...] party descriptions."""
    return pc.ProblemInstance(
        election=pc.PartyElection([order for order, _ in parties], [s for _, s in parties]),
        p=p,
        k=k,
        rule=rule,
        model=pc.WinnerModel(model),
        destination_mode=pc.DestinationMode(dest),
        direction=pc.Direction(direction),
    )


def random_problem(
    rng: random.Random,
    rule_spec: str,
    direction: str,
    model: str,
    dest: str = "one",
    max_candidates: int = 4,
    max_parties: int = 4,
    max_voters: int = 10,
):
    """One seeded random instance whose distinguished candidate starts as
    winner, or None when this draw does not produce one."""
    m = rng.randint(2, max_candidates)
    l = rng.randint(1, max_parties)
    orders, sizes = [], []
    for _ in range(l):
        order = list(range(m))
        rng.shuffle(order)
        orders.append(order)
        sizes.append(rng.randint(0, 3))
    total = sum(sizes)
    if not (1 <= total <= max_voters):
        return None
    head, _, arg = rule_spec.partition(":")
    if head == "approval" and int(arg) > m:
        return None  # approval:r does not fit this draw's m
    rule = parse_rule_spec(rule_spec, m)
    election = pc.PartyElection(orders, sizes)
    model_e = pc.WinnerModel(model)
    won = pc.winners(election, rule, model_e)
    if model_e is pc.WinnerModel.UNIQUE:
        if len(won) != 1:
            return None
        p = next(iter(won))
    else:
        if not won:
            return None
        p = min(won)
    return pc.ProblemInstance(
        election=election,
        p=p,
        k=rng.randint(1, total),
        rule=rule,
        model=model_e,
        destination_mode=pc.DestinationMode(dest),
        direction=pc.Direction(direction),
    )


def collect_problems(seed_base: int, count: int, **kwargs):
    """Deterministically gather ``count`` random instances."""
    out = []
    seed = seed_base
    while len(out) < count:
        inst = random_problem(random.Random(seed), **kwargs)
        seed += 1
        if inst is not None:
            out.append(inst)
    return out


def values_match(a: pc.SolveResult, b: pc.SolveResult) -> bool:
    """Same optimum, treating infeasible as a value of its own."""
    assert a.status is not pc.SolveStatus.BUDGET_EXHAUSTED
    assert b.status is not pc.SolveStatus.BUDGET_EXHAUSTED
    av = a.value if a.status is pc.SolveStatus.FEASIBLE else None
    bv = b.value if b.status is pc.SolveStatus.FEASIBLE else None
    return av == bv


# Curated source instances for the reductions.
X3C_YES3 = rd.X3CInstance(3, ((0, 1, 2),) * 3)
X3C_YES6 = rd.X3CInstance(6, ((0, 1, 2),) * 3 + ((3, 4, 5),) * 3)
X3C_NO6 = rd.X3CInstance(
    6, ((0, 1, 3), (0, 1, 4), (0, 2, 5), (1, 2, 5), (2, 3, 4), (3, 4, 5))
)
X3C_YES12 = rd.X3CInstance(
    12, tuple(tuple(3 * i + j for j in range(3)) for i in range(4)) * 3
)
X3C_NO12 = rd.X3CInstance(
    12, X3C_NO6.sets + tuple(tuple(x + 6 for x in s) for s in X3C_NO6.sets)
)

VC_YES = rd.GraphInstance(8, tuple((0, v) for v in range(1, 8)), 1)  # star
VC_NO = rd.GraphInstance(8, ((0, 1), (1, 2), (3, 4)), 1)
IS_NO = rd.GraphInstance(3, ((0, 1), (1, 2), (0, 2)), 2)  # triangle
IS_YES = rd.GraphInstance(4, ((0, 1), (1, 2), (2, 3)), 2)  # path
