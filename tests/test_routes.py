"""One seeded fuzz over every solver route: all seven rules (Copeland at alpha
1/2 and 1/3), both directions, both destination modes and both winner
models, at most 10 voters."""

import itertools
import random

import pytest

import partycred as pc
from partycred.poly import max_linear, max_r_approval, min_condorcet, min_scoring
from partycred.solve import SOLVERS, poly_solver

from conftest import collect_problems, exact_search, values_match

RULES = (
    "plurality", "veto", "approval:2", "borda", "condorcet", "copeland:1/2",
    "maximin", "copeland:1/3",
)
SEARCH_RULES = ("copeland:1/2", "maximin", "copeland:1/3")


def test_every_route_gives_the_same_answer():
    """``auto`` (the instance's one exact route) and the oracle agree on
    every instance, and ``poly_solver`` is None exactly for Copeland and
    Maximin.  Each route refuses the other's rules: ``exact_search_*``
    raise a ValueError naming ``poly_solver`` on the linear rules, and every
    polynomial solver raises on Copeland and Maximin."""
    rng = random.Random(2026)
    solved = 0
    for rule, direction, dest, model in itertools.product(
        RULES, ("min", "max"), ("one", "multi"), ("unique", "cowinner")
    ):
        for inst in collect_problems(
            rng.randint(0, 10**6), 3, rule_spec=rule, direction=direction,
            model=model, dest=dest, max_voters=10,
        ):
            results = {route: pc.solve_instance(inst, solver=route) for route in SOLVERS}
            assert (poly_solver(inst) is None) == (rule in SEARCH_RULES)
            if rule in SEARCH_RULES:
                for solver in (min_scoring, min_condorcet, max_linear, max_r_approval):
                    with pytest.raises(ValueError):
                        solver(inst)
            else:
                with pytest.raises(ValueError, match="poly_solver"):
                    exact_search(inst)
            for result in results.values():
                assert values_match(result, results["oracle"]), (inst, results)
                if result.status is pc.SolveStatus.FEASIBLE:
                    assert pc.check_witness(inst, result.witness, k=result.value).ok
            solved += 1
    assert solved == len(RULES) * 2 * 2 * 2 * 3
