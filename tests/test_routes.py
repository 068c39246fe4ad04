"""One seeded fuzz over every solver route: all seven rules, both directions,
both destination modes and both winner models, at most 10 voters."""

import itertools
import random

import pytest

import partycred as pc
from partycred.solve import poly_solver

from conftest import collect_problems, values_match

RULES = (
    "plurality", "veto", "approval:2", "borda", "condorcet", "copeland:1/2",
    "maximin",
)


def test_every_route_gives_the_same_answer():
    """``auto`` and the oracle solve every instance.  Exactly one of ``poly``
    and ``search`` applies, ``poly`` to scoring rules and Condorcet and
    ``search`` to Copeland and Maximin; the other raises ValueError, and
    ``search``'s refusal names ``poly_solver``."""
    rng = random.Random(2026)
    solved = 0
    for rule, direction, dest, model in itertools.product(
        RULES, ("min", "max"), ("one", "multi"), ("unique", "cowinner")
    ):
        for inst in collect_problems(
            rng.randint(0, 10**6), 3, rule_spec=rule, direction=direction,
            model=model, dest=dest, max_voters=10,
        ):
            results = {
                route: pc.solve_instance(inst, solver=route) for route in ("auto", "oracle")
            }
            if rule in ("copeland:1/2", "maximin"):
                exact, other, refusal = "search", "poly", "no polynomial solver"
            else:
                exact, other, refusal = "poly", "search", "poly_solver"
            assert (poly_solver(inst) is None) == (exact == "search")
            with pytest.raises(ValueError, match=refusal):
                pc.solve_instance(inst, solver=other)
            results[exact] = pc.solve_instance(inst, solver=exact)
            assert results["auto"] == results[exact]
            for result in results.values():
                assert values_match(result, results["oracle"]), (inst, results)
                if result.status is pc.SolveStatus.FEASIBLE:
                    assert pc.check_witness(inst, result.witness, k=result.value).ok
            solved += 1
    assert solved == len(RULES) * 2 * 2 * 2 * 3
