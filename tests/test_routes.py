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
                route: pc.solve_instance(inst, solver=route)
                for route in ("auto", "search", "oracle")
            }
            if poly_solver(inst) is None:
                with pytest.raises(ValueError, match="no polynomial solver"):
                    pc.solve_instance(inst, solver="poly")
            else:
                results["poly"] = pc.solve_instance(inst, solver="poly")
            for result in results.values():
                assert values_match(result, results["oracle"]), (inst, results)
                if result.status is pc.SolveStatus.FEASIBLE:
                    assert pc.check_witness(inst, result.witness, k=result.value).ok
            solved += 1
    assert solved == len(RULES) * 2 * 2 * 2 * 3
