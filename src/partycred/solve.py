"""Solver routing: pick the cheapest exact method an instance admits."""

from __future__ import annotations

from .parties import (
    Direction,
    DestinationMode,
    ProblemInstance,
    SolveResult,
    SolveStatus,
    check_witness,
)
from .poly import max_linear, max_r_approval, min_condorcet, min_scoring
from .rules import Condorcet, Scoring
from .search import (
    DEFAULT_NODE_BUDGET,
    exact_search_max,
    exact_search_min,
    oracle_max,
    oracle_min,
)


def poly_solver(instance: ProblemInstance):
    """The polynomial solver this instance admits, or None.

    Linear-rule MIN takes either destination mode (``poly._min_greedy``).
    Linear-rule MAX takes the one-destination mode only: ``max_r_approval``
    for 0/1 scoring vectors, ``max_linear`` for any other scoring vector and
    for Condorcet.  Both are polynomial for a fixed number of candidates m;
    ``max_linear`` is exponential in the number of distinct ballots in the
    worst case, as Borda MAX is NP-hard.  Copeland, Maximin and
    multi-destination MAX go to the search.
    """
    if instance.direction is Direction.MIN:
        if isinstance(instance.rule, Scoring):
            return min_scoring
        if isinstance(instance.rule, Condorcet):
            return min_condorcet
        return None
    rule = instance.rule
    if instance.destination_mode is not DestinationMode.ONE:
        return None
    if isinstance(rule, Scoring) and not (set(rule.vector) - {0, 1}):
        return max_r_approval
    if isinstance(rule, (Scoring, Condorcet)):
        return max_linear
    return None


def solve_instance(
    instance: ProblemInstance,
    solver: str = "auto",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Solve with the requested strategy; ``auto`` prefers a polynomial solver.

    Every FEASIBLE result has passed ``check_witness``: the polynomial
    solvers check their own plan, and a search or oracle plan is checked
    here.  A rejected plan is a solver bug and raises ``RuntimeError``.
    """
    if solver not in ("auto", "poly", "search", "oracle"):
        raise ValueError(f"unknown solver {solver!r}")
    if solver in ("auto", "poly"):
        fn = poly_solver(instance)
        if fn is not None:
            return fn(instance)
        if solver == "poly":
            raise ValueError("no polynomial solver applies to this instance")
    if solver == "oracle":
        if instance.direction is Direction.MIN:
            result = oracle_min(instance)
        else:
            result = oracle_max(instance)
    elif instance.direction is Direction.MIN:
        result = exact_search_min(instance, node_budget=node_budget)
    else:
        result = exact_search_max(instance, node_budget=node_budget)
    if result.status is SolveStatus.FEASIBLE:
        check = check_witness(instance, result.witness, k=result.value)
        if not check.ok:
            raise RuntimeError(
                f"{result.solver} returned a rejected plan of {result.value} switches: "
                f"{check.reason}"
            )
    return result
