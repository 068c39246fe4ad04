"""Solver routing: each instance has one exact route, a polynomial solver or
(for Copeland and Maximin, outside ``max_shift``'s case) the branch and
bound; the oracle enumerates the plans of any instance within its cell cap.
A multi-destination MAX plan matters only through the parties' final
sizes, so both of its polynomial routes, ``max_shift`` and
``max_linear``, build it from them (``poly._max_final_sizes``).
Routing is all this module does: every solver checks each FEASIBLE result
as it builds it (``parties.feasible``)."""

from __future__ import annotations

from .parties import Direction, DestinationMode, ProblemInstance, SolveResult
from .poly import max_linear, max_r_approval, max_shift, min_condorcet, min_scoring
from .rules import Condorcet, Scoring
from .search import (
    DEFAULT_NODE_BUDGET,
    exact_search_max,
    exact_search_min,
    oracle_max,
    oracle_min,
)

SOLVERS = ("auto", "oracle")  # the names solve_instance and --solver accept


def poly_solver(instance: ProblemInstance):
    """The polynomial solver this instance admits, or None exactly for the
    Copeland and Maximin instances that ``max_shift`` does not take: both
    rules are NP-hard in both directions.

    Multi-destination MAX with no party above half of the n voters takes
    ``max_shift`` under every rule: the final sizes can stay as they are,
    and a cyclic shift moves all n voters, built in O(l).  Otherwise scoring
    and Condorcet MIN take ``min_scoring`` and ``min_condorcet``
    (``poly._min_greedy``), in either destination mode.  Their MAX takes
    ``max_linear``: with multiple destinations and a majority party, the
    value n - max(0, t - n) for the least bound t on s_q + s'_q over final
    sizes s' under which p wins, bisected; with one destination, the
    packings into each lead row (``poly._max_into_rows``), which a 0/1
    scoring vector takes under the label ``max_r_approval``.  These are
    polynomial for a fixed number of candidates; ``max_linear`` is
    exponential in the number of its packing's counts in the worst case,
    as Borda MAX is NP-hard.
    """
    rule, sizes = instance.rule, instance.election.sizes
    if (
        instance.destination_mode is DestinationMode.MULTI
        and instance.direction is Direction.MAX
        and 2 * int(sizes.max()) <= int(sizes.sum())
    ):
        return max_shift
    if not isinstance(rule, (Scoring, Condorcet)):
        return None
    if instance.direction is Direction.MIN:
        return min_scoring if isinstance(rule, Scoring) else min_condorcet
    if (
        instance.destination_mode is DestinationMode.ONE
        and isinstance(rule, Scoring)
        and not (set(rule.vector) - {0, 1})
    ):
        return max_r_approval
    return max_linear


def solve_instance(
    instance: ProblemInstance,
    solver: str = "auto",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Solve with one of ``SOLVERS``.

    ``auto`` takes the instance's one exact route: ``poly_solver``'s solver
    (``max_shift`` for a multi-destination MAX with no majority party, under
    any rule), and the branch and bound (``exact_search_*``) for the other
    Copeland and Maximin instances, where there is none.  ``oracle``
    enumerates every plan of any instance within its cell cap.  Any other
    name raises ``ValueError``.

    Each solver has checked its FEASIBLE result with ``check_witness``
    (``parties.feasible``); a rejected plan raises ``RuntimeError``.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    minimise = instance.direction is Direction.MIN
    if solver == "oracle":
        return oracle_min(instance) if minimise else oracle_max(instance)
    fn = poly_solver(instance)
    if fn is not None:
        return fn(instance)
    search = exact_search_min if minimise else exact_search_max
    return search(instance, node_budget=node_budget)
