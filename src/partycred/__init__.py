"""Exact MIN/MAX credibility solvers for party-based elections."""

from .core import pairwise_matrix
from .instance_io import (
    ParsedInstance,
    ParseError,
    generate_random,
    parse_graph,
    parse_instance,
    parse_x3c,
    result_to_json,
    serialize_instance,
)
from .parties import (
    Direction,
    DestinationMode,
    PartyElection,
    ProblemInstance,
    SolveResult,
    SolveStatus,
    SwitchPlan,
    apply_switch,
    check_witness,
)
from .poly import max_linear, max_r_approval, max_shift, min_condorcet, min_scoring
from .rules import (
    Condorcet,
    Copeland,
    Maximin,
    Rule,
    Scoring,
    WinnerModel,
    scoring_vector_for,
    winners,
)
from .search import exact_search_max, exact_search_min, oracle_max, oracle_min
from .solve import poly_solver, solve_instance

__version__ = "0.1.0"

# Only ``partycred reduce`` and library callers use the reductions, so the
# package imports that module on the first use of one of its names (PEP 562).
_REDUCTION_NAMES = frozenset((
    "REDUCTIONS",
    "GraphInstance",
    "ReducedInstance",
    "X3CInstance",
    "solve_is_naive",
    "solve_vc_naive",
    "solve_x3c_naive",
))


def __getattr__(name: str):
    if name in _REDUCTION_NAMES:
        from . import reductions

        return getattr(reductions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "pairwise_matrix",
    "ParsedInstance",
    "ParseError",
    "generate_random",
    "parse_graph",
    "parse_instance",
    "parse_x3c",
    "result_to_json",
    "serialize_instance",
    "Direction",
    "DestinationMode",
    "PartyElection",
    "ProblemInstance",
    "SolveResult",
    "SolveStatus",
    "SwitchPlan",
    "apply_switch",
    "check_witness",
    "max_linear",
    "max_r_approval",
    "max_shift",
    "min_condorcet",
    "min_scoring",
    "REDUCTIONS",
    "GraphInstance",
    "ReducedInstance",
    "X3CInstance",
    "solve_is_naive",
    "solve_vc_naive",
    "solve_x3c_naive",
    "Condorcet",
    "Copeland",
    "Maximin",
    "Rule",
    "Scoring",
    "WinnerModel",
    "scoring_vector_for",
    "winners",
    "exact_search_max",
    "exact_search_min",
    "oracle_max",
    "oracle_min",
    "poly_solver",
    "solve_instance",
]
