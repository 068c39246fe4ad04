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
from .poly import max_r_approval, min_condorcet, min_scoring
from .reductions import (
    REDUCTIONS,
    GraphInstance,
    ReducedInstance,
    X3CInstance,
    solve_is_naive,
    solve_vc_naive,
    solve_x3c_naive,
)
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
    "max_r_approval",
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
