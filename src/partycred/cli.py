"""Command line interface.

Exit codes: 0 success, 1 usage, parse or validation error, 2 solver budget
exhausted, 3 verification mismatch.  JSON goes to stdout only when --json
is given; human-readable output goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .instance_io import (
    ParsedInstance,
    generate_random,
    parse_alpha,
    parse_graph,
    parse_instance,
    parse_x3c,
    result_to_json,
    serialize_instance,
)
from .parties import Direction, SolveStatus
from .reductions import REDUCTIONS
from .search import DEFAULT_NODE_BUDGET
from .solve import SOLVERS, solve_instance

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3


def _say(message: str):
    print(message, file=sys.stderr)


def _load_instance(path: str) -> ParsedInstance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"--budget must be at least 1, got {budget}")


def _cmd_solve(args) -> int:
    _check_budget(args.budget)
    parsed = _load_instance(args.file)
    start = time.monotonic()
    result = solve_instance(
        parsed.instance, solver=args.solver, node_budget=args.budget
    )
    elapsed_ms = int((time.monotonic() - start) * 1000)
    if args.json:
        sys.stdout.write(result_to_json(parsed, result, elapsed_ms))
    if result.status is SolveStatus.FEASIBLE:
        _say(f"value:  {result.value}")
        _say(f"answer: {'yes' if result.answer(parsed.instance) else 'no'} "
             f"(k = {parsed.instance.k}, {parsed.instance.direction.value})")
        moves = [m for m in result.witness.moves if m[2] > 0]
        if moves:
            _say("witness:")
            for source, dest, count in moves:
                _say(f"  {count:>4}  {parsed.party_names[source]} -> "
                     f"{parsed.party_names[dest]}")
        else:
            _say("witness: no voter moves")
        _say(f"solver: {result.solver}")
        return EXIT_OK
    if result.status is SolveStatus.INFEASIBLE:
        _say("value:  infeasible (no switch plan succeeds)")
        _say(f"solver: {result.solver}")
        return EXIT_OK
    _say("budget exhausted before the search completed; rerun with --budget")
    return EXIT_BUDGET


def _cmd_verify(args) -> int:
    _check_budget(args.budget)
    parsed = _load_instance(args.file)
    instance = parsed.instance
    candidate = solve_instance(instance, node_budget=args.budget)
    if candidate.status is SolveStatus.BUDGET_EXHAUSTED:
        _say("budget exhausted before verification finished")
        return EXIT_BUDGET
    cand_value = candidate.value if candidate.status is SolveStatus.FEASIBLE else None
    # No plan moves more than the n voters, so a checked MAX plan of n is optimal.
    proved = instance.direction is Direction.MAX and cand_value == instance.election.num_voters
    if proved:
        _say(f"optimal: {candidate.solver}'s value {cand_value} = n is the upper bound; "
             f"witness checked")
    try:
        reference = solve_instance(instance, solver="oracle")
    except ValueError:  # the oracle refuses files past its cell cap
        if not proved:
            raise
        _say("oracle: not run, the file's plans are past its size cap")
        return EXIT_OK
    ref_value = reference.value if reference.status is SolveStatus.FEASIBLE else None
    if cand_value != ref_value:
        _say(f"MISMATCH: {candidate.solver} says {cand_value}, "
             f"{reference.solver} says {ref_value}")
        return EXIT_MISMATCH
    _say(f"verified: {candidate.solver} and {reference.solver} agree on value "
         f"{'infeasible' if cand_value is None else cand_value}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    build = REDUCTIONS[args.reduction]
    text = Path(args.source).read_text(encoding="utf-8")
    if args.reduction.startswith("x3c-"):
        source = parse_x3c(text)
    else:
        source = parse_graph(text)
    if "copeland" in args.reduction:
        reduced = build(source, parse_alpha("1/2" if args.alpha is None else args.alpha))
    elif args.alpha is not None:
        raise ValueError(f"--alpha applies to the copeland reductions only, not {args.reduction}")
    else:
        reduced = build(source)
    parsed = ParsedInstance(
        instance=reduced.instance,
        candidate_names=reduced.candidate_names,
        party_names=reduced.party_names,
    )
    out = Path(args.output)
    out.write_text(
        serialize_instance(parsed, comment=f"reduction: {reduced.reduction}"), encoding="utf-8"
    )
    provenance = {
        "reduction": reduced.reduction,
        "source": reduced.source,
        "destination_party": reduced.party_names[reduced.destination_party],
        "source_parties": {
            str(element): reduced.party_names[pid]
            for element, pid in sorted(reduced.source_parties.items())
        },
    }
    sidecar = out.with_name(out.name + ".provenance.json")
    sidecar.write_text(json.dumps(provenance, indent=2) + "\n", encoding="utf-8")
    _say(f"wrote {out} and {sidecar}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    lo, _, hi = args.sizes.partition("..")
    try:
        size_range = (int(lo), int(hi if hi else lo))
    except ValueError:
        raise ValueError(f"bad --sizes value {args.sizes!r}, expected A..B")
    parsed = generate_random(
        seed=args.seed,
        num_candidates=args.candidates,
        num_parties=args.parties,
        size_range=size_range,
        rule_spec=args.rule,
        direction=args.direction,
        model=args.model,
        dest=args.dest,
    )
    text = serialize_instance(parsed, comment=f"seed: {args.seed}")
    Path(args.output).write_text(text, encoding="utf-8")
    _say(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partycred",
        description="MIN/MAX credibility of party-based election predictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem instance file")
    p_solve.add_argument("file")
    p_solve.add_argument("--solver", default="auto", choices=SOLVERS)
    p_solve.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                         help="node budget for the branch-and-bound search")
    p_solve.add_argument("--json", action="store_true",
                         help="write a JSON result to stdout")
    p_solve.set_defaults(fn=_cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="cross-check the routed solver against the exhaustive oracle"
    )
    p_verify.add_argument("file")
    p_verify.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_verify.set_defaults(fn=_cmd_verify)

    p_reduce = sub.add_parser("reduce", help="build an instance from a graph or 3-set system")
    p_reduce.add_argument("reduction", choices=sorted(REDUCTIONS))
    p_reduce.add_argument("source", help="graph file (n/t/e lines) or 3-set file (m/s lines)")
    p_reduce.add_argument("--alpha",
                          help="Copeland tie weight as p/q, default 1/2 (copeland reductions only)")
    p_reduce.add_argument("-o", "--output", required=True)
    p_reduce.set_defaults(fn=_cmd_reduce)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--candidates", type=int, required=True)
    p_gen.add_argument("--parties", type=int, required=True)
    p_gen.add_argument("--sizes", required=True, help="party size range, e.g. 1..5")
    p_gen.add_argument("--rule", required=True)
    p_gen.add_argument("--direction", required=True, choices=["min", "max"])
    p_gen.add_argument("--model", default="unique", choices=["unique", "cowinner"])
    p_gen.add_argument("--dest", default="one", choices=["one", "multi"])
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # a ParseError is a ValueError
        _say(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
