"""Re-check a ``partycred solve --json`` witness from scratch.

    python3 scripts/recheck_witness.py INSTANCE RESULT_JSON (--lose | --win)
        [--one-destination] [--value-n]

The plan is applied to the parsed election with ``apply_switch``, and the
switched election is rescored whole with ``winners``: no solver's
arithmetic and not the instance's moved win table.  Checks:

* ``--lose`` (MIN): p does not win the switched election; ``--win`` (MAX):
  p still wins it;
* the plan moves exactly the reported value of voters;
* ``--one-destination``: the plan has at most one destination;
* ``--value-n``: the value is n, every voter of the file.

Exits 0 and prints one line when every check holds, and 1 with the reason
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

import partycred as pc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Re-check a solve --json witness from scratch.")
    parser.add_argument("instance", help="the instance file that was solved")
    parser.add_argument("result", help="the --json document solve wrote for it")
    outcome = parser.add_mutually_exclusive_group(required=True)
    outcome.add_argument("--lose", action="store_true", help="p must lose (a MIN witness)")
    outcome.add_argument("--win", action="store_true", help="p must still win (a MAX witness)")
    parser.add_argument("--one-destination", action="store_true", help="at most one destination")
    parser.add_argument("--value-n", action="store_true", help="the value must be n")
    args = parser.parse_args(argv)

    with open(args.instance, encoding="utf-8") as handle:
        parsed = pc.parse_instance(handle.read())
    with open(args.result, encoding="utf-8") as handle:
        doc = json.load(handle)
    party = {name: q for q, name in enumerate(parsed.party_names)}
    plan = pc.SwitchPlan(moves=tuple(
        (party[m["from"]], party[m["to"]], m["count"]) for m in doc["witness"]["moves"]
    ))
    inst = parsed.instance
    after = pc.apply_switch(inst.election, plan)
    failures = []
    if (inst.p in pc.winners(after, inst.rule, inst.model)) is not args.win:
        failures.append("p still wins" if args.lose else "p no longer wins")
    if plan.total != doc["value"]:
        failures.append(f"the plan moves {plan.total} voters, not {doc['value']}")
    if args.one_destination and len(plan.destinations()) > 1:
        failures.append(f"{len(plan.destinations())} destinations")
    if args.value_n and doc["value"] != inst.election.num_voters:
        failures.append(f"value {doc['value']} is not n = {inst.election.num_voters}")
    if failures:
        print(f"{args.instance}: witness rejected: {'; '.join(failures)}", file=sys.stderr)
        return 1
    print(args.instance, doc["solver"], "witness of", doc["value"], "voters re-checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
