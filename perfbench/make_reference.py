"""Record ``reference.json``: digest and reference answer of every pool entry.

The reference answer is the plan-enumerating oracle's value wherever the
oracle applies (at most 16 voters, under its plan cap), and otherwise the
value ``solve_instance(auto)`` returns on the commit this is run on.  Where
both exist and the solver finished, they must agree.  The file also records
the exact counts of one traced round per workload.

Run from the repository root, on the commit whose answers are the reference:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

import run
from instances import WORKLOADS, class_of, digest, instance_text, pool_size, schedule


def reference_entry(pc, workload: str, index: int) -> dict:
    text = instance_text(workload, index)
    instance = pc.instance_io.parse_instance(text).instance
    solved = pc.solve.solve_instance(instance, "auto", node_budget=run.NODE_BUDGET)
    try:
        oracle = pc.solve.solve_instance(instance, "oracle")
    except ValueError:  # over the oracle's voter or plan cap
        oracle = None
    reference = oracle if oracle is not None else solved
    if reference.status.value == "budget_exhausted":
        raise SystemExit(f"{workload} entry {index}: no reference answer (budget exhausted)")
    if solved.status.value != "budget_exhausted" and (
        (solved.status, solved.value) != (reference.status, reference.value)
    ):
        raise SystemExit(
            f"{workload} entry {index}: solver {solved.value} != oracle {reference.value}"
        )
    return {
        "class": class_of(workload, index),
        "sha256": digest(text),
        "status": reference.status.value,
        "value": reference.value,
        "source": "oracle" if oracle is not None else "seed-commit",
        "solver": solved.solver,
        "solver_status": solved.status.value,
    }


def main() -> int:
    pc = run.load_package()
    doc = {"node_budget": run.NODE_BUDGET, "workloads": {}}
    for workload in WORKLOADS:
        entries = [reference_entry(pc, workload, i) for i in range(pool_size(workload))]
        texts = [instance_text(workload, i) for i in range(pool_size(workload))]
        _, outcomes, _, _, tracer = run.traced_round(pc, texts, schedule(workload, 0))
        tally = run.gate(entries, outcomes)
        if any(tally[key] for key in ("errors", "witness_rejects", "mismatches")):
            raise SystemExit(f"{workload}: pipeline disagrees with the reference answers")
        values = run.layer_metrics(tracer, 1.0, 1.0, 0.0)
        doc["workloads"][workload] = {
            "entries": entries,
            "exact_counts": {name: values[name][0] for name in run.SPEC["exact_counts"]},
        }
        print(f"{workload}: {len(entries)} entries, "
              f"{sum(e['source'] == 'oracle' for e in entries)} from the oracle", file=sys.stderr)
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
