"""One benchmark set-up, timed in a fresh interpreter.

Set-up is ``import partycred`` plus one warm-up pipeline run (parse, solve
with ``auto``, ``check_witness``, JSON) on a tiny instance for each solver the
router can pick.  Run as a script it prints ``{"setup_s": <seconds>}``;
``run.py`` starts it several times and reports the median.

Usage: python3 perfbench/setup_probe.py <package source dir> <node budget>
"""

from __future__ import annotations

import sys
import time

_PARTIES = """\
candidates: p a b
distinguished: p
k: 1
model: unique
party P1 4: p > a > b
party P2 2: a > p > b
party P3 1: b > a > p
"""

# (rule, direction, dest) -> routed solver: min_scoring, min_condorcet,
# max_r_approval, exact_search_min, exact_search_max (one and multi).
WARMUP_TEXTS = tuple(
    f"rule: {rule}\ndirection: {direction}\ndest: {dest}\n" + _PARTIES
    for rule, direction, dest in (
        ("plurality", "min", "one"),
        ("condorcet", "min", "one"),
        ("plurality", "max", "one"),
        ("copeland:1/2", "min", "one"),
        ("borda", "max", "one"),
        ("maximin", "max", "multi"),
    )
)


def warm_up(pc, node_budget: int) -> None:
    for text in WARMUP_TEXTS:
        parsed = pc.instance_io.parse_instance(text)
        result = pc.solve.solve_instance(parsed.instance, "auto", node_budget=node_budget)
        if result.status.value != "feasible":
            raise RuntimeError(f"warm-up instance not solved: {result.status.value}")
        if not pc.parties.check_witness(parsed.instance, result.witness, k=result.value).ok:
            raise RuntimeError("warm-up witness rejected")
        pc.instance_io.result_to_json(parsed, result, 0)


if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import partycred

    warm_up(partycred, int(sys.argv[2]))
    print(f'{{"setup_s": {time.perf_counter() - start!r}}}')
