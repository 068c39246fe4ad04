"""partycred benchmark: the timed, verified solve pipeline.

Each instance goes through the public functions in the order a user calls
them: ``instance_io.parse_instance`` -> ``solve.solve_instance(auto,
node_budget)`` -> ``parties.check_witness(k=value)`` on every FEASIBLE result
-> ``instance_io.result_to_json``.  The loop is closed: one caller, one
instance in flight, numeric thread pools pinned to one thread.

Usage::

    python3 perfbench/run.py --workload poly-large --seed 1 --seconds 20 --trace 0

``--trace 0`` runs whole rounds over the workload's instance pool (every pool
entry once per round, in a seeded order) until ``--seconds`` have passed and
reports the end-to-end metrics: ``instances_per_s`` (instances completed per
second of pipeline time), ``e2e_p50_ms`` and ``e2e_tail_ms`` (the median and
the workload's tail percentile from ``spec.json`` over the pool entries, each
entry taken at its median time over the rounds), ``setup_s`` (median of
several fresh set-ups, see ``setup_probe.py``) and ``peak_rss_mb``.  The
four time metrics are scaled to a reference machine speed measured by a
calibration loop run before every instance and around every set-up (see
``calibration_s``); the unscaled values are printed beside them.

``--trace 1`` runs one round untraced and the same round traced (see
``tracing.py``), reports the per-layer metrics and the tracing overhead, and
writes the spans to ``perfbench/out/``.

Every result is checked after the timed loop against ``reference.json``
(oracle value where the oracle applies, else the value recorded from the seed
commit).  A wrong value, a rejected witness or an exception makes the run exit
with code 1.  BUDGET_EXHAUSTED is an allowed outcome ("unknown"), counted in
``fail_ratio``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from instances import WORKLOADS, digest, instance_text, schedule  # noqa: E402
from setup_probe import warm_up  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = json.loads((HERE / "spec.json").read_text())
NODE_BUDGET: int = SPEC["node_budget"]
CALIBRATION_REF_S: float = SPEC["calibration_ref_ms"] / 1000.0

# Self times (``.ms`` / ``.self_ms``) and call counts come from spans; the
# rest from counters recorded at the same boundaries.
SPAN_METRICS = {
    "instance_io.parse_instance": ("self_ms", "calls"),
    "parties.ProblemInstance": ("ms", "calls"),
    "rules.winners": ("ms", "calls"),
    "core.pairwise_matrix": ("ms", "calls"),
    "kernels.pairwise_tally": ("ms", "calls"),
    "kernels.min_switch_counts": ("ms", "calls"),
    "solve.poly_solver": ("ms", "calls"),
    "poly.min_scoring": ("self_ms", "calls"),
    "poly.min_condorcet": ("self_ms", "calls"),
    "poly.max_r_approval": ("self_ms", "calls"),
    "search.exact_search": ("self_ms", "calls"),
    "parties.check_witness": ("ms", "calls"),
    "instance_io.result_to_json": ("ms", "calls"),
}
COUNTER_METRICS = {
    "instance_io.parse_instance.bytes": "bytes",
    "kernels.pairwise_tally.cells": "count",
    "kernels.min_switch_counts.cells": "count",
    "solve.route.poly": "count",
    "solve.route.search": "count",
    "search.nodes": "count",
    "search.budget_exhausted": "count",
    "parties.check_witness.rejects": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported with exit code 2."""


def load_package():
    """Import partycred from ``src/`` of this checkout, never from elsewhere."""
    package = SRC / "partycred"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"package source {package} not found")
    sys.path.insert(0, str(SRC))
    import partycred

    if Path(partycred.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported partycred from {partycred.__file__}, not {package}")
    return partycred


def run_instance(pc, text: str):
    """One pipeline pass; returns (seconds, (status, value, witness ok, json))."""
    start = time.perf_counter()
    parsed = pc.instance_io.parse_instance(text)
    result = pc.solve.solve_instance(parsed.instance, "auto", node_budget=NODE_BUDGET)
    witness_ok = None
    if result.status.value == "feasible":
        witness_ok = pc.parties.check_witness(parsed.instance, result.witness, k=result.value).ok
    doc = pc.instance_io.result_to_json(
        parsed, result, int((time.perf_counter() - start) * 1000)
    )
    return time.perf_counter() - start, (result.status.value, result.value, witness_ok, doc)


def run_guarded(pc, text: str):
    start = time.perf_counter()
    try:
        return run_instance(pc, text)
    except Exception:  # counted as a failure and reported; the run goes on
        return time.perf_counter() - start, ("error", traceback.format_exc(limit=3), None, None)


def problem(reference: dict, outcome) -> str | None:
    """Why ``outcome`` is wrong for ``reference``; None when it is acceptable."""
    status, value, witness_ok, doc = outcome
    if status == "error":
        return f"exception:\n{value}"
    if witness_ok is False:
        return "check_witness rejected the witness"
    if status == "budget_exhausted":
        return None
    if (status, value) != (reference["status"], reference["value"]):
        return f"got {status} {value}, reference {reference['status']} {reference['value']}"
    shown = json.loads(doc)["value"]
    if shown != (value if status == "feasible" else status):
        return f"JSON value {shown!r} disagrees with result {status} {value}"
    return None


def gate(entries: list[dict], outcomes) -> dict:
    """Compare every (pool index, outcome) with its reference answer."""
    tally = {"budget_exhausted": 0, "errors": 0, "witness_rejects": 0, "mismatches": 0}
    for index, outcome in outcomes:
        if outcome[0] == "budget_exhausted":
            tally["budget_exhausted"] += 1
        why = problem(entries[index], outcome)
        if why is None:
            continue
        key = ("errors" if outcome[0] == "error"
               else "witness_rejects" if outcome[2] is False else "mismatches")
        tally[key] += 1
        print(f"FAIL pool entry {index} ({entries[index]['class']}): {why}", file=sys.stderr)
    return tally


def entry_times(outcomes, samples) -> list[float]:
    """Median time of each pool entry over the run's rounds, ascending.

    Every entry runs once per round, so order statistics over these medians
    do not depend on how many rounds fit in the run, and an entry whose
    rounds straddle the median or tail position cannot make it jump.
    """
    per_entry: dict[int, list[float]] = {}
    for (index, _), dt in zip(outcomes, samples):
        per_entry.setdefault(index, []).append(dt)
    return sorted(statistics.median(times) for times in per_entry.values())


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up time of several fresh interpreters (see setup_probe.py).

    Returns the unscaled times and the times scaled like the pipeline times,
    by calibration loops run just before and just after each interpreter.
    """
    raw, calibrations = [], []
    for _ in range(SPEC["setup_samples"]):
        before = calibration_s()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(NODE_BUDGET)],
            capture_output=True, text=True, timeout=120,
        )
        calibrations.append(statistics.median([before, calibration_s()]))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        raw.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return raw, [s * CALIBRATION_REF_S / c for s, c in zip(raw, calibrations)]


def sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\n")
    return h.hexdigest()


_CALIBRATION_ARRAY = np.arange(16, dtype=np.int64)


def calibration_s() -> float:
    """Seconds taken by a fixed loop that runs no package code.

    The 2-CPU virtual machine this benchmark was tuned on switches between
    speed states about 1.5x apart every few seconds, and the share of slow
    time differs from run to run.  This loop (interpreter work plus small
    numpy calls, the two kinds of work the pipeline does) slows down with
    those states: over 3-second windows its time correlated 0.8-0.96 with a
    poly-large and a search-multi instance.  The end-to-end times are scaled
    by it; see ``scaled``.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(3000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
    sorted((i * 7919) % 1009 for i in range(2000))
    total = _CALIBRATION_ARRAY.copy()
    for _ in range(300):
        total += _CALIBRATION_ARRAY
        np.minimum(total, 1000, out=total)
        int(total.max())
    return time.perf_counter() - start


def scaled(samples: list[float], calibrations: list[float]) -> list[float]:
    """Pipeline times at reference machine speed.

    ``calibrations[j]`` ran just before sample ``j`` and ``calibrations[j + 1]``
    just after it.  Each sample is scaled by ``CALIBRATION_REF_S`` over the
    median of those two and one more on each side, so it reads as if the
    calibration loop had taken exactly ``calibration_ref_ms``.
    """
    return [
        dt * CALIBRATION_REF_S / statistics.median(calibrations[max(0, j - 1): j + 3])
        for j, dt in enumerate(samples)
    ]


def run_pass(pc, texts: list[str], indices: list[int], tracer=None):
    """Run the listed pool entries, each after one calibration loop.

    Returns per-instance pipeline seconds, the calibration measured before
    each instance (outside its timing) and the (pool index, outcome) pairs.
    """
    samples, calibrations, outcomes = [], [], []
    for n, index in enumerate(indices):
        calibrations.append(calibration_s())
        if tracer is not None:
            tracer.instance = n
        dt, outcome = run_guarded(pc, texts[index])
        samples.append(dt)
        outcomes.append((index, outcome))
    return samples, calibrations, outcomes


def closed_loop(pc, texts: list[str], order, seconds: float):
    """Whole rounds over the pool until ``seconds`` have passed."""
    samples, calibrations, outcomes = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        s, c, o = run_pass(pc, texts, [next(order) for _ in texts])
        samples += s
        calibrations += c
        outcomes += o
    return samples, calibrations, outcomes


def traced_round(pc, texts: list[str], order):
    """One round untraced, then the same round traced.

    Returns the round's pool indices, the outcomes of both passes, the
    scaled pipeline seconds of each pass and the tracer.
    """
    indices = [next(order) for _ in texts]
    samples, calibrations, outcomes = run_pass(pc, texts, indices)
    untraced_s = sum(scaled(samples, calibrations))

    tracer = Tracer()
    tracer.install(pc)
    try:
        samples, calibrations, traced = run_pass(pc, texts, indices, tracer)
    finally:
        tracer.uninstall()
    traced_s = sum(scaled(samples, calibrations))
    return indices, outcomes + traced, untraced_s, traced_s, tracer


def layer_metrics(tracer, untraced_s: float, traced_s: float, fail_ratio: float) -> dict:
    values: dict[str, tuple[float, str]] = {}
    for name, (time_key, calls_key) in SPAN_METRICS.items():
        values[f"{name}.{time_key}"] = (tracer.self_s[name] * 1000.0, "ms")
        values[f"{name}.{calls_key}"] = (tracer.calls[name], "count")
    for name, unit in COUNTER_METRICS.items():
        values[name] = (tracer.counts[name], unit)
    nodes = tracer.counts["search.nodes"]
    search_us = tracer.self_s["search.exact_search"] * 1e6
    values["search.us_per_node"] = (search_us / nodes if nodes else 0.0, "us")
    values["fail_ratio"] = (fail_ratio, "ratio")
    values["trace.overhead_ms"] = ((traced_s - untraced_s) * 1000.0, "ms")
    values["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pc = load_package()
    reference = json.loads((HERE / "reference.json").read_text())
    if reference["node_budget"] != NODE_BUDGET:
        raise BenchError("reference.json was recorded with another node budget")
    entries = reference["workloads"][args.workload]["entries"]

    # Untimed preparation: inputs, their digests, set-up samples, warm-up.
    texts = [instance_text(args.workload, i) for i in range(len(entries))]
    digests = [digest(t) for t in texts]
    if digests != [e["sha256"] for e in entries]:
        raise BenchError("generated instance texts differ from reference.json")
    setup_raw, setup_samples = measure_setup()
    warm_up(pc, NODE_BUDGET)
    order = schedule(args.workload, args.seed)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"node budget {NODE_BUDGET}, pool {len(texts)} instances, "
          f"pool sha256 {sha(digests)}")

    if args.trace:
        indices, outcomes, untraced_s, traced_s, tracer = traced_round(pc, texts, order)
        measured = indices
    else:
        raw, calibrations, outcomes = closed_loop(pc, texts, order, args.seconds)
        measured = [i for i, _ in outcomes]
    print(f"measured {len(measured)} instances in {len(measured) // len(texts)} rounds, "
          f"sequence sha256 {sha(measured)}")

    tally = gate(entries, outcomes)
    attempted = len(outcomes)
    failed = tally["errors"] + tally["witness_rejects"] + tally["mismatches"]
    fail_ratio = (failed + tally["budget_exhausted"]) / attempted
    print(f"fail_ratio {fail_ratio:.6f} ratio ({tally['budget_exhausted']} budget exhausted, "
          f"{tally['errors']} exceptions, {tally['witness_rejects']} witness rejects, "
          f"{tally['mismatches']} value mismatches, of {attempted})")

    notes = {}
    if args.trace:
        values = layer_metrics(tracer, untraced_s, traced_s, fail_ratio)
        missing = [name for name in SPEC["workloads"][args.workload]["required_boundaries"]
                   if not values[name][0]]
        if missing:
            raise BenchError(f"boundaries recorded zero calls: {', '.join(missing)}")
        counts_now = {name: values[name][0] for name in SPEC["exact_counts"]}
        recorded = reference["workloads"][args.workload]["exact_counts"]
        same = "same as" if counts_now == recorded else "DIFFERENT from"
        print(f"exact counts {json.dumps(counts_now)} ({same} the seed commit)")
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"tracing overhead {values['trace.overhead_ms'][0]:.1f} ms "
              f"({values['trace.overhead_pct'][0]:.2f} %): traced {traced_s:.3f} s, "
              f"untraced {untraced_s:.3f} s (scaled pipeline time); "
              f"{len(tracer.spans)} spans in {spans.relative_to(HERE.parent)}")
    else:
        pct = SPEC["workloads"][args.workload]["tail_percentile"]
        samples = scaled(raw, calibrations)
        summary = {}
        for label, series in (("raw", raw), ("scaled", samples)):
            times = entry_times(outcomes, series)
            summary[label] = (
                len(series) / sum(series),
                statistics.median(times) * 1000.0,
                statistics.quantiles(times, n=100, method="inclusive")[pct - 1] * 1000.0,
            )
        ips, p50_ms, tail_ms = summary["scaled"]
        beyond = sum(dt * 1000.0 > tail_ms for dt in samples)
        values = {
            "instances_per_s": (ips, "1/s"),
            "e2e_p50_ms": (p50_ms, "ms"),
            "e2e_tail_ms": (tail_ms, "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes = {
            "instances_per_s": f"unscaled {summary['raw'][0]:.4f}",
            "e2e_p50_ms": f"unscaled {summary['raw'][1]:.3f}; median over {len(times)} pool "
                          "entries of each one's median",
            "e2e_tail_ms": f"unscaled {summary['raw'][2]:.3f}; p{pct} over the same entry "
                           f"medians; {beyond} of {len(raw)} samples beyond it",
            "setup_s": f"unscaled {statistics.median(setup_raw):.4f}; median of "
                       f"{len(setup_samples)}: " + ", ".join(f"{s:.3f}" for s in setup_samples),
        }
        print(f"times scaled to a calibration loop of {CALIBRATION_REF_S * 1000:.3f} ms; "
              f"this run's calibration median {statistics.median(calibrations) * 1000:.3f} ms "
              f"over {len(calibrations)} samples")
    for name, (value, unit) in values.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {value} {unit}{note}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
