"""Span tracing from outside the package, for the traced benchmark run.

``Tracer.install`` rebinds module attributes that the package looks up at
call time (``partycred._kernels.min_switch_counts``, ``partycred.parties.winners``
and so on) to timing wrappers; ``Tracer.uninstall`` restores the originals.
The package itself is not modified.

Every call through a wrapper records a span ``(id, name, start, end, parent,
instance)`` in memory.  A span's self time is its duration minus the time
covered by its child spans.  Counters (kernel cells, search nodes, routing
decisions, witness rejects) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.instance: int | None = None
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        """Timing wrapper for ``fn``; ``count(counts, args, kwargs, result)`` adds counters."""

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.spans.append((span_id, name, start, end, parent, self.instance))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, count=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, count))

    def install(self, pc) -> None:
        """Wrap every layer boundary on the solve path of package ``pc``."""
        self.patch(pc.instance_io, "parse_instance", "instance_io.parse_instance", _count_parse)
        self.patch(pc.instance_io, "ProblemInstance", "parties.ProblemInstance")
        self.patch(pc.parties, "winners", "rules.winners")
        self.patch(pc.rules, "pairwise_matrix", "core.pairwise_matrix")
        self.patch(pc.poly, "pairwise_matrix", "core.pairwise_matrix")
        self.patch(pc._kernels, "pairwise_tally", "kernels.pairwise_tally", _count_tally)
        self.patch(pc._kernels, "min_switch_counts", "kernels.min_switch_counts", _count_switch)
        self.patch(pc.solve, "poly_solver", "solve.poly_solver", _count_route)
        for attr in ("min_scoring", "min_condorcet", "max_r_approval"):
            self.patch(pc.solve, attr, f"poly.{attr}")
        for attr in ("exact_search_min", "exact_search_max"):
            self.patch(pc.solve, attr, "search.exact_search", _count_search)
        self.patch(pc.parties, "check_witness", "parties.check_witness", _count_witness)
        self.patch(pc.instance_io, "result_to_json", "instance_io.result_to_json")

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, name, start, end, parent, instance in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                      "parent": parent, "instance": instance}) + "\n")


def _count_parse(counts, args, kwargs, result):
    counts["instance_io.parse_instance.bytes"] += len(args[0].encode())


def _count_tally(counts, args, kwargs, result):
    ranks = args[0]  # (ballots, m)
    counts["kernels.pairwise_tally.cells"] += ranks.shape[0] * ranks.shape[1] ** 2


def _count_switch(counts, args, kwargs, result):
    seg_gain, party_gain = args[0], args[3]  # (segments,), (destinations,)
    counts["kernels.min_switch_counts.cells"] += party_gain.shape[0] * seg_gain.shape[0]


def _count_route(counts, args, kwargs, result):
    counts["solve.route.poly" if result is not None else "solve.route.search"] += 1


def _count_search(counts, args, kwargs, result):
    counts["search.nodes"] += result.nodes
    counts["search.budget_exhausted"] += int(result.status.value == "budget_exhausted")


def _count_witness(counts, args, kwargs, result):
    counts["parties.check_witness.rejects"] += int(not result.ok)
