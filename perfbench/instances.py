"""Seeded instance texts for the benchmark workloads.

The generator is self-contained: it writes the instance text format directly
and decides the initial winner with its own numpy arithmetic, so a change to
the package cannot change the inputs the benchmark measures.

Each workload is a fixed pool of instances.  Pool entry ``i`` of workload
``w`` is generated from ``random.Random(f"{w}/{i}")``; the run's ``--seed``
only decides the order in which the pool is visited (see ``schedule``).
Reference answers for every pool entry are stored in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class InstanceClass:
    """One family of instances: rule, direction, destination mode and sizes."""

    name: str
    rule: str
    direction: str
    dest: str
    m: int
    parties: tuple[int, int]
    sizes: tuple[int, int]
    noise: float = 0.0  # 0: uniform random orders; else spread around a reference order


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[InstanceClass, ...]
    variants: int  # pool entries per class


_MULTI_RULES = ("plurality", "veto", "approval:2", "borda", "condorcet", "copeland:1/2", "maximin")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Every instance is routed to min_scoring, min_condorcet or max_r_approval.
        Workload("poly-large", (
            InstanceClass("plurality-min", "plurality", "min", "one", 50, (2500, 3000), (1, 9)),
            InstanceClass("borda-min", "borda", "min", "one", 50, (1000, 1200), (1, 9), 12.0),
            InstanceClass("condorcet-min", "condorcet", "min", "one", 50, (1200, 1500), (1, 9),
                          12.0),
            InstanceClass("plurality-max", "plurality", "max", "one", 6, (8, 10), (1, 6)),
            InstanceClass("approval2-max", "approval:2", "max", "one", 5, (8, 9), (1, 6)),
        ), variants=2),
        # No poly solver applies; sized so that no instance exhausts the node budget.
        Workload("search-one", (
            InstanceClass("copeland-min", "copeland:1/2", "min", "one", 6, (8, 9), (2, 5)),
            InstanceClass("copeland-max", "copeland:1/2", "max", "one", 6, (8, 9), (2, 5)),
            InstanceClass("maximin-min", "maximin", "min", "one", 6, (8, 9), (2, 5)),
            InstanceClass("maximin-max", "maximin", "max", "one", 6, (8, 9), (2, 5)),
            InstanceClass("borda-max", "borda", "max", "one", 6, (8, 10), (1, 4)),
            InstanceClass("condorcet-max", "condorcet", "max", "one", 6, (8, 10), (1, 5), 3.0),
            InstanceClass("veto-max", "veto", "max", "one", 6, (8, 10), (2, 5)),
        ), variants=8),
        # At most 15 voters, so the oracle gives every reference answer; the
        # 5-party MAX classes exhaust the node budget at the seed commit.
        Workload("search-multi", tuple(
            InstanceClass(f"{rule.split(':')[0]}-{direction}", rule, direction, "multi", 4,
                          (4, 4), (1, 3), 2.0 if rule == "condorcet" else 0.0)
            for rule in _MULTI_RULES
            for direction in ("min", "max")
        ) + (
            InstanceClass("borda-max-5", "borda", "max", "multi", 4, (5, 5), (1, 3)),
            InstanceClass("maximin-max-5", "maximin", "max", "multi", 4, (5, 5), (1, 3)),
        ), variants=2),
    )
}


def _vector(rule: str, m: int) -> np.ndarray | None:
    if rule == "plurality":
        return np.array([1] + [0] * (m - 1))
    if rule == "veto":
        return np.array([1] * (m - 1) + [0])
    if rule == "borda":
        return np.arange(m - 1, -1, -1)
    if rule.startswith("approval:"):
        r = int(rule.split(":")[1])
        return np.array([1] * r + [0] * (m - r))
    return None


def winner_set(rule: str, m: int, orders: list[list[int]], sizes: list[int]) -> list[int]:
    """Unique-winner set of the party election, computed independently of the package."""
    ranks = np.empty((len(orders), m), dtype=np.int64)
    for i, order in enumerate(orders):
        ranks[i, order] = np.arange(m)
    w = np.asarray(sizes, dtype=np.int64)
    vec = _vector(rule, m)
    if vec is not None:
        scores = [int(s) for s in w @ vec[ranks]]
    else:
        n = np.einsum("b,bcd->cd", w, (ranks[:, :, None] < ranks[:, None, :]).astype(np.int64))
        if rule == "condorcet":
            return [c for c in range(m) if all(n[c, d] > n[d, c] for d in range(m) if d != c)]
        if rule.startswith("copeland:"):
            alpha = Fraction(rule.split(":")[1])
            scores = [sum(1 if n[c, d] > n[d, c] else alpha if n[c, d] == n[d, c] else 0
                          for d in range(m) if d != c) for c in range(m)]
        elif rule == "maximin":
            scores = [min(int(n[c, d]) for d in range(m) if d != c) for c in range(m)]
        else:
            raise ValueError(f"unknown rule {rule!r}")
    best = max(scores)
    top = [c for c in range(m) if scores[c] == best]
    return top if len(top) == 1 else []


def _order(rng: random.Random, m: int, noise: float) -> list[int]:
    if noise <= 0:
        order = list(range(m))
        rng.shuffle(order)
        return order
    return sorted(range(m), key=lambda c: c + rng.gauss(0.0, noise))


def instance_text(workload: str, index: int) -> str:
    """Text of pool entry ``index`` of ``workload``; deterministic."""
    wl = WORKLOADS[workload]
    cls = wl.classes[index % len(wl.classes)]
    rng = random.Random(f"{workload}/{index}")
    m = cls.m
    while True:
        num_parties = rng.randint(*cls.parties)
        orders = [_order(rng, m, cls.noise) for _ in range(num_parties)]
        sizes = [rng.randint(*cls.sizes) for _ in range(num_parties)]
        won = winner_set(cls.rule, m, orders, sizes)
        if won:
            break
    p = won[0]
    k = rng.randint(1, sum(sizes))
    lines = [
        f"# {workload} pool entry {index}: {cls.name}",
        "candidates: " + " ".join(f"c{c + 1}" for c in range(m)),
        f"rule: {cls.rule}",
        "model: unique",
        f"dest: {cls.dest}",
        f"direction: {cls.direction}",
        f"k: {k}",
        f"distinguished: c{p + 1}",
    ]
    for i, (order, size) in enumerate(zip(orders, sizes)):
        lines.append(f"party P{i + 1} {size}: " + " > ".join(f"c{c + 1}" for c in order))
    return "\n".join(lines) + "\n"


def pool_size(workload: str) -> int:
    wl = WORKLOADS[workload]
    return len(wl.classes) * wl.variants


def class_of(workload: str, index: int) -> str:
    wl = WORKLOADS[workload]
    return wl.classes[index % len(wl.classes)].name


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def schedule(workload: str, seed: int):
    """Endless sequence of pool indices: seeded permutations of the whole pool.

    Every stretch of ``pool_size`` consecutive entries from a round boundary
    visits each pool entry once, so runs with different seeds measure the
    same instance mix in a different order.
    """
    rng = random.Random(f"{workload}/schedule/{seed}")
    indices = list(range(pool_size(workload)))
    while True:
        rng.shuffle(indices)
        yield from indices
