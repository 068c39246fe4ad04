"""Party-based elections, voter switching, and the MIN/MAX problem instances.

A switched voter abandons its party's ballot and casts the destination
party's ballot instead.  MIN asks for the fewest switches that cost the
distinguished candidate p its winnership; MAX for the most switches p can
survive.  Everything is immutable; ``apply_switch`` returns a new election.

``PartyElection`` is the one election type: a rank array and a size vector
(see ``core``), built once when it is parsed or constructed; winners are
computed from them.  A switch plan only moves voters between ballots that
already exist, so ``apply_switch`` and ``check_witness`` apply a plan as a
size delta: the switched election shares the rank array and gets a new size
vector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import invalid_orders, ranks_from_orders, validate_preference
from .rules import Rule, WinnerModel, winners


class PartyElection:
    """Parties 0..l-1 over candidates 0..m-1, held as two read-only arrays:
    ``ranks[q, c]`` is the 0-based position of candidate c on party q's
    ballot and ``sizes[q]`` is party q's voter count (zero allowed).

    ``PartyElection(orders, sizes)`` validates outside input: an (l, m)
    sequence of party orders, each most-preferred first, and l sizes.
    ``from_arrays`` wraps arrays that are already valid.
    """

    def __init__(self, orders, sizes):
        if not len(orders):
            raise ValueError("need at least one party")
        m = len(orders[0])
        for q, order in enumerate(orders):
            if len(order) != m:
                raise ValueError(f"party {q} orders {len(order)} candidates, party 0 orders {m}")
        if m < 1:
            raise ValueError("need at least one candidate")
        if len(sizes) != len(orders):
            raise ValueError(f"{len(sizes)} sizes for {len(orders)} parties")
        orders_in, sizes_in = _integer_rows(orders, "order"), _integer_rows(sizes, "size")
        invalid = invalid_orders(orders_in)
        if invalid.any():
            q = int(invalid.argmax())
            problem = validate_preference(orders_in[q].tolist(), m)
            raise ValueError(f"party {q} has a bad order: {problem}")
        negative = sizes_in < 0
        if negative.any():
            q = int(negative.argmax())
            raise ValueError(f"party {q} has negative size {sizes_in[q]}")
        self._set_arrays(
            ranks_from_orders(orders_in.astype(np.int64)), sizes_in.astype(np.int64)
        )

    @classmethod
    def from_arrays(cls, ranks: np.ndarray, sizes: np.ndarray) -> PartyElection:
        """Election over (l >= 1, m) int64 ``ranks`` whose rows are
        permutations of 0..m-1 and (l,) non-negative int64 ``sizes``.  Nothing
        is re-validated; the arrays are made read-only, not copied."""
        pe = object.__new__(cls)
        pe._set_arrays(ranks, sizes)
        return pe

    def _set_arrays(self, ranks: np.ndarray, sizes: np.ndarray) -> None:
        ranks.flags.writeable = False
        sizes.flags.writeable = False
        self.ranks = ranks
        self.sizes = sizes

    @property
    def orders(self) -> np.ndarray:
        """(l, m) party orders, most-preferred first (``argsort`` of ``ranks``)."""
        return np.argsort(self.ranks, axis=1)

    @property
    def num_candidates(self) -> int:
        return self.ranks.shape[1]

    @property
    def num_voters(self) -> int:
        return int(self.sizes.sum())

    def __eq__(self, other):
        if not isinstance(other, PartyElection):
            return NotImplemented
        return np.array_equal(self.ranks, other.ranks) and np.array_equal(
            self.sizes, other.sizes
        )

    def __hash__(self):
        return hash((self.ranks.shape, self.ranks.tobytes(), self.sizes.tobytes()))

    def __repr__(self):
        return f"PartyElection({self.orders.tolist()}, {self.sizes.tolist()})"


def _integer_rows(values, what: str) -> np.ndarray:
    """``values`` as an integer array, or ValueError naming the first party
    whose ``what`` (order or size) is not integer."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        kinds = (np.asarray(row).dtype.kind for row in values)
        q = next((q for q, kind in enumerate(kinds) if kind not in "iu"), 0)
        raise ValueError(f"party {q} has a non-integer {what}: {values[q]!r}")
    return array


class Direction(enum.Enum):
    MIN = "min"
    MAX = "max"


class DestinationMode(enum.Enum):
    ONE = "one"
    MULTI = "multi"


@dataclass(frozen=True)
class SwitchPlan:
    """Moves as (source party, destination party, voter count) triples."""

    moves: tuple[tuple[int, int, int], ...]

    @property
    def total(self) -> int:
        return sum(count for _, _, count in self.moves)

    def destinations(self) -> set[int]:
        return {dest for _, dest, count in self.moves if count > 0}


EMPTY_PLAN = SwitchPlan(moves=())


def plan_violation(pe: PartyElection, plan: SwitchPlan) -> str | None:
    """Structural check of a plan against an election; None when valid."""
    num_parties = len(pe.sizes)
    outflow: dict[int, int] = {}
    for source, dest, count in plan.moves:
        if count < 0:
            return f"negative move count {count}"
        if not (0 <= source < num_parties) or not (0 <= dest < num_parties):
            return f"unknown party in move ({source} -> {dest})"
        if count > 0 and source == dest:
            return f"move sourced at its destination (party {dest})"
        outflow[source] = outflow.get(source, 0) + count
    for pid, out in sorted(outflow.items()):
        size = int(pe.sizes[pid])
        if out > size:
            return f"overdraw: {out} voters from size-{size} party {pid}"
    return None


def _switched(pe: PartyElection, plan: SwitchPlan) -> PartyElection:
    """``pe`` after a structurally valid plan: the same ranks, new sizes."""
    sizes = pe.sizes.copy()
    for source, dest, count in plan.moves:
        sizes[source] -= count
        sizes[dest] += count
    return PartyElection.from_arrays(pe.ranks, sizes)


def apply_switch(pe: PartyElection, plan: SwitchPlan) -> PartyElection:
    problem = plan_violation(pe, plan)
    if problem is not None:
        raise ValueError(problem)
    return _switched(pe, plan)


@dataclass(frozen=True)
class ProblemInstance:
    election: PartyElection
    p: int
    k: int
    rule: Rule
    model: WinnerModel
    destination_mode: DestinationMode
    direction: Direction

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if not (0 <= self.p < self.election.num_candidates):
            raise ValueError(f"distinguished candidate {self.p} out of range")
        won = winners(self.election, self.rule, self.model)
        if not _p_wins(self, won):
            raise ValueError(
                f"candidate {self.p} is not the initial winner "
                f"(winner set: {sorted(won)})"
            )


def _p_wins(instance: ProblemInstance, won: frozenset[int]) -> bool:
    """p wins with winner set ``won``: as the sole winner (UNIQUE) or as one
    of the winners (COWINNER).  ``winners`` already returns no winner for a
    UNIQUE tie, so membership decides both models.  MIN succeeds when this
    fails, MAX when it holds."""
    return instance.p in won


class WitnessCheck(NamedTuple):
    ok: bool
    reason: str | None


def check_witness(
    instance: ProblemInstance, plan: SwitchPlan, k: int | None = None
) -> WitnessCheck:
    """Full witness validation: structure, destination mode, bound, success.

    The plan is applied as a size delta on the instance's arrays.
    """
    if k is None:
        k = instance.k
    problem = plan_violation(instance.election, plan)
    if problem is not None:
        return WitnessCheck(False, problem)
    if (
        instance.destination_mode is DestinationMode.ONE
        and len(plan.destinations()) > 1
    ):
        return WitnessCheck(False, "one-destination instance with multiple destinations")
    total = plan.total
    if instance.direction is Direction.MIN and total > k:
        return WitnessCheck(False, f"moved {total} voters, bound is at most {k}")
    if instance.direction is Direction.MAX and total < k:
        return WitnessCheck(False, f"moved {total} voters, bound is at least {k}")
    won = winners(_switched(instance.election, plan), instance.rule, instance.model)
    if _p_wins(instance, won) == (instance.direction is Direction.MIN):
        return WitnessCheck(False, "success predicate fails on the switched election")
    return WitnessCheck(True, None)


class SolveStatus(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    value: int | None
    witness: SwitchPlan | None
    solver: str
    nodes: int = 0

    def __post_init__(self):
        if self.status is SolveStatus.FEASIBLE:
            if self.value is None or self.value < 0:
                raise ValueError("feasible result needs a non-negative value")
            if self.witness is None:
                raise ValueError("feasible result needs a witness plan")

    def answer(self, instance: ProblemInstance) -> bool | None:
        """Decision answer: value vs. the instance bound k (None if unsolved)."""
        if self.status is SolveStatus.BUDGET_EXHAUSTED:
            return None
        if self.status is SolveStatus.INFEASIBLE:
            return False
        if instance.direction is Direction.MIN:
            return self.value <= instance.k
        return self.value >= instance.k


def feasible(value: int, witness: SwitchPlan, solver: str, nodes: int = 0) -> SolveResult:
    return SolveResult(SolveStatus.FEASIBLE, value, witness, solver, nodes)


def infeasible(solver: str, nodes: int = 0) -> SolveResult:
    return SolveResult(SolveStatus.INFEASIBLE, None, None, solver, nodes)


def budget_exhausted(solver: str, nodes: int = 0) -> SolveResult:
    return SolveResult(SolveStatus.BUDGET_EXHAUSTED, None, None, solver, nodes)
