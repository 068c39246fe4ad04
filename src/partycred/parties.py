"""Party-based elections, voter switching, and the MIN/MAX problem instances.

A switched voter abandons its party's ballot and casts the destination
party's ballot instead.  MIN asks for the fewest switches that cost the
distinguished candidate p its winnership; MAX for the most switches p can
survive.  Everything is immutable; ``apply_switch`` returns a new election.

A ``PartyElection`` is held as the rank and size arrays of ``core``, built
once when it is parsed or constructed; winners are computed from them.  A
switch plan only moves voters between ballots that already exist, so
``apply_switch`` and ``check_witness`` apply a plan as a size delta: the
switched election shares the rank array and gets a new size vector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import Election, Preference, ranks_from_orders
from .rules import Rule, WinnerModel, winners


@dataclass(frozen=True)
class Party:
    id: int
    preference: Preference
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"party {self.id} has negative size {self.size}")


class PartyElection:
    """Parties 0..l-1 over candidates 0..m-1, held as two read-only arrays:
    ``ranks[q, c]`` is the 0-based position of candidate c on party q's
    ballot and ``sizes[q]`` is party q's voter count (zero allowed).

    The constructor validates ``Party`` objects and builds the arrays;
    ``from_arrays`` wraps arrays that are already valid, and the ``parties``
    tuple is then derived from them on first use.
    """

    def __init__(self, num_candidates: int, parties: tuple[Party, ...]):
        if not parties:
            raise ValueError("need at least one party")
        for i, party in enumerate(parties):
            if party.id != i:
                raise ValueError(f"party ids must be dense, got {party.id} at {i}")
            if len(party.preference.order) != num_candidates:
                raise ValueError(f"party {i} preference has wrong length")
        orders = np.array([party.preference.order for party in parties], dtype=np.int64)
        sizes = np.array([party.size for party in parties], dtype=np.int64)
        self._set_arrays(ranks_from_orders(orders.reshape(len(parties), num_candidates)), sizes)
        self.parties = tuple(parties)

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

    @cached_property
    def parties(self) -> tuple[Party, ...]:
        orders = np.argsort(self.ranks, axis=1).tolist()
        return tuple(
            Party(id=q, preference=Preference(order=tuple(order)), size=size)
            for q, (order, size) in enumerate(zip(orders, self.sizes.tolist()))
        )

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
        return f"PartyElection(num_candidates={self.num_candidates}, parties={self.parties!r})"


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

    def counts_by_pair(self) -> dict[tuple[int, int], int]:
        counts: dict[tuple[int, int], int] = {}
        for source, dest, count in self.moves:
            if count:
                counts[source, dest] = counts.get((source, dest), 0) + count
        return counts


EMPTY_PLAN = SwitchPlan(moves=())


def materialize(pe: PartyElection) -> Election:
    """One weighted ballot per nonempty party."""
    ballots = tuple(
        (party.preference, party.size) for party in pe.parties if party.size > 0
    )
    return Election(num_candidates=pe.num_candidates, ballots=ballots)


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
        if self.model is WinnerModel.UNIQUE:
            ok = won == frozenset({self.p})
        else:
            ok = self.p in won
        if not ok:
            raise ValueError(
                f"candidate {self.p} is not the initial winner "
                f"(winner set: {sorted(won)})"
            )


def min_success(instance: ProblemInstance, after: Election | PartyElection) -> bool:
    """p lost winnership: no longer sole winner (UNIQUE) / left the winner set (COWINNER)."""
    if instance.direction is not Direction.MIN:
        raise ValueError("min_success applies to MIN instances")
    won = winners(after, instance.rule, instance.model)
    if instance.model is WinnerModel.UNIQUE:
        return won != frozenset({instance.p})
    return instance.p not in won


def max_success(instance: ProblemInstance, after: Election | PartyElection) -> bool:
    """p kept winnership under the instance's winner model."""
    if instance.direction is not Direction.MAX:
        raise ValueError("max_success applies to MAX instances")
    won = winners(after, instance.rule, instance.model)
    if instance.model is WinnerModel.UNIQUE:
        return won == frozenset({instance.p})
    return instance.p in won


class WitnessCheck(NamedTuple):
    ok: bool
    reason: str | None


def check_witness(
    instance: ProblemInstance, plan: SwitchPlan, k: int | None = None
) -> WitnessCheck:
    """Full witness validation: structure, destination mode, bound, success.

    The plan is applied as a size delta on the instance's arrays; no ballot
    objects are rebuilt.
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
    after = _switched(instance.election, plan)
    if instance.direction is Direction.MIN:
        success = min_success(instance, after)
    else:
        success = max_success(instance, after)
    if not success:
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
