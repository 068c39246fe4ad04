"""Party-based elections, voter switching, and the MIN/MAX problem instances.

A switched voter abandons its party's ballot and casts the destination
party's ballot instead.  MIN asks for the fewest switches that cost the
distinguished candidate p its winnership; MAX for the most switches p can
survive.  Everything is immutable; ``apply_switch`` returns a new election.

``PartyElection`` is the one election type: a rank array and a size vector
(see ``core``), built once when it is parsed or constructed; winners are
computed from them.  A switch plan only moves voters between ballots that
already exist, so ``apply_switch`` applies a plan as a size delta: the
switched election shares the rank array and gets a new size vector.
``check_witness`` goes further: a ``ProblemInstance`` keeps the table that
decided p's initial win (``rules.WinTable``), and a check adds only the
moved parties' terms to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import validate_preference, validated_ranks
from .rules import (
    VOTER_CELL_BOUND,
    Rule,
    WinnerModel,
    WinTable,
    moved_table,
    p_wins,
    win_table,
    winners,
)


class PartyElection:
    """Parties 0..l-1 over candidates 0..m-1, held as two read-only arrays:
    ``ranks[q, c]`` is the 0-based position of candidate c on party q's
    ballot and ``sizes[q]`` is party q's voter count (zero allowed).

    ``PartyElection(orders, sizes)`` validates outside input: an (l, m)
    sequence of party orders, each most-preferred first, and l sizes whose
    total n keeps n * m below ``VOTER_CELL_BOUND``.
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
        ranks, bad = validated_ranks(orders_in.astype(np.int64))
        if len(bad):
            q = int(bad[0])
            problem = validate_preference(orders_in[q].tolist(), m)
            raise ValueError(f"party {q} has a bad order: {problem}")
        negative = sizes_in < 0
        if negative.any():
            q = int(negative.argmax())
            raise ValueError(f"party {q} has negative size {sizes_in[q]}")
        cells = np.cumsum(sizes_in.astype(object)) * m  # Python ints: exact
        over = cells >= VOTER_CELL_BOUND
        if over.any():
            q = int(over.argmax())
            raise ValueError(
                f"party {q} brings the voter count to {cells[q] // m}: "
                f"voters times candidates must stay below 2**62"
            )
        self._set_arrays(ranks, sizes_in.astype(np.int64))

    @classmethod
    def from_arrays(cls, ranks: np.ndarray, sizes: np.ndarray) -> PartyElection:
        """Election over (l >= 1, m) int64 ``ranks`` whose rows are
        permutations of 0..m-1 and (l,) non-negative int64 ``sizes`` whose
        total n keeps n * m below ``VOTER_CELL_BOUND``.  Nothing is
        re-validated; the arrays are made read-only, not copied."""
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
    whose ``what`` (order or size) is not integer.  Sizes beyond 64 bits
    stay Python ints, in an object array."""
    array = np.asarray(values)
    if array.dtype.kind in "iu":
        return array
    if array.ndim == 1 and all(type(v) is int for v in values):
        return np.array(values, dtype=object)
    kinds = (np.asarray(row).dtype.kind for row in values)
    q = next((q for q, kind in enumerate(kinds) if kind not in "iu"), 0)
    raise ValueError(f"party {q} has a non-integer {what}: {values[q]!r}")


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


def apply_switch(pe: PartyElection, plan: SwitchPlan) -> PartyElection:
    """``pe`` after a plan: the same ranks, new sizes; ValueError when the
    plan is not structurally valid (``plan_violation``)."""
    problem = plan_violation(pe, plan)
    if problem is not None:
        raise ValueError(problem)
    sizes = pe.sizes.copy()
    for source, dest, count in plan.moves:
        sizes[source] -= count
        sizes[dest] += count
    return PartyElection.from_arrays(pe.ranks, sizes)


@dataclass(frozen=True)
class ProblemInstance:
    """A MIN or MAX question about an election in which p wins initially.

    Validation builds p's win table once (``rules.win_table``: the scores,
    the pairwise tally, or p's tally row for Condorcet) and reads the winner
    set from it through ``winners``.  The instance keeps it as ``table``
    for ``check_witness``."""

    election: PartyElection
    p: int
    k: int
    rule: Rule
    model: WinnerModel
    destination_mode: DestinationMode
    direction: Direction
    table: WinTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if not (0 <= self.p < self.election.num_candidates):
            raise ValueError(f"distinguished candidate {self.p} out of range")
        table = win_table(self.election, self.rule, self.p)
        won = winners(self.election, self.rule, self.model, table)
        if self.p not in won:  # under UNIQUE a tie already gives no winner
            raise ValueError(
                f"candidate {self.p} is not the initial winner "
                f"(winner set: {sorted(won)})"
            )
        object.__setattr__(self, "table", table)


class WitnessCheck(NamedTuple):
    ok: bool
    reason: str | None


def check_witness(
    instance: ProblemInstance, plan: SwitchPlan, k: int | None = None
) -> WitnessCheck:
    """Full witness validation: structure, destination mode, bound, success.

    Success is decided on the instance's win table (``instance.table``)
    moved by the plan: each party the plan touches adds its net size change
    times what one of its voters adds to the table, read from its ``ranks``
    row by the rule's definition (``rules.moved_table``).  So a check takes
    O(k·m) for the k parties the plan touches, O(k·m²) under Copeland and
    Maximin, and reads no (l, m) array.  It uses nothing of the solvers'
    own arithmetic, so a solver's error cannot approve its own plan; the
    oracle asks the same ``rules.p_wins`` of each plan's moved table.
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
    change: dict[int, int] = {}
    for source, dest, count in plan.moves:
        change[source] = change.get(source, 0) - count
        change[dest] = change.get(dest, 0) + count
    moved = [q for q, delta in change.items() if delta]
    ranks = instance.election.ranks[moved]
    table = moved_table(instance.table, instance.rule, ranks, [change[q] for q in moved])
    if p_wins(table, instance.rule, instance.model) == (instance.direction is Direction.MIN):
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


def feasible(
    instance: ProblemInstance, value: int, witness: SwitchPlan, solver: str, nodes: int = 0
) -> SolveResult:
    """The FEASIBLE result of ``witness``, once ``check_witness`` accepts it
    at k = ``value``: every solver builds its FEASIBLE results here.  A
    rejected plan is a solver bug and raises ``RuntimeError``."""
    check = check_witness(instance, witness, k=value)
    if not check.ok:
        raise RuntimeError(f"{solver} built a rejected plan of {value} switches: {check.reason}")
    return SolveResult(SolveStatus.FEASIBLE, value, witness, solver, nodes)


def infeasible(solver: str, nodes: int = 0) -> SolveResult:
    return SolveResult(SolveStatus.INFEASIBLE, None, None, solver, nodes)


def budget_exhausted(solver: str, nodes: int = 0) -> SolveResult:
    return SolveResult(SolveStatus.BUDGET_EXHAUSTED, None, None, solver, nodes)
