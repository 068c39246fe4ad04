"""Elections, preferences and the pairwise-comparison tally.

Candidates are dense integer indices ``0..m-1``; human-readable names live
only in the IO layer.  Ballots carry integer weights because voters of one
party are interchangeable.

An election carries two arrays, built once: ``ranks`` (ballots x m,
``ranks[b, c]`` the 0-based position of candidate c on ballot b) and
``sizes`` (the ballot weights).  Winner determination and the pairwise
tally read only these arrays, so they accept an ``Election`` and a
``parties.PartyElection`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class Preference:
    """A strict linear order over all candidates, most-preferred first."""

    order: tuple[int, ...]

    def __post_init__(self):
        problem = validate_preference(self.order, len(self.order))
        if problem is not None:
            raise ValueError(problem)

    def rank_of(self, c: int) -> int:
        """1-based position of candidate ``c`` in this preference."""
        try:
            return self.order.index(c) + 1
        except ValueError:
            raise ValueError(f"unknown candidate {c}") from None

    def prefers(self, c: int, d: int) -> bool:
        return self.rank_of(c) < self.rank_of(d)


def validate_preference(order, m: int) -> str | None:
    """Return None if ``order`` is a permutation of 0..m-1, else a description."""
    seen = set()
    for c in order:
        if c in seen:
            return f"duplicate {c}"
        if not (0 <= c < m):
            return f"candidate {c} out of range [0, {m})"
        seen.add(c)
    for c in range(m):
        if c not in seen:
            return f"missing {c}"
    return None


@dataclass(frozen=True)
class Election:
    """Weighted ballots: one (preference, voter count) pair per group of identical voters."""

    num_candidates: int
    ballots: tuple[tuple[Preference, int], ...]

    def __post_init__(self):
        if self.num_candidates < 1:
            raise ValueError("need at least one candidate")
        for pref, weight in self.ballots:
            if len(pref.order) != self.num_candidates:
                raise ValueError(
                    f"ballot covers {len(pref.order)} candidates, "
                    f"election has {self.num_candidates}"
                )
            if weight <= 0:
                raise ValueError(f"ballot weight must be positive, got {weight}")
        if self.num_voters < 1:
            raise ValueError("election needs at least one voter")

    @property
    def num_voters(self) -> int:
        return sum(w for _, w in self.ballots)

    @cached_property
    def ranks(self) -> np.ndarray:
        orders = np.array([pref.order for pref, _ in self.ballots], dtype=np.int64)
        return ranks_from_orders(orders.reshape(len(self.ballots), self.num_candidates))

    @cached_property
    def sizes(self) -> np.ndarray:
        sizes = np.array([w for _, w in self.ballots], dtype=np.int64)
        sizes.flags.writeable = False
        return sizes


@dataclass(frozen=True)
class PairwiseMatrix:
    """N(c, d) = number of voters preferring c to d.  Diagonal is undefined."""

    counts: np.ndarray  # (m, m) int64, diagonal zero by convention

    def n_of(self, c: int, d: int) -> int:
        if c == d:
            raise ValueError("pairwise comparison needs two distinct candidates")
        return int(self.counts[c, d])

    def margin(self, c: int, d: int) -> int:
        """N(c, d) - N(d, c)."""
        return self.n_of(c, d) - self.n_of(d, c)


def ranks_from_orders(orders: np.ndarray) -> np.ndarray:
    """Read-only (l, m) ranks of an (l, m) int64 array of orders, each row a
    permutation of 0..m-1 listed most-preferred first:
    ranks[q, orders[q, i]] = i."""
    num_rows, m = orders.shape
    ranks = np.empty_like(orders)
    ranks[np.arange(num_rows)[:, None], orders] = np.arange(m)
    ranks.flags.writeable = False
    return ranks


def pairwise_matrix(e) -> PairwiseMatrix:
    """Tally N(c, d) over the ``ranks`` and ``sizes`` of an ``Election`` or a
    ``PartyElection``; ballots of weight 0 are left out of the tally."""
    ranks, sizes = e.ranks, e.sizes
    voting = sizes > 0
    if not voting.all():
        ranks, sizes = ranks[voting], sizes[voting]
    return PairwiseMatrix(_kernels.pairwise_tally(ranks, sizes))
