"""Score computation and winner determination for the seven rules.

All arithmetic is exact: integer scores for positional rules and Maximin,
``Fraction`` for Copeland so that a rational tie weight alpha never suffers
rounding.  An empty winner set is legal output for the Condorcet rule.

Every function here takes a ``parties.PartyElection`` ``e`` and reads only
its ``num_candidates`` and its ``ranks`` and ``sizes`` arrays (see ``core``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import pairwise_matrix


@dataclass(frozen=True)
class Scoring:
    """Positional scoring rule with a non-increasing integer vector."""

    vector: tuple[int, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.vector):
            raise ValueError("scoring vector entries must be non-negative")
        if any(a < b for a, b in zip(self.vector, self.vector[1:])):
            raise ValueError("scoring vector must be non-increasing")


@dataclass(frozen=True)
class Condorcet:
    """Elects the Condorcet winner; nobody wins when there is none."""


@dataclass(frozen=True)
class Copeland:
    """Pairwise wins plus ``alpha`` per pairwise tie, alpha an exact rational in [0, 1]."""

    alpha: Fraction

    def __post_init__(self):
        alpha = Fraction(self.alpha)
        if not (0 <= alpha <= 1):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class Maximin:
    """Worst pairwise support: min over opponents of N(c, d)."""


Rule = Scoring | Condorcet | Copeland | Maximin


class WinnerModel(enum.Enum):
    UNIQUE = "unique"
    COWINNER = "cowinner"


def scoring_vector_for(name: str, m: int, r: int | None = None) -> tuple[int, ...]:
    """Named scoring vector of length ``m`` (plurality, veto, borda, approval)."""
    if name == "plurality":
        return (1,) + (0,) * (m - 1)
    if name == "veto":
        return (1,) * (m - 1) + (0,)
    if name == "borda":
        return tuple(range(m - 1, -1, -1))
    if name == "approval":
        if r is None or not (1 <= r <= m):
            raise ValueError(f"approval needs 1 <= r <= {m}, got {r}")
        return (1,) * r + (0,) * (m - r)
    raise ValueError(f"unknown scoring rule {name!r}")


def scoring_scores(e, vector: tuple[int, ...]) -> dict[int, int]:
    if len(vector) != e.num_candidates:
        raise ValueError(
            f"scoring vector length {len(vector)} != {e.num_candidates} candidates"
        )
    points = np.asarray(vector, dtype=np.int64)[e.ranks]
    return dict(enumerate((e.sizes @ points).tolist()))


def copeland_scores(e, alpha: Fraction) -> dict[int, Fraction]:
    n = pairwise_matrix(e)
    alpha = Fraction(alpha)
    wins = (n > n.T).sum(axis=1)
    ties = (n == n.T).sum(axis=1) - 1  # the diagonal
    return {c: w + alpha * t for c, (w, t) in enumerate(zip(wins.tolist(), ties.tolist()))}


def maximin_scores(e) -> dict[int, int]:
    if e.num_candidates < 2:
        raise ValueError("maximin needs at least two candidates")
    n = pairwise_matrix(e)
    off_diagonal = np.where(np.eye(e.num_candidates, dtype=bool), np.iinfo(np.int64).max, n)
    return dict(enumerate(off_diagonal.min(axis=1).tolist()))


def condorcet_winner(e) -> int | None:
    n = pairwise_matrix(e)
    beats = (n > n.T).sum(axis=1)
    winner = np.flatnonzero(beats == e.num_candidates - 1)
    return int(winner[0]) if winner.size else None


def _score_table(e, rule: Rule) -> dict[int, int | Fraction]:
    if isinstance(rule, Scoring):
        return scoring_scores(e, rule.vector)
    if isinstance(rule, Copeland):
        return copeland_scores(e, rule.alpha)
    if isinstance(rule, Maximin):
        return maximin_scores(e)
    raise TypeError(f"no score table for rule {rule!r}")


def winners(e, rule: Rule, model: WinnerModel) -> frozenset[int]:
    """Winner set; under UNIQUE a non-singleton argmax set yields no winner."""
    if isinstance(rule, Condorcet):
        w = condorcet_winner(e)
        return frozenset() if w is None else frozenset({w})
    scores = _score_table(e, rule)
    best = max(scores.values())
    argmax = frozenset(c for c, s in scores.items() if s == best)
    if model is WinnerModel.UNIQUE and len(argmax) != 1:
        return frozenset()
    return argmax
