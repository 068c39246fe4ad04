"""Score computation and winner determination for the seven rules.

All arithmetic is exact: integer scores for positional rules and Maximin.
Copeland's winners come from exact integer units, den·wins + num·ties for
a tie weight alpha = num/den, in Python ints, so no denominator rounds or
wraps; ``copeland_scores`` gives the same units over den as ``Fraction``s.
An empty winner set is legal output for the Condorcet rule.

Every function here takes a ``parties.PartyElection`` ``e`` and reads only
its ``num_candidates`` and its ``ranks`` and ``sizes`` arrays (see ``core``).
Copeland and Maximin read every entry of the (m, m) pairwise tally.  The
Condorcet winner needs one row of it: a knockout over the candidates finds
the only one who can win, in O(l·m), and that candidate's row decides
(``condorcet_winner``).

Whether a given candidate p wins is decided by one table that is linear in
the party sizes (``WinTable``): the scores, the tally, or p's tally row.
``win_table`` builds it from an election and ``moved_table`` adds a size
change of a few parties, reading only those parties' ``ranks`` rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import pairwise_matrix

_BLOCK_CELLS = 1 << 15  # cells per block of party rows in scoring_scores: they stay in cache
# n * m stays below this for n voters over m candidates (every
# ``parties.PartyElection``), so every margin, lead sum and cumulative gain
# the solvers form fits in int64.
VOTER_CELL_BOUND = 2**62
# n * max(vector) stays below this for n voters, so the largest int64 sum a
# scoring path forms, about 3 * n * max(vector) (a packing's slack in
# ``poly._max_pack``: a budget of up to n * max(vector) less counts times
# costs of up to 2 * max(vector)), fits.
VOTER_POINT_BOUND = 2**63 // 3


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
    """Positional scores; raises ``ValueError`` when n voters (at least 1)
    times the vector's largest entry reaches ``VOTER_POINT_BOUND``, where
    the solvers' int64 sums could wrap.  ``winners`` and ``win_table``
    score through the same code (``_scores``)."""
    return dict(enumerate(_scores(e, vector).tolist()))


def _scores(e, vector: tuple[int, ...]) -> np.ndarray:
    """(m,) int64 positional scores, with ``scoring_scores``' checks."""
    if len(vector) != e.num_candidates:
        raise ValueError(
            f"scoring vector length {len(vector)} != {e.num_candidates} candidates"
        )
    ranks, sizes = e.ranks, e.sizes
    top = max(vector)
    # n * m < VOTER_CELL_BOUND, so n <= VOTER_CELL_BOUND // m: skip the sum
    # when even that many voters keep n * top below the bound.
    if top * (VOTER_CELL_BOUND // e.num_candidates) >= VOTER_POINT_BOUND:
        n = max(int(sizes.sum()), 1)
        if n * top >= VOTER_POINT_BOUND:
            raise ValueError(
                f"{n} voters times the scoring vector's top entry {top} "
                f"must stay below 2**63 // 3"
            )
    points = np.asarray(vector, dtype=np.int64)
    rows = max(1, _BLOCK_CELLS // e.num_candidates)  # one cache-sized block at a time
    scores = np.zeros(e.num_candidates, dtype=np.int64)
    for lo in range(0, len(sizes), rows):
        scores += sizes[lo:lo + rows] @ points[ranks[lo:lo + rows]]
    return scores


def _copeland_units(tally: np.ndarray, alpha: Fraction) -> list[int]:
    """Each candidate's Copeland score times alpha's denominator den, as
    exact Python ints: den·wins + num·ties for alpha = num/den, at any den,
    from the (m, m) pairwise tally."""
    wins = (tally > tally.T).sum(axis=1).tolist()
    ties = ((tally == tally.T).sum(axis=1) - 1).tolist()  # less the diagonal
    num, den = alpha.numerator, alpha.denominator
    return [den * w + num * t for w, t in zip(wins, ties)]


def copeland_scores(e, alpha: Fraction) -> dict[int, Fraction]:
    alpha = Fraction(alpha)
    units = _copeland_units(pairwise_matrix(e), alpha)
    return {c: Fraction(u, alpha.denominator) for c, u in enumerate(units)}


def _maximin_scores(tally: np.ndarray) -> list[int]:
    """Each candidate's least entry off the diagonal of its tally row."""
    m = len(tally)
    if m < 2:
        raise ValueError("maximin needs at least two candidates")
    return np.where(np.eye(m, dtype=bool), np.iinfo(np.int64).max, tally).min(axis=1).tolist()


def maximin_scores(e) -> dict[int, int]:
    return dict(enumerate(_maximin_scores(pairwise_matrix(e))))


def condorcet_winner(e) -> int | None:
    """The candidate who beats every other in a strict majority of the n
    voters, or None; in O(l·m), without the (m, m) tally.

    A knockout walks the candidates once: c replaces the champion whenever
    2·N(c, champion) >= n, that is, whenever the champion does not strictly
    beat c.  The champion's own tally row then decides: it wins iff
    2·N(champion, d) > n for every d != champion.  This is exact.  A
    Condorcet winner w replaces any champion it meets (or starts as the
    champion), and no later c replaces w, since w strictly beats it; so the
    final champion is the only candidate who can win, and its row tells
    whether it does.  With one candidate, the masked row is empty and that
    candidate wins, whatever n.
    """
    ranks, sizes = e.ranks, e.sizes
    n = int(sizes.sum())
    champion = 0
    for c in range(1, e.num_candidates):
        if 2 * int((ranks[:, c] < ranks[:, champion]) @ sizes) >= n:
            champion = c
    row = pairwise_matrix(e, [champion])[0]
    others = np.arange(e.num_candidates) != champion
    return champion if (2 * row[others] > n).all() else None


class WinTable(NamedTuple):
    """What decides whether candidate ``p`` wins an election under a rule.

    ``values`` is the (m,) scores for a scoring rule, the (m, m) pairwise
    tally for Copeland and Maximin, and p's (m,) tally row for Condorcet.
    Each is a sum over the parties of size times what one voter of the
    party adds.  A plan that moves voters changes it by the moved parties'
    terms alone (``moved_table``), and leaves ``n``, the number of voters,
    as it is.
    """

    p: int
    n: int
    values: np.ndarray


def win_table(e, rule: Rule, p: int) -> WinTable:
    """The ``WinTable`` of candidate p in election ``e``, in O(l·m), or
    O(l·m²) for Copeland and Maximin."""
    if isinstance(rule, Scoring):
        values = _scores(e, rule.vector)
    elif isinstance(rule, Condorcet):
        values = pairwise_matrix(e, [p])[0]
    else:
        values = pairwise_matrix(e)
    return WinTable(p, int(e.sizes.sum()), values)


def moved_table(table: WinTable, rule: Rule, ranks: np.ndarray, change) -> WinTable:
    """``table`` after the parties with (k, m) ``ranks`` change size by the
    k integers ``change``, in O(k·m), or O(k·m²) for Copeland and Maximin.

    What one voter of party q adds is read from its ranks row by the rule's
    definition: ``points[ranks[q]]`` for a scoring rule, the (m, m) mask
    ``ranks[q, c] < ranks[q, d]`` for Copeland and Maximin, and that mask's
    row p for Condorcet.  The voters only move, so ``n`` stays, and every
    entry stays that of an election's table, as bounded as any."""
    if isinstance(rule, Scoring):
        terms = np.asarray(rule.vector, dtype=np.int64).take(ranks)
    elif isinstance(rule, Condorcet):
        terms = ranks[:, [table.p]] < ranks
    else:
        terms = ranks[:, :, None] < ranks[:, None, :]
    delta = np.asarray(change, dtype=np.int64) @ terms.reshape(len(ranks), -1)
    return table._replace(values=table.values + delta.reshape(table.values.shape))


def p_wins(table: WinTable, rule: Rule, model: WinnerModel) -> bool:
    """Whether p wins: as the sole winner (UNIQUE) or as one of the winners
    (COWINNER).  A Condorcet winner is unique, so p's row decides both."""
    if isinstance(rule, Condorcet):  # p beats every rival in a strict majority
        return bool((2 * np.delete(table.values, table.p) > table.n).all())
    return table.p in _table_winners(table.values, rule, model)


def _table_winners(values: np.ndarray, rule: Rule, model: WinnerModel) -> frozenset[int]:
    """Winner set of a scoring, Copeland or Maximin ``WinTable``'s values,
    from scores whose order is the rule's: Copeland's in units of 1/den."""
    if isinstance(rule, Scoring):
        scores = values.tolist()
    elif isinstance(rule, Copeland):
        scores = _copeland_units(values, rule.alpha)
    else:
        scores = _maximin_scores(values)
    best = max(scores)
    argmax = frozenset(c for c, s in enumerate(scores) if s == best)
    if model is WinnerModel.UNIQUE and len(argmax) != 1:
        return frozenset()
    return argmax


def winners(e, rule: Rule, model: WinnerModel, table: WinTable | None = None) -> frozenset[int]:
    """Winner set; under UNIQUE a non-singleton argmax set yields no winner.

    From scratch this reads the whole election: O(l·m), or O(l·m²) for
    Copeland and Maximin.  ``table``, when given, is ``win_table(e, rule,
    p)`` for some p, and is read instead of rescoring ``e``; under Condorcet
    it names the winner when p's row shows that p wins, and otherwise the
    knockout (``condorcet_winner``) runs.  ``check_witness`` calls neither:
    it moves the instance's table by the plan and asks ``p_wins``, in
    O(k·m) for a plan that touches k parties."""
    if isinstance(rule, Condorcet):
        if table is not None and p_wins(table, rule, model):
            return frozenset({table.p})
        w = condorcet_winner(e)
        return frozenset() if w is None else frozenset({w})
    if table is None:
        table = win_table(e, rule, 0)  # p enters only a Condorcet table
    return _table_winners(table.values, rule, model)
