"""Score computation and winner determination for the seven rules.

All arithmetic is exact: integer scores for positional rules and Maximin.
Copeland's winners come from int64 units, den·wins + num·ties for the tie
weight num/den = ``equivalent_alpha(alpha, m)``, which orders every score
as alpha does.  An empty winner set is legal output for the Condorcet rule.

Every function here takes a ``parties.PartyElection`` ``e`` and reads only
its ``num_candidates`` and its ``ranks`` and ``sizes`` arrays (see ``core``).
Copeland and Maximin read every entry of the (m, m) pairwise tally.  The
Condorcet winner needs one row of it: a knockout over the candidates finds
the only one who can win, in O(l·m), and that candidate's row decides
(``condorcet_winner``).

Whether a given candidate p wins is decided by one table that is linear in
the party sizes (``WinTable``): the scores, the tally, or p's tally row.
``win_table`` builds it from an election, ``voter_terms`` gives what one
voter of a party adds to it, and ``moved_table`` adds a size change of a
few parties.  ``p_wins`` decides from one table or a batch of them, for
validation (through ``winners``), ``parties.check_witness`` and the oracle.

The solvers read them as margins: ``voter_margins`` is what one voter of
each party adds to the margins that decide p's win (``margin_table``).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _kernels
from .core import pairwise_matrix

# n * m stays below this for n voters over m candidates (every
# ``parties.PartyElection``), so every margin, lead sum and cumulative gain
# the solvers form fits in int64.
VOTER_CELL_BOUND = 2**62
# n * max(vector) stays below this for n voters, so the largest int64 sum a
# scoring path forms, about 3 * n * max(vector) (a packing's slack in
# ``poly._max_pack``: a budget of up to n * max(vector) less counts times
# costs of up to 2 * max(vector)), fits.
VOTER_POINT_BOUND = 2**63 // 3
_INT64 = np.iinfo(np.int64)


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
    rows = max(1, _kernels._BLOCK_CELLS // e.num_candidates)  # one cache-sized block at a time
    scores = np.zeros(e.num_candidates, dtype=np.int64)
    for lo in range(0, len(sizes), rows):
        scores += sizes[lo:lo + rows] @ points[ranks[lo:lo + rows]]
    return scores


def equivalent_alpha(alpha: Fraction, m: int) -> Fraction:
    """A tie weight with denominator below 2·m under which every Copeland
    comparison at m candidates comes out as under ``alpha``.

    Two scores w + alpha·t and w' + alpha·t', with wins and ties in
    0..m − 1, compare as alpha does with the fraction (w' − w)/(t − t'),
    whose denominator is at most m − 1.  ``alpha`` equals such a fraction
    only when its own denominator is at most m − 1, and is kept then.
    Otherwise it lies strictly between the nearest such fractions below and
    above it, and so does their mediant, which is returned.  With one
    candidate nothing is compared, and 0 is returned."""
    if alpha.denominator < m:
        return alpha
    if m < 2:
        return Fraction(0)
    below = max(Fraction(math.floor(alpha * b), b) for b in range(1, m))
    above = min(Fraction(math.ceil(alpha * b), b) for b in range(1, m))
    return Fraction(below.numerator + above.numerator, below.denominator + above.denominator)


def copeland_scores(e, alpha: Fraction) -> dict[int, Fraction]:
    """Each candidate's wins + alpha·ties, as exact Fractions at any alpha."""
    alpha = Fraction(alpha)
    tally = pairwise_matrix(e)
    wins = (tally > tally.T).sum(axis=1).tolist()
    ties = ((tally == tally.T).sum(axis=1) - 1).tolist()  # less the diagonal
    return {c: w + alpha * t for c, (w, t) in enumerate(zip(wins, ties))}


def maximin_scores(e) -> dict[int, int]:
    return dict(enumerate(table_scores(pairwise_matrix(e), Maximin()).tolist()))


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
    as it is.  Tables of one n stack on leading batch axes (``p_wins``).
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


def voter_terms(rule: Rule, ranks: np.ndarray, p: int) -> np.ndarray:
    """What one voter of each party with (k, m) ``ranks`` adds to p's
    ``WinTable``, by the rule's definition: the (k, m) ``points[ranks[q]]``
    for a scoring rule, the (k, m, m) mask ``ranks[q, c] < ranks[q, d]`` for
    Copeland and Maximin, and that mask's row p for Condorcet."""
    if isinstance(rule, Scoring):
        return np.asarray(rule.vector, dtype=np.int64).take(ranks)
    if isinstance(rule, Condorcet):
        return ranks[:, [p]] < ranks
    return ranks[:, :, None] < ranks[:, None, :]


def margin_table(rule: Rule, m: int) -> np.ndarray:
    """(m, m) int64: what one voter adds to the margin of the candidate it
    ranks at position i over the one at position j, ``vector[i] -
    vector[j]`` for a scoring rule and sign(j - i) for the pairwise rules."""
    if isinstance(rule, Scoring):
        vector = np.asarray(rule.vector, dtype=np.int64)
        return vector[:, None] - vector
    at = np.arange(m, dtype=np.int64)
    return np.sign(at - at[:, None])


def voter_margins(rule: Rule, ranks: np.ndarray, p: int) -> np.ndarray:
    """``margin_table`` at the positions of each party with (k, m) ``ranks``:
    (k, m) margins of p over each c for a scoring rule and Condorcet (column
    p is 0), (k, m, m) margins of c over d for Copeland and Maximin."""
    m = ranks.shape[1]
    table = margin_table(rule, m)
    if isinstance(rule, (Scoring, Condorcet)):
        return table.take(ranks[:, [p]] * m + ranks)
    return table.take(ranks[:, :, None] * m + ranks[:, None, :])


def win_floor(rule: Rule, model: WinnerModel) -> int:
    """The margin p needs over every rival: 1 under the unique model and 0
    under the co-winner model, in the scores of a scoring rule, Copeland or
    Maximin (``poly``'s leads, the branch and bound's scores in half its
    doubled units), and 1 under Condorcet, whose majority is strict."""
    return int(isinstance(rule, Condorcet) or model is WinnerModel.UNIQUE)


def moved_table(table: WinTable, rule: Rule, ranks: np.ndarray, change) -> WinTable:
    """``table`` plus Σ change·``voter_terms`` of the parties with (k, m)
    ``ranks``, in O(k·m), or O(k·m²) for Copeland and Maximin.  The voters
    only move, so ``n`` stays, and every entry stays that of an election's
    table, as bounded as any."""
    terms = voter_terms(rule, ranks, table.p)
    delta = np.asarray(change, dtype=np.int64) @ terms.reshape(len(ranks), table.values.size)
    return table._replace(values=table.values + delta.reshape(table.values.shape))


def table_scores(values: np.ndarray, rule: Scoring | Copeland | Maximin) -> np.ndarray:
    """(..., m) int64 scores, in the rule's order, of ``WinTable`` values
    with any leading batch axes: a scoring rule's as they are, Copeland's
    den·wins + num·ties for num/den = ``equivalent_alpha(alpha, m)``, and
    Maximin's least entry off the diagonal of each tally row.  A tally's
    diagonal N(c, c) is 0 and no entry is negative, so that is the row's
    second-smallest entry."""
    if isinstance(rule, Scoring):
        return values
    m = values.shape[-1]
    if isinstance(rule, Copeland):
        points = _copeland_points(rule.alpha.numerator, rule.alpha.denominator, m)
        signs = np.sign(values - np.swapaxes(values, -1, -2))
        return points.take(signs).sum(axis=-1) - points[0]  # the diagonal is no tie
    if m < 2:
        raise ValueError("maximin needs at least two candidates")
    return np.sort(values, axis=-1)[..., 1]


@functools.lru_cache(maxsize=64)
def _copeland_points(num: int, den: int, m: int) -> np.ndarray:
    """Points of a tie, a win and a loss at m candidates for alpha = num/den,
    in units of ``equivalent_alpha``: indexed by the sign of N(c, d) - N(d, c)."""
    alpha = equivalent_alpha(Fraction(num, den), m)
    points = np.array((alpha.numerator, alpha.denominator, 0), dtype=np.int64)
    points.flags.writeable = False
    return points


def p_wins(table: WinTable, rule: Rule, model: WinnerModel):
    """Whether p wins, as the sole winner (UNIQUE) or one of the winners
    (COWINNER): a bool, or a bool array over the leading batch axes of
    ``table.values``.  Under Condorcet, 2·N(p, d) > n for every rival d
    decides both models.  Otherwise p's score (``table_scores``) must beat
    every rival's (UNIQUE) or reach it (COWINNER): membership in ``winners``."""
    p = table.p
    if isinstance(rule, Condorcet):
        beats = 2 * table.values > table.n
        beats[..., p] = True  # p needs no majority over itself
        won = beats.all(axis=-1)
        return won if won.ndim else bool(won)
    scores = table_scores(table.values, rule)
    if scores.ndim == 1:  # one table: Python ints cost less than numpy's calls
        scores = scores.tolist()
        mine, best = scores.pop(p), max(scores, default=_INT64.min)
    else:
        mine, scores = scores[..., p], scores.copy()
        scores[..., p] = _INT64.min
        best = scores.max(axis=-1)
    return mine > best if model is WinnerModel.UNIQUE else mine >= best


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
    scores = table_scores(table.values, rule).tolist()
    best = max(scores)
    argmax = frozenset(c for c, s in enumerate(scores) if s == best)
    if model is WinnerModel.UNIQUE and len(argmax) != 1:
        return frozenset()
    return argmax
