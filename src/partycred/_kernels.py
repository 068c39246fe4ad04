"""Hot numeric kernels in plain numpy.

Everything here is exact integer arithmetic.  Callers look these names up on
the module at call time (``_kernels.pairwise_tally(...)``), so the names are
the boundary to keep when changing an implementation.  They also pass every
argument positionally: ``perfbench/tracing.py`` counts each call's cells
from arguments at fixed positions, ``pairwise_tally``'s (ballots, m) ranks
at position 0, and ``min_switch_counts``' (l, m) ranks at position 0 and
(m,) win thresholds at position 3.  A tally call reads len(rows) x ballots
x m cells: m rows for the whole tally, one for the Condorcet winner's check.
A ``min_switch_counts`` call reads l x m: each cell of its ranks once, and
through it one cell of the lead bins.
"""

from __future__ import annotations

import numpy as np

# Ranks cells per block of party rows in min_switch_counts and in
# ``rules._scores``, which reads it here at call time: they stay in cache.
_BLOCK_CELLS = 1 << 15


def pairwise_tally(ranks: np.ndarray, weights: np.ndarray, rows=None) -> np.ndarray:
    """counts[i, d] = total weight of ballots ranking ``rows[i]`` before d,
    one row per candidate in ``rows`` (default: every candidate, so
    counts[c, d] is the whole tally).

    One integer product per row candidate c, ``(ranks[:, c] < ranks[:, d])
    @ weights`` for every d at once, so the largest temporary is one
    (m, ballots) comparison mask.
    """
    by_candidate = np.ascontiguousarray(ranks.T)
    m = by_candidate.shape[0]
    rows = range(m) if rows is None else rows
    counts = np.empty((len(rows), m), dtype=np.int64)
    for i, c in enumerate(rows):
        counts[i] = np.dot(by_candidate[c] < by_candidate, weights)
    return counts


def min_switch_counts(
    ranks: np.ndarray, sizes: np.ndarray, p: int, win: np.ndarray, bins: np.ndarray,
    levels: np.ndarray,
) -> np.ndarray:
    """Per rival c: the fewest voters whose moves into c's lowest-lead party
    bring p's lead over c below ``win[c]``, or -1 where none can.

    ``ranks[q, c]`` is c's position in party q's order.  ``levels`` holds the
    distinct values a lead may take, rising, and ``bins[i, j]`` is the index
    in it of what one voter with p at position i and c at position j adds to
    p's lead over c, so party q's voters add ``levels[bins[ranks[q, p],
    ranks[q, c]]]`` each.  A voter of party q moved into a party d gains
    ``lead(q) - lead(d)``.

    One exact int64 histogram counts the voters per (rival, level), so it
    has m x len(levels) cells whatever the leads' magnitudes.  It is filled
    from ``ranks`` one block of ``_BLOCK_CELLS`` cells at a time, which also
    gives each rival's lowest level, that of its lowest-lead party (of any
    size).  p's lead over c is ``voters[c] @ levels``.  Down each rival's
    levels from the highest the gains fall, and the greedy takes the largest
    first: one cumulative sum of voters and of gain per rival, and the first
    level whose gain reaches the need fixes the count: the voters above it
    plus the fewest of its own.  A count is never negative: where the lead
    is already below ``win[c]`` it is 0.
    """
    m = ranks.shape[1]
    k = len(levels)
    voters = np.zeros(m * k, dtype=np.int64)
    lowest = np.full(m, k - 1)
    offsets = np.arange(0, m * k, k)
    rows = max(1, _BLOCK_CELLS // m)
    for lo in range(0, len(sizes), rows):
        block = ranks[lo:lo + rows]
        at = bins.take(block[:, [p]] * m + block)  # (rows, m) level indices
        np.add.at(voters, (at + offsets).ravel(), np.repeat(sizes[lo:lo + rows], m))
        np.minimum(lowest, at.min(axis=0), out=lowest)
    voters = voters.reshape(m, k)
    need = voters @ levels - win + 1  # gain that brings p's lead below win
    voters = voters[:, ::-1]  # row c: rival c's voters by falling lead
    gain = levels[::-1] - levels.take(lowest)[:, None]  # < 0 only below the lowest, with no voter
    cum_g = np.cumsum(voters * gain, axis=1)  # never falls: no voter has a gain < 0
    reached = cum_g >= need[:, None]
    at = offsets + reached.argmax(axis=1)  # flat: first level reaching need
    v, g = voters.take(at), gain.take(at)
    short = need - cum_g.take(at) + v * g  # gain still due on entering it
    step = np.maximum(g, 1)  # already >= 1 where need > 0 and a level reaches it
    above = np.cumsum(voters, axis=1).take(at) - v
    return np.where(reached[:, -1], above + np.maximum(short + step - 1, 0) // step, -1)
