"""Hot numeric kernels in plain numpy.

Everything here is exact integer arithmetic.  Callers look these names up on
the module at call time (``_kernels.pairwise_tally(...)``), so the names are
the boundary to keep when changing an implementation.  They also pass every
argument positionally: ``perfbench/tracing.py`` counts each call's cells
from arguments at fixed positions, ``pairwise_tally``'s (ballots, m) ranks
at position 0, and ``min_switch_counts``' (l, m) leads at position 0 and
(m,) need at position 3.  A tally call reads len(rows) x ballots x m cells:
m rows for the whole tally, one for the Condorcet winner's check.  A
``min_switch_counts`` call reads l x m: each cell of its leads and of its
lead bins once.
"""

from __future__ import annotations

import numpy as np


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
    leads: np.ndarray, sizes: np.ndarray, bins: np.ndarray, need: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """Per column c of the (l, m) ``leads``: the fewest voters whose moves
    into c's lowest-lead party close ``need[c]``, or -1 where none can.

    ``levels`` holds the distinct values a lead may take, rising, and
    ``bins[q, c]`` is the index of ``leads[q, c]`` in it.  A voter of party q
    moved there gains ``leads[q, c] - min(leads[:, c])``.  One exact int64
    histogram counts the voters per (column, level), so it has m x
    len(levels) cells whatever the leads' magnitudes.  Down each column's
    levels from the highest the gains fall, and the greedy takes the largest
    first: one cumulative sum of voters and of gain per column, and the first
    level whose gain reaches ``need[c]`` fixes the count: the voters above it
    plus the fewest of its own.  A count is never negative: where
    ``need[c] <= 0`` it is 0.
    """
    m = leads.shape[1]
    k = len(levels)
    voters = np.zeros(m * k, dtype=np.int64)
    np.add.at(voters, (bins + k * np.arange(m)).ravel(), np.repeat(sizes, m))
    voters = voters.reshape(m, k)[:, ::-1]  # row c: column c's voters by falling lead
    gain = levels[::-1] - leads.min(axis=0)[:, None]  # < 0 only below the minimum, with no voter
    cum_g = np.cumsum(voters * gain, axis=1)  # never falls: no voter has a gain < 0
    reached = cum_g >= need[:, None]
    at = np.arange(0, m * k, k) + reached.argmax(axis=1)  # flat: first level reaching need
    v, g = voters.take(at), gain.take(at)
    short = need - cum_g.take(at) + v * g  # gain still due on entering it
    step = np.maximum(g, 1)  # already >= 1 where need > 0 and a level reaches it
    above = np.cumsum(voters, axis=1).take(at) - v
    return np.where(reached[:, -1], above + np.maximum(short + step - 1, 0) // step, -1)
