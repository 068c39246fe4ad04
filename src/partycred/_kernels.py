"""Hot numeric kernels in plain numpy.

Everything here is exact integer arithmetic.  Callers look these names up on
the module at call time (``_kernels.pairwise_tally(...)``), so the names are
the boundary to keep when changing an implementation.  They also pass every
argument positionally: ``perfbench/tracing.py`` counts each call's cells from
them (ballots x m^2 for the tally, l x m for ``min_switch_counts``).
"""

from __future__ import annotations

import numpy as np


def pairwise_tally(ranks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """counts[c, d] = total weight of ballots ranking c before d.

    One integer product per candidate c, ``(ranks[:, c] < ranks[:, d]) @
    weights`` for every d at once, so the largest temporary is one
    (m, ballots) comparison mask.
    """
    by_candidate = np.ascontiguousarray(ranks.T)
    m = by_candidate.shape[0]
    counts = np.empty((m, m), dtype=np.int64)
    for c in range(m):
        counts[c] = np.dot(by_candidate[c] < by_candidate, weights)
    return counts


_BLOCK_CELLS = 1 << 15  # cells per block of columns: its temporaries stay in cache


def min_switch_counts(
    leads: np.ndarray, sizes: np.ndarray, order: np.ndarray, need: np.ndarray
) -> np.ndarray:
    """Per column c of the (l, m) ``leads``: the fewest voters whose moves
    into c's lowest-lead party close ``need[c]``, or -1 where none can.

    A voter of party q moved there gains ``leads[q, c] - min(leads[:, c])``.
    ``order`` is a stable ``np.argsort(-leads, axis=0)``, so down each sorted
    column the gains fall and the greedy takes the largest first.  One
    cumulative sum of voters and of gain down every column, and the first
    row whose gain reaches ``need[c]`` fixes the count: the voters above that
    row plus the fewest of its own.  A count is never negative: where
    ``need[c] <= 0`` it is 0.  Columns are solved in blocks of about
    ``_BLOCK_CELLS`` cells; column-major ``leads`` are read without a copy.
    """
    l, m = leads.shape
    width = max(1, _BLOCK_CELLS // l)
    blocks = [slice(lo, lo + width) for lo in range(0, m, width)]
    return np.concatenate([_block_counts(leads[:, b], sizes, order[:, b], need[b]) for b in blocks])


def _block_counts(leads, sizes, order, need):
    l, m = leads.shape
    by_column = order.T  # row c: column c's parties by falling lead
    gain = leads.T.take(by_column + l * np.arange(m)[:, None])  # leads[order[:, c], c]
    gain -= gain[:, -1:]  # each sorted column ends at its minimum
    weight = sizes.take(by_column)
    cum_g = np.cumsum(weight * gain, axis=1)
    reached = cum_g >= need[:, None]
    at = np.arange(m), reached.argmax(axis=1)  # first row reaching need
    short = need - cum_g[at] + weight[at] * gain[at]  # gain still due on entering it
    step = np.maximum(gain[at], 1)  # already >= 1 where need > 0 and a row reaches it
    above = np.cumsum(weight, axis=1)[at] - weight[at]
    return np.where(reached.any(axis=1), above + np.maximum(short + step - 1, 0) // step, -1)
