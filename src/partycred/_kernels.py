"""Hot numeric kernels in plain numpy.

Everything here is exact integer arithmetic.  Callers look these names up on
the module at call time (``_kernels.pairwise_tally(...)``), so the names are
the boundary to keep when changing an implementation.
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


def min_switch_counts(
    seg_gain: np.ndarray,
    seg_cumw: np.ndarray,
    seg_cumg: np.ndarray,
    party_gain: np.ndarray,
    need: int,
) -> np.ndarray:
    """Minimal switch counts per destination for the greedy scoring solver.

    Sources are pre-sorted by per-voter gain (descending) and compressed into
    segments of equal gain: ``seg_gain`` (distinct values, strictly
    decreasing), ``seg_cumw`` / ``seg_cumg`` (inclusive cumulative weight /
    total gain).  For destination D the per-voter bonus is ``-party_gain[D]``
    and only sources with strictly larger gain than D's own are useful: the
    greedy takes whole segments while their slope ``seg_gain + bonus`` is
    positive, and stops in the first segment whose cumulative reach
    ``seg_cumg + seg_cumw * bonus`` meets ``need``.  Returns -1 where no
    count reaches ``need``.

    The segments and ``need`` are shared by all destinations, and D enters
    only through its bonus ``-party_gain[D]``.  Destinations with equal gain
    therefore get equal counts, so the greedy is solved once per distinct
    gain (a small gains x segments table) and mapped back through
    ``np.unique``'s inverse index.
    """
    if seg_gain.size == 0:
        return np.full(party_gain.shape[0], -1, dtype=np.int64)
    gains, inverse = np.unique(party_gain, return_inverse=True)
    bonus = -gains[:, None]
    slope = seg_gain + bonus
    reach = seg_cumg + seg_cumw * bonus
    # seg_gain is strictly decreasing, so slope > 0 holds on a prefix of each
    # row and the first hit is where the sequential greedy would stop.
    hit = (slope > 0) & (reach >= need)
    found = hit.any(axis=1)
    first = hit.argmax(axis=1)
    zero = np.zeros(1, dtype=np.int64)
    prev_w = np.concatenate((zero, seg_cumw))[first]
    prev_g = np.concatenate((zero, seg_cumg))[first]
    step = np.where(found, slope[np.arange(gains.size), first], 1)
    numer = need - prev_g + prev_w * seg_gain[first]
    per_gain = np.where(found, (numer + step - 1) // step, -1)
    return per_gain[inverse]
