"""Candidate orders, rank arrays and the pairwise-comparison tally.

Candidates are dense integer indices ``0..m-1``; human-readable names live
only in the IO layer.  The one election type is ``parties.PartyElection``:
two arrays, ``ranks`` (parties x m, ``ranks[q, c]`` the 0-based position of
candidate c in party q's order) and ``sizes`` (the parties' voter counts).
Winner determination and the pairwise tally read only these arrays.
"""

from __future__ import annotations

import numpy as np

from . import _kernels


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


def invalid_orders(orders: np.ndarray) -> np.ndarray:
    """(l,) mask of the rows of an (l, m) integer array that are not
    permutations of 0..m-1; one sort for all rows."""
    return (np.sort(orders, axis=1) != np.arange(orders.shape[1])).any(axis=1)


def ranks_from_orders(orders: np.ndarray) -> np.ndarray:
    """Read-only (l, m) ranks of an (l, m) int64 array of orders, each row a
    permutation of 0..m-1 listed most-preferred first:
    ranks[q, orders[q, i]] = i."""
    num_rows, m = orders.shape
    ranks = np.empty_like(orders)
    ranks[np.arange(num_rows)[:, None], orders] = np.arange(m)
    ranks.flags.writeable = False
    return ranks


def pairwise_matrix(e, rows=None) -> np.ndarray:
    """(m, m) int64 tally: entry [c, d] is the number of voters preferring c
    to d, over the ``ranks`` and ``sizes`` of a ``PartyElection``.  The
    diagonal is zero; parties of size 0 are left out of the tally.  Given a
    sequence of candidates ``rows``, only their rows: entry [i, d] is the
    number preferring ``rows[i]`` to d."""
    ranks, sizes = e.ranks, e.sizes
    voting = sizes > 0
    if not voting.all():
        ranks, sizes = ranks[voting], sizes[voting]
    return _kernels.pairwise_tally(ranks, sizes, rows)
