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


def validated_ranks(orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, bad) of an (l, m) integer array of orders, each row listed
    most-preferred first: ranks[q, orders[q, i]] = i for every row q that
    is a permutation of 0..m-1, and ``bad``, the indices of the other rows
    in increasing order, whose ranks rows are undefined.

    Each row's known codes (0 <= code < m) are scattered into a -1-filled
    block at the flat indices row·m + code.  A row is a permutation exactly
    when all its m codes are known and no slot stays -1: m known codes
    that fill all m slots are distinct, and an unknown one leaves a slot
    unwritten.  So one test, a -1 left in the row, finds every bad row."""
    num_rows, m = orders.shape
    flat = orders + np.arange(0, num_rows * m, m)[:, None]
    ranks = np.full(num_rows * m, -1, dtype=np.int64)
    if num_rows and 0 <= orders.min() and orders.max() < m:  # every code known
        ranks[flat.ravel()] = np.tile(np.arange(m), num_rows)
    else:
        known = (orders >= 0) & (orders < m)
        ranks[flat[known]] = np.nonzero(known)[1]
    ranks = ranks.reshape(num_rows, m)
    return ranks, np.flatnonzero(ranks.min(axis=1) < 0)


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
