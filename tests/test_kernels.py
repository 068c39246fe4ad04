import numpy as np

from partycred import _kernels


def random_ranks(rng, n_ballots, m):
    ranks = np.empty((n_ballots, m), dtype=np.int64)
    for i in range(n_ballots):
        order = rng.permutation(m)
        ranks[i, order] = np.arange(m)
    return ranks


def _reference_pairwise_tally(ranks, weights):
    """One ballot at a time: add its weight to every pair it orders."""
    m = ranks.shape[1]
    counts = np.zeros((m, m), dtype=np.int64)
    for r, w in zip(ranks, weights):
        counts += int(w) * np.less.outer(r, r)
    return counts


def test_pairwise_tally_matches_reference():
    rng = np.random.default_rng(11)
    shapes = [(int(rng.integers(1, 8)), int(rng.integers(2, 7))) for _ in range(25)]
    shapes += [(2_000, 50), (1_500, 50), (700, 13), (300, 2), (1, 50)]
    for n_ballots, m in shapes:
        ranks = random_ranks(rng, n_ballots, m)
        weights = rng.integers(0, 6, size=n_ballots).astype(np.int64)
        counts = _kernels.pairwise_tally(ranks, weights)
        assert np.array_equal(counts, _reference_pairwise_tally(ranks, weights))
        total = int(weights.sum())
        off = ~np.eye(m, dtype=bool)
        assert np.array_equal((counts + counts.T)[off], np.full((m * m - m,), total))
        assert not counts.diagonal().any()


def test_pairwise_tally_rows_are_rows_of_the_whole_tally():
    rng = np.random.default_rng(12)
    for n_ballots, m in [(1, 1), (3, 2), (5, 4), (40, 7), (1_300, 50)]:
        ranks = random_ranks(rng, n_ballots, m)
        weights = rng.integers(0, 6, size=n_ballots).astype(np.int64)
        whole = _reference_pairwise_tally(ranks, weights)
        for rows in ([0], [m - 1], list(rng.permutation(m)[: (m + 1) // 2]), [], range(m)):
            counts = _kernels.pairwise_tally(ranks, weights, rows)
            assert counts.shape == (len(rows), m)
            assert np.array_equal(counts, whole[list(rows)])


def _reference_min_switch(gain, sizes, party_gain, need):
    """Per-destination greedy recomputed the slow way."""
    out = np.empty(len(party_gain), dtype=np.int64)
    for dest in range(len(party_gain)):
        bonus = -int(party_gain[dest])
        pool = sorted(
            ((int(g), int(s)) for g, s in zip(gain, sizes)),
            key=lambda t: -t[0],
        )
        remaining = int(need)
        moved = 0
        feasible = remaining <= 0
        for g, s in pool:
            step = g + bonus
            if remaining <= 0:
                feasible = True
                break
            if step <= 0:
                break
            take = min(s, -(-remaining // step))
            moved += take
            remaining -= take * step
        if remaining <= 0:
            feasible = True
        out[dest] = moved if feasible else -1
    return out


def _binned(leads, extra=()):
    """(bins, levels) of ``leads``: the rising distinct values, here with
    any ``extra`` values that no lead takes, and each lead's index in them."""
    levels = np.unique(np.concatenate([leads.ravel(), np.asarray(extra, dtype=np.int64)]))
    return np.searchsorted(levels, leads), levels


def _assert_matches_reference(leads, sizes, need, extra=()):
    # Per column, the kernel's count (into the column's lowest-lead party)
    # is the best count over every destination: the lemma in
    # poly._min_greedy.
    bins, levels = _binned(leads, extra)
    counts = _kernels.min_switch_counts(leads, sizes, bins, need, levels)
    for c in range(leads.shape[1]):
        per_dest = _reference_min_switch(leads[:, c], sizes, leads[:, c], need[c])
        usable = per_dest[per_dest >= 0]
        assert counts[c] == (usable.min() if usable.size else -1), (leads, c)


def test_min_switch_counts_matches_reference():
    # Small lead ranges make many parties share a lead; +-49 is Borda's
    # range at m = 50.  Some columns are all zero, like p's, and some levels
    # hold no lead, as the rule's lead table may have more than the leads.
    rng = np.random.default_rng(23)
    for span in (1, 2, 4, 49):
        for _ in range(40):
            l, m = int(rng.integers(1, 41)), int(rng.integers(1, 7))
            leads = rng.integers(-span, span + 1, size=(l, m)).astype(np.int64)
            leads[:, rng.random(m) < 0.2] = 0
            sizes = rng.integers(0, 5, size=l).astype(np.int64)
            need = rng.integers(-2, 4 * span + 10, size=m).astype(np.int64)
            extra = rng.integers(-span - 2, span + 3, size=int(rng.integers(0, 4)))
            _assert_matches_reference(leads, sizes, need, extra)


def test_min_switch_counts_exact_near_the_voter_bound():
    # Sizes near 2**55 with n * m < 2**62: every sum the greedy forms is
    # exact in int64 (a float64 histogram would drop their low bits), and
    # the reference computes in Python ints.
    rng = np.random.default_rng(31)
    for _ in range(30):
        l, m = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        sizes = (1 << 55) + rng.integers(0, 1 << 40, size=l)
        sizes[rng.random(l) < 0.2] = rng.integers(0, 3)
        assert int(sizes.sum()) * m < 2**62
        leads = rng.integers(-(m - 1), m, size=(l, m)).astype(np.int64)
        need = rng.integers(-1, int(sizes.sum()) * (m - 1), size=m).astype(np.int64)
        need[0] = 1 + int(sizes[0])  # within one voter of a party's edge
        _assert_matches_reference(leads, sizes.astype(np.int64), need)


def test_min_switch_counts_bins_leads_by_rank_not_magnitude():
    # A library scoring vector with entries up to 10**15 at m = 50: the
    # histogram has one bin per distinct entry of its (m, m) lead table, as
    # poly._min_greedy builds it, not one per value of the leads.
    rng = np.random.default_rng(37)
    m = 50
    for _ in range(4):
        entries = [rng.choice([0, 1, 10**9, 10**15], size=m - 4), rng.integers(0, 10**15, size=4)]
        vector = np.sort(np.concatenate(entries))[::-1].astype(np.int64)
        table = vector[:, None] - vector
        l = int(rng.integers(1, 25))
        ranks = np.argsort(rng.random((l, m)), axis=1)
        p = int(rng.integers(0, m))
        leads = table.take(ranks[:, [p]] * m + ranks)
        sizes = rng.integers(0, 6, size=l).astype(np.int64)
        totals = sizes @ leads
        need = np.where(rng.random(m) < 0.5, totals, rng.integers(-1, 10**15, size=m)) + 1
        _assert_matches_reference(leads, sizes, need, extra=np.unique(table))


def test_min_switch_counts_infeasible():
    leads = np.array([[1, 0], [0, 0]], dtype=np.int64)
    sizes = np.array([2, 2], dtype=np.int64)
    need = np.array([100, 1], dtype=np.int64)
    bins, levels = _binned(leads)
    counts = _kernels.min_switch_counts(leads, sizes, bins, need, levels)
    assert (counts == -1).all()


def test_min_switch_counts_same_in_either_layout():
    # Column-major leads and bins give the counts of row-major ones.
    rng = np.random.default_rng(5)
    for _ in range(30):
        l, m = int(rng.integers(1, 30)), int(rng.integers(1, 9))
        leads = rng.integers(-6, 7, size=(l, m)).astype(np.int64)
        sizes = rng.integers(0, 4, size=l).astype(np.int64)
        need = rng.integers(-1, 30, size=m).astype(np.int64)
        bins, levels = _binned(leads)
        counts = _kernels.min_switch_counts(leads, sizes, bins, need, levels)
        fortran = np.asfortranarray(leads), np.asfortranarray(bins)
        assert np.array_equal(
            _kernels.min_switch_counts(fortran[0], sizes, fortran[1], need, levels), counts
        )
