import numpy as np
import pytest

from partycred import _kernels, rules
from partycred.parties import PartyElection


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


def random_table(rng, m, span):
    """A random (m, m) lead table; on some draws its diagonal is 0, as every
    rule's is, and on some a row is 0."""
    table = rng.integers(-span, span + 1, size=(m, m)).astype(np.int64)
    if rng.random() < 0.5:
        np.fill_diagonal(table, 0)
    table[rng.random(m) < 0.1] = 0
    return table


def _kernel_counts(table, ranks, sizes, p, need, extra=()):
    """The kernel's counts for party q's voters adding
    ``table[ranks[q, p], ranks[q, c]]`` to p's lead over c, with win
    thresholds that make each rival's need ``need[c]``; the bins are indexed
    among the rising distinct entries of ``table``, here with any ``extra``
    values that no lead takes.  Also returns the (l, m) leads."""
    m = ranks.shape[1]
    leads = table.take(ranks[:, [p]] * m + ranks)
    levels = np.unique(np.concatenate([table.ravel(), np.asarray(extra, dtype=np.int64)]))
    bins = np.searchsorted(levels, table)
    win = sizes @ leads - need + 1  # need = lead - win + 1
    return _kernels.min_switch_counts(ranks, sizes, p, win, bins, levels), leads


def _assert_matches_reference(table, ranks, sizes, p, need, extra=()):
    # Per rival, the kernel's count (into its lowest-lead party) is the best
    # count over every destination: the lemma in poly._min_greedy.
    counts, leads = _kernel_counts(table, ranks, sizes, p, need, extra)
    for c in range(leads.shape[1]):
        per_dest = _reference_min_switch(leads[:, c], sizes, leads[:, c], need[c])
        usable = per_dest[per_dest >= 0]
        assert counts[c] == (usable.min() if usable.size else -1), (table, ranks, c)


def _assert_random_draws_match_reference(seed):
    # Small lead ranges make many parties share a lead; +-49 is Borda's
    # range at m = 50.  Some tables hold levels that no lead takes, as the
    # rule's lead table may have more entries than the leads.
    rng = np.random.default_rng(seed)
    for span in (1, 2, 4, 49):
        for _ in range(40):
            l, m = int(rng.integers(1, 41)), int(rng.integers(1, 7))
            table = random_table(rng, m, span)
            ranks = random_ranks(rng, l, m)
            sizes = rng.integers(0, 5, size=l).astype(np.int64)
            need = rng.integers(-2, 4 * span + 10, size=m).astype(np.int64)
            extra = rng.integers(-span - 2, span + 3, size=int(rng.integers(0, 4)))
            _assert_matches_reference(table, ranks, sizes, int(rng.integers(0, m)), need, extra)


def test_min_switch_counts_matches_reference():
    _assert_random_draws_match_reference(23)


@pytest.mark.parametrize("block_cells", [1, 9])
def test_min_switch_counts_in_small_blocks(monkeypatch, block_cells):
    # Blocks of one party, or of a few, spread the histogram and each
    # rival's lowest level over many blocks.  ``rules._scores`` reads the
    # same block size, and its blocked sums must equal one product.
    monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
    _assert_random_draws_match_reference(24)
    rng = np.random.default_rng(25)
    for l, m in [(1, 2), (7, 3), (40, 5), (300, 9)]:
        election = PartyElection([rng.permutation(m) for _ in range(l)], rng.integers(0, 9, l))
        vector = tuple(sorted(rng.integers(0, 20, m).tolist(), reverse=True))
        expected = election.sizes @ np.asarray(vector)[election.ranks]
        assert np.array_equal(rules._scores(election, vector), expected)


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
        table = random_table(rng, m, m - 1)
        ranks = random_ranks(rng, l, m)
        need = rng.integers(-1, int(sizes.sum()) * (m - 1), size=m).astype(np.int64)
        need[0] = 1 + int(sizes[0])  # within one voter of a party's edge
        _assert_matches_reference(table, ranks, sizes.astype(np.int64), int(rng.integers(0, m)), need)


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
        sizes = rng.integers(0, 6, size=l).astype(np.int64)
        totals = sizes @ table.take(ranks[:, [p]] * m + ranks)
        need = np.where(rng.random(m) < 0.5, totals, rng.integers(-1, 10**15, size=m)) + 1
        _assert_matches_reference(table, ranks, sizes, p, need)


def test_min_switch_counts_infeasible():
    # Party 0 ranks p first, party 1 ranks the rival first: under Borda at
    # m = 2 the rival's leads are 1 and -1, so two voters close at most 4,
    # and p's own column of zeros closes nothing.
    table = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    ranks = np.array([[0, 1], [1, 0]], dtype=np.int64)
    sizes = np.array([2, 2], dtype=np.int64)
    counts, _ = _kernel_counts(table, ranks, sizes, 0, np.array([1, 5], dtype=np.int64))
    assert (counts == -1).all()
    counts, _ = _kernel_counts(table, ranks, sizes, 0, np.array([1, 4], dtype=np.int64))
    assert counts.tolist() == [-1, 2]


def test_min_switch_counts_same_in_either_layout():
    # Column-major ranks and bins give the counts of row-major ones.
    rng = np.random.default_rng(5)
    for _ in range(30):
        l, m = int(rng.integers(1, 30)), int(rng.integers(1, 9))
        table = random_table(rng, m, 6)
        ranks = random_ranks(rng, l, m)
        sizes = rng.integers(0, 4, size=l).astype(np.int64)
        p = int(rng.integers(0, m))
        win = rng.integers(-20, 20, size=m).astype(np.int64)
        levels = np.unique(table)
        bins = np.searchsorted(levels, table)
        counts = _kernels.min_switch_counts(ranks, sizes, p, win, bins, levels)
        fortran = np.asfortranarray(ranks), np.asfortranarray(bins)
        assert np.array_equal(
            _kernels.min_switch_counts(fortran[0], sizes, p, win, fortran[1], levels), counts
        )
