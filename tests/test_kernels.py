import numpy as np

from partycred import _kernels
from partycred.poly import _gain_segments


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


def test_min_switch_counts_matches_reference():
    # Small gain ranges make many destinations share a gain, which is what
    # the kernel deduplicates on; +-49 is Borda's range at m = 50.
    rng = np.random.default_rng(23)
    for span in (2, 4, 49):
        for _ in range(40):
            l = int(rng.integers(1, 41))
            gain = rng.integers(-span, span + 1, size=l).astype(np.int64)
            sizes = rng.integers(0, 5, size=l).astype(np.int64)
            need = int(rng.integers(1, 4 * span + 10))
            order = np.lexsort((np.arange(l), -gain))
            seg_gain, seg_cumw, seg_cumg = _gain_segments(gain[order], sizes[order])
            counts = _kernels.min_switch_counts(
                seg_gain, seg_cumw, seg_cumg, gain, need
            )
            reference = _reference_min_switch(gain[order], sizes[order], gain, need)
            assert np.array_equal(counts, reference)


def test_min_switch_counts_infeasible():
    gain = np.array([1, 0], dtype=np.int64)
    sizes = np.array([2, 2], dtype=np.int64)
    order = np.lexsort((np.arange(2), -gain))
    seg = _gain_segments(gain[order], sizes[order])
    counts = _kernels.min_switch_counts(*seg, gain, 100)
    assert (counts == -1).all()
