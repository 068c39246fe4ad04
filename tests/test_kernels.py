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
    # Per column, the kernel's count (into the column's lowest-lead party)
    # is the best count over every destination: the lemma in
    # poly._min_greedy.  Small lead ranges make many parties share a lead;
    # +-49 is Borda's range at m = 50.  Some columns are all zero, like p's.
    rng = np.random.default_rng(23)
    for span in (1, 2, 4, 49):
        for _ in range(40):
            l, m = int(rng.integers(1, 41)), int(rng.integers(1, 7))
            leads = rng.integers(-span, span + 1, size=(l, m)).astype(np.int64)
            leads[:, rng.random(m) < 0.2] = 0
            sizes = rng.integers(0, 5, size=l).astype(np.int64)
            need = rng.integers(-2, 4 * span + 10, size=m).astype(np.int64)
            order = np.argsort(-leads, axis=0, kind="stable")
            counts = _kernels.min_switch_counts(leads, sizes, order, need)
            for c in range(m):
                per_dest = _reference_min_switch(leads[:, c], sizes, leads[:, c], need[c])
                usable = per_dest[per_dest >= 0]
                assert counts[c] == (usable.min() if usable.size else -1), (leads, c)


def test_min_switch_counts_infeasible():
    leads = np.array([[1, 0], [0, 0]], dtype=np.int64)
    sizes = np.array([2, 2], dtype=np.int64)
    order = np.argsort(-leads, axis=0, kind="stable")
    need = np.array([100, 1], dtype=np.int64)
    counts = _kernels.min_switch_counts(leads, sizes, order, need)
    assert (counts == -1).all()


def test_min_switch_counts_same_in_any_column_blocks_and_layout(monkeypatch):
    # Blocks of one to a few columns, and column-major arrays (which the
    # kernel reads without a copy), give the counts of one whole block.
    rng = np.random.default_rng(5)
    for _ in range(30):
        l, m = int(rng.integers(1, 30)), int(rng.integers(1, 9))
        leads = rng.integers(-6, 7, size=(l, m)).astype(np.int64)
        sizes = rng.integers(0, 4, size=l).astype(np.int64)
        need = rng.integers(-1, 30, size=m).astype(np.int64)
        order = np.argsort(-leads, axis=0, kind="stable")
        whole = _kernels.min_switch_counts(leads, sizes, order, need)
        for cells in (1, 2 * l, 3 * l + 1):
            monkeypatch.setattr(_kernels, "_BLOCK_CELLS", cells)
            for a, o in ((leads, order), (np.asfortranarray(leads), np.asfortranarray(order))):
                assert np.array_equal(_kernels.min_switch_counts(a, sizes, o, need), whole)
        monkeypatch.undo()
