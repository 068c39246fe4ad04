"""Exact solvers valid for every rule, direction, and destination mode.

Two independent routes:

* ``oracle_min`` / ``oracle_max`` enumerate every plan outright (bulk numpy
  evaluation, no pruning) and are the ground truth for everything else.
* ``exact_search_min`` / ``exact_search_max`` run a branch-and-bound over
  per-(source, destination) move counts with admissible pruning, suitable for
  the NP-hard rule/direction combinations at desk scale.

Plans are canonicalized as counts per (source, destination) pair; voters of
one party are interchangeable so this loses nothing.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .parties import (
    Direction,
    DestinationMode,
    ProblemInstance,
    SolveResult,
    SwitchPlan,
    budget_exhausted,
    feasible,
    infeasible,
)
from .rules import Condorcet, Copeland, Maximin, Scoring, WinnerModel

DEFAULT_VOTER_CAP = 16
DEFAULT_NODE_BUDGET = 20_000_000


class _BudgetExceeded(Exception):
    pass


def _party_rows(instance: ProblemInstance) -> np.ndarray:
    """(l, m) per-voter positional scores for each party (scoring rules)."""
    vector = np.asarray(instance.rule.vector, dtype=np.int64)
    return vector[instance.election.ranks]


def _party_margin_deltas(instance: ProblemInstance) -> np.ndarray:
    """(l, m, m) per-voter margin contribution B_q - B_q^T for each party."""
    r = instance.election.ranks
    return np.sign(r[:, None, :] - r[:, :, None])


def _copeland_scaled(margins: np.ndarray, alpha: Fraction) -> np.ndarray:
    """Copeland scores scaled by alpha's denominator (exact integers).

    ``margins`` has shape (..., m, m); the diagonal must be zero and is
    excluded from the tie count.
    """
    m = margins.shape[-1]
    wins = (margins > 0).sum(axis=-1)
    ties = (margins == 0).sum(axis=-1) - 1  # diagonal
    return alpha.denominator * wins + alpha.numerator * ties


def _maximin_from_margins(margins: np.ndarray, n_voters: int) -> np.ndarray:
    """Maximin scores from a margin tensor; N(c,d) = (margin + n) / 2."""
    m = margins.shape[-1]
    support = (margins + n_voters) // 2
    eye = np.eye(m, dtype=bool)
    support = np.where(eye, np.iinfo(np.int64).max, support)
    return support.min(axis=-1)


class _BulkEvaluator:
    """Vectorized success evaluation over a (K, l) block of weight vectors."""

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.p = instance.p
        self.n_voters = instance.election.num_voters
        self.unique = instance.model is WinnerModel.UNIQUE
        rule = instance.rule
        if isinstance(rule, Scoring):
            self.rows = _party_rows(instance)
        else:
            self.deltas = _party_margin_deltas(instance)

    def _score_blocks(self, weights: np.ndarray) -> np.ndarray:
        rule = self.instance.rule
        if isinstance(rule, Scoring):
            return weights @ self.rows
        margins = np.tensordot(weights, self.deltas, axes=1)
        if isinstance(rule, Copeland):
            return _copeland_scaled(margins, rule.alpha)
        if isinstance(rule, Maximin):
            return _maximin_from_margins(margins, self.n_voters)
        raise TypeError(f"no scores for {rule!r}")

    def success(self, weights: np.ndarray, direction: Direction) -> np.ndarray:
        """Boolean mask over the block's rows."""
        if isinstance(self.instance.rule, Condorcet):
            p_margins = np.tensordot(weights, self.deltas[:, self.p, :], axes=1)
            p_margins[:, self.p] = 1
            p_wins = (p_margins > 0).all(axis=1)
            # Unique-winner and co-winner coincide for Condorcet.
            return ~p_wins if direction is Direction.MIN else p_wins
        scores = self._score_blocks(weights)
        p_score = scores[:, self.p].copy()
        scores[:, self.p] = np.iinfo(np.int64).min
        best_other = scores.max(axis=1)
        if direction is Direction.MIN:
            # p loses sole winnership (UNIQUE) / leaves the winner set (COWINNER).
            return best_other >= p_score if self.unique else best_other > p_score
        return p_score > best_other if self.unique else p_score >= best_other


def _move_options(
    instance: ProblemInstance, destination: int | None
) -> tuple[list[list[tuple[tuple[int, int, int], ...]]], list[np.ndarray], list[np.ndarray]]:
    """Per-source enumeration of move combinations.

    Returns, per source party: the list of move tuples, the (n_options, l)
    weight-delta array, and the (n_options,) total-moved array.  Options are
    in deterministic lexicographic order.  ``destination=None`` means the
    multiple-destination mode.
    """
    sizes = instance.election.sizes.tolist()
    l = len(sizes)
    all_moves: list[list[tuple[tuple[int, int, int], ...]]] = []
    all_deltas: list[np.ndarray] = []
    all_totals: list[np.ndarray] = []
    for q in range(l):
        size = sizes[q]
        if destination is not None:
            if q == destination:
                options = [()]
            else:
                options = [((q, destination, c),) if c else () for c in range(size + 1)]
        else:
            dests = [d for d in range(l) if d != q]
            options = []
            for counts in _compositions_upto(size, len(dests)):
                options.append(
                    tuple((q, d, c) for d, c in zip(dests, counts) if c)
                )
        deltas = np.zeros((len(options), l), dtype=np.int64)
        totals = np.zeros(len(options), dtype=np.int64)
        for i, moves in enumerate(options):
            for src, dest, count in moves:
                deltas[i, src] -= count
                deltas[i, dest] += count
                totals[i] += count
        all_moves.append(options)
        all_deltas.append(deltas)
        all_totals.append(totals)
    return all_moves, all_deltas, all_totals


def _compositions_upto(total: int, slots: int):
    """All vectors of ``slots`` non-negative ints summing to at most ``total``."""
    if slots == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _compositions_upto(total - first, slots - 1):
            yield (first,) + rest


def _enumerate_blocks(option_counts: list[int], block_rows: int):
    """Yield (start, digit_matrix) blocks covering the mixed-radix product."""
    radices = np.asarray(option_counts, dtype=np.int64)
    total = int(np.prod(radices))
    place = np.ones(len(radices), dtype=np.int64)
    for i in range(len(radices) - 2, -1, -1):
        place[i] = place[i + 1] * radices[i + 1]
    for start in range(0, total, block_rows):
        idx = np.arange(start, min(start + block_rows, total), dtype=np.int64)
        digits = (idx[:, None] // place[None, :]) % radices[None, :]
        yield start, digits


def _oracle(
    instance: ProblemInstance,
    direction: Direction,
    voter_cap: int,
    plan_cap: int = 5_000_000,
) -> SolveResult:
    pe = instance.election
    if pe.num_voters > voter_cap:
        raise ValueError(
            f"size cap exceeded: {pe.num_voters} voters > cap {voter_cap}"
        )
    evaluator = _BulkEvaluator(instance)
    base = pe.sizes
    if instance.destination_mode is DestinationMode.ONE:
        destinations = list(range(len(base)))
    else:
        destinations = [None]

    best_value: int | None = None
    best_key = None
    best_moves = None
    solver = "oracle_min" if direction is Direction.MIN else "oracle_max"
    for dest_rank, destination in enumerate(destinations):
        moves, deltas, totals = _move_options(instance, destination)
        counts = [len(options) for options in moves]
        n_plans = 1
        for c in counts:
            n_plans *= c
        if n_plans > plan_cap:
            raise ValueError(f"size cap exceeded: {n_plans} plans > cap {plan_cap}")
        for start, digits in _enumerate_blocks(counts, 65536):
            weights = np.broadcast_to(base, digits.shape[:1] + base.shape).copy()
            moved = np.zeros(digits.shape[0], dtype=np.int64)
            for s in range(len(counts)):
                weights += deltas[s][digits[:, s]]
                moved += totals[s][digits[:, s]]
            ok = evaluator.success(weights, direction)
            if not ok.any():
                continue
            cand_totals = np.where(ok, moved, -1 if direction is Direction.MAX else np.iinfo(np.int64).max)
            if direction is Direction.MIN:
                row = int(cand_totals.argmin())
                value = int(cand_totals[row])
            else:
                row = int(cand_totals.argmax())
                value = int(cand_totals[row])
            key = (dest_rank, start + row)
            better = (
                best_value is None
                or (direction is Direction.MIN and value < best_value)
                or (direction is Direction.MAX and value > best_value)
            )
            if better:
                best_value = value
                best_key = key
                best_moves = tuple(
                    itertools.chain.from_iterable(
                        moves[s][int(digits[row, s])] for s in range(len(counts))
                    )
                )
    if best_value is None:
        return infeasible(solver)
    return feasible(best_value, SwitchPlan(moves=best_moves), solver)


def oracle_min(instance: ProblemInstance, voter_cap: int = DEFAULT_VOTER_CAP) -> SolveResult:
    """Exact MIN by full plan enumeration (desk-scale ground truth)."""
    return _oracle(instance, Direction.MIN, voter_cap)


def oracle_max(instance: ProblemInstance, voter_cap: int = DEFAULT_VOTER_CAP) -> SolveResult:
    """Exact MAX by full plan enumeration (desk-scale ground truth)."""
    return _oracle(instance, Direction.MAX, voter_cap)


class _BranchAndBound:
    """Exact DFS over per-(source, destination) counts with admissible pruning.

    Pruning is interval based: per candidate score intervals for scoring
    rules, per-pair margin intervals for Condorcet-consistent rules (each
    moved voter shifts any single margin by at most 2).  For MIN the future
    move budget additionally caps the intervals.
    """

    def __init__(self, instance: ProblemInstance, direction: Direction, node_budget: int):
        self.instance = instance
        self.direction = direction
        self.node_budget = node_budget
        self.nodes = 0
        self.p = instance.p
        self.m = instance.election.num_candidates
        self.n_voters = instance.election.num_voters
        self.unique = instance.model is WinnerModel.UNIQUE
        self.rule = instance.rule
        self.scoring = isinstance(self.rule, Scoring)
        if self.scoring:
            self.rows = _party_rows(instance)
            self.base_scores = instance.election.sizes @ self.rows
        else:
            self.deltas = _party_margin_deltas(instance)
            self.base_margins = np.tensordot(instance.election.sizes, self.deltas, axes=1)
        self.best_value: int | None = None
        self.best_key = None
        self.best_moves = None

    # -- state-space setup ------------------------------------------------

    def _variables(self, destination: int | None):
        sizes = self.instance.election.sizes.tolist()
        l = len(sizes)
        if destination is not None:
            pairs = [(q, destination) for q in range(l) if q != destination]
        else:
            pairs = [(q, d) for q in range(l) for d in range(l) if d != q]
        if self.scoring:
            unit = [self.rows[d] - self.rows[q] for q, d in pairs]
        else:
            unit = [self.deltas[d] - self.deltas[q] for q, d in pairs]
        caps = [sizes[q] for q, _ in pairs]
        # Suffix bounds: most positive / most negative reachable change from
        # variables i.. onward, per score entry or margin pair.  Shared source
        # capacity in multi-destination mode is counted once per variable,
        # which only widens the interval (still admissible).
        shape = unit[0].shape if unit else ((self.m,) if self.scoring else (self.m, self.m))
        pos = [np.zeros(shape, dtype=np.int64) for _ in range(len(pairs) + 1)]
        neg = [np.zeros(shape, dtype=np.int64) for _ in range(len(pairs) + 1)]
        remcap = [0] * (len(pairs) + 1)
        maxstep = [np.zeros(shape, dtype=np.int64) for _ in range(len(pairs) + 1)]
        minstep = [np.zeros(shape, dtype=np.int64) for _ in range(len(pairs) + 1)]
        for i in range(len(pairs) - 1, -1, -1):
            pos[i] = pos[i + 1] + caps[i] * np.maximum(unit[i], 0)
            neg[i] = neg[i + 1] + caps[i] * np.minimum(unit[i], 0)
            maxstep[i] = np.maximum(maxstep[i + 1], unit[i])
            minstep[i] = np.minimum(minstep[i + 1], unit[i])
            remcap[i] = remcap[i + 1] + caps[i]
        return pairs, unit, caps, pos, neg, maxstep, minstep, remcap

    # -- success tests ----------------------------------------------------

    def _scores_from_margins(self, margins: np.ndarray) -> np.ndarray:
        if isinstance(self.rule, Copeland):
            return _copeland_scaled(margins, self.rule.alpha)
        return _maximin_from_margins(margins, self.n_voters)

    def _leaf_success(self, state: np.ndarray) -> bool:
        p = self.p
        if isinstance(self.rule, Condorcet):
            row = state[p]
            p_wins = all(row[c] > 0 for c in range(self.m) if c != p)
            return (not p_wins) if self.direction is Direction.MIN else p_wins
        scores = state if self.scoring else self._scores_from_margins(state)
        p_score = scores[p]
        best_other = max(scores[c] for c in range(self.m) if c != p)
        if self.direction is Direction.MIN:
            return best_other >= p_score if self.unique else best_other > p_score
        return p_score > best_other if self.unique else p_score >= best_other

    def _success_possible(self, state, up, down) -> bool:
        """Optimistic per-entry relaxation: can any completion still succeed?

        ``up``/``down`` are elementwise non-negative bounds on how much each
        score entry (scoring) or margin pair (pairwise) can still rise/fall.
        """
        p = self.p
        if isinstance(self.rule, Condorcet):
            row, rdown, rup = state[p], down[p], up[p]
            others = [c for c in range(self.m) if c != p]
            if self.direction is Direction.MIN:
                return any(row[c] - rdown[c] <= 0 for c in others)
            return all(row[c] + rup[c] > 0 for c in others)
        if self.scoring:
            lo = state - down
            hi = state + up
        else:
            lo = self._pessimistic_pairwise(state, down)
            hi = self._optimistic_pairwise(state, up)
        others = [c for c in range(self.m) if c != p]
        if self.direction is Direction.MIN:
            if self.unique:
                return any(hi[c] >= lo[p] for c in others)
            return any(hi[c] > lo[p] for c in others)
        if self.unique:
            return all(hi[p] > lo[c] for c in others)
        return all(hi[p] >= lo[c] for c in others)

    def _optimistic_pairwise(self, margins, up):
        """Per-candidate score upper bounds from per-pair margin headroom."""
        return self._pairwise_bound(margins, up, optimistic=True)

    def _pessimistic_pairwise(self, margins, down):
        return self._pairwise_bound(margins, down, optimistic=False)

    def _pairwise_bound(self, margins, slack, optimistic: bool):
        m = self.m
        if isinstance(self.rule, Maximin):
            support = (margins + self.n_voters) // 2
            shift = slack // 2
            adj = support + shift if optimistic else support - shift
            adj = np.where(np.eye(m, dtype=bool), np.iinfo(np.int64).max, adj)
            return adj.min(axis=-1)
        # Copeland: margins move in even steps and the slack bounds are even,
        # so the reachable extreme is exactly margin +/- slack.
        alpha = self.rule.alpha
        if optimistic:
            reach = margins + slack
        else:
            reach = margins - slack
        win = reach > 0
        tie = reach == 0
        eye = np.eye(m, dtype=bool)
        win &= ~eye
        tie &= ~eye
        return alpha.denominator * win.sum(axis=-1) + alpha.numerator * tie.sum(axis=-1)

    # -- search -----------------------------------------------------------

    def run(self) -> SolveResult:
        if self.instance.destination_mode is DestinationMode.ONE:
            destinations: list[int | None] = list(range(len(self.instance.election.sizes)))
        else:
            destinations = [None]
        solver = (
            "exact_search_min" if self.direction is Direction.MIN else "exact_search_max"
        )
        try:
            for dest_rank, destination in enumerate(destinations):
                self._search_destination(dest_rank, destination)
        except _BudgetExceeded:
            return budget_exhausted(solver, self.nodes)
        if self.best_value is None:
            return infeasible(solver, self.nodes)
        moves = tuple(
            (q, d, c) for (q, d), c in self.best_moves if c > 0
        )
        return feasible(self.best_value, SwitchPlan(moves=moves), solver, self.nodes)

    def _search_destination(self, dest_rank: int, destination: int | None):
        pairs, unit, caps, pos, neg, maxstep, minstep, remcap = self._variables(destination)
        state = (self.base_scores if self.scoring else self.base_margins).copy()
        assigned: list[int] = []
        source_left = self.instance.election.sizes.tolist()

        def bounds(i: int, total: int):
            up = pos[i].copy()
            down = -neg[i]
            if self.direction is Direction.MIN:
                # Plans costlier than the incumbent can be discarded; equal
                # cost stays admissible for the deterministic witness choice.
                if self.best_value is not None:
                    budget = min(self.best_value - total, remcap[i])
                else:
                    budget = remcap[i]
                if budget < 0:
                    return None
                np.minimum(up, budget * np.maximum(maxstep[i], 0), out=up)
                np.minimum(down, budget * np.maximum(-minstep[i], 0), out=down)
            return up, down

        def dfs(i: int, total: int):
            nonlocal state
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise _BudgetExceeded
            if i == len(pairs):
                if self._leaf_success(state):
                    self._offer(total, dest_rank, pairs, assigned)
                return
            if self.direction is Direction.MAX and self.best_value is not None:
                if total + remcap[i] < self.best_value:
                    return
            b = bounds(i, total)
            if b is None or not self._success_possible(state, b[0], b[1]):
                return
            q, _ = pairs[i]
            cap = source_left[q]
            if self.direction is Direction.MIN and self.best_value is not None:
                cap = min(cap, self.best_value - total)
            order = range(cap + 1) if self.direction is Direction.MIN else range(cap, -1, -1)
            for count in order:
                assigned.append(count)
                source_left[q] -= count
                if count:
                    state += count * unit[i]
                dfs(i + 1, total + count)
                if count:
                    state -= count * unit[i]
                source_left[q] += count
                assigned.pop()

        dfs(0, 0)

    def _offer(self, total: int, dest_rank: int, pairs, assigned):
        key = (dest_rank, tuple(assigned))
        better = (
            self.best_value is None
            or (self.direction is Direction.MIN and total < self.best_value)
            or (self.direction is Direction.MAX and total > self.best_value)
            or (total == self.best_value and key < self.best_key)
        )
        if better:
            self.best_value = total
            self.best_key = key
            self.best_moves = tuple(zip(pairs, assigned))


def exact_search_min(
    instance: ProblemInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Exact MIN via branch-and-bound; BUDGET_EXHAUSTED when the node budget runs out."""
    return _BranchAndBound(instance, Direction.MIN, node_budget).run()


def exact_search_max(
    instance: ProblemInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Exact MAX via branch-and-bound; BUDGET_EXHAUSTED when the node budget runs out."""
    return _BranchAndBound(instance, Direction.MAX, node_budget).run()
