"""Exact solvers valid for every rule, direction, and destination mode.

Two independent routes:

* ``oracle_min`` / ``oracle_max`` enumerate every plan outright (bulk numpy
  evaluation, no pruning) and are the ground truth for everything else.
* ``exact_search_min`` / ``exact_search_max`` run a branch-and-bound over
  per-(source, destination) move counts with admissible pruning, suitable for
  the NP-hard rule/direction combinations at desk scale.

Plans are canonicalized as counts per (source, destination) pair; voters of
one party are interchangeable so this loses nothing.  A plan's key is its
destination's rank in party order (0 in the multi-destination mode)
followed by its counts over the pairs in source-then-destination order.
Both routes return the optimal plan with the lexicographically smallest
key, so they agree on the witness as well as the value.  The branch and
bound meets keys in a fixed order, so it prunes subtrees that can at best
tie the incumbent: always for MIN, and for MAX once the incumbent lies in
an earlier destination.  ``_BranchAndBound``'s docstring has the proof,
the one stacked bound per node, and why Maximin's bound is exact.
"""

from __future__ import annotations

import functools
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

ORACLE_VOTER_CAP = 16  # the oracle refuses larger elections
ORACLE_PLAN_CAP = 5_000_000  # and destinations with more plans
DEFAULT_NODE_BUDGET = 20_000_000


class _BudgetExceeded(Exception):
    pass


def _party_rows(instance: ProblemInstance) -> np.ndarray:
    """(l, m) per-voter positional scores for each party (scoring rules)."""
    vector = np.asarray(instance.rule.vector, dtype=np.int64)
    return vector[instance.election.ranks]


def _party_leads(instance: ProblemInstance) -> np.ndarray:
    """(l, m) array: what one voter of party q adds to p's score minus c's
    (scoring rules) or to the (p, c) margin (Condorcet).  ``sizes @ leads``
    is p's lead over each candidate; column p is 0."""
    p = instance.p
    if isinstance(instance.rule, Condorcet):
        ranks = instance.election.ranks
        return np.sign(ranks - ranks[:, [p]])
    rows = _party_rows(instance)
    return rows[:, [p]] - rows


def _party_margin_deltas(instance: ProblemInstance) -> np.ndarray:
    """(l, m, m) per-voter margin contribution B_q - B_q^T for each party."""
    r = instance.election.ranks
    return np.sign(r[:, None, :] - r[:, :, None])


@functools.lru_cache(maxsize=64)
def _copeland_table(numerator: int, denominator: int) -> np.ndarray:
    return np.array([0, numerator, denominator], dtype=np.int64)


def _copeland_scaled(margins: np.ndarray, alpha: Fraction) -> np.ndarray:
    """Copeland scores scaled by alpha's denominator (exact integers).

    ``margins`` has shape (..., m, m) with a zero diagonal.  Each margin's
    sign picks 0, alpha's numerator or its denominator (loss, tie, win); the
    diagonal counts as one tie, which the last term takes back.
    """
    num, den = alpha.numerator, alpha.denominator
    return _copeland_table(num, den)[np.sign(margins) + 1].sum(axis=-1) - num


@functools.lru_cache(maxsize=64)
def _maximin_pad(m: int, n_voters: int) -> np.ndarray:
    """n off the diagonal; on it, a value above every reachable support."""
    pad = np.full((m, m), n_voters, dtype=np.int64)
    np.fill_diagonal(pad, 1 << 62)
    return pad


def _maximin_from_margins(margins: np.ndarray, n_voters: int) -> np.ndarray:
    """Maximin scores from a margin tensor of shape (..., m, m).

    N(c, d) = (margin + n) / 2, and margin + n is even (every voter adds +1
    or -1 to the margin), so the shift halves it exactly.  The diagonal pad
    keeps N(c, c) out of the minimum.
    """
    return ((margins + _maximin_pad(margins.shape[-1], n_voters)) >> 1).min(axis=-1)


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


def _oracle(instance: ProblemInstance, direction: Direction) -> SolveResult:
    solver = f"oracle_{direction.value}"
    if instance.direction is not direction:
        raise ValueError(f"{solver} solves {direction.value} instances only")
    pe = instance.election
    if pe.num_voters > ORACLE_VOTER_CAP:
        raise ValueError(
            f"size cap exceeded: {pe.num_voters} voters > cap {ORACLE_VOTER_CAP}"
        )
    evaluator = _BulkEvaluator(instance)
    base = pe.sizes
    if instance.destination_mode is DestinationMode.ONE:
        destinations = list(range(len(base)))
    else:
        destinations = [None]

    best_value: int | None = None
    best_moves = None
    for destination in destinations:
        moves, deltas, totals = _move_options(instance, destination)
        counts = [len(options) for options in moves]
        n_plans = 1
        for c in counts:
            n_plans *= c
        if n_plans > ORACLE_PLAN_CAP:
            raise ValueError(f"size cap exceeded: {n_plans} plans > cap {ORACLE_PLAN_CAP}")
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
            # Blocks come in key order: a strict improvement keeps the smallest key.
            better = (
                best_value is None
                or (direction is Direction.MIN and value < best_value)
                or (direction is Direction.MAX and value > best_value)
            )
            if better:
                best_value = value
                best_moves = tuple(
                    itertools.chain.from_iterable(
                        moves[s][int(digits[row, s])] for s in range(len(counts))
                    )
                )
    if best_value is None:
        return infeasible(solver)
    return feasible(best_value, SwitchPlan(moves=best_moves), solver)


def oracle_min(instance: ProblemInstance) -> SolveResult:
    """Exact MIN by full plan enumeration (desk-scale ground truth)."""
    return _oracle(instance, Direction.MIN)


def oracle_max(instance: ProblemInstance) -> SolveResult:
    """Exact MAX by full plan enumeration (desk-scale ground truth)."""
    return _oracle(instance, Direction.MAX)


class _BranchAndBound:
    """Exact DFS over per-(source, destination) counts with admissible pruning.

    *State and bound.*  The search keeps the state of the plan so far: p's
    leads over every candidate (scoring rules and Condorcet; ``_party_leads``)
    or the margin matrix (Copeland, Maximin), stacked twice as a ``(2, ...)``
    array.  p's own lead is pinned above every threshold; its column is 0,
    so it never moves.  Level i fixes the count of pair i.  ``slack[i]``
    stacks [fall, rise]: the sums, over pairs i.., of each pair's full
    capacity times the negative and the positive part of its unit change.  A
    node evaluates ``state + slack[i]`` once.  Row 0 holds every entry's
    lowest reachable value and row 1 its highest.  p succeeds at MIN when
    some lead is at most -strict, and at MAX when none is, so the node is
    pruned when row 0's least lead (MIN) or row 1's (MAX) fails that test.
    A Copeland or Maximin score is monotone in each margin of the
    candidate's own row, so the scores of row 0 bound every final score
    from below and those of row 1 from above, and the node is pruned when p
    cannot succeed even with every rival at its bound.  For MIN with an
    incumbent, the plan may move at most b more voters, so the slack is
    first capped at b times the extreme unit step (``steps[i]``).  At level
    n the slack is zero and both rows are the plan's exact state: the same
    test is then the plan's success test.

    Bounding p's lead over a rival is never looser than bounding p's and the
    rival's scores apart, since each pair's extreme change of the difference
    is at most the difference of its extremes.  Only MIN's budget cap clips
    the two differently: of 8,800 seeded random searches (m <= 6), 4 MIN
    searches expanded 1 to 11 more nodes than with score bounds, 339 fewer.

    Maximin's bound is exact integer arithmetic.  A margin plus n is even
    (every voter adds +1 or -1 to it) and every slack entry is even (one
    move changes a margin by 0 or 2 in either direction), so
    (margin + slack + n) / 2 is the support the relaxation promises,
    without rounding.

    *Witness and ties.*  The witness is the optimal plan of smallest
    (destination rank, counts) key, the oracle's choice.  Destinations are
    searched in increasing rank; MIN tries counts in increasing order, so
    it meets leaves in increasing key order, and MAX in decreasing order,
    so it meets one destination's leaves in decreasing key order.  Hence:

    * MIN: a later leaf never has a smaller key, so one of equal cost never
      replaces the incumbent, and every subtree that cannot cost strictly
      less is pruned (the remaining budget is best - total - 1).
    * MAX: a later leaf of the same destination has a smaller key and must
      replace an equal incumbent, so equal-value subtrees are kept there.
      Once the incumbent lies in an earlier destination, every later key is
      larger, and subtrees that can at best equal it are pruned.

    So a leaf that passes the test beats the incumbent, or ties it with a
    smaller key, and replaces it without a key comparison.  The smallest-key
    optimal plan is never pruned (only an incumbent of the same value and a
    smaller key could prune it), and no later leaf replaces it.
    """

    def __init__(self, instance: ProblemInstance, direction: Direction, node_budget: int):
        self.solver = f"exact_search_{direction.value}"
        if instance.direction is not direction:
            raise ValueError(f"{self.solver} solves {direction.value} instances only")
        self.instance = instance
        self.minimize = direction is Direction.MIN
        self.node_budget = node_budget
        self.nodes = 0
        self.sizes = instance.election.sizes.tolist()
        p = instance.p
        rule = instance.rule
        linear = isinstance(rule, (Scoring, Condorcet))
        self.party_state = _party_leads(instance) if linear else _party_margin_deltas(instance)
        base = np.tensordot(instance.election.sizes, self.party_state, axes=1)
        if linear:
            base[p] = 1  # above both thresholds, 0 and -1; column p is 0
        self.base = np.stack([base, base])  # the slack's shape: a broadcast add costs ~2.7x as much
        n_voters = instance.election.num_voters
        if isinstance(rule, Copeland):
            self.score_rows = lambda r: _copeland_scaled(r, rule.alpha).tolist()
        elif isinstance(rule, Maximin):
            self.score_rows = lambda r: _maximin_from_margins(r, n_voters).tolist()
        else:
            self.score_rows = np.ndarray.tolist
        self.succeeds = self._success_test(rule, p, instance.model is WinnerModel.UNIQUE)
        self.best_value: int | None = None
        self.best_dest = -1
        self.best_moves = None

    def _success_test(self, rule, p: int, unique: bool):
        """Test on (lo, hi) lead or score lists: can p still succeed?"""
        if isinstance(rule, (Scoring, Condorcet)):
            # p loses once some lead is at most -strict (Condorcet's models coincide).
            strict = int(not unique and isinstance(rule, Scoring))
            if self.minimize:
                return lambda lo, hi: min(lo) <= -strict
            return lambda lo, hi: min(hi) > -strict
        inf = float("inf")
        if self.minimize:
            # p loses sole winnership (UNIQUE) / leaves the winner set (COWINNER).
            need = 0 if unique else 1
            return lambda lo, hi: max(hi[:p] + hi[p + 1:], default=-inf) - lo[p] >= need
        need = 1 if unique else 0
        return lambda lo, hi: hi[p] - max(lo[:p] + lo[p + 1:], default=-inf) >= need

    def _variables(self, destination: int | None):
        """Pairs with their stacked unit changes, slack, steps and capacity.

        Sources without voters are left out: their count is always 0, and
        leaving a constant out of every key keeps the keys' order.  In the
        multi-destination mode a source's capacity counts once per
        destination, which only widens the bound (still admissible).
        """
        sizes = self.sizes
        l = len(sizes)
        dests = [destination] if destination is not None else range(l)
        pairs = [(q, d) for q in range(l) for d in dests if d != q and sizes[q]]
        sources = [q for q, _ in pairs]
        unit = self.party_state[[d for _, d in pairs]] - self.party_state[sources]
        shape = unit.shape[1:]
        k = len(pairs)
        caps = np.array([sizes[q] for q in sources], dtype=np.int64)
        full = caps.reshape((k,) + (1,) * len(shape)) * unit
        slack = np.zeros((k + 1, 2) + shape, dtype=np.int64)
        steps = np.zeros((k + 1, 2) + shape, dtype=np.int64)
        for i in range(k - 1, -1, -1):
            slack[i, 0] = slack[i + 1, 0] + np.minimum(full[i], 0)
            slack[i, 1] = slack[i + 1, 1] + np.maximum(full[i], 0)
            steps[i, 0] = np.minimum(steps[i + 1, 0], unit[i])
            steps[i, 1] = np.maximum(steps[i + 1, 1], unit[i])
        remcap = np.append(np.cumsum(caps[::-1])[::-1], 0).tolist()
        units = list(np.stack([unit, unit], axis=1))
        return pairs, units, list(slack), list(steps), remcap

    # -- search -----------------------------------------------------------

    def run(self) -> SolveResult:
        if self.instance.destination_mode is DestinationMode.ONE:
            destinations: list[int | None] = list(range(len(self.sizes)))
        else:
            destinations = [None]
        try:
            for dest_rank, destination in enumerate(destinations):
                self._search_destination(dest_rank, destination)
        except _BudgetExceeded:
            return budget_exhausted(self.solver, self.nodes)
        if self.best_value is None:
            return infeasible(self.solver, self.nodes)
        return feasible(self.best_value, SwitchPlan(moves=self.best_moves), self.solver, self.nodes)

    def _search_destination(self, dest_rank: int, destination: int | None):
        pairs, units, slack, steps, remcap = self._variables(destination)
        n = len(pairs)
        state = self.base.copy()
        counts = [0] * n
        left = list(self.sizes)
        score_rows, succeeds, minimize = self.score_rows, self.succeeds, self.minimize

        def dfs(i: int, total: int):
            nonlocal state
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise _BudgetExceeded
            reach = slack[i]
            best = self.best_value
            if best is not None:
                if minimize:
                    budget = best - total - 1
                    if budget < 0:
                        return
                    if budget < remcap[i]:
                        most = budget * steps[i]
                        reach = np.minimum(np.maximum(reach, most[0]), most[1])
                elif total + remcap[i] < best or (
                    total + remcap[i] == best and self.best_dest < dest_rank
                ):
                    return
            if not succeeds(*score_rows(state + reach)):
                return
            if i == n:
                self.best_value, self.best_dest = total, dest_rank
                self.best_moves = tuple(
                    (q, d, c) for (q, d), c in zip(pairs, counts) if c
                )
                return
            q = pairs[i][0]
            unit = units[i]
            cap = left[q]
            if minimize:
                if best is not None:
                    cap = min(cap, budget)
                for count in range(cap + 1):
                    if count:
                        state += unit
                    counts[i] = count
                    left[q] -= count
                    dfs(i + 1, total + count)
                    left[q] += count
                if cap:
                    state -= cap * unit
            else:
                if cap:
                    state += cap * unit
                for count in range(cap, -1, -1):
                    counts[i] = count
                    left[q] -= count
                    dfs(i + 1, total + count)
                    left[q] += count
                    if count:
                        state -= unit

        dfs(0, 0)


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
