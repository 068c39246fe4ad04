"""Exact solvers valid for every rule, direction, and destination mode.

Two independent routes:

* ``oracle_min`` / ``oracle_max`` enumerate every plan outright, in numpy
  blocks with no pruning, and are the ground truth for everything else.
  Each source party has one table of the counts it can send to each party;
  a plan picks one row per source.  The plan count is checked against the
  cap before any table is built, and each block holds a fixed number of
  array cells, so its rows shrink as m grows.
* ``exact_search_min`` / ``exact_search_max`` run a branch-and-bound over
  per-(source, destination) move counts with admissible pruning, for the
  NP-hard Copeland and Maximin rules at desk scale.  Every scoring rule and
  Condorcet has an exact polynomial route (``solve.poly_solver``), so the
  search raises ``ValueError`` on them.

The oracle asks ``rules.p_wins``, the win test of validation and
``check_witness``, of each block of plans.  The branch and bound scores its
nodes with its own ``_margin_scorer``, which the oracle never calls.

Plans are canonicalized as counts per (source, destination) pair; voters of
one party are interchangeable so this loses nothing.  A plan's key is its
counts over the pairs in source-then-destination order.  Both routes visit
plans in one order, destinations by rank and, within a destination, keys
in increasing order for MIN and decreasing order for MAX, and both return
the first optimal plan they meet: only a strictly better plan replaces the
incumbent.  So they agree on the witness as well as the value (the lowest
destination, then the smallest key for MIN and the largest for MAX), and
the branch and bound prunes every subtree that can at best tie the
incumbent.  ``_BranchAndBound``'s docstring has the proof, the one bound
matrix per node, and why its doubled units are exact.
"""

from __future__ import annotations

import math

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
from .rules import Copeland, Maximin, WinnerModel, WinTable, equivalent_alpha, p_wins, voter_terms

ORACLE_VOTER_CAP = 16  # the oracle refuses larger elections
ORACLE_PLAN_CAP = 5_000_000  # and destinations with more plans
DEFAULT_NODE_BUDGET = 20_000_000
_BLOCK_CELLS = 1 << 20  # array cells per oracle block and per batch of search tables


class _BudgetExceeded(Exception):
    pass


def _party_margin_deltas(instance: ProblemInstance) -> np.ndarray:
    """(l, m, m) per-voter margin contribution B_q - B_q^T for each party."""
    r = instance.election.ranks
    return np.sign(r[:, None, :] - r[:, :, None])


def _margin_scorer(rule: Copeland | Maximin, m: int, n_voters: int):
    """Exact integer Copeland or Maximin scores of a (..., m, m) margin
    tensor with a zero diagonal, in doubled units, built once per instance.

    Returns ``(pad, score)``: the caller adds the (m, m) ``pad`` to its
    margins once, and ``score`` maps the padded tensor to one even integer
    per row in the fewest numpy passes.

    * Maximin reads the doubled support 2·N(c, d) = margin + n, so the pad
      is n off the diagonal and a score is one row minimum, with no halving.
      The diagonal pad, 2^62, sits above every reachable doubled support, so
      N(c, c) never is the minimum; whatever the caller adds afterwards must
      have a zero diagonal, so the diagonal stays exactly the pad.
    * Copeland, with alpha = num/den, reads den·Σ sign + (den − 2·num)·Σ
      |sign| over each row: a win adds 2·(den − num), a tie 0 and a loss
      −2·num, and the diagonal's sign is 0.  That is 2·den times the
      Copeland score less 2·num·(m − 1), a constant shared by every row.
      The second term is 0 at alpha = 1/2.  The pad is 0.  A row's score
      and each term lie within den·(m − 1) or 2·den·(m − 1) of 0, so once
      2·den·(m − 1) reaches 2^63, where they could wrap int64, the units
      are those of ``rules.equivalent_alpha``, which ranks every row alike.

    Scores of one tensor differ by even amounts, so one row beats another
    exactly when it leads by at least 2.
    """
    if isinstance(rule, Copeland):
        alpha = rule.alpha
        if 2 * alpha.denominator * (m - 1) >= 1 << 63:
            alpha = equivalent_alpha(alpha, m)
        num, den = alpha.numerator, alpha.denominator
        # Row sums as products with constant rows: one numpy pass each.
        dens = np.full(m, den, dtype=np.int64)
        tie_terms = np.full(m, den - 2 * num, dtype=np.int64)
        if den == 2 * num:
            score = lambda margins: np.sign(margins) @ dens
        else:
            def score(margins):
                signs = np.sign(margins)
                return signs @ dens + np.abs(signs) @ tie_terms
        return np.zeros((m, m), dtype=np.int64), score
    pad = np.full((m, m), n_voters, dtype=np.int64)
    np.fill_diagonal(pad, 1 << 62)
    return pad, lambda supports: np.minimum.reduce(supports, axis=-1)


def _compositions_upto(total: int, slots: int):
    """All vectors of ``slots`` non-negative ints summing to at most ``total``,
    in lexicographic order."""
    if slots == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _compositions_upto(total - first, slots - 1):
            yield (first,) + rest


def _send_tables(sizes: list[int], destination: int | None) -> list[np.ndarray]:
    """Per source party, the (options, l) table of the counts it sends to
    each party, rows in key order.  ``destination=None`` means the
    multiple-destination mode.

    A source of s voters with d destinations has C(s + d, d) rows, so the
    plan count is checked against ``ORACLE_PLAN_CAP`` before any table is
    built.
    """
    l = len(sizes)
    dests = [[d for d in range(l) if d != q and destination in (None, d)] for q in range(l)]
    n_plans = math.prod(math.comb(size + len(ds), len(ds)) for size, ds in zip(sizes, dests))
    if n_plans > ORACLE_PLAN_CAP:
        raise ValueError(f"size cap exceeded: {n_plans} plans > cap {ORACLE_PLAN_CAP}")
    tables = []
    for size, ds in zip(sizes, dests):
        options = list(_compositions_upto(size, len(ds)))
        table = np.zeros((len(options), l), dtype=np.int64)
        table[:, ds] = options
        tables.append(table)
    return tables


def _oracle(instance: ProblemInstance, direction: Direction) -> SolveResult:
    solver = f"oracle_{direction.value}"
    if instance.direction is not direction:
        raise ValueError(f"{solver} solves {direction.value} instances only")
    pe = instance.election
    if pe.num_voters > ORACLE_VOTER_CAP:
        raise ValueError(
            f"size cap exceeded: {pe.num_voters} voters > cap {ORACLE_VOTER_CAP}"
        )
    sizes = pe.sizes.tolist()
    if instance.destination_mode is DestinationMode.ONE:
        destinations: list[int | None] = list(range(len(sizes)))
    else:
        destinations = [None]
    minimize = direction is Direction.MIN
    sign = 1 if minimize else -1  # the argmin of sign * moved is the best plan
    rule, model = instance.rule, instance.model
    # Each plan's block row holds its l sizes and its table: (m,) scores or
    # p's tally row, or the (m, m) tally under Copeland and Maximin.
    terms = voter_terms(rule, pe.ranks, instance.p).astype(np.int64)
    block = max(1, _BLOCK_CELLS // (len(sizes) + terms[0].size))

    best_value: int | None = None
    best_moves = None
    for destination in destinations:
        tables = _send_tables(sizes, destination)
        sent = [table.sum(axis=1) for table in tables]
        shape = tuple(len(table) for table in tables)
        n_plans = math.prod(shape)
        for start in range(0, n_plans, block):
            # Plan indices in C order: source 0 is the key's leading digit.
            # MAX visits them in reverse, so keys come in decreasing order.
            index = np.arange(start, min(start + block, n_plans))
            plans = np.unravel_index(index if minimize else n_plans - 1 - index, shape)
            into = sum(table[i] for table, i in zip(tables, plans))
            out = np.stack([s[i] for s, i in zip(sent, plans)], axis=1)
            values = np.tensordot(pe.sizes + into - out, terms, axes=1)
            ok = p_wins(WinTable(instance.p, pe.num_voters, values), rule, model) != minimize
            if not ok.any():
                continue
            moved = out.sum(axis=1)
            row = int(np.where(ok, sign * moved, np.iinfo(np.int64).max).argmin())
            value = int(moved[row])
            # Blocks come in visit order: a strict improvement keeps the first plan.
            if best_value is None or sign * value < sign * best_value:
                best_value = value
                best_moves = tuple(
                    (q, d, c)
                    for q, (table, i) in enumerate(zip(tables, plans))
                    for d, c in enumerate(table[i[row]].tolist())
                    if c
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
    """Exact DFS over per-(source, destination) counts with admissible pruning,
    for Copeland and Maximin.

    *State and bound.*  The search keeps the margin matrix of the plan so
    far, plus the pad of the instance's ``_margin_scorer``, which
    ``__init__`` adds to the base state once; level i fixes the count of
    pair i.  A Copeland or Maximin score is monotone in each margin of the
    candidate's own row, and the success test reads one bound per
    candidate: the rivals' highest scores and p's lowest for MIN, p's
    highest and the rivals' lowest for MAX.  So each row has one helpful
    direction, up where the test reads the highest score and down where it
    reads the lowest (``sign``).  ``slack[i]`` sums, over pairs i.., each
    pair's full capacity times the part of its unit change that moves each
    row in that direction.  A node scores the one bound matrix
    ``state + slack[i]`` and is pruned when p cannot succeed even with every
    score at its bound.  For MIN with an incumbent, the plan may move at
    most b more voters, and one move shifts a margin by -2, 0 or 2, so each
    slack entry is first clamped to [-2b, 2b]; a row's slack lies on its
    helpful side, so the clamp caps it on that side.  At level n the slack
    is zero and the bound is the plan's exact state: the same test is then
    the plan's success test.  ``__init__`` builds that test once, as
    ``passes``: it scores the bound with the scorer and reads p's score off
    the list.

    *Set-up.*  The pairs, unit changes, slack and capacity of the searches
    are built by ``_variables`` for a batch of destinations at once, one
    grid of pairs per batch, with at most ``_BLOCK_CELLS`` cells per batch
    so that memory stays O(batch · l · m²) however many parties there are.

    *Doubled units.*  The scorer's units are exact integers, and every
    score is even, so a strict lead is a lead of at least 2: for MIN the
    best rival must lead p by 2 - 2·unique, for MAX p must lead the best
    rival by 2·unique (unique is 1 under the unique model, 0 for
    co-winners).  Copeland scores are 2·den times the Copeland score of the
    bound's signs, less a constant.  Maximin's padded state holds doubled
    supports, 2·N(c, d) = margin + n off the diagonal, so a node's score is
    one row minimum of ``state + reach``.  Every off-diagonal bound entry is
    even: margin + n is (every voter adds +1 or -1 to a margin), and so is
    every slack entry and clamp.  So the minimum is exactly twice the
    support the relaxation promises, without rounding.  *Pad invariant:*
    units, slack and clamps are 0 on the diagonal, so the diagonal of the
    state and of every bound stays exactly the pad, 2^62, above every
    reachable doubled support (at most 2n plus twice the remaining
    capacity, so at most 2n·l).

    *Witness and ties.*  The witness is the first optimal plan in the
    oracle's visit order: destinations in increasing rank, and within one,
    counts in increasing order for MIN and decreasing order for MAX, which
    is the order this DFS meets its leaves.  A leaf replaces the incumbent
    only when it is strictly better, so every subtree that can at best tie
    is pruned: MIN's remaining budget is best - total - 1, and MAX drops a
    subtree unless it can move more than best voters (at most n, since no
    plan moves more; in the multi-destination mode ``remcap`` counts a
    source once per destination).  The first optimal plan is never pruned,
    since every incumbent before it is strictly worse, and no later leaf
    replaces it.
    """

    def __init__(self, instance: ProblemInstance, direction: Direction, node_budget: int):
        self.solver = f"exact_search_{direction.value}"
        rule = instance.rule
        if not isinstance(rule, (Copeland, Maximin)):
            raise ValueError(
                f"{self.solver} searches Copeland and Maximin only; "
                f"solve.poly_solver has the exact route for {type(rule).__name__}"
            )
        if instance.direction is not direction:
            raise ValueError(f"{self.solver} solves {direction.value} instances only")
        self.instance = instance
        self.minimize = direction is Direction.MIN
        self.node_budget = node_budget
        self.nodes = 0
        self.sizes = instance.election.sizes.tolist()
        self.party_state = _party_margin_deltas(instance)
        m = instance.election.num_candidates
        pad, score = _margin_scorer(rule, m, instance.election.num_voters)
        self.base = np.tensordot(instance.election.sizes, self.party_state, axes=1) + pad
        # Each row's helpful direction: +1 up, -1 down.
        p = instance.p
        self.sign = np.full((m, 1), 1 if self.minimize else -1, dtype=np.int64)
        self.sign[p] *= -1
        # In doubled units, MIN: the best rival must lead p by 2 - 2 unique;
        # MAX: p must lead it by 2 unique.
        unique = int(instance.model is WinnerModel.UNIQUE)
        lead, need = (1, 2 - 2 * unique) if self.minimize else (-1, 2 * unique)

        floor = -(1 << 64)  # below every score: p's stand-in among the rivals

        def passes(bound: np.ndarray) -> bool:
            scores = score(bound).tolist()
            mine, scores[p] = scores[p], floor
            return lead * (max(scores) - mine) >= need

        self.passes = passes
        self.best_value: int | None = None
        self.best_moves = None

    def _variables(self):
        """Each destination's ``(pairs, units, slack, remcap)``, in search
        order: its pairs with their unit changes, slack and capacity.

        Sources without voters are left out: their count is always 0, and
        leaving a constant out of every key keeps the keys' order.  In the
        multi-destination mode there is one segment, every pair, and a
        source's capacity counts once per destination, which only widens the
        bound (still admissible).

        The tables are built for a batch of segments in one pass, as a
        (segments, width) grid of pairs: one fancy index of the party states
        and one reverse ``cumsum`` along each row for slack and capacity.
        A destination that has voters of its own has one pair fewer than the
        grid's width, so its row ends in a pad, a pair from the destination
        to itself with a zero unit change and capacity 0, which adds nothing
        to either sum.  In the one-destination mode a batch holds at most
        ``_BLOCK_CELLS`` table cells (and at least one destination), so the
        tables take O(batch · l · m²) memory, never O(l² · m²).
        """
        sizes = self.instance.election.sizes
        l = len(sizes)
        sources = np.flatnonzero(sizes)
        if self.instance.destination_mode is DestinationMode.MULTI:
            others = np.arange(l - 1)
            dst = (others + (others >= sources[:, None])).reshape(1, -1)  # each d != q
            batches = [(np.repeat(sources, l - 1)[None], dst, [dst.size])]
        else:
            per = max(1, _BLOCK_CELLS // ((len(sources) + 1) * self.party_state[0].size))
            batches = (
                _destination_grid(sizes, sources, np.arange(lo, min(lo + per, l)))
                for lo in range(0, l, per)
            )
        for src, dst, lengths in batches:
            unit = self.party_state[dst]
            unit -= self.party_state[src]
            push = self.sign * unit  # each unit change's helpful part, times its cap
            np.maximum(push, 0, out=push)
            caps = np.where(src == dst, 0, sizes[src])  # a pad has no capacity
            push *= caps[..., None, None]
            slack = np.zeros((len(src), src.shape[1] + 1) + unit.shape[2:], dtype=np.int64)
            np.cumsum(push[:, ::-1], axis=1, out=slack[:, -2::-1])
            del push
            slack *= self.sign
            remcap = np.zeros((len(src), src.shape[1] + 1), dtype=np.int64)
            np.cumsum(caps[:, ::-1], axis=1, out=remcap[:, -2::-1])
            for row, n in enumerate(lengths):
                yield (
                    list(zip(src[row, :n].tolist(), dst[row, :n].tolist())),
                    list(unit[row, :n]),
                    list(slack[row, : n + 1]),
                    remcap[row, : n + 1].tolist(),
                )

    # -- search -----------------------------------------------------------

    def run(self) -> SolveResult:
        try:
            for tables in self._variables():
                self._search_destination(*tables)
        except _BudgetExceeded:
            return budget_exhausted(self.solver, self.nodes)
        if self.best_value is None:
            return infeasible(self.solver, self.nodes)
        return feasible(self.best_value, SwitchPlan(moves=self.best_moves), self.solver, self.nodes)

    def _search_destination(self, pairs, units, slack, remcap):
        n = len(pairs)
        voters = sum(self.sizes)
        state = self.base.copy()
        counts = [0] * n
        left = list(self.sizes)
        passes, minimize = self.passes, self.minimize

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
                        # budget more moves shift an entry by at most 2 budget.
                        most = 2 * budget
                        reach = np.minimum(np.maximum(reach, -most), most)
                elif total + remcap[i] <= best or voters <= best:
                    return
            if not passes(state + reach):
                return
            if i == n:
                self.best_value = total
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


def _destination_grid(sizes: np.ndarray, sources: np.ndarray, dests: np.ndarray):
    """The one-destination pair grid of ``dests``: (src, dst, lengths), row
    j holding the pairs (q, dests[j]) of the voting ``sources`` q != dests[j]
    in order, lengths[j] of them, then pads (dests[j], dests[j])."""
    k = len(sources)
    # A destination with voters skips its own column, at its rank among the sources.
    own = np.where(sizes[dests] > 0, np.searchsorted(sources, dests), k)
    column = np.arange(k)
    index = column + (column >= own[:, None])
    dst = np.broadcast_to(dests[:, None], index.shape)
    src = np.where(index < k, np.append(sources, 0)[index], dst)
    return src, dst, (k - (own < k)).tolist()


def exact_search_min(
    instance: ProblemInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Exact Copeland or Maximin MIN via branch-and-bound; BUDGET_EXHAUSTED
    when the node budget runs out.  Raises ``ValueError`` on any other rule."""
    return _BranchAndBound(instance, Direction.MIN, node_budget).run()


def exact_search_max(
    instance: ProblemInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Exact Copeland or Maximin MAX via branch-and-bound; BUDGET_EXHAUSTED
    when the node budget runs out.  Raises ``ValueError`` on any other rule."""
    return _BranchAndBound(instance, Direction.MAX, node_budget).run()
