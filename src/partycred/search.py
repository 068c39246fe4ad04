"""Exact solvers valid for every rule, direction, and destination mode.

Two independent routes:

* ``oracle_min`` / ``oracle_max`` enumerate every plan outright, in numpy
  blocks with no pruning, and are the ground truth for everything else.
  Each source party has one table of the counts it can send to each party;
  a plan picks one row per source.  Before any table is built, the plans of
  every destination times the l + (table width) cells of a block row must
  stay within ``ORACLE_CELL_CAP``, one bound on time and memory.  Each
  block holds a fixed number of cells, so its rows shrink as m grows.
* ``exact_search_min`` / ``exact_search_max`` run a branch-and-bound over
  per-(source, destination) move counts with admissible pruning, for the
  NP-hard Copeland and Maximin rules, in one loop without recursion.
  It builds one destination's tables at a time, when the walk reaches it,
  and lists them only for a destination whose root bound passes.
  Every scoring rule and Condorcet has an exact polynomial route
  (``solve.poly_solver``), so the search raises ``ValueError`` on them.

The oracle asks ``rules.p_wins``, the win test of validation and
``check_witness``, of each block of plans.  The branch and bound scores its
nodes with its own ``_margin_scorer``, which the oracle never calls; it
takes its Copeland tie weight (``equivalent_alpha``) and the margin p needs
(``win_floor``) from ``rules``.  Both routes build their FEASIBLE results
with ``parties.feasible``, which checks the plan.

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
from itertools import chain, combinations

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
from .rules import Copeland, Maximin, WinTable, equivalent_alpha, p_wins
from .rules import voter_margins, voter_terms, win_floor

ORACLE_CELL_CAP = 1 << 26  # block cells of every plan the oracle may enumerate
DEFAULT_NODE_BUDGET = 20_000_000
_BLOCK_CELLS = 1 << 20  # array cells per oracle block


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
    * Copeland, with num/den = ``rules.equivalent_alpha(alpha, m)``, which
      ranks every row as alpha does, reads den·Σ sign + (den − 2·num)·Σ
      |sign| over each row: a win adds 2·(den − num), a tie 0 and a loss
      −2·num, and the diagonal's sign is 0.  That is 2·den times the
      Copeland score at that weight less 2·num·(m − 1), a constant shared
      by every row.  The second term is 0 at alpha = 1/2.  The pad is 0.
      den is below 2m, so a row's score and each term, within
      2·den·(m − 1) of 0, never wrap int64.

    Scores of one tensor differ by even amounts, so one row beats another
    exactly when it leads by at least 2.
    """
    if isinstance(rule, Copeland):
        alpha = equivalent_alpha(rule.alpha, m)
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


def _compositions_upto(total: int, slots: int) -> np.ndarray:
    """Every vector of ``slots`` non-negative ints summing to at most ``total``,
    one row each in lexicographic order: the gaps before ``slots`` bars set
    among ``total + slots`` places, with the bar places in that order."""
    rows = math.comb(total + slots, slots)
    bars = chain.from_iterable(combinations(range(total + slots), slots))
    bars = np.fromiter(bars, np.int64, count=rows * slots).reshape(rows, slots)
    bars[:, 1:] -= bars[:, :-1] + 1  # the gap before each bar
    return bars


def _send_tables(sizes: list[int], destination: int | None) -> list[np.ndarray]:
    """Per source party, the (options, l) table of the counts it sends to
    each party, rows in key order.  ``destination=None`` means the
    multiple-destination mode."""
    l = len(sizes)
    tables = []
    for q, size in enumerate(sizes):
        ds = [d for d in range(l) if d != q and destination in (None, d)]
        options = _compositions_upto(size, len(ds))
        table = np.zeros((len(options), l), dtype=np.int64)
        table[:, ds] = options
        tables.append(table)
    return tables


def _oracle(instance: ProblemInstance, direction: Direction) -> SolveResult:
    solver = f"oracle_{direction.value}"
    if instance.direction is not direction:
        raise ValueError(f"{solver} solves {direction.value} instances only")
    pe = instance.election
    sizes = pe.sizes.tolist()
    l = len(sizes)
    if instance.destination_mode is DestinationMode.ONE:
        # Into d, each other source sends 0..s_q voters.
        destinations: list[int | None] = list(range(l))
        every = math.prod(s + 1 for s in sizes)
        all_plans = sum(every // (s + 1) for s in sizes)
    else:
        destinations = [None]
        all_plans = math.prod(math.comb(s + l - 1, l - 1) for s in sizes)
    minimize = direction is Direction.MIN
    sign = 1 if minimize else -1  # the argmin of sign * moved is the best plan
    rule, model = instance.rule, instance.model
    # Each plan's block row holds its l sizes and its table: (m,) scores or
    # p's tally row, or the (m, m) tally under Copeland and Maximin.
    terms = voter_terms(rule, pe.ranks, instance.p).astype(np.int64)
    width = l + terms[0].size
    if all_plans * width > ORACLE_CELL_CAP:
        # Counts run to thousands of digits, past Python's int-to-str limit.
        plans = all_plans if all_plans < 10**20 else f"about 10^{round(math.log10(all_plans))}"
        raise ValueError(
            f"size cap exceeded: {plans} plans of {width} cells > cap {ORACLE_CELL_CAP} cells"
        )
    block = max(1, _BLOCK_CELLS // width)

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
    return feasible(instance, best_value, SwitchPlan(moves=best_moves), solver)


def oracle_min(instance: ProblemInstance) -> SolveResult:
    """Exact MIN by full plan enumeration: the ground truth."""
    return _oracle(instance, Direction.MIN)


def oracle_max(instance: ProblemInstance) -> SolveResult:
    """Exact MAX by full plan enumeration: the ground truth."""
    return _oracle(instance, Direction.MAX)


class _BranchAndBound:
    """Exact depth-first search over per-(source, destination) counts with
    admissible pruning, for Copeland and Maximin.

    *Walk.*  ``_search_segment`` is one loop, with no recursion, so no
    number of pairs exhausts Python's stack.  Level i steps ``counts[i]``
    one voter at a time to ``last[i]``, up from 0 to its cap for MIN and
    down from the cap to 0 for MAX; the cap is the voters its source has
    left, and for MIN at most the remaining budget.  A pruned node or a
    leaf backs up to the deepest level with a count left and steps it.

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
    the list.  ``party_state``, what one voter of each party adds to the
    margins, is ``rules.voter_margins``.

    *Set-up.*  ``_segments`` builds one segment's pairs, unit changes,
    slack and capacity only when the walk reaches it: one destination, or
    every pair in the multi-destination mode.  They are numpy arrays of
    O(pairs · m²) cells, for the one segment being walked, so a
    one-destination search holds O(l · m²) however many parties there are.
    The root node reads them as arrays and its first descent lists them
    (``_listed``), so a segment pruned at its root costs one counted node
    and no Python list.

    *Doubled units.*  The scorer's units are exact integers, and every
    score is even, so a strict lead is a lead of at least 2: p must lead
    the best rival by 2·s for MAX, and for MIN the best rival must lead p by
    2 - 2·s, where s = ``rules.win_floor`` is 1 under the unique model and 0
    for co-winners.  Copeland scores are 2·den times the Copeland score of the
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
    is the order this walk meets its leaves.  A leaf replaces the incumbent
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
        self.party_state = voter_margins(rule, instance.election.ranks, instance.p)
        m = instance.election.num_candidates
        pad, score = _margin_scorer(rule, m, instance.election.num_voters)
        self.base = np.tensordot(instance.election.sizes, self.party_state, axes=1) + pad
        # Each row's helpful direction: +1 up, -1 down.
        p = instance.p
        self.sign = np.full((m, 1), 1 if self.minimize else -1, dtype=np.int64)
        self.sign[p] *= -1
        # In doubled units, MIN: the best rival must lead p by 2 - 2s;
        # MAX: p must lead it by 2s.
        s = win_floor(rule, instance.model)
        lead, need = (1, 2 - 2 * s) if self.minimize else (-1, 2 * s)

        bottom = -(1 << 64)  # below every score: p's stand-in among the rivals

        def passes(bound: np.ndarray) -> bool:
            scores = score(bound).tolist()
            mine, scores[p] = scores[p], bottom
            return lead * (max(scores) - mine) >= need

        self.passes = passes
        self.best_value: int | None = None
        self.best_moves = None

    def _segments(self):
        """Each segment's ``(src, dst, units, slack, remcap)`` arrays, in
        search order, built only when the walk reaches that segment: its
        pairs with their unit changes, the slack of each level and the
        capacity left from it.

        A segment is one destination, or every pair in the
        multi-destination mode, where a source's capacity counts once per
        destination, which only widens the bound (still admissible).
        Sources without voters are left out: their count is always 0, and
        leaving a constant out of every key keeps the keys' order.  Each
        table is one fancy index of the party states and one reverse
        cumulative sum, O(pairs · m²) memory.
        """
        sizes = self.instance.election.sizes
        l = len(sizes)
        sources = np.flatnonzero(sizes)
        if self.instance.destination_mode is DestinationMode.MULTI:
            others = np.arange(l - 1)
            dst = (others + (others >= sources[:, None])).ravel()  # each d != q
            segments = [(np.repeat(sources, l - 1), dst)]
        else:
            segments = ((sources[sources != d], d) for d in range(l))
        caps = sizes[:, None, None]
        for src, dst in segments:
            dst = np.full(len(src), dst)  # contiguous, so the subtraction is one flat pass
            unit = self.party_state[dst]
            unit -= self.party_state[src]
            push = self.sign * unit  # each unit change's helpful part, times its cap
            np.maximum(push, 0, out=push)
            push *= caps[src]
            slack = np.zeros((len(src) + 1,) + unit.shape[1:], dtype=np.int64)
            np.add.accumulate(push[::-1], out=slack[-2::-1])
            del push
            slack *= self.sign
            remcap = np.zeros(len(src) + 1, dtype=np.int64)
            np.add.accumulate(sizes[src[::-1]], out=remcap[-2::-1])
            yield src, dst, unit, slack, remcap

    # -- search -----------------------------------------------------------

    def run(self) -> SolveResult:
        for tables in self._segments():
            if not self._search_segment(*tables):
                return budget_exhausted(self.solver, self.nodes)
        if self.best_value is None:
            return infeasible(self.solver, self.nodes)
        plan = SwitchPlan(moves=self.best_moves)
        return feasible(self.instance, self.best_value, plan, self.solver, self.nodes)

    def _search_segment(self, src, dst, units, slack, remcap) -> bool:
        """One segment's *Walk*; False when the node budget runs out.  The
        root reads the tables as arrays; its first descent lists them."""
        n = len(src)
        voters = sum(self.sizes)
        state = self.base.copy()
        counts, last = [0] * n, [0] * n
        left = list(self.sizes)
        passes, minimize = self.passes, self.minimize
        step, move = (1, np.add) if minimize else (-1, np.subtract)
        i = total = 0
        while True:
            self.nodes += 1
            if self.nodes > self.node_budget:
                return False
            reach, best, budget = slack[i], self.best_value, None
            if best is None:
                grow = True
            elif minimize:
                budget = best - total - 1
                grow = budget >= 0
                if grow and budget < remcap[i]:
                    # budget more moves shift an entry by at most 2 budget.
                    most = 2 * budget
                    reach = np.minimum(np.maximum(reach, -most), most)
            else:
                grow = total + remcap[i] > best and voters > best
            if grow and passes(state + reach):
                if i < n:
                    if not i:
                        src, dst, units, slack, remcap = _listed(src, dst, units, slack, remcap)
                    q = src[i]
                    cap = left[q] if budget is None else min(left[q], budget)
                    first, last[i] = (0, cap) if minimize else (cap, 0)
                    counts[i] = first
                    if first:
                        state += first * units[i]
                        left[q] -= first
                        total += first
                    i += 1
                    continue
                self.best_value = total
                self.best_moves = tuple((q, d, c) for q, d, c in zip(src, dst, counts) if c)
            i -= 1
            while i >= 0 and counts[i] == last[i]:
                count = counts[i]
                if count:
                    state -= count * units[i]
                    left[src[i]] += count
                    total -= count
                i -= 1
            if i < 0:
                return True
            counts[i] += step
            move(state, units[i], out=state)
            left[src[i]] -= step
            total += step
            i += 1


def _listed(src, dst, units, slack, remcap):
    """One segment's tables as the Python lists the walk indexes per level."""
    return src.tolist(), dst.tolist(), list(units), list(slack), remcap.tolist()


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
