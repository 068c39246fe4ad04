"""Exact polynomial solvers for the linear rules: every scoring rule and
Condorcet, MIN and MAX, in either destination mode; and multi-destination
MAX under any rule when no party holds a majority.

* ``min_scoring`` and ``min_condorcet`` — two MIN entry points over one
  greedy (``_min_greedy``).  Each rival's best destination is its
  lowest-lead party, so one histogram of voters per (rival, lead) finds the
  fewest switches for every rival at once: O(l·m + m·|D|) for the |D|
  distinct entries of the rule's lead table, plus one O(l log l) sort of the
  chosen rival's parties for the witness.
* ``max_linear`` — MAX for any scoring vector and for Condorcet.  The leads
  fall linearly in the numbers of voters moved.  One-destination MAX is a
  maximum packing (``_max_pack``) per distinct lead row
  (``_max_into_rows``): as many voters as possible move while p's lead over
  each rival stays a win.  Costs may be negative (a Borda or Condorcet
  switcher can raise p's lead over some rival), so the packing is an
  integer program that is NP-hard in general: the search is exponential
  only in the number of its counts, at most min(l, m!) merged rows.
  Multi-destination MAX is read from the parties' final sizes
  (``_max_final_sizes``): one packing over the merged rows' final totals
  per size bound, bisected.
* ``max_r_approval`` — the same one-destination packings, under the name
  that routes 0/1 scoring vectors (plurality, veto, any r-approval).  Their
  lead rows are approval rows, so there are at most C(m, r) distinct rows.
* ``max_shift`` — multi-destination MAX under any rule, Copeland and Maximin
  included, when no party holds more than half of the n voters: the final
  sizes s' = s need no packing, so the value is n, built in O(l).

Every multi-destination MAX plan is a cyclic shift of the leaving voters
onto the places they fill (``_shift_moves``), and so is every
one-destination plan, whose places all lie in one party.

``_max_pack`` is a branch and bound over count intervals.  Its linear
relaxation (``_lp_relaxation``) is a bounded-variable dual simplex with one
row per constraint that can bind and one column per count and per slack.
It starts with every count at its room, which is dual feasible whatever
the signs of the slack, so one phase serves every node: the one-destination
root, whose slack is never negative as p wins before anyone moves; a node
whose slack a count of positive cost has made negative; and the final-size
packing's root, whose slack is negative as p wins at no zero totals.

Ties resolve reproducibly.  MIN takes the lowest rival among those that need
the fewest switches, then that rival's lowest-id party of lowest lead;
one-destination MAX takes the lowest-id destination among the best, and
multi-destination MAX fills each row's lowest-id parties first.
Each solver builds its FEASIBLE result with ``parties.feasible``, which
checks the plan and raises ``RuntimeError`` on a rejection.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate

import numpy as np

from . import _kernels
# Unused here, but perfbench/tracing.py patches poly.pairwise_matrix.
from .core import pairwise_matrix  # noqa: F401
from .parties import (
    Direction,
    DestinationMode,
    ProblemInstance,
    SolveResult,
    SwitchPlan,
    feasible,
    infeasible,
)
from .rules import Condorcet, Scoring, margin_table, voter_margins, win_floor


def _require(instance: ProblemInstance, rule_types: tuple, direction: Direction, solver: str):
    if not isinstance(instance.rule, rule_types):
        names = " or ".join(t.__name__ for t in rule_types)
        raise ValueError(f"{solver} needs a {names} rule")
    if instance.direction is not direction:
        raise ValueError(f"{solver} solves {direction.value} instances only")


def _leads(instance: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """p's (l, m) per-voter leads (``rules.voter_margins``) and how far each
    lead may fall while p still wins, ``sizes @ leads - rules.win_floor``:
    >= 0, as p wins initially."""
    rule, election = instance.rule, instance.election
    leads = voter_margins(rule, election.ranks, instance.p)
    return leads, election.sizes @ leads - win_floor(rule, instance.model)


def min_scoring(instance: ProblemInstance) -> SolveResult:
    """Exact MIN for positional scoring rules (``_min_greedy``)."""
    _require(instance, (Scoring,), Direction.MIN, "min_scoring")
    return _min_greedy(instance, "min_scoring")


def min_condorcet(instance: ProblemInstance) -> SolveResult:
    """Exact MIN for the Condorcet rule: ``_min_greedy`` over +-1 leads.

    A switch from a +1 party into a -1 party closes the (p, rival) margin by
    2, the most any switch can, so the count is ceil(margin / 2).
    """
    _require(instance, (Condorcet,), Direction.MIN, "min_condorcet")
    return _min_greedy(instance, "min_condorcet")


def _min_greedy(instance: ProblemInstance, solver: str) -> SolveResult:
    """Fewest switches that end p's win: p's lead over some rival c falls
    below s, by at least ``need = budget + 1`` (``_leads``).

    Lemma.  Moving a voter from party q into party d closes p's lead over c,
    ``sizes @ leads[:, c]``, by ``leads[q, c] - leads[d, c]``.  So for each
    rival c some plan of fewest switches moves every switcher into one party
    d_c of lowest ``leads[d_c, c]``, in either destination mode.  Proof: send
    each switcher of any plan into d_c instead, and drop those leaving d_c.
    A kept switcher from q now closes ``leads[q, c] - leads[d_c, c]``, at
    least as much as before; a dropped one closed at most 0.  No party sends
    more voters, so the new plan is valid, no larger, and closes the lead.

    The count for c is then the fewest voters whose gains into d_c reach
    need[c], largest gains first.  ``_kernels.min_switch_counts`` finds it
    for every rival from one histogram of voters per (rival, lead level),
    which it fills straight from the election's ranks, one cache-sized block
    of parties at a time, through the bins of the rule's lead table
    (``rules.margin_table``): at most 2m - 1 distinct entries for plurality,
    veto, r-approval and Borda, 3 for Condorcet.  The same histogram gives p's
    lead over each rival, so no (l, m) lead array is built.  Only the chosen
    rival's leads are formed, and its parties sorted by falling lead and ties
    by id, to build its plan.  Cost: O(l·m + m·|D|) for the |D| distinct
    entries of the lead table, plus one O(l log l) sort for the witness.
    Only the returned plan is built and checked.
    """
    ranks, sizes = instance.election.ranks, instance.election.sizes
    p, m = instance.p, ranks.shape[1]
    table = margin_table(instance.rule, m)
    levels, bins = np.unique(table, return_inverse=True)  # levels.take(bins) == table
    win = np.full(m, win_floor(instance.rule, instance.model))
    counts = _kernels.min_switch_counts(ranks, sizes, p, win, bins, levels)
    counts[p] = -1  # p's own lead is 0: nothing to close
    usable = counts >= 0
    if not usable.any():
        return infeasible(solver)
    rival = int(np.where(usable, counts, np.iinfo(np.int64).max).argmin())
    value = int(counts[rival])
    column = table.take(ranks[:, p] * m + ranks[:, rival])
    plan = _greedy_plan(sizes, np.argsort(-column, kind="stable"), int(column.argmin()), value)
    return feasible(instance, value, plan, solver)


def _greedy_plan(sizes, order, dest, value) -> SwitchPlan:
    """The greedy's moves into ``dest``: parties in ``order``, each in full
    until ``value`` voters move.  The count is reached while the gains are
    still positive, so every source has a higher lead than ``dest``."""
    reach = np.minimum(np.cumsum(sizes[order]), value)
    if reach[-1] != value:
        raise RuntimeError(f"greedy plan reconstruction placed {reach[-1]} of {value}")
    taken = reach.copy()
    taken[1:] -= reach[:-1]
    used = np.flatnonzero(taken)
    moves = zip(order[used].tolist(), [dest] * used.size, taken[used].tolist())
    return SwitchPlan(moves=tuple(moves))


def max_linear(instance: ProblemInstance) -> SolveResult:
    """Exact MAX for any scoring vector and for Condorcet, in either
    destination mode.

    Both rules are linear in the party sizes: one voter of party q adds
    ``leads[q, c]`` to p's lead over c (``_leads``).  p still wins while
    every lead is at least s (``rules.win_floor``).

    * One destination (``_max_into_rows``): moving one voter from q into d
      lowers the leads by cost = leads[q] - leads[d], which may take either
      sign.  So MAX is the largest number of moves whose summed costs stay
      within the budgets ``sizes @ leads - s``: a maximum packing with
      signed costs (``_max_pack``), one per distinct lead row.  A rival
      binds only if some cost on it is positive; the others' leads never
      fall, and their budgets are >= 0 as p wins initially.
    * Multiple destinations (``_max_final_sizes``): a plan matters only
      through the parties' final sizes, so MAX is one packing over the
      final totals of the distinct lead rows per size bound, bisected.

    Each packing visits fewer than 2 * prod(caps + 1) nodes
    (``_max_into_rows``): polynomial for a fixed number of candidates, in
    the voter counts written out in unary, and exponential in the number of
    counts in the worst case, as the NP-hardness of Borda MAX requires.
    """
    _require(instance, (Scoring, Condorcet), Direction.MAX, "max_linear")
    if instance.destination_mode is DestinationMode.ONE:
        return _max_into_rows(instance, "max_linear")
    return _max_final_sizes(instance, "max_linear")


def max_r_approval(instance: ProblemInstance) -> SolveResult:
    """Exact one-destination MAX for 0/1 scoring vectors (plurality, veto,
    r-approval): ``max_linear``'s packings into each lead row
    (``_max_into_rows``).  A voter's lead row is fixed by the r candidates
    its party approves, so there are K <= min(l, C(m, r)) merged rows and at
    most one ``_max_pack`` call per row: polynomial for fixed m.
    """
    _require(instance, (Scoring,), Direction.MAX, "max_r_approval")
    if instance.destination_mode is not DestinationMode.ONE:
        raise ValueError("max_r_approval handles the one-destination mode only")
    if set(instance.rule.vector) - {0, 1}:
        raise ValueError("max_r_approval needs a 0/1 approval-style scoring vector")
    return _max_into_rows(instance, "max_r_approval")


def _max_into_rows(instance: ProblemInstance, solver: str) -> SolveResult:
    """One-destination MAX for a linear rule, one packing per distinct lead
    row (``max_linear``, ``max_r_approval``).

    Parties with the same lead row are interchangeable, so they are merged
    into one row j of caps[j] voters, and only one destination per row is
    solved: its smallest party, then the lowest id, which keeps the lowest-id
    maximiser over all parties.  Into destination d, row j's cost is
    leads[j] - leads[d], and the most switches are the other voters of d's
    row plus the largest packing.  A row whose costs are all <= 0 moves in
    full: moving it never lowers a lead.  So the budgets left after those
    rows move are at least ``_leads``', which are >= 0, and zero
    counts always fit the packing.

    Complexity: at most one ``_max_pack`` call per distinct row, over K <=
    min(l, m!) merged rows and at most m - 1 constraints.  Destinations are
    tried smallest first.  A row whose N - size(d) cannot beat the best value
    so far (or tie it from a lower id) is skipped, and the call's floor is
    what the row must pack to do so, so a row that cannot is pruned at its
    root.  The branch and bound splits count intervals into non-empty
    halves, so each call visits fewer than 2 * prod(caps + 1) nodes of
    polynomial work each: polynomial for a fixed number of candidates.
    """
    leads, budget = _leads(instance)
    sizes = instance.election.sizes
    total = int(sizes.sum())
    members, row_leads = _ballot_rows(leads)
    sizes_l = sizes.tolist()
    dest_of = [min(ids, key=sizes_l.__getitem__) for ids in members]  # smallest, then lowest id
    caps = np.array([sum(sizes_l[q] for q in ids) for ids in members], dtype=np.int64)

    best_value, best_dest, best = 0, -1, None  # best: (row, packed rows, moved counts)
    for j in sorted(range(len(members)), key=lambda j: (sizes_l[dest_of[j]], dest_of[j])):
        dest = dest_of[j]
        tie = int(dest < best_dest)  # a tie with a later id must not replace the incumbent
        if total - sizes_l[dest] + tie <= best_value:
            continue
        cost = row_leads - row_leads[j]
        packed = (cost > 0).any(axis=1) & (caps > 0)  # row j's costs are 0
        rest = budget - caps[~packed] @ cost[~packed]  # every other row moved
        binding = (cost[packed] > 0).any(axis=0)
        base = total - sizes_l[dest] - int(caps[packed].sum())  # moving no packed voter
        floor = best_value - base - tie
        moved = _max_pack(cost[packed][:, binding], rest[binding], caps[packed], floor)
        value = base + int(moved.sum())
        if value + tie > best_value:
            best_value, best_dest, best = value, dest, (j, packed, moved)
    out = [0] * len(sizes_l)
    if best is not None:
        j, packed, moved = best
        totals = caps.copy()  # moved per row: every voter outside the packed rows and dest
        totals[packed] = moved
        totals[j] -= sizes_l[best_dest]
        room = [(q != best_dest) * size for q, size in enumerate(sizes_l)]
        out = _fill(members, totals.tolist(), room)
    into = [0] * len(out)
    into[best_dest] = sum(out)  # all 0 when nobody moves
    return feasible(instance, best_value, SwitchPlan(moves=_shift_moves(out, into)), solver)


def _ballot_rows(leads):
    """The distinct rows of ``leads`` in order of first appearance: the
    party ids of each, and the (K, m) rows.  Parties of one row are
    interchangeable under a linear rule."""
    merged: dict[bytes, list[int]] = {}
    for q, row in enumerate(leads):
        merged.setdefault(row.tobytes(), []).append(q)
    members = list(merged.values())
    return members, leads[[ids[0] for ids in members]]


def max_shift(instance: ProblemInstance) -> SolveResult:
    """Exact multi-destination MAX under any rule when no party holds more
    than half of the n voters: every voter moves, so the value is n.

    No plan moves more than the n voters, so n is an upper bound.  The
    final sizes s' = s keep p's win under any rule and either winner model,
    and every party's s_q + s'_q = 2 s_q is at most n, so
    ``_max_final_sizes`` moves all n voters: a cyclic shift by the largest
    party size (``_shift_moves``), in at most 2l - 1 moves built in O(l).
    """
    multi = instance.destination_mode is DestinationMode.MULTI
    if instance.direction is not Direction.MAX or not multi:
        raise ValueError("max_shift solves multi-destination max instances only")
    sizes = instance.election.sizes.tolist()
    top, n = max(sizes), sum(sizes)
    if 2 * top > n:
        raise ValueError(f"max_shift needs every party at most half the voters: {top} of {n}")
    return _max_final_sizes(instance, "max_shift")


def _max_final_sizes(instance: ProblemInstance, solver: str) -> SolveResult:
    """Multi-destination MAX from the parties' final sizes s' (``max_shift``,
    ``max_linear``).  A plan changes the election only through s'.

    Lemma (bound).  At given s', let t = max_q (s_q + s'_q); the most voters
    that can move is n - max(0, t - n).  Only one party z can have s_z +
    s'_z > n, because the sums over all parties total 2n.  z's leavers fit
    only into the n - s'_z places of the other parties, so z keeps at least
    t - n voters.  Keeping exactly r_z = max(0, t - n) there and moving
    every other voter is possible: out = s - r and into = s' - r each count
    N = n - r_z voters, and out_q + into_q <= N for every q (2n - t for z;
    any other party's s_q + s'_q is at most what z's t leaves of the 2n),
    so ``_shift_moves`` places them.

    So MAX is n - max(0, t* - n), t* the least t over the s' under which p
    wins.
    * If 2M <= n for the largest size M, s' = s gives t <= n: the value is
      n under any rule, with no packing.
    * Otherwise (a linear rule: ``max_shift`` refuses these files) parties
      with equal lead rows merge into K <= min(l, m!) rows
      (``_ballot_rows``).  p wins at s' exactly when the row totals y meet
      y @ rows >= ``win_floor`` over every rival, and s' fits t exactly when
      y_j <= sum over row j's parties of (t - s_q).  One ``_max_pack`` call
      asks whether some y with sum n fits: a sum row y.sum() <= n and the
      floor n - 1.  It is asked first at t = n, where the value is n, then
      by bisection over (n, 2M], as the caps grow with t and today's totals
      fit at t = 2M.  Each row's y_j fills its parties, lowest id first,
      each up to t - s_q.

    Complexity: at most 1 + log2(2M - n) packings over K counts and m
    constraints, and O(l) for the plan.
    """
    sizes = instance.election.sizes.tolist()
    n, top = sum(sizes), max(sizes)
    if 2 * top <= n:  # s' = s
        return feasible(instance, n, SwitchPlan(moves=_shift_moves(sizes, sizes)), solver)
    members, rows = _ballot_rows(voter_margins(instance.rule, instance.election.ranks, instance.p))
    rivals = np.arange(rows.shape[1]) != instance.p
    a = np.hstack([-rows[:, rivals], np.ones((len(members), 1), dtype=rows.dtype)])
    budget = np.append(np.full(rivals.sum(), -win_floor(instance.rule, instance.model)), n)
    width = np.array([len(ids) for ids in members])
    today = np.array([sum(sizes[q] for q in ids) for ids in members])
    # No fit below t = n, which is asked first; today's totals fit at t.
    low, t, totals, mid = n - 1, 2 * top, today, n
    while t - low > 1:
        y = _max_pack(a, budget, mid * width - today, n - 1)
        low, t, totals = (mid, t, totals) if y is None or y.sum() < n else (low, mid, y)
        mid = (low + t) // 2
    final = _fill(members, totals.tolist(), [t - size for size in sizes])
    kept = [max(0, size + f - n) for size, f in zip(sizes, final)]
    out = [size - r for size, r in zip(sizes, kept)]
    into = [f - r for f, r in zip(final, kept)]
    return feasible(instance, n - sum(kept), SwitchPlan(moves=_shift_moves(out, into)), solver)


def _fill(members, totals, room):
    """Each row's total spread over its party ids ``members``, lowest id
    first, each party up to its ``room``."""
    out = [0] * len(room)
    for ids, total in zip(members, totals):
        for q in ids:
            out[q] = min(total, room[q])
            total -= out[q]
    return out


def _shift_moves(out, into):
    """Moves that send ``out[q]`` voters from and ``into[q]`` voters into
    each party q, none within a party.

    Lemma (shift).  Suppose out[q] + into[q] <= N for every q, where N =
    sum(out) = sum(into).  List the leaving voters party by party at
    positions 0..N - 1, and the places they fill likewise, and send
    position i to place (i + h) mod N, where h = max_q (B[q+1] - A[q]) for
    the prefix sums A of out and B of into.  Party q's voters, positions
    A[q]..A[q+1] - 1, are clear of its own places exactly when
    B[q+1] - A[q] <= h <= B[q] + N - A[q+1].  This h meets every lower end
    by its choice.  It meets every upper end, as B[r+1] - A[r] <= B[q] +
    N - A[q+1] for all r and q: at r = q the two sides differ by
    N - out[q] - into[q] >= 0, and at r != q by at most N of the counts.
    When out = into, h is the largest count.

    The moves are the runs of positions with one (source, destination).
    Their boundaries are the party starts A and the place starts shifted
    back, B - h, so one merged walk over the place runs, twice around the
    circle, builds them in O(l), source by source.  The party q that sets h
    has a boundary of both at A[q], so there are at most nnz(out) +
    nnz(into) - 1 moves, each of a positive count.
    """
    shift = max(b - a for a, b in zip(accumulate(out, initial=0), accumulate(into)))
    runs = iter([(d, places) for d, places in enumerate(into) if places] * 2)  # twice around
    moves, room = [], 0
    # Source -1 takes the first h places, so position i fills place (i + h) mod N.
    for source, left in [(-1, shift), *enumerate(out)]:
        while left:
            if not room:
                dest, room = next(runs)
            count = left if left < room else room
            if source >= 0:
                moves.append((source, dest, count))
            left -= count
            room -= count
    return tuple(moves)


def _max_pack(a, budget, caps, floor=-1):
    """Counts 0 <= x <= caps of largest sum with a.T @ x <= budget, for
    signed costs a (one row per count); None exactly when no counts fit.
    Only a sum above ``floor`` counts as found.  When none exists, the
    result is counts that fit with a sum of at most ``floor``, or None: zero
    counts whenever every budget is >= 0.

    Each constraint is first divided by the gcd of its costs, its budget
    rounded down: exact for integer counts, and it closes the gap that,
    say, Condorcet's costs of 0 and +-2 against an odd budget leave between
    the relaxation and the integer optimum, which the search would
    otherwise exhaust count by count.

    Branch and bound over per-row count intervals against an incumbent.  A
    node's slack is the budget left with every count at its interval's low
    end.  A node whose slack cannot be restored even by every negative cost
    taken in full is pruned.  With non-negative slack the node fills
    greedily, cheapest rows first (``_greedy_fill``), and stops if that
    fills every interval.  Next it prunes when a single-constraint
    (fractional knapsack) bound, then the dual bound of its linear
    relaxation (``_lp_relaxation``, ``_dual_bound``), shows it cannot beat
    the incumbent, or when the relaxation is infeasible.  The relaxation
    solves each node from its own dual start, every count at its room, so a
    negative slack needs no separate phase.  Then it rounds the relaxation
    down, refills greedily from there if that fits, and splits a fractional
    count, or halves the widest interval when the relaxation is integral.
    Both halves are non-empty, so the search is exhaustive and exact: a
    one-point interval whose slack is >= 0 is filled, and any other is
    pruned.  The first counts found of sum caps.sum() are returned, as no
    later node could replace them.
    """
    scale = np.gcd.reduce(a, axis=0)
    scale[scale == 0] = 1
    a, budget = a // scale, budget // scale
    negative = np.minimum(a, 0)
    if (budget < caps @ negative).any():  # no counts fit
        return None
    if (caps @ a <= budget).all():  # every voter fits
        return caps
    order = np.argsort(a.sum(axis=1), kind="stable").tolist()
    rows = a.tolist()
    knapsack = _knapsack_prices(a)
    best = np.zeros_like(caps) if (budget >= 0).all() else None
    best_sum = floor
    limit = caps.sum()
    stack = [(np.zeros_like(caps), caps)]
    while stack and best_sum < limit:
        low, high = stack.pop()
        slack = budget - low @ a
        room = high - low
        if (slack < room @ negative).any():
            continue
        if (slack >= 0).all():
            fill = low + _greedy_fill(rows, order, room, slack, np.zeros_like(room))
            if fill.sum() > best_sum:
                best, best_sum = fill, fill.sum()
            if (fill == high).all() or best_sum >= limit:  # this node's optimum, or all of them
                continue
        need = best_sum - low.sum()  # a subtree must pack more than this
        bound = _dual_bound(a, room, slack, knapsack)
        if bound > need:
            relaxed = _lp_relaxation(a, room, slack)
            if relaxed is None:
                continue
            x, price = relaxed
            bound = min(bound, _dual_bound(a, room, slack, price[None]))
        if bound <= need:
            continue
        start = np.minimum(room, (x + 1e-9).astype(np.int64))
        left = slack - start @ a
        if (left >= 0).all():  # the rounded relaxation fits
            fill = low + _greedy_fill(rows, order, room, left, start)
            if fill.sum() > best_sum:
                best, best_sum = fill, fill.sum()
        if best_sum - low.sum() >= bound:
            continue
        frac = np.minimum(x % 1, 1 - x % 1)
        j = int(frac.argmax())
        if frac[j] > 1e-9:
            split = int(x[j])
        else:  # integral relaxation that rounding missed: halve the widest interval
            j = int(room.argmax())
            split = int(room[j]) // 2
        up, down = low.copy(), high.copy()
        up[j] += split + 1
        down[j] = low[j] + split
        stack += [(low, down), (up, high)]  # the upper half first
    return best


def _knapsack_prices(a):
    """Prices e_c / w for each constraint c and each weight w among 1 and
    the positive costs: the single-constraint (fractional knapsack) bounds.
    In t = 1 / w, a constraint's dual bound (``_dual_bound``) is convex and
    piecewise linear with its breaks at t = 1 / a[j, c], so over every
    integer weight from 1 to max(a) it is least at one of these weights.
    A set dedupes them: ``np.unique`` would import ``numpy.ma`` (about 2 MB
    and 18 ms) on a process's first call."""
    weights = np.fromiter({1, *a[a > 0].tolist()}, dtype=np.float64)
    return (np.eye(a.shape[1]) / weights[:, None, None]).reshape(-1, a.shape[1])


def _greedy_fill(rows, order, room, left, start):
    """Counts within ``room`` that extend ``start``, which leaves slack
    ``left`` >= 0, row by row in ``order``, each as far as the slack left
    allows.  Only positive costs limit a row; a negative one adds slack."""
    counts, room, left = start.tolist(), room.tolist(), left.tolist()
    for j in order:
        row = rows[j]
        take = min([room[j] - counts[j]] + [v // w for v, w in zip(left, row) if w > 0])
        if take:
            counts[j] += take
            left = [v - take * w for v, w in zip(left, row)]
    return np.array(counts, dtype=np.int64)


def _lp_relaxation(a, room, slack):
    """Linear relaxation of the packing: (fractional counts, prices), or
    None when it is infeasible.

    A bounded-variable dual simplex (``_dual_simplex``) solves max sum(x)
    subject to a.T @ x <= slack and 0 <= x <= room.  Its tableau has one row
    per constraint and one column per count and per slack variable.  It
    starts with every count nonbasic at its room and every slack variable
    basic, at ``slack - room @ a``.  Each count's reduced cost is then 1, the
    sign a count at its upper bound needs, so the start is dual feasible
    whatever the signs of the slack, and one phase serves every node.  The
    prices are the optimal duals, clipped at 0; only ``_dual_bound`` turns
    them into a bound, so rounding in the simplex cannot make a bound
    invalid.
    """
    n_counts, n_rows = a.shape
    tab = np.hstack([a.T, np.eye(n_rows)])
    upper = np.concatenate([room, np.full(n_rows, np.inf)])
    at_upper = np.arange(n_counts + n_rows) < n_counts
    basis = np.arange(n_counts, n_counts + n_rows)
    value = (slack - room @ a).astype(float)  # of the basic variables
    cost = at_upper.astype(float)  # reduced costs: 1 for each count, 0 for each slack
    if not _dual_simplex(tab, cost, upper, at_upper, basis, value):
        return None
    x = np.where(at_upper[:n_counts], room, 0.0)
    counted = basis < n_counts
    x[basis[counted]] = value[counted]
    return x, np.maximum(0.0, -cost[n_counts:])


def _dual_simplex(tab, cost, upper, at_upper, basis, value):
    """Bounded-variable dual simplex iterations, in place, from a dual
    feasible basis: a nonbasic variable's reduced cost is >= 0 at its upper
    bound and <= 0 at 0.  False when the relaxation is infeasible.

    Bland's rule: the leaving variable is the lowest basic index among the
    rows outside their bounds, and it leaves at the bound it breaks.  The
    entering variable is the lowest index among the nonbasic columns that
    move the row toward that bound at the least ratio |reduced cost| /
    |pivot|, which keeps every reduced cost's sign.  A row that no column
    can move toward its bound cannot meet it for any counts in the box.
    Counts of room 0 never enter: any reduced cost suits them.
    """
    eps = 1e-9
    while True:
        below, above = value < -eps, value > upper[basis] + eps
        rows = np.flatnonzero(below | above)
        if not rows.size:
            return True
        row = int(rows[basis[rows].argmin()])
        step = tab[row] if below[row] else -tab[row]  # per unit x_j falls, toward the bound
        movable = np.where(at_upper, step > eps, step < -eps) & (upper > 0)
        movable[basis] = False
        cols = np.flatnonzero(movable)
        if not cols.size:
            return False
        ratio = np.abs(cost[cols] / step[cols])
        col = int(cols[ratio <= ratio.min() + eps][0])
        target = 0.0 if below[row] else upper[basis[row]]
        delta = (value[row] - target) / tab[row, col]  # the entering variable's change
        value -= delta * tab[:, col]
        value[row] = (upper[col] if at_upper[col] else 0.0) + delta
        at_upper[basis[row]] = not below[row]
        at_upper[col] = False
        tab[row] /= tab[row, col]
        factors = tab[:, col].copy()
        factors[row] = 0.0
        tab -= np.outer(factors, tab[row])
        cost -= cost[col] * tab[row]
        basis[row] = col


def _dual_bound(a, room, slack, prices):
    """Upper bound on the largest packing within ``slack`` and ``room``.
    For any prices y >= 0, weak LP duality gives slack . y + sum_j room_j *
    max(0, 1 - (a y)_j), whatever the signs of a and slack; this is the
    least over the rows of ``prices``, rounded down.

    Each row is summed in floats, and its error is at most (k + 4) * 2^-52
    times the magnitude of its terms, k the length of its longest sum
    (Higham's gamma_k, doubled).  Where every row's error is within the
    1e-6 added before rounding down, the floats give the bound.  Otherwise
    (at about 10^8 voters and more) the rows that may be least are summed
    again in integers (``_exact_floor``), so floating-point error can never
    make the bound invalid: at 10^15 voters per party the float sums fell
    one below the exact floor."""
    bounds = prices @ slack + np.maximum(0.0, 1.0 - a @ prices.T).T @ room
    size = np.abs(slack) @ prices.T + 2.0 * (1.0 + np.abs(a) @ prices.T).T @ room
    error = size * ((max(a.shape) + 4) * 2.0**-52)
    if error.max() <= 1e-6:
        return math.floor(bounds.min() + 1e-6)
    top = (bounds + error).min()
    return min(_exact_floor(a, room, slack, y) for y in prices[bounds - error <= top])


def _exact_floor(a, room, slack, y):
    """floor(slack . y + sum_j room_j * max(0, 1 - (a y)_j)) in Python
    integers: every float price is an integer over a power of two."""
    ratios = [price.as_integer_ratio() for price in y.tolist()]
    den = max(d for _, d in ratios)
    y = [n * (den // d) for n, d in ratios]
    total = sum(map(operator.mul, slack.tolist(), y))
    for row, r in zip(a.tolist(), room.tolist()):
        total += r * max(0, den - sum(map(operator.mul, row, y)))
    return total // den
