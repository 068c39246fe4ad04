"""Exact polynomial solvers.

* ``min_scoring`` and ``min_condorcet`` — two MIN entry points over one
  greedy (``_min_greedy``), in either destination mode.  Both rules are
  linear in the party sizes: one voter of party q puts p ahead of rival c by
  ``leads[q, c]`` (``search._party_leads``), the score gap for a scoring
  rule and +-1 for Condorcet.  Each rival's best destination is its
  lowest-lead party, so one pass over all rivals finds the fewest switches.
* ``max_r_approval`` — one-destination MAX for 0/1 scoring vectors
  (plurality, veto, any r-approval), one destination per approval row.  An
  exchange lemma shows that the best plan retains only voters approving p,
  so each destination row is one maximum packing (``_max_pack``): as many
  p-approving voters as possible move into it while p's lead over each
  rival, from the same lead matrix, stays a win.  The packing is a branch
  and bound whose linear relaxation (``_lp_relaxation``) is a
  bounded-variable simplex with one row per rival that can bind and one
  column per merged source row and per slack.  On those rivals moving a
  voter never raises p's lead, so a search node whose own counts fit has
  non-negative budgets left, the all-slack basis is feasible, and no
  phase 1 is needed.  The search is exponential only in
  the number of distinct rows, at most C(m, r), so the solver is
  polynomial for fixed m.

Ties resolve reproducibly.  MIN takes the lowest rival among those that need
the fewest switches, then that rival's lowest-id party of lowest lead;
``max_r_approval`` takes the lowest-id destination among the best.
Each solver checks the plan it returns with ``check_witness`` and raises
``RuntimeError`` on a rejection, which would be a solver bug.
"""

from __future__ import annotations

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
    check_witness,
    feasible,
    infeasible,
)
from .rules import Condorcet, Scoring, WinnerModel
from .search import _party_leads, _party_rows


def _require(instance: ProblemInstance, rule_type, direction: Direction, solver: str):
    if not isinstance(instance.rule, rule_type):
        raise ValueError(f"{solver} needs a {rule_type.__name__} rule")
    if instance.direction is not direction:
        raise ValueError(f"{solver} solves {direction.value} instances only")


def min_scoring(instance: ProblemInstance) -> SolveResult:
    """Exact MIN for positional scoring rules (``_min_greedy``)."""
    _require(instance, Scoring, Direction.MIN, "min_scoring")
    return _min_greedy(instance, int(instance.model is WinnerModel.COWINNER), "min_scoring")


def min_condorcet(instance: ProblemInstance) -> SolveResult:
    """Exact MIN for the Condorcet rule: ``_min_greedy`` over +-1 leads.

    A switch from a +1 party into a -1 party closes the (p, rival) margin by
    2, the most any switch can, so the count is ceil(margin / 2).
    """
    _require(instance, Condorcet, Direction.MIN, "min_condorcet")
    return _min_greedy(instance, 0, "min_condorcet")


def _min_greedy(instance: ProblemInstance, strict: int, solver: str) -> SolveResult:
    """Fewest switches that close p's lead over some rival c to -strict.

    Lemma.  Moving a voter from party q into party d closes p's lead over c,
    ``sizes @ leads[:, c]``, by ``leads[q, c] - leads[d, c]``.  So for each
    rival c some plan of fewest switches moves every switcher into one party
    d_c of lowest ``leads[d_c, c]``, in either destination mode.  Proof: send
    each switcher of any plan into d_c instead, and drop those leaving d_c.
    A kept switcher from q now closes ``leads[q, c] - leads[d_c, c]``, at
    least as much as before; a dropped one closed at most 0.  No party sends
    more voters, so the new plan is valid, no larger, and closes the lead.

    The count for c is then the fewest voters whose gains into d_c reach the
    lead plus strict, largest gains first; ``_kernels.min_switch_counts``
    finds it for every rival from one stable column-wise sort.  Only the
    returned plan is built and checked; a rejection raises ``RuntimeError``.
    """
    leads = np.asfortranarray(_party_leads(instance))  # each column contiguous
    sizes = instance.election.sizes
    need = sizes @ leads + strict  # a tie suffices unless strict
    # Keys in the narrowest type: numpy sorts int8 and int16 stably by radix.
    span = max(-int(leads.min()), int(leads.max()))
    keys = np.negative(leads.T, dtype=np.min_scalar_type(-1 - span))
    order = np.argsort(keys, axis=1, kind="stable").T
    counts = _kernels.min_switch_counts(leads, sizes, order, need)
    counts[instance.p] = -1  # p's own column is 0: nothing to close
    usable = counts >= 0
    if not usable.any():
        return infeasible(solver)
    rival = int(np.where(usable, counts, np.iinfo(np.int64).max).argmin())
    value = int(counts[rival])
    dest = int(leads[:, rival].argmin())
    plan = _greedy_plan(sizes, order[:, rival], dest, value)
    check = check_witness(instance, plan, k=value)
    if not check.ok:
        raise RuntimeError(
            f"{solver} built a rejected plan against rival {rival}: {check.reason}"
        )
    return feasible(value, plan, solver)


def _greedy_plan(sizes, order, dest, value) -> SwitchPlan:
    """The greedy's moves into ``dest``: parties in ``order``, each in full
    until ``value`` voters move.  The count is reached while the gains are
    still positive, so every source has a higher lead than ``dest``."""
    taken = np.diff(np.minimum(np.cumsum(sizes[order]), value), prepend=0)
    if taken.sum() != value:
        raise RuntimeError(f"greedy plan reconstruction placed {taken.sum()} of {value}")
    used = np.flatnonzero(taken)
    moves = zip(order[used].tolist(), [dest] * used.size, taken[used].tolist())
    return SwitchPlan(moves=tuple(moves))


def max_r_approval(instance: ProblemInstance) -> SolveResult:
    """Exact one-destination MAX for 0/1 scoring vectors (plurality, veto,
    r-approval).

    All switchers adopt the destination's approval row D, so the final
    election depends on the destination only through D: the fewest voters
    that must stay put (be retained) is the same for every party holding D,
    and the value is N - size(dest) - T, N being the number of voters and T
    the number retained.  One destination per distinct row is solved, the
    smallest party of that row (then the lowest id), which keeps the
    lowest-id maximiser over all parties; a row whose N - size(dest) cannot
    beat the best value so far is skipped.  Sources whose row is D always
    move in full, since moving them changes no score and lowers T.

    Lemma.  Some optimal plan retains only voters approving p.  If D
    approves p, moving a retained voter of row S into D changes each (p, c)
    margin by 1 - [c in D] + [c in S] when S does not approve p, which is
    never negative, and lowers T; so some optimum into D retains only
    p-approvers.  If D does not approve p, swapping a moved p-approver with
    a retained voter who does not approve p keeps T and changes each margin
    by 1 - [c in S] + [c in S'] >= 0, so some optimum into D retains only
    p-approvers or all of them.  The second kind is never the answer: a
    destination d approving p does strictly better.  Under the co-winner
    model, moving everyone else into d keeps p a co-winner.  Under the
    unique-winner model, p's initial win gives, for each rival x in d's
    row, a voter approving p but not x; retaining those (at most r - 1) and
    moving everyone else into d keeps p the unique winner.  Either way d is
    worth at least N - P, P being the number of p-approving voters, while
    the second kind retains more than P voters.  (Some voter approves p,
    since p initially wins, unless no voter approves anyone; then T = 0 is
    feasible into every destination.)

    Packing form.  Let s = 1 under the unique-winner model and 0 under the
    co-winner model.  By the lemma, move every voter who does not approve p
    and every voter of row D, and merge the other p-approving parties by
    row: merged source row j holds caps[j] voters.  With all of them
    retained, p's lead over each candidate is (``_party_leads``)

        lead = caps @ leads[src] + (N - caps.sum()) * leads[dest],

    and moving x[j] more voters of row j into D lowers it by cost.T @ x,
    where cost[j] = leads[j] - leads[dest].  Row j approves p, so cost[j, c]
    is 1 - [c in j] - leads[dest, c]: 0, 1 or 2 where leads[dest, c] <= 0,
    and -[c in j] <= 0 where leads[dest, c] = 1.  Those other rivals never
    bind.  Their lead is smallest with every source voter retained, where it
    is N minus the source voters approving c, and that is at least s: under
    the unique-winner model, p's initial win needs some voter who approves p
    but not c.  So, over the binding rivals B (c != p with
    leads[dest, c] <= 0), the optimum into D is

        max sum(x)  subject to  cost[:, B].T @ x <= lead[B] - s,  0 <= x <= caps,

    worth N - size(dest) - caps.sum() + sum(x).  A negative budget means no
    plan into D of the kind the lemma keeps.  Costs >= 0 make the packing
    downward closed, so rounding a solution down keeps it feasible.

    Complexity: at most one ``_max_pack`` call per distinct row, over K
    merged rows (K <= C(m - 1, r - 1)) and at most m - 1 constraints.  The
    call's floor is what the row must pack to beat the best value so far,
    so a row that cannot is pruned at its root.  The branch and bound splits
    count intervals into non-empty halves, so it visits fewer than
    2 * prod(caps + 1) <= 2 * (N + 1)^K nodes of polynomial work each: the
    solver is polynomial for fixed m.

    The returned plan is checked with ``check_witness`` before it leaves the
    solver; a rejection is a solver bug and raises ``RuntimeError``.
    """
    _require(instance, Scoring, Direction.MAX, "max_r_approval")
    if instance.destination_mode is not DestinationMode.ONE:
        raise ValueError("max_r_approval handles the one-destination mode only")
    if set(instance.rule.vector) - {0, 1}:
        raise ValueError("max_r_approval needs a 0/1 approval-style scoring vector")
    rows = _party_rows(instance)
    leads = _party_leads(instance)
    sizes = instance.election.sizes.tolist()
    total = sum(sizes)
    p = instance.p
    s = 1 if instance.model is WinnerModel.UNIQUE else 0

    dest_of_row: dict[bytes, int] = {}
    groups: dict[bytes, list[int]] = {}  # p-approving rows, merged
    for q, size in enumerate(sizes):
        key = rows[q].tobytes()
        if size < sizes[dest_of_row.setdefault(key, q)]:
            dest_of_row[key] = q
        if rows[q, p] and size > 0:
            groups.setdefault(key, []).append(q)
    members = list(groups.values())
    group_leads = leads[[ids[0] for ids in members]]
    group_caps = np.array([sum(sizes[q] for q in ids) for ids in members], dtype=np.int64)

    best_value = 0
    best_plan = SwitchPlan(moves=())
    for dest in sorted(dest_of_row.values()):
        if total - sizes[dest] <= best_value:
            continue
        src = np.array([key != rows[dest].tobytes() for key in groups], dtype=bool)
        caps = group_caps[src]
        lead = caps @ group_leads[src] + (total - caps.sum()) * leads[dest]
        binding = leads[dest] <= 0
        binding[p] = False
        cost = group_leads[src] - leads[dest]
        base = total - sizes[dest] - int(caps.sum())  # the value of moving no source voter
        moved = _max_pack(cost[:, binding], lead[binding] - s, caps, best_value - base)
        if moved is None:
            continue
        value = base + int(moved.sum())
        if value > best_value:
            best_value = value
            sources = [ids for ids, keep in zip(members, src) if keep]
            best_plan = SwitchPlan(
                moves=_moves_into(dest, sizes, sources, (caps - moved).tolist())
            )
    check = check_witness(instance, best_plan, k=best_value)
    if not check.ok:
        raise RuntimeError(
            f"max_r_approval built a rejected plan of {best_value} switches: "
            f"{check.reason}"
        )
    return feasible(best_value, best_plan, "max_r_approval")


def _moves_into(dest, sizes, members, retained):
    """Moves of every voter into ``dest`` except the ``retained`` count of
    each merged row, whose party ids ``members`` lists; the lowest party ids
    move first."""
    moved = {q: sizes[q] for q in range(len(sizes)) if q != dest and sizes[q] > 0}
    for ids, stay in zip(members, retained):
        for q in reversed(ids):
            keep = min(sizes[q], stay)
            moved[q] -= keep
            stay -= keep
    return tuple((q, dest, n) for q, n in sorted(moved.items()) if n > 0)


def _max_pack(a, budget, caps, floor=-1):
    """Counts 0 <= x <= caps of largest sum with a.T @ x <= budget, for
    costs a >= 0 (one row per count); None when some budget is negative,
    since then not even x = 0 fits.  Only a sum above ``floor`` counts as
    found: when none exists, the counts returned fit but sum to at most
    ``floor``.

    Branch and bound over per-row count intervals against an incumbent.  A
    node fills greedily, cheapest rows first (``_greedy_fill``).  Unless that
    fills every interval, it prunes when a single-constraint (fractional
    knapsack) bound, then the dual bound of its linear relaxation
    (``_lp_relaxation``, ``_dual_bound``), shows it cannot beat the
    incumbent; then it rounds the relaxation down, refills greedily, and
    splits a fractional count, or halves the widest interval when the
    relaxation is integral.  Both halves are non-empty, so the search is
    exhaustive and exact.
    """
    if (budget < 0).any():
        return None
    if (caps @ a <= budget).all():  # every voter fits
        return caps
    order = np.argsort(a.sum(axis=1), kind="stable")
    weights = np.arange(1.0, a.max() + 1)
    knapsack = (np.eye(a.shape[1]) / weights[:, None, None]).reshape(-1, a.shape[1])  # e_c / w
    best, best_sum = np.zeros_like(caps), floor
    stack = [(np.zeros_like(caps), caps)]
    while stack:
        low, high = stack.pop()
        slack = budget - low @ a
        if (slack < 0).any():
            continue
        room = high - low
        fill = low + _greedy_fill(a, room, slack, order, np.zeros_like(room))
        if fill.sum() > best_sum:
            best, best_sum = fill, fill.sum()
        if (fill == high).all():  # every interval filled: this node's optimum
            continue
        need = best_sum - low.sum()  # a subtree must pack more than this
        bound = _dual_bound(a, room, slack, knapsack)
        if bound > need:
            x, price = _lp_relaxation(a, room, slack)
            bound = min(bound, _dual_bound(a, room, slack, price[None]))
        if bound <= need:
            continue
        start = np.minimum(room, (x + 1e-9).astype(np.int64))
        fill = low + _greedy_fill(a, room, slack, order, start)
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


def _greedy_fill(a, room, slack, order, start):
    """Counts within ``room`` that extend ``start`` (zero counts, if
    ``start`` overdraws ``slack``) row by row in ``order``, each as far as
    the slack left allows."""
    left = slack - start @ a
    counts = start.copy()
    if (left < 0).any():
        counts[:] = 0
        left = slack
    counts, room, left = counts.tolist(), room.tolist(), left.tolist()
    for j, row in zip(order.tolist(), a[order].tolist()):
        take = min([room[j] - counts[j]] + [v // w for v, w in zip(left, row) if w])
        if take:
            counts[j] += take
            left = [v - take * w for v, w in zip(left, row)]
    return np.array(counts, dtype=np.int64)


def _lp_relaxation(a, room, slack):
    """Linear relaxation of the packing: (fractional counts, prices).

    A bounded-variable primal simplex solves max sum(x) subject to
    a.T @ x <= slack and 0 <= x <= room.  Its tableau has one row per
    constraint and one column per count and per slack variable; a count at
    its room stays nonbasic at that bound.  slack >= 0 makes the all-slack
    basis feasible, so there is no phase 1.  Bland's rule picks both the
    entering and the leaving variable.  The prices are the optimal duals,
    clipped at 0; only ``_dual_bound`` turns them into a bound, so rounding
    in the simplex cannot make a bound invalid.
    """
    n_counts, n_rows = a.shape
    tab = np.hstack([a.T, np.eye(n_rows)])
    cost = np.concatenate([np.ones(n_counts), np.zeros(n_rows)])  # reduced costs
    upper = np.concatenate([room, np.full(n_rows, np.inf)])
    at_upper = np.zeros(n_counts + n_rows, dtype=bool)
    basis = np.arange(n_counts, n_counts + n_rows)
    value = slack.astype(float)  # of the basic variables
    eps = 1e-9
    while True:
        entering = np.flatnonzero(np.where(at_upper, cost < -eps, cost > eps))
        if not entering.size:
            break
        col = int(entering[0])
        step = -tab[:, col] if at_upper[col] else tab[:, col]  # basics fall by theta * step
        ratio = np.full(n_rows, np.inf)
        falls, rises = step > eps, step < -eps
        ratio[falls] = value[falls] / step[falls]
        ratio[rises] = (upper[basis[rises]] - value[rises]) / -step[rises]
        theta = min(ratio.min(), upper[col])
        if theta == np.inf:  # only rounding can leave an edge unbounded
            break
        ties = basis[ratio <= theta + eps].tolist()
        leaving = min(ties + [col] if upper[col] <= theta + eps else ties)
        value -= theta * step
        if leaving == col:  # the count moves to its other bound
            at_upper[col] = not at_upper[col]
            continue
        row = int(np.flatnonzero(basis == leaving)[0])
        at_upper[leaving] = step[row] < 0  # a count that rose to its room
        value[row] = upper[col] - theta if at_upper[col] else theta
        at_upper[col] = False
        tab[row] /= tab[row, col]
        factors = tab[:, col].copy()
        factors[row] = 0.0
        tab -= np.outer(factors, tab[row])
        cost -= cost[col] * tab[row]
        basis[row] = col
    x = np.where(at_upper[:n_counts], room, 0.0)
    counted = basis < n_counts
    x[basis[counted]] = value[counted]
    return x, np.maximum(0.0, -cost[n_counts:])


def _dual_bound(a, room, slack, prices):
    """Upper bound on the largest packing within ``slack`` and ``room``.
    For any prices y >= 0, weak LP duality gives slack . y + sum_j room_j *
    max(0, 1 - (a y)_j); this is the least over the rows of ``prices``,
    rounded down, so floating-point error can only weaken it."""
    bounds = prices @ slack + np.maximum(0.0, 1.0 - a @ prices.T).T @ room
    return int(bounds.min() + 1e-6)
