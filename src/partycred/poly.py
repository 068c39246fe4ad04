"""Exact solvers for the one-destination mode.

* ``min_scoring`` and ``min_condorcet`` — two MIN entry points over one
  greedy (``_min_greedy``).  Both rules are linear in the party sizes: one
  voter of party q puts p ahead of rival c by ``leads[q, c]``
  (``search._party_leads``), the score gap for a scoring rule and +-1 for
  Condorcet, and the greedy closes p's lead over each rival in turn.
* ``max_r_approval`` — 0/1 scoring vectors (plurality, veto, any
  r-approval), one destination per distinct approval row.  An exchange
  lemma shows that the best plan retains only voters approving p, so each
  destination is one scan over the retained total T, and each T is a
  budgeted packing over the merged approval rows.  The scan is linear in the
  number of voters, and each packing search (branch and bound under a
  linear-relaxation bound) is exponential only in the number of distinct
  rows, at most C(m, r), so the solver is polynomial for fixed m.

Ties between equally good (rival, destination) choices resolve to the lowest
candidate index, then the lowest party id, so outputs are reproducible.
Each solver checks the plan it returns with ``check_witness`` and raises
``RuntimeError`` on a rejection, which would be a solver bug.
"""

from __future__ import annotations

import bisect

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
    if instance.destination_mode is not DestinationMode.ONE:
        raise ValueError(f"{solver} handles the one-destination mode only")


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

    A voter leaving party q for d closes it by ``leads[q, c] - leads[d, c]``,
    so into each destination the greedy takes the largest leads first
    (``_kernels.min_switch_counts`` solves every destination at once).  Ties
    go to the lowest rival, then the lowest-id destination.  Only the
    returned plan is built and checked; a rejection raises ``RuntimeError``.
    """
    pe = instance.election
    leads = _party_leads(instance)
    sizes = pe.sizes
    margins = sizes @ leads + strict
    party_ids = np.arange(len(sizes), dtype=np.int64)

    best: tuple[int, int, int] | None = None  # (value, rival, destination)
    best_order = None
    for rival in range(pe.num_candidates):
        if rival == instance.p:
            continue
        gain = leads[:, rival]  # per-voter gain of leaving each party
        order = np.lexsort((party_ids, -gain))
        seg_gain, seg_cumw, seg_cumg = _gain_segments(gain[order], sizes[order])
        need = int(margins[rival])  # a tie suffices unless strict
        counts = _kernels.min_switch_counts(seg_gain, seg_cumw, seg_cumg, gain, need)
        usable = counts >= 0
        if not usable.any():
            continue
        masked = np.where(usable, counts, np.iinfo(np.int64).max)
        dest = int(masked.argmin())
        value = int(masked[dest])
        if best is None or value < best[0]:
            best = (value, rival, dest)
            best_order = order
    if best is None:
        return infeasible(solver)
    value, rival, dest = best
    plan = _greedy_plan(sizes, leads[:, rival], best_order, dest, value)
    check = check_witness(instance, plan, k=value)
    if not check.ok:
        raise RuntimeError(
            f"{solver} built a rejected plan against rival {rival}: {check.reason}"
        )
    return feasible(value, plan, solver)


def _gain_segments(sorted_gain: np.ndarray, sorted_sizes: np.ndarray):
    """Compress equal-gain runs into (gain, cum weight, cum total gain) arrays."""
    if sorted_gain.size == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    boundaries = np.nonzero(np.diff(sorted_gain))[0]
    ends = np.append(boundaries, sorted_gain.size - 1)
    cumw_all = np.cumsum(sorted_sizes)
    cumg_all = np.cumsum(sorted_sizes * sorted_gain)
    return sorted_gain[ends], cumw_all[ends], cumg_all[ends]


def _greedy_plan(sizes, lead, order, dest, value) -> SwitchPlan:
    """The greedy's moves into ``dest``: sources in ``order`` whose ``lead``
    exceeds the destination's, ``value`` voters in all."""
    moves = []
    remaining = value
    for q in order:
        q = int(q)
        if lead[q] <= lead[dest] or remaining == 0:
            break
        take = min(int(sizes[q]), remaining)
        if take:
            moves.append((q, dest, take))
            remaining -= take
    if remaining != 0:
        raise RuntimeError(
            f"greedy plan reconstruction left {remaining} switches unplaced"
        )
    return SwitchPlan(moves=tuple(moves))


def max_r_approval(instance: ProblemInstance) -> SolveResult:
    """Exact MAX for 0/1 scoring vectors (plurality, veto, r-approval).

    All switchers adopt the destination's approval row D, so the final
    election depends on the destination only through D: the fewest voters
    that must stay put (be retained) is the same for every party holding D,
    and the value is N - size(dest) - T, N being the number of voters and T
    the number retained.  One destination per distinct row is solved, the
    smallest party of that row (then the lowest id), which keeps the
    lowest-id maximiser over all parties.  Sources whose row is D always
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

    Budget form.  Fix T, let R_c count the retained voters approving c, and
    let s = 1 under the unique-winner model and 0 under the co-winner model.
    With only p-approvers retained p scores (N - T)[p in D] + T and rival c
    scores (N - T)[c in D] + R_c, so p keeps winning exactly when

        R_c <= T + (N - T)([p in D] - [c in D]) - s   for every rival c.

    Only the budgets depend on T, they never fall as T grows, and a budgeted
    packing is downward closed: T is feasible exactly when the largest
    packing of the merged p-approving rows other than D within the budgets
    and the row caps reaches T.  Scanning T upward, the first feasible T is
    the optimum into D; when D approves p, retaining every p-approver
    rebuilds the initial election up to moves that only help p, so that
    scan always succeeds.

    Complexity: the scan over T is linear in N, and each packing search
    (``_pack``) is exponential only in the number of distinct approval rows,
    at most C(m, r), so the solver is polynomial for fixed m.

    The returned plan is checked with ``check_witness`` before it leaves the
    solver; a rejection is a solver bug and raises ``RuntimeError``.
    """
    _require(instance, Scoring, Direction.MAX, "max_r_approval")
    if set(instance.rule.vector) - {0, 1}:
        raise ValueError("max_r_approval needs a 0/1 approval-style scoring vector")
    pe = instance.election
    rows = _party_rows(instance)
    leads = _party_leads(instance)
    sizes = pe.sizes.tolist()
    total = sum(sizes)
    p = instance.p
    s = 1 if instance.model is WinnerModel.UNIQUE else 0
    rivals = [c for c in range(pe.num_candidates) if c != p]

    dest_of_row: dict[bytes, int] = {}
    groups: dict[bytes, list[int]] = {}  # p-approving rows, merged
    for q, size in enumerate(sizes):
        key = rows[q].tobytes()
        if size < sizes[dest_of_row.setdefault(key, q)]:
            dest_of_row[key] = q
        if rows[q, p] and size > 0:
            groups.setdefault(key, []).append(q)
    merged = {
        key: (ids, [c for c in rivals if rows[ids[0], c]], sum(sizes[q] for q in ids))
        for key, ids in groups.items()
    }

    best_value = 0
    best_plan = SwitchPlan(moves=())
    for dest in sorted(dest_of_row.values()):
        key = rows[dest].tobytes()
        sources = [entry for k, entry in merged.items() if k != key]
        lift = leads[dest].tolist()
        found = _scan(
            sources,
            lambda t, lift=lift: {c: t + (total - t) * lift[c] - s for c in rivals},
        )
        if found is None:
            continue
        t, counts = found
        value = total - sizes[dest] - t
        if value > best_value:
            best_value = value
            best_plan = SwitchPlan(moves=_moves_into(dest, sizes, sources, counts))
    check = check_witness(instance, best_plan, k=best_value)
    if not check.ok:
        raise RuntimeError(
            f"max_r_approval built a rejected plan of {best_value} switches: "
            f"{check.reason}"
        )
    return feasible(best_value, best_plan, "max_r_approval")


def _scan(rows, budget_at):
    """(t, counts) for the least t whose packing of ``rows`` within
    ``budget_at(t)`` reaches t; None if there is none up to the rows' caps.

    The budgets never fall as t grows, so the scan starts by bisection at
    the first t whose budgets are all non-negative.  A failed packing leaves
    the candidate prices of its linear relaxation.  They stay dual feasible
    when only the budgets move, so by weak duality they bound the packings
    of later t too (``_dual_bound``); a t they rule out is skipped without a
    search.  Only the budget part of that bound moves with t, so its row
    part (``_row_term``) is computed once per price vector.
    """
    members = [row_members for _, row_members, _ in rows]
    caps = [cap for _, _, cap in rows]
    t_range = range(sum(caps) + 1)
    first = bisect.bisect_left(
        t_range, 0, key=lambda t: min(budget_at(t).values(), default=0)
    )
    price = row_term = None
    for t in t_range[first:]:
        budget = budget_at(t)
        if price is not None and _dual_bound(budget, price, row_term) < t:
            continue
        counts, price = _pack(rows, budget, t)
        if counts is not None:
            return t, counts
        if price is not None:
            row_term = _row_term(members, caps, price)
    return None


def _moves_into(dest, sizes, entries, retained):
    """Moves of every source voter into ``dest`` except the ``retained``
    count of each merged row; the lowest party ids move first."""
    moved = {q: sizes[q] for q in range(len(sizes)) if q != dest and sizes[q] > 0}
    for (ids, _, _), stay in zip(entries, retained):
        for q in reversed(ids):
            keep = min(sizes[q], stay)
            moved[q] -= keep
            stay -= keep
    return tuple((q, dest, n) for q, n in sorted(moved.items()) if n > 0)


def _pack(rows, budget, target):
    """(counts, prices): counts per row summing to ``target`` such that at
    most ``budget[c]`` of them approve each candidate c, or None when no such
    counts exist; prices are the root relaxation's (None if it was not
    needed).

    ``rows`` holds (party ids, budgeted candidates approved, cap) triples.
    Packings are downward closed, so this decides whether the largest
    packing reaches ``target``.  Branch and bound over per-row count
    intervals: a node first tries a greedy fill, then prunes with the dual
    bound of its linear relaxation (``_lp_relaxation``, ``_dual_bound``),
    then rounds the relaxation down and fills greedily, and otherwise splits
    a fractional count.  Each split shrinks an interval, so the search is
    exhaustive and exact; it is exponential only in the number of rows.
    """
    members = [row_members for _, row_members, _ in rows]
    root_price = None

    def search(low, high):
        nonlocal root_price
        slack = dict(budget)
        for row_members, x in zip(members, low):
            for c in row_members:
                slack[c] -= x
        if min(slack.values(), default=0) < 0:
            return None
        need = target - sum(low)
        room = [h - lo for h, lo in zip(high, low)]
        extra = _greedy_fill(members, room, slack, need, [0] * len(room))
        if extra is None:
            x, price = _lp_relaxation(members, room, slack)
            if root_price is None:
                root_price = price
            if _dual_bound(slack, price, _row_term(members, room, price)) < need:
                return None
            start = [min(r, int(v + 1e-9)) for r, v in zip(room, x)]
            extra = _greedy_fill(members, room, slack, need, start)
        if extra is not None:
            return [lo + e for lo, e in zip(low, extra)]
        j = max(range(len(room)), key=lambda i: min(x[i] % 1, 1 - x[i] % 1))
        if min(x[j] % 1, 1 - x[j] % 1) > 1e-9:
            split = int(x[j])
        else:  # integral relaxation that rounding missed: halve the widest interval
            j = max(range(len(room)), key=room.__getitem__)
            if room[j] == 0:
                return None
            split = room[j] // 2
        up, down = list(low), list(high)
        up[j] += split + 1
        down[j] = low[j] + split
        found = search(up, high)
        return found if found is not None else search(low, down)

    counts = search([0] * len(rows), [cap for _, _, cap in rows])
    if counts is not None:
        surplus = sum(counts) - target
        for j in reversed(range(len(counts))):  # drop the surplus from the last rows
            drop = min(counts[j], surplus)
            counts[j] -= drop
            surplus -= drop
    return counts, root_price


def _greedy_fill(members, room, slack, need, start):
    """Counts within ``room`` that add at least ``need`` without overdrawing
    ``slack``, extending ``start`` row by row; None if this greedy falls short."""
    left = dict(slack)
    counts = list(start)
    for row_members, x in zip(members, counts):
        for c in row_members:
            left[c] -= x
    if any(v < 0 for v in left.values()):
        counts = [0] * len(room)
        left = dict(slack)
    got = sum(counts)
    for j, row_members in enumerate(members):
        if got >= need:
            break
        take = min([room[j] - counts[j], need - got] + [left[c] for c in row_members])
        counts[j] += take
        got += take
        for c in row_members:
            left[c] -= take
    return counts if got >= need else None


def _lp_relaxation(members, room, slack):
    """Linear relaxation of the packing: (fractional counts, candidate prices).

    A dense simplex with Bland's rule solves max sum(x) subject to
    A x <= slack and 0 <= x <= room from the all-slack basis.  The prices
    are its optimal duals, clipped at 0; only ``_dual_bound`` turns them
    into a bound, so rounding in the simplex cannot make a bound invalid.
    """
    cands = sorted(slack)
    index = {c: i for i, c in enumerate(cands)}  # constraint row of each candidate
    n_rows, n_cands = len(room), len(cands)
    width = 2 * n_rows + n_cands
    tab = np.zeros((n_cands + n_rows + 1, width + 1))
    for j, row_members in enumerate(members):
        tab[[index[c] for c in row_members], j] = 1.0
    tab[:n_cands, n_rows:n_rows + n_cands] = np.eye(n_cands)
    tab[n_cands:-1, :n_rows] = np.eye(n_rows)
    tab[n_cands:-1, n_rows + n_cands:width] = np.eye(n_rows)
    tab[:n_cands, -1] = [slack[c] for c in cands]
    tab[n_cands:-1, -1] = room
    tab[-1, :n_rows] = -1.0
    basis = list(range(n_rows, width))
    eps = 1e-9
    while True:
        entering = np.flatnonzero(tab[-1, :-1] < -eps)
        if not entering.size:
            break
        col = int(entering[0])
        column = tab[:-1, col]
        usable = np.flatnonzero(column > eps)
        ratios = tab[usable, -1] / column[usable]
        ties = usable[ratios <= ratios.min() + eps]
        row = int(min(ties, key=basis.__getitem__))
        tab[row] /= tab[row, col]
        factors = tab[:, col].copy()
        factors[row] = 0.0
        tab -= np.outer(factors, tab[row])
        basis[row] = col
    x = [0.0] * n_rows
    for i, var in enumerate(basis):
        if var < n_rows:
            x[var] = float(tab[i, -1])
    price = {c: max(0.0, float(tab[-1, n_rows + i])) for i, c in enumerate(cands)}
    return x, price


def _dual_bound(slack, price, row_term):
    """Upper bound on the largest packing from any candidate prices y >= 0
    (weak LP duality): slack . y + sum_j room_j * max(0, 1 - y(row j)), the
    second sum being ``row_term`` (``_row_term``)."""
    return int(sum(price[c] * slack[c] for c in slack) + row_term + 1e-6)


def _row_term(members, room, price):
    """sum_j room_j * max(0, 1 - y(row j)) for prices y: each row's reduced
    cost 1 - y(row j), weighted by its room."""
    return sum(
        r * max(0.0, 1.0 - sum(price[c] for c in row_members))
        for r, row_members in zip(room, members)
    )
