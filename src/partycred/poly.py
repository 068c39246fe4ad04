"""Exact solvers for the one-destination mode, polynomial except where noted.

* ``min_scoring`` — greedy over per-voter score-gap closures, any positional
  scoring rule.
* ``min_condorcet`` — pairwise-margin arithmetic; every useful switch moves a
  (p, rival) margin by exactly 2.  O(l * m) after one pairwise tally.
* ``max_r_approval`` — 0/1 scoring vectors with small r.  For a destination
  approving p it retains a minimum blocking set of voters, which is
  polynomial.  For a destination not approving p (``_max_into_nonapproving``)
  it searches exhaustively over merged count vectors, which is exponential
  in the worst case; ROADMAP item 4 tracks replacing that branch.

Ties between equally good (rival, destination) choices resolve to the lowest
candidate index, then the lowest party id, so outputs are reproducible.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import _kernels
from .core import pairwise_matrix
from .parties import (
    Direction,
    DestinationMode,
    ProblemInstance,
    SolveResult,
    SwitchPlan,
    check_witness,
    feasible,
    infeasible,
    materialize,
)
from .rules import Condorcet, Scoring, WinnerModel
from .search import _party_ranks, _party_rows

MAX_APPROVAL_R = 4


def _require(instance: ProblemInstance, rule_type, direction: Direction, solver: str):
    if not isinstance(instance.rule, rule_type):
        raise ValueError(f"{solver} needs a {rule_type.__name__} rule")
    if instance.direction is not direction:
        raise ValueError(f"{solver} solves {direction.value} instances only")
    if instance.destination_mode is not DestinationMode.ONE:
        raise ValueError(f"{solver} handles the one-destination mode only")


def min_scoring(instance: ProblemInstance) -> SolveResult:
    """Exact MIN for positional scoring rules (greedy per rival/destination)."""
    _require(instance, Scoring, Direction.MIN, "min_scoring")
    pe = instance.election
    rows = _party_rows(instance)
    sizes = np.asarray([party.size for party in pe.parties], dtype=np.int64)
    totals = sizes @ rows
    p = instance.p
    strict = instance.model is WinnerModel.COWINNER
    party_ids = np.arange(len(pe.parties), dtype=np.int64)

    best: tuple[int, int, int] | None = None  # (value, rival, destination)
    best_order = None
    for rival in range(pe.num_candidates):
        if rival == p:
            continue
        # Gap the rival has to close; a tie suffices under UNIQUE.
        need = int(totals[p] - totals[rival]) + (1 if strict else 0)
        gain = rows[:, p] - rows[:, rival]  # per-voter gain of leaving each party
        order = np.lexsort((party_ids, -gain))
        seg_gain, seg_cumw, seg_cumg = _gain_segments(gain[order], sizes[order])
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
        return infeasible("min_scoring")
    value, rival, dest = best
    plan = _greedy_plan(pe, rows, best_order, rival, dest, value, instance.p)
    return feasible(value, plan, "min_scoring")


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


def _greedy_plan(pe, rows, order, rival, dest, value, p) -> SwitchPlan:
    gain_dest = rows[dest, p] - rows[dest, rival]
    moves = []
    remaining = value
    for q in order:
        q = int(q)
        per_voter = int(rows[q, p] - rows[q, rival])
        if per_voter <= gain_dest or remaining == 0:
            break
        take = min(pe.parties[q].size, remaining)
        if take:
            moves.append((q, dest, take))
            remaining -= take
    if remaining != 0:
        raise RuntimeError(
            f"min_scoring greedy plan reconstruction left {remaining} switches unplaced"
        )
    return SwitchPlan(moves=tuple(moves))


def min_condorcet(instance: ProblemInstance) -> SolveResult:
    """Exact MIN for the Condorcet rule.

    To dethrone p via rival c, switch voters who prefer p to c into a party
    that prefers c to p; each such switch shifts the (p, c) margin by -2, and
    no switch shifts it by more.  So ceil(margin / 2) switches are both
    necessary and, given a destination and enough supply, sufficient; the
    optimum is the smallest such count over all rivals.

    All rivals are scored at once from the one pairwise tally and an (l, m)
    rank array, O(l * m) work after the tally.  Only the plan for the chosen
    rival (fewest switches, then lowest index; its lowest-id destination;
    sources in party-id order) is built, and only that plan is checked.  No
    guarantee is lost by skipping the other rivals' plans: the returned plan
    is still verified before it leaves the solver, optimality rests on the
    margin lower bound, which no witness check can test, and a plan that is
    never returned cannot make the output wrong.
    """
    _require(instance, Condorcet, Direction.MIN, "min_condorcet")
    pe = instance.election
    counts = pairwise_matrix(materialize(pe)).counts
    p = instance.p
    sizes = np.asarray([party.size for party in pe.parties], dtype=np.int64)
    ranks = _party_ranks(pe)
    backs_rival = ranks < ranks[:, [p]]  # party q prefers candidate c to p
    backs_p = ranks > ranks[:, [p]]  # party q prefers p to candidate c
    dests = backs_rival.argmax(axis=0)  # first party preferring c to p
    supply = sizes @ backs_p.astype(np.int64)
    switches = (counts[p] - counts[:, p] + 1) // 2
    # Column p has no destination, so p is never its own rival.
    usable = backs_rival.any(axis=0) & (supply >= switches)
    if not usable.any():
        return infeasible("min_condorcet")
    rival = int(np.where(usable, switches, np.iinfo(np.int64).max).argmin())
    value = int(switches[rival])
    dest = int(dests[rival])

    moves = []
    remaining = value
    for q in np.flatnonzero(backs_p[:, rival] & (sizes > 0)):
        take = min(int(sizes[q]), remaining)
        moves.append((int(q), dest, take))
        remaining -= take
        if remaining == 0:
            break
    plan = SwitchPlan(moves=tuple(moves))
    # The plan shifts the (p, rival) margin to <= 0, so a rejection is a
    # solver bug, not a reason to try another rival.
    check = check_witness(instance, plan, k=value)
    if not check.ok:
        raise RuntimeError(
            f"min_condorcet built a rejected plan against rival {rival}: "
            f"{check.reason}"
        )
    return feasible(value, plan, "min_condorcet")


def max_r_approval(instance: ProblemInstance) -> SolveResult:
    """Exact MAX for 0/1 scoring vectors (plurality, veto, r-approval), r <= 4.

    Destinations approving p are handled by enumerating a minimum retained
    set of at most r voters whose stay keeps every destination-approved
    candidate below p; moving everyone else is then optimal.

    Destinations not approving p can still host switchers (typically p's
    own surplus supporters) and are sometimes strictly better, so they are
    solved exactly as well.
    """
    _require(instance, Scoring, Direction.MAX, "max_r_approval")
    vector = instance.rule.vector
    if set(vector) - {0, 1}:
        raise ValueError("max_r_approval needs a 0/1 approval-style scoring vector")
    r = sum(vector)
    if r > MAX_APPROVAL_R:
        raise ValueError(f"max_r_approval supports r <= {MAX_APPROVAL_R}, got {r}")
    pe = instance.election
    rows = _party_rows(instance)
    sizes = [party.size for party in pe.parties]
    total_voters = sum(sizes)
    p = instance.p
    unique = instance.model is WinnerModel.UNIQUE

    best_value = 0
    best_plan = SwitchPlan(moves=())
    for dest in range(len(pe.parties)):
        sources = [q for q in range(len(pe.parties)) if q != dest]
        eligible = total_voters - sizes[dest]
        if rows[dest, p] == 1:
            retained = _min_retained_set(
                instance, rows, sizes, dest, sources, eligible, r, unique
            )
            if retained is None:
                continue
            value = eligible - sum(retained.values())
            moves = tuple(
                (q, dest, sizes[q] - retained.get(q, 0))
                for q in sources
                if sizes[q] - retained.get(q, 0) > 0
            )
        else:
            found = _max_into_nonapproving(instance, rows, sizes, dest, sources, unique)
            if found is None:
                continue
            value, moves = found
        if value > best_value:
            best_value = value
            best_plan = SwitchPlan(moves=moves)
    return feasible(best_value, best_plan, "max_r_approval")


def _max_into_nonapproving(instance, rows, sizes, dest, sources, unique):
    """Most switchers into a destination whose ballot does not approve p.

    Sources with identical approval rows are merged; an exhaustive count
    assignment over the merged groups with a remaining-capacity prune is
    exact.  Returns (value, moves) or None when not even zero extra
    switchers beat staying put (value 0 is reported by the caller anyway).
    """
    p = instance.p
    m = instance.election.num_candidates
    groups: dict[tuple, list[int]] = {}
    for q in sources:
        if sizes[q] > 0:
            groups.setdefault(tuple(int(x) for x in rows[q]), []).append(q)
    keys = sorted(groups, key=lambda key: groups[key][0])
    deltas = [np.asarray(rows[dest], dtype=np.int64) - np.asarray(key, dtype=np.int64)
              for key in keys]
    caps = [sum(sizes[q] for q in groups[key]) for key in keys]
    suffix_cap = [0] * (len(keys) + 1)
    for i in range(len(keys) - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + caps[i]

    base = np.zeros(m, dtype=np.int64)
    for q in range(len(sizes)):
        base += sizes[q] * np.asarray(rows[q], dtype=np.int64)

    best = {"value": -1, "counts": None}

    def success(scores) -> bool:
        ps = scores[p]
        other = max(int(scores[c]) for c in range(m) if c != p)
        return ps > other if unique else ps >= other

    def dfs(i, moved, scores, counts):
        if moved + suffix_cap[i] <= best["value"]:
            return
        if i == len(keys):
            if success(scores):
                best["value"] = moved
                best["counts"] = list(counts)
            return
        for x in range(caps[i], -1, -1):
            counts.append(x)
            dfs(i + 1, moved + x, scores + x * deltas[i], counts)
            counts.pop()

    dfs(0, 0, base, [])
    if best["value"] < 0:
        return None
    moves = []
    for key, count in zip(keys, best["counts"]):
        left = count
        for q in groups[key]:
            take = min(sizes[q], left)
            if take:
                moves.append((q, dest, take))
            left -= take
    return best["value"], tuple(moves)


def _min_retained_set(instance, rows, sizes, dest, sources, eligible, r, unique):
    """Smallest multiset of eligible voters whose retention keeps p winning
    after everyone else switches to ``dest``; None if no small set works."""
    p = instance.p
    m = instance.election.num_candidates
    for k_size in range(0, min(r, eligible) + 1):
        for retained_ids in itertools.combinations_with_replacement(sources, k_size):
            counts: dict[int, int] = {}
            for q in retained_ids:
                counts[q] = counts.get(q, 0) + 1
            if any(c > sizes[q] for q, c in counts.items()):
                continue
            moved = eligible - k_size
            scores = [0] * m
            for c in range(m):
                scores[c] = (sizes[dest] + moved) * int(rows[dest, c]) + sum(
                    cnt * int(rows[q, c]) for q, cnt in counts.items()
                )
            p_score = scores[p]
            best_other = max(s for c, s in enumerate(scores) if c != p)
            ok = p_score > best_other if unique else p_score >= best_other
            if ok:
                return counts
    return None
