"""The array form of an election against plain per-ballot Python.

Winners and witness checks read an election's rank and size arrays; these
tests recompute both from the ballots' candidate orders, one ballot at a
time, on seeded random elections that include parties of size 0.
"""

import random
from fractions import Fraction

import numpy as np

import partycred as pc
from partycred.instance_io import RULE_CHOICES, parse_rule_spec


def reference_winners(ballots, m, rule, model):
    """Winner set from (order, weight) ballots, one ballot at a time."""
    n = [[0] * m for _ in range(m)]
    scores = [0] * m
    for order, weight in ballots:
        for pos, c in enumerate(order):
            if isinstance(rule, pc.Scoring):
                scores[c] += weight * rule.vector[pos]
            for d in order[pos + 1:]:
                n[c][d] += weight
    others = [[d for d in range(m) if d != c] for c in range(m)]
    if isinstance(rule, pc.Condorcet):
        return frozenset(c for c in range(m) if all(n[c][d] > n[d][c] for d in others[c]))
    if isinstance(rule, pc.Copeland):
        scores = [
            sum(1 if n[c][d] > n[d][c] else rule.alpha if n[c][d] == n[d][c] else 0
                for d in others[c]) + Fraction(0)
            for c in range(m)
        ]
    elif isinstance(rule, pc.Maximin):
        scores = [min(n[c][d] for d in others[c]) for c in range(m)]
    best = max(scores)
    top = frozenset(c for c in range(m) if scores[c] == best)
    if model is pc.WinnerModel.UNIQUE and len(top) != 1:
        return frozenset()
    return top


def random_election(rng, m, num_parties):
    parties = []
    for pid in range(num_parties):
        order = list(range(m))
        rng.shuffle(order)
        size = 0 if rng.random() < 0.25 else rng.randint(1, 5)
        parties.append(pc.Party(id=pid, preference=pc.Preference(order=tuple(order)), size=size))
    if not any(party.size for party in parties):
        parties[0] = pc.Party(id=0, preference=parties[0].preference, size=1)
    return pc.PartyElection(num_candidates=m, parties=tuple(parties))


def ballots_of(pe):
    return [(party.preference.order, party.size) for party in pe.parties if party.size]


def random_plan(rng, sizes, kind):
    """A plan of one kind: valid one- or multi-destination moves, or a plan
    broken by an overdraw or a self-move."""
    l = len(sizes)
    dests = [rng.randrange(l)]
    if kind == "multi" and l > 1:
        dests.append(rng.choice([d for d in range(l) if d != dests[0]]))
    moves = []
    for q in range(l):
        if sizes[q] and rng.random() < 0.6:
            dest = rng.choice(dests)
            if dest != q:
                moves.append((q, dest, rng.randint(1, sizes[q])))
    if kind == "overdraw":
        q = rng.randrange(l)
        moves.append((q, (q + 1) % l, sizes[q] + 1))
    elif kind == "self":
        q = rng.randrange(l)
        moves.append((q, q, 1))
    return pc.SwitchPlan(moves=tuple(moves))


def expected_check(instance, plan, rule, m):
    """check_witness recomputed through apply_switch + materialize and the
    per-ballot reference."""
    try:
        after = pc.materialize(pc.apply_switch(instance.election, plan))
    except ValueError:
        return False
    if instance.destination_mode is pc.DestinationMode.ONE and len(plan.destinations()) > 1:
        return False
    total = plan.total
    if instance.direction is pc.Direction.MIN and total > instance.k:
        return False
    if instance.direction is pc.Direction.MAX and total < instance.k:
        return False
    won = reference_winners(
        [(pref.order, w) for pref, w in after.ballots], m, rule, instance.model
    )
    if instance.model is pc.WinnerModel.UNIQUE:
        keeps = won == frozenset({instance.p})
    else:
        keeps = instance.p in won
    return keeps if instance.direction is pc.Direction.MAX else not keeps


def test_winners_and_witness_checks_match_per_ballot_reference():
    rng = random.Random(2024)
    checked = {"winners": 0, "valid": 0, "invalid": 0, "ok": 0}
    for trial in range(700):
        m = rng.randint(2, 7)
        spec = RULE_CHOICES[trial % len(RULE_CHOICES)]
        rule = parse_rule_spec(spec, m)
        model = rng.choice(list(pc.WinnerModel))
        pe = random_election(rng, m, rng.randint(1, 7))
        won = pc.winners(pe, rule, model)
        assert won == reference_winners(ballots_of(pe), m, rule, model), (spec, pe)
        assert pc.winners(pc.materialize(pe), rule, model) == won
        checked["winners"] += 1
        if not won or (model is pc.WinnerModel.UNIQUE and len(won) != 1):
            continue
        sizes = pe.sizes.tolist()
        for _ in range(6):
            instance = pc.ProblemInstance(
                election=pe, p=min(won), k=rng.randint(1, pe.num_voters), rule=rule,
                model=model, destination_mode=rng.choice(list(pc.DestinationMode)),
                direction=rng.choice(list(pc.Direction)),
            )
            kind = rng.choice(("one", "one", "multi", "overdraw", "self"))
            plan = random_plan(rng, sizes, kind)
            got = pc.check_witness(instance, plan)
            assert got.ok == expected_check(instance, plan, rule, m), (instance, plan, got)
            assert got.ok == (got.reason is None)
            checked["valid" if kind in ("one", "multi") else "invalid"] += 1
            checked["ok"] += got.ok
    assert checked["winners"] == 700
    assert min(checked["valid"], checked["invalid"], checked["ok"]) >= 100, checked


def test_parsed_and_constructed_elections_agree():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(2, 7)
        pe = random_election(rng, m, rng.randint(1, 9))
        arrays = pc.PartyElection.from_arrays(pe.ranks.copy(), pe.sizes.copy())
        assert arrays == pe and hash(arrays) == hash(pe)
        assert arrays.parties == pe.parties
        assert repr(arrays) == repr(pe)
        for party in pe.parties:
            order = np.asarray(party.preference.order)
            assert pe.ranks[party.id, order].tolist() == list(range(m))
            assert pe.sizes[party.id] == party.size


def test_switched_election_shares_ranks():
    rng = random.Random(3)
    pe = random_election(rng, 5, 6)
    sizes = pe.sizes.tolist()
    q = max(range(6), key=sizes.__getitem__)
    after = pc.apply_switch(pe, pc.SwitchPlan(moves=((q, (q + 1) % 6, 1),)))
    assert after.ranks is pe.ranks
    assert after.num_voters == pe.num_voters
    assert pe.sizes.tolist() == sizes
    assert not after.sizes.flags.writeable and not after.ranks.flags.writeable
