"""Seeded fuzzes over every solver route against the oracle: all seven rules
(Copeland at alpha 1/2 and 1/3), both directions, both destination modes and
both winner models, at most 10 voters, and again at tens of voters.  Past the
oracle's cap, metamorphic relations check the MAX routes' values."""

import dataclasses
import itertools
import random

import pytest

import partycred as pc
from partycred.instance_io import RULE_CHOICES, generate_random
from partycred.poly import max_linear, max_r_approval, max_shift, min_condorcet, min_scoring
from partycred.solve import SOLVERS, poly_solver

from conftest import collect_problems, exact_search, values_match

RULES = (
    "plurality", "veto", "approval:2", "borda", "condorcet", "copeland:1/2",
    "maximin", "copeland:1/3",
)
SEARCH_RULES = ("copeland:1/2", "maximin", "copeland:1/3")


def test_every_route_gives_the_same_answer():
    """``auto`` (the instance's one exact route) and the oracle agree on
    every instance.  ``poly_solver`` is ``max_shift`` for every
    multi-destination MAX with no majority party, and outside that case None
    exactly for Copeland and Maximin.  Each route refuses the other's rules:
    ``exact_search_*`` raise a ValueError naming ``poly_solver`` on the
    linear rules, and every polynomial solver but ``max_shift``, which takes
    any rule, raises on Copeland and Maximin."""
    rng = random.Random(2026)
    solved = 0
    for rule, direction, dest, model in itertools.product(
        RULES, ("min", "max"), ("one", "multi"), ("unique", "cowinner")
    ):
        for inst in collect_problems(
            rng.randint(0, 10**6), 3, rule_spec=rule, direction=direction,
            model=model, dest=dest, max_voters=10,
        ):
            results = {route: pc.solve_instance(inst, solver=route) for route in SOLVERS}
            sizes = inst.election.sizes
            if direction == "max" and dest == "multi" and 2 * sizes.max() <= sizes.sum():
                assert poly_solver(inst) is max_shift
            else:
                assert (poly_solver(inst) is None) == (rule in SEARCH_RULES)
            if rule in SEARCH_RULES:
                for solver in (min_scoring, min_condorcet, max_linear, max_r_approval):
                    with pytest.raises(ValueError):
                        solver(inst)
            else:
                with pytest.raises(ValueError, match="poly_solver"):
                    exact_search(inst)
            for result in results.values():
                assert values_match(result, results["oracle"]), (inst, results)
                if result.status is pc.SolveStatus.FEASIBLE:
                    assert pc.check_witness(inst, result.witness, k=result.value).ok
            solved += 1
    assert solved == len(RULES) * 2 * 2 * 2 * 3


def test_every_route_matches_the_oracle_at_tens_of_voters():
    """``auto`` against the oracle past the few voters of the fuzz above:
    3-4 parties of 10-40 voters (one destination) and 3 parties of 3-9
    (multi-destination), 4-5 candidates, every rule of ``RULE_CHOICES`` in
    both directions and both models.  The branch and bound must also give
    the oracle's witness.  All but one multi-destination MAX draw have no
    majority party and take ``max_shift``, the Copeland and Maximin ones
    included, so 12 draws reach the branch and bound."""
    rng = random.Random(32)
    draws = list(itertools.product(
        RULE_CHOICES, ("min", "max"), ("unique", "cowinner"), ("one", "multi")
    ))
    searched = shifted = 0
    for rule, direction, model, dest in draws:
        parties, sizes = (rng.randint(3, 4), (10, 40)) if dest == "one" else (3, (3, 9))
        # Under veto, a candidate wins alone only if the others are all vetoed.
        m = rng.randint(4, parties + 1 if rule == "veto" else 5)
        inst = generate_random(
            rng.randint(0, 10**6), m, parties, sizes, rule, direction, model=model, dest=dest,
        ).instance
        result, ref = pc.solve_instance(inst), pc.solve_instance(inst, solver="oracle")
        assert (result.status, result.value) == (ref.status, ref.value), (inst, result, ref)
        if result.solver.startswith("exact_search_"):
            assert result.witness == ref.witness, (inst, result, ref)
            searched += 1
        shifted += result.solver == "max_shift"
    assert (searched, shifted) == (12, 13)


def test_unknown_solver_is_refused():
    [inst] = collect_problems(1, 1, rule_spec="borda", direction="min", model="unique")
    with pytest.raises(ValueError, match=r"^unknown solver 'nope'$"):
        pc.solve_instance(inst, "nope")


def _relabelled(inst, rng):
    """``inst`` with its candidates renamed, p included, and its parties
    shuffled."""
    election = inst.election
    names = list(range(len(election.orders[0])))
    rng.shuffle(names)
    order = list(range(len(election.sizes)))
    rng.shuffle(order)
    orders = election.orders.tolist()  # one argsort of the ranks, not one per party
    orders = [[names[c] for c in orders[q]] for q in order]
    sizes = [int(election.sizes[q]) for q in order]
    return dataclasses.replace(inst, election=pc.PartyElection(orders, sizes), p=names[inst.p])


def test_max_routes_keep_metamorphic_relations_past_the_oracles_cap():
    """Seeded Borda, Condorcet, plurality and approval:2 MAX files of 30-40
    parties of 1-9 voters, in both destination modes, far past the oracle's
    cap.  Renaming the candidates (p included) and shuffling the parties
    leave MAX unchanged; every size times k in {2, 3, 1000} gives MAX(k s) >=
    k MAX(s), as the plan scaled by k keeps p's win; and MAX(multi) >=
    MAX(one).  Every FEASIBLE result's witness is checked by its solver."""
    rng = random.Random(37)
    for rule in ("borda", "condorcet", "plurality", "approval:2"):
        for seed in range(15):
            one = generate_random(
                seed, rng.randint(4, 6), rng.randint(30, 40), (1, 9), rule, "max", dest="one"
            ).instance
            values = []
            for inst in (one, dataclasses.replace(one, destination_mode=pc.DestinationMode.MULTI)):
                value = pc.solve_instance(inst).value
                assert pc.solve_instance(_relabelled(inst, rng)).value == value, (rule, seed)
                for k in (2, 3, 1000):
                    election = pc.PartyElection(inst.election.orders, inst.election.sizes * k)
                    scaled = dataclasses.replace(inst, election=election)
                    assert pc.solve_instance(scaled).value >= k * value, (rule, seed, k)
                values.append(value)
            assert values[1] >= values[0], (rule, seed, values)


def _split_party(inst, q):
    """``inst`` with party q split in two parties of its ballot, sizes
    ceil(s/2) and floor(s/2), the second one last."""
    election = inst.election
    orders = election.orders.tolist()
    sizes = election.sizes.tolist()
    orders.append(orders[q])
    sizes.append(sizes[q] // 2)
    sizes[q] -= sizes[-1]
    return dataclasses.replace(inst, election=pc.PartyElection(orders, sizes))


def _min_value(inst):
    """MIN through ``solve_instance``, which must find a plan, with its
    witness checked again here."""
    result = pc.solve_instance(inst)
    assert result.status is pc.SolveStatus.FEASIBLE, result
    assert pc.check_witness(inst, result.witness, k=result.value).ok, result
    return result.value


@pytest.mark.parametrize("rule", ["plurality", "veto", "borda", "condorcet"])
def test_min_routes_keep_metamorphic_relations_at_thousands_of_parties(rule):
    """Seeded MIN files of 1k-10k parties of 1-9 voters, in both destination
    modes, far past the oracle's cap.  Renaming the candidates (p included)
    and shuffling the parties leave MIN unchanged, and so does splitting a
    party into two with its ballot; every size times k in {2, 3, 1000}
    gives MIN(k s) <= k MIN(s), as the plan scaled by k still defeats p;
    and MIN(multi) <= MIN(one).  Every file here has a plan, and every
    witness is checked."""
    rng = random.Random(39)
    for num_parties in (1_000, 3_000, 10_000):
        one = generate_random(
            rng.randint(0, 10**6), rng.randint(3, 5), num_parties, (1, 9), rule, "min"
        ).instance
        values = []
        for inst in (one, dataclasses.replace(one, destination_mode=pc.DestinationMode.MULTI)):
            value = _min_value(inst)
            assert _min_value(_relabelled(inst, rng)) == value, (rule, num_parties)
            assert _min_value(_split_party(inst, rng.randrange(num_parties))) == value
            for k in (2, 3, 1000):
                election = pc.PartyElection(inst.election.orders, inst.election.sizes * k)
                scaled = _min_value(dataclasses.replace(inst, election=election))
                assert scaled <= k * value, (rule, num_parties, k)
            values.append(value)
        assert values[1] <= values[0], (rule, num_parties, values)
