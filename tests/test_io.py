import json
from fractions import Fraction

import pytest

import partycred as pc
from partycred.instance_io import (
    ParseError,
    parse_alpha,
    parse_rule_spec,
    rule_to_spec,
)
from partycred.parties import feasible, infeasible

MINIMAL = """\
candidates: p a b
rule: plurality
model: unique
dest: one
direction: min
k: 1
distinguished: p
party P1 2: p > a > b
party P2 1: a > p > b
"""


def test_parse_minimal():
    parsed = pc.parse_instance(MINIMAL)
    assert parsed.candidate_names == ("p", "a", "b")
    assert parsed.party_names == ("P1", "P2")
    assert parsed.p_name == "p"
    inst = parsed.instance
    assert inst.k == 1 and inst.p == 0
    assert inst.rule == pc.Scoring(vector=(1, 0, 0))


def test_round_trip():
    parsed = pc.parse_instance(MINIMAL)
    text = pc.serialize_instance(parsed)
    again = pc.parse_instance(text)
    assert again.instance == parsed.instance
    assert again.candidate_names == parsed.candidate_names
    assert again.party_names == parsed.party_names
    assert pc.serialize_instance(again) == text


def test_comments_and_blank_lines():
    text = "# a comment\n\n" + MINIMAL.replace(
        "k: 1", "k: 1   # trailing comment"
    )
    assert pc.parse_instance(text).instance.k == 1


def test_parse_copeland_rational():
    text = MINIMAL.replace("rule: plurality", "rule: copeland:1/2")
    rule = pc.parse_instance(text).instance.rule
    assert rule == pc.Copeland(alpha=Fraction(1, 2))


def test_rule_spec_parsing():
    assert parse_rule_spec("approval:2", 4) == pc.Scoring(vector=(1, 1, 0, 0))
    assert parse_rule_spec("borda", 3) == pc.Scoring(vector=(2, 1, 0))
    assert parse_rule_spec("maximin", 3) == pc.Maximin()
    with pytest.raises(ValueError):
        parse_rule_spec("approval:x", 4)
    with pytest.raises(ValueError):
        parse_rule_spec("plurality:3", 4)
    with pytest.raises(ValueError):
        parse_rule_spec("schulze", 4)


def test_alpha_exactness():
    assert parse_alpha("1/2") == Fraction(1, 2)
    assert parse_alpha("1") == Fraction(1)
    with pytest.raises(ValueError, match="exact rational"):
        parse_alpha("0.5")
    with pytest.raises(ValueError):
        parse_alpha("1/0")
    with pytest.raises(ValueError):
        parse_alpha("")


def test_rule_to_spec_round_trip():
    for spec, m in (
        ("plurality", 4), ("veto", 4), ("approval:2", 4), ("borda", 4),
        ("condorcet", 4), ("maximin", 4), ("copeland:1/3", 4),
    ):
        assert rule_to_spec(parse_rule_spec(spec, m)) == spec


def _line_of(error: ParseError) -> int:
    return error.line_no


def test_duplicate_key_reports_line():
    text = MINIMAL + "k: 2\n"
    with pytest.raises(ParseError, match="duplicate key 'k'") as err:
        pc.parse_instance(text)
    assert _line_of(err.value) == 10


def test_nonpositive_k_reports_its_own_line():
    text = MINIMAL.replace("k: 1\n", "k: 0\n")
    with pytest.raises(ParseError, match="k must be positive") as err:
        pc.parse_instance(text)
    assert _line_of(err.value) == 6


def test_missing_key():
    text = MINIMAL.replace("direction: min\n", "")
    with pytest.raises(ParseError, match="missing required key 'direction'"):
        pc.parse_instance(text)


def test_bad_preference_reports_line():
    text = MINIMAL.replace("party P2 1: a > p > b", "party P2 1: a > a > b")
    with pytest.raises(ParseError, match="duplicate") as err:
        pc.parse_instance(text)
    assert _line_of(err.value) == 9
    text = MINIMAL.replace("party P2 1: a > p > b", "party P2 1: a > p")
    with pytest.raises(ParseError, match="missing"):
        pc.parse_instance(text)


def test_unknown_candidate_in_preference():
    text = MINIMAL.replace("party P2 1: a > p > b", "party P2 1: a > q > b")
    with pytest.raises(ParseError, match="unknown candidate 'q'"):
        pc.parse_instance(text)


def test_distinguished_must_win():
    text = MINIMAL.replace("distinguished: p", "distinguished: a")
    with pytest.raises(ParseError, match=r"winner set: \[0\]"):
        pc.parse_instance(text)


def test_duplicate_party_name():
    text = MINIMAL.replace("party P2 1", "party P1 1")
    with pytest.raises(ParseError, match="duplicate party name"):
        pc.parse_instance(text)


def _long_file(num_parties: int, bad: dict[int, str] | None = None) -> tuple[str, int]:
    """A plurality file that p wins, with party i on line ``first + i``;
    ``bad`` replaces the whole text of some party lines."""
    lines = [
        "candidates: p a b", "rule: plurality", "model: unique", "dest: one",
        "direction: min", "k: 1", "distinguished: p",
    ]
    first = len(lines) + 1
    orders = ("p > a > b", "a > b > p", "b > p > a")
    for i in range(num_parties):
        size = num_parties if i == 0 else 1
        lines.append(f"party P{i} {size}: {orders[i % 3]}")
    for i, line in (bad or {}).items():
        lines[first - 1 + i] = line
    return "\n".join(lines) + "\n", first


@pytest.mark.parametrize(
    "order, message",
    [
        ("a > a > b", "bad preference: duplicate 1"),
        ("a > q > b", "unknown candidate 'q' in preference"),
        ("a > p", "bad preference: missing 2"),
        ("a b > p", "unknown candidate 'a b' in preference"),
        ("", "empty preference order"),
    ],
)
def test_bad_order_late_in_long_file(order, message):
    bad = 2_700
    text, first = _long_file(3_000, {bad: f"party X 1: {order}".rstrip()})
    with pytest.raises(ParseError) as err:
        pc.parse_instance(text)
    assert str(err.value) == f"line {first + bad}: {message}"
    assert _line_of(err.value) == first + bad


def test_first_bad_party_line_wins():
    order_then_head = {2_000: "party X 1: a > a > b", 2_500: "party Y -1: p > a > b"}
    text, first = _long_file(3_000, order_then_head)
    with pytest.raises(ParseError, match="duplicate 1") as err:
        pc.parse_instance(text)
    assert _line_of(err.value) == first + 2_000
    head_then_order = {2_000: "party Y x: p > a > b", 2_500: "party X 1: a > a > b"}
    text, first = _long_file(3_000, head_then_order)
    with pytest.raises(ParseError, match="party size must be an integer") as err:
        pc.parse_instance(text)
    assert _line_of(err.value) == first + 2_000
    # A bad order on the same line as a bad head: the head is reported.
    text, first = _long_file(3_000, {2_000: "party P1 1: a > a > b"})
    with pytest.raises(ParseError, match="duplicate party name 'P1'") as err:
        pc.parse_instance(text)
    assert _line_of(err.value) == first + 2_000


def test_other_spellings_parse_like_canonical_orders():
    text, first = _long_file(1_500)
    respelled = (
        text.replace("p > a > b", "p>a>b")
        .replace("a > b > p", "a  >\tb > p")
        .replace("b > p > a", "  b > p >a")
    )
    canonical, spelled = pc.parse_instance(text), pc.parse_instance(respelled)
    assert spelled.instance == canonical.instance
    assert spelled.party_names == canonical.party_names


def test_candidate_name_with_separator():
    # '>' always splits an order, so such a candidate can never be ranked.
    text = MINIMAL.replace("candidates: p a b", "candidates: p a b c>d")
    with pytest.raises(ParseError, match="unknown candidate 'c'") as err:
        pc.parse_instance(text.replace("p > a > b\n", "p > a > b > c>d\n"))
    assert _line_of(err.value) == 8
    with pytest.raises(ParseError, match="missing 3") as err:
        pc.parse_instance(text)
    assert _line_of(err.value) == 8


def test_round_trip_3000_parties():
    parsed = pc.generate_random(
        seed=4, num_candidates=6, num_parties=3_000, size_range=(0, 4),
        rule_spec="borda", direction="min",
    )
    text = pc.serialize_instance(parsed)
    again = pc.parse_instance(text)
    assert again.instance == parsed.instance
    assert again.party_names == parsed.party_names
    assert again.instance.election.orders.tolist() == parsed.instance.election.orders.tolist()
    assert pc.serialize_instance(again) == text


def test_parse_graph():
    g = pc.parse_graph("n 3\nt 2\ne 0 1\ne 1 2\n# done\n")
    assert g.num_vertices == 3 and g.bound == 2
    assert g.edges == ((0, 1), (1, 2))
    with pytest.raises(ParseError, match="missing 'n'"):
        pc.parse_graph("t 1\n")
    with pytest.raises(ParseError, match="missing 't'"):
        pc.parse_graph("n 3\n")
    with pytest.raises(ParseError, match="expected 'n', 't' or 'e'"):
        pc.parse_graph("n 3\nt 1\nedge 0 1\n")
    with pytest.raises(ParseError, match="duplicate n"):
        pc.parse_graph("n 3\nn 3\nt 1\n")


def test_parse_x3c():
    x = pc.parse_x3c("m 3\ns 0 1 2\ns 0 1 2\ns 0 1 2\n")
    assert x.universe_size == 3 and x.num_sets == 3
    with pytest.raises(ParseError, match="missing 'm'"):
        pc.parse_x3c("s 0 1 2\n")
    with pytest.raises(ParseError, match="exactly three"):
        pc.parse_x3c("m 3\ns 0 1 2\n")


def _result_json(parsed, result, ms=0):
    return json.loads(pc.result_to_json(parsed, result, ms))


def test_result_json_infeasible():
    parsed = pc.parse_instance(MINIMAL)
    doc = _result_json(parsed, infeasible("oracle_min"))
    assert doc["value"] == "infeasible"
    assert doc["answer"] is False
    assert doc["witness"] is None


def test_result_json_feasible_fields():
    parsed = pc.parse_instance(MINIMAL.replace("k: 1", "k: 2"))
    result = feasible(1, pc.SwitchPlan(moves=((0, 1, 1),)), "min_scoring")
    doc = _result_json(parsed, result, ms=1234)
    assert doc["value"] == 1 and doc["answer"] is True
    assert doc["witness"] == {
        "destination": "P2",
        "moves": [{"from": "P1", "to": "P2", "count": 1}],
    }
    assert doc["rule"] == "plurality"
    assert doc["wall_time_ms"] == 1200  # quantized to 100 ms


def test_result_json_deterministic():
    parsed = pc.parse_instance(MINIMAL)
    result = pc.min_scoring(parsed.instance)
    one = pc.result_to_json(parsed, result, 120)
    two = pc.result_to_json(parsed, result, 199)
    assert one == two


def test_generate_random_deterministic():
    kwargs = dict(
        seed=1, num_candidates=3, num_parties=3, size_range=(1, 3),
        rule_spec="plurality", direction="min",
    )
    a = pc.generate_random(**kwargs)
    b = pc.generate_random(**kwargs)
    assert pc.serialize_instance(a) == pc.serialize_instance(b)
    # and the document round-trips
    again = pc.parse_instance(pc.serialize_instance(a, comment="seed: 1"))
    assert again.instance == a.instance


def test_generate_random_condorcet_postcondition():
    parsed = pc.generate_random(
        seed=3, num_candidates=3, num_parties=3, size_range=(1, 3),
        rule_spec="condorcet", direction="min",
    )
    from partycred.rules import condorcet_winner

    assert condorcet_winner(parsed.instance.election) == parsed.instance.p


def test_generate_random_retry_limit():
    with pytest.raises(ValueError, match="no instance"):
        # A two-candidate Condorcet winner never exists with an even split
        # of two size-limited identical draws; force failure via max_tries=0.
        pc.generate_random(
            seed=1, num_candidates=2, num_parties=1, size_range=(1, 1),
            rule_spec="condorcet", direction="min", max_tries=0,
        )


def test_generate_random_needs_two_candidates():
    with pytest.raises(ValueError, match="at least two candidates"):
        pc.generate_random(
            seed=1, num_candidates=1, num_parties=2, size_range=(1, 3),
            rule_spec="plurality", direction="min",
        )
