import dataclasses
import importlib.util
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partycred as pc
from partycred import instance_io
from partycred.core import validated_ranks
from partycred.instance_io import (
    ParseError,
    parse_alpha,
    parse_rule_spec,
    rule_to_spec,
)
from partycred.parties import feasible, infeasible
from partycred.rules import VOTER_POINT_BOUND

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
    with pytest.raises(ValueError, match=r"scoring vector \(3, 1, 0\) has no named spelling"):
        rule_to_spec(pc.Scoring(vector=(3, 1, 0)))


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


@pytest.mark.parametrize("old, new, message", [
    ("k: 1\n", "k: 1\ncolour: red\n", "line 7: unknown key 'colour'"),
    ("candidates: p a b", "candidates: p a a", "line 1: duplicate candidate name"),
    ("candidates: p a b", "candidates: p", "line 1: need at least two candidates"),
    ("rule: plurality", "rule: condorcet:x", "line 2: rule condorcet takes no parameter"),
    ("rule: plurality", "rule: maximin:x", "line 2: rule maximin takes no parameter"),
    ("rule: plurality", "rule: copeland:x", "line 2: bad alpha 'x'"),
    ("model: unique", "model: sole", "line 3: model must be unique or cowinner, got 'sole'"),
    ("dest: one", "dest: two", "line 4: dest must be one or multi, got 'two'"),
    ("direction: min", "direction: mid", "line 5: direction must be min or max, got 'mid'"),
    ("k: 1", "k: one", "line 6: k must be an integer, got 'one'"),
    ("distinguished: p", "distinguished: q", "line 7: unknown distinguished candidate 'q'"),
    ("party P1 2: p > a > b\nparty P2 1: a > p > b\n", "", "line 7: no party lines"),
])
def test_bad_header_reports_its_line(old, new, message):
    with pytest.raises(ParseError) as err:
        pc.parse_instance(MINIMAL.replace(old, new))
    assert str(err.value) == message
    assert _line_of(err.value) == int(message.split(":")[0].removeprefix("line "))


@pytest.mark.parametrize("head, message", [
    ("party P2", "party line must read 'party <name> <size>: ...'"),
    ("party P2 1 x", "party line must read 'party <name> <size>: ...'"),
    ("party P2 one", "party size must be an integer, got 'one'"),
    ("party P2 -1", "party size must be non-negative, got -1"),
    ("party P1 1", "duplicate party name 'P1'"),
])
def test_bad_party_head_reports_its_line(head, message):
    text = MINIMAL.replace("party P2 1", head)
    with pytest.raises(ParseError) as err:
        pc.parse_instance(text)
    assert str(err.value) == f"line 9: {message}"


@pytest.mark.parametrize("size", ["100000000000000000000", "9223372036854775807"])
def test_party_size_beyond_int64_reports_its_line(size):
    """The voter count n must keep n * m below 2**62: larger sizes used to
    raise OverflowError or wrap around silently."""
    text = MINIMAL.replace("party P1 2", f"party P1 {size}")
    with pytest.raises(ParseError, match=f"line 8: party P1 brings the voter count to {size}"):
        pc.parse_instance(text)


def test_voter_count_bound_counts_every_party():
    big = MINIMAL.replace("party P1 2", f"party P1 {2**62 // 3 - 1}")
    assert pc.parse_instance(big).instance.election.num_voters == 2**62 // 3  # n * 3 < 2**62
    with pytest.raises(ParseError, match="line 9: party P2 brings"):
        pc.parse_instance(big.replace("party P2 1", "party P2 2"))


def test_borda_file_at_the_voter_point_bound():
    """A named vector keeps n * m below 2**62 but not n * max(vector) below
    ``rules.VOTER_POINT_BOUND``: Borda at m = 4 reaches it below the voter
    bound, and the file is then refused."""
    text = (
        MINIMAL.replace("candidates: p a b", "candidates: p a b c")
        .replace("rule: plurality", "rule: borda")
        .split("party P1")[0]
        + "party P1 {}: p > a > b > c\n"
    )
    last = -(-VOTER_POINT_BOUND // 3) - 1  # the largest n with n * 3 below the bound
    assert (last + 1) * 4 < 2**62
    assert pc.parse_instance(text.format(last)).instance.election.num_voters == last
    with pytest.raises(ParseError, match="must stay below 2\\*\\*63 // 3"):
        pc.parse_instance(text.format(last + 1))


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
        ("a > p > b >", "unknown candidate '' in preference"),
        ("a > p > b > a", "bad preference: duplicate 1"),
        ("a > p\x00 > b", "unknown candidate 'p\\x00' in preference"),
        ("pz> a > b", "unknown candidate 'pz' in preference"),
        ("p >za > b", "unknown candidate 'za' in preference"),
    ],
)
def test_bad_order_late_in_long_file(order, message):
    # 3,000 parties are a block, read from its bytes 512 rows at a time:
    # row 2,700 lies in the last chunk of 440 rows, and rows 511-513 on both
    # sides of a chunk boundary.  A 12-party file is read by the line loop only.
    for num_parties, bad in ((3_000, 2_700), (3_000, 511), (3_000, 512), (3_000, 513), (12, 7)):
        text, first = _long_file(num_parties, {bad: f"party X 1: {order}".rstrip()})
        with pytest.raises(ParseError) as err:
            pc.parse_instance(text)
        assert str(err.value) == f"line {first + bad}: {message}"
        assert _line_of(err.value) == first + bad


def test_first_bad_party_line_wins():
    # 3,000 parties are a block; 12 are read by the line loop alone.
    for num_parties, early, late in ((3_000, 2_000, 2_500), (12, 7, 9)):
        order_then_head = {early: "party X 1: a > a > b", late: "party Y -1: p > a > b"}
        text, first = _long_file(num_parties, order_then_head)
        with pytest.raises(ParseError, match="duplicate 1") as err:
            pc.parse_instance(text)
        assert _line_of(err.value) == first + early
        head_then_order = {early: "party Y x: p > a > b", late: "party X 1: a > a > b"}
        text, first = _long_file(num_parties, head_then_order)
        with pytest.raises(ParseError, match="party size must be an integer") as err:
            pc.parse_instance(text)
        assert _line_of(err.value) == first + early
        # A bad order on the same line as a bad head: the head is reported.
        text, first = _long_file(num_parties, {early: "party P1 1: a > a > b"})
        with pytest.raises(ParseError, match="duplicate party name 'P1'") as err:
            pc.parse_instance(text)
        assert _line_of(err.value) == first + early
        # Skipped lines before a bad order, with "\n" or "\r\n" line ends, keep its line.
        text, first = _long_file(num_parties, {early: "party X 1: a > a > b"})
        text = text.replace("party P5 1:", "# note\n\n  \nparty P5 1:")
        for body in (text, text.replace("\n", "\r\n")):
            with pytest.raises(ParseError, match="duplicate 1") as err:
                pc.parse_instance(body)
            assert _line_of(err.value) == first + early + 3
    # Bad orders on both sides of a chunk boundary: the first is reported.
    across = {511: "party X 1: a > p\x00 > b", 513: "party Y 1: a > a > b"}
    text, first = _long_file(3_000, across)
    with pytest.raises(ParseError, match="unknown candidate 'p\\\\x00'") as err:
        pc.parse_instance(text)
    assert _line_of(err.value) == first + 511


def test_other_spellings_parse_like_canonical_orders(monkeypatch):
    """The block read, the line loop, and the block's re-read of the rows it
    cannot read give the same arrays.  1,500 parties are a block, read from
    its bytes in chunks of 512, 512 and 476 rows, also with tabs in their
    orders.  With a tab in a head they go through the line loop, as 12
    parties do, and with no name table all are."""
    byte_chunks = []
    read_bytes = instance_io._NameTable.codes
    monkeypatch.setattr(
        instance_io._NameTable, "codes",
        lambda table, buf, starts, ends: (
            byte_chunks.append(len(starts)) or read_bytes(table, buf, starts, ends)
        ),
    )
    parsed = {}
    for num_parties in (1_500, 12):
        text, _ = _long_file(num_parties)
        respelled = (
            text.replace("p > a > b", "p>a>b")
            .replace("a > b > p", "a  >\tb > p")
            .replace("b > p > a", "  b > p >a\u2003")
        )
        mixed = text.replace("party P7 1: b > p > a", "party P7 1: b>p >  a")
        tabbed_head = text.replace("party P7 1:", "party P7\t1:")
        canonical = pc.parse_instance(text)
        for body in (respelled, mixed, tabbed_head):
            again = pc.parse_instance(body)
            assert again.instance == canonical.instance
            assert again.party_names == canonical.party_names
        parsed[num_parties] = canonical.instance.election.orders
    block = [512, 512, 476]
    assert byte_chunks == block * 3  # canonical, respelled, mixed
    assert np.array_equal(parsed[12][1:], parsed[1_500][1:12])
    monkeypatch.setattr(instance_io, "_MULTIPLIERS", instance_io._MULTIPLIERS[:0])  # no table
    text, _ = _long_file(1_500)
    assert np.array_equal(pc.parse_instance(text).instance.election.orders, parsed[1_500])
    assert byte_chunks == block * 3


_SPECIAL_NAMES = ("a", "a\x00", "abcdefgh1", "abcdefgh2", "\ud800", "é", "名前", "x" * 20)
_NAMES = st.lists(
    st.one_of(
        st.sampled_from(_SPECIAL_NAMES),
        st.text(st.characters(exclude_characters=">#"), min_size=1, max_size=20),
    ).filter(lambda x: x.split() == [x] and len(x.encode("utf-8", "surrogatepass")) <= 20),
    min_size=3, max_size=6, unique=True,
)


@st.composite
def _order_texts(draw):
    """(names, order texts): canonical rows, other spellings of orders and
    malformed rows."""
    names = draw(_NAMES)
    unknown = [x for x in ("?", "a\x00\x00", "abcdefgh", "abcdefgh3", "\udfff", names[0] + "\x00")
               if x not in names]
    texts = []
    for _ in range(draw(st.integers(1, 8))):
        order = draw(st.permutations(names))
        kind = draw(st.sampled_from(
            ("canonical", "canonical", "spelled", "glued", "missing", "extra", "unknown",
             "duplicate", "empty", "trailing")
        ))
        if kind == "spelled":
            gaps = [draw(st.sampled_from((">", " >", "> ", "  >\t", " > "))) for _ in order[1:]]
            text = order[0] + "".join(g + x for g, x in zip(gaps, order[1:]))
        elif kind == "glued":  # one more byte on a side of a '>'
            text = " > ".join(order).replace(" > ", draw(st.sampled_from(("Z> ", " >Z"))), 1)
        elif kind == "missing":
            text = " > ".join(order[:-1])
        elif kind == "extra":
            text = " > ".join(order + [order[0]])
        elif kind == "unknown":
            order[draw(st.integers(0, len(order) - 1))] = draw(st.sampled_from(unknown))
            text = " > ".join(order)
        elif kind == "duplicate":
            text = " > ".join([order[1]] + order[1:])
        elif kind == "empty":
            text = ""
        elif kind == "trailing":
            text = " > ".join(order) + " >"
        else:
            text = " > ".join(order)
        lead = draw(st.sampled_from(("", " ", "\t")))
        texts.append(lead + text + draw(st.sampled_from(("", " ", " \t"))))
    return names, texts


@settings(max_examples=80, deadline=None)
@given(_order_texts())
def test_party_orders_match_a_row_by_row_reading(drawn):
    """A block of one chunk (at most 504 rows) that repeats the drawn order
    texts, each right after its line's ':', against ``_party_order`` on
    every row.  The bulk read takes exactly the rows that, past one leading
    space and without their last spaces, split on " > " into m names, and
    its match test alone gives a name's code to exactly that name's tokens,
    whatever slot the hash picks."""
    names, texts = drawn
    m = len(names)
    index = {x: i for i, x in enumerate(names)}
    rows = -(-instance_io._BLOCK_MIN_NAMES // m)
    rows = -(-rows // len(texts)) * len(texts)
    lines = [(i + 1, texts[i % len(texts)]) for i in range(rows)]
    rest = "".join(f"party P{n} 1:{text}\n" for n, text in lines)
    block = instance_io._party_block(rest, 1, (0, " ".join(names)))
    assert block is not None

    calls = []
    read_bytes = instance_io._NameTable.codes
    with mock.patch.object(
        instance_io._NameTable, "codes",
        lambda table, *args: calls.append((table, args)) or read_bytes(table, *args),
    ):
        try:
            expected = [instance_io._party_order(n, text, index) for n, text in lines]
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                block.parties(index)
            assert (str(err.value), err.value.line_no) == (str(exc), exc.line_no)
        else:
            _, ranks, _ = block.parties(index)
            assert np.argsort(ranks, axis=1).tolist() == [list(order) for order in expected]

    [(table, args)] = calls
    read = read_bytes(table, *args)
    split = [text.removeprefix(" ").rstrip(" ").split(" > ") for _, text in lines]
    split = np.array([[index.get(x, -1) for x in row] if len(row) == m else [-1] * m
                      for row in split])
    valid = np.ones(len(read), dtype=bool)
    valid[validated_ranks(read)[1]] = False
    split_valid = np.array([sorted(row) == list(range(m)) for row in split.tolist()])
    assert np.array_equal(valid, split_valid)
    assert np.array_equal(read[valid], split[valid])
    for c in range(m):
        forced = dataclasses.replace(table, slots=np.full_like(table.slots, c)).codes(*args)
        assert np.array_equal(forced, np.where(read == c, c, -1))


def _outcome(text: str):
    """The parse of ``text``, or its error's message and line."""
    try:
        return pc.parse_instance(text)
    except ParseError as err:
        return str(err), err.line_no


def _read_both(text: str) -> bool:
    """Whether the block read ``text``, once its outcome, parse or error
    and line, is the line loop's."""
    took = []
    block = instance_io._party_block
    spy = lambda *args: took.append(block(*args)) or took[-1]  # noqa: E731
    with mock.patch.object(instance_io, "_party_block", spy):
        got = _outcome(text)
    with mock.patch.object(instance_io, "_party_block", lambda *args: None):
        assert got == _outcome(text)
    return bool(took) and took[0] is not None


def _set_size(size):
    return lambda line: re.sub(r"^party (\S+) \S+:", rf"party \1 {size}:", line)


def _in_order(old, new):
    return lambda line: line.replace(":", "\0", 1).replace(old, new, 1).replace("\0", ":", 1)


# Mutations of one party line, by whether the file stays a block.  A
# string joins the line to the next one with that line break.
_REGULAR = {
    "double space in head": lambda line: line.replace(" ", "  ", 1),
    "trailing space": lambda line: line + " ",
    "size +3": _set_size("+3"),
    "size 1_000": _set_size("1_000"),
    "'>' in a party name": lambda line: line.replace("party P", "party P>", 1),
    "no space after ':'": lambda line: line.replace(": ", ":", 1),
    "no space after ':', unknown name": lambda line: line.replace(": ", ":", 1) + " > q",
    "empty order": lambda line: line.partition(":")[0] + ":",
    "order a>b": _in_order(" > ", ">"),
    "unknown candidate": _in_order(" > ", " > q"),
    "repeated candidate": _in_order(" > p", " > p > p"),
    "tab in an order": _in_order(" > ", " >\t"),
    "CRLF": lambda line: line + "\r",
    "comment": lambda line: line + " # note: a > b",
    "comment-only line": lambda line: "  # note: a > b\n" + line,
    "blank line": lambda line: "\n" + line,
    "whitespace-only line": lambda line: " \t\u3000\n" + line,
    "non-ASCII name": lambda line: line.replace("party P", "party Pé", 1),
    "lone CR line end": "\r",
    "NEL line break": "\x85",
    "LS line break": "\u2028",
}
_IRREGULAR = {
    "tab in head": lambda line: line.replace(" ", "\t", 1),
    "no-break space in head": lambda line: line.replace(" ", " \xa0", 1),
    "\\x1f in head": lambda line: line.replace(" ", " \x1f", 1),
    "duplicate name": lambda line: re.sub(r"^party \S+ ", "party P0 ", line),
    "size -1": _set_size(-1),
    "size x": _set_size("x"),
    "size past the voter bound": _set_size(2**62 // 3),
    "missing colon": lambda line: line.replace(":", "", 1),
    "head alone": lambda line: line.partition(":")[0],
    "other key": lambda line: line.replace("party ", "parties ", 1),
}
_KINDS = sorted(_REGULAR) + sorted(_IRREGULAR) + [
    "size moved to the next head", "size moved past a tab", "header after the parties",
    "no final newline",
]


def _mutate(lines: list[str], kind: str, at: int) -> None:
    change = {**_REGULAR, **_IRREGULAR}.get(kind)
    if isinstance(change, str):
        lines[at] += change + lines.pop(at + 1)
    elif change is not None:
        lines[at] = change(lines[at])
    elif kind.startswith("size moved"):  # the two heads still hold six tokens
        head, colon, order = lines[at].partition(":")
        *words, size = head.split()
        tab = kind.endswith("tab")
        lines[at] = " ".join(words) + " \t" * tab + colon + order
        lines[at + 1] = size + "\t" * tab + " " * (not tab) + lines[at + 1]
    elif kind == "header after the parties":
        lines.insert(at, lines.pop(0))


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_party_block_parses_like_the_line_loop(kind, data):
    """A file of at least 1,500 order names (600 parties) with one party line
    mutated, and perhaps a second, parses to the same instance, or the same
    error and line, with its party lines read as a block or line by line.
    Regular mutations keep it a block."""
    text, first = _long_file(600)
    lines = text.splitlines()
    kinds = [kind] + data.draw(st.lists(st.sampled_from(_KINDS), max_size=1))
    for each in kinds:
        _mutate(lines, each, data.draw(st.integers(first - 1, len(lines) - 2)))
    text = "\n".join(lines) + "\n" * ("no final newline" not in kinds)
    read_as_block = _read_both(text)
    if set(kinds) <= set(_REGULAR) | {"no final newline"}:
        assert read_as_block


def test_block_reads_whitespace_as_the_str_methods_do():
    """The block's line breaks are those of ``str.splitlines``, and a head
    that holds any other whitespace but a space is left to the line loop,
    even on the last line, where a misread head could not shift the next."""
    spaces = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
    breaks = {c for c in spaces if len(f"a{c}b".splitlines()) == 2}
    assert breaks == set(instance_io._LINE_BREAKS[1] + "\r\n")
    assert spaces == breaks | set(instance_io._HEAD_SPACES) | {" "}
    ascii_breaks = "".join(c for c in instance_io._LINE_BREAKS[1] if c.isascii())
    assert instance_io._LINE_BREAKS[0] == ascii_breaks
    text, _ = _long_file(600)
    for char in instance_io._HEAD_SPACES:
        for head in (f"party P5{char}99 1:", f"party {char}P599 1:"):
            assert not _read_both(text.replace("party P599 1:", head))
    assert _read_both(text.replace("\n", "\r"))


@pytest.mark.parametrize("candidates, message", [
    ("candidates:", "line 1: need at least two candidates"),
    ("candidates: p", "line 1: need at least two candidates"),
    ("candidates: p a a", "line 1: duplicate candidate name"),
    ("candidates: p a b c>d", "line 1: candidate name 'c>d' contains '>', the order separator"),
])
def test_bad_candidates_line_before_a_party_block(candidates, message):
    text, _ = _long_file(600)
    with pytest.raises(ParseError) as err:
        pc.parse_instance(text.replace("candidates: p a b", candidates))
    assert str(err.value) == message


def _perfbench_module(name: str):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # its dataclasses look it up
        spec.loader.exec_module(module)
    return module


def test_only_large_benchmark_files_take_the_block_path(monkeypatch):
    """Every poly-large file of at least 1,500 order names is read as a
    block; no search-pool file and no set-up warm-up text is."""
    pools = _perfbench_module("instances")
    warm_up = _perfbench_module("setup_probe").WARMUP_TEXTS
    took = []
    block = instance_io._party_block
    monkeypatch.setattr(
        instance_io, "_party_block", lambda *args: took.append(block(*args)) or took[-1]
    )
    texts = [(w, pools.instance_text(w, i)) for w in ("poly-large", "search-one", "search-multi")
             for i in range(pools.pool_size(w))]
    large = 0
    for workload, text in texts + [("warm-up", text) for text in warm_up]:
        took.clear()
        parsed = pc.parse_instance(text)
        names = len(parsed.party_names) * len(parsed.candidate_names)
        large += names >= instance_io._BLOCK_MIN_NAMES
        assert [b is not None for b in took] == [names >= instance_io._BLOCK_MIN_NAMES]
        assert names < instance_io._BLOCK_MIN_NAMES or workload == "poly-large"
    assert large == 6


def test_candidate_name_with_separator():
    # '>' always splits an order, so such a name is refused where it is declared.
    text = MINIMAL.replace("candidates: p a b", "candidates: p a b c>d")
    for body in (text, text.replace("p > a > b\n", "p > a > b > c>d\n")):
        with pytest.raises(ParseError, match="candidate name 'c>d' contains '>'") as err:
            pc.parse_instance(body)
        assert _line_of(err.value) == 1


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


def test_parse_graph_reports_the_offending_edge_line():
    text = "n 4\nt 2\ne 0 1\ne 1 2\ne 3 3\n"
    with pytest.raises(ParseError, match=r"^line 5: self-loop at vertex 3$"):
        pc.parse_graph(text)
    with pytest.raises(ParseError, match=r"^line 5: duplicate edge \(0, 1\)$"):
        pc.parse_graph("n 4\nt 2\ne 0 1\n# again\ne 1 0\n")
    with pytest.raises(ParseError, match=r"^line 3: edge \(0, 9\) out of range$"):
        pc.parse_graph("t 2\nn 4\ne 0 9\n")


def test_parse_x3c_reports_the_offending_set_line():
    good = "s 0 1 2\n" * 3
    with pytest.raises(ParseError, match=r"^line 4: set \(0, 0, 1\) must have exactly 3"):
        pc.parse_x3c("m 3\ns 0 1 2\ns 0 1 2\ns 0 0 1\n")
    with pytest.raises(ParseError, match=r"^line 3: element 5 out of universe range$"):
        pc.parse_x3c("# header\nm 3\ns 0 1 5\n" + good)
    with pytest.raises(ParseError, match=r"^line 2: every element must occur"):
        pc.parse_x3c("\nm 3\ns 0 1 2\n")


@pytest.mark.parametrize("parse, text, message", [
    (pc.parse_graph, "n 3\nt 1\nt 2\n", "line 3: duplicate t line"),
    (pc.parse_graph, "n 3\nt x\n", "line 2: expected an integer, got 'x'"),
    (pc.parse_x3c, "m 3\nm 3\n", "line 2: duplicate m line"),
    (pc.parse_x3c, "m 3\nt 1\n", "line 2: expected 'm' or 's' line, got 't 1'"),
    (pc.parse_x3c, "m 3\ns 0 1 two\n", "line 2: expected an integer, got 'two'"),
])
def test_graph_and_x3c_line_errors(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert _line_of(err.value) == int(message.split(":")[0].removeprefix("line "))


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


# Strings with every kind of character that json.dumps escapes under
# ensure_ascii: quotes, backslashes, control characters, non-ASCII and lone
# surrogates.
_JSON_TEXT = st.text(st.one_of(
    st.characters(),
    st.characters(categories=["Cc", "Cs"]),
    st.sampled_from('"\\/\u2028'),
))
_RESULT_KEYS = (
    "direction", "rule", "model", "dest_mode", "value", "answer", "witness", "solver",
    "wall_time_ms",
)
_MOVES = st.lists(
    st.tuples(_JSON_TEXT, _JSON_TEXT, st.integers(min_value=0)).map(
        lambda t: {"from": t[0], "to": t[1], "count": t[2]}
    ),
    max_size=4,
)
_WITNESSES = st.one_of(
    st.none(),
    st.tuples(st.one_of(st.none(), _JSON_TEXT), _MOVES).map(
        lambda t: {"destination": t[0], "moves": t[1]}
    ),
)


@given(st.tuples(
    _JSON_TEXT, _JSON_TEXT, _JSON_TEXT, _JSON_TEXT,
    st.one_of(st.integers(), st.sampled_from(["infeasible", "budget_exhausted"]), _JSON_TEXT),
    st.sampled_from([True, False, None]), _WITNESSES, _JSON_TEXT,
    st.one_of(st.integers(min_value=0), st.floats()),
))
@settings(max_examples=200, deadline=None)
def test_result_json_bytes_are_those_of_json_dumps(fields):
    doc = dict(zip(_RESULT_KEYS, fields))
    assert instance_io._render_result(doc) == json.dumps(doc, indent=2) + "\n"


def test_result_json_with_a_float_wall_time_is_that_of_json_dumps():
    """A float wall time is quantized as a float and written as json.dumps
    writes it; an int one stays an int."""
    parsed = pc.parse_instance(MINIMAL.replace("k: 1", "k: 2"))
    result = feasible(1, pc.SwitchPlan(moves=((0, 1, 1),)), "min_scoring")
    for ms, shown in ((1.0, 0.0), (1234.5, 1200.0), (99.99, 0.0), (300.0, 300.0), (1234, 1200)):
        out = pc.result_to_json(parsed, result, ms)
        doc = json.loads(out)
        assert doc["wall_time_ms"] == shown and type(doc["wall_time_ms"]) is type(shown)
        assert out == json.dumps(doc, indent=2) + "\n", ms
    assert '"wall_time_ms": 0.0\n' in pc.result_to_json(parsed, result, 1.0)


def test_result_json_of_every_benchmark_pool_instance():
    """The solved document of every pool entry of the three benchmark
    workloads is what json.dumps(doc, indent=2) writes; json.loads gives
    back the document, as it holds no floats."""
    pools = _perfbench_module("instances")
    for workload in ("poly-large", "search-one", "search-multi"):
        for i in range(pools.pool_size(workload)):
            parsed = pc.parse_instance(pools.instance_text(workload, i))
            out = pc.result_to_json(parsed, pc.solve.solve_instance(parsed.instance, "auto"), 0)
            assert out == json.dumps(json.loads(out), indent=2) + "\n", (workload, i)


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
        # Approval of both candidates ties them in every draw, so no draw
        # has a unique winner and every try fails.
        pc.generate_random(
            seed=1, num_candidates=2, num_parties=1, size_range=(1, 3),
            rule_spec="approval:2", direction="min",
        )


def test_generate_random_needs_two_candidates():
    with pytest.raises(ValueError, match="at least two candidates"):
        pc.generate_random(
            seed=1, num_candidates=1, num_parties=2, size_range=(1, 3),
            rule_spec="plurality", direction="min",
        )


@pytest.mark.parametrize("size_range", [(3, 1), (-1, 2)])
def test_generate_random_rejects_a_bad_size_range(size_range):
    lo, hi = size_range
    with pytest.raises(ValueError, match=f"bad size range {lo}..{hi}"):
        pc.generate_random(
            seed=1, num_candidates=3, num_parties=2, size_range=size_range,
            rule_spec="plurality", direction="min",
        )


def test_generate_random_refuses_sizes_whose_top_is_zero(monkeypatch):
    """A range whose top is 0 gives no voters at all: it is refused before
    any election is drawn, with the cause, not after every try."""
    def no_draws(*args, **kwargs):
        raise AssertionError("an election was drawn")

    monkeypatch.setattr("partycred.instance_io.PartyElection", no_draws)
    with pytest.raises(ValueError, match="size range 0..0 gives every party 0 voters"):
        pc.generate_random(
            seed=1, num_candidates=3, num_parties=2, size_range=(0, 0),
            rule_spec="plurality", direction="min",
        )


def test_generate_random_cowinner_takes_the_lowest_winner():
    parsed = pc.generate_random(
        seed=32, num_candidates=3, num_parties=3, size_range=(1, 3),
        rule_spec="copeland:1", direction="min", model="cowinner",
    )
    inst = parsed.instance
    assert inst.model is pc.WinnerModel.COWINNER
    assert pc.winners(inst.election, inst.rule, inst.model) == {1, 2}
    assert inst.p == 1
