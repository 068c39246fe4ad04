"""Text formats: problem instances, graphs, 3-set systems, result JSON.

The instance format is line oriented.  ``#`` starts a comment, blank lines
are skipped, and every other line is either a ``key: value`` header or a
``party <name> <size>: a > b > c`` line.  Keys may appear once.  Parse
errors carry the 1-based line number.

``parse_instance`` reads the party lines straight into the election's rank
and size arrays; no per-party objects are built.  A party section that ends
the file with at least ``_BLOCK_MIN_NAMES`` order names is read in bulk when
it is a plain block (``_party_block``): UTF-8 with LF or CRLF line ends, no
``#``, no blank line, every head ``party <name> <size>`` with spaces alone,
and every order exactly m distinct candidate names joined by ``" > "``.
Every head is read in one split and every order from the bytes.  The bulk
path reads such a block whole, or declines it, and then the line loop
(``_read_lines``, then ``_parse_parties``) reads the whole party section, as
it does every smaller file and every file with a header among its party
lines.  It reads one whole line at a time, so every parse error keeps its
message and line.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

import numpy as np

from .core import validate_preference
from .parties import (
    VOTER_CELL_BOUND,
    Direction,
    DestinationMode,
    PartyElection,
    ProblemInstance,
    SolveResult,
    SolveStatus,
    SwitchPlan,
)
from .rules import (
    Condorcet,
    Copeland,
    Maximin,
    Rule,
    Scoring,
    WinnerModel,
    scoring_vector_for,
    winners,
)


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ParsedInstance:
    instance: ProblemInstance
    candidate_names: tuple[str, ...]
    party_names: tuple[str, ...]

    @property
    def p_name(self) -> str:
        return self.candidate_names[self.instance.p]


# The rules that take no parameter, each built for m candidates.
_PLAIN_RULES = {
    "plurality": lambda m: Scoring(vector=scoring_vector_for("plurality", m)),
    "veto": lambda m: Scoring(vector=scoring_vector_for("veto", m)),
    "borda": lambda m: Scoring(vector=scoring_vector_for("borda", m)),
    "condorcet": lambda m: Condorcet(),
    "maximin": lambda m: Maximin(),
}


def parse_rule_spec(spec: str, num_candidates: int) -> Rule:
    """Parse a rule string like ``borda``, ``approval:2`` or ``copeland:1/2``."""
    spec = spec.strip()
    head, _, arg = spec.partition(":")
    if head in _PLAIN_RULES:
        if arg:
            raise ValueError(f"rule {head} takes no parameter")
        return _PLAIN_RULES[head](num_candidates)
    if head == "approval":
        try:
            r = int(arg)
        except ValueError:
            raise ValueError(f"approval needs an integer parameter, got {arg!r}")
        return Scoring(vector=scoring_vector_for("approval", num_candidates, r))
    if head == "copeland":
        return Copeland(alpha=parse_alpha(arg))
    raise ValueError(f"unknown rule {spec!r}")


def parse_alpha(text: str) -> Fraction:
    """Exact rational alpha written as ``p/q`` or an integer; no decimals."""
    text = text.strip()
    if not text:
        raise ValueError("copeland needs an alpha parameter, e.g. copeland:1/2")
    if "." in text:
        raise ValueError(f"alpha must be an exact rational like 1/2, got {text!r}")
    num, slash, den = text.partition("/")
    try:
        if slash:
            return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad alpha {text!r}: {exc}")
    try:
        return Fraction(int(text))
    except ValueError:
        raise ValueError(f"bad alpha {text!r}")


def rule_to_spec(rule: Rule) -> str:
    if isinstance(rule, Condorcet):
        return "condorcet"
    if isinstance(rule, Maximin):
        return "maximin"
    if isinstance(rule, Copeland):
        return f"copeland:{rule.alpha.numerator}/{rule.alpha.denominator}"
    vector = rule.vector
    m = len(vector)
    if vector == scoring_vector_for("borda", m):
        return "borda"
    if set(vector) <= {0, 1}:
        r = sum(vector)
        if r == 1:
            return "plurality"
        if r == m - 1:
            return "veto"
        return f"approval:{r}"
    raise ValueError(f"scoring vector {vector} has no named spelling")


def _read_candidates(text: str, read: dict) -> dict[str, int]:
    names = text.split()
    if len(names) != len(set(names)):
        raise ValueError("duplicate candidate name")
    if len(names) < 2:
        raise ValueError("need at least two candidates")
    for name in names:
        if ">" in name:
            raise ValueError(f"candidate name {name!r} contains '>', the order separator")
    return {name: i for i, name in enumerate(names)}


def _read_k(text: str, read: dict) -> int:
    try:
        k = int(text)
    except ValueError:
        raise ValueError(f"k must be an integer, got {text!r}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return k


def _read_distinguished(text: str, read: dict) -> int:
    if text not in read["candidates"]:
        raise ValueError(f"unknown distinguished candidate {text!r}")
    return read["candidates"][text]


def _enum_header(key: str, enum, field: str):
    """The reader and printer of a header that names one of ``enum``'s values."""
    def read_enum(text: str, read: dict):
        try:
            return enum(text)
        except ValueError:
            raise ValueError(f"{key} must be {' or '.join(e.value for e in enum)}, got {text!r}")
    return read_enum, lambda parsed: getattr(parsed.instance, field).value


# The instance header, one line per key, in file order.  Each key has a
# reader, given its value text and the values of the keys before it, that
# raises ValueError with the message of the key's ParseError, and a
# printer, given the ParsedInstance.
_HEADERS = {
    "candidates": (_read_candidates, lambda parsed: " ".join(parsed.candidate_names)),
    "rule": (
        lambda text, read: parse_rule_spec(text, len(read["candidates"])),
        lambda parsed: rule_to_spec(parsed.instance.rule),
    ),
    "model": _enum_header("model", WinnerModel, "model"),
    "dest": _enum_header("dest", DestinationMode, "destination_mode"),
    "direction": _enum_header("direction", Direction, "direction"),
    "k": (_read_k, lambda parsed: str(parsed.instance.k)),
    "distinguished": (_read_distinguished, lambda parsed: parsed.p_name),
}


def parse_instance(text: str) -> ParsedInstance:
    headers: dict[str, tuple[int, str]] = {}
    party_lines: list[tuple[int, str, str]] = []  # (line number, head, order text)
    # The header lines end where the first line that starts with "party " does.
    at = 0 if text.startswith("party ") else text.find("\nparty ") + 1 or len(text)
    lines = text[:at].splitlines()
    _read_lines(lines, 1, headers, party_lines)
    rest = text[at:]
    block = None if party_lines else _party_block(rest, headers.get("candidates"))
    if block is None:
        _read_lines(rest.splitlines(), len(lines) + 1, headers, party_lines)

    for key in _HEADERS:
        if key not in headers:
            raise ParseError(len(text.splitlines()) or 1, f"missing required key {key!r}")
    read: dict[str, object] = {}
    for key, (reader, _) in _HEADERS.items():
        line_no, value = headers[key]
        try:
            read[key] = reader(value, read)
        except ValueError as exc:
            raise ParseError(line_no, str(exc))
    index = read["candidates"]

    parties = None if block is None else block.parties(index)
    if parties is None:
        if block is not None:  # an order the block cannot read: the line loop reads them all
            _read_lines(rest.splitlines(), len(lines) + 1, headers, party_lines)
        parties = _parse_parties(party_lines, index)
    party_names, ranks, sizes = parties
    if not party_names:
        raise ParseError(len(text.splitlines()) or 1, "no party lines")

    election = PartyElection.from_arrays(ranks, sizes)
    try:
        instance = ProblemInstance(
            election=election, p=read["distinguished"], k=read["k"], rule=read["rule"],
            model=read["model"], destination_mode=read["dest"], direction=read["direction"],
        )
    except ValueError as exc:
        raise ParseError(headers["distinguished"][0], str(exc))
    return ParsedInstance(
        instance=instance,
        candidate_names=tuple(index),
        party_names=tuple(party_names),
    )


def _read_lines(
    lines: list[str],
    first_line_no: int,
    headers: dict[str, tuple[int, str]],
    party_lines: list[tuple[int, str, str]],
) -> None:
    """Add the ``key: value`` headers of ``lines``, the first of them line
    ``first_line_no``, to ``headers`` and their party lines to
    ``party_lines``; skip comments and blank lines."""
    for line_no, raw in enumerate(lines, start=first_line_no):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise ParseError(line_no, f"expected 'key: value', got {raw.strip()!r}")
        key = key.strip()
        if key.startswith("party ") or key == "party":
            party_lines.append((line_no, key, value))
            continue
        if key not in _HEADERS:
            raise ParseError(line_no, f"unknown key {key!r}")
        if key in headers:
            raise ParseError(line_no, f"duplicate key {key!r} (first on line {headers[key][0]})")
        headers[key] = (line_no, value.strip())


# Block rows per ``_NameTable.codes`` call; it bounds the per-token arrays and
# the chunk's word copy (8 bytes per byte) held at once.
_PARTY_CHUNK = 512
# Names (lines times candidates) from which party lines are read in bulk
# (``_party_block``), not by the line loop.  The block costs 250-300 us up
# to 1,500 names, the line loop 0.25-0.9 us per name.  Timed against each
# other (best of 30-60), the block was faster from 300-450 names at m = 3,
# 450-600 at m = 6, 700-750 at m = 12, 800-900 at m = 25 and 1,100-1,200
# at m = 50.
_BLOCK_MIN_NAMES = 1_200


def _parse_parties(party_lines: list[tuple[int, str, str]], index: dict[str, int]):
    """(party names, ranks, sizes) of the ``party`` lines that the line loop
    collected, each given as (line number, head, order text): the text
    before the line's first ``:``, stripped, and the text after it.

    Each line is read whole before the next, so the first bad line raises
    its own ParseError.  Its head must read ``party <name> <size>``, with a
    new name and a size that ``int`` reads as non-negative and that keeps
    the voter count n at n * m < ``VOTER_CELL_BOUND``; its order is read by
    ``_party_order``.
    """
    m = len(index)
    parties: dict[str, int] = {}  # each name's size, in line order
    orders = []
    total = 0
    for line_no, head, text in party_lines:
        fields = head.split()
        if len(fields) != 3:
            raise ParseError(line_no, "party line must read 'party <name> <size>: ...'")
        _, name, size_text = fields
        if name in parties:
            raise ParseError(line_no, f"duplicate party name {name!r}")
        try:
            size = int(size_text)
        except ValueError:
            raise ParseError(line_no, f"party size must be an integer, got {size_text!r}")
        if size < 0:
            raise ParseError(line_no, f"party size must be non-negative, got {size}")
        total += size
        if total * m >= VOTER_CELL_BOUND:
            raise ParseError(
                line_no, f"party {name} brings the voter count to {total}: "
                "voters times candidates must stay below 2**62",
            )
        parties[name] = size
        orders.append(_party_order(line_no, text, index))
    # Each order is a checked permutation, so its ranks are its argsort.
    ranks = np.argsort(np.array(orders, dtype=np.int64).reshape(-1, m), axis=1)
    return list(parties), ranks, np.array(list(parties.values()), dtype=np.int64)


# The line breaks of ``str.splitlines`` other than "\n" and "\r": ASCII, and all.
_LINE_BREAKS = ("\x0b\x0c\x1c\x1d\x1e", "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
# The whitespace of ``str.split`` but a space or a line break, ASCII first.
_HEAD_SPACES = "\t\x1f\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u202f\u205f\u3000"


class _PartyBlock(NamedTuple):  # a frozen dataclass would add about 1 ms to every import
    """The party lines of a plain block, with every head read and checked:
    row q reads ``party <names[q]> <sizes[q]>:`` up to its first ':'.  Its
    order text, but one space after that ':', is buf[starts[q] : ends[q]],
    and buf[ends[q]] is its line's newline."""

    buf: np.ndarray  # the block's bytes as the name table's buffer
    starts: np.ndarray
    ends: np.ndarray
    names: list[str]
    sizes: list[int]
    table: _NameTable

    def parties(self, index: dict[str, int]):
        """(party names, ranks, sizes), as ``_parse_parties`` gives them, or
        None unless every order is m distinct names.

        Each chunk's codes are scattered straight into ``ranks``: the code
        at position i of row q writes i to ranks[q, code], so a row is a
        permutation exactly when none of its slots is left -1."""
        m = len(index)
        num_rows = len(self.names)
        flat = np.full(num_rows * m, -1, dtype=np.int64)
        for lo in range(0, num_rows, _PARTY_CHUNK):
            hi = min(lo + _PARTY_CHUNK, num_rows)
            codes = self.table.codes(self.buf, self.starts[lo:hi], self.ends[lo:hi])
            if codes is None:
                return None
            codes += np.arange(lo * m, hi * m, m)[:, None]  # each code's flat index
            flat[codes.ravel()] = np.tile(np.arange(m), hi - lo)
        if flat.min() < 0:  # a repeated name
            return None
        return self.names, flat.reshape(num_rows, m), np.array(self.sizes, dtype=np.int64)


def _party_block(rest: str, candidates: tuple[int, str] | None) -> _PartyBlock | None:
    """``rest``, the party section, as a plain block, or None when the line
    loop must read it.

    A plain block is UTF-8 whose lines end in LF or CRLF, and holds no
    ``#``, no lone CR, no other line break of ``str.splitlines`` and no
    blank line.  Every line must read ``party NAME SIZE: ORDER``, with a
    unique NAME, a SIZE that ``int`` reads as non-negative, voters times
    candidates below ``VOTER_CELL_BOUND`` and no whitespace but spaces in
    the head.  The lines must hold at least ``_BLOCK_MIN_NAMES`` order
    names, and the candidates must get a ``_NameTable``.  The line loop
    would then read the same heads without an error; ``_PartyBlock.parties``
    reads the orders.  The block is read as UTF-8 (``surrogatepass``, as the
    name table encodes names), where no byte of a non-ASCII character is
    ASCII."""
    # A name takes a character, and fewer than two names are a header error.
    names = candidates[1].split() if candidates and len(rest) >= _BLOCK_MIN_NAMES else ()
    m = len(names)
    table = _NameTable.build(dict.fromkeys(names)) if m > 1 else None
    if table is None:
        return None
    if "\r" in rest:  # 12 us on an 850 KB block, 980 us for "\r\n" in rest (2-vCPU VM)
        rest = rest.replace("\r\n", "\n")
    if any(char in rest for char in "#\r" + _LINE_BREAKS[not rest.isascii()]):
        return None
    data = (rest if rest.endswith("\n") else rest + "\n").encode("utf-8", "surrogatepass")
    buf = table.buffer(data)
    text = buf[: len(data)]
    del data  # buf holds a copy; the block-sized masks below need the room
    found = text == 10  # newlines and colons, or-ed in place
    found |= text == 58
    marks = np.flatnonzero(found)
    kinds = text.take(marks)
    newline = np.flatnonzero(kinds == 10)
    first = np.concatenate(([0], newline[:-1] + 1))  # each line's first mark
    if (kinds.take(first) != 58).any() or len(first) * m < _BLOCK_MIN_NAMES:
        return None  # a line with no ':', a blank one among them, or too few names
    starts = np.concatenate(([0], marks.take(newline[:-1]) + 1))  # each line's first byte
    colons = marks.take(first)
    lengths = colons + 1 - starts
    bounds = np.cumsum(lengths)
    heads = text.take(_spans(starts, colons + 1))  # every head in one array
    heads[bounds - 1] = 32  # the ':' that ends each head, read as a space
    word_starts = heads != 32
    word_starts[1:] &= heads[:-1] == 32
    if (np.add.reduceat(word_starts, bounds - lengths, dtype=np.intp) != 3).any():
        return None
    if (gt := heads == 62).any():  # a '>' in a party name: hidden from the order reader
        text[_spans(starts, colons + 1)[gt]] = 32
    heads = str(heads, "utf-8", "surrogatepass")
    if any(char in heads for char in _HEAD_SPACES[: 2 if heads.isascii() else None]):
        return None
    tokens = heads.split()
    party_names = tokens[1::3]
    if tokens[::3].count("party") != len(first) or len(set(party_names)) != len(first):
        return None
    try:
        sizes = list(map(int, tokens[2::3]))
    except ValueError:
        return None
    if min(sizes) < 0 or sum(sizes) * m >= VOTER_CELL_BOUND:
        return None
    order_starts = colons + 1 + (text.take(colons + 1) == 32)  # past the space after ':'
    return _PartyBlock(buf, order_starts, marks.take(newline), party_names, sizes, table)


def _spans(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The indices of every range lo[i] .. hi[i] - 1, in order."""
    lengths = hi - lo
    bounds = np.cumsum(lengths)
    return np.arange(bounds[-1]) + np.repeat(lo - bounds + lengths, lengths)


_U64 = np.dtype("<u8")
_LOW_BYTES = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=_U64)  # [b]: the low b bytes
_KEY_MIX = np.uint64(0x100000001B3)  # folds a name's length and words into one key
# Odd multipliers drawn independently (a fixed draw, so every run parses
# alike): two keys collide under a random one with probability <= 2 / slots.
_MULTIPLIERS = np.frombuffer(random.Random(0).randbytes(8 * 16), dtype=_U64) | np.uint64(1)
_MAX_SLOT_BITS = 19  # 2**19 slots: a table for up to 512 names


@dataclass(frozen=True)
class _NameTable:
    """Candidate codes of order texts read from their bytes, with no Python
    object per name.

    Each of the K names is read as W little-endian uint64 words, enough for
    the longest name's bytes, zero past its own end.  Its words and its
    byte length fold into one 64-bit key (``_token_keys``), and the slot of
    a key is the top bits of key * multiplier (multiply-shift hashing).
    ``build`` tries up to 16 odd multipliers on a table of at least
    2 * K**2 slots and keeps the first that gives every name its own slot;
    a random multiplier fails with probability below 1/2.  When none
    succeeds, or the table would exceed 2**``_MAX_SLOT_BITS`` slots, there
    is no table and the file takes the line loop.

    A token gets the code of the name in its slot only when its length and
    its words equal that name's, so the lookup is exact: a token that is
    not a name declines the block, even when it shares a name's first bytes
    or differs from it only by trailing NULs.  An empty slot holds code 0,
    which that test refuses as well.  Names and texts are encoded alike
    (UTF-8 with ``surrogatepass``), so a lone surrogate reads the same here
    as it does as a ``str``.  ``codes`` keeps one 1-D array per token quantity and
    takes one loop step per word column, so W sets only the loop's length.
    """

    words: np.ndarray  # (K, W) the names' words
    lengths: np.ndarray  # (K,) the names' byte lengths
    multiplier: np.uint64
    shift: np.uint64  # 64 minus the slot bits
    slots: np.ndarray  # the name code in each slot

    @classmethod
    def build(cls, index: dict[str, int]) -> _NameTable | None:
        encoded = [name.encode("utf-8", "surrogatepass") for name in index]
        k = len(encoded)
        bits = (2 * k * k - 1).bit_length()
        if bits > _MAX_SLOT_BITS:
            return None
        width = 8 * -(-max(map(len, encoded)) // 8)
        padded = b"".join(name.ljust(width, b"\0") for name in encoded)
        words = np.frombuffer(padded, dtype=_U64).reshape(k, -1)
        lengths = np.array([len(name) for name in encoded], dtype=np.int64)
        keys = _token_keys(words.T, lengths)
        shift = np.uint64(64 - bits)
        for multiplier in _MULTIPLIERS:
            hashed = (keys * multiplier) >> shift
            if len(set(hashed.tolist())) == k:  # np.unique would import numpy.ma
                slots = np.zeros(1 << bits, dtype=np.intp)
                slots[hashed] = np.arange(k)
                return cls(words, lengths, multiplier, shift, slots)
        return None

    def buffer(self, data: bytes) -> np.ndarray:
        """``data`` as a writable uint8 array, padded for the word reads of ``codes``."""
        pad = np.zeros(8 * self.words.shape[1], dtype=np.uint8)
        return np.concatenate((np.frombuffer(data, dtype=np.uint8), pad))

    def codes(self, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
        """(len(starts), m) int codes of order rows, m = K, or None unless
        every row reads exactly ``n1 > n2 > ... > nm`` with every ``ni`` a
        name.  Row r is buf[starts[r] : ends[r]] of a ``buffer``, buf[ends[r]]
        is a newline, and no '>' or newline lies between one row's end and
        the next row's start.

        The per-token arrays are 1-D, one loop step per word column: word j
        of each token is masked to the token's bytes, folded into its key
        in place, and later compared with word j of the name in its slot,
        into one running mask of the tokens that are not that name."""
        num_rows = len(starts)
        m, width = self.words.shape
        lo, hi = starts[0], ends[-1] + 1
        span = buf[lo:]  # offsets below are from lo; span[-1] is padding
        gt = span[: hi - lo] == 62
        stops = np.flatnonzero(gt | (span[: hi - lo] == 10))  # a '>' or newline ends a token
        after_gt = gt.take(stops)
        del gt  # with the word copy below, it would raise the parse's peak memory
        # Each row ends at its one newline and none lies between rows, so
        # every row holds m tokens exactly when there are num_rows * m tokens
        # and tokens m - 1, 2m - 1, ... all end at a newline.
        if len(stops) != num_rows * m or after_gt[m - 1 :: m].any():
            return None
        token_starts = np.empty_like(stops)
        token_starts[0] = 0
        np.add(stops[:-1], 2, out=token_starts[1:])  # past " > "
        token_starts[m::m] = starts[1:] - lo  # each later row's first token
        lengths = stops - token_starts
        lengths -= after_gt  # up to " > " or the newline
        # A token starts at most at hi, after a '>' that ends the last row.
        view = np.ndarray((hi - lo + 8 * width - 7,), dtype=_U64, buffer=span, strides=(1,))
        columns = []
        for j in range(width):
            # take copies the strided view before it gathers, 8 bytes per
            # byte of the chunk.  On a 512-row chunk at m = 50 (2-vCPU VM)
            # it still took 98-107 us, against 131-150 us for fancy indexing
            # on the view and 178 us for two aligned word reads with shifts.
            word = view.take(token_starts + 8 * j if j else token_starts)  # bytes 8j .. 8j + 7
            word &= _LOW_BYTES.take(lengths - 8 * j, mode="clip")
            columns.append(word)
        # No name ends at a '>' not spelled " > ".
        mismatch = after_gt > ((span.take(stops - 1) == 32) & (span.take(stops + 1) == 32))
        keys = _token_keys(columns, lengths)
        keys *= self.multiplier
        keys >>= self.shift
        found = self.slots.take(keys)
        mismatch |= self.lengths.take(found) != lengths
        for name_words, word in zip(self.words.T, columns):
            mismatch |= name_words.take(found) != word
        return None if mismatch.any() else found.reshape(num_rows, m)


def _token_keys(columns, lengths: np.ndarray) -> np.ndarray:
    """One uint64 key per token, folded in place from its byte length and
    its W word columns, each an (n,) uint64 array."""
    keys = lengths.astype(_U64)
    for column in columns:
        keys *= _KEY_MIX
        keys += column
    return keys


def _party_order(line_no: int, order_text: str, index: dict[str, int]) -> tuple[int, ...]:
    """The order of one party line, read name by name: its text split on
    ``>``, each name stripped.  ``validate_preference`` is called only to
    word the error of a tuple that is not m distinct codes."""
    if not order_text.strip():
        raise ParseError(line_no, "empty preference order")
    try:
        order = tuple(map(index.__getitem__, map(str.strip, order_text.split(">"))))
    except KeyError as exc:
        raise ParseError(line_no, f"unknown candidate {exc.args[0]!r} in preference")
    m = len(index)
    if len(order) != m or len(set(order)) != m:
        raise ParseError(line_no, f"bad preference: {validate_preference(order, m)}")
    return order


def serialize_instance(parsed: ParsedInstance, comment: str | None = None) -> str:
    names = parsed.candidate_names
    lines = [f"# {comment}"] if comment else []
    lines += [f"{key}: {show(parsed)}" for key, (_, show) in _HEADERS.items()]
    election = parsed.instance.election
    for pname, size, order in zip(
        parsed.party_names, election.sizes.tolist(), election.orders.tolist()
    ):
        lines.append(f"party {pname} {size}: {' > '.join(names[c] for c in order)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Graph and 3-set-system files


def parse_graph(text: str):
    """``n <count>``, ``t <bound>`` and ``e u v`` lines; 0-based vertices.
    ``n`` and ``t`` are required, once each.  An error in one edge names its
    line; a negative vertex count names the ``n`` line."""
    lines = _int_lines(text, {"n": 1, "t": 1, "e": 2}, once=("n", "t"))
    [(n_line, (n,))], [(_, (t,))], edges = lines.values()
    from .reductions import GraphInstance, ItemError

    try:
        return GraphInstance(num_vertices=n, edges=tuple(e for _, e in edges), bound=t)
    except ItemError as exc:
        raise ParseError(edges[exc.index][0], str(exc))
    except ValueError as exc:
        raise ParseError(n_line, str(exc))


def parse_x3c(text: str):
    """``m <universe size>`` plus ``s a b c`` lines; 0-based elements.  An
    error in one set names its line; one of the whole system (the universe
    size, or an element not in exactly three sets) names the ``m`` line."""
    lines = _int_lines(text, {"m": 1, "s": 3}, once=("m",))
    [(m_line, (m,))], sets = lines.values()
    from .reductions import ItemError, X3CInstance

    try:
        return X3CInstance(universe_size=m, sets=tuple(s for _, s in sets))
    except ItemError as exc:
        raise ParseError(sets[exc.index][0], str(exc))
    except ValueError as exc:
        raise ParseError(m_line, str(exc))


def _int_lines(text: str, arities: dict[str, int], once: tuple[str, ...]):
    """The ``key int...`` lines of a graph or 3-set file: for each key of
    ``arities``, in its order, the (line number, ints) of its lines.  ``#``
    starts a comment and blank lines are skipped.  Every other line must be
    a key and its arity of integers; each key of ``once`` must appear
    exactly once."""
    lines = text.splitlines()
    found: dict[str, list[tuple[int, tuple[int, ...]]]] = {key: [] for key in arities}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *fields = line.split()
        if arities.get(key) != len(fields):
            *keys, last = map(repr, arities)
            expected = f"{', '.join(keys)} or {last}"
            raise ParseError(line_no, f"expected {expected} line, got {raw.strip()!r}")
        if key in once and found[key]:
            raise ParseError(line_no, f"duplicate {key} line")
        found[key].append((line_no, tuple(_int_field(line_no, x) for x in fields)))
    for key in once:
        if not found[key]:
            raise ParseError(len(lines) or 1, f"missing {key!r} line")
    return found


def _int_field(line_no: int, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(line_no, f"expected an integer, got {text!r}")


# ---------------------------------------------------------------------------
# Result JSON


def result_to_json(
    parsed: ParsedInstance, result: SolveResult, wall_time_ms: int | float
) -> str:
    """Deterministic JSON rendering of a solve result.

    The document has nine keys in this order: ``direction``, ``rule``,
    ``model``, ``dest_mode``, ``value`` (the count, or the status when there
    is none), ``answer`` (true, false or null), ``witness`` (null, or its
    ``destination`` party, null for several, and its ``moves``, each a
    ``{from, to, count}`` object), ``solver`` and ``wall_time_ms``.  Its bytes
    are exactly those of ``json.dumps(doc, indent=2) + "\n"``
    (``_render_result``).  ``wall_time_ms`` is quantized down to a multiple
    of 100 ms so repeated runs of the same solve are byte-identical; a float
    stays a float (``1.0`` is written ``0.0``).
    """
    inst = parsed.instance
    if result.status is SolveStatus.FEASIBLE:
        value: int | str = result.value
    else:
        value = result.status.value
    witness = None
    if result.witness is not None:
        dests = result.witness.destinations()
        witness = {
            "destination": parsed.party_names[dests.pop()] if len(dests) == 1 else None,
            "moves": [
                {"from": parsed.party_names[s], "to": parsed.party_names[d], "count": c}
                for s, d, c in result.witness.moves
                if c > 0
            ],
        }
    return _render_result({
        "direction": inst.direction.value,
        "rule": rule_to_spec(inst.rule),
        "model": inst.model.value,
        "dest_mode": inst.destination_mode.value,
        "value": value,
        "answer": result.answer(inst),
        "witness": witness,
        "solver": result.solver,
        "wall_time_ms": (wall_time_ms // 100) * 100,
    })


_RESULT = (
    '{\n  "direction": %s,\n  "rule": %s,\n  "model": %s,\n  "dest_mode": %s,\n'
    '  "value": %s,\n  "answer": %s,\n  "witness": %s,\n  "solver": %s,\n'
    '  "wall_time_ms": %s\n}\n'
)
_WITNESS = '{\n    "destination": %s,\n    "moves": %s\n  }'
_MOVE = '      {\n        "from": %s,\n        "to": %s,\n        "count": %s\n      }'


def _render_result(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\n"`` for a ``result_to_json``
    document, written from its fixed schema.  ``json.dumps`` runs its
    pure-Python encoder whenever ``indent`` is set; this renders the same
    bytes, escaping strings with the C function it uses under
    ``ensure_ascii``."""
    witness = doc["witness"]
    if witness is not None:
        moves = [
            _MOVE % (_json_str(m["from"]), _json_str(m["to"]), _json_scalar(m["count"]))
            for m in witness["moves"]
        ]
        listed = "[\n" + ",\n".join(moves) + "\n    ]" if moves else "[]"
        witness = _WITNESS % (_json_scalar(witness["destination"]), listed)
    return _RESULT % (
        _json_str(doc["direction"]), _json_str(doc["rule"]), _json_str(doc["model"]),
        _json_str(doc["dest_mode"]), _json_scalar(doc["value"]), _json_scalar(doc["answer"]),
        "null" if witness is None else witness, _json_str(doc["solver"]),
        _json_scalar(doc["wall_time_ms"]),
    )


def _json_scalar(value) -> str:
    """``json.dumps(value)`` for a str, int, float, bool or None."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, float):  # a library caller's wall time: rare, so json's own
        return json.dumps(value)
    return int.__repr__(value)


# ---------------------------------------------------------------------------
# Random instance generation


RULE_CHOICES = (
    "plurality", "veto", "approval:2", "borda", "condorcet", "maximin", "copeland:1/2",
)
GENERATE_MAX_TRIES = 10_000  # draws before generate_random gives up


def generate_random(
    seed: int,
    num_candidates: int,
    num_parties: int,
    size_range: tuple[int, int],
    rule_spec: str,
    direction: str,
    model: str = "unique",
    dest: str = "one",
) -> ParsedInstance:
    """Seeded random instance whose distinguished candidate starts as winner."""
    if num_candidates < 2:
        raise ValueError(f"need at least two candidates, got {num_candidates}")
    rng = random.Random(seed)
    m = num_candidates
    rule = parse_rule_spec(rule_spec, m)
    model_e = WinnerModel(model)
    lo, hi = size_range
    if not (0 <= lo <= hi):
        raise ValueError(f"bad size range {lo}..{hi}")
    if hi == 0:
        raise ValueError(f"size range {lo}..{hi} gives every party 0 voters")
    vector = rule.vector if isinstance(rule, Scoring) else ()
    if model_e is WinnerModel.UNIQUE and len(set(vector)) == 1:
        raise ValueError(
            f"scoring vector {list(vector)} has no unique winner: its entries are all equal, "
            f"so every candidate scores the same and no candidate ever wins alone"
        )
    if (
        model_e is WinnerModel.UNIQUE and m > num_parties + 1
        and len(set(vector[:-1])) == 1 and vector[-2] > vector[-1]
    ):
        raise ValueError(
            f"a veto vector has no unique winner with {m} candidates and {num_parties} "
            f"parties: each party vetoes one candidate, so at least two are never vetoed "
            f"and tie; it needs candidates <= parties + 1 = {num_parties + 1}"
        )
    for _ in range(GENERATE_MAX_TRIES):
        orders, sizes = [], []
        for _ in range(num_parties):
            order = list(range(m))
            rng.shuffle(order)
            orders.append(order)
            sizes.append(rng.randint(lo, hi))
        election = PartyElection(orders, sizes)
        if election.num_voters == 0:
            continue
        won = winners(election, rule, model_e)
        if model_e is WinnerModel.UNIQUE:
            if len(won) != 1:
                continue
            p = next(iter(won))
        else:
            if not won:
                continue
            p = min(won)
        k = rng.randint(1, election.num_voters)
        instance = ProblemInstance(
            election=election, p=p, k=k, rule=rule, model=model_e,
            destination_mode=DestinationMode(dest), direction=Direction(direction),
        )
        return ParsedInstance(
            instance=instance,
            candidate_names=tuple(f"c{i + 1}" for i in range(m)),
            party_names=tuple(f"P{i + 1}" for i in range(num_parties)),
        )
    raise ValueError(
        f"no instance with an initial winner found in {GENERATE_MAX_TRIES} tries "
        f"(seed {seed})"
    )
