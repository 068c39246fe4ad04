"""Text formats: problem instances, graphs, 3-set systems, result JSON.

The instance format is line oriented.  ``#`` starts a comment, blank lines
are skipped, and every other line is either a ``key: value`` header or a
``party <name> <size>: a > b > c`` line.  Keys may appear once.  Parse
errors carry the 1-based line number.

``parse_instance`` reads the party lines straight into the election's rank
and size arrays (see ``_parse_parties``); no per-party objects are built.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat

import numpy as np

from .core import invalid_orders, ranks_from_orders, validate_preference
from .parties import (
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


def parse_rule_spec(spec: str, num_candidates: int) -> Rule:
    """Parse a rule string like ``borda``, ``approval:2`` or ``copeland:1/2``."""
    spec = spec.strip()
    head, _, arg = spec.partition(":")
    if head in ("plurality", "veto", "borda"):
        if arg:
            raise ValueError(f"rule {head} takes no parameter")
        return Scoring(vector=scoring_vector_for(head, num_candidates))
    if head == "approval":
        try:
            r = int(arg)
        except ValueError:
            raise ValueError(f"approval needs an integer parameter, got {arg!r}")
        return Scoring(vector=scoring_vector_for("approval", num_candidates, r))
    if head == "condorcet":
        if arg:
            raise ValueError("rule condorcet takes no parameter")
        return Condorcet()
    if head == "maximin":
        if arg:
            raise ValueError("rule maximin takes no parameter")
        return Maximin()
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


_HEADER_KEYS = ("candidates", "rule", "model", "dest", "direction", "k", "distinguished")


def parse_instance(text: str) -> ParsedInstance:
    headers: dict[str, tuple[int, str]] = {}
    party_lines: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise ParseError(line_no, f"expected 'key: value', got {raw.strip()!r}")
        key = key.strip()
        if key.startswith("party ") or key == "party":
            party_lines.append((line_no, line))
            continue
        if key not in _HEADER_KEYS:
            raise ParseError(line_no, f"unknown key {key!r}")
        if key in headers:
            raise ParseError(line_no, f"duplicate key {key!r} (first on line {headers[key][0]})")
        headers[key] = (line_no, value.strip())

    for key in _HEADER_KEYS:
        if key not in headers:
            raise ParseError(len(text.splitlines()) or 1, f"missing required key {key!r}")

    line_no, value = headers["candidates"]
    names = value.split()
    if len(names) != len(set(names)):
        raise ParseError(line_no, "duplicate candidate name")
    if len(names) < 2:
        raise ParseError(line_no, "need at least two candidates")
    index = {name: i for i, name in enumerate(names)}
    m = len(names)

    line_no, value = headers["rule"]
    try:
        rule = parse_rule_spec(value, m)
    except ValueError as exc:
        raise ParseError(line_no, str(exc))

    line_no, value = headers["model"]
    try:
        model = WinnerModel(value)
    except ValueError:
        raise ParseError(line_no, f"model must be unique or cowinner, got {value!r}")

    line_no, value = headers["dest"]
    try:
        dest_mode = DestinationMode(value)
    except ValueError:
        raise ParseError(line_no, f"dest must be one or multi, got {value!r}")

    line_no, value = headers["direction"]
    try:
        direction = Direction(value)
    except ValueError:
        raise ParseError(line_no, f"direction must be min or max, got {value!r}")

    line_no, value = headers["k"]
    try:
        k = int(value)
    except ValueError:
        raise ParseError(line_no, f"k must be an integer, got {value!r}")
    if k < 1:
        raise ParseError(line_no, f"k must be positive, got {k}")

    line_no, value = headers["distinguished"]
    if value not in index:
        raise ParseError(line_no, f"unknown distinguished candidate {value!r}")
    p = index[value]

    party_names, ranks, sizes = _parse_parties(party_lines, index)
    if not party_names:
        raise ParseError(len(text.splitlines()) or 1, "no party lines")

    election = PartyElection.from_arrays(ranks, sizes)
    try:
        instance = ProblemInstance(
            election=election, p=p, k=k, rule=rule, model=model,
            destination_mode=dest_mode, direction=direction,
        )
    except ValueError as exc:
        raise ParseError(headers["distinguished"][0], str(exc))
    return ParsedInstance(
        instance=instance,
        candidate_names=tuple(names),
        party_names=tuple(party_names),
    )


_PARTY_CHUNK = 512  # party lines per tokenizing step; bounds the token lists held at once


def _parse_parties(party_lines: list[tuple[int, str]], index: dict[str, int]):
    """(party names, ranks, sizes) of the numbered ``party`` lines.

    Heads are read line by line.  Orders are tokenized ``_PARTY_CHUNK``
    lines at a time, on the canonical spelling ``a > b > c``, straight into
    an (l, m) array, and every row is validated at once.  A row that this
    fast path cannot read, because it is malformed or only spelled
    differently (``a>b``), is re-read by ``_party_order``, which returns its
    order or raises its ParseError.  Rows are re-read in line order, and a
    head error is raised only after the rows above it, so a file yields the
    same parties, or the same first error, as a line-by-line reading.

    The fast path is exact: once the names are known to contain neither
    whitespace nor ``>``, a stripped text that splits on ``" > "`` into m
    names splits on ``">"`` into the same names after stripping.
    """
    m = len(index)
    names: list[str] = []
    seen: set[str] = set()
    sizes: list[int] = []
    texts: list[str] = []
    head_error = None
    for line_no, line in party_lines:
        try:
            name, size, text = _party_head(line_no, line, seen)
        except ParseError as exc:
            head_error = exc
            break
        names.append(name)
        seen.add(name)
        sizes.append(size)
        texts.append(text)

    orders = np.empty((len(texts), m), dtype=np.int64)
    lookup = {name: c for name, c in index.items() if ">" not in name}
    unread = ("",) * m  # no name is empty, so the row fails validation
    for lo in range(0, len(texts), _PARTY_CHUNK):
        rows = [text.strip().split(" > ") for text in texts[lo : lo + _PARTY_CHUNK]]
        tokens = chain.from_iterable(row if len(row) == m else unread for row in rows)
        codes = np.fromiter(
            map(lookup.get, tokens, repeat(-1)), dtype=np.int64, count=len(rows) * m
        )
        orders[lo : lo + len(rows)] = codes.reshape(len(rows), m)
    for q in np.flatnonzero(invalid_orders(orders)).tolist():
        orders[q] = _party_order(party_lines[q][0], texts[q], index)
    if head_error is not None:
        raise head_error
    return names, ranks_from_orders(orders), np.array(sizes, dtype=np.int64)


def _party_head(line_no: int, line: str, seen: set[str]) -> tuple[str, int, str]:
    """(name, size, order text) of one ``party <name> <size>: ...`` line."""
    head, _, order_text = line.partition(":")
    fields = head.split()
    if len(fields) != 3:
        raise ParseError(line_no, "party line must read 'party <name> <size>: ...'")
    _, pname, size_text = fields
    if pname in seen:
        raise ParseError(line_no, f"duplicate party name {pname!r}")
    try:
        size = int(size_text)
    except ValueError:
        raise ParseError(line_no, f"party size must be an integer, got {size_text!r}")
    if size < 0:
        raise ParseError(line_no, f"party size must be non-negative, got {size}")
    return pname, size, order_text


def _party_order(line_no: int, order_text: str, index: dict[str, int]) -> tuple[int, ...]:
    """The order of one party line, read name by name."""
    order_names = [x.strip() for x in order_text.split(">")]
    if order_names == [""]:
        raise ParseError(line_no, "empty preference order")
    try:
        order = tuple(index[x] for x in order_names)
    except KeyError as exc:
        raise ParseError(line_no, f"unknown candidate {exc.args[0]!r} in preference")
    problem = validate_preference(order, len(index))
    if problem is not None:
        raise ParseError(line_no, f"bad preference: {problem}")
    return order


def serialize_instance(parsed: ParsedInstance, comment: str | None = None) -> str:
    inst = parsed.instance
    names = parsed.candidate_names
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"candidates: {' '.join(names)}")
    lines.append(f"rule: {rule_to_spec(inst.rule)}")
    lines.append(f"model: {inst.model.value}")
    lines.append(f"dest: {inst.destination_mode.value}")
    lines.append(f"direction: {inst.direction.value}")
    lines.append(f"k: {inst.k}")
    lines.append(f"distinguished: {names[inst.p]}")
    election = inst.election
    for pname, size, order in zip(
        parsed.party_names, election.sizes.tolist(), election.orders.tolist()
    ):
        lines.append(f"party {pname} {size}: {' > '.join(names[c] for c in order)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Graph and 3-set-system files


def parse_graph(text: str):
    """``n <count>``, optional ``t <bound>``, ``e u v`` lines; 0-based vertices."""
    n = None
    t = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "n" and len(fields) == 2:
            if n is not None:
                raise ParseError(line_no, "duplicate n line")
            n = _int_field(line_no, fields[1])
        elif fields[0] == "t" and len(fields) == 2:
            if t is not None:
                raise ParseError(line_no, "duplicate t line")
            t = _int_field(line_no, fields[1])
        elif fields[0] == "e" and len(fields) == 3:
            edges.append(
                (line_no, _int_field(line_no, fields[1]), _int_field(line_no, fields[2]))
            )
        else:
            raise ParseError(line_no, f"expected 'n', 't' or 'e' line, got {raw.strip()!r}")
    if n is None:
        raise ParseError(len(text.splitlines()) or 1, "missing 'n' line")
    if t is None:
        raise ParseError(len(text.splitlines()) or 1, "missing 't' line")
    from .reductions import GraphInstance

    try:
        return GraphInstance(num_vertices=n, edges=tuple((u, v) for _, u, v in edges), bound=t)
    except ValueError as exc:
        raise ParseError(edges[0][0] if edges else 1, str(exc))


def parse_x3c(text: str):
    """``m <universe size>`` plus ``s a b c`` lines; 0-based elements."""
    m = None
    sets = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "m" and len(fields) == 2:
            if m is not None:
                raise ParseError(line_no, "duplicate m line")
            m = _int_field(line_no, fields[1])
        elif fields[0] == "s" and len(fields) == 4:
            sets.append(tuple(_int_field(line_no, x) for x in fields[1:]))
        else:
            raise ParseError(line_no, f"expected 'm' or 's' line, got {raw.strip()!r}")
    if m is None:
        raise ParseError(len(text.splitlines()) or 1, "missing 'm' line")
    from .reductions import X3CInstance

    try:
        return X3CInstance(universe_size=m, sets=tuple(sets))
    except ValueError as exc:
        raise ParseError(1, str(exc))


def _int_field(line_no: int, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(line_no, f"expected an integer, got {text!r}")


# ---------------------------------------------------------------------------
# Result JSON


def result_to_json(
    parsed: ParsedInstance, result: SolveResult, wall_time_ms: int
) -> str:
    """Deterministic JSON rendering of a solve result.

    ``wall_time_ms`` is quantized to 100 ms so repeated runs of the same
    solve are byte-identical.
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
    doc = {
        "direction": inst.direction.value,
        "rule": rule_to_spec(inst.rule),
        "model": inst.model.value,
        "dest_mode": inst.destination_mode.value,
        "value": value,
        "answer": result.answer(inst),
        "witness": witness,
        "solver": result.solver,
        "wall_time_ms": (wall_time_ms // 100) * 100,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Random instance generation


RULE_CHOICES = (
    "plurality", "veto", "approval:2", "borda", "condorcet", "maximin", "copeland:1/2",
)


def generate_random(
    seed: int,
    num_candidates: int,
    num_parties: int,
    size_range: tuple[int, int],
    rule_spec: str,
    direction: str,
    model: str = "unique",
    dest: str = "one",
    max_tries: int = 10_000,
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
    for _ in range(max_tries):
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
        f"no instance with an initial winner found in {max_tries} tries (seed {seed})"
    )
