"""Executable hardness reductions and naive solvers for their source problems.

Each ``reduce_*`` function builds the full party election of the
corresponding construction, validates the construction's side assumptions
loudly, and records the source-element/party correspondence so that a
source-problem witness converts into a checkable switch plan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .parties import (
    Direction,
    DestinationMode,
    PartyElection,
    ProblemInstance,
    SwitchPlan,
)
from .rules import Condorcet, Copeland, Maximin, Scoring, WinnerModel, scoring_vector_for

NAIVE_SIZE_CAP = 12


# ---------------------------------------------------------------------------
# Source problems


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets; every element occurs in exactly three sets."""

    universe_size: int
    sets: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        m = self.universe_size
        if m < 3 or m % 3:
            raise ValueError(f"universe size must be a positive multiple of 3, got {m}")
        occurrences = [0] * m
        normalized = []
        for s in self.sets:
            if len(set(s)) != 3:
                raise ValueError(f"set {s} must have exactly 3 distinct elements")
            for x in s:
                if not (0 <= x < m):
                    raise ValueError(f"element {x} out of universe range")
                occurrences[x] += 1
            normalized.append(tuple(sorted(s)))
        bad = [x for x, c in enumerate(occurrences) if c != 3]
        if bad:
            raise ValueError(
                f"every element must occur in exactly three sets; violated by {bad}"
            )
        object.__setattr__(self, "sets", tuple(normalized))

    @property
    def num_sets(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class GraphInstance:
    """Simple undirected graph with a size bound for VC/IS questions."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    bound: int

    def __post_init__(self):
        seen = set()
        normalized = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(normalized))

    def incident_edge_indices(self, v: int) -> list[int]:
        return [i for i, (a, b) in enumerate(self.edges) if v in (a, b)]

    def degree(self, v: int) -> int:
        return len(self.incident_edge_indices(v))


def solve_x3c_naive(x3c: X3CInstance) -> bool:
    """Exact cover decision by enumerating m/3-subcollections."""
    if x3c.universe_size > NAIVE_SIZE_CAP or x3c.num_sets > NAIVE_SIZE_CAP:
        raise ValueError("size cap exceeded for naive X3C solving")
    want = x3c.universe_size // 3
    universe = frozenset(range(x3c.universe_size))
    for picks in itertools.combinations(range(x3c.num_sets), want):
        covered = set()
        for t in picks:
            covered.update(x3c.sets[t])
        if len(covered) == x3c.universe_size and covered == universe:
            return True
    return False


def solve_vc_naive(g: GraphInstance, t: int) -> bool:
    """Vertex cover of size at most t, by subset enumeration."""
    if g.num_vertices > NAIVE_SIZE_CAP:
        raise ValueError("size cap exceeded for naive VC solving")
    for size in range(min(t, g.num_vertices) + 1):
        for cover in itertools.combinations(range(g.num_vertices), size):
            chosen = set(cover)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return True
    return False


def solve_is_naive(g: GraphInstance, t: int) -> bool:
    """Independent set of size at least t, by subset enumeration."""
    if g.num_vertices > NAIVE_SIZE_CAP:
        raise ValueError("size cap exceeded for naive IS solving")
    if t <= 0:
        return True
    if t > g.num_vertices:
        return False
    adjacent = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
    for pick in itertools.combinations(range(g.num_vertices), t):
        if all((a, b) not in adjacent for a, b in itertools.combinations(pick, 2)):
            return True
    return False


# ---------------------------------------------------------------------------
# Ordered-preference helpers shared by the constructions


def _without(order, excluded):
    excluded = set(excluded)
    return [x for x in order if x not in excluded]


def _replaced(order, mapping):
    return [mapping.get(x, x) for x in order]


def _flatten(*parts):
    out = []
    for part in parts:
        if isinstance(part, (list, tuple)):
            out.extend(part)
        else:
            out.append(part)
    return out


@dataclass(frozen=True)
class ReducedInstance:
    """A constructed MIN/MAX instance plus its provenance."""

    instance: ProblemInstance
    reduction: str
    candidate_names: tuple[str, ...]
    party_names: tuple[str, ...]
    source: dict
    destination_party: int
    source_parties: dict[int, int]  # source element (vertex / set index) -> party id
    complement_selection: bool = False

    def witness_plan(self, selection) -> SwitchPlan:
        """Convert a source-problem witness into a switch plan.

        With ``complement_selection`` the parties that switch are the ones
        whose source elements are NOT selected (the Borda construction keeps
        the cover's parties home and moves everyone else).
        """
        chosen = set(selection)
        if self.complement_selection:
            chosen = set(self.source_parties) - chosen
        moves = tuple(
            (self.source_parties[element], self.destination_party, 1)
            for element in sorted(chosen)
        )
        return SwitchPlan(moves=moves)


def _build(reduction, names, parties, p_name, k, rule, direction, source,
           destination_party, source_parties, model=WinnerModel.UNIQUE,
           complement_selection=False):
    index = {name: i for i, name in enumerate(names)}
    election = PartyElection(
        [[index[x] for x in order] for _, order, _ in parties],
        [size for _, _, size in parties],
    )
    instance = ProblemInstance(
        election=election,
        p=index[p_name],
        k=k,
        rule=rule,
        model=model,
        destination_mode=DestinationMode.ONE,
        direction=direction,
    )
    return ReducedInstance(
        instance=instance,
        reduction=reduction,
        candidate_names=tuple(names),
        party_names=tuple(pname for pname, _, _ in parties),
        source=source,
        destination_party=destination_party,
        source_parties=source_parties,
        complement_selection=complement_selection,
    )


# ---------------------------------------------------------------------------
# The six constructions


def reduce_vc_to_copeland_min(g: GraphInstance, alpha: Fraction) -> ReducedInstance:
    """Vertex Cover -> Copeland^alpha MIN (edge candidates + six specials)."""
    n, t = g.num_vertices, g.bound
    if n % 2:
        raise ValueError("construction assumes an even number of vertices")
    if not (1 <= t) or not (t < (n - 5) / 2):
        raise ValueError(f"construction assumes 1 <= t < (n-5)/2, got t={t}, n={n}")
    degree_one = [v for v in range(n) if g.degree(v) == 1]
    if len(degree_one) < 2:
        raise ValueError("construction assumes two degree-1 vertices")
    v1, v2 = degree_one[:2]

    edge_names = [f"e{i + 1}" for i in range(len(g.edges))]
    a_block = ["a1", "a2"]
    b_block = ["b1", "b2", "b3"]
    names = edge_names + ["p"] + a_block + b_block

    def edges_of(v):
        return [edge_names[i] for i in g.incident_edge_indices(v)]

    parties = []
    source_parties = {}
    for v in range(n):
        ev = edges_of(v)
        rest = _without(edge_names, ev)
        if v in (v1, v2):
            order = _flatten(ev, a_block, "p", b_block, rest)
        else:
            order = _flatten(ev, "p", b_block, a_block, rest)
        source_parties[v] = len(parties)
        parties.append((f"P_v{v}", order, 1))
    destination = len(parties)
    parties.append(("P", _flatten(b_block, edge_names, "p", a_block), 1))
    half = (n - 2) // 2
    parties.append(("P1", _flatten("a1", "p", "a2", edge_names, b_block), half))
    parties.append(("P2", _flatten(edge_names, b_block, "a1", "p", "a2"), half))

    return _build(
        "vc-copeland-min", names, parties, "p", t, Copeland(alpha=Fraction(alpha)),
        Direction.MIN,
        {"problem": "vertex-cover", "num_vertices": n, "edges": list(g.edges), "t": t,
         "degree_one_vertices": [v1, v2]},
        destination, source_parties,
    )


def reduce_x3c_to_maximin_min(x3c: X3CInstance) -> ReducedInstance:
    """X3C -> Maximin MIN (candidates X plus p, z, alpha, beta)."""
    m, n = x3c.universe_size, x3c.num_sets
    if (n - m // 3) % 2:
        raise ValueError(
            "construction splits n - m/3 voters in half; that count must be even"
        )
    x_names = [f"x{i + 1}" for i in range(m)]
    names = x_names + ["p", "z", "alpha", "beta"]

    parties = []
    source_parties = {}
    for idx, (i, j, k) in enumerate(x3c.sets):
        triple = [x_names[i], x_names[j], x_names[k]]
        order = _flatten(triple, "z", "p", _without(x_names, triple), "beta", "alpha")
        source_parties[idx] = len(parties)
        parties.append((f"P_S{idx + 1}", order, 1))
    half = (n - m // 3) // 2
    parties.append(("Q1", _flatten("beta", "alpha", "p", x_names, "z"), half))
    parties.append(("Q2", _flatten("alpha", "p", x_names, "z", "beta"), half))
    for i in range(m // 3):
        block = x_names[3 * i : 3 * i + 3]
        rest = _without(x_names, block)
        parties.append((f"B{i + 1}a", _flatten("beta", "alpha", "p", rest, "z", block), 1))
        parties.append((f"B{i + 1}b", _flatten("alpha", "p", rest, "z", block, "beta"), 1))
    destination = len(parties)
    parties.append(("P", _flatten("z", x_names, "p", "alpha", "beta"), 1))

    return _build(
        "x3c-maximin-min", names, parties, "p", m // 3, Maximin(), Direction.MIN,
        {"problem": "x3c", "universe_size": m, "sets": [list(s) for s in x3c.sets]},
        destination, source_parties,
    )


def reduce_x3c_to_borda_max(x3c: X3CInstance) -> ReducedInstance:
    """X3C -> Borda MAX (m + 6 candidates)."""
    m, n = x3c.universe_size, x3c.num_sets
    x_names = [f"x{i + 1}" for i in range(m)]
    d_block = ["d1", "d2", "d3"]
    names = x_names + ["p"] + d_block + ["y", "z"]

    parties = []
    source_parties = {}
    for idx, (i, j, k) in enumerate(x3c.sets):
        spliced = _replaced(
            x_names,
            {x_names[i]: "d1", x_names[j]: "d2", x_names[k]: "d3"},
        )
        order = _flatten("z", spliced, "p", x_names[i], x_names[j], x_names[k], "y")
        source_parties[idx] = len(parties)
        parties.append((f"P_S{idx + 1}", order, 1))
    parties.append(
        ("P'", _flatten("y", "p", list(reversed(x_names)), "z", d_block), n)
    )
    destination = len(parties)
    parties.append(("P", _flatten(x_names, "p", d_block, "y", "z"), 1))

    rule = Scoring(vector=scoring_vector_for("borda", len(names)))
    return _build(
        "x3c-borda-max", names, parties, "p", n - m // 3, rule, Direction.MAX,
        {"problem": "x3c", "universe_size": m, "sets": [list(s) for s in x3c.sets]},
        destination, source_parties, complement_selection=True,
    )


def reduce_x3c_to_condorcet_max(x3c: X3CInstance) -> ReducedInstance:
    """X3C -> Condorcet MAX (2n + m + 9 candidates, 2n + 5 voters)."""
    m, n = x3c.universe_size, x3c.num_sets
    x_names = [f"x{i + 1}" for i in range(m)]
    a_block = [f"a{i}" for i in range(1, 5)]
    b_block = [f"b{i}" for i in range(1, 5)]
    c_block = [f"c{i + 1}" for i in range(n)]
    d_block = [f"d{i + 1}" for i in range(n)]
    names = x_names + a_block + b_block + c_block + d_block + ["p"]

    parties = []
    set_parties = []  # the P_t parties (never part of a witness)
    source_parties = {}  # the P_t' parties
    for idx, (i, j, k) in enumerate(x3c.sets):
        t = idx + 1
        triple = [x_names[i], x_names[j], x_names[k]]
        rest = _without(x_names, triple)
        order_a = _flatten(
            d_block[t:], c_block[:t], a_block, triple, "p", rest,
            list(reversed(b_block)), c_block[t:], d_block[:t],
        )
        set_parties.append(len(parties))
        parties.append((f"P{t}", order_a, 1))
    for idx, (i, j, k) in enumerate(x3c.sets):
        t = idx + 1
        triple = [x_names[i], x_names[j], x_names[k]]
        rest = _without(x_names, triple)
        order_b = _flatten(
            d_block[:t], c_block[t:], b_block, list(reversed(rest)), "p",
            x_names[k], x_names[j], x_names[i], list(reversed(a_block)),
            c_block[:t], d_block[t:],
        )
        source_parties[idx] = len(parties)
        parties.append((f"P{t}'", order_b, 1))
    for i in range(1, 5):
        x_dir = x_names if i % 2 else list(reversed(x_names))
        cd_c = c_block if i % 2 else list(reversed(c_block))
        cd_d = d_block if i % 2 else list(reversed(d_block))
        order = _flatten(
            f"a{i}", f"b{i}", "p", x_dir,
            _without(a_block, [f"a{i}"]), _without(b_block, [f"b{i}"]),
            cd_c, cd_d,
        )
        parties.append((f"Pbar{i}", order, 1))
    destination = len(parties)
    parties.append(("P", _flatten(x_names, "p", a_block, b_block, c_block, d_block), 1))

    return _build(
        "x3c-condorcet-max", names, parties, "p", m // 3, Condorcet(), Direction.MAX,
        {"problem": "x3c", "universe_size": m, "sets": [list(s) for s in x3c.sets],
         "set_parties": set_parties},
        destination, source_parties,
    )


def reduce_is_to_maximin_max(g: GraphInstance) -> ReducedInstance:
    """Independent Set -> Maximin MAX (candidates a, b, p plus edge candidates)."""
    n, t = g.num_vertices, g.bound
    if t < 1:
        raise ValueError("bound t must be at least 1 for a MAX instance")
    edge_names = [f"e{i + 1}" for i in range(len(g.edges))]
    names = ["a", "b", "p"] + edge_names

    parties = []
    source_parties = {}
    for v in range(n):
        ev = [edge_names[i] for i in g.incident_edge_indices(v)]
        rest = _without(edge_names, ev)
        source_parties[v] = len(parties)
        parties.append((f"P_v{v}", _flatten("a", rest, "p", ev, "b"), 1))
    parties.append(("P'", _flatten("b", "p", list(reversed(edge_names)), "a"), n))
    destination = len(parties)
    parties.append(("P", _flatten(edge_names, "p", "b", "a"), 1))

    return _build(
        "is-maximin-max", names, parties, "p", t, Maximin(), Direction.MAX,
        {"problem": "independent-set", "num_vertices": n, "edges": list(g.edges), "t": t},
        destination, source_parties,
    )


def reduce_is_to_copeland_max(g: GraphInstance, alpha: Fraction) -> ReducedInstance:
    """Independent Set -> Copeland^alpha MAX (blocks A, B, C plus edge candidates)."""
    n, t = g.num_vertices, g.bound
    m = len(g.edges)
    if t < 1:
        raise ValueError("bound t must be at least 1 for a MAX instance")
    if m < 1:
        raise ValueError("construction needs at least one edge")
    a_block = [f"a{i + 1}" for i in range(m)]
    b_block = [f"b{i + 1}" for i in range(m)]
    c_block = [f"c{i + 1}" for i in range(m)]
    edge_names = [f"e{i + 1}" for i in range(m)]
    names = a_block + b_block + c_block + ["p"] + edge_names

    parties = []
    source_parties = {}
    for v in range(n):
        ev = [edge_names[i] for i in g.incident_edge_indices(v)]
        rest = _without(edge_names, ev)
        source_parties[v] = len(parties)
        parties.append((f"P_v{v}", _flatten(a_block, rest, c_block, "p", ev, b_block), 1))
    parties.append(("P'", _flatten(b_block, c_block, "p", edge_names, a_block), n))
    destination = len(parties)
    parties.append(("P", _flatten(edge_names, "p", a_block, b_block, c_block), 1))

    return _build(
        "is-copeland-max", names, parties, "p", t, Copeland(alpha=Fraction(alpha)),
        Direction.MAX,
        {"problem": "independent-set", "num_vertices": n, "edges": list(g.edges), "t": t},
        destination, source_parties,
    )


REDUCTIONS = {
    "vc-copeland-min": reduce_vc_to_copeland_min,
    "x3c-maximin-min": reduce_x3c_to_maximin_min,
    "x3c-borda-max": reduce_x3c_to_borda_max,
    "x3c-condorcet-max": reduce_x3c_to_condorcet_max,
    "is-maximin-max": reduce_is_to_maximin_max,
    "is-copeland-max": reduce_is_to_copeland_max,
}
