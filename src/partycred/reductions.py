"""Executable hardness reductions and naive solvers for their source problems.

Each ``reduce_*`` function builds the full party election of the
corresponding construction, validates the construction's side assumptions
loudly, and records the source-element/party correspondence so that a
source-problem witness converts into a checkable switch plan.

A construction lists every party once, in file order, as ``(name, order,
size, source element or None)``: the order is a list of candidate names,
and the source element is the vertex or set index the party stands for.
``_build`` derives the rest.  The destination is the one party named
``P``, a source element's party is the one declared with it, and the
distinguished candidate is the one named ``p``.  A gadget party is one
such line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .instance_io import ParsedInstance
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


class ItemError(ValueError):
    """A source instance error in one set or edge, ``index`` in its order."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


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
        for i, s in enumerate(self.sets):
            if len(set(s)) != 3:
                raise ItemError(i, f"set {s} must have exactly 3 distinct elements")
            for x in s:
                if not (0 <= x < m):
                    raise ItemError(i, f"element {x} out of universe range")
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
        if self.num_vertices < 0:
            raise ValueError(f"vertex count must be at least 0, got {self.num_vertices}")
        seen = set()
        normalized = []
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise ItemError(i, f"self-loop at vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ItemError(i, f"edge ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ItemError(i, f"duplicate edge {key}")
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


@dataclass(frozen=True)
class ReducedInstance(ParsedInstance):
    """A constructed MIN/MAX instance, its names, and its provenance."""

    reduction: str
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


def _build(reduction, names, parties, k, rule, direction, source, complement_selection=False):
    """The one-destination, unique-winner instance of ``parties``, party
    specs as in the module docstring."""
    index = {name: i for i, name in enumerate(names)}
    party_names, orders, sizes, elements = zip(*parties)
    election = PartyElection([[index[x] for x in order] for order in orders], list(sizes))
    instance = ProblemInstance(
        election=election,
        p=index["p"],
        k=k,
        rule=rule,
        model=WinnerModel.UNIQUE,
        destination_mode=DestinationMode.ONE,
        direction=direction,
    )
    return ReducedInstance(
        instance=instance,
        candidate_names=tuple(names),
        party_names=party_names,
        reduction=reduction,
        source=source,
        destination_party=party_names.index("P"),
        source_parties={e: i for i, e in enumerate(elements) if e is not None},
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
    # v1 and v2 must not share their edge.  With the ends of an isolated
    # edge the answer can be wrong: n = 10, the edge (0, 1) and a star from
    # 2 to 3..9 have a cover of 2, but the built instance answers no.
    degree_one = [v for v in range(n) if g.degree(v) == 1]
    edges = {frozenset(e) for e in g.edges}
    v1, v2 = next(
        ((u, v) for i, u in enumerate(degree_one) for v in degree_one[i + 1:]
         if frozenset((u, v)) not in edges),
        (None, None),
    )
    if v1 is None:
        raise ValueError("construction assumes two non-adjacent degree-1 vertices")

    edge_names = [f"e{i + 1}" for i in range(len(g.edges))]
    a_block = ["a1", "a2"]
    b_block = ["b1", "b2", "b3"]
    names = edge_names + ["p"] + a_block + b_block

    parties = []
    for v in range(n):
        ev = [edge_names[i] for i in g.incident_edge_indices(v)]
        middle = [*a_block, "p", *b_block] if v in (v1, v2) else ["p", *b_block, *a_block]
        parties.append((f"P_v{v}", [*ev, *middle, *_without(edge_names, ev)], 1, v))
    half = (n - 2) // 2
    parties += [
        ("P", [*b_block, *edge_names, "p", *a_block], 1, None),
        ("P1", ["a1", "p", "a2", *edge_names, *b_block], half, None),
        ("P2", [*edge_names, *b_block, "a1", "p", "a2"], half, None),
    ]

    return _build(
        "vc-copeland-min", names, parties, t, Copeland(alpha=Fraction(alpha)), Direction.MIN,
        {"problem": "vertex-cover", "num_vertices": n, "edges": list(g.edges), "t": t,
         "degree_one_vertices": [v1, v2]},
    )


def reduce_x3c_to_maximin_min(x3c: X3CInstance) -> ReducedInstance:
    """X3C -> Maximin MIN (candidates X plus p, z, alpha, beta).

    Every element lies in three of the n sets, so n = m and the n - m/3
    voters that Q1 and Q2 split are 2m/3, always even.  p's Maximin score is
    min(N(p, x), N(p, z), N(p, alpha), N(p, beta)) = min(7m/3 - 3, 4m/3,
    m + 1, 5m/3 + 1) = m + 1, and an element candidate x scores at most
    N(x, p) = 4.  So p wins alone only for m >= 6; at m = 3 it ties the
    elements at 4 and the source is refused.
    """
    m, n = x3c.universe_size, x3c.num_sets
    if m < 6:
        raise ValueError(
            f"construction needs a universe of at least 6 elements, got {m}: "
            f"below that p does not win initially"
        )
    x_names = [f"x{i + 1}" for i in range(m)]
    names = x_names + ["p", "z", "alpha", "beta"]

    parties = []
    for idx, s in enumerate(x3c.sets):
        triple = [x_names[x] for x in s]
        order = [*triple, "z", "p", *_without(x_names, triple), "beta", "alpha"]
        parties.append((f"P_S{idx + 1}", order, 1, idx))
    half = (n - m // 3) // 2
    parties.append(("Q1", ["beta", "alpha", "p", *x_names, "z"], half, None))
    parties.append(("Q2", ["alpha", "p", *x_names, "z", "beta"], half, None))
    for i in range(m // 3):
        block = x_names[3 * i : 3 * i + 3]
        rest = _without(x_names, block)
        parties.append((f"B{i + 1}a", ["beta", "alpha", "p", *rest, "z", *block], 1, None))
        parties.append((f"B{i + 1}b", ["alpha", "p", *rest, "z", *block, "beta"], 1, None))
    parties.append(("P", ["z", *x_names, "p", "alpha", "beta"], 1, None))

    return _build(
        "x3c-maximin-min", names, parties, m // 3, Maximin(), Direction.MIN,
        {"problem": "x3c", "universe_size": m, "sets": [list(s) for s in x3c.sets]},
    )


def reduce_x3c_to_borda_max(x3c: X3CInstance) -> ReducedInstance:
    """X3C -> Borda MAX (m + 6 candidates)."""
    m, n = x3c.universe_size, x3c.num_sets
    x_names = [f"x{i + 1}" for i in range(m)]
    d_block = ["d1", "d2", "d3"]
    names = x_names + ["p"] + d_block + ["y", "z"]

    parties = []
    for idx, s in enumerate(x3c.sets):
        spliced = dict(zip(s, d_block))
        order = [
            "z", *[spliced.get(c, x) for c, x in enumerate(x_names)], "p",
            *[x_names[x] for x in s], "y",
        ]
        parties.append((f"P_S{idx + 1}", order, 1, idx))
    parties.append(("P'", ["y", "p", *reversed(x_names), "z", *d_block], n, None))
    parties.append(("P", [*x_names, "p", *d_block, "y", "z"], 1, None))

    rule = Scoring(vector=scoring_vector_for("borda", len(names)))
    return _build(
        "x3c-borda-max", names, parties, n - m // 3, rule, Direction.MAX,
        {"problem": "x3c", "universe_size": m, "sets": [list(s) for s in x3c.sets]},
        complement_selection=True,
    )


def reduce_x3c_to_condorcet_max(x3c: X3CInstance) -> ReducedInstance:
    """X3C -> Condorcet MAX (2n + m + 9 candidates, 2n + 5 voters).

    The n parties P_t come first and are never part of a witness; the
    source's set t - 1 is the party P_t'.
    """
    m, n = x3c.universe_size, x3c.num_sets
    x_names = [f"x{i + 1}" for i in range(m)]
    a_block = [f"a{i}" for i in range(1, 5)]
    b_block = [f"b{i}" for i in range(1, 5)]
    c_block = [f"c{i + 1}" for i in range(n)]
    d_block = [f"d{i + 1}" for i in range(n)]
    names = x_names + a_block + b_block + c_block + d_block + ["p"]

    set_parties, primed = [], []
    for idx, s in enumerate(x3c.sets):
        t = idx + 1
        triple = [x_names[x] for x in s]
        rest = _without(x_names, triple)
        order_a = [
            *d_block[t:], *c_block[:t], *a_block, *triple, "p", *rest,
            *reversed(b_block), *c_block[t:], *d_block[:t],
        ]
        order_b = [
            *d_block[:t], *c_block[t:], *b_block, *reversed(rest), "p",
            *reversed(triple), *reversed(a_block), *c_block[:t], *d_block[t:],
        ]
        set_parties.append((f"P{t}", order_a, 1, None))
        primed.append((f"P{t}'", order_b, 1, idx))
    parties = set_parties + primed
    for i in range(1, 5):
        step = 1 if i % 2 else -1
        order = [
            f"a{i}", f"b{i}", "p", *x_names[::step],
            *_without(a_block, [f"a{i}"]), *_without(b_block, [f"b{i}"]),
            *c_block[::step], *d_block[::step],
        ]
        parties.append((f"Pbar{i}", order, 1, None))
    parties.append(("P", [*x_names, "p", *a_block, *b_block, *c_block, *d_block], 1, None))

    return _build(
        "x3c-condorcet-max", names, parties, m // 3, Condorcet(), Direction.MAX,
        {"problem": "x3c", "universe_size": m, "sets": [list(s) for s in x3c.sets],
         "set_parties": list(range(n))},
    )


def reduce_is_to_maximin_max(g: GraphInstance) -> ReducedInstance:
    """Independent Set -> Maximin MAX (candidates a, b, p plus edge candidates)."""
    n, t = g.num_vertices, g.bound
    if t < 1:
        raise ValueError("bound t must be at least 1 for a MAX instance")
    edge_names = [f"e{i + 1}" for i in range(len(g.edges))]
    names = ["a", "b", "p"] + edge_names

    parties = []
    for v in range(n):
        ev = [edge_names[i] for i in g.incident_edge_indices(v)]
        parties.append((f"P_v{v}", ["a", *_without(edge_names, ev), "p", *ev, "b"], 1, v))
    parties.append(("P'", ["b", "p", *reversed(edge_names), "a"], n, None))
    parties.append(("P", [*edge_names, "p", "b", "a"], 1, None))

    return _build(
        "is-maximin-max", names, parties, t, Maximin(), Direction.MAX,
        {"problem": "independent-set", "num_vertices": n, "edges": list(g.edges), "t": t},
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
    for v in range(n):
        ev = [edge_names[i] for i in g.incident_edge_indices(v)]
        order = [*a_block, *_without(edge_names, ev), *c_block, "p", *ev, *b_block]
        parties.append((f"P_v{v}", order, 1, v))
    parties.append(("P'", [*b_block, *c_block, "p", *edge_names, *a_block], n, None))
    parties.append(("P", [*edge_names, "p", *a_block, *b_block, *c_block], 1, None))

    return _build(
        "is-copeland-max", names, parties, t, Copeland(alpha=Fraction(alpha)), Direction.MAX,
        {"problem": "independent-set", "num_vertices": n, "edges": list(g.edges), "t": t},
    )


REDUCTIONS = {
    "vc-copeland-min": reduce_vc_to_copeland_min,
    "x3c-maximin-min": reduce_x3c_to_maximin_min,
    "x3c-borda-max": reduce_x3c_to_borda_max,
    "x3c-condorcet-max": reduce_x3c_to_condorcet_max,
    "is-maximin-max": reduce_is_to_maximin_max,
    "is-copeland-max": reduce_is_to_copeland_max,
}
