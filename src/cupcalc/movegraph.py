"""Local moves between maximal diagrams, the arrow graph and its cells.

Eight local rewrites act on pairs of arcs (all other arcs untouched,
and a rewrite only fires when both sides are legal diagrams):

====  ===============================  ===============================
kind  before                           after
====  ===============================  ===============================
I     cups (i,j),(k,l) side by side    cup (i,l) over cup (j,k)
II    cup (i,l) over cup (j,k)         dotted cups (i,j),(k,l)
III   dotted (i,j), plain (k,l)        dotted (i,l) over plain (j,k)
IV    dotted (i,l) over plain (j,k)    plain (i,j), dotted (k,l)
I'    cup (i,j), ray k                 ray i, cup (j,k)
II'   ray i, cup (j,k)                 dotted cup (i,j), dotted ray k
III'  dotted cup (i,j), ray k          dotted ray i, cup (j,k)
IV'   dotted ray i, cup (j,k)          plain cup (i,j), dotted ray k
====  ===============================  ===============================

``_RULES`` repeats this table row for row, and it is the only statement
of the rewrites: read forwards it gives the successors of a diagram,
read backwards its predecessors and the edges of its cup forest.  Both
readings are keyed by the *shape* of a pair of arcs (:func:`_shape`):
nested or side-by-side cups, or a ray left or right of a cup, with the
dots of both arcs.

Every rewrite keeps the cup count, and it keeps the dot parity (it adds
two dots or moves one).  So a move from a maximal diagram is legal
exactly when its result is another maximal diagram of the same parity:
:func:`move_graph` decides each candidate by looking its arc set up
among the nodes and builds no diagram for it.  :func:`successors`,
:func:`predecessors` and :func:`cup_forest` take single diagrams of any
cup count, so they decide each rewrite with :func:`_rewire` instead,
which runs :func:`diagrams.accept`, the walk that
:func:`diagrams.validate` accepts with.

Arrows a -> b generate a partial order on the maximal diagrams of each
dot parity; the undirected graph is connected per parity.  Each diagram
also carries a forest on its cups (edges from reverse unprimed moves,
pointing towards deeper nesting) whose roots are the outer cups; the
forest indexes an affine cell decomposition.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

from .diagrams import (
    Cup,
    CupDiagram,
    DiagramError,
    Ray,
    accept,
    encode,
    maximal_diagrams,
    nesting,
)
from .errors import InputError, InternalCheckError

UNPRIMED = ("I", "II", "III", "IV")
PRIMED = ("I'", "II'", "III'", "IV'")


class Move(NamedTuple):
    kind: str
    positions: tuple  # 3 or 4 vertices, ascending


class NoFiniteDistanceError(InputError):
    pass


# kind -> (before, after) on the vertices of the rewired pair, renumbered
# 0..3 (0..2 for primed moves); one row per row of the table above.
_RULES = {
    "I": ((Cup(0, 1), Cup(2, 3)), (Cup(0, 3), Cup(1, 2))),
    "II": ((Cup(0, 3), Cup(1, 2)), (Cup(0, 1, True), Cup(2, 3, True))),
    "III": ((Cup(0, 1, True), Cup(2, 3)), (Cup(0, 3, True), Cup(1, 2))),
    "IV": ((Cup(0, 3, True), Cup(1, 2)), (Cup(0, 1), Cup(2, 3, True))),
    "I'": ((Cup(0, 1), Ray(2)), (Ray(0), Cup(1, 2))),
    "II'": ((Ray(0), Cup(1, 2)), (Cup(0, 1, True), Ray(2, True))),
    "III'": ((Cup(0, 1, True), Ray(2)), (Ray(0, True), Cup(1, 2))),
    "IV'": ((Ray(0, True), Cup(1, 2)), (Cup(0, 1), Ray(2, True))),
}


def _shape(pair) -> Tuple[tuple, tuple]:
    """(shape, vertices ascending) of a cup-cup pair, cups by left end as
    every diagram holds them, or of a cup-ray pair, cup first.

    The arcs of a legal diagram do not cross and no ray starts under a
    cup, so cups are nested or side by side and a ray lies left or right
    of a cup.  The shape names which, with the dots of the arcs: of the
    outer or left cup, then of the other arc.
    """
    first, second = pair
    if type(second) is Ray:
        (left, right, dotted), (at, ray_dotted) = first, second
        if at < left:
            return ("ray left", dotted, ray_dotted), (at, left, right)
        return ("ray right", dotted, ray_dotted), (left, right, at)
    (l1, r1, d1), (l2, r2, d2) = first, second
    if r2 < r1:
        return ("nested", d1, d2), (l1, l2, r2, r1)
    return ("side by side", d1, d2), (l1, r1, l2, r2)


def _shape_table(forwards: bool) -> dict:
    """shape -> (kind, other side) for each rule side of ``_RULES``, read
    forwards (arrow sources) or backwards (arrow targets)."""
    table = {}
    for kind, sides in _RULES.items():
        side, other = sides if forwards else sides[::-1]
        cups_first = sorted(side, key=lambda arc: (type(arc) is Ray, arc[0]))
        table[_shape(cups_first)[0]] = (kind, other)
    return table


_FORWARDS = _shape_table(True)
_BACKWARDS = _shape_table(False)


def _candidates(d: CupDiagram, rules: dict):
    """(matched pair, kind, its vertices, other side) for each cup-cup and
    cup-ray pair of d whose shape ``rules`` holds, in a fixed pair order."""
    for pair in itertools.chain(
        itertools.combinations(d.cups, 2), itertools.product(d.cups, d.rays)
    ):
        shape, pos = _shape(pair)
        rule = rules.get(shape)
        if rule is not None:
            yield pair, rule[0], pos, rule[1]


def _rewire(d: CupDiagram, add) -> Optional[CupDiagram]:
    """d with the matched pair replaced by ``add`` on the same vertices, or
    None if that breaks a rule of :func:`diagrams.validate`: the vertices
    stay covered once, so the :func:`diagrams.accept` walk decides."""
    at: list = [None] * (d.k + 1)
    for arc in itertools.chain(d.cups, d.rays, add):  # add overwrites the pair
        if type(arc) is Ray:
            at[arc.at] = arc
        else:
            at[arc.left] = at[arc.right] = arc
    return accept(d.k, at)


def _matches(d: CupDiagram, rules: dict):
    """(other diagram, move, matched arcs) for each rule side found in d.

    The other side of each matching rule is placed back on the pair's
    vertices and kept if :func:`_rewire` finds the result legal.
    """
    for pair, kind, pos, other_side in _candidates(d, rules):
        new_arcs = [type(arc)(*map(pos.__getitem__, arc[:-1]), arc[-1]) for arc in other_side]
        other = _rewire(d, new_arcs)
        if other is not None:
            yield other, Move(kind, pos), pair


def _neighbours(a: CupDiagram, rules: dict) -> List[Tuple[CupDiagram, Move]]:
    """(b, move) for each rule side matched in a, sorted by the encoding
    of b and then the move's kind."""
    out = [(b, move) for b, move, _ in _matches(a, rules)]
    out.sort(key=lambda t: (encode(t[0]), t[1].kind))
    return out


def successors(a: CupDiagram) -> List[Tuple[CupDiagram, Move]]:
    """All diagrams one arrow a -> b away."""
    return _neighbours(a, _FORWARDS)


def predecessors(a: CupDiagram) -> List[Tuple[CupDiagram, Move]]:
    """All diagrams b with an arrow b -> a."""
    return _neighbours(a, _BACKWARDS)


# ---------------------------------------------------------------------------
# The arrow graph per parity


class MoveGraph(NamedTuple):
    k: int
    parity: str
    nodes: tuple                 # canonical encoding order
    arrows: tuple                # (source index, target index, Move)

    def index(self, d: CupDiagram) -> int:
        _require_maximal(d)
        return _node_index(self.k, self.parity)[encode(d)]

    def undirected_adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in self.nodes]
        for i, j, _ in self.arrows:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def directed_adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in self.nodes]
        for i, j, _ in self.arrows:
            adj[i].append(j)
        return adj

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        return None not in _bfs(self.undirected_adjacency(), 0)

    def to_dot(self) -> str:
        lines = ["digraph moves {"]
        for n in self.nodes:
            lines.append(f'  "{encode(n)}";')
        for i, j, move in self.arrows:
            lines.append(
                f'  "{encode(self.nodes[i])}" -> "{encode(self.nodes[j])}"'
                f' [label="{move.kind}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def _require_maximal(d: CupDiagram) -> None:
    if d.n_cups != d.k // 2:
        raise DiagramError(
            f"{encode(d)} is not maximal: it has {d.n_cups} of the k // 2 = {d.k // 2} cups"
        )


@lru_cache(maxsize=None)
def _node_index(k: int, parity: str) -> dict:
    """Encoding -> position among the maximal diagrams of one parity."""
    return {encode(n): i for i, n in enumerate(maximal_diagrams(k, parity))}


@lru_cache(maxsize=None)
def move_graph(k: int, parity: str) -> MoveGraph:
    """The arrows between the maximal diagrams of one parity.

    A move keeps the cup count and the dot parity, so its result is legal
    exactly when it is a node: each candidate is looked up by its arc set
    among the nodes.  An arc set is keyed as a bitmask, one bit per arc,
    so a candidate's key is its source's with the bits of the matched
    pair swapped for those of the placed arcs (an arc no node has gets a
    bit of its own, which no node's key holds).  Nodes are in canonical
    encoding order, so sorting a node's arrows by target index and kind
    lists them as :func:`successors` does.
    """
    nodes = maximal_diagrams(k, parity)
    bit: dict = {}
    keys = [sum(bit.setdefault(arc, 1 << len(bit)) for arc in n.cups + n.rays) for n in nodes]
    index = {key: i for i, key in enumerate(keys)}
    arrows = []
    for i, (a, key) in enumerate(zip(nodes, keys)):
        found = []
        for pair, kind, pos, other_side in _candidates(a, _FORWARDS):
            # a placed arc is a plain tuple, equal to (and hashed as) its Cup or Ray
            new0, new1 = (tuple(map(pos.__getitem__, arc[:-1])) + arc[-1:] for arc in other_side)
            j = index.get(
                key - bit[pair[0]] - bit[pair[1]]
                + bit.setdefault(new0, 1 << len(bit)) + bit.setdefault(new1, 1 << len(bit))
            )
            if j is not None:
                found.append((j, kind, pos))
        found.sort()  # a target fixes the pair, so no tie reaches pos
        arrows.extend((i, j, Move(kind, pos)) for j, kind, pos in found)
    graph = MoveGraph(k, parity, nodes, tuple(arrows))
    if not graph.is_connected():
        raise InternalCheckError(f"move graph ({k}, {parity}) is not connected")
    return graph


@lru_cache(maxsize=None)  # built once, so every row together costs one all-pairs table
def _undirected_adjacency(k: int, parity: str) -> List[List[int]]:
    return move_graph(k, parity).undirected_adjacency()


def _bfs(adj: List[List[int]], src: int) -> list:
    """Distance from src along adj to every node, None where unreached."""
    dist = [None] * len(adj)
    dist[src] = 0
    queue = [src]
    while queue:
        nxt = []
        for u in queue:
            for w in adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        queue = nxt
    return dist


@lru_cache(maxsize=None)
def _distance_row(k: int, parity: str, src: int) -> tuple:
    """Undirected arrow distance from node src to every node: every node
    is reached, as :func:`move_graph` checks that the graph is connected."""
    return tuple(_bfs(_undirected_adjacency(k, parity), src))


def distance(a: CupDiagram, b: CupDiagram):
    """Undirected arrow distance; math.inf across parities."""
    if a.k != b.k:
        raise DiagramError("diagrams must share the vertex count")
    _require_maximal(a)
    _require_maximal(b)
    if a.dot_parity != b.dot_parity:
        return math.inf
    index = _node_index(a.k, a.dot_parity)
    return _distance_row(a.k, a.dot_parity, index[a.encoding])[index[b.encoding]]


def _sources_first(k: int, parity: str, tie_break: str) -> list:
    """Node indices in a topological order of the arrows, sources first.

    Kahn's algorithm takes nodes with no unprocessed out-arrows, so arrow
    sources end up later, and the order is reversed at the end.  Ties go
    to the lowest index (``"lex"``) or the highest (``"revlex"``).
    """
    targets = [set(js) for js in move_graph(k, parity).directed_adjacency()]
    sources: List[List[int]] = [[] for _ in targets]
    for i, js in enumerate(targets):
        for j in js:
            sources[j].append(i)
    remaining = [len(js) for js in targets]
    sign = 1 if tie_break == "lex" else -1
    heap = [sign * i for i, count in enumerate(remaining) if count == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        i = sign * heapq.heappop(heap)
        order.append(i)
        for p in sources[i]:
            remaining[p] -= 1
            if remaining[p] == 0:
                heapq.heappush(heap, sign * p)
    if len(order) != len(targets):
        raise InternalCheckError("arrow relation is not acyclic")
    order.reverse()
    return order


def total_order(k: int, parity: str, tie_break: str = "lex") -> tuple:
    """Reachability order refined to a total order.

    Topological sort with sources last: a comes before b whenever a
    reaches b along arrows.  Ties are broken by canonical encoding
    (``tie_break="revlex"`` reverses the tie-break; any refinement is
    equally valid and nothing computed downstream may depend on it).
    Nodes are sorted by encoding, and no encoding is a prefix of another,
    so comparing node indices compares encodings.
    """
    nodes = move_graph(k, parity).nodes
    return tuple(nodes[i] for i in _sources_first(k, parity, tie_break))


@lru_cache(maxsize=None)
def _ancestors(k: int, parity: str) -> tuple:
    """anc[j] = bitmask of the nodes that reach node j along arrows (j
    included), filled in one pass over the arrows, sources first."""
    out = move_graph(k, parity).directed_adjacency()
    anc = [1 << i for i in range(len(out))]
    for i in _sources_first(k, parity, "lex"):
        for j in out[i]:
            anc[j] |= anc[i]
    return tuple(anc)


def geodesic_meet(a: CupDiagram, b: CupDiagram) -> CupDiagram:
    """Some c below both a and b with d(a,b) = d(a,c) + d(c,b): the first
    such c in canonical encoding order."""
    _require_maximal(a)
    _require_maximal(b)
    if a.dot_parity != b.dot_parity or a.k != b.k:
        raise NoFiniteDistanceError("no finite-distance chain between the diagrams")
    k, parity = a.k, a.dot_parity
    index = _node_index(k, parity)
    ia, ib = index[a.encoding], index[b.encoding]
    from_a = _distance_row(k, parity, ia)
    from_b = _distance_row(k, parity, ib)  # d(c, b) = d(b, c): undirected
    anc = _ancestors(k, parity)
    below_both = anc[ia] & anc[ib]
    while below_both:  # lowest index first
        low = below_both & -below_both
        ic = low.bit_length() - 1
        if from_a[ic] + from_b[ic] == from_a[ib]:
            return move_graph(k, parity).nodes[ic]
        below_both ^= low
    raise InternalCheckError("no geodesic meet exists")  # pragma: no cover


# ---------------------------------------------------------------------------
# Nesting, the cup forest and the cell census


class NestingCensus(NamedTuple):
    degrees: tuple        # ((cup, nesting degree), ...) in cup order
    outer: tuple          # cups of nesting degree 0
    special: tuple        # outer cups created by reverse primed moves

    def degree_of(self, cup: Cup) -> int:
        for c, d in self.degrees:
            if c == cup:
                return d
        raise KeyError(cup)


def _nesting_degrees(a: CupDiagram) -> dict:
    """Each cup's depth plus the dotted cups right of it (all right of its
    outer cup, as no dotted cup is nested): the round in which a peel
    removes the cup, if each round removes the cups neither nested nor
    followed by a dotted cup."""
    degrees, dotted_right = {}, 0
    for c, depth in sorted(zip(a.cups, nesting(a.k, a.cups, a.rays).depth), reverse=True):
        degrees[c] = depth + dotted_right
        dotted_right += c.dotted
    return degrees


def _backward_moves(a: CupDiagram) -> list:
    """(move kind, matched arcs) for every arrow into a: one matcher pass."""
    return [(move.kind, pair) for _, move, pair in _matches(a, _BACKWARDS)]


def nesting_census(a: CupDiagram) -> NestingCensus:
    return _nesting_census(a, _backward_moves(a))


def _nesting_census(a: CupDiagram, backward: list) -> NestingCensus:
    levels = _nesting_degrees(a)
    degrees = tuple((c, levels[c]) for c in a.cups)
    outer = tuple(c for c in a.cups if levels[c] == 0)
    # cup-ray pairs come cup first
    special = {pair[0] for kind, pair in backward if kind in PRIMED}
    special = tuple(sorted(special, key=lambda c: c.left))
    if not set(special) <= set(outer):
        raise InternalCheckError("special cup outside the outer cups")
    return NestingCensus(degrees, outer, special)


class CupForest(NamedTuple):
    base: CupDiagram
    vertices: tuple             # the cups
    edges: tuple                # (shallower cup, deeper cup)
    roots: tuple                # outer cups
    special_roots: tuple

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def cup_forest(a: CupDiagram) -> CupForest:
    """Forest on the cups of a maximal diagram.

    An edge joins the two cups rewired by some reverse unprimed move and
    points at the more deeply nested one; roots are the outer cups, and
    the ones a reverse primed move can create are marked special.
    """
    backward = _backward_moves(a)
    census = _nesting_census(a, backward)
    levels = dict(census.degrees)
    edges = set()
    for kind, (c1, c2) in backward:
        if kind not in UNPRIMED:
            continue
        if levels[c2] > levels[c1]:
            edges.add((c1, c2))
        elif levels[c1] > levels[c2]:
            edges.add((c2, c1))
    incoming: dict = {c: 0 for c in a.cups}
    for _, tgt in edges:
        incoming[tgt] += 1
    roots = census.outer
    for c in a.cups:
        expected = 0 if c in roots else 1
        if incoming[c] != expected:
            raise InternalCheckError(
                f"cup {c} of {encode(a)} has {incoming[c]} incoming forest edges"
            )
    return CupForest(
        a,
        a.cups,
        tuple(sorted(edges, key=lambda e: (e[0].left, e[1].left))),
        roots,
        census.special,
    )


def cell_census(a: CupDiagram) -> tuple:
    """Real dimensions of the affine cells of the diagram, descending.

    Cells are indexed by subsets J of roots-plus-edges and have real
    dimension 2(#cups - |J|).
    """
    n = a.n_cups
    dims = []
    for size in range(n + 1):
        dims.extend([2 * (n - size)] * math.comb(n, size))
    return tuple(sorted(dims, reverse=True))


def _boundary_sets(a: CupDiagram):
    forest = cup_forest(a)
    items = [("root", r) for r in forest.roots] + [("edge", e) for e in forest.edges]
    odd = a.k % 2 == 1
    special = set(forest.special_roots)
    for subset in itertools.chain.from_iterable(
        itertools.combinations(items, n) for n in range(len(items) + 1)
    ):
        in_boundary = any(
            kind == "edge" or (odd and kind == "root" and payload in special)
            for kind, payload in subset
        )
        yield len(subset), in_boundary


def boundary_census(a: CupDiagram) -> tuple:
    """Dimensions of the cells lying in earlier diagrams' subspaces."""
    n = a.n_cups
    dims = [2 * (n - size) for size, inside in _boundary_sets(a) if inside]
    return tuple(sorted(dims, reverse=True))


def free_cell_count(a: CupDiagram) -> int:
    """Cells of the diagram meeting no earlier diagram."""
    return sum(1 for _, inside in _boundary_sets(a) if not inside)
