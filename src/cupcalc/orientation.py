"""Weights, oriented diagrams, degrees and component decompositions.

A *weight* is a word of length k over up/down, written ``^``/``v`` with
vertex 1 leftmost.  A weight orients a cup (or cap) diagram when every
arc sees an allowed label pair:

* undotted cup or cap: opposite symbols at its endpoints,
* dotted cup or cap: equal symbols,
* undotted ray: down,  dotted ray: up.

Gluing a cap diagram on top of a cup diagram produces a circle diagram
whose connected components are circles (closed) and lines (ending in
rays).  An arc is *clockwise* when, read left to right, it carries
``(up, down)`` if undotted or ``(down, down)`` if dotted; the degree of
an oriented diagram counts its clockwise cups and caps.  A circle is
anticlockwise exactly when its rightmost label is up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Tuple, Union

from .diagrams import CapDiagram, Cup, CupDiagram, Ray, encode, validate
from .errors import InternalCheckError

UP = "^"
DOWN = "v"
_SORT_SYMBOLS = str.maketrans({DOWN: "0", UP: "1"})


class OrientationError(ValueError):
    """Base class for orientation failures."""


class InconsistentOrientationError(OrientationError):
    pass


@dataclass(frozen=True, order=False)
class Weight:
    text: str

    def __post_init__(self):
        bad = set(self.text) - {UP, DOWN}
        if bad:
            raise OrientationError(f"weight symbols must be '{UP}' or '{DOWN}', got {bad}")

    @property
    def k(self) -> int:
        return len(self.text)

    def __len__(self) -> int:
        return len(self.text)

    def __getitem__(self, vertex: int) -> str:
        """Symbol at a 1-based vertex."""
        if not 1 <= vertex <= len(self.text):
            raise OrientationError(
                f"vertex {vertex} outside 1..{len(self.text)} of weight {self.text}"
            )
        return self.text[vertex - 1]

    def sort_key(self) -> str:
        # canonical order: down before up
        return self.text.translate(_SORT_SYMBOLS)

    def flip(self, vertices: Iterable[int]) -> "Weight":
        chars = list(self.text)
        for v in vertices:
            chars[v - 1] = UP if chars[v - 1] == DOWN else DOWN
        return Weight("".join(chars))

    def __str__(self) -> str:
        return self.text


def is_oriented(weight: Weight, diagram: Union[CupDiagram, CapDiagram]) -> bool:
    if len(weight) != diagram.k:
        return False
    for c in diagram.cups:
        a, b = weight[c.left], weight[c.right]
        if c.dotted and a != b:
            return False
        if not c.dotted and a == b:
            return False
    for r in diagram.rays:
        if weight[r.at] != (UP if r.dotted else DOWN):
            return False
    return True


def half_degree(weight: Weight, diagram: Union[CupDiagram, CapDiagram]) -> int:
    """Number of clockwise arcs of one oriented cup or cap diagram."""
    if not is_oriented(weight, diagram):
        raise InconsistentOrientationError(
            f"{weight} does not orient {diagram.encode()}"
        )
    deg = 0
    for c in diagram.cups:
        pair = (weight[c.left], weight[c.right])
        if c.dotted:
            deg += pair == (DOWN, DOWN)
        else:
            deg += pair == (UP, DOWN)
    return deg


def orientations_of_cup(c: CupDiagram) -> List[Weight]:
    """All weights orienting c, in canonical order; there are 2^#cups.

    The order is generated, not sorted.  Two weights orienting c first
    differ at the left end of the leftmost cup they label differently,
    so taking the cups by left end, each with its down-at-left choice
    first, lists the weights in canonical order.
    """
    slots = [None] * c.k
    for r in c.rays:
        slots[r.at - 1] = UP if r.dotted else DOWN
    cups = sorted(c.cups)  # by left end; the vertices are distinct
    choices = [
        ((DOWN, DOWN), (UP, UP)) if cup.dotted else ((DOWN, UP), (UP, DOWN))
        for cup in cups
    ]
    weights = []
    for combo in itertools.product(*choices):
        filled = slots[:]
        for cup, (a, b) in zip(cups, combo):
            filled[cup.left - 1] = a
            filled[cup.right - 1] = b
        weights.append(Weight("".join(filled)))
    return weights


def graded_orientations(c: CupDiagram) -> List[Tuple[Weight, int]]:
    """Each weight orienting c, in canonical order, with its half degree:
    an oriented arc is clockwise exactly when its right end is down."""
    right_ends = [cup.right - 1 for cup in c.cups]
    return [(w, [w.text[r] for r in right_ends].count(DOWN)) for w in orientations_of_cup(c)]


# ---------------------------------------------------------------------------
# Component decomposition of a glued cap/cup pair


class ComponentClass(NamedTuple):
    vertices: tuple           # sorted
    kind: str                 # "circle" | "line"
    mx: int                   # maximal vertex
    signs: Optional[tuple]    # sign_to_max per vertex, aligned with `vertices`;
                              # None when the class has no consistent sign
    parity_consistent: bool


@dataclass(frozen=True)
class ComponentDecomposition:
    k: int
    classes: tuple

    def class_of(self, v: int) -> ComponentClass:
        for cl in self.classes:
            if v in cl.vertices:
                return cl
        raise KeyError(v)

    def mx(self, v: int) -> int:
        return self.class_of(v).mx

    def sign_to_max(self, v: int) -> int:
        cl = self.class_of(v)
        if cl.signs is None:
            raise InconsistentOrientationError(
                f"sign to maximum is ill-defined on component {cl.vertices}"
            )
        return cl.signs[cl.vertices.index(v)]

    def epsilon(self, i: int, j: int) -> int:
        """(-1)^(number of undotted cups on any path i..j); 0 across classes."""
        ci = self.class_of(i)
        if j not in ci.vertices:
            return 0
        return self.sign_to_max(i) * self.sign_to_max(j)

    @property
    def circles(self) -> tuple:
        return tuple(cl for cl in self.classes if cl.kind == "circle")


def decompose(cap: CapDiagram, cup: CupDiagram) -> ComponentDecomposition:
    """Connected components of the glued diagram cap over cup.

    Every vertex meets one arc of each half, so each component is a
    circle or a line.  It is traced from its least vertex by walking
    alternately along cap and cup partners (each half's ``partners``
    arrays, computed once per diagram), multiplying the flips of the
    arcs passed (-1 per undotted cup); a line needs a second walk from
    the same vertex in the other direction.  The sign of a vertex
    relative to the class maximum is the parity of undotted cups on the
    path between them.  A circle is consistent, and its signs
    path-independent, exactly when the product of its flips is +1; an
    inconsistent circle admits no orientation.
    """
    if cap.k != cup.k:
        raise OrientationError("cap and cup must have the same vertex count")
    k = cup.k
    halves = (cap.partners, cup.partners)
    seen = [False] * (k + 1)
    classes = []
    for start in range(1, k + 1):
        if seen[start]:
            continue
        path = {start: 1}  # vertex -> product of flips from start
        kind, consistent = "line", True
        for first in (0, 1):
            v, sign, h = start, 1, first
            while True:
                partner, flip = halves[h]
                w = partner[v]
                if w == 0:
                    break
                sign *= flip[v]
                if w == start:
                    kind, consistent = "circle", sign == 1
                    break
                seen[w] = True
                path[w] = sign
                v, h = w, 1 - h
            if kind == "circle":
                break
        verts = tuple(sorted(path))
        mx = verts[-1]
        signs = tuple(path[v] * path[mx] for v in verts) if consistent else None
        classes.append(ComponentClass(verts, kind, mx, signs, consistent))
    return ComponentDecomposition(k, tuple(classes))


@dataclass(frozen=True)
class OrientedCircleDiagram:
    cap: CapDiagram
    weight: Weight
    cup: CupDiagram
    degree: int
    decomposition: ComponentDecomposition
    circle_classes: tuple  # ((mx, "clockwise"|"anticlockwise"), ...)


def diagram_degree(cap: CapDiagram, weight: Weight, cup: CupDiagram) -> int:
    return half_degree(weight, cap) + half_degree(weight, cup)


class LineForcing(NamedTuple):
    decomposition: ComponentDecomposition
    labels: tuple  # labels[v - 1]: the symbol of vertex v on a line, None on a circle


def force_lines(cap: CapDiagram, cup: CupDiagram) -> Optional[LineForcing]:
    """The glued diagram's components and the labels its lines must carry,
    or None when no weight orients it.

    Each line takes its label from the rays at its ends, pushed along
    the line by the class signs; the glued diagram is orientable exactly
    when no ray vertex gets two labels, every circle is consistent and
    every line gets one label.  This is the first step of
    :func:`orient_circle_diagram`, for callers that need only
    orientability or the decomposition.
    """
    dec = decompose(cap, cup)
    forced: dict = {}
    for half in (cap, cup):
        for r in half.rays:
            val = UP if r.dotted else DOWN
            if forced.get(r.at, val) != val:
                return None
            forced[r.at] = val
    chars = [None] * cup.k
    for cl in dec.classes:
        if not cl.parity_consistent:
            return None
        if cl.kind == "circle":
            continue
        candidates = {
            forced[v] if s == 1 else _flip(forced[v])
            for v, s in zip(cl.vertices, cl.signs)
            if v in forced
        }
        if len(candidates) != 1:
            return None
        _label(chars, cl, candidates.pop())
    return LineForcing(dec, tuple(chars))


def orient_circle_diagram(cap: CapDiagram, cup: CupDiagram) -> List[OrientedCircleDiagram]:
    """All orientations of the glued diagram, canonically ordered.

    Empty when :func:`force_lines` finds a contradiction; otherwise the
    line labels are the same in every orientation and each circle takes
    either symbol at its maximum, so there are exactly 2^#circles.
    """
    forced = force_lines(cap, cup)
    if forced is None:
        return []
    dec, chars = forced.decomposition, list(forced.labels)
    circles = sorted(dec.circles, key=lambda cl: cl.mx)

    # Every weight built below orients both halves, and an oriented arc
    # is clockwise exactly when its right end is down, so the degree is
    # read off the right ends without re-validating the weight.
    right_ends = [c.right - 1 for half in (cap, cup) for c in half.cups]
    results = []
    for combo in itertools.product((UP, DOWN), repeat=len(circles)):
        for cl, sym in zip(circles, combo):
            _label(chars, cl, sym)
        degree = [chars[r] for r in right_ends].count(DOWN)
        circle_classes = tuple(
            (cl.mx, "anticlockwise" if sym == UP else "clockwise")
            for cl, sym in zip(circles, combo)
        )
        results.append(
            OrientedCircleDiagram(
                cap, Weight("".join(chars)), cup, degree, dec, circle_classes
            )
        )
    results.sort(key=lambda o: o.weight.sort_key())
    return results


def _label(chars: list, cl: ComponentClass, sym: str) -> None:
    """Give the class maximum the symbol sym and the rest of the class
    the symbols its signs imply."""
    other = _flip(sym)
    for v, s in zip(cl.vertices, cl.signs):
        chars[v - 1] = sym if s == 1 else other


def _flip(sym: str) -> str:
    return UP if sym == DOWN else DOWN


def is_orientable(cap: CapDiagram, cup: CupDiagram) -> bool:
    """Whether some weight orients the glued diagram, without listing the
    orientations."""
    return force_lines(cap, cup) is not None


def min_degree_element(a: CupDiagram, b: CupDiagram):
    """The unique minimal-degree orientation of (a* b) and its degree, or None.

    The minimum is attained when every circle is anticlockwise.
    """
    oriented = orient_circle_diagram(a.star(), b)
    if not oriented:
        return None
    return min_degree_of(oriented)


def min_degree_of(oriented: List[OrientedCircleDiagram]):
    """The minimal-degree element of a non-empty list of orientations of
    one glued diagram and its degree; the minimum must be unique."""
    best = min(oriented, key=lambda o: o.degree)
    if sum(1 for o in oriented if o.degree == best.degree) != 1:
        raise InternalCheckError(
            f"minimal degree not unique for {encode(best.cap)} / {encode(best.cup)}"
        )
    return best, best.degree


def cup_of_weight(weight: Weight) -> CupDiagram:
    """The unique diagram oriented by the weight with degree zero.

    Downs are matched to later ups as undotted cups (parenthesis
    matching); leftover ups pair consecutively into dotted cups, an odd
    one out becoming a dotted ray; leftover downs become undotted rays.
    """
    open_downs: list = []
    spare_ups: list = []
    cups = []
    for v in range(1, len(weight) + 1):
        if weight[v] == DOWN:
            open_downs.append(v)
        elif open_downs:
            cups.append(Cup(open_downs.pop(), v, False))
        else:
            spare_ups.append(v)
    rays = [Ray(v, False) for v in open_downs]
    for i in range(0, len(spare_ups) - 1, 2):
        cups.append(Cup(spare_ups[i], spare_ups[i + 1], True))
    if len(spare_ups) % 2 == 1:
        rays.append(Ray(spare_ups[-1], True))
    return validate(len(weight), cups, rays)


def degree_zero_weight(c: CupDiagram) -> Weight:
    """Inverse of cup_of_weight on valid diagrams."""
    chars = [None] * c.k
    for cup in c.cups:
        if cup.dotted:
            chars[cup.left - 1] = UP
            chars[cup.right - 1] = UP
        else:
            chars[cup.left - 1] = DOWN
            chars[cup.right - 1] = UP
    for r in c.rays:
        chars[r.at - 1] = UP if r.dotted else DOWN
    return Weight("".join(chars))
