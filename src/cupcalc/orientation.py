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

Orientations are generated as integers ("bit words"): vertex v is bit
k - v, set when up, so the word read in binary, vertex 1 first, is the
weight with down as 0 and up as 1, and the canonical order of weights
(down before up) is the order of the integers.  Only the weights that
callers read are built from them.  ``Weight(text)`` checks its symbols:
that is the trust boundary for weights, where text comes from a user,
from :func:`springer.weight_of_index_set` or from the selftest's
brute-force oracle.  A weight whose text the library writes itself from a
bit word is legal by construction, and ``_word_weight`` builds it without
the check.
"""

from __future__ import annotations

import operator
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


_BIT_SYMBOLS = str.maketrans("01", DOWN + UP)


def _word_weight(k: int, bits: int) -> Weight:
    """The weight of a bit word (see the module docstring).  Its text is
    written here from the word, so it is legal by construction and the
    weight is built without the symbol check of ``Weight(text)``."""
    weight = object.__new__(Weight)
    # past the frozen __setattr__, as the dataclass's __init__ does; a write to
    # __dict__ instead would give every weight a dict of its own (64 bytes more)
    object.__setattr__(weight, "text", bin(bits | 1 << k)[3:].translate(_BIT_SYMBOLS))
    return weight


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


def _cup_words(c: CupDiagram) -> List[Tuple[int, int]]:
    """Each orientation of c as ``(bits, half degree)``, in canonical
    order; there are 2^#cups.

    The order is generated, not sorted.  Two weights orienting c first
    differ at the left end of the leftmost cup they label differently,
    so taking the cups by left end, each with its down-at-left choice
    first, lists the weights in canonical order.  An oriented cup is
    clockwise exactly when its right end is down, so each cup adds one
    of two ``(bits, clockwise)`` choices: undotted down-up then up-down,
    dotted down-down then up-up.
    """
    k = c.k
    words = [(sum(1 << (k - r.at) for r in c.rays if r.dotted), 0)]
    for cup in sorted(c.cups):  # by left end; the vertices are distinct
        left, right = 1 << (k - cup.left), 1 << (k - cup.right)
        choices = ((0, 1), (left | right, 0)) if cup.dotted else ((right, 0), (left, 1))
        words = [
            (bits + more_bits, degree + more_degree)
            for bits, degree in words
            for more_bits, more_degree in choices
        ]
    return words


def orientations_of_cup(c: CupDiagram) -> List[Weight]:
    """All weights orienting c, in canonical order; there are 2^#cups.

    They are read from the bit words of ``_cup_words`` and built without
    re-checking their symbols.
    """
    k = c.k
    return [_word_weight(k, bits) for bits, _ in _cup_words(c)]


def graded_orientations(c: CupDiagram) -> List[Tuple[Weight, int]]:
    """Each weight orienting c, in canonical order, with its half degree,
    both read from the bit words of ``_cup_words``."""
    k = c.k
    return [(_word_weight(k, bits), degree) for bits, degree in _cup_words(c)]


# ---------------------------------------------------------------------------
# Component decomposition of a glued cap/cup pair


class ComponentClass(NamedTuple):
    vertices: tuple           # sorted
    kind: str                 # "circle" | "line"
    mx: int                   # maximal vertex
    signs: Optional[tuple]    # sign_to_max per vertex, aligned with `vertices`;
                              # None when the class has no consistent sign
    parity_consistent: bool


class ComponentDecomposition(NamedTuple):
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
    circle or a line.  It is traced from its least vertex along each
    half's ``partners`` arrays (computed once per diagram), one cap step
    and one cup step per loop turn, writing into one per-vertex array
    the product of the flips passed (-1 per undotted cup); that array
    also marks the vertices already reached.  A circle closes when a cup
    step returns to its start; a line needs a second walk from the same
    vertex, cup step first.  The sign of a vertex relative to the class
    maximum is the parity of undotted cups on the path between them.  A
    circle is consistent, and its signs path-independent, exactly when
    the product of its flips is +1; an inconsistent circle admits no
    orientation.  Classes come out in order of their least vertex.
    """
    if cap.k != cup.k:
        raise OrientationError("cap and cup must have the same vertex count")
    k = cup.k
    cap_partner, cap_flip = cap.partners
    cup_partner, cup_flip = cup.partners
    sign = [0] * (k + 1)  # product of flips from the walk's start; 0 until reached
    classes = []
    for start in range(1, k + 1):
        if sign[start]:
            continue
        sign[start] = s = 1
        verts = [start]
        v, kind = start, "line"
        while True:  # a cap step, then a cup step
            w = cap_partner[v]
            if not w:
                break
            s *= cap_flip[v]
            sign[w] = s
            verts.append(w)
            v = cup_partner[w]
            if not v:
                break
            s *= cup_flip[w]
            if v == start:
                kind = "circle"
                break
            sign[v] = s
            verts.append(v)
        if kind == "circle":
            consistent = s == 1
        else:
            consistent = True
            v, s = start, 1
            while True:  # the other end: a cup step, then a cap step
                w = cup_partner[v]
                if not w:
                    break
                s *= cup_flip[v]
                sign[w] = s
                verts.append(w)
                v = cap_partner[w]
                if not v:
                    break
                s *= cap_flip[w]
                sign[v] = s
                verts.append(v)
        verts.sort()
        mx = verts[-1]
        if consistent:
            at_mx = sign[mx]
            signs = tuple([sign[u] * at_mx for u in verts])
        else:
            signs = None
        classes.append(ComponentClass(tuple(verts), kind, mx, signs, consistent))
    return ComponentDecomposition(k, tuple(classes))


class OrientedCircleDiagram(NamedTuple):
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
    every line gets one label.  One pass over a line's vertices reads
    the label each ray end asks of the line maximum and checks that they
    agree.  This is the first step of :func:`orient_circle_diagram`, for
    callers that need only orientability or the decomposition.
    """
    dec = decompose(cap, cup)
    ray = [0] * (cup.k + 1)  # +1 for a ray asking up, -1 for down, 0 for none
    for half in (cap, cup):
        for r in half.rays:
            val = 1 if r.dotted else -1
            if ray[r.at] == -val:
                return None
            ray[r.at] = val
    labels = [None] * cup.k
    for cl in dec.classes:
        if not cl.parity_consistent:
            return None
        if cl.kind == "circle":
            continue
        at_mx = 0  # the label of the line maximum, +1 up or -1 down
        for v, s in zip(cl.vertices, cl.signs):
            val = ray[v] * s
            if not val:
                continue
            if at_mx and at_mx != val:
                return None
            at_mx = val
        if not at_mx:
            return None
        same, other = (UP, DOWN) if at_mx == 1 else (DOWN, UP)
        for v, s in zip(cl.vertices, cl.signs):
            labels[v - 1] = same if s == 1 else other
    return LineForcing(dec, tuple(labels))


def _labellings(cap: CapDiagram, cup: CupDiagram, forced: LineForcing):
    """The forced part of every orientation and each circle's two
    labellings.

    Returns ``(line, circles, by_maximum)``.  ``line`` is ``(bits,
    degree, ())`` for the line labels alone.  ``circles`` holds, per
    circle by least vertex, ``(anticlockwise, clockwise, anticlockwise
    first)``: a labelling is ``(bits, degree part, ((mx, class),))``,
    the pair sharing its ``(mx, class)`` tuples with every orientation,
    and the flag says which labelling puts down at the circle's least
    vertex.  ``by_maximum`` reorders a tuple of circle classes listed by
    least vertex into the order of their maxima (``tuple`` when the
    two orders agree).

    An oriented arc is clockwise exactly when its right end is down, so
    a component's degree part is the number of arc right ends on it that
    carry down.  Every arc lies on one component, so the degree is the
    line degree plus one part per circle.  On a circle, anticlockwise
    (up at the maximum) puts down at the vertices of sign -1, clockwise
    at those of sign +1; every circle vertex is the right end of 0, 1
    or 2 of its two arcs.
    """
    dec, labels = forced
    k = dec.k
    line_bits = 0
    for v, sym in enumerate(labels, 1):
        if sym == UP:
            line_bits |= 1 << (k - v)
    line_degree = [labels[c.right - 1] for half in (cap, cup) for c in half.cups].count(DOWN)
    cap_partner, cup_partner = cap.partners[0], cup.partners[0]
    circles, maxima = [], []
    for cl in dec.classes:
        if cl.kind != "circle":
            continue
        plus_bits = minus_bits = plus_ends = minus_ends = 0
        for v, s in zip(cl.vertices, cl.signs):
            ends = (cap_partner[v] < v) + (cup_partner[v] < v)
            if s == 1:
                plus_bits |= 1 << (k - v)
                plus_ends += ends
            else:
                minus_bits |= 1 << (k - v)
                minus_ends += ends
        anticlockwise = (plus_bits, minus_ends, ((cl.mx, "anticlockwise"),))
        clockwise = (minus_bits, plus_ends, ((cl.mx, "clockwise"),))
        circles.append((anticlockwise, clockwise, cl.signs[0] == -1))
        maxima.append(cl.mx)
    if maxima == sorted(maxima):
        by_maximum = tuple
    else:
        by_maximum = operator.itemgetter(*sorted(range(len(maxima)), key=maxima.__getitem__))
    return (line_bits, line_degree, ()), circles, by_maximum


def orient_circle_diagram(cap: CapDiagram, cup: CupDiagram) -> List[OrientedCircleDiagram]:
    """All orientations of the glued diagram, canonically ordered.

    Empty when :func:`force_lines` finds a contradiction; otherwise the
    line labels are the same in every orientation and each circle takes
    either of its two labellings, so there are exactly 2^#circles.

    The order is generated, not sorted.  Two orientations differ on
    whole circles, so they first differ at the least vertex of the first
    circle, by least vertex, that they label differently.  Taking the
    circles by least vertex, each with the labelling that puts down at
    that vertex first, therefore lists the weights in canonical order.
    The degree counts clockwise arcs, and whether an arc is clockwise
    depends only on the labels of the one component it lies on, so the
    degree of each orientation is the line degree plus the parts of the
    chosen labellings.  Its ``circle_classes`` list the circles by
    maximum.
    """
    forced = force_lines(cap, cup)
    if forced is None:
        return []
    line, circles, by_maximum = _labellings(cap, cup, forced)
    partial = [line]
    for anticlockwise, clockwise, anticlockwise_first in circles:
        pair = (anticlockwise, clockwise) if anticlockwise_first else (clockwise, anticlockwise)
        partial = [
            (bits + part_bits, degree + part_degree, classes + part_class)
            for bits, degree, classes in partial
            for part_bits, part_degree, part_class in pair
        ]
    dec = forced.decomposition
    k = dec.k
    return [
        OrientedCircleDiagram(cap, _word_weight(k, bits), cup, degree, dec, by_maximum(classes))
        for bits, degree, classes in partial
    ]


def is_orientable(cap: CapDiagram, cup: CupDiagram) -> bool:
    """Whether some weight orients the glued diagram, without listing the
    orientations."""
    return force_lines(cap, cup) is not None


def min_degree_element(a: CupDiagram, b: CupDiagram):
    """The unique minimal-degree orientation of (a* b) and its degree, or None.

    The minimum is attained when every circle is anticlockwise (up at
    its maximum), so it is built from :func:`force_lines` and that one
    labelling of each circle, without listing the other orientations.
    """
    cap = a.star()
    forced = force_lines(cap, b)
    if forced is None:
        return None
    (bits, degree, classes), circles, by_maximum = _labellings(cap, b, forced)
    for (part_bits, part_degree, part_class), _, _ in circles:
        bits += part_bits
        degree += part_degree
        classes += part_class
    dec = forced.decomposition
    best = OrientedCircleDiagram(
        cap, _word_weight(dec.k, bits), b, degree, dec, by_maximum(classes)
    )
    return best, degree


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
