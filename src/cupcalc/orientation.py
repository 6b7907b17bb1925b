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

Every orientation of a glued diagram is its all-anticlockwise one with
some circles flipped.  The line labels are forced by the rays, an
anticlockwise circle is up at its vertices of sign +1 (relative to its
maximum), and a flip complements one circle's labels, turns it
clockwise and adds exactly 2 to the degree.  So the all-anticlockwise
orientation is the unique one of least degree
(:func:`min_degree_element`), and :func:`orient_circle_diagram` reaches
the rest by flipping its circles.  The +2 law is checked apart from this
construction by the selftest's ``degree-convention`` suite, which
recomputes each flipped degree from the two halves, and by the tests'
``oracle_orient_circle_diagram``, which labels each circle both ways
and counts the clockwise arcs.

Orientations are generated as integers ("bit words"): vertex v is bit
k - v, set when up, so the word read in binary, vertex 1 first, is the
weight with down as 0 and up as 1, and the canonical order of weights
(down before up) is the order of the integers.  A cup diagram's
orientations and a glued diagram's come from one generator,
``_choice_sums``: a start word plus one of two choices per cup or per
circle, the first the most significant digit.  A circle keeps its
anticlockwise labels or flips them; circles are disjoint, so a flip
adds a fixed integer to the word, whatever the other circles do, and 2
to the degree.  Only the weights that callers read are built from the
words.  ``Weight(text)`` checks its symbols: that is the trust boundary
for weights, where text comes from a user, from
:func:`springer.weight_of_index_set` or from the selftest's brute-force
oracle.  A weight whose text the library writes itself from a bit word
is legal by construction, and ``_word_weight`` builds it without the
check.

A glued pair is walked once, by the private ``_glue``: one pass over
the two halves' ``partners`` arrays that stops at the first
contradiction (an inconsistent circle, or a line whose two end rays ask
different labels) and otherwise returns flat facts: the circle count,
each vertex's sign relative to its component's least vertex and, per
component, its vertices, its maximum and the all-anticlockwise label of
its least vertex.  The all-pairs laws read only orientability, the
circle count (2^#circles fixed points) and the rewrite rule of each
vertex (the sign to its circle maximum, or death on a line), and all
three come straight from the walk.  So :func:`is_orientable`, the
closed-form graded dimension and the quotient rings of :mod:`ringcalc`
read the walk directly, and build no record.  :func:`decompose`, :func:`force_lines` and the records of
:class:`Orientations` build the public NamedTuples from the same walk,
only when they are read; the walk keeps its decomposition, so every
reader of one walk gets one object.

The orientations of a glued diagram are a lazy sequence
(:class:`Orientations`) over that product, which builds a record only
when one is read.  Its length is 2^#circles, or 0 when no weight
orients the diagram.  Construction runs only the walk: the start word,
the per-circle choices and the degree are prepared from the kept walk
on the first read, so testing orientability with ``bool`` or ``len``
builds none of them.  The walk keeps its last result in one slot, so
orienting a pair and then decomposing the same two objects walks the
pair once.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from .diagrams import CapDiagram, Cup, CupDiagram, Ray, _Value, validate
from .errors import InputError

UP = "^"
DOWN = "v"
_SORT_SYMBOLS = str.maketrans({DOWN: "0", UP: "1"})


class OrientationError(InputError):
    """Base class for orientation failures."""


class InconsistentOrientationError(OrientationError):
    pass


class Weight(_Value):
    """A word in the symbols ``^`` and ``v``, one per vertex.  Immutable;
    equal weights have equal text, and the hash is that of ``(text,)``."""

    __slots__ = ("text",)
    _fields = ("text",)

    def __init__(self, text: str):
        bad = set(text) - {UP, DOWN}
        if bad:
            raise OrientationError(f"weight symbols must be '{UP}' or '{DOWN}', got {bad}")
        object.__setattr__(self, "text", text)

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
    # into the one slot, past the refusing __setattr__ as Weight.__init__ does
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


def _cup_words(c: CupDiagram) -> Iterator[Tuple[int, int]]:
    """Each orientation of c as ``(bits, half degree)``, in canonical
    order; there are 2^#cups.

    The order is generated, not sorted.  Two weights orienting c first
    differ at the left end of the leftmost cup they label differently,
    so taking the cups by left end, each with its down-at-left choice
    first, lists the weights in canonical order.  An oriented cup is
    clockwise exactly when its right end is down, so each cup is one
    pair of ``(bits, clockwise)`` choices for :func:`_choice_sums`:
    undotted down-up then up-down, dotted down-down then up-up.
    """
    k = c.k
    choices = []
    for cup in sorted(c.cups):  # by left end; the vertices are distinct
        left, right = 1 << (k - cup.left), 1 << (k - cup.right)
        if cup.dotted:
            choices.append(((0, 1), (left | right, 0)))
        else:
            choices.append(((right, 0), (left, 1)))
    rays = sum(1 << (k - r.at) for r in c.rays if r.dotted)
    return _choice_sums(choices, (rays, 0))


def _choice_sums(choices: Sequence, start: tuple) -> Iterator[tuple]:
    """``start`` plus one ``(bits, extra)`` choice from each pair of
    ``choices``, for every way of choosing, the first pair the most
    significant.  Both parts are summed with ``+``: an int ``extra`` (a
    cup's half degree) adds, a tuple (a circle's label) concatenates.

    The sums are yielded as they are made: each is a sum over the first
    half of the pairs plus one over the rest, the first half the more
    significant, so only the partial sums of the two halves are held
    (2^8 each for the 16 pairs of ``orient``'s ceiling), never all
    2^#pairs.
    """
    half = len(choices) // 2
    tails = _sums(choices[half:], (0, type(start[1])()))  # extra 0 or ()
    for bits, extra in _sums(choices[:half], start):
        for more_bits, more_extra in tails:
            yield bits + more_bits, extra + more_extra


def _sums(choices: Sequence, start: tuple) -> List[tuple]:
    """The list of :func:`_choice_sums`, every sum held at once."""
    sums = [start]
    for pair in choices:
        sums = [
            (bits + more_bits, extra + more_extra)
            for bits, extra in sums
            for more_bits, more_extra in pair
        ]
    return sums


def orientations_of_cup(c: CupDiagram) -> List[Weight]:
    """All weights orienting c, in canonical order; there are 2^#cups.

    They are read from the bit words of ``_cup_words`` and built without
    re-checking their symbols.
    """
    k = c.k
    return [_word_weight(k, bits) for bits, _ in _cup_words(c)]


def graded_orientations(c: CupDiagram) -> Iterator[Tuple[Weight, int]]:
    """Each weight orienting c, in canonical order, with its half degree,
    both read from the bit words of ``_cup_words``.  An iterator: each
    weight is built as it is read, so ``cupcalc orient --cup`` holds one
    row at a time."""
    k = c.k
    return ((_word_weight(k, bits), degree) for bits, degree in _cup_words(c))


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


class _Glued:
    """The facts of one glued pair, as :func:`_glue` walks them.

    ``circles`` counts the circles.  ``sign[v]`` is the sign of v relative
    to the least vertex of its component, the product of the flips on
    the path walked between them (index 0 unused).  ``components`` lists
    each component by least vertex as ``(vertices, top, ref)``: its
    vertices in walk order, its maximum (negated on a line) and the
    label of its least vertex in the all-anticlockwise orientation, +1 up
    or -1 down.  So v is labelled ``sign[v] * ref``: on a circle its sign
    to the maximum, on a line the label the rays force.  Only a pair
    walked with ``whole`` may have a component with ``ref`` 0, one that
    admits no labels.  The :class:`ComponentDecomposition` is built from
    these on the first read of ``decomposition`` and kept, so every
    reader of one walk gets the same object."""

    __slots__ = ("circles", "sign", "components", "_dec")

    def __init__(self, circles: int, sign: list, components: list):
        self.circles, self.sign, self.components, self._dec = circles, sign, components, None

    @property
    def decomposition(self) -> ComponentDecomposition:
        if self._dec is None:
            sign = self.sign
            classes = []
            for verts, top, ref in self.components:
                verts = sorted(verts)
                mx = verts[-1]
                if top > 0 and not ref:  # an inconsistent circle
                    signs = None
                elif sign[mx] == 1:
                    signs = tuple(map(sign.__getitem__, verts))
                else:  # relative to the maximum
                    signs = tuple([-sign[v] for v in verts])
                kind = "circle" if top > 0 else "line"
                # tuple.__new__ skips the NamedTuple's Python-level __new__
                classes.append(tuple.__new__(
                    ComponentClass, (tuple(verts), kind, mx, signs, signs is not None)
                ))
            self._dec = tuple.__new__(ComponentDecomposition, (len(sign) - 1, tuple(classes)))
        return self._dec


# (cap, cup, _glue result) of the last walk: one pair, never more
_last_glued = (None, None, None)


def _glue(cap: CapDiagram, cup: CupDiagram, whole: bool = False) -> Optional[_Glued]:
    """The facts of the glued diagram cap over cup (see :class:`_Glued`),
    or None when no weight orients it.

    Every vertex meets one arc or ray of each half, so each component is
    a circle or a line.  It is traced from its least vertex along each
    half's ``partners`` arrays, one cap step and one cup step per loop
    turn, writing into one per-vertex array the product of the flips
    passed (-1 per undotted cup); that array also marks the vertices
    already reached.  A circle closes when a cup step returns to its
    start, and it is consistent exactly when that product is +1; its
    start then takes the label ``sign[max]``, which puts the maximum up,
    as on an anticlockwise circle.  A line needs a second walk from the
    start, cup step first.  Each walk ends at a ray, which asks its
    vertex for a label (up when dotted), so asks the start for that
    label times the end's sign; a vertex with a ray in both halves is a
    line of one vertex.  The pair is orientable exactly when every
    circle is consistent and the two ends of every line ask the same.
    The walk stops at the first contradiction and returns None, unless
    ``whole`` asks for every component (as :func:`decompose` does).

    The last result is kept in one slot and returned again when the
    same two objects (``is``, not ``==``) come back at once, as when a
    caller orients a pair and then decomposes it.  Only that one pair is
    held, so a sweep over many pairs keeps nothing per pair.
    """
    global _last_glued
    last_cap, last_cup, last = _last_glued
    if cap is last_cap and cup is last_cup and (last is not None or not whole):
        return last
    if cap.k != cup.k:
        raise OrientationError("cap and cup must have the same vertex count")
    k = cup.k
    cap_partner, cap_flip = cap.partners
    cup_partner, cup_flip = cup.partners
    sign = [0] * (k + 1)  # product of flips from the component's start; 0 until reached
    components, circles, orientable = [], 0, True
    for start in range(1, k + 1):
        if sign[start]:
            continue
        sign[start] = s = 1
        verts = [start]
        v = start
        while True:  # a cap step, then a cup step
            w = cap_partner[v]
            if not w:
                ask = cap.ray_labels[v] * s
                break
            s *= cap_flip[v]
            sign[w] = s
            verts.append(w)
            v = cup_partner[w]
            if not v:
                ask = cup.ray_labels[w] * s
                break
            s *= cup_flip[w]
            if v == start:
                ask = None
                break
            sign[v] = s
            verts.append(v)
        if ask is None:  # a circle
            circles += 1
            top = max(verts)
            ref = sign[top] if s == 1 else 0
        else:
            v, s = start, 1
            while True:  # the other end: a cup step, then a cap step
                w = cup_partner[v]
                if not w:
                    other = cup.ray_labels[v] * s
                    break
                s *= cup_flip[v]
                sign[w] = s
                verts.append(w)
                v = cap_partner[w]
                if not v:
                    other = cap.ray_labels[w] * s
                    break
                s *= cap_flip[w]
                sign[v] = s
                verts.append(v)
            top = -max(verts)
            ref = ask if ask == other else 0
        if not ref:
            if not whole:
                _last_glued = (cap, cup, None)
                return None
            orientable = False
        components.append((verts, top, ref))
    glued = _Glued(circles, sign, components)
    _last_glued = (cap, cup, glued if orientable else None)
    return glued


def decompose(cap: CapDiagram, cup: CupDiagram) -> ComponentDecomposition:
    """Connected components of the glued diagram cap over cup, as
    records built from the walk of :func:`_glue` on its first read.

    Classes come out in order of their least vertex, each with its
    sorted vertices, its maximum and each vertex's sign relative to it:
    the parity of undotted cups on the path between them.  A circle
    whose signs are not path-independent has none (``signs`` None) and
    admits no orientation.  Orienting a pair and then decomposing the
    same two objects walks the pair once, and both read the same record.
    A pair that no weight orients is walked whole, past the
    contradiction that stops the plain walk, each time it is decomposed.
    """
    return _glue(cap, cup, whole=True).decomposition


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

    Both are read from the one walk of :func:`_glue`, which reads each
    line's label off the rays at its two ends and stops at the first
    contradiction: an inconsistent circle, or a line whose two ends ask
    different labels.  The records are built here, for callers that read
    them; orientability alone is ``_glue(cap, cup) is not None``.
    """
    glued = _glue(cap, cup)
    if glued is None:
        return None
    sign, labels = glued.sign, [None] * cup.k
    for verts, top, ref in glued.components:
        if top < 0:
            for v in verts:
                labels[v - 1] = UP if sign[v] == ref else DOWN
    return LineForcing(glued.decomposition, tuple(labels))


class Orientations(Sequence):
    """All orientations of one glued diagram, in canonical order, each
    built only when it is read.

    It is made in two stages.  Construction runs the walk of ``_glue``
    and keeps its flat result and the length, 2^#circles or 0 when no
    weight orients the pair, so a truth or length test builds no record.
    The first read (an index, a slice, iteration, ``==`` or
    ``anticlockwise``) runs ``_prepare`` once, from the kept walk and
    without gluing the pair again; the records share the walk's one
    :class:`ComponentDecomposition`.  It builds the all-anticlockwise
    orientation as the ``(bits, ())`` start of ``_choice_sums`` with its
    degree and, per circle by least vertex, two choices, the one that puts
    down at the least vertex first: keep ``(0, ((mx, "anticlockwise"),))``
    or flip ``(delta, ((mx, "clockwise"),))``, delta being the circle's
    down bits less its up bits in the all-anticlockwise word.  A record's
    degree is read off its word: the all-anticlockwise degree plus 2 for
    each circle whose maximum is down, as a circle is anticlockwise
    exactly when its maximum is up.  Record i takes circle j's choice from
    binary digit j of i, the first circle the most significant.
    Orientations differ on whole circles, so two first differ at the
    least vertex of the first circle they label differently: that order is
    the canonical order of the weights.

    Indices may be negative and slices give lists.  Iteration reads the
    sums one at a time, so it never holds a record per orientation.  It
    equals a list (or another ``Orientations``) with equal records in the
    same order, and is unhashable, as a list is.
    """

    __slots__ = (
        "_cap", "_cup", "_glued", "_len",
        # filled by _prepare on the first read; _choices is None until then
        "_dec", "_start", "_degree", "_maxima", "_choices", "_by_maximum",
    )
    __hash__ = None

    def __init__(self, cap: CapDiagram, cup: CupDiagram):
        glued = _glue(cap, cup)
        self._cap, self._cup, self._glued, self._choices = cap, cup, glued, None
        self._len = 0 if glued is None else 1 << glued.circles  # no record slot is read at 0

    def _prepare(self) -> None:
        """Build the start word, the per-circle choices, the degree and the
        maxima order from the kept walk.  The all-anticlockwise orientation
        is up exactly where the walk's label ``sign[v] * ref`` is +1: lines
        carry their forced labels, and each circle is up at its vertices of
        sign +1, so at its maximum."""
        glued = self._glued
        sign = glued.sign
        k = len(sign) - 1
        bits, choices, maxima, tops = 0, [], [], 0
        for verts, mx, ref in glued.components:
            mask = up = 0
            for v in verts:
                bit = 1 << (k - v)
                mask |= bit
                if sign[v] == ref:
                    up |= bit
            bits |= up
            if mx < 0:  # a line
                continue
            keep = (0, ((mx, "anticlockwise"),))
            flip = ((mask - up) - up, ((mx, "clockwise"),))
            # keep first when anticlockwise is down at the least vertex (label ref)
            choices.append((keep, flip) if ref == -1 else (flip, keep))
            maxima.append(mx)
            tops |= 1 << (k - mx)
        # An oriented arc is clockwise exactly when its right end is down, so
        # the degree counts the arc right ends, in both halves, that carry down.
        degree = [
            bits >> (k - c.right) & 1 for half in (self._cap, self._cup) for c in half.cups
        ].count(0)
        self._dec, self._start, self._degree, self._maxima = glued.decomposition, (bits, ()), degree, tops
        # a record's circle_classes list the circles by maximum
        if maxima == sorted(maxima):
            self._by_maximum = tuple
        else:
            self._by_maximum = operator.itemgetter(
                *sorted(range(len(maxima)), key=maxima.__getitem__)
            )
        self._choices = tuple(choices)

    @property
    def anticlockwise(self) -> Optional[OrientedCircleDiagram]:
        """The all-anticlockwise record, the unique one of least degree;
        None when no weight orients the pair."""
        if not self._len:
            return None
        if self._choices is None:
            self._prepare()
        labels = tuple((cl.mx, "anticlockwise") for cl in self._dec.circles)
        return self._record(self._start[0], labels)

    def _record(self, bits: int, labels: tuple) -> OrientedCircleDiagram:
        """The record of a sum of choices, its circle classes by maximum."""
        dec = self._dec
        degree = self._degree + 2 * (self._maxima & ~bits).bit_count()
        return OrientedCircleDiagram(
            self._cap, _word_weight(dec.k, bits), self._cup, degree, dec, self._by_maximum(labels)
        )

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._len))]
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"orientation index out of range for {self._len} orientations")
        if self._choices is None:
            self._prepare()
        bits, labels = self._start
        last = len(self._choices) - 1
        for j, pair in enumerate(self._choices):
            more_bits, more_labels = pair[i >> (last - j) & 1]
            bits, labels = bits + more_bits, labels + more_labels
        return self._record(bits, labels)

    def __iter__(self):
        if self._len:
            if self._choices is None:
                self._prepare()
            for bits, labels in _choice_sums(self._choices, self._start):
                yield self._record(bits, labels)

    def __eq__(self, other):
        if not isinstance(other, (list, Orientations)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def orient_circle_diagram(cap: CapDiagram, cup: CupDiagram) -> Orientations:
    """All orientations of the glued diagram as a lazy :class:`Orientations`
    sequence in canonical order: record i flips, of the all-anticlockwise
    orientation, the circles named by the binary digits of i, the first
    circle by least vertex the most significant digit.

    Empty when the walk finds a contradiction; otherwise each flip adds
    2 to the degree and there are exactly 2^#circles records, each built
    when it is read.  This call runs the walk of ``_glue`` and nothing
    more, so ``bool`` and ``len`` of the result cost one walk of the pair
    and build no record; the first read prepares the choices from the
    kept walk.  The walk stays in its one slot, so a ``decompose`` of the
    same two objects right after this call does not walk the pair again,
    and returns the records' decomposition.  Each record's
    ``circle_classes`` list the circles by maximum.
    """
    return Orientations(cap, cup)


def is_orientable(cap: CapDiagram, cup: CupDiagram) -> bool:
    """Whether some weight orients the glued diagram: the walk of
    :func:`_glue` alone, the same work as
    ``bool(orient_circle_diagram(cap, cup))``; no record is built."""
    return _glue(cap, cup) is not None


def min_degree_element(a: CupDiagram, b: CupDiagram):
    """The unique minimal-degree orientation of (a* b) and its degree, or None.

    Every other orientation flips some circles of the all-anticlockwise
    one, each flip adding 2 to the degree, so the minimum is that one
    orientation, built without the others.
    """
    best = orient_circle_diagram(a.star(), b).anticlockwise
    return None if best is None else (best, best.degree)


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
