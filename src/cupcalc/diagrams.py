"""Decorated cup diagrams on a horizontal row of k vertices.

A diagram consists of *cups* (arcs joining two vertices) and *rays*
(arcs running from a vertex down to the bottom edge of the picture).
Arcs may not cross and no ray may start underneath a cup.  Any arc may
carry a single dot, provided the dot can be reached from the left edge
of the picture without crossing the diagram.  For crossingless diagrams
this left-accessibility is equivalent to three checkable conditions:

* a dotted cup is not nested inside any other cup,
* a dotted cup has no ray anywhere to its left,
* a dotted ray is the leftmost ray.

Vertices are numbered 1..k from the left.  Every diagram has a unique
canonical text encoding, ``k: arc;arc;...`` with arcs sorted by leftmost
vertex, e.g. ``4: c*(1,4);c(2,3)`` (the ``*`` marks a dot).  The same
grammar doubles as the input DSL, which is whitespace-insensitive.
:func:`parse_dsl` reads well-formed text with one match of the whole
grammar and one scan for its arcs; text that does not match goes to the
token parser, which alone reports syntax errors, with their positions.

Two walks over the vertices from left to right, each keeping the open
cups on a stack, decide legality and nesting.  :func:`accept` is the
walk that accepts: given the arc at each vertex, it returns the legal
diagram or stops at the first broken rule, and it collects cups by left
end and rays in order as it goes, so nothing is sorted.  :func:`nesting`
is the walk that reports and measures.  A cup's left end pushes it; its
depth is the stack height there, and it is nested exactly when
``reach``, the cup reaching furthest right among those begun earlier,
ends after it (on legal input ``reach`` is then its outermost enclosing
cup).  A right end pops its cup, and every cup still above it on the
stack crosses it; a ray lies under every cup on the stack.  On legal
input the stack is only ever popped at the top, so the walk costs O(k);
with crossings it costs O(k + number of violations).  The report of
:func:`validate`, the tableau bijections and the nesting degrees of the
move graph read it.

:func:`validate` places each arc at its vertices, refusing ends that
are not integers in range and in order or that use a vertex twice, and
runs :func:`accept` on the result: legal input goes through that one
walk.  Anything refused goes to the report, in two stages.  The first
checks the vertices: integers in range, each cup's ends in order, every
vertex used exactly once.  If any of that fails, the error lists those
violations only.  Otherwise the arcs cover 1..k exactly and
:func:`nesting` reports the rest: crossing pairs in the order of the
input cups, rays under cups by (ray, cup) position in the input, then
the inaccessible dots.  A report that finds nothing wrong means the two
walks disagree, which raises :class:`InternalCheckError`, not an input
error.

Validation policy: :func:`validate` checks every rule, and it runs where
arcs come from outside the program or are computed from data a caller
supplied.  That is :func:`parse_dsl` and :func:`from_json` (which also
bound the vertex count by the arcs given) and the bijections that
assemble arcs from user input (``to_cup``, and ``cup_of_weight``, which
``std_to_cups`` calls).  Code that builds diagrams legal by
construction, such as :func:`enumerate_diagrams`,
:func:`dot_parity_involution` and ``cup_of_bitableau`` (which checks its
input by the round trip back to its marking), calls the
:class:`CupDiagram` constructor directly, with cups sorted by left end
and rays ascending as :func:`validate` returns them; the tests check
those members against :func:`validate`.  The move graph's rewrites swap
two arcs of a legal diagram on the same vertices and decide with
:func:`accept`, the walk :func:`validate` accepts with, whether the
result is legal (the graph itself looks each result up among the
enumerated maximal diagrams); the tests check those rewrites against
:func:`validate` on every diagram with k <= 10.  Weights follow the same policy:
``orientation.Weight(text)`` checks its symbols where the text comes
from a caller, :func:`springer.weight_of_index_set` or the selftest's
brute-force oracle, while the orientation generators write each weight
from a bit word, legal by construction, and build it without the check;
the tests check every generated weight with k <= 10 against the
validated ``Weight`` of its text.

Enumeration has one generator.  It yields each structure's arcs in
left-end order with its dot choices, and writes each diagram's encoding
from those arcs in the same pass, so only the encodings are sorted:
:func:`enumerate_encodings` (what ``cupcalc enumerate`` prints) builds
no diagram, and :func:`enumerate_diagrams` hands each member the
encoding it was generated with.

Per-diagram facts are computed once per diagram and kept on the
instance (``functools.cached_property``): the canonical ``encoding``
(which :func:`encode` and ``str`` read), the ``partners`` arrays and
``ray_labels`` that the glued-pair walk of :mod:`orientation` reads, on
cup and cap diagrams alike, and on a :class:`CupDiagram` also
``dot_count``, ``dot_parity`` and the :class:`CapDiagram` returned by
``star()``.  They live in the instance ``__dict__`` next to the three
fields ``k``, ``cups`` and ``rays``, which is why the diagram classes
are plain classes and not tuples.
``==``, ``hash`` and ``repr`` read the fields alone, so reading a fact
changes none of them, and since :func:`maximal_diagrams` is cached too,
every sweep over the same diagrams reuses these values.  The diagrams,
:class:`DiagramSet`, ``orientation.Weight`` and ``ringcalc.BasisDictionary``
share the immutable base :class:`_Value`, which refuses assignment and
deletion; the library fills a fact directly only where it already knows
it (the encoding at enumeration).
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Tuple, Union

from .errors import InputError, InternalCheckError


class DiagramError(InputError):
    """Base class for diagram construction and parsing failures."""


class Violation(NamedTuple):
    code: str
    arcs: tuple


class InvalidDiagramError(DiagramError):
    """Raised by :func:`validate`; carries every violated rule."""

    def __init__(self, violations: Iterable[Violation]):
        super().__init__()
        self.violations = tuple(violations)

    def __str__(self) -> str:
        # built on demand: tableaux.cup_of_bitableau catches and discards these errors
        summary = "; ".join(f"{v.code} {list(v.arcs)}" for v in self.violations)
        return f"illegal diagram: {summary}"

    def codes(self) -> set:
        return {v.code for v in self.violations}


class DiagramSyntaxError(DiagramError):
    def __init__(self, text: str, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(
            f"syntax error at position {position}: expected {expected} "
            f"in {text!r}"
        )


class Cup(NamedTuple):
    left: int
    right: int
    dotted: bool = False


class Ray(NamedTuple):
    at: int
    dotted: bool = False


Arc = Union[Cup, Ray]


def _partner_arrays(k: int, cups: tuple) -> Tuple[tuple, tuple]:
    """Partner of each vertex along its arc (0 for a ray) and the arc's
    sign flip (-1 undotted, +1 dotted), both indexed 1..k."""
    partner = [0] * (k + 1)
    flip = [1] * (k + 1)
    for c in cups:
        partner[c.left], partner[c.right] = c.right, c.left
        if not c.dotted:
            flip[c.left] = flip[c.right] = -1
    return tuple(partner), tuple(flip)


def _refuse_assignment(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of :class:`_Value`."""
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


class _Value:
    """An immutable value over the attributes named in ``_fields``: equal
    to a value of the same class with equal fields, hashed as their tuple,
    shown as ``Name(field=value, ...)``, and copied or pickled by calling
    the class on them, so ``__init__`` takes them in that order and stores
    them past the refusing ``__setattr__``."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    __setattr__ = __delattr__ = _refuse_assignment

    def _field_values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._field_values()))
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._field_values()


class _ArcDiagram(_Value):
    """The fields ``k``, ``cups`` and ``rays`` shared by cup and cap
    diagrams.  The fields and the cached facts live in the instance
    ``__dict__``; only diagrams of the same class compare equal."""

    _fields = ("k", "cups", "rays")

    def __init__(self, k: int, cups: tuple, rays: tuple):
        fields = self.__dict__
        fields["k"], fields["cups"], fields["rays"] = k, cups, rays

    @cached_property
    def encoding(self) -> str:
        """The canonical text encoding."""
        return _encode(self)

    @cached_property
    def partners(self) -> Tuple[tuple, tuple]:
        """(partner, flip) arrays of the arcs, as :func:`_partner_arrays`."""
        return _partner_arrays(self.k, self.cups)

    @cached_property
    def ray_labels(self) -> tuple:
        """The label each ray asks of its vertex, +1 (up) when dotted and
        -1 (down) when not, 0 at a vertex on an arc; indexed 1..k."""
        labels = [0] * (self.k + 1)
        for r in self.rays:
            labels[r.at] = 1 if r.dotted else -1
        return tuple(labels)

    def encode(self) -> str:
        return self.encoding

    def __str__(self) -> str:
        return self.encoding


class CupDiagram(_ArcDiagram):
    @property
    def n_cups(self) -> int:
        return len(self.cups)

    @cached_property
    def dot_count(self) -> int:
        return sum(c.dotted for c in self.cups) + sum(r.dotted for r in self.rays)

    @cached_property
    def dot_parity(self) -> str:
        return "even" if self.dot_count % 2 == 0 else "odd"

    @cached_property
    def _cap(self) -> "CapDiagram":
        return CapDiagram(self.k, self.cups, self.rays)

    def star(self) -> "CapDiagram":
        """The cap diagram obtained by reflecting in the horizontal axis."""
        return self._cap

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "cups": [
                {"from": c.left, "to": c.right, "dotted": c.dotted}
                for c in self.cups
            ],
            "rays": [{"at": r.at, "dotted": r.dotted} for r in self.rays],
        }


class CapDiagram(_ArcDiagram):
    """Mirror image of a cup diagram; same data, drawn upwards."""

    def star(self) -> CupDiagram:
        return CupDiagram(self.k, self.cups, self.rays)


def _arc_key(arc: Arc) -> int:
    return arc.left if isinstance(arc, Cup) else arc.at


def validate(k: int, cups: Iterable, rays: Iterable) -> CupDiagram:
    """Build a diagram with one :func:`accept` walk, or report what is
    wrong in the two stages above.

    ``cups`` entries are ``(left, right)`` or ``(left, right, dotted)``;
    ``rays`` entries are ``at`` or ``(at, dotted)``.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DiagramError(f"vertex count must be a positive integer, got {k!r}")
    cup_list = [c if type(c) is Cup else _as_cup(c) for c in cups]
    ray_list = [r if type(r) is Ray else _as_ray(r) for r in rays]
    at = _vertex_array(k, cup_list, ray_list)
    d = None if at is None else accept(k, at)
    if d is None:
        _report(k, cup_list, ray_list)
    return d


def _as_cup(c) -> Cup:
    parts = tuple(c)
    return Cup(parts[0], parts[1], bool(parts[2]) if len(parts) > 2 else False)


def _as_ray(r) -> Ray:
    if isinstance(r, int):
        return Ray(r, False)
    parts = tuple(r)
    return Ray(parts[0], bool(parts[1]) if len(parts) > 1 else False)


def _vertex_array(k: int, cups: list, rays: list):
    """The arc at each vertex 1..k (a cup at both ends), or None unless
    the arcs have integer ends in range, each cup's in order, and use
    every vertex exactly once."""
    if 2 * len(cups) + len(rays) != k:
        return None
    at: list = [None] * (k + 1)
    for c in cups:
        left, right = c.left, c.right
        if type(left) is not int or type(right) is not int or not 0 < left < right <= k:
            return None
        if at[left] or at[right]:
            return None
        at[left] = at[right] = c
    for r in rays:
        v = r.at
        if type(v) is not int or not 0 < v <= k or at[v]:
            return None
        at[v] = r
    return at


def accept(k: int, at: list):
    """The legal diagram with arc ``at[v]`` at each vertex v = 1..k, or
    None if those arcs break a rule of :func:`validate`.

    The arcs must cover each vertex once, a cup at both of its ends.  One
    walk from left to right then decides the other rules, with the open
    cups on a stack: a cup must close on top of the stack (no crossing),
    a ray must find the stack empty (no ray under a cup), and a dot must
    be reachable from the left (a dotted cup opens on an empty stack with
    no ray before it; a dotted ray comes first of the rays).  The walk
    meets cups by left end and rays in order, so it collects the arcs
    sorted as the diagram holds them.
    """
    cups, rays, open_cups = [], [], []
    for v in range(1, k + 1):
        arc = at[v]
        if type(arc) is Ray:
            if open_cups or (arc.dotted and rays):
                return None
            rays.append(arc)
        elif arc.left == v:
            if arc.dotted and (open_cups or rays):
                return None
            open_cups.append(arc)
            cups.append(arc)
        elif open_cups.pop() is not arc:
            return None
    return CupDiagram(k, tuple(cups), tuple(rays))


def _report(k: int, cup_list: list, ray_list: list):
    """Raise the two-stage report of :func:`validate` for arcs that
    :func:`accept` refused."""
    # Vertices must be ints (not bools) before any comparison below.
    violations = []
    for c in cup_list:
        if type(c.left) is not int or type(c.right) is not int:
            raise DiagramError(f"cup endpoints must be integers, got {tuple(c)!r}")
        if not (1 <= c.left <= k and 1 <= c.right <= k):
            violations.append(Violation("VertexOutOfRange", (c,)))
        elif c.left >= c.right:
            violations.append(Violation("BadEndpoints", (c,)))
    for r in ray_list:
        if type(r.at) is not int:
            raise DiagramError(f"ray vertices must be integers, got {r.at!r}")
        if not (1 <= r.at <= k):
            violations.append(Violation("VertexOutOfRange", (r,)))

    used: dict = {}
    for c in cup_list:
        for v in (c.left, c.right):
            used.setdefault(v, []).append(c)
    for r in ray_list:
        used.setdefault(r.at, []).append(r)
    for v in range(1, k + 1):
        owners = used.get(v, [])
        if not owners:
            violations.append(Violation("VertexUnused", (v,)))
        elif len(owners) > 1:
            violations.append(Violation("VertexReused", tuple(owners)))
    # a cup using the same vertex twice is caught by BadEndpoints above
    if violations:
        raise InvalidDiagramError(violations)

    # The arcs cover 1..k exactly once, so the walk can report the rest.
    walk = nesting(k, cup_list, ray_list)
    for i, j in sorted(walk.crossings, key=sorted):
        violations.append(Violation("Crossing", (cup_list[i], cup_list[j])))
    for r, i in sorted(walk.rays_under):
        violations.append(Violation("RayUnderCup", (ray_list[r], cup_list[i])))
    leftmost_ray = min((r.at for r in ray_list), default=k + 1)
    for c, outer in zip(cup_list, walk.outer):
        if c.dotted and (outer is not None or leftmost_ray < c.left):
            violations.append(Violation("DotInaccessible", (c,)))
    for r in ray_list:
        if r.dotted and r.at != leftmost_ray:
            violations.append(Violation("DotInaccessible", (r,)))

    if violations:
        raise InvalidDiagramError(violations)
    raise InternalCheckError(f"validate refused a legal diagram: {cup_list!r}, {ray_list!r}")


class Nesting(NamedTuple):
    crossings: list
    rays_under: list
    outer: list
    depth: list


def nesting(k: int, cups, rays) -> Nesting:
    """The walk described above, over arcs that cover 1..k exactly once.

    Pairs hold positions in ``cups`` and ``rays``: (i, j) in ``crossings``
    for crossing cups, cup i first, and (r, i) in ``rays_under`` for ray r
    under cup i.  ``outer[i]`` is cup i's reach if it is nested, else None.
    """
    at: list = [None] * (k + 1)  # vertex -> ray index, or (cup index, is left end)
    for i, c in enumerate(cups):
        at[c.left], at[c.right] = (i, True), (i, False)
    for r, ray in enumerate(rays):
        at[ray.at] = r
    walk = Nesting([], [], [None] * len(cups), [0] * len(cups))
    stack: list = []
    reach = Cup(0, 0)  # the cup begun so far that reaches furthest right
    for event in at[1:]:
        if type(event) is int:
            walk.rays_under.extend((event, i) for i in stack)
            continue
        i, opens = event
        if opens:
            if reach.right > cups[i].right:
                walk.outer[i] = reach
            else:
                reach = cups[i]
            walk.depth[i] = len(stack)
            stack.append(i)
        else:
            top = len(stack) - 1
            while stack[top] != i:
                top -= 1
            walk.crossings.extend((i, j) for j in stack[top + 1:])
            del stack[top]
    return walk


def encode(d: Union[CupDiagram, CapDiagram]) -> str:
    """The canonical encoding, computed once per diagram."""
    return d.encoding


def _encode(d: Union[CupDiagram, CapDiagram]) -> str:
    parts = []
    for arc in sorted(d.cups + d.rays, key=_arc_key):
        star = "*" if arc.dotted else ""
        if isinstance(arc, Cup):
            parts.append(f"c{star}({arc.left},{arc.right})")
        else:
            parts.append(f"r{star}({arc.at})")
    return f"{d.k}: " + ";".join(parts)


_TOKEN = re.compile(r"\d+|[cr:;,()*]")

# The grammar of well-formed text as one pattern, and one arc of it with
# its parts as groups.  Kept as strings: ``re`` compiles each on its first
# use and caches it, where compiling here would cost every import.
_CUP = r"c\s*\*?\s*\(\s*\d+\s*,\s*\d+\s*\)"
_RAY = r"r\s*\*?\s*\(\s*\d+\s*\)"
_DSL = rf"\s*(\d+)\s*:\s*(?:{_CUP}|{_RAY})(?:\s*;\s*(?:{_CUP}|{_RAY}))*\s*"
_ARC = r"([cr])\s*(\*?)\s*\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)"


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise DiagramSyntaxError(text, pos, "integer, 'c', 'r' or punctuation")
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


def parse_dsl(text: str) -> CupDiagram:
    """Parse ``k: c*(i,j);r(n);...`` into a validated diagram.

    Well-formed text is read with one match of the whole grammar and one
    scan for its arcs.  Any other text, or an integer too long for ``int()``,
    goes to :func:`_parse_tokens`, which alone reports syntax errors.
    """
    m = re.fullmatch(_DSL, text)
    if m is not None:
        cups, rays = [], []
        try:
            k = int(m.group(1))
            for kind, star, first, second in re.findall(_ARC, text):
                if kind == "c":
                    cups.append(Cup(int(first), int(second), star == "*"))
                else:
                    rays.append(Ray(int(first), star == "*"))
        except ValueError:  # more digits than int() converts: the token parser names it
            pass
        else:
            return _validate_input(k, cups, rays)
    return _parse_tokens(text)


def _parse_tokens(text: str) -> CupDiagram:
    """:func:`parse_dsl` token by token, raising :class:`DiagramSyntaxError`
    at the first token out of place."""
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def pos():
        return tokens[idx][1] if idx < len(tokens) else len(text)

    def expect(what, pred):
        nonlocal idx
        tok = peek()
        if tok is None or not pred(tok):
            raise DiagramSyntaxError(text, pos(), what)
        idx += 1
        return tok

    def integer():
        at, tok = pos(), expect("integer", str.isdigit)
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise DiagramError(
                f"integer at position {at} has {len(tok)} digits, too many to read"
            ) from None

    k = integer()
    expect("':'", lambda t: t == ":")
    cups, rays = [], []
    while True:
        kind = expect("arc ('c' or 'r')", lambda t: t in ("c", "r"))
        dotted = False
        if peek() == "*":
            idx += 1
            dotted = True
        expect("'('", lambda t: t == "(")
        first = integer()
        if kind == "c":
            expect("','", lambda t: t == ",")
            second = integer()
            expect("')'", lambda t: t == ")")
            cups.append(Cup(first, second, dotted))
        else:
            expect("')'", lambda t: t == ")")
            rays.append(Ray(first, dotted))
        if peek() is None:
            break
        expect("';'", lambda t: t == ";")
    return _validate_input(k, cups, rays)


def _validate_input(k, cups: list, rays: list) -> CupDiagram:
    """:func:`validate` for parsed input, after refusing a vertex count
    that the given arcs cannot cover: each arc covers at most two
    vertices, and :func:`validate` reports every uncovered vertex."""
    n_arcs = len(cups) + len(rays)
    if type(k) is int and k > 2 * n_arcs:
        raise DiagramError(
            f"vertex count {k} is more than twice the number of arcs given ({n_arcs})"
        )
    return validate(k, cups, rays)


def from_json(data: Union[str, dict]) -> CupDiagram:
    import json  # here, not at the top: most requests read no JSON

    try:
        obj = json.loads(data) if isinstance(data, str) else data
    except (ValueError, RecursionError) as exc:  # also too deep, too many digits
        raise DiagramError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or "k" not in obj:
        raise DiagramError(f"a diagram must be a JSON object with a 'k' key, got {obj!r}")
    arcs = {}
    for name, keys in (("cups", ("from", "to", "dotted")), ("rays", ("at", "dotted"))):
        items = obj.get(name, [])
        if not isinstance(items, list) or not all(
            isinstance(x, dict) and all(key in x for key in keys)
            and type(x["dotted"]) is bool
            for x in items
        ):
            raise DiagramError(
                f"{name!r} must be a list of objects with keys {list(keys)}, "
                f"'dotted' a boolean, got {items!r}"
            )
        arcs[name] = [tuple(x[key] for key in keys) for x in items]
    return _validate_input(obj["k"], arcs["cups"], arcs["rays"])


def _render_ascii(d: CupDiagram) -> str:
    width = 2 * d.k - 1
    arc_row = [" "] * width
    dot_row = [" "] * width
    has_dot = False
    for c in d.cups:
        arc_row[2 * (c.left - 1)] = "("
        arc_row[2 * (c.right - 1)] = ")"
        if c.dotted:
            dot_row[(c.left + c.right) - 2] = "*"
            has_dot = True
    for r in d.rays:
        arc_row[2 * (r.at - 1)] = "|"
        if r.dotted:
            dot_row[2 * (r.at - 1)] = "*"
            has_dot = True
    lines = ["".join(arc_row).rstrip()]
    if has_dot:
        lines.append("".join(dot_row).rstrip())
    return "\n".join(lines)


def _render_tikz(d: CupDiagram) -> str:
    lines = [
        r"\documentclass[tikz]{standalone}",
        r"\begin{document}",
        r"\begin{tikzpicture}[thick]",
    ]
    for v in range(1, d.k + 1):
        lines.append(rf"\node[above] at ({v},0) {{\tiny ${v}$}};")
    for c in d.cups:
        depth = 0.25 * (c.right - c.left + 1)
        lines.append(
            rf"\draw ({c.left},0) .. controls +(0,{-depth}) and +(0,{-depth}) "
            rf".. ({c.right},0);"
        )
        if c.dotted:
            lines.append(
                rf"\fill ({(c.left + c.right) / 2},{-0.75 * depth}) circle (2.5pt);"
            )
    for r in d.rays:
        lines.append(rf"\draw ({r.at},0) -- ({r.at},-1.5);")
        if r.dotted:
            lines.append(rf"\fill ({r.at},-0.75) circle (2.5pt);")
    lines.append(r"\end{tikzpicture}")
    lines.append(r"\end{document}")
    return "\n".join(lines)


def render(d: CupDiagram, fmt: str) -> str:
    if fmt == "ascii":
        return _render_ascii(d)
    if fmt == "tikz":
        return _render_tikz(d)
    if fmt == "json":
        import json

        return json.dumps(d.to_json_dict())
    raise DiagramError(f"unknown render format {fmt!r}")


# ---------------------------------------------------------------------------
# Enumeration


def _matchings(lo: int, hi: int, rays):
    """All crossingless cup/ray structures on vertices lo..hi with ``rays``
    rays (None: any number), each as its arcs sorted by left end:
    ``(left, right)`` for a cup, ``(at, 0)`` for a ray.

    Rays are forbidden inside a cup, hence none are asked for when we
    recurse under one; a count that the vertices cannot hold ends the
    branch at once.
    """
    size = hi - lo + 1
    if rays is not None and not (0 <= rays <= size and (size - rays) % 2 == 0):
        return
    if size == 0:
        yield ()
        return
    if rays != 0:
        for rest in _matchings(lo + 1, hi, None if rays is None else rays - 1):
            yield ((lo, 0),) + rest
    for m in range(lo + 1, hi + 1, 2):
        for inner in _matchings(lo + 1, m - 1, 0):
            for outer in _matchings(m + 1, hi, rays):
                yield ((lo, m),) + inner + outer


def _decorated(k: int, cups: Union[int, str], dots: str):
    """The diagrams of :func:`enumerate_diagrams`, by structure: for each,
    its arcs from :func:`_matchings` and a list of (dotted, encoding), one
    per dot choice the filter keeps.  ``dotted`` holds the positions in
    ``arcs`` of the dotted arcs; the encoding is written from the arcs,
    which come sorted by left end as the encoding lists them.

    An arc may carry a dot iff it is outermost and no ray lies to its left:
    in left-end order, the outermost cups up to the first ray, and that ray.
    """
    keeps = dot_count_filter(k, dots)
    if cups == "max":
        rays = k % 2
    elif cups == "any":
        rays = None
    else:
        rays = k - 2 * int(cups)
    head = f"{k}: "
    for arcs in _matchings(1, k, rays):
        texts, dottable, reach = [], [], 0  # reach: right end of the last outermost cup
        for i, (l, r) in enumerate(arcs):
            texts.append(f"c({l},{r})" if r else f"r({l})")
            if l > reach:
                dottable.append(i)
                reach = r or k  # no dot right of the first ray
        decorations = []
        for n_dots in range(len(dottable) + 1):
            if not keeps(n_dots):
                continue
            for dotted in itertools.combinations(dottable, n_dots):
                marked = texts.copy()
                for i in dotted:
                    marked[i] = f"{marked[i][0]}*{marked[i][1:]}"
                decorations.append((dotted, head + ";".join(marked)))
        yield arcs, decorations


class DiagramSet(_Value):
    """The members of one enumeration, with the filters that chose them."""

    _fields = ("k", "cup_filter", "dot_filter", "members")

    def __init__(self, k: int, cup_filter: Union[int, str], dot_filter: str, members: tuple):
        fields = self.__dict__
        fields["k"], fields["cup_filter"], fields["dot_filter"] = k, cup_filter, dot_filter
        fields["members"] = members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


_DOT_FILTERS = ("all", "even", "odd", "none")


def dot_count_filter(k: int, dots: str):
    """The test on a dot count that ``dots`` stands for, after rejecting a
    vertex count or dot filter that :func:`enumerate_diagrams` cannot take."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DiagramError(f"vertex count must be a positive integer, got {k!r}")
    if dots not in _DOT_FILTERS:
        raise DiagramError(f"dot filter must be one of {_DOT_FILTERS}, got {dots!r}")
    return lambda n: dots == "all" or (dots == "none" and n == 0) or dots == ("even", "odd")[n % 2]


def enumerate_diagrams(k: int, cups: Union[int, str] = "max", dots: str = "all") -> DiagramSet:
    """All legal diagrams on k vertices, in canonical encoding order.

    ``cups`` is an exact cup count, ``"max"`` (= floor(k/2)) or ``"any"``;
    ``dots`` filters by dot count: ``"all"``, ``"even"``, ``"odd"`` or
    ``"none"`` (undecorated only).  Each member's ``encoding`` is the text
    :func:`_decorated` wrote for it.
    """
    members = []
    for arcs, decorations in _decorated(k, cups, dots):
        plain_cups = [Cup(l, r) for l, r in arcs if r]
        plain_rays = tuple(Ray(l) for l, r in arcs if not r)
        for dotted, text in decorations:
            cup_arcs, ray_arcs = plain_cups, plain_rays
            if dotted:
                # dotted arcs lie left of every other ray, so a dotted cup's
                # position in arcs is its position among the cups
                cup_arcs = cup_arcs.copy()
                for i in dotted:
                    l, r = arcs[i]
                    if r:
                        cup_arcs[i] = Cup(l, r, True)
                    else:
                        ray_arcs = (Ray(l, True),) + ray_arcs[1:]
            d = CupDiagram(k, tuple(cup_arcs), ray_arcs)
            d.__dict__["encoding"] = text  # fills the cached_property
            members.append((text, d))
    members.sort()
    return DiagramSet(k, cups, dots, tuple(d for _, d in members))


def enumerate_encodings(k: int, cups: Union[int, str] = "max", dots: str = "all") -> list:
    """The encodings of ``enumerate_diagrams(k, cups, dots)``, in the same
    order, without building a diagram."""
    return sorted(text for _, decorations in _decorated(k, cups, dots) for _, text in decorations)


@lru_cache(maxsize=None)
def maximal_diagrams(k: int, parity: str = "all") -> tuple:
    """Diagrams with the maximal number floor(k/2) of cups, canonically ordered."""
    return enumerate_diagrams(k, "max", parity).members


def dot_parity_involution(d: CupDiagram) -> CupDiagram:
    """Toggle the dot on the arc through vertex 1 (a dot-parity flip)."""
    cups = tuple(Cup(c.left, c.right, not c.dotted if c.left == 1 else c.dotted) for c in d.cups)
    rays = tuple(Ray(r.at, not r.dotted if r.at == 1 else r.dotted) for r in d.rays)
    return CupDiagram(d.k, cups, rays)
