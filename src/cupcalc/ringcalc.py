"""Exact quotient-ring calculus for diagram components and intersections.

Everything happens inside the ambient ring R(k) = Q[x_1..x_k]/(x_i^2),
whose basis is the squarefree monomials x_I, I a subset of {1..k}; a
monomial x_I sits in cohomological degree 2|I|.  A diagram a presents a
quotient of R(k) by the ideal generated by

* x_i + x_j for each undotted cup (i,j),
* x_i - x_j for each dotted cup (i,j),
* x_i for each ray,

and a pair (a, b) whose glued diagram is orientable presents a further
quotient: on each circle x_i is identified with eps(i, mx) x_mx (mx the
class maximum, eps the undotted-cup path sign) and every line variable
dies.  These rewrite rules are confluent, so each quotient has the
squarefree monomials in the surviving representatives as a basis.  One
step states every reduction: the rule of a variable x_v becomes its
*step*, a sign and an image bit (sign 0 where x_v dies), and a monomial
reduces by folding the steps of its variables, the sign multiplying
and the image bits joining, dying at a dead variable or a bit already
in the image (x^2 = 0).  ``reduce_monomial`` folds them along one
monomial, in linear time; ``QuotientPresentation.subset_table`` folds
them over every subset of a tuple of variables at once, as a bitmask
over their positions, and one private reader turns that table into
each monomial's image and sign, or None where the monomial dies.  A
restriction map reads it into a monomial table: a target row and sign
per source monomial, or None.

The centre of the whole configuration is the equalizer of the
restriction maps: tuples of component-ring elements agreeing on every
pairwise intersection.  Each orientable pair is glued once, by the
record-free walk of :mod:`orientation`, whose components give the
intersection quotient's rules directly, and each of its constraint rows
is the difference of the two restriction maps on one image monomial,
read from the same table.  It is computed degree by degree as an exact
kernel, with a deterministic echelon basis.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import linalg
from .diagrams import CupDiagram, _Value, encode
from .errors import InputError, InternalCheckError
from .movegraph import total_order
from .orientation import OrientedCircleDiagram, _glue, _Glued, orient_circle_diagram


class NotOrientableError(InputError):
    pass


@functools.cache
def _monomial_order(n: int) -> Tuple[int, ...]:
    """The subsets of n ascending variables, as bitmasks over their
    positions, in monomial order: by size, then lexicographically, as
    ``itertools.combinations`` lists each size.  Built once per n and
    shared, so it is a tuple no caller can change."""
    return tuple(
        sum(1 << t for t in subset)
        for size in range(n + 1)
        for subset in itertools.combinations(range(n), size)
    )


@functools.cache
def _listing(kept: tuple) -> Tuple[tuple, Dict[int, int]]:
    """The monomials in the variables ``kept`` as frozensets, in monomial
    order, and the row of each by its bitmask (bit v for each x_v)."""
    order = _monomial_order(len(kept))
    basis = tuple(frozenset(v for t, v in enumerate(kept) if j >> t & 1) for j in order)
    return basis, {sum(1 << v for v in mono): row for row, mono in enumerate(basis)}


def _step(rule: Optional[Tuple[int, int]]) -> Tuple[int, int]:
    """One variable's rewrite rule as ``(sign, image bit)``: ``(s, 1 << r)``
    for the rule ``(s, r)``, and ``(0, 0)`` where the variable dies."""
    return (0, 0) if rule is None else (rule[0], 1 << rule[1])


def _steps(k: int, rules: dict) -> list:
    """The step of each variable under ``rules``, indexed by the variable
    (the entry at 0 is unused)."""
    return [_step(rules.get(v, (1, v))) for v in range(k + 1)]


def _subset_table(steps, variables: tuple) -> Tuple[list, list]:
    """Sign and image bitmask of x_J for every subset J of ``variables``,
    indexed by the bitmask of J's positions, folded from ``steps[v]`` of
    each variable v in turn (see :meth:`QuotientPresentation.subset_table`)."""
    sign, image = [1], [0]
    for v in variables:
        s, m = steps[v]
        if not s:  # x_v dies, and so does every subset holding it
            sign += [0] * len(sign)
            image += image
            continue
        sign += [sj * s if not ij & m else 0 for sj, ij in zip(sign, image)]
        image += [ij | m for ij in image]
    return sign, image


class QuotientPresentation:
    """Quotient of R(k) by a variable rewrite system.

    ``rules`` sends a variable index to ``None`` (the variable dies) or
    to ``(sign, representative)``; unmentioned variables survive as
    their own representative.  ``steps[v]`` is the rule of x_v as
    :func:`_step` reads it, for v in 0..k (x_0 is no variable).
    """

    def __init__(self, k: int, rules: Dict[int, Optional[Tuple[int, int]]]):
        self.k = k
        self.rules = dict(rules)
        self.kept = tuple(i for i in range(1, k + 1) if i not in rules)
        self.steps = _steps(k, self.rules)

    @property
    def dimension(self) -> int:
        return 2 ** len(self.kept)

    def basis(self) -> List[frozenset]:
        """The surviving squarefree monomials, in monomial order."""
        return list(_listing(self.kept)[0])

    def reduce_monomial(self, mono) -> Optional[Tuple[int, frozenset]]:
        """Rewrite x_mono to sign * x_image, or None when it dies: the
        step of each variable folded along mono, as :meth:`subset_table`
        folds it over every subset, in time linear in len(mono)."""
        sign, image = 1, 0
        for v in mono:
            s, m = self.steps[v]
            if not s or image & m:
                return None
            sign, image = sign * s, image | m
        return sign, frozenset(v for v in range(image.bit_length()) if image >> v & 1)

    def subset_table(self, variables: tuple) -> Tuple[list, list]:
        """Sign and image bitmask of x_J for every subset J of
        ``variables``, indexed by the bitmask of J's positions; the image
        has bit v set for each representative x_v.

        The table doubles once per variable, by that variable's step, and
        the sign is 0 where x_J dies: a dead variable, or a representative
        already in the image (x^2 = 0).
        """
        return _subset_table(self.steps, variables)


def _readings(variables: tuple, steps) -> list:
    """Each monomial in ``variables``, in monomial order, read through the
    per-variable ``steps`` of a target: its image bitmask and sign, or
    None where it dies.  The one reader of :func:`_subset_table`."""
    sign, image = _subset_table(steps, variables)
    return [(image[j], s) if (s := sign[j]) else None for j in _monomial_order(len(variables))]


def component_quotient(a: CupDiagram) -> QuotientPresentation:
    """Presentation of the ring attached to a single diagram.

    Left cup endpoints rewrite to (minus, for undotted cups) the right
    endpoint; ray variables die; dimension 2^#cups.
    """
    rules: Dict[int, Optional[Tuple[int, int]]] = {}
    for c in a.cups:
        rules[c.left] = (1 if c.dotted else -1, c.right)
    for r in a.rays:
        rules[r.at] = None
    return QuotientPresentation(a.k, rules)


def intersection_quotient(a: CupDiagram, b: CupDiagram) -> Optional[QuotientPresentation]:
    """Presentation of the pairwise-intersection ring, or None if empty.

    Circle classes keep their maximal vertex, every other circle vertex
    rewrites to it with the path sign; line classes die entirely.
    """
    glued = _glue(a.star(), b)
    if glued is None:
        return None
    return QuotientPresentation(len(glued.sign) - 1, _glued_rules(glued))


def _glued_rules(glued: _Glued) -> Dict[int, Optional[Tuple[int, int]]]:
    """The rules of one glued pair's intersection quotient, read off the
    walk: a circle vertex other than the maximum rewrites to the maximum
    with its sign to it, a line vertex dies."""
    sign, rules = glued.sign, {}
    for verts, top, ref in glued.components:
        for v in verts:
            if top < 0:
                rules[v] = None
            elif v != top:
                rules[v] = (sign[v] * ref, top)
    return rules


class LinearMap(NamedTuple):
    """A restriction map as a monomial table: per domain monomial, its
    image ``(codomain row, sign +1 or -1)``, or None where it dies.  The
    rank is the number of rows hit."""

    domain: list      # basis monomials (frozensets)
    codomain: list
    entries: list     # entries[col]: (codomain row, +1 or -1), or None

    def is_surjective(self) -> bool:
        return len({e[0] for e in self.entries if e}) == len(self.codomain)  # every row is hit


def _map_between(source: QuotientPresentation, target: QuotientPresentation) -> LinearMap:
    codomain, row_of = _listing(target.kept)
    entries = [
        None if reading is None else (row_of[reading[0]], reading[1])
        for reading in _readings(source.kept, target.steps)
    ]
    return LinearMap(source.basis(), list(codomain), entries)


def restriction_maps(a: CupDiagram, b: CupDiagram) -> Tuple[LinearMap, LinearMap]:
    """The two restriction maps from the component rings of a and b
    into their intersection ring."""
    target = intersection_quotient(a, b)
    if target is None:
        raise NotOrientableError(
            f"{encode(a)} and {encode(b)} have empty intersection"
        )
    return tuple(_map_between(component_quotient(d), target) for d in (a, b))


# ---------------------------------------------------------------------------
# The centre as an equalizer


class CentreBasis(NamedTuple):
    k: int
    parity: str
    diagrams: tuple
    graded_dims: dict     # monomial degree -> dimension
    basis: dict           # monomial degree -> list of vectors; a vector maps
                          # (diagram encoding, sorted monomial tuple) -> Fraction

    @property
    def dimension(self) -> int:
        return sum(self.graded_dims.values())

    def graded_dims_cohomological(self) -> dict:
        return {2 * d: n for d, n in self.graded_dims.items()}


def centre(k: int, parity: str, tie_break: str = "lex") -> CentreBasis:
    """Graded equalizer of all pairwise restriction maps on one parity.

    Tuples (z_a) over the maximal diagrams of the parity such that the
    two restrictions of z_a and z_b agree on every orientable pair.
    Computed per degree by exact elimination; the ``tie_break`` knob
    only reorders the unknowns and must not change any dimension.
    """
    diagrams = total_order(k, parity, tie_break)
    kept = [component_quotient(a).kept for a in diagrams]
    vars_by_degree: Dict[int, List[Tuple[str, tuple]]] = {}
    columns = []  # per diagram: each basis monomial's column, in monomial order
    for a, kept_vars in zip(diagrams, kept):
        name, cols = encode(a), []
        for mono in _listing(kept_vars)[0]:
            same_degree = vars_by_degree.setdefault(len(mono), [])
            cols.append(len(same_degree))
            same_degree.append((name, tuple(sorted(mono))))
        columns.append(cols)

    # per orientable pair, a row per image monomial: the restriction from
    # a minus the restriction from b, rows in first-seen order
    rows_by_degree: Dict[int, List[Dict[int, int]]] = {d: [] for d in vars_by_degree}
    for ai, a in enumerate(diagrams):
        a_star = a.star()
        for bi in range(ai + 1, len(diagrams)):
            glued = _glue(a_star, diagrams[bi])  # intersection_quotient, a_star hoisted
            if glued is None:
                continue
            steps = _steps(k, _glued_rules(glued))  # no QuotientPresentation per pair
            constraint: Dict[int, Dict[int, int]] = {}
            for side, qi in ((1, ai), (-1, bi)):
                for col, reading in zip(columns[qi], _readings(kept[qi], steps)):
                    if reading is not None:
                        image, sign = reading
                        constraint.setdefault(image, {})[col] = side * sign
            for image, row in constraint.items():
                rows_by_degree[image.bit_count()].append(row)

    graded_dims = {}
    basis = {}
    for degree in sorted(vars_by_degree):
        variables = vars_by_degree[degree]
        kernel = linalg.kernel_basis(rows_by_degree[degree], len(variables))
        graded_dims[degree] = len(kernel)
        basis[degree] = [
            {variables[col]: coeff for col, coeff in sorted(vec.items())} for vec in kernel
        ]
    return CentreBasis(k, parity, diagrams, graded_dims, basis)


# ---------------------------------------------------------------------------
# Dictionary between quotient bases and oriented diagrams


class BasisDictionary(_Value):
    """``entries``, the pairs (monomial frozenset, OrientedCircleDiagram) in
    monomial order, looked up by monomial.  Equality and repr read ``a``,
    ``b`` and ``entries``; like the list it holds, it has no hash."""

    _fields = ("a", "b", "entries")
    __hash__ = None

    def __init__(self, a: CupDiagram, b: CupDiagram, entries: list):
        fields = self.__dict__
        fields["a"], fields["b"], fields["entries"] = a, b, entries
        fields["_by_monomial"] = dict(entries)

    def orientation_of(self, mono: frozenset) -> OrientedCircleDiagram:
        return self._by_monomial[mono]  # KeyError(mono) on a miss


def diagram_basis_dictionary(a: CupDiagram, b: CupDiagram) -> BasisDictionary:
    """Pair each intersection-ring basis monomial with an orientation.

    The monomial over a set S of circle maxima corresponds to the
    orientation turning exactly those circles clockwise; the empty
    monomial is the all-anticlockwise orientation of minimal degree.
    """
    oriented = orient_circle_diagram(a.star(), b)
    if not oriented:
        raise NotOrientableError(
            f"{encode(a)} and {encode(b)} have empty intersection"
        )
    unit = oriented.anticlockwise  # the empty monomial, of least degree
    target = intersection_quotient(a, b)  # reads the walk just kept in the one slot
    by_clockwise = {
        frozenset(mx for mx, cls in o.circle_classes if cls == "clockwise"): o for o in oriented
    }
    base = unit.degree
    entries = []
    for mono in target.basis():
        o = by_clockwise[mono]
        expected = base + 2 * len(mono)
        if o.degree != expected:
            raise InternalCheckError(
                f"degree of orientation {o.weight} is {o.degree}, expected {expected}"
            )
        entries.append((mono, o))
    return BasisDictionary(a, b, entries)


class GammaMap(NamedTuple):
    source: CupDiagram
    other: CupDiagram
    degree_shift: int
    mapping: dict  # source weight -> (sign, target weight) or None


def gamma_maps(a: CupDiagram, b: CupDiagram) -> Tuple[GammaMap, GammaMap]:
    """Module maps on oriented-diagram bases: the restriction maps'
    entries read through the basis dictionaries, both in basis order."""
    dict_ab = diagram_basis_dictionary(a, b)  # raises when the intersection is empty
    unit = dict_ab.entries[0][1]  # the empty monomial: minimal degree, all anticlockwise
    target = intersection_quotient(a, b)  # reads the walk just kept in the one slot
    weights = [o.weight for _, o in dict_ab.entries]
    out = []
    for source in (a, b):
        dict_src = diagram_basis_dictionary(source, source)
        restriction = _map_between(component_quotient(source), target)
        mapping = {
            oriented.weight: None if entry is None else (entry[1], weights[entry[0]])
            for (_, oriented), entry in zip(dict_src.entries, restriction.entries)
        }
        out.append(GammaMap(source, b if source is a else a, unit.degree, mapping))
    return out[0], out[1]
