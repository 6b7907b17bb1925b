"""Independent brute-force oracles used to pin expected test values.

Everything here recomputes results from first principles with code
paths disjoint from the package (no recursive interval generation, no
partner walks, no rewrite systems) so the two sides can disagree.
The exceptions are previous code kept as the slow path that a rewrite
must match: the glued-pair kernel's (``oracle_walk_decompose``,
``oracle_force_lines``, ``oracle_orient_circle_diagram``), the minimum
read from the full list of orientations (``min_degree_of``), the
enumeration that built and sorted every diagram
(``oracle_enumerate_diagrams``), the DSL parser that read token by
token (``oracle_parse_tokens``), the CLI parser built one
``add_argument`` call at a time (``oracle_parser``), the cluster
decomposition read in column order (``oracle_clusters``) and the
standard-tableau walk (``oracle_std_to_cups``).
"""

import functools
import itertools
import re
from dataclasses import fields, make_dataclass
from fractions import Fraction
from typing import List, Optional

from cupcalc.diagrams import (
    CapDiagram,
    Cup,
    CupDiagram,
    DiagramError,
    DiagramSet,
    DiagramSyntaxError,
    InvalidDiagramError,
    Ray,
    Violation,
    dot_count_filter,
    encode,
    enumerate_diagrams,
    nesting,
    _validate_input,
    validate,
)
from cupcalc import __version__, cli
from cupcalc.errors import InternalCheckError
from cupcalc.linalg import ScaledUnionFind
from cupcalc.movegraph import CupForest, MoveGraph
from cupcalc.orientation import (
    DOWN,
    UP,
    ComponentClass,
    ComponentDecomposition,
    LineForcing,
    OrientationError,
    OrientedCircleDiagram,
    Weight,
)
from cupcalc.ringcalc import BasisDictionary, CentreBasis, GammaMap, LinearMap
from cupcalc.selftest import SelfTestReport, SuiteResult
from cupcalc.springer import FixedPointTable, PresentationRing
from cupcalc.tableaux import (
    Bitableau,
    Cluster,
    DominoTableau,
    InadmissibleShapeError,
    SignedDominoTableau,
    ShapeMismatchError,
    STable,
    TableauError,
    admissible_two_row,
    bitableau_of_cup,
    clusters,
    domino_tableau,
    is_admissible,
    signed_domino_tableau,
    std_to_cups,
)


def oracle_decompose(cap, cup):
    """Components of cap over cup by union-find over the arcs of both
    halves, with signs to the class maximum found by a search from it
    and checked over every edge."""
    k = cup.k
    parent = list(range(k + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = [(c.left, c.right, c.dotted) for c in cap.cups] + [
        (c.left, c.right, c.dotted) for c in cup.cups
    ]
    for a, b, _ in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    members = {}
    for v in range(1, k + 1):
        members.setdefault(find(v), []).append(v)

    cap_cupped = {v for c in cap.cups for v in (c.left, c.right)}
    cup_cupped = {v for c in cup.cups for v in (c.left, c.right)}

    adjacency = {v: [] for v in range(1, k + 1)}
    for a, b, dotted in edges:
        flip = 1 if dotted else -1
        adjacency[a].append((b, flip))
        adjacency[b].append((a, flip))

    classes = []
    for verts in members.values():
        verts = tuple(sorted(verts))
        mx = verts[-1]
        kind = (
            "circle"
            if all(v in cap_cupped and v in cup_cupped for v in verts)
            else "line"
        )
        sign = {mx: 1}
        queue = [mx]
        consistent = True
        while queue:
            u = queue.pop()
            for w, flip in adjacency[u]:
                expected = sign[u] * flip
                if w in sign:
                    if sign[w] != expected:
                        consistent = False
                else:
                    sign[w] = expected
                    queue.append(w)
        signs = tuple(sign[v] for v in verts) if consistent else None
        classes.append(ComponentClass(verts, kind, mx, signs, consistent))
    classes.sort(key=lambda cl: cl.vertices[0])
    return ComponentDecomposition(k, tuple(classes))


# The glued-pair kernel as it was before the one-walk rewrite: a path dict
# per component, a candidate set per line, every orientation relabelled and
# then sorted.  The package must return equal objects.


def oracle_walk_decompose(cap: CapDiagram, cup: CupDiagram) -> ComponentDecomposition:
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


def oracle_force_lines(cap: CapDiagram, cup: CupDiagram) -> Optional[LineForcing]:
    """The glued diagram's components and the labels its lines must carry,
    or None when no weight orients it.

    Each line takes its label from the rays at its ends, pushed along
    the line by the class signs; the glued diagram is orientable exactly
    when no ray vertex gets two labels, every circle is consistent and
    every line gets one label.  This is the first step of
    :func:`oracle_orient_circle_diagram`, for callers that need only
    orientability or the decomposition.
    """
    dec = oracle_walk_decompose(cap, cup)
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
            forced[v] if s == 1 else _oracle_flip(forced[v])
            for v, s in zip(cl.vertices, cl.signs)
            if v in forced
        }
        if len(candidates) != 1:
            return None
        _oracle_label(chars, cl, candidates.pop())
    return LineForcing(dec, tuple(chars))


def oracle_orient_circle_diagram(cap: CapDiagram, cup: CupDiagram) -> List[OrientedCircleDiagram]:
    """All orientations of the glued diagram, canonically ordered.

    Empty when :func:`oracle_force_lines` finds a contradiction; otherwise the
    line labels are the same in every orientation and each circle takes
    either symbol at its maximum, so there are exactly 2^#circles.
    """
    forced = oracle_force_lines(cap, cup)
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
            _oracle_label(chars, cl, sym)
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


def min_degree_of(oriented: List[OrientedCircleDiagram]):
    """The minimal-degree element of a non-empty list of orientations of
    one glued diagram and its degree; the minimum must be unique."""
    best = min(oriented, key=lambda o: o.degree)
    if sum(1 for o in oriented if o.degree == best.degree) != 1:
        raise InternalCheckError(
            f"minimal degree not unique for {encode(best.cap)} / {encode(best.cup)}"
        )
    return best, best.degree


# The orientation records as the frozen dataclasses they were before they
# became NamedTuples, under the same class names: the reference for their
# equality, hash and repr.
DataclassComponentDecomposition = make_dataclass(
    "ComponentDecomposition", [("k", int), ("classes", tuple)], frozen=True
)
DataclassOrientedCircleDiagram = make_dataclass(
    "OrientedCircleDiagram",
    [
        ("cap", CapDiagram),
        ("weight", Weight),
        ("cup", CupDiagram),
        ("degree", int),
        ("decomposition", DataclassComponentDecomposition),
        ("circle_classes", tuple),
    ],
    frozen=True,
)


def as_dataclass_record(record):
    """A ComponentDecomposition or OrientedCircleDiagram as its frozen
    dataclass reference, field by field."""
    if isinstance(record, ComponentDecomposition):
        return DataclassComponentDecomposition(record.k, record.classes)
    return DataclassOrientedCircleDiagram(
        record.cap,
        record.weight,
        record.cup,
        record.degree,
        as_dataclass_record(record.decomposition),
        record.circle_classes,
    )


# The classes that were dataclasses until the package stopped importing
# ``dataclasses``, each as that dataclass under the same name and with the
# same fields in the same order: the reference for the equality, hash, repr
# and str of the class that replaced it.  The frozen ones were hashable,
# the rest had no hash.  BasisDictionary's lookup table took no part in
# equality or repr and is left out.  The NamedTuples are also tuples: they
# equal a plain tuple of their fields, and iterate and order as tuples do.
DATACLASS_REFERENCES = {
    cls: make_dataclass(cls.__name__, names.split(), frozen=frozen)
    for cls, frozen, names in (
        (CupDiagram, True, "k cups rays"),
        (CapDiagram, True, "k cups rays"),
        (DiagramSet, True, "k cup_filter dot_filter members"),
        (Weight, True, "text"),
        (PresentationRing, True, "k basis graded_dims relation_rank"),
        (FixedPointTable, True, "k parity diagrams entries"),
        (DominoTableau, True, "shape dominoes"),
        (SignedDominoTableau, True, "base signs"),
        (Bitableau, True, "marked unmarked"),
        (STable, True, "k col1 col2"),
        (MoveGraph, True, "k parity nodes arrows"),
        (CupForest, True, "base vertices edges roots special_roots"),
        (LinearMap, False, "domain codomain entries"),
        (CentreBasis, False, "k parity diagrams graded_dims basis"),
        (BasisDictionary, False, "a b entries"),
        (GammaMap, False, "source other degree_shift mapping"),
        (SuiteResult, False, "name ok detail"),
        (SelfTestReport, False, "k_max seed suites"),
    )
}


def reference_fields(obj) -> tuple:
    """The field values of obj, in the order of its dataclass reference."""
    return tuple(getattr(obj, f.name) for f in fields(DATACLASS_REFERENCES[type(obj)]))


def as_dataclass(obj):
    """obj as the dataclass its class was, field by field."""
    return DATACLASS_REFERENCES[type(obj)](*reference_fields(obj))


def _oracle_label(chars: list, cl: ComponentClass, sym: str) -> None:
    """Give the class maximum the symbol sym and the rest of the class
    the symbols its signs imply."""
    other = _oracle_flip(sym)
    for v, s in zip(cl.vertices, cl.signs):
        chars[v - 1] = sym if s == 1 else other


def _oracle_flip(sym: str) -> str:
    return UP if sym == DOWN else DOWN


def raw_arc_covers(k):
    """Every way to cover 1..k by disjoint pairs and singletons, with all
    dot assignments (one optional dot per arc)."""
    def partitions(vertices):
        if not vertices:
            yield [], []
            return
        first, rest = vertices[0], vertices[1:]
        for cups, rays in partitions(rest):
            yield cups, [first] + rays
        for i, other in enumerate(rest):
            remaining = rest[:i] + rest[i + 1 :]
            for cups, rays in partitions(remaining):
                yield [(first, other)] + cups, rays

    for cups, rays in partitions(list(range(1, k + 1))):
        arcs = len(cups) + len(rays)
        for dotmask in range(1 << arcs):
            cup_arcs = [
                Cup(l, r, bool(dotmask >> i & 1)) for i, (l, r) in enumerate(cups)
            ]
            ray_arcs = [
                Ray(at, bool(dotmask >> (len(cups) + i) & 1))
                for i, at in enumerate(rays)
            ]
            yield cup_arcs, ray_arcs


def brute_crossingless_matchings(k):
    """Perfect matchings of 1..k with no crossing pair, by brute force."""
    if k % 2:
        return []
    out = []
    for cups, rays in raw_arc_covers(k):
        if rays or any(c.dotted for c in cups):
            continue
        pairs = [(c.left, c.right) for c in cups]
        if any(
            a < p < b < q
            for (a, b), (p, q) in itertools.permutations(pairs, 2)
        ):
            continue
        out.append(tuple(sorted(pairs)))
    return out


def brute_orientations(k, arcs):
    """Weights satisfying the arc rules, checked symbol by symbol, in
    canonical order (down before up, vertex 1 first).

    ``arcs`` is a list of ('cup'|'ray', data, dotted) entries.
    """
    from cupcalc.orientation import Weight

    out = []
    for combo in itertools.product("v^", repeat=k):
        for kind, data, dotted in arcs:
            if kind == "cup":
                l, r = data
                same = combo[l - 1] == combo[r - 1]
                if dotted != same:
                    break
            else:
                want = "^" if dotted else "v"
                if combo[data - 1] != want:
                    break
        else:
            out.append(Weight("".join(combo)))
    return out


def brute_clockwise_count(weight, diagram):
    """Clockwise arcs counted directly from the label pairs."""
    count = 0
    for c in diagram.cups:
        pair = str(weight)[c.left - 1] + str(weight)[c.right - 1]
        if (not c.dotted and pair == "^v") or (c.dotted and pair == "vv"):
            count += 1
    return count


def dense_rank(rows, ncols):
    """Plain dense Gaussian elimination over Fractions."""
    matrix = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(matrix)):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = Fraction(1) / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def _oracle_eliminate(row, pivots):
    row = dict(row)
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            return c, row
        factor = row[c]
        for cc, vv in piv.items():
            nv = row.get(cc, 0) - factor * vv
            if nv:
                row[cc] = nv
            else:
                row.pop(cc, None)
    return None, None


def oracle_rref(rows):
    """The sparse elimination of ``linalg.rref`` done in Fractions:
    every row is scaled to a unit pivot as soon as it is found."""
    pivots = {}
    for raw in rows:
        c, row = _oracle_eliminate(raw, pivots)
        if c is None:
            continue
        inv = Fraction(1) / row[c]
        row = {cc: vv * inv for cc, vv in row.items()}
        for pc, prow in pivots.items():
            f = prow.get(c)
            if f:
                for cc, vv in row.items():
                    nv = prow.get(cc, 0) - f * vv
                    if nv:
                        prow[cc] = nv
                    else:
                        prow.pop(cc, None)
        pivots[c] = row
    return pivots


def oracle_kernel_basis(rows, ncols):
    """``linalg.kernel_basis`` read off :func:`oracle_rref`: for each free
    column, scan every unit pivot row for its entry there."""
    pivots = oracle_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for pc, prow in pivots.items():
            coeff = prow.get(free)
            if coeff:
                vec[pc] = -coeff
        basis.append(vec)
    return basis


def _oracle_basis(q):
    """The surviving monomials of a ``QuotientPresentation``, by size and
    then lexicographically."""
    return [
        frozenset(mono)
        for size in range(len(q.kept) + 1)
        for mono in itertools.combinations(q.kept, size)
    ]


def oracle_reduce_monomial(q, mono):
    """``QuotientPresentation.reduce_monomial`` by rewriting one variable
    at a time with ``q.rules``: sign * x_image as (sign, frozenset), or
    None when x_mono dies."""
    sign = 1
    image = set()
    for i in mono:
        rule = q.rules.get(i, (1, i))
        if rule is None:
            return None
        s, rep = rule
        if rep in image:
            return None  # x_rep squared
        sign *= s
        image.add(rep)
    return sign, frozenset(image)


def oracle_map_between(source, target):
    """(domain, codomain, matrix) of the restriction map between two
    ``QuotientPresentation``s, found by reducing each domain monomial
    one at a time with :func:`oracle_reduce_monomial`."""
    domain = _oracle_basis(source)
    codomain = _oracle_basis(target)
    index = {m: i for i, m in enumerate(codomain)}
    matrix = [[Fraction(0)] * len(domain) for _ in codomain]
    for j, mono in enumerate(domain):
        reduced = oracle_reduce_monomial(target, mono)
        if reduced is None:
            continue
        sign, image = reduced
        matrix[index[image]][j] = Fraction(sign)
    return domain, codomain, matrix


def oracle_gamma_maps(a, b):
    """The two ``GammaMap``s of (a, b), found by reducing each basis
    monomial of a source one at a time with :func:`oracle_reduce_monomial`
    in the intersection quotient and looking its image up in the basis
    dictionary of (a, b)."""
    from cupcalc import ringcalc

    dict_ab = ringcalc.diagram_basis_dictionary(a, b)
    shift = dict_ab.entries[0][1].degree  # the empty monomial, of least degree
    target = ringcalc.intersection_quotient(a, b)
    out = []
    for source in (a, b):
        dict_src = ringcalc.diagram_basis_dictionary(source, source)
        mapping = {}
        for mono, oriented in dict_src.entries:
            reduced = oracle_reduce_monomial(target, mono)
            if reduced is None:
                mapping[oriented.weight] = None
            else:
                sign, image = reduced
                mapping[oriented.weight] = (sign, dict_ab.orientation_of(image).weight)
        out.append(GammaMap(source, b if source is a else a, shift, mapping))
    return out[0], out[1]


def oracle_centre_rows(k, parity, tie_break="lex"):
    """The constraint rows of ``ringcalc.centre``, built by reducing every
    basis monomial of both components in each pair's
    ``intersection_quotient`` with :func:`oracle_reduce_monomial`.
    Returns degree -> (variables, rows) in ascending degree, where
    ``variables[col]`` is (diagram encoding, sorted monomial tuple), the
    key of a ``CentreBasis`` vector."""
    from cupcalc import ringcalc
    from cupcalc.movegraph import total_order

    diagrams = total_order(k, parity, tie_break)
    quotients = [ringcalc.component_quotient(a) for a in diagrams]
    var_index = {}
    variables = {}
    for ai, q in enumerate(quotients):
        for mono in q.basis():
            same_degree = variables.setdefault(len(mono), [])
            var_index[(ai, mono)] = len(same_degree)
            same_degree.append((encode(diagrams[ai]), tuple(sorted(mono))))
    rows = {d: [] for d in variables}
    for ai, bi in itertools.combinations(range(len(diagrams)), 2):
        target = ringcalc.intersection_quotient(diagrams[ai], diagrams[bi])
        if target is None:
            continue
        constraint = {}
        for side, qi in ((1, ai), (-1, bi)):
            for mono in quotients[qi].basis():
                reduced = oracle_reduce_monomial(target, mono)
                if reduced is None:
                    continue
                sign, image = reduced
                row = constraint.setdefault(image, {})
                col = var_index[(qi, mono)]
                row[col] = row.get(col, 0) + side * sign
        for image, row in constraint.items():
            row = {c: v for c, v in row.items() if v}
            if row:
                rows[len(image)].append(row)
    return {d: (variables[d], rows[d]) for d in sorted(variables)}


class OracleScaledUnionFind:
    """Union-find with Fraction edge weights ``x_e = w * x_root`` and a
    zero marker; merging incompatible scalings kills the class."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.weight = [Fraction(1)] * n
        self.dead = [False] * n

    def _root(self, e):
        chain = []
        while self.parent[e] != e:
            chain.append(e)
            e = self.parent[e]
        w = Fraction(1)
        for node in reversed(chain):
            w = w * self.weight[node]
            self.parent[node] = e
            self.weight[node] = w
        return e

    def root_and_weight(self, e):
        root = self._root(e)
        return root, self.weight[e] if e != root else Fraction(1)

    def kill(self, e):
        self.dead[self._root(e)] = True

    def relate(self, a, b, ratio):
        """Impose x_a = ratio * x_b."""
        ra, wa = self.root_and_weight(a)
        rb, wb = self.root_and_weight(b)
        if ra == rb:
            if wa != ratio * wb:
                self.dead[ra] = True
            return
        self.parent[ra] = rb
        self.weight[ra] = ratio * wb / wa
        if self.dead[ra]:
            self.dead[rb] = True

    def live_class_count(self):
        roots = {self._root(e) for e in range(len(self.parent))}
        return sum(1 for r in roots if not self.dead[r])


def _equivariant_generators(k):
    """(mask I, power adjustment for the complementary side) per
    defining relation of the deformed presentation ring."""
    n = 1 << k
    full = n - 1
    gens = []
    if k % 2 == 0:
        seen = set()
        for mask in range(n):
            if bin(mask).count("1") == k // 2 and mask not in seen:
                seen.add(full ^ mask)
                gens.append((mask, 0))
    else:
        for mask in range(n):
            if bin(mask).count("1") == (k + 1) // 2:
                gens.append((mask, 1))
    return gens


def oracle_equivariant_dimension(k, t):
    """Deformed presentation dimension by the Fraction-weighted
    union-find, with every coefficient computed as a power of t."""
    t = Fraction(t)
    n = 1 << k
    full = n - 1
    uf = OracleScaledUnionFind(n)
    for mask, extra in _equivariant_generators(k):
        comp = full ^ mask
        for m in range(n):
            c1 = t ** (2 * bin(m & mask).count("1"))
            c2 = t ** (2 * bin(m & comp).count("1") + extra)
            a, b = m ^ mask, m ^ comp
            if c1 and c2:
                uf.relate(a, b, c2 / c1)
            elif c1:
                uf.kill(a)
            elif c2:
                uf.kill(b)
    return uf.live_class_count()


def brute_equivariant_rows(k, t):
    """Every monomial multiple of the deformed presentation ring's
    defining relations, as rows over the 2^k squarefree monomials
    (column = bitmask, bit i - 1 standing for x_i)."""
    t = Fraction(t)
    n = 1 << k
    full = n - 1
    rows = []
    for mask, extra in _equivariant_generators(k):
        comp = full ^ mask
        for m in range(n):
            row = {}
            c1 = t ** (2 * bin(m & mask).count("1"))
            c2 = t ** (2 * bin(m & comp).count("1") + extra)
            if c1:
                row[m ^ mask] = row.get(m ^ mask, Fraction(0)) + c1
            if c2:
                row[m ^ comp] = row.get(m ^ comp, Fraction(0)) - c2
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


def brute_equivariant_dimension(k, t):
    """Deformed presentation dimension by dense elimination on all
    monomial multiples of the defining relations."""
    n = 1 << k
    return n - dense_rank(brute_equivariant_rows(k, t), n)


def oracle_relation_classes(k, t):
    """The deformed presentation ideal reduced by the package's
    exponent union-find, imposing every multiple x_m of every generator:
    the generic loop that ``springer._relation_classes`` replaced."""
    t = Fraction(t)
    n = 1 << k
    full = n - 1
    popcount = [0] * n
    for m in range(1, n):
        popcount[m] = popcount[m >> 1] + (m & 1)
    uf = ScaledUnionFind(n, 1 if t == 1 else 2 if t == -1 else 0)
    relate, nonzero = uf.relate, t != 0
    for mask_i, extra in _equivariant_generators(k):
        comp = full ^ mask_i
        for m in range(n):
            # the coefficients are t^e1 and t^e2; t^e is zero iff t = 0 < e
            e1 = 2 * popcount[m & mask_i]
            e2 = 2 * popcount[m & comp] + extra
            a, b = m ^ mask_i, m ^ comp
            if nonzero or not (e1 or e2):
                relate(a, b, e2 - e1)
            elif not e1:
                uf.kill(a)
            elif not e2:
                uf.kill(b)
    return uf


def oracle_presentation_basis(k):
    """The presentation ring's monomial basis by filtering all 2^k
    subsets sorted by (size, lex)."""
    universe = list(range(1, k + 1))
    subsets = (
        frozenset(universe[i] for i in range(k) if mask >> i & 1) for mask in range(1 << k)
    )
    basis = []
    for m in sorted(subsets, key=lambda m: (len(m), sorted(m))):
        if k % 2 == 1:
            if len(m) <= (k - 1) // 2:
                basis.append(m)
        else:
            if len(m) < k // 2 or (len(m) == k // 2 and k in m):
                basis.append(m)
    return basis


def oracle_monomial_index(k):
    """The squarefree monomials of Q[x_1..x_k] as frozensets, by (size,
    lex), with each one's position in that order."""
    monos = sorted(
        (frozenset(c) for r in range(k + 1) for c in itertools.combinations(range(1, k + 1), r)),
        key=lambda m: (len(m), sorted(m)),
    )
    return monos, {m: i for i, m in enumerate(monos)}


def oracle_presentation_relations(k):
    """The presentation ideal as the paper states it, one row per
    relation over the columns of :func:`oracle_monomial_index`: for odd
    k every x_I with |I| >= (k+1)/2; for even k every x_I with
    |I| > k/2, and x_I - x_{I^c} for |I| = k/2 with k in I."""
    monos, index = oracle_monomial_index(k)
    rows = []
    if k % 2 == 1:
        for m in monos:
            if len(m) >= (k + 1) // 2:
                rows.append({index[m]: Fraction(1)})
    else:
        full = frozenset(range(1, k + 1))
        for m in monos:
            if len(m) > k // 2:
                rows.append({index[m]: Fraction(1)})
            elif len(m) == k // 2 and k in m:
                rows.append({index[m]: Fraction(1), index[full - m]: Fraction(-1)})
    return rows


def brute_domino_tableaux(shape):
    """All standard domino tableaux of a two-row shape by filtering every
    filling of every tiling."""
    r, s = shape
    n = (r + s) // 2
    cells = [(1, c) for c in range(1, r + 1)] + [(2, c) for c in range(1, s + 1)]

    def tilings(remaining):
        if not remaining:
            yield []
            return
        cell = min(remaining)
        row, col = cell
        for other in ((row, col + 1), (row + 1, col)):
            if other in remaining:
                rest = remaining - {cell, other}
                for tiling in tilings(rest):
                    yield [(cell, other)] + tiling

    out = []
    for tiling in tilings(set(cells)):
        for perm in itertools.permutations(range(1, n + 1)):
            filling = {}
            for label, (c1, c2) in zip(perm, tiling):
                filling[c1] = label
                filling[c2] = label
            ok = True
            for (row, col), label in filling.items():
                right = filling.get((row, col + 1))
                below = filling.get((row + 1, col))
                if (right is not None and right < label) or (
                    below is not None and below < label
                ):
                    ok = False
                    break
            if ok:
                out.append(
                    tuple(
                        sorted(
                            (label, tuple(sorted(cells_)))
                            for cells_, label in _group(filling).items()
                        )
                    )
                )
    return sorted(set(out))


def _group(filling):
    groups = {}
    for cell, label in filling.items():
        groups.setdefault(label, []).append(cell)
    return {tuple(sorted(v)): k for k, v in groups.items()}


def brute_is_admissible_chain(tableau_cells):
    """Truncation-chain admissibility recomputed from scratch."""
    placed = []
    for label, cells in tableau_cells:
        placed.extend(cells)
        r = sum(1 for (row, _) in placed if row == 1)
        s = sum(1 for (row, _) in placed if row == 2)
        if s > r:
            return False
        if s == 0:
            if r % 2 == 0 and r != 0:
                return False
        elif r != s and (r % 2 == 0 or s % 2 == 0):
            return False
    return True


def oracle_clusters(t):
    """``tableaux.clusters`` as first written: the dominoes sorted by
    column, cut after each V0, each cluster's labels sorted."""
    base = t.base if isinstance(t, SignedDominoTableau) else t
    if not is_admissible(base):
        raise InadmissibleShapeError("clusters require an admissible tableau")
    doms = sorted(base.dominoes, key=lambda d: (d.left_col, d.cells))
    out = []
    current = []
    for d in doms:
        current.append(d)
        if d.kind == "V0":
            out.append(("closed", current))
            current = []
    if current:
        out.append(("open", current))
    result = []
    for kind, doms_in in out:
        v1 = [d for d in doms_in if d.kind == "V1"]
        if len(v1) != 1 or doms_in[0].kind != "V1":
            raise InternalCheckError("malformed cluster structure")
        sign = t.sign_of(v1[0].label) if isinstance(t, SignedDominoTableau) else None
        cols = (
            min(d.left_col for d in doms_in),
            max(max(c for _, c in d.cells) for d in doms_in),
        )
        result.append(Cluster(tuple(sorted(d.label for d in doms_in)), kind, sign, cols))
    return result


def oracle_std_to_cups(top, bottom):
    """``tableaux.std_to_cups`` by its own stack walk, on standard rows:
    a top entry opens, a bottom entry closes the last one open."""
    topset = set(top)
    stack = []
    cups = []
    for v in range(1, len(top) + len(bottom) + 1):
        if v in topset:
            stack.append(v)
        else:
            cups.append(Cup(stack.pop(), v, False))
    return validate(len(top) + len(bottom), cups, [Ray(v, False) for v in stack])


def oracle_to_cup(t):
    """``tableaux.to_cup`` by clusters: each closed cluster is a decorated
    outer cup and the open one a leading ray, over the two-row standard
    bijection of its renumbered horizontals."""
    cups = []
    rays = []
    offset = 0
    for cluster in clusters(t):
        labels = cluster.labels
        d = len(labels)
        by_label = {dom.label: dom for dom in t.dominoes}
        h_top = [lab for lab in labels if by_label[lab].kind == "H" and by_label[lab].row == 1]
        h_bot = [lab for lab in labels if by_label[lab].kind == "H" and by_label[lab].row == 2]
        ranks = {lab: i + 1 for i, lab in enumerate(sorted(h_top + h_bot))}
        inner = (
            std_to_cups(
                tuple(ranks[lab] for lab in sorted(h_top)),
                tuple(ranks[lab] for lab in sorted(h_bot)),
            )
            if ranks
            else None
        )
        if cluster.kind == "closed":
            cups.append(Cup(offset + 1, offset + d, cluster.sign == "-"))
        else:
            rays.append(Ray(offset + 1, cluster.sign == "-"))
        if inner is not None:
            shift = offset + 1
            for cup in inner.cups:
                cups.append(Cup(cup.left + shift, cup.right + shift, False))
            for ray in inner.rays:
                rays.append(Ray(ray.at + shift, False))
        offset += d
    return validate(offset, cups, rays)


def oracle_from_cup(c, shape=None):
    """``tableaux.from_cup`` by regions: outer cups left of all rays and
    the first ray become signed verticals, and the arcs inside each
    region fill horizontals column by column from the region's vertical."""
    s_ = 2 * c.n_cups + 1 if c.rays else 2 * c.n_cups
    derived = (2 * c.k - s_, s_)
    if shape is not None and tuple(shape) != derived:
        raise ShapeMismatchError(
            f"diagram {encode(c)} has shape {derived}, not {tuple(shape)}"
        )
    first_ray = c.rays[0].at if c.rays else None
    dominoes = []

    def fill_horizontals(inner_cups, inner_rays, v_col):
        top = sorted([x.left for x in inner_cups] + [x.at for x in inner_rays])
        bottom = sorted(x.right for x in inner_cups)
        for row, labels in ((1, top), (2, bottom)):
            for i, v in enumerate(labels):
                col = v_col + 2 * i + 1
                dominoes.append((v, ((row, col), (row, col + 1))))

    signs = []
    closed_region_end = (first_ray - 1) if first_ray is not None else c.k
    outer = nesting(c.k, c.cups, c.rays).outer
    inner = {cup: [] for cup, o in zip(c.cups, outer) if o is None}
    for cup, o in zip(c.cups, outer):
        if o is not None:
            inner[o].append(cup)
    for cup in sorted(x for x in inner if x.right <= closed_region_end):
        dominoes.append((cup.left, ((1, cup.left), (2, cup.left))))
        dominoes.append((cup.right, ((1, cup.right), (2, cup.right))))
        signs.append((cup.left, "-" if cup.dotted else "+"))
        fill_horizontals(inner[cup], [], cup.left)
    if first_ray is not None:
        dominoes.append((first_ray, ((1, first_ray), (2, first_ray))))
        signs.append((first_ray, "-" if c.rays[0].dotted else "+"))
        open_cups = [x for x in c.cups if x.left > first_ray]
        open_rays = [x for x in c.rays if x.at > first_ray]
        fill_horizontals(open_cups, open_rays, first_ray)
    return signed_domino_tableau(domino_tableau(derived, dominoes), signs)


def _oracle_cycle_cluster(t, cluster):
    """Rewrite one closed cluster as the all-horizontal rectangle."""
    by_label = {d.label: d for d in t.dominoes}
    first, _ = cluster.columns
    v1 = by_label[cluster.labels[0]]
    v0_label = next(lab for lab in cluster.labels if by_label[lab].kind == "V0")
    tops = [lab for lab in cluster.labels if by_label[lab].kind == "H" and by_label[lab].row == 1]
    bots = [lab for lab in cluster.labels if by_label[lab].kind == "H" and by_label[lab].row == 2]
    out = []
    for i, lab in enumerate([v1.label] + sorted(tops)):
        col = first + 2 * i
        out.append((lab, ((1, col), (1, col + 1))))
    for i, lab in enumerate(sorted(bots) + [v0_label]):
        col = first + 2 * i
        out.append((lab, ((2, col), (2, col + 1))))
    return out


def oracle_cyc(t):
    """``tableaux.cyc`` by clusters: every plus-signed closed cluster is
    cycled into its rectangle, every other cluster keeps its dominoes."""
    dominoes = []
    by_label = {d.label: d for d in t.dominoes}
    for cluster in clusters(t):
        if cluster.kind == "closed" and cluster.sign == "+":
            dominoes.extend(_oracle_cycle_cluster(t, cluster))
        else:
            dominoes.extend((lab, by_label[lab].cells) for lab in cluster.labels)
    return domino_tableau(t.shape, dominoes)


def _oracle_find_rectangle(S, col):
    """Smallest both-rows horizontal rectangle at ``col`` whose 2u labels
    are consecutive integers; None if no width works."""
    by_cell = S.filling()
    doms = {d.label: d for d in S.dominoes}
    _, s = S.shape
    u = 1
    while col + 2 * u - 1 <= s:
        labels = []
        ok = True
        for i in range(u):
            cc = col + 2 * i
            for row in (1, 2):
                lab = by_cell.get((row, cc))
                dd = doms.get(lab) if lab is not None else None
                if dd is None or dd.kind != "H" or dd.left_col != cc or dd.row != row:
                    ok = False
                    break
                labels.append(lab)
            if not ok:
                break
        if ok and sorted(labels) == list(range(min(labels), min(labels) + 2 * u)):
            return u
        u += 1
    return None


def oracle_cyc_inverse(S):
    """``tableaux.cyc_inverse`` by a column scan of the top row: each
    unclaimed odd-column horizontal seeds the smallest rectangle of
    consecutive labels, which is reversed into a plus-signed cluster;
    other odd-column verticals get minus, and the open cluster plus."""
    if not admissible_two_row(S.shape):
        raise InadmissibleShapeError(f"shape {S.shape} is not admissible")
    by_cell = S.filling()
    doms = {d.label: d for d in S.dominoes}
    r, _ = S.shape
    claimed = set()
    new_dominoes = []
    signs = []
    col = 1
    while col <= r:
        lab = by_cell.get((1, col))
        d = doms[lab]
        if d.kind == "H" and col % 2 == 1 and d.left_col == col and lab not in claimed:
            u = _oracle_find_rectangle(S, col)
            if u is None:
                raise InternalCheckError(f"no rectangle completes the horizontal at column {col}")
            tops = sorted(by_cell[(1, col + 2 * i)] for i in range(u))
            bots = sorted(by_cell[(2, col + 2 * i)] for i in range(u))
            claimed.update(tops)
            claimed.update(bots)
            v1_label, v0_label = tops[0], bots[-1]
            new_dominoes.append((v1_label, ((1, col), (2, col))))
            signs.append((v1_label, "+"))
            for i, lab2 in enumerate(tops[1:]):
                cc = col + 2 * i + 1
                new_dominoes.append((lab2, ((1, cc), (1, cc + 1))))
            for i, lab2 in enumerate(bots[:-1]):
                cc = col + 2 * i + 1
                new_dominoes.append((lab2, ((2, cc), (2, cc + 1))))
            new_dominoes.append((v0_label, ((1, col + 2 * u - 1), (2, col + 2 * u - 1))))
            col += 2 * u
        else:
            col += 1
    for d in S.dominoes:
        if d.label not in claimed:
            new_dominoes.append((d.label, d.cells))
            if d.kind == "V1":
                signs.append((d.label, "-"))
    base = domino_tableau(S.shape, new_dominoes)
    t = signed_domino_tableau(base, signs)
    open_clusters = [cl for cl in clusters(t) if cl.kind == "open"]
    if open_clusters:
        v1_label = open_clusters[0].labels[0]
        adjusted = tuple((lab, "+" if lab == v1_label else sign) for lab, sign in t.signs)
        t = SignedDominoTableau(base, adjusted)
    return t


@functools.lru_cache(maxsize=None)
def _marked_diagrams(k, n_cups, dots):
    return tuple((bitableau_of_cup(d), d) for d in enumerate_diagrams(k, n_cups, dots))


def oracle_cup_of_bitableau(bt, k, dots="all"):
    """Invert a bitableau by scanning every diagram with the forced cup
    count, with the same errors as ``tableaux.cup_of_bitableau``."""
    n_cups = k - len(bt.marked)
    matches = [d for image, d in _marked_diagrams(k, n_cups, dots) if image == bt]
    if not matches:
        raise TableauError(f"no diagram on {k} vertices realizes {bt}")
    if len(matches) > 1:
        raise TableauError(f"{bt} is ambiguous on {k} vertices; fix a dot parity")
    return matches[0]


def _oracle_matchings(lo: int, hi: int, rays_ok: bool):
    """All crossingless cup/ray structures on vertices lo..hi.

    Rays are forbidden inside a cup, hence the flag is dropped when we
    recurse under one.  Cups come sorted by left end and rays ascending,
    the order :func:`validate` gives them.
    """
    if lo > hi:
        yield (), ()
        return
    if rays_ok:
        for cups, rays in _oracle_matchings(lo + 1, hi, True):
            yield cups, (lo,) + rays
    for m in range(lo + 1, hi + 1, 2):
        for inner, _ in _oracle_matchings(lo + 1, m - 1, False):
            for outer, outer_rays in _oracle_matchings(m + 1, hi, rays_ok):
                yield ((lo, m),) + inner + outer, outer_rays


def _oracle_dottable(cup_pairs, ray_positions):
    """Arcs of an undecorated structure that may legally carry a dot."""
    arcs = []
    leftmost_ray = min(ray_positions, default=None)
    for (l, r) in cup_pairs:
        nested = any(a < l and r < b for (a, b) in cup_pairs)
        if not nested and (leftmost_ray is None or l < leftmost_ray):
            arcs.append(("cup", (l, r)))
    if leftmost_ray is not None:
        arcs.append(("ray", leftmost_ray))
    return arcs


def oracle_enumerate_diagrams(k, cups="max", dots="all") -> DiagramSet:
    """``diagrams.enumerate_diagrams`` as it was before it generated the
    encodings: every diagram built, then sorted by ``encode``."""
    keeps = dot_count_filter(k, dots)
    if cups == "max":
        target = k // 2
    elif cups == "any":
        target = None
    else:
        target = int(cups)

    members = []
    for cup_pairs, ray_positions in _oracle_matchings(1, k, True):
        if target is not None and len(cup_pairs) != target:
            continue
        dottable = _oracle_dottable(cup_pairs, ray_positions)
        for n_dots in range(len(dottable) + 1):
            if not keeps(n_dots):
                continue
            for chosen in itertools.combinations(dottable, n_dots):
                chosen_set = set(chosen)
                cup_arcs = tuple(
                    Cup(l, r, ("cup", (l, r)) in chosen_set) for (l, r) in cup_pairs
                )
                ray_arcs = tuple(
                    Ray(at, ("ray", at) in chosen_set) for at in ray_positions
                )
                members.append(CupDiagram(k, cup_arcs, ray_arcs))
    members.sort(key=encode)
    return DiagramSet(k, cups, dots, tuple(members))


def oracle_validate(k, cups, rays):
    """``diagrams.validate`` by all-pairs scans over the arcs: every rule
    is checked on every input, so input that fails the vertex checks also
    lists the crossing and nesting violations among its arcs."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DiagramError(f"vertex count must be a positive integer, got {k!r}")
    cup_list = []
    for c in cups:
        if isinstance(c, Cup):
            cup_list.append(c)
        else:
            parts = tuple(c)
            cup_list.append(Cup(parts[0], parts[1], bool(parts[2]) if len(parts) > 2 else False))
    ray_list = []
    for r in rays:
        if isinstance(r, Ray):
            ray_list.append(r)
        elif isinstance(r, int):
            ray_list.append(Ray(r, False))
        else:
            parts = tuple(r)
            ray_list.append(Ray(parts[0], bool(parts[1]) if len(parts) > 1 else False))

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

    used = {}
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

    for c1, c2 in itertools.combinations(cup_list, 2):
        a, b = sorted((c1, c2), key=lambda c: c.left)
        if a.left < b.left < a.right < b.right:
            violations.append(Violation("Crossing", (a, b)))
    for r in ray_list:
        for c in cup_list:
            if c.left < r.at < c.right:
                violations.append(Violation("RayUnderCup", (r, c)))

    leftmost_ray = min((r.at for r in ray_list), default=None)
    for c in cup_list:
        if not c.dotted:
            continue
        nested = any(o.left < c.left and c.right < o.right for o in cup_list)
        blocked = leftmost_ray is not None and leftmost_ray < c.left
        if nested or blocked:
            violations.append(Violation("DotInaccessible", (c,)))
    for r in ray_list:
        if r.dotted and leftmost_ray is not None and r.at != leftmost_ray:
            violations.append(Violation("DotInaccessible", (r,)))

    if violations:
        raise InvalidDiagramError(violations)
    return CupDiagram(
        k,
        tuple(sorted(cup_list, key=lambda c: c.left)),
        tuple(sorted(ray_list, key=lambda r: r.at)),
    )


_ORACLE_TOKEN = re.compile(r"\d+|[cr:;,()*]")


def _oracle_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _ORACLE_TOKEN.match(text, pos)
        if m is None:
            raise DiagramSyntaxError(text, pos, "integer, 'c', 'r' or punctuation")
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


def oracle_parse_tokens(text):
    """``diagrams.parse_dsl`` token by token: the recursive-descent parser
    that read every text before the one-match reader, raising
    ``DiagramSyntaxError`` at the first token out of place and building
    the arcs it reads for ``validate``."""
    tokens = _oracle_tokenize(text)
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


def oracle_peel_levels(cups):
    """Nesting degrees by peeling: each round removes the remaining cups
    that no remaining cup encloses and no remaining dotted cup follows."""
    levels = {}
    remaining = set(cups)
    level = 0
    while remaining:
        outer_now = [
            c
            for c in remaining
            if not any(o.left < c.left and c.right < o.right for o in remaining)
            and not any(o.dotted and o.left > c.right for o in remaining)
        ]
        assert outer_now, "nesting peel stalled"
        for c in outer_now:
            levels[c] = level
        remaining.difference_update(outer_now)
        level += 1
    return levels


def oracle_fixed_point_table(k, parity):
    """``fixed_point_table(k, parity).to_json_dict()`` by gluing every
    ordered pair of maximal diagrams and orienting the circle diagram.

    This is the package's glued path (``orient_circle_diagram``, itself
    checked against brute force), kept as the reference for the table
    built from per-diagram orientation sets."""
    from cupcalc.diagrams import maximal_diagrams
    from cupcalc.orientation import orient_circle_diagram

    nodes = maximal_diagrams(k, parity)
    return {
        "k": k,
        "parity": parity,
        "diagrams": [d.encode() for d in nodes],
        "table": [
            [[str(o.weight) for o in orient_circle_diagram(a.star(), b)] for b in nodes]
            for a in nodes
        ],
    }


def oracle_graded_dimension(k):
    """``arc_algebra_graded_dimension(k)`` as (coefficients, total), by
    summing q^degree over every orientation of every glued same-parity
    pair of maximal diagrams."""
    from cupcalc.diagrams import maximal_diagrams
    from cupcalc.orientation import orient_circle_diagram

    coeffs = {}
    for parity in ("even", "odd"):
        nodes = maximal_diagrams(k, parity)
        for a, b in itertools.product(nodes, repeat=2):
            for o in orient_circle_diagram(a.star(), b):
                coeffs[o.degree] = coeffs.get(o.degree, 0) + 1
    return dict(sorted(coeffs.items())), sum(coeffs.values())


def oracle_distance_table(k, parity):
    """The all-pairs undirected arrow distance table of one parity, by
    Floyd-Warshall over the move graph's arrows; ``math.inf`` where no
    path exists.  Rows and columns follow ``move_graph(k, parity).nodes``."""
    import math

    from cupcalc.movegraph import move_graph

    graph = move_graph(k, parity)
    n = len(graph.nodes)
    table = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for i, j, _ in graph.arrows:
        table[i][j] = table[j][i] = 1
    for m in range(n):
        for i in range(n):
            for j in range(n):
                if table[i][m] + table[m][j] < table[i][j]:
                    table[i][j] = table[i][m] + table[m][j]
    return table


def oracle_rewire(d, remove, add):
    """A move graph rewrite decided by the whole ``validate``: the arcs of
    d without the matched pair ``remove``, plus ``add``, or None if that
    is not a legal diagram."""
    removed = set(remove)
    cups = [c for c in d.cups if c not in removed] + [a for a in add if isinstance(a, Cup)]
    rays = [r for r in d.rays if r not in removed] + [a for a in add if isinstance(a, Ray)]
    try:
        return validate(d.k, cups, rays)
    except InvalidDiagramError:
        return None


def _oracle_rule_keys(rules):
    """A ``movegraph`` shape table (shape -> (kind, other side)) keyed
    instead by its matched rule side from ``_RULES``, arcs sorted."""
    from cupcalc.movegraph import _RULES

    keyed = {}
    for kind, other_side in rules.values():
        side = next(s for s in _RULES[kind] if s != other_side)
        keyed[tuple(sorted(side))] = (kind, other_side)
    return keyed


def oracle_matches(d, rules):
    """``movegraph._matches`` with every rewrite checked by
    ``oracle_rewire``: (other diagram, Move, matched pair) for every rule
    side matched by a pair of arcs of d, in the matcher's pair order.
    Pairs are matched by their renumbered arcs, not by their shape."""
    from cupcalc.movegraph import Move

    rules = _oracle_rule_keys(rules)
    out = []
    for pair in itertools.chain(
        itertools.combinations(d.cups, 2), itertools.product(d.cups, d.rays)
    ):
        pos = sorted(pair[0][:-1] + pair[1][:-1])
        key = tuple(sorted(tuple(pos.index(v) for v in arc[:-1]) + arc[-1:] for arc in pair))
        if key not in rules:
            continue
        kind, other_side = rules[key]
        add = [type(arc)(*(pos[v] for v in arc[:-1]), arc[-1]) for arc in other_side]
        other = oracle_rewire(d, pair, add)
        if other is not None:
            out.append((other, Move(kind, tuple(pos)), pair))
    return out


def _oracle_neighbours(d, rules):
    out = [(b, move) for b, move, _ in oracle_matches(d, rules)]
    out.sort(key=lambda t: (encode(t[0]), t[1].kind))
    return out


def oracle_successors(a):
    """``movegraph.successors`` with every rewrite checked by ``validate``."""
    from cupcalc.movegraph import _FORWARDS

    return _oracle_neighbours(a, _FORWARDS)


def oracle_predecessors(a):
    """``movegraph.predecessors`` with every rewrite checked by ``validate``."""
    from cupcalc.movegraph import _BACKWARDS

    return _oracle_neighbours(a, _BACKWARDS)


def oracle_move_graph_arrows(k, parity):
    """``move_graph(k, parity).arrows`` from ``movegraph.successors``, which
    decides every move with ``_rewire``: (source index, target index, Move)
    with nodes in encoding order."""
    from cupcalc.diagrams import maximal_diagrams
    from cupcalc.movegraph import successors

    nodes = maximal_diagrams(k, parity)
    index = {encode(n): i for i, n in enumerate(nodes)}
    return tuple(
        (i, index[encode(b)], move) for i, a in enumerate(nodes) for b, move in successors(a)
    )


def oracle_reachability(k, parity):
    """reach[i] = frozenset of the nodes of ``move_graph(k, parity)``
    reachable from node i along arrows (i included), by one depth-first
    search per node."""
    from cupcalc.movegraph import move_graph

    graph = move_graph(k, parity)
    out = [[] for _ in graph.nodes]
    for i, j, _ in graph.arrows:
        out[i].append(j)
    reach = []
    for src in range(len(graph.nodes)):
        seen, stack = {src}, [src]
        while stack:
            for w in out[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(frozenset(seen))
    return tuple(reach)


def oracle_total_order(k, parity, tie_break="lex"):
    """``movegraph.total_order`` with the heap keyed by the nodes'
    encodings (reversed character by character for ``"revlex"``)."""
    import heapq

    from cupcalc.movegraph import move_graph

    graph = move_graph(k, parity)
    n = len(graph.nodes)
    out_edges = [set() for _ in range(n)]
    for i, j, _ in graph.arrows:
        out_edges[i].add(j)

    def key(i):
        s = encode(graph.nodes[i])
        return s if tie_break == "lex" else tuple(-ord(ch) for ch in s)

    remaining = [len(js) for js in out_edges]
    heap = [(key(i), i) for i in range(n) if remaining[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, i = heapq.heappop(heap)
        order.append(i)
        for p in range(n):
            if i in out_edges[p]:
                remaining[p] -= 1
                if remaining[p] == 0:
                    heapq.heappush(heap, (key(p), p))
    assert len(order) == n, "arrow relation is not acyclic"
    return tuple(graph.nodes[i] for i in reversed(order))


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` in every cupcalc module that binds it, for the
    rest of the test; the returned list gets one entry per call."""
    import sys

    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cupcalc" or mod_name.startswith("cupcalc."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@functools.cache
def oracle_parser():
    """The CLI parser as it was built before the flag table, one
    ``add_argument`` call per flag; only the ``--t`` help is newer."""
    parser = cli._parser_class()(
        prog="cupcalc",
        description="""Command-line interface.

Verbs: enumerate, render, movegraph, distance, orient, cohomology,
intersect, bijection, selftest.  Exit codes: 0 success, 1 invalid
input, 2 tripped internal consistency check or any other internal error.
""",
    )
    parser.add_argument("--version", action="version", version=f"cupcalc {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    vertex_count = cli._int_at_least(1)

    p = sub.add_parser("enumerate", help="list diagrams in canonical order")
    p.add_argument("--k", type=vertex_count, required=True)
    p.add_argument("--parity", choices=["all", "even", "odd", "none"], default="all")
    p.add_argument("--cups", type=cli._cup_count, default="max", help="cup count, 'max' or 'any'")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("render", help="render one diagram")
    p.add_argument("--diagram", required=True, help="diagram DSL text")
    p.add_argument("--format", choices=["ascii", "tikz", "json"], default="ascii")

    p = sub.add_parser("movegraph", help="arrow graph on the maximal diagrams")
    p.add_argument("--k", type=vertex_count, required=True)
    p.add_argument("--parity", choices=["even", "odd"], required=True)
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("distance", help="arrow distance between two diagrams")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("orient", help="orientations of a cup (or glued) diagram")
    p.add_argument("--cup", required=True)
    p.add_argument("--cap", help="cap half, as the cup diagram it mirrors")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("cohomology", help="exact graded dimensions")
    p.add_argument("which", choices=["centre", "springer"])
    p.add_argument("--k", type=vertex_count, required=True)
    p.add_argument("--t", help="deformation parameter (rational; a negative one as --t=-3/2)")
    p.add_argument("--basis", action="store_true", help="include echelon bases")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("intersect", help="fixed-point table of one parity")
    p.add_argument("--k", type=vertex_count, required=True)
    p.add_argument("--parity", choices=["even", "odd"], required=True)
    p.add_argument("--format", choices=["text", "json"], default="json")

    p = sub.add_parser("bijection", help="convert between labelling sets")
    p.add_argument("--from", dest="src", required=True, choices=["adt", "dt", "cup", "bitab", "stable"])
    p.add_argument("--to", dest="dst", required=True, choices=["adt", "dt", "cup", "bitab", "stable"])
    p.add_argument("--input", required=True, help="JSON input file ('-' for stdin)")
    p.add_argument(
        "--parity",
        choices=["all", "even", "odd"],
        default="all",
        help="dot parity, needed to invert a bitableau with rays",
    )

    p = sub.add_parser("selftest", help="run the cross-module identity suites")
    p.add_argument("--k-max", type=cli._int_at_least(2), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    return parser
