"""Cross-module identity suites runnable from the command line.

Each suite re-derives a structural law of the calculus on every size up
to ``k_max``, or up to a smaller cap that bounds its cost, and reports
one line that names the largest k it checked.  The suites deliberately
pit independent code paths against each other (brute-force recounts,
closed-form counts, the two degree computations, the two admissibility
tests, and so on).
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, List, NamedTuple, Tuple

from . import diagrams, movegraph, orientation, ringcalc, springer, tableaux
from .errors import SizeError


class SuiteResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class SelfTestReport(NamedTuple):
    k_max: int
    seed: int
    suites: List[SuiteResult]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    def to_json_dict(self) -> dict:
        return {
            "k_max": self.k_max,
            "seed": self.seed,
            "ok": self.ok,
            "suites": [
                {"name": s.name, "ok": s.ok, "detail": s.detail} for s in self.suites
            ],
        }


def _suite_diagram_counts(k_max, rng):
    for k in range(2, k_max + 1):
        diags = diagrams.maximal_diagrams(k)
        if k % 2 == 0 and len(diags) != math.comb(k, k // 2):
            return False, f"maximal count at k={k} is {len(diags)}"
        even = diagrams.maximal_diagrams(k, "even")
        odd = diagrams.maximal_diagrams(k, "odd")
        if len(even) != len(odd):
            return False, f"parity halves differ at k={k}"
        flipped = {diagrams.encode(diagrams.dot_parity_involution(d)) for d in even}
        if flipped != {diagrams.encode(d) for d in odd}:
            return False, f"dot involution is not a parity bijection at k={k}"
        if k % 2 == 0:
            catalan = math.comb(k, k // 2) // (k // 2 + 1)
            plain = diagrams.enumerate_diagrams(k, "max", "none")
            if len(plain) != catalan:
                return False, f"undecorated maximal count at k={k} is {len(plain)}"
    return True, f"counts and dot involution checked for k<={k_max}"


def _suite_encoding(k_max, rng):
    for k in range(1, k_max + 1):
        seen = {}
        for d in diagrams.enumerate_diagrams(k, "any", "all"):
            text = diagrams.encode(d)
            if text in seen:
                return False, f"encoding collision at k={k}: {text}"
            seen[text] = d
            if diagrams.parse_dsl(text) != d:
                return False, f"round trip failed for {text}"
            if diagrams.from_json(diagrams.render(d, "json")) != d:
                return False, f"json round trip failed for {text}"
    return True, f"encode/parse/json bijective for all diagrams, k<={k_max}"


def _suite_orientation_counts(k_max, rng):
    top = min(k_max, 6)
    for k in range(2, top + 1):
        for c in diagrams.maximal_diagrams(k):
            weights = orientation.orientations_of_cup(c)
            if len(weights) != 2 ** c.n_cups:
                return False, f"orientation count wrong for {c.encode()}"
            brute = [w for w in _all_weights(k) if orientation.is_oriented(w, c)]
            # the generated order must be the canonical one, not only the set
            if weights != sorted(brute, key=orientation.Weight.sort_key):
                return False, f"orientation oracle mismatch for {c.encode()}"
    return True, f"orientations match the brute-force oracle, k<={top}"


def _all_weights(k):
    for combo in itertools.product(orientation.DOWN + orientation.UP, repeat=k):
        yield orientation.Weight("".join(combo))


def _suite_degree_convention(k_max, rng):
    """Each circle flip changes the degree by exactly 2, anticlockwise low."""
    top = min(k_max, 5)
    for k in range(2, top + 1):
        for parity in ("even", "odd"):
            for a, b in itertools.product(diagrams.maximal_diagrams(k, parity), repeat=2):
                for o in orientation.orient_circle_diagram(a.star(), b):
                    for mx, cls in o.circle_classes:
                        cl = o.decomposition.class_of(mx)
                        flipped = o.weight.flip(cl.vertices)
                        d2 = orientation.diagram_degree(a.star(), flipped, b)
                        delta = 2 if cls == "anticlockwise" else -2
                        if d2 - o.degree != delta:
                            return False, (
                                f"circle flip at {mx} of {a.encode()}/{b.encode()} "
                                f"changed degree by {d2 - o.degree}"
                            )
    return True, f"circle class by rightmost label matches the degree pattern, k<={top}"


def _suite_min_degree(k_max, rng):
    top = min(k_max, 6)
    for k in range(2, top + 1):
        every = diagrams.enumerate_diagrams(k, "any", "all")
        for c in every:
            w = orientation.degree_zero_weight(c)
            if orientation.cup_of_weight(w) != c:
                return False, f"degree-zero weight not inverted for {c.encode()}"
        for w in _all_weights(k):
            c = orientation.cup_of_weight(w)
            if orientation.half_degree(w, c) != 0:
                return False, f"cup_of_weight({w}) has positive degree"
            matches = [
                d
                for d in every
                if orientation.is_oriented(w, d)
                and orientation.half_degree(w, d) == 0
            ]
            if matches != [c]:
                return False, f"degree-zero diagram of {w} is not unique"
    return True, f"degree-zero diagram of a weight exists uniquely, k<={top}"


def _suite_move_parity(k_max, rng):
    for k in range(2, k_max + 1):
        for a in diagrams.maximal_diagrams(k):
            for b, move in movegraph.successors(a):
                if a.dot_parity != b.dot_parity:
                    return False, f"move {move} changed dot parity"
                if (a, move) not in [
                    (src, mv) for src, mv in movegraph.predecessors(b)
                ]:
                    return False, f"predecessors missed {move} into {b.encode()}"
    return True, f"moves preserve dot parity; successor/predecessor agree, k<={k_max}"


def _suite_connectivity(k_max, rng):
    for k in range(2, k_max + 1):
        for parity in ("even", "odd"):
            movegraph.move_graph(k, parity)  # raises when disconnected
    return True, f"move graphs connected per parity, k<={k_max}"


def _suite_distance_circles(k_max, rng):
    for k in range(2, k_max + 1):
        m = k // 2
        for parity in ("even", "odd"):
            nodes = diagrams.maximal_diagrams(k, parity)
            for a, b in itertools.product(nodes, repeat=2):
                found = orientation.min_degree_element(a, b)
                if found is None:
                    continue
                best, degree = found
                circles = len(best.decomposition.circles)
                d = movegraph.distance(a, b)
                if d != m - circles:
                    return False, f"distance {d} != {m}-{circles} for {a.encode()},{b.encode()}"
                if degree != d:
                    return False, f"minimal degree {degree} != distance {d}"
    return True, f"distance equals cups minus circles on orientable pairs, k<={k_max}"


def _suite_forest(k_max, rng):
    for k in range(2, k_max + 1):
        for a in diagrams.maximal_diagrams(k):
            forest = movegraph.cup_forest(a)
            if forest.n_roots + forest.n_edges != a.n_cups:
                return False, f"roots+edges != cups for {a.encode()}"
            if k % 2 == 1:
                ray = a.rays[0]
                if ray.dotted:
                    expected = set(forest.roots)
                else:
                    expected = {c for c in forest.roots if c.left > ray.at}
                if set(forest.special_roots) != expected:
                    return False, f"special roots wrong for {a.encode()}"
    return True, f"forest identity and special-root rule hold, k<={k_max}"


def _suite_cell_sum(k_max, rng):
    for k in range(2, k_max + 1):
        total = sum(movegraph.free_cell_count(a) for a in diagrams.maximal_diagrams(k))
        if total != 2 ** k:
            return False, f"free cells total {total} != 2^{k}"
        for a in diagrams.maximal_diagrams(k):
            forest = movegraph.cup_forest(a)
            closed = (
                2 ** len(forest.roots)
                if k % 2 == 0
                else 2 ** (len(forest.roots) - len(forest.special_roots))
            )
            if movegraph.free_cell_count(a) != closed:
                return False, f"free cell count of {a.encode()} is not {closed}"
    return True, f"free cells total 2^k and match the closed form, k<={k_max}"


def _onto(source, target) -> bool:
    """Whether the restriction map from the quotient ``source`` to
    ``target`` is onto, read from the generators: it sends each variable
    to +-1 times one variable or to 0, so it is onto iff every kept
    target variable is the image of a kept source variable."""
    return {target.steps[v][1] for v in source.kept} >= {1 << m for m in target.kept}


def _suite_quotients(k_max, rng):
    for k in range(2, k_max + 1):
        for parity in ("even", "odd"):
            nodes = diagrams.maximal_diagrams(k, parity)
            sources = [ringcalc.component_quotient(d) for d in nodes]
            for (a, qa), (b, qb) in itertools.combinations(zip(nodes, sources), 2):
                target = ringcalc.intersection_quotient(a, b)
                if target is None:
                    continue
                # every generator of the one-diagram ideal dies downstairs:
                # x_l + c x_r dies iff both terms die, or x_l reduces to
                # -c times the reduction of x_r.  The step of x_v is its
                # (sign, image bit), (0, 0) where it dies.
                steps = target.steps
                for d in (a, b):
                    for cup in d.cups:
                        c = -1 if cup.dotted else 1
                        sign, bit = steps[cup.right]
                        if steps[cup.left] != (-c * sign, bit):
                            return False, f"ideal inclusion fails for {d.encode()}"
                    for ray in d.rays:
                        if steps[ray.at] != (0, 0):
                            return False, f"ray generator survives for {d.encode()}"
                # both restriction maps into the one target: the pair is glued once
                if not (_onto(qa, target) and _onto(qb, target)):
                    return False, f"restriction not surjective for {a.encode()},{b.encode()}"
    return True, f"ideal inclusions and surjectivity of restrictions hold, k<={k_max}"


def _suite_centre(k_max, rng):
    top = min(k_max, 7)
    for k in range(2, top + 1):
        dims = [ringcalc.centre(k, p).dimension for p in ("even", "odd")]
        if sum(dims) != 2 ** k:
            return False, f"centre dims {dims} do not total 2^{k}"
    return True, f"equalizer dimension totals 2^k per size, k<={top}"


def _suite_ring_comparison(k_max, rng):
    top = min(k_max, 6)
    for k in range(2, top + 1):
        pres = springer.presentation_ring(k)
        even = ringcalc.centre(k, "even").graded_dims
        odd = ringcalc.centre(k, "odd").graded_dims
        for d in range(k + 1):
            lhs = even.get(d, 0) + odd.get(d, 0)
            if lhs != 2 * pres.graded_dims[d]:
                return False, f"degree {d} of k={k}: centre {lhs} vs ring {2 * pres.graded_dims[d]}"
    return True, f"centre matches two copies of the presentation ring, k<={top}"


def _suite_springer(k_max, rng):
    for k in range(2, k_max + 1):
        pres = springer.presentation_ring(k)  # raises when basis fails
        for t in (0, 1, 2, 3):
            if springer.equivariant_specialization(k, t) != 2 ** (k - 1):
                return False, f"deformed dimension at k={k}, t={t}"
        springer.filtration_census(k)  # raises when the total is off
    return True, f"presentation bases, deformations and census verified, k<={k_max}"


def _suite_graded_identity(k_max, rng):
    top, glued_top = min(k_max, 7), min(k_max, 6)
    for k in range(2, top + 1):
        direct = springer.arc_algebra_graded_dimension(k)
        closed = springer.arc_algebra_graded_dimension_closed_form(k)
        if direct != closed:
            return False, f"graded dimension mismatch at k={k}"
        tables = 0
        for parity in ("even", "odd"):
            table = springer.fixed_point_table(k, parity)
            tables += table.total_count()
            if k > glued_top:
                continue
            # the table intersects orientation sets: check it against gluing
            for a, row in zip(table.diagrams, table.entries):
                for b, cell in zip(table.diagrams, row):
                    glued = orientation.orient_circle_diagram(a.star(), b)
                    if cell != tuple(o.weight for o in glued):
                        return False, f"fixed points of {a.encode()}/{b.encode()} differ when glued"
        if direct.total != tables:
            return False, f"total {direct.total} != table count {tables} at k={k}"
        if direct.coefficients.get(0, 0) != len(diagrams.maximal_diagrams(k)):
            return False, f"degree-zero coefficient at k={k}"
    return True, (
        f"graded dimension matches closed form and table counts, k<={top}; "
        f"glued cells, k<={glued_top}"
    )


def _suite_tableaux(k_max, rng):
    shapes = [
        (r, s)
        for s in range(1, k_max + 1)
        for r in range(s, 2 * k_max - s + 1)
        if (r + s) % 2 == 0 and (r + s) // 2 <= k_max and tableaux.admissible_two_row((r, s))
    ]
    for shape in shapes:
        for t in tableaux.enumerate_signed(shape):
            c = tableaux.to_cup(t)
            if tableaux.from_cup(c, shape) != t:
                return False, f"cup round trip failed on {shape}"
            minus = sum(1 for _, sign in t.signs if sign == "-")
            if minus % 2 != c.dot_count % 2:
                return False, f"sign/dot parity law failed on {shape}"
        for S in tableaux.enumerate_dt(shape):
            if tableaux.cyc(tableaux.cyc_inverse(S)) != S:
                return False, f"cycle round trip failed on {shape}"
        for t in tableaux.enumerate_adt(shape):
            if tableaux.is_admissible(t) != tableaux.horizontal_rule(t):
                return False, f"admissibility tests disagree on {shape}"
    for k in range(2, k_max + 1, 2):
        images = {tableaux.stable_to_cup(p).encode() for p in tableaux.enumerate_stables(k)}
        if images != {d.encode() for d in diagrams.maximal_diagrams(k)}:
            return False, f"two-column tables miss maximal diagrams at k={k}"
    return True, f"tableau bijections, parity law and table bijection hold, k<={k_max}"


def _suite_order_independence(k_max, rng):
    k = min(k_max, 5)
    for parity in ("even", "odd"):
        lex = ringcalc.centre(k, parity, tie_break="lex").graded_dims
        rev = ringcalc.centre(k, parity, tie_break="revlex").graded_dims
        if lex != rev:
            return False, f"centre dims depend on the tie break at k={k}"
    return True, f"results independent of the total-order refinement at k={k}"


def _suite_sampled_geodesics(k_max, rng):
    k = min(k_max + 1, 8)
    for parity in ("even", "odd"):
        nodes = diagrams.maximal_diagrams(k, parity)
        pool = [(a, b) for a in nodes for b in nodes]
        for a, b in rng.sample(pool, min(60, len(pool))):
            c = movegraph.geodesic_meet(a, b)
            if movegraph.distance(a, c) + movegraph.distance(c, b) != movegraph.distance(a, b):
                return False, f"geodesic meet fails for {a.encode()},{b.encode()}"
    return True, f"sampled geodesic meets verified at k={k}"


SUITES: List[Tuple[str, Callable]] = [
    ("diagram-counts", _suite_diagram_counts),
    ("encoding-roundtrip", _suite_encoding),
    ("orientation-oracle", _suite_orientation_counts),
    ("degree-convention", _suite_degree_convention),
    ("degree-zero-diagrams", _suite_min_degree),
    ("move-parity", _suite_move_parity),
    ("graph-connectivity", _suite_connectivity),
    ("distance-circles", _suite_distance_circles),
    ("cup-forest", _suite_forest),
    ("cell-census", _suite_cell_sum),
    ("quotient-rings", _suite_quotients),
    ("centre-dimension", _suite_centre),
    ("ring-comparison", _suite_ring_comparison),
    ("presentation-rings", _suite_springer),
    ("graded-identity", _suite_graded_identity),
    ("tableau-bijections", _suite_tableaux),
    ("order-independence", _suite_order_independence),
    ("geodesic-meets", _suite_sampled_geodesics),
]


def selftest(k_max: int, seed: int = 0) -> SelfTestReport:
    if k_max < 2:
        raise SizeError("k_max must be at least 2")
    results = []
    rng = random.Random(seed)
    for name, fn in SUITES:
        ok, detail = fn(k_max, rng)
        results.append(SuiteResult(name, ok, detail))
    return SelfTestReport(k_max, seed, results)
