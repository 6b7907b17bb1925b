import itertools

import pytest

from cupcalc import diagrams as D
from cupcalc import linalg
from cupcalc import orientation as O
from cupcalc import ringcalc as R
from cupcalc import springer as S
from helpers import (
    count_calls,
    dense_rank,
    oracle_centre_rows,
    oracle_gamma_maps,
    oracle_map_between,
    oracle_reduce_monomial,
)


def test_component_quotient_rules():
    q = R.component_quotient(D.parse_dsl("2: c(1,2)"))
    assert q.rules == {1: (-1, 2)}
    assert q.basis() == [frozenset(), frozenset({2})]
    assert R.component_quotient(D.parse_dsl("2: c*(1,2)")).rules == {1: (1, 2)}
    q3 = R.component_quotient(D.parse_dsl("3: c(1,2);r(3)"))
    assert q3.rules[3] is None
    assert q3.dimension == 2


def test_monomial_order_is_the_sorted_definition():
    """Subsets by size, then lexicographically, as the sort by that key
    lists them."""
    for n in range(13):
        want = sorted(range(1 << n), key=lambda j: (j.bit_count(), [t for t in range(n) if j >> t & 1]))
        assert R._monomial_order(n) == tuple(want)


def test_monomial_order_is_one_shared_tuple_per_n():
    """The cached order equals the itertools.combinations listing, is a
    tuple (so no caller can reorder the shared copy) and is built once."""
    for n in range(11):
        want = [
            sum(1 << t for t in subset)
            for size in range(n + 1)
            for subset in itertools.combinations(range(n), size)
        ]
        got = R._monomial_order(n)
        assert type(got) is tuple and list(got) == want
        assert R._monomial_order(n) is got


def test_reduce_monomial_signs():
    q = R.component_quotient(D.parse_dsl("4: c(1,2);c*(3,4)"))
    assert q.reduce_monomial(frozenset({1})) == (-1, frozenset({2}))
    assert q.reduce_monomial(frozenset({1, 3})) == (-1, frozenset({2, 4}))
    assert q.reduce_monomial(frozenset({1, 2})) is None  # x2 squared


@pytest.mark.parametrize("k", range(2, 7))
def test_quotient_dimensions(k):
    for parity in ("even", "odd"):
        nodes = D.maximal_diagrams(k, parity)
        for a in nodes:
            assert R.component_quotient(a).dimension == 2 ** a.n_cups
        for a, b in itertools.combinations(nodes, 2):
            q = R.intersection_quotient(a, b)
            oriented = O.orient_circle_diagram(a.star(), b)
            if not oriented:
                assert q is None
            else:
                circles = len(O.decompose(a.star(), b).circles)
                assert q.dimension == 2 ** circles
                assert q.dimension == len(oriented)


def test_orientability_lists_no_orientations(monkeypatch):
    """The centre and the closed form need only orientability and the
    decomposition of each glued pair, never its orientations."""
    calls = count_calls(monkeypatch, O, "orient_circle_diagram")
    for parity in ("even", "odd"):
        R.centre(6, parity)
    S.arc_algebra_graded_dimension_closed_form(6)
    assert calls == []


def test_intersection_quotient_none_for_disjoint():
    a = D.parse_dsl("4: c*(1,2);c(3,4)")
    b = D.parse_dsl("4: c(1,2);c*(3,4)")
    assert R.intersection_quotient(a, b) is None
    with pytest.raises(R.NotOrientableError):
        R.restriction_maps(a, b)


def test_self_intersection_matches_component_quotient():
    for k in range(2, 6):
        for a in D.maximal_diagrams(k):
            qa = R.component_quotient(a)
            qaa = R.intersection_quotient(a, a)
            assert qa.dimension == qaa.dimension
            assert qa.kept == qaa.kept
            assert qa.rules == qaa.rules


@pytest.mark.parametrize("k", range(2, 7))
def test_single_diagram_ideal_dies_in_intersection(k):
    for parity in ("even", "odd"):
        nodes = D.maximal_diagrams(k, parity)
        for a, b in itertools.combinations(nodes, 2):
            target = R.intersection_quotient(a, b)
            if target is None:
                continue
            for d in (a, b):
                for cup in d.cups:
                    # x_l + c x_r dies iff both terms die, or x_l reduces
                    # to -c times the reduction of x_r
                    c = -1 if cup.dotted else 1
                    left = target.reduce_monomial({cup.left})
                    right = target.reduce_monomial({cup.right})
                    if right is None:
                        assert left is None
                    else:
                        assert left == (-c * right[0], right[1])
                for ray in d.rays:
                    assert target.reduce_monomial({ray.at}) is None


def _dense(m):
    """The matrix of a ``LinearMap``, read from its entries: matrix[row][col]."""
    matrix = [[0] * len(m.domain) for _ in m.codomain]
    for col, entry in enumerate(m.entries):
        if entry is not None:
            row, sign = entry
            matrix[row][col] = sign
    return matrix


def test_restriction_basics():
    a = D.parse_dsl("2: c(1,2)")
    ma, mb = R.restriction_maps(a, a)
    assert ma.entries == [(0, 1), (1, 1)]
    assert _dense(ma) == [[1, 0], [0, 1]]
    a1 = D.parse_dsl("4: c*(1,2);c(3,4)")
    a2 = D.parse_dsl("4: c*(1,4);c(2,3)")
    ma, mb = R.restriction_maps(a1, a2)
    # units map to units
    assert [row[0] for row in _dense(ma)] == [1, 0]
    assert [row[0] for row in _dense(mb)] == [1, 0]


@pytest.mark.parametrize("k", range(2, 7))
def test_restrictions_surjective_and_graded(k):
    for parity in ("even", "odd"):
        nodes = D.maximal_diagrams(k, parity)
        for a, b in itertools.combinations(nodes, 2):
            if R.intersection_quotient(a, b) is None:
                continue
            for m in R.restriction_maps(a, b):
                assert m.is_surjective()
                for mono, entry in zip(m.domain, m.entries):
                    if entry is not None and len(m.codomain[entry[0]]) != len(mono):
                        pytest.fail("restriction map not degree preserving")


@pytest.mark.parametrize("k", range(1, 7))
def test_restriction_maps_are_monomial_and_surjective(monkeypatch, k):
    """Each domain monomial has at most one entry, a codomain row and +1
    or -1, so surjectivity is read off the rows hit: it agrees with a
    dense rank and calls no elimination."""

    def refuse(*args):
        raise AssertionError("is_surjective eliminated")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "_pivot_rows", refuse)
    maps = [
        # not surjective: the second codomain monomial is never hit
        R.LinearMap([0, 1], [0, 1], [None, (0, -1)]),
        R.LinearMap([0, 1], [0, 1], [(0, 1), (0, -1)]),  # two hits on one row
        R.LinearMap([0], [], [None]),
    ]
    for parity in ("even", "odd"):
        for a, b in itertools.combinations_with_replacement(D.maximal_diagrams(k, parity), 2):
            if R.intersection_quotient(a, b) is not None:
                maps += R.restriction_maps(a, b)
    assert len(maps) > 3
    for m in maps:
        assert len(m.entries) == len(m.domain)
        dense = _dense(m)
        for j, entry in enumerate(m.entries):
            assert entry is None or (0 <= entry[0] < len(m.codomain) and entry[1] in (1, -1))
            assert [row[j] for row in dense if row[j]] in ([], [1], [-1])
        rows = [{j: v for j, v in enumerate(row) if v} for row in dense]
        assert m.is_surjective() == (dense_rank(rows, len(m.domain)) == len(m.codomain))
    assert [m.is_surjective() for m in maps[:3]] == [False, False, True]


@pytest.mark.parametrize("k", range(1, 9))
def test_restriction_maps_match_oracle(k):
    """The subset-table restriction maps equal the one-monomial-at-a-time
    reduction on every same-parity pair."""
    for parity in ("even", "odd"):
        for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
            target = R.intersection_quotient(a, b)
            if target is None:
                continue
            for source, m in zip((a, b), R.restriction_maps(a, b)):
                expected = oracle_map_between(R.component_quotient(source), target)
                assert (m.domain, m.codomain, _dense(m)) == expected


@pytest.mark.parametrize("k", range(1, 9))
def test_surjectivity_from_the_generators_matches_the_table(k):
    """The selftest's check on the generators agrees with the monomial
    table's ``is_surjective`` on both restriction maps of every orientable
    pair, and both say no where a kept target variable is never hit."""
    from cupcalc.selftest import _onto

    for parity in ("even", "odd"):
        for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
            target = R.intersection_quotient(a, b)
            if target is None:
                continue
            for source, m in zip((a, b), R.restriction_maps(a, b)):
                assert _onto(R.component_quotient(source), target) == m.is_surjective()
    # x_1 rewrites to -x_2 in the source, so the target's x_1 is never hit
    source = R.component_quotient(D.parse_dsl("2: c(1,2)"))
    target = R.QuotientPresentation(2, {})
    assert not R._map_between(source, target).is_surjective()
    assert not _onto(source, target)


def test_quotient_rings_suite_checks_every_k_to_k_max(monkeypatch):
    """The selftest suite has no cap of its own: it restricts pairs of
    every size up to k_max, and its detail says so.  (At k = 2 each
    parity has one maximal diagram, so no pair.)"""
    from cupcalc.selftest import _suite_quotients

    calls = count_calls(monkeypatch, R, "intersection_quotient")
    assert _suite_quotients(8, None) == (
        True, "ideal inclusions and surjectivity of restrictions hold, k<=8"
    )
    assert {a.k for a, _ in calls} == set(range(3, 9))


def test_quotient_rings_suite_glues_each_pair_once(monkeypatch):
    """The suite takes both restriction maps from the one intersection
    quotient it built for the ideal check: the walk ``_glue`` runs once
    per unordered pair it examines, orientable or not."""
    from cupcalc.selftest import _suite_quotients

    calls = count_calls(monkeypatch, O, "_glue")
    assert _suite_quotients(8, None)[0]
    examined = sum(
        len(D.maximal_diagrams(k, parity)) * (len(D.maximal_diagrams(k, parity)) - 1) // 2
        for k in range(2, 9)
        for parity in ("even", "odd")
    )
    assert len(calls) == examined
    assert len(set(calls)) == examined  # no pair twice


@pytest.mark.parametrize("k", range(1, 7))
def test_reduce_monomial_reads_the_table_as_the_oracle_reduces(k):
    """``reduce_monomial`` (the per-variable step folded along the
    monomial) and the entry of ``subset_table`` (the same step folded over
    every subset) both equal the one-variable-at-a-time rewrite on every
    subset of 1..k, in every component quotient and every intersection
    quotient."""
    nodes = D.maximal_diagrams(k)
    quotients = [R.component_quotient(a) for a in nodes]
    quotients += [R.intersection_quotient(a, b) for a, b in itertools.product(nodes, repeat=2)]
    quotients = [q for q in quotients if q is not None]
    assert len(quotients) > len(nodes)
    variables = tuple(range(1, k + 1))
    for q in quotients:
        sign, image = q.subset_table(variables)
        for j in range(1 << k):
            mono = [v for t, v in enumerate(variables) if j >> t & 1]
            want = oracle_reduce_monomial(q, mono)
            assert q.reduce_monomial(frozenset(mono)) == want
            read = frozenset(v for v in range(k + 1) if image[j] >> v & 1)
            assert (None if not sign[j] else (sign[j], read)) == want


def test_reduce_monomial_folds_along_the_monomial(monkeypatch):
    """reduce_monomial folds each variable's step along its monomial, so a
    40-variable monomial reduces at once, with no subset table (2^40
    entries), and equals the one-variable-at-a-time rewrite."""
    def no_table(*args):
        raise AssertionError("reduce_monomial built a subset table")

    monkeypatch.setattr(R, "_subset_table", no_table)
    q = R.QuotientPresentation(40, {})
    mono = frozenset(range(1, 41))
    assert q.reduce_monomial(mono) == oracle_reduce_monomial(q, mono) == (1, mono)
    rules = {v: (-1, v + 1) for v in range(1, 40, 2)}  # x_1 = -x_2, x_3 = -x_4, ...
    q = R.QuotientPresentation(40, rules)
    odd = frozenset(range(1, 41, 2))
    assert q.reduce_monomial(odd) == oracle_reduce_monomial(q, odd) == (1, frozenset(range(2, 41, 2)))
    assert q.reduce_monomial(mono) is None is oracle_reduce_monomial(q, mono)


def test_transport_sign_against_independent_path():
    """eps(i, mx) from the reduction rules equals a sign recomputed by
    explicitly walking a path in the glued diagram."""
    for k in range(2, 6):
        for parity in ("even", "odd"):
            for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
                dec = O.decompose(a.star(), b)
                if not all(c.parity_consistent for c in dec.classes):
                    continue
                edges = {}
                for half in (a, b):
                    for cup in half.cups:
                        edges.setdefault(cup.left, []).append((cup.right, cup.dotted))
                        edges.setdefault(cup.right, []).append((cup.left, cup.dotted))
                for cl in dec.classes:
                    for start in cl.vertices:
                        # breadth-first walk, visiting neighbours in a fixed
                        # but different order from the library's stack walk
                        seen = {start: 1}
                        frontier = [start]
                        while frontier:
                            nxt = []
                            for u in sorted(frontier):
                                for v, dotted in sorted(edges.get(u, [])):
                                    sign = seen[u] * (1 if dotted else -1)
                                    if v not in seen:
                                        seen[v] = sign
                                        nxt.append(v)
                                    else:
                                        assert seen[v] == sign
                            frontier = nxt
                        assert dec.epsilon(start, cl.mx) == seen[cl.mx]


# --- centre -----------------------------------------------------------------


@pytest.mark.parametrize("k", range(2, 10))
def test_centre_total_dimension(k):
    dims = [R.centre(k, parity).dimension for parity in ("even", "odd")]
    assert sum(dims) == 2 ** k
    assert dims[0] == dims[1]


def test_centre_k2_trivial():
    basis = R.centre(2, "even")
    assert basis.graded_dims == {0: 1, 1: 1}
    assert basis.dimension == 2


def test_centre_echelon_basis_spans_kernel():
    basis = R.centre(4, "even")
    for degree, vectors in basis.basis.items():
        assert len(vectors) == basis.graded_dims[degree]
        for vec in vectors:
            assert all(len(mono) == degree for (_, mono) in vec)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("tie_break", ["lex", "revlex"])
def test_centre_rows_match_oracle(monkeypatch, k, parity, tie_break):
    """The systems handed to ``kernel_basis`` are the rows of the
    monomial-reducing builder: same degrees, row order and entries."""
    systems = []

    def recording(rows, ncols):
        systems.append((ncols, [list(r.items()) for r in rows]))
        return []

    monkeypatch.setattr(linalg, "kernel_basis", recording)
    R.centre(k, parity, tie_break)
    want = [
        (len(variables), [list(r.items()) for r in rows])
        for variables, rows in oracle_centre_rows(k, parity, tie_break).values()
    ]
    assert systems == want


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="rref leaves older pivot columns uncleared, so basis vectors "
    "leave the kernel for k >= 6 (ROADMAP item 1, true RREF)",
)
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_centre_basis_satisfies_every_constraint_row(parity):
    k = 6
    basis = R.centre(k, parity).basis
    for degree, (variables, rows) in oracle_centre_rows(k, parity).items():
        col = {name: c for c, name in enumerate(variables)}
        for vec in basis[degree]:
            x = {col[name]: coeff for name, coeff in vec.items()}
            for row in rows:
                assert sum(v * x.get(c, 0) for c, v in row.items()) == 0


def test_centre_order_independence():
    for k in (3, 4, 5):
        for parity in ("even", "odd"):
            lex = R.centre(k, parity, tie_break="lex")
            rev = R.centre(k, parity, tie_break="revlex")
            assert lex.graded_dims == rev.graded_dims


# --- dictionary and transported maps ----------------------------------------


def test_dictionary_examples():
    a = D.parse_dsl("4: c*(1,2);c(3,4)")
    b = D.parse_dsl("4: c*(1,4);c(2,3)")
    bd = R.diagram_basis_dictionary(a, b)
    monos = [sorted(m) for m, _ in bd.entries]
    assert monos == [[], [4]]
    empty = bd.orientation_of(frozenset())
    assert all(cls == "anticlockwise" for _, cls in empty.circle_classes)
    full = bd.orientation_of(frozenset({4}))
    assert all(cls == "clockwise" for _, cls in full.circle_classes)
    assert [bd.orientation_of(m) for m, _ in bd.entries] == [o for _, o in bd.entries]
    with pytest.raises(KeyError):
        bd.orientation_of(frozenset({2}))
    with pytest.raises(R.NotOrientableError):
        R.diagram_basis_dictionary(a, D.parse_dsl("4: c(1,2);c*(3,4)"))


@pytest.mark.parametrize("k", range(2, 6))
def test_dictionary_degrees(k):
    for parity in ("even", "odd"):
        for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
            if not O.is_orientable(a.star(), b):
                continue
            bd = R.diagram_basis_dictionary(a, b)
            base = O.min_degree_element(a, b)[1]
            for mono, oriented in bd.entries:
                assert oriented.degree == base + 2 * len(mono)


def test_gamma_unit_law_and_identity():
    a = D.parse_dsl("4: c*(1,2);c(3,4)")
    b = D.parse_dsl("4: c*(1,4);c(2,3)")
    ga, gb = R.gamma_maps(a, b)
    ida = O.min_degree_element(a, a)[0].weight
    one_ab = O.min_degree_element(a, b)[0].weight
    assert ga.mapping[ida] == (1, one_ab)
    idb = O.min_degree_element(b, b)[0].weight
    assert gb.mapping[idb] == (1, one_ab)
    # a = b transports to the identity
    gaa, _ = R.gamma_maps(a, a)
    assert all(v == (1, w) for w, v in gaa.mapping.items())


@pytest.mark.parametrize("k", range(1, 7))
def test_gamma_maps_match_oracle(k):
    """The gamma maps transported from the restriction-map entries equal
    the one-monomial-at-a-time reduction, entry for entry and in the same
    order, on every ordered orientable same-parity pair."""
    pairs = 0
    for parity in ("even", "odd"):
        for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
            if not O.is_orientable(a.star(), b):
                continue
            got = R.gamma_maps(a, b)
            want = oracle_gamma_maps(a, b)
            assert got == want
            for g, w in zip(got, want):
                assert list(g.mapping.items()) == list(w.mapping.items())
            pairs += 1
    assert pairs > 0


@pytest.mark.parametrize("k", range(2, 6))
def test_gamma_degree_shift(k):
    for parity in ("even", "odd"):
        nodes = D.maximal_diagrams(k, parity)
        for a, b in itertools.combinations(nodes, 2):
            if not O.is_orientable(a.star(), b):
                continue
            ga, gb = R.gamma_maps(a, b)
            shift = O.min_degree_element(a, b)[1]
            assert ga.degree_shift == shift
            by_weight = {
                o.weight: o.degree
                for o in O.orient_circle_diagram(a.star(), b)
            }
            for g, src in ((ga, a), (gb, b)):
                degrees = {
                    o.weight: o.degree
                    for o in O.orient_circle_diagram(src.star(), src)
                }
                for w, image in g.mapping.items():
                    if image is not None:
                        sign, target = image
                        assert sign in (1, -1)
                        assert by_weight[target] == degrees[w] + shift
