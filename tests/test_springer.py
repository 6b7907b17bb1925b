import math
from fractions import Fraction

import pytest

from cupcalc import diagrams as D
from cupcalc import movegraph as M
from cupcalc import orientation as O
from cupcalc import ringcalc as R
from cupcalc import springer as S
from cupcalc.errors import InternalCheckError, SizeError
from helpers import (
    brute_equivariant_dimension,
    brute_equivariant_rows,
    dense_rank,
    oracle_equivariant_dimension,
    oracle_fixed_point_table,
    oracle_graded_dimension,
    oracle_monomial_index,
    oracle_presentation_basis,
    oracle_presentation_relations,
    oracle_relation_classes,
)


@pytest.mark.parametrize("k", range(1, 11))
def test_presentation_dimension(k):
    ring = S.presentation_ring(k)
    assert ring.dimension == 2 ** (k - 1)
    assert sum(ring.graded_dims) == 2 ** (k - 1)


def test_presentation_bases_explicit():
    assert [sorted(m) for m in S.presentation_ring(3).basis] == [[], [1], [2], [3]]
    assert [sorted(m) for m in S.presentation_ring(4).basis] == [
        [],
        [1],
        [2],
        [3],
        [4],
        [1, 4],
        [2, 4],
        [3, 4],
    ]
    assert [sorted(m) for m in S.presentation_ring(2).basis] == [[], [2]]


@pytest.mark.parametrize("k", range(1, 9))
def test_presentation_relation_rank_by_dense_oracle(k):
    ring = S.presentation_ring(k)
    n = 2 ** k
    monos, index = oracle_monomial_index(k)
    rows = oracle_presentation_relations(k)
    assert dense_rank(rows, n) == ring.relation_rank == n - 2 ** (k - 1)
    # the basis spans a complement of the ideal
    assert dense_rank(rows + [{index[m]: Fraction(1)} for m in ring.basis], n) == n
    # the ideal is the deformed ideal at t = 0, whose columns are bitmasks
    mask = {index[m]: sum(1 << (i - 1) for i in m) for m in monos}
    stated = [{mask[c]: v for c, v in row.items()} for row in rows]
    # repeated rows dropped: the same span, a smaller dense elimination
    deformed = list({tuple(sorted(r.items())): r for r in brute_equivariant_rows(k, 0)}.values())
    assert dense_rank(deformed, n) == dense_rank(stated + deformed, n) == ring.relation_rank


def _with_basis(monkeypatch, basis):
    monkeypatch.setattr(S, "presentation_basis", lambda k: [frozenset(m) for m in basis])
    return S.presentation_ring(4)


_BASIS_4 = [(), (1,), (2,), (3,), (4,), (1, 4), (2, 4), (3, 4)]


@pytest.mark.parametrize(
    "basis",
    [
        _BASIS_4[:-1] + [(1, 2, 3, 4)],  # x_34 replaced by the dead x_1234
        [(1, 3) if m == (1,) else m for m in _BASIS_4],  # x_13 shares x_24's class
        _BASIS_4[:-1],  # one monomial short
    ],
)
def test_presentation_certificate_trips(monkeypatch, basis):
    with pytest.raises(InternalCheckError, match="not a complement"):
        _with_basis(monkeypatch, basis)


def test_presentation_certificate_accepts_a_class_mate(monkeypatch):
    basis = [(1, 3) if m == (2, 4) else m for m in _BASIS_4]
    ring = _with_basis(monkeypatch, basis)
    assert [tuple(sorted(m)) for m in ring.basis] == basis
    assert ring.graded_dims == (1, 4, 3, 0, 0) and ring.relation_rank == 8


def test_presentation_graded_dims():
    ring = S.presentation_ring(6)
    assert list(ring.graded_dims) == [1, 6, 15, 10, 0, 0, 0]
    assert ring.graded_dims_cohomological() == {0: 1, 2: 6, 4: 15, 6: 10}


@pytest.mark.parametrize("k", range(2, 11))
@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_equivariant_dimension(k, t):
    assert S.equivariant_specialization(k, t) == 2 ** (k - 1)


@pytest.mark.parametrize("k", range(2, 6))
@pytest.mark.parametrize("t", [0, 1, 2, Fraction(3, 2), -1, -2, Fraction(1, 3)])
def test_equivariant_matches_dense_oracle(k, t):
    assert S.equivariant_specialization(k, t) == brute_equivariant_dimension(k, t)


@pytest.mark.parametrize("k", range(1, 10))
def test_equivariant_matches_fraction_union_find(k):
    for t in [0, 1, -1, 2, 3, Fraction(3, 2), -2, Fraction(1, 3), Fraction(-3, 2)]:
        assert S.equivariant_specialization(k, t) == oracle_equivariant_dimension(k, t), t


def _class_signature(uf):
    """Each class of a ScaledUnionFind as its members, each with its
    exponent relative to the smallest member (modulo the modulus), and
    whether the class is dead: a form independent of which member is
    the root."""
    classes = {}
    for e in range(len(uf.parent)):
        root, w = uf.root_and_weight(e)
        classes.setdefault(root, []).append((e, w))
    signature = set()
    for root, members in classes.items():
        w0 = members[0][1]
        rel = tuple((e, (w - w0) % uf.modulus if uf.modulus else w - w0) for e, w in members)
        signature.add((rel, uf.dead[root]))
    return signature


@pytest.mark.parametrize("k", range(1, 13))
def test_relation_classes_match_generic_loop(k):
    for t in [0, 1, -1, 2, Fraction(3, 2), Fraction(1, 3), Fraction(-2, 5)]:
        new, old = S._relation_classes(k, t), oracle_relation_classes(k, t)
        assert new.modulus == old.modulus
        assert _class_signature(new) == _class_signature(old), t


@pytest.mark.parametrize("k", range(0, 13))
def test_presentation_basis_matches_sorted_subsets(k):
    assert S.presentation_basis(k) == oracle_presentation_basis(k)


@pytest.mark.parametrize("k", [0, -1])
def test_equivariant_rejects_nonpositive_k(k):
    with pytest.raises(ValueError, match="k must be positive"):
        S.equivariant_specialization(k, 2)


@pytest.mark.parametrize(
    "call", [lambda: S.presentation_ring(True), lambda: S.equivariant_specialization(True, 2)]
)
def test_a_bool_is_no_ring_size(call):
    with pytest.raises(SizeError) as exc_info:
        call()
    assert str(exc_info.value) == "k must be positive, got True"


def test_a_bool_is_no_vertex_count_after_k_1_is_cached():
    """The caches keyed by k are typed: entries for k = 1 do not answer
    for True, which reaches the vertex-count rule."""
    D.maximal_diagrams(1, "all")
    M.move_graph(1, "even")
    for call in (
        lambda: D.maximal_diagrams(True, "all"),
        lambda: M.move_graph(True, "even"),
        lambda: R.centre(True, "even"),
        lambda: S.fixed_point_table(True, "even"),
    ):
        with pytest.raises(D.DiagramError) as exc_info:
            call()
        assert str(exc_info.value) == "vertex count must be a positive integer, got True"


def test_index_set_conversions():
    assert str(S.weight_of_index_set({1, 2, 3, 4})) == "^^^^"
    assert str(S.weight_of_index_set({1, -2, 3, 4})) == "^v^^"
    assert str(S.weight_of_index_set({-1, 2, -3, 4})) == "v^v^"
    # fixed-point convention is the sign flip of the two-column one
    flipped = {-i for i in {1, -2, 3, 4}}
    assert S.weight_of_index_set(flipped, "fixed_point") == S.weight_of_index_set(
        {1, -2, 3, 4}, "stable"
    )
    for convention in ("stable", "fixed_point"):
        w = S.weight_of_index_set({1, -2, 3, 4}, convention)
        assert S.index_set_of_weight(w, convention) == frozenset({1, -2, 3, 4})
    # negating the index set flips every symbol of the weight
    for iset in [{1, 2, 3}, {1, -2, 3, 4}, {-1, -2}]:
        w = S.weight_of_index_set(iset)
        negated = S.weight_of_index_set({-i for i in iset})
        assert str(negated) == str(w).translate(str.maketrans("v^", "^v"))


def test_unknown_convention_is_refused_before_any_vertex():
    """Both conversions check the convention once, before reading a
    vertex: an empty weight and a malformed index set refuse it too."""
    for weight in ("", "v^v"):
        with pytest.raises(ValueError, match="unknown convention 'bogus'"):
            S.index_set_of_weight(O.Weight(weight), "bogus")
    for iset in ({1, -2, 3}, {1, -1}):
        with pytest.raises(ValueError, match="unknown convention 'bogus'"):
            S.weight_of_index_set(iset, "bogus")


def test_malformed_index_sets():
    with pytest.raises(S.MalformedIndexSetError):
        S.weight_of_index_set({1, -1, 2})
    with pytest.raises(S.MalformedIndexSetError):
        S.weight_of_index_set({1, 3})
    with pytest.raises(S.MalformedIndexSetError):
        S.weight_of_index_set({0, 1})
    with pytest.raises(S.MalformedIndexSetError, match="signed nonzero integers"):
        S.weight_of_index_set({True, -2})  # True == 1, but a bool is no index
    with pytest.raises(S.MalformedIndexSetError, match=r"exactly one of \+-2: \[1, 3\]$"):
        S.weight_of_index_set({3, 1})


@pytest.mark.parametrize("entries", [{"a", 1}, {None, 2}, {1.5, "x"}])
def test_index_sets_whose_entries_do_not_compare(entries):
    """The refusal lists the entries without sorting them by ``<``."""
    with pytest.raises(S.MalformedIndexSetError, match="signed nonzero integers"):
        S.weight_of_index_set(entries)


def test_unequal_rows_refused():
    with pytest.raises(S.UnequalRowShapeError):
        S.fixed_point_table(4, "odd", shape=(5, 3))
    table = S.fixed_point_table(4, "odd", shape=(4, 4))
    assert table.k == 4


EXAMPLE_TABLE = {
    ("4: c*(1,2);c(3,4)", "4: c*(1,2);c(3,4)"): {"^^v^", "vvv^", "^^^v", "vv^v"},
    ("4: c*(1,4);c(2,3)", "4: c*(1,4);c(2,3)"): {"^^v^", "^v^^", "v^vv", "vv^v"},
    ("4: c(1,2);c*(3,4)", "4: c(1,2);c*(3,4)"): {"v^^^", "^v^^", "v^vv", "^vvv"},
    ("4: c*(1,2);c(3,4)", "4: c*(1,4);c(2,3)"): {"^^v^", "vv^v"},
    ("4: c*(1,4);c(2,3)", "4: c(1,2);c*(3,4)"): {"^v^^", "v^vv"},
    ("4: c*(1,2);c(3,4)", "4: c(1,2);c*(3,4)"): set(),
}


def test_fixed_point_table_k4_odd():
    table = S.fixed_point_table(4, "odd")
    index = {d.encode(): i for i, d in enumerate(table.diagrams)}
    assert len(index) == 3
    for (a, b), expected in EXAMPLE_TABLE.items():
        got = {str(w) for w in table.entry(index[a], index[b])}
        assert got == expected, (a, b)
        got_t = {str(w) for w in table.entry(index[b], index[a])}
        assert got_t == expected


def test_fixed_point_table_k2_even():
    table = S.fixed_point_table(2, "even")
    assert len(table.diagrams) == 1
    assert {str(w) for w in table.entry(0, 0)} == {"v^", "^v"}


@pytest.mark.parametrize("k", range(2, 8))
def test_table_diagonals_and_symmetry(k):
    for parity in ("even", "odd"):
        table = S.fixed_point_table(k, parity)
        for i, d in enumerate(table.diagrams):
            diag = {str(w) for w in table.entry(i, i)}
            assert diag == {str(w) for w in O.orientations_of_cup(d)}
            assert len(diag) == 2 ** d.n_cups
        n = len(table.diagrams)
        for i in range(n):
            for j in range(n):
                assert set(table.entry(i, j)) == set(table.entry(j, i))


@pytest.mark.parametrize("k", [7, 8, 9])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_fixed_point_table_matches_glued_oracle(k, parity):
    assert S.fixed_point_table(k, parity).to_json_dict() == oracle_fixed_point_table(k, parity)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_fixed_point_table_shares_one_weight_per_weight(k, parity):
    """Every cell holding a weight holds the same Weight object, one
    that equals the validated Weight of its text."""
    shared = {}
    for row in S.fixed_point_table(k, parity).entries:
        for cell in row:
            for weight in cell:
                assert shared.setdefault(weight.text, weight) is weight
    for text, weight in shared.items():
        assert weight == O.Weight(text)
    oriented = {w.text for d in D.maximal_diagrams(k, parity) for w in O.orientations_of_cup(d)}
    assert set(shared) == oriented


@pytest.mark.parametrize("k", range(2, 8))
def test_table_empty_iff_quotient_missing(k):
    for parity in ("even", "odd"):
        table = S.fixed_point_table(k, parity)
        for i, a in enumerate(table.diagrams):
            for j, b in enumerate(table.diagrams):
                cell = table.entry(i, j)
                q = R.intersection_quotient(a, b)
                if cell:
                    assert q is not None and len(cell) == q.dimension
                else:
                    assert q is None


def test_graded_dimension_small():
    assert S.arc_algebra_graded_dimension(2).total == 4
    got = S.arc_algebra_graded_dimension(4)
    assert got.total == 40
    assert got.coefficients[0] == len(D.maximal_diagrams(4))


@pytest.mark.parametrize("k", range(2, 8))
def test_graded_dimension_identities(k):
    direct = S.arc_algebra_graded_dimension(k)
    closed = S.arc_algebra_graded_dimension_closed_form(k)
    assert direct == closed
    tables = sum(
        S.fixed_point_table(k, parity).total_count() for parity in ("even", "odd")
    )
    assert direct.total == tables
    assert direct.coefficients[0] == len(D.maximal_diagrams(k))


@pytest.mark.parametrize("k", range(1, 10))
def test_graded_dimension_matches_glued_oracle(k):
    got = S.arc_algebra_graded_dimension(k)
    assert (got.coefficients, got.total) == oracle_graded_dimension(k)


def test_graded_dimension_closed_form_k10():
    """126 maximal diagrams per parity: every same-parity pair."""
    direct = S.arc_algebra_graded_dimension(10)
    assert direct == S.arc_algebra_graded_dimension_closed_form(10)
    assert direct.coefficients[0] == len(D.maximal_diagrams(10)) == 252


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8])
def test_centre_matches_two_presentation_copies(k):
    ring = S.presentation_ring(k)
    even = R.centre(k, "even").graded_dims
    odd = R.centre(k, "odd").graded_dims
    for d in range(k + 1):
        assert even.get(d, 0) + odd.get(d, 0) == 2 * ring.graded_dims[d]


def test_filtration_census_values():
    assert S.filtration_census(3) == [(0, 2), (1, 6)]
    assert sum(c for _, c in S.filtration_census(4)) == 16


@pytest.mark.parametrize("k", range(1, 9))
def test_filtration_census_closed_form(k):
    for j, count in S.filtration_census(k):
        if 2 * j == k:
            assert count == math.comb(k, j)
        else:
            assert count == 2 * math.comb(k, j)


@pytest.mark.parametrize("k", range(1, 21))
def test_binomial_identities(k):
    # census identity
    middle = math.comb(k, k // 2) if k % 2 == 0 else 0
    total = middle + 2 * sum(math.comb(k, j) for j in range(0, (k - 1) // 2 + 1))
    assert total == 2 ** k
    # two-row character dimension identity
    chars = sum(math.comb(k, l) for l in range(0, (k - 1) // 2 + 1))
    if k % 2 == 0:
        chars += math.comb(k, k // 2) // 2
    assert chars == 2 ** (k - 1)
