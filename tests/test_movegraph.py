import itertools
import math

import pytest

from cupcalc import diagrams as D
from cupcalc import movegraph as M
from cupcalc import orientation as O
from helpers import (
    count_calls,
    oracle_distance_table,
    oracle_matches,
    oracle_move_graph_arrows,
    oracle_peel_levels,
    oracle_predecessors,
    oracle_reachability,
    oracle_successors,
    oracle_total_order,
)


def enc_set(pairs):
    return {(b.encode(), m.kind) for b, m in pairs}


def test_successor_examples():
    got = enc_set(M.successors(D.parse_dsl("6: c(1,2);c(3,4);c(5,6)")))
    assert ("6: c(1,4);c(2,3);c(5,6)", "I") in got
    got3 = enc_set(M.successors(D.parse_dsl("3: c(1,2);r(3)")))
    assert ("3: r(1);c(2,3)", "I'") in got3


def test_nested_dotted_move_iv():
    a = D.parse_dsl("4: c*(1,4);c(2,3)")
    got = enc_set(M.successors(a))
    assert ("4: c(1,2);c*(3,4)", "IV") in got


def test_move_blocked_by_illegal_target():
    # rewiring (1,2),(5,6) into (1,6),(2,5) would nest the dotted cup
    a = D.parse_dsl("6: c(1,2);c*(3,4);c(5,6)")
    assert all(b.encode() != "6: c(1,6);c*(3,4);c(2,5)" for b, _ in M.successors(a))
    for b, _ in M.successors(a):
        assert b.dot_parity == a.dot_parity


@pytest.mark.parametrize("k", range(2, 9))
def test_moves_preserve_parity_and_invert(k):
    for a in D.maximal_diagrams(k):
        for b, move in M.successors(a):
            assert b.dot_parity == a.dot_parity
            assert (a, move) in M.predecessors(b)
        for b, move in M.predecessors(a):
            assert (a, move) in M.successors(b)


# One literal (source, target) pair per kind, independent of the rule table.
MOVE_EXAMPLES = [
    ("I", "4: c(1,2);c(3,4)", "4: c(1,4);c(2,3)"),
    ("II", "4: c(1,4);c(2,3)", "4: c*(1,2);c*(3,4)"),
    ("III", "4: c*(1,2);c(3,4)", "4: c*(1,4);c(2,3)"),
    ("IV", "4: c*(1,4);c(2,3)", "4: c(1,2);c*(3,4)"),
    ("I'", "3: c(1,2);r(3)", "3: r(1);c(2,3)"),
    ("II'", "3: r(1);c(2,3)", "3: c*(1,2);r*(3)"),
    ("III'", "3: c*(1,2);r(3)", "3: r*(1);c(2,3)"),
    ("IV'", "3: r*(1);c(2,3)", "3: c(1,2);r*(3)"),
]


@pytest.mark.parametrize("kind, source, target", MOVE_EXAMPLES)
def test_each_move_kind_both_directions(kind, source, target):
    a, b = D.parse_dsl(source), D.parse_dsl(target)
    assert (target, kind) in enc_set(M.successors(a))
    assert (source, kind) in enc_set(M.predecessors(b))


@pytest.mark.parametrize("k", range(2, 9))
def test_predecessors_match_brute_force(k):
    incoming = {a: set() for a in D.maximal_diagrams(k)}
    for b in D.maximal_diagrams(k):
        for a, move in M.successors(b):
            incoming[a].add((b, move))
    for a, expected in incoming.items():
        got = M.predecessors(a)
        assert len(got) == len(set(got))
        assert set(got) == expected


@pytest.mark.parametrize("k", range(1, 11))
def test_neighbours_match_validate_oracle(k):
    """The one-walk rewrite check gives the arrows, with their moves, that
    the whole validate gives, on every legal diagram (not only maximal)."""
    for a in D.enumerate_diagrams(k, "any", "all"):
        assert M.successors(a) == oracle_successors(a), a.encode()
        assert M.predecessors(a) == oracle_predecessors(a), a.encode()


def test_cup_forest_matches_validate_oracle(monkeypatch):
    """Cup forests built on the one-walk check equal those built on the
    validate-based matcher, on every maximal diagram with k <= 12."""
    nodes = [a for k in range(1, 13) for a in D.maximal_diagrams(k)]
    forests = [M.cup_forest(a) for a in nodes]
    monkeypatch.setattr(M, "_matches", oracle_matches)
    for a, forest in zip(nodes, forests):
        assert M.cup_forest(a) == forest, a.encode()


@pytest.mark.parametrize("forwards", [True, False])
def test_shape_table_holds_each_rule_once(forwards):
    """Read either way, the shape table has one entry per row of _RULES,
    keyed by the shape of the matched side on vertices 0..n-1."""
    table = M._FORWARDS if forwards else M._BACKWARDS
    assert sorted(kind for kind, _ in table.values()) == sorted(M._RULES)
    for shape, (kind, other_side) in table.items():
        side, other = M._RULES[kind] if forwards else M._RULES[kind][::-1]
        assert other_side == other
        cups_first = sorted(side, key=lambda arc: (type(arc) is D.Ray, arc[0]))
        n_vertices = sum(len(arc) - 1 for arc in side)  # an arc's last field is its dot
        assert M._shape(cups_first) == (shape, tuple(range(n_vertices)))


@pytest.mark.parametrize("k", range(1, 11))
def test_move_graph_arrows_match_successor_oracle(k):
    """Legality by node lookup gives exactly the arrows, in order and
    with their positions, that the _rewire walk gives."""
    for parity in ("even", "odd"):
        assert M.move_graph.__wrapped__(k, parity).arrows == oracle_move_graph_arrows(k, parity)


@pytest.mark.parametrize("k", range(1, 10))
def test_ancestor_bitmasks_match_reachability_oracle(k):
    for parity in ("even", "odd"):
        reach = oracle_reachability(k, parity)
        anc = M._ancestors(k, parity)
        for j, mask in enumerate(anc):
            assert mask == sum(1 << i for i, r in enumerate(reach) if j in r)


@pytest.mark.parametrize("k", range(1, 11))
def test_total_order_matches_encoding_heap_oracle(k):
    for parity in ("even", "odd"):
        for tie_break in ("lex", "revlex"):
            assert M.total_order(k, parity, tie_break) == oracle_total_order(k, parity, tie_break)


def test_move_graph_calls_no_validate(monkeypatch):
    calls = count_calls(monkeypatch, D, "validate")
    for k in range(1, 11):
        for parity in ("even", "odd"):
            M.move_graph.__wrapped__(k, parity)  # bypass the cache
    assert calls == []


@pytest.mark.parametrize(
    "k, arrows", [(2, 0), (3, 2), (4, 2), (5, 15), (6, 15), (7, 84), (8, 84), (9, 420)]
)
def test_arrow_counts_per_parity(k, arrows):
    for parity in ("even", "odd"):
        assert len(M.move_graph(k, parity).arrows) == arrows


@pytest.mark.parametrize(
    "k, parity, nodes",
    [(6, "even", 10), (3, "even", 3), (2, "odd", 1)],
)
def test_graph_sizes(k, parity, nodes):
    graph = M.move_graph(k, parity)
    assert len(graph.nodes) == nodes
    assert graph.is_connected()
    if nodes == 1:
        assert graph.arrows == ()


@pytest.mark.parametrize("k", range(2, 9))
def test_graphs_connected(k):
    for parity in ("even", "odd"):
        assert M.move_graph(k, parity).is_connected()


def test_distance_basics():
    a = D.parse_dsl("3: c(1,2);r(3)")
    assert M.distance(a, a) == 0
    assert M.distance(D.parse_dsl("2: c(1,2)"), D.parse_dsl("2: c*(1,2)")) == math.inf
    assert (
        M.distance(D.parse_dsl("4: c*(1,2);c(3,4)"), D.parse_dsl("4: c(1,2);c*(3,4)"))
        == 2
    )


@pytest.mark.parametrize("k", [*range(2, 9), 10])
def test_distance_equals_cups_minus_circles(k):
    m = k // 2
    for parity in ("even", "odd"):
        nodes = D.maximal_diagrams(k, parity)
        for a, b in itertools.product(nodes, repeat=2):
            mde = O.min_degree_element(a, b)
            if mde is None:
                continue
            circles = len(O.decompose(a.star(), b).circles)
            d = M.distance(a, b)
            assert d == m - circles
            assert d == mde[1]


@pytest.mark.parametrize("k", range(2, 8))
def test_geodesic_meets(k):
    for parity in ("even", "odd"):
        nodes = D.maximal_diagrams(k, parity)
        graph = M.move_graph(k, parity)
        reach = oracle_reachability(k, parity)
        for a, b in itertools.product(nodes, repeat=2):
            c = M.geodesic_meet(a, b)
            assert M.distance(a, c) + M.distance(c, b) == M.distance(a, b)
            ic = graph.index(c)
            assert graph.index(a) in reach[ic] and graph.index(b) in reach[ic]
            if a == b:
                assert c == a
            if any(enc == b.encode() for enc, _ in
                   ((x.encode(), m) for x, m in M.successors(a))):
                assert c == a  # one arrow: the source is the meet


@pytest.mark.parametrize("k", range(1, 9))
def test_distance_and_geodesic_meet_match_the_full_table(k):
    """One BFS row per source gives what the all-pairs table gives."""
    for parity in ("even", "odd"):
        graph = M.move_graph(k, parity)
        table = oracle_distance_table(k, parity)
        reach = oracle_reachability(k, parity)
        n = len(graph.nodes)
        for ia, ib in itertools.product(range(n), repeat=2):
            a, b = graph.nodes[ia], graph.nodes[ib]
            assert M.distance(a, b) == table[ia][ib]
            meet = next(
                ic for ic in range(n)
                if table[ia][ic] + table[ic][ib] == table[ia][ib]
                and ia in reach[ic] and ib in reach[ic]
            )
            assert M.geodesic_meet(a, b) == graph.nodes[meet]


def test_index_rejects_non_maximal_diagram():
    graph = M.move_graph(4, "even")
    with pytest.raises(D.DiagramError, match="not maximal.*k // 2 = 2"):
        graph.index(D.parse_dsl("4: c(1,2);r(3);r(4)"))


def test_non_maximal_rejected_before_parity_comparison():
    non_maximal = D.parse_dsl("4: c(1,2);r(3);r(4)")
    other_parity = D.parse_dsl("4: c*(1,2);c(3,4)")
    for a, b in ((non_maximal, other_parity), (other_parity, non_maximal)):
        with pytest.raises(D.DiagramError, match="not maximal"):
            M.distance(a, b)
        with pytest.raises(D.DiagramError, match="not maximal"):
            M.geodesic_meet(a, b)


def test_geodesic_meet_cross_parity_raises():
    with pytest.raises(M.NoFiniteDistanceError):
        M.geodesic_meet(D.parse_dsl("2: c(1,2)"), D.parse_dsl("2: c*(1,2)"))


def test_total_order_respects_reachability():
    for k, parity in [(5, "even"), (6, "odd"), (4, "even")]:
        order = M.total_order(k, parity)
        position = {d: i for i, d in enumerate(order)}
        for a in order:
            for b, _ in M.successors(a):
                assert position[a] < position[b]
        rev = M.total_order(k, parity, tie_break="revlex")
        assert set(rev) == set(order)
        position_rev = {d: i for i, d in enumerate(rev)}
        for a in order:
            for b, _ in M.successors(a):
                assert position_rev[a] < position_rev[b]


# --- nesting, forest, cells -------------------------------------------------


def census_of(text):
    return M.nesting_census(D.parse_dsl(text))


def test_nesting_census_examples():
    c = census_of("4: c*(1,2);c*(3,4)")
    assert [cup.left for cup in c.outer] == [3]
    assert c.degree_of(D.Cup(1, 2, True)) == 1
    c = census_of("4: c*(1,4);c(2,3)")
    assert [cup.left for cup in c.outer] == [1]
    assert c.degree_of(D.Cup(2, 3, False)) == 1
    c = census_of("4: c(1,2);c(3,4)")
    assert [cup.left for cup in c.outer] == [1, 3]


def test_nesting_degrees_match_peel():
    """Depth plus dotted cups to the right equals the peel, on every
    maximal diagram with k <= 12."""
    for k in range(1, 13):
        for a in D.maximal_diagrams(k):
            census = M.nesting_census(a)
            assert dict(census.degrees) == oracle_peel_levels(a.cups), a.encode()


def test_forest_regression_thirteen_vertices():
    a = D.validate(13, [(1, 8), (2, 5), (3, 4), (6, 7), (9, 12, True), (10, 11)], [13])
    forest = M.cup_forest(a)
    assert [(c.left, c.right) for c in forest.roots] == [(9, 12)]
    assert {
        ((e[0].left, e[0].right), (e[1].left, e[1].right)) for e in forest.edges
    } == {
        ((2, 5), (3, 4)),
        ((1, 8), (2, 5)),
        ((1, 8), (6, 7)),
        ((9, 12), (1, 8)),
        ((9, 12), (10, 11)),
    }
    census = M.nesting_census(a)
    assert census.degree_of(D.Cup(9, 12, True)) == 0
    assert census.degree_of(D.Cup(3, 4, False)) == 3


def test_forest_two_roots_no_edges():
    f = M.cup_forest(D.parse_dsl("4: c(1,2);c(3,4)"))
    assert len(f.roots) == 2 and f.edges == ()
    f = M.cup_forest(D.parse_dsl("2: c*(1,2)"))
    assert len(f.roots) == 1 and f.edges == ()


@pytest.mark.parametrize("k", range(2, 11))
def test_roots_plus_edges_equals_cups(k):
    for a in D.maximal_diagrams(k):
        f = M.cup_forest(a)
        assert f.n_roots + f.n_edges == a.n_cups


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_special_root_rule_odd(k):
    for a in D.maximal_diagrams(k):
        f = M.cup_forest(a)
        ray = a.rays[0]
        if ray.dotted:
            assert set(f.special_roots) == set(f.roots)
        else:
            assert set(f.special_roots) == {c for c in f.roots if c.left > ray.at}


def test_even_k_has_no_special_roots():
    for k in (2, 4, 6):
        for a in D.maximal_diagrams(k):
            assert M.cup_forest(a).special_roots == ()


def test_cell_census_example():
    assert M.cell_census(D.parse_dsl("4: c*(1,2);c*(3,4)")) == (4, 2, 2, 0)


def test_free_cells_b3():
    expected = {
        "3: c(1,2);r(3)": 2,
        "3: c*(1,2);r*(3)": 1,
        "3: r(1);c(2,3)": 1,
        "3: c*(1,2);r(3)": 2,
        "3: c(1,2);r*(3)": 1,
        "3: r*(1);c(2,3)": 1,
    }
    for text, count in expected.items():
        assert M.free_cell_count(D.parse_dsl(text)) == count
    assert sum(expected.values()) == 8


@pytest.mark.parametrize("k", range(2, 13))
def test_free_cells_total_power_of_two(k):
    assert sum(M.free_cell_count(a) for a in D.maximal_diagrams(k)) == 2 ** k


@pytest.mark.parametrize("k", range(2, 9))
def test_free_cells_closed_form(k):
    for a in D.maximal_diagrams(k):
        f = M.cup_forest(a)
        if k % 2 == 0:
            assert M.free_cell_count(a) == 2 ** f.n_roots
        else:
            assert M.free_cell_count(a) == 2 ** (f.n_roots - len(f.special_roots))
        total = len(M.cell_census(a))
        assert total == 2 ** a.n_cups
        assert total - len(M.boundary_census(a)) == M.free_cell_count(a)


def test_dot_export_deterministic():
    g = M.move_graph(3, "even")
    assert g.to_dot() == g.to_dot()
    assert g.to_dot().splitlines()[0] == "digraph moves {"
