import itertools
import json
import math

import pytest

from cupcalc import diagrams as D
from cupcalc import tableaux as T
from cupcalc.cli import run
from helpers import (
    brute_domino_tableaux,
    brute_is_admissible_chain,
    oracle_clusters,
    oracle_cup_of_bitableau,
    oracle_cyc,
    oracle_cyc_inverse,
    oracle_from_cup,
    oracle_std_to_cups,
    oracle_to_cup,
)

# every admissible two-row shape with at most fourteen boxes
SHAPES = sorted(
    (r, s)
    for r in range(1, 14)
    for s in range(1, r + 1)
    if (r + s) % 2 == 0 and r + s <= 14 and T.admissible_two_row((r, s))
)


# every two-row domino shape with at most ten dominoes
SMALL_DOMINO_SHAPES = [
    (r, s) for r in range(21) for s in range(r + 1) if (r + s) % 2 == 0 and r + s <= 20
]


def V(label, col):
    return (label, ((1, col), (2, col)))


def Ht(label, col):
    return (label, ((1, col), (1, col + 1)))


def Hb(label, col):
    return (label, ((2, col), (2, col + 1)))


def signed66(doms, signs):
    return T.signed_domino_tableau(T.domino_tableau((6, 6), doms), signs)


def _outcome(f, *args):
    try:
        return f(*args)
    except (D.DiagramError, T.TableauError) as exc:
        return type(exc), str(exc)


def test_admissible_shapes():
    assert T.admissible_two_row((3, 3))
    assert T.admissible_two_row((5, 3))
    assert not T.admissible_two_row((4, 2))
    assert not T.admissible_two_row((2, 0))
    assert T.admissible_two_row((1, 0))


def test_adt_counts_3_3():
    assert len(T.enumerate_adt((3, 3))) == 2
    assert len(T.enumerate_signed((3, 3))) == 6


def test_adt_counts_2_2():
    # one tiling survives (two verticals), with a single signable column
    assert len(T.enumerate_adt((2, 2))) == 1
    assert len(T.enumerate_signed((2, 2))) == 2


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (3, 1), (5, 3)])
def test_standard_enumeration_matches_brute_force(shape):
    brute = brute_domino_tableaux(shape)
    got = sorted(
        tuple(sorted((d.label, d.cells) for d in t.dominoes))
        for t in T.enumerate_dt(shape)
    )
    assert got == brute


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (3, 1), (5, 3), (4, 2)])
def test_admissibility_matches_brute_chain(shape):
    if shape == (4, 2):
        with pytest.raises(T.InadmissibleShapeError):
            T.enumerate_adt(shape)
        return
    for t in T.enumerate_dt(shape):
        cells = tuple((d.label, d.cells) for d in t.dominoes)
        assert T.is_admissible(t) == brute_is_admissible_chain(cells)
        assert T.is_admissible(t) == T.horizontal_rule(t)


@pytest.mark.parametrize("n", range(13))
def test_enumerations_come_in_sorted_order(n):
    """The generators sort nothing: every shape with n dominoes gets the
    tuple that sorting by ``sort_key`` gives."""
    for s in range(n + 1):
        shape = (2 * n - s, s)
        dt = T.enumerate_dt(shape)
        assert dt == tuple(sorted(dt, key=T.DominoTableau.sort_key))
        if T.admissible_two_row(shape):
            signed = T.enumerate_signed(shape)
            assert signed == tuple(sorted(signed, key=T.SignedDominoTableau.sort_key))


def _json_domino(label, cells, sign=None):
    return {"label": label, "cells": [list(c) for c in cells], "sign": sign}


def _bijection_outcome(capsys, tmp_path, src, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = run(["bijection", "--from", src, "--to", "cup", "--input", str(path)])
    out = capsys.readouterr()
    return code, out.out, out.err


_INADMISSIBLE = T.domino_tableau((2, 2), [Ht(1, 1), Hb(2, 1)])

# (call, error class, message, the bijection source and JSON input that
# reach the same check, or None)
_INPUT_CHECKS = [
    (lambda: T.domino_tableau((2, 3), []), T.TableauError,
     "not a two-row domino shape: (2, 3)",
     ("dt", {"shape": [2, 3], "dominoes": []})),
    (lambda: T.domino_tableau((2, 2), [Ht(1, 1), (2, ((1, 1), (2, 1)))]), T.TableauError,
     "overlapping cell (1, 1)",
     ("adt", {"shape": [2, 2], "dominoes": [_json_domino(*Ht(1, 1)),
                                            _json_domino(2, ((1, 1), (2, 1)))]})),
    (lambda: T.domino_tableau((2, 2), [Ht(1, 1), Ht(2, 3)]), T.TableauError,
     "dominoes do not tile the shape (2, 2)",
     ("dt", {"shape": [2, 2], "dominoes": [_json_domino(*Ht(1, 1)), _json_domino(*Ht(2, 3))]})),
    (lambda: T.domino_tableau((2, 2), [Hb(1, 1), Ht(2, 1)]), T.NotStandardError,
     "column decrease at (1, 1)",
     ("dt", {"shape": [2, 2], "dominoes": [_json_domino(*Hb(1, 1)), _json_domino(*Ht(2, 1))]})),
    (lambda: T.signed_domino_tableau(_INADMISSIBLE, []), T.InadmissibleShapeError,
     "tableau violates the truncation condition",
     ("adt", {"shape": [2, 2], "dominoes": [_json_domino(*Ht(1, 1)), _json_domino(*Hb(2, 1))]})),
    (lambda: T.signed_domino_tableau(
        T.domino_tableau((3, 3), [V(1, 1), Ht(2, 2), Hb(3, 2)]), [(1, "x")]),
     T.TableauError, "signs must be '+' or '-'",
     ("adt", {"shape": [3, 3], "dominoes": [_json_domino(*V(1, 1), "x"), _json_domino(*Ht(2, 2)),
                                            _json_domino(*Hb(3, 2))]})),
    (lambda: T.enumerate_dt((2, 3)), T.InadmissibleShapeError,
     "not a two-row domino shape: (2, 3)", None),
    (lambda: T.clusters(_INADMISSIBLE), T.InadmissibleShapeError,
     "clusters require an admissible tableau", None),
    (lambda: T.enumerate_adt((1, 3)), T.InadmissibleShapeError,
     "shape (1, 3) is not admissible", None),
    (lambda: T.std_to_cups((2, 1), (3,)), T.NotStandardError, "rows must increase", None),
    (lambda: T.std_to_cups((), ()), D.DiagramError,
     "vertex count must be a positive integer, got 0", None),
    (lambda: T.cups_to_std(D.parse_dsl("2: c*(1,2)")), T.TableauError,
     "only undecorated diagrams correspond to standard tableaux", None),
    (lambda: T.stable(1, (-1,), (2, 1)), T.TableauError, "columns must have length k",
     ("stable", [[-1], [2, 1]])),
    (lambda: T.stable(2, (-1, -1), (1, 1)), T.TableauError,
     "entries must use each of +-1..+-k once", ("stable", [[-1, -1], [1, 1]])),
    (lambda: T.stable(3, (2, -2, -3), (3, 1, -1)), T.TableauError,
     "filling must be skew-symmetric", ("stable", [[2, -2, -3], [3, 1, -1]])),
]


@pytest.mark.parametrize("call, error, message, cli_input", _INPUT_CHECKS)
def test_input_checks_name_what_is_wrong(capsys, tmp_path, call, error, message, cli_input):
    with pytest.raises(error) as exc_info:
        call()
    assert type(exc_info.value) is error and str(exc_info.value) == message
    if cli_input is not None:
        assert _bijection_outcome(capsys, tmp_path, *cli_input) == (1, "", f"cupcalc: {message}\n")


_NO_VERTEX = "vertex count must be a positive integer, got 0"


@pytest.mark.parametrize("src, payload, message", [
    ("adt", {"shape": [0, 0], "dominoes": []}, _NO_VERTEX),
    ("dt", {"shape": [0, 0], "dominoes": []}, _NO_VERTEX),
    ("bitab", [[], []], _NO_VERTEX),
    ("stable", [[], []], "index set must contain signed nonzero integers: []"),
])
def test_bijection_refuses_the_empty_labelling(capsys, tmp_path, src, payload, message):
    assert _bijection_outcome(capsys, tmp_path, src, payload) == (1, "", f"cupcalc: {message}\n")


def test_rejects_non_domino_labels():
    with pytest.raises(T.TableauError):
        T.domino_tableau((2, 2), [(1, ((1, 1), (2, 2))), (2, ((1, 2), (2, 1)))])
    with pytest.raises(T.NotStandardError):
        T.domino_tableau((3, 3), [V(2, 1), Ht(1, 2), Hb(3, 2)])


def test_signs_must_sit_on_odd_verticals():
    base = T.domino_tableau((3, 3), [V(1, 1), Ht(2, 2), Hb(3, 2)])
    with pytest.raises(T.TableauError):
        T.signed_domino_tableau(base, [(2, "+")])
    t = T.signed_domino_tableau(base, [(1, "-")])
    assert t.sign_of(1) == "-"


def test_cluster_example_nineteen_dominoes():
    doms = [
        V(1, 1), Ht(2, 2), Ht(3, 4), Hb(4, 2), Hb(5, 4), V(6, 6),
        V(7, 7), V(8, 8),
        V(9, 9), Ht(10, 10), Hb(11, 10), V(12, 12),
        V(13, 13), Ht(14, 14), Hb(15, 14), Ht(16, 16), Hb(17, 16), Ht(18, 18), Ht(19, 20),
    ]
    t = T.signed_domino_tableau(
        T.domino_tableau((21, 17), doms), [(1, "+"), (7, "+"), (9, "-"), (13, "+")]
    )
    got = [(c.labels, c.kind) for c in T.clusters(t)]
    assert got == [
        (tuple(range(1, 7)), "closed"),
        ((7, 8), "closed"),
        (tuple(range(9, 13)), "closed"),
        (tuple(range(13, 20)), "open"),
    ]
    assert [c.sign for c in T.clusters(t)] == ["+", "+", "-", "+"]


def test_all_vertical_clusters():
    t = signed66([V(i, i) for i in range(1, 7)], [(1, "+"), (3, "+"), (5, "+")])
    assert [(c.labels, c.kind) for c in T.clusters(t)] == [
        ((1, 2), "closed"),
        ((3, 4), "closed"),
        ((5, 6), "closed"),
    ]


def test_horizontal_pair_forms_single_open_cluster():
    t2 = T.signed_domino_tableau(
        T.domino_tableau((3, 3), [V(1, 1), Ht(2, 2), Hb(3, 2)]), [(1, "+")]
    )
    assert [(c.labels, c.kind) for c in T.clusters(t2)] == [((1, 2, 3), "open")]
    assert T.to_cup(t2).encode() == "3: r(1);c(2,3)"


@pytest.mark.parametrize("shape", SMALL_DOMINO_SHAPES)
def test_clusters_match_the_column_order_decomposition(shape):
    """Cutting the label sequence gives what sorting by column gave, on
    every tableau and signed tableau with at most ten dominoes; both
    refuse the inadmissible ones alike."""
    tableaux = T.enumerate_dt(shape)
    if T.admissible_two_row(shape):
        tableaux += T.enumerate_signed(shape)
    for t in tableaux:
        assert _outcome(T.clusters, t) == _outcome(oracle_clusters, t), t


@pytest.mark.parametrize("n", range(1, 13))
def test_std_to_cups_matches_the_stack_walk(n):
    """The degree-zero walk gives the diagram of the tableau's own stack
    walk for every standard tableau with n entries."""
    for r in range(n + 1):
        for top in itertools.combinations(range(1, n + 1), r):
            bottom = tuple(v for v in range(1, n + 1) if v not in top)
            try:
                d = T.std_to_cups(top, bottom)
            except T.NotStandardError:
                continue
            assert d == oracle_std_to_cups(top, bottom), (top, bottom)


def test_std_to_cups_paper_row():
    # the five standard tableaux of shape (3,2) and their diagrams
    expected = {
        ((1, 2, 5), (3, 4)): "5: c(1,4);c(2,3);r(5)",
        ((1, 3, 5), (2, 4)): "5: c(1,2);c(3,4);r(5)",
        ((1, 3, 4), (2, 5)): "5: c(1,2);r(3);c(4,5)",
        ((1, 2, 4), (3, 5)): "5: r(1);c(2,3);c(4,5)",
        ((1, 2, 3), (4, 5)): "5: r(1);c(2,5);c(3,4)",
    }
    for (top, bottom), enc in expected.items():
        assert T.std_to_cups(top, bottom).encode() == enc
        assert T.cups_to_std(D.parse_dsl(enc)) == (top, bottom)


def test_std_rejects_bad_rows():
    with pytest.raises(T.NotStandardError):
        T.std_to_cups((2, 3), (1,))  # column decreases
    with pytest.raises(T.NotStandardError):
        T.std_to_cups((1,), (2, 3))  # bottom longer
    with pytest.raises(T.NotStandardError):
        T.std_to_cups((1, 2), (2,))  # not a partition of 1..n


@pytest.mark.parametrize("shape", SHAPES)
def test_std_bijection_on_shape(shape):
    """Undecorated diagrams with s cups on r+s vertices are exactly the
    images of the standard tableaux of shape (r, s)."""
    r, s = shape
    tops = itertools.combinations(range(1, r + s + 1), r)
    images = set()
    count = 0
    for top in tops:
        bottom = tuple(sorted(set(range(1, r + s + 1)) - set(top)))
        try:
            d = T.std_to_cups(top, bottom)
        except T.NotStandardError:
            continue
        count += 1
        images.add(d)
        assert T.cups_to_std(d) == (top, bottom)
    expected = {
        d
        for d in D.enumerate_diagrams(r + s, cups=s, dots="none")
    }
    assert images == expected
    assert count == len(expected)


def test_to_cup_paper_examples():
    all_plus = signed66([V(i, i) for i in range(1, 7)], [(1, "+"), (3, "+"), (5, "+")])
    assert T.to_cup(all_plus).encode() == "6: c(1,2);c(3,4);c(5,6)"
    minus = signed66([V(i, i) for i in range(1, 7)], [(1, "-"), (3, "-"), (5, "+")])
    assert T.to_cup(minus).encode() == "6: c*(1,2);c*(3,4);c(5,6)"


@pytest.mark.parametrize("shape", SHAPES)
def test_cup_bijection_round_trip(shape):
    r, s = shape
    k = (r + s) // 2
    pool = T.enumerate_signed(shape)
    images = set()
    for t in pool:
        c = T.to_cup(t)
        images.add(c)
        assert T.from_cup(c) == t
        assert T.from_cup(c, shape) == t
        minus = sum(1 for _, sign in t.signs if sign == "-")
        assert minus % 2 == c.dot_count % 2  # sign/dot parity law
    expected = {
        d
        for d in D.enumerate_diagrams(k, cups=s // 2, dots="all")
        if bool(d.rays) == (s % 2 == 1)
    }
    assert images == expected
    assert len(pool) == len(expected)


def test_from_cup_shape_mismatch():
    c = D.parse_dsl("3: c(1,2);r(3)")
    with pytest.raises(T.ShapeMismatchError):
        T.from_cup(c, (4, 2))
    assert T.from_cup(c, (3, 3)).shape == (3, 3)


# --- cycle moves -------------------------------------------------------------

# ten entries: signed tableaux of shape (6,6), their diagrams and the
# standard tableaux they correspond to under the cycle bijection
BIG_EXAMPLE = [
    (
        ([V(i, i) for i in range(1, 7)], [(1, "+"), (3, "+"), (5, "+")]),
        "6: c(1,2);c(3,4);c(5,6)",
        [Ht(1, 1), Ht(3, 3), Ht(5, 5), Hb(2, 1), Hb(4, 3), Hb(6, 5)],
    ),
    (
        ([V(1, 1), Ht(2, 2), Hb(3, 2), V(4, 4), V(5, 5), V(6, 6)], [(1, "+"), (5, "+")]),
        "6: c(1,4);c(2,3);c(5,6)",
        [Ht(1, 1), Ht(2, 3), Ht(5, 5), Hb(3, 1), Hb(4, 3), Hb(6, 5)],
    ),
    (
        ([V(1, 1), V(2, 2), V(3, 3), Ht(4, 4), Hb(5, 4), V(6, 6)], [(1, "+"), (3, "+")]),
        "6: c(1,2);c(3,6);c(4,5)",
        [Ht(1, 1), Ht(3, 3), Ht(4, 5), Hb(2, 1), Hb(5, 3), Hb(6, 5)],
    ),
    (
        ([V(i, i) for i in range(1, 7)], [(1, "-"), (3, "-"), (5, "+")]),
        "6: c*(1,2);c*(3,4);c(5,6)",
        [V(1, 1), V(2, 2), V(3, 3), V(4, 4), Ht(5, 5), Hb(6, 5)],
    ),
    (
        ([V(1, 1), Ht(2, 2), Hb(3, 2), Ht(4, 4), Hb(5, 4), V(6, 6)], [(1, "+")]),
        "6: c(1,6);c(2,3);c(4,5)",
        [Ht(1, 1), Ht(2, 3), Ht(4, 5), Hb(3, 1), Hb(5, 3), Hb(6, 5)],
    ),
    (
        ([V(i, i) for i in range(1, 7)], [(1, "+"), (3, "-"), (5, "-")]),
        "6: c(1,2);c*(3,4);c*(5,6)",
        [Ht(1, 1), Hb(2, 1), V(3, 3), V(4, 4), V(5, 5), V(6, 6)],
    ),
    (
        ([V(1, 1), V(2, 2), V(3, 3), Ht(4, 4), Hb(5, 4), V(6, 6)], [(1, "-"), (3, "-")]),
        "6: c*(1,2);c*(3,6);c(4,5)",
        [V(1, 1), V(2, 2), V(3, 3), Ht(4, 4), Hb(5, 4), V(6, 6)],
    ),
    (
        ([V(1, 1), Ht(2, 2), Ht(3, 4), Hb(4, 2), Hb(5, 4), V(6, 6)], [(1, "+")]),
        "6: c(1,6);c(2,5);c(3,4)",
        [Ht(1, 1), Ht(2, 3), Ht(3, 5), Hb(4, 1), Hb(5, 3), Hb(6, 5)],
    ),
    (
        ([V(1, 1), Ht(2, 2), Hb(3, 2), V(4, 4), V(5, 5), V(6, 6)], [(1, "-"), (5, "-")]),
        "6: c*(1,4);c(2,3);c*(5,6)",
        [V(1, 1), Ht(2, 2), Hb(3, 2), V(4, 4), V(5, 5), V(6, 6)],
    ),
    (
        ([V(i, i) for i in range(1, 7)], [(1, "-"), (3, "+"), (5, "-")]),
        "6: c*(1,2);c(3,4);c*(5,6)",
        [V(1, 1), V(2, 2), Ht(3, 3), Hb(4, 3), V(5, 5), V(6, 6)],
    ),
]


def test_big_example_ten_entries():
    for doms_signs, enc, dt_doms in BIG_EXAMPLE:
        t = signed66(*doms_signs)
        assert T.to_cup(t).encode() == enc
        expected = T.domino_tableau((6, 6), dt_doms)
        assert T.cyc(t) == expected
        assert T.cyc_inverse(expected) == t


def test_cyc_leaves_all_minus_verticals():
    t = signed66([V(i, i) for i in range(1, 7)], [(1, "-"), (3, "-"), (5, "-")])
    assert T.cyc(t) == t.base


def test_cyc_preserves_shape_and_labels():
    for shape in [(4, 4), (6, 6), (5, 3), (7, 5)]:
        for t in T.enumerate_signed(shape):
            S = T.cyc(t)
            assert S.shape == t.shape
            assert [d.label for d in S.dominoes] == [d.label for d in t.dominoes]


@pytest.mark.parametrize("shape", SHAPES)
def test_cycle_bijection_on_classes(shape):
    dts = T.enumerate_dt(shape)
    for S in dts:
        assert T.cyc(T.cyc_inverse(S)) == S
    classes = {tuple(sorted(t2.sort_key() for t2 in T.cl_class(t))) for t in T.enumerate_signed(shape)}
    assert len(classes) == len(dts)
    for t in T.enumerate_signed(shape):
        assert T.cyc_inverse(T.cyc(t)) in T.cl_class(t)


def test_cl_class_sizes():
    open_shape = T.enumerate_signed((3, 3))
    assert {len(T.cl_class(t)) for t in open_shape} == {2}
    closed_shape = T.enumerate_signed((4, 4))
    assert {len(T.cl_class(t)) for t in closed_shape} == {1}


# --- label walk against the cluster oracles ----------------------------------


def test_verticals_alternate_in_label_order():
    """Both rows are equally long under every vertical and only
    horizontals lie between two verticals, so verticals read V1, V0, V1,
    ... in label order on every standard tableau: the law that lets the
    label walk in ``to_cup``/``cyc`` run without a guard."""
    count = 0
    for shape in SMALL_DOMINO_SHAPES:
        for t in T.enumerate_dt(shape):
            kinds = [d.kind for d in t.dominoes if d.kind != "H"]
            assert kinds == ["V1", "V0"] * (len(kinds) // 2) + ["V1"] * (len(kinds) % 2), t
            count += 1
    assert count == 2047


def test_bijections_match_cluster_oracles():
    """to_cup, cyc and cl_class on every signed tableau, and cyc_inverse on
    every standard tableau of each admissible shape with n <= 10, equal
    the cluster-and-rectangle versions they replaced."""
    signed = standard = 0
    for shape in SMALL_DOMINO_SHAPES:
        if not T.admissible_two_row(shape):
            continue
        for t in T.enumerate_signed(shape):
            signed += 1
            assert _outcome(T.to_cup, t) == _outcome(oracle_to_cup, t), t
            assert T.cyc(t) == oracle_cyc(t), t
            is_open = any(cl.kind == "open" for cl in T.clusters(t))
            assert t in T.cl_class(t) and len(T.cl_class(t)) == 1 + is_open
        for S in T.enumerate_dt(shape):
            standard += 1
            assert T.cyc_inverse(S) == oracle_cyc_inverse(S), S
    assert signed == 2047  # 2046 and the empty tableau
    assert standard == 1199


def test_built_tableaux_pass_every_check():
    """Every tableau that _place builds, through enumerate_dt,
    enumerate_signed, from_cup, cyc and cyc_inverse (n, k <= 10), comes
    back unchanged from domino_tableau and signed_domino_tableau."""

    def checked(t):
        if isinstance(t, T.SignedDominoTableau):
            return T.signed_domino_tableau(checked(t.base), t.signs)
        return T.domino_tableau(t.shape, t.dominoes)

    built = [c for k in range(1, 11) for c in D.enumerate_diagrams(k, "any", "all")]
    built = [T.from_cup(c) for c in built]
    for shape in SMALL_DOMINO_SHAPES:
        built.extend(T.enumerate_dt(shape))
        if T.admissible_two_row(shape):
            signed = T.enumerate_signed(shape)
            built.extend(signed)
            built.extend(T.cyc(t) for t in signed)
            built.extend(T.cyc_inverse(S) for S in T.enumerate_dt(shape))
    for t in built:
        assert checked(t) == t, t


def test_from_cup_matches_oracle():
    """from_cup equals the region-filling version it replaced on every
    diagram with k <= 10, and under a wrong shape raises the same error."""
    count = 0
    for k in range(1, 11):
        for c in D.enumerate_diagrams(k, "any", "all"):
            assert T.from_cup(c) == oracle_from_cup(c), c
            count += 1
        wrong = (2 * k, 0)  # no diagram has neither cups nor rays
        refused = _outcome(T.from_cup, c, wrong)
        assert refused[0] is T.ShapeMismatchError
        assert refused == _outcome(oracle_from_cup, c, wrong)
    assert count == 2046


# --- bitableaux ---------------------------------------------------------------


def test_bitableau_examples():
    assert T.bitableau_of_cup(D.parse_dsl("4: c*(1,2);c(3,4)")) == T.Bitableau((2, 3), (1, 4))
    assert T.bitableau_of_cup(D.parse_dsl("4: c(1,2);c(3,4)")) == T.Bitableau((1, 3), (2, 4))


def test_bitableau_marks_one_endpoint_per_arc():
    for k in range(2, 8):
        for d in D.enumerate_diagrams(k, "any", "all"):
            bt = T.bitableau_of_cup(d)
            assert len(bt.marked) == d.n_cups + len(d.rays)
            assert set(bt.marked) | set(bt.unmarked) == set(range(1, k + 1))


@pytest.mark.parametrize("k", range(2, 8))
def test_bitableau_injective_per_dot_parity(k):
    for n_cups in range(0, k // 2 + 1):
        for dots in ("even", "odd"):
            seen = {}
            for d in D.enumerate_diagrams(k, cups=n_cups, dots=dots):
                bt = T.bitableau_of_cup(d)
                assert bt not in seen
                seen[bt] = d
                assert T.cup_of_bitableau(bt, k, dots) == d


def test_bitableau_ray_dot_is_ambiguous():
    bt = T.bitableau_of_cup(D.parse_dsl("3: c(1,2);r(3)"))
    assert bt == T.bitableau_of_cup(D.parse_dsl("3: c(1,2);r*(3)"))
    with pytest.raises(T.TableauError, match="ambiguous"):
        T.cup_of_bitableau(bt, 3)
    assert T.cup_of_bitableau(bt, 3, "even").encode() == "3: c(1,2);r(3)"
    assert T.cup_of_bitableau(bt, 3, "odd").encode() == "3: c(1,2);r*(3)"


def test_bitableau_unique_without_rays():
    for d in D.maximal_diagrams(4):
        assert T.cup_of_bitableau(T.bitableau_of_cup(d), 4) == d


@pytest.mark.parametrize("k", range(1, 11))
def test_cup_of_bitableau_matches_scan(k):
    """The parenthesis walk agrees with the scan over enumerate_diagrams on
    every marking, results and error messages alike."""
    for bits in itertools.product((True, False), repeat=k):
        marked = tuple(v for v, b in enumerate(bits, 1) if b)
        unmarked = tuple(v for v, b in enumerate(bits, 1) if not b)
        bt = T.Bitableau(marked, unmarked)
        for dots in ("all", "even", "odd", "none"):
            expected = _outcome(oracle_cup_of_bitableau, bt, k, dots)
            assert _outcome(T.cup_of_bitableau, bt, k, dots) == expected, (bt, dots)


@pytest.mark.parametrize(
    "marked, unmarked, k, dots",
    [
        ((1, 1), (2,), 3, "all"),      # duplicate entry
        ((1, 3), (2, 3), 4, "even"),   # vertex in both rows
        ((0,), (1,), 2, "all"),
        ((1,), (0,), 2, "odd"),
        (("a",), (1,), 2, "even"),
        (("1",), ("2",), 2, "all"),
        ((3, 1), (2, 4), 4, "all"),    # unsorted row
        ((5,), (1, 2), 3, "all"),
        ((), (1, 2), 2, "all"),
        ((), (), 0, "all"),
        ((), (), 0, "bogus"),          # k is reported before the dot filter
        ((1,), (2,), -1, "all"),
        ((1,), (2,), 2, "bogus"),
    ],
)
def test_cup_of_bitableau_malformed_matches_scan(marked, unmarked, k, dots):
    bt = T.Bitableau(marked, unmarked)
    outcome = _outcome(T.cup_of_bitableau, bt, k, dots)
    assert isinstance(outcome, tuple)
    assert outcome == _outcome(oracle_cup_of_bitableau, bt, k, dots)


def test_cup_of_bitableau_refuses_a_bool_vertex_count():
    with pytest.raises(D.DiagramError) as exc_info:
        T.cup_of_bitableau(T.Bitableau((1,), ()), True)
    assert str(exc_info.value) == "vertex count must be a positive integer, got True"


def test_bitableau_image_count_b4():
    images = {T.bitableau_of_cup(d) for d in D.maximal_diagrams(4)}
    assert len(images) == 6
    # ordered pairs: the two rows are distinguishable
    unordered = {frozenset((bt.marked, bt.unmarked)) for bt in images}
    assert len(unordered) == 3


# --- skew-symmetric two-column tables -----------------------------------------


def test_stable_validation():
    p = T.stable(2, (-1, -2), (2, 1))
    assert p.index_set == frozenset({1, 2})
    with pytest.raises(T.TableauError):
        T.stable(2, (2, -1), (1, -2))  # row increase fails
    with pytest.raises(T.TableauError):
        T.stable(2, (-1, -2), (1, 2))  # columns must decrease


def test_stable_examples():
    assert T.stable_to_cup(T.stable_of_index_set({1, 2, 3, 4})).encode() == "4: c*(1,2);c*(3,4)"
    assert T.stable_to_cup(T.stable_of_index_set({-1, 2, -3, 4})).encode() == "4: c(1,2);c(3,4)"


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_stable_bijection_even(k):
    tables = T.enumerate_stables(k)
    images = {T.stable_to_cup(p) for p in tables}
    maximal = set(D.maximal_diagrams(k))
    assert len(tables) == len(images) == len(maximal)
    assert images == maximal
    for p in tables:
        assert T.cup_to_stable(T.stable_to_cup(p)) == p


@pytest.mark.parametrize("k", range(1, 8))
def test_cup_to_stable_round_trips_or_names_the_diagram(k):
    """Every legal diagram either has a table that maps back to it, or is
    refused by a message that names the diagram, not a table the caller
    never gave.  The tables reached are exactly the skew-symmetric ones."""
    reached = set()
    for d in D.enumerate_diagrams(k, "any", "all"):
        try:
            p = T.cup_to_stable(d)
        except T.TableauError as e:
            assert str(e) == f"no skew-symmetric table realizes {d.encode()}"
        else:
            assert T.stable_to_cup(p) == d
            reached.add(p)
    assert reached == set(T.enumerate_stables(k))


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_stable_odd_k_report(k):
    """For odd k the assignment stays injective into the maximal diagrams
    but covers exactly half of them."""
    tables = T.enumerate_stables(k)
    images = {T.stable_to_cup(p) for p in tables}
    maximal = set(D.maximal_diagrams(k))
    assert len(images) == len(tables)
    assert images < maximal
    assert 2 * len(images) == len(maximal)


# --- JSON forms ----------------------------------------------------------------


def test_tableau_json_round_trip():
    for shape in [(3, 3), (4, 4), (5, 3)]:
        for t in T.enumerate_signed(shape):
            obj = T.tableau_to_json_dict(t)
            assert T.tableau_from_json_dict(obj, signed=True) == t
        for S in T.enumerate_dt(shape):
            obj = T.tableau_to_json_dict(S)
            assert all(d["sign"] is None for d in obj["dominoes"])
            assert T.tableau_from_json_dict(obj, signed=False) == S


def test_bitableau_and_stable_json():
    bt = T.Bitableau((1, 3), (2, 4))
    assert T.bitableau_from_json(T.bitableau_to_json(bt)) == bt
    p = T.stable_of_index_set({1, -2, 3, 4})
    assert T.stable_from_json(T.stable_to_json(p)) == p
