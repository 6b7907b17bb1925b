import ast
import contextlib
import copy
import importlib
import io
import json
import os
import re
import subprocess
import sys
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupcalc import cli
from cupcalc import diagrams as D
from cupcalc import movegraph as M
from cupcalc import orientation as O
from cupcalc import ringcalc as R
from cupcalc import springer as S
from cupcalc import tableaux as T
from cupcalc.cli import _dump_from_cup, run
from cupcalc.errors import InternalCheckError, SizeError
from helpers import oracle_enumerate_diagrams, oracle_orient_circle_diagram, oracle_parser


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    code, out, _ = capture(capsys, ["--version"])
    assert code == 0
    assert out.startswith("cupcalc ")


def test_unknown_flag_rejected(capsys):
    code, _, err = capture(capsys, ["enumerate", "--k", "3", "--frobnicate"])
    assert code == 1
    assert "frobnicate" in err


def test_unknown_verb_rejected(capsys):
    code, _, _ = capture(capsys, ["frobnicate"])
    assert code == 1


def test_enumerate_b3(capsys):
    code, out, _ = capture(capsys, ["enumerate", "--k", "3", "--cups", "max"])
    assert code == 0
    assert out.splitlines() == [
        "3: c(1,2);r(3)",
        "3: c(1,2);r*(3)",
        "3: c*(1,2);r(3)",
        "3: c*(1,2);r*(3)",
        "3: r(1);c(2,3)",
        "3: r*(1);c(2,3)",
    ]


def test_enumerate_json_and_determinism(capsys):
    code, first, _ = capture(capsys, ["enumerate", "--k", "4", "--format", "json"])
    assert code == 0
    assert len(json.loads(first)) == 6
    _, second, _ = capture(capsys, ["enumerate", "--k", "4", "--format", "json"])
    assert first == second


@pytest.mark.parametrize("k", range(1, 13))
def test_enumerate_stdout_matches_the_oracle(capsys, k):
    """Both formats print, byte for byte, what printing the members of the
    old build-and-sort enumeration gives, for every dot filter and cup
    count."""
    for cups in ["max", "any", *range(k // 2 + 1)]:
        for parity in ("all", "even", "odd", "none"):
            encodings = [d.encode() for d in oracle_enumerate_diagrams(k, cups, parity)]
            argv = ["enumerate", "--k", str(k), "--parity", parity, "--cups", str(cups)]
            assert capture(capsys, argv) == (0, "".join(f"{e}\n" for e in encodings), "")
            assert capture(capsys, argv + ["--format", "json"]) == (
                0, json.dumps(encodings, indent=2) + "\n", ""
            )


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {},
        "text",
        [{"weight": "^v", "degree": 0}],
        [{"weight": "^v" * 20, "degree": d, "nested": [[None, True, 1.5], {}]} for d in range(5000)],
        {"k": 3, "table": [[["^v", "v^"]] * 40 for _ in range(40)], "t": (1, "x")},
        [list(range(5000)), ["é"] * 5000, {"big": list(range(4097))}, {1: [[[2]]] * 5000}],
        {"a": {"b": {"c": [[[[]]]] * 2000}}, "d": [(), {}, [{}]]},
    ],
    ids=["empty-list", "empty-dict", "string", "one-row", "many-batches", "tall-table",
         "long-leaves", "deep"],
)
def test_emit_json_writes_what_json_dumps_gives(capsys, payload):
    want = json.dumps(payload, indent=2) + "\n"
    cli._emit_json(payload)
    assert capsys.readouterr().out == want
    if isinstance(payload, list):  # and a list's rows streamed in batches
        cli._emit_json_rows(iter(payload))
        assert capsys.readouterr().out == want


_JSON_TEXT = st.text(st.characters(blacklist_categories=()))  # lone surrogates too
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-10 ** 60, max_value=10 ** 60)
    | st.floats(allow_nan=True, allow_infinity=True) | _JSON_TEXT
)
_JSON_KEYS = _JSON_TEXT | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_JSON_TEXT, inner)
    | st.dictionaries(_JSON_KEYS, inner),
    max_leaves=40,
)


def _emitted(emit, value) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(value)
    return out.getvalue()


@given(_JSON_VALUES)
@settings(max_examples=400, deadline=None)
def test_json_writer_matches_json_dumps(value):
    """Any value json writes, with non-ASCII text, control characters,
    lone surrogates, big ints, nan and infinities, tuples and non-string
    keys: the writer gives json's bytes."""
    want = json.dumps(value, indent=2) + "\n"
    assert _emitted(cli._emit_json, value) == want
    if isinstance(value, (list, tuple)):
        assert _emitted(cli._emit_json_rows, iter(value)) == want


@pytest.mark.parametrize(
    "value",
    [{1, 2}, [1, object()], {"a": [{"b": {3}}]}, {(1, 2): 3}, {"a": 1, (1,): 2}, [b"x"] * 5000],
    ids=["set", "object", "nested-set", "tuple-key", "late-tuple-key", "bytes-in-long-list"],
)
def test_json_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        _emitted(cli._emit_json, value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("k", range(1, 10))
def test_intersect_json_is_json_dumps_of_the_table(capsys, k):
    for parity in ("even", "odd"):
        want = json.dumps(S.fixed_point_table(k, parity).to_json_dict(), indent=2) + "\n"
        argv = ["intersect", "--k", str(k), "--parity", parity, "--format", "json"]
        assert capture(capsys, argv) == (0, want, "")


def test_orient_json_is_json_dumps_of_the_rows(capsys):
    cup = D.parse_dsl("12: c(1,2);c(3,6);c(4,5);c(7,12);c(8,11);c(9,10)")
    cap = D.parse_dsl("12: c(1,4);c(2,3);c(5,6);c(7,8);c(9,10);c(11,12)")
    for argv, graded in (
        (["--cup", cup.encode()], O.graded_orientations(cup)),
        (["--cup", cup.encode(), "--cap", cap.encode()],
         [(o.weight, o.degree) for o in O.orient_circle_diagram(cap.star(), cup)]),
    ):
        rows = [{"weight": str(w), "degree": d} for w, d in graded]
        assert len(rows) > 1
        want = json.dumps(rows, indent=2) + "\n"
        assert capture(capsys, ["orient", *argv, "--format", "json"]) == (0, want, "")


def _side_by_side(cups):
    return f"{2 * cups}: " + ";".join(f"c({i},{i + 1})" for i in range(1, 2 * cups, 2))


@pytest.mark.parametrize(
    "argv, count",
    [
        (["--cup", "2: c(1,2)", "--cap", "2: c*(1,2)"], 0),
        (["--cup", "1: r(1)", "--cap", "1: r*(1)"], 0),
        (["--cup", "1: r(1)", "--cap", "1: r(1)"], 1),
        (["--cup", _side_by_side(10)], 1024),
        (["--cup", _side_by_side(11)], 2048),
        (["--cup", _side_by_side(10), "--cap", _side_by_side(10)], 1024),
    ],
    ids=[
        "inconsistent-circle", "clashing-rays", "one-record", "cup-1024", "cup-2048", "pair-1024",
    ],
)
def test_orient_json_is_written_as_json_dumps(capsys, argv, count):
    """The streamed rows are the bytes of ``json.dumps(rows, indent=2)``:
    no rows, one row, and whole batches of rows."""
    cup = D.parse_dsl(argv[1])
    if len(argv) == 2:
        graded = O.graded_orientations(cup)
    else:
        cap = D.parse_dsl(argv[3])
        graded = [(o.weight, o.degree) for o in O.orient_circle_diagram(cap.star(), cup)]
    rows = [{"weight": str(w), "degree": d} for w, d in graded]
    assert len(rows) == count
    want = json.dumps(rows, indent=2) + "\n"
    assert capture(capsys, ["orient", *argv, "--format", "json"]) == (0, want, "")


@pytest.mark.parametrize("k", range(1, 7))
def test_orient_json_of_every_maximal_pair_is_json_dumps(capsys, k):
    for a in D.maximal_diagrams(k):
        for b in D.maximal_diagrams(k):
            oriented = oracle_orient_circle_diagram(b.star(), a)
            rows = [{"weight": str(o.weight), "degree": o.degree} for o in oriented]
            want = json.dumps(rows, indent=2) + "\n"
            argv = ["orient", "--cup", a.encode(), "--cap", b.encode(), "--format", "json"]
            assert capture(capsys, argv) == (0, want, "")


def test_enumerate_invalid_input(capsys):
    code, _, err = capture(capsys, ["enumerate", "--k", "0"])
    assert code == 1 and err


def test_render_ascii(capsys):
    code, out, _ = capture(capsys, ["render", "--diagram", "2: c*(1,2)"])
    assert code == 0
    assert out == "( )\n *\n"


def test_render_json_round_trip(capsys):
    code, out, _ = capture(
        capsys, ["render", "--diagram", "4: c*(1,4);c(2,3)", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["k", "cups", "rays"]


def test_render_bad_dsl(capsys):
    code, _, err = capture(capsys, ["render", "--diagram", "2: c(1"])
    assert code == 1
    assert "syntax error" in err


def test_movegraph_dot(capsys):
    code, out, _ = capture(capsys, ["movegraph", "--k", "6", "--parity", "even", "--dot"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph moves {"
    assert sum(1 for l in lines if l.strip().endswith('";')) == 10


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("k", range(1, 11))
def test_movegraph_text_is_the_json_payload_line_by_line(capsys, k, parity):
    """Text output is written straight from the graph; it must read as
    the JSON payload's nodes, then one line per arrow."""
    argv = ["movegraph", "--k", str(k), "--parity", parity]
    code, text, _ = capture(capsys, argv)
    _, payload, _ = capture(capsys, argv + ["--format", "json"])
    graph = json.loads(payload)
    expected = graph["nodes"] + [f"{a['from']}  --{a['move']}-->  {a['to']}" for a in graph["arrows"]]
    assert code == 0
    assert text == "".join(line + "\n" for line in expected)


def test_distance(capsys):
    code, out, _ = capture(
        capsys, ["distance", "--a", "4: c*(1,2);c(3,4)", "--b", "4: c(1,2);c*(3,4)"]
    )
    assert (code, out.strip()) == (0, "2")
    code, out, _ = capture(
        capsys, ["distance", "--a", "2: c(1,2)", "--b", "2: c*(1,2)"]
    )
    assert (code, out.strip()) == (0, "infinity")
    code, out, _ = capture(
        capsys,
        ["distance", "--a", "2: c(1,2)", "--b", "2: c*(1,2)", "--format", "json"],
    )
    assert json.loads(out) == {"distance": None}


def test_distance_rejects_non_maximal(capsys):
    code, out, err = capture(
        capsys, ["distance", "--a", "4: c(1,2);r(3);r(4)", "--b", "4: c(1,2);c(3,4)"]
    )
    assert (code, out) == (1, "")
    assert "maximal" in err and "4: c(1,2);r(3);r(4)" in err


def test_distance_rejects_non_maximal_across_parities(capsys):
    """Maximality is checked before the dot parities are compared."""
    code, out, err = capture(
        capsys, ["distance", "--a", "4: c(1,2);r(3);r(4)", "--b", "4: c*(1,2);c(3,4)"]
    )
    assert (code, out) == (1, "")
    assert err == "cupcalc: 4: c(1,2);r(3);r(4) is not maximal: it has 1 of the k // 2 = 2 cups\n"


def test_orient_cup_only(capsys):
    code, out, _ = capture(
        capsys, ["orient", "--cup", "5: c(1,4);c(2,3);r(5)", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)
    assert {r["weight"]: r["degree"] for r in rows}["v^v^v"] == 1


def test_orient_glued(capsys):
    code, out, _ = capture(
        capsys,
        [
            "orient",
            "--cup",
            "4: c*(1,4);c(2,3)",
            "--cap",
            "4: c*(1,2);c(3,4)",
            "--format",
            "json",
        ],
    )
    rows = json.loads(out)
    assert {r["weight"] for r in rows} == {"^^v^", "vv^v"}


def test_cohomology_centre(capsys):
    code, out, _ = capture(capsys, ["cohomology", "centre", "--k", "5", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["total_dimension"] == 32
    assert obj["even"]["graded"][0] == {"degree": 0, "dim": 1}


@pytest.mark.parametrize("k", range(1, 7))
def test_cohomology_centre_text_is_the_json_payload(capsys, k):
    code, out, _ = capture(capsys, ["cohomology", "centre", "--k", str(k), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    expected = [
        f"{parity}: dimension {payload[parity]['dimension']} ("
        + ", ".join(f"q^{g['degree']}: {g['dim']}" for g in payload[parity]["graded"])
        + ")"
        for parity in ("even", "odd")
    ]
    expected.append(f"total dimension {payload['total_dimension']}")
    code, out, err = capture(capsys, ["cohomology", "centre", "--k", str(k)])
    assert (code, err) == (0, "")
    assert out.splitlines() == expected


def test_cohomology_springer(capsys):
    code, out, _ = capture(capsys, ["cohomology", "springer", "--k", "4", "--format", "json"])
    obj = json.loads(out)
    assert obj["dimension"] == 8
    assert obj["basis"][0] == []
    code, out, _ = capture(
        capsys, ["cohomology", "springer", "--k", "4", "--t", "3/2", "--format", "json"]
    )
    assert json.loads(out)["dimension"] == 8


def test_intersect_example(capsys):
    code, out, _ = capture(capsys, ["intersect", "--k", "4", "--parity", "odd"])
    assert code == 0
    obj = json.loads(out)
    cells = {
        (a, b): frozenset(cell)
        for a, row in zip(obj["diagrams"], obj["table"])
        for b, cell in zip(obj["diagrams"], row)
    }
    a1, a2, a3 = "4: c*(1,2);c(3,4)", "4: c*(1,4);c(2,3)", "4: c(1,2);c*(3,4)"
    assert cells[(a1, a3)] == frozenset()
    assert cells[(a1, a2)] == {"^^v^", "vv^v"}
    assert cells[(a1, a1)] == {"^^v^", "vvv^", "^^^v", "vv^v"}


@pytest.mark.parametrize("t", ["1e999999999", "-2.5E+10000", "1e4_301", "1e-4301", " 7e+0004301 "])
def test_cohomology_springer_bounds_the_exponent_of_t_before_any_work(capsys, monkeypatch, t):
    def no_work(*args):
        raise AssertionError("the exponent is checked before any work")

    monkeypatch.setattr(S, "equivariant_specialization", no_work)
    code, out, err = capture(capsys, ["cohomology", "springer", "--k", "4", f"--t={t}"])
    assert (code, out, err) == (
        1, "", f"cupcalc: --t takes a decimal exponent of at most 4300 in absolute value, got {t!r}\n"
    )


@pytest.mark.parametrize("t", ["1e3", "1e4300", "-1.5e-4300", "2E+0_3"])
def test_cohomology_springer_takes_a_bounded_exponent(capsys, t):
    code, out, err = capture(capsys, ["cohomology", "springer", "--k", "4", f"--t={t}"])
    assert (code, out, err) == (0, f"dimension 8 at t = {t}\n", "")


def test_negative_t_is_named_in_the_usage_error(capsys):
    code, out, err = capture(capsys, ["cohomology", "springer", "--k", "4", "--t", "-3/2"])
    assert (code, out, err) == (
        1, "", "cupcalc: argument --t: expected one argument; write a negative value as --t=-3/2\n"
    )
    assert capture(capsys, ["cohomology", "springer", "--k", "4", "--t=-3/2"]) == (
        0, "dimension 8 at t = -3/2\n", ""
    )


def test_cohomology_springer_rejects_bad_rational(capsys):
    for t in ("1/0", "abc", "1/"):
        code, out, err = capture(capsys, ["cohomology", "springer", "--k", "4", "--t", t])
        assert (code, out) == (1, "")
        assert err == (
            "cupcalc: --t must be a rational number such as 3/2 "
            f"(nonzero denominator), got {t!r}\n"
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cohomology", "centre", "--k", "3", "--t", "2"], "--t is for cohomology springer only"),
        (["cohomology", "springer", "--k", "3", "--basis"], "--basis is for cohomology centre only"),
        (["cohomology", "centre", "--k", "3", "--basis"], "--basis needs --format json"),
        (["cohomology", "centre", "--k", "3", "--basis", "--format", "text"], "--basis needs --format json"),
        (
            ["movegraph", "--k", "3", "--parity", "odd", "--dot", "--format", "json"],
            "--dot writes Graphviz DOT, not --format json",
        ),
        (
            ["bijection", "--from", "cup", "--to", "adt", "--input", "missing.json", "--parity", "even"],
            "--parity is for --from bitab only",
        ),
        (
            ["bijection", "--from", "stable", "--to", "bitab", "--input", "-", "--parity", "odd"],
            "--parity is for --from bitab only",
        ),
    ],
)
def test_cohomology_refuses_a_flag_it_would_ignore(capsys, monkeypatch, argv, message):
    """A request refuses a flag it would otherwise ignore, before any work
    (the bijection input is never read), on both argv paths."""

    def no_work(*args):
        raise AssertionError("refused flags are checked before any work")

    monkeypatch.setattr(R, "centre", no_work)
    monkeypatch.setattr(M, "move_graph", no_work)
    monkeypatch.setattr(sys, "stdin", None)
    for name in ("presentation_ring", "equivariant_specialization"):
        monkeypatch.setattr(S, name, no_work)
    assert cli._fast_args(argv) is not None
    code, out, err = capture(capsys, argv)
    assert (code, out, err) == (1, "", f"cupcalc: {message}\n")
    with patch.object(cli, "_fast_args", return_value=None):  # the argparse path
        assert capture(capsys, argv) == (code, out, err)


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cohomology_springer_deformed_rejects_nonpositive_k(capsys, k):
    code, out, err = capture(capsys, ["cohomology", "springer", "--k", k, "--t", "2"])
    assert (code, out, err) == (1, "", f"cupcalc: argument --k: must be an integer >= 1, got {k!r}\n")


def test_intersect_has_no_jobs_flag(capsys):
    code, out, err = capture(capsys, ["intersect", "--k", "3", "--parity", "even", "--jobs", "2"])
    assert (code, out) == (1, "")
    assert "--jobs" in err


def test_intersect_refuses_bad_parity(capsys):
    code, _, _ = capture(capsys, ["intersect", "--k", "4", "--parity", "sideways"])
    assert code == 1


def test_bijection_cup_to_adt_and_back(tmp_path, capsys):
    src = tmp_path / "cup.json"
    src.write_text(json.dumps("6: c*(1,2);c*(3,4);c(5,6)"))
    code, out, _ = capture(
        capsys, ["bijection", "--from", "cup", "--to", "adt", "--input", str(src)]
    )
    assert code == 0
    adt = json.loads(out)
    assert adt["shape"] == [6, 6]
    signs = [d["sign"] for d in adt["dominoes"]]
    assert signs == ["-", None, "-", None, "+", None]

    back = tmp_path / "adt.json"
    back.write_text(out)
    code, out, _ = capture(
        capsys, ["bijection", "--from", "adt", "--to", "cup", "--input", str(back)]
    )
    obj = json.loads(out)
    assert obj["k"] == 6 and len(obj["cups"]) == 3


def test_bijection_dt_round(tmp_path, capsys):
    src = tmp_path / "cup.json"
    src.write_text(json.dumps("4: c*(1,2);c*(3,4)"))
    code, out, _ = capture(
        capsys, ["bijection", "--from", "cup", "--to", "dt", "--input", str(src)]
    )
    assert code == 0
    dt = json.loads(out)
    assert all(d["sign"] is None for d in dt["dominoes"])
    back = tmp_path / "dt.json"
    back.write_text(out)
    code, out, _ = capture(
        capsys, ["bijection", "--from", "dt", "--to", "cup", "--input", str(back)]
    )
    obj = json.loads(out)
    assert {(c["from"], c["to"], c["dotted"]) for c in obj["cups"]} == {
        (1, 2, True),
        (3, 4, True),
    }


def test_bijection_stable(tmp_path, capsys):
    src = tmp_path / "stable.json"
    src.write_text(json.dumps([[3, -1, -2, -4], [4, 2, 1, -3]]))
    code, out, _ = capture(
        capsys, ["bijection", "--from", "stable", "--to", "cup", "--input", str(src)]
    )
    assert code == 0
    assert json.loads(out)["cups"][0] == {"from": 1, "to": 2, "dotted": True}


def test_bijection_to_stable_names_a_diagram_without_one(tmp_path, capsys):
    src = tmp_path / "cup.json"
    src.write_text(json.dumps("2: r(1);r(2)"))
    code, out, err = capture(
        capsys, ["bijection", "--from", "cup", "--to", "stable", "--input", str(src)]
    )
    assert (code, out) == (1, "")
    assert err == "cupcalc: no skew-symmetric table realizes 2: r(1);r(2)\n"


def test_bijection_bitab_needs_parity(tmp_path, capsys):
    src = tmp_path / "bitab.json"
    src.write_text(json.dumps([[1, 3], [2]]))
    code, _, err = capture(
        capsys, ["bijection", "--from", "bitab", "--to", "cup", "--input", str(src)]
    )
    assert code == 1 and "ambiguous" in err
    code, out, _ = capture(
        capsys,
        [
            "bijection",
            "--from",
            "bitab",
            "--to",
            "cup",
            "--input",
            str(src),
            "--parity",
            "even",
        ],
    )
    assert code == 0
    assert json.loads(out)["rays"] == [{"at": 3, "dotted": False}]


@pytest.mark.parametrize(
    "src, payload, message",
    [
        ("cup", {"k": 2, "cups": [{"from": "1", "to": 2, "dotted": False}], "rays": []},
         "must be integers"),
        ("cup", {"k": True, "cups": [], "rays": [{"at": 1, "dotted": False}]},
         "positive integer"),
        ("stable", 5, "pair of lists"),
        ("bitab", [[1, 3]], "pair of lists"),
        ("stable", [[[1]], [[-1]]], "pair of lists"),
        ("adt", {"shape": 5, "dominoes": []}, "integer pair 'shape'"),
        ("adt", [1, 2], "integer pair 'shape'"),
        ("adt", {"shape": [2, 2], "dominoes": [{"label": 1, "cells": [[1, 1]]}]},
         "two integer pairs 'cells'"),
        ("cup", 5, "'k' key"),
        ("cup", {"k": 3, "cups": 7, "rays": []}, "'cups' must be a list"),
        ("cup", {"k": 10 ** 6, "rays": [{"at": 1, "dotted": False}]},
         "more than twice the number of arcs"),
        ("dt", {"shape": [2, 0], "dominoes": [{"label": 1, "cells": [[1, 1], [1, 2]]}]},
         "not admissible"),
    ],
)
def test_bijection_rejects_malformed_json(tmp_path, capsys, src, payload, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = capture(
        capsys, ["bijection", "--from", src, "--to", "cup", "--input", str(path)]
    )
    assert (code, out) == (1, "")
    assert message in err and "Traceback" not in err


def test_render_bounds_vertex_count(capsys):
    code, out, err = capture(capsys, ["render", "--diagram", "1000000: r(1)"])
    assert (code, out) == (1, "")
    assert "1000000" in err and len(err) < 200


_JSON_KEYS = st.sampled_from(
    ["k", "cups", "rays", "from", "to", "at", "dotted", "shape", "dominoes",
     "label", "cells", "sign", "x"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.sampled_from(["+", "-", "1", ""])
    | st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_KEYS, inner, max_size=5),
    max_leaves=12,
)
_SOURCES = ["cup", "adt", "dt", "bitab", "stable"]
_DIAGRAMS = [d for k in range(1, 7) for d in D.enumerate_diagrams(k, "any", "all")]


def _mutate(data, doc):
    """Replace one node of a JSON document (possibly the root) with junk."""
    if isinstance(doc, (list, dict)) and doc and data.draw(st.integers(0, 3)):
        doc = copy.copy(doc)
        key = data.draw(st.sampled_from(range(len(doc)) if isinstance(doc, list) else sorted(doc)))
        doc[key] = _mutate(data, doc[key])
        return doc
    return data.draw(_JSON)


@given(src=st.sampled_from(_SOURCES), dst=st.sampled_from(_SOURCES), data=st.data())
@settings(max_examples=200, deadline=None)
def test_bijection_survives_malformed_json(src, dst, data):
    """Junk, or a valid document with one node replaced by junk: bijection
    exits 0 or 1 and never raises."""
    doc = data.draw(_JSON)
    if data.draw(st.booleans()):
        try:
            doc = _mutate(data, _dump_from_cup(src, data.draw(st.sampled_from(_DIAGRAMS))))
        except T.TableauError:  # no skew-symmetric table for this diagram
            pass
    with patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(["bijection", "--from", src, "--to", dst, "--input", "-"])
    assert code in (0, 1), err.getvalue()


def test_bijection_bad_file(capsys):
    code, _, err = capture(
        capsys, ["bijection", "--from", "cup", "--to", "adt", "--input", "/nonexistent"]
    )
    assert code == 1 and err


def test_selftest_rejects_small_k(capsys):
    code, out, err = capture(capsys, ["selftest", "--k-max", "1"])
    assert (code, out, err) == (1, "", "cupcalc: argument --k-max: must be an integer >= 2, got '1'\n")


def test_selftest_runs_green(capsys):
    code, out, _ = capture(capsys, ["selftest", "--k-max", "3", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert len(report["suites"]) >= 15
    # each suite names the largest k it checked (geodesic-meets checks k_max + 1)
    for suite in report["suites"]:
        assert re.search(r"k(<=|=)[234]$", suite["detail"]), suite


_REPEATED_ARGVS = [
    ["intersect", "--k", "3", "--parity", "even"],
    ["cohomology", "centre", "--k", "3", "--format", "json", "--basis"],
    ["movegraph", "--k", "5", "--parity", "odd", "--format", "json"],
]


def test_outputs_byte_identical(capsys):
    for argv in _REPEATED_ARGVS:
        _, first, _ = capture(capsys, argv)
        _, second, _ = capture(capsys, argv)
        assert first == second


def test_parser_reuse_keeps_calls_independent(capsys):
    """The parser is built once per process; no call sees another's flags."""
    assert cli._build_parser() is cli._build_parser()
    argvs = _REPEATED_ARGVS + [
        ["enumerate", "--k", "3", "--frobnicate"],
        ["--version"],
        ["enumerate", "--k", "3", "--cups", "any"],
        ["enumerate", "--k", "3"],
    ]
    with patch.object(cli, "_build_parser", cli._build_parser.__wrapped__):  # fresh per call
        fresh = [capture(capsys, argv) for argv in argvs]
    assert fresh[3][0] == 1 and "frobnicate" in fresh[3][2]
    assert fresh[-1][1].count("\n") == 6  # --cups max is back after --cups any
    first = [capture(capsys, argv) for argv in argvs]
    assert first == fresh
    backwards = [capture(capsys, argv) for argv in reversed(argvs)]
    assert backwards[::-1] == first


_DSL_TEXTS = [d.encode() for d in _DIAGRAMS]
_DSL_ALPHABET = "0123456789cr:;,()* "


@st.composite
def _dsl(draw):
    """Junk over the DSL's alphabet, or a legal diagram with a few
    characters replaced, inserted or deleted."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=_DSL_ALPHABET + "-x", max_size=30))
    text = draw(st.sampled_from(_DSL_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.text(alphabet=_DSL_ALPHABET, max_size=2)) + text[at + cut:]
    return text


@st.composite
def _diagram_request(draw):
    verb = draw(st.sampled_from(["render", "orient", "distance"]))
    if verb == "render":
        argv = ["render", "--diagram", draw(_dsl())]
    elif verb == "orient":
        argv = ["orient", "--cup", draw(_dsl())]
        if draw(st.booleans()):
            argv += ["--cap", draw(_dsl())]
    else:
        argv = ["distance", "--a", draw(_dsl()), "--b", draw(_dsl())]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "ascii", "tikz", "yaml", ""]))]
    if draw(st.integers(0, 4)) == 0:  # drop or repeat a flag, or add a stray one
        argv = draw(st.sampled_from([argv[:-1], argv + argv[1:3], argv + ["--k", "3"]]))
    return argv


@given(_diagram_request())
@settings(max_examples=300, deadline=None)
def test_diagram_verbs_survive_malformed_text_and_flags(argv):
    """Malformed DSL text and flags through render, orient and distance:
    exit 0 or 1 and never raise."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(argv)
    assert code in (0, 1), err.getvalue()


def test_internal_error_is_not_invalid_input(capsys):
    """A bug that raises a plain ValueError or KeyError exits 2, not 1."""
    for exc in (ValueError("boom"), KeyError("boom")):
        with patch.object(D, "render", side_effect=exc):
            code, out, err = capture(capsys, ["render", "--diagram", "2: c(1,2)"])
        assert (code, out) == (2, "")
        assert err.startswith("cupcalc: internal error: ") and "boom" in err


def test_tripped_internal_law_exits_2(capsys):
    with patch.object(D, "render", side_effect=InternalCheckError("x")):
        code, out, err = capture(capsys, ["render", "--diagram", "2: c(1,2)"])
    assert (code, out, err) == (2, "", "cupcalc: internal check failed: x\n")


def test_failing_selftest_suite_exits_2(capsys, monkeypatch):
    suites = importlib.import_module("cupcalc.selftest")  # not the package's function
    broken = ("broken", lambda k_max, rng: (False, "law fails at k=2"))
    monkeypatch.setattr(suites, "SUITES", suites.SUITES[:1] + [broken])
    code, out, err = capture(capsys, ["selftest", "--k-max", "2"])
    assert (code, err) == (2, "")
    assert out.splitlines()[1:] == ["FAIL broken: law fails at k=2", "FAIL (2 suites, k_max=2)"]
    code, out, _ = capture(capsys, ["selftest", "--k-max", "2", "--format", "json"])
    report = json.loads(out)
    assert code == 2 and report["ok"] is False
    assert report["suites"][1] == {"name": "broken", "ok": False, "detail": "law fails at k=2"}


# The errors ``run`` reports as invalid input, each with its subclasses.
_INPUT_ERRORS = [
    cli._UsageError, SizeError, D.DiagramError, O.OrientationError, M.NoFiniteDistanceError,
    R.NotOrientableError, S.MalformedIndexSetError, S.UnequalRowShapeError, T.TableauError,
]


@pytest.mark.parametrize("error", _INPUT_ERRORS, ids=lambda e: e.__name__)
def test_input_errors_exit_1(capsys, error):
    with patch.object(D, "render", side_effect=error("bad")):
        assert capture(capsys, ["render", "--diagram", "2: c(1,2)"]) == (1, "", "cupcalc: bad\n")


def test_springer_rejects_nonpositive_k(capsys):
    code, out, err = capture(capsys, ["cohomology", "springer", "--k", "0"])
    assert (code, out, err) == (1, "", "cupcalc: argument --k: must be an integer >= 1, got '0'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate"],
        ["movegraph", "--parity", "even"],
        ["intersect", "--parity", "odd"],
        ["cohomology", "centre"],
        ["cohomology", "springer"],
        ["cohomology", "springer", "--t", "2"],
    ],
)
@pytest.mark.parametrize("k", ["0", "-3", "x", "1.5"])
def test_every_k_flag_states_its_lower_bound_once(capsys, argv, k):
    code, out, err = capture(capsys, argv + ["--k", k])
    assert (code, out, err) == (1, "", f"cupcalc: argument --k: must be an integer >= 1, got {k!r}\n")


def test_distance_rejects_vertex_count_mismatch(capsys):
    code, out, err = capture(capsys, ["distance", "--a", "2: c(1,2)", "--b", "4: c(1,2);c(3,4)"])
    assert (code, out, err) == (1, "", "cupcalc: diagrams must share the vertex count\n")


@pytest.mark.parametrize("cups", ["-1", "abc", "1.5", ""])
def test_enumerate_rejects_bad_cup_count(capsys, cups):
    code, out, err = capture(capsys, ["enumerate", "--k", "4", "--cups", cups])
    assert (code, out) == (1, "")
    assert err.startswith("cupcalc: argument --cups: must be 'max', 'any' or a count >= 0")


def test_enumerate_cup_count_with_too_many_digits_is_a_bad_count(capsys):
    cups = "9" * 5000
    code, out, err = capture(capsys, ["enumerate", "--k", "3", "--cups", cups])
    assert (code, out, err) == (
        1, "", f"cupcalc: argument --cups: must be 'max', 'any' or a count >= 0, got {cups!r}\n"
    )


def test_bijection_unreadable_input_names_the_path(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for path, reason in ((missing, "No such file"), (tmp_path, "Is a directory"), (binary, "decode")):
        code, out, err = capture(
            capsys, ["bijection", "--from", "cup", "--to", "adt", "--input", str(path)]
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"cupcalc: cannot read --input {str(path)!r}: ") and reason in err


def test_bijection_malformed_json_names_the_input(tmp_path, monkeypatch, capsys):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"k": 4, "cups": [')
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    for source in ("-", str(truncated)):
        code, out, err = capture(
            capsys, ["bijection", "--from", "cup", "--to", "dt", "--input", source]
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"cupcalc: --input {source!r} is not valid JSON: "), err


@pytest.mark.parametrize(
    "text",
    ['[' * 200000, '{"k": ' + '9' * 5000 + '}'],
    ids=["too-deep", "too-many-digits"],
)
def test_bijection_unparsable_json_names_the_input(tmp_path, text, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = capture(
        capsys, ["bijection", "--from", "cup", "--to", "dt", "--input", str(path)]
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"cupcalc: --input {str(path)!r} is not valid JSON: "), err


_LONG = "9" * 5000


@pytest.mark.parametrize(
    "argv, position",
    [
        (["render", "--diagram", f"4: c(1,2);c(3,{_LONG})"], 14),
        (["orient", "--cup", f"{_LONG}: c(1,2)"], 0),
        (["distance", "--a", "2: c(1,2)", "--b", f"2: r({_LONG});r(2)"], 5),
    ],
    ids=["render", "orient", "distance"],
)
def test_dsl_integer_with_too_many_digits_names_its_position(capsys, argv, position):
    code, out, err = capture(capsys, argv)
    assert (code, out, err) == (
        1, "", f"cupcalc: integer at position {position} has 5000 digits, too many to read\n"
    )


_SIDE_BY_SIDE_17 = "17: " + ";".join(f"c({i},{i + 1})" for i in range(1, 17, 2)) + ";r(17)"
_SIDE_BY_SIDE_34 = "34: " + ";".join(f"c({i},{i + 1})" for i in range(1, 34, 2))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "--k", "19"], "enumerate takes --k up to 18, got 19"),
        (["movegraph", "--k", "17", "--parity", "even"], "movegraph takes --k up to 16, got 17"),
        (["intersect", "--k", "13", "--parity", "odd"], "intersect takes --k up to 12, got 13"),
        (["cohomology", "centre", "--k", "40"], "cohomology centre takes --k up to 10, got 40"),
        (["cohomology", "springer", "--k", "17", "--t", "2"],
         "cohomology springer takes --k up to 16, got 17"),
        (["selftest", "--k-max", "11"], "selftest takes --k-max up to 10, got 11"),
        (["distance", "--a", _SIDE_BY_SIDE_17, "--b", _SIDE_BY_SIDE_17],
         "distance takes diagrams up to k = 16, got k = 17"),
        (["orient", "--cup", _SIDE_BY_SIDE_34], "orient takes diagrams up to k = 32, got k = 34"),
        (["orient", "--cup", "4: c(1,2);c(3,4)", "--cap", _SIDE_BY_SIDE_34],
         "orient takes diagrams up to k = 32, got k = 34"),
    ],
)
def test_size_ceilings_refuse_before_work(capsys, argv, message):
    code, out, err = capture(capsys, argv)
    assert (code, out, err) == (1, "", f"cupcalc: {message}\n")


def _checkout_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(D.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _python_m(module, argv):
    """Run ``python -m module argv`` on this checkout's package."""
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=_checkout_env(), timeout=60,
    )


def test_closed_stdout_exits_141_in_silence():
    proc = subprocess.Popen(
        [sys.executable, "-m", "cupcalc", "intersect", "--k", "6", "--parity", "odd"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_checkout_env(),
    )
    proc.stdout.close()  # as `| head` does once it has read enough
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("module", ["cupcalc", "cupcalc.cli"])
def test_python_m_runs_the_cli(capsys, module):
    argv = ["intersect", "--k", "4", "--parity", "odd"]
    _, expected, _ = capture(capsys, argv)
    done = _python_m(module, argv)
    assert (done.returncode, done.stdout) == (0, expected)
    done = _python_m(module, ["intersect", "--k", "4"])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("cupcalc: the following arguments are required: --parity")


# A maximal diagram of even k, so that cup -> stable -> cup is the identity.
_CUP = "4: c*(1,4);c(2,3)"


def _fresh_requests():
    """One small canonical request per verb, and per path that imports
    more on first use, as ``(argv, stdin, exit code)``."""
    requests = [
        ["enumerate", "--k", "4"],
        ["render", "--diagram", _CUP],
        ["render", "--diagram", _CUP, "--format", "json"],
        ["movegraph", "--k", "4", "--parity", "odd"],
        ["distance", "--a", "4: c*(1,2);c(3,4)", "--b", "4: c(1,2);c*(3,4)"],
        ["orient", "--cup", _CUP, "--cap", "4: c*(1,2);c(3,4)"],
        ["cohomology", "centre", "--k", "3", "--basis", "--format", "json"],
        ["cohomology", "springer", "--k", "4"],
        ["cohomology", "springer", "--k", "4", "--t", "3/2"],
        ["intersect", "--k", "4", "--parity", "odd"],
        ["selftest", "--k-max", "3"],
    ]
    params = [pytest.param(argv, "", 0, id=" ".join(argv)) for argv in requests]
    for via in ("adt", "dt", "bitab", "stable"):
        there = json.dumps(_dump_from_cup(via, D.parse_dsl(_CUP)))
        for src, dst, stdin in (("cup", via, json.dumps(_CUP)), (via, "cup", there)):
            argv = ["bijection", "--from", src, "--to", dst, "--input", "-"]
            params.append(pytest.param(argv, stdin, 0, id=" ".join(argv)))
    argv = ["render", "--diagram", "4: c(1,3);c(2,4)"]  # crossing cups
    params.append(pytest.param(argv, "", 1, id=" ".join(argv)))
    return params


@pytest.mark.parametrize("argv, stdin, code", _fresh_requests())
def test_fresh_process_prints_what_run_prints(capsys, monkeypatch, argv, stdin, code):
    """``python -m cupcalc`` in a fresh interpreter, where a verb finds
    only the modules it imports itself, exits and writes what ``run``
    does here, where every module is loaded."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    want = capture(capsys, argv)
    done = subprocess.run(
        [sys.executable, "-m", "cupcalc", *argv], input=stdin,
        capture_output=True, text=True, env=_checkout_env(), timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == want
    assert want[0] == code


def _python_c(script):
    """Run ``python -c script`` on this checkout's package, writing no
    bytecode, and return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(_checkout_env(), PYTHONDONTWRITEBYTECODE="1"), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# What a fresh interpreter's ``import cupcalc.cli`` adds of the package, and
# standard modules it must not add: only some verbs use them.
_START_UP_MODULES = {
    "cupcalc", "cupcalc.cli", "cupcalc.errors", "cupcalc.diagrams", "cupcalc.orientation",
    "cupcalc.tableaux",
}
_DEFERRED_MODULES = {"argparse", "json", "fractions", "decimal", "heapq", "dataclasses", "inspect"}


def test_start_up_imports_no_dataclasses_or_inspect():
    """``import cupcalc.cli`` loads exactly ``_START_UP_MODULES`` of the
    package, and none of ``_DEFERRED_MODULES``."""
    added = set(ast.literal_eval(_python_c(
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import cupcalc.cli\n"
        "print(sorted(set(sys.modules) - bare))\n"
    )))
    assert {m for m in added if m.split(".")[0] == "cupcalc"} == _START_UP_MODULES
    assert added & _DEFERRED_MODULES == set()


def test_benchmark_tracer_installs_after_start_up():
    """In ``perfbench/sample.py``'s order (``import cupcalc.cli``, the
    workloads' imports, then ``Tracer().install()``), every module the
    tracer spans is loaded and the install succeeds."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    missing = _python_c(
        "import sys\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "import cupcalc.cli\n"
        "import workloads\n"
        "import tracing\n"
        "tracing.Tracer().install()\n"
        "print(sorted({f'cupcalc.{m}' for m, _ in tracing.SPANS.values()} - set(sys.modules)))\n"
    )
    assert missing == "[]\n"


def _parse_outcome(parser, argv):
    """What ``parser.parse_args(argv)`` does: its namespace, its usage
    error, or its exit code and stdout (--help, --version)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return ("args", vars(parser.parse_args(argv)))
    except cli._UsageError as exc:
        return ("usage", str(exc))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue())


@pytest.mark.parametrize("verb", [None, *cli._VERBS])
def test_help_is_the_call_by_call_parsers(capsys, verb):
    """``cupcalc [verb] --help``: the parser built from the flag table
    prints what the parser built one ``add_argument`` call at a time did."""
    argv = ["--help"] if verb is None else [verb, "--help"]
    want = _parse_outcome(oracle_parser(), argv)
    assert want[:2] == ("exit", 0) and want[2].startswith("usage: cupcalc")
    assert capture(capsys, argv) == (0, want[2], "")


# A value of each free-text or integer flag that its type takes; those of
# --seed and --t are '-<digits>', which argparse reads as values.
_SAMPLE_VALUES = {
    "--k": "3", "--k-max": "2", "--seed": "-5", "--cups": "1", "--t": "-1",
    "--diagram": "2: c(1,2)", "--a": "2: c(1,2)", "--b": "2: c*(1,2)",
    "--cup": "4: c(1,2);c(3,4)", "--cap": "4: c(1,4);c(2,3)", "--input": "-",
}


def _canonical_argv(verb, every_flag):
    """The verb's canonical argv with every flag, or with only its
    positional and required flags; a flag with choices takes its last."""
    argv = [verb]
    for flag, spec in cli._VERBS[verb][1].items():
        if not flag.startswith("-"):
            argv.append(spec["choices"][-1])
        elif spec.get("action") == "store_true":
            argv += [flag] if every_flag else []
        elif every_flag or spec.get("required"):
            argv += [flag, spec["choices"][-1] if "choices" in spec else _SAMPLE_VALUES[flag]]
    return argv


@pytest.mark.parametrize("every_flag", [True, False], ids=["every-flag", "required-only"])
@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_canonical_argv_takes_the_fast_path(verb, every_flag):
    argv = _canonical_argv(verb, every_flag)
    fast = cli._fast_args(argv)
    assert fast is not None
    assert vars(fast) == vars(cli._build_parser().parse_args(argv)) == vars(
        oracle_parser().parse_args(argv)
    )


@pytest.mark.parametrize(
    "argv",
    [
        [], ["cohomology"], ["frobnicate"], ["--version"], ["enumerate", "--help"],
        ["enumerate", "--k=3"], ["enumerate", "--k", "3", "--par", "even"],
        ["enumerate", "--k", "3", "--k", "4"],
        ["movegraph", "--k", "3", "--parity", "odd", "--dot", "--dot"],
        ["cohomology", "springer", "--k", "3", "--t", "-3/2"], ["cohomology", "--k", "3", "springer"],
        ["enumerate", "--k"], ["enumerate", "--parity", "even"], ["enumerate", "--k", "0"],
        ["cohomology", "springer", "--k", "3", "--t", "-0.5"], ["cohomology", "springer", "--k", "-1"],
        ["selftest", "--k-max", "-2"], ["enumerate", "--k", "3", "--cups", "-1"],
    ],
)
def test_other_argv_is_left_to_argparse(argv):
    assert cli._fast_args(argv) is None


def test_well_formed_request_builds_no_parser(capsys, tmp_path):
    """A canonical argv runs without the parser, and prints what the
    argparse path prints."""
    cup = tmp_path / "cup.json"
    cup.write_text(json.dumps("4: c*(1,4);c(2,3)"))
    argvs = [
        ["enumerate", "--k", "4", "--parity", "even", "--cups", "any", "--format", "json"],
        ["render", "--diagram", "4: c*(1,4);c(2,3)", "--format", "tikz"],
        ["movegraph", "--k", "4", "--parity", "odd", "--dot"],
        ["distance", "--a", "4: c*(1,2);c(3,4)", "--b", "4: c(1,2);c*(3,4)"],
        ["orient", "--cup", "4: c*(1,4);c(2,3)", "--cap", "4: c*(1,2);c(3,4)", "--format", "json"],
        ["cohomology", "springer", "--k", "4", "--t", "3/2"],
        ["cohomology", "springer", "--k", "4", "--t", "-1"],
        ["cohomology", "centre", "--k", "3", "--basis", "--format", "json"],
        ["intersect", "--k", "3", "--parity", "even", "--format", "text"],
        ["bijection", "--from", "cup", "--to", "dt", "--input", str(cup)],
        ["selftest", "--k-max", "2", "--seed", "1"],
    ]
    with patch.object(cli, "_fast_args", return_value=None):
        want = [capture(capsys, argv) for argv in argvs]
    with patch.object(cli, "_build_parser", side_effect=AssertionError("the parser was built")):
        got = [capture(capsys, argv) for argv in argvs]
    assert got == want
    assert [code for code, _, _ in got] == [0] * len(argvs)


# The table's vocabulary, with values each flag's type and choices take
# or refuse: negative numbers, '-', the empty string, too many digits.
_TABLE_FLAGS = sorted({f for _, flags in cli._VERBS.values() for f in flags if f.startswith("-")})
_BAD_VALUES = ["-1", "-3/2", "-", "", "0", "x", "1.5", "9" * 5000, "--k", "centre", "tikz"]


def _flag_values(spec, flag):
    """Values a canonical argv gives the flag; its type may refuse some."""
    return spec.get("choices") or [_SAMPLE_VALUES[flag], "12", "max", "any", "2: c(1,2)"]


@st.composite
def _table_argv(draw):
    """A canonical argv of a verb, often with one to three changes: a
    token dropped, an abbreviated or ``=`` flag, a repeated flag, a good or
    bad value put anywhere, a stray flag, --help or --version."""
    verb = draw(st.sampled_from(list(cli._VERBS)))
    flags = cli._VERBS[verb][1]
    argv = [verb]
    for flag, spec in flags.items():
        if not flag.startswith("-"):
            argv.append(draw(st.sampled_from(spec["choices"])))
        elif spec.get("required") or draw(st.booleans()):
            argv.append(flag)
            if spec.get("action") != "store_true":
                argv.append(draw(st.sampled_from(_flag_values(spec, flag))))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(argv)))
        change = draw(st.sampled_from(["drop", "abbrev", "equals", "repeat", "value", "flag", "help"]))
        token = argv[at] if at < len(argv) else ""
        if change == "drop" and at < len(argv):
            del argv[at]
        elif change == "abbrev" and token.startswith("--") and len(token) > 3:
            argv[at] = token[: draw(st.integers(3, len(token) - 1))]
        elif change == "equals" and token.startswith("--") and at + 1 < len(argv):
            argv[at: at + 2] = [f"{token}={argv[at + 1]}"]
        elif change == "repeat" and token.startswith("--"):
            argv[at:at] = [token, draw(st.sampled_from(_BAD_VALUES + ["3", "even"]))]
        elif change == "value":
            argv.insert(at, draw(st.sampled_from(_BAD_VALUES + ["3", "even", "json", "1e3"])))
        elif change == "flag":
            argv.insert(at, draw(st.sampled_from(_TABLE_FLAGS + ["--frobnicate", "--k=3", "-k"])))
        elif change == "help":
            argv.insert(at, draw(st.sampled_from(["--help", "-h", "--version", "frobnicate"])))
    return argv


@given(_table_argv())
@settings(max_examples=1000, deadline=None)
def test_fast_args_is_none_or_what_argparse_reads(argv):
    """``_fast_args`` gives argparse's namespace or None, never a namespace
    where argparse refuses; and the parser built from the table reads
    every argv as the one built call by call does."""
    outcome = _parse_outcome(cli._build_parser(), argv)
    assert outcome == _parse_outcome(oracle_parser(), argv)
    fast = cli._fast_args(argv)
    assert fast is None or outcome == ("args", vars(fast))
