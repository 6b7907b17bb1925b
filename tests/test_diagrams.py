import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupcalc import diagrams as D
from cupcalc.errors import InternalCheckError
from helpers import (
    brute_crossingless_matchings,
    count_calls,
    oracle_enumerate_diagrams,
    oracle_validate,
    raw_arc_covers,
)

# the six maximal diagrams on three vertices, in canonical order
B3 = [
    "3: c(1,2);r(3)",
    "3: c(1,2);r*(3)",
    "3: c*(1,2);r(3)",
    "3: c*(1,2);r*(3)",
    "3: r(1);c(2,3)",
    "3: r*(1);c(2,3)",
]

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_b3_listing():
    assert [d.encode() for d in D.maximal_diagrams(3)] == B3


def test_validate_accepts_example_pair():
    d = D.validate(4, [(1, 2, True), (3, 4, True)], [])
    assert d.encode() == "4: c*(1,2);c*(3,4)"


def test_validate_rejects_inaccessible_dot():
    with pytest.raises(D.InvalidDiagramError) as exc:
        D.validate(5, [(2, 5), (3, 4, True)], [(1, True)])
    assert "DotInaccessible" in exc.value.codes()
    offending = [
        v.arcs for v in exc.value.violations if v.code == "DotInaccessible"
    ]
    assert (D.Cup(3, 4, True),) in offending


def test_validate_rejects_reuse():
    with pytest.raises(D.InvalidDiagramError) as exc:
        D.validate(2, [(1, 2)], [1])
    assert "VertexReused" in exc.value.codes()


def test_validate_reports_every_violation():
    with pytest.raises(D.InvalidDiagramError) as exc:
        D.validate(6, [(1, 4), (2, 5)], [(3,), (6, True)])
    codes = exc.value.codes()
    assert {"Crossing", "RayUnderCup", "DotInaccessible"} <= codes


@pytest.mark.parametrize(
    "bad, code",
    [
        ((7, [(0, 2)], [1, 3, 4, 5, 6]), "VertexOutOfRange"),
        ((2, [(2, 1)], []), "BadEndpoints"),
        ((2, [], [1]), "VertexUnused"),
        # reuse with as many arc ends as vertices, at each kind of end
        ((4, [(1, 3), (2, 3)], []), "VertexReused"),
        ((4, [(1, 2), (1, 3)], []), "VertexReused"),
        ((3, [(2, 3)], [3]), "VertexReused"),
    ],
)
def test_validate_error_codes(bad, code):
    k, cups, rays = bad
    with pytest.raises(D.InvalidDiagramError) as exc:
        D.validate(k, cups, rays)
    assert code in exc.value.codes()


def test_rejects_k_zero():
    with pytest.raises(D.DiagramError):
        D.validate(0, [], [])
    with pytest.raises(D.DiagramError):
        D.enumerate_diagrams(0)


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
def test_maximal_counts_even(k):
    assert len(D.maximal_diagrams(k)) == math.comb(k, k // 2)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_undecorated_maximal_is_catalan(k):
    plain = D.enumerate_diagrams(k, "max", "none")
    assert len(plain) == CATALAN[k // 2]
    # independent recount: brute-force crossingless perfect matchings
    assert len(brute_crossingless_matchings(k)) == len(plain)


def test_exact_cup_filter():
    # two undecorated 2-cup diagrams on four vertices
    assert len(D.enumerate_diagrams(4, 2, "none")) == 2


@pytest.mark.parametrize("k", range(1, 9))
def test_parity_split_and_involution(k):
    even = D.maximal_diagrams(k, "even")
    odd = D.maximal_diagrams(k, "odd")
    assert len(even) == len(odd)
    flipped = {D.dot_parity_involution(d) for d in even}
    assert flipped == set(odd)
    assert all(D.dot_parity_involution(D.dot_parity_involution(d)) == d for d in even)


def test_maximal_diagrams_take_every_dot_filter():
    plain = D.maximal_diagrams(4, "none")
    assert [d.encode() for d in plain] == ["4: c(1,2);c(3,4)", "4: c(1,4);c(2,3)"]
    assert plain == tuple(
        d for d in D.maximal_diagrams(4) if not any(a.dotted for a in d.cups + d.rays)
    )
    with pytest.raises(D.DiagramError, match="dot filter must be one of .* got 'dotted'"):
        D.maximal_diagrams(4, "dotted")


def _fresh_partner_arrays(k, cups):
    partner, flip = [0] * (k + 1), [1] * (k + 1)
    for c in cups:
        partner[c.left], partner[c.right] = c.right, c.left
        flip[c.left] = flip[c.right] = 1 if c.dotted else -1
    return tuple(partner), tuple(flip)


@pytest.mark.parametrize("k", range(1, 9))
def test_cached_facts_leave_the_diagram_unchanged(k):
    fields = {"k", "cups", "rays"}
    for d in D.enumerate_diagrams(k, "any", "all"):
        fresh = D.CupDiagram(d.k, d.cups, d.rays)
        assert set(vars(fresh)) == fields
        before = (repr(fresh), hash(fresh), fresh.to_json_dict())
        cap = fresh.star()
        facts = (fresh.encode(), D.encode(fresh), fresh.dot_count, fresh.dot_parity,
                 fresh.partners, cap.partners)
        assert set(vars(fresh)) > fields
        assert (repr(fresh), hash(fresh), fresh.to_json_dict()) == before
        assert fresh == d and d == fresh and hash(fresh) == hash(d)
        assert cap is fresh.star()
        assert cap == D.CapDiagram(d.k, d.cups, d.rays)
        dots = sum(arc.dotted for arc in d.cups + d.rays)
        partners = _fresh_partner_arrays(d.k, d.cups)
        assert facts == (D._encode(d), D._encode(d), dots, ("even", "odd")[dots % 2],
                         partners, partners)
        assert set(vars(D.CupDiagram(fresh.k, fresh.cups, fresh.rays))) == fields


@pytest.mark.parametrize("k", range(1, 9))
def test_total_diagram_count_is_power_of_two(k):
    assert len(D.enumerate_diagrams(k, "any", "all")) == 2 ** k


@pytest.mark.parametrize("k", range(1, 9))
def test_encoding_injective_and_round_trips(k):
    seen = set()
    for d in D.enumerate_diagrams(k, "any", "all"):
        text = d.encode()
        assert text not in seen
        seen.add(text)
        assert D.parse_dsl(text) == d
        assert D.from_json(D.render(d, "json")) == d


@pytest.mark.parametrize("k", range(1, 8))
def test_validate_matches_enumeration(k):
    """Over every raw arc cover, the rule checker accepts exactly the
    enumerated diagrams."""
    legal = set()
    for cups, rays in raw_arc_covers(k):
        try:
            legal.add(D.validate(k, cups, rays))
        except D.InvalidDiagramError:
            pass
    assert legal == set(D.enumerate_diagrams(k, "any", "all"))


def test_enumeration_is_canonically_ordered():
    for k in range(1, 8):
        members = [d.encode() for d in D.enumerate_diagrams(k, "any", "all")]
        assert members == sorted(members)


@pytest.mark.parametrize("k", range(1, 11))
def test_enumerate_diagrams_matches_the_oracle(k):
    """Members equal the old build-and-sort enumeration's: fields, the
    encoding written by the generator, and repr (a dot given as 0 or 1
    instead of a bool would compare equal but print differently)."""
    for cups in ["max", "any", *range(k // 2 + 2)]:
        for dots in ("all", "even", "odd", "none"):
            want = oracle_enumerate_diagrams(k, cups, dots)
            got = D.enumerate_diagrams(k, cups, dots)
            assert (got.k, got.cup_filter, got.dot_filter) == (k, cups, dots)
            assert got.members == want.members
            assert [d.encoding for d in got] == [d.encoding for d in want]
            assert [repr(d) for d in got] == [repr(d) for d in want]
            assert D.enumerate_encodings(k, cups, dots) == [d.encoding for d in want]


def test_parse_examples():
    assert D.parse_dsl("4: c*(1,4); c(2,3)").encode() == "4: c*(1,4);c(2,3)"
    assert D.parse_dsl("1: r(1)").encode() == "1: r(1)"


def test_parse_out_of_range_is_validation_error():
    with pytest.raises(D.InvalidDiagramError) as exc:
        D.parse_dsl("2: c(1,3)")
    assert {"VertexOutOfRange", "VertexUnused"} <= exc.value.codes()


@pytest.mark.parametrize(
    "text, position",
    [
        ("", 0),
        ("x: c(1,2)", 0),
        ("2 c(1,2)", 2),
        ("2: c(1 2)", 7),
        ("2: c(1,2);", 10),
        ("2: q(1,2)", 3),
    ],
)
def test_syntax_errors_carry_position(text, position):
    with pytest.raises(D.DiagramSyntaxError) as exc:
        D.parse_dsl(text)
    assert exc.value.position == position
    assert exc.value.expected


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_parse_is_whitespace_insensitive(data):
    k = data.draw(st.integers(min_value=1, max_value=6))
    pool = D.enumerate_diagrams(k, "any", "all").members
    d = data.draw(st.sampled_from(pool))
    text = d.encode()
    pieces = []
    for ch in text:
        pieces.append(data.draw(st.sampled_from(["", " ", "  ", "\t"])))
        pieces.append(ch)
    assert D.parse_dsl("".join(pieces)) == d


def _parse_outcome(parse, text):
    try:
        d = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return d, repr(d), d.encoding


_WHITESPACE = [" ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\x85"]
# Arabic-Indic, Devanagari, fullwidth and mathematical bold digits: all
# decimal, so int() reads them
_DIGITS = {str(i): [chr(base + i) for base in (0x660, 0x966, 0xFF10, 0x1D7CE)] for i in range(10)}
# also characters the grammar refuses: a zero-width space (not whitespace),
# a superscript two (a digit but not decimal) and a Roman numeral
_ALPHABET = list("cr:;,()*0123456789x") + _WHITESPACE + ["\u200b", "\u00b2", "\u2167", "\uff13"]


@pytest.mark.parametrize("seed", range(4))
def test_parse_dsl_agrees_with_the_token_parser(seed):
    """The one-match reader and the token parser give the same diagram, or
    the same error type and message, on valid text spaced and written
    with Unicode whitespace and digits, and on mutations of it."""
    rng = random.Random(seed)
    pool = [d.encoding for k in range(1, 9) for d in D.enumerate_diagrams(k, "any", "all")]
    parsed = 0
    for _ in range(2500):
        chars = []
        for ch in rng.choice(pool):
            if rng.random() < 0.2:
                chars.append(rng.choice(_WHITESPACE))
            if ch in _DIGITS and rng.random() < 0.2:
                ch = rng.choice(_DIGITS[ch])
            chars.append(ch)
        for _ in range(rng.choice([0, 0, 1, 2])):
            at = rng.randrange(len(chars) + 1)
            op = rng.randrange(3)
            if op == 0:
                chars.insert(at, rng.choice(_ALPHABET))
            elif op == 1:
                del chars[min(at, len(chars) - 1)]
            else:
                chars[min(at, len(chars) - 1)] = rng.choice(_ALPHABET)
        text = "".join(chars)
        got = _parse_outcome(D.parse_dsl, text)
        assert got == _parse_outcome(D._parse_tokens, text), text
        parsed += not isinstance(got[0], type)
    assert 1000 < parsed < 2400  # both outcomes are well represented


@pytest.mark.parametrize("digit", ["9", "\u0669"])
def test_parse_dsl_names_an_integer_too_long_to_read(digit):
    long = digit * 5000
    for text, position in ((f"4: c(1,2);c(3,{long})", 14), (f"{long}: r(1)", 0)):
        with pytest.raises(D.DiagramError) as exc:
            D.parse_dsl(text)
        assert type(exc.value) is D.DiagramError
        assert str(exc.value) == (
            f"integer at position {position} has 5000 digits, too many to read"
        )


_LONG_VALID = "16000: " + ";".join(f"c({i},{i + 1})" for i in range(1, 16000, 2))


@pytest.mark.parametrize(
    "text, error",
    [
        (_LONG_VALID, None),
        (_LONG_VALID.replace(";", " ; "), None),
        (_LONG_VALID[:-1], D.DiagramSyntaxError),
        (_LONG_VALID + ";", D.DiagramSyntaxError),
        (_LONG_VALID + " x", D.DiagramSyntaxError),
        ("1: r(1)" + " " * 100_000 + "x", D.DiagramSyntaxError),
        ("1: r(1)" + " ;" * 50_000, D.DiagramSyntaxError),
    ],
    ids=["valid", "spaced", "unclosed", "trailing-semicolon", "trailing-garbage",
         "long-space-run", "empty-arcs"],
)
def test_parse_dsl_reads_long_text_in_linear_time(text, error):
    """At 100k characters a pattern that backtracks badly would take
    minutes; the match, the scan and the token parser take well under 1 s."""
    assert len(text) >= 100_000
    start = time.perf_counter()
    if error is None:
        assert D.parse_dsl(text).n_cups == 8000
    else:
        with pytest.raises(error):
            D.parse_dsl(text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: D.enumerate_diagrams(True, "any"), "vertex count must be a positive integer, got True"),
        (lambda: D.enumerate_encodings(True, "any"), "vertex count must be a positive integer, got True"),
        (lambda: D.render(D.parse_dsl("2: c(1,2)"), "svg"), "unknown render format 'svg'"),
    ],
)
def test_input_checks_name_what_is_wrong(call, message):
    """A bool is no vertex count here, as in :func:`validate`, so no
    encoding is listed that :func:`parse_dsl` could not read back."""
    with pytest.raises(D.DiagramError) as exc_info:
        call()
    assert type(exc_info.value) is D.DiagramError and str(exc_info.value) == message


def test_ascii_render():
    assert D.render(D.parse_dsl("2: c*(1,2)"), "ascii") == "( )\n *"
    assert D.render(D.parse_dsl("3: c(1,2);r*(3)"), "ascii") == "( ) |\n    *"
    assert D.render(D.parse_dsl("4: c(1,4);c(2,3)"), "ascii") == "( ( ) )"


def test_tikz_render_golden():
    text = D.render(D.parse_dsl("3: c*(1,2);r(3)"), "tikz")
    assert text == "\n".join(
        [
            r"\documentclass[tikz]{standalone}",
            r"\begin{document}",
            r"\begin{tikzpicture}[thick]",
            r"\node[above] at (1,0) {\tiny $1$};",
            r"\node[above] at (2,0) {\tiny $2$};",
            r"\node[above] at (3,0) {\tiny $3$};",
            r"\draw (1,0) .. controls +(0,-0.5) and +(0,-0.5) .. (2,0);",
            r"\fill (1.5,-0.375) circle (2.5pt);",
            r"\draw (3,0) -- (3,-1.5);",
            r"\end{tikzpicture}",
            r"\end{document}",
        ]
    )


def test_tikz_renders_all_b3():
    for d in D.maximal_diagrams(3):
        text = D.render(d, "tikz")
        assert text.startswith("\\documentclass[tikz]{standalone}")
        assert text.endswith("\\end{document}")
        assert text.count("\\fill") == d.dot_count


def test_json_schema_field_order():
    obj = json.loads(D.render(D.parse_dsl("4: c*(1,4);c(2,3)"), "json"))
    assert list(obj) == ["k", "cups", "rays"]
    assert obj["cups"][0] == {"from": 1, "to": 4, "dotted": True}


@pytest.mark.parametrize(
    "k, cups, rays",
    [(2, [("1", 2)], []), (True, [], [1]), (1, [], [True]), (2, [(1, 2.0)], [])],
)
def test_validate_rejects_non_integer_vertices(k, cups, rays):
    with pytest.raises(D.DiagramError, match="integer"):
        D.validate(k, cups, rays)


@pytest.mark.parametrize("k", range(1, 13))
def test_enumerated_members_are_legal(k):
    """enumerate_diagrams and dot_parity_involution skip validate: their
    diagrams must be exactly what validate would build."""
    for d in D.enumerate_diagrams(k, "any", "all"):
        assert D.validate(k, d.cups, d.rays) == d
        flipped = D.dot_parity_involution(d)
        assert D.validate(k, flipped.cups, flipped.rays) == flipped


@pytest.mark.parametrize(
    "parse",
    [
        lambda k: D.parse_dsl(f"{k}: r(1)"),
        lambda k: D.from_json({"k": k, "rays": [{"at": 1, "dotted": False}]}),
    ],
    ids=["dsl", "json"],
)
def test_vertex_count_bounded_by_arcs(parse):
    k = 10 ** 6  # small enough that a missing bound fails fast instead of exhausting memory
    with pytest.raises(D.DiagramError) as exc:
        parse(k)
    assert not isinstance(exc.value, D.InvalidDiagramError)
    assert str(k) in str(exc.value) and "(1)" in str(exc.value)
    # two vertices per arc is still a count validate itself judges
    with pytest.raises(D.InvalidDiagramError, match="VertexUnused"):
        parse(2)


@pytest.mark.parametrize(
    "obj, message",
    [
        (5, "'k' key"),
        ([1, 2], "'k' key"),
        ({"cups": []}, "'k' key"),
        ({"k": 3, "cups": 7, "rays": []}, "'cups' must be a list"),
        ({"k": 1, "rays": [1]}, "'rays' must be a list"),
        ({"k": 2, "cups": [{"from": 1, "to": 2}]}, "'cups' must be a list"),
        ({"k": 2, "cups": [{"from": 1, "to": 2, "dotted": "no"}]}, "'dotted' a boolean"),
        ({"k": 1, "rays": [{"at": 1, "dotted": 0}]}, "'dotted' a boolean"),
    ],
)
def test_from_json_rejects_malformed_documents(obj, message):
    with pytest.raises(D.DiagramError, match=message):
        D.from_json(obj)


@pytest.mark.parametrize(
    "text",
    ['[' * 200000, '{"k": ' + '9' * 5000 + '}', '{"k": 2,'],
    ids=["too-deep", "too-many-digits", "truncated"],
)
def test_from_json_rejects_unparsable_text(text):
    with pytest.raises(D.DiagramError, match="^not valid JSON: "):
        D.from_json(text)


def _outcome(check, k, cups, rays):
    """What a validator makes of the arcs: the diagram or the error text."""
    try:
        return check(k, cups, rays)
    except D.InvalidDiagramError as exc:
        return str(exc)


@pytest.mark.parametrize("k", range(1, 9))
def test_validate_matches_all_pairs_oracle(k):
    """Every raw arc cover, in input order and shuffled, gets the same
    diagram or the same report, order included, from the walk as from
    the all-pairs scans."""
    rng = random.Random(k)
    for cups, rays in raw_arc_covers(k):
        for order in range(2):
            if order:
                rng.shuffle(cups)
                rng.shuffle(rays)
            assert _outcome(D.validate, k, cups, rays) == _outcome(oracle_validate, k, cups, rays)


_ARC_ENDS = st.integers(min_value=-1, max_value=10)


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.tuples(_ARC_ENDS, _ARC_ENDS, st.booleans()), max_size=6),
    st.lists(st.tuples(_ARC_ENDS, st.booleans()), max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_validate_accepts_what_the_oracle_accepts(k, cups, rays):
    """On arbitrary arcs (reused, reversed, out of range) the two-stage
    report keeps the accept/reject decision of the all-pairs scans."""
    mine = _outcome(D.validate, k, cups, rays)
    theirs = _outcome(oracle_validate, k, cups, rays)
    assert isinstance(mine, str) == isinstance(theirs, str)
    if not isinstance(mine, str):
        assert mine == theirs


def test_legal_input_never_reaches_the_report(monkeypatch):
    """parse_dsl reads every legal diagram with k <= 8 in the accepting
    walk alone: the reporting walk never runs."""
    calls = count_calls(monkeypatch, D, "nesting")
    for k in range(1, 9):
        for text in D.enumerate_encodings(k, "any", "all"):
            assert D.parse_dsl(text).encoding == text
    assert calls == []
    with pytest.raises(D.InvalidDiagramError):
        D.parse_dsl("4: c(1,3);c(2,4)")
    assert len(calls) == 1  # the count sees the report when it runs


def test_walks_that_disagree_trip_an_internal_check(monkeypatch):
    """A legal diagram the accepting walk refused is our fault, not the
    input's: the report finds nothing and raises InternalCheckError."""
    monkeypatch.setattr(D, "accept", lambda k, at: None)
    with pytest.raises(InternalCheckError, match="validate refused a legal diagram"):
        D.parse_dsl("4: c*(1,4);c(2,3)")


def test_invalid_input_reports_vertex_checks_only():
    """Input that misuses a vertex lists those violations, not the
    crossings among its arcs."""
    with pytest.raises(D.InvalidDiagramError) as exc:
        D.parse_dsl("4: c(1,3);c(2,5)")
    assert str(exc.value) == (
        "illegal diagram: VertexOutOfRange [Cup(left=2, right=5, dotted=False)]; "
        "VertexUnused [4]"
    )


def test_invalid_diagram_error_formats_on_demand():
    class Unprintable(tuple):
        def __repr__(self):
            raise AssertionError("formatted while constructing")

    exc = D.InvalidDiagramError([D.Violation("Crossing", (Unprintable(),))])
    assert exc.codes() == {"Crossing"}
    with pytest.raises(AssertionError, match="formatted while constructing"):
        str(exc)


@pytest.mark.parametrize(
    "cups, rays, crossings, rays_under, outer, depth",
    [
        ([(1, 4), (2, 3)], [], [], [], [None, (1, 4)], [0, 1]),
        ([(1, 3), (2, 4)], [], [(0, 1)], [], [None, None], [0, 1]),
        ([(1, 4), (2, 6), (3, 5)], [], [(0, 1), (0, 2)], [], [None, None, (2, 6)], [0, 1, 2]),
        ([(1, 3)], [2], [], [(0, 0)], [None], [0]),
    ],
)
def test_nesting_walk(cups, rays, crossings, rays_under, outer, depth):
    cups = [D.Cup(*c) for c in cups]
    walk = D.nesting(2 * len(cups) + len(rays), cups, [D.Ray(r) for r in rays])
    assert walk.crossings == crossings
    assert walk.rays_under == rays_under
    assert walk.outer == [o and D.Cup(*o) for o in outer]
    assert walk.depth == depth
