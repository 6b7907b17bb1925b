import itertools
import random
import sys
import tracemalloc

import pytest

from cupcalc import diagrams as D
from cupcalc import orientation as O
from helpers import (
    as_dataclass_record,
    count_calls,
    brute_clockwise_count,
    brute_orientations,
    min_degree_of,
    oracle_decompose,
    oracle_force_lines,
    oracle_orient_circle_diagram,
    oracle_walk_decompose,
)


def w(text):
    return O.Weight(text)


def all_weights(k):
    return [w("".join(c)) for c in itertools.product("v^", repeat=k)]


def test_weight_rejects_vertices_outside_range():
    weight = w("^vv")
    assert (weight[1], weight[3]) == (O.UP, O.DOWN)
    for vertex in (0, -1, 4):
        with pytest.raises(O.OrientationError):
            weight[vertex]


def test_orientations_of_cup_examples():
    got = {str(x) for x in O.orientations_of_cup(D.parse_dsl("4: c*(1,2);c(3,4)"))}
    assert got == {"^^v^", "vvv^", "^^^v", "vv^v"}
    assert [str(x) for x in O.orientations_of_cup(D.parse_dsl("1: r(1)"))] == ["v"]
    ups_at_5 = O.orientations_of_cup(D.parse_dsl("5: c*(1,4);c(2,3);r*(5)"))
    assert len(ups_at_5) == 4
    assert all(x[5] == O.UP for x in ups_at_5)


def _arcs(*halves):
    """The arc rules of some diagrams, as ``brute_orientations`` reads them."""
    return [("cup", (c.left, c.right), c.dotted) for d in halves for c in d.cups] + [
        ("ray", r.at, r.dotted) for d in halves for r in d.rays
    ]


@pytest.mark.parametrize("k", range(1, 11))
def test_orientations_match_brute_force(k):
    """The weights read from the bit words are the brute-force weights, in
    the same (canonical) order."""
    for d in D.enumerate_diagrams(k, "any", "all"):
        got = O.orientations_of_cup(d)
        assert got == brute_orientations(k, _arcs(d))
        assert len(got) == 2 ** d.n_cups


@pytest.mark.parametrize("k", range(1, 11))
def test_generated_weights_equal_validated_weights(k):
    for d in D.enumerate_diagrams(k, "any", "all"):
        for weight in O.orientations_of_cup(d):
            checked = O.Weight(weight.text)
            assert type(weight) is O.Weight
            assert weight == checked and hash(weight) == hash(checked)
            # one slot each, no __dict__: the same state as the checked weight
            assert (weight.text, repr(weight)) == (checked.text, repr(checked))
            assert not hasattr(weight, "__dict__")


@pytest.mark.parametrize(
    "glue", [O.decompose, O.orient_circle_diagram, O.min_degree_element, O.Orientations]
)
def test_input_checks_name_what_is_wrong(glue):
    cap, cup = D.parse_dsl("2: c(1,2)").star(), D.parse_dsl("4: c(1,2);c(3,4)")
    with pytest.raises(O.OrientationError) as exc_info:
        glue(cap, cup)
    assert type(exc_info.value) is O.OrientationError
    assert str(exc_info.value) == "cap and cup must have the same vertex count"


def test_lookups_outside_a_decomposition():
    """A weight of another length orients nothing; a vertex outside the
    decomposition has no class; an inconsistent circle has no sign to its
    maximum; vertices of two classes have epsilon 0; and an
    ``Orientations`` equals no int."""
    cup = D.parse_dsl("2: c(1,2)")
    assert not O.is_oriented(w("v^v"), cup)
    two = D.parse_dsl("4: c(1,2);c(3,4)")
    dec = O.decompose(two.star(), two)
    with pytest.raises(KeyError):
        dec.class_of(5)
    assert (dec.epsilon(1, 3), dec.epsilon(1, 2)) == (0, -1)
    inconsistent = O.decompose(cup.star(), D.parse_dsl("2: c*(1,2)"))
    with pytest.raises(O.InconsistentOrientationError, match=r"ill-defined on component \(1, 2\)"):
        inconsistent.sign_to_max(1)
    orientations = O.orient_circle_diagram(cup.star(), cup)
    assert orientations.__eq__(3) is NotImplemented and (orientations == 3) is False


def test_weight_constructor_still_checks_symbols():
    for text in ("^x", "v^ ", "V"):
        with pytest.raises(O.OrientationError):
            O.Weight(text)


def _symbol_tuple_key(weight):
    """The canonical order as a tuple of symbols, down before up."""
    return tuple(0 if s == O.DOWN else 1 for s in weight.text)


@pytest.mark.parametrize("k", range(1, 11))
def test_orientations_of_cup_are_generated_in_canonical_order(k):
    for d in D.enumerate_diagrams(k, "any", "all"):
        got = O.orientations_of_cup(d)
        assert got == sorted(got, key=_symbol_tuple_key)


@pytest.mark.parametrize("k", range(1, 9))
def test_orientations_of_cup_take_cups_in_any_order(k):
    """A diagram built directly, cups not sorted by left end, gets the
    same canonically ordered weights as its validated twin."""
    for d in D.enumerate_diagrams(k, "any", "all"):
        reversed_cups = D.CupDiagram(d.k, d.cups[::-1], d.rays)
        assert O.orientations_of_cup(reversed_cups) == O.orientations_of_cup(d)


@pytest.mark.parametrize("k", range(1, 11))
def test_weight_sort_key_orders_like_the_symbol_tuple(k):
    weights = all_weights(k)
    random.Random(k).shuffle(weights)
    by_key = sorted(weights, key=O.Weight.sort_key)
    assert by_key == sorted(weights, key=_symbol_tuple_key)
    assert len({x.sort_key() for x in weights}) == 2 ** k


def test_decompose_mirror_doubling():
    a = D.parse_dsl("4: c*(1,2);c(3,4)")
    dec = O.decompose(a.star(), a)
    assert [(c.vertices, c.kind) for c in dec.classes] == [
        ((1, 2), "circle"),
        ((3, 4), "circle"),
    ]


def test_decompose_single_circle():
    dec = O.decompose(D.parse_dsl("4: c*(1,2);c(3,4)").star(), D.parse_dsl("4: c*(1,4);c(2,3)"))
    assert [(c.vertices, c.kind) for c in dec.classes] == [((1, 2, 3, 4), "circle")]
    assert dec.mx(2) == 4
    # signs to the maximum along the circle 1-2(dotted cap), 2-3(cup), 3-4(cap), 4-1(dotted cup)
    assert dec.sign_to_max(4) == 1
    assert dec.sign_to_max(1) == 1
    assert dec.sign_to_max(2) == 1
    assert dec.sign_to_max(3) == -1


def test_decompose_line():
    dec = O.decompose(D.parse_dsl("3: c(1,2);r(3)").star(), D.parse_dsl("3: r(1);c(2,3)"))
    assert [(c.vertices, c.kind) for c in dec.classes] == [((1, 2, 3), "line")]


def _same_k_pairs(k):
    """Every cap/cup pair on k vertices, any cup count, rays included."""
    pool = D.enumerate_diagrams(k, "any", "all").members
    return itertools.product(pool, repeat=2)


@pytest.mark.parametrize("k", range(1, 7))
def test_decompose_matches_union_find_oracle(k):
    for a, b in _same_k_pairs(k):
        assert O.decompose(a.star(), b) == oracle_decompose(a.star(), b)


def _assert_kernel_matches_previous_walk(cap, cup):
    """Whole-object equality with the kernel's previous code: classes,
    line labels, weights, degrees, decompositions and circle classes."""
    assert O.decompose(cap, cup) == oracle_walk_decompose(cap, cup)
    assert O.force_lines(cap, cup) == oracle_force_lines(cap, cup)
    assert O.orient_circle_diagram(cap, cup) == oracle_orient_circle_diagram(cap, cup)


@pytest.mark.parametrize("k", range(1, 7))
def test_kernel_matches_previous_walk_on_every_pair(k):
    for a, b in _same_k_pairs(k):
        _assert_kernel_matches_previous_walk(a.star(), b)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("k", range(1, 10))
def test_kernel_matches_previous_walk_on_maximal_pairs(k, parity):
    for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
        _assert_kernel_matches_previous_walk(a.star(), b)


def _maximal_pairs(k):
    """Every ordered pair of maximal diagrams on k vertices, both parities
    and across them."""
    return itertools.product(D.maximal_diagrams(k), repeat=2)


def _k32(blocks):
    """A k = 32 diagram: the DSL arcs ``blocks(i)`` for i = 1, 5, ..., 29."""
    return D.parse_dsl("32: " + ";".join(blocks(i) for i in range(1, 32, 4)))


K32_SIDE = _k32(lambda i: f"c({i},{i + 1});c({i + 2},{i + 3})")
K32_NESTED = _k32(lambda i: f"c({i},{i + 3});c({i + 1},{i + 2})")
K32_DOTTED = _k32(lambda i: f"c*({i},{i + 1});c({i + 2},{i + 3})")
# (cap side, cup): 16 circles whose maxima are out of least-vertex order,
# 8 circles of four vertices each way round, and two with no orientation
K32_PAIRS = [
    (K32_NESTED, K32_NESTED),
    (K32_SIDE, K32_NESTED),
    (K32_NESTED, K32_SIDE),
    (K32_SIDE, K32_DOTTED),
    (K32_DOTTED, K32_NESTED),
]


def _assert_sequence_matches_oracle(cap, cup):
    """Length, truth, iteration, every index (negative too), slices,
    out-of-range indices and == in both directions, against the oracle's
    list."""
    got = O.orient_circle_diagram(cap, cup)
    want = oracle_orient_circle_diagram(cap, cup)
    n = len(want)
    assert len(got) == n
    assert bool(got) == bool(want)
    assert list(got) == want
    assert [got[i] for i in range(-n, n)] == want + want
    for i in (n, -n - 1, n + 5):
        with pytest.raises(IndexError):
            got[i]
    for s in (slice(None, 3), slice(1, 9), slice(-3, None, 2), slice(None, None, -5), slice(n, None)):
        assert got[s] == want[s]
    assert got == want and want == got
    assert not got != want and not want != got
    assert (got == []) == ([] == got) == (n == 0)
    if n:
        assert got != want[:-1] and want[:-1] != got
    if n > 1:
        assert got != want[::-1] and want[::-1] != got
    assert got == O.orient_circle_diagram(cap, cup)
    if n:  # the records of the swapped pair name the halves the other way round
        assert (got == O.orient_circle_diagram(cup.star(), cap.star())) == (cap == cup.star())
    assert got.anticlockwise == (min_degree_of(want)[0] if want else None)


@pytest.mark.parametrize("k", range(1, 9))
def test_orientations_sequence_matches_oracle(k):
    for a, b in _maximal_pairs(k):
        _assert_sequence_matches_oracle(a.star(), b)


@pytest.mark.parametrize("k", range(1, 6))
def test_orientations_sequence_matches_oracle_with_lines(k):
    for a, b in _same_k_pairs(k):
        _assert_sequence_matches_oracle(a.star(), b)


@pytest.mark.parametrize("pair", range(len(K32_PAIRS)))
def test_orientations_sequence_matches_oracle_k32(pair):
    a, b = K32_PAIRS[pair]
    _assert_sequence_matches_oracle(a.star(), b)


def test_orientations_sequence_is_immutable_and_unhashable():
    a = K32_SIDE
    got = O.orient_circle_diagram(a.star(), a)
    with pytest.raises(TypeError):
        hash(got)
    for name in ("anticlockwise", "extra"):
        with pytest.raises(AttributeError):
            setattr(got, name, None)


@pytest.mark.parametrize("k", range(1, 9))
def test_orientability_test_builds_no_record(monkeypatch, k):
    """Truth and length read the circle count: no weight is written."""
    words = []
    word_weight = O._word_weight

    def counted(*args):
        words.append(args)
        return word_weight(*args)

    monkeypatch.setattr(O, "_word_weight", counted)
    orientable = []
    for a, b in _maximal_pairs(k):
        oriented = O.orient_circle_diagram(a.star(), b)
        if oriented:
            orientable.append(oriented)
            assert len(oriented) >= 1
    assert orientable and words == []
    orientable[-1][-1]
    assert len(words) == 1  # the counter sees a record when one is read


@pytest.mark.parametrize("k", range(1, 9))
def test_decompose_one_slot_over_interleaved_pairs(k):
    """decompose over pairs p, q, p always equals the union-find oracle:
    the slot holds only the last pair, and a hit needs the same objects."""
    pairs = [(a.star(), b) for a, b in _maximal_pairs(k)]
    for p, q in zip(pairs, pairs[1:] + pairs[:1]):
        for cap, cup in (p, q, p):
            assert O.decompose(cap, cup) == oracle_decompose(cap, cup)
    for cap, cup in pairs:
        oriented = O.orient_circle_diagram(cap, cup)
        dec = O.decompose(cap, cup)
        assert dec == oracle_decompose(cap, cup)
        if oriented:  # orient-then-decompose walks the pair once
            assert dec is oriented[0].decomposition
        # equal but not identical halves are walked again, with the same result
        copy = D.CapDiagram(cap.k, cap.cups, cap.rays)
        assert O.decompose(copy, cup) == dec
        assert O.decompose(copy, cup) is not dec


# Each read path of an Orientations, as the first read of a fresh object,
# with what it must return given the oracle's list of records.
_FIRST_READS = [
    (lambda got: got.anticlockwise, lambda want: min_degree_of(want)[0] if want else None),
    (lambda got: got[0] if got else None, lambda want: want[0] if want else None),
    (lambda got: got[-1] if got else None, lambda want: want[-1] if want else None),
    (lambda got: got[::2], lambda want: want[::2]),
    (list, list),
    (lambda got: got == want_of(got), lambda want: True),
    (lambda got: want_of(got) == got, lambda want: True),
]


def want_of(got):
    """The oracle's records for the pair an Orientations was made from."""
    return oracle_orient_circle_diagram(got._cap, got._cup)


@pytest.mark.parametrize("k", range(1, 7))
def test_every_read_path_prepares_a_fresh_sequence(k):
    """Each read path, taken first on a fresh object, gives the oracle's
    answer: no read relies on another having prepared the records."""
    for a, b in _same_k_pairs(k):
        cap = a.star()
        want = oracle_orient_circle_diagram(cap, b)
        for read, expected in _FIRST_READS:
            assert read(O.orient_circle_diagram(cap, b)) == expected(want)


@pytest.mark.parametrize("k", range(1, 7))
def test_prepare_runs_once_on_the_first_read(monkeypatch, k):
    """Truth and length prepare nothing; the first read prepares once,
    and every later read, of any path, prepares no more."""
    calls = []
    prepare = O.Orientations._prepare

    def counted(self):
        calls.append(self)
        prepare(self)

    monkeypatch.setattr(O.Orientations, "_prepare", counted)
    for a, b in _maximal_pairs(k):
        for read, _ in _FIRST_READS:
            got = O.orient_circle_diagram(a.star(), b)
            bool(got), len(got)
            assert calls == []
            read(got)
            assert len(calls) == (1 if got else 0)
            for again, _ in _FIRST_READS:
                again(got)
            assert len(calls) == (1 if got else 0)
            calls.clear()


@pytest.mark.parametrize("k", range(1, 9))
def test_truth_test_runs_glue_and_nothing_else(k):
    """The Python functions of this module that bool() and len() of a new
    sequence, and is_orientable, run are the constructors and the walk
    of _glue: no record is built."""
    ran = set()

    def profile(frame, event, _):
        code = frame.f_code
        if event == "call" and code.co_filename == O.__file__ and code.co_name[0] != "<":
            ran.add(code.co_name)

    for a, b in _maximal_pairs(k):
        cap = a.star()
        sys.setprofile(profile)
        try:
            got = O.orient_circle_diagram(cap, b)
            bool(got), len(got), O.is_orientable(cap, b)
        finally:
            sys.setprofile(None)
    assert ran == {
        "orient_circle_diagram", "__init__", "_glue", "__len__", "is_orientable"
    }


@pytest.mark.parametrize("k", range(1, 9))
def test_first_read_reuses_the_kept_forcing(monkeypatch, k):
    """The first read glues nothing: even after other pairs were glued in
    between, the records carry the decomposition made at construction."""
    walks = count_calls(monkeypatch, O, "decompose")
    pairs = [(a.star(), b) for a, b in _maximal_pairs(k)]
    for (cap, cup), other in zip(pairs, pairs[1:] + pairs[:1]):
        oriented = O.orient_circle_diagram(cap, cup)
        dec = O.decompose(cap, cup)
        O.orient_circle_diagram(*other)  # the one-slot cache now holds the other pair
        O.decompose(*other)
        before = len(walks)
        if oriented:
            assert dec is oriented[0].decomposition
            assert oriented.anticlockwise.decomposition is dec
            assert all(o.decomposition is dec for o in oriented)
        assert len(walks) == before
        assert oriented == oracle_orient_circle_diagram(cap, cup)


@pytest.mark.parametrize("k", range(1, 9))
def test_decompose_builds_exact_record_types(k):
    """decompose's records are the NamedTuple classes themselves, with
    the union-find oracle's fields."""
    for a, b in _same_k_pairs(k):
        cap = a.star()
        got = O.decompose(cap, b)
        assert got == oracle_decompose(cap, b)
        assert type(got) is O.ComponentDecomposition and type(got.classes) is tuple
        for cl in got.classes:
            assert type(cl) is O.ComponentClass
            assert type(cl.vertices) is tuple and type(cl.mx) is int
            assert cl.signs is None or (
                type(cl.signs) is tuple and all(type(s) is int for s in cl.signs)
            )


def _glue_cases():
    """Every pair of legal diagrams for k <= 6, and every maximal pair of
    each parity for k <= 10."""
    for k in range(1, 7):
        yield k, "any"
    for k in range(1, 11):
        yield k, "even"
        yield k, "odd"


@pytest.mark.parametrize("k, pool", list(_glue_cases()))
def test_glue_matches_oracle(k, pool):
    """The walk's flat facts are what the oracles find: orientability,
    the circle count, the components by least vertex with their maxima,
    each vertex's rewrite rule (the sign to its circle maximum, or death
    on a line) and the label each line vertex is forced to carry."""
    from cupcalc import ringcalc as R

    if pool == "any":
        pairs = _same_k_pairs(k)
    else:
        pairs = itertools.product(D.maximal_diagrams(k, pool), repeat=2)
    orientable = 0
    for a, b in pairs:
        cap = a.star()
        glued = O._glue(cap, b)
        forced = oracle_force_lines(cap, b)
        assert (glued is None) == (forced is None), (a.encode(), b.encode())
        if glued is None:
            continue
        orientable += 1
        dec = oracle_decompose(cap, b)
        assert glued.circles == len(dec.circles)
        assert [(sorted(verts), abs(top), "circle" if top > 0 else "line")
                for verts, top, _ in glued.components] == [
            (list(cl.vertices), cl.mx, cl.kind) for cl in dec.classes
        ]
        rules = {}
        for cl in dec.classes:
            for v, s in zip(cl.vertices, cl.signs):
                if cl.kind == "line":
                    rules[v] = None
                elif v != cl.mx:
                    rules[v] = (s, cl.mx)
        assert R._glued_rules(glued) == rules
        sign, labels = glued.sign, [None] * k
        for verts, top, ref in glued.components:
            if top < 0:
                for v in verts:
                    labels[v - 1] = O.UP if sign[v] * ref == 1 else O.DOWN
        assert tuple(labels) == forced.labels
    assert orientable


@pytest.mark.parametrize("k", range(1, 8))
def test_law_readers_build_no_component_record(monkeypatch, k):
    """is_orientable, bool and len of a glued sequence, the closed-form
    graded dimension and the centre read the walk alone: no
    ComponentClass is built.  Every record of this module is built in
    ``_Glued.decomposition``, which is counted here; reading a record
    shows the counter works."""
    from cupcalc import ringcalc as R
    from cupcalc import springer as S

    built = []
    decomposition = O._Glued.decomposition

    def counted(glued):
        built.append(glued)
        return decomposition.fget(glued)

    monkeypatch.setattr(O._Glued, "decomposition", property(counted))
    last = None
    for a, b in _maximal_pairs(k):
        oriented = O.orient_circle_diagram(a.star(), b)
        assert bool(oriented) == (len(oriented) > 0) == O.is_orientable(a.star(), b)
        last = oriented if oriented else last
    S.arc_algebra_graded_dimension_closed_form(k)
    for parity in ("even", "odd"):
        R.centre(k, parity)
    assert built == []
    assert type(last[0].decomposition.classes[0]) is O.ComponentClass
    assert len(built) == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_records_keep_the_dataclass_semantics(k):
    """The NamedTuple records equal the oracle's, and hash and print as
    the frozen dataclasses they replaced."""
    for a, b in _same_k_pairs(k):
        cap = a.star()
        dec = O.decompose(cap, b)
        assert dec == oracle_decompose(cap, b)
        oriented = O.orient_circle_diagram(cap, b)
        assert oriented == oracle_orient_circle_diagram(cap, b)
        records = [dec, *oriented]
        best = O.min_degree_element(a, b)
        if best is not None:
            records.append(best[0])
        for record in records:
            reference = as_dataclass_record(record)
            assert hash(record) == hash(reference)
            assert repr(record) == repr(reference)


@pytest.mark.parametrize("k", range(1, 7))
def test_orient_circle_diagram_matches_brute_force(k):
    for a, b in _same_k_pairs(k):
        oriented = O.orient_circle_diagram(a.star(), b)
        # brute_orientations lists weights in canonical order
        assert [o.weight for o in oriented] == brute_orientations(k, _arcs(a, b))
        for o in oriented:
            assert o.degree == brute_clockwise_count(o.weight, a) + brute_clockwise_count(
                o.weight, b
            )


@pytest.mark.parametrize("k", range(1, 7))
def test_glued_orientations_are_intersected_halves(k):
    """a*b is oriented by the weights orienting both a and b, in a's
    canonical order, with the two half degrees summed."""
    for a, b in _same_k_pairs(k):
        of_b = dict(O.graded_orientations(b))
        expected = [(w, d + of_b[w]) for w, d in O.graded_orientations(a) if w in of_b]
        glued = O.orient_circle_diagram(a.star(), b)
        assert [(o.weight, o.degree) for o in glued] == expected


@pytest.mark.parametrize("k", range(1, 11))
def test_graded_orientations_match_half_degree(k):
    for c in D.enumerate_diagrams(k, "any", "all"):
        graded = list(O.graded_orientations(c))
        assert [w for w, _ in graded] == brute_orientations(k, _arcs(c))
        for weight, degree in graded:
            assert degree == O.half_degree(weight, c)


@pytest.mark.parametrize("n", range(11))
def test_choice_sums_match_brute_force_product(monkeypatch, n):
    """start plus one (bits, extra) choice from each pair, summed over
    itertools.product in the same order (int degrees add, label tuples
    concatenate), with at most 2^ceil(n/2) partial sums held per half."""
    rng = random.Random(n)

    def choice(extra):
        if extra == "degree":
            more = rng.randrange(-9, 10)
        else:
            more = tuple(rng.choices(["a", "b", (1, "c")], k=rng.randrange(3)))
        return rng.randrange(-(2 ** 40), 2 ** 40), more

    held = []
    sums = O._sums

    def counted(choices, start):
        result = sums(choices, start)
        held.append(len(result))
        return result

    monkeypatch.setattr(O, "_sums", counted)
    for extra in ("degree", "labels", "degree", "labels"):
        choices = [(choice(extra), choice(extra)) for _ in range(n)]
        start = choice(extra)
        want = [
            (
                start[0] + sum(bits for bits, _ in picks),
                sum((more for _, more in picks), start[1]),
            )
            for picks in itertools.product(*choices)
        ]
        held.clear()
        assert list(O._choice_sums(choices, start)) == want
        assert len(held) == 2 and max(held) <= 2 ** ((n + 1) // 2)


def test_graded_orientations_are_built_as_read():
    """The 2^16 orientations of 16 side-by-side cups are read one at a
    time: the first costs the two halves' 2^8 words each, not the list."""
    c = D.parse_dsl("32: " + ";".join(f"c({i},{i + 1})" for i in range(1, 32, 2)))
    tracemalloc.start()
    try:
        rows = O.graded_orientations(c)
        first = next(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (O.Weight("v^" * 16), 0)
    assert peak < 500_000
    assert 1 + sum(1 for _ in rows) == 2 ** 16


@pytest.mark.parametrize("k", range(2, 7))
def test_epsilon_path_independence(k):
    """Orientable pairs give parity-consistent circles; inconsistent
    circles are exactly the non-orientable ones."""
    for parity in ("even", "odd"):
        for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
            dec = O.decompose(a.star(), b)
            oriented = O.orient_circle_diagram(a.star(), b)
            if oriented:
                assert all(c.parity_consistent for c in dec.classes)
                for c in dec.classes:
                    assert dec.epsilon(c.vertices[0], c.mx) == dec.sign_to_max(c.vertices[0])


@pytest.mark.parametrize("k", range(1, 7))
def test_force_lines_is_the_first_orientation_step(k):
    """force_lines is None exactly when no orientation exists; otherwise it
    holds the decomposition the orientations carry, and its line labels
    are the labels every orientation gives those vertices."""
    every = D.enumerate_diagrams(k, "any", "all")
    for a, b in itertools.product(every, repeat=2):
        forced = O.force_lines(a.star(), b)
        oriented = O.orient_circle_diagram(a.star(), b)
        assert (forced is None) == (oriented == []), (a.encode(), b.encode())
        assert O.is_orientable(a.star(), b) == bool(oriented)
        if forced is None:
            continue
        for o in oriented:
            assert o.decomposition == forced.decomposition
            assert all(sym in (None, o.weight.text[i]) for i, sym in enumerate(forced.labels))
        on_lines = {v for cl in forced.decomposition.classes if cl.kind == "line" for v in cl.vertices}
        assert {i + 1 for i, sym in enumerate(forced.labels) if sym} == on_lines


def test_orient_circle_diagram_empty_and_pair():
    a = D.parse_dsl("4: c*(1,2);c(3,4)")
    b_empty = D.parse_dsl("4: c(1,2);c*(3,4)")
    assert O.orient_circle_diagram(a.star(), b_empty) == []
    b = D.parse_dsl("4: c*(1,4);c(2,3)")
    got = {str(o.weight) for o in O.orient_circle_diagram(a.star(), b)}
    assert got == {"^^v^", "vv^v"}


def test_two_vertex_degrees():
    a = D.parse_dsl("2: c(1,2)")
    degrees = sorted(o.degree for o in O.orient_circle_diagram(a.star(), a))
    assert degrees == [0, 2]


def test_half_degree_examples():
    assert O.half_degree(w("v^v^v"), D.parse_dsl("5: c(1,4);c(2,3);r(5)")) == 1
    assert O.half_degree(w("v^vvv"), D.parse_dsl("5: c*(1,4);c(2,3);r(5)")) == 2


def test_half_degree_rejects_non_orientation():
    with pytest.raises(O.InconsistentOrientationError):
        O.half_degree(w("^^"), D.parse_dsl("2: c(1,2)"))


@pytest.mark.parametrize("k", range(2, 6))
def test_degree_matches_direct_count(k):
    for parity in ("even", "odd"):
        for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
            for o in O.orient_circle_diagram(a.star(), b):
                direct = brute_clockwise_count(o.weight, a) + brute_clockwise_count(
                    o.weight, b
                )
                assert o.degree == direct


@pytest.mark.parametrize("k", range(2, 6))
def test_circle_class_consistent_with_degree(k):
    """Flipping one circle moves the degree by exactly two, the
    anticlockwise side (rightmost label up) sitting lower."""
    for parity in ("even", "odd"):
        for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
            for o in O.orient_circle_diagram(a.star(), b):
                for mx, cls in o.circle_classes:
                    assert cls == ("anticlockwise" if o.weight[mx] == O.UP else "clockwise")
                    flipped = o.weight.flip(o.decomposition.class_of(mx).vertices)
                    delta = O.diagram_degree(a.star(), flipped, b) - o.degree
                    assert delta == (2 if cls == "anticlockwise" else -2)


@pytest.mark.parametrize("k", range(2, 7))
def test_degree_multiset_is_shifted_binomial(k):
    for parity in ("even", "odd"):
        for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
            oriented = O.orient_circle_diagram(a.star(), b)
            if not oriented:
                continue
            circles = len(O.decompose(a.star(), b).circles)
            base = min(o.degree for o in oriented)
            expected = sorted(
                base + 2 * bin(mask).count("1") for mask in range(1 << circles)
            )
            assert sorted(o.degree for o in oriented) == expected


def test_cross_parity_never_orientable():
    for k in range(2, 7):
        for a in D.maximal_diagrams(k, "even"):
            for b in D.maximal_diagrams(k, "odd"):
                assert O.orient_circle_diagram(a.star(), b) == []


def test_orientation_restricts_to_halves():
    for k in range(2, 6):
        for parity in ("even", "odd"):
            for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
                for o in O.orient_circle_diagram(a.star(), b):
                    assert O.is_oriented(o.weight, a)
                    assert O.is_oriented(o.weight, b)


def test_min_degree_examples():
    a = D.parse_dsl("3: c(1,2);r(3)")
    b = D.parse_dsl("3: r(1);c(2,3)")
    assert O.min_degree_element(a, a)[1] == 0
    assert O.min_degree_element(a, b)[1] == 1
    p = D.parse_dsl("4: c*(1,2);c(3,4)")
    q = D.parse_dsl("4: c*(1,4);c(2,3)")
    assert O.min_degree_element(p, q)[1] == 1
    assert O.min_degree_element(p, D.parse_dsl("4: c(1,2);c*(3,4)")) is None


@pytest.mark.parametrize("k", range(1, 7))
def test_min_degree_element_matches_oracle_on_every_pair(k):
    """Every pair on k vertices, lines included: the all-anticlockwise
    orientation is the unique minimum of the oracle's full list."""
    for a, b in _same_k_pairs(k):
        oriented = oracle_orient_circle_diagram(a.star(), b)
        assert O.min_degree_element(a, b) == (min_degree_of(oriented) if oriented else None)


@pytest.mark.parametrize("k", range(2, 9))
def test_min_degree_unique_and_formula(k):
    """min_degree_element builds one orientation; the minimum of the full
    list of orientations is the check."""
    m = k // 2
    for parity in ("even", "odd"):
        for a, b in itertools.product(D.maximal_diagrams(k, parity), repeat=2):
            got = O.min_degree_element(a, b)
            oriented = O.orient_circle_diagram(a.star(), b)
            if not oriented:
                assert got is None
                continue
            assert got == min_degree_of(oriented)
            circles = len(O.decompose(a.star(), b).circles)
            assert got[1] == m - circles
            assert sum(1 for o in oriented if o.degree == got[1]) == 1
            assert all(cls == "anticlockwise" for _, cls in got[0].circle_classes)


def test_cup_of_weight_examples():
    assert O.cup_of_weight(w("^^^^")).encode() == "4: c*(1,2);c*(3,4)"
    assert O.cup_of_weight(w("^v^^")).encode() == "4: c*(1,4);c(2,3)"
    assert O.cup_of_weight(w("v^v^")).encode() == "4: c(1,2);c(3,4)"


@pytest.mark.parametrize("k", range(1, 7))
def test_cup_of_weight_unique_degree_zero(k):
    pool = list(D.enumerate_diagrams(k, "any", "all"))
    for weight in all_weights(k):
        c = O.cup_of_weight(weight)
        assert O.half_degree(weight, c) == 0
        matches = [
            d
            for d in pool
            if O.is_oriented(weight, d) and O.half_degree(weight, d) == 0
        ]
        assert matches == [c]
        assert O.degree_zero_weight(c) == weight


def test_cup_of_weight_always_legal(monkeypatch):
    """On every weight with k <= 12, cup_of_weight builds, without calling
    validate, the diagram that validate returns for its arcs, and the
    weight orients it with degree zero."""
    calls = count_calls(monkeypatch, D, "validate")
    weights = [weight for k in range(1, 13) for weight in all_weights(k)]
    built = [O.cup_of_weight(weight) for weight in weights]
    assert calls == []
    for weight, c in zip(weights, built):
        assert c == D.validate(c.k, c.cups, c.rays)
        assert O.half_degree(weight, c) == 0
    with pytest.raises(D.DiagramError, match="vertex count must be a positive integer, got 0"):
        O.cup_of_weight(w(""))
