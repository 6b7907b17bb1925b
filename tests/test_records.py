"""The classes that replaced the package's dataclasses keep their semantics:
equality, hash, repr and str as the dataclass references in helpers, field
order and constructor signature; and all of them refuse assignment."""

import copy
import pickle
from dataclasses import fields

import pytest

from cupcalc import diagrams as D
from cupcalc import movegraph as M
from cupcalc import orientation as O
from cupcalc import ringcalc as R
from cupcalc import springer as S
from cupcalc import tableaux as T
from cupcalc.selftest import selftest
from helpers import DATACLASS_REFERENCES, as_dataclass, reference_fields

# str of the classes that define their own; the rest print their repr
OWN_STR = {
    D.CupDiagram: D._encode,
    D.CapDiagram: D._encode,
    O.Weight: lambda w: w.text,
}


def _instances(k):
    """Instances of every class in DATACLASS_REFERENCES, built at k."""
    diagrams = list(D.enumerate_diagrams(k, "any", "all"))
    parities = ("even", "odd")
    maximal = [d for p in parities for d in D.maximal_diagrams(k, p)]
    orientable = [
        (a, b) for p in parities for a in D.maximal_diagrams(k, p)
        for b in D.maximal_diagrams(k, p) if O.orient_circle_diagram(a.star(), b)
    ][:12]
    signed = list(T.enumerate_signed((k, k)))
    made = [
        *diagrams,
        *(d.star() for d in diagrams),
        *(D.enumerate_diagrams(k, cups, dots) for cups in ("max", "any") for dots in ("all", "even", "none")),
        *(w for d in diagrams for w in O.orientations_of_cup(d)),
        *(O.Weight(w.text) for w in O.orientations_of_cup(diagrams[-1])),
        S.presentation_ring(k),
        *(S.fixed_point_table(k, p) for p in parities),
        *T.enumerate_dt((k, k)),
        *signed,
        *(T.cyc(t) for t in signed),
        *(T.bitableau_of_cup(d) for d in diagrams),
        *T.enumerate_stables(k),
        *(M.move_graph(k, p) for p in parities),
        *(M.cup_forest(a) for a in maximal),
        *(m for a, b in orientable for m in R.restriction_maps(a, b)),
        *(R.centre(k, p) for p in parities),
        *(R.diagram_basis_dictionary(a, b) for a, b in orientable),
        *(g for a, b in orientable for g in R.gamma_maps(a, b)),
    ]
    report = selftest(max(k, 2))  # 2 is its least k_max
    return made + [report, *report.suites]


@pytest.mark.parametrize("k", range(1, 7))
def test_records_keep_their_dataclass_semantics(k):
    by_class = {}
    for obj in _instances(k):
        by_class.setdefault(type(obj), []).append(obj)
    if k >= 2:
        assert set(by_class) == set(DATACLASS_REFERENCES)
    for cls, objs in by_class.items():
        frozen = DATACLASS_REFERENCES[cls].__hash__ is not None
        # each with a fresh copy built by the constructor from its fields in order
        objs = objs[:60]
        objs += [cls(*reference_fields(obj)) for obj in objs]
        refs = [as_dataclass(obj) for obj in objs]
        for obj, ref in zip(objs, refs):
            assert repr(obj) == repr(ref)
            assert str(obj) == (OWN_STR[cls](obj) if cls in OWN_STR else repr(ref))
            if frozen:
                assert hash(obj) == hash(ref)
        for obj, ref in zip(objs, refs):
            assert [obj == other for other in objs] == [ref == other for other in refs]
            assert [obj != other for other in objs] == [ref != other for other in refs]
        # every one refuses assignment, the formerly mutable ones too
        obj, before = objs[0], repr(objs[0])
        name = fields(DATACLASS_REFERENCES[cls])[0].name
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = None
        assert repr(obj) == before


@pytest.mark.parametrize("k", range(1, 7))
def test_cup_and_cap_diagrams_never_equal(k):
    for d in D.enumerate_diagrams(k, "any", "all"):
        cap = D.CapDiagram(d.k, d.cups, d.rays)
        assert cap == d.star() and d == D.CupDiagram(d.k, d.cups, d.rays)
        assert d != cap and cap != d and not d == cap and not cap == d
        assert hash(d) == hash(cap) == hash((d.k, d.cups, d.rays))


@pytest.mark.parametrize("k", range(1, 11))
def test_word_weights_equal_checked_weights(k):
    for d in D.enumerate_diagrams(k, "max", "all"):
        for bits, _ in O._cup_words(d):
            weight = O._word_weight(k, bits)
            checked = O.Weight(weight.text)
            assert type(weight) is O.Weight
            assert weight == checked and hash(weight) == hash(checked) == hash((checked.text,))
            assert repr(weight) == repr(checked) == repr(as_dataclass(checked))


def test_weights_and_diagrams_copy_and_pickle():
    d = D.parse_dsl("5: c*(1,4);c(2,3);r(5)")
    assert d.encode() and d.partners  # with cached facts in its __dict__
    basis = R.diagram_basis_dictionary(d, d)
    values = (O.Weight("v^^v"), d, d.star(), D.enumerate_diagrams(3), T.bitableau_of_cup(d), basis)
    for obj in values:
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)
    # rebuilt through __init__, a dictionary looks its entries up again
    twin = pickle.loads(pickle.dumps(basis))
    assert [twin.orientation_of(mono) for mono, _ in basis.entries] == [o for _, o in basis.entries]
