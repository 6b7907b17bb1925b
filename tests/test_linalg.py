import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from cupcalc import linalg
from cupcalc import ringcalc as R
from helpers import (
    dense_rank,
    oracle_kernel_basis,
    oracle_presentation_relations,
    oracle_rref,
)


def assert_matches_oracle(rows):
    got = linalg.rref(rows)
    want = oracle_rref(rows)
    assert list(got) == list(want)  # pivot insertion order
    assert got == want
    assert all(type(v) is Fraction for row in got.values() for v in row.values())


def assert_kernel_matches_oracle(rows, ncols):
    got = linalg.kernel_basis(rows, ncols)
    want = oracle_kernel_basis(rows, ncols)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]  # dict order too
    assert all(type(c) is Fraction for v in got for c in v.values())


def centre_systems(monkeypatch, k, parity):
    """The (rows, ncols) that ``centre(k, parity)`` hands to ``kernel_basis``."""
    systems = []
    kernel_basis = linalg.kernel_basis

    def recording(rows, ncols):
        systems.append(([dict(row) for row in rows], ncols))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", recording)
    R.centre(k, parity)
    monkeypatch.undo()  # the caller's checks call the real kernel_basis
    assert systems
    return systems


def random_fraction_systems():
    """400 seeded sparse systems (rows, ncols) with Fraction entries."""
    rng = random.Random(20240917)
    values = [Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-4, 3),
              Fraction(2), Fraction(5, 7), Fraction(-1, 6), Fraction(9)]
    for _ in range(400):
        ncols = rng.randint(1, 12)
        rows = []
        for _ in range(rng.randint(0, 16)):
            cols = rng.sample(range(ncols), rng.randint(1, min(5, ncols)))
            rows.append({c: rng.choice(values) for c in cols})
        yield rows, ncols


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_rref_matches_oracle_on_centre_systems(monkeypatch, k, parity):
    for rows, _ in centre_systems(monkeypatch, k, parity):
        assert_matches_oracle(rows)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_kernel_basis_matches_oracle_on_centre_systems(monkeypatch, k, parity):
    for rows, ncols in centre_systems(monkeypatch, k, parity):
        assert_kernel_matches_oracle(rows, ncols)


@pytest.mark.parametrize("k", range(1, 10))
def test_rref_matches_oracle_on_presentation_relations(k):
    assert_matches_oracle(oracle_presentation_relations(k))


def test_rref_matches_oracle_on_random_fraction_rows():
    for rows, ncols in random_fraction_systems():
        assert_matches_oracle(rows)
        assert len(linalg.rref(rows)) == dense_rank(rows, ncols)


def test_kernel_basis_matches_oracle_on_random_fraction_rows():
    for rows, ncols in random_fraction_systems():
        assert_kernel_matches_oracle(rows, ncols)


def assert_kernel_entries_in_lowest_terms(rows, ncols):
    """Every entry is a Fraction in lowest terms with a positive
    denominator, the basis equals the oracle's, and the rows handed in
    are left as they were."""
    before = [dict(row) for row in rows]
    got = linalg.kernel_basis(rows, ncols)
    assert rows == before
    assert got == oracle_kernel_basis(rows, ncols)
    for vec in got:
        for v in vec.values():
            assert type(v) is Fraction
            assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_kernel_basis_entries_in_lowest_terms_on_centre_systems(monkeypatch, k, parity):
    for rows, ncols in centre_systems(monkeypatch, k, parity):
        assert all(type(v) is int for row in rows for v in row.values())  # the all-int path
        assert_kernel_entries_in_lowest_terms(rows, ncols)


def test_kernel_basis_entries_in_lowest_terms_on_random_fraction_rows():
    for rows, ncols in random_fraction_systems():
        assert_kernel_entries_in_lowest_terms(rows, ncols)
        # the same system with int entries, scaled per row to clear denominators
        int_rows = []
        for row in rows:
            scale = lcm(*(v.denominator for v in row.values()))
            int_rows.append({c: int(v * scale) for c, v in row.items()})
        assert_kernel_entries_in_lowest_terms(int_rows, ncols)
        assert linalg.kernel_basis(int_rows, ncols) == linalg.kernel_basis(rows, ncols)


def test_union_find_compares_exponents_by_modulus():
    # x_0 = t^2 x_1 and x_1 = t^-2 x_0 agree for every t
    for modulus in (0, 1, 2):
        uf = linalg.ScaledUnionFind(2, modulus)
        uf.relate(0, 1, 2)
        uf.relate(1, 0, -2)
        assert uf.live_class_count() == 1
    # x_0 = t x_1 and x_0 = t^3 x_1: equal at t = 1 and t = -1 only
    for modulus, live in ((0, 0), (1, 1), (2, 1)):
        uf = linalg.ScaledUnionFind(2, modulus)
        uf.relate(0, 1, 1)
        uf.relate(0, 1, 3)
        assert uf.live_class_count() == live
    # x_0 = t x_1 and x_0 = x_1: equal at t = 1 only
    for modulus, live in ((0, 0), (1, 1), (2, 0)):
        uf = linalg.ScaledUnionFind(2, modulus)
        uf.relate(0, 1, 1)
        uf.relate(0, 1, 0)
        assert uf.live_class_count() == live


def test_union_find_composes_exponents_along_paths():
    uf = linalg.ScaledUnionFind(4, 0)
    uf.relate(0, 1, 1)
    uf.relate(1, 2, 2)
    uf.relate(2, 3, -4)
    assert uf.root_and_weight(0)[1] - uf.root_and_weight(3)[1] == -1
    uf.relate(0, 3, -1)
    assert uf.live_class_count() == 1
    uf.kill(2)
    assert uf.live_class_count() == 0


def test_union_find_merging_a_dead_class_kills_the_live_one():
    uf = linalg.ScaledUnionFind(3, 0)
    uf.kill(0)
    assert uf.live_class_count() == 2
    uf.relate(0, 1, 0)  # the dead root 0 is hung under the live root 1
    assert uf.dead[uf.root_and_weight(0)[0]]
    assert uf.live_class_count() == 1
