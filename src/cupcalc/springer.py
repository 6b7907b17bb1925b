"""Presentation rings, fixed-point tables and graded dimension counts.

The cohomology of one connected component of the fibre configuration is
presented as a quotient of Q[x_1..x_k]/(x_i^2): for odd k all monomials
x_I with |I| >= (k+1)/2 die; for even k the monomials with |I| > k/2
die and x_I is identified with its complementary monomial when
|I| = k/2.  Either way the quotient has dimension 2^(k-1), with an
explicit monomial basis.  The equivariant deformation replaces x_i^2
with t^2 (and, for odd k, inserts a factor t into the identification);
its dimension is 2^(k-1) for every value of t, and at t = 0 it is the
ring above.  Every monomial multiple of a defining relation pairs a
squarefree monomial x_a with its complement, as x_a = t^(2|a| - k)
times the complement, so one weighted union-find over the 2^k
squarefree monomials reduces the ideal at every t, one relation per
monomial.  At t = 0 those relations kill the monomials of more than
half the variables and, for even k, identify each half-size monomial
with its complement.  The live classes at t = 0 certify the explicit
basis, which must meet each live class exactly once.

Fixed points of the torus action on component intersections are
labelled by the weights orienting the glued diagram a*b.  Those are the
weights orienting both a and b, so each cell of the square intersection
table of a parity is the intersection of the two diagrams' orientation
sets.  Summing q^degree over all oriented diagrams yields the graded
dimension of the diagram algebra spanned by them, where the degree of
a*b under a weight is the sum of its two half degrees.  Both sweeps
are read per weight: a weight lambda orienting n_lambda diagrams lies
in n_lambda^2 cells, so they cost sum over lambda of n_lambda^2 rather
than one intersection of orientation sets per pair.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import linalg
from .diagrams import enumerate_encodings, maximal_diagrams
from .errors import InputError, InternalCheckError, SizeError
from .movegraph import _distance_row
from .orientation import DOWN, UP, Weight
from .orientation import _cup_words, _glue, _word_weight


class MalformedIndexSetError(InputError):
    pass


class UnequalRowShapeError(InputError):
    pass


# ---------------------------------------------------------------------------
# Presentation rings


class PresentationRing(NamedTuple):
    k: int
    basis: tuple          # monomials as frozensets, by (size, lex)
    graded_dims: tuple    # graded_dims[d] = number of basis monomials of size d
    relation_rank: int

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def graded_dims_cohomological(self) -> dict:
        return {2 * d: n for d, n in enumerate(self.graded_dims) if n}


def presentation_basis(k: int) -> List[frozenset]:
    """The monomials x_I with |I| < k/2, and for even k those with
    |I| = k/2 and k in I, by (size, lex)."""
    return [
        frozenset(c)
        for size in range(k // 2 + 1)
        for c in itertools.combinations(range(1, k + 1), size)
        if 2 * size < k or k in c
    ]


def presentation_ring(k: int) -> PresentationRing:
    """The 2^(k-1)-dimensional presentation ring with its monomial basis.

    The ring is the equivariant deformation at t = 0, so its relation
    classes come from :func:`_relation_classes`.  Those classes certify
    the claimed basis: its monomials lie in distinct live classes, one
    for each live class, so they span a complement of the ideal.
    """
    uf = _relation_classes(k, 0)
    basis = presentation_basis(k)
    live = uf.live_class_count()
    roots = {uf.root_and_weight(sum(1 << (i - 1) for i in m))[0] for m in basis}
    if len(roots) != len(basis) or live != len(basis) or any(uf.dead[r] for r in roots):
        raise InternalCheckError("claimed basis is not a complement of the relations")
    if len(basis) != 2 ** (k - 1):
        raise InternalCheckError("presentation dimension is not 2^(k-1)")
    dims = [0] * (k + 1)
    for m in basis:
        dims[len(m)] += 1
    return PresentationRing(k, tuple(basis), tuple(dims), 2 ** k - live)


def _relation_classes(k: int, t) -> linalg.ScaledUnionFind:
    """The deformed presentation ideal at a rational value t, reduced.

    The squarefree monomials are bitmasks, bit i - 1 standing for x_i;
    each coefficient is a power of t, so the union-find tracks
    exponents.  With C the complement of I and extra = k mod 2, the
    multiple x_m of the generator x_I - t^extra x_C reads
    t^e1 x_a - t^e2 x_b with a = m ^ I and b = m ^ C = full ^ a, where
    e2 - e1 = 2|a| - k whatever I is: every relation pairs a monomial
    with its complement, as x_a = t^(2|a| - k) x_(full ^ a).  One pass
    over the 2^k monomials imposes each of them once.  At t != 0 each
    is a relation of the union-find (both orientations of a pair are,
    and the union-find checks that they agree).  At t = 0, t^e vanishes
    for e > 0, so x_a dies when |a| > k / 2 and is identified with its
    complement, exponent 0, when |a| = k / 2; for |a| < k / 2 the
    relation kills the complement, which its own turn does.  The live
    classes index a basis of the quotient.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise SizeError(f"k must be positive, got {k!r}")
    t = Fraction(t)
    n = 1 << k
    full = n - 1
    uf = linalg.ScaledUnionFind(n, 1 if t == 1 else 2 if t == -1 else 0)
    relate, kill, deformed = uf.relate, uf.kill, t != 0
    for a in range(n):
        exponent = 2 * a.bit_count() - k
        if deformed or exponent == 0:
            relate(a, full ^ a, exponent)
        elif exponent > 0:
            kill(a)
    return uf


def equivariant_specialization(k: int, t) -> int:
    """Dimension of the deformed presentation ring at a rational value t."""
    return _relation_classes(k, t).live_class_count()


# ---------------------------------------------------------------------------
# Weights versus signed index sets


def _check_index_set(indices) -> Tuple[int, frozenset]:
    iset = frozenset(indices)
    if not iset or any(not isinstance(i, int) or isinstance(i, bool) or i == 0 for i in iset):
        try:
            listed = sorted(iset)
        except TypeError:  # entries that do not compare, such as 1 and "a"
            listed = sorted(iset, key=repr)
        raise MalformedIndexSetError(f"index set must contain signed nonzero integers: {listed}")
    size = max(abs(i) for i in iset)
    for i in range(1, size + 1):
        if (i in iset) == (-i in iset):
            raise MalformedIndexSetError(
                f"index set must contain exactly one of +-{i}: {sorted(iset)}"
            )
    return size, iset


def _flips(convention: str) -> bool:
    """Whether ``convention`` negates the stable index set; ValueError
    for an unknown one."""
    if convention not in ("stable", "fixed_point"):
        raise ValueError(f"unknown convention {convention!r}")
    return convention == "fixed_point"


def weight_of_index_set(indices, convention: str = "stable") -> Weight:
    """Decode a signed index set into a weight.

    ``"stable"``: up at i when +i is present; ``"fixed_point"``: up at i
    when -i is present.  The conventions differ by negating the set.
    """
    flip = _flips(convention)
    k, iset = _check_index_set(indices)
    return Weight("".join(UP if (i in iset) != flip else DOWN for i in range(1, k + 1)))


def index_set_of_weight(weight: Weight, convention: str = "stable") -> frozenset:
    flip = _flips(convention)
    return frozenset(i if (weight[i] == UP) != flip else -i for i in range(1, len(weight) + 1))


# ---------------------------------------------------------------------------
# Fixed-point tables and graded dimensions


class FixedPointTable(NamedTuple):
    k: int
    parity: str
    diagrams: tuple
    entries: tuple  # entries[i][j] = tuple of Weight

    def entry(self, i: int, j: int) -> tuple:
        return self.entries[i][j]

    def total_count(self) -> int:
        return sum(len(cell) for row in self.entries for cell in row)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "parity": self.parity,
            "diagrams": [d.encode() for d in self.diagrams],
            "table": [
                [[str(w) for w in cell] for cell in row] for row in self.entries
            ],
        }


def fixed_point_table(k: int, parity: str, shape: Optional[Tuple[int, int]] = None) -> FixedPointTable:
    """Square table of torus-fixed points on pairwise intersections.

    Cell (a, b) lists the weights orienting both a and b, in a's
    canonical order.  A weight orienting n_lambda of the diagrams lies
    in exactly n_lambda^2 cells, so the table is filled per weight: an
    index from each weight's bit word (see :mod:`orientation`) to the
    diagrams it orients is built once, and row a walks a's bit words in
    canonical order, appending the weight to the cells of the diagrams
    holding it.  That is sum over lambda of n_lambda^2 appends in all.
    One :class:`Weight` is built per distinct weight, without
    re-checking its symbols, and every cell holding that weight shares
    it.

    Only the equal-row case is meaningful; a ``shape`` other than (k, k)
    is refused rather than extrapolated.
    """
    if shape is not None and tuple(shape) != (k, k):
        raise UnequalRowShapeError(
            f"fixed-point tables require equal rows, got shape {tuple(shape)}"
        )
    diagrams = maximal_diagrams(k, parity)
    words = [[bits for bits, _ in _cup_words(d)] for d in diagrams]
    holders: Dict[int, List[int]] = {}  # bit word -> indices of the diagrams it orients
    for i, ws in enumerate(words):
        for bits in ws:
            holders.setdefault(bits, []).append(i)
    weights = {bits: _word_weight(k, bits) for bits in holders}
    entries = []
    for ws in words:
        row: List[list] = [[] for _ in diagrams]
        for bits in ws:
            w = weights[bits]
            for j in holders[bits]:
                row[j].append(w)
        entries.append(tuple(map(tuple, row)))
    return FixedPointTable(k, parity, diagrams, tuple(entries))


class GradedDimension(NamedTuple):
    coefficients: dict  # q-exponent -> coefficient
    total: int          # value at q = 1


def arc_algebra_graded_dimension(k: int) -> GradedDimension:
    """Graded dimension of the span of all oriented glued diagrams.

    Sums q^degree over every orientation of every same-parity ordered
    pair of maximal diagrams.  A weight lambda orients a*b exactly when
    it orients a and b, with degree deg(a lambda) + deg(lambda b), so
    the sum is, per parity, the sum over lambda of
    (sum over the diagrams a oriented by lambda of q^deg(a lambda))^2:
    the half degrees are grouped by weight and added over the n_lambda^2
    pairs within each group, counted by half degree.  The groups are
    keyed by each weight's bit word (see :mod:`orientation`), so no
    :class:`Weight` is built at all.
    """
    coeffs: Dict[int, int] = {}
    for parity in ("even", "odd"):
        by_weight: Dict[int, Dict[int, int]] = {}  # bit word -> half degree -> diagrams
        for c in maximal_diagrams(k, parity):
            for bits, d in _cup_words(c):
                counts = by_weight.setdefault(bits, {})
                counts[d] = counts.get(d, 0) + 1
        for counts in by_weight.values():
            for da, na in counts.items():
                for db, nb in counts.items():
                    coeffs[da + db] = coeffs.get(da + db, 0) + na * nb
    return GradedDimension(dict(sorted(coeffs.items())), sum(coeffs.values()))


def arc_algebra_graded_dimension_closed_form(k: int) -> GradedDimension:
    """The same polynomial via q^d(a,b) (1+q^2)^circles per orientable pair,
    with d(a,b) taken from the move graph.  It glues every pair, so it
    stays an independent check on the per-weight sum above.  The move
    graph's nodes are the maximal diagrams in this order, so a's
    distances are one BFS row, read once per a.  Pairs are counted by
    (distance, circles) first, and each count is expanded once."""
    pairs: Dict[Tuple[int, int], int] = {}
    for parity in ("even", "odd"):
        diagrams = maximal_diagrams(k, parity)
        for ia, a in enumerate(diagrams):
            cap = a.star()
            row = _distance_row(k, parity, ia)
            for b, d in zip(diagrams, row):
                glued = _glue(cap, b)
                if glued is None:
                    continue
                key = (d, glued.circles)
                pairs[key] = pairs.get(key, 0) + 1
    coeffs: Dict[int, int] = {}
    for (d, circles), n in pairs.items():
        for flipped in range(circles + 1):
            coeffs[d + 2 * flipped] = coeffs.get(d + 2 * flipped, 0) + n * math.comb(circles, flipped)
    return GradedDimension(dict(sorted(coeffs.items())), sum(coeffs.values()))


def filtration_census(k: int) -> List[Tuple[int, int]]:
    """Number of legal diagrams on k vertices with j cups, j = 0..floor(k/2).

    The level counts, read from the encodings without building a
    diagram, always total 2^k.
    """
    census = [
        (j, len(enumerate_encodings(k, cups=j, dots="all")))
        for j in range(k // 2 + 1)
    ]
    if sum(c for _, c in census) != 2 ** k:
        raise InternalCheckError(f"filtration census of k={k} does not total 2^{k}")
    return census
