"""Exact linear algebra over sparse rows, computed with integers.

Rows are dicts mapping column index to a nonzero rational: they enter
with int or Fraction entries and leave with Fraction entries, but the
arithmetic inside is integer.  Each row is cleared of denominators on
entry and eliminated fraction-free, in the style of Bareiss.  Pivots
are chosen as the first nonzero column in ascending order, which makes
the reduced forms (and hence every echelon basis built from them) fully
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Union


def _integer_row(row: Dict[int, Union[int, Fraction]]) -> Dict[int, int]:
    """The row times the lcm of its denominators; a copy of its nonzero
    entries when they are all ``int`` already, as centre rows are."""
    values = row.values()
    if all([v.__class__ is int for v in values]):
        return {c: v for c, v in row.items() if v}
    scale = lcm(*(v.denominator for v in values))
    return {c: v.numerator * (scale // v.denominator) for c, v in row.items() if v}


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """The row divided by the gcd of its entries, leading entry positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


def _eliminate(row: Dict[int, int], pivots: Dict[int, Dict[int, int]]):
    """Clear leading columns that already have a pivot, stopping at the
    first one that has none; every step keeps the row integral."""
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            return c, _primitive(row)
        a, p = row[c], piv[c]
        if p != 1:
            g = gcd(a, p)
            a, p = a // g, p // g
            row = {cc: p * vv for cc, vv in row.items()}
        for cc, vv in piv.items():
            nv = row.get(cc, 0) - a * vv
            if nv:
                row[cc] = nv
            else:
                del row[cc]
        if p != 1 and row:
            row = _primitive(row)
    return None, None


def _pivot_rows(rows: List[Dict[int, Fraction]]) -> Dict[int, Dict[int, int]]:
    """The echelon form behind :func:`rref`, as pivot column -> primitive
    integer row with a positive pivot entry, in the order pivots are found."""
    pivots: Dict[int, Dict[int, int]] = {}
    for raw in rows:
        c, row = _eliminate(_integer_row(raw), pivots)
        if c is None:
            continue
        p = row[c]
        for pc, prow in pivots.items():
            f = prow.get(c)
            if f:
                g = gcd(p, f)
                s, f = p // g, f // g
                if s != 1:
                    prow = {cc: s * vv for cc, vv in prow.items()}
                for cc, vv in row.items():
                    nv = prow.get(cc, 0) - f * vv
                    if nv:
                        prow[cc] = nv
                    else:
                        del prow[cc]
                pivots[pc] = _primitive(prow) if s != 1 else prow
        pivots[c] = row
    return pivots


def rref(rows: List[Dict[int, Fraction]]) -> Dict[int, Dict[int, Fraction]]:
    """Reduced row echelon form, returned as pivot column -> unit row.

    The unit rows are formed once, from the integer rows of
    :func:`_pivot_rows`.
    """
    out: Dict[int, Dict[int, Fraction]] = {}
    for c, row in _pivot_rows(rows).items():
        p = row[c]
        out[c] = {cc: Fraction(vv, p) for cc, vv in row.items()}
    return out


def kernel_basis(rows: List[Dict[int, Fraction]], ncols: int) -> List[Dict[int, Fraction]]:
    """Echelon basis of the right kernel, one vector per free column.

    The vector of a free column holds 1 there and, for each pivot row in
    the order pivots were found, minus that row's unit entry in the free
    column; one pass over the integer pivot rows fills them all.  The
    entries are immutable, so each distinct one is built once per call
    and shared between vectors.
    """
    pivots = _pivot_rows(rows)
    one = Fraction(1)
    basis = {free: {free: one} for free in range(ncols) if free not in pivots}
    entries: Dict[tuple, Fraction] = {}  # (vv, p) -> Fraction(-vv, p)
    for pc, prow in pivots.items():
        p = prow[pc]
        for cc, vv in prow.items():
            vec = basis.get(cc)
            if vec is not None:
                entry = entries.get((vv, p))
                if entry is None:
                    entry = entries[vv, p] = Fraction(-vv, p)
                vec[pc] = entry
    return list(basis.values())


class ScaledUnionFind:
    """Union-find over relations ``x_e = t^w * x_root`` plus a zero marker.

    Every weight is an integer exponent w of one fixed scalar t.  Two
    weights are equal when their exponents agree modulo ``modulus``:
    0 compares exactly (|t| != 1), 2 by parity (t = -1), and 1 never
    tells them apart (t = 1).  Merging incompatible scalings kills the
    class.  Used to reduce relation sets whose rows have at most two
    terms.
    """

    def __init__(self, n: int, modulus: int):
        self.parent = list(range(n))
        self.weight = [0] * n
        self.dead = [False] * n
        self.modulus = modulus

    def _root(self, e: int):
        parent = self.parent
        chain = []
        while parent[e] != e:
            chain.append(e)
            e = parent[e]
        if len(chain) > 1:
            # compress: point every node on the chain at the root
            weight = self.weight
            w = 0
            for node in reversed(chain):
                w += weight[node]
                parent[node] = e
                weight[node] = w
        return e

    def root_and_weight(self, e: int):
        root = self._root(e)
        return root, self.weight[e] if e != root else 0

    def kill(self, e: int):
        root = self._root(e)
        self.dead[root] = True

    def relate(self, a: int, b: int, exponent: int):
        """Impose x_a = t^exponent * x_b."""
        ra, wa = self.root_and_weight(a)
        rb, wb = self.root_and_weight(b)
        shift = exponent + wb - wa
        if self.modulus:
            shift %= self.modulus
        if ra == rb:
            if shift:
                self.dead[ra] = True
            return
        # x_ra = t^(exponent + wb - wa) * x_rb
        self.parent[ra] = rb
        self.weight[ra] = shift
        if self.dead[ra]:
            self.dead[rb] = True

    def live_class_count(self) -> int:
        roots = {self._root(e) for e in range(len(self.parent))}
        return sum(1 for r in roots if not self.dead[r])
