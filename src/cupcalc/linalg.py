"""Exact rational linear algebra over sparse rows.

Rows are dicts mapping column index to a nonzero Fraction.  Pivots are
chosen as the first nonzero column in ascending order, which makes the
reduced forms (and hence every echelon basis built from them) fully
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List


def _eliminate(row: Dict[int, Fraction], pivots: Dict[int, Dict[int, Fraction]]):
    row = dict(row)
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            return c, row
        factor = row[c]
        for cc, vv in piv.items():
            nv = row.get(cc, 0) - factor * vv
            if nv:
                row[cc] = nv
            else:
                row.pop(cc, None)
    return None, None


def rref(rows: List[Dict[int, Fraction]]) -> Dict[int, Dict[int, Fraction]]:
    """Reduced row echelon form, returned as pivot column -> unit row."""
    pivots: Dict[int, Dict[int, Fraction]] = {}
    for raw in rows:
        c, row = _eliminate(raw, pivots)
        if c is None:
            continue
        inv = Fraction(1) / row[c]
        row = {cc: vv * inv for cc, vv in row.items()}
        for pc, prow in pivots.items():
            f = prow.get(c)
            if f:
                for cc, vv in row.items():
                    nv = prow.get(cc, 0) - f * vv
                    if nv:
                        prow[cc] = nv
                    else:
                        prow.pop(cc, None)
        pivots[c] = row
    return pivots


def rank(rows: List[Dict[int, Fraction]]) -> int:
    return len(rref(rows))


def kernel_basis(rows: List[Dict[int, Fraction]], ncols: int) -> List[Dict[int, Fraction]]:
    """Echelon basis of the right kernel, one vector per free column."""
    pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for pc, prow in pivots.items():
            coeff = prow.get(free)
            if coeff:
                vec[pc] = -coeff
        basis.append(vec)
    return basis


class ScaledUnionFind:
    """Union-find with multiplicative edge weights and a zero marker.

    Tracks relations ``x_e = w * x_root`` between indexed unknowns plus
    ``x_e = 0`` facts; merging incompatible scalings kills the class.
    Used to reduce relation sets whose rows have at most two terms.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.weight = [Fraction(1)] * n
        self.dead = [False] * n

    def _root(self, e: int):
        chain = []
        while self.parent[e] != e:
            chain.append(e)
            e = self.parent[e]
        w = Fraction(1)
        # compress: point every node on the chain at the root
        for node in reversed(chain):
            w = w * self.weight[node]
            self.parent[node] = e
            self.weight[node] = w
        return e

    def root_and_weight(self, e: int):
        root = self._root(e)
        return root, self.weight[e] if e != root else Fraction(1)

    def kill(self, e: int):
        root = self._root(e)
        self.dead[root] = True

    def relate(self, a: int, b: int, ratio: Fraction):
        """Impose x_a = ratio * x_b."""
        ra, wa = self.root_and_weight(a)
        rb, wb = self.root_and_weight(b)
        if ra == rb:
            if wa != ratio * wb:
                self.dead[ra] = True
            return
        # x_ra = (ratio * wb / wa) * x_rb
        self.parent[ra] = rb
        self.weight[ra] = ratio * wb / wa
        if self.dead[ra]:
            self.dead[rb] = True

    def live_class_count(self) -> int:
        roots = {self._root(e) for e in range(len(self.parent))}
        return sum(1 for r in roots if not self.dead[r])
