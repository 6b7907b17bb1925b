"""Two-row domino tableaux, signs, clusters and the bijection stack.

A standard domino tableau of two-row shape (r, s) tiles the Young
diagram with dominoes labelled 1..(r+s)/2 so that box labels weakly
increase along rows and columns.  It is *admissible* when removing the
largest label repeatedly only passes through admissible shapes (equal
rows, or both rows odd); equivalently, every horizontal domino starts
in an even column.  Vertical dominoes in odd columns carry signs in a
signed tableau and delimit the *clusters*: a closed cluster runs from
such a vertical to the next even-column vertical, an open cluster has
no closing vertical and absorbs everything to its right.

Domino label v is vertex v of the cup diagram, so a tableau is fixed by
its *row list*: the row of each label in label order, 1 or 2 for a
horizontal in that row, "V" for a vertical.  A vertical sits where both
rows are equally long and only horizontals lie between two verticals, so
verticals alternate V1, V0 in label order.  The code reads that order
and sorts nothing: :func:`enumerate_dt` grows row lists in canonical
order, :func:`clusters` cuts the labels after each V0, and the
bijections with cup diagrams and the cycle moves read one stack walk
over the labels, :func:`_arcs`, in which bottom-row horizontals and V0s
close the last domino still open, and lay out row lists with
:func:`_place`.

The bijections implemented here, composable through cup diagrams:

* signed tableaux  <->  cup diagrams with floor(s/2) cups (the walk's
  pairs are the cups, a V1 closed by a V0 is an outer cup dotted by its
  sign, the open V1 is the first ray),
* signed tableaux up to closed-cluster signs  <->  standard domino
  tableaux (rectangular cycle moves: a plus-signed V1 and its V0 turn
  into a top-row and a bottom-row horizontal),
* two-row standard tableaux  <->  undecorated diagrams (bottom entries
  close cups, by the degree-zero walk of ``cup_of_weight``),
* cup diagrams  <->  bitableaux (one marked endpoint per arc; the round
  trip back to the marking checks the input),
* skew-symmetric two-column tables  <->  maximal diagrams via weights.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .diagrams import Cup, CupDiagram, Ray, dot_count_filter, encode, nesting, validate
from .errors import InputError, InternalCheckError
from .orientation import DOWN, UP, Weight, cup_of_weight, degree_zero_weight


class TableauError(InputError):
    pass


class InadmissibleShapeError(TableauError):
    pass


class ShapeMismatchError(TableauError):
    pass


class NotStandardError(TableauError):
    pass


def admissible_two_row(shape: Tuple[int, int]) -> bool:
    r, s = shape
    if r < s or s < 0:
        return False
    if s == 0:
        return r == 0 or r % 2 == 1
    return r == s or (r % 2 == 1 and s % 2 == 1)


class Domino(NamedTuple):
    label: int
    cells: tuple  # ((row, col), (row, col)) sorted; rows 1..2, cols 1..r

    @property
    def kind(self) -> str:
        (r1, c1), (r2, c2) = self.cells
        if c1 == c2:
            return "V1" if c1 % 2 == 1 else "V0"
        return "H"

    @property
    def left_col(self) -> int:
        return self.cells[0][1]

    @property
    def row(self) -> int:
        """Row of a horizontal domino."""
        return self.cells[0][0]


class DominoTableau(NamedTuple):
    shape: tuple
    dominoes: tuple  # sorted by label

    @property
    def n(self) -> int:
        return len(self.dominoes)

    def filling(self) -> Dict[tuple, int]:
        out = {}
        for d in self.dominoes:
            for cell in d.cells:
                out[cell] = d.label
        return out

    def sort_key(self) -> tuple:
        return tuple(d.cells for d in self.dominoes)


class SignedDominoTableau(NamedTuple):
    base: DominoTableau
    signs: tuple  # ((label, '+'|'-'), ...) for the odd-column verticals

    @property
    def shape(self) -> tuple:
        return self.base.shape

    @property
    def dominoes(self) -> tuple:
        return self.base.dominoes

    def sign_of(self, label: int) -> str:
        for lab, sign in self.signs:
            if lab == label:
                return sign
        raise KeyError(label)

    def sort_key(self) -> tuple:
        return (self.base.sort_key(), self.signs)


def domino_tableau(shape: Tuple[int, int], dominoes: Iterable) -> DominoTableau:
    """Validate a standard domino tableau (tiling + weakly increasing)."""
    r, s = shape
    if r < s or s < 0 or (r + s) % 2 == 1:
        raise TableauError(f"not a two-row domino shape: {shape}")
    doms = []
    for d in dominoes:
        if isinstance(d, Domino):
            doms.append(Domino(d.label, tuple(sorted(tuple(c) for c in d.cells))))
        else:
            label, cells = d
            doms.append(Domino(label, tuple(sorted(tuple(c) for c in cells))))
    doms.sort(key=lambda d: d.label)
    n = (r + s) // 2
    if len(doms) != n or [d.label for d in doms] != list(range(1, n + 1)):
        raise TableauError("labels must be 1..n, each on one domino")
    board = set()
    for d in doms:
        (r1, c1), (r2, c2) = d.cells
        if not ((r1 == r2 and c2 == c1 + 1) or (c1 == c2 and r2 == r1 + 1)):
            raise TableauError(f"cells of domino {d.label} are not adjacent: {d.cells}")
        for cell in d.cells:
            if cell in board:
                raise TableauError(f"overlapping cell {cell}")
            board.add(cell)
    expected = {(1, c) for c in range(1, r + 1)} | {(2, c) for c in range(1, s + 1)}
    if board != expected:
        raise TableauError(f"dominoes do not tile the shape {shape}")
    t = DominoTableau((r, s), tuple(doms))
    filling = t.filling()
    for (row, col), label in filling.items():
        if (row, col + 1) in filling and filling[(row, col + 1)] < label:
            raise NotStandardError(f"row decrease at {(row, col)}")
        if (row + 1, col) in filling and filling[(row + 1, col)] < label:
            raise NotStandardError(f"column decrease at {(row, col)}")
    return t


def is_admissible(t: DominoTableau) -> bool:
    """Every truncation (removing largest labels) has an admissible shape."""
    r, s = 0, 0
    for d in t.dominoes:  # rebuild in label order, checking prefix shapes
        for row, col in d.cells:
            if row == 1:
                r += 1
            else:
                s += 1
        if not admissible_two_row((r, s)):
            return False
    return True


def horizontal_rule(t: DominoTableau) -> bool:
    """Equivalent admissibility test: horizontals start in even columns."""
    return all(d.kind != "H" or d.left_col % 2 == 0 for d in t.dominoes)


def signed_domino_tableau(base: DominoTableau, signs) -> SignedDominoTableau:
    if not is_admissible(base):
        raise InadmissibleShapeError("tableau violates the truncation condition")
    sign_map = dict(signs)
    v1 = [d.label for d in base.dominoes if d.kind == "V1"]
    if sorted(sign_map) != sorted(v1):
        raise TableauError(
            f"signs must decorate exactly the odd-column verticals {sorted(v1)}"
        )
    if any(v not in ("+", "-") for v in sign_map.values()):
        raise TableauError("signs must be '+' or '-'")
    return SignedDominoTableau(base, tuple(sorted(sign_map.items())))


# ---------------------------------------------------------------------------
# Row lists and the label walk


def _rows(t) -> list:
    return [d.row if d.kind == "H" else "V" for d in t.dominoes]


def _place(shape: Tuple[int, int], rows) -> DominoTableau:
    """Lay domino 1, 2, ... at the first free columns of its rows.

    The callers pass row lists of standard tableaux of the shape, so the
    tableau is built without :func:`domino_tableau`'s checks; the tests
    run those checks on every tableau built here for n <= 10."""
    ends = [None, 0, 0]  # columns filled in rows 1 and 2
    dominoes = []
    for label, row in enumerate(rows, 1):
        if row == "V":
            cells = ((1, ends[1] + 1), (2, ends[2] + 1))
        else:
            cells = ((row, ends[row] + 1), (row, ends[row] + 2))
        for cell_row, col in cells:
            ends[cell_row] = col
        dominoes.append(Domino(label, cells))
    return DominoTableau(shape, tuple(dominoes))


def _arcs(t) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Walk the dominoes in label order: a bottom-row horizontal or a V0
    closes the last domino still open, any other domino opens.  Returns
    the (opener, closer) pairs in closing order and the labels left open.

    The walk cannot fail on a standard tableau: half the difference of
    the row lengths is open, plus a V1 still waiting for its V0, so a
    bottom-row horizontal always finds an opener; a V0 comes when the
    rows are equal, and by the alternation law only its V1 is then open.
    """
    pairs: List[Tuple[int, int]] = []
    stack: List[int] = []
    for d in t.dominoes:
        if d.kind == "V0" or (d.kind == "H" and d.row == 2):
            pairs.append((stack.pop(), d.label))
        else:
            stack.append(d.label)
    return pairs, stack


# ---------------------------------------------------------------------------
# Enumeration


@lru_cache(maxsize=None)
def enumerate_dt(shape: Tuple[int, int]) -> tuple:
    """All standard domino tableaux of a two-row shape, in canonical
    order: each label tries a top-row horizontal, a vertical, then a
    bottom-row horizontal, whose cells compare in that order."""
    r, s = shape
    if r < s or s < 0 or (r + s) % 2 == 1:
        raise InadmissibleShapeError(f"not a two-row domino shape: {shape}")
    results = []

    def grow(rc, sc, rows):
        if (rc, sc) == (r, s):
            results.append(_place(shape, rows))
            return
        if rc + 2 <= r:
            grow(rc + 2, sc, rows + [1])
        if rc == sc and rc + 1 <= r and sc + 1 <= s:
            grow(rc + 1, sc + 1, rows + ["V"])
        if sc + 2 <= s and sc + 2 <= rc:
            grow(rc, sc + 2, rows + [2])

    grow(0, 0, [])
    return tuple(results)


@lru_cache(maxsize=None)
def enumerate_adt(shape: Tuple[int, int]) -> tuple:
    """Admissible tableaux: the truncation chain stays admissible."""
    if not admissible_two_row(shape):
        raise InadmissibleShapeError(f"shape {shape} is not admissible")
    return tuple(t for t in enumerate_dt(shape) if is_admissible(t))


@lru_cache(maxsize=None)
def enumerate_signed(shape: Tuple[int, int]) -> tuple:
    """Signed tableaux in canonical order: :func:`enumerate_adt`'s, each
    with its signs in label order, ``+`` before ``-``."""
    out = []
    for t in enumerate_adt(shape):
        v1 = [d.label for d in t.dominoes if d.kind == "V1"]
        for combo in itertools.product("+-", repeat=len(v1)):
            out.append(SignedDominoTableau(t, tuple(zip(v1, combo))))
    return tuple(out)


# ---------------------------------------------------------------------------
# Clusters


class Cluster(NamedTuple):
    labels: tuple        # domino labels, ascending
    kind: str            # "closed" | "open"
    sign: Optional[str]  # the sign of its odd-column vertical, if signed
    columns: tuple       # (first col, last col) spanned


def clusters(t) -> List[Cluster]:
    """Left-to-right cluster decomposition of an admissible tableau: its
    dominoes in label order cut after each V0, the rest an open cluster.
    Each starts at a V1, as horizontals start in even columns."""
    base = t.base if isinstance(t, SignedDominoTableau) else t
    if not is_admissible(base):
        raise InadmissibleShapeError("clusters require an admissible tableau")
    parts = []
    current: List[Domino] = []
    for d in base.dominoes:
        current.append(d)
        if d.kind == "V0":
            parts.append(("closed", current))
            current = []
    if current:
        parts.append(("open", current))
    result = []
    for kind, doms_in in parts:
        v1 = [d for d in doms_in if d.kind == "V1"]
        if len(v1) != 1 or doms_in[0].kind != "V1":
            raise InternalCheckError("malformed cluster structure")
        sign = t.sign_of(v1[0].label) if isinstance(t, SignedDominoTableau) else None
        cols = (v1[0].left_col, max(d.cells[1][1] for d in doms_in))
        result.append(Cluster(tuple(d.label for d in doms_in), kind, sign, cols))
    return result


# ---------------------------------------------------------------------------
# Ordinary two-row standard tableaux <-> undecorated diagrams


def std_to_cups(top: Iterable[int], bottom: Iterable[int]) -> CupDiagram:
    """Bottom entries close cups with the nearest smaller unmatched top
    entry: the degree-zero walk of :func:`cup_of_weight` on the weight
    with ``v`` at top entries and ``^`` at bottom ones."""
    top, bottom = tuple(top), tuple(bottom)
    n = len(top) + len(bottom)
    if sorted(top + bottom) != list(range(1, n + 1)):
        raise NotStandardError("rows must partition 1..n")
    if list(top) != sorted(top) or list(bottom) != sorted(bottom):
        raise NotStandardError("rows must increase")
    if len(top) < len(bottom):
        raise NotStandardError("top row must be at least as long")
    for i, b in enumerate(bottom):
        if top[i] > b:
            raise NotStandardError(f"column {i + 1} decreases")
    topset = set(top)
    word = "".join(DOWN if v in topset else UP for v in range(1, n + 1))
    return cup_of_weight(Weight(word))


def cups_to_std(c: CupDiagram) -> Tuple[tuple, tuple]:
    if any(arc.dotted for arc in c.cups + c.rays):
        raise TableauError("only undecorated diagrams correspond to standard tableaux")
    top = sorted([cup.left for cup in c.cups] + [r.at for r in c.rays])
    bottom = sorted(cup.right for cup in c.cups)
    return tuple(top), tuple(bottom)


# ---------------------------------------------------------------------------
# Signed tableaux <-> decorated cup diagrams


def to_cup(t: SignedDominoTableau) -> CupDiagram:
    """Each (opener, closer) pair of the label walk is a cup and each
    domino left open a ray, on vertex = label.  By the alternation law a
    V0 closes a V1; that cup, and the ray of the V1 left open, are dotted
    when the V1 is minus-signed."""
    pairs, still_open = _arcs(t)
    minus = {lab for lab, sign in t.signs if sign == "-"}
    cups = [Cup(a, b, a in minus) for a, b in pairs]
    rays = [Ray(v, v in minus) for v in still_open]
    return validate(len(t.dominoes), cups, rays)


def from_cup(c: CupDiagram, shape: Optional[Tuple[int, int]] = None) -> SignedDominoTableau:
    """Inverse of :func:`to_cup`; the target shape is determined by the
    diagram (rays force both rows odd) and checked against ``shape``.

    The row list is read off the diagram, vertex v giving label v: both
    ends of an outer cup left of all rays, and the first ray, are
    verticals signed by their dot; every other left end or ray is in row
    1 and every other right end in row 2."""
    s = 2 * c.n_cups + bool(c.rays)
    derived = (2 * c.k - s, s)
    if shape is not None and tuple(shape) != derived:
        raise ShapeMismatchError(
            f"diagram {encode(c)} has shape {derived}, not {tuple(shape)}"
        )
    first_ray = c.rays[0].at if c.rays else c.k + 1
    rows = [1] * c.k  # left ends and rays unless set below
    signs = []
    for cup, outer in zip(c.cups, nesting(c.k, c.cups, c.rays).outer):
        if outer is None and cup.right < first_ray:
            rows[cup.left - 1] = rows[cup.right - 1] = "V"
            signs.append((cup.left, "-" if cup.dotted else "+"))
        else:
            rows[cup.right - 1] = 2
    if c.rays:
        rows[first_ray - 1] = "V"
        signs.append((first_ray, "-" if c.rays[0].dotted else "+"))
    return SignedDominoTableau(_place(derived, rows), tuple(sorted(signs)))


# ---------------------------------------------------------------------------
# Cycle moves: signed tableaux (mod closed-cluster signs) <-> standard tableaux


def cyc(t: SignedDominoTableau) -> DominoTableau:
    """In the row list, turn every plus-signed V1 and the V0 closing it
    into rows 1 and 2, then forget all signs.  This cycles each
    plus-signed closed cluster into its rectangle; the shape never
    changes."""
    rows = _rows(t)
    plus = {lab for lab, sign in t.signs if sign == "+"}
    for a, b in _arcs(t)[0]:
        if a in plus:
            rows[a - 1], rows[b - 1] = 1, 2
    return _place(t.shape, rows)


def cyc_inverse(S: DominoTableau) -> SignedDominoTableau:
    """Reverse :func:`cyc` on the row list: each odd-column top-row
    horizontal outside every earlier seed's pair is a seed, and it and
    its closer become verticals, a plus-signed V1 and its V0.  A V1
    closed by a V0 gets minus; the V1 left open gets plus (the class
    representative of :func:`cl_class`)."""
    if not admissible_two_row(S.shape):
        raise InadmissibleShapeError(f"shape {S.shape} is not admissible")
    rows = _rows(S)
    pairs, still_open = _arcs(S)
    signs = []
    seed_end = 0  # closer of the last seed
    for a, b in sorted(pairs):
        d = S.dominoes[a - 1]
        if a > seed_end and rows[a - 1] == 1 and d.left_col % 2 == 1:
            rows[a - 1] = rows[b - 1] = "V"
            signs.append((a, "+"))
            seed_end = b
        elif d.kind == "V1":
            signs.append((a, "-"))
    signs.extend((v, "+") for v in still_open if S.dominoes[v - 1].kind == "V1")
    return SignedDominoTableau(_place(S.shape, rows), tuple(sorted(signs)))


def cl_class(t: SignedDominoTableau) -> tuple:
    """The equivalence class of tableaux sharing closed-cluster signs:
    both signs of the V1 left open by the label walk, if there is one."""
    open_v1 = [v for v in _arcs(t)[1] if t.dominoes[v - 1].kind == "V1"]
    if not open_v1:
        return (t,)
    return tuple(
        SignedDominoTableau(
            t.base, tuple((lab, sign if lab == open_v1[0] else s) for lab, s in t.signs)
        )
        for sign in "+-"
    )


# ---------------------------------------------------------------------------
# Bitableaux


class Bitableau(NamedTuple):
    marked: tuple
    unmarked: tuple


def bitableau_of_cup(c: CupDiagram) -> Bitableau:
    """Mark one endpoint of every arc: within an outer cup left of all
    rays, left endpoints (right when the outer cup is dotted); ray
    vertices; left endpoints of cups beyond a ray."""
    marked = {r.at for r in c.rays}
    first_ray = min(marked, default=c.k + 1)
    for cup, outer in zip(c.cups, nesting(c.k, c.cups, c.rays).outer):
        if first_ray < cup.left:
            marked.add(cup.left)  # cup beyond a ray
        else:
            marked.add(cup.right if (outer or cup).dotted else cup.left)
    rest = sorted(set(range(1, c.k + 1)) - marked)
    return Bitableau(tuple(sorted(marked)), tuple(rest))


def cup_of_bitableau(bt: Bitableau, k: int, dots: str = "all") -> CupDiagram:
    """Inverse of :func:`bitableau_of_cup` by one left-to-right walk: a
    marked vertex opens an arc and an unmarked one closes the last open
    arc, except that an unmarked vertex with no arc open starts a dotted
    outer cup, inside which the roles swap; vertices left open are rays.

    The walk closes cups on the top of its stack and dots only the first
    ray and outer cups opened on an empty stack, so its arcs are legal
    for every marking; the round trip back to ``bt`` checks the input.

    Toggling the leftmost ray's dot keeps the marking, so whenever rays
    are present a dot-parity filter (``"even"``/``"odd"``) is needed to
    make the inverse unique.
    """
    keeps = dot_count_filter(k, dots)
    marked = {v for v in bt.marked if type(v) is int}
    cups = []
    stack: List[int] = []
    swapped = False  # inside a dotted outer cup
    for v in range(1, k + 1):
        if stack and (v in marked) == swapped:
            left = stack.pop()
            cups.append(Cup(left, v, swapped and not stack))
        else:
            if not stack:
                swapped = v not in marked
            stack.append(v)
    cups = tuple(sorted(cups))
    matches = []
    for lead_dotted in (False, True) if stack else (False,):
        rays = tuple(Ray(v, lead_dotted and v == stack[0]) for v in stack)
        d = CupDiagram(k, cups, rays)
        if bitableau_of_cup(d) == bt and keeps(d.dot_count):
            matches.append(d)
    if not matches:
        raise TableauError(f"no diagram on {k} vertices realizes {bt}")
    if len(matches) > 1:
        raise TableauError(
            f"{bt} is ambiguous on {k} vertices; fix a dot parity"
        )
    return matches[0]


# ---------------------------------------------------------------------------
# Skew-symmetric two-column tables


class STable(NamedTuple):
    k: int
    col1: tuple
    col2: tuple

    @property
    def index_set(self) -> frozenset:
        return frozenset(self.col2)


def stable(k: int, col1, col2) -> STable:
    col1, col2 = tuple(col1), tuple(col2)
    if len(col1) != k or len(col2) != k:
        raise TableauError("columns must have length k")
    values = set(col1) | set(col2)
    if values != {i for i in range(-k, k + 1) if i != 0} or len(col1) + len(col2) != 2 * k:
        raise TableauError("entries must use each of +-1..+-k once")
    for col in (col1, col2):
        if any(col[i] <= col[i + 1] for i in range(k - 1)):
            raise TableauError("columns must strictly decrease")
    if any(col1[i] >= col2[i] for i in range(k)):
        raise TableauError("rows must strictly increase")
    if any(col1[i] != -col2[k - 1 - i] for i in range(k)):
        raise TableauError("filling must be skew-symmetric")
    return STable(k, col1, col2)


def stable_of_index_set(indices) -> STable:
    iset = frozenset(indices)
    k = len(iset)
    col2 = tuple(sorted(iset, reverse=True))
    col1 = tuple(-col2[k - 1 - i] for i in range(k))
    return stable(k, col1, col2)


def enumerate_stables(k: int) -> tuple:
    out = []
    for combo in itertools.product((1, -1), repeat=k):
        iset = frozenset(sign * i for i, sign in zip(range(1, k + 1), combo))
        try:
            out.append(stable_of_index_set(iset))
        except TableauError:
            continue
    out.sort(key=lambda p: p.col2)
    return tuple(out)


def stable_to_cup(p: STable) -> CupDiagram:
    """Second column -> weight (up at i when +i occurs) -> its degree-zero diagram."""
    # here, not at the top: springer loads fractions, linalg and movegraph
    from . import springer

    return cup_of_weight(springer.weight_of_index_set(p.index_set, "stable"))


def cup_to_stable(c: CupDiagram) -> STable:
    """The table of c's degree-zero weight, if its rows strictly increase."""
    from . import springer

    iset = springer.index_set_of_weight(degree_zero_weight(c), "stable")
    col2 = sorted(iset, reverse=True)
    if any(hi + lo <= 0 for hi, lo in zip(col2, reversed(col2))):  # col1[i] >= col2[i]
        raise TableauError(f"no skew-symmetric table realizes {encode(c)}")
    return stable_of_index_set(iset)


# ---------------------------------------------------------------------------
# JSON forms


def tableau_to_json_dict(t) -> dict:
    signed = isinstance(t, SignedDominoTableau)
    base = t.base if signed else t
    doms = []
    for d in base.dominoes:
        sign = None
        if signed and d.kind == "V1":
            sign = t.sign_of(d.label)
        doms.append(
            {"label": d.label, "cells": [list(c) for c in d.cells], "sign": sign}
        )
    return {"shape": list(base.shape), "dominoes": doms}


def _int_list(obj, length: Optional[int] = None) -> bool:
    return (
        isinstance(obj, list)
        and length in (None, len(obj))
        and all(type(x) is int for x in obj)
    )


def tableau_from_json_dict(obj: dict, signed: bool):
    if not (isinstance(obj, dict) and _int_list(obj.get("shape"), 2)
            and isinstance(obj.get("dominoes"), list)):
        raise TableauError(
            f"a tableau must be an object with an integer pair 'shape' and a list "
            f"'dominoes', got {obj!r}"
        )
    for d in obj["dominoes"]:
        if not (isinstance(d, dict) and type(d.get("label")) is int
                and isinstance(d.get("cells"), list) and len(d["cells"]) == 2
                and all(_int_list(c, 2) for c in d["cells"])):
            raise TableauError(
                f"a domino must be an object with an integer 'label' and two "
                f"integer pairs 'cells', got {d!r}"
            )
    shape = tuple(obj["shape"])
    dominoes = [(d["label"], tuple(tuple(c) for c in d["cells"])) for d in obj["dominoes"]]
    base = domino_tableau(shape, dominoes)
    if not signed:
        return base
    signs = [
        (d["label"], d["sign"]) for d in obj["dominoes"] if d.get("sign") is not None
    ]
    return signed_domino_tableau(base, signs)


def bitableau_to_json(bt: Bitableau) -> list:
    return [list(bt.marked), list(bt.unmarked)]


def _pair_of_lists(obj, what: str) -> list:
    if not (isinstance(obj, list) and len(obj) == 2 and all(_int_list(x) for x in obj)):
        raise TableauError(f"{what} must be a pair of lists of integers, got {obj!r}")
    return obj


def bitableau_from_json(obj) -> Bitableau:
    marked, unmarked = _pair_of_lists(obj, "a bitableau")
    return Bitableau(tuple(marked), tuple(unmarked))


def stable_to_json(p: STable) -> list:
    return [list(p.col1), list(p.col2)]


def stable_from_json(obj) -> STable:
    col1, col2 = _pair_of_lists(obj, "a skew-symmetric table")
    return stable(len(col1), col1, col2)
