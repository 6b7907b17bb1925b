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

The bijections implemented here, composable through cup diagrams:

* signed tableaux  <->  cup diagrams with floor(s/2) cups (clusters map
  to decorated outer cups/rays over the ordinary two-row bijection),
* signed tableaux up to closed-cluster signs  <->  standard domino
  tableaux (rectangular cycle moves),
* two-row standard tableaux  <->  undecorated diagrams (bottom entries
  close cups),
* cup diagrams  <->  bitableaux (one marked endpoint per arc),
* skew-symmetric two-column tables  <->  maximal diagrams via weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .diagrams import Cup, CupDiagram, InvalidDiagramError, Ray, dot_count_filter, encode, nesting, validate
from .errors import InternalCheckError
from .orientation import Weight, degree_zero_weight, cup_of_weight
from .springer import index_set_of_weight, weight_of_index_set


class TableauError(ValueError):
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


@dataclass(frozen=True)
class DominoTableau:
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


@dataclass(frozen=True)
class SignedDominoTableau:
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
        r2, s2 = max(r, s), min(r, s)
        if (r2, s2) != (r, s) or not admissible_two_row((r, s)):
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
# Enumeration


@lru_cache(maxsize=None)
def enumerate_dt(shape: Tuple[int, int]) -> tuple:
    """All standard domino tableaux of a two-row shape, canonical order."""
    r, s = shape
    if r < s or s < 0 or (r + s) % 2 == 1:
        raise InadmissibleShapeError(f"not a two-row domino shape: {shape}")
    results = []

    def grow(rc, sc, dominoes):
        if (rc, sc) == (r, s):
            results.append(domino_tableau(shape, dominoes))
            return
        label = len(dominoes) + 1
        if rc + 2 <= r:
            grow(rc + 2, sc, dominoes + [(label, ((1, rc + 1), (1, rc + 2)))])
        if sc + 2 <= s and sc + 2 <= rc:
            grow(rc, sc + 2, dominoes + [(label, ((2, sc + 1), (2, sc + 2)))])
        if rc == sc and rc + 1 <= r and sc + 1 <= s:
            grow(rc + 1, sc + 1, dominoes + [(label, ((1, rc + 1), (2, sc + 1)))])

    grow(0, 0, [])
    results.sort(key=DominoTableau.sort_key)
    return tuple(results)


@lru_cache(maxsize=None)
def enumerate_adt(shape: Tuple[int, int]) -> tuple:
    """Admissible tableaux: the truncation chain stays admissible."""
    if not admissible_two_row(shape):
        raise InadmissibleShapeError(f"shape {shape} is not admissible")
    return tuple(t for t in enumerate_dt(shape) if is_admissible(t))


@lru_cache(maxsize=None)
def enumerate_signed(shape: Tuple[int, int]) -> tuple:
    out = []
    for t in enumerate_adt(shape):
        v1 = [d.label for d in t.dominoes if d.kind == "V1"]
        for combo in itertools.product("+-", repeat=len(v1)):
            out.append(signed_domino_tableau(t, zip(v1, combo)))
    out.sort(key=SignedDominoTableau.sort_key)
    return tuple(out)


# ---------------------------------------------------------------------------
# Clusters


class Cluster(NamedTuple):
    labels: tuple        # domino labels, ascending
    kind: str            # "closed" | "open"
    sign: Optional[str]  # the sign of its odd-column vertical, if signed
    columns: tuple       # (first col, last col) spanned


def clusters(t) -> List[Cluster]:
    """Left-to-right cluster decomposition of an admissible tableau."""
    base = t.base if isinstance(t, SignedDominoTableau) else t
    if not is_admissible(base):
        raise InadmissibleShapeError("clusters require an admissible tableau")
    doms = sorted(base.dominoes, key=lambda d: (d.left_col, d.cells))
    out = []
    current: List[Domino] = []
    for d in doms:
        current.append(d)
        if d.kind == "V0":
            out.append(("closed", current))
            current = []
    if current:
        out.append(("open", current))
    result = []
    for kind, doms_in in out:
        v1 = [d for d in doms_in if d.kind == "V1"]
        if len(v1) != 1 or doms_in[0].kind != "V1":
            raise InternalCheckError("malformed cluster structure")
        sign = t.sign_of(v1[0].label) if isinstance(t, SignedDominoTableau) else None
        cols = (
            min(d.left_col for d in doms_in),
            max(max(c for _, c in d.cells) for d in doms_in),
        )
        result.append(
            Cluster(tuple(sorted(d.label for d in doms_in)), kind, sign, cols)
        )
    return result


# ---------------------------------------------------------------------------
# Ordinary two-row standard tableaux <-> undecorated diagrams


def std_to_cups(top: Iterable[int], bottom: Iterable[int]) -> CupDiagram:
    """Bottom entries close cups with the nearest smaller unmatched top entry."""
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
    stack: List[int] = []
    cups = []
    for v in range(1, n + 1):
        if v in topset:
            stack.append(v)
        else:
            cups.append(Cup(stack.pop(), v, False))
    rays = [Ray(v, False) for v in stack]
    return validate(n, cups, rays)


def cups_to_std(c: CupDiagram) -> Tuple[tuple, tuple]:
    if any(arc.dotted for arc in c.cups + c.rays):
        raise TableauError("only undecorated diagrams correspond to standard tableaux")
    top = sorted([cup.left for cup in c.cups] + [r.at for r in c.rays])
    bottom = sorted(cup.right for cup in c.cups)
    return tuple(top), tuple(bottom)


# ---------------------------------------------------------------------------
# Signed tableaux <-> decorated cup diagrams


def to_cup(t: SignedDominoTableau) -> CupDiagram:
    """Clusters become decorated outer cups (closed) or a leading ray (open)."""
    cups: List[Cup] = []
    rays: List[Ray] = []
    offset = 0
    for cluster in clusters(t):
        labels = cluster.labels
        d = len(labels)
        by_label = {dom.label: dom for dom in t.dominoes}
        h_top = [lab for lab in labels if by_label[lab].kind == "H" and by_label[lab].row == 1]
        h_bot = [lab for lab in labels if by_label[lab].kind == "H" and by_label[lab].row == 2]
        ranks = {lab: i + 1 for i, lab in enumerate(sorted(h_top + h_bot))}
        inner = (
            std_to_cups(
                tuple(ranks[lab] for lab in sorted(h_top)),
                tuple(ranks[lab] for lab in sorted(h_bot)),
            )
            if ranks
            else None
        )
        if cluster.kind == "closed":
            cups.append(Cup(offset + 1, offset + d, cluster.sign == "-"))
        else:
            rays.append(Ray(offset + 1, cluster.sign == "-"))
        if inner is not None:
            shift = offset + 1
            for cup in inner.cups:
                cups.append(Cup(cup.left + shift, cup.right + shift, False))
            for ray in inner.rays:
                rays.append(Ray(ray.at + shift, False))
        offset += d
    return validate(offset, cups, rays)


def _derived_shape(c: CupDiagram) -> Tuple[int, int]:
    if c.rays:
        s = 2 * c.n_cups + 1
    else:
        s = 2 * c.n_cups
    return (2 * c.k - s, s)


def from_cup(c: CupDiagram, shape: Optional[Tuple[int, int]] = None) -> SignedDominoTableau:
    """Inverse of :func:`to_cup`; the target shape is determined by the
    diagram (rays force both rows odd) and checked against ``shape``."""
    derived = _derived_shape(c)
    if shape is not None and tuple(shape) != derived:
        raise ShapeMismatchError(
            f"diagram {encode(c)} has shape {derived}, not {tuple(shape)}"
        )
    r, s = derived
    first_ray = c.rays[0].at if c.rays else None
    dominoes: List[tuple] = []

    def fill_horizontals(inner_cups, inner_rays, v_col):
        """The arcs right of the vertical at v_col become horizontals:
        left ends and rays in the top row, right ends in the bottom."""
        top = sorted([x.left for x in inner_cups] + [x.at for x in inner_rays])
        bottom = sorted(x.right for x in inner_cups)
        for row, labels in ((1, top), (2, bottom)):
            for i, v in enumerate(labels):
                col = v_col + 2 * i + 1
                dominoes.append((v, ((row, col), (row, col + 1))))

    signs = []
    closed_region_end = (first_ray - 1) if first_ray is not None else c.k
    outer = nesting(c.k, c.cups, c.rays).outer
    inner: Dict[Cup, list] = {cup: [] for cup, o in zip(c.cups, outer) if o is None}
    for cup, o in zip(c.cups, outer):
        if o is not None:
            inner[o].append(cup)
    for cup in sorted(x for x in inner if x.right <= closed_region_end):
        dominoes.append((cup.left, ((1, cup.left), (2, cup.left))))
        dominoes.append((cup.right, ((1, cup.right), (2, cup.right))))
        signs.append((cup.left, "-" if cup.dotted else "+"))
        fill_horizontals(inner[cup], [], cup.left)
    if first_ray is not None:
        dominoes.append((first_ray, ((1, first_ray), (2, first_ray))))
        signs.append((first_ray, "-" if c.rays[0].dotted else "+"))
        open_cups = [x for x in c.cups if x.left > first_ray]
        open_rays = [x for x in c.rays if x.at > first_ray]
        fill_horizontals(open_cups, open_rays, first_ray)
    base = domino_tableau((r, s), dominoes)
    return signed_domino_tableau(base, signs)


# ---------------------------------------------------------------------------
# Cycle moves: signed tableaux (mod closed-cluster signs) <-> standard tableaux


def _cycle_cluster(t: SignedDominoTableau, cluster: Cluster) -> List[tuple]:
    """Rewrite one closed cluster as the all-horizontal rectangle."""
    by_label = {d.label: d for d in t.dominoes}
    first, last = cluster.columns
    v1 = by_label[cluster.labels[0]]
    v0_label = next(
        lab for lab in cluster.labels if by_label[lab].kind == "V0"
    )
    tops = [lab for lab in cluster.labels if by_label[lab].kind == "H" and by_label[lab].row == 1]
    bots = [lab for lab in cluster.labels if by_label[lab].kind == "H" and by_label[lab].row == 2]
    new_top = [v1.label] + sorted(tops)
    new_bot = sorted(bots) + [v0_label]
    out = []
    for i, lab in enumerate(new_top):
        col = first + 2 * i
        out.append((lab, ((1, col), (1, col + 1))))
    for i, lab in enumerate(new_bot):
        col = first + 2 * i
        out.append((lab, ((2, col), (2, col + 1))))
    return out


def cyc(t: SignedDominoTableau) -> DominoTableau:
    """Cycle every plus-signed closed cluster into its rectangle, then
    forget all signs.  Minus-signed clusters and the open cluster keep
    their dominoes, so the shape never changes."""
    dominoes: List[tuple] = []
    by_label = {d.label: d for d in t.dominoes}
    for cluster in clusters(t):
        if cluster.kind == "closed" and cluster.sign == "+":
            dominoes.extend(_cycle_cluster(t, cluster))
        else:
            dominoes.extend((lab, by_label[lab].cells) for lab in cluster.labels)
    return domino_tableau(t.shape, dominoes)


def _find_rectangle(S: DominoTableau, col: int):
    """Smallest both-rows horizontal rectangle at ``col`` whose 2u labels
    are consecutive integers; None if no width works."""
    by_cell = S.filling()
    doms = {d.label: d for d in S.dominoes}
    _, s = S.shape
    u = 1
    while col + 2 * u - 1 <= s:
        labels = []
        ok = True
        for i in range(u):
            cc = col + 2 * i
            for row in (1, 2):
                lab = by_cell.get((row, cc))
                dd = doms.get(lab) if lab is not None else None
                if dd is None or dd.kind != "H" or dd.left_col != cc or dd.row != row:
                    ok = False
                    break
                labels.append(lab)
            if not ok:
                break
        if ok and sorted(labels) == list(range(min(labels), min(labels) + 2 * u)):
            return u
        u += 1
    return None


def cyc_inverse(S: DominoTableau) -> SignedDominoTableau:
    """Reverse every seeded odd-column rectangle back into a plus-signed
    cluster; untouched odd-column verticals get minus.  Seeds are the
    leftmost-first odd-column top-row horizontals; the open cluster's
    sign is normalized to plus afterwards (the class representative)."""
    if not admissible_two_row(S.shape):
        raise InadmissibleShapeError(f"shape {S.shape} is not admissible")
    by_cell = S.filling()
    doms = {d.label: d for d in S.dominoes}
    r, _ = S.shape
    claimed: set = set()
    new_dominoes: List[tuple] = []
    signs: List[tuple] = []
    col = 1
    while col <= r:
        lab = by_cell.get((1, col))
        d = doms[lab]
        if d.kind == "H" and col % 2 == 1 and d.left_col == col and lab not in claimed:
            u = _find_rectangle(S, col)
            if u is None:
                raise InternalCheckError(
                    f"no rectangle completes the horizontal at column {col}"
                )
            tops = sorted(by_cell[(1, col + 2 * i)] for i in range(u))
            bots = sorted(by_cell[(2, col + 2 * i)] for i in range(u))
            claimed.update(tops)
            claimed.update(bots)
            v1_label, v0_label = tops[0], bots[-1]
            new_dominoes.append((v1_label, ((1, col), (2, col))))
            signs.append((v1_label, "+"))
            for i, lab2 in enumerate(tops[1:]):
                cc = col + 2 * i + 1
                new_dominoes.append((lab2, ((1, cc), (1, cc + 1))))
            for i, lab2 in enumerate(bots[:-1]):
                cc = col + 2 * i + 1
                new_dominoes.append((lab2, ((2, cc), (2, cc + 1))))
            new_dominoes.append((v0_label, ((1, col + 2 * u - 1), (2, col + 2 * u - 1))))
            col += 2 * u
        else:
            col += 1
    for d in S.dominoes:
        if d.label not in claimed:
            new_dominoes.append((d.label, d.cells))
            if d.kind == "V1":
                signs.append((d.label, "-"))
    base = domino_tableau(S.shape, new_dominoes)
    t = signed_domino_tableau(base, signs)
    open_clusters = [cl for cl in clusters(t) if cl.kind == "open"]
    if open_clusters:
        v1_label = open_clusters[0].labels[0]
        adjusted = tuple(
            (lab, "+" if lab == v1_label else sign) for lab, sign in t.signs
        )
        t = SignedDominoTableau(base, adjusted)
    return t


def cl_class(t: SignedDominoTableau) -> tuple:
    """The equivalence class of tableaux sharing closed-cluster signs."""
    open_clusters = [cl for cl in clusters(t) if cl.kind == "open"]
    if not open_clusters:
        return (t,)
    v1_label = open_clusters[0].labels[0]
    variants = []
    for sign in "+-":
        adjusted = tuple(
            (lab, sign if lab == v1_label else s) for lab, s in t.signs
        )
        variants.append(SignedDominoTableau(t.base, adjusted))
    return tuple(variants)


# ---------------------------------------------------------------------------
# Bitableaux


@dataclass(frozen=True)
class Bitableau:
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
    matches = []
    for lead_dotted in (False, True) if stack else (False,):
        rays = [Ray(v, lead_dotted and v == stack[0]) for v in stack]
        try:  # bt is user input, so the walk's result is checked
            d = validate(k, cups, rays)
        except InvalidDiagramError:
            continue
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


@dataclass(frozen=True)
class STable:
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
    return cup_of_weight(weight_of_index_set(p.index_set, "stable"))


def cup_to_stable(c: CupDiagram) -> STable:
    iset = index_set_of_weight(degree_zero_weight(c), "stable")
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
