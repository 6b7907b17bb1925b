"""The ``queries`` workload: a seeded stream of small CLI requests.

One client sends each request through ``cupcalc.cli.run`` only after the
previous one returned (a closed loop), in one warm interpreter.  The
stream is built here from the seed alone, without importing cupcalc:
the program sees only the generated argv and JSON.

Every request class has a fixed count and a fixed multiset of sizes, so
two seeds differ only in which diagrams are drawn and in the order of the
requests.  That keeps the cost of a run, and hence its timings, the same
from seed to seed.

Each request carries its own check:

* diagram verbs (``render``, ``orient``, ``distance``) are checked
  against small oracles written here from the definitions;
* ``bijection`` requests come in round trips that must return the input
  byte for byte;
* verbs whose argv ranges over a small finite set (``enumerate``,
  ``intersect``, ``cohomology``) are checked against stdout digests
  recorded in ``reference.json``, plus the dimension identities;
* invalid diagrams must exit with code 1; their message is not checked.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb

UP, DOWN = "^", "v"

# Requests per sample.  A p99 needs at least ten requests beyond it.
N_REQUESTS = 1000

# Sizes cycled through by the light request classes.
LIGHT_SIZES = range(3, 15)
EVEN_SIZES = range(4, 15, 2)
DISTANCE_SIZES = range(3, 11)     # the move graph of k = 14 alone takes seconds
BITAB_SIZES = range(3, 10)        # bitab -> cup is a brute-force scan
T_VALUES = ("-1", "0", "2", "3/2")

# The heavy classes: a few percent of the requests, with fixed sizes.
HEAVY_BITAB_K = 14
HEAVY_SPRINGER = [("8", t) for t in ("3/2", "2", "-1", "1/3")]
HEAVY_INTERSECT = [("8", "even"), ("8", "odd")]
HEAVY_ENUMERATE = [("12", "all"), ("12", "even"), ("12", "odd")]

# Table-checked requests per sample, by kind; each light kind runs its
# whole argv set once.
FINITE_COUNTS = {
    "enumerate": 48, "springer": 20, "springer_t": 24, "centre": 10, "intersect": 20,
    "heavy_springer_t": 7, "heavy_intersect": 3, "heavy_enumerate": 3,
}


# ---------------------------------------------------------------------------
# Diagrams, drawn from the seed


def random_diagram(rng, k, maximal=True, parity=None):
    """A legal diagram as (k, cups, rays), cups (l, r, dotted), rays (at, dotted).

    Walks the vertices left to right, opening or closing a cup or placing
    a ray where one may stand (never under a cup).  Dots go on arcs that
    are reachable from the left edge, then the arc through vertex 1 is
    toggled if the dot parity must change.
    """
    n_cups = k // 2 if maximal else rng.randint(0, k // 2)
    opens, rays_left = n_cups, k - 2 * n_cups
    stack, cups, rays = [], [], []
    for v in range(1, k + 1):
        moves = []
        if opens:
            moves.append("open")
        if stack:
            moves.append("close")
        if rays_left and not stack:
            moves.append("ray")
        move = rng.choice(moves)
        if move == "open":
            stack.append(v)
            opens -= 1
        elif move == "close":
            cups.append([stack.pop(), v, False])
        else:
            rays.append([v, False])
            rays_left -= 1
    cups.sort()
    first_ray = rays[0][0] if rays else k + 1
    dottable = [c for c in cups if c[0] < first_ray and not _nested(c, cups)]
    dottable += rays[:1]
    for arc in dottable:
        arc[-1] = rng.random() < 0.5
    if parity is not None and _parity(cups, rays) != parity:
        dottable[0][-1] = not dottable[0][-1]  # the arc through vertex 1
    return k, [tuple(c) for c in cups], [tuple(r) for r in rays]


def _nested(cup, cups):
    return any(o[0] < cup[0] and cup[1] < o[1] for o in cups)


def _parity(cups, rays):
    dots = sum(c[2] for c in cups) + sum(r[1] for r in rays)
    return "even" if dots % 2 == 0 else "odd"


def parity_of(diagram):
    _, cups, rays = diagram
    return _parity(cups, rays)


def dsl(diagram):
    """Canonical text, arcs sorted by leftmost vertex: ``4: c*(1,4);c(2,3)``."""
    k, cups, rays = diagram
    arcs = [(l, f"c{'*' if d else ''}({l},{r})") for l, r, d in cups]
    arcs += [(at, f"r{'*' if d else ''}({at})") for at, d in rays]
    return f"{k}: " + ";".join(text for _, text in sorted(arcs))


def cup_json(diagram):
    k, cups, rays = diagram
    return {
        "k": k,
        "cups": [{"from": l, "to": r, "dotted": d} for l, r, d in cups],
        "rays": [{"at": at, "dotted": d} for at, d in rays],
    }


def invalid_diagram(rng, k, kind):
    """DSL text of an illegal diagram: two crossing cups or a hidden dot."""
    start = rng.randint(1, k - 3)
    if kind == "crossing":
        arcs = [f"c({start},{start + 2})", f"c({start + 1},{start + 3})"]
    else:  # a dotted cup nested inside another cup
        arcs = [f"c({start},{start + 3})", f"c*({start + 1},{start + 2})"]
    used = set(range(start, start + 4))
    arcs += [f"r({v})" for v in range(1, k + 1) if v not in used]
    return f"{k}: " + ";".join(arcs)


# ---------------------------------------------------------------------------
# Oracles, from the definitions of orientations and degrees


def _orients(weight, cups, rays):
    for l, r, dotted in cups:
        if (weight[l - 1] == weight[r - 1]) != dotted:
            return False
    return all(weight[at - 1] == (UP if dotted else DOWN) for at, dotted in rays)


def _half_degree(weight, cups):
    """Clockwise arcs: undotted cups oriented (up, down), dotted (down, down)."""
    return sum(
        (weight[l - 1], weight[r - 1]) == ((DOWN, DOWN) if dotted else (UP, DOWN))
        for l, r, dotted in cups
    )


_SORT = str.maketrans({DOWN: "0", UP: "1"})


def orientations(diagram):
    """All weights orienting a cup diagram, down before up."""
    k, cups, rays = diagram
    base = [None] * k
    for at, dotted in rays:
        base[at - 1] = UP if dotted else DOWN
    pairs = [((UP, UP), (DOWN, DOWN)) if d else ((DOWN, UP), (UP, DOWN)) for _, _, d in cups]
    out = []
    for combo in itertools.product(*pairs):
        w = base[:]
        for (l, r, _), (x, y) in zip(cups, combo):
            w[l - 1], w[r - 1] = x, y
        out.append("".join(w))
    return sorted(out, key=lambda w: w.translate(_SORT))


def glued_orientations(cap, cup):
    """Weights orienting both halves of cap* cup; 2^#circles, or none."""
    _, cap_cups, cap_rays = cap
    return [w for w in orientations(cup) if _orients(w, cap_cups, cap_rays)]


def expected_orient(cup, cap=None):
    if cap is None:
        rows = [(w, _half_degree(w, cup[1])) for w in orientations(cup)]
    else:
        rows = [
            (w, _half_degree(w, cap[1]) + _half_degree(w, cup[1]))
            for w in glued_orientations(cap, cup)
        ]
    return "".join(f"{w}  degree {d}\n" for w, d in rows)


def expected_ascii(diagram):
    k, cups, rays = diagram
    arc_row, dot_row = [" "] * (2 * k - 1), [" "] * (2 * k - 1)
    for l, r, dotted in cups:
        arc_row[2 * l - 2], arc_row[2 * r - 2] = "(", ")"
        if dotted:
            dot_row[l + r - 2] = "*"
    for at, dotted in rays:
        arc_row[2 * at - 2] = "|"
        if dotted:
            dot_row[2 * at - 2] = "*"
    lines = ["".join(arc_row).rstrip()]
    if "*" in dot_row:
        lines.append("".join(dot_row).rstrip())
    return "\n".join(lines) + "\n"


def expected_distance(a, b):
    """d(a, b) = #cups - #circles on an orientable pair; infinite across parities."""
    if parity_of(a) != parity_of(b):
        return "infinity\n"
    n = len(glued_orientations(a, b))
    return f"{len(b[1]) - (n.bit_length() - 1)}\n"


# ---------------------------------------------------------------------------
# The stream


class Request:
    """One CLI call.  ``expect`` is the exact stdout, or None when the
    output is checked otherwise; ``follow`` builds the next request of a
    round trip from this one's stdout."""

    def __init__(self, kind, argv, stdin=None, expect=None, rc=0, table=False,
                 identity=None, follow=None):
        self.kind = kind
        self.argv = argv
        self.stdin = stdin
        self.expect = expect
        self.rc = rc
        self.table = table          # stdout digest is looked up in reference.json
        self.identity = identity    # (label, function of stdout -> bool)
        self.follow = follow

    @property
    def key(self):
        return " ".join(self.argv)


def _cycle(values, n):
    values = list(values)
    return [values[i % len(values)] for i in range(n)]


def _springer_identity(k):
    want = 2 ** (k - 1)
    return (f"dimension {want}", lambda out: out.split()[1] == str(want))


def _centre_identity(k):
    want = 2 ** k
    return (f"total dimension {want}", lambda out: out.rstrip().endswith(f"total dimension {want}"))


def _enumerate_identity(k, parity, cups):
    if parity != "all":
        return None
    want = comb(k, k // 2) * (2 if k % 2 else 1) if cups == "max" else 2 ** k
    return (f"{want} diagrams", lambda out: out.count("\n") == want)


def finite_requests():
    """Every request whose argv ranges over a small fixed set, in a fixed order.

    These are the only argvs the generator draws for the table-checked
    verbs, so ``reference.json`` holds a stdout digest for each.
    """
    reqs = []
    for k, parity, cups in itertools.product(range(3, 9), ("all", "even", "odd", "none"), ("max", "any")):
        reqs.append(Request(
            "enumerate", ["enumerate", "--k", str(k), "--parity", parity, "--cups", cups],
            table=True, identity=_enumerate_identity(k, parity, cups)))
    for k, fmt in itertools.product(range(1, 11), ("text", "json")):
        reqs.append(Request("springer", ["cohomology", "springer", "--k", str(k), "--format", fmt],
                            table=True, identity=_springer_identity(k) if fmt == "text" else None))
    for k, t in itertools.product(range(2, 8), T_VALUES):
        reqs.append(Request("springer_t", ["cohomology", "springer", "--k", str(k), "--t", t],
                            table=True, identity=_springer_identity(k)))
    for k in range(2, 7):
        reqs.append(Request("centre", ["cohomology", "centre", "--k", str(k)],
                            table=True, identity=_centre_identity(k)))
        reqs.append(Request("centre", ["cohomology", "centre", "--k", str(k), "--basis", "--format", "json"],
                            table=True))
    for k, parity, fmt in itertools.product(range(2, 7), ("even", "odd"), ("json", "text")):
        reqs.append(Request("intersect", ["intersect", "--k", str(k), "--parity", parity, "--format", fmt],
                            table=True))
    for k, t in HEAVY_SPRINGER:
        reqs.append(Request("heavy_springer_t", ["cohomology", "springer", "--k", k, "--t", t],
                            table=True, identity=_springer_identity(int(k))))
    for k, parity in HEAVY_INTERSECT:
        reqs.append(Request("heavy_intersect", ["intersect", "--k", k, "--parity", parity], table=True))
    for k, parity in HEAVY_ENUMERATE:
        reqs.append(Request("heavy_enumerate", ["enumerate", "--k", k, "--parity", parity],
                            table=True, identity=_enumerate_identity(int(k), parity, "max")))
    return reqs


def _round_trip(kind, diagram, via):
    """cup -> ``via`` -> cup; the second leg must print the first leg's input."""
    text = json.dumps(cup_json(diagram), indent=2)
    back = ["bijection", "--from", via, "--to", "cup", "--input", "-"]
    if via == "bitab":
        back += ["--parity", parity_of(diagram)]
    second = lambda out: Request(kind + "_back", back, stdin=out, expect=text + "\n")
    return Request(kind, ["bijection", "--from", "cup", "--to", via, "--input", "-"],
                   stdin=text, follow=second)


def _pick(finite, kind, n):
    """n finite requests of one kind, cycling through them in a fixed order
    so that every seed runs the same multiset."""
    return _cycle([r for r in finite if r.kind == kind], n)


def generate(seed):
    """The request stream of one sample: a list of units, each a first
    request (a round trip's second leg is built while the stream runs)."""
    rng = random.Random(seed)
    units = []

    for k in _cycle(LIGHT_SIZES, 141):
        d = random_diagram(rng, k, maximal=rng.random() < 0.5)
        units.append(Request("render", ["render", "--diagram", dsl(d)], expect=expected_ascii(d)))
    for k in _cycle(LIGHT_SIZES, 60):
        d = random_diagram(rng, k, maximal=False)
        units.append(Request("render_json", ["render", "--diagram", dsl(d), "--format", "json"],
                             expect=json.dumps(cup_json(d)) + "\n"))
    for k in _cycle(LIGHT_SIZES, 120):
        d = random_diagram(rng, k, maximal=rng.random() < 0.5)
        units.append(Request("orient", ["orient", "--cup", dsl(d)], expect=expected_orient(d)))
    for k in _cycle(LIGHT_SIZES, 120):
        cup, cap = random_diagram(rng, k), random_diagram(rng, k)
        units.append(Request("orient_pair", ["orient", "--cup", dsl(cup), "--cap", dsl(cap)],
                             expect=expected_orient(cup, cap)))
    for i, k in enumerate(_cycle(DISTANCE_SIZES, 100)):
        a = random_diagram(rng, k)
        if i % 5 == 4:  # across parities: no finite distance
            b = random_diagram(rng, k, parity="odd" if parity_of(a) == "even" else "even")
        else:  # same parity and orientable, where the distance law applies
            b = random_diagram(rng, k, parity=parity_of(a))
            while not glued_orientations(a, b):
                b = random_diagram(rng, k, parity=parity_of(a))
        units.append(Request("distance", ["distance", "--a", dsl(a), "--b", dsl(b)],
                             expect=expected_distance(a, b)))
    for k in _cycle(LIGHT_SIZES, 40):
        units.append(_round_trip("bijection_adt", random_diagram(rng, k, maximal=False), "adt"))
    # cup -> dt -> cup is the identity only on diagrams without rays, and
    # cup -> stable -> cup only on maximal diagrams of even k.
    for via in ("dt", "stable"):
        for k in _cycle(EVEN_SIZES, 40):
            units.append(_round_trip("bijection_" + via, random_diagram(rng, k), via))
    for k in _cycle(BITAB_SIZES, 20):
        units.append(_round_trip("bijection_bitab", random_diagram(rng, k, maximal=False), "bitab"))
    for _ in range(7):
        units.append(_round_trip("heavy_bitab", random_diagram(rng, HEAVY_BITAB_K), "bitab"))
    finite = finite_requests()
    for kind, n in FINITE_COUNTS.items():
        units += _pick(finite, kind, n)
    for i, k in enumerate(_cycle(range(4, 15), 30)):
        text = invalid_diagram(rng, k, "crossing" if i % 2 else "dot")
        verb = ("render", "--diagram") if i % 3 == 0 else ("orient", "--cup")
        units.append(Request("invalid", [verb[0], verb[1], text], rc=1))

    rng.shuffle(units)
    n = len(units) + sum(u.follow is not None for u in units)
    assert n == N_REQUESTS, n
    return units
