"""Command-line interface.

Verbs: enumerate, render, movegraph, distance, orient, cohomology,
intersect, bijection, selftest.  Exit codes: 0 success, 1 invalid
input, 2 tripped internal consistency check or any other internal error.

Argv is read on one of two paths, both from the one flag table
``_VERBS``.  ``_fast_args`` reads the canonical form (the verb, its
positional, then exact ``--flag value`` pairs and bare flags, each once)
with the same ``type`` and ``choices`` calls argparse makes, and builds
no parser.  Any other argv goes to the argparse parser that
``_build_parser`` builds from the table on first use: it owns every
usage error, ``--help``, ``--version``, abbreviations, ``--flag=value``
and negative numbers other than ``-<digits>``.

Importing this module loads ``diagrams``, ``orientation``, ``tableaux``
and ``errors`` of the package, and no ``argparse``, ``json`` or
``fractions``.  Each verb imports the rest of what it uses when it runs,
and only ``_build_parser`` (or a refused ``type`` call) imports
``argparse``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import types

from . import __version__
# eager, as perfbench/tracing.py reads sys.modules["cupcalc.tableaux"] at install
from . import diagrams, orientation, tableaux
from .errors import InputError, InternalCheckError, SizeError


class _UsageError(InputError):
    pass


@functools.cache
def _parser_class():
    """The argparse parser class that raises ``_UsageError`` for a usage
    error, made on first use so that importing this module needs no
    ``argparse``."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            if message == "argument --t: expected one argument":  # as for --t -3/2
                message += "; write a negative value as --t=-3/2"
            raise _UsageError(message)

    return _Parser


# The largest size each verb takes, checked before any work starts; the
# README's "Sizes" paragraph gives the time each takes at its ceiling.
_CEILINGS = {
    "enumerate": ("--k", 18),
    "movegraph": ("--k", 16),
    "intersect": ("--k", 12),
    "cohomology centre": ("--k", 10),
    "cohomology springer": ("--k", 16),
    "selftest": ("--k-max", 10),
}
# Verbs that read k from their DSL diagrams: distance builds the move
# graph of its k, and orient lists up to 2^(k/2) weights.
_DIAGRAM_CEILINGS = {"distance": _CEILINGS["movegraph"][1], "orient": 32}


def _check_ceiling(args) -> None:
    verb = f"cohomology {args.which}" if args.verb == "cohomology" else args.verb
    if verb in _CEILINGS:
        flag, ceiling = _CEILINGS[verb]
        value = getattr(args, flag[2:].replace("-", "_"))
        if value > ceiling:
            raise SizeError(f"{verb} takes {flag} up to {ceiling}, got {value}")


def _sized_diagrams(verb: str, *texts):
    """Parse the verb's DSL diagrams (None for an absent one), refusing
    them above the verb's ceiling before any work starts."""
    parsed = [None if text is None else diagrams.parse_dsl(text) for text in texts]
    k = max(d.k for d in parsed if d is not None)
    ceiling = _DIAGRAM_CEILINGS[verb]
    if k > ceiling:
        raise SizeError(f"{verb} takes diagrams up to k = {ceiling}, got k = {k}")
    return parsed


def _int_at_least(low: int):
    """An argparse ``type=`` for an integer flag bounded below by ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            import argparse  # on the error path only

            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _cup_count(text: str):
    """``--cups``: 'max', 'any' or a cup count >= 0."""
    if text in ("max", "any"):
        return text
    if text.isdecimal():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    import argparse  # on the error path only

    raise argparse.ArgumentTypeError(f"must be 'max', 'any' or a count >= 0, got {text!r}")


_VERTEX_COUNT = _int_at_least(1)
_TEXT_OR_JSON = {"choices": ["text", "json"], "default": "text"}
_LABELLINGS = ["adt", "dt", "cup", "bitab", "stable"]

# Every verb's help and flags, each flag with the keyword arguments of its
# ``add_argument`` call; a flag without dashes is a positional.
# ``_build_parser`` builds argparse from this table, and ``_fast_args``
# reads a canonical argv by it.
_VERBS = {
    "enumerate": ("list diagrams in canonical order", {
        "--k": {"type": _VERTEX_COUNT, "required": True},
        "--parity": {"choices": ["all", "even", "odd", "none"], "default": "all"},
        "--cups": {"type": _cup_count, "default": "max", "help": "cup count, 'max' or 'any'"},
        "--format": _TEXT_OR_JSON,
    }),
    "render": ("render one diagram", {
        "--diagram": {"required": True, "help": "diagram DSL text"},
        "--format": {"choices": ["ascii", "tikz", "json"], "default": "ascii"},
    }),
    "movegraph": ("arrow graph on the maximal diagrams", {
        "--k": {"type": _VERTEX_COUNT, "required": True},
        "--parity": {"choices": ["even", "odd"], "required": True},
        "--dot": {"action": "store_true", "help": "emit Graphviz DOT"},
        "--format": _TEXT_OR_JSON,
    }),
    "distance": ("arrow distance between two diagrams", {
        "--a": {"required": True},
        "--b": {"required": True},
        "--format": _TEXT_OR_JSON,
    }),
    "orient": ("orientations of a cup (or glued) diagram", {
        "--cup": {"required": True},
        "--cap": {"help": "cap half, as the cup diagram it mirrors"},
        "--format": _TEXT_OR_JSON,
    }),
    "cohomology": ("exact graded dimensions", {
        "which": {"choices": ["centre", "springer"]},
        "--k": {"type": _VERTEX_COUNT, "required": True},
        "--t": {"help": "deformation parameter (rational; a negative one as --t=-3/2)"},
        "--basis": {"action": "store_true", "help": "include echelon bases"},
        "--format": _TEXT_OR_JSON,
    }),
    "intersect": ("fixed-point table of one parity", {
        "--k": {"type": _VERTEX_COUNT, "required": True},
        "--parity": {"choices": ["even", "odd"], "required": True},
        "--format": {"choices": ["text", "json"], "default": "json"},
    }),
    "bijection": ("convert between labelling sets", {
        "--from": {"dest": "src", "required": True, "choices": _LABELLINGS},
        "--to": {"dest": "dst", "required": True, "choices": _LABELLINGS},
        "--input": {"required": True, "help": "JSON input file ('-' for stdin)"},
        "--parity": {
            "choices": ["all", "even", "odd"],
            "default": "all",
            "help": "dot parity, needed to invert a bitableau with rays",
        },
    }),
    "selftest": ("run the cross-module identity suites", {
        "--k-max": {"type": _int_at_least(2), "required": True},
        "--seed": {"type": int, "default": 0},
        "--format": _TEXT_OR_JSON,
    }),
}


@functools.cache  # built on the first call, not at import; parse_args keeps no state
def _build_parser():
    # the user's part of the docstring: its first two paragraphs
    parser = _parser_class()(prog="cupcalc", description="\n\n".join(__doc__.split("\n\n")[:2]))
    parser.add_argument("--version", action="version", version=f"cupcalc {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, flags) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
    return parser


@functools.cache
def _canonical_form(verb: str):
    """A verb's positionals and its options by flag, each as ``(dest,
    spec)``, its required flags and its namespace of defaults: a string
    default converted through ``type``, as argparse converts it."""
    positionals, options, required, defaults = [], {}, set(), {"verb": verb}
    for flag, spec in _VERBS[verb][1].items():
        dest = spec.get("dest", flag.lstrip("-").replace("-", "_"))
        default = spec.get("default", False if spec.get("action") == "store_true" else None)
        if isinstance(default, str) and "type" in spec:
            default = spec["type"](default)
        defaults[dest] = default
        if not flag.startswith("-"):
            positionals.append((dest, spec))
            continue
        options[flag] = (dest, spec)
        if spec.get("required"):
            required.add(flag)
    return positionals, options, required, defaults


def _fast_args(argv):
    """``_build_parser().parse_args(argv)`` for a canonical argv, read from
    ``_VERBS`` without building the parser; None for any other argv.

    Canonical: a verb, its positionals, then exact flags, each at most once
    and every required one present, each but a bare flag followed by a
    value that does not start with '-' ('-' itself and '-<digits>' aside,
    which argparse reads as values since no flag looks like a negative
    number); every value passes its ``type`` and ``choices`` as in
    argparse.  Anything else (usage errors, --help, --version,
    abbreviations, --flag=value, repeated flags, other negative numbers)
    is argparse's to read, and so is a value its ``type`` refuses."""
    if not argv or argv[0] not in _VERBS:
        return None
    positionals, options, required, defaults = _canonical_form(argv[0])
    n = len(argv)
    at = 1 + len(positionals)
    if at > n:
        return None
    given = [(dest, spec, argv[i]) for i, (dest, spec) in enumerate(positionals, 1)]
    values = dict(defaults)
    seen = set()
    while at < n:
        flag = argv[at]
        if flag in seen or flag not in options:
            return None
        seen.add(flag)
        dest, spec = options[flag]
        if spec.get("action") == "store_true":
            values[dest] = True
            at += 1
        elif at + 1 < n:
            given.append((dest, spec, argv[at + 1]))
            at += 2
        else:
            return None
    if not required <= seen:
        return None
    for dest, spec, text in given:
        if text[:1] == "-" and text != "-" and not text[1:].isdecimal():
            return None
        try:
            value = spec["type"](text) if "type" in spec else text
        except Exception:  # argparse runs the call again and reports it
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    return types.SimpleNamespace(**values)


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _write(chunks) -> None:
    """Write an iterable of strings, joined a few thousand at a time: one
    write per string costs more than the joins, and one write in all would
    hold the whole text."""
    chunks = iter(chunks)
    while batch := "".join(itertools.islice(chunks, 4096)):
        sys.stdout.write(batch)


@functools.cache
def _json_writer():
    """The functions ``put(value, nl, out)`` and ``put_list(items, nl,
    out)`` that :func:`_emit_json` and :func:`_emit_json_rows` write with,
    made on first use: importing this module needs no ``json``.

    Both append to the list ``out`` the text of ``json.dumps(value,
    indent=2)`` (of the list of ``items``) with ``nl`` for each newline,
    so that the text sits at the indent ``nl`` ends with.  A leaf
    container, a list or tuple of at most 1024 strings, ints, bools and
    Nones or a dict of as many with string keys, is built with one
    ``str.join`` over ``encode_basestring_ascii`` and ``int.__repr__``,
    the functions ``json`` writes them with.  Any other container is
    written item by item, a list 1024 items at a time.  ``out`` is
    written out after each such batch and whenever it holds more than 64
    pieces, so it never holds more than a few dozen leaf containers'
    text.  Any other value (a float, a dict with a non-string key, a
    subclass, a value ``json`` refuses) goes to ``json.dumps`` itself, so
    the rules are exactly those of ``json``."""
    import json
    from json.encoder import encode_basestring_ascii as string

    strs, ints = frozenset((str,)), frozenset((int,))
    scalars = frozenset((str, int, bool, type(None)))

    def scalar(value) -> str:
        kind = type(value)
        if kind is str:
            return string(value)
        if kind is int:
            return int.__repr__(value)
        if kind is bool:
            return "true" if value else "false"
        return "null"

    def joined(items, inner: str):
        """The texts of ``items`` one to a line at the indent ``inner``,
        or None unless every item is a scalar."""
        kinds = set(map(type, items))
        if kinds == strs:
            parts = map(string, items)
        elif kinds == ints:
            parts = map(int.__repr__, items)
        elif kinds <= scalars:
            parts = map(scalar, items)
        else:
            return None
        return ("," + inner).join(parts)

    def put(value, nl: str, out: list) -> None:
        kind = type(value)
        if kind is list or kind is tuple:
            if not value:
                out.append("[]")
            elif len(value) <= 1024 and (body := joined(value, nl + "  ")) is not None:
                out.append(f"[{nl}  {body}{nl}]")
            else:
                put_list(value, nl, out)
        elif kind is dict and value and set(map(type, value)) == strs:
            inner = nl + "  "
            if len(value) <= 1024 and set(map(type, value.values())) <= scalars:
                parts = [f"{string(key)}: {scalar(x)}" for key, x in value.items()]
                out.append(f"{{{inner}{(',' + inner).join(parts)}{nl}}}")
            else:
                sep = "{" + inner
                for key, x in value.items():
                    out.append(f"{sep}{string(key)}: ")
                    put(x, inner, out)
                    sep = "," + inner
                out.append(nl + "}")
        elif kind in scalars:
            out.append(scalar(value))
        else:
            out.append(json.dumps(value, indent=2).replace("\n", nl))
        if len(out) > 64:
            flush(out)

    def put_list(items, nl: str, out: list) -> None:
        inner = nl + "  "
        sep = "[" + inner
        items = iter(items)
        while batch := list(itertools.islice(items, 1024)):
            body = joined(batch, inner)
            if body is not None:
                out.append(sep + body)
            else:
                for x in batch:
                    out.append(sep)
                    put(x, inner, out)
                    sep = "," + inner
            sep = "," + inner
            flush(out)
        out.append("[]" if sep[0] == "[" else nl + "]")

    def flush(out: list) -> None:
        sys.stdout.write("".join(out))
        out.clear()

    return put, put_list


def _emit_json(payload) -> None:
    """``_emit(json.dumps(payload, indent=2))``, written by
    :func:`_json_writer`'s ``put``."""
    put, _ = _json_writer()
    out: list = []
    put(payload, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _emit_json_rows(rows) -> None:
    """``_emit_json(list(rows))``, the rows drawn from the iterable
    ``rows`` 1024 at a time."""
    _, put_list = _json_writer()
    out: list = []
    put_list(rows, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _cmd_enumerate(args) -> int:
    encodings = diagrams.enumerate_encodings(args.k, args.cups, args.parity)
    if args.format == "json":
        _emit_json(encodings)
    else:
        _write(f"{text}\n" for text in encodings)
    return 0


def _cmd_render(args) -> int:
    d = diagrams.parse_dsl(args.diagram)
    _emit(diagrams.render(d, args.format))
    return 0


def _cmd_movegraph(args) -> int:
    from . import movegraph

    if args.dot and args.format == "json":
        raise _UsageError("--dot writes Graphviz DOT, not --format json")
    graph = movegraph.move_graph(args.k, args.parity)
    if args.dot:
        _emit(graph.to_dot())
        return 0
    if args.format != "json":
        # written from the graph in batches of lines: no payload for text output
        nodes = graph.nodes
        _write(f"{n.encode()}\n" for n in nodes)
        _write(
            f"{nodes[i].encode()}  --{move.kind}-->  {nodes[j].encode()}\n"
            for i, j, move in graph.arrows
        )
        return 0
    arrows = [
        {
            "from": graph.nodes[i].encode(),
            "to": graph.nodes[j].encode(),
            "move": move.kind,
            "positions": list(move.positions),
        }
        for i, j, move in graph.arrows
    ]
    payload = {
        "k": args.k,
        "parity": args.parity,
        "nodes": [n.encode() for n in graph.nodes],
        "arrows": arrows,
    }
    _emit_json(payload)
    return 0


def _cmd_distance(args) -> int:
    from . import movegraph

    a, b = _sized_diagrams("distance", args.a, args.b)
    d = movegraph.distance(a, b)
    if args.format == "json":
        import json

        _emit(json.dumps({"distance": None if d == math.inf else d}))
    else:
        _emit("infinity" if d == math.inf else str(d))
    return 0


def _cmd_orient(args) -> int:
    cup, cap = _sized_diagrams("orient", args.cup, args.cap)
    if cap is None:
        graded = orientation.graded_orientations(cup)
    else:
        graded = (
            (o.weight, o.degree) for o in orientation.orient_circle_diagram(cap.star(), cup)
        )
    if args.format == "json":
        _emit_json_rows({"weight": str(w), "degree": d} for w, d in graded)
    else:
        # written from the records in batches of lines: no rows for text output
        _write(f"{w}  degree {d}\n" for w, d in graded)
    return 0


def _mono_text(mono) -> str:
    return "1" if not mono else "*".join(f"x{i}" for i in mono)


# The largest decimal exponent --t takes: Fraction reads "1e10000000" as a
# 10-million-digit integer, though Python refuses more than 4300 digits
# written out.
_MAX_EXPONENT = 4300


def _rational(text: str):
    import fractions  # 2 us a call cheaper than ``from fractions import Fraction``

    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip()
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    digits = digits.replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > _MAX_EXPONENT):
        raise _UsageError(
            f"--t takes a decimal exponent of at most {_MAX_EXPONENT} in absolute value, "
            f"got {text!r}"
        )
    try:
        return fractions.Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(
            f"--t must be a rational number such as 3/2 (nonzero denominator), got {text!r}"
        ) from None


def _cmd_cohomology(args) -> int:
    # a flag the chosen ring would ignore is refused, not dropped
    if args.which == "centre" and args.t is not None:
        raise _UsageError("--t is for cohomology springer only")
    if args.which == "springer" and args.basis:
        raise _UsageError("--basis is for cohomology centre only")
    if args.basis and args.format != "json":
        raise _UsageError("--basis needs --format json")
    t = None if args.t is None else _rational(args.t)
    if args.which == "centre":
        from . import ringcalc

        halves = {}
        for parity in ("even", "odd"):
            basis = ringcalc.centre(args.k, parity)
            entry = {
                "graded": [
                    {"degree": d, "dim": n}
                    for d, n in sorted(basis.graded_dims_cohomological().items())
                ],
                "dimension": basis.dimension,
            }
            if args.basis:
                entry["basis"] = {
                    str(2 * d): [
                        [
                            [enc, _mono_text(mono), str(coeff)]
                            for (enc, mono), coeff in sorted(vec.items())
                        ]
                        for vec in vecs
                    ]
                    for d, vecs in basis.basis.items()
                }
            halves[parity] = entry
        payload = {
            "k": args.k,
            "even": halves["even"],
            "odd": halves["odd"],
            "total_dimension": halves["even"]["dimension"] + halves["odd"]["dimension"],
        }
        if args.format == "json":
            _emit_json(payload)
        else:
            for parity in ("even", "odd"):
                graded = ", ".join(
                    f"q^{g['degree']}: {g['dim']}" for g in halves[parity]["graded"]
                )
                _emit(f"{parity}: dimension {halves[parity]['dimension']} ({graded})")
            _emit(f"total dimension {payload['total_dimension']}")
        return 0

    from . import springer

    if t is not None:
        dim = springer.equivariant_specialization(args.k, t)
        payload = {"k": args.k, "t": args.t, "dimension": dim}
        if args.format == "json":
            import json

            _emit(json.dumps(payload))
        else:
            _emit(f"dimension {dim} at t = {args.t}")
        return 0
    ring = springer.presentation_ring(args.k)
    payload = {
        "k": args.k,
        "dimension": ring.dimension,
        "graded": [
            {"degree": d, "dim": n} for d, n in ring.graded_dims_cohomological().items()
        ],
        "basis": [sorted(m) for m in ring.basis],
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        graded = ", ".join(f"q^{g['degree']}: {g['dim']}" for g in payload["graded"])
        _emit(f"dimension {ring.dimension} ({graded})")
        _emit("basis: " + ", ".join(_mono_text(m) for m in payload["basis"]))
    return 0


def _cmd_intersect(args) -> int:
    from . import springer

    payload = springer.fixed_point_table(args.k, args.parity).to_json_dict()
    if args.format == "json":
        _emit_json(payload)
    else:
        for enc, row in zip(payload["diagrams"], payload["table"]):
            cells = ["{" + ",".join(cell) + "}" for cell in row]
            _emit(f"{enc}:  " + "  ".join(cells))
    return 0


def _load_as_cup(src: str, data, parity: str = "all"):
    if src == "cup":
        if isinstance(data, str):
            return diagrams.parse_dsl(data)
        return diagrams.from_json(data)
    if src == "adt":
        return tableaux.to_cup(tableaux.tableau_from_json_dict(data, signed=True))
    if src == "dt":
        S = tableaux.tableau_from_json_dict(data, signed=False)
        return tableaux.to_cup(tableaux.cyc_inverse(S))
    if src == "bitab":
        bt = tableaux.bitableau_from_json(data)
        return tableaux.cup_of_bitableau(bt, len(bt.marked) + len(bt.unmarked), parity)
    return tableaux.stable_to_cup(tableaux.stable_from_json(data))  # src == "stable"


def _dump_from_cup(dst: str, cup):
    if dst == "cup":
        return cup.to_json_dict()
    if dst == "adt":
        return tableaux.tableau_to_json_dict(tableaux.from_cup(cup))
    if dst == "dt":
        return tableaux.tableau_to_json_dict(tableaux.cyc(tableaux.from_cup(cup)))
    if dst == "bitab":
        return tableaux.bitableau_to_json(tableaux.bitableau_of_cup(cup))
    return tableaux.stable_to_json(tableaux.cup_to_stable(cup))  # dst == "stable"


def _cmd_bijection(args) -> int:
    if args.parity != "all" and args.src != "bitab":
        raise _UsageError("--parity is for --from bitab only")
    try:
        if args.input == "-":
            raw = sys.stdin.read()
        else:
            with open(args.input) as f:
                raw = f.read()
    except (OSError, ValueError) as exc:  # missing, unreadable or not text
        reason = getattr(exc, "strerror", None) or exc
        raise _UsageError(f"cannot read --input {args.input!r}: {reason}") from None
    import json

    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also too deep, too many digits
        raise _UsageError(f"--input {args.input!r} is not valid JSON: {exc}") from None
    cup = _load_as_cup(args.src, data, args.parity)
    _emit_json(_dump_from_cup(args.dst, cup))
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import selftest

    report = selftest(args.k_max, args.seed)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        for s in report.suites:
            _emit(f"{'ok  ' if s.ok else 'FAIL'} {s.name}: {s.detail}")
        _emit(f"{'ok' if report.ok else 'FAIL'} ({len(report.suites)} suites, k_max={report.k_max})")
    return 0 if report.ok else 2


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "render": _cmd_render,
    "movegraph": _cmd_movegraph,
    "distance": _cmd_distance,
    "orient": _cmd_orient,
    "cohomology": _cmd_cohomology,
    "intersect": _cmd_intersect,
    "bijection": _cmd_bijection,
    "selftest": _cmd_selftest,
}


def run(argv) -> int:
    args = _fast_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except _UsageError as exc:
            print(f"cupcalc: {exc}", file=sys.stderr)
            return 1
        except SystemExit as exc:  # --version / --help
            return int(exc.code or 0)
    try:
        _check_ceiling(args)
        return _COMMANDS[args.verb](args)
    except InternalCheckError as exc:
        print(f"cupcalc: internal check failed: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"cupcalc: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout: not a fault of ours; see main
        raise
    except Exception as exc:  # a fault of ours, not of the input: name where it arose
        import traceback  # here, not at the top: every run would pay for it

        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"cupcalc: internal error: {type(exc).__name__}: {exc} "
            f"(at {os.path.basename(where.filename)}:{where.lineno})",
            file=sys.stderr,
        )
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # As a writer killed by SIGPIPE would: exit 128 + 13 in silence.  Point
        # stdout at devnull so the interpreter's last flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
