"""The three workloads as lists of timed ops, each with its own checks.

``sweep`` and ``algebra`` call the library; ``queries`` calls the CLI.
An op returns a value; the benchmark digests it and checks it against the
paper's identities and, where recorded, against ``reference.json``.  Only
the call itself is timed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction

import cupcalc.cli
from cupcalc import diagrams, movegraph, orientation, ringcalc, springer

import queries

GEODESIC_K = 9
GEODESIC_PAIRS = 200


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Op:
    """``call`` does the timed work; ``check`` returns a list of problems;
    ``show`` turns the value into the text that is digested.  A ``seeded``
    op's value depends on the seed, so its digest is recorded per seed."""

    def __init__(self, name, call, check, show=repr, seeded=False):
        self.name, self.call, self.check, self.show, self.seeded = name, call, check, show, seeded


# ---------------------------------------------------------------------------
# sweep: all-pairs glued-diagram sweeps, from a cold start


def _distance_law(k, parity):
    """d(a, b) = #cups - #circles on every orientable pair of one parity."""
    nodes = diagrams.maximal_diagrams(k, parity)
    out, bad = [], []
    for a in nodes:
        for b in nodes:
            if not orientation.orient_circle_diagram(a.star(), b):
                continue
            circles = len(orientation.decompose(a.star(), b).circles)
            d = movegraph.distance(a, b)
            out.append(d)
            if d != k // 2 - circles:
                bad.append(f"d({a.encode()}, {b.encode()}) = {d}, #cups - #circles = {k // 2 - circles}")
    return out, bad


def _geodesic_pairs(seed):
    rng = random.Random(seed)
    pairs = []
    for _ in range(GEODESIC_PAIRS):
        a = queries.random_diagram(rng, GEODESIC_K)
        b = queries.random_diagram(rng, GEODESIC_K, parity=queries.parity_of(a))
        pairs.append((queries.dsl(a), queries.dsl(b)))
    return pairs


def sweep_ops(seed):
    seen = {}
    pairs = [tuple(map(diagrams.parse_dsl, p)) for p in _geodesic_pairs(seed)]

    def table_json(t):
        return json.dumps(t.to_json_dict())

    def keep(name):
        def check(value):
            seen[name] = value
            return []
        return check

    def graded9(g):
        tables = seen["fpt9.even"].total_count() + seen["fpt9.odd"].total_count()
        return [] if g.total == tables else [f"graded total {g.total} != fixed points {tables}"]

    def closed8(g):
        return [] if g == seen["graded8"] else ["closed form differs from the direct graded dimension"]

    def meets(cs):
        return [
            f"meet of {a.encode()}, {b.encode()} is off a geodesic"
            for (a, b), c in zip(pairs, cs)
            if movegraph.distance(a, c) + movegraph.distance(c, b) != movegraph.distance(a, b)
        ]

    return [
        Op("fpt9.even", lambda: springer.fixed_point_table(9, "even"), keep("fpt9.even"), table_json),
        Op("fpt9.odd", lambda: springer.fixed_point_table(9, "odd"), keep("fpt9.odd"), table_json),
        Op("graded8", lambda: springer.arc_algebra_graded_dimension(8), keep("graded8")),
        Op("graded9", lambda: springer.arc_algebra_graded_dimension(9), graded9),
        Op("closed8", lambda: springer.arc_algebra_graded_dimension_closed_form(8), closed8),
        Op("law8.even", lambda: _distance_law(8, "even"), lambda v: v[1]),
        Op("law8.odd", lambda: _distance_law(8, "odd"), lambda v: v[1]),
        Op("geodesic9", lambda: [movegraph.geodesic_meet(a, b) for a, b in pairs], meets,
           lambda cs: " ".join(c.encode() for c in cs), seeded=True),
    ]


# ---------------------------------------------------------------------------
# algebra: exact linear algebra


def _centre_text(basis):
    """Graded dimensions and the whole echelon basis, as the CLI prints them."""
    return json.dumps({
        "graded": sorted(basis.graded_dims.items()),
        "basis": {
            str(d): [[[enc, list(mono), str(c)] for (enc, mono), c in sorted(v.items())] for v in vecs]
            for d, vecs in sorted(basis.basis.items())
        },
    })


def algebra_ops(seed):
    seen = {}

    def centre_check(k, parity):
        def check(basis):
            seen[(k, parity)] = basis.dimension
            other = seen.get((k, "even"))
            if parity == "odd" and other + basis.dimension != 2 ** k:
                return [f"centre({k}) total {other + basis.dimension} != 2^{k}"]
            return []
        return check

    def rings_check(rings):
        return [f"presentation_ring({r.k}) has dimension {r.dimension}"
                for r in rings if r.dimension != 2 ** (r.k - 1)]

    def deformed_check(dim):
        return [] if dim == 2 ** 9 else [f"deformed dimension {dim} != 2^9"]

    def rings_text(rings):
        return repr([([sorted(m) for m in r.basis], r.graded_dims, r.relation_rank) for r in rings])

    ops = [
        Op(f"centre{k}.{p}", lambda k=k, p=p: ringcalc.centre(k, p), centre_check(k, p), _centre_text)
        for k in (7, 8) for p in ("even", "odd")
    ]
    ops.append(Op("presentation1-10", lambda: [springer.presentation_ring(k) for k in range(1, 11)],
                  rings_check, rings_text))
    for t in (Fraction(-1), Fraction(3, 2)):
        ops.append(Op(f"deformed10.{t}", lambda t=t: springer.equivariant_specialization(10, t),
                      deformed_check))
    return ops


# ---------------------------------------------------------------------------
# queries: CLI requests in one warm session


def call_cli(argv, stdin):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cupcalc.cli.run(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def check_request(req, rc, out, table):
    """Problems with one CLI reply; ``table`` maps argv to a stdout digest."""
    if rc != req.rc:
        return [f"exit {rc}, expected {req.rc}"]
    if req.rc != 0:
        return []
    problems = []
    if req.expect is not None and out != req.expect:
        problems.append("stdout differs from the expected text")
    if req.table and table is not None and table.get(req.key) != digest(out):
        problems.append("stdout differs from the recorded digest")
    if req.identity is not None and not req.identity[1](out):
        problems.append(f"identity {req.identity[0]} fails")
    return problems


# ---------------------------------------------------------------------------
# Running a workload


class Result:
    def __init__(self):
        self.attempted = 0
        self.op_s = []
        self.op_start = []
        self.failures = []
        self.digests = {}
        self.seeded = set()     # digests that depend on the seed

    def fail(self, name, problems):
        self.failures.append(f"{name}: {'; '.join(problems)}"[:300])


def _timed(clock, run, fn, *args):
    """The value, the op's seconds on ``clock``, and its perf_counter start."""
    start_raw, start = time.perf_counter(), clock()
    value = run(fn, *args)
    return value, clock() - start, start_raw


def _direct(fn, *args):
    return fn(*args)


def run_workload(name, seed, reference, tracer=None, clock=time.perf_counter):
    """Run every op of the workload once, timing it with ``clock``;
    ``reference`` may be None when recording digests."""
    run = tracer.span if tracer is not None else _direct
    timed = functools.partial(_timed, clock, run)
    ref = reference[name] if reference is not None else None
    result = Result()
    if name == "queries":
        _run_queries(seed, ref, timed, result)
    else:
        ops = sweep_ops(seed) if name == "sweep" else algebra_ops(seed)
        for op in ops:
            result.attempted += 1
            try:
                value, seconds, start = timed(op.call)
            except Exception as exc:  # a failed op is counted, the run goes on
                result.fail(op.name, [f"{type(exc).__name__}: {exc}"])
                continue
            result.op_s.append(seconds)
            result.op_start.append(start)
            problems = op.check(value)
            result.digests[op.name] = digest(op.show(value))
            if op.seeded:
                result.seeded.add(op.name)
            if ref is not None:
                want = ref["seeds"].get(str(seed), {}) if op.seeded else ref["ops"]
                if op.name in want and want[op.name] != result.digests[op.name]:
                    problems.append("value differs from the recorded digest")
                elif not op.seeded and op.name not in want:
                    problems.append("no recorded digest")
            if problems:
                result.fail(op.name, problems)
    return result


def _run_queries(seed, ref, timed, result):
    table = ref["argv"] if ref is not None else None
    stream = hashlib.sha256()
    for unit in queries.generate(seed):
        req = unit
        while req is not None:
            result.attempted += 1
            try:
                (rc, out), seconds, start = timed(call_cli, req.argv, req.stdin)
            except Exception as exc:  # a traceback out of cli.run is a failure
                result.fail(req.key, [f"{type(exc).__name__}: {exc}"])
                break
            result.op_s.append(seconds)
            result.op_start.append(start)
            stream.update(f"{req.key}\0{req.stdin}\0{rc}\0{out}\0".encode())
            problems = check_request(req, rc, out, table)
            if problems:
                result.fail(req.key, problems)
                break
            req = req.follow(out) if req.follow else None
    result.digests["stream"] = stream.hexdigest()[:16]
    result.seeded.add("stream")
    if ref is not None:
        want = ref["seeds"].get(str(seed), {}).get("stream")
        if want is not None and want != result.digests["stream"]:
            result.fail("stream", ["stdout stream differs from the recorded digest"])
