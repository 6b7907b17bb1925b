"""Spans around the public functions of each cupcalc module, installed from
outside the package.

A function is bound in every module that imports it by name (``springer``
and ``ringcalc`` import ``orient_circle_diagram`` and ``decompose``, the
package imports everything), so each binding of the original object is
replaced.  Spans are kept in memory as flat arrays (name, parent, start,
end); self time is a span's duration minus the time its child spans
cover.  Counters for rows, pivots and glued pairs are taken at the same
boundaries.
"""

from __future__ import annotations

import sys
import time
from array import array

# Traced functions: span name -> (module, attribute).
SPANS = {
    "diagrams.validate": ("diagrams", "validate"),
    "diagrams.enumerate": ("diagrams", "enumerate_diagrams"),
    "diagrams.parse_dsl": ("diagrams", "parse_dsl"),
    "diagrams.maximal_diagrams": ("diagrams", "maximal_diagrams"),
    "orientation.orient_circle_diagram": ("orientation", "orient_circle_diagram"),
    "orientation.decompose": ("orientation", "decompose"),
    "orientation.half_degree": ("orientation", "half_degree"),
    "movegraph.move_graph": ("movegraph", "move_graph"),
    "movegraph.distance": ("movegraph", "distance"),
    "movegraph.geodesic_meet": ("movegraph", "geodesic_meet"),
    "springer.fixed_point_table": ("springer", "fixed_point_table"),
    "springer.arc_algebra_graded_dimension": ("springer", "arc_algebra_graded_dimension"),
    "springer.arc_algebra_graded_dimension_closed_form": (
        "springer", "arc_algebra_graded_dimension_closed_form"),
    "springer.presentation_ring": ("springer", "presentation_ring"),
    "springer.equivariant_specialization": ("springer", "equivariant_specialization"),
    "ringcalc.centre": ("ringcalc", "centre"),
    "ringcalc.intersection_quotient": ("ringcalc", "intersection_quotient"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "tableaux.to_cup": ("tableaux", "to_cup"),
    "tableaux.from_cup": ("tableaux", "from_cup"),
    "tableaux.cyc": ("tableaux", "cyc"),
    "tableaux.cyc_inverse": ("tableaux", "cyc_inverse"),
    "tableaux.cup_of_bitableau": ("tableaux", "cup_of_bitableau"),
    "cli.run": ("cli", "run"),
}

# The per-layer metrics, in the order they are reported: (name, unit).
PER_LAYER = [
    ("diagrams.validate.calls", "count"),
    ("diagrams.validate.self_s", "s"),
    ("diagrams.enumerate.self_s", "s"),
    ("diagrams.parse_dsl.self_s", "s"),
    ("diagrams.maximal_diagrams.hit_ratio", "ratio"),
    ("orientation.orient_circle_diagram.calls", "count"),
    ("orientation.orient_circle_diagram.self_s", "s"),
    ("orientation.decompose.calls", "count"),
    ("orientation.decompose.self_s", "s"),
    ("orientation.half_degree.calls", "count"),
    ("orientation.glue_reuse", "ratio"),
    ("orientation.orientable_frac", "ratio"),
    ("movegraph.move_graph.self_s", "s"),
    ("movegraph.distance.calls", "count"),
    ("movegraph.distance.self_s", "s"),
    ("movegraph.geodesic_meet.self_s", "s"),
    ("movegraph.move_graph.hit_ratio", "ratio"),
    ("springer.fixed_point_table.self_s", "s"),
    ("springer.arc_algebra_graded_dimension.self_s", "s"),
    ("springer.arc_algebra_graded_dimension_closed_form.self_s", "s"),
    ("springer.presentation_ring.self_s", "s"),
    ("springer.equivariant_specialization.self_s", "s"),
    ("ringcalc.centre.self_s", "s"),
    ("ringcalc.intersection_quotient.calls", "count"),
    ("ringcalc.constraint_rows", "count"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rows_in", "count"),
    ("linalg.pivots_out", "count"),
    ("linalg.pivot_yield", "ratio"),
    ("linalg.uf_relate.calls", "count"),
    ("tableaux.to_cup.self_s", "s"),
    ("tableaux.from_cup.self_s", "s"),
    ("tableaux.cyc.self_s", "s"),
    ("tableaux.cyc_inverse.self_s", "s"),
    ("tableaux.cup_of_bitableau.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """In-memory span recorder.  ``install`` patches cupcalc; ``span`` times
    one benchmark op as the root of the spans it causes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []                  # span name by id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = {"rows_in": 0, "pivots_out": 0, "constraint_rows": 0,
                       "orientable": 0, "uf_relate": 0}
        self.glued_pairs = set()
        self.caches = {}
        self.root = self._name_id("bench.op")

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def span(self, fn, *args):
        """Run one benchmark op as a root span."""
        return self._timed(self.root, fn, args, {})

    def _timed(self, name_id, fn, args, kwargs):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = self.clock()
            self.span_start[idx] = start
            self.stack.pop()

    def _wrap(self, name, fn, after=None):
        name_id = self._name_id(name)
        timed = self._timed

        def traced(*args, **kwargs):
            result = timed(name_id, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    # Counters taken at the span boundaries.
    def _after_rref(self, args, pivots):
        self.counts["rows_in"] += len(args[0])
        self.counts["pivots_out"] += len(pivots)

    def _after_kernel_basis(self, args, _):
        self.counts["constraint_rows"] += len(args[0])

    def _after_orient(self, _, oriented):
        self.counts["orientable"] += bool(oriented)

    def _after_decompose(self, args, _):
        cap, cup = args
        self.glued_pairs.add((cup.k, cap.cups, cap.rays, cup.cups, cup.rays))

    def install(self):
        """Replace every binding of each traced function inside cupcalc."""
        from cupcalc import linalg

        after = {
            "linalg.rref": self._after_rref,
            "linalg.kernel_basis": self._after_kernel_basis,
            "orientation.orient_circle_diagram": self._after_orient,
            "orientation.decompose": self._after_decompose,
        }
        modules = [m for n, m in sys.modules.items() if n == "cupcalc" or n.startswith("cupcalc.")]
        for name, (module, attr) in SPANS.items():
            original = getattr(sys.modules["cupcalc." + module], attr)
            if hasattr(original, "cache_info"):
                self.caches[name] = original
            wrapper = self._wrap(name, original, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        relate = linalg.ScaledUnionFind.relate
        counts = self.counts

        def counted_relate(uf, a, b, ratio):
            counts["uf_relate"] += 1
            return relate(uf, a, b, ratio)

        linalg.ScaledUnionFind.relate = counted_relate

    def layer_stats(self):
        """Calls and self seconds per span name, plus the counters."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i]
        hits = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            hits[name] = _ratio(info.hits, info.hits + info.misses)
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts),
                "glued_pairs": len(self.glued_pairs), "hit_ratio": hits}


def per_layer_metrics(stats):
    """The PER_LAYER values of one traced sample, all but the overhead."""
    calls, self_s, counts = stats["calls"], stats["self_s"], stats["counts"]
    values = {}
    for metric, _ in PER_LAYER:
        stem, _, field = metric.rpartition(".")
        if field == "calls" and stem in calls:
            values[metric] = calls[stem]
        elif field == "self_s" and stem in self_s:
            values[metric] = self_s[stem]
        elif field == "hit_ratio":
            values[metric] = stats["hit_ratio"][stem]
    values.update({
        "orientation.glue_reuse": _ratio(calls["orientation.decompose"], stats["glued_pairs"]),
        "orientation.orientable_frac": _ratio(
            counts["orientable"], calls["orientation.orient_circle_diagram"]),
        "ringcalc.constraint_rows": counts["constraint_rows"],
        "linalg.rows_in": counts["rows_in"],
        "linalg.pivots_out": counts["pivots_out"],
        "linalg.pivot_yield": _ratio(counts["pivots_out"], counts["rows_in"]),
        "linalg.uf_relate.calls": counts["uf_relate"],
    })
    return values
