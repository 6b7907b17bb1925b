"""One sample in a fresh interpreter: import cupcalc, run one workload once.

Usage: python3 perfbench/sample.py <root> <workload|setup> <seed> <traced 0|1>

Prints one JSON line.  ``setup`` only times the import.  Every time is
scaled to reference seconds by the probes of ``speed.py``; the raw
seconds are reported beside them.  The parent, ``run.py``, sets
PYTHONPATH to <root>/src.
"""

import sys

import speed

WARMUP_PROBES = 5
IMPORT_PROBES = 20

around_import = speed.Speed()
for _ in range(WARMUP_PROBES):
    speed.probe()
for _ in range(IMPORT_PROBES):
    around_import.sync()
start = around_import.clock()
import cupcalc.cli  # noqa: E402  (timed: the set-up a CLI user pays)

import_raw_s = around_import.clock() - start
for _ in range(IMPORT_PROBES):
    around_import.sync()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def main():
    root, workload, seed, traced = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    src = os.path.join(root, "src", "cupcalc")
    if os.path.dirname(os.path.abspath(cupcalc.cli.__file__)) != os.path.abspath(src):
        sys.exit(f"cupcalc was imported from {cupcalc.cli.__file__}, not from {src}")
    out = {"import_s": import_raw_s * around_import.factor()}
    if workload != "setup":
        import tracing
        import workloads

        with open(os.path.join(os.path.dirname(__file__), "reference.json")) as f:
            reference = json.load(f)
        host = speed.Speed()
        tracer = None
        if traced:
            tracer = tracing.Tracer(host.clock)
            tracer.install()
        host.start()
        try:
            res = workloads.run_workload(workload, seed, reference, tracer, host.clock)
        finally:
            host.stop()
        factor = host.factor()
        op_s = [s * host.factor(start, s) for start, s in zip(res.op_start, res.op_s)]
        out.update(
            wall_s=sum(op_s),
            raw_wall_s=sum(res.op_s),
            speed_factor=factor,
            op_s=op_s,
            attempted=res.attempted,
            failures=res.failures,
            digests=res.digests,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if traced:
            values = tracing.per_layer_metrics(tracer.layer_stats())
            for name, unit in tracing.PER_LAYER[:-1]:
                if unit == "s":
                    values[name] *= factor
            out["per_layer"] = values
    print(json.dumps(out))


if __name__ == "__main__":
    main()
