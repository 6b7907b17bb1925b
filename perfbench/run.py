"""The cupcalc benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep|algebra|queries --seed N \
        --seconds S --trace 0|1

Every sample runs the workload once in a fresh interpreter, one process
at a time, so no ``lru_cache`` survives from one sample to the next.
Samples repeat until the next one would end after ``--seconds``.
``setup_s`` is the median time of a fresh interpreter's
``import cupcalc.cli`` over the samples and a few import-only spawns.
Times are scaled to reference seconds by ``speed.py``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, medians over the samples.  With ``--trace 1``
untraced and traced samples alternate; the last line holds the
per-layer metrics of the traced samples and the tracing overhead (traced
minus untraced ``wall_s``).  Earlier lines give sample counts and
failures.  Exits non-zero, printing no result, when the checkout holds
no cupcalc source or a sample cannot run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("sweep", "algebra", "queries")
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
SETUP_SPAWNS = 6
RUN_LIMIT_S = 170  # a run must end within 180 s


class SampleError(Exception):
    pass


def spawn(workload, seed, traced, deadline):
    """Run perfbench/sample.py once and return its JSON result."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from cached bytecode
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, os.path.join(HERE, "sample.py"), ROOT, workload, str(seed), str(int(traced))]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SampleError(f"{workload} sample did not finish in time") from None
    if proc.returncode != 0:
        raise SampleError(f"{workload} sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_samples(workload, seed, seconds, trace, deadline):
    """Samples until the next would end after ``seconds``; with ``trace``
    they alternate untraced, traced, ... and at least one of each runs."""
    start = time.monotonic()
    samples, last = [], {}
    while True:
        traced = trace and len(samples) % 2 == 1
        t0 = time.monotonic()
        sample = spawn(workload, seed, traced, deadline)
        last[traced] = time.monotonic() - t0
        sample["traced"] = traced
        samples.append(sample)
        next_traced = trace and len(samples) % 2 == 1
        expected = last.get(next_traced, last[traced])
        if len(samples) >= (2 if trace else 1) and time.monotonic() - start + expected > seconds:
            return samples


def end_to_end(samples, setup):
    def med(values):
        return statistics.median(values)

    ms = [[1000 * s for s in sample["op_s"]] for sample in samples]
    return {
        "setup_s": med(setup),
        "wall_s": med([s["wall_s"] for s in samples]),
        "ops_per_s": med([len(s["op_s"]) / s["wall_s"] for s in samples]),
        "op_p50_ms": med([statistics.median(m) for m in ms]),
        "op_p99_ms": med([percentile(m, 99) for m in ms]),
        "peak_rss_mb": med([s["peak_rss_mb"] for s in samples]),
    }


def per_layer(traced, untraced):
    """Counts and ratios must repeat exactly between traced samples;
    seconds are medians."""
    values, problems = {}, []
    for name, unit in PER_LAYER[:-1]:
        seen = [s["per_layer"][name] for s in traced]
        if unit == "s":
            values[name] = statistics.median(seen)
        else:
            values[name] = seen[0]
            if any(v != seen[0] for v in seen):
                problems.append(f"{name} differs between traced samples: {seen}")
    values["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                  - statistics.median(s["wall_s"] for s in untraced))
    return values, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "cupcalc", "cli.py")):
        sys.exit(f"no cupcalc source under {os.path.join(ROOT, 'src')}")
    try:
        spawn("setup", 0, False, deadline)  # writes the bytecode cache; not timed
        setup = [] if args.trace else [
            spawn("setup", 0, False, deadline)["import_s"] for _ in range(SETUP_SPAWNS)]
        samples = run_samples(args.workload, args.seed, args.seconds, args.trace == 1, deadline)
    except SampleError as exc:
        sys.exit(str(exc))

    failures = [f for s in samples for f in s["failures"]]
    digests = {json.dumps(s["digests"], sort_keys=True) for s in samples}
    if len(digests) > 1:
        failures.append("op digests differ between samples")
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    if args.trace:
        values, problems = per_layer(traced, untraced)
        failures += problems
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        setup += [s["import_s"] for s in samples]
        values = end_to_end(samples, setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    attempted = sum(s["attempted"] for s in samples)
    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"samples, {len(samples[0]['op_s'])} ops each, {len(setup)} set-up timings; "
          f"failed_frac {len(failures) / attempted:.6g}; raw wall_s "
          f"{statistics.median(s['raw_wall_s'] for s in untraced):.4f}, speed factor "
          f"{statistics.median(s['speed_factor'] for s in untraced):.4f}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
