"""Write reference.json: digests of the current program's outputs.

Usage: python3 perfbench/record_reference.py

Records, for every workload, the digest of each op value that does not
depend on the seed, the digests of the seeded values for the default
and the held-out seed, and a stdout digest for every table-checked
``queries`` argv.  Run it only when the benchmark's inputs change; a
change to the program must match the recorded digests, not re-record
them.  It refuses to record while any identity or oracle check fails.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import queries  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 7919)  # the default seed and a held-out one


def main():
    reference = {}
    for name in ("sweep", "algebra", "queries"):
        entry = {"ops": {}, "seeds": {}}
        for seed in SEEDS:
            res = workloads.run_workload(name, seed, None)
            if res.failures:
                sys.exit(f"{name} seed {seed} fails its checks: {res.failures[:5]}")
            entry["seeds"][str(seed)] = {k: v for k, v in res.digests.items() if k in res.seeded}
            entry["ops"].update({k: v for k, v in res.digests.items() if k not in res.seeded})
        reference[name] = entry
    table = {}
    for req in queries.finite_requests():
        rc, out = workloads.call_cli(req.argv, req.stdin)
        problems = workloads.check_request(req, rc, out, None)
        if problems:
            sys.exit(f"{req.key}: {problems}")
        table[req.key] = workloads.digest(out)
    reference["queries"]["argv"] = table
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
