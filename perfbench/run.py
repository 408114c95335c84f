"""Benchmark of the cacgames package, driven through its CLI.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Workloads are ``sweep``, ``partition`` and ``simulate`` (see workloads.py
for what each one exercises and why).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced in-process run.
The package is imported from ``src/`` of the current directory and nothing
is installed.  Generated game files and span traces go under
``.bench_build/perfbench/``.

Standard output ends with two JSON lines: the run's metadata (Python
version, CPU count, code identity, seed, workload rationale) and then the
result, ``{"correct", "attempted", "failed", "metrics"}``.  A failed op
(wrong exit code or wrong output) is counted in ``failed`` and described on
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOAD_NAMES = ("sweep", "partition", "simulate")


def use_checkout_package(root: str) -> bool:
    """Put the checkout's ``src`` first on the import path, or report that
    there is no package to benchmark."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cacgames", "__init__.py")):
        print(f"perfbench: no src/cacgames under {root}; run from the repository root",
              file=sys.stderr)
        return False
    sys.path.insert(0, src)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not use_checkout_package(root):
        return 2
    import bench

    out = bench.run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
