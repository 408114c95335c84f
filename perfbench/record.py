"""Record the expected CLI outputs of every workload's base games.

Run from the repository root after a deliberate change of output:

    python3 perfbench/record.py

It runs each op of seed 0 (the generator's own labels) once, at both sizes,
and writes exit code, stdout and stderr per op to perfbench/expected.json.
The recorded outputs must pass the checker's invariants, so a recording
cannot enshrine an output that breaks them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import WORKLOAD_NAMES, use_checkout_package


def main() -> int:
    root = os.getcwd()
    if not use_checkout_package(root):
        return 2
    from bench import EXPECTED, Runner
    from check import check
    from workloads import build

    expected, problems = {}, []
    workdir = os.path.join(root, ".bench_build", "perfbench", f"record-{os.getpid()}")
    try:
        for size in ("full", "tiny"):
            for workload in WORKLOAD_NAMES:
                ops, games = build(workload, 0, size, workdir)
                runner = Runner(root, workdir)
                for op in ops:
                    _scaled, _wall, code, out, err, _rss = runner.cli(op.argv)
                    expected[op.key] = {"exit": code, "stdout": out, "stderr": err}
                    problems += [f"{op.key}: {p}" for p in check(op, games[op.path], code, out, err, expected)]
                    print(f"{op.key}: exit {code}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
