"""Self-test of the benchmark at tiny sizes.  Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload once, untraced and traced, on the recorded labels
(seed 0) and on a relabelled seed, and prints every metric with its unit.
It checks that the metric names and units match BENCHMARK.json, that the
checker flags a dropped equilibrium and a path step that is not a best
response, and that the benchmark refuses to run where there is no package.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

from run import WORKLOAD_NAMES, use_checkout_package

HERE = os.path.dirname(os.path.abspath(__file__))


def _expect(ok: bool, what: str, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _corruptions(failures: list) -> None:
    from cacgames import best_response

    from bench import EXPECTED
    from check import check
    from workloads import build

    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    workdir = os.path.join(os.getcwd(), ".bench_build", "perfbench", f"selftest-{os.getpid()}")
    try:
        ops, games = build("sweep", 0, "tiny", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def run_check(op, data):
        return check(op, games[op.path], 0, json.dumps(data), "", expected)

    analyze = next(op for op in ops if op.command == "analyze"
                   and json.loads(expected[op.key]["stdout"])["nash_count"] > 0)
    data = json.loads(expected[analyze.key]["stdout"])
    data["game"]["source"] = analyze.path
    _expect(run_check(analyze, data) == [], "recorded analyze output passes", failures)
    dropped = copy.deepcopy(data)
    gone = dropped["nash"].pop()
    dropped["nash_count"] -= 1
    for side in ("ones", "zeros"):
        if gone in dropped["consensus_equilibria"][side]:
            dropped["consensus_equilibria"][side].remove(gone)
    problems = run_check(analyze, dropped)
    _expect(any(".nash" in p for p in problems), f"dropped equilibrium flagged: {problems[:1]}", failures)

    reach = next(op for op in ops if op.command == "reach"
                 and expected[op.key]["exit"] == 0
                 and json.loads(expected[op.key]["stdout"])["witness_path"])
    game = games[reach.path]
    data = json.loads(expected[reach.key]["stdout"])
    _expect(run_check(reach, data) == [], "recorded reach output passes", failures)
    bad = copy.deepcopy(data)
    path = bad["witness_path"]
    x0 = game.parse_bits(path["configs"][0])
    # a player whose only best response is its current action
    k = next(k for k, v in enumerate(game.nodes) if best_response(game, v, x0) == {x0 >> k & 1})
    path["steps"][0] = {"player": game.nodes[k], "action": 1 - (x0 >> k & 1)}
    path["configs"][1] = game.format_bits(x0 ^ (1 << k))
    problems = run_check(reach, bad)
    _expect(any("not a best response" in p for p in problems),
            f"non-best-response step flagged: {problems[:1]}", failures)


def _no_package(failures: list) -> None:
    bare = os.path.join(os.getcwd(), ".bench_build", "perfbench", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(os.getcwd(), "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(proc.returncode != 0 and proc.stdout == "",
            f"refuses to run without the package (exit {proc.returncode})", failures)


def main() -> int:
    root = os.getcwd()
    if not use_checkout_package(root):
        return 2
    import bench

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    failures = []
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in WORKLOAD_NAMES:
            for seed in (0, 1):
                result = bench.run(root, workload, seed, 0, traced, size="tiny")["result"]
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                print(f"{workload} seed {seed} trace {int(traced)}: attempted {result['attempted']}")
                for name, m in result["metrics"].items():
                    print(f"    {name} = {m['value']:.6g} {m['unit']}")
                _expect(result["correct"] and result["failed"] == 0,
                        f"{workload} seed {seed} trace {int(traced)} outputs are correct", failures)
                _expect(got == want, f"{workload} metrics match BENCHMARK.json {section}", failures)
    _corruptions(failures)
    _no_package(failures)
    print("self-test", "failed: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
