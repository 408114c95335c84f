"""The benchmark loop: set-up timing, the closed loop of CLI calls, output
checks, and the traced run.

One client runs the workload's fixed list of CLI calls ("ops"), one
subprocess at a time, each started only after the previous one ended.  A
pass is one run of that list; passes repeat until the run's seconds are
used.  Each op's wall time covers process start to exit, and its peak
resident set size comes from ``os.wait4``.  Every op's exit code and output
are checked (``check.py``); checking happens outside the timed window.

End-to-end times are scaled to a fixed machine speed.  On a shared virtual
machine the speed of a CPU drifts by a quarter or more over a few seconds,
which swamps the differences the benchmark must resolve.  So the benchmark
and its subprocesses are pinned to one CPU, a fixed pure-Python reference
loop is timed right before and right after every measured call, and the
call's wall time is multiplied by ``REFERENCE_S`` over the mean of those two
loop times.  ``REFERENCE_S`` is the loop's time on an unloaded CPU of the
2-CPU virtual machine the benchmark was written on, so a scaled second is
about a wall second there.  The unscaled values are kept in the metadata.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import tracing
from check import check
from workloads import WORKLOADS, build

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_REPS = 11
REFERENCE_S = 0.020
SETUP_CODE = "import sys, cacgames\nfor p in sys.argv[1:]:\n    cacgames.load_game(p)\n"

E2E = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of dict and int operations."""
    started = perf_counter()
    table = {}
    for i in range(100_000):
        table[i & 1023] = table.get(i & 1023, 0) + (i * i >> 3)
    return perf_counter() - started


class Runner:
    """Runs Python subprocesses against the checkout's package."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def run(self, args) -> tuple:
        """(wall seconds, exit code, stdout, stderr, peak RSS in KiB)."""
        out_path = os.path.join(self.workdir, "op.out")
        err_path = os.path.join(self.workdir, "op.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=self.root)
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
            return wall, proc.returncode, out.read(), err.read(), usage.ru_maxrss

    def scaled(self, args) -> tuple:
        """``run`` with the wall time scaled to the reference speed:
        (scaled seconds, raw seconds, exit code, stdout, stderr, peak RSS)."""
        before = reference_loop()
        wall, *rest = self.run(args)
        speed = REFERENCE_S / ((before + reference_loop()) / 2)
        return (wall * speed, wall, *rest)

    def cli(self, argv) -> tuple:
        return self.scaled(["-m", "cacgames.cli", *argv])

    def setup_seconds(self, files, reps=SETUP_REPS) -> tuple:
        """Median (scaled, raw) wall time of a fresh interpreter that imports
        the package and loads every game file, with no query."""
        scaled, raw = [], []
        for _ in range(reps):
            wall, raw_wall, code, _out, err, _rss = self.scaled(["-c", SETUP_CODE, *files])
            if code != 0:
                raise RuntimeError(f"set-up failed: {err.strip()}")
            scaled.append(wall)
            raw.append(raw_wall)
        return statistics.median(scaled), statistics.median(raw)


class Tally:
    """Counts attempted and failed ops, and reports the first problems."""

    def __init__(self, expected, games):
        self.expected, self.games = expected, games
        self.attempted = self.failed = 0

    def check(self, op, code, out, err) -> None:
        problems = check(op, self.games[op.path], code, out, err, self.expected)
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED op {op.index} ({' '.join(op.argv)}): {'; '.join(problems[:3])}",
                      file=sys.stderr)


def cli_pass(runner, ops, tally) -> tuple:
    """One checked pass over the ops: (scaled op walls, raw op walls, peak
    RSS in KiB)."""
    walls, raw, rss = [], [], 0
    for op in ops:
        wall, raw_wall, code, out, err, maxrss = runner.cli(op.argv)
        tally.check(op, code, out, err)
        walls.append(wall)
        raw.append(raw_wall)
        rss = max(rss, maxrss)
    return walls, raw, rss


def _code_identity(root: str) -> dict:
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):  # else git would search the parents
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "cacgames")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run(root, workload, seed, seconds, traced, size="full") -> dict:
    """Run one workload and return {"meta": ..., "result": ...}."""
    base = os.path.join(root, ".bench_build", "perfbench")
    workdir = os.path.join(base, f"{workload}-{size}-{seed}-{os.getpid()}")
    trace_file = os.path.join(base, f"trace-{workload}-{size}-{seed}.jsonl") if traced else None
    runner = Runner(root, workdir)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        ops, games = build(workload, seed, size, workdir)
        with open(EXPECTED, encoding="utf-8") as handle:
            tally = Tally(json.load(handle), games)
        runner.setup_seconds(list(games), reps=1)  # warm the file cache and bytecode
        setup_s, raw_setup_s = runner.setup_seconds(list(games))
        started = perf_counter()
        if traced:
            metrics, raw, passes = _traced(runner, ops, games, tally, seed, seconds, started, trace_file)
        else:
            metrics, raw, passes = _untraced(runner, ops, tally, seconds, started)
            metrics["setup_s"] = setup_s
        raw["setup_s"] = raw_setup_s
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(tracing.PER_LAYER if traced else E2E)
    meta = {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "nproc": len(cpus),
        "fail_ratio": tally.failed / tally.attempted,
        **_code_identity(root), "passes": passes, "ops_per_pass": len(ops),
        "unscaled": raw, "trace_file": trace_file, **WORKLOADS[workload],
    }
    result = {
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return {"meta": meta, "result": result}


def _untraced(runner, ops, tally, seconds, started) -> tuple:
    """Checked passes until the seconds are used: (metrics, unscaled, passes)."""
    walls, raw_walls, rss = [], [], 0
    while not walls or perf_counter() - started < seconds:
        pass_walls, pass_raw, pass_rss = cli_pass(runner, ops, tally)
        walls.append(pass_walls)
        raw_walls.append(pass_raw)
        rss = max(rss, pass_rss)
    metrics, raw = {}, {}
    for out, passes in ((metrics, walls), (raw, raw_walls)):
        per_op = [statistics.median(op) for op in zip(*passes)]  # each op over the passes
        out["wall_s"] = sum(per_op)
        out["op_p50_s"] = statistics.median(per_op)
    metrics["peak_rss_mb"] = rss / 1024
    raw["reference_loop_s"] = statistics.median(
        r / w * REFERENCE_S for p, q in zip(walls, raw_walls) for w, r in zip(p, q))
    return metrics, raw, len(walls)


def _traced(runner, ops, games, tally, seed, seconds, started, trace_file) -> tuple:
    """One checked CLI pass for the op walls, then traced passes until the
    seconds are used; per-layer values are medians over the passes and are
    not scaled, except ``cli.overhead_s``, whose two terms are unscaled."""
    _walls, cli_walls, _rss = cli_pass(runner, ops, tally)
    tracers, per_pass, traced_s, plain_s = [], [], [], []
    while not tracers or perf_counter() - started < seconds:
        t, traced, plain, extras = tracing.traced_pass(ops, games, seed)
        tracers.append(t)
        per_pass.append(tracing.layer_metrics(t, cli_walls, ops))
        traced_s.append(traced)
        plain_s.append(plain)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["dynamics.global_reachability_peak_mb"] = tracing.peak_closure_mb(extras)
    metrics["trace.overhead_ratio"] = sum(traced_s) / sum(plain_s)
    tracing.write_spans(trace_file, tracers)
    return metrics, {}, len(tracers)
