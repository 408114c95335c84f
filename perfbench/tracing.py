"""Traced in-process replay of a workload's CLI calls.

The replay makes the same public library calls as the CLI commands, on the
same game files, and records a span around each call: name, start, end,
parent span and op id.  Spans are kept in memory and written out when the
run ends.  A span's self time is its duration minus the time its child
spans cover.  Layers are timed from outside, at the calls into them; the
package itself is not instrumented.

The cohesiveness and indecomposability calls that
``construct_consensus_path`` makes are wrapped during the traced replay, so
they appear as child spans of the path span and the path's self time is its
own work.  Two measurements are extra calls, made outside the op spans so
they do not count toward an op's in-process time:

* ``dynamics.witness``: ``reachability_from(game, 0, target)`` alone, the
  forward search that ``global_reachability`` runs for its witness;
* ``game.best_response_batch``: a seeded batch of ``best_response`` calls
  on the workload's games.

``tracemalloc`` is too slow to leave on, so the peak memory of each
``global_reachability`` call is measured in one more, untimed call.
"""

from __future__ import annotations

import json
import random
import statistics
import tracemalloc
import warnings
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

import cacgames.dynamics
from cacgames import (
    GameInputError,
    PreconditionError,
    best_response,
    consensus_equilibria,
    construct_consensus_path,
    enumerate_nash,
    game_cohesiveness,
    game_indecomposability,
    global_reachability,
    load_game,
    reachability_from,
    simulate,
)

# (name, unit); the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("gamefile.load_s", "s"),
    ("game.best_response_ns", "ns"),
    ("game.enumerate_nash_s", "s"),
    ("game.consensus_equilibria_s", "s"),
    ("game.nash_found", "count"),
    ("structure.cohesiveness_s", "s"),
    ("structure.indecomposability_s", "s"),
    ("structure.partitions_checked", "count"),
    ("dynamics.global_reachability_s", "s"),
    ("dynamics.witness_s", "s"),
    ("dynamics.states_closed", "count"),
    ("dynamics.trap_count", "count"),
    ("dynamics.global_reachability_peak_mb", "MB"),
    ("dynamics.reachability_from_s", "s"),
    ("dynamics.path_self_s", "s"),
    ("dynamics.path_len", "count"),
    ("dynamics.simulate_s", "s"),
    ("dynamics.activation_us", "us"),
    ("dynamics.activations", "count"),
    ("cli.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

BEST_RESPONSE_BATCH = 20000


class Tracer:
    """Records spans and counts in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = Counter()
        self._open = []

    @contextmanager
    def span(self, name: str, op: int):
        record = [name, perf_counter(), None, self._open[-1] if self._open else None, op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def self_times(self) -> Counter:
        """Total self time per span name."""
        out = Counter()
        for name, start, end, _parent, _op in self.spans:
            out[name] += end - start
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _p, _o in self.spans if n == name]


class NullTracer:
    """Same interface, records nothing: the untraced baseline."""

    def span(self, name, op):
        return nullcontext()

    def count(self, name, value):
        pass


def _global(op, game, target, t, extras):
    with t.span("dynamics.global_reachability", op.index):
        report = global_reachability(game, target)
    t.count("dynamics.states_closed", report.reachable_count)
    t.count("dynamics.trap_count", len(report.trap_states))
    extras.append(("witness" if report.reached else "closure", op.index, game, target))


def _analyze(op, game, t, extras):
    for toward in (1, 0):
        with t.span("structure.game_cohesiveness", op.index):
            game_cohesiveness(game, toward=toward)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for mode in ("strict", "weak"):
            with t.span("structure.game_indecomposability", op.index):
                report = game_indecomposability(game, mode=mode)
            t.count("structure.partitions_checked", report.partitions_checked)
    with t.span("game.enumerate_nash", op.index):
        nash = enumerate_nash(game)
    t.count("game.nash_found", len(nash))
    consensus = set()
    for action in (1, 0):
        with t.span("game.consensus_equilibria", op.index):
            consensus.update(consensus_equilibria(game, action=action))
    target = sorted(consensus) or nash
    if target:
        _global(op, game, target, t, extras)


def _reach(op, game, t, extras):
    with t.span("game.enumerate_nash", op.index):
        target = enumerate_nash(game)
    t.count("game.nash_found", len(target))
    try:
        if op.args[0] == "--all":
            _global(op, game, target, t, extras)
        else:
            with t.span("dynamics.reachability_from", op.index):
                reachability_from(game, game.parse_bits(op.source), target)
    except GameInputError:
        pass  # the CLI exits 1: no equilibrium to reach


@contextmanager
def _traced_predicates(t, op):
    """Time the structure calls made inside ``construct_consensus_path``."""
    names = ("game_cohesiveness", "game_indecomposability")
    originals = {name: getattr(cacgames.dynamics, name) for name in names}

    def timed(name, fn):
        def call(*args, **kwargs):
            with t.span(f"structure.{name}", op):
                report = fn(*args, **kwargs)
            t.count("structure.partitions_checked", getattr(report, "partitions_checked", 0))
            return report
        return call

    for name, fn in originals.items():
        setattr(cacgames.dynamics, name, timed(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cacgames.dynamics, name, fn)


def _path(op, game, t, extras):
    traced = _traced_predicates(t, op.index) if isinstance(t, Tracer) else nullcontext()
    try:
        with t.span("dynamics.construct_consensus_path", op.index), traced:
            path = construct_consensus_path(game, game.parse_bits(op.source), mode=op.args[-1])
        t.count("dynamics.path_len", len(path))
    except PreconditionError:
        pass  # the CLI exits 3 with the decomposition


def _simulate(op, game, t, extras):
    args = dict(zip(op.args[::2], op.args[1::2]))
    seed0 = int(args["--seed"])
    for run in range(int(args["--runs"])):
        seed = seed0 + run
        x0 = random.Random(seed).getrandbits(game.n)
        with t.span("dynamics.simulate", op.index):
            traj = simulate(game, x0, scheduler=args["--scheduler"], seed=seed,
                            max_steps=int(args["--max-steps"]))
        t.count("dynamics.activations", traj.activations)


REPLAY = {"analyze": _analyze, "reach": _reach, "path": _path, "simulate": _simulate}


def _replay_op(op, t, extras) -> None:
    with t.span("op", op.index):
        with t.span("gamefile.load_game", op.index):
            game = load_game(op.path)
        REPLAY[op.command](op, game, t, extras)


def _run_extras(extras, t, games, seed):
    for kind, op, game, arg in extras:
        if kind == "witness":
            with t.span("dynamics.witness", op):
                reachability_from(game, 0, arg)
    rng = random.Random(seed)
    pool = list(games.values())
    batch = []
    for _ in range(BEST_RESPONSE_BATCH):
        g = rng.choice(pool)
        batch.append((g, rng.choice(g.nodes), rng.getrandbits(g.n)))
    with t.span("game.best_response_batch", -1):
        for g, v, x in batch:
            best_response(g, v, x)


def peak_closure_mb(extras) -> float:
    """Largest tracemalloc peak over the traced ``global_reachability`` calls."""
    peak = 0
    for kind, _op, game, target in extras:
        if kind in ("witness", "closure"):
            tracemalloc.start()
            try:
                global_reachability(game, target)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    return peak / 2**20


def traced_pass(ops, games, seed) -> tuple:
    """Replay every op traced and untraced, back to back in alternating
    order so that slow phases of the machine hit both alike, then make the
    extra calls.  Returns (tracer, traced seconds, untraced seconds, extras)."""
    t, extras = Tracer(), []
    seconds = {True: 0.0, False: 0.0}
    for op in ops:
        for traced in ((True, False) if op.index % 2 == 0 else (False, True)):
            started = perf_counter()
            _replay_op(op, t if traced else NullTracer(), extras if traced else [])
            seconds[traced] += perf_counter() - started
    _run_extras(extras, t, games, seed)
    return t, seconds[True], seconds[False], extras


def layer_metrics(t: Tracer, cli_walls: list, ops) -> dict:
    """Per-layer values of one traced pass, except the two run-level ones
    (peak memory and tracing overhead)."""
    self_s = t.self_times()
    c = t.counts
    op_s = Counter()
    for _name, start, end, parent, op in t.spans:
        if _name == "op":
            op_s[op] += end - start
    sim_s = self_s["dynamics.simulate"]
    return {
        "gamefile.load_s": statistics.median(t.durations("gamefile.load_game")),
        "game.best_response_ns": self_s["game.best_response_batch"] / BEST_RESPONSE_BATCH * 1e9,
        "game.enumerate_nash_s": self_s["game.enumerate_nash"],
        "game.consensus_equilibria_s": self_s["game.consensus_equilibria"],
        "game.nash_found": c["game.nash_found"],
        "structure.cohesiveness_s": self_s["structure.game_cohesiveness"],
        "structure.indecomposability_s": self_s["structure.game_indecomposability"],
        "structure.partitions_checked": c["structure.partitions_checked"],
        "dynamics.global_reachability_s": self_s["dynamics.global_reachability"],
        "dynamics.witness_s": self_s["dynamics.witness"],
        "dynamics.states_closed": c["dynamics.states_closed"],
        "dynamics.trap_count": c["dynamics.trap_count"],
        "dynamics.reachability_from_s": self_s["dynamics.reachability_from"],
        "dynamics.path_self_s": self_s["dynamics.construct_consensus_path"],
        "dynamics.path_len": c["dynamics.path_len"],
        "dynamics.simulate_s": sim_s,
        "dynamics.activation_us": sim_s / c["dynamics.activations"] * 1e6 if c["dynamics.activations"] else 0.0,
        "dynamics.activations": c["dynamics.activations"],
        "cli.overhead_s": statistics.median(w - op_s[op.index] for w, op in zip(cli_walls, ops)),
    }


def write_spans(path: str, tracers) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for n, t in enumerate(tracers):
            for name, start, end, parent, op in t.spans:
                handle.write(json.dumps({"pass": n, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
