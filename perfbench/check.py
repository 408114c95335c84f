"""Output checker for one CLI call of the benchmark.

Two kinds of check run on every call:

* invariants, decided with the package's definition-level oracles: every
  listed equilibrium passes ``best_response_by_definition`` for every
  player, consensus equilibria are Nash equilibria, ``reachable_count +
  trap_count = 2^n``, witness and constructed paths pass
  ``validate_br_path`` and end where they must, decomposition witnesses are
  decompositions, and simulation lines are consistent with their status;
* comparison with the outputs recorded for the base games in
  ``expected.json`` (written by ``record.py``), carried through the seed's
  relabelling.  Exit codes and error messages must match.  A witness path
  may differ from the recorded one but must have the recorded (shortest)
  length.  Outputs that depend on node order (the first decomposition
  found, constructed paths, simulation trajectories) are compared in full
  only for the recorded call itself and checked by invariants otherwise.

``check`` returns a list of problems; an empty list means the call passed.
"""

from __future__ import annotations

import ast
import json
import random
import re

from cacgames import (
    BRPath,
    best_response_by_definition,
    partition_certificate,
    validate_br_path,
)
from workloads import map_bits

SIM_STATUSES = ("absorbed-at-NE", "step-cap", "cycle-detected")
_PARTS = re.compile(r"decomposable \((strict|weak) mode\): parts (\[.*\]) / (\[.*\])$")


def is_nash_by_definition(game, x: int) -> bool:
    return all(
        (x >> k & 1) in best_response_by_definition(game, v, x)
        for k, v in enumerate(game.nodes)
    )


def _node(v, perm):
    return perm[v - 1] + 1


def _configs(game, strings, perm):
    """Relabel base configuration strings and sort them as masks."""
    masks = [game.parse_bits(map_bits(s, perm)) for s in strings]
    return [game.format_bits(x) for x in sorted(masks)]


def _path_problems(game, data, start: str, target) -> list:
    """Validate a path object of the CLI's JSON; ``target`` is "nash",
    "consensus-nash" (an equilibrium with the coordinating side agreed) or
    None."""
    try:
        steps = tuple((s["player"], s["action"]) for s in data["steps"])
        configs = tuple(game.parse_bits(c) for c in data["configs"])
        path = BRPath(steps, configs)
        validate_br_path(game, path)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"path is not a best-response path: {exc}"]
    problems = []
    if data["start"] != start or data["configs"][0] != start:
        problems.append(f"path starts at {data['start']}, expected {start}")
    if data["length"] != len(steps) or data["end"] != data["configs"][-1]:
        problems.append("path length or end disagrees with its steps")
    if target and not is_nash_by_definition(game, path.end):
        problems.append(f"path ends at {data['end']}, which is not a Nash equilibrium")
    if target == "consensus-nash" and (path.end & game.coord_mask) not in (0, game.coord_mask):
        problems.append(f"path ends at {data['end']}, which is not a consensus")
    return problems


def _decomposition_problems(game, part0, part1, mode) -> list:
    try:
        w = partition_certificate(game.graph, game.coordinating, game.thresholds,
                                  part0, part1, mode=mode)
    except ValueError as exc:
        return [f"witness {part0} / {part1} is not a split: {exc}"]
    if w.certifying_player is not None:
        return [f"witness {part0} / {part1} is certified by {w.certifying_player!r}, "
                "so it is not a decomposition"]
    return []


def _diff(expected, actual, where="") -> list:
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for k in sorted(set(expected) | set(actual), key=str):
            out += _diff(expected.get(k), actual.get(k), f"{where}.{k}")
        return out
    if expected != actual:
        return [f"{where or 'output'}: expected {str(expected)[:120]}, got {str(actual)[:120]}"]
    return []


def _check_analyze(op, game, got, exp) -> list:
    p = op.perm
    problems = []
    nash = [game.parse_bits(s) for s in got["nash"]]
    if got["nash_count"] != len(nash):
        problems.append("nash_count disagrees with the nash list")
    problems += [f"{game.format_bits(x)} is listed as Nash but is not one"
                 for x in nash if not is_nash_by_definition(game, x)]
    cons = got["consensus_equilibria"]
    for side, want in (("ones", game.coord_mask), ("zeros", 0)):
        for s in cons[side]:
            if s not in got["nash"] or game.parse_bits(s) & game.coord_mask != want:
                problems.append(f"consensus {side} entry {s} is not a Nash consensus")
    reach = got["reachability"]
    if reach.get("status") == "ok" and reach["reachable_count"] + reach["trap_count"] != 1 << game.n:
        problems.append("reachable_count + trap_count != 2^n")

    exp["game"]["source"] = op.path
    for side in ("coordinating", "anticoordinating"):
        exp["game"][side] = sorted(_node(v, p) for v in exp["game"][side])
    if "per_node" in exp["thresholds"]:
        exp["thresholds"]["per_node"] = {
            str(_node(int(v), p)): r for v, r in exp["thresholds"]["per_node"].items()
        }
    for rep in exp["cohesiveness"].values():
        for v in rep["violators"]:
            v["node"] = _node(v["node"], p)
        rep["violators"].sort(key=lambda v: v["node"])
    for mode, rep in got["indecomposability"].items():
        w = rep["witness"]
        if w is not None:
            problems += _decomposition_problems(game, w["part0"], w["part1"], mode)
            if not op.exact and exp["indecomposability"][mode]["witness"] is not None:
                exp["indecomposability"][mode]["witness"] = w
    if "nash" in exp:
        exp["nash"] = _configs(game, exp["nash"], p)
        for side in ("ones", "zeros"):
            exp["consensus_equilibria"][side] = _configs(game, exp["consensus_equilibria"][side], p)
    return problems + _diff(exp, got)


def _check_reach(op, game, got, exp) -> list:
    problems = []
    traps = got["trap_states"]
    if got["source"] == "all" and got["reachable_count"] + got["trap_count"] != 1 << game.n:
        problems.append("reachable_count + trap_count != 2^n")
    if got["reached"] != (got["trap_count"] == 0) or len(traps) != min(got["trap_count"], 256):
        problems.append("reached, trap_count and trap_states disagree")
    if exp["source"] != "all":
        exp["source"] = op.source
    if not exp["trap_states_truncated"]:
        exp["trap_states"] = _configs(game, exp["trap_states"], op.perm)
    elif got["trap_states_truncated"]:
        exp["trap_states"] = traps
    wit, want = got["witness_path"], exp["witness_path"]
    if (wit is None) != (want is None):
        problems.append("witness path present on one side only")
    elif wit is not None:
        start = got["source"] if got["source"] != "all" else "0" * game.n
        problems += _path_problems(game, wit, start, "nash")
        if wit["length"] != want["length"]:
            problems.append(f"witness has length {wit['length']}, shortest is {want['length']}")
        exp["witness_path"] = wit
    return problems + _diff(exp, got)


def _check_path(op, game, got, exp) -> list:
    problems = _path_problems(game, got, op.source, "consensus-nash")
    if got.get("mode") != op.args[-1]:
        problems.append(f"mode {got.get('mode')!r}, expected {op.args[-1]!r}")
    return problems + (_diff(exp, got) if op.exact else [])


def _check_simulate(op, game, out: str) -> list:
    args = dict(zip(op.args[::2], op.args[1::2]))
    runs, steps, seed0 = int(args["--runs"]), int(args["--max-steps"]), int(args["--seed"])
    lines = out.splitlines()
    if len(lines) != runs:
        return [f"{len(lines)} trajectory lines for {runs} runs"]
    problems = []
    for run, line in enumerate(lines):
        t = json.loads(line)
        seed = seed0 + run
        start = game.format_bits(random.Random(seed).getrandbits(game.n))
        x0, final = game.parse_bits(t["start"]), game.parse_bits(t["final"])
        moved = bin(x0 ^ final).count("1")
        ok = (
            t["run"] == run and t["seed"] == seed and t["start"] == start
            and t["scheduler"] == args["--scheduler"] and t["status"] in SIM_STATUSES
            and 0 <= t["changes"] <= t["activations"] <= steps
            and moved <= t["changes"] and moved % 2 == t["changes"] % 2
            and (t["status"] != "step-cap" or t["activations"] == steps)
            and (t["status"] != "cycle-detected" or t["scheduler"] != "uniform-random")
            and (t["status"] == "absorbed-at-NE") == is_nash_by_definition(game, final)
        )
        if not ok:
            problems.append(f"run {run}: inconsistent trajectory {line[:160]}")
    return problems


def check(op, game, code: int, out: str, err: str, expected: dict) -> list:
    """Problems with one call's exit code and output; [] when it passed."""
    rec = expected.get(op.key)
    if rec is None:
        return [f"no recorded expectation for {op.key!r}"]
    if code != rec["exit"]:
        return [f"exit code {code}, expected {rec['exit']} ({err.strip()[:200]})"]
    if code != 0:
        m = _PARTS.search(err.strip())
        problems = []
        if m:
            mode, part0, part1 = m.group(1), ast.literal_eval(m.group(2)), ast.literal_eval(m.group(3))
            problems = _decomposition_problems(game, part0, part1, mode)
        if (op.exact or m is None) and err != rec["stderr"]:
            problems.append(f"stderr {err.strip()[:200]!r}, expected {rec['stderr'].strip()[:200]!r}")
        return problems
    try:
        if op.command == "simulate":
            problems = _check_simulate(op, game, out)
            if op.exact and out != rec["stdout"]:
                problems.append("simulation output differs from the recorded one")
            return problems
        got, exp = json.loads(out), json.loads(rec["stdout"])
        if op.command == "analyze":
            return _check_analyze(op, game, got, exp)
        if op.command == "reach":
            return _check_reach(op, game, got, exp)
        return _check_path(op, game, got, exp)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
