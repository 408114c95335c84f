"""Command-line front end.

Commands read a game from a file, from standard input ("-"), or from the
built-in fixture corpus by name, and write JSON (or DOT) to standard
output.  All output is deterministic for a fixed seed; exit codes are
0 success, 1 input error, 2 size cap, 3 precondition failure, 4 internal
guarantee violation, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import cache
from itertools import islice

from .errors import (
    GameInputError,
    GuaranteeViolationError,
    PreconditionError,
    SizeCapError,
)
from .fixtures import FIXTURES, fixture, fixture_names
from .game import Game
from .gamefile import load_game, serialize_game, to_dot
from .rationals import as_rational, format_rational, shown

SCHEMA_PREFIX = "cacgames"

TRAP_LIST_CAP = 256


def _resolve_game(source: str, r=None) -> Game:
    if r is not None:
        r = as_rational(r, what="--r")
    game = fixture(source) if source in FIXTURES else load_game(source)
    return game if r is None else game.replace_thresholds(r)


def _threshold_summary(game: Game) -> dict:
    values = set(game.thresholds.values())
    if len(values) == 1:
        return {"uniform": format_rational(next(iter(values)))}
    return {
        "per_node": {str(v): format_rational(game.thresholds[v]) for v in game.nodes}
    }


def _indecomposability_json(report) -> dict:
    w = report.witness
    witness = None if w is None else {"part0": sorted(w.part0), "part1": sorted(w.part1)}
    return {"holds": report.holds, "witness": witness}


def _cohesiveness_json(report) -> dict:
    return {
        "holds": report.holds,
        "violators": [
            {"node": v, "inside": format_rational(w), "required": format_rational(req)}
            for v, w, req in report.violators
        ],
    }


def _path_json(game: Game, path, mode=None) -> dict:
    out = {
        "schema": f"{SCHEMA_PREFIX}-path/1",
        "start": game.format_bits(path.start),
        "end": game.format_bits(path.end),
        "length": len(path),
        "steps": [{"player": node, "action": action} for node, action in path.steps],
        "configs": [game.format_bits(x) for x in path.configs],
    }
    if mode is not None:
        out["mode"] = mode
    return out


def _reach_json(game: Game, report, target_name: str, target_size: int) -> dict:
    traps = report.trap_states
    return {
        "schema": f"{SCHEMA_PREFIX}-reach/1",
        "source": report.source if report.source == "all" else game.format_bits(report.source),
        "target": target_name,
        "target_size": target_size,
        "reached": report.reached,
        "reachable_count": report.reachable_count,
        "trap_count": len(traps),
        "trap_states": [game.format_bits(x) for x in islice(traps, TRAP_LIST_CAP)],
        "trap_states_truncated": len(traps) > TRAP_LIST_CAP,
        "witness_path": None if report.witness is None else _path_json(game, report.witness),
    }


def _emit(data) -> None:
    print(json.dumps(data, indent=2))


def _parse_pattern(game: Game, pattern: str) -> tuple:
    """A 0/1/* configuration pattern as its sub-cube ``(base, free)``."""
    if len(pattern) != game.n or any(c not in "01*" for c in pattern):
        raise GameInputError(
            f"pattern must be {game.n} characters of 0, 1 or *, got {shown(pattern)}"
        )
    return (game.parse_bits(pattern.replace("*", "0")),
            game.parse_bits(pattern.replace("1", "0").replace("*", "1")))


def _sub_cube(base: int, free: int):
    """The configurations of the sub-cube ``(base, free)`` in ascending
    order, then again from the lowest, without end."""
    s = 0
    while True:
        yield base | s
        s = (s - free) & free


# -- subcommands ---------------------------------------------------------


def cmd_analyze(args) -> int:
    """Print the report's stages in order.  A stage whose scan hits a size cap
    holds a skipped object, and ``main`` reports the first cap with exit 2."""
    from .configsets import consensus_equilibria, enumerate_nash, global_reachability
    from .structure import game_cohesiveness, game_indecomposability

    game = _resolve_game(args.game, r=args.r)
    nash = cache(lambda: enumerate_nash(game))
    # The consensus scans enumerate only the anti-coordinating side, so they
    # can answer on games too large for the full Nash scan.
    ones = cache(lambda: consensus_equilibria(game, action=1))
    zeros = cache(lambda: consensus_equilibria(game, action=0))
    capped = []

    def stage(compute):
        try:
            return compute()
        except SizeCapError as exc:
            capped.append(exc)
            return {"status": "skipped-size-cap", "detail": str(exc)}

    def bits(configs) -> list:
        return [game.format_bits(x) for x in configs]

    def reachability() -> dict:
        consensus = ones() + zeros()
        target = consensus or nash()
        if not target:
            return {"status": "not-applicable"}
        reach = global_reachability(game, target)
        return {
            "status": "ok",
            "target": "consensus" if consensus else "nash",
            "reached": reach.reached,
            "reachable_count": reach.reachable_count,
            "trap_count": len(reach.trap_states),
        }

    _emit({
        "schema": f"{SCHEMA_PREFIX}-analysis/1",
        "game": {
            "source": args.game,
            "nodes": game.n,
            "edges": len(game.graph.edges()),
            "coordinating": sorted(game.coordinating),
            "anticoordinating": sorted(game.anticoordinating),
        },
        "thresholds": _threshold_summary(game),
        "cohesiveness": {
            "consensus_one": _cohesiveness_json(game_cohesiveness(game, toward=1)),
            "consensus_zero": _cohesiveness_json(game_cohesiveness(game, toward=0)),
        },
        "indecomposability": {
            mode: stage(lambda: _indecomposability_json(game_indecomposability(game, mode=mode)))
            for mode in ("strict", "weak")
        },
        "nash_count": stage(lambda: len(nash())),
        "nash": stage(lambda: bits(nash())),
        "consensus_equilibria": stage(lambda: {"ones": bits(ones()), "zeros": bits(zeros())}),
        "reachability": stage(reachability),
    })
    if capped:
        raise capped[0]
    return 0


def cmd_reach(args) -> int:
    from .configsets import (_check_cap, consensus_equilibria, enumerate_nash,
                             global_reachability, reachability_from)

    game = _resolve_game(args.game, r=args.r)
    if not args.all:
        # the pattern, one closure's cap and the work of all of them are
        # checked before any scan
        base, free = _parse_pattern(game, args.from_)
        sources = 1 << free.bit_count()
        _check_cap(game.n, sources)
    target = enumerate_nash(game) if args.target == "nash" else consensus_equilibria(game)
    if args.all:
        report = global_reachability(game, target)
        _emit(_reach_json(game, report, args.target, len(target)))
        return 0
    reports = [
        _reach_json(game, reachability_from(game, x0, target), args.target, len(target))
        for x0 in islice(_sub_cube(base, free), sources)
    ]
    _emit(reports[0] if len(reports) == 1 else reports)
    return 0


def cmd_simulate(args) -> int:
    from .simulation import _check_run, simulate

    if args.runs < 0:
        raise GameInputError("--runs must be non-negative")
    _check_run(args.scheduler, args.max_steps)
    game = _resolve_game(args.game, r=args.r)
    starts = None if args.from_ is None else _sub_cube(*_parse_pattern(game, args.from_))
    # a seed past Python's digit limit cannot be echoed: refuse before run 0
    format_rational(args.seed + args.runs - 1)
    for run in range(args.runs):
        seed = args.seed + run
        x0 = random.Random(seed).getrandbits(game.n) if starts is None else next(starts)
        traj = simulate(
            game,
            x0,
            scheduler=args.scheduler,
            seed=seed,
            max_steps=args.max_steps,
        )
        print(
            json.dumps(
                {
                    "schema": f"{SCHEMA_PREFIX}-trajectory/1",
                    "run": run,
                    "seed": seed,
                    "scheduler": traj.scheduler,
                    "start": game.format_bits(traj.start),
                    "final": game.format_bits(traj.configs[-1]),
                    "status": traj.status,
                    "activations": traj.activations,
                    "changes": len(traj.configs) - 1,
                }
            )
        )
    return 0


def cmd_path(args) -> int:
    from .dynamics import construct_consensus_path

    game = _resolve_game(args.game, r=args.r)
    x0 = game.parse_bits(args.from_)
    path = construct_consensus_path(game, x0, mode=args.mode)
    _emit(_path_json(game, path, mode=args.mode))
    return 0


def cmd_gen(args) -> int:
    from .generate import random_game

    game = random_game(
        args.seed,
        args.nodes,
        edge_prob=as_rational(args.edge_prob, what="--edge-prob"),
        coord_frac=as_rational(args.coord_frac, what="--coord-frac"),
        threshold=args.threshold,
        max_weight=args.max_weight,
    )
    sys.stdout.write(serialize_game(game))
    return 0


def cmd_export(args) -> int:
    game = _resolve_game(args.game, r=args.r)
    config = game.parse_bits(args.config) if args.config is not None else None
    sys.stdout.write(to_dot(game, config))
    return 0


# -- argument parsing ------------------------------------------------------


def _add_game_argument(parser) -> None:
    parser.add_argument(
        "game",
        help=f"game file path, '-' for stdin, or a fixture name ({', '.join(fixture_names())})",
    )
    parser.add_argument(
        "--r",
        default=None,
        help="override every threshold with this rational, e.g. 1/2",
    )


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as an input error (exit 1), cut short."""

    def error(self, message):
        raise GameInputError(message if len(message) <= 200 else message[:200] + "...")


def _reach_options(p) -> None:
    _add_game_argument(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from", dest="from_", metavar="BITS", help="source configuration (0/1/*, ascending node id)")
    group.add_argument("--all", action="store_true", help="check every configuration")
    p.add_argument("--target", choices=("nash", "consensus"), default="nash")


def _simulate_options(p) -> None:
    _add_game_argument(p)
    p.add_argument("--from", dest="from_", metavar="BITS", default=None,
                   help="start pattern (0/1/*); omitted means a seeded random start per run")
    p.add_argument("--scheduler", default="uniform-random",
                   help="round-robin, uniform-random (default) or greedy-potential")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--runs", type=int, default=1)


def _path_options(p) -> None:
    _add_game_argument(p)
    p.add_argument("--from", dest="from_", metavar="BITS", required=True)
    p.add_argument("--mode", choices=("strict", "weak"), default="strict")


def _gen_options(p) -> None:
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edge-prob", default="1/2")
    p.add_argument("--coord-frac", default="1/2")
    p.add_argument("--threshold", default="random", help="'random' or a rational like 1/2")
    p.add_argument("--max-weight", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)


def _export_options(p) -> None:
    _add_game_argument(p)
    p.add_argument("--config", default=None, help="overlay a configuration (0/1 string)")


# command -> (help line, function, option builder), in help order
_COMMANDS = {
    "analyze": ("structural predicates, equilibria, reachability", cmd_analyze, _add_game_argument),
    "reach": ("best-response reachability of an equilibrium set", cmd_reach, _reach_options),
    "simulate": ("asynchronous best-response runs", cmd_simulate, _simulate_options),
    "path": ("construct a best-response path to a consensus equilibrium", cmd_path, _path_options),
    "gen": ("emit a random game file", cmd_gen, _gen_options),
    "export": ("emit Graphviz DOT", cmd_export, _export_options),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The command-line parser.  When ``command`` names a subcommand, only
    that one is built, since argparse hands it every later argument; any
    other value builds them all, so top-level help and errors list every
    command."""
    parser = _Parser(
        prog="cacgames",
        description="Exact analysis of coordination/anti-coordination games on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, func, add_options) in _COMMANDS.items():
        if command not in _COMMANDS or command == name:
            p = sub.add_parser(name, help=help_line)
            add_options(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: silence the flush at exit, exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GameInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GuaranteeViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
