"""``cacgames reach``: best-response reachability of an equilibrium set."""

from __future__ import annotations

from itertools import islice

from ..game import Game
from . import (SCHEMA_PREFIX, TRAP_LIST_CAP, _add_game_argument, _emit, _parse_pattern,
               _path_json, _resolve_game, _sub_cube)


def options(p) -> None:
    _add_game_argument(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from", dest="from_", metavar="BITS", help="source configuration (0/1/*, ascending node id)")
    group.add_argument("--all", action="store_true", help="check every configuration")
    p.add_argument("--target", choices=("nash", "consensus"), default="nash")


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


def run(args) -> int:
    from ..configsets import (_check_cap, consensus_equilibria, enumerate_nash,
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
