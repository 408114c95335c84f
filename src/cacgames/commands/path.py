"""``cacgames path``: a best-response path to a consensus equilibrium."""

from __future__ import annotations

from . import _add_game_argument, _emit, _path_json, _resolve_game


def options(p) -> None:
    _add_game_argument(p)
    p.add_argument("--from", dest="from_", metavar="BITS", required=True)
    p.add_argument("--mode", choices=("strict", "weak"), default="strict")


def run(args) -> int:
    from ..dynamics import construct_consensus_path

    game = _resolve_game(args.game, r=args.r)
    x0 = game.parse_bits(args.from_)
    path = construct_consensus_path(game, x0, mode=args.mode)
    _emit(_path_json(game, path, mode=args.mode))
    return 0
