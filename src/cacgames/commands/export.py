"""``cacgames export``: Graphviz DOT."""

from __future__ import annotations

import sys

from ..writers import to_dot
from . import _add_game_argument, _resolve_game


def options(p) -> None:
    _add_game_argument(p)
    p.add_argument("--config", default=None, help="overlay a configuration (0/1 string)")


def run(args) -> int:
    game = _resolve_game(args.game, r=args.r)
    config = game.parse_bits(args.config) if args.config is not None else None
    sys.stdout.write(to_dot(game, config))
    return 0
