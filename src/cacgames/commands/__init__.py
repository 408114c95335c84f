"""The command-line subcommands, one module each.

Each module ``commands.<name>`` holds ``options(parser)``, which adds the
command's arguments, and ``run(args)``, which runs it and returns the exit
code.  ``cli.build_parser`` imports only the module of the command it
builds, so a call compiles its own command and nothing of the others.  This
package holds what several commands share.  No module here imports
``cacgames.cli``: under ``python -m cacgames.cli`` that module runs as
``__main__``, and a second import would compile it again.
"""

from __future__ import annotations

import json

from ..errors import GameInputError
from ..game import Game
from ..gamefile import load_game
from ..rationals import as_rational, shown

SCHEMA_PREFIX = "cacgames"

TRAP_LIST_CAP = 256


def _resolve_game(source: str, r=None) -> Game:
    if r is not None:
        r = as_rational(r, what="--r")
    # Every fixture name is letters and digits, so a path or "-" is read
    # without compiling the fixture table.
    if source.isalnum():
        from ..fixtures import FIXTURES, fixture

        game = fixture(source) if source in FIXTURES else load_game(source)
    else:
        game = load_game(source)
    return game if r is None else game.replace_thresholds(r)


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


def _add_game_argument(parser) -> None:
    # ``cli._Parser.format_help`` appends the fixture names, so only a call
    # that prints help compiles the fixture table for them
    parser.add_argument("game", help="game file path, '-' for stdin, or a fixture name")
    parser.add_argument(
        "--r",
        default=None,
        help="override every threshold with this rational, e.g. 1/2",
    )
