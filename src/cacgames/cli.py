"""Command-line front end.

Commands read a game from a file, from standard input ("-"), or from the
built-in fixture corpus by name, and write JSON (or DOT) to standard
output.  All output is deterministic for a fixed seed; exit codes are
0 success, 1 input error, 2 size cap, 3 precondition failure, 4 internal
guarantee violation, 141 standard output closed by its reader.  Each
command's options and body live in ``commands.<name>``, and a call imports
only the module of its own command.  A process enters through ``entry``,
both as ``python -m cacgames.cli`` and as the ``cacgames`` script; ``main``
is the in-process call.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from importlib import import_module

from .errors import (
    GameInputError,
    GuaranteeViolationError,
    PreconditionError,
    SizeCapError,
)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as an input error (exit 1), cut short."""

    def error(self, message):
        raise GameInputError(message if len(message) <= 200 else message[:200] + "...")

    def format_help(self):
        # the game argument's fixture names are read here, the one place
        # argparse formats help, so other calls never compile the fixtures
        for action in self._actions:
            if action.dest == "game" and not action.help.endswith(")"):
                from .fixtures import fixture_names

                action.help += f" ({', '.join(fixture_names())})"
        return super().format_help()


# command -> help line, in help order; ``commands.<name>`` holds its
# ``options(parser)`` and ``run(args)``
_COMMANDS = {
    "analyze": "structural predicates, equilibria, reachability",
    "reach": "best-response reachability of an equilibrium set",
    "simulate": "asynchronous best-response runs",
    "path": "construct a best-response path to a consensus equilibrium",
    "gen": "emit a random game file",
    "export": "emit Graphviz DOT",
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
    for name, help_line in _COMMANDS.items():
        if command not in _COMMANDS or command == name:
            module = import_module(f"{__package__}.commands.{name}")
            p = sub.add_parser(name, help=help_line)
            module.options(p)
            p.set_defaults(func=module.run)
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


def entry():
    """Run ``main`` on the command line and exit the process with its code.

    At exit the interpreter runs full collections over every object the
    call left tracked; freezing them first leaves those collections nothing
    to traverse.  ``gc.freeze`` allocates nothing, and the stream flush and
    ``atexit`` still run."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
