"""Game files: a small JSON format plus DOT export.

A game file is an object with two keys::

    {"nodes": [{"id": 1, "role": "coordinating", "threshold": "1/2"}, ...],
     "edges": [{"u": 1, "v": 2, "weight": "2"}, ...]}

Node ids are all ints or all strings.  Rationals travel as "p/q" strings
(bare integers, as strings or JSON ints, are accepted).  Each undirected
edge appears exactly once.

This module checks only the file format: the JSON shape, the required
fields, the role names and the id types.  It hands the node and edge lists
to ``WeightedGraph`` in file order, so the graph's diagnostics name the
file's ``nodes[k]`` or ``edges[k]`` entry; the graph owns every id and
edge check, and ``Game`` converts the thresholds and checks their range.
Serialization is canonical (sorted nodes and edges, two-space indent), so
parse followed by serialize reproduces a canonical file byte for byte.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Optional

from .errors import GameInputError, SizeCapError
from .game import Game, _check_config
from .graph import WeightedGraph
from .rationals import format_rational, shown

ROLES = ("coordinating", "anticoordinating")

# The longest input load_game reads, in characters.  serialize_game writes at
# most 33,552,581 of them, for 64 nodes, 2016 edges, p/q parts of 4300 digits
# and ids of graph.ID_CAP characters.
INPUT_CAP = 1 << 25


def parse_game(text: str) -> Game:
    """Parse a game file from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameInputError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise GameInputError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer over Python's digit limit
        raise GameInputError("invalid JSON: a number has too many digits") from None
    if not isinstance(data, dict):
        raise GameInputError("top level must be an object with 'nodes' and 'edges'")
    for key in ("nodes", "edges"):
        if key not in data or not isinstance(data[key], list):
            raise GameInputError(f"missing or non-list {key!r} entry")

    ids = []
    coordinating = []
    thresholds = {}
    for k, entry in enumerate(data["nodes"]):
        node_id, role, threshold = _fields(f"nodes[{k}]", entry, ("id", "role", "threshold"))
        if not isinstance(node_id, (int, str)) or isinstance(node_id, bool):
            raise GameInputError(f"nodes[{k}]: id must be an int or string")
        if isinstance(node_id, str) and re.search("[\ud800-\udfff]", node_id):
            raise GameInputError(f"nodes[{k}]: id holds a lone surrogate, which no encoding can write")
        if role not in ROLES:
            raise GameInputError(f"nodes[{k}]: role must be one of {ROLES}, got {shown(role)}")
        ids.append(node_id)
        thresholds[node_id] = threshold
        if role == "coordinating":
            coordinating.append(node_id)
    if len({type(i) for i in ids}) > 1:
        raise GameInputError("node ids must be all ints or all strings")
    edges = [
        _fields(f"edges[{k}]", entry, ("u", "v", "weight"))
        for k, entry in enumerate(data["edges"])
    ]
    return Game(WeightedGraph(ids, edges), coordinating, thresholds)


def _fields(where: str, entry, names) -> tuple:
    """The named fields of one file entry, which must be an object."""
    if not isinstance(entry, dict):
        raise GameInputError(f"{where}: expected an object")
    try:
        return tuple(entry[name] for name in names)
    except KeyError as exc:
        raise GameInputError(f"{where}: missing field {exc.args[0]!r}") from None


def load_game(path: str) -> Game:
    """Parse a game file from disk ('-' reads standard input).  Input longer
    than ``INPUT_CAP`` characters raises SizeCapError after that many."""
    try:
        if path == "-":
            text = sys.stdin.read(INPUT_CAP + 1)
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read(INPUT_CAP + 1)
        if len(text) > INPUT_CAP:
            raise SizeCapError(f"cannot read {shown(path)}: longer than the cap of {INPUT_CAP} characters")
        text.encode("utf-8")  # standard input may decode bad bytes to lone surrogates
    except OSError as exc:
        raise GameInputError(f"cannot read {shown(path)}: {exc.strerror}") from None
    except UnicodeError:
        raise GameInputError(f"cannot read {shown(path)}: not UTF-8 text") from None
    return parse_game(text)


def serialize_game(game: Game) -> str:
    """Canonical JSON text for a game (ends with a newline)."""
    nodes = [
        {
            "id": v,
            "role": "coordinating" if v in game.coordinating else "anticoordinating",
            "threshold": format_rational(game.thresholds[v]),
        }
        for v in game.nodes
    ]
    edges = [
        {"u": u, "v": v, "weight": format_rational(w)}
        for u, v, w in game.graph.edges()
    ]
    return json.dumps({"nodes": nodes, "edges": edges}, indent=2) + "\n"


def to_dot(game: Game, config: Optional[int] = None) -> str:
    """Graphviz text: roles as node colors, weights as edge labels, and an
    optional action overlay (players at 1 drawn filled).
    """
    if config is not None:
        _check_config(game, config, "overlay")
    lines = ["graph game {"]
    for k, v in enumerate(game.nodes):
        color = "blue" if v in game.coordinating else "red"
        attrs = [f"color={color}"]
        if config is not None:
            attrs.append(
                "style=filled, fillcolor=lightgray" if config >> k & 1 else "style=solid"
            )
        lines.append(f'  {_dot_id(v)} [{", ".join(attrs)}];')
    for u, v, w in game.graph.edges():
        lines.append(f'  {_dot_id(u)} -- {_dot_id(v)} [label="{format_rational(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(v) -> str:
    """A node id as a quoted DOT string."""
    return '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'
