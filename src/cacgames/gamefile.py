"""Game files: reading the small JSON format.

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
The writers, ``serialize_game`` and ``to_dot``, live in ``writers``.
"""

from __future__ import annotations

import json
import re
import sys
from operator import itemgetter

from .errors import GameInputError, SizeCapError
from .game import Game
from .graph import WeightedGraph
from .rationals import shown

ROLES = ("coordinating", "anticoordinating")
# a file entry's fields in order; a missing one raises KeyError with its name
_NODE_FIELDS = itemgetter("id", "role", "threshold")
_EDGE_FIELDS = itemgetter("u", "v", "weight")

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
        node_id, role, threshold = _fields("nodes", k, entry, _NODE_FIELDS)
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
        _fields("edges", k, entry, _EDGE_FIELDS)
        for k, entry in enumerate(data["edges"])
    ]
    return Game(WeightedGraph(ids, edges), coordinating, thresholds)


def _fields(kind: str, k: int, entry, fields) -> tuple:
    """The fields ``fields`` reads from the file's entry ``kind[k]``, which
    must be an object; the entry is named only once a check fails."""
    if not isinstance(entry, dict):
        raise GameInputError(f"{kind}[{k}]: expected an object")
    try:
        return fields(entry)
    except KeyError as exc:
        raise GameInputError(f"{kind}[{k}]: missing field {exc.args[0]!r}") from None


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
