"""Game writers: the canonical game-file JSON and Graphviz DOT.

Serialization is canonical (sorted nodes and edges, two-space indent), so
``gamefile.parse_game`` followed by ``serialize_game`` reproduces a
canonical file byte for byte.  Only the ``gen`` and ``export`` commands
compile this module.
"""

from __future__ import annotations

import json
from typing import Optional

from .game import Game, _check_config
from .rationals import format_rational


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
