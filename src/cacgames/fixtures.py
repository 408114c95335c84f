"""Built-in example games used by the tests and the command line.

``FIXTURES`` is the corpus, one row per game: ``(node ids, edges,
coordinating players, threshold)``.  An edge is a ``(u, v)`` pair of unit
weight or a ``(u, v, weight)`` triple, and the threshold is one rational
for every player.  ``fixture(name)`` builds the row's ``Game``.  The
`fig2a/b/c` family differs only by deleted edges; `k3` is the three-player
triangle with a single anti-coordinating player; `pennies` is the
two-player game with no pure equilibrium.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GameInputError
from .game import Game
from .graph import WeightedGraph
from .rationals import shown

HALF = Fraction(1, 2)

_FIG2A_PAIRS = [
    (3, 5), (3, 4), (4, 5),
    (2, 3), (1, 2), (1, 6), (1, 5), (2, 6),
]


def _clique(members) -> list:
    return [(a, b) for a in members for b in members if a < b]


FIXTURES = {
    "pennies": ([1, 2], [(1, 2, 1)], {1}, HALF),
    "fig1": (range(1, 14), [
        (1, 2, 2), (2, 3, 1), (4, 6, 2), (7, 8, 3), (5, 9, 4),
        (2, 10, 2), (2, 11, 1), (1, 12, 4), (8, 13, 1), (9, 13, 5),
        (3, 13, 7), (3, 5, 3), (5, 13, 2), (10, 11, 1), (4, 10, 2),
        (3, 4, 1), (3, 7, 1), (4, 5, 2), (11, 12, 2), (1, 7, 3),
    ], range(1, 9), Fraction(2, 5)),
    "fig2a": (range(1, 7), _FIG2A_PAIRS, range(2, 7), HALF),
    "fig2b": (range(1, 7), [p for p in _FIG2A_PAIRS if p != (2, 6)], range(2, 7), HALF),
    "fig2c": (range(1, 7), [p for p in _FIG2A_PAIRS if p not in ((2, 6), (2, 3))],
              range(2, 7), HALF),
    "fig3": (range(1, 11), [(9, 10), (8, 9), (8, 10), (4, 9), (4, 10)]
             + _clique((1, 2, 3, 4)) + _clique((5, 6, 7, 8)), range(1, 10), HALF),
    "fig4": (range(1, 13), [
        (1, 2), (1, 3), (2, 3),          # left triangle
        (4, 5), (4, 6), (5, 6),          # right triangle
        (3, 5), (3, 4), (1, 6),          # crossings
        (1, 7), (2, 8), (1, 9), (5, 10), (3, 11), (6, 12),  # stubs
    ], range(1, 7), HALF),
    "fig5": (range(1, 12), _clique(range(1, 7)) + [
        (1, 7), (2, 8), (4, 9), (5, 9), (3, 10), (6, 11),
        (9, 10), (9, 11), (7, 8),
    ], range(1, 7), HALF),
    "k3": ([1, 2, 3], _clique((1, 2, 3)), {1, 2}, HALF),
}


def fixture_names() -> list:
    return sorted(FIXTURES)


def fixture(name: str) -> Game:
    """Build a named instance from its row."""
    try:
        nodes, edges, coordinating, threshold = FIXTURES[name]
    except KeyError:
        raise GameInputError(
            f"unknown fixture {shown(name)}; available: {', '.join(fixture_names())}"
        ) from None
    edges = [edge if len(edge) == 3 else (*edge, 1) for edge in edges]
    return Game(WeightedGraph(nodes, edges), coordinating, threshold)
