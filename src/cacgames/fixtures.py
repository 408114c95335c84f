"""Built-in example games used by the tests and the command line.

Each entry is a small named instance with integer node ids, unit or small
integer weights, and a default uniform threshold.  The `fig2a/b/c` family
differs only by deleted edges; `k3` is the three-player triangle with a
single anti-coordinating player; `pennies` is the two-player game with no
pure equilibrium.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GameInputError
from .game import Game
from .graph import WeightedGraph
from .rationals import shown

HALF = Fraction(1, 2)


def _unit_edges(pairs):
    return [(u, v, 1) for u, v in pairs]


def _pennies() -> Game:
    g = WeightedGraph([1, 2], [(1, 2, 1)])
    return Game(g, coordinating={1}, thresholds=HALF)


def _fig1() -> Game:
    edges = [
        (1, 2, 2), (2, 3, 1), (4, 6, 2), (7, 8, 3), (5, 9, 4),
        (2, 10, 2), (2, 11, 1), (1, 12, 4), (8, 13, 1), (9, 13, 5),
        (3, 13, 7), (3, 5, 3), (5, 13, 2), (10, 11, 1), (4, 10, 2),
        (3, 4, 1), (3, 7, 1), (4, 5, 2), (11, 12, 2), (1, 7, 3),
    ]
    g = WeightedGraph(range(1, 14), edges)
    return Game(g, coordinating=range(1, 9), thresholds=Fraction(2, 5))


_FIG2A_PAIRS = [
    (3, 5), (3, 4), (4, 5),
    (2, 3), (1, 2), (1, 6), (1, 5), (2, 6),
]


def _fig2a() -> Game:
    g = WeightedGraph(range(1, 7), _unit_edges(_FIG2A_PAIRS))
    return Game(g, coordinating=range(2, 7), thresholds=HALF)


def _fig2b() -> Game:
    pairs = [p for p in _FIG2A_PAIRS if p != (2, 6)]
    g = WeightedGraph(range(1, 7), _unit_edges(pairs))
    return Game(g, coordinating=range(2, 7), thresholds=HALF)


def _fig2c() -> Game:
    pairs = [p for p in _FIG2A_PAIRS if p not in ((2, 6), (2, 3))]
    g = WeightedGraph(range(1, 7), _unit_edges(pairs))
    return Game(g, coordinating=range(2, 7), thresholds=HALF)


def _fig3() -> Game:
    pairs = [(9, 10), (8, 9), (8, 10), (4, 9), (4, 10)]
    for clique in ((1, 2, 3, 4), (5, 6, 7, 8)):
        for a in clique:
            for b in clique:
                if a < b:
                    pairs.append((a, b))
    g = WeightedGraph(range(1, 11), _unit_edges(pairs))
    return Game(g, coordinating=range(1, 10), thresholds=HALF)


def _fig4() -> Game:
    pairs = [
        (1, 2), (1, 3), (2, 3),          # left triangle
        (4, 5), (4, 6), (5, 6),          # right triangle
        (3, 5), (3, 4), (1, 6),          # crossings
        (1, 7), (2, 8), (1, 9), (5, 10), (3, 11), (6, 12),  # stubs
    ]
    g = WeightedGraph(range(1, 13), _unit_edges(pairs))
    return Game(g, coordinating=range(1, 7), thresholds=HALF)


def _fig5() -> Game:
    pairs = [(a, b) for a in range(1, 7) for b in range(1, 7) if a < b]
    pairs += [
        (1, 7), (2, 8), (4, 9), (5, 9), (3, 10), (6, 11),
        (9, 10), (9, 11), (7, 8),
    ]
    g = WeightedGraph(range(1, 12), _unit_edges(pairs))
    return Game(g, coordinating=range(1, 7), thresholds=HALF)


def _k3() -> Game:
    g = WeightedGraph([1, 2, 3], _unit_edges([(1, 2), (1, 3), (2, 3)]))
    return Game(g, coordinating={1, 2}, thresholds=HALF)


FIXTURES = {
    "pennies": _pennies,
    "fig1": _fig1,
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig2c": _fig2c,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "k3": _k3,
}


def fixture_names() -> list:
    return sorted(FIXTURES)


def fixture(name: str) -> Game:
    """Build a named instance."""
    try:
        build = FIXTURES[name]
    except KeyError:
        raise GameInputError(
            f"unknown fixture {shown(name)}; available: {', '.join(fixture_names())}"
        ) from None
    return build()
