"""The scalar evaluators: one player's utility and best response, and the
Nash test, at one configuration.

``utility_by_definition`` and ``best_response_by_definition`` are the
oracles the tests check the fast paths against; they read only the graph
and the thresholds.  The exhaustive scans in ``configsets`` and the runs in
``simulation`` never call this module, so no command compiles it.
"""

from __future__ import annotations

from fractions import Fraction

from .game import Game, _check_config
from .graph import ZERO

_BR_SETS = {1: frozenset((0,)), 2: frozenset((1,)), 3: frozenset((0, 1))}


def utility(game: Game, node, x: int) -> Fraction:
    """Exact utility of one player at a full configuration.

    Uses the reduced form: a player at action 1 earns
    ``sign * (1 - r) * (weight of 1-neighbors)``, at action 0
    ``sign * r * (weight of 0-neighbors)``.
    """
    _check_config(game, x, "evaluated")
    k = game.graph.index(node)
    r = game.thresholds[node]
    xk = x >> k & 1
    matched = sum(w for j, w in game._nbrw[k] if (x >> j & 1) == xk)
    share = r.denominator - r.numerator if xk else r.numerator
    return Fraction(game._sign[k] * share * matched, r.denominator * game._scale)


def utility_by_definition(game: Game, node, x: int) -> Fraction:
    """Utility summed term by term from the defining payoff expression.

    Each neighbor contributes ``(1 - r) * x_i * x_j + r * (1 - x_i) *
    (1 - x_j)`` times the edge weight; the term is evaluated per neighbor by
    case analysis on the two actions.  Kept as an independent cross-check of
    the reduced form used everywhere else: it reads only the graph and the
    thresholds, never the game's derived tables; do not collapse this into
    the threshold fast path.
    """
    _check_config(game, x, "evaluated")
    graph = game.graph
    xi = x >> graph.index(node) & 1
    r = game.thresholds[node]
    match_one = 1 - r
    total = ZERO
    for u in graph.neighbors(node):
        xj = x >> graph.index(u) & 1
        if xi and xj:
            total += graph.weight(node, u) * match_one
        elif not xi and not xj:
            total += graph.weight(node, u) * r
    return total if node in game.coordinating else -total


def best_response(game: Game, node, x: int) -> frozenset:
    """Set of optimal actions for one player; the player's own bit in ``x``
    is ignored.  Contains both actions exactly when the 1-side neighbor
    weight ties ``r_i * w_i``.
    """
    _check_config(game, x, "evaluated")
    return _BR_SETS[game._br_bits(game.graph.index(node), x)]


def best_response_by_definition(game: Game, node, x: int) -> frozenset:
    """Argmax over the two literal utility evaluations (oracle path)."""
    _check_config(game, x, "evaluated")
    k = game.graph.index(node)
    u0 = utility_by_definition(game, node, x & ~(1 << k))
    u1 = utility_by_definition(game, node, x | (1 << k))
    if u1 > u0:
        return _BR_SETS[2]
    if u1 < u0:
        return _BR_SETS[1]
    return _BR_SETS[3]


def deviations(game: Game, x: int) -> list:
    """Players whose current action is not a best response, ascending."""
    _check_config(game, x, "evaluated")
    out = []
    for k in range(game.n):
        if not game._br_bits(k, x) >> (x >> k & 1) & 1:
            out.append(game.nodes[k])
    return out


def is_nash(game: Game, x: int) -> bool:
    _check_config(game, x, "evaluated")
    return all(game._br_bits(k, x) >> (x >> k & 1) & 1 for k in range(game.n))
