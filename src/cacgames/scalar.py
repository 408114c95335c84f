"""The scalar evaluators: one player's utility and best response, the Nash
test, and the best-response update rule, at one configuration.

A transition flips a single player's action to one of its current best
responses.  Re-picking the current action is allowed by the update rule but
never changes the state, so ``br_transitions`` lists only the
state-changing moves; ``validate_br_path`` accepts both.

``utility_by_definition`` and ``best_response_by_definition`` are the
oracles the tests check the fast paths against; they read only the graph
and the thresholds.  The exhaustive scans in ``configsets``, the runs in
``simulation`` and the path construction never call this module, so no
command compiles it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PathValidationError
from .game import BRPath, Game, _check_config
from .graph import ZERO
from .rationals import shown

_BR_SETS = {1: frozenset((0,)), 2: frozenset((1,)), 3: frozenset((0, 1))}


def _br_bits(game: Game, k: int, x: int) -> int:
    """Best-response set of player index k as a 2-bit code.

    Bit 0 set means action 0 is a best response, bit 1 likewise for
    action 1.  Never 0: at least one action is always optimal.
    """
    s = 0
    for j, w in game._nbrw[k]:
        if x >> j & 1:
            s += w
    t = game._thr_int[k]
    if s > t:
        code = 2
    elif s < t:
        code = 1
    else:
        code = 3
    if game._sign[k] < 0 and code != 3:
        code ^= 3
    return code


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
    return _BR_SETS[_br_bits(game, game.graph.index(node), x)]


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
        if not _br_bits(game, k, x) >> (x >> k & 1) & 1:
            out.append(game.nodes[k])
    return out


def is_nash(game: Game, x: int) -> bool:
    _check_config(game, x, "evaluated")
    return all(_br_bits(game, k, x) >> (x >> k & 1) & 1 for k in range(game.n))


def validate_br_path(game: Game, path: BRPath) -> None:
    """Check the update rule at every step; raise PathValidationError on the
    first violation.  No-op steps (re-picking the current action) pass.
    """
    if len(path.configs) != len(path.steps) + 1:
        raise PathValidationError(
            f"{len(path.configs)} configurations for {len(path.steps)} steps"
        )
    for x in path.configs:
        _check_config(game, x, "path")
    for k, step in enumerate(path.steps):
        try:
            node, action = step
        except (TypeError, ValueError):
            raise PathValidationError(f"step {k}: {shown(step)} is not a (node, action) pair") from None
        before = path.configs[k]
        after = path.configs[k + 1]
        bit = 1 << game.graph.index(node)
        if before & ~bit != after & ~bit:
            raise PathValidationError(f"step {k}: players other than {shown(node)} changed")
        if not isinstance(action, int) or (1 if after & bit else 0) != action:
            raise PathValidationError(
                f"step {k}: configuration does not apply action {shown(action)} of {shown(node)}"
            )
        if not _br_bits(game, game.graph.index(node), before) >> action & 1:
            raise PathValidationError(
                f"step {k}: action {shown(action)} is not a best response of {shown(node)}"
            )


def br_transitions(game: Game, x: int) -> list:
    """All state-changing single-player updates from ``x``.

    Returns (node, new_action, new_configuration) triples in ascending node
    order.  Empty exactly when every player strictly prefers its current
    action (a tie still contributes a move to the other action).
    """
    _check_config(game, x, "source")
    out = []
    for k in range(game.n):
        cur = x >> k & 1
        if _br_bits(game, k, x) >> (1 - cur) & 1:
            out.append((game.nodes[k], 1 - cur, x ^ (1 << k)))
    return out
