"""The binary-action network game with coordinating and anti-coordinating
players.

Each player occupies a graph node and picks an action in {0, 1}.  A
coordinating player earns weight ``(1 - r_i) * W_ij`` for every neighbor j
matched on action 1 and ``r_i * W_ij`` for every neighbor matched on 0; an
anti-coordinating player earns the negated amounts.  The threshold
``r_i in (0, 1)`` therefore sets the fraction of neighbor weight on action 1
at which the player's preference switches.  At an exact tie both actions are
best responses, which is why all arithmetic is exact.

Configurations are integer bitmasks over the graph's sorted node order
(bit k is the action of ``graph.nodes[k]``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import GameInputError, SizeCapError
from .graph import WeightedGraph, ZERO
from .rationals import as_rational, shown

# Players an exhaustive configuration scan may enumerate (2^ENUM_CAP states).
ENUM_CAP = 20

_BR_SETS = {1: frozenset((0,)), 2: frozenset((1,)), 3: frozenset((0, 1))}


def _threshold_map(nodes, thresholds) -> dict:
    """Per-node thresholds from a single rational or a mapping, each checked
    to lie in the open interval (0, 1)."""
    if isinstance(thresholds, Mapping):
        out = {}
        for v in nodes:
            if v not in thresholds:
                raise GameInputError(f"missing threshold for node {shown(v)}")
            out[v] = as_rational(thresholds[v], what=f"threshold of {shown(v)}")
    else:
        uniform = as_rational(thresholds, what="threshold")
        out = {v: uniform for v in nodes}
    for v, r in out.items():
        if not (0 < r < 1):
            raise GameInputError(
                f"threshold of {shown(v)} must lie strictly between 0 and 1, got {r}"
            )
    return out


class Game:
    """A graph plus per-player roles and thresholds.

    ``coordinating`` lists the players with the matching-seeking role; all
    remaining nodes anti-coordinate.  ``thresholds`` is a single rational or
    a per-node mapping, each value in the open interval (0, 1).
    """

    def __init__(self, graph: WeightedGraph, coordinating: Iterable, thresholds):
        self.graph = graph
        nodes = graph.nodes
        self.coord_mask = graph.mask_of(coordinating)
        coordinating = frozenset(graph.members_of(self.coord_mask))
        self.coordinating = coordinating
        self.anticoordinating = frozenset(nodes) - coordinating
        self.thresholds = _threshold_map(nodes, thresholds)

        n = len(nodes)
        self.n = n
        self.anti_mask = ((1 << n) - 1) ^ self.coord_mask if n else 0

        # Per-index tables.  One integer scale for the whole game clears every
        # edge weight and r_i * w_i: both ends of an edge carry one integer,
        # margins compare, and a sum divided by _scale is exact again.
        self._sign = [1 if self.coord_mask >> k & 1 else -1 for k in range(n)]
        rows = [
            tuple((graph.index(u), graph.weight(v, u)) for u in graph.neighbors(v))
            for v in nodes
        ]
        totals = [self.thresholds[v] * graph.degree(v) for v in nodes]
        self._scale = scale = math.lcm(
            *(t.denominator for t in totals),
            *(w.denominator for row in rows for _, w in row),
        )
        self._nbrw = [tuple((j, int(w * scale)) for j, w in row) for row in rows]
        self._thr_int = [int(t * scale) for t in totals]   # r_i * w_i, scaled

        self._coord_idx = tuple(k for k in range(n) if self._sign[k] > 0)
        self._anti_idx = tuple(k for k in range(n) if self._sign[k] < 0)

    # -- basic accessors -------------------------------------------------

    @property
    def nodes(self):
        return self.graph.nodes

    def replace_thresholds(self, thresholds) -> "Game":
        return Game(self.graph, self.coordinating, thresholds)

    # -- configuration helpers -------------------------------------------

    def mask_of_actions(self, actions: Mapping) -> int:
        """Bitmask from a node -> {0, 1} mapping covering every player."""
        mask = 0
        for k, v in enumerate(self.nodes):
            if v not in actions:
                raise GameInputError(f"configuration is missing player {shown(v)}")
            a = actions[v]
            if a not in (0, 1):
                raise GameInputError(f"action of {shown(v)} must be 0 or 1, got {shown(a)}")
            mask |= a << k
        return mask

    def mask_of_ones(self, ones: Iterable) -> int:
        """Bitmask with the listed players at 1 and everyone else at 0."""
        return self.graph.mask_of(ones)

    def actions_of(self, mask: int) -> dict:
        return {v: mask >> k & 1 for k, v in enumerate(self.nodes)}

    def parse_bits(self, text: str) -> int:
        """Configuration from a 0/1 string ordered by ascending node id."""
        if len(text) != self.n or any(c not in "01" for c in text):
            raise GameInputError(
                f"configuration string must be {self.n} characters of 0/1, got {shown(text)}"
            )
        mask = 0
        for k, c in enumerate(text):
            if c == "1":
                mask |= 1 << k
        return mask

    def format_bits(self, mask: int) -> str:
        return "".join("1" if mask >> k & 1 else "0" for k in range(self.n))

    # -- utilities and best responses --------------------------------------

    def _br_bits(self, k: int, x: int) -> int:
        """Best-response set of player index k as a 2-bit code.

        Bit 0 set means action 0 is a best response, bit 1 likewise for
        action 1.  Never 0: at least one action is always optimal.
        """
        s = 0
        for j, w in self._nbrw[k]:
            if x >> j & 1:
                s += w
        t = self._thr_int[k]
        if s > t:
            code = 2
        elif s < t:
            code = 1
        else:
            code = 3
        if self._sign[k] < 0 and code != 3:
            code ^= 3
        return code


def utility(game: Game, node, x: int) -> Fraction:
    """Exact utility of one player at a full configuration.

    Uses the reduced form: a player at action 1 earns
    ``sign * (1 - r) * (weight of 1-neighbors)``, at action 0
    ``sign * r * (weight of 0-neighbors)``.
    """
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
    return _BR_SETS[game._br_bits(game.graph.index(node), x)]


def best_response_by_definition(game: Game, node, x: int) -> frozenset:
    """Argmax over the two literal utility evaluations (oracle path)."""
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
    out = []
    for k in range(game.n):
        if not game._br_bits(k, x) >> (x >> k & 1) & 1:
            out.append(game.nodes[k])
    return out


def _restless(game: Game, x: int, players):
    """First of the player indices ``players`` whose current action in ``x``
    is not a best response, or None when all of them are at rest.
    """
    for k in players:
        if not game._br_bits(k, x) >> (x >> k & 1) & 1:
            return k
    return None


def is_nash(game: Game, x: int) -> bool:
    return _restless(game, x, range(game.n)) is None


def _check_cap(players: int) -> None:
    if players > ENUM_CAP:
        raise SizeCapError(
            f"exhaustive scan over {players} players exceeds the cap of {ENUM_CAP}"
        )


def _configurations(base: int, free: int):
    """Every configuration that agrees with ``base`` outside the ``free``
    bits, ascending.  ``base`` must have no bit inside ``free``.
    """
    sub = 0
    while True:
        yield base | sub
        sub = (sub - free) & free
        if not sub:
            return


def _equilibria(game: Game, base: int, free: int, players) -> list:
    """The configurations of one sub-cube (see ``_configurations``) at which
    none of ``players`` is restless, ascending.  The only exhaustive
    equilibrium scan; it is capped by the number of ``free`` bits.
    """
    _check_cap(free.bit_count())
    return [x for x in _configurations(base, free) if _restless(game, x, players) is None]


def enumerate_nash(game: Game) -> list:
    """All pure equilibria as masks, ascending."""
    return _equilibria(game, 0, (1 << game.n) - 1, range(game.n))


def consensus_equilibria(game: Game, action=None) -> list:
    """Equilibria whose coordinating players all play ``action``.

    ``action=None`` returns the union for both actions.  Only the
    anti-coordinating players are enumerated, with the coordinating side
    at consensus, so the scan is capped by their number alone.
    """
    if action not in (0, 1, None):
        raise GameInputError(f"action must be 0, 1 or None, got {action!r}")
    actions = (0, 1) if action is None else (action,)
    found = set()
    for a in actions:
        base = game.coord_mask if a == 1 else 0
        found.update(_equilibria(game, base, game.anti_mask, range(game.n)))
    return sorted(found)
