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
(bit k is the action of ``graph.nodes[k]``).  A ``BRPath`` is a sequence of
single-player updates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import GameInputError
from .graph import WeightedGraph, ZERO
from .rationals import as_rational, shown

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
        if not 0 < r.numerator < r.denominator:  # 0 < r < 1; denominators are positive
            raise GameInputError(
                f"threshold of {shown(v)} must lie strictly between 0 and 1, got {shown(r)}"
            )
    return out


def _cleared(graph: WeightedGraph, nodes, thresholds) -> tuple:
    """(scale, rows, totals): each node's ``(neighbour index, weight)`` row,
    ascending, and its ``r * w`` from the node -> r mapping ``thresholds``,
    as integers on one scale that clears all of them.  The only place a
    rational is cleared: sums compare exactly, and a sum divided by
    ``scale`` is the exact rational again."""
    index, adj = graph._index, graph._adj
    # Weights first: on the lcm of their denominators a degree is an integer
    # sum, so ``r * w`` takes one Fraction per node.
    base = math.lcm(*{w.denominator for v in nodes for w in adj[v].values()})
    rows = [
        sorted((index[u], w.numerator * (base // w.denominator)) for u, w in adj[v].items())
        for v in nodes
    ]
    totals = [
        Fraction(r.numerator * sum(w for _, w in row), r.denominator * base)
        for r, row in zip([thresholds[v] for v in nodes], rows)
    ]
    scale = math.lcm(base, *(t.denominator for t in totals))
    up = scale // base
    rows = [tuple((j, w * up) for j, w in row) for row in rows]
    return scale, rows, [t.numerator * (scale // t.denominator) for t in totals]


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

        # Per-index tables on the game's one integer scale (see ``_cleared``).
        self._sign = sign = [1 if self.coord_mask >> k & 1 else -1 for k in range(n)]
        self._scale, self._nbrw, self._thr_int = _cleared(graph, nodes, self.thresholds)
        # Per player k, (j, sign_j * w_kj): what k at 1 adds to neighbour j's
        # margin, so also what k's switch moves j's gain by.
        self._nbrsw = [tuple((j, sign[j] * w) for j, w in row) for row in self._nbrw]

        self._coord_idx = tuple(k for k in range(n) if self._sign[k] > 0)
        self._anti_idx = tuple(k for k in range(n) if self._sign[k] < 0)
        # The full cube's literals and ``_stay``'s sets, filled on first use.
        self._cube = None
        self._stays = [None] * n

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
            _check_action(a, f"action of {shown(v)}")
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
        return format(mask, f"0{self.n}b")[::-1] if self.n else ""

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


def _check_config(game: Game, x, what: str) -> None:
    if not isinstance(x, int) or not 0 <= x < 1 << game.n:
        raise GameInputError(f"{what} configuration {shown(x)} is out of range")


def _check_action(value, what: str) -> None:
    if not isinstance(value, int) or value not in (0, 1):
        raise GameInputError(f"{what} must be 0 or 1, got {shown(value)}")


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


class BRPath(NamedTuple):
    """A validated-by-construction sequence of single-player updates.

    ``configs`` has one more entry than ``steps``; step k moves player
    ``steps[k][0]`` to action ``steps[k][1]`` between ``configs[k]`` and
    ``configs[k+1]``.  ``len`` counts steps, not fields, so the tuple
    helpers ``_make`` and ``_replace`` do not apply; build a new path.
    """

    steps: tuple
    configs: tuple

    @property
    def start(self) -> int:
        return self.configs[0]

    @property
    def end(self) -> int:
        return self.configs[-1]

    def __len__(self) -> int:
        return len(self.steps)
