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
from collections.abc import Set
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
        if not 0 < r.numerator < r.denominator:  # 0 < r < 1; denominators are positive
            try:
                got = str(r)  # cut like ``shown``, but not quoted
            except ValueError:  # a part over Python's digit limit
                got = "a rational with too many digits"
            raise GameInputError(
                f"threshold of {shown(v)} must lie strictly between 0 and 1, "
                f"got {got if len(got) <= 40 else got[:40] + '...'}"
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


def is_nash(game: Game, x: int) -> bool:
    return all(game._br_bits(k, x) >> (x >> k & 1) & 1 for k in range(game.n))


def _check_cap(players: int) -> None:
    if players > ENUM_CAP:
        raise SizeCapError(
            f"exhaustive scan over {players} players exceeds the cap of {ENUM_CAP}"
        )


def _configurations(base: int, free: int, positions=None):
    """The configurations that agree with ``base`` outside the ``free`` bits
    and whose free bits, read in ascending order, spell each of the ascending
    ``positions`` (default: all, so the whole sub-cube, ascending).  ``base``
    must have no bit inside ``free``.
    """
    # Deposit each position into the free bits, one table per position byte.
    tables = []
    bits = [1 << j for j in range(free.bit_length()) if free >> j & 1]
    for c in range(0, len(bits), 8):
        table = [0]
        for bit in bits[c:c + 8]:
            table += [x | bit for x in table]
        tables.append(table)
    for p in range(1 << len(bits)) if positions is None else positions:
        x = base
        for c, table in enumerate(tables):
            x |= table[p >> 8 * c & 255]
        yield x


# -- configuration sets as bitsets ----------------------------------------
#
# A set of configurations of one sub-cube (see ``_configurations``) is an
# int with one bit per configuration: bit p stands for the configuration
# whose free bits, read in ascending order, spell p.  On the full cube bit p
# is configuration p.  Every exhaustive scan works set-at-a-time on these.


def _literals(free: int) -> dict:
    """Free bit j -> the set of the sub-cube's configurations with bit j at 1.

    Every scan makes its first cube-sized set here, so this checks the cap.
    Each literal is one block of its periodic pattern, doubled until it
    spans the cube.
    """
    _check_cap(free.bit_count())
    width = 1 << free.bit_count()
    out, half = {}, 1
    for j in range(free.bit_length()):
        if free >> j & 1:
            pattern, span = ((1 << half) - 1) << half, half << 1
            while span < width:
                pattern |= pattern << span
                span <<= 1
            out[j] = pattern
            half <<= 1
    return out


def _best_response_sets(game: Game, k: int, base: int, literals: dict) -> tuple:
    """(ones, zeros): the sub-cube's configurations at which action 1, and
    at which action 0, is a best response of player index k.

    ``literals`` comes from ``_literals(free)``.  The configurations are
    grouped by their integer 1-neighbour weight, one free neighbour at a
    time, and each group is compared with ``r_k * w_k``; a tie lands in
    both sets.  Weights are positive, so a group already above the
    threshold, or below it even with every remaining free neighbour at 1,
    is settled early.
    """
    s0, free_nbrs = 0, []
    for j, w in game._nbrw[k]:
        if j in literals:
            free_nbrs.append((literals[j], w))
        elif base >> j & 1:
            s0 += w
    t = game._thr_int[k]
    rest = sum(w for _, w in free_nbrs)
    above = below = 0
    groups = {s0: (1 << (1 << len(literals))) - 1}
    for lit, w in free_nbrs:
        split = {}
        for s, group in groups.items():
            if s > t:
                above |= group
            elif s + rest < t:
                below |= group
            else:
                hi = group & lit
                if group ^ hi:
                    split[s] = split.get(s, 0) | group ^ hi
                if hi:
                    split[s + w] = split.get(s + w, 0) | hi
        groups = split
        rest -= w
    tie = 0
    for s, group in groups.items():
        if s > t:
            above |= group
        elif s < t:
            below |= group
        else:
            tie = group
    ones, zeros = above | tie, below | tie
    return (ones, zeros) if game._sign[k] > 0 else (zeros, ones)


def _own_best(game: Game, k: int, base: int, literals: dict) -> int:
    """The sub-cube's configurations at which player index k's own action is
    a best response."""
    ones, zeros = _best_response_sets(game, k, base, literals)
    if k in literals:
        return ones & literals[k] | zeros & ~literals[k]
    return ones if base >> k & 1 else zeros


def _cube(game: Game) -> dict:
    """The full cube's literals, made once per game."""
    if game._cube is None:
        game._cube = _literals((1 << game.n) - 1)
    return game._cube


def _stay(game: Game, k: int) -> int:
    """The full cube's configurations x at which x's own bit k is a best
    response of player index k.  Nash enumeration and both closures read it,
    so it is built at most once per game, on first use."""
    if game._stays[k] is None:
        game._stays[k] = _own_best(game, k, 0, _cube(game))
    return game._stays[k]


_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))


def _check_config(game: Game, x, what: str) -> None:
    if not isinstance(x, int) or not 0 <= x < 1 << game.n:
        raise GameInputError(f"{what} configuration {x!r} is out of range")


def _config_bits(game: Game, configs: Iterable, what: str) -> int:
    """The checked, non-empty ``configs`` as a bitset over the full cube; the
    cap is checked before the set is allocated."""
    _check_cap(game.n)
    data = bytearray(((1 << game.n) + 7) >> 3)
    for x in configs:
        _check_config(game, x, what)
        data[x >> 3] |= 1 << (x & 7)
    bits = int.from_bytes(data, "little")
    if not bits:
        raise GameInputError(f"{what} set must be non-empty")
    return bits


def _positions(data: bytes):
    """The set bits of the little-endian bitset ``data``, ascending, read one
    byte at a time (shifting a big int once per member would be quadratic)."""
    for i, byte in enumerate(data):
        if byte:
            i <<= 3
            for b in _BYTE_BITS[byte]:
                yield i + b


class ConfigSet(Set):
    """A read-only set of configurations held as the bytes of one full-cube
    bitset, so a membership test reads one byte.

    Compares and hashes equal to the ``frozenset`` of the same members;
    iteration is ascending, and set operators return a ``frozenset``.
    """

    __slots__ = ("_data", "_len")

    def __init__(self, bits: int):
        self._data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
        self._len = bits.bit_count()

    def __len__(self) -> int:
        return self._len

    def __contains__(self, x) -> bool:
        if not isinstance(x, int) or not 0 <= x >> 3 < len(self._data):
            return False
        return bool(self._data[x >> 3] >> (x & 7) & 1)

    def __iter__(self):
        return _positions(self._data)

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    __hash__ = Set._hash


def _equilibria(game: Game, base: int, free: int, players) -> list:
    """The configurations of one sub-cube (see ``_configurations``) at which
    every one of ``players`` plays a best response, ascending.  The only
    exhaustive equilibrium scan; ``_literals`` caps it by the number of
    ``free`` bits.  On the full cube it reads the game's ``_stay`` sets.
    """
    full = free == (1 << game.n) - 1
    literals = _cube(game) if full else _literals(free)
    still = (1 << (1 << len(literals))) - 1
    for k in players:
        still &= _stay(game, k) if full else _own_best(game, k, base, literals)
        if not still:
            return []
    return list(_configurations(base, free, ConfigSet(still)))


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
