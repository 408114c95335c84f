"""Sets of configurations as bitsets, and every exhaustive scan over them:
Nash and consensus enumeration, and the closures behind reachability with
their shortest witnesses.  ``_check_cap`` bounds them all.
"""

from __future__ import annotations

from collections.abc import Set
from typing import Iterable, NamedTuple, Optional

from .errors import GameInputError, SizeCapError
from .game import BRPath, Game, _check_action, _check_config

# Players an exhaustive configuration scan may enumerate (2^ENUM_CAP states).
ENUM_CAP = 20
# Configurations one closure per source may visit in all (2^n per source).
REACH_WORK_CAP = 1 << 24


def _check_cap(players: int, sources: int = 1) -> None:
    if players > ENUM_CAP:
        raise SizeCapError(
            f"exhaustive scan over {players} players exceeds the cap of {ENUM_CAP}"
        )
    if sources << players > REACH_WORK_CAP:
        raise SizeCapError(
            f"{sources} sources times 2^{players} configurations "
            f"exceed the cap of {REACH_WORK_CAP}"
        )


def _configurations(base: int, free: int, positions):
    """The configurations that agree with ``base`` outside the ``free`` bits
    and whose free bits, read in ascending order, spell each of the ascending
    ``positions``.  ``base`` must have no bit inside ``free``.
    """
    # Deposit each position into the free bits, one table per position byte.
    tables = []
    bits = [1 << j for j in range(free.bit_length()) if free >> j & 1]
    for c in range(0, len(bits), 8):
        table = [0]
        for bit in bits[c:c + 8]:
            table += [x | bit for x in table]
        tables.append(table)
    for p in positions:
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
    if action is not None:
        _check_action(action, "action")
    actions = (0, 1) if action is None else (action,)
    found = set()
    for a in actions:
        base = game.coord_mask if a == 1 else 0
        found.update(_equilibria(game, base, game.anti_mask, range(game.n)))
    return sorted(found)


# -- closures and reachability ------------------------------------------


def _closure(game: Game, sources: int, backward: bool) -> tuple:
    """Breadth-first closure of the configuration set ``sources`` (a bitset
    over the full cube) under best-response moves.

    Returns the closure as one bitset and one frontier bitset per layer:
    layer d holds the configurations d moves from the nearest source.  A
    move of player k lands in stay_k, the game's ``_stay`` set, and k's best
    response ignores k's own bit.  So with ``flip_k(S) = (S & ~lit_k) << 2^k
    | (S & lit_k) >> 2^k``, a backward layer (the moves into the frontier F)
    is ``OR_k flip_k(F & stay_k)`` and a forward one ``OR_k stay_k & flip_k(F)``.
    """
    table = [(lit, _stay(game, k)) for k, lit in _cube(game).items()]
    seen = frontier = sources
    layers = [frontier]
    while True:
        reached = 0
        for k, (lit, stay) in enumerate(table):
            f = frontier & stay if backward else frontier
            hi = f & lit
            moved = (f ^ hi) << (1 << k) | hi >> (1 << k)
            reached |= moved if backward else moved & stay
        frontier = reached & ~seen
        if not frontier:
            return seen, layers
        seen |= frontier
        layers.append(frontier)


def _walk(game: Game, layers, x: int, backward: bool) -> BRPath:
    """Shortest path between ``x`` and the closure's sources, read from the
    layers: from ``x`` down, each move is the lowest player index that drops
    one layer.  The path is returned in the direction of play.  A flip of
    bit k is a best-response move exactly when the configuration it arrives
    at (y from x backward, x from y forward) is in stay_k.
    """
    configs, steps = [x], []
    depth = next(d for d, layer in enumerate(layers) if layer >> x & 1)
    for layer in reversed(layers[:depth]):
        for k in range(game.n):
            y = x ^ (1 << k)
            after = y if backward else x
            if layer >> y & 1 and _stay(game, k) >> after & 1:
                break
        steps.append((game.nodes[k], after >> k & 1))
        x = y
        configs.append(x)
    if not backward:
        configs.reverse()
        steps.reverse()
    return BRPath(tuple(steps), tuple(configs))


def reachable_set(game: Game, x0: int) -> ConfigSet:
    """Forward closure of one configuration under best-response moves, as a
    read-only set."""
    return ConfigSet(_closure(game, _config_bits(game, (x0,), "source"), backward=False)[0])


class ReachabilityReport(NamedTuple):
    """Result of a reachability query.

    ``source`` is a configuration mask or "all".  For a single source,
    ``reachable_count`` is the size of its forward closure; for "all" it is
    the number of configurations from which the target can be reached.
    ``trap_states`` is a read-only set, ascending when iterated.
    ``witness`` is present, and the report is true, exactly when the target
    was reached.
    """

    source: object
    reached: bool
    reachable_count: int
    trap_states: ConfigSet
    witness: Optional[BRPath]

    def __bool__(self) -> bool:
        return self.reached


def reachability_from(game: Game, x0: int, target: Iterable) -> ReachabilityReport:
    """Forward closure of one configuration, checked against a target set.

    The witness ends at the lowest of the nearest targets and is read back
    from the closure's layers.  When the target cannot be reached, the whole
    forward closure is reported as trapped.
    """
    goal = _config_bits(game, target, "target")
    seen, layers = _closure(game, _config_bits(game, (x0,), "source"), backward=False)
    for layer in layers:
        hit = layer & goal
        if hit:
            witness = _walk(game, layers, (hit & -hit).bit_length() - 1, backward=False)
            return ReachabilityReport(x0, True, seen.bit_count(), ConfigSet(0), witness)
    return ReachabilityReport(x0, False, seen.bit_count(), ConfigSet(seen), None)


def global_reachability(game: Game, target: Iterable) -> ReachabilityReport:
    """Decide whether the target set is reachable from every configuration.

    Works backward from the target.  When every configuration is reached,
    the witness is the path from configuration 0 read from the same closure.
    """
    seen, layers = _closure(game, _config_bits(game, target, "target"), backward=True)
    traps = seen ^ ((1 << (1 << game.n)) - 1)
    if traps:
        return ReachabilityReport("all", False, seen.bit_count(), ConfigSet(traps), None)
    witness = _walk(game, layers, 0, backward=True)
    return ReachabilityReport("all", True, 1 << game.n, ConfigSet(0), witness)
