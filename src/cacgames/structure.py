"""Structural predicates and restricted-game machinery.

Two graph-level predicates drive the whole analysis:

* cohesiveness: every member of a subset keeps at least an ``r_i`` fraction
  of its degree inside the subset;
* indecomposability: no labeled split of the coordinating set leaves both
  labeled halves (each together with the anti-coordinating side) cohesive
  enough to be self-supporting.

On top of these sit the restricted games obtained by freezing one side:
their effective thresholds, the non-strategic remainder term, and the
exact potential functions that make one-side dynamics monotone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import DegenerateNodeError, GameInputError, SizeCapError
from .game import Game, _cleared, _equilibria, _threshold_map
from .game import utility as _full_utility
from .graph import WeightedGraph
from .rationals import shown

# Search nodes the partition search may visit before it gives up with
# SizeCapError.  It covers the whole tree over 20 members (2^21 - 2 nodes) and
# a hard seeded 38-member instance (1.4M), and is reached in seconds.
PARTITION_NODE_CAP = 1 << 21


class CohesivenessReport(NamedTuple):
    """Outcome of a cohesiveness check.

    ``violators`` holds (node, inside weight, required weight) triples; the
    predicate holds exactly when it is empty.
    """

    holds: bool
    violators: tuple

    def __bool__(self) -> bool:
        return self.holds


def cohesiveness(graph: WeightedGraph, members: Iterable, thresholds) -> CohesivenessReport:
    """Check that each member keeps at least its threshold fraction of
    degree inside ``members``.  Isolated members pass vacuously (0 >= 0).
    The comparison is non-strict.
    """
    mask = graph.mask_of(members)
    member_list = graph.members_of(mask)
    th = _threshold_map(member_list, thresholds)
    scale, rows, totals = _cleared(graph, member_list, th)
    violators = []
    for v, row, required in zip(member_list, rows, totals):
        inside = sum(w for j, w in row if mask >> j & 1)
        if inside < required:
            violators.append((v, Fraction(inside, scale), Fraction(required, scale)))
    return CohesivenessReport(holds=not violators, violators=tuple(violators))


class PartitionWitness(NamedTuple):
    """A labeled split of the coordinating set.

    With ``certifying_player`` set, that player violates the cohesiveness of
    its own part (``condition`` names the part, "part1" or "part0") and so
    certifies the partition.  With no certifying player the partition is a
    decomposition: both labeled halves are self-supporting.
    """

    part0: frozenset
    part1: frozenset
    certifying_player: object = None
    condition: Optional[str] = None


class IndecomposabilityReport(NamedTuple):
    """Outcome of an indecomposability check.

    ``partitions_checked`` counts the search nodes visited: every member
    assignment the pruned search tried, including those it cut off.  It is
    0 when fewer than two members leave nothing to split.
    """

    holds: bool
    mode: str
    witness: Optional[PartitionWitness]
    partitions_checked: int

    def __bool__(self) -> bool:
        return self.holds


class _PartitionScan:
    """Shared precomputation for deciding splits of one member set.

    A member is satisfied in its part when its cut (internal weight into the
    other part) stays within a budget: ``r * w`` in part0 and ``(1 - r) * w``
    in part1, inclusive in strict mode and exclusive in weak mode.  A split
    is a decomposition when every member is satisfied.
    """

    def __init__(self, graph: WeightedGraph, members: Iterable, thresholds, mode: str):
        if mode not in ("strict", "weak"):
            raise GameInputError(f"mode must be 'strict' or 'weak', got {mode!r}")
        self.members = graph.members_of(graph.mask_of(members))
        th = _threshold_map(self.members, thresholds)
        m = len(self.members)
        _, rows, totals = _cleared(graph, self.members, th)
        pos = {graph._index[v]: k for k, v in enumerate(self.members)}
        # Per member, on ``_cleared``'s scale: weights to other members, by
        # member position, and the largest cut allowed in part1 and in part0.
        # Weak mode lowers each budget by one: on integers, ``cut >= b`` is
        # ``cut > b - 1``.
        slack = 0 if mode == "strict" else 1
        self.internal = [tuple((pos[j], w) for j, w in row if j in pos) for row in rows]
        self.budget = [
            (sum(w for _, w in row) - t - slack, t - slack) for row, t in zip(rows, totals)
        ]
        # Edges to higher-indexed members: the search assigns from the top bit.
        self.above = [tuple((j, w) for j, w in self.internal[k] if j > k) for k in range(m)]
        self.m = m
        self.nodes_visited = 0

    def certifier(self, mask0: int):
        """First member certifying the partition, or None if the partition
        is a decomposition.  ``mask0`` selects part0 over the sorted member
        list; the complement is part1.
        """
        for k in range(self.m):
            in_part0 = mask0 >> k & 1
            cut = sum(w for j, w in self.internal[k] if (mask0 >> j & 1) != in_part0)
            if cut > self.budget[k][in_part0]:
                return k, ("part0" if in_part0 else "part1")
        return None

    def decompositions(self) -> Iterator[int]:
        """Yield the ``mask0`` of every decomposition, ascending.

        Depth-first over member assignments, top bit first, part1 (bit 0)
        before part0, so leaves come in ascending ``mask0`` order.  A cut
        only grows as more members are assigned, so a branch is pruned as
        soon as one assigned member is over its budget.  Every assignment
        tried counts in ``nodes_visited``; past ``PARTITION_NODE_CAP`` of
        them the search raises SizeCapError.
        """
        cut = [0] * self.m
        full = (1 << self.m) - 1

        def search(k: int, mask0: int):
            if k < 0:
                if 0 < mask0 < full:
                    yield mask0
                return
            for bit in (0, 1):
                self.nodes_visited += 1
                if self.nodes_visited > PARTITION_NODE_CAP:
                    raise SizeCapError(
                        f"partition search over {self.m} members passed "
                        f"{PARTITION_NODE_CAP} nodes without a verdict"
                    )
                crossed = [(j, w) for j, w in self.above[k] if (mask0 >> j & 1) != bit]
                for j, w in crossed:
                    cut[k] += w
                    cut[j] += w
                if cut[k] <= self.budget[k][bit] and all(
                    cut[j] <= self.budget[j][1 - bit] for j, _ in crossed
                ):
                    yield from search(k - 1, mask0 | bit << k)
                cut[k] = 0
                for j, w in crossed:
                    cut[j] -= w

        return search(self.m - 1, 0)

    def witness_at(self, mask0: int, certified) -> PartitionWitness:
        part0 = frozenset(self.members[k] for k in range(self.m) if mask0 >> k & 1)
        part1 = frozenset(self.members) - part0
        if certified is None:
            return PartitionWitness(part0, part1)
        k, condition = certified
        return PartitionWitness(part0, part1, self.members[k], condition)


def partition_certificate(
    graph: WeightedGraph,
    members: Iterable,
    thresholds,
    part0: Iterable,
    part1: Iterable,
    mode: str = "strict",
) -> PartitionWitness:
    """Evaluate one labeled partition.

    Returns a witness carrying the certifying player when the partition is
    certified, or one with ``certifying_player=None`` when the partition is
    a decomposition (both halves self-supporting).
    """
    scan = _PartitionScan(graph, members, thresholds, mode)
    p0 = frozenset(part0)
    p1 = frozenset(part1)
    if not p0 or not p1 or p0 | p1 != frozenset(scan.members) or p0 & p1:
        raise GameInputError("part0 and part1 must be non-empty and partition the members")
    mask0 = 0
    for k, v in enumerate(scan.members):
        if v in p0:
            mask0 |= 1 << k
    return scan.witness_at(mask0, scan.certifier(mask0))


def indecomposability(
    graph: WeightedGraph,
    members: Iterable,
    thresholds,
    mode: str = "strict",
) -> IndecomposabilityReport:
    """Decide indecomposability by a pruned search over labeled partitions.

    The search meets decompositions in ascending bitmask order of the first
    part and stops at the first one; that partition is reported as the
    witness, the same one an exhaustive ascending scan would find.
    With fewer than two members no partition exists, so the predicate holds
    trivially.  A search that passes ``PARTITION_NODE_CAP`` nodes raises
    SizeCapError.
    """
    scan = _PartitionScan(graph, members, thresholds, mode)
    if scan.m < 2:
        return IndecomposabilityReport(True, mode, None, 0)
    first = next(scan.decompositions(), None)
    witness = None if first is None else scan.witness_at(first, None)
    return IndecomposabilityReport(first is None, mode, witness, scan.nodes_visited)


def decomposition_witnesses(
    graph: WeightedGraph, members: Iterable, thresholds, mode: str = "strict"
) -> Iterator[PartitionWitness]:
    """Yield every partition that defeats indecomposability, in ascending
    bitmask order of the first part."""
    scan = _PartitionScan(graph, members, thresholds, mode)
    for mask0 in scan.decompositions():
        yield scan.witness_at(mask0, None)


def game_cohesiveness(game: Game, toward: int = 1) -> CohesivenessReport:
    """Cohesiveness of the coordinating set in the game's own thresholds.

    ``toward=1`` uses r_i (supports all-ones consensus), ``toward=0`` the
    complementary 1 - r_i (supports all-zeros consensus).
    """
    members = sorted(game.coordinating)
    th = {v: game.thresholds[v] if toward == 1 else 1 - game.thresholds[v] for v in members}
    return cohesiveness(game.graph, members, th)


def game_indecomposability(game: Game, mode: str = "strict") -> IndecomposabilityReport:
    members = sorted(game.coordinating)
    th = {v: game.thresholds[v] for v in members}
    return indecomposability(game.graph, members, th, mode=mode)


# -- restricted games ---------------------------------------------------


class RestrictedGame:
    """One side of a game with the other side frozen.

    ``side`` is "coordinating" or "anticoordinating" and names the moving
    players; ``fixed`` is a full configuration mask of which only the
    opposite side's bits are read.
    """

    __slots__ = ("game", "side", "fixed", "moving", "moving_mask", "_movers", "_sign")

    def __init__(self, game: Game, side: str, fixed: int) -> None:
        if side == "coordinating":
            self.moving, self.moving_mask = game.coordinating, game.coord_mask
            self._movers, self._sign = game._coord_idx, 1
        elif side == "anticoordinating":
            self.moving, self.moving_mask = game.anticoordinating, game.anti_mask
            self._movers, self._sign = game._anti_idx, -1
        else:
            raise GameInputError(f"side must name a role, got {side!r}")
        self.game, self.side, self.fixed = game, side, fixed

    def merged(self, x: int) -> int:
        """Full configuration: moving bits from ``x``, the rest from ``fixed``."""
        mm = self.moving_mask
        return (x & mm) | (self.fixed & ~mm)

    def _moving_index(self, node) -> int:
        k = self.game.graph.index(node)
        if not self.moving_mask >> k & 1:
            raise GameInputError(f"{shown(node)} is not on the {self.side} side")
        return k

    def modified_threshold(self, node) -> Fraction:
        """Effective threshold of a moving player once the frozen side's
        actions are absorbed.

        May leave (0, 1); it is never clamped.  Undefined (degenerate) when
        the player has no neighbors on its own side.
        """
        inside, pull = _own_side(self.game, self._moving_index(node), self.fixed)
        if inside == 0:
            raise DegenerateNodeError(
                f"{shown(node)} has no same-side neighbors; its effective threshold is undefined"
            )
        return Fraction(pull, inside)

    def utility(self, node, x: int) -> Fraction:
        """Utility of a moving player at the merged configuration."""
        self._moving_index(node)
        return _full_utility(self.game, node, self.merged(x))

    def nonstrategic_term(self, node, x: int) -> Fraction:
        """The part of a coordinating mover's utility that its own action
        cannot influence.  Only defined on the coordinating side and for
        players with same-side neighbors.
        """
        if self.side != "coordinating":
            raise GameInputError("the non-strategic term is defined for the coordinating side")
        k = self._moving_index(node)
        game = self.game
        r = game.thresholds[node]
        r_eff = self.modified_threshold(node)
        merged = self.merged(x)
        own0 = out0 = 0
        for j, w in game._nbrw[k]:
            if not merged >> j & 1:
                if game._sign[j] > 0:
                    own0 += w
                else:
                    out0 += w
        return ((r - r_eff) * own0 + r * out0) / game._scale

    def potential(self, x: int) -> Fraction:
        return _side_potential(self.game, self._movers, self._sign, self.merged(x))

    def nash(self) -> list:
        """Exact equilibria of the one-side game, as full masks (frozen bits
        included), ascending.  Capped by the number of moving players.
        """
        mm = self.moving_mask
        return _equilibria(self.game, self.fixed & ~mm, mm, self._movers)


def _own_side(game: Game, k: int, x: int) -> tuple:
    """Own-side degree ``W_in`` of player index k and its pull
    ``r_k * w_k - (opposite-side weight playing 1 in x)``.

    Both are integers on the game's scale.  The effective threshold is
    ``pull / W_in``; only the opposite side's bits of ``x`` are read.
    """
    own = game._sign[k]
    inside = out1 = 0
    for j, w in game._nbrw[k]:
        if game._sign[j] == own:
            inside += w
        elif x >> j & 1:
            out1 += w
    return inside, game._thr_int[k] - out1


def _side_potential(game: Game, side: tuple, sign: int, x: int) -> Fraction:
    """Exact potential of the players ``side`` (all of role ``sign``) at
    frozen opposite actions.

    Unilateral flips on the side change it by exactly their utility
    difference.  Each matched internal edge counts half its weight: a flip
    of one endpoint then shifts the pair term by half the difference of the
    mover's matched and unmatched internal weight, which together with the
    linear term ``(r_eff - 1/2) * W_in`` of each player at 1 reproduces the
    utility difference exactly.  That term is summed as ``2 * pull - W_in``
    on the game's scale, so it stays defined when ``W_in`` is 0.
    Anti-coordinating players (``sign`` -1) gain from mismatches, so their
    side's form is negated.
    """
    matched = linear = 0
    for k in side:
        xk = x >> k & 1
        for j, w in game._nbrw[k]:
            if j > k and game._sign[j] == sign and (x >> j & 1) == xk:
                matched += w
        if xk:
            inside, pull = _own_side(game, k, x)
            linear += 2 * pull - inside
    return Fraction(sign * (matched - linear), 2 * game._scale)


def coordination_potential(game: Game, x: int) -> Fraction:
    """Exact potential of the coordinating side at frozen opposite actions."""
    return _side_potential(game, game._coord_idx, 1, x)


def anticoordination_potential(game: Game, x: int) -> Fraction:
    """Exact potential of the anti-coordinating side at frozen opposite
    actions."""
    return _side_potential(game, game._anti_idx, -1, x)
