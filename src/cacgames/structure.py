"""Structural predicates: cohesiveness and indecomposability.

Two graph-level predicates drive the whole analysis:

* cohesiveness: every member of a subset keeps at least an ``r_i`` fraction
  of its degree inside the subset;
* indecomposability: no labeled split of the coordinating set leaves both
  labeled halves (each together with the anti-coordinating side) cohesive
  enough to be self-supporting.

The restricted games obtained by freezing one side live in ``restricted``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import GameInputError, SizeCapError
from .game import Game, _check_action, _cleared, _threshold_map
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


def _check_mode(mode) -> None:
    if mode not in ("strict", "weak"):
        raise GameInputError(f"mode must be 'strict' or 'weak', got {shown(mode)}")


class _PartitionScan:
    """Shared precomputation for deciding splits of one member set.

    A member is satisfied in its part when its cut (internal weight into the
    other part) stays within a budget: ``r * w`` in part0 and ``(1 - r) * w``
    in part1, inclusive in strict mode and exclusive in weak mode.  A split
    is a decomposition when every member is satisfied.
    """

    def __init__(self, graph: WeightedGraph, members: Iterable, thresholds, mode: str):
        _check_mode(mode)
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
    _check_action(toward, "toward")
    r = game.thresholds
    th = r if toward == 1 else {v: 1 - r[v] for v in game.coordinating}
    return cohesiveness(game.graph, game.coordinating, th)


def game_indecomposability(game: Game, mode: str = "strict") -> IndecomposabilityReport:
    return indecomposability(game.graph, game.coordinating, game.thresholds, mode=mode)
