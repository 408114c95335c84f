"""The graph-level structural predicates, for library callers.

Each takes a graph, a member set and thresholds of its own and clears them
to integers with ``game._cleared``.  Then it runs what the game-level
predicates in ``structure`` run: the violator loop, or the partition scan
and its decision.  ``structure`` states the two predicates.  No command
compiles this module.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import GameInputError
from .game import _cleared, _threshold_map
from .graph import WeightedGraph
from .structure import (
    CohesivenessReport,
    IndecomposabilityReport,
    PartitionWitness,
    _check_mode,
    _cohesiveness,
    _decide,
    _PartitionScan,
)


def cohesiveness(graph: WeightedGraph, members: Iterable, thresholds) -> CohesivenessReport:
    """Check that each member keeps at least its threshold fraction of
    degree inside ``members``.  Isolated members pass vacuously (0 >= 0).
    The comparison is non-strict.
    """
    mask = graph.mask_of(members)
    member_list = graph.members_of(mask)
    th = _threshold_map(member_list, thresholds)
    return _cohesiveness(member_list, mask, *_cleared(graph, member_list, th))


def _scan(graph: WeightedGraph, members: Iterable, thresholds, mode: str) -> _PartitionScan:
    _check_mode(mode)
    members = graph.members_of(graph.mask_of(members))
    _, rows, totals = _cleared(graph, members, _threshold_map(members, thresholds))
    return _PartitionScan(graph, members, rows, totals, mode)


def _certifier(scan: _PartitionScan, mask0: int):
    """First member certifying the partition, or None if the partition
    is a decomposition.  ``mask0`` selects part0 over the sorted member
    list; the complement is part1.
    """
    for k in range(scan.m):
        in_part0 = mask0 >> k & 1
        cut = sum(w for j, w in scan.internal[k] if (mask0 >> j & 1) != in_part0)
        if cut > scan.budget[k][in_part0]:
            return k, ("part0" if in_part0 else "part1")
    return None


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
    scan = _scan(graph, members, thresholds, mode)
    p0 = frozenset(part0)
    p1 = frozenset(part1)
    if not p0 or not p1 or p0 | p1 != frozenset(scan.members) or p0 & p1:
        raise GameInputError("part0 and part1 must be non-empty and partition the members")
    mask0 = 0
    for k, v in enumerate(scan.members):
        if v in p0:
            mask0 |= 1 << k
    return scan.witness_at(mask0, _certifier(scan, mask0))


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
    return _decide(_scan(graph, members, thresholds, mode), mode)


def decomposition_witnesses(
    graph: WeightedGraph, members: Iterable, thresholds, mode: str = "strict"
) -> Iterator[PartitionWitness]:
    """Every partition that defeats indecomposability, in ascending bitmask
    order of the first part, as a lazy iterator.  The mode, the members and
    the thresholds are checked at the call; the search runs as it is
    iterated."""
    scan = _scan(graph, members, thresholds, mode)
    return (scan.witness_at(mask0, None) for mask0 in scan.decompositions())
