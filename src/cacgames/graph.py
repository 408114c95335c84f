"""Weighted undirected graphs with exact rational edge weights.

Node subsets and binary configurations are represented as integer bitmasks
over the graph's sorted node order (bit k belongs to ``nodes[k]``), which
caps graphs at 64 nodes.  All arithmetic is done with ``Fraction``; the
graph never stores or returns floats.

This module owns every check on node ids and edges: duplicate or
unhashable ids, the node cap, unknown endpoints, self-loops, exact positive
weights, and repeated or conflicting listings of a pair.  A diagnostic
names the offending input entry by position, ``nodes[k]`` or ``edges[k]``,
so for a game file it points at the file's entry.  Member lists are
checked by ``mask_of``.  Thresholds are checked by ``game._threshold_map``;
``gamefile`` checks only the file format.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable, Tuple

from .errors import GameInputError
from .rationals import as_rational, shown

NODE_CAP = 64

ZERO = Fraction(0)


class WeightedGraph:
    """Finite undirected graph with positive rational edge weights.

    Node ids must be hashable and mutually orderable (all ints or all
    strings).  Self-loops, duplicate edge listings, and conflicting weights
    for the same pair are rejected at construction.  Instances are treated
    as immutable once built.
    """

    def __init__(self, nodes: Iterable, edges: Iterable[tuple] = ()):
        node_list = list(islice(nodes, NODE_CAP + 1))
        if len(node_list) > NODE_CAP:
            raise GameInputError(f"graph has more nodes than the hard cap of {NODE_CAP}")
        seen = set()
        for k, v in enumerate(node_list):
            try:
                repeated = v in seen
            except TypeError:
                raise GameInputError(f"nodes[{k}]: unhashable node id {shown(v)}") from None
            if repeated:
                raise GameInputError(f"nodes[{k}]: duplicate node id {shown(v)}")
            seen.add(v)
        try:
            self._nodes: Tuple = tuple(sorted(node_list))
        except TypeError:
            raise GameInputError("node ids must be mutually orderable") from None
        self._index = {v: k for k, v in enumerate(self._nodes)}
        self._adj: dict = {v: {} for v in self._nodes}
        for k, entry in enumerate(edges):
            self._add_edge(f"edges[{k}]", entry)

    def _add_edge(self, where: str, entry) -> None:
        try:
            u, v, w = entry
        except (TypeError, ValueError):
            raise GameInputError(f"{where}: expected (u, v, weight)") from None
        for end in (u, v):
            if end not in self:
                raise GameInputError(f"{where}: unknown node {shown(end)}")
        if u == v:
            raise GameInputError(f"{where}: self-loop at {shown(u)}")
        weight = as_rational(w, what=f"{where}: weight")
        if weight.numerator <= 0:
            got = (f"zero weight {shown(w)} (omit non-edges)" if weight.numerator == 0
                   else f"negative weight {shown(w)}")
            raise GameInputError(f"{where}: weight must be positive, got {got}")
        listed = self._adj[u].get(v)
        if listed is not None:
            pair = (u, v) if self._index[u] < self._index[v] else (v, u)
            if listed != weight:
                raise GameInputError(
                    f"{where}: asymmetric weights for edge {shown(pair)}: "
                    f"{shown(listed)} vs {shown(weight)}"
                )
            raise GameInputError(f"{where}: duplicate edge {shown(pair)}")
        self._adj[u][v] = weight
        self._adj[v][u] = weight

    # -- basic queries -------------------------------------------------

    @property
    def nodes(self) -> Tuple:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node) -> bool:
        try:
            return node in self._index
        except TypeError:
            return False

    def index(self, node) -> int:
        """Position of a node in the sorted node order (its mask bit)."""
        try:
            return self._index[node]
        except (KeyError, TypeError):
            raise GameInputError(f"unknown node {shown(node)}") from None

    def neighbors(self, node) -> Tuple:
        self.index(node)
        return tuple(sorted(self._adj[node]))

    def weight(self, u, v) -> Fraction:
        """Edge weight, or 0 when {u, v} is not an edge."""
        self.index(u)
        self.index(v)
        return self._adj[u].get(v, ZERO)

    def edges(self) -> list:
        """All edges as (u, v, weight) with u < v, sorted."""
        out = []
        for u in self._nodes:
            for v, w in self._adj[u].items():
                if u < v:
                    out.append((u, v, w))
        out.sort(key=lambda e: (e[0], e[1]))
        return out

    # -- degrees -------------------------------------------------------

    def degree(self, node) -> Fraction:
        """Total weight of edges at a node."""
        self.index(node)
        return sum(self._adj[node].values(), ZERO)

    def restricted_degree(self, node, members: Iterable) -> Fraction:
        """Total edge weight from ``node`` into the given subset."""
        self.index(node)
        mask = self.mask_of(members)
        return sum(
            (w for u, w in self._adj[node].items() if mask >> self._index[u] & 1), ZERO
        )

    # -- subsets -------------------------------------------------------

    def mask_of(self, members: Iterable) -> int:
        """Bitmask of a node subset; every member must be a node."""
        mask = 0
        for v in members:
            mask |= 1 << self.index(v)
        return mask

    def members_of(self, mask: int) -> tuple:
        """Nodes selected by a bitmask, in ascending order."""
        return tuple(v for k, v in enumerate(self._nodes) if mask >> k & 1)
