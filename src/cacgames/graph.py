"""Weighted undirected graphs with exact rational edge weights.

Node subsets and binary configurations are represented as integer bitmasks
over the graph's sorted node order (bit k belongs to ``nodes[k]``), which
caps graphs at 64 nodes.  All arithmetic is done with ``Fraction``; the
graph never stores or returns floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple

from .errors import GameInputError
from .rationals import as_rational

NODE_CAP = 64

ZERO = Fraction(0)


class WeightedGraph:
    """Finite undirected graph with positive rational edge weights.

    Node ids must be mutually orderable (all ints or all strings).
    Self-loops, duplicate edge listings, and conflicting weights for the
    same pair are rejected at construction.  Instances are treated as
    immutable once built.
    """

    def __init__(self, nodes: Iterable, edges: Iterable[tuple] = ()):
        node_list = list(nodes)
        if len(set(node_list)) != len(node_list):
            raise GameInputError("duplicate node ids")
        if len(node_list) > NODE_CAP:
            raise GameInputError(
                f"{len(node_list)} nodes exceeds the hard cap of {NODE_CAP}"
            )
        try:
            self._nodes: Tuple = tuple(sorted(node_list))
        except TypeError:
            raise GameInputError("node ids must be mutually orderable") from None
        self._index = {v: k for k, v in enumerate(self._nodes)}
        self._adj: dict = {v: {} for v in self._nodes}
        for entry in edges:
            try:
                u, v, w = entry
            except (TypeError, ValueError):
                raise GameInputError(f"edge {entry!r}: expected (u, v, weight)") from None
            self._add_edge(u, v, w)

    def _add_edge(self, u, v, w) -> None:
        if u not in self._index or v not in self._index:
            missing = u if u not in self._index else v
            raise GameInputError(f"edge ({u!r}, {v!r}): unknown node {missing!r}")
        if u == v:
            raise GameInputError(f"edge ({u!r}, {v!r}): self-loop")
        weight = as_rational(w, what=f"edge ({u!r}, {v!r}) weight")
        if weight < 0:
            raise GameInputError(f"edge ({u!r}, {v!r}): negative weight {w!r}")
        if weight == 0:
            raise GameInputError(f"edge ({u!r}, {v!r}): zero weight (omit non-edges)")
        if v in self._adj[u]:
            if self._adj[u][v] != weight:
                raise GameInputError(
                    f"edge ({u!r}, {v!r}): asymmetric weights "
                    f"{self._adj[u][v]} vs {weight}"
                )
            raise GameInputError(f"edge ({u!r}, {v!r}): duplicate listing")
        self._adj[u][v] = weight
        self._adj[v][u] = weight

    # -- basic queries -------------------------------------------------

    @property
    def nodes(self) -> Tuple:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node) -> bool:
        return node in self._index

    def index(self, node) -> int:
        """Position of a node in the sorted node order (its mask bit)."""
        try:
            return self._index[node]
        except KeyError:
            raise GameInputError(f"unknown node {node!r}") from None

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
        member_set = self._validated(members)
        row = self._adj[node]
        return sum((row[v] for v in row if v in member_set), ZERO)

    # -- subsets -------------------------------------------------------

    def mask_of(self, members: Iterable) -> int:
        """Bitmask of a node subset."""
        mask = 0
        for v in members:
            mask |= 1 << self.index(v)
        return mask

    def members_of(self, mask: int) -> tuple:
        """Nodes selected by a bitmask, in ascending order."""
        return tuple(v for k, v in enumerate(self._nodes) if mask >> k & 1)

    def _validated(self, members: Iterable) -> frozenset:
        member_set = frozenset(members)
        for v in member_set:
            self.index(v)
        return member_set
