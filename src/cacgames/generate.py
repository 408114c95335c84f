"""Seeded random instance generation for property tests and the CLI."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import GameInputError
from .game import Game
from .graph import WeightedGraph
from .rationals import as_rational, shown


def random_threshold(rng: random.Random) -> Fraction:
    """A rational strictly inside (0, 1) with a small denominator."""
    q = rng.randint(2, 6)
    p = rng.randint(1, q - 1)
    return Fraction(p, q)


def random_game(
    seed,
    nodes: int,
    edge_prob: Fraction = Fraction(1, 2),
    coord_frac: Fraction = Fraction(1, 2),
    threshold="random",
    max_weight: int = 1,
) -> Game:
    """Build a random instance deterministically from a seed.

    ``seed`` may also be a ``random.Random`` to draw from an existing
    stream; a negative int is refused, since ``random.Random`` would seed
    with its absolute value.  Each possible edge appears with probability
    ``edge_prob`` and integer weight in 1..max_weight; each node
    coordinates with probability ``coord_frac``.  ``threshold`` is "random"
    (independent small rationals) or any exact rational applied uniformly.
    Probabilities are exact rationals compared against ``rng.random()``;
    they select, they do not enter the game's arithmetic.
    """
    if isinstance(seed, int) and seed < 0:
        raise GameInputError(f"seed must be non-negative, got {shown(seed)}")
    if nodes < 1:
        raise GameInputError("need at least one node")
    if max_weight < 1:
        raise GameInputError("max_weight must be at least 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    edge_prob = as_rational(edge_prob, what="edge_prob")
    coord_frac = as_rational(coord_frac, what="coord_frac")
    if not (0 <= edge_prob <= 1) or not (0 <= coord_frac <= 1):
        raise GameInputError("edge_prob and coord_frac must lie in [0, 1]")
    ids = range(1, nodes + 1)
    # Lazy, so the graph's node cap is checked before any pair is drawn.
    edges = (
        (u, v, rng.randint(1, max_weight))
        for u in ids
        for v in ids
        if u < v and rng.random() < edge_prob
    )
    graph = WeightedGraph(ids, edges)
    coordinating = {v for v in ids if rng.random() < coord_frac}
    if threshold == "random":
        threshold = {v: random_threshold(rng) for v in ids}
    return Game(graph, coordinating, threshold)
