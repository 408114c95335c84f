from fractions import Fraction

import pytest

import cacgames as cg
from cacgames import Game, WeightedGraph


@pytest.fixture(scope="session")
def games():
    """All built-in example games, keyed by fixture name."""
    return {name: cg.fixture(name) for name in cg.fixture_names()}


def _knife_edge_game(rng, n):
    """Random game whose weights are multiples of the threshold
    denominators, so ``r_i * w_i`` often equals an attainable neighbor sum."""
    q = rng.choice((2, 3, 4, 5))
    ids = range(1, n + 1)
    edges = [
        (u, v, q * rng.randint(1, 3))
        for u in ids
        for v in ids
        if u < v and rng.random() < 0.6
    ]
    thresholds = {v: Fraction(rng.randint(1, q - 1), q) for v in ids}
    coordinating = [v for v in ids if rng.random() < 0.8]
    return Game(WeightedGraph(ids, edges), coordinating, thresholds)


@pytest.fixture(scope="session")
def knife_edge_game():
    """Factory ``(rng, n) -> Game`` for games biased toward exact ties."""
    return _knife_edge_game
