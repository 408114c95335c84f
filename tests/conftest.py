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
def weak_only_game():
    """Cohesive and weakly, not strictly, indecomposable.  The weak-mode
    path construction from 110000 revisits a configuration, although a
    consensus equilibrium is reachable from there."""
    edges = [(1, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 6), (4, 6), (5, 6)]
    thresholds = {
        1: Fraction(2, 3), 2: Fraction(1, 5), 3: Fraction(1, 6),
        4: Fraction(2, 3), 5: Fraction(1, 2), 6: Fraction(3, 4),
    }
    graph = WeightedGraph(range(1, 7), [(u, v, 1) for u, v in edges])
    return Game(graph, [1, 2, 4, 5, 6], thresholds)


@pytest.fixture(scope="session")
def knife_edge_game():
    """Factory ``(rng, n) -> Game`` for games biased toward exact ties."""
    return _knife_edge_game


@pytest.fixture
def full_cube_builds(monkeypatch):
    """The player index of every full-cube best-response build, in call
    order: the builder's calls whose literals cover all of the game's
    players.  Only ``cacgames.game`` calls the builder, so it is patched
    there."""
    calls = []
    builder = cg.game._best_response_sets

    def counted(game, k, base, literals):
        if len(literals) == game.n:
            calls.append(k)
        return builder(game, k, base, literals)

    monkeypatch.setattr(cg.game, "_best_response_sets", counted)
    return calls
