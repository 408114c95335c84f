"""Utilities, best responses, equilibrium enumeration."""

import random
from fractions import Fraction

import pytest

import cacgames as cg
from cacgames import (
    Game,
    GameInputError,
    SizeCapError,
    WeightedGraph,
    best_response,
    best_response_by_definition,
    consensus_equilibria,
    deviations,
    enumerate_nash,
    is_nash,
    utility,
    utility_by_definition,
)
from cacgames.game import _configurations

HALF = Fraction(1, 2)


def test_threshold_must_be_strictly_inside_unit_interval():
    g = WeightedGraph([1, 2], [(1, 2, 1)])
    for bad in (0, 1, "5/4", "-1/2"):
        with pytest.raises(GameInputError):
            Game(g, {1}, bad)


def test_utility_values_on_pennies(games):
    pennies = games["pennies"]
    both_one = pennies.mask_of_actions({1: 1, 2: 1})
    assert utility(pennies, 1, both_one) == HALF
    assert utility(pennies, 2, both_one) == -HALF


def test_isolated_player_has_zero_utility_and_full_br():
    g = WeightedGraph([1, 2, 3], [(1, 2, 1)])
    game = Game(g, {1, 3}, HALF)
    for x in range(8):
        assert utility(game, 3, x) == 0
        assert best_response(game, 3, x) == {0, 1}


def test_utility_closed_form_matches_definition_on_fixtures(games):
    for name, game in games.items():
        if game.n > 11:
            continue
        for x in range(1 << game.n):
            for v in game.nodes:
                assert utility(game, v, x) == utility_by_definition(game, v, x), (name, v, x)


def test_best_response_pennies(games):
    pennies = games["pennies"]
    assert best_response(pennies, 1, pennies.mask_of_ones([2])) == {1}
    assert best_response(pennies, 2, pennies.mask_of_ones([1])) == {0}


def test_best_response_tie_on_fig2a(games):
    # node 6 sees exactly half of its neighbor weight at 1
    a = games["fig2a"]
    x = a.mask_of_actions({1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0})
    assert best_response(a, 6, x) == {0, 1}
    assert best_response_by_definition(a, 6, x) == {0, 1}


def test_best_response_never_empty_and_tie_iff_equality():
    rng = random.Random(21)
    for _ in range(25):
        game = cg.random_game(rng, rng.randint(2, 8), max_weight=4)
        for x in range(1 << game.n):
            for v in game.nodes:
                br = best_response(game, v, x)
                assert br
                w1 = game.graph.restricted_degree(v, game.graph.members_of(x))
                assert (len(br) == 2) == (w1 == game.thresholds[v] * game.graph.degree(v))


def test_best_response_agrees_with_argmax_oracle():
    rng = random.Random(33)
    for _ in range(25):
        game = cg.random_game(rng, rng.randint(2, 8), max_weight=4)
        for x in range(1 << game.n):
            for v in game.nodes:
                assert best_response(game, v, x) == best_response_by_definition(game, v, x)


def test_oracle_reads_only_the_graph_and_thresholds():
    # The oracle must share no table with the fast paths it checks: it still
    # answers once every private attribute of the game is gone.
    rng = random.Random(52)
    for _ in range(12):
        game = cg.random_game(rng, rng.randint(2, 6), max_weight=4)
        cases = [(v, x) for v in game.nodes for x in range(1 << game.n)]
        expected = [
            (utility_by_definition(game, v, x), best_response_by_definition(game, v, x))
            for v, x in cases
        ]
        for name in [name for name in vars(game) if name.startswith("_")]:
            delattr(game, name)
        assert [
            (utility_by_definition(game, v, x), best_response_by_definition(game, v, x))
            for v, x in cases
        ] == expected


def test_flip_duality_of_best_responses():
    # flipping all actions and complementing all thresholds mirrors BR sets
    rng = random.Random(8)
    for _ in range(20):
        game = cg.random_game(rng, rng.randint(2, 8), max_weight=4)
        mirrored = game.replace_thresholds(
            {v: 1 - game.thresholds[v] for v in game.nodes}
        )
        full = (1 << game.n) - 1
        for x in range(1 << game.n):
            for v in game.nodes:
                direct = best_response(game, v, x)
                flipped = best_response(mirrored, v, x ^ full)
                assert direct == frozenset(1 - a for a in flipped)


def test_is_nash_fig2a_consensus(games):
    a = games["fig2a"]
    x_star = a.mask_of_actions({1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
    assert is_nash(a, x_star)
    assert deviations(a, x_star) == []


def test_pennies_has_no_equilibrium_at_any_configuration(games):
    pennies = games["pennies"]
    for x in range(4):
        assert not is_nash(pennies, x)
        assert deviations(pennies, x)


def test_fig1_printed_configuration_is_rejected_by_the_oracle(games):
    # frozen oracle verdict: players 1 and 3 strictly prefer switching to 1
    fig1 = games["fig1"]
    x = fig1.mask_of_actions(
        {i: 0 for i in range(1, 9)} | {9: 0, 10: 1, 11: 0, 12: 1, 13: 1}
    )
    assert not is_nash(fig1, x)
    devs = deviations(fig1, x)
    assert 3 in devs and 1 in devs
    # route agreement: the definition-level argmax sees the same deviators
    devs_oracle = [
        v
        for v in fig1.nodes
        if (x >> fig1.graph.index(v) & 1) not in best_response_by_definition(fig1, v, x)
    ]
    assert devs == devs_oracle


def test_enumerate_nash_fixture_values(games):
    assert enumerate_nash(games["pennies"]) == []
    assert enumerate_nash(games["fig2c"]) == []

    b = games["fig2b"]
    x2 = b.mask_of_actions({1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 0})
    nash_b = enumerate_nash(b)
    assert x2 in nash_b
    assert x2 ^ ((1 << b.n) - 1) in nash_b

    a = games["fig2a"]
    x1 = a.mask_of_actions({1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
    assert enumerate_nash(a) == sorted([x1, x1 ^ ((1 << a.n) - 1)])


def test_enumerate_nash_is_ascending_and_matches_oracle():
    rng = random.Random(13)
    for _ in range(15):
        game = cg.random_game(rng, rng.randint(2, 8), max_weight=4)
        nash = enumerate_nash(game)
        assert nash == sorted(nash)
        by_oracle = [
            x
            for x in range(1 << game.n)
            if all(
                (x >> game.graph.index(v) & 1) in best_response_by_definition(game, v, x)
                for v in game.nodes
            )
        ]
        assert nash == by_oracle


def test_nash_closed_under_global_flip_at_half(games):
    for name in ("pennies", "fig2a", "fig2b", "fig2c", "fig3", "k3"):
        game = games[name]
        full = (1 << game.n) - 1
        nash = set(enumerate_nash(game))
        assert nash == {x ^ full for x in nash}, name


def test_consensus_equilibria_fixture_values(games):
    fig3 = games["fig3"]
    x_star = fig3.mask_of_actions({i: 1 for i in range(1, 10)} | {10: 0})
    assert consensus_equilibria(fig3, action=1) == [x_star]
    assert consensus_equilibria(games["pennies"], action=0) == []
    assert consensus_equilibria(games["fig1"], action=1) != []


def test_consensus_equilibria_subset_of_nash():
    rng = random.Random(14)
    for _ in range(15):
        game = cg.random_game(rng, rng.randint(2, 8), max_weight=4)
        nash = set(enumerate_nash(game))
        for action in (0, 1):
            for x in consensus_equilibria(game, action=action):
                assert x in nash
                part = x & game.coord_mask
                assert part == (game.coord_mask if action else 0)


def test_configurations_walk_one_sub_cube_ascending():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(0, 8)
        free = rng.getrandbits(n)
        base = rng.getrandbits(n) & ~free
        expected = [x for x in range(1 << n) if x & ~free == base]
        assert list(_configurations(base, free)) == expected


def test_enumeration_cap_is_enforced():
    g = WeightedGraph(range(25))
    game = Game(g, set(), HALF)
    with pytest.raises(SizeCapError):
        enumerate_nash(game)
    with pytest.raises(SizeCapError):
        consensus_equilibria(game)


def test_consensus_scan_is_capped_by_the_enumerated_players():
    # 25 coordinating players on a path plus 5 anti-coordinating pendants:
    # 30 players, but only the 5 pendants are enumerated.
    edges = [(k, k + 1, 1) for k in range(1, 25)] + [(k, 25 + k, 1) for k in range(1, 6)]
    game = Game(WeightedGraph(range(1, 31), edges), range(1, 26), HALF)
    with pytest.raises(SizeCapError):
        enumerate_nash(game)
    ones = consensus_equilibria(game, action=1)
    zeros = consensus_equilibria(game, action=0)
    # each pendant anti-coordinates with its coordinating neighbor
    assert ones == [game.coord_mask]
    assert zeros == [game.anti_mask]
    assert consensus_equilibria(game) == sorted(ones + zeros)
    assert all(is_nash(game, x) for x in ones + zeros)


def test_configuration_helpers_round_trip(games):
    game = games["fig3"]
    mask = game.parse_bits("1111000010")
    assert game.format_bits(mask) == "1111000010"
    assert game.mask_of_actions(game.actions_of(mask)) == mask
    with pytest.raises(GameInputError):
        game.parse_bits("123")
