"""Utilities, best responses, equilibrium enumeration."""

import math
import random
from fractions import Fraction
from itertools import islice

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
from cacgames.cli import _sub_cube
from cacgames.configsets import (
    _best_response_sets,
    _configurations,
    _equilibria,
    _literals,
    _stay,
)
from cacgames.game import _cleared, _threshold_map

HALF = Fraction(1, 2)


def test_threshold_must_be_strictly_inside_unit_interval():
    g = WeightedGraph([1, 2], [(1, 2, 1)])
    for bad in (0, 1, "5/4", "-1/2", Fraction(10**5000)):
        with pytest.raises(GameInputError):
            Game(g, {1}, bad)
    with pytest.raises(GameInputError, match="got a number with too many digits$"):
        Game(g, {1}, Fraction(10**5000))
    with pytest.raises(GameInputError, match="missing threshold for node 2"):
        Game(g, {1}, {1: HALF})


HUGE = 10**5000  # past Python's digit limit for int-to-text conversion
LONG = "x" * 20_000


@pytest.mark.parametrize("call", [
    lambda: WeightedGraph([1, 2], [(1, 2, -HUGE)]),
    lambda: cg.simulate(cg.fixture("k3"), HUGE),
    lambda: cg.simulate(cg.fixture("k3"), 0, max_steps=HUGE),
    lambda: cg.consensus_equilibria(cg.fixture("k3"), action=HUGE),
    lambda: cg.fixture(LONG),
    lambda: cg.RestrictedGame(cg.fixture("k3"), LONG, 0),
    lambda: cg.indecomposability(cg.fixture("k3").graph, [1, 2], HALF, mode=LONG),
], ids=["weight", "start", "max_steps", "action", "fixture", "side", "mode"])
def test_diagnostics_echo_a_value_in_at_most_40_characters(call):
    with pytest.raises(GameInputError) as info:
        call()
    assert len(str(info.value)) < 200


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
    with pytest.raises(GameInputError, match="action must be 0 or 1, got 2"):
        consensus_equilibria(fig3, action=2)
    with pytest.raises(GameInputError, match="action must be 0 or 1, got 1.0"):
        consensus_equilibria(fig3, action=1.0)
    with pytest.raises(GameInputError, match="got -1/2$"):
        consensus_equilibria(fig3, action=Fraction(-1, 2))


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
        # the CLI's walk runs through the sub-cube and then wraps to base
        assert list(islice(_sub_cube(base, free), len(expected) + 1)) == expected + [base]
        assert list(_configurations(base, free, range(len(expected)))) == expected


def test_bitset_scans_match_the_scalar_oracles(knife_edge_game):
    # The bitset builder against ``_br_bits`` and the by-definition oracle,
    # bit by bit, on the full cube and on random sub-cubes; the game's
    # ``_stay`` table likewise; the equilibrium scan against a brute-force
    # filter of every configuration.
    rng = random.Random(31)
    ties = 0
    for trial in range(60):
        n = rng.randint(1, 9)
        if trial % 2:
            game = knife_edge_game(rng, n)
        else:
            game = cg.random_game(rng, n, max_weight=4)
        for k in range(n):
            stay = _stay(game, k)
            for x in range(1 << n):
                assert stay >> x & 1 == game._br_bits(k, x) >> (x >> k & 1) & 1, (trial, k, x)
        for free in ((1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)):
            base = rng.getrandbits(n) & ~free
            literals = _literals(free)
            configs = list(_configurations(base, free, range(1 << free.bit_count())))
            for k, node in enumerate(game.nodes):
                ones, zeros = _best_response_sets(game, k, base, literals)
                assert ones | zeros == (1 << len(configs)) - 1
                for p, x in enumerate(configs):
                    code = (zeros >> p & 1) | (ones >> p & 1) << 1
                    assert code == game._br_bits(k, x), (trial, k, x)
                    assert best_response_by_definition(game, node, x) == {
                        a for a in (0, 1) if code >> a & 1
                    }, (trial, k, x)
                    ties += code == 3
            for players in (range(n), [k for k in range(n) if rng.random() < 0.5]):
                brute = [
                    x for x in range(1 << n)
                    if x & ~free == base
                    and all(game._br_bits(k, x) >> (x >> k & 1) & 1 for k in players)
                ]
                assert _equilibria(game, base, free, players) == brute, (trial, free)
    assert ties > 1000


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


def test_format_bits_matches_the_per_bit_definition():
    rng = random.Random(17)
    for n in range(65):
        game = Game(WeightedGraph(range(n)), [], HALF)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
        for mask in masks:
            expected = "".join("1" if mask >> k & 1 else "0" for k in range(n))
            assert game.format_bits(mask) == expected, (n, mask)
            assert game.parse_bits(expected) == mask


def test_configuration_helpers_round_trip(games):
    game = games["fig3"]
    mask = game.parse_bits("1111000010")
    assert game.format_bits(mask) == "1111000010"
    assert game.mask_of_actions(game.actions_of(mask)) == mask
    with pytest.raises(GameInputError):
        game.parse_bits("123")
    with pytest.raises(GameInputError, match="configuration is missing player 10"):
        game.mask_of_actions({v: 0 for v in range(1, 10)})
    with pytest.raises(GameInputError, match="action of 1 must be 0 or 1, got 2"):
        game.mask_of_actions({v: 2 for v in game.nodes})
    with pytest.raises(GameInputError, match="action of 1 must be 0 or 1, got 1.0"):
        game.mask_of_actions({v: 1.0 for v in game.nodes})


def _cleared_by_fractions(graph, nodes, thresholds):
    """``_cleared`` summed in ``Fraction``s: every degree and every ``r * w``
    as a rational, then one lcm over all their denominators."""
    index = graph._index
    rows = [sorted((index[u], w) for u, w in graph._adj[v].items()) for v in nodes]
    totals = [thresholds[v] * graph.degree(v) for v in nodes]
    scale = math.lcm(
        *(t.denominator for t in totals),
        *(w.denominator for row in rows for _, w in row),
    )
    rows = [tuple((j, w.numerator * (scale // w.denominator)) for j, w in row) for row in rows]
    return scale, rows, [t.numerator * (scale // t.denominator) for t in totals]


def test_integer_clearing_matches_the_fraction_sums(games):
    # Rational weights with unlike denominators and per-node thresholds; the
    # game's own clearing and the member subsets the structure predicates
    # clear (their thresholds restricted to the members, as they pass them).
    rng = random.Random(47)
    cases = [(game.graph, game.thresholds) for game in games.values()]
    for _ in range(200):
        n = rng.randint(0, 12)
        edges = [
            (u, v, Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4, 6, 7, 10))))
            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        thresholds = {}
        for v in range(n):
            q = rng.choice((2, 3, 5, 7, 12))
            thresholds[v] = Fraction(rng.randint(1, q - 1), q)
        cases.append((WeightedGraph(range(n), edges), thresholds))
    for graph, thresholds in cases:
        nodes = graph.nodes
        members = graph.members_of(rng.getrandbits(len(nodes)))
        for subset in (nodes, members):
            th = _threshold_map(subset, thresholds)
            assert _cleared(graph, subset, th) == _cleared_by_fractions(graph, subset, th)
        game = Game(graph, members, thresholds)
        assert (game._scale, game._nbrw, game._thr_int) == _cleared_by_fractions(
            graph, nodes, thresholds
        )
