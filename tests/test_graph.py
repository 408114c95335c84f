"""Graph construction, degree queries, subset masks."""

import random
from fractions import Fraction

import pytest

import cacgames as cg
from cacgames import GameInputError, WeightedGraph


def test_rejects_self_loop():
    with pytest.raises(GameInputError, match="self-loop"):
        WeightedGraph([1, 2], [(1, 1, 1)])


def test_rejects_negative_and_zero_weight():
    with pytest.raises(GameInputError, match="negative"):
        WeightedGraph([1, 2], [(1, 2, -1)])
    with pytest.raises(GameInputError, match="zero weight"):
        WeightedGraph([1, 2], [(1, 2, 0)])


def test_rejects_duplicate_and_asymmetric_listings():
    with pytest.raises(GameInputError, match="duplicate"):
        WeightedGraph([1, 2], [(1, 2, 1), (2, 1, 1)])
    with pytest.raises(GameInputError, match="asymmetric"):
        WeightedGraph([1, 2], [(1, 2, 1), (2, 1, 2)])


def test_rejects_unknown_endpoint_and_float():
    with pytest.raises(GameInputError, match="unknown node"):
        WeightedGraph([1, 2], [(1, 3, 1)])
    with pytest.raises(GameInputError, match="floating point"):
        WeightedGraph([1, 2], [(1, 2, 0.5)])
    with pytest.raises(GameInputError, match=r"edges\[0\]: unknown node \[1\]"):
        WeightedGraph([1, 2], [([1], 2, 1)])


def test_diagnostics_name_the_entry_position():
    with pytest.raises(GameInputError, match=r"nodes\[2\]: duplicate node id 1"):
        WeightedGraph([1, 2, 1])
    with pytest.raises(GameInputError, match=r"nodes\[1\]: unhashable node id"):
        WeightedGraph([1, [2]])
    with pytest.raises(GameInputError, match="node ids must be mutually orderable"):
        WeightedGraph([1, "2"])
    with pytest.raises(GameInputError, match=r"edges\[2\]: self-loop at 3"):
        WeightedGraph([1, 2, 3], [(1, 2, 1), (2, 3, 1), (3, 3, 1)])
    with pytest.raises(GameInputError, match=r"edges\[1\]: expected \(u, v, weight\)"):
        WeightedGraph([1, 2], [(1, 2, 1), (1, 2)])


def test_shown_renders_only_what_it_keeps():
    from cacgames.rationals import shown

    calls = 0

    class Counted:
        def __repr__(self):
            nonlocal calls
            calls += 1
            return "c"

    assert shown([Counted() for _ in range(10_000)]).startswith("[c, c, c")
    assert calls <= 100
    with pytest.raises(GameInputError) as info:
        WeightedGraph([[0] * 10**6])
    assert str(info.value) == "nodes[0]: unhashable node id [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ..."


def test_node_ids_are_capped_as_a_game_file_writes_them():
    from cacgames.graph import ID_CAP

    at_cap = "x" * (ID_CAP - 2)  # a string id is written with its quotes
    assert WeightedGraph([at_cap, "b"]).nodes == ("b", at_cap)
    with pytest.raises(GameInputError) as info:
        WeightedGraph(["a", at_cap + "x"])
    shown_id = "'" + "x" * 40 + "'..."
    assert str(info.value) == f"nodes[1]: node id {shown_id} is longer than {ID_CAP} characters as written"
    with pytest.raises(GameInputError, match=r"^nodes\[0\]: node id"):
        WeightedGraph(["\u00e9" * (ID_CAP // 6 + 1)])  # each written as a 6-character escape
    WeightedGraph([-int("9" * (ID_CAP - 1))])  # a sign counts too
    for over in (10 ** ID_CAP, 10 ** 5000):  # the second is past the digit limit
        with pytest.raises(GameInputError, match=r"^nodes\[0\]: node id"):
            WeightedGraph([over])


def test_rejects_too_many_nodes():
    with pytest.raises(GameInputError, match="hard cap"):
        WeightedGraph(range(65))


def test_weight_lookup_is_symmetric_and_exact():
    g = WeightedGraph([1, 2, 3], [(1, 2, "3/7")])
    assert g.weight(1, 2) == g.weight(2, 1) == Fraction(3, 7)
    assert g.weight(1, 3) == 0


def test_restricted_degree_fixture_values(games):
    g = games["fig1"].graph
    assert g.restricted_degree(3, range(1, 9)) == 6
    assert g.restricted_degree(3, []) == 0
    assert g.degree(6) == 2
    assert g.restricted_degree(6, g.nodes) == g.degree(6)


def test_restricted_degree_unknown_node(games):
    with pytest.raises(GameInputError):
        games["pennies"].graph.restricted_degree(99, [1])


def test_restricted_degree_additive_over_disjoint_subsets():
    rng = random.Random(4)
    for _ in range(20):
        game = cg.random_game(rng, rng.randint(2, 9), max_weight=4)
        g = game.graph
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        cut = rng.randint(0, len(nodes))
        part_a, part_b = nodes[:cut], nodes[cut:]
        for v in g.nodes:
            assert g.restricted_degree(v, part_a) + g.restricted_degree(
                v, part_b
            ) == g.degree(v)


def test_mask_round_trip(games):
    g = games["fig1"].graph
    members = (2, 5, 13)
    assert g.members_of(g.mask_of(members)) == members
    assert len(g) == len(g.nodes) == 13
