"""Cohesiveness, indecomposability, restricted games, potentials."""

import json
import random
import warnings
from fractions import Fraction

import pytest

import cacgames as cg
from cacgames import (
    DegenerateNodeError,
    Game,
    GameInputError,
    RestrictedGame,
    SizeCapError,
    WeightedGraph,
    anticoordination_potential,
    cohesiveness,
    coordination_potential,
    decomposition_witnesses,
    game_indecomposability,
    indecomposability,
    partition_certificate,
    utility,
)
from cacgames.cli import main
from cacgames.graph import ZERO

HALF = Fraction(1, 2)


# -- cohesiveness -------------------------------------------------------


def test_cohesiveness_fig1_holds_at_two_fifths(games):
    report = cohesiveness(games["fig1"].graph, range(1, 9), Fraction(2, 5))
    assert report.holds and not report.violators
    assert bool(report)


def test_cohesiveness_fig2b_violated_by_node_6(games):
    report = cohesiveness(games["fig2b"].graph, range(2, 7), HALF)
    assert not report.holds and not bool(report)
    assert report.violators == ((6, Fraction(0), HALF),)


def test_whole_node_set_is_always_cohesive():
    rng = random.Random(3)
    for _ in range(10):
        game = cg.random_game(rng, rng.randint(2, 9), max_weight=4)
        assert cohesiveness(game.graph, game.nodes, Fraction(9, 10)).holds


def test_cohesiveness_antitone_in_thresholds():
    rng = random.Random(6)
    for _ in range(20):
        game = cg.random_game(rng, rng.randint(2, 9), max_weight=4)
        members = sorted(game.coordinating)
        if not members:
            continue
        low = {v: game.thresholds[v] for v in members}
        high = {v: min(game.thresholds[v] + Fraction(1, 9), Fraction(19, 20)) for v in members}
        if cohesiveness(game.graph, members, high).holds:
            assert cohesiveness(game.graph, members, low).holds


# -- indecomposability ---------------------------------------------------


def test_fig4_is_decomposable_with_verified_witness(games):
    fig4 = games["fig4"]
    report = game_indecomposability(fig4, mode="strict")
    assert not report.holds
    w = report.witness
    assert w.certifying_player is None
    # re-verify: the scan's witness really is a decomposition
    check = partition_certificate(
        fig4.graph, range(1, 7), HALF, w.part0, w.part1, mode="strict"
    )
    assert check.certifying_player is None
    # the classic split of the two triangles is among all witnesses
    named = (frozenset({1, 2, 3}), frozenset({4, 5, 6}))
    all_wits = {
        (x.part0, x.part1)
        for x in decomposition_witnesses(fig4.graph, range(1, 7), HALF, "strict")
    }
    assert named in all_wits


def test_k3_witness_is_the_singleton_split(games):
    report = game_indecomposability(games["k3"], mode="strict")
    assert not report.holds
    assert (report.witness.part0, report.witness.part1) == (
        frozenset({1}),
        frozenset({2}),
    )


def test_fig3_not_indecomposable(games):
    assert not game_indecomposability(games["fig3"], mode="strict").holds


def test_fig5_modes_disagree(games):
    fig5 = games["fig5"]
    strict = game_indecomposability(fig5, mode="strict")
    weak = game_indecomposability(fig5, mode="weak")
    assert not strict.holds
    assert weak.holds and weak.witness is None
    # strict fails exactly on balanced splits of the clique core
    assert len(strict.witness.part0) == 3 and len(strict.witness.part1) == 3


def test_certified_partitions_report_player_and_condition(games):
    k3 = games["k3"]
    wit = partition_certificate(k3.graph, [1, 2], HALF, {1}, {2}, mode="weak")
    assert wit.certifying_player in (1, 2)
    assert wit.condition in ("part0", "part1")


def test_partition_certificate_validates_input(games):
    k3 = games["k3"]
    with pytest.raises(GameInputError):
        partition_certificate(k3.graph, [1, 2], HALF, {1}, {1, 2})


def test_trivially_small_member_sets_hold(games):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = indecomposability(games["k3"].graph, [1], HALF)
    assert report.holds and report.witness is None
    assert report.partitions_checked == 0


def test_strict_indecomposability_implies_weak():
    rng = random.Random(17)
    for _ in range(40):
        game = cg.random_game(rng, rng.randint(2, 8), max_weight=3)
        members = sorted(game.coordinating)
        if len(members) < 2:
            continue
        th = {v: game.thresholds[v] for v in members}
        if indecomposability(game.graph, members, th, mode="strict").holds:
            assert indecomposability(game.graph, members, th, mode="weak").holds


def test_isolated_member_makes_weak_mode_indecomposable(tmp_path, capsys):
    # Player 5 has no neighbors, so both actions are best responses at every
    # configuration; weak mode counts that tie as a certificate of any part
    # holding it, so no split of 1..5 is a weak decomposition.
    graph = WeightedGraph(range(1, 6), [(1, 2, 1), (3, 4, 1)])
    for mode in ("strict", "weak"):
        assert not indecomposability(graph, range(1, 5), HALF, mode)
    assert not indecomposability(graph, range(1, 6), HALF, "strict")
    assert indecomposability(graph, range(1, 6), HALF, "weak")
    game = Game(graph, range(1, 6), HALF)
    assert all(cg.best_response(game, 5, x) == {0, 1} for x in range(1 << game.n))
    # the weak guarantee does not hold here: no consensus equilibrium is
    # reachable from 11000, and the path construction exits 3
    x0 = game.parse_bits("11000")
    assert not cg.reachability_from(game, x0, cg.consensus_equilibria(game)).reached
    path = tmp_path / "isolated.json"
    path.write_text(cg.serialize_game(game))
    assert main(["path", str(path), "--from", "11000", "--mode", "weak"]) == 3
    assert capsys.readouterr().out == ""


def _ascending_decompositions(graph, members, th, mode):
    """Oracle: certify every split in ascending bitmask order of part0."""
    ordered = sorted(members)
    out = []
    for mask0 in range(1, (1 << len(ordered)) - 1):
        part0 = {v for k, v in enumerate(ordered) if mask0 >> k & 1}
        part1 = set(ordered) - part0
        wit = partition_certificate(graph, ordered, th, part0, part1, mode=mode)
        if wit.certifying_player is None:
            out.append(wit)
    return out


@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_pruned_search_matches_ascending_scan(mode, knife_edge_game):
    rng = random.Random(29)
    checked = 0
    for trial in range(160):
        n = rng.randint(2, 8)
        if trial % 2:
            game = knife_edge_game(rng, n)
        else:
            game = cg.random_game(
                rng, n, edge_prob=Fraction(3, 5), coord_frac=Fraction(4, 5), max_weight=4
            )
        members = sorted(game.coordinating)
        if len(members) < 2:
            continue
        th = {v: game.thresholds[v] for v in members}
        expected = _ascending_decompositions(game.graph, members, th, mode)
        report = indecomposability(game.graph, members, th, mode=mode)
        assert report.holds == (not expected)
        assert report.witness == (expected[0] if expected else None)
        assert list(decomposition_witnesses(game.graph, members, th, mode)) == expected
        checked += 1
    assert checked > 100


def _fractional_weight_game(rng, n):
    """Random game with non-integer edge weights and thresholds."""
    ids = range(1, n + 1)
    edges = [
        (u, v, Fraction(rng.randint(1, 9), rng.randint(1, 7)))
        for u in ids
        for v in ids
        if u < v and rng.random() < 0.6
    ]
    thresholds = {v: Fraction(rng.randint(1, 6), 7) for v in ids}
    coordinating = [v for v in ids if rng.random() < 0.75]
    return Game(WeightedGraph(ids, edges), coordinating, thresholds)


def test_predicates_match_the_fraction_definitions(knife_edge_game):
    """Both predicates against their definitions in ``Fraction`` arithmetic:
    a member is cohesive when its weight into the set reaches ``r * deg``,
    and certifies a split when its cut into the other part crosses ``r *
    deg`` in part0 or ``(1 - r) * deg`` in part1 (``>`` strict, ``>=``
    weak)."""
    rng = random.Random(43)
    for trial in range(24):
        n = rng.randint(2, 8)
        make = knife_edge_game if trial % 2 else _fractional_weight_game
        game = make(rng, n)
        graph, th = game.graph, game.thresholds
        nodes = game.nodes
        for subset in range(1 << n):
            members = [v for k, v in enumerate(nodes) if subset >> k & 1]
            expected = []
            for v in members:
                inside = graph.restricted_degree(v, members)
                required = th[v] * graph.degree(v)
                if inside < required:
                    expected.append((v, inside, required))
            report = cohesiveness(graph, members, th)
            assert report.violators == tuple(expected)
            assert report.holds == (not expected)
        members = sorted(game.coordinating)
        for mask0 in range(1, (1 << len(members)) - 1):
            part0 = {v for k, v in enumerate(members) if mask0 >> k & 1}
            part1 = set(members) - part0
            for mode in ("strict", "weak"):
                expected = None
                for v in members:
                    in0 = v in part0
                    cut = graph.restricted_degree(v, part1 if in0 else part0)
                    budget = (th[v] if in0 else 1 - th[v]) * graph.degree(v)
                    if cut > budget or (mode == "weak" and cut == budget):
                        expected = (v, "part0" if in0 else "part1")
                        break
                wit = partition_certificate(graph, members, th, part0, part1, mode=mode)
                assert (wit.certifying_player, wit.condition) == (expected or (None, None))


@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_pruned_search_stays_small_on_k30(mode):
    ids = range(1, 31)
    graph = WeightedGraph(ids, [(u, v, 1) for u in ids for v in ids if u < v])
    report = indecomposability(graph, ids, Fraction(1, 10), mode=mode)
    assert report.holds and report.witness is None
    # an unpruned search tree over 30 members has 2^31 - 2 nodes
    assert report.partitions_checked < 10_000


def test_partition_search_stops_at_node_cap(monkeypatch, tmp_path, capsys):
    ids = range(1, 13)
    graph = WeightedGraph(ids, [(u, v, 1) for u in ids for v in ids if u < v])
    tenth = Fraction(1, 10)
    visited = indecomposability(graph, ids, tenth).partitions_checked
    monkeypatch.setattr(cg.structure, "PARTITION_NODE_CAP", visited)
    assert indecomposability(graph, ids, tenth).holds
    monkeypatch.setattr(cg.structure, "PARTITION_NODE_CAP", visited - 1)
    with pytest.raises(SizeCapError, match="partition search"):
        indecomposability(graph, ids, tenth)
    path = tmp_path / "k12.json"
    path.write_text(cg.serialize_game(Game(graph, ids, tenth)))
    assert main(["analyze", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "partition search over 12 members" in err
    # the cap skips both indecomposability stages, and the others still run
    report = json.loads(out)
    assert report["cohesiveness"]["consensus_one"]["holds"]
    for mode in ("strict", "weak"):
        assert report["indecomposability"][mode]["status"] == "skipped-size-cap"
        assert "partition search over 12 members" in report["indecomposability"][mode]["detail"]
    assert report["nash_count"] == 2
    assert report["consensus_equilibria"] == {"ones": ["1" * 12], "zeros": ["0" * 12]}
    assert report["reachability"]["status"] == "ok" and report["reachability"]["reached"]


def test_predicates_share_the_game_threshold_check(games):
    graph = games["k3"].graph
    for bad in (0, 1, "5/4"):
        with pytest.raises(GameInputError) as from_game:
            Game(graph, {1, 2}, bad)
        assert "strictly between 0 and 1" in str(from_game.value)
        for check in (cohesiveness, indecomposability):
            with pytest.raises(GameInputError) as from_structure:
                check(graph, [1, 2], bad)
            assert str(from_structure.value) == str(from_game.value)


def test_bad_mode_rejected(games):
    with pytest.raises(GameInputError):
        game_indecomposability(games["k3"], mode="loose")
    # checked before the cohesiveness scans, so pennies (cohesive in neither
    # direction) reports the mode as well
    for name in ("k3", "pennies"):
        with pytest.raises(GameInputError, match="mode must be 'strict' or 'weak', got 'bogus'"):
            cg.construct_consensus_path(games[name], 0, mode="bogus")
    for bad in ("1", 2, 1.0):
        with pytest.raises(GameInputError, match="toward must be 0 or 1"):
            cg.game_cohesiveness(games["fig1"], toward=bad)
    with pytest.raises(GameInputError, match="side must name a role, got 'leaders'"):
        RestrictedGame(games["k3"], "leaders", 0)
    fig3 = games["fig3"]
    anti = min(fig3.anticoordinating)
    with pytest.raises(GameInputError, match=f"{anti} is not on the coordinating side"):
        RestrictedGame(fig3, "coordinating", 0).modified_threshold(anti)


# -- modified thresholds -------------------------------------------------


def test_modified_threshold_values_fig2a(games):
    a = games["fig2a"]
    with_one = RestrictedGame(a, "coordinating", a.mask_of_ones([1]))
    with_zero = RestrictedGame(a, "coordinating", 0)
    assert with_one.modified_threshold(2) == Fraction(1, 4)
    assert with_zero.modified_threshold(2) == Fraction(3, 4)


def test_modified_threshold_fig5_anticoordinating_side(games):
    fig5 = games["fig5"]
    view = RestrictedGame(fig5, "anticoordinating", fig5.coord_mask)
    assert view.modified_threshold(9) == 0


def test_modified_threshold_reduces_to_threshold_without_cross_edges():
    g = WeightedGraph([1, 2, 3], [(1, 2, 2)])
    game = Game(g, {1, 2}, Fraction(2, 7))
    for fixed in range(8):
        view = RestrictedGame(game, "coordinating", fixed)
        assert view.modified_threshold(1) == Fraction(2, 7)


def test_modified_threshold_degenerate_node(games):
    fig3 = games["fig3"]
    view = RestrictedGame(fig3, "anticoordinating", fig3.coord_mask)
    with pytest.raises(DegenerateNodeError):
        view.modified_threshold(10)


def test_modified_threshold_monotone_in_frozen_actions():
    rng = random.Random(23)
    for _ in range(20):
        game = cg.random_game(rng, rng.randint(2, 8), max_weight=4)
        for v in game.coordinating:
            inside = game.graph.restricted_degree(v, game.coordinating)
            cross = [u for u in game.graph.neighbors(v) if u in game.anticoordinating]
            if inside == 0 or not cross:
                continue
            j, wij = game.graph.index(cross[0]), game.graph.weight(v, cross[0])
            low = RestrictedGame(game, "coordinating", 0)
            high = RestrictedGame(game, "coordinating", 1 << j)
            drop = low.modified_threshold(v) - high.modified_threshold(v)
            assert drop == wij / inside


def test_best_response_consistency_of_modified_thresholds():
    # playing 1 is optimal exactly when the own-side weight at 1 clears the
    # effective threshold times the own-side degree
    rng = random.Random(29)
    for _ in range(15):
        game = cg.random_game(rng, rng.randint(2, 7), max_weight=3)
        size = 1 << game.n
        for v in game.coordinating:
            inside = game.graph.restricted_degree(v, game.coordinating)
            if inside == 0:
                continue
            for fixed in (0, size - 1, rng.randrange(size)):
                view = RestrictedGame(game, "coordinating", fixed)
                r_eff = view.modified_threshold(v)
                for x in range(size):
                    merged = view.merged(x)
                    inside_one = game.graph.restricted_degree(
                        v, game.graph.members_of(merged & game.coord_mask)
                    )
                    assert (1 in cg.best_response(game, v, merged)) == (
                        inside_one >= r_eff * inside
                    )


# -- restricted utilities and the non-strategic term ----------------------


def _three_term_utility(game, view, v, x):
    # independent expansion: own-side matching + own-action gain + constant
    graph = game.graph
    r = game.thresholds[v]
    merged = view.merged(x)
    yi = merged >> graph.index(v) & 1
    own = ZERO
    gain = ZERO
    const = ZERO
    for u in graph.neighbors(v):
        w = graph.weight(v, u)
        xj = merged >> graph.index(u) & 1
        if u in game.coordinating:
            own += w * ((1 - r) * yi * xj + r * (1 - yi) * (1 - xj))
        else:
            gain += w * ((1 - r) * xj - r * (1 - xj))
            const += w * r * (1 - xj)
    return own + yi * gain + const


def test_restricted_utility_equals_full_game_utility(games):
    for name in ("pennies", "fig2a", "k3"):
        game = games[name]
        for fixed in range(1 << game.n):
            view = RestrictedGame(game, "coordinating", fixed)
            for v in game.coordinating:
                for x in range(1 << game.n):
                    assert view.utility(v, x) == utility(game, v, view.merged(x))


def test_restricted_utility_three_term_expansion(games):
    pennies = games["pennies"]
    view = RestrictedGame(pennies, "coordinating", 0)  # other player at 0
    x = pennies.mask_of_ones([1])
    assert view.utility(1, x) == 0
    assert _three_term_utility(pennies, view, 1, x) == 0

    a = games["fig2a"]
    for fixed in range(1 << a.n):
        view = RestrictedGame(a, "coordinating", fixed)
        for v in a.coordinating:
            for x in range(1 << a.n):
                assert view.utility(v, x) == _three_term_utility(a, view, v, x)


def test_restricted_utility_fig2a_value(games):
    a = games["fig2a"]
    view = RestrictedGame(a, "coordinating", a.mask_of_ones([1]))
    x = a.mask_of_ones([2, 3, 6])
    assert view.utility(2, x) == Fraction(3, 2)


def test_modified_threshold_decomposition_where_defined(games):
    a = games["fig2a"]
    for fixed in range(1 << a.n):
        view = RestrictedGame(a, "coordinating", fixed)
        for v in a.coordinating:
            k = a.graph.index(v)
            r_eff = view.modified_threshold(v)
            for x in range(1 << a.n):
                merged = view.merged(x)
                yi = merged >> k & 1
                coord_part = ZERO
                for u in a.graph.neighbors(v):
                    if u in a.coordinating:
                        w = a.graph.weight(v, u)
                        yj = merged >> a.graph.index(u) & 1
                        coord_part += w * ((1 - r_eff) * yi * yj + r_eff * (1 - yi) * (1 - yj))
                assert view.utility(v, x) == coord_part + view.nonstrategic_term(v, x)


def test_nonstrategic_term_properties(games):
    a = games["fig2a"]
    # vanishes without cross edges
    g = WeightedGraph([1, 2, 3], [(1, 2, 1)])
    isolated_cross = Game(g, {1, 2}, HALF)
    view = RestrictedGame(isolated_cross, "coordinating", 7)
    assert view.nonstrategic_term(1, 0) == 0
    # independent of the player's own action
    for fixed in (0, a.mask_of_ones([1])):
        view = RestrictedGame(a, "coordinating", fixed)
        for x in range(1 << a.n):
            k = a.graph.index(2)
            assert view.nonstrategic_term(2, x) == view.nonstrategic_term(2, x ^ (1 << k))
    # only defined on the coordinating side
    anti_view = RestrictedGame(a, "anticoordinating", 0)
    with pytest.raises(GameInputError):
        anti_view.nonstrategic_term(1, 0)


# -- potentials -----------------------------------------------------------


def test_potentials_of_empty_sides_are_zero():
    g = WeightedGraph([1, 2], [(1, 2, 1)])
    all_anti = Game(g, set(), HALF)
    all_coord = Game(g, {1, 2}, HALF)
    for x in range(4):
        assert coordination_potential(all_anti, x) == 0
        assert anticoordination_potential(all_coord, x) == 0


def test_pennies_coordination_potential_differences(games):
    pennies = games["pennies"]
    k1 = pennies.graph.index(1)
    for z, expected in ((0, -HALF), (1, HALF)):
        base = pennies.mask_of_actions({1: 0, 2: z})
        flipped = base | (1 << k1)
        diff = coordination_potential(pennies, flipped) - coordination_potential(pennies, base)
        assert diff == expected
        assert diff == utility(pennies, 1, flipped) - utility(pennies, 1, base)


def _assert_potential_identity(game):
    for x in range(1 << game.n):
        for v in game.nodes:
            k = game.graph.index(v)
            flipped = x ^ (1 << k)
            du = utility(game, v, flipped) - utility(game, v, x)
            if v in game.coordinating:
                dphi = coordination_potential(game, flipped) - coordination_potential(game, x)
                view = RestrictedGame(game, "coordinating", x)
            else:
                dphi = anticoordination_potential(game, flipped) - anticoordination_potential(game, x)
                view = RestrictedGame(game, "anticoordinating", x)
            assert du == dphi, (v, x)
            assert view.potential(flipped) - view.potential(x) == du, (v, x)
        for side, phi in (("coordinating", coordination_potential),
                          ("anticoordinating", anticoordination_potential)):
            view = RestrictedGame(game, side, x)
            assert view.potential(x) == phi(game, view.merged(x)), (side, x)


def test_potential_identity_on_small_fixtures(games):
    for name in ("pennies", "k3", "fig2a", "fig2b", "fig2c", "fig3"):
        _assert_potential_identity(games[name])


def test_potential_identity_covers_degenerate_nodes(games):
    # node 10 in this game has no same-side neighbors at all
    _assert_potential_identity(games["fig3"])
    g = WeightedGraph([1, 2, 3], [(2, 3, 1)])
    _assert_potential_identity(Game(g, {1}, Fraction(1, 3)))


def test_cleared_coefficient_matches_modified_threshold():
    from cacgames.restricted import _own_side

    rng = random.Random(41)
    for _ in range(20):
        game = cg.random_game(rng, rng.randint(2, 8), max_weight=4)
        for v in game.coordinating:
            k = game.graph.index(v)
            inside = game.graph.restricted_degree(v, game.coordinating)
            if inside == 0:
                continue
            for fixed in (0, (1 << game.n) - 1, rng.randrange(1 << game.n)):
                view = RestrictedGame(game, "coordinating", fixed)
                w_in, pull = _own_side(game, k, fixed)
                lhs = Fraction(2 * pull - w_in, 2 * game._scale)
                rhs = (view.modified_threshold(v) - HALF) * inside
                assert lhs == rhs


# -- restricted equilibria -------------------------------------------------


def test_restricted_nash_fig3_single_follower(games):
    fig3 = games["fig3"]
    view = RestrictedGame(fig3, "anticoordinating", fig3.coord_mask)
    expected = fig3.mask_of_actions({i: 1 for i in range(1, 10)} | {10: 0})
    assert view.nash() == [expected]


def test_restricted_nash_fig5_all_ones_frozen(games):
    fig5 = games["fig5"]
    view = RestrictedGame(fig5, "coordinating", fig5.anti_mask)
    assert view.nash() == sorted([fig5.anti_mask, fig5.anti_mask | fig5.coord_mask])


def test_restricted_nash_everything_when_side_is_edgeless():
    g = WeightedGraph([1, 2, 3], [(2, 3, 1)])
    game = Game(g, {1}, HALF)  # player 1 has no edges at all
    view = RestrictedGame(game, "coordinating", 0)
    assert view.nash() == [0, game.coord_mask]
    # isolated movers make every own-side configuration an equilibrium
    game2 = Game(WeightedGraph([1, 2, 3]), {1, 2}, HALF)
    view2 = RestrictedGame(game2, "coordinating", 0)
    assert view2.nash() == [0, 1, 2, 3]


def test_restricted_nash_is_capped_by_the_moving_side(games, monkeypatch):
    fig3 = games["fig3"]
    monkeypatch.setattr(cg.configsets, "ENUM_CAP", len(fig3.anticoordinating))
    assert len(fig3.coordinating) > cg.configsets.ENUM_CAP
    with pytest.raises(SizeCapError, match="exhaustive scan over 9 players"):
        RestrictedGame(fig3, "coordinating", 0).nash()
    view = RestrictedGame(fig3, "anticoordinating", fig3.coord_mask)
    assert len(view.nash()) == 1


def test_restricted_nash_subset_of_consensus_under_strict_indecomposability():
    rng = random.Random(47)
    hits = 0
    for _ in range(60):
        game = cg.random_game(rng, rng.randint(2, 7), max_weight=3)
        if not game_indecomposability(game, mode="strict").holds:
            continue
        hits += 1
        for fixed in range(1 << game.n):
            view = RestrictedGame(game, "coordinating", fixed)
            base = fixed & ~game.coord_mask
            assert set(view.nash()) <= {base, base | game.coord_mask}
    assert hits > 0


# -- pinned exact values ----------------------------------------------------


def _restricted_values(game, rng):
    """Text lines of every potential, effective threshold (or "degenerate")
    and non-strategic term the restricted-game algebra gives on one game."""
    size = 1 << game.n
    lines = [
        f"phi {x} {coordination_potential(game, x)} {anticoordination_potential(game, x)}"
        for x in range(size)
    ]
    for side in ("coordinating", "anticoordinating"):
        for fixed in (0, size - 1, rng.randrange(size)):
            view = RestrictedGame(game, side, fixed)
            for v in sorted(view.moving):
                try:
                    r_eff = view.modified_threshold(v)
                except DegenerateNodeError:
                    lines.append(f"r_eff {side} {fixed} {v} degenerate")
                    continue
                lines.append(f"r_eff {side} {fixed} {v} {r_eff}")
                if side == "coordinating":
                    for x in (0, size - 1, rng.randrange(size)):
                        lines.append(f"term {fixed} {v} {x} {view.nonstrategic_term(v, x)}")
    return lines


def test_restricted_game_values_match_pinned_digest(knife_edge_game):
    # The identity tests above only see differences of potentials and the
    # ratio of two forms of one coefficient; this digest pins the values.
    import hashlib

    rng = random.Random(53)
    lines = []
    for trial in range(60):
        n = rng.randint(2, 7)
        if trial % 2:
            game = knife_edge_game(rng, n)
        else:
            game = cg.random_game(
                rng, n, edge_prob=Fraction(1, 2), coord_frac=Fraction(2, 3), max_weight=4
            )
        lines.append(f"game {trial} {cg.serialize_game(game)}")
        lines.extend(_restricted_values(game, rng))
    assert sum("degenerate" in line for line in lines) > 10
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "4e09502fcce40c94a4e2b54d0a7eb1f15dba7c5cf89aa7115c1ae7c5bd0e809c"
