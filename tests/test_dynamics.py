"""Transitions, reachability, constructive paths, simulation."""

import operator
import random
import tracemalloc
from collections import deque
from collections.abc import MutableSet, Set
from fractions import Fraction

import pytest

import cacgames as cg
from cacgames import (
    BRPath,
    Game,
    GameInputError,
    GuaranteeViolationError,
    PathValidationError,
    PreconditionError,
    SizeCapError,
    WeightedGraph,
    anticoordination_potential,
    br_transitions,
    construct_consensus_path,
    coordination_potential,
    enumerate_nash,
    global_reachability,
    is_nash,
    reachability_from,
    reachable_set,
    simulate,
    utility,
    validate_br_path,
)
from cacgames.scalar import _br_bits

HALF = Fraction(1, 2)


def _fig3_trap_starts(fig3):
    return [
        fig3.mask_of_actions(
            {1: 1, 2: 1, 3: 1, 4: 1, 5: 0, 6: 0, 7: 0, 8: 0, 9: a, 10: b}
        )
        for a in (0, 1)
        for b in (0, 1)
    ]


# -- transitions -----------------------------------------------------------


def test_transitions_from_strict_equilibrium_are_empty(games):
    fig3 = games["fig3"]
    x_star = fig3.mask_of_actions({i: 1 for i in range(1, 10)} | {10: 0})
    assert is_nash(fig3, x_star)
    assert br_transitions(fig3, x_star) == []


def test_transitions_pennies_both_matched(games):
    pennies = games["pennies"]
    x = pennies.mask_of_actions({1: 1, 2: 1})
    expected = pennies.mask_of_actions({1: 1, 2: 0})
    assert br_transitions(pennies, x) == [(2, 0, expected)]


def test_transitions_fig2a_only_the_tied_player_moves(games):
    a = games["fig2a"]
    x_star = a.mask_of_actions({1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
    k6 = a.graph.index(6)
    assert br_transitions(a, x_star) == [(6, 0, x_star ^ (1 << k6))]


def test_equilibrium_iff_no_strictly_improving_transition():
    rng = random.Random(3)
    for _ in range(15):
        game = cg.random_game(rng, rng.randint(2, 8), max_weight=4)
        nash = set(enumerate_nash(game))
        for x in range(1 << game.n):
            strict_moves = [
                (v, a, y)
                for v, a, y in br_transitions(game, x)
                if cg.best_response(game, v, x) == {a}
            ]
            assert (x in nash) == (not strict_moves)


# -- reachable sets ----------------------------------------------------------


def test_reachable_set_of_strict_equilibrium_is_singleton(games):
    fig3 = games["fig3"]
    x_star = fig3.mask_of_actions({i: 1 for i in range(1, 10)} | {10: 0})
    assert reachable_set(fig3, x_star) == {x_star}


def test_reachable_set_pennies_cycles_through_everything(games):
    pennies = games["pennies"]
    for x0 in range(4):
        assert reachable_set(pennies, x0) == {0, 1, 2, 3}


def test_reachable_set_respects_cap(games, monkeypatch):
    monkeypatch.setattr(cg.configsets, "ENUM_CAP", 5)
    with pytest.raises(SizeCapError):
        reachable_set(games["fig3"], 0)


# -- global reachability ------------------------------------------------------


def test_k3_equilibria_globally_reachable(games):
    k3 = games["k3"]
    nash = enumerate_nash(k3)
    assert [k3.format_bits(x) for x in nash] == ["110", "001"]
    report = global_reachability(k3, nash)
    assert report.reached and not report.trap_states
    assert report.reachable_count == 8
    validate_br_path(k3, report.witness)
    assert report.witness.end in set(nash)


def test_fig3_equilibria_not_globally_reachable(games):
    fig3 = games["fig3"]
    report = global_reachability(fig3, enumerate_nash(fig3))
    assert not report.reached
    assert report.witness is None
    assert set(_fig3_trap_starts(fig3)) <= report.trap_states


def test_reachability_reports_are_true_exactly_when_reached(games):
    fig3, k3 = games["fig3"], games["k3"]
    nash = enumerate_nash(fig3)
    assert not global_reachability(fig3, nash)
    assert not reachability_from(fig3, _fig3_trap_starts(fig3)[0], nash)
    assert global_reachability(k3, enumerate_nash(k3))
    assert reachability_from(k3, 0, enumerate_nash(k3))


def test_reachability_from_single_sources(games):
    fig3 = games["fig3"]
    nash = enumerate_nash(fig3)
    trapped = reachability_from(fig3, _fig3_trap_starts(fig3)[0], nash)
    assert not trapped.reached and trapped.witness is None
    assert trapped.trap_states == frozenset(reachable_set(fig3, trapped.source))

    free = fig3.mask_of_actions({i: 1 for i in range(1, 11)})
    hit = reachability_from(fig3, free, nash)
    assert hit.reached and not hit.trap_states
    validate_br_path(fig3, hit.witness)
    assert hit.witness.start == free and hit.witness.end in set(nash)


def test_empty_target_rejected(games):
    with pytest.raises(GameInputError):
        global_reachability(games["k3"], [])
    with pytest.raises(GameInputError):
        reachability_from(games["k3"], 0, [])


def test_out_of_range_configurations_rejected(games):
    k3 = games["k3"]
    restricted = cg.RestrictedGame(k3, "coordinating", 0)
    for bad in (8, 99, -1, "0", 1 << 70 | 4):
        with pytest.raises(GameInputError, match="source configuration"):
            reachable_set(k3, bad)
        with pytest.raises(GameInputError, match="source configuration"):
            reachability_from(k3, bad, [0])
        with pytest.raises(GameInputError, match="target configuration"):
            reachability_from(k3, 0, [0, bad])
        with pytest.raises(GameInputError, match="target configuration"):
            global_reachability(k3, [0, bad])
        with pytest.raises(GameInputError, match="start configuration"):
            simulate(k3, bad)
        with pytest.raises(GameInputError, match="start configuration"):
            construct_consensus_path(k3, bad, mode="weak")
        for evaluate in (cg.best_response, cg.best_response_by_definition, utility,
                         cg.utility_by_definition):
            with pytest.raises(GameInputError, match="evaluated configuration"):
                evaluate(k3, 1, bad)
        for evaluate in (cg.deviations, is_nash, coordination_potential,
                         anticoordination_potential):
            with pytest.raises(GameInputError, match="evaluated configuration"):
                evaluate(k3, bad)
        for evaluate in (restricted.utility, restricted.nonstrategic_term):
            with pytest.raises(GameInputError, match="moving configuration"):
                evaluate(1, bad)
        with pytest.raises(GameInputError, match="moving configuration"):
            restricted.potential(bad)
        with pytest.raises(GameInputError, match="overlay configuration"):
            cg.to_dot(k3, bad)
        with pytest.raises(GameInputError, match="path configuration"):
            validate_br_path(k3, BRPath((), (bad,)))
    for bad in (1 << 10, -1):
        with pytest.raises(GameInputError, match="fixed configuration"):
            cg.RestrictedGame(k3, "anticoordinating", bad)
        with pytest.raises(GameInputError, match="source configuration"):
            br_transitions(k3, bad)


def test_witness_tie_break_is_pinned(games):
    # Lowest player index that drops a layer; single sources end at the
    # lowest of the nearest targets.  A faster engine must keep these.
    k3 = games["k3"]
    witness = global_reachability(k3, enumerate_nash(k3)).witness
    assert (witness.steps, witness.configs) == (((3, 1),), (0b000, 0b100))
    fig1 = games["fig1"]
    witness = global_reachability(fig1, enumerate_nash(fig1)).witness
    assert witness.steps == (
        (9, 1), (10, 1), (12, 1), (1, 1), (2, 1), (7, 1), (8, 1), (12, 0)
    )
    fig5 = games["fig5"]
    x0 = fig5.parse_bits("01100100010")
    witness = reachability_from(fig5, x0, cg.consensus_equilibria(fig5)).witness
    assert witness.steps == ((5, 1), (4, 1), (1, 1))
    assert [fig5.format_bits(x) for x in witness.configs] == [
        "01100100010", "01101100010", "01111100010", "11111100010"
    ]


def _bfs_distances(game, x0):
    """Oracle: moves from x0 to every configuration it reaches, by a plain
    breadth-first search over ``br_transitions``."""
    dist = {x0: 0}
    queue = deque((x0,))
    while queue:
        x = queue.popleft()
        for _, _, y in br_transitions(game, x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def test_closure_matches_per_source_bfs(knife_edge_game):
    rng, extra = random.Random(23), random.Random(19)
    nash_targets = 0
    for trial in range(140):
        if trial >= 100:
            game = cg.random_game(extra, extra.randint(2, 7), max_weight=4)
        elif trial % 2:
            game = knife_edge_game(rng, rng.randint(1, 8))
        else:
            game = cg.random_game(rng, rng.randint(1, 8), max_weight=4)
        states = 1 << game.n
        nash = enumerate_nash(game)
        if trial >= 100 and nash:
            nash_targets += 1
        target = nash or rng.sample(range(states), min(2, states))
        shortest = {}
        for x0 in range(states):
            dist = _bfs_distances(game, x0)
            assert reachable_set(game, x0) == set(dist)
            report = reachability_from(game, x0, target)
            assert report.reachable_count == len(dist)
            hits = [dist[t] for t in target if t in dist]
            assert report.reached == bool(hits)
            if hits:
                shortest[x0] = min(hits)
                assert not report.trap_states
                validate_br_path(game, report.witness)
                assert report.witness.start == x0 and report.witness.end in target
                assert len(report.witness) == shortest[x0]
            else:
                assert report.trap_states == frozenset(dist)
                assert report.witness is None
        report = global_reachability(game, target)
        assert report.reachable_count == len(shortest)
        assert report.trap_states == frozenset(range(states)) - set(shortest)
        assert hash(report.trap_states) == hash(frozenset(range(states)) - set(shortest))
        assert report.reached == (len(shortest) == states)
        if report.reached:
            validate_br_path(game, report.witness)
            assert report.witness.start == 0 and report.witness.end in target
            assert len(report.witness) == shortest[0]
        else:
            assert report.witness is None
    assert nash_targets > 10


def test_reports_hold_read_only_bitset_views(games):
    fig3 = games["fig3"]
    report = global_reachability(fig3, enumerate_nash(fig3))
    closure = reachable_set(fig3, _fig3_trap_starts(fig3)[0])
    assert global_reachability(fig3, enumerate_nash(fig3)).trap_states == report.trap_states
    assert report.trap_states != closure
    for view in (report.trap_states, closure):
        members = frozenset(view)
        assert isinstance(view, Set) and not isinstance(view, MutableSet)
        assert list(view) == sorted(members) and len(view) == len(members)
        assert view == members and hash(view) == hash(members)
        for x in (-1, 1 << fig3.n, "0", True, min(members), max(members)):
            assert (x in view) == (x in members)
        other = {min(members), -1}
        for result in (view & other, view | other, view - other, view ^ other, other - view):
            assert type(result) is frozenset
        assert view & other == {min(members)} and not view.isdisjoint(other)
    # View with view: the same answers as on their frozensets.
    for v in (report.trap_states, closure):
        for w in (report.trap_states, closure):
            fv, fw = frozenset(v), frozenset(w)
            assert (v <= w, v < w, v >= w) == (fv <= fw, fv < fw, fv >= fw)
            assert v.isdisjoint(w) == fv.isdisjoint(fw)
            for op in (operator.and_, operator.or_, operator.sub, operator.xor):
                assert type(op(v, w)) is frozenset and op(v, w) == op(fv, fw)


def test_backward_closure_peak_memory():
    # 583,518 of the 2^20 configurations are traps; a Python set of them
    # alone would take tens of megabytes.
    game = cg.random_game(24, 20, Fraction(1, 10), coord_frac=1)
    target = cg.consensus_equilibria(game)
    tracemalloc.start()
    try:
        report = global_reachability(game, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.trap_states) == 583_518
    assert peak < 16 << 20


def test_nash_and_closures_share_the_best_response_table_in_memory():
    # Nash enumeration, the backward closure and one deep forward closure
    # (1,048,553 states) read one table of 2n full-cube sets.  Separate
    # tables for Nash and for each direction peak near 15.7 MB; the shared
    # one near 10.6 MB.
    game = cg.random_game(7, 20, Fraction(1, 3))
    tracemalloc.start()
    try:
        global_reachability(game, enumerate_nash(game))
        reached = reachable_set(game, 12345)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reached) == 1_048_553
    assert peak < 13 << 20


def test_nash_scan_stops_early_and_closures_build_only_the_rest(full_cube_builds):
    # Players 0 and 1 play matching pennies, so the scan is empty after
    # their two sets; a closure then builds the other players' sets once.
    game = Game(WeightedGraph(range(5), [(0, 1, 1), (2, 3, 1)]), [0, 2, 3], HALF)
    assert enumerate_nash(game) == []
    assert full_cube_builds == [0, 1]
    reachable_set(game, 0)
    global_reachability(game, [0])
    assert full_cube_builds == [0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "scan",
    [
        enumerate_nash,
        cg.consensus_equilibria,
        lambda game: cg.RestrictedGame(game, "anticoordinating", 0).nash(),
        lambda game: reachable_set(game, 0),
        # an out-of-range target: the cap is checked before the target
        lambda game: reachability_from(game, 0, [1 << game.n]),
        lambda game: global_reachability(game, [0]),
    ],
    ids=["nash", "consensus", "restricted", "reachable-set", "from", "global"],
)
def test_size_cap_fires_before_allocation(scan):
    # 24 edgeless anti-coordinating players: one set of 2^24 configurations
    # takes 2 MB.
    game = Game(WeightedGraph(range(24)), [], HALF)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            scan(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


# -- constructive consensus paths ---------------------------------------------


def test_path_from_consensus_equilibrium_is_empty(games):
    fig5 = games["fig5"]
    x_star = fig5.mask_of_ones(range(1, 7))  # ones on the clique, zeros outside
    assert is_nash(fig5, x_star)
    path = construct_consensus_path(fig5, x_star, mode="weak")
    assert len(path) == 0 and path.configs == (x_star,)


def test_path_fig5_from_mixed_start(games):
    fig5 = games["fig5"]
    x0 = fig5.mask_of_ones([1, 2, 3, 7, 9])  # balanced split on the clique
    path = construct_consensus_path(fig5, x0, mode="weak")
    validate_br_path(fig5, path)
    assert path.start == x0
    assert is_nash(fig5, path.end)
    assert path.end & fig5.coord_mask in (0, fig5.coord_mask)


def test_path_k3_mode_dependence(games):
    k3 = games["k3"]
    with pytest.raises(PreconditionError):
        construct_consensus_path(k3, 0, mode="strict")
    path = construct_consensus_path(k3, 0, mode="weak")
    validate_br_path(k3, path)
    assert is_nash(k3, path.end)


def test_path_calls_the_structure_predicates_by_their_dynamics_names(games, monkeypatch):
    # perfbench/tracing.py times the predicates by patching these names
    assert cg.dynamics.game_cohesiveness is cg.structure.game_cohesiveness
    assert cg.dynamics.game_indecomposability is cg.structure.game_indecomposability
    modes = []

    def counting(game, mode="strict"):
        modes.append(mode)
        return cg.structure.game_indecomposability(game, mode)

    monkeypatch.setattr(cg.dynamics, "game_indecomposability", counting)
    fig5 = games["fig5"]
    construct_consensus_path(fig5, fig5.mask_of_ones([1, 2, 3, 7, 9]), mode="weak")
    assert modes == ["weak"]


def test_weak_path_without_a_guarantee_is_a_precondition_failure(weak_only_game):
    game = weak_only_game
    assert cg.game_indecomposability(game, "weak").holds
    assert not cg.game_indecomposability(game, "strict").holds
    x0 = game.parse_bits("110000")
    with pytest.raises(PreconditionError, match="weak indecomposability does not guarantee"):
        construct_consensus_path(game, x0, mode="weak")
    # a path exists; the construction just does not find it
    assert reachability_from(game, x0, cg.consensus_equilibria(game)).reached


def test_path_requires_cohesiveness(games):
    b = games["fig2b"]  # player 6 breaks cohesiveness both ways
    with pytest.raises(PreconditionError, match="cohesive"):
        construct_consensus_path(b, 0, mode="weak")


def test_path_phases_raise_the_matching_potential():
    rng = random.Random(59)
    found = 0
    while found < 6:
        game = cg.random_game(rng, rng.randint(2, 7), max_weight=3)
        ok = (
            cg.game_cohesiveness(game, 1).holds or cg.game_cohesiveness(game, 0).holds
        ) and cg.game_indecomposability(game, "strict").holds
        if not ok:
            continue
        found += 1
        x0 = rng.randrange(1 << game.n)
        path = construct_consensus_path(game, x0)
        validate_br_path(game, path)
        assert is_nash(game, path.end)
        for before, after, (node, _) in zip(path.configs, path.configs[1:], path.steps):
            if node in game.coordinating:
                assert coordination_potential(game, after) > coordination_potential(game, before)
            else:
                assert anticoordination_potential(game, after) > anticoordination_potential(game, before)


def _consensus_path_by_rescan(game, x0, mode):
    """``construct_consensus_path`` as a full rescan per move: the first
    player of the active side whose action is not a best response by
    ``_br_bits``, the first tied coordinating player whose switch reaches
    the preferred consensus (else the first tied one), and ``is_nash`` at
    the end of each round."""
    coh_one = cg.game_cohesiveness(game, toward=1).holds
    if not (coh_one or cg.game_cohesiveness(game, toward=0).holds):
        raise PreconditionError("the coordinating set is not cohesive in either direction")
    indec = cg.game_indecomposability(game, mode=mode)
    if not indec.holds:
        w = indec.witness
        raise PreconditionError(
            f"the coordinating set is decomposable ({mode} mode): "
            f"parts {sorted(w.part0)} / {sorted(w.part1)}"
        )

    def violation(message):
        if mode == "strict":
            return GuaranteeViolationError(message)
        return PreconditionError(
            f"weak indecomposability does not guarantee a path from this start: {message}"
        )

    def restless(players):
        return next((k for k in players if not _br_bits(game, k, x) >> (x >> k & 1) & 1), None)

    coord = [k for k in range(game.n) if game.coord_mask >> k & 1]
    anti = [k for k in range(game.n) if not game.coord_mask >> k & 1]
    x, steps, configs = x0, [], [x0]
    prefer = 1 if coh_one else 0
    for _ in range(2):
        visited = {x}
        while True:
            k = restless(coord)
            if k is None:
                if x & game.coord_mask in (0, game.coord_mask):
                    break
                # no coordinating player is restless, so a switch that is a
                # best response is an exact tie
                ties = [j for j in coord if _br_bits(game, j, x) >> (1 - (x >> j & 1)) & 1]
                if not ties:
                    raise violation("no coordinating player can move toward consensus")
                toward = [j for j in ties if 1 - (x >> j & 1) == prefer]
                k = toward[0] if toward else ties[0]
            x ^= 1 << k
            steps.append((game.nodes[k], x >> k & 1))
            configs.append(x)
            if x in visited:
                raise violation("the coordinating phase revisited a configuration")
            visited.add(x)
        while (k := restless(anti)) is not None:
            x ^= 1 << k
            steps.append((game.nodes[k], x >> k & 1))
            configs.append(x)
        if is_nash(game, x):
            return BRPath(tuple(steps), tuple(configs))
        prefer = 0 if x & game.coord_mask else 1
    raise violation("the two-phase construction did not terminate at an equilibrium")


def _clique_with_chain(rng, m, n):
    """K_m of coordinating players at r = 1/10 with a chain of n - m
    anti-coordinating players at r = 1/2 hanging off member 1, chain
    weights 1 to 3."""
    ids = range(1, n + 1)
    edges = [(u, v, 1) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    edges += [(1, m + 1, 1)] + [(u, u + 1, rng.randint(1, 3)) for u in range(m + 1, n)]
    thresholds = {v: Fraction(1, 10) if v <= m else HALF for v in ids}
    return Game(WeightedGraph(ids, edges), range(1, m + 1), thresholds)


def test_consensus_path_matches_the_rescan_construction(knife_edge_game):
    rng = random.Random(67)
    games = [knife_edge_game(rng, rng.randint(1, 14)) for _ in range(200)]
    # uniform thresholds of 1/2 with small weights give the tie moves whose
    # switch leaves the preferred consensus
    games += [cg.random_game(rng, rng.randint(1, 14), rng.choice((HALF, Fraction(1, 4))),
                             rng.choice((HALF, Fraction(3, 4), 1)),
                             threshold=rng.choice(("random", HALF)), max_weight=rng.randint(1, 3))
              for _ in range(400)]
    chains = [_clique_with_chain(rng, m, 64) for m in (16, 14, 12)]
    paths = chain_paths = ties = construction_failures = 0
    for game, runs in [(game, 3) for game in games] + [(game, 20) for game in chains]:
        starts = [rng.getrandbits(game.n) for _ in range(runs)]
        for mode in ("strict", "weak"):
            for x0 in starts:
                try:
                    want = _consensus_path_by_rescan(game, x0, mode)
                except (PreconditionError, GuaranteeViolationError) as exc:
                    with pytest.raises(type(exc)) as got:
                        construct_consensus_path(game, x0, mode)
                    assert type(got.value) is type(exc) and str(got.value) == str(exc)
                    construction_failures += str(exc).startswith("weak indecomposability")
                    continue
                assert construct_consensus_path(game, x0, mode) == want, (game.n, x0, mode)
                paths += 1
                chain_paths += runs == 20
                ties += sum(
                    _br_bits(game, game.graph.index(v), before) == 3
                    for (v, _), before in zip(want.steps, want.configs)
                )
    assert chain_paths == 3 * 2 * 20  # both modes succeed from every chain start
    assert paths > 500 and ties > 0 and construction_failures > 0


# -- path validation -----------------------------------------------------------


def test_validator_rejects_corrupted_paths(games):
    k3 = games["k3"]
    good = construct_consensus_path(k3, 0, mode="weak")
    # two players changed in one step
    with pytest.raises(PathValidationError, match="changed"):
        validate_br_path(k3, BRPath(((3, 1),), (0b000, 0b111)))
    # recorded action does not match the configuration
    with pytest.raises(PathValidationError, match="does not apply"):
        validate_br_path(k3, BRPath(((3, 0),), (0b000, 0b100)))
    with pytest.raises(PathValidationError, match="does not apply action 1.0 of 3"):
        validate_br_path(k3, BRPath(((3, 1.0),), (0b000, 0b100)))
    # move that is not a best response (player 3 must switch to 1 at 000)
    with pytest.raises(PathValidationError, match="not a best response"):
        validate_br_path(k3, BRPath(((1, 1),), (0b000, 0b001)))
    # length mismatch
    with pytest.raises(PathValidationError, match="configurations"):
        validate_br_path(k3, BRPath(good.steps, good.configs + (0,)))
    # a step that is not a (node, action) pair
    for step in ((1,), (1, 1, 5), 7):
        with pytest.raises(PathValidationError, match=r"^step 0: .* is not a \(node, action\) pair"):
            validate_br_path(k3, BRPath((step,), (0b000, 0b001)))
    # an unknown node is bad input, as in every evaluator
    with pytest.raises(GameInputError, match="unknown node 9"):
        validate_br_path(k3, BRPath(((9, 1),), (0b000, 0b001)))
    # no-op steps are allowed when the action is optimal
    validate_br_path(k3, BRPath(((3, 1),), (0b100, 0b100)))


# -- simulation -----------------------------------------------------------------


def test_simulation_absorbs_immediately_at_equilibrium(games):
    fig3 = games["fig3"]
    x_star = fig3.mask_of_actions({i: 1 for i in range(1, 10)} | {10: 0})
    for scheduler in cg.simulation.SCHEDULERS:
        traj = simulate(fig3, x_star, scheduler=scheduler, seed=0, max_steps=100)
        assert traj.status == "absorbed-at-NE"
        assert traj.activations <= fig3.n


def test_simulation_fig3_traps_never_absorb(games):
    fig3 = games["fig3"]
    for x0 in _fig3_trap_starts(fig3):
        for seed in range(4):
            traj = simulate(fig3, x0, scheduler="uniform-random", seed=seed, max_steps=250)
            assert traj.status != "absorbed-at-NE"


def test_simulation_is_deterministic_per_seed(games):
    fig5 = games["fig5"]
    a = simulate(fig5, 0, scheduler="uniform-random", seed=42, max_steps=500)
    b = simulate(fig5, 0, scheduler="uniform-random", seed=42, max_steps=500)
    assert a == b
    c = simulate(fig5, 0, scheduler="uniform-random", seed=43, max_steps=500)
    assert (a.configs, a.status) != (c.configs, c.status) or a.activations != c.activations


def test_simulation_steps_are_valid_transitions(games):
    fig5 = games["fig5"]
    traj = simulate(fig5, fig5.mask_of_ones([1, 2, 3]), seed=7, max_steps=400)
    for before, after in zip(traj.configs, traj.configs[1:]):
        flips = before ^ after
        assert flips and not flips & (flips - 1)  # exactly one bit
        k = flips.bit_length() - 1
        node = fig5.nodes[k]
        assert (after >> k & 1) in cg.best_response(fig5, node, before)


def _greedy_by_utility(game, x):
    """The player whose switch raises its own utility most, the first on
    ties; None when no switch raises any utility."""
    best_k, best_gain = None, 0
    for k, v in enumerate(game.nodes):
        gain = utility(game, v, x ^ (1 << k)) - utility(game, v, x)
        if gain > best_gain:
            best_k, best_gain = k, gain
    return best_k


def _prime_weight_game(rng, n):
    """Random game whose edge weights carry many different prime
    denominators, so the game's common integer scale is far from every
    player's own."""
    primes = [p for p in range(2, 400) if all(p % d for d in range(2, p))]
    ids = range(1, n + 1)
    pairs = [(u, v) for u in ids for v in ids if u < v and rng.random() < 0.15]
    edges = [
        (u, v, Fraction(rng.randint(1, 5), primes[i % len(primes)]))
        for i, (u, v) in enumerate(pairs)
    ]
    thresholds = {v: cg.generate.random_threshold(rng) for v in ids}
    return Game(WeightedGraph(ids, edges), [v for v in ids if rng.random() < 0.7], thresholds)


def _table_games(rng, knife_edge_game):
    """Knife-edge, prime-weight and random games of up to 64 players."""
    games = [knife_edge_game(rng, rng.randint(1, 10)) for _ in range(20)]
    games += [_prime_weight_game(rng, rng.randint(20, 64)) for _ in range(3)]
    games += [cg.random_game(rng, rng.randint(2, 64), Fraction(1, 8), max_weight=5)
              for _ in range(5)]
    return games


def test_integer_tables_match_the_fraction_products(knife_edge_game):
    rng = random.Random(5)
    for game in _table_games(rng, knife_edge_game):
        graph, scale = game.graph, game._scale
        assert game._nbrw == [
            tuple((graph.index(u), int(graph.weight(v, u) * scale)) for u in graph.neighbors(v))
            for v in game.nodes
        ]
        assert game._thr_int == [
            int(game.thresholds[v] * graph.degree(v) * scale) for v in game.nodes
        ]


def test_play_gains_match_the_best_responses(knife_edge_game):
    rng = random.Random(23)
    for game in _table_games(rng, knife_edge_game):
        for x in [0, (1 << game.n) - 1] + [rng.getrandbits(game.n) for _ in range(10)]:
            play = cg.simulation._Play(game, x)
            for k in range(game.n):
                code = _br_bits(game, k, x)
                assert (play.gain[k] > 0) == (not code >> (x >> k & 1) & 1), (game.n, x, k)
                assert (play.gain[k] == 0) == (code == 3), (game.n, x, k)
            assert play.restless == {k for k in range(game.n) if play.gain[k] > 0}
            assert play.bits == [play.x >> k & 1 for k in range(game.n)]


def test_flips_keep_the_gains_of_a_fresh_start(knife_edge_game):
    rng = random.Random(29)
    moves = 0
    for game in _table_games(rng, knife_edge_game):
        play = cg.simulation._Play(game, rng.getrandbits(game.n))
        for _ in range(200):
            movable = [k for k in range(game.n) if play.gain[k] >= 0]
            if not movable:
                break
            assert play.flip(rng.choice(movable)) == play.x
            moves += 1
            assert play.bits == [play.x >> k & 1 for k in range(game.n)]
            fresh = cg.simulation._Play(game, play.x)
            assert (play.gain, play.restless) == (fresh.gain, fresh.restless)
    assert moves > 1000


def test_uniform_draw_is_randrange():
    # simulate draws its uniform-random mover as getrandbits(n.bit_length())
    # until the draw is below n: CPython's randrange(n) on Python 3.10-3.12.
    for n in range(1, 65):
        for seed in range(20):
            expected = random.Random(seed)
            rng = random.Random(seed)
            for _ in range(10):
                k = rng.getrandbits(n.bit_length())
                while k >= n:
                    k = rng.getrandbits(n.bit_length())
                assert k == expected.randrange(n), (n, seed)


def test_greedy_pick_is_the_argmax_of_utility_gains(knife_edge_game):
    rng = random.Random(61)
    games = [knife_edge_game(rng, rng.randint(2, 10)) for _ in range(40)]
    games += [cg.random_game(rng, rng.randint(48, 64), max_weight=3) for _ in range(3)]
    games += [_prime_weight_game(rng, rng.randint(48, 64)) for _ in range(3)]
    checked = 0
    for game in games:
        for _ in range(6):
            x0 = rng.getrandbits(game.n)
            traj = simulate(game, x0, "greedy-potential", rng.randrange(100), 200)
            for before, after in zip(traj.configs, traj.configs[1:]):
                checked += 1
                assert 1 << _greedy_by_utility(game, before) == before ^ after, before
            if traj.status == "absorbed-at-NE":
                assert _greedy_by_utility(game, traj.configs[-1]) is None
    assert checked > 500


def _simulate_by_rescan(game, x0, scheduler, seed, max_steps):
    """``simulate`` as a full rescan per tick: ``is_nash`` for absorption,
    ``_br_bits`` for the mover's best responses, and greedy's pick as the
    argmax of ``utility`` gains."""
    rng = random.Random(seed)
    x = x0
    configs = [x0]
    ticks = 0
    seen = None if scheduler == "uniform-random" else set()
    while True:
        if is_nash(game, x):
            status = "absorbed-at-NE"
            break
        if ticks >= max_steps:
            status = "step-cap"
            break
        if scheduler == "round-robin":
            k = ticks % game.n
        elif scheduler == "uniform-random":
            k = rng.randrange(game.n)
        else:
            k = _greedy_by_utility(game, x)
        if seen is not None:
            if (x, k) in seen:
                status = "cycle-detected"
                break
            seen.add((x, k))
        ticks += 1
        bits = _br_bits(game, k, x)
        cur = x >> k & 1
        if bits == 3:
            seen = None
            if rng.getrandbits(1):
                x ^= 1 << k
                configs.append(x)
        elif not bits >> cur & 1:
            x ^= 1 << k
            configs.append(x)
    return cg.simulation.Trajectory(x0, tuple(configs), ticks, status, seed, scheduler)


def test_incremental_simulation_matches_a_full_rescan(knife_edge_game):
    rng = random.Random(13)
    games = [knife_edge_game(rng, rng.randint(1, 12)) for _ in range(30)]
    games += [cg.random_game(rng, rng.randint(2, 64), rng.choice((HALF, Fraction(1, 8))),
                             rng.choice((0, HALF, 1)), max_weight=5) for _ in range(12)]
    games += [_prime_weight_game(rng, rng.randint(20, 64)) for _ in range(3)]
    games += _table_games(random.Random(37), knife_edge_game)
    statuses = set()
    ties = 0
    for game in games:
        for scheduler in cg.simulation.SCHEDULERS:
            for seed, max_steps in ((0, 0), (1, 3), (1, 7), (2, 300), (2, 400), (3, 1500),
                                    (3, 2000)):
                x0 = rng.getrandbits(game.n)
                got = simulate(game, x0, scheduler, seed, max_steps)
                assert got == _simulate_by_rescan(game, x0, scheduler, seed, max_steps), (
                    game.n, scheduler, seed, max_steps)
                statuses.add((scheduler, got.status))
                for before, after in zip(got.configs, got.configs[1:]):
                    ties += _br_bits(game, (before ^ after).bit_length() - 1, before) == 3
    assert len(statuses) == 8  # every status under every scheduler that can give it
    assert ties > 1000  # coin flips that switched a tied player


def test_simulation_validates_inputs(games):
    with pytest.raises(GameInputError):
        simulate(games["pennies"], 0, scheduler="alphabetical")
    with pytest.raises(GameInputError):
        simulate(games["pennies"], 0, max_steps=-1)
    for bad in ("5", 1.5):
        with pytest.raises(GameInputError, match="max_steps must be an integer"):
            simulate(games["pennies"], 0, max_steps=bad)
    with pytest.raises(SizeCapError, match="cap"):
        simulate(games["pennies"], 0, max_steps=cg.simulation.STEP_CAP + 1)
    with pytest.raises(GameInputError, match="seed must be non-negative, got -11"):
        simulate(games["fig1"], 5, seed=-11)
    k3 = games["k3"]
    assert simulate(k3, k3.parse_bits("001"), max_steps=cg.simulation.STEP_CAP).status == "absorbed-at-NE"


def test_zero_step_budget_reports_cap_unless_already_stable(games):
    pennies = games["pennies"]
    assert simulate(pennies, 0, max_steps=0).status == "step-cap"
    k3 = games["k3"]
    stable = k3.parse_bits("001")
    assert simulate(k3, stable, max_steps=0).status == "absorbed-at-NE"
