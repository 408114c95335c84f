"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria 8 to 11 sweep seeded random instance suites; their
instance counts are fixed, so the whole file is deterministic.
"""

import json
import random
from fractions import Fraction

import pytest

import cacgames as cg
from cacgames.cli import main as cli_main

HALF = Fraction(1, 2)


def _report(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def _spread(bits, positions):
    x = 0
    for t, pos in enumerate(positions):
        if bits >> t & 1:
            x |= 1 << pos
    return x


@pytest.fixture(scope="module")
def random_suite():
    """500 seeded instances, 2..12 players, weights 1..4, random roles and
    rational thresholds.  Shared by criteria 9, 10 and 11."""
    rng = random.Random(120)
    return [cg.random_game(rng, rng.randint(2, 12), max_weight=4) for _ in range(500)]


@pytest.fixture(scope="module")
def identity_suite():
    rng = random.Random(8)
    return [cg.random_game(rng, rng.randint(2, 10), max_weight=4) for _ in range(200)]


def test_criterion_01_pennies_no_equilibrium_and_no_absorption(games):
    pennies = games["pennies"]
    assert cg.enumerate_nash(pennies) == []
    for scheduler in ("round-robin", "uniform-random", "greedy-potential"):
        for seed in range(10):
            for x0 in range(4):
                traj = cg.simulate(pennies, x0, scheduler, seed=seed, max_steps=120)
                assert traj.status != "absorbed-at-NE"
    _report(1, "two-player mismatch game has no equilibrium and never absorbs")


def test_criterion_02_fig2_family_equilibrium_sets(games):
    a = games["fig2a"]
    full_a = (1 << a.n) - 1
    x_star = a.mask_of_actions({1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
    nash_a = set(cg.enumerate_nash(a))
    assert {x_star, x_star ^ full_a} <= nash_a

    b = games["fig2b"]
    x2 = b.mask_of_actions({1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 0})
    nash_b = set(cg.enumerate_nash(b))
    assert {x2, x2 ^ ((1 << b.n) - 1)} <= nash_b

    assert cg.enumerate_nash(games["fig2c"]) == []
    _report(2, "edge deletions move the equilibria exactly as expected")


def test_criterion_03_fig3_traps_and_unreachable_equilibria(games):
    fig3 = games["fig3"]
    nash = cg.enumerate_nash(fig3)
    x_star = fig3.mask_of_actions({i: 1 for i in range(1, 10)} | {10: 0})
    full = (1 << fig3.n) - 1
    assert x_star in nash and x_star ^ full in nash

    nash_set = set(nash)
    for a in (0, 1):
        for b in (0, 1):
            x0 = fig3.mask_of_actions(
                {1: 1, 2: 1, 3: 1, 4: 1, 5: 0, 6: 0, 7: 0, 8: 0, 9: a, 10: b}
            )
            assert not cg.reachable_set(fig3, x0) & nash_set

    assert not cg.global_reachability(fig3, nash).reached
    _report(3, "all four trap completions avoid the equilibria; not globally reachable")


def test_criterion_04_fig1_cohesive_existence_and_recorded_verdict(games):
    fig1 = games["fig1"]
    assert fig1.thresholds[1] == Fraction(2, 5)
    assert cg.game_cohesiveness(fig1, toward=1).holds

    ones = cg.consensus_equilibria(fig1, action=1)
    assert ones != []

    printed = fig1.mask_of_actions(
        {i: 0 for i in range(1, 9)} | {9: 0, 10: 1, 11: 0, 12: 1, 13: 1}
    )
    verdict = cg.is_nash(fig1, printed)
    oracle_verdict = all(
        (printed >> fig1.graph.index(v) & 1) in cg.best_response_by_definition(fig1, v, printed)
        for v in fig1.nodes
    )
    assert verdict == oracle_verdict
    _report(
        4,
        f"coordinating side cohesive at 2/5, all-ones equilibria exist "
        f"({len(ones)}); recorded verdict for the printed configuration: {verdict}",
    )


def test_criterion_05_fig4_decomposition_witness_reverified(games):
    fig4 = games["fig4"]
    report = cg.game_indecomposability(fig4, mode="strict")
    assert not report.holds

    members = set(range(1, 7))
    part0, part1 = {1, 2, 3}, {4, 5, 6}
    witnesses = {
        (w.part0, w.part1)
        for w in cg.decomposition_witnesses(fig4.graph, members, HALF, "strict")
    }
    assert (frozenset(part0), frozenset(part1)) in witnesses
    assert (report.witness.part0, report.witness.part1) in witnesses

    # independent route: both labeled halves keep every own member at or
    # above the threshold once the anti-coordinating side is added
    g = fig4.graph
    outsiders = set(g.nodes) - members
    for i in sorted(part1):
        assert g.restricted_degree(i, part1 | outsiders) >= HALF * g.degree(i)
    for i in sorted(part0):
        assert g.restricted_degree(i, part0 | outsiders) >= (1 - HALF) * g.degree(i)
    _report(5, "triangle split re-verified as a decomposition by direct degree checks")


def test_criterion_06_k3_structure_and_global_reachability(games):
    k3 = games["k3"]
    assert cg.game_cohesiveness(k3, toward=1).holds
    report = cg.game_indecomposability(k3, mode="strict")
    assert not report.holds
    assert (report.witness.part0, report.witness.part1) == (frozenset({1}), frozenset({2}))

    x_star = k3.mask_of_actions({1: 0, 2: 0, 3: 1})
    target = [x_star, x_star ^ 0b111]
    assert set(cg.enumerate_nash(k3)) == set(target)
    assert cg.global_reachability(k3, target).reached
    _report(6, "triangle: cohesive, decomposable, equilibria globally reachable")


def test_criterion_07_fig5_reachable_consensus_and_mode_split(games):
    fig5 = games["fig5"]
    assert cg.game_cohesiveness(fig5, toward=1).holds

    consensus = cg.consensus_equilibria(fig5)
    assert consensus
    report = cg.global_reachability(fig5, consensus)
    assert report.reached and report.reachable_count == 1 << fig5.n

    strict = cg.game_indecomposability(fig5, mode="strict")
    weak = cg.game_indecomposability(fig5, mode="weak")
    assert weak.holds
    assert not strict.holds  # balanced clique splits tie the strict comparison
    _report(
        7,
        "consensus set globally reachable over 2^11 states; indecomposability "
        f"strict={strict.holds} (witness {sorted(strict.witness.part0)}|"
        f"{sorted(strict.witness.part1)}), weak={weak.holds}; the strict-mode "
        "discrepancy with the prose claim is recorded, not a failure",
    )


def _check_potential_identity(game):
    coord = [k for k in range(game.n) if game.coord_mask >> k & 1]
    anti = [k for k in range(game.n) if game.anti_mask >> k & 1]
    for moving, frozen, potential in (
        (coord, anti, cg.coordination_potential),
        (anti, coord, cg.anticoordination_potential),
    ):
        for fixed_bits in range(1 << len(frozen)):
            fixed = _spread(fixed_bits, frozen)
            phi = {}

            def phi_at(x):
                if x not in phi:
                    phi[x] = potential(game, x)
                return phi[x]

            for own_bits in range(1 << len(moving)):
                x = fixed | _spread(own_bits, moving)
                for k in moving:
                    if x >> k & 1:
                        continue  # each unordered flip pair once
                    flipped = x | (1 << k)
                    node = game.nodes[k]
                    du = cg.utility(game, node, flipped) - cg.utility(game, node, x)
                    assert du == phi_at(flipped) - phi_at(x), (node, x)


def test_criterion_08_potential_identities(games, identity_suite):
    for name, game in games.items():
        _check_potential_identity(game)
    for game in identity_suite:
        _check_potential_identity(game)
    _report(8, f"exact potential identity on {len(games)} fixtures and "
               f"{len(identity_suite)} random instances, both sides, every flip")


def test_criterion_09_cohesive_sets_support_consensus_equilibria(random_suite):
    hits = 0
    for index, game in enumerate(random_suite):
        if cg.game_cohesiveness(game, toward=1).holds:
            hits += 1
            assert cg.consensus_equilibria(game, action=1), index
        if cg.game_cohesiveness(game, toward=0).holds:
            hits += 1
            assert cg.consensus_equilibria(game, action=0), index
    assert hits > 50
    _report(9, f"existence guarantee held on all {hits} cohesive hypotheses in 500 instances")


def test_criterion_10_strict_indecomposability_gives_global_convergence(random_suite):
    qualifying = 0
    paths = 0
    for index, game in enumerate(random_suite):
        coh1 = cg.game_cohesiveness(game, toward=1).holds
        coh0 = cg.game_cohesiveness(game, toward=0).holds
        if not (coh1 or coh0):
            continue
        if not cg.game_indecomposability(game, mode="strict").holds:
            continue
        qualifying += 1

        # (i) one-side equilibria are consensus for every frozen opposite side
        anti_positions = [k for k in range(game.n) if game.anti_mask >> k & 1]
        for z_bits in range(1 << len(anti_positions)):
            fixed = _spread(z_bits, anti_positions)
            view = cg.RestrictedGame(game, "coordinating", fixed)
            allowed = {fixed, fixed | game.coord_mask}
            assert set(view.nash()) <= allowed, index

        # (ii) the consensus equilibria exist and are globally reachable
        consensus = cg.consensus_equilibria(game)
        assert consensus, index
        assert cg.global_reachability(game, consensus).reached, index

        # (iii) the two-phase construction works from 50 random starts
        rng = random.Random(10_000 + index)
        for _ in range(50):
            x0 = rng.randrange(1 << game.n)
            path = cg.construct_consensus_path(game, x0)
            cg.validate_br_path(game, path)
            assert path.start == x0
            assert cg.is_nash(game, path.end), index
            assert path.end & game.coord_mask in (0, game.coord_mask), index
            paths += 1
    assert qualifying >= 10
    _report(10, f"convergence guarantee held on {qualifying} qualifying instances "
                f"({paths} constructed paths)")


def test_criterion_11_best_response_routes_agree_everywhere(random_suite):
    small = [g for g in random_suite if g.n <= 10]
    assert small
    for game in small:
        for x in range(1 << game.n):
            for v in game.nodes:
                assert cg.best_response(game, v, x) == cg.best_response_by_definition(
                    game, v, x
                )
    _report(11, f"threshold and argmax best responses identical on {len(small)} instances")


def test_criterion_12_cli_output_is_byte_deterministic(capsys):
    commands = [
        ("analyze", "fig5"),
        ("analyze", "fig1", "--r", "2/5"),
        ("reach", "k3", "--all", "--target", "nash"),
        ("reach", "fig3", "--all", "--target", "nash"),
        ("reach", "fig3", "--from", "1111000000", "--target", "nash"),
        ("simulate", "fig3", "--from", "1111000000", "--runs", "5", "--seed", "9"),
        ("simulate", "fig5", "--runs", "3", "--seed", "4", "--scheduler", "round-robin"),
        ("simulate", "fig5", "--runs", "3", "--seed", "11"),
        ("path", "k3", "--from", "000", "--mode", "weak"),
        ("gen", "--nodes", "10", "--seed", "7"),
        ("gen", "--nodes", "9", "--seed", "5", "--threshold", "random"),
        ("export", "fig1"),
        ("export", "fig4"),
    ]
    for argv in commands:
        first_code = cli_main(list(argv))
        first = capsys.readouterr().out
        second_code = cli_main(list(argv))
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first == second, argv
        json_head = first.lstrip()[:1]
        assert json_head in ("{", "[", "g"), argv  # JSON object/array or DOT
    _report(12, f"{len(commands)} command invocations byte-identical across runs")
