"""``cacgames analyze``: structural predicates, equilibria, reachability."""

from __future__ import annotations

from functools import cache

from ..errors import SizeCapError
from ..game import Game
from ..rationals import format_rational
from . import SCHEMA_PREFIX, _add_game_argument, _emit, _resolve_game

options = _add_game_argument


def _threshold_summary(game: Game) -> dict:
    values = set(game.thresholds.values())
    if len(values) == 1:
        return {"uniform": format_rational(next(iter(values)))}
    return {
        "per_node": {str(v): format_rational(game.thresholds[v]) for v in game.nodes}
    }


def _indecomposability_json(report) -> dict:
    w = report.witness
    witness = None if w is None else {"part0": sorted(w.part0), "part1": sorted(w.part1)}
    return {"holds": report.holds, "witness": witness}


def _cohesiveness_json(report) -> dict:
    return {
        "holds": report.holds,
        "violators": [
            {"node": v, "inside": format_rational(w), "required": format_rational(req)}
            for v, w, req in report.violators
        ],
    }


def run(args) -> int:
    """Print the report's stages in order.  A stage whose scan hits a size cap
    holds a skipped object, and ``main`` reports the first cap with exit 2."""
    from ..configsets import consensus_equilibria, enumerate_nash, global_reachability
    from ..structure import game_cohesiveness, game_indecomposability

    game = _resolve_game(args.game, r=args.r)
    nash = cache(lambda: enumerate_nash(game))
    # The consensus scans enumerate only the anti-coordinating side, so they
    # can answer on games too large for the full Nash scan.
    ones = cache(lambda: consensus_equilibria(game, action=1))
    zeros = cache(lambda: consensus_equilibria(game, action=0))
    capped = []

    def stage(compute):
        try:
            return compute()
        except SizeCapError as exc:
            capped.append(exc)
            return {"status": "skipped-size-cap", "detail": str(exc)}

    def bits(configs) -> list:
        return [game.format_bits(x) for x in configs]

    def reachability() -> dict:
        consensus = ones() + zeros()
        target = consensus or nash()
        if not target:
            return {"status": "not-applicable"}
        reach = global_reachability(game, target)
        return {
            "status": "ok",
            "target": "consensus" if consensus else "nash",
            "reached": reach.reached,
            "reachable_count": reach.reachable_count,
            "trap_count": len(reach.trap_states),
        }

    _emit({
        "schema": f"{SCHEMA_PREFIX}-analysis/1",
        "game": {
            "source": args.game,
            "nodes": game.n,
            "edges": len(game.graph.edges()),
            "coordinating": sorted(game.coordinating),
            "anticoordinating": sorted(game.anticoordinating),
        },
        "thresholds": _threshold_summary(game),
        "cohesiveness": {
            "consensus_one": _cohesiveness_json(game_cohesiveness(game, toward=1)),
            "consensus_zero": _cohesiveness_json(game_cohesiveness(game, toward=0)),
        },
        "indecomposability": {
            mode: stage(lambda: _indecomposability_json(game_indecomposability(game, mode=mode)))
            for mode in ("strict", "weak")
        },
        "nash_count": stage(lambda: len(nash())),
        "nash": stage(lambda: bits(nash())),
        "consensus_equilibria": stage(lambda: {"ones": bits(ones()), "zeros": bits(zeros())}),
        "reachability": stage(reachability),
    })
    if capped:
        raise capped[0]
    return 0
