"""Best-response paths: the update rule, and the constructive path to a
consensus equilibrium.

A transition flips a single player's action to one of its current best
responses.  Re-picking the current action is allowed by the update rule but
never changes the state, so the transitions listed here keep only the
state-changing moves.
"""

from __future__ import annotations

from typing import Optional

from .errors import GuaranteeViolationError, PathValidationError, PreconditionError
from .game import BRPath, Game, _check_config
from .rationals import shown
from .simulation import _Play


def validate_br_path(game: Game, path: BRPath) -> None:
    """Check the update rule at every step; raise PathValidationError on the
    first violation.  No-op steps (re-picking the current action) pass.
    """
    if len(path.configs) != len(path.steps) + 1:
        raise PathValidationError(
            f"{len(path.configs)} configurations for {len(path.steps)} steps"
        )
    for k, (node, action) in enumerate(path.steps):
        before = path.configs[k]
        after = path.configs[k + 1]
        bit = 1 << game.graph.index(node)
        if before & ~bit != after & ~bit:
            raise PathValidationError(f"step {k}: players other than {shown(node)} changed")
        if (1 if after & bit else 0) != action:
            raise PathValidationError(
                f"step {k}: configuration does not apply action {shown(action)} of {shown(node)}"
            )
        if not game._br_bits(game.graph.index(node), before) >> action & 1:
            raise PathValidationError(
                f"step {k}: action {shown(action)} is not a best response of {shown(node)}"
            )


def br_transitions(game: Game, x: int) -> list:
    """All state-changing single-player updates from ``x``.

    Returns (node, new_action, new_configuration) triples in ascending node
    order.  Empty exactly when every player strictly prefers its current
    action (a tie still contributes a move to the other action).
    """
    _check_config(game, x, "source")
    out = []
    for k in range(game.n):
        cur = x >> k & 1
        if game._br_bits(k, x) >> (1 - cur) & 1:
            out.append((game.nodes[k], 1 - cur, x ^ (1 << k)))
    return out


# -- constructive path to a consensus equilibrium -----------------------


def _consensus_value(game: Game, x: int) -> Optional[int]:
    part = x & game.coord_mask
    if part == game.coord_mask:
        return 1
    if part == 0:
        return 0
    return None


# The two structure predicates ``construct_consensus_path`` checks, imported
# on first call so that simulations and closures never compile ``structure``.
# They stay module names because ``perfbench/tracing.py`` times them here.
def game_cohesiveness(game: Game, toward: int = 1):
    from .structure import game_cohesiveness

    return game_cohesiveness(game, toward)


def game_indecomposability(game: Game, mode: str = "strict"):
    from .structure import game_indecomposability

    return game_indecomposability(game, mode)


def construct_consensus_path(game: Game, x0: int, mode: str = "strict") -> BRPath:
    """Build a best-response path from ``x0`` to an equilibrium whose
    coordinating players are at consensus.

    Requires the coordinating set to be cohesive in at least one direction
    and indecomposable in the requested mode.  The path runs in phases:
    first only coordinating players move until they agree, then only
    anti-coordinating players move until none can improve; if the result is
    not an equilibrium, the coordinating side walks to the opposite
    consensus and the second phase repeats once.

    Improving moves are preferred; exact-tie moves are used only when no
    player on the active side can strictly improve (they can be needed when
    ``mode="weak"``).  In strict mode, failure to make progress raises
    GuaranteeViolationError, since the preconditions provably rule it out.
    Weak indecomposability gives no such guarantee: there a stalled or
    revisiting construction raises PreconditionError.
    """
    from .structure import _check_mode

    _check_mode(mode)
    _check_config(game, x0, "start")
    coh_one = game_cohesiveness(game, toward=1).holds
    if not (coh_one or game_cohesiveness(game, toward=0).holds):
        raise PreconditionError(
            "the coordinating set is not cohesive in either direction"
        )
    indec = game_indecomposability(game, mode=mode)
    if not indec.holds:
        w = indec.witness
        parts = " / ".join(f"[{', '.join(map(shown, sorted(p)))}]" for p in (w.part0, w.part1))
        raise PreconditionError(
            f"the coordinating set is decomposable ({mode} mode): parts {parts}"
        )
    backed_action = 1 if coh_one else 0

    play = _Play(game, x0)
    steps: list = []
    configs = [x0]

    def violation(message: str) -> Exception:
        if mode == "strict":
            return GuaranteeViolationError(message)
        return PreconditionError(
            f"weak indecomposability does not guarantee a path from this start: {message}"
        )

    def mover(side: int) -> Optional[int]:
        """The lowest restless player on the side of sign ``side``."""
        return min((k for k in play.restless if game._sign[k] == side), default=None)

    def move(k: int) -> None:
        play.flip(k)
        steps.append((game.nodes[k], play.x >> k & 1))
        configs.append(play.x)

    def coordinating_phase(prefer: int) -> None:
        # Walk until the coordinating side is both at consensus and free of
        # strictly improving moves.  Improving moves never need the
        # preference hint; tie moves do (and only occur in weak mode).
        visited = {play.x}
        while True:
            k = mover(1)
            if k is None:
                if _consensus_value(game, play.x) is not None:
                    return
                # no coordinating player is restless, so the ones whose
                # switch is a best response are exactly the tied ones
                ties = [j for j in game._coord_idx if play.gain[j] == 0]
                if not ties:
                    raise violation("no coordinating player can move toward consensus")
                k = next((j for j in ties if play.x >> j & 1 != prefer), ties[0])
            move(k)
            if play.x in visited:
                raise violation("the coordinating phase revisited a configuration")
            visited.add(play.x)

    # The coordinating phase returns only at consensus and the second phase
    # moves no coordinating player, so a round always ends at consensus.
    prefer = backed_action
    for _ in range(2):
        coordinating_phase(prefer)
        while (k := mover(-1)) is not None:
            move(k)
        if not play.restless:
            return BRPath(tuple(steps), tuple(configs))
        prefer = 1 - _consensus_value(game, play.x)
    raise violation("the two-phase construction did not terminate at an equilibrium")
