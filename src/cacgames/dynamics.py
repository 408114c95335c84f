"""Best-response dynamics over the configuration space.

A transition flips a single player's action to one of its current best
responses.  Re-picking the current action is allowed by the update rule but
never changes the state, so the transition relation used for reachability
keeps only the state-changing moves.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import compress, count
from operator import not_
from typing import Iterable, Optional

from .errors import (
    GameInputError,
    GuaranteeViolationError,
    PathValidationError,
    PreconditionError,
)
from .game import Game, _check_cap, _restless, is_nash
from .rationals import shown
from .structure import game_cohesiveness, game_indecomposability

SCHEDULERS = ("round-robin", "uniform-random", "greedy-potential")


@dataclass(frozen=True)
class BRPath:
    """A validated-by-construction sequence of single-player updates.

    ``configs`` has one more entry than ``steps``; step k moves player
    ``steps[k][0]`` to action ``steps[k][1]`` between ``configs[k]`` and
    ``configs[k+1]``.
    """

    steps: tuple
    configs: tuple

    @property
    def start(self) -> int:
        return self.configs[0]

    @property
    def end(self) -> int:
        return self.configs[-1]

    def __len__(self) -> int:
        return len(self.steps)


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
                f"step {k}: configuration does not apply action {action} of {shown(node)}"
            )
        if not game._br_bits(game.graph.index(node), before) >> action & 1:
            raise PathValidationError(
                f"step {k}: action {action} is not a best response of {shown(node)}"
            )


def br_transitions(game: Game, x: int) -> list:
    """All state-changing single-player updates from ``x``.

    Returns (node, new_action, new_configuration) triples in ascending node
    order.  Empty exactly when every player strictly prefers its current
    action (a tie still contributes a move to the other action).
    """
    out = []
    for k in range(game.n):
        cur = x >> k & 1
        if game._br_bits(k, x) >> (1 - cur) & 1:
            out.append((game.nodes[k], 1 - cur, x ^ (1 << k)))
    return out


def _closure(game: Game, sources, backward: bool) -> array:
    """Breadth-first closure of ``sources`` under best-response moves.

    Returns one layer per configuration: 1 + moves to the nearest source,
    0 outside the closure.  A backward closure follows moves into x: player
    k can move into x exactly when x's own bit at k is a best response
    against x.
    """
    along = 0 if backward else 1
    br = game._br_bits
    n = game.n
    depth = array("I", [0]) * (1 << n)
    frontier = deque(sources)
    for x in frontier:
        depth[x] = 1
    while frontier:
        x = frontier.popleft()
        layer = depth[x] + 1
        for k in range(n):
            if br(k, x) >> ((x >> k & 1) ^ along) & 1:
                y = x ^ (1 << k)
                if not depth[y]:
                    depth[y] = layer
                    frontier.append(y)
    return depth


def _members(depth, inside: bool = True) -> frozenset:
    """The configurations inside a closure's layers, or outside them."""
    return frozenset(compress(count(), depth if inside else map(not_, depth)))


def _walk(game: Game, depth, x: int, backward: bool) -> BRPath:
    """Shortest path between ``x`` and the closure's sources, read from the
    layers: from ``x`` down, each move is the lowest player index that drops
    one layer.  The path is returned in the direction of play.
    """
    # The mover's action: over a backward closure x moves on to y, so the
    # action is the one x switches to; over a forward closure y moved into x.
    along = 1 if backward else 0
    configs, steps = [x], []
    for layer in range(depth[x] - 1, 0, -1):
        for k in range(game.n):
            y = x ^ (1 << k)
            action = (x >> k & 1) ^ along
            if depth[y] == layer and game._br_bits(k, x) >> action & 1:
                break
        steps.append((game.nodes[k], action))
        x = y
        configs.append(x)
    if not backward:
        configs.reverse()
        steps.reverse()
    return BRPath(tuple(steps), tuple(configs))


def _check_config(game: Game, x, what: str) -> None:
    if not isinstance(x, int) or not 0 <= x < 1 << game.n:
        raise GameInputError(f"{what} configuration {x!r} is out of range")


def _target_set(game: Game, target: Iterable) -> frozenset:
    target_set = frozenset(target)
    if not target_set:
        raise GameInputError("target set must be non-empty")
    for t in target_set:
        _check_config(game, t, "target")
    return target_set


def reachable_set(game: Game, x0: int) -> set:
    """Forward closure of one configuration under best-response moves."""
    _check_cap(game.n)
    _check_config(game, x0, "source")
    return set(_members(_closure(game, (x0,), backward=False)))


@dataclass(frozen=True)
class ReachabilityReport:
    """Result of a reachability query.

    ``source`` is a configuration mask or "all".  For a single source,
    ``reachable_count`` is the size of its forward closure; for "all" it is
    the number of configurations from which the target can be reached.
    ``witness`` is present exactly when the target was reached.
    """

    source: object
    reached: bool
    reachable_count: int
    trap_states: frozenset
    witness: Optional[BRPath]


def reachability_from(game: Game, x0: int, target: Iterable) -> ReachabilityReport:
    """Forward closure of one configuration, checked against a target set.

    The witness ends at the lowest of the nearest targets and is read back
    from the closure's layers.  When the target cannot be reached, the whole
    forward closure is reported as trapped.
    """
    _check_cap(game.n)  # before the target check, as in global_reachability
    target_set = _target_set(game, target)
    _check_config(game, x0, "source")
    depth = _closure(game, (x0,), backward=False)
    nearest = min(((depth[t], t) for t in target_set if depth[t]), default=None)
    if nearest is None:
        members = _members(depth)
        return ReachabilityReport(x0, False, len(members), members, None)
    witness = _walk(game, depth, nearest[1], backward=False)
    return ReachabilityReport(x0, True, len(depth) - depth.count(0), frozenset(), witness)


def global_reachability(game: Game, target: Iterable) -> ReachabilityReport:
    """Decide whether the target set is reachable from every configuration.

    Works backward from the target.  When every configuration is reached,
    the witness is the path from configuration 0 read from the same closure.
    """
    _check_cap(game.n)
    target_set = _target_set(game, target)
    depth = _closure(game, target_set, backward=True)
    if depth.count(0):
        traps = _members(depth, inside=False)
        return ReachabilityReport("all", False, len(depth) - len(traps), traps, None)
    witness = _walk(game, depth, 0, backward=True)
    return ReachabilityReport("all", True, len(depth), frozenset(), witness)


# -- constructive path to a consensus equilibrium -----------------------


def _tie_move(game: Game, x: int, side_idx, prefer_action: int) -> Optional[int]:
    fallback = None
    for k in side_idx:
        cur = x >> k & 1
        if game._br_bits(k, x) >> (1 - cur) & 1:
            if 1 - cur == prefer_action:
                return k
            if fallback is None:
                fallback = k
    return fallback


def _consensus_value(game: Game, x: int) -> Optional[int]:
    part = x & game.coord_mask
    if part == game.coord_mask:
        return 1
    if part == 0:
        return 0
    return None


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
    _check_config(game, x0, "start")
    coh_one = game_cohesiveness(game, toward=1).holds
    coh_zero = game_cohesiveness(game, toward=0).holds
    if not (coh_one or coh_zero):
        raise PreconditionError(
            "the coordinating set is not cohesive in either direction"
        )
    indec = game_indecomposability(game, mode=mode)
    if not indec.holds:
        w = indec.witness
        raise PreconditionError(
            f"the coordinating set is decomposable ({mode} mode): "
            f"parts {sorted(w.part0)} / {sorted(w.part1)}"
        )
    backed_action = 1 if coh_one else 0

    steps: list = []
    configs = [x0]
    x = x0

    def violation(message: str) -> Exception:
        if mode == "strict":
            return GuaranteeViolationError(message)
        return PreconditionError(
            f"weak indecomposability does not guarantee a path from this start: {message}"
        )

    def move(k: int, action: int) -> None:
        nonlocal x
        x = (x & ~(1 << k)) | (action << k)
        steps.append((game.nodes[k], action))
        configs.append(x)

    def coordinating_phase(prefer: int) -> None:
        # Walk until the coordinating side is both at consensus and free of
        # strictly improving moves.  Improving moves never need the
        # preference hint; tie moves do (and only occur in weak mode).
        visited = {x}
        while True:
            k = _restless(game, x, game._coord_idx)
            if k is None:
                if _consensus_value(game, x) is not None:
                    return
                k = _tie_move(game, x, game._coord_idx, prefer)
            if k is None:
                raise violation("no coordinating player can move toward consensus")
            move(k, 1 - (x >> k & 1))
            if x in visited:
                raise violation("the coordinating phase revisited a configuration")
            visited.add(x)

    def anticoordinating_phase() -> None:
        while True:
            k = _restless(game, x, game._anti_idx)
            if k is None:
                return
            move(k, 1 - (x >> k & 1))

    # The coordinating phase returns only at consensus and the second phase
    # moves no coordinating player, so a round always ends at consensus.
    prefer = backed_action
    for _ in range(2):
        coordinating_phase(prefer)
        anticoordinating_phase()
        if is_nash(game, x):
            return BRPath(tuple(steps), tuple(configs))
        prefer = 1 - _consensus_value(game, x)
    raise violation("the two-phase construction did not terminate at an equilibrium")


# -- stochastic simulation ----------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """One simulated run of asynchronous best-response updates.

    ``configs`` records the start and every state change; ``activations``
    counts scheduler ticks including the ones that changed nothing.
    """

    start: int
    configs: tuple
    activations: int
    status: str
    seed: int
    scheduler: str


def simulate(
    game: Game,
    x0: int,
    scheduler: str = "uniform-random",
    seed: int = 0,
    max_steps: int = 1000,
) -> Trajectory:
    """Activate one player at a time until an equilibrium absorbs the run,
    a cycle is proven, or the step budget runs out.

    An activated player switches to its unique best response; on an exact
    tie it keeps its current action with probability one half.  Cycles are
    only reported when the trajectory so far was provably deterministic
    (round-robin or greedy scheduling with no randomized tie yet).
    """
    if scheduler not in SCHEDULERS:
        raise GameInputError(f"unknown scheduler {scheduler!r}; pick one of {SCHEDULERS}")
    if max_steps < 0:
        raise GameInputError("max_steps must be non-negative")
    _check_config(game, x0, "start")
    rng = random.Random(seed)
    x = x0
    configs = [x0]
    ticks = 0
    # (state, player) pairs while the run is deterministic: round-robin's and
    # greedy's next pair is a function of the last, so a repeat is a cycle.
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
        else:  # greedy-potential: biggest own improvement first
            k = _greedy_pick(game, x)
        if seen is not None:
            if (x, k) in seen:
                status = "cycle-detected"
                break
            seen.add((x, k))
        ticks += 1
        bits = game._br_bits(k, x)
        cur = x >> k & 1
        if bits == 3:
            seen = None
            if rng.getrandbits(1):
                x ^= 1 << k
                configs.append(x)
        elif not bits >> cur & 1:
            x ^= 1 << k
            configs.append(x)
    return Trajectory(x0, tuple(configs), ticks, status, seed, scheduler)


def _greedy_pick(game: Game, x: int) -> int:
    """The restless player with the largest exact gain from switching, the
    lowest index on ties.  Switching to 1 gains ``sign * (s - r * w)`` for
    1-neighbor weight s, on the game's one integer scale."""
    best_k, best_gain = None, 0
    for k in range(game.n):
        margin = sum(w for j, w in game._nbrw[k] if x >> j & 1) - game._thr_int[k]
        gain = game._sign[k] * (-margin if x >> k & 1 else margin)
        if gain > best_gain:
            best_k, best_gain = k, gain
    return best_k
