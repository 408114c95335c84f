"""Best-response dynamics over the configuration space.

A transition flips a single player's action to one of its current best
responses.  Re-picking the current action is allowed by the update rule but
never changes the state, so the transition relation used for reachability
keeps only the state-changing moves.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Optional

from .errors import (
    GameInputError,
    GuaranteeViolationError,
    PathValidationError,
    PreconditionError,
    SizeCapError,
)
from .game import ConfigSet, Game, _check_config, _config_bits, _cube, _stay
from .rationals import shown

SCHEDULERS = ("round-robin", "uniform-random", "greedy-potential")
# Largest step budget of one simulated run: a run keeps every state change.
STEP_CAP = 10**6


class BRPath(NamedTuple):
    """A validated-by-construction sequence of single-player updates.

    ``configs`` has one more entry than ``steps``; step k moves player
    ``steps[k][0]`` to action ``steps[k][1]`` between ``configs[k]`` and
    ``configs[k+1]``.  ``len`` counts steps, not fields, so the tuple
    helpers ``_make`` and ``_replace`` do not apply; build a new path.
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


def _closure(game: Game, sources: int, backward: bool) -> tuple:
    """Breadth-first closure of the configuration set ``sources`` (a bitset
    over the full cube) under best-response moves.

    Returns the closure as one bitset and one frontier bitset per layer:
    layer d holds the configurations d moves from the nearest source.  A
    move of player k lands in stay_k, the game's ``_stay`` set, and k's best
    response ignores k's own bit.  So with ``flip_k(S) = (S & ~lit_k) << 2^k
    | (S & lit_k) >> 2^k``, a backward layer (the moves into the frontier F)
    is ``OR_k flip_k(F & stay_k)`` and a forward one ``OR_k stay_k & flip_k(F)``.
    """
    table = [(lit, _stay(game, k)) for k, lit in _cube(game).items()]
    seen = frontier = sources
    layers = [frontier]
    while True:
        reached = 0
        for k, (lit, stay) in enumerate(table):
            f = frontier & stay if backward else frontier
            hi = f & lit
            moved = (f ^ hi) << (1 << k) | hi >> (1 << k)
            reached |= moved if backward else moved & stay
        frontier = reached & ~seen
        if not frontier:
            return seen, layers
        seen |= frontier
        layers.append(frontier)


def _walk(game: Game, layers, x: int, backward: bool) -> BRPath:
    """Shortest path between ``x`` and the closure's sources, read from the
    layers: from ``x`` down, each move is the lowest player index that drops
    one layer.  The path is returned in the direction of play.
    """
    # The mover's action: over a backward closure x moves on to y, so the
    # action is the one x switches to; over a forward closure y moved into x.
    along = 1 if backward else 0
    configs, steps = [x], []
    depth = next(d for d, layer in enumerate(layers) if layer >> x & 1)
    for layer in reversed(layers[:depth]):
        for k in range(game.n):
            y = x ^ (1 << k)
            action = (x >> k & 1) ^ along
            if game._br_bits(k, x) >> action & 1 and layer >> y & 1:
                break
        steps.append((game.nodes[k], action))
        x = y
        configs.append(x)
    if not backward:
        configs.reverse()
        steps.reverse()
    return BRPath(tuple(steps), tuple(configs))


def reachable_set(game: Game, x0: int) -> ConfigSet:
    """Forward closure of one configuration under best-response moves, as a
    read-only set."""
    return ConfigSet(_closure(game, _config_bits(game, (x0,), "source"), backward=False)[0])


class ReachabilityReport(NamedTuple):
    """Result of a reachability query.

    ``source`` is a configuration mask or "all".  For a single source,
    ``reachable_count`` is the size of its forward closure; for "all" it is
    the number of configurations from which the target can be reached.
    ``trap_states`` is a read-only set, ascending when iterated.
    ``witness`` is present, and the report is true, exactly when the target
    was reached.
    """

    source: object
    reached: bool
    reachable_count: int
    trap_states: ConfigSet
    witness: Optional[BRPath]

    def __bool__(self) -> bool:
        return self.reached


def reachability_from(game: Game, x0: int, target: Iterable) -> ReachabilityReport:
    """Forward closure of one configuration, checked against a target set.

    The witness ends at the lowest of the nearest targets and is read back
    from the closure's layers.  When the target cannot be reached, the whole
    forward closure is reported as trapped.
    """
    goal = _config_bits(game, target, "target")
    seen, layers = _closure(game, _config_bits(game, (x0,), "source"), backward=False)
    for layer in layers:
        hit = layer & goal
        if hit:
            witness = _walk(game, layers, (hit & -hit).bit_length() - 1, backward=False)
            return ReachabilityReport(x0, True, seen.bit_count(), ConfigSet(0), witness)
    return ReachabilityReport(x0, False, seen.bit_count(), ConfigSet(seen), None)


def global_reachability(game: Game, target: Iterable) -> ReachabilityReport:
    """Decide whether the target set is reachable from every configuration.

    Works backward from the target.  When every configuration is reached,
    the witness is the path from configuration 0 read from the same closure.
    """
    seen, layers = _closure(game, _config_bits(game, target, "target"), backward=True)
    traps = seen ^ ((1 << (1 << game.n)) - 1)
    if traps:
        return ReachabilityReport("all", False, seen.bit_count(), ConfigSet(traps), None)
    witness = _walk(game, layers, 0, backward=True)
    return ReachabilityReport("all", True, 1 << game.n, ConfigSet(0), witness)


# -- constructive path to a consensus equilibrium -----------------------


class _Play:
    """The best-response state of one walk, kept up to date move by move.

    ``gain[k]`` is what player k gains by switching its action in ``x``, on
    the game's integer scale; ``gain[k] == 0`` is an exact tie.  ``restless``
    holds the players with a positive gain, so ``x`` is an equilibrium exactly
    when it is empty.  Only ``flip`` changes the state.
    """

    __slots__ = ("x", "gain", "restless", "_nbrsw")

    def __init__(self, game: Game, x: int) -> None:
        self.x, self._nbrsw = x, game._nbrsw
        # Margins (gain of playing 1 over 0): at the all-zero state, then one
        # row per player at 1; a player at 1 gains the negated margin.
        self.gain = gain = [-s * t for s, t in zip(game._sign, game._thr_int)]
        ones = [k for k in range(game.n) if x >> k & 1]
        for j in ones:
            for k, sw in game._nbrsw[j]:
                gain[k] += sw
        for k in ones:
            gain[k] = -gain[k]
        self.restless = {k for k, g in enumerate(gain) if g > 0}

    def flip(self, k: int) -> None:
        """Switch player k, whose gain is not negative.  Only its neighbours'
        gains move; k's own gain changes sign, so it is at rest after."""
        self.x = x = self.x ^ 1 << k
        gain, restless = self.gain, self.restless
        gain[k] = -gain[k]
        restless.discard(k)
        # Neighbour j gains sign_j * w when its bit differs from k's new one.
        differs = ~x if x >> k & 1 else x
        for j, sw in self._nbrsw[k]:
            g = gain[j] = gain[j] + sw if differs >> j & 1 else gain[j] - sw
            if g > 0:
                restless.add(j)
            else:
                restless.discard(j)


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
    coh_zero = game_cohesiveness(game, toward=0).holds
    if not (coh_one or coh_zero):
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


# -- stochastic simulation ----------------------------------------------


class Trajectory(NamedTuple):
    """One simulated run of asynchronous best-response updates.

    ``configs`` records the start and every state change; ``activations``
    counts scheduler ticks including the ones that changed nothing.  It has
    no truth value of its own: like any non-empty tuple it is always true.
    """

    start: int
    configs: tuple
    activations: int
    status: str
    seed: int
    scheduler: str


def _check_run(scheduler: str, max_steps: int) -> None:
    """The run settings ``simulate`` accepts, checked before any run."""
    if scheduler not in SCHEDULERS:
        raise GameInputError(f"unknown scheduler {shown(scheduler)}; pick one of {SCHEDULERS}")
    if max_steps < 0:
        raise GameInputError("max_steps must be non-negative")
    if max_steps > STEP_CAP:
        raise SizeCapError(f"a budget of {shown(max_steps)} steps exceeds the cap of {STEP_CAP}")


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
    (round-robin or greedy scheduling with no randomized tie yet).  A
    budget above ``STEP_CAP`` raises SizeCapError.
    """
    _check_run(scheduler, max_steps)
    _check_config(game, x0, "start")
    getrandbits = random.Random(seed).getrandbits
    n = game.n
    width = n.bit_length()
    round_robin = scheduler == "round-robin"
    uniform = scheduler == "uniform-random"
    play = _Play(game, x0)
    gain, restless, flip = play.gain, play.restless, play.flip
    configs = [x0]
    ticks = 0
    # (state, player) pairs while the run is deterministic: round-robin's and
    # greedy's next pair is a function of the last, so a repeat is a cycle.
    seen = None if uniform else set()
    while True:
        if not restless:
            status = "absorbed-at-NE"
            break
        if ticks >= max_steps:
            status = "step-cap"
            break
        if round_robin:
            k = ticks % n
        elif uniform:
            # Random.randrange(n) as CPython 3.10-3.12 draws it, inlined
            k = getrandbits(width)
            while k >= n:
                k = getrandbits(width)
        else:  # greedy-potential: biggest own gain first, lowest index on ties
            k, top = -1, 0
            for j in restless:
                if gain[j] > top or gain[j] == top and j < k:
                    k, top = j, gain[j]
        if seen is not None:
            if (play.x, k) in seen:
                status = "cycle-detected"
                break
            seen.add((play.x, k))
        ticks += 1
        if gain[k] == 0:
            seen = None
            if not getrandbits(1):
                continue
        elif k not in restless:
            continue
        flip(k)
        configs.append(play.x)
    return Trajectory(x0, tuple(configs), ticks, status, seed, scheduler)
