"""Seeded asynchronous best-response runs, on a table of exact switching
gains kept up to date move by move."""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import GameInputError, SizeCapError
from .game import Game, _check_config
from .rationals import shown

SCHEDULERS = ("round-robin", "uniform-random", "greedy-potential")
# Largest step budget of one simulated run: a run keeps every state change.
STEP_CAP = 10**6


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
