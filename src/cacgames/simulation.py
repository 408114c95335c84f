"""Seeded asynchronous best-response runs, on a table of exact switching
gains kept up to date move by move."""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import GameInputError, SizeCapError
from .game import Game, _check_config
from .play import _Play
from .rationals import shown

SCHEDULERS = ("round-robin", "uniform-random", "greedy-potential")
# Largest step budget of one simulated run: a run keeps every state change.
STEP_CAP = 10**6


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


def _check_run(scheduler: str, max_steps: int, seed) -> None:
    """The run settings ``simulate`` accepts, checked before any run.  A
    negative int seed is refused: ``random.Random`` seeds with its absolute
    value, so it would repeat the positive seed's run."""
    if scheduler not in SCHEDULERS:
        raise GameInputError(f"unknown scheduler {shown(scheduler)}; pick one of {SCHEDULERS}")
    if not isinstance(max_steps, int):
        raise GameInputError(f"max_steps must be an integer, got {shown(max_steps)}")
    if max_steps < 0:
        raise GameInputError("max_steps must be non-negative")
    if max_steps > STEP_CAP:
        raise SizeCapError(f"a budget of {shown(max_steps)} steps exceeds the cap of {STEP_CAP}")
    if isinstance(seed, int) and seed < 0:
        raise GameInputError(f"seed must be non-negative, got {shown(seed)}")


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
    _check_run(scheduler, max_steps, seed)
    _check_config(game, x0, "start")
    getrandbits = random.Random(seed).getrandbits
    n = game.n
    width = n.bit_length()
    round_robin = scheduler == "round-robin"
    uniform = scheduler == "uniform-random"
    play = _Play(game, x0)
    gain, restless, flip = play.gain, play.restless, play.flip
    x = x0
    configs = [x0]
    ticks = 0
    # (state, player) pairs while the run is deterministic: round-robin's and
    # greedy's next pair is a function of the last, so a repeat is a cycle.
    # Each pair is one int: greedy's player is a function of the state, so
    # its key is the state alone; round-robin's is ``x * n + k``.
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
            key = x * n + k if round_robin else x
            if key in seen:
                status = "cycle-detected"
                break
            seen.add(key)
        ticks += 1
        if gain[k] == 0:
            seen = None
            if not getrandbits(1):
                continue
        elif k not in restless:
            continue
        x = flip(k)
        configs.append(x)
    return Trajectory(x0, tuple(configs), ticks, status, seed, scheduler)
