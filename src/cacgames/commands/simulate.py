"""``cacgames simulate``: asynchronous best-response runs."""

from __future__ import annotations

import json
import random

from ..errors import GameInputError
from ..rationals import format_rational
from . import SCHEMA_PREFIX, _add_game_argument, _parse_pattern, _resolve_game, _sub_cube


def options(p) -> None:
    _add_game_argument(p)
    p.add_argument("--from", dest="from_", metavar="BITS", default=None,
                   help="start pattern (0/1/*); omitted means a seeded random start per run")
    p.add_argument("--scheduler", default="uniform-random",
                   help="round-robin, uniform-random (default) or greedy-potential")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--runs", type=int, default=1)


def run(args) -> int:
    from ..simulation import _check_run, simulate

    if args.runs < 0:
        raise GameInputError("--runs must be non-negative")
    _check_run(args.scheduler, args.max_steps, args.seed)
    game = _resolve_game(args.game, r=args.r)
    starts = None if args.from_ is None else _sub_cube(*_parse_pattern(game, args.from_))
    # a seed past Python's digit limit cannot be echoed: refuse before run 0
    format_rational(args.seed + args.runs - 1)
    for i in range(args.runs):
        seed = args.seed + i
        x0 = random.Random(seed).getrandbits(game.n) if starts is None else next(starts)
        traj = simulate(
            game,
            x0,
            scheduler=args.scheduler,
            seed=seed,
            max_steps=args.max_steps,
        )
        print(
            json.dumps(
                {
                    "schema": f"{SCHEMA_PREFIX}-trajectory/1",
                    "run": i,
                    "seed": seed,
                    "scheduler": traj.scheduler,
                    "start": game.format_bits(traj.start),
                    "final": game.format_bits(traj.configs[-1]),
                    "status": traj.status,
                    "activations": traj.activations,
                    "changes": len(traj.configs) - 1,
                }
            )
        )
    return 0
