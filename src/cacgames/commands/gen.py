"""``cacgames gen``: a random game file."""

from __future__ import annotations

import sys

from ..rationals import as_rational
from ..writers import serialize_game


def options(p) -> None:
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edge-prob", default="1/2")
    p.add_argument("--coord-frac", default="1/2")
    p.add_argument("--threshold", default="random", help="'random' or a rational like 1/2")
    p.add_argument("--max-weight", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)


def run(args) -> int:
    from ..generate import random_game

    game = random_game(
        args.seed,
        args.nodes,
        edge_prob=as_rational(args.edge_prob, what="--edge-prob"),
        coord_frac=as_rational(args.coord_frac, what="--coord-frac"),
        threshold=(args.threshold if args.threshold == "random"
                   else as_rational(args.threshold, what="--threshold")),
        max_weight=args.max_weight,
    )
    sys.stdout.write(serialize_game(game))
    return 0
