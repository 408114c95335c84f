"""Benchmark workloads: which games each one builds, which CLI calls it
makes, why it exists, and which layers it uses or skips.

Every game comes from ``random_game`` (the generator behind ``cacgames
gen``) or from a complete graph built the same way, with node ids 1..n.
The workload seed relabels the nodes of a game by a seeded permutation
(seed 0 keeps the generator's labels).  A relabelled game is isomorphic to
its base game, so every seed asks for the same amount of search while the
program sees different files, bit orders, sources and trajectories; this is
what keeps run-to-run spread small enough to compare commits.  Two kinds of
game are never relabelled, because their cost depends on node order: the
`partition` games that have a decomposition (the scan stops at the first
decomposition in ascending mask order, which a relabelling moves anywhere
in 2^m), and the `simulate` games (``is_nash`` runs on every tick and stops
at the first player not at a best response).  For `simulate` the seed
sets the simulation seed instead, which picks the start states and the
random choices of a hundred runs per call.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction as F

from cacgames import Game, WeightedGraph, random_game, serialize_game

WORKLOADS = {
    "sweep": {
        "why": (
            "Exhaustive 2^n sweeps: Nash enumeration, the backward all-states "
            "closure with its forward witness search, and single-source forward "
            "search, on games reached from everywhere, with traps, and with no "
            "equilibrium.  Coordinating sets of 13 or fewer members keep the "
            "partition scan near zero."
        ),
        "uses": ("gamefile", "game", "dynamics", "cli"),
        "skips": ("structure (only the small scans inside analyze)",),
    },
    "partition": {
        "why": (
            "The indecomposability scan over 2^m labelled splits: complete "
            "graphs where the predicate holds and every split is visited, the "
            "same with anti-coordinating pendants so the anti phase runs, and "
            "dense random games that stop at a decomposition (exit 3)."
        ),
        "uses": ("gamefile", "structure", "dynamics", "cli"),
        "skips": ("game enumeration", "dynamics closures", "simulation"),
    },
    "simulate": {
        "why": (
            "Step-by-step best-response runs on 48-64 player mixed games that no "
            "exhaustive method can handle: the best-response kernel through "
            "is_nash on every tick and greedy's exact utilities.  State-space and "
            "partition-scan changes should leave it unchanged."
        ),
        "uses": ("gamefile", "game", "dynamics", "cli"),
        "skips": ("structure", "game enumeration", "dynamics closures"),
    },
}


def complete_game(m: int, pendants: int = 0) -> Game:
    """K_m with every player coordinating at r = 1/10, plus ``pendants``
    anti-coordinating players at r = 1/2, each hanging off one member."""
    ids = range(1, m + pendants + 1)
    edges = [(u, v, 1) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    edges += [(1 + 3 * p, m + 1 + p, 1) for p in range(pendants)]
    thresholds = {v: F(1, 10) if v <= m else F(1, 2) for v in ids}
    return Game(WeightedGraph(ids, edges), range(1, m + 1), thresholds)


def _gen(seed, nodes, edge_prob, coord_frac, max_weight=1):
    return lambda: random_game(seed, nodes, F(edge_prob), F(coord_frac), max_weight=max_weight)


def _src(n: int) -> str:
    """A fixed source configuration: every third player at 1."""
    return "".join("1" if k % 3 == 0 else "0" for k in range(n))


# name -> size -> list of (game key, builder, relabel, kind).  Kinds are
# documentation; ops below refer to games by key.
GAMES = {
    "sweep": {
        "full": [
            ("trap16", _gen(1, 16, "1/3", "3/4"), True, "traps toward consensus, none toward Nash"),
            ("all16", _gen(2, 16, "1/3", "1/2"), True, "target reached from everywhere"),
            ("nonash15", _gen(1, 15, "1/3", "1/2"), True, "no Nash equilibrium"),
            ("nonash17", _gen(3, 17, "1/3", "1/4"), True, "no Nash equilibrium"),
        ],
        "tiny": [
            ("trap8", _gen(5, 8, "1/3", "1/2"), True, "traps toward consensus"),
            ("all8", _gen(3, 8, "1/3", "1/2"), True, "target reached from everywhere"),
            ("nonash8", _gen(23, 8, "1/3", "1/2"), True, "no Nash equilibrium"),
        ],
    },
    "partition": {
        "full": [
            ("k16", lambda: complete_game(16), True, "indecomposable, full scan"),
            ("k17", lambda: complete_game(17), True, "indecomposable, full scan"),
            ("k16p3", lambda: complete_game(16, 3), True, "full scan, anti phase runs"),
            ("dec18a", _gen(3, 18, "1/2", "1"), False, "decomposable in both modes"),
            ("dec18b", _gen(11, 18, "2/3", "1"), False, "decomposable in both modes"),
            ("edge18", _gen(2, 18, "1/2", "1"), False, "strict decomposable, weak indecomposable"),
        ],
        "tiny": [
            ("k5", lambda: complete_game(5), True, "indecomposable, full scan"),
            ("k5p2", lambda: complete_game(5, 2), True, "full scan, anti phase runs"),
            ("dec8", _gen(4, 8, "1/2", "1"), False, "decomposable in both modes"),
            ("edge8", _gen(1, 8, "1/2", "1"), False, "strict decomposable, weak indecomposable"),
        ],
    },
    "simulate": {
        "full": [
            ("mix48", _gen(1, 48, "1/8", "1/2", 5), False, "half coordinating"),
            ("mix56", _gen(3, 56, "1/10", "3/4", 5), False, "mostly coordinating"),
            ("mix64", _gen(4, 64, "1/16", "1/4", 5), False, "mostly anti-coordinating"),
        ],
        "tiny": [
            ("mix12", _gen(1, 12, "1/4", "1/2", 5), False, "half coordinating"),
        ],
    },
}

SIM_BUDGET = {"full": ("100", "200"), "tiny": ("3", "100")}
SCHEDULERS = ("round-robin", "uniform-random", "greedy-potential")


def _op_args(workload: str, size: str):
    """Yield (game key, CLI arguments after the file) for one pass.

    ``{src}`` stands for the game's source configuration and ``{seed}`` for
    the simulation seed; both are filled in per workload seed.
    """
    for key, *_ in GAMES[workload][size]:
        if workload == "sweep":
            yield key, ("analyze",)
            yield key, ("reach", "--all", "--target", "nash")
            yield key, ("reach", "--from", "{src}", "--target", "nash")
        elif workload == "partition":
            for mode in ("strict", "weak"):
                yield key, ("path", "--from", "{src}", "--mode", mode)
        else:
            runs, steps = SIM_BUDGET[size]
            for sched in SCHEDULERS:
                yield key, ("simulate", "--runs", runs, "--max-steps", steps,
                            "--scheduler", sched, "--seed", "{seed}")


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``key`` names its recorded expectation, ``perm`` maps
    base bit k to relabelled bit perm[k] (identity when not relabelled), and
    ``exact`` says the call is the recorded one, so its whole output must
    match."""

    index: int
    key: str
    path: str
    command: str
    args: tuple
    perm: tuple
    source: str
    exact: bool

    @property
    def argv(self) -> list:
        return [self.command, self.path, *self.args]


def relabel(game: Game, perm: tuple) -> Game:
    """The game with node id v renamed to perm[v-1]+1 (ids are 1..n)."""
    new = {v: perm[v - 1] + 1 for v in game.nodes}
    edges = [(new[u], new[v], w) for u, v, w in game.graph.edges()]
    graph = WeightedGraph(sorted(new.values()), edges)
    thresholds = {new[v]: game.thresholds[v] for v in game.nodes}
    return Game(graph, {new[v] for v in game.coordinating}, thresholds)


def map_bits(bits: str, perm: tuple) -> str:
    out = [""] * len(bits)
    for k, c in enumerate(bits):
        out[perm[k]] = c
    return "".join(out)


def build(workload: str, seed: int, size: str, workdir: str):
    """Write the workload's game files for ``seed`` into ``workdir`` and
    return (ops, {path: Game})."""
    os.makedirs(workdir, exist_ok=True)
    files, games, perms = {}, {}, {}
    for key, make, relabelled, _kind in GAMES[workload][size]:
        base = make()
        perm = tuple(range(base.n))
        if relabelled and seed != 0:
            shuffled = list(perm)
            random.Random(f"{workload}/{key}/{seed}").shuffle(shuffled)
            perm = tuple(shuffled)
        game = relabel(base, perm)
        path = os.path.join(workdir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_game(game))
        files[key], games[path], perms[key] = path, game, perm
    ops = []
    sim_seed = str(1000 * seed)
    for key, args in _op_args(workload, size):
        perm = perms[key]
        source = map_bits(_src(len(perm)), perm)
        filled = tuple(source if a == "{src}" else sim_seed if a == "{seed}" else a for a in args)
        base_args = tuple(_src(len(perm)) if a == "{src}" else "0" if a == "{seed}" else a for a in args)
        identity = perm == tuple(range(len(perm)))
        ops.append(Op(len(ops), f"{size}/{key}/{' '.join(base_args)}", files[key],
                      args[0], filled[1:], perm, source, identity and filled == base_args))
    return ops, games
