"""Exact analysis of binary-action coordination/anti-coordination games on
weighted graphs: best responses, equilibrium enumeration, structural
predicates, and best-response dynamics, all in exact rational arithmetic.
"""

from .errors import (
    DegenerateNodeError,
    GameInputError,
    GuaranteeViolationError,
    PathValidationError,
    PreconditionError,
    SizeCapError,
)
from .graph import NODE_CAP, WeightedGraph
from .game import (
    ENUM_CAP,
    Game,
    best_response,
    best_response_by_definition,
    consensus_equilibria,
    deviations,
    enumerate_nash,
    is_nash,
    utility,
    utility_by_definition,
)
from .structure import (
    CohesivenessReport,
    IndecomposabilityReport,
    PartitionWitness,
    RestrictedGame,
    anticoordination_potential,
    cohesiveness,
    coordination_potential,
    decomposition_witnesses,
    game_cohesiveness,
    game_indecomposability,
    indecomposability,
    partition_certificate,
)
from .dynamics import (
    BRPath,
    ReachabilityReport,
    Trajectory,
    br_transitions,
    construct_consensus_path,
    global_reachability,
    reachability_from,
    reachable_set,
    simulate,
    validate_br_path,
)
from .fixtures import FIXTURES, fixture, fixture_names
from .gamefile import load_game, parse_game, serialize_game, to_dot
from .generate import random_game
from .rationals import as_rational, format_rational

__version__ = "0.1.0"

__all__ = [
    "BRPath",
    "CohesivenessReport",
    "DegenerateNodeError",
    "ENUM_CAP",
    "FIXTURES",
    "Game",
    "GameInputError",
    "GuaranteeViolationError",
    "IndecomposabilityReport",
    "NODE_CAP",
    "PartitionWitness",
    "PathValidationError",
    "PreconditionError",
    "ReachabilityReport",
    "RestrictedGame",
    "SizeCapError",
    "Trajectory",
    "WeightedGraph",
    "anticoordination_potential",
    "as_rational",
    "best_response",
    "best_response_by_definition",
    "br_transitions",
    "cohesiveness",
    "consensus_equilibria",
    "construct_consensus_path",
    "coordination_potential",
    "decomposition_witnesses",
    "deviations",
    "enumerate_nash",
    "fixture",
    "fixture_names",
    "format_rational",
    "game_cohesiveness",
    "game_indecomposability",
    "global_reachability",
    "indecomposability",
    "is_nash",
    "load_game",
    "parse_game",
    "partition_certificate",
    "random_game",
    "reachability_from",
    "reachable_set",
    "serialize_game",
    "simulate",
    "to_dot",
    "utility",
    "utility_by_definition",
    "validate_br_path",
]
