"""Exact analysis of binary-action coordination/anti-coordination games on
weighted graphs: best responses, equilibrium enumeration, structural
predicates, and best-response dynamics, all in exact rational arithmetic.

The public names are imported from their home modules on first use
(PEP 562), so a caller, and each command-line call, compiles only the
modules it touches.  The rule for where code lives: no command compiles a
module-level function or class that it can never call.  The exceptions
are shared on purpose: the modules that load a game and the ``commands``
package, which every command compiles; ``configsets``, whose scans
``analyze`` and ``reach`` share; and ``writers``, which ``gen`` and
``export`` share.  So the gain table ``_Play`` has a module of its own,
``play``, which ``simulation`` and ``dynamics`` import; the graph-level
predicates, which no command calls, live in ``predicates``; and a game
load compiles no writer.
``tests/test_package.py`` pins the modules that loading a game and each
command compile.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "errors": (
        "DegenerateNodeError", "GameInputError", "GuaranteeViolationError",
        "PathValidationError", "PreconditionError", "SizeCapError",
    ),
    "graph": ("NODE_CAP", "WeightedGraph"),
    "game": ("BRPath", "Game"),
    "scalar": (
        "best_response", "best_response_by_definition", "br_transitions", "deviations",
        "is_nash", "utility", "utility_by_definition", "validate_br_path",
    ),
    "configsets": (
        "ENUM_CAP", "ReachabilityReport", "consensus_equilibria", "enumerate_nash",
        "global_reachability", "reachability_from", "reachable_set",
    ),
    "simulation": ("Trajectory", "simulate"),
    "structure": (
        "CohesivenessReport", "IndecomposabilityReport", "PartitionWitness",
        "game_cohesiveness", "game_indecomposability",
    ),
    "predicates": (
        "cohesiveness", "decomposition_witnesses", "indecomposability", "partition_certificate",
    ),
    "restricted": ("RestrictedGame", "anticoordination_potential", "coordination_potential"),
    "dynamics": ("construct_consensus_path",),
    "fixtures": ("FIXTURES", "fixture", "fixture_names"),
    "gamefile": ("load_game", "parse_game"),
    "writers": ("serialize_game", "to_dot"),
    "generate": ("random_game",),
    "rationals": ("as_rational", "format_rational"),
}
# Public name -> home module; submodules (``cacgames.game``, ...) resolve too.
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = {*_HOMES, "play", "cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
