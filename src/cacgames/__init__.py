"""Exact analysis of binary-action coordination/anti-coordination games on
weighted graphs: best responses, equilibrium enumeration, structural
predicates, and best-response dynamics, all in exact rational arithmetic.

The public names are imported from their home modules on first use
(PEP 562), so ``import cacgames`` compiles only the modules a caller
touches: loading a game file never imports ``structure``, ``dynamics``,
``configsets``, ``simulation``, ``restricted`` or ``scalar`` (the scalar
evaluators ``utility``, ``best_response``, ``deviations``, ``is_nash`` and
the by-definition oracles).

A command-line call compiles ``cli``, the loading modules above, the
``commands`` package and its own ``commands.<name>``, plus what that command
runs: ``configsets`` for ``reach``; ``structure`` and ``configsets`` for
``analyze``; ``simulation`` for ``simulate``; ``structure``, ``dynamics``
and ``simulation`` for ``path``; ``generate`` for ``gen``; nothing more for
``export``.  ``fixtures`` is compiled only when the game argument names a
fixture, or to print help.
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
        "best_response", "best_response_by_definition", "deviations", "is_nash",
        "utility", "utility_by_definition",
    ),
    "configsets": (
        "ENUM_CAP", "ReachabilityReport", "consensus_equilibria", "enumerate_nash",
        "global_reachability", "reachability_from", "reachable_set",
    ),
    "simulation": ("Trajectory", "simulate"),
    "structure": (
        "CohesivenessReport", "IndecomposabilityReport", "PartitionWitness",
        "cohesiveness", "decomposition_witnesses", "game_cohesiveness",
        "game_indecomposability", "indecomposability", "partition_certificate",
    ),
    "restricted": ("RestrictedGame", "anticoordination_potential", "coordination_potential"),
    "dynamics": ("br_transitions", "construct_consensus_path", "validate_br_path"),
    "fixtures": ("FIXTURES", "fixture", "fixture_names"),
    "gamefile": ("load_game", "parse_game", "serialize_game", "to_dot"),
    "generate": ("random_game",),
    "rationals": ("as_rational", "format_rational"),
}
# Public name -> home module; submodules (``cacgames.game``, ...) resolve too.
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = {*_HOMES, "cli"}

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
