"""The package's lazy exports: what ``import cacgames`` and each command load."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cacgames as cg

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("cacgames.structure", "cacgames.dynamics", "cacgames.cli",
         "cacgames.fixtures", "cacgames.generate", "cacgames.configsets",
         "cacgames.simulation", "cacgames.restricted", "cacgames.scalar",
         "cacgames.commands", "cacgames.play", "cacgames.predicates", "cacgames.writers")
# What every command compiles besides ``cacgames.cli``, which runs as
# ``__main__``, and its own ``cacgames.commands.<name>``: the modules that
# load a game, and the package the commands share.
LOAD_PATH = {"cacgames", "cacgames.errors", "cacgames.rationals", "cacgames.graph",
             "cacgames.game", "cacgames.gamefile", "cacgames.commands"}


def _loaded(code: str, *argv) -> list:
    """The ``cacgames`` modules a fresh interpreter holds after ``code``."""
    # -S keeps site and its .pth files out of the module list
    probe = code + "\nimport json\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('cacgames'))))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_loading_a_game_file_compiles_no_analysis_module(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(cg.serialize_game(cg.fixture("fig3")))
    loaded = _loaded("import sys, cacgames\ncacgames.load_game(sys.argv[1])", str(path))
    assert "cacgames.gamefile" in loaded
    assert not set(HEAVY) & set(loaded)
    # the CLI reads a source that is not letters and digits as a path,
    # without the fixture table, so no fixture name may be anything else
    assert all(name.isalnum() for name in cg.FIXTURES)


def test_the_scalar_route_compiles_only_the_game_and_scalar():
    loaded = _loaded("import sys, cacgames as cg\ncg.validate_br_path, cg.br_transitions, cg.is_nash")
    assert set(loaded) == {"cacgames", "cacgames.errors", "cacgames.rationals",
                           "cacgames.graph", "cacgames.game", "cacgames.scalar"}


@pytest.mark.parametrize("argv, modules", [
    (["gen", "--nodes", "4"], {"generate", "writers"}),
    (["export", "k3"], {"writers", "fixtures"}),
    (["simulate", "fig3", "--runs", "2"], {"simulation", "play", "fixtures"}),
    (["reach", "fig3", "--all"], {"configsets", "fixtures"}),
    (["reach", "k3", "--from", "0*1"], {"configsets", "fixtures"}),
    (["analyze", "k3"], {"structure", "configsets", "fixtures"}),
    (["path", "k3", "--from", "000", "--mode", "weak"],
     {"structure", "dynamics", "play", "fixtures"}),
    # a --from pattern is a sub-cube the CLI walks itself
    (["simulate", "k3", "--from", "0*1"], {"simulation", "play", "fixtures"}),
    # a game file compiles no fixture table
    (["simulate", "FILE", "--runs", "2"], {"simulation", "play"}),
    (["analyze", "FILE"], {"structure", "configsets"}),
])
def test_each_command_compiles_only_what_it_runs(argv, modules, tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(cg.serialize_game(cg.fixture("fig3")))
    argv = [str(path) if a == "FILE" else a for a in argv]
    # runpy is what ``python -m cacgames.cli`` runs
    code = (
        "import runpy, sys\n"
        "try:\n    runpy.run_module('cacgames.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code"
    )
    loaded = _loaded(code, *argv)
    own = f"commands.{argv[0]}"
    assert set(loaded) == LOAD_PATH | {f"cacgames.{name}" for name in {own, *modules}}


def test_every_public_name_resolves_to_its_home_module():
    assert len(cg.__all__) == 50 == len(set(cg.__all__))
    for name in cg.__all__:
        home = importlib.import_module(f"cacgames.{cg._HOME[name]}")
        assert getattr(cg, name) is getattr(home, name), name
    assert set(cg.__all__) <= set(dir(cg))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cacgames import *", namespace)
    assert set(cg.__all__) <= namespace.keys()
    assert namespace["load_game"] is cg.gamefile.load_game


def test_submodules_resolve_and_unknown_names_do_not():
    for module in ("errors", "graph", "game", "configsets", "simulation", "play", "structure",
                   "predicates", "restricted", "dynamics", "fixtures", "gamefile", "writers",
                   "generate", "rationals", "cli"):
        assert getattr(cg, module) is importlib.import_module(f"cacgames.{module}")
    assert cg.configsets.ENUM_CAP == cg.ENUM_CAP
    # in a fresh interpreter the package's __getattr__ imports the submodule
    assert "cacgames.generate" in _loaded("import sys, cacgames\ncacgames.generate.random_game")
    with pytest.raises(AttributeError, match="no attribute 'nash'"):
        cg.nash
    assert not hasattr(cg, "_cleared")
