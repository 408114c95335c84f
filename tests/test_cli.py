"""Command-line behavior: reports, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cacgames as cg
from cacgames.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_analyze_fig4(capsys):
    report = run_json(capsys, "analyze", "fig4", "--r", "1/2")
    assert report["schema"] == "cacgames-analysis/1"
    assert report["game"]["nodes"] == 12
    assert report["cohesiveness"]["consensus_one"]["holds"]
    strict = report["indecomposability"]["strict"]
    assert not strict["holds"]
    wit = strict["witness"]
    # re-verify the reported witness with the library
    fig4 = cg.fixture("fig4")
    check = cg.partition_certificate(
        fig4.graph, range(1, 7), "1/2", wit["part0"], wit["part1"], mode="strict"
    )
    assert check.certifying_player is None


def test_analyze_fig2c_and_pennies(capsys):
    report = run_json(capsys, "analyze", "fig2c", "--r", "1/2")
    assert report["nash_count"] == 0
    report = run_json(capsys, "analyze", "pennies")
    assert report["nash_count"] == 0
    assert report["reachability"] == {"status": "not-applicable"}


def test_analyze_reports_reachability_of_consensus_set(capsys):
    report = run_json(capsys, "analyze", "fig3")
    assert report["nash_count"] == 2
    assert report["consensus_equilibria"]["ones"] == ["1111111110"]
    reach = report["reachability"]
    assert reach["target"] == "consensus" and not reach["reached"]
    assert reach["trap_count"] > 0


def test_analyze_size_cap_gives_partial_report_and_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(cg.configsets, "ENUM_CAP", 10)
    code, out, err = run(capsys, "analyze", "fig1")
    assert code == 2
    report = json.loads(out)
    assert report["cohesiveness"]["consensus_one"]["holds"]
    detail = "exhaustive scan over 13 players exceeds the cap of 10"
    skipped = {"status": "skipped-size-cap", "detail": detail}
    for key in ("nash_count", "nash", "reachability"):
        assert report[key] == skipped
    assert err == f"error: {detail}\n"


def test_analyze_reports_consensus_equilibria_past_the_nash_cap(capsys, monkeypatch):
    # 22 players is over ENUM_CAP, but only the anti-coordinating side is
    # enumerated for the consensus equilibria.
    import io

    _, text, _ = run(
        capsys, "gen", "--nodes", "22", "--seed", "1", "--edge-prob", "1/3", "--coord-frac", "3/4"
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "analyze", "-")
    assert code == 2
    report = json.loads(out)
    assert report["consensus_equilibria"]["ones"] == ["1111001111111111111101"]
    assert report["consensus_equilibria"]["zeros"] == []
    detail = "exhaustive scan over 22 players exceeds the cap of 20"
    skipped = {"status": "skipped-size-cap", "detail": detail}
    for key in ("nash_count", "nash", "reachability"):
        assert report[key] == skipped


@pytest.mark.parametrize("source", [["--all"], ["--from", "0" * 40]])
def test_reach_hits_the_cap_before_allocating(source, tmp_path, capsys):
    # 40 edgeless coordinating players: the consensus target needs no
    # enumeration, so the closure over 2^40 states is the first capped scan.
    game = cg.Game(cg.WeightedGraph(range(1, 41)), range(1, 41), "1/2")
    path = tmp_path / "wide.json"
    path.write_text(cg.serialize_game(game))
    code, out, err = run(capsys, "reach", str(path), *source, "--target", "consensus")
    assert code == 2 and out == ""
    assert "exhaustive scan over 40 players exceeds the cap of 20" in err


@pytest.mark.parametrize("argv", [["analyze", "k3"], ["reach", "k3", "--all"]])
def test_cap_is_not_an_option(argv, capsys):
    code, out, err = run(capsys, *argv, "--cap", "40")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --cap 40" in err


def test_command_line_errors_exit_1_with_a_short_message(tmp_path, capsys):
    code, out, err = run(capsys, "simulate", "pennies", "--runs", "abc")
    assert code == 1 and out == ""
    assert err == "error: argument --runs: invalid int value: 'abc'\n"
    code, out, err = run(capsys, "simulate", "pennies", "--runs", "x" * 20_000)
    assert code == 1 and out == ""
    assert len(err.encode()) < 300
    game = cg.Game(cg.WeightedGraph(range(1, 18)), range(1, 18), "1/2")
    path = tmp_path / "wide.json"
    path.write_text(cg.serialize_game(game))
    code, out, err = run(capsys, "reach", str(path), "--from", "*" * 17, "--target", "consensus")
    assert code == 2 and out == ""
    assert err == "error: 131072 sources times 2^17 configurations exceed the cap of 16777216\n"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    # argparse may wrap a help line after a hyphen
    help_text = re.sub(r"-\s+", "-", capsys.readouterr().out)
    assert "--runs" in help_text
    assert all(name in help_text for name in cg.simulation.SCHEDULERS)
    # the engine refuses the scheduler before the game file is read
    code, out, err = run(capsys, "simulate", "nosuch.json", "--scheduler", "bogus")
    assert code == 1 and out == ""
    assert err == f"error: unknown scheduler 'bogus'; pick one of {cg.simulation.SCHEDULERS}\n"
    # a value echoed from an option or a file is cut, whatever its size
    conflict = tmp_path / "conflict.json"
    conflict.write_text(json.dumps({
        "nodes": [{"id": v, "role": "coordinating", "threshold": "1/2"} for v in (1, 2)],
        "edges": [{"u": 1, "v": 2, "weight": d * 4000} for d in ("8", "9")],
    }))
    # two disjoint coordinating pairs: cohesive, and decomposable into the
    # pairs; each id is as long as a game file may write it
    ids = [c * (cg.graph.ID_CAP - 2) for c in "abcd"]
    split = tmp_path / "split.json"
    split.write_text(cg.serialize_game(cg.Game(
        cg.WeightedGraph(ids, [(ids[0], ids[1], 1), (ids[2], ids[3], 1)]), ids, "1/2"
    )))
    for argv, expected in (
        (["simulate", "pennies", "--scheduler", "x" * 20_000], 1),
        (["analyze", str(conflict)], 1),
        (["simulate", "pennies", "--max-steps", "9" * 4300], 2),
        (["path", str(split), "--from", "0000"], 3),
    ):
        code, out, err = run(capsys, *argv)
        assert code == expected and out == "", argv[:2]
        assert len(err.encode()) < 300, argv[:2]


def test_readme_synopsis_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # the first fenced block of the "Command line" section
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    synopsis = {
        line.split()[1]: set(re.findall(r"--[a-z-]+", line))
        for line in block.splitlines()
        if line.startswith("cacgames ")
    }
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    defined = {
        name: {s for a in p._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, p in subparsers.choices.items()
    }
    assert synopsis == defined


def test_a_parser_built_for_one_command_matches_the_full_parser(capsys):
    samples = {
        "analyze": ["fig4", "--r", "1/2"],
        "reach": ["fig3", "--from", "11110000**", "--target", "consensus"],
        "simulate": ["fig5", "--from", "0*", "--scheduler", "round-robin", "--seed", "2",
                     "--max-steps", "9", "--runs", "3"],
        "path": ["-", "--from", "0101", "--mode", "weak", "--r", "1/3"],
        "gen": ["--nodes", "5", "--edge-prob", "1/3", "--coord-frac", "1", "--threshold",
                "1/2", "--max-weight", "4", "--seed", "8"],
        "export": ["k3", "--config", "101"],
    }
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert list(samples) == list(subparsers.choices)
    for name, rest in samples.items():
        parsers = (build_parser(name), build_parser())
        one, full = (p.parse_args([name, *rest]) for p in parsers)
        assert one == full, name
        helps, errors = [], []
        for p in parsers:
            with pytest.raises(SystemExit):
                p.parse_args([name, "--help"])
            helps.append(capsys.readouterr().out)
            with pytest.raises(cg.GameInputError) as exc:
                p.parse_args([name, *rest, "--bogus"])
            errors.append(str(exc.value))
        assert helps[0] == helps[1] and helps[0].startswith(f"usage: cacgames {name} "), name
        assert errors[0] == errors[1] == "unrecognized arguments: --bogus", name


def test_top_level_help_and_unknown_command_list_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == """\
usage: cacgames [-h] {analyze,reach,simulate,path,gen,export} ...

Exact analysis of coordination/anti-coordination games on graphs.

positional arguments:
  {analyze,reach,simulate,path,gen,export}
    analyze             structural predicates, equilibria, reachability
    reach               best-response reachability of an equilibrium set
    simulate            asynchronous best-response runs
    path                construct a best-response path to a consensus
                        equilibrium
    gen                 emit a random game file
    export              emit Graphviz DOT

options:
  -h, --help            show this help message and exit
"""
    assert run(capsys, "bogus", "k3") == (1, "", (
        "error: argument command: invalid choice: 'bogus' (choose from 'analyze', "
        "'reach', 'simulate', 'path', 'gen', 'export')\n"))


def test_reach_fig3_trap_source(capsys):
    report = run_json(capsys, "reach", "fig3", "--from", "1111000000", "--target", "nash")
    assert report["reached"] is False
    assert report["witness_path"] is None
    assert report["trap_count"] == 4


def test_reach_wildcard_sources(capsys):
    reports = run_json(capsys, "reach", "fig3", "--from", "11110000**", "--target", "nash")
    assert isinstance(reports, list) and len(reports) == 4
    assert all(not r["reached"] for r in reports)


def test_reach_from_work_is_capped_before_any_scan(capsys, monkeypatch, full_cube_builds):
    # fig3 has 10 players: 4 sources may close over 4 * 2^10 configurations
    monkeypatch.setattr(cg.configsets, "REACH_WORK_CAP", 4 << 10)
    assert len(run_json(capsys, "reach", "fig3", "--from", "11110000**")) == 4
    full_cube_builds.clear()
    code, out, err = run(capsys, "reach", "fig3", "--from", "1111000***")
    assert code == 2 and out == ""
    assert err == "error: 8 sources times 2^10 configurations exceed the cap of 4096\n"
    assert full_cube_builds == []  # neither the Nash scan nor a closure ran


def test_reach_all_k3(capsys):
    report = run_json(capsys, "reach", "k3", "--all", "--target", "nash")
    assert report["reached"] is True
    assert report["source"] == "all"
    assert report["reachable_count"] == 8
    assert report["witness_path"] is not None


def test_reach_all_fig5_consensus(capsys):
    report = run_json(capsys, "reach", "fig5", "--all", "--target", "consensus")
    assert report["reached"] is True
    assert report["reachable_count"] == 2 ** 11
    assert report["trap_count"] == 0


def _trapped_sources(game, target):
    """Oracle: one depth-first search per source, pruned by the sources
    already settled either way."""
    good, bad = set(target), set()
    for x0 in range(1 << game.n):
        if x0 in good or x0 in bad:
            continue
        seen, stack, found = {x0}, [x0], False
        while stack and not found:
            for _, _, y in cg.br_transitions(game, stack.pop()):
                if y in good:
                    found = True
                    break
                if y not in seen and y not in bad:
                    seen.add(y)
                    stack.append(y)
        if found:
            good.add(x0)
        else:
            bad |= seen
    return sorted(bad)


def test_reach_all_truncates_the_trap_list_to_the_lowest_masks(tmp_path, capsys):
    _, text, _ = run(
        capsys, "gen", "--nodes", "12", "--edge-prob", "1/6", "--coord-frac", "1", "--seed", "1"
    )
    path = tmp_path / "traps.json"
    path.write_text(text)
    game = cg.load_game(str(path))
    traps = _trapped_sources(game, cg.consensus_equilibria(game))
    assert len(traps) == 864
    report = run_json(capsys, "reach", str(path), "--all", "--target", "consensus")
    assert report["trap_count"] == len(traps)
    assert report["reachable_count"] == 2 ** 12 - len(traps)
    assert report["trap_states_truncated"] is True
    assert report["trap_states"] == [game.format_bits(x) for x in traps[:256]]


@pytest.mark.parametrize(
    "argv",
    [("reach", "fig3", "--from", "1111**00**", "--target", "nash"), ("analyze", "fig3")],
    ids=["reach", "analyze"],
)
def test_each_full_cube_set_is_built_once(capsys, full_cube_builds, argv):
    # Nash enumeration and every closure (16 of them for the wildcards)
    # share one best-response set per player.
    report = run_json(capsys, *argv)
    assert argv[0] == "analyze" or len(report) == 16
    assert sorted(full_cube_builds) == list(range(cg.fixture("fig3").n))


def test_simulate_pennies_never_absorbs(capsys):
    code, out, err = run(
        capsys, "simulate", "pennies", "--from", "11", "--max-steps", "50", "--runs", "5"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 5
    assert all(line["status"] != "absorbed-at-NE" for line in lines)


def test_simulate_step_budget_over_the_cap_exits_2(capsys):
    # the budget is checked before the first run, so --runs 0 refuses it too
    for runs in ("1", "0"):
        code, out, err = run(
            capsys, "simulate", "pennies", "--max-steps", str(cg.simulation.STEP_CAP + 1),
            "--runs", runs,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


def test_simulate_refuses_a_seed_it_cannot_write_before_any_run(capsys):
    # the second run's seed has 4301 digits, past Python's digit limit
    code, out, err = run(capsys, "simulate", "pennies", "--seed", "9" * 4300, "--runs", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
    for seed, runs in (("9" * 4300, "1"), ("-" + "9" * 4300, "3")):
        code, out, _ = run(capsys, "simulate", "pennies", "--seed", seed, "--runs", runs)
        assert code == 0 and out.count("\n") == int(runs)


def test_simulate_negative_budget_exits_1_with_no_runs(capsys):
    code, out, err = run(capsys, "simulate", "pennies", "--runs", "0", "--max-steps", "-1")
    assert code == 1 and out == "" and "must be non-negative" in err


def test_closed_stdout_exits_141_without_a_traceback():
    # 100000 runs print about 17 MB, far more than a pipe holds, so the
    # writer must meet the closed pipe
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "cacgames.cli", "simulate", "k3", "--runs", "100000"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b'{"schema": "cacgames-trajectory/1"')
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_cli_import_loads_neither_dataclasses_nor_pathlib():
    # -S keeps site and its .pth files out of the module list
    probe = (
        "import sys, cacgames.cli; "
        "print(sorted({'dataclasses', 'pathlib'} & sys.modules.keys()))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


def test_simulate_fig3_trap_pattern(capsys):
    code, out, err = run(
        capsys,
        "simulate", "fig3", "--from", "11110000**",
        "--runs", "20", "--max-steps", "200", "--seed", "1",
    )
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 20
    assert sum(line["status"] == "absorbed-at-NE" for line in lines) == 0
    # the runs cycle through the pattern's configurations, ascending
    starts = ["1111000000", "1111000010", "1111000001", "1111000011"]
    assert [line["start"] for line in lines] == starts * 5


def test_simulate_from_a_pattern_of_64_wildcards(tmp_path, capsys):
    game = cg.Game(cg.WeightedGraph(range(1, 65)), range(1, 65), "1/2")
    path = tmp_path / "wide.json"
    path.write_text(cg.serialize_game(game))
    code, out, err = run(capsys, "simulate", str(path), "--from", "*" * 64, "--runs", "3")
    assert code == 0, err
    starts = [json.loads(line)["start"] for line in out.splitlines()]
    assert starts == ["0" * 64, "1" + "0" * 63, "01" + "0" * 62]


def test_simulate_fig5_absorbs_at_equilibria(capsys):
    # the consensus set is globally reachable, so fair random play keeps
    # finding equilibria; a few all-ties equilibria are not consensus, so
    # only equilibrium membership is guaranteed per run
    code, out, err = run(
        capsys,
        "simulate", "fig5", "--runs", "20", "--scheduler", "uniform-random",
        "--max-steps", "2000", "--seed", "3",
    )
    lines = [json.loads(line) for line in out.splitlines()]
    fig5 = cg.fixture("fig5")
    consensus_hits = 0
    for line in lines:
        assert line["status"] == "absorbed-at-NE"
        final = fig5.parse_bits(line["final"])
        assert cg.is_nash(fig5, final)
        consensus_hits += final & fig5.coord_mask in (0, fig5.coord_mask)
    assert consensus_hits >= 15


def test_path_exit_codes(capsys):
    code, out, err = run(capsys, "path", "k3", "--from", "000")
    assert code == 3 and "decomposable" in err
    report = run_json(capsys, "path", "k3", "--from", "000", "--mode", "weak")
    assert report["end"] in ("001", "110")
    # a path command result is a valid path per the library validator
    k3 = cg.fixture("k3")
    path = cg.BRPath(
        tuple((s["player"], s["action"]) for s in report["steps"]),
        tuple(k3.parse_bits(b) for b in report["configs"]),
    )
    cg.validate_br_path(k3, path)


def test_path_weak_mode_without_a_guarantee_exits_3(weak_only_game, tmp_path, capsys):
    path = tmp_path / "weak.json"
    path.write_text(cg.serialize_game(weak_only_game))
    code, out, err = run(capsys, "path", str(path), "--from", "110000", "--mode", "weak")
    assert code == 3 and out == ""
    assert err.startswith("error: weak indecomposability does not guarantee a path")
    report = run_json(capsys, "reach", str(path), "--from", "110000", "--target", "consensus")
    assert report["reached"] is True


def test_gen_is_deterministic_and_parses(capsys):
    code1, out1, _ = run(capsys, "gen", "--nodes", "8", "--seed", "7")
    code2, out2, _ = run(capsys, "gen", "--nodes", "8", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    game = cg.parse_game(out1)
    assert game.n == 8


def test_gen_complete_graph(capsys):
    _, out, _ = run(capsys, "gen", "--nodes", "5", "--edge-prob", "1", "--seed", "0")
    game = cg.parse_game(out)
    assert len(game.graph.edges()) == 10


def test_export_counts(capsys):
    _, out, _ = run(capsys, "export", "fig1")
    assert out.count(" -- ") == 20
    _, out, _ = run(capsys, "export", "pennies", "--config", "10")
    assert out.count(" -- ") == 1 and "fillcolor" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [], "edges": "nope"}')
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1 and "error" in err
    for flag in ("--runs", "--max-steps"):
        code, out, err = run(capsys, "simulate", "pennies", flag, "-1")
        assert code == 1 and out == "" and "must be non-negative" in err


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "analyze", "no-such-file.json")
    assert code == 1


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    text = cg.serialize_game(cg.fixture("pennies"))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    report = run_json(capsys, "analyze", "-")
    assert report["game"]["nodes"] == 2


def test_file_and_fixture_agree(tmp_path, capsys):
    path = tmp_path / "k3.json"
    path.write_text(cg.serialize_game(cg.fixture("k3")))
    from_file = run_json(capsys, "analyze", str(path))
    from_name = run_json(capsys, "analyze", "k3")
    from_file["game"]["source"] = from_name["game"]["source"]
    assert from_file == from_name


def test_uniform_threshold_override(capsys):
    report = run_json(capsys, "analyze", "fig1", "--r", "1/2")
    assert report["thresholds"] == {"uniform": "1/2"}
    # at 1/2 the coordinating set is still cohesive (every member keeps half)
    assert report["cohesiveness"]["consensus_one"]["holds"] in (True, False)


# Exit code and SHA-256 of stdout for each call.  CLI output is meant to
# stay byte-identical across refactors; a deliberate output change updates
# this table and names the change in CHANGES.md.
PINNED_FIXTURE_RUNS = {
    "analyze fig1": (0, "307773fe6be6dfa6f68d90a0aaba88f84193f23b1c754899c83233076c293352"),
    "analyze fig1 --r 1/2": (0, "c886696c08c80a5d5746705c31413f78545095ff9e71fdb3d24a01624d067314"),
    "reach fig1 --all --target nash": (0, "af8cbc69e5e12cbed2f85b9964b1ddaa649f6ec4f57d9974813a46cf875994fe"),
    "reach fig1 --all --target consensus": (0, "8f0f07fb865b9624e92a9f069e8d0e38b6af081c2cf7ee6d5755cb631adca62d"),
    "analyze fig2a": (0, "5e58727177be66327a3d5b1a46b0738c21d062927a857c291e019ae0cb5f6bf9"),
    "analyze fig2a --r 1/2": (0, "5e58727177be66327a3d5b1a46b0738c21d062927a857c291e019ae0cb5f6bf9"),
    "reach fig2a --all --target nash": (0, "4c4d369978138d443f3a6d71e2c2f2780e7e9e7871ee4bf3b70fb019b3db9bc1"),
    "reach fig2a --all --target consensus": (0, "1912966b60a135e3c98de6a10df3863ef06125732aa8f3f3dae92fb92f3a8f04"),
    "analyze fig2b": (0, "1e4c65bfe14cd83bd34383e48d29ef23dc0e38b56caefb9430e46fbddfe456b5"),
    "analyze fig2b --r 1/2": (0, "1e4c65bfe14cd83bd34383e48d29ef23dc0e38b56caefb9430e46fbddfe456b5"),
    "reach fig2b --all --target nash": (0, "43992e38316c4bf82d5fda099090332aca5c301ffa158d66f63b9bcaeb3975be"),
    "reach fig2b --all --target consensus": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze fig2c": (0, "760939215f64762816882d0e8a0b8f25999249328394535fe8146e925468ac75"),
    "analyze fig2c --r 1/2": (0, "760939215f64762816882d0e8a0b8f25999249328394535fe8146e925468ac75"),
    "reach fig2c --all --target nash": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reach fig2c --all --target consensus": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze fig3": (0, "18fb98f456f585e15c52c1544a1ed64735c04f5be9aeb81817303f47cceddad6"),
    "analyze fig3 --r 1/2": (0, "18fb98f456f585e15c52c1544a1ed64735c04f5be9aeb81817303f47cceddad6"),
    "reach fig3 --all --target nash": (0, "a7c5ace0d3ec9e42c0b4df8fbf1f096097713ff40ce2e3cdd00fd7a695ed6f47"),
    "reach fig3 --all --target consensus": (0, "8fe8306954b2238e279e3e9dfdba2e251e93439bed8eb2b8b541246381b26480"),
    "analyze fig4": (0, "1218d4346bf91f5eb82b2734c2bdeb05fad3d5eb8b2df98d40cdc3ed934dc9c7"),
    "analyze fig4 --r 1/2": (0, "1218d4346bf91f5eb82b2734c2bdeb05fad3d5eb8b2df98d40cdc3ed934dc9c7"),
    "reach fig4 --all --target nash": (0, "a24688548efb2458cfeec81155143d7aff205dc096bcfd439da55d148906db3b"),
    "reach fig4 --all --target consensus": (0, "de30cc9a3a083b684cde21ac86691a5de7c5d8572ceb93a2d2c30cedfb106844"),
    "analyze fig5": (0, "e1f04d592c80587f6b61321a80ada3347f85029b3eef7335aa9e054cbdab161b"),
    "analyze fig5 --r 1/2": (0, "e1f04d592c80587f6b61321a80ada3347f85029b3eef7335aa9e054cbdab161b"),
    "reach fig5 --all --target nash": (0, "fbb4be13604147c33dc3f664dff7b841689cdc431f137e19f3b8f22ceee109a5"),
    "reach fig5 --all --target consensus": (0, "1fbd895a98ed7af7b4917fb3c2da7bfaf5194442239f4d1c8371352543ab9587"),
    "analyze k3": (0, "9574ca85bfe0aa955533a0ad6ce669821f0df2697deb4ade303308d3a40ed632"),
    "analyze k3 --r 1/2": (0, "9574ca85bfe0aa955533a0ad6ce669821f0df2697deb4ade303308d3a40ed632"),
    "reach k3 --all --target nash": (0, "4688120785cdd9661cfa8fe0d67d8f015b637438aacec8d8dc5726c42fdaf71a"),
    "reach k3 --all --target consensus": (0, "c33ab552fad6c3bd13d64e0fd9f267653efb8e7a6c7319adf6e7265ec6171ff3"),
    "analyze pennies": (0, "f0c173f29e2fcd2111838174e189eb559fb3f41a56c4b1b35fd64180f8245174"),
    "analyze pennies --r 1/2": (0, "f0c173f29e2fcd2111838174e189eb559fb3f41a56c4b1b35fd64180f8245174"),
    "reach pennies --all --target nash": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reach pennies --all --target consensus": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # forward closures: a trapped source, then 16 and 32 wildcard sources
    "reach fig3 --from 1111000000 --target nash": (0, "0d4a285ea1bcdce49499147e3b71d2c0a51ff21ac5f7e2c1ead2abf9ccf3484d"),
    "reach fig5 --from 1111110**** --target consensus": (0, "9fa7f108a02bf366d4a47feae03f569b23745df24da5fbe8ff7ca0e8144375d1"),
    "reach fig2a --from 0***** --target nash": (0, "46edbff6062473ebe06585d31e101c1570f41628cb81b766913e1690b9964580"),
    # simulations: proven cycles, random ties under round-robin, uniform-random
    "simulate pennies --scheduler round-robin --runs 2": (0, "63f85f270bbd6489ebe4256034a42734cd2d2bcb2fd802ce706f57dd2eafd98a"),
    "simulate fig3 --scheduler greedy-potential --runs 4": (0, "6a69e0d184bd084b54187e1af48f94a8b7931d61b1693a95990003c04e2afcc3"),
    "simulate fig2a --scheduler round-robin --runs 4": (0, "94dff98c9f622dcfd412611e61890dcb27e24d2d05829db3529854ae5e3142b4"),
    "simulate fig1 --runs 4": (0, "58d0a9136ebf4650ec965f3898de3b1215df3f4cc9f7e026358c5d8eff6fc0fb"),
    "simulate fig1 --scheduler greedy-potential --runs 4": (0, "d129ebc4300671952825fa5f9652c2e18992a2f7acb7d1fe495d59bca1d32e80"),
    "simulate fig5 --scheduler greedy-potential --runs 4": (0, "f9f88fd75a47e7fc0d57f7c56ffb31224ecb42b42aec1c5d31d3cf04d6eaadbd"),
    # constructed paths: weak mode taking a tie move, weak mode on k3, and a
    # strict-mode precondition failure
    "path fig5 --from 10011010100 --mode weak": (0, "3d8bb2a6d6e625cd2b878f4e2c2671be45d3a6707a478907dce5a5d020c72cdf"),
    "path k3 --from 000 --mode weak": (0, "05087ef67a177f4fe130bf786e4f1235eae3bc533b0f899609fd4b9ceb5714f4"),
    "path fig5 --from 00000000000 --mode strict": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # each fixture's DOT: every edge with its weight, and every player's role
    "export fig1": (0, "902598a5b533e1e0896aef4278cf6a90c973333a622259e6d71ec304f02dc1ab"),
    "export fig2a": (0, "5177e86da9e1ad3cd6bcafd2f5a8c40d4bef769236b09d90430d62975d837961"),
    "export fig2b": (0, "dff71acfd3584827d608ad2edba9074718edc6111fcb9bacb4b20412138ed81d"),
    "export fig2c": (0, "8aaa328912ed8c1764b141cf65b9a94fd1c213800f8fe07d770d9f19d1f5a527"),
    "export fig3": (0, "ffc6c76804116482afd1ab78563cc8f39c7c93e21c7953abcbc58c8e36704dfd"),
    "export fig4": (0, "d761518573e9824d882759fa2e6ea8ddb04e30a180b72400cb02f74c797e4dbb"),
    "export fig5": (0, "b2b22091621234f1dbdb5a7a5670da7e6652ff06c4fc77de70e81dc1674e2650"),
    "export k3": (0, "11264597c9252b7ee34b84105552aa5cb6faae76cbd27063febd14f6fc987b6b"),
    "export pennies": (0, "aa71de764d851196ff0222ddba47a52ea74333990ff7baa59be26fe3dc625fc9"),
}

# ``analyze -`` on the output of ``gen`` with these arguments.
PINNED_GENERATED_RUNS = {
    "--nodes 8 --seed 1": (0, "351c3c926e2fb46699aa6195a2ffd8d61cf96347616f7c2b874da8643b12b227"),
    "--nodes 10 --seed 2 --edge-prob 1/3 --max-weight 3": (0, "dfee2809508bcdf305e0ef1260d3813ce29c699d949f07ef5277e31ac7f7bf11"),
    "--nodes 9 --seed 5 --coord-frac 1 --threshold 1/3": (0, "6d82927caa85badb29eb019d1a1899a38d15713455a9b2e1c0e6505ef382524b"),
}

# ``simulate -`` on the output of ``gen`` with the first arguments: games of 48
# to 64 players that cycle, absorb, anti-coordinate only, or tie at r = 1/2.
PINNED_SIMULATE_RUNS = {
    ("--nodes 48 --edge-prob 1/8 --max-weight 5 --seed 1", "--scheduler round-robin --runs 12"): (0, "04aa8cd4d88f69f48abc3657b43180472c117ca871bc72448dea896ea52ef1a5"),
    ("--nodes 48 --edge-prob 1/8 --max-weight 5 --seed 1", "--scheduler uniform-random --runs 12"): (0, "2c9259053bab0621bc3ca987f7a1c36b5fc66f5bc6fc8035bb70c0589ba8f003"),
    ("--nodes 48 --edge-prob 1/8 --max-weight 5 --seed 1", "--scheduler greedy-potential --runs 12"): (0, "5b1ea64a71ebe190d1c94b745e0817bf12b94804f6df2b255582d8463a0f24f9"),
    ("--nodes 56 --edge-prob 1/10 --coord-frac 1 --max-weight 5 --seed 3", "--scheduler round-robin --runs 12"): (0, "da0c0a1e1d29f52bafb5e047fac04548e473dc46d5cd078738804224a0c91988"),
    ("--nodes 56 --edge-prob 1/10 --coord-frac 1 --max-weight 5 --seed 3", "--scheduler uniform-random --runs 12"): (0, "a82b14ccfb64154816466f6c3b2b598a19087163e012c8809c93532a742c2c01"),
    ("--nodes 56 --edge-prob 1/10 --coord-frac 1 --max-weight 5 --seed 3", "--scheduler greedy-potential --runs 12"): (0, "df6e14c4301a228e6091b12b8f1c1bfeffcf0b8d93bdf14c3b56a44f101dea81"),
    ("--nodes 64 --edge-prob 1/16 --coord-frac 0 --max-weight 5 --seed 4", "--scheduler round-robin --runs 12"): (0, "544c8f3520c70dbc0c2d7f807674dfa91db3675b4a844bb2d14e83db0d4a9796"),
    ("--nodes 64 --edge-prob 1/16 --coord-frac 0 --max-weight 5 --seed 4", "--scheduler uniform-random --runs 12"): (0, "ce35369f2df2da90edbfe592a40a9c2a72ff0e1db7aaf87e4f91ed77bfeb73ba"),
    ("--nodes 64 --edge-prob 1/16 --coord-frac 0 --max-weight 5 --seed 4", "--scheduler greedy-potential --runs 12"): (0, "c549b1ce7938253036b8b8d10d43667d4f757a7511a868191ecb0ecb9b46e6ab"),
    ("--nodes 64 --edge-prob 1/8 --coord-frac 7/8 --threshold 1/2 --max-weight 5 --seed 9", "--scheduler round-robin --runs 12"): (0, "83c8a613a4426bc6192dc5c91a7054ace8f4348caf00f2944a97ea63159b9d9f"),
    ("--nodes 64 --edge-prob 1/8 --coord-frac 7/8 --threshold 1/2 --max-weight 5 --seed 9", "--scheduler uniform-random --runs 12"): (0, "ad6dd088fb950ae06e322b50d82f5a2a8435d05c3e8d78c44231c17f240c41a7"),
    ("--nodes 64 --edge-prob 1/8 --coord-frac 7/8 --threshold 1/2 --max-weight 5 --seed 9", "--scheduler greedy-potential --runs 12"): (0, "a186c0a734c0ff94546ac4f6ae4bd793979bd9948c0579d5c4c5174b9d621e00"),
}


def _stdout_digest(capsys, argv):
    code, out, _ = run(capsys, *argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


def test_cli_output_matches_pinned_digests(capsys, monkeypatch):
    import io

    got = {
        key: _stdout_digest(capsys, key.split()) for key in PINNED_FIXTURE_RUNS
    }
    assert got == PINNED_FIXTURE_RUNS
    for key, expected in PINNED_GENERATED_RUNS.items():
        _, text, _ = run(capsys, "gen", *key.split())
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert _stdout_digest(capsys, ("analyze", "-")) == expected, key
    for (gen, sim), expected in PINNED_SIMULATE_RUNS.items():
        _, text, _ = run(capsys, "gen", *gen.split())
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert _stdout_digest(capsys, ("simulate", "-", *sim.split())) == expected, (gen, sim)
