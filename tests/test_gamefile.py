"""Game file parsing, serialization, DOT export, random generation."""

import json
import random
from fractions import Fraction

import pytest

import cacgames as cg
from cacgames import GameInputError, parse_game, serialize_game, to_dot


def test_fixture_pennies_shape(games):
    pennies = games["pennies"]
    assert pennies.n == 2
    assert pennies.coordinating == {1}
    assert pennies.anticoordinating == {2}
    assert pennies.thresholds[1] == Fraction(1, 2)
    assert pennies.graph.edges() == [(1, 2, Fraction(1))]


def test_fixture_corpus_matches_expected_shapes(games):
    expected = {
        # name: (nodes, edges, coordinating players)
        "pennies": (2, 1, {1}),
        "fig1": (13, 20, set(range(1, 9))),
        "fig2a": (6, 8, set(range(2, 7))),
        "fig2b": (6, 7, set(range(2, 7))),
        "fig2c": (6, 6, set(range(2, 7))),
        "fig3": (10, 17, set(range(1, 10))),
        "fig4": (12, 15, set(range(1, 7))),
        "fig5": (11, 24, set(range(1, 7))),
        "k3": (3, 3, {1, 2}),
    }
    assert set(expected) == set(games)
    for name, (n, m, coordinating) in expected.items():
        game = games[name]
        assert game.n == n, name
        assert len(game.graph.edges()) == m, name
        assert game.coordinating == coordinating, name


def test_unknown_fixture_name():
    with pytest.raises(GameInputError, match="unknown fixture"):
        cg.fixture("fig9")


def test_round_trip_is_byte_identical(games):
    for game in games.values():
        text = serialize_game(game)
        assert serialize_game(parse_game(text)) == text


def test_round_trip_preserves_game_semantics(games):
    rng = random.Random(2)
    for _ in range(10):
        game = cg.random_game(rng, rng.randint(2, 9), max_weight=4)
        loaded = parse_game(serialize_game(game))
        assert loaded.nodes == game.nodes
        assert loaded.coordinating == game.coordinating
        assert loaded.thresholds == game.thresholds
        assert loaded.graph.edges() == game.graph.edges()


def _file(nodes, edges):
    return json.dumps({"nodes": nodes, "edges": edges})


def _node(i, role="coordinating", threshold="1/2"):
    return {"id": i, "role": role, "threshold": threshold}


def _malformed_files():
    """(file text, diagnostic fragment) pairs, one fault per file."""
    base = [_node(1), _node(2, role="anticoordinating")]
    return [
        (_file(base, [{"u": 1, "v": 1, "weight": "1"}]), "edges[0]: self-loop"),
        (
            _file(base, [{"u": 1, "v": 2, "weight": "1"}, {"u": 2, "v": 1, "weight": "1"}]),
            "edges[1]: duplicate edge",
        ),
        (
            _file(base, [{"u": 1, "v": 2, "weight": "1"}, {"u": 2, "v": 1, "weight": "2"}]),
            "edges[1]: asymmetric",
        ),
        (_file(base, [{"u": 1, "v": 2, "weight": "one"}]), "malformed rational"),
        (_file(base, [{"u": 1, "v": 2, "weight": "0.5"}]), "weight"),
        (_file(base, [{"u": 1, "v": 2, "weight": "-3"}]), "positive"),
        (_file(base, [{"u": 1, "v": 3, "weight": "1"}]), "unknown node 3"),
        (_file([_node(1, threshold="1")], []), "between 0 and 1"),
        (_file([_node(1, threshold="0")], []), "between 0 and 1"),
        (_file([_node(1, role="leader")], []), "role"),
        (_file([_node(1), _node(1)], []), "duplicate node id"),
        (_file(base, [{"u": [1], "v": 2, "weight": "1"}]), "edges[0]: unknown node [1]"),
        (_file(base, [{"u": 1, "v": {"a": 1}, "weight": "1"}]), "edges[0]: unknown node"),
        ("[]", "top level must be an object"),
        (_file([_node(None)], []), "nodes[0]: id must be an int or string"),
        (_file([1], []), "nodes[0]: expected an object"),
        (_file([{"id": 1, "role": "coordinating"}], []), "nodes[0]: missing field 'threshold'"),
        (_file([_node(1, threshold=True)], []), "threshold of 1: expected a rational, got a boolean"),
        (_file(base, [{"u": 1, "v": 2, "weight": None}]), "cannot interpret NoneType as a rational"),
        # json.dumps writes the lone surrogate as the escape "\ud800"
        (_file([_node(1), _node("a\ud800")], []), "nodes[1]: id holds a lone surrogate"),
        # Python limits recursion depth and integer digits; each text is
        # invalid JSON even where those limits are lifted.
        ("[" * 200_000, "invalid JSON"),
        ("9" * 5000 + "]", "invalid JSON"),
        (_file([_node(1, threshold="1/" + "0" * 5000)], []), "threshold of 1: "),
    ]


def test_parse_diagnostics_name_the_offending_entry():
    import re

    for text, fragment in _malformed_files():
        with pytest.raises(GameInputError, match=re.escape(fragment)):
            parse_game(text)


def test_cli_rejects_every_malformed_file_with_exit_1(tmp_path, capsys):
    from cacgames.cli import main

    for k, (text, _) in enumerate(_malformed_files()):
        path = tmp_path / f"bad{k}.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 1, text
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), text
        assert captured.err.count("\n") == 1 and len(captured.err) < 200, text


def test_cli_rejects_input_that_is_not_utf8(tmp_path, capsys, monkeypatch):
    import io

    from cacgames.cli import main

    data = b'{"nodes": [{"id": "a\xff", "role": "coordinating", "threshold": "1/2"}], "edges": []}'
    path = tmp_path / "latin.json"
    path.write_bytes(data)
    # strict decoding raises; UTF-8 mode decodes to lone surrogates instead
    stdins = [io.TextIOWrapper(io.BytesIO(data), "utf-8", errors) for errors in ("strict", "surrogateescape")]
    for argv, stdin in [(str(path), None), *(("-", s) for s in stdins)]:
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", stdin)
        assert main(["analyze", argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "not UTF-8 text" in captured.err


def test_endless_standard_input_exits_2_after_the_cap(capsys, monkeypatch):
    from cacgames.cli import main
    from cacgames.gamefile import INPUT_CAP

    class Endless:
        """Standard input that never ends: only a sized read returns."""

        def read(self, size=None):
            if size is None or size < 0:
                raise AssertionError("unsized read of an endless input")
            return " " * size

    monkeypatch.setattr("sys.stdin", Endless())
    assert main(["analyze", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read '-': longer than the cap of {INPUT_CAP} characters\n"


def test_a_file_at_the_input_cap_loads_and_one_character_more_exits_2(tmp_path, capsys):
    from cacgames.cli import main
    from cacgames.gamefile import INPUT_CAP

    text = serialize_game(cg.fixture("k3"))
    path = tmp_path / "padded.json"
    path.write_text(text + " " * (INPUT_CAP - len(text)))
    assert serialize_game(cg.load_game(str(path))) == text
    path.write_text(text + " " * (INPUT_CAP + 1 - len(text)))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "longer than the cap" in captured.err


def test_a_file_with_an_id_at_the_cap_loads_and_one_character_more_exits_1(tmp_path, capsys):
    from cacgames.cli import main
    from cacgames.graph import ID_CAP

    at_cap = "v" * (ID_CAP - 2)
    text = _file([_node("a"), _node(at_cap, role="anticoordinating")], [{"u": "a", "v": at_cap, "weight": "1"}])
    game = parse_game(text)
    assert serialize_game(parse_game(serialize_game(game))) == serialize_game(game)
    path = tmp_path / "long-id.json"
    path.write_text(text.replace(at_cap, at_cap + "v"))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: nodes[1]: node id 'vvv") and captured.err.count("\n") == 1


def test_rationals_over_the_digit_limit_are_input_errors(tmp_path, capsys):
    from cacgames.cli import main

    huge = "1/" + "0" * 5000  # a zero denominator where digits are unlimited
    with pytest.raises(GameInputError, match="^threshold: "):
        cg.as_rational(huge, what="threshold")
    long_text = "x" * 20_000  # malformed, and echoed only in part
    files = []
    for k, text in enumerate((
        _file([_node(long_text, threshold="half")], []),
        _file([_node(long_text), _node(long_text)], []),
        _file([_node("a")], [{"u": "a", "v": long_text, "weight": "1"}]),
        _file([_node("a", role=long_text)], []),
    )):
        files.append(tmp_path / f"long{k}.json")
        files[-1].write_text(text)
    for argv in (
        ["analyze", "k3", "--r", huge],
        ["gen", "--nodes", "3", "--edge-prob", huge],
        ["analyze", "k3", "--r", long_text],
        ["analyze", "k3", "--r", "9" * 4000 + "/1"],  # in range of the digit limit, not of (0, 1)
        *(["analyze", str(path)] for path in files),
        ["export", "k3", "--config", long_text],
        ["reach", "k3", "--from", long_text],
        ["analyze", long_text],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        assert len(captured.err) < 200, argv
    with pytest.raises(GameInputError) as info:
        cg.best_response(cg.fixture("k3"), long_text, 0)
    assert len(str(info.value)) < 200


def test_a_rational_too_long_to_write_is_a_size_cap(tmp_path, capsys):
    from cacgames.cli import main

    # every part is within the digit limit, but node 1's required weight
    # (p + q) / (2pq) has about 8600 digits
    p, q = 10**4299 + 1, 10**4299 + 3
    path = tmp_path / "long-required.json"
    path.write_text(_file(
        [_node(1), _node(2, role="anticoordinating"), _node(3, role="anticoordinating")],
        [{"u": 1, "v": 2, "weight": f"1/{p}"}, {"u": 1, "v": 3, "weight": f"1/{q}"}],
    ))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write a rational with a part over Python's digit limit\n"
    # the library accepts a weight it cannot write; SizeCapError, not its
    # base class ValueError, is the refusal
    game = cg.Game(cg.WeightedGraph([1, 2], [(1, 2, Fraction(10**5000 + 1, 10**5000))]), [1], "1/2")
    for write in (serialize_game, to_dot):
        with pytest.raises(cg.SizeCapError):
            write(game)


def test_parse_reports_json_syntax_position():
    with pytest.raises(GameInputError, match="line 1"):
        parse_game("{not json")


def test_parse_accepts_bare_integer_weights_and_thresholds():
    text = _file(
        [_node(1, threshold="1/3"), _node(2, role="anticoordinating", threshold="2/3")],
        [{"u": 1, "v": 2, "weight": 2}],
    )
    game = parse_game(text)
    assert game.graph.weight(1, 2) == 2


def test_parse_rejects_mixed_id_types():
    text = _file([_node(1), _node("a", role="anticoordinating")], [])
    with pytest.raises(GameInputError, match="all ints or all strings"):
        parse_game(text)


def test_dot_export_counts(games):
    fig1 = games["fig1"]
    dot = to_dot(fig1)
    lines = dot.splitlines()
    assert sum(1 for line in lines if " -- " in line) == 20
    assert sum(1 for line in lines if "[color=" in line) == 13

    pennies_dot = to_dot(games["pennies"])
    assert pennies_dot.count(" -- ") == 1
    assert 'label="1"' in pennies_dot


def test_dot_export_quotes_every_node_id():
    import re

    ids = ['a" -- "zz', "b\\", "c"]
    game = cg.Game(cg.WeightedGraph(ids, [(ids[0], ids[1], 1), (ids[1], ids[2], 1)]), ids[:1], "1/2")
    quoted = r'"((?:\\.|[^"\\])*)"'
    statements = [
        [re.sub(r"\\(.)", r"\1", q) for q in re.findall(quoted, line.split("[")[0])]
        for line in to_dot(game).splitlines()[1:-1]
    ]
    assert statements == [[v] for v in ids] + [ids[:2], ids[1:]]


def test_dot_overlay_marks_players_at_one(games):
    pennies = games["pennies"]
    dot = to_dot(pennies, pennies.parse_bits("10"))
    assert dot.count("fillcolor=lightgray") == 1
    assert "color=blue" in dot and "color=red" in dot


def test_random_generation_is_deterministic():
    a = serialize_game(cg.random_game(7, 8))
    b = serialize_game(cg.random_game(7, 8))
    assert a == b
    c = serialize_game(cg.random_game(9, 8))
    assert a != c


def test_random_generation_full_edge_probability_gives_clique():
    game = cg.random_game(3, 5, edge_prob=1)
    assert len(game.graph.edges()) == 10


def test_generated_games_round_trip():
    rng = random.Random(1)
    for _ in range(15):
        game = cg.random_game(rng, rng.randint(1, 10), max_weight=4)
        text = serialize_game(game)
        assert serialize_game(parse_game(text)) == text


def test_generator_rejects_bad_parameters():
    with pytest.raises(GameInputError):
        cg.random_game(0, 0)
    with pytest.raises(GameInputError):
        cg.random_game(0, 3, edge_prob=2)
    with pytest.raises(GameInputError, match="max_weight"):
        cg.random_game(0, 5, edge_prob=1, max_weight=0)
    with pytest.raises(GameInputError, match="seed must be non-negative, got -7"):
        cg.random_game(-7, 8)


def test_generator_checks_the_node_cap_before_drawing():
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(GameInputError, match="hard cap"):
        cg.random_game(rng, 10**9)
    assert rng.getstate() == state


def test_rational_strings_match_the_fraction_parser():
    # Accepted strings against ``Fraction`` on the same text with its
    # whitespace removed (``Fraction`` refuses spaces around the slash).
    accepted = [
        "0", "-0", "+7", "007", "-03/006", "+4/10", " 5/3 ", "1 / 2", "2\t/ 3",
        "١/٢", "-٣٠/٤", "７/８", "9" * 300 + "/" + "3" * 300,
    ]
    for text in accepted:
        assert cg.as_rational(text) == Fraction("".join(text.split())), text
    for text in ("1/0", " -3 / 000 ", "١/٠"):
        with pytest.raises(GameInputError) as info:
            cg.as_rational(text, what="weight")
        assert str(info.value) == f"weight: malformed rational {text!r} (zero denominator)"
    for text in ("1/" + "0" * 5000, "9" * 5000, "-1/" + "7" * 4301):
        with pytest.raises(GameInputError) as info:
            cg.as_rational(text, what="weight")
        assert str(info.value) == "weight: rational has too many digits"
    for text in ("", "1.5", "1/-2", "/2", "1/2/3", "1_000", "1/2 3"):
        with pytest.raises(GameInputError) as info:
            cg.as_rational(text)
        assert str(info.value) == f"value: malformed rational {text!r} (expected 'p' or 'p/q')"
