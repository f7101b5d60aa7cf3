"""SVG rendering and the command line."""
import io
import json
import math
import sys

from conftest import figure_nu, figure_tails

from tentplane import build_scene, kneading_from_slope, parse_left
from tentplane.cli import main, parse_config
from tentplane.errors import ConflictError, ParseError
from tentplane.svg import render_scene

import pytest

GOLD = kneading_from_slope((1 + math.sqrt(5)) / 2)


def run(*argv):
    old = sys.stdout
    sys.stdout = io.StringIO()
    try:
        code = main(list(argv))
        out = sys.stdout.getvalue()
    finally:
        sys.stdout = old
    return code, out


# ------------------------------------------------------------------- svg


def test_render_deterministic_structure():
    sc = build_scene(GOLD, "(1).", tails=["(011)010.", "(011)110."])
    svg = render_scene(sc)
    assert svg == render_scene(sc)
    assert svg.startswith("<svg xmlns") and svg.rstrip().endswith("</svg>")
    assert svg.count("<line ") == len(sc.segments) == 2
    assert svg.count("<path ") == len(sc.joins) == 1
    # left bulges sweep counterclockwise on screen
    assert svg.count(" 0 0 1 ") == 1 and svg.count(" 0 0 0 ") == 0
    assert svg.count("<text ") == 2
    assert render_scene(sc, labels=False).count("<text ") == 0
    assert "rotate(90" in render_scene(sc, portrait=True)
    assert "rotate(90" not in svg


def test_render_reference_scene_counts():
    sc = build_scene(figure_nu(), "(1).", tails=figure_tails() + [parse_left("(1).")])
    svg = render_scene(sc)
    assert svg.count("<line ") == 13
    assert svg.count("<path ") == 11
    # five right bulges, six left ones
    assert svg.count(" 0 0 0 ") == 5
    assert svg.count(" 0 0 1 ") == 6


# ------------------------------------------------------------------- cli


def test_cli_kneading():
    code, out = run("kneading", "--nu", "(101)")
    assert code == 0 and out == "(101)\nvalidated: exact\n"
    code, out = run("kneading", "--slope", "1.8")
    assert code == 0
    assert out.startswith("10011")
    assert out.rstrip().endswith("validated: 4096")
    assert run("kneading", "--slope", "1.8", "--nu", "(101)")[0] == 2
    assert run("kneading")[0] == 2


def test_cli_cylinders():
    code, out = run("cylinders", "--slope", "2.0", "--depth", "1")
    assert code == 0 and out.split() == ["0", "1"]
    code, out = run("cylinders", "--nu", "(101)", "--depth", "2")
    assert code == 0 and out.split() == ["01", "11", "10"]
    # a context reorders the same words by block height, bottom first
    code, out = run("cylinders", "--nu", "(101)", "--depth", "2", "--L", "(101).")
    assert code == 0 and out.split() == ["10", "11", "01"]


def test_cli_scene_and_verify(tmp_path):
    code, out = run("scene", "--nu", "(101)", "--L", "(1).", "--depth", "4")
    assert code == 0
    data = json.loads(out)
    assert data["nu"] == "(101)" and data["L"] == "(1)."
    assert len(data["segments"]) == 8

    path = tmp_path / "scene.json"
    code, out = run("scene", "--nu", "(101)", "--L", "(1).", "--depth", "4",
                    "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["depth"] == 4

    code, out = run("verify", "--nu", "(101)", "--L", "(1).", "--depth", "8")
    assert code == 0 and out == "0 violation(s)\n"
    code, out = run("verify", "--scene", str(path))
    assert code == 0 and out == "0 violation(s)\n"

    assert run("scene", "--nu", "(101", "--L", "(1).", "--depth", "3")[0] == 2
    assert run("scene", "--nu", "(101)", "--L", "(1).")[0] == 2
    assert run("verify", "--scene", str(tmp_path / "missing.json"))[0] == 2


def _written_scene(tmp_path, *argv):
    path = tmp_path / "scene.json"
    assert run("scene", *argv, "--out", str(path)) == (0, "")
    return path


def test_cli_verify_untouched_scene_file(tmp_path):
    for argv in (["--nu", "(101)", "--L", "(1).", "--depth", "4"],
                 ["--slope", str((1 + math.sqrt(5)) / 2), "--L", "(101).",
                  "--tails", "(011)010.", "(011)110.", "--x-mode", "value"],
                 ["--slope", "2", "--L", "(10).", "--depth", "5"]):
        path = _written_scene(tmp_path, *argv)
        rebuilt = run("verify", *argv)
        assert run("verify", "--scene", str(path)) == rebuilt
        assert rebuilt[0] == 0
        # the other --scene commands pass the stored-geometry check too
        for cmd in ("render", "glue", "probe"):
            assert run(cmd, "--scene", str(path)) == run(cmd, *argv), cmd
        assert run("render", "--scene", str(path))[0] == 0
        assert run("glue", "--scene", str(path))[0] == 0


def test_cli_verify_tampered_scene_file(tmp_path):
    path = _written_scene(tmp_path, "--nu", "(101)", "--L", "(1).", "--depth", "4")
    data = json.loads(path.read_text())
    n_segs, n_joins = len(data["segments"]), len(data["joins"])
    for row in data["segments"]:
        row["y"], row["x_lo"] = "0(1)", 0.9
    data["joins"] = []
    path.write_text(json.dumps(data))
    code, out = run("verify", "--scene", str(path))
    lines = out.splitlines()
    assert code == 1 and lines[-1] == f"{n_segs + n_joins} violation(s)"
    bad = [json.loads(line) for line in lines[:-1]]
    assert {v["kind"] for v in bad} == {"stored-geometry"}
    assert [v["row"] for v in bad] == (
        [f"segments[{i}]" for i in range(n_segs)] + [f"joins[{i}]" for i in range(n_joins)])
    assert bad[0]["stored"]["y"] == "0(1)" and bad[-1]["stored"] is None

    # one changed digit of one row is one violation
    data = json.loads(_written_scene(tmp_path, "--nu", "(101)", "--L", "(1).",
                                     "--depth", "4").read_text())
    data["joins"][1]["x0"] += 1e-12
    path.write_text(json.dumps(data))
    code, out = run("verify", "--scene", str(path))
    assert code == 1 and out.splitlines()[-1] == "1 violation(s)"
    assert json.loads(out.splitlines()[0])["row"] == "joins[1]"

    data["joins"] = "none"
    path.write_text(json.dumps(data))
    assert run("verify", "--scene", str(path))[0] == 2


def test_cli_scene_commands_refuse_tampered_file(tmp_path):
    argv = ["--nu", "(101)", "--L", "(1).", "--depth", "5"]
    path = _written_scene(tmp_path, *argv)
    data = json.loads(path.read_text())
    n_rows = len(data["segments"]) + len(data["joins"])
    for row in data["segments"]:
        row["y"], row["x_lo"] = "0(1)", 0.9
    data["joins"] = []
    path.write_text(json.dumps(data))
    svg = tmp_path / "pic.svg"
    for extra in (["render", "--out", str(svg)], ["glue"], ["probe"]):
        code, out = run(extra[0], "--scene", str(path), *extra[1:])
        lines = out.splitlines()
        # the violations and their count, and nothing certified or drawn
        assert code == 1 and lines[-1] == f"{n_rows} violation(s)", extra
        assert {json.loads(line)["kind"] for line in lines[:-1]} == {"stored-geometry"}
    assert not svg.exists()


def test_cli_render(tmp_path):
    code, out = run("render", "--nu", "(101)", "--L", "(101).", "--depth", "3")
    assert code == 0 and out.startswith("<svg")
    path = tmp_path / "pic.svg"
    code, _ = run("render", "--nu", "(101)", "--L", "(101).", "--depth", "3",
                  "--out", str(path), "--portrait")
    assert code == 0
    assert "rotate(90" in path.read_text()


def test_cli_glue_and_probe():
    code, out = run("glue", "--nu", "(101)", "--L", "(101).", "--depth", "6")
    assert code == 0
    assert out.splitlines() == [
        "support: ok", "displacement: ok", "cauchy: ok", "collapse: ok", "ceiling: ok"]

    code, out = run("probe", "--slope", "2.0", "--L", "(1).", "--x", "0.75",
                    "--depth", "6", "--glue", "6")
    assert code == 0
    assert out.splitlines() == ["target: 111111", "accessible: True"]
    # no stages at all is a valid (trivially certified) stack
    code, out = run("glue", "--nu", "(101)", "--L", "(101).", "--depth", "6", "--glue", "0")
    assert code == 0 and out.count(": ok") == 5

    code, out = run("probe", "--nu", "(101)", "--L", "(1).",
                    "--tails", "(011)010.", "(011)110.",
                    "--tail", "(011)110.", "--no-strict")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "target: (011)110." and lines[1] == "accessible: False"
    assert json.loads(lines[2].split("witness: ", 1)[1])["kind"] == "segment"

    assert run("probe", "--nu", "(101)", "--L", "(1).",
               "--tails", "(011)010.", "(011)110.", "--tail", "(011)110.")[0] == 2


def test_parse_config_forms(tmp_path, capsys):
    opts = parse_config("slope=1.8\ndepth=4\n# note\nx_mode=rank\n")
    assert opts == {"slope": 1.8, "depth": 4, "x_mode": "rank"}
    opts = parse_config('{"nu": "(101)", "L": "(101).", "tails": ["(011)010."], "x": 0.5}')
    assert opts == {"nu": "(101)", "context": "(101).", "tails": ["(011)010."], "x": 0.5}
    assert parse_config("tails=(011)010., (011)110.")["tails"] == ["(011)010.", "(011)110."]
    assert parse_config("glue_stages=3")["glue_stages"] == 3
    with pytest.raises(ParseError):
        parse_config("wat=1")
    with pytest.raises(ParseError):
        parse_config("no equals sign")
    with pytest.raises(ParseError):
        parse_config("{not json")
    with pytest.raises(ConflictError):
        parse_config("slope=2.0\nnu=(101)")
    # values that do not convert: position for key=value, key name for JSON
    with pytest.raises(ParseError) as e:
        parse_config("nu=(101)\ndepth=abc\n")
    assert (e.value.line, e.value.col) == (2, 7)
    for text, key in [('{"depth": "x"}', "depth"), ('{"depth": 1.5}', "depth"),
                      ('{"slope": true}', "slope"), ('{"nu": 101}', "nu"),
                      ('{"tails": [1]}', "tails"), ("glue_stages=2.5", "glue_stages")]:
        with pytest.raises(ParseError, match=f"key '{key}'"):
            parse_config(text)
    assert parse_config('{"depth": "4", "slope": 2}') == {"depth": 4, "slope": 2.0}
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("nu=(101)\ndepth=abc\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: bad value 'abc' for key 'depth' (line 2, col 7)\n"


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("nu=(101)\nL=(101).\ndepth=3\n")
    code, out = run("scene", "--config", str(cfg))
    assert code == 0 and json.loads(out)["L"] == "(101)."
    # explicit flags win over the config file
    code, out = run("scene", "--config", str(cfg), "--depth", "2")
    assert code == 0 and json.loads(out)["depth"] == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("slope=2.0\nnu=(101)\n")
    assert run("scene", "--config", str(bad))[0] == 2
    assert run("scene", "--config", str(tmp_path / "nope.cfg"))[0] == 2


def test_cli_malformed_input_exits_2(tmp_path, capsys):
    cases = {
        "list.json": ("scene", "[1, 2]"),
        "no_L.json": ("scene", '{"nu": "(101)", "depth": 3, "x_mode": "rank"}'),
        "broken.json": ("scene", '{"nu": (101)'),
        "typo.json": ("config", '{"nu": "(101)", "depth": "x"}'),
    }
    for name, (kind, text) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["verify", f"--{kind}", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
    # a negative stage count, as a flag and from a config
    neg = tmp_path / "neg.cfg"
    neg.write_text("nu=(101)\nL=(101).\ndepth=4\nglue_stages=-1\n")
    for argv in (["glue", "--nu", "(101)", "--L", "(101).", "--depth", "4", "--glue", "-1"],
                 ["glue", "--config", str(neg)], ["probe", "--config", str(neg)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    # unreadable paths: a directory, bytes that are not UTF-8, an output
    # path that is a directory
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"nu": "(101)", "L": "\xff"}')
    argvs = [["verify", "--scene", str(tmp_path)], ["verify", "--config", str(tmp_path)],
             ["verify", "--scene", str(latin)], ["verify", "--config", str(latin)],
             ["scene", "--nu", "(101)", "--depth", "2", "--out", str(tmp_path)]]
    for argv in argvs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err
