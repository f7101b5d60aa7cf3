"""SVG rendering and the command line."""
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from xml.sax.saxutils import escape

from conftest import GRID_CASES, figure_nu, figure_tails, grid_case

from tentplane import (
    KneadingSequence,
    RightSeq,
    block_midpoint,
    build_scene,
    cli,
    enumerate_cylinders,
    is_admissible_tail,
    kneading_from_slope,
    parse_left,
    scene_from_json,
    scene_to_json,
)
from tentplane.cli import main, parse_config
from tentplane.errors import ConflictError, MalformedSequence, NotAdmissible, ParseError
from tentplane import svg as svg_module
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


def ref_render_scene(scene, fmt, portrait=False):
    """render_scene as first written, every height and radius a Fraction
    converted to float, each number spelled by ``fmt``."""
    xs, ys = [0.0, 1.0], [0.0, 1.0]
    for s in scene.segments:
        xs += [float(s.x_lo), float(s.x_hi)]
        ys.append(float(s.y.value))
    for j in scene.joins:
        r = float((j.y_hi - j.y_lo) / 2)
        xs.append(float(j.x0) + r if j.side == "right" else float(j.x0) - r)
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    sx = (800 - 96) / ((xmax - xmin) or 1.0)
    sy = (520 - 96) / ((ymax - ymin) or 1.0)

    def X(v):
        return 48 + (v - xmin) * sx

    def Y(v):
        return 520 - 48 - (v - ymin) * sy

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="800" height="520" viewBox="0 0 800 520">']
    if portrait:
        parts.append(f'<g transform="rotate(90 {fmt(400)} {fmt(260)})">')
    parts.append(f'<rect x="{fmt(48)}" y="{fmt(48)}" width="{fmt(704)}" height="{fmt(424)}" '
                 'fill="none" stroke="#cccccc" stroke-width="1"/>')
    for s in scene.segments:
        y = Y(float(s.y.value))
        parts.append(f'<line x1="{fmt(X(float(s.x_lo)))}" y1="{fmt(y)}" x2="{fmt(X(float(s.x_hi)))}" '
                     f'y2="{fmt(y)}" stroke="#000000" stroke-width="1.5"/>')
    for j in scene.joins:
        r = float((j.y_hi - j.y_lo) / 2)
        x, y1, y2 = X(float(j.x0)), Y(float(j.y_lo)), Y(float(j.y_hi))
        sweep = 0 if j.side == "right" else 1
        parts.append(f'<path d="M {fmt(x)} {fmt(y1)} A {fmt(r * sx)} {fmt(r * sy)} 0 0 {sweep} {fmt(x)} '
                     f'{fmt(y2)}" fill="none" stroke="#3355bb" stroke-width="1.2"/>')
    for s in scene.segments:
        y = Y(float(s.y.value))
        parts.append(f'<text x="{fmt(X(float(s.x_hi)) + 5)}" y="{fmt(y + 3)}" '
                     f'font-family="monospace" font-size="10">{escape(s.label)}</text>')
    if portrait:
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("case", GRID_CASES)
def test_render_agrees_with_fraction_reference(case, monkeypatch):
    # as drawn, and with every number spelled by float.hex, so that the
    # heights, radii and bulge ends read from the scene grid are pinned
    # bit for bit
    sc = grid_case(case)
    for portrait in (False, True):
        assert render_scene(sc, portrait=portrait) == ref_render_scene(sc, lambda v: f"{float(v):.6f}", portrait)
    monkeypatch.setattr(svg_module, "_f", lambda v: float(v).hex())
    for portrait in (False, True):
        assert render_scene(sc, portrait=portrait) == ref_render_scene(sc, lambda v: float(v).hex(), portrait)


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
    # a context the scene commands refuse orders no words either
    for ctx in ("(0).", "(1*)."):
        for cmd in ("cylinders", "scene", "verify"):
            assert run(cmd, "--nu", "(101)", "--depth", "3", "--L", ctx)[0] == 2, (cmd, ctx)
    # deeper than the interpreter's recursion limit
    code, out = run("cylinders", "--nu", "(1)", "--depth", "1200")
    assert code == 0 and out.split() == ["1" * 1200]
    code, out = run("verify", "--nu", "(1)", "--L", "(1).", "--depth", "1200")
    assert code == 0 and out == "0 violation(s)\n"


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


def test_cli_inadmissible_tail_in_scene_file(tmp_path, capsys):
    # (100). leaves golden nu's bounds at its factor 100
    with pytest.raises(NotAdmissible, match=r"^tail \(100\)\. is not admissible$"):
        build_scene(GOLD, "(101).", tails=["(011)010.", "(100)."])
    path = _written_scene(tmp_path, "--nu", "(101)", "--L", "(101).",
                          "--tails", "(011)010.", "(011)110.")
    data = json.loads(path.read_text())
    # the row of (011)110., which is stored as typed and so has no label
    row, = [r for r in data["segments"] if "label" not in r]
    row["tail"] = "(100)."
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--scene", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: tail (100). is not admissible\n")


def test_cli_star_tails_are_not_arcs(capsys):
    for argv, msg in (
        (["--nu", "1(0)", "--L", "(1).", "--tails", "(1*).", "(10)."], "tail (1*). is not admissible"),
        (["--nu", "(101)", "--L", "(101).", "--tails", "(01)*1."], "tail (01)*1. is not admissible"),
        (["--nu", "(101)", "--L", "(1*1).", "--tails", "(101)."], "context (1*1). is not admissible"),
    ):
        capsys.readouterr()
        assert main(["verify", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {msg}\n")


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


def test_cli_verify_scene_file_trusted_far_past_its_word(tmp_path, monkeypatch, capsys):
    # a validated depth far past the stored word reads no more of nu than
    # the questions need
    expand = RightSeq.expand

    def bounded(self, n):
        assert n <= 10**6, f"expanded {n} symbols"
        return expand(self, n)

    monkeypatch.setattr(RightSeq, "expand", bounded)
    # the rank layout places orbit points the stored (101) repeats, which
    # no finite validated depth orders; the second file's value layout
    # orders only its arcs' ends, and its slope is checked against its nu
    for argv, ranked in ((["--nu", "(101)", "--L", "(1).", "--depth", "6"], True),
                         (["--slope", str((1 + math.sqrt(5)) / 2), "--L", "(101).",
                           "--tails", "(011)010.", "(011)110.", "--x-mode", "value"], False)):
        path = _written_scene(tmp_path, *argv)
        data = json.loads(path.read_text())
        for depth in (10**9, 10**15):
            data["validated_depth"] = depth
            path.write_text(json.dumps(data))
            capsys.readouterr()
            if ranked:
                assert run("verify", "--scene", str(path)) == (2, ""), (argv, depth)
                err = capsys.readouterr().err
                assert err.startswith("error: orbit points ") and err.endswith(f" agree over validated depth {depth}\n")
                assert err.count("\n") == 1, err
            else:
                assert run("verify", "--scene", str(path)) == (0, "0 violation(s)\n"), (argv, depth)


def test_cli_scene_file_nu_cannot_order(tmp_path, capsys):
    # nu = 10111101110101(0) validated to 14 orders every orbit point a
    # depth-10 layout of context (0111)1. places, but not those of depth 13
    nu = KneadingSequence(RightSeq("10111101110101", "0"), validated_depth=14.0)
    path = tmp_path / "deep.json"
    path.write_text(scene_to_json(build_scene(nu, "(0111)1.", depth=10)))
    assert run("verify", "--scene", str(path)) == (0, "0 violation(s)\n")
    data = json.loads(path.read_text())
    assert data["validated_depth"] == 14
    data["depth"] = 13
    path.write_text(json.dumps(data))
    for cmd in ("verify", "glue", "render", "probe"):
        capsys.readouterr()
        assert run(cmd, "--scene", str(path)) == (2, ""), cmd
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (cmd, err)
        assert "validated depth 14" in err and "Traceback" not in err, (cmd, err)


def test_cli_scene_file_slope_must_have_its_nu(tmp_path, capsys):
    # slope 1.9 has kneading sequence 100011111101..., not (101); a good
    # golden (101) scene gets that slope in its file
    sc = build_scene(GOLD, "(101).", tails=["(011)010.", "(011)110.", "(101)."], x_mode="value")
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(dict(json.loads(scene_to_json(sc)), slope=1.9)))
    with pytest.raises(ConflictError):
        scene_from_json(path.read_text())
    for cmd in ("verify", "glue", "render"):
        assert main([cmd, "--scene", str(path)]) == 2, cmd
        assert capsys.readouterr().err == "error: nu (101) is not the kneading sequence of slope 1.9\n"
    # a cut nu is compared over its validated depth only: one cut
    # shorter than its stored word, one whose word goes on arbitrarily
    cut = kneading_from_slope.__wrapped__(1.9, max_iter=100)
    data = json.loads(path.read_text())
    for nu in (KneadingSequence(cut.seq, validated_depth=40.0),
               KneadingSequence(RightSeq(cut.expand(100), "0"), validated_depth=100.0),
               kneading_from_slope.__wrapped__(1.95, max_iter=40)):
        data.update(nu=str(nu.seq), validated_depth=int(nu.validated_depth))
        if nu.slope == 1.95:
            with pytest.raises(ConflictError):
                scene_from_json(json.dumps(data))
        else:
            assert scene_from_json(json.dumps(data)).nu.seq == nu.seq


def test_build_scene_slope_must_have_its_nu():
    tails = ["(011)010.", "(011)110.", "(101)."]
    with pytest.raises(ConflictError, match=r"^nu \(101\) is not the kneading sequence of slope 1.9$"):
        build_scene(KneadingSequence("(101)"), "(101).", tails=tails, x_mode="value", slope=1.9)
    # the slope of nu itself, given or not, builds the same scene
    given = build_scene(KneadingSequence("(101)"), "(101).", tails=tails, x_mode="value", slope=GOLD.slope)
    assert scene_to_json(given) == scene_to_json(build_scene(GOLD, "(101).", tails=tails, x_mode="value"))


def test_render_escapes_labels_as_saxutils():
    sc = build_scene(GOLD, "(1).", tails=["(011)010.", "(011)110."])
    label = "a&b<c>d&amp;"
    sc = replace(sc, segments=[replace(sc.segments[0], label=label), *sc.segments[1:]])
    svg = render_scene(sc)
    assert f">{escape(label)}</text>" in svg
    assert ">a&amp;b&lt;c&gt;d&amp;amp;</text>" in svg


def test_import_loads_no_network_or_mail_modules():
    code = ("import sys, tentplane; "
            "print([m for m in ('urllib.request', 'http.client', 'email.parser') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"


def test_cli_parser_built_once(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args: seen.append(args) or 0)
    cli._build_parser.cache_clear()
    argv = ["probe", "--nu", "(101)", "--L", "(1).", "--depth", "3"]
    assert main(argv + ["--no-strict", "--x", "0.5"]) == 0
    assert main(argv) == 0
    assert cli._build_parser.cache_info().misses == 1
    # each call fills a fresh namespace: no value of the first call leaks
    assert (seen[0].strict, seen[0].x) == (False, 0.5)
    assert (seen[1].strict, seen[1].x) == (True, None)
    assert seen[0] is not seen[1]


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
    with pytest.raises(ParseError, match="unknown key 'wat'"):
        parse_config('{"wat": 1}')
    # only text starting with "{" is read as JSON
    with pytest.raises(ParseError, match="expected key=value") as e:
        parse_config("[1, 2]")
    assert (e.value.line, e.value.col) == (1, 1)
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


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("nu=(101)\nL=(101).\ndepth=3\n")
    code, out = run("scene", "--config", str(cfg))
    assert code == 0 and json.loads(out)["L"] == "(101)."
    # cylinders reads its depth from the file too, and needs one from somewhere
    code, out = run("cylinders", "--config", str(cfg))
    assert (code, out) == run("cylinders", "--nu", "(101)", "--L", "(101).", "--depth", "3") and code == 0
    capsys.readouterr()
    assert run("cylinders", "--nu", "(101)")[0] == 2
    assert capsys.readouterr().err == "error: need --depth\n"
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
        # integers past an index-sized int
        "deep.cfg": ("config", "nu=(101)\nL=(1).\ndepth=100000000000000000000\n"),
        "trusted400.json": ("scene", '{"nu": "10011001(0)", "L": "(1).", "depth": 3, '
                            f'"x_mode": "rank", "validated_depth": {10**400}}}'),
        "trusted30.json": ("scene", '{"nu": "10011001(0)", "L": "(1).", "depth": 3, '
                           f'"x_mode": "rank", "validated_depth": {10**30}}}'),
        # a value layout whose slope is no tent map of the family
        "slope5.json": ("scene", '{"nu": "(101)", "L": "(101).", "x_mode": "value", "slope": 5.0, '
                        '"segments": [{"tail": "(011)010."}, {"tail": "(011)110."}, '
                        '{"tail": "(101)."}]}'),
    }
    for name, (kind, text) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["verify", f"--{kind}", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
    for cmd in ("glue", "render"):
        assert main([cmd, "--scene", str(tmp_path / "slope5.json")]) == 2, cmd
        assert capsys.readouterr().err == "error: slope must be in (1, 2], got 5.0\n"
    # a negative stage count, as a flag and from a config, refused before
    # the scene is built: one whose stack raises, one file that disagrees
    # with its rebuild
    neg = tmp_path / "neg.cfg"
    neg.write_text("nu=(101)\nL=(101).\ndepth=4\nglue_stages=-1\n")
    edited = tmp_path / "edited.json"
    assert main(["scene", "--nu", "(101)", "--L", "(101).", "--depth", "4", "--out", str(edited)]) == 0
    data = json.loads(edited.read_text())
    data["joins"][0]["x0"] += 1e-12
    edited.write_text(json.dumps(data))
    deep = ["--nu", "(10)", "--L", "(10).", "--depth", "670", "--glue", "-1"]
    for argv in (["glue", "--nu", "(101)", "--L", "(101).", "--depth", "4", "--glue", "-1"],
                 ["glue", "--config", str(neg)], ["probe", "--config", str(neg)],
                 ["glue", *deep], ["probe", *deep], ["glue", "--scene", str(edited), "--glue", "-1"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: glue stages must be at least 0, got -1\n", argv
    # unreadable paths: a directory, bytes that are not UTF-8, an output
    # path that is a directory
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"nu": "(101)", "L": "\xff"}')
    argvs = [["verify", "--scene", str(tmp_path)], ["verify", "--config", str(tmp_path)],
             ["verify", "--scene", str(latin)], ["verify", "--config", str(latin)],
             ["scene", "--nu", "(101)", "--depth", "2", "--out", str(tmp_path)],
             ["cylinders", "--nu", "(101)", "--depth", str(10**20)],
             ["verify", "--nu", "(101)", "--L", "(1).", "--depth", str(10**20)]]
    for argv in argvs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err


def test_cylinder_depth_past_the_bound_exits_2(tmp_path, capsys):
    # slope 2 has 2^60 words at depth 60; the listing stops at length 18
    full = kneading_from_slope(2.0)
    with pytest.raises(MalformedSequence, match="depth 60 is refused"):
        build_scene(full, "(1).", depth=60)
    text = scene_to_json(build_scene(full, "(1).", depth=3)).replace('"depth": 3', '"depth": 60')
    path = tmp_path / "deep.json"
    path.write_text(text)
    for argv in (["verify", "--scene", str(path)], ["cylinders", "--nu", "1(0)", "--depth", "60"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: depth 60 is refused") and err.count("\n") == 1, (argv, err)


def test_cli_tube_underflow_exits_1(capsys):
    # the tube half-width of levels 669 and 670 rounds to 0.0 at depth 670
    for cmd in ("glue", "probe"):
        assert main([cmd, "--nu", "(10)", "--L", "(10).", "--depth", "670"]) == 1, cmd
        assert capsys.readouterr() == ("", "error: level 669 chart has no room for a tube\n"), cmd


def test_cli_slope_orbit_is_computed_once(monkeypatch):
    # the scene reads the slope off the nu that --slope gave, so the
    # orbit is not run a second time to check the two agree
    want = scene_to_json(build_scene(kneading_from_slope(1.7), "(1).", depth=4)) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("a second orbit of the slope")

    monkeypatch.setattr("tentplane.scene.kneading_from_slope", refuse)
    assert run("scene", "--slope", "1.7", "--depth", "4") == (0, want)


def test_cli_cylinders_context_order_is_height_order():
    # the integer height key orders the words as their exact heights do
    for nu, depth in ((GOLD, 7), (kneading_from_slope(2.0), 5), (kneading_from_slope(math.sqrt(2)), 8)):
        words = enumerate_cylinders(nu, depth)
        for ctx in ("(1).", "(101).", "(10)0.", "(011)1101.", "(0)1.", "(1)01.", "(10)1."):
            code, out = run("cylinders", "--nu", str(nu.seq), "--depth", str(depth), "--L", ctx)
            L = parse_left(ctx)
            if not is_admissible_tail(L, nu):
                # refused, as scene and verify refuse it
                assert code == 2, (str(nu.seq), ctx)
                continue
            assert code == 0 and out.split() == sorted(words, key=lambda w: block_midpoint(w, L).value), ctx
