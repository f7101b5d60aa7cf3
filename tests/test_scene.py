"""Scene assembly, planarity checks, and serialization."""
import dataclasses
import json
from bisect import bisect_left, bisect_right
import math
import random
from fractions import Fraction

import pytest

from conftest import figure_nu, figure_tails, figure_labels, random_tail

from tentplane import (
    AmbiguousAtDepth,
    KneadingSequence,
    MalformedSequence,
    NotAdmissible,
    ParseError,
    RightSeq,
    SceneJoin,
    betweenness_check,
    build_scene,
    kneading_from_slope,
    parse_left,
    scene_from_json,
    scene_to_json,
    verify_noncrossing,
)
from tentplane.cantor import CantorCoordinate
from tentplane.kneading import kneading_from_text
from tentplane.scene import scene_to_dict

GOLD = kneading_from_slope((1 + math.sqrt(5)) / 2)
TRUNCATED_NU = KneadingSequence(RightSeq("10111101110101", "0"), validated_depth=14.0)

JOIN_SET = {
    (1, "right", "N12", "N1"),
    (1, "right", "N11", "N2"),
    (1, "right", "N9", "N3"),
    (1, "right", "N8", "N5"),
    (1, "right", "N7", "N6"),
    (2, "left", "N6", "N1"),
    (2, "left", "N4", "N3"),
    (2, "left", "N5", "N2"),
    (3, "left", "N12", "N9"),
    (4, "left", "N8", "N7"),
    (7, "left", "N11", "N10"),
}


def _labeled(scene):
    lab = figure_labels()
    return [lab.get(s.label, s.label) for s in scene.segments]


def _joins(scene):
    lab = figure_labels()
    return {(j.level, j.side, lab[j.low.label], lab[j.high.label]) for j in scene.joins}


def test_reference_scene_heights():
    sc = build_scene(figure_nu(), "(1).", tails=figure_tails() + [parse_left("(1).")])
    assert len(sc.segments) == 13 and len(sc.joins) == 11
    assert _labeled(sc)[::-1] == ["(1)."] + [f"N{i}" for i in range(1, 13)]
    # the context tail sits on top at height 1
    assert sc.segments[-1].y.value == 1
    assert _joins(sc) == JOIN_SET
    assert verify_noncrossing(sc) == []
    assert betweenness_check(sc) == []


def test_reference_scene_other_context():
    sc = build_scene(figure_nu(), figure_tails()[5], tails=figure_tails())
    assert _labeled(sc)[::-1] == [
        "N6", "N5", "N4", "N3", "N2", "N1", "N12", "N10", "N11", "N9", "N8", "N7"]
    # same partnership as under the other context, only the height order
    # inside each pair can flip
    assert {(l, s, frozenset({a, b})) for l, s, a, b in _joins(sc)} == {
        (l, s, frozenset({a, b})) for l, s, a, b in JOIN_SET}
    assert (2, "left", "N1", "N6") in _joins(sc)
    assert verify_noncrossing(sc) == []
    assert betweenness_check(sc) == []


def test_join_geometry_accessors():
    sc = build_scene(figure_nu(), "(1).", tails=figure_tails())
    j = sc.joins[0]
    assert j.y_lo == j.low.y.value and j.y_hi == j.high.y.value
    assert j.y_lo < j.y_hi
    assert j.center == (j.y_lo + j.y_hi) / 2
    assert j.radius == (j.y_hi - j.y_lo) / 2


def test_cylinder_scene_frozen():
    sc = build_scene(GOLD, "(101).", depth=3)
    assert sc.mode == "cylinders"
    assert [s.word for s in sc.segments] == ["010", "110", "111", "011", "101"]
    # the top block carries the context's own window
    assert sc.segments[-1].word == sc.context.window(3)
    assert {(j.level, j.side, j.low.word, j.high.word) for j in sc.joins} == {
        (1, "right", "010", "011"),
        (1, "right", "110", "111"),
        (2, "left", "111", "101"),
        (3, "left", "010", "110"),
    }
    assert verify_noncrossing(sc) == []
    assert betweenness_check(sc) == []
    assert sc.segments[0].last(2) == "10" and sc.segments[0].last(0) == ""


def test_cylinder_scene_depth_six():
    sc = build_scene(GOLD, "(101).", depth=6)
    assert len(sc.segments) == 21 and len(sc.joins) == 20
    assert verify_noncrossing(sc) == []
    assert betweenness_check(sc) == []


def test_value_mode_scene():
    sc = build_scene(GOLD, "(101).", tails=["(011)010.", "(011)110."], x_mode="value")
    for s in sc.segments:
        assert float(s.x_lo) == pytest.approx(0.5)
        assert float(s.x_hi) == pytest.approx((1 + math.sqrt(5)) / 4)
    (j,) = sc.joins
    assert (j.level, j.side) == (3, "left")
    assert float(j.x0) == pytest.approx(0.5)
    assert verify_noncrossing(sc) == []
    assert betweenness_check(sc) == []


def test_build_scene_guards():
    with pytest.raises(MalformedSequence):
        build_scene(GOLD, "(101).", tails=["(101)."], depth=2)
    with pytest.raises(MalformedSequence):
        build_scene(GOLD, "(101).")
    with pytest.raises(NotAdmissible):
        build_scene(GOLD, "(100).", tails=["(101)."])
    with pytest.raises(NotAdmissible):
        build_scene(GOLD, "(101).", tails=["(100)."])
    with pytest.raises(MalformedSequence):
        build_scene(figure_nu(), "(1).", tails=["(1)."], x_mode="value")
    assert len(build_scene(GOLD, "(101).", tails=["(011)010.", "(011)010."]).segments) == 1


def _permute_heights(scene, rng):
    ys = [s.y for s in scene.segments]
    shuffled = ys[:]
    rng.shuffle(shuffled)
    segs = [dataclasses.replace(s, y=y2) for s, y2 in zip(scene.segments, shuffled)]
    by = {s.label: s for s in segs}
    joins = []
    for j in scene.joins:
        lo, hi = by[j.low.label], by[j.high.label]
        if lo.y.value > hi.y.value:
            lo, hi = hi, lo
        joins.append(SceneJoin(j.level, j.side, lo, hi, j.x0))
    return dataclasses.replace(
        scene, segments=sorted(segs, key=lambda s: s.y.value), joins=joins)


def test_checks_catch_scrambled_heights():
    sc = build_scene(figure_nu(), "(1).", tails=figure_tails() + [parse_left("(1).")])
    caught = 0
    for seed in range(10):
        p = _permute_heights(sc, random.Random(seed))
        if verify_noncrossing(p) or betweenness_check(p):
            caught += 1
    assert caught == 10


def test_scene_json_round_trip():
    sc = build_scene(figure_nu(), "(1).", tails=figure_tails() + [parse_left("(1).")])
    d = scene_to_dict(sc)
    assert sorted(d) == ["L", "depth", "joins", "nu", "segments", "validated_depth", "x_mode"]
    assert d["nu"] == "10011001(0)" and d["L"] == "(1)." and d["depth"] is None
    rt = scene_from_json(scene_to_json(sc))
    assert [s.label for s in rt.segments] == [s.label for s in sc.segments]
    assert [s.y for s in rt.segments] == [s.y for s in sc.segments]
    assert [(s.x_lo, s.x_hi) for s in rt.segments] == [(s.x_lo, s.x_hi) for s in sc.segments]
    assert [(j.level, j.side, j.low.label, j.high.label) for j in rt.joins] == [
        (j.level, j.side, j.low.label, j.high.label) for j in sc.joins]


def test_cylinder_json_round_trip():
    sc = build_scene(GOLD, "(101).", depth=4)
    d = scene_to_dict(sc)
    assert sorted(d) == ["L", "depth", "joins", "nu", "segments", "slope", "x_mode"]
    rt = scene_from_json(scene_to_json(sc))
    assert [s.word for s in rt.segments] == [s.word for s in sc.segments]
    assert len(rt.joins) == len(sc.joins)


def test_json_loads_every_written_form():
    nu_text = kneading_from_text("(101)")  # exact, no slope
    scenes = [
        build_scene(GOLD, "(101).", tails=["(011)010.", "(011)110."], x_mode="value"),
        build_scene(nu_text, "(101).", tails=["(011)010.", "(101)."]),
        build_scene(figure_nu(), "(1).", depth=5),
        build_scene(nu_text, "(1).", depth=4),
    ]
    for sc in scenes:
        rt = scene_from_json(scene_to_json(sc))
        assert scene_to_json(rt) == scene_to_json(sc)


def test_scene_from_json_rejects_malformed():
    good = scene_to_dict(build_scene(GOLD, "(101).", tails=["(011)010.", "(011)110."]))
    with pytest.raises(ParseError, match="object"):
        scene_from_json("[1, 2]")
    with pytest.raises(ParseError) as e:
        scene_from_json('{"nu": (101)')
    assert (e.value.line, e.value.col) == (1, 8)
    missing = object()
    cases = [
        ("L", missing, "L"), ("nu", missing, "nu"), ("x_mode", missing, "x_mode"),
        ("segments", missing, "segments"), ("L", 3, "L"), ("depth", "4", "depth"),
        ("validated_depth", 9.5, "validated_depth"), ("slope", "2", "slope"),
        ("segments", [["(101)."]], "segments"), ("segments", [{"label": "(101)."}], "tail"),
    ]
    for key, bad, named in cases:
        data = dict(good)
        if bad is missing:
            del data[key]
        else:
            data[key] = bad
        with pytest.raises(ParseError, match=f"'{named}'"):
            scene_from_json(json.dumps(data))


@pytest.mark.xfail(strict=True, reason="rank layout merges orbit points a truncated nu cannot order")
def test_truncated_nu_deeper_than_decided():
    nu = KneadingSequence(RightSeq("10111101110101", "0"), validated_depth=14.0)
    try:
        sc = build_scene(nu, "(0111)1.", depth=13)
    except AmbiguousAtDepth:
        return
    assert verify_noncrossing(sc) == [] and betweenness_check(sc) == []


# ---------------------------------------------- Fraction reference checkers
# the rank-mode bodies of verify_noncrossing and betweenness_check before
# they moved onto the integer grid


def _crosses_exact(side, x0, rr, x_lo, x_hi):
    if side == "right":
        d = x_hi - x0
        if not (d > 0 and d * d > rr):
            return False
        d = x_lo - x0
        return x_lo < x0 or d * d < rr
    d = x_lo - x0
    if not (d < 0 and d * d > rr):
        return False
    d = x_hi - x0
    return x_hi > x0 or d * d < rr


def _reference_noncrossing(scene):
    out = []
    by_y = sorted(scene.segments, key=lambda s: s.y.value)
    ys = [s.y.value for s in by_y]
    for j in scene.joins:
        ylo, yhi = j.y_lo, j.y_hi
        yc, r = (ylo + yhi) / 2, (yhi - ylo) / 2
        for k in range(bisect_right(ys, ylo), bisect_left(ys, yhi)):
            s = by_y[k]
            y = ys[k]
            dy = y - yc
            rr = r * r - dy * dy
            if _crosses_exact(j.side, j.x0, rr, s.x_lo, s.x_hi):
                out.append(
                    {
                        "kind": "segment-join",
                        "segment": s.label,
                        "join": (j.level, j.low.label, j.high.label),
                    }
                )
    spans = [(j.y_lo, j.y_hi) for j in scene.joins]
    js = scene.joins
    for a in range(len(js)):
        for b in range(a + 1, len(js)):
            ja, jb = js[a], js[b]
            if ja.side != jb.side or ja.x0 != jb.x0:
                continue
            alo, ahi = spans[a]
            blo, bhi = spans[b]
            if (alo < blo < ahi) != (alo < bhi < ahi):
                out.append(
                    {
                        "kind": "join-join",
                        "join_a": (ja.level, ja.low.label, ja.high.label),
                        "join_b": (jb.level, jb.low.label, jb.high.label),
                    }
                )
    return out


def _reference_betweenness(scene):
    nu = scene.nu
    out = []
    by_y = sorted(scene.segments, key=lambda s: s.y.value)
    ys = [s.y.value for s in by_y]
    for j in scene.joins:
        head = nu.expand(j.level - 1)
        for k in range(bisect_right(ys, j.y_lo), bisect_left(ys, j.y_hi)):
            s = by_y[k]
            if s.last(j.level - 1) != head:
                out.append({"kind": "foreign-symbols", "segment": s.label, "level": j.level})
                continue
            if j.side == "right":
                ok = s.x_hi <= j.x0
            else:
                ok = s.x_lo >= j.x0
            if not ok:
                out.append({"kind": "x-overreach", "segment": s.label, "level": j.level})
    return out


def _fan(scene, rng, n=8):
    """Every pair of the n lowest segments joined in the chart of the
    first join, in random order: shared endpoints in every arrangement."""
    j0 = scene.joins[0]
    segs = scene.segments[:n]
    joins = [SceneJoin(j0.level, j0.side, a, b, j0.x0) for i, a in enumerate(segs) for b in segs[i + 1 :]]
    rng.shuffle(joins)
    return dataclasses.replace(scene, joins=joins)


def _on_arc(scene):
    """Segments at heights 0, 1/2 and 1 under two bulges of radius 1/2
    whose arcs pass exactly through the ends of the two middle segments."""
    a, b, c, d = (dataclasses.replace(s, y=CantorCoordinate("", t)) for s, t in zip(scene.segments, "0121"))
    b = dataclasses.replace(b, x_lo=Fraction(0), x_hi=Fraction(3, 4))
    d = dataclasses.replace(d, x_lo=Fraction(3, 4), x_hi=Fraction(1))
    joins = [SceneJoin(1, "right", a, c, Fraction(1, 4)), SceneJoin(2, "left", a, c, Fraction(1, 2))]
    return dataclasses.replace(scene, segments=[a, b, d, c], joins=joins)


def _oracle_scenes():
    """(name, scene): rank cylinder and explicit-tail scenes, scrambled
    controls and the truncated-nu scene."""
    rng = random.Random(4)
    for name, nu in (("slope-2", kneading_from_slope(2.0)), ("golden", GOLD),
                     ("sqrt2", kneading_from_slope(math.sqrt(2)))):
        ctxs = []
        while len(ctxs) < 2:
            L = random_tail(rng, nu)
            if L not in ctxs:
                ctxs.append(L)
        for L in ctxs:
            for d in range(3, 11):
                yield f"{name} {L} depth {d}", build_scene(nu, L, depth=d)
    tails = figure_tails()
    fig = build_scene(figure_nu(), "(1).", tails=tails + [parse_left("(1).")])
    yield "figure (1).", fig
    yield "figure N6", build_scene(figure_nu(), tails[5], tails=tails)
    gold6 = build_scene(GOLD, "(101).", depth=6)
    for seed in range(10):
        yield f"figure scrambled {seed}", _permute_heights(fig, random.Random(seed))
        yield f"golden scrambled {seed}", _permute_heights(gold6, random.Random(seed))
        yield f"golden fan {seed}", _fan(gold6, random.Random(seed))
    yield "on the arc", _on_arc(gold6)
    yield "truncated nu", build_scene(TRUNCATED_NU, "(0111)1.", depth=13)


def test_checkers_agree_with_reference():
    kinds = set()
    for name, sc in _oracle_scenes():
        assert sc.x_mode == "rank"
        got = verify_noncrossing(sc)
        assert got == _reference_noncrossing(sc), name
        between = betweenness_check(sc)
        assert between == _reference_betweenness(sc), name
        kinds.update(v["kind"] for v in got + between)
        if name == "truncated nu":
            assert len(got + between) == 52
    assert kinds == {"segment-join", "join-join", "foreign-symbols", "x-overreach"}
