"""Scene assembly, planarity checks, and serialization."""
import dataclasses
import json
from bisect import bisect_left, bisect_right
from collections import Counter
import math
import random
import sys
from fractions import Fraction

import pytest

from conftest import GRID_CASES, figure_nu, figure_tails, figure_labels, grid_case, random_kneading, random_tail
from test_arcs import (
    MERGED,
    _oracle_pool,
    oracle_pool_nus,
    ref_landing_projection,
    ref_resolve_x,
    ref_window_projection,
)

from tentplane import (
    AmbiguousAtDepth,
    KneadingSequence,
    LeftTail,
    MalformedSequence,
    NotAdmissible,
    ParseError,
    RightSeq,
    SceneJoin,
    TentplaneError,
    betweenness_check,
    block_midpoint,
    build_glue_stack,
    build_scene,
    cantor_coordinate,
    collapse_certificate,
    enumerate_cylinders,
    is_admissible_tail,
    kneading_from_slope,
    parse_left,
    scene_from_json,
    scene_to_json,
    verify_noncrossing,
)
from tentplane.arcs import Join, _landing, flip_at, match_window, scan_tails, side_of_level
from tentplane.cantor import CantorCoordinate
from tentplane.cli import main
from tentplane.kneading import head_matches, kneading_from_text, tail_scan
from tentplane import scene as scene_module
from tentplane.scene import Scene, Segment, scene_to_dict

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
    # readers take a bulge's center and radius from the scene grid
    assert not hasattr(j, "center") and not hasattr(j, "radius")
    # a replaced copy reads its own ends, not the original's
    other = next(s for s in sc.segments if s.y.value not in (j.y_lo, j.y_hi))
    k = dataclasses.replace(j, high=other)
    assert (k.y_lo, k.y_hi) == (j.y_lo, other.y.value) != (j.y_lo, j.y_hi)


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
    shuffled = [s.y for s in scene.segments]
    rng.shuffle(shuffled)
    return _with_heights(scene, shuffled)


def _with_heights(scene, ys):
    """The scene with segment i at height ys[i], joins kept between the
    same segments, low end first."""
    segs = [dataclasses.replace(s, y=y2) for s, y2 in zip(scene.segments, ys)]
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


def test_truncated_nu_deeper_than_decided():
    # past depth 10 the layout needs orbit points nu cannot order
    for depth in (11, 12, 13):
        with pytest.raises(AmbiguousAtDepth, match=r" agree over validated depth 14$"):
            build_scene(TRUNCATED_NU, "(0111)1.", depth=depth)
    # the deepest depth it decides draws a planar scene
    sc = build_scene(TRUNCATED_NU, "(0111)1.", depth=10)
    assert len(sc.segments) == 84
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


# ------------------------------------------- integer-grid reference checkers
# the rank-mode bodies of verify_noncrossing and betweenness_check before
# they became output-sensitive: every join visits its whole gap and every
# pair of joins in a chart is compared


def ref_grid(scene):
    by_y = sorted(scene.segments, key=lambda s: s.y.value)
    heights = [s.y.value for s in by_y]
    ends = [(j.y_lo, j.y_hi, j.x0) for j in scene.joins]
    dy = math.lcm(*{q.denominator for q in heights}, *{q.denominator for e in ends for q in e[:2]})
    dx = math.lcm(
        *{q.denominator for s in by_y for q in (s.x_lo, s.x_hi)},
        *{e[2].denominator for e in ends},
    )

    def on(q, d):
        return q.numerator * (d // q.denominator)

    return (
        dy,
        dx,
        by_y,
        [on(q, dy) for q in heights],
        [on(s.x_lo, dx) for s in by_y],
        [on(s.x_hi, dx) for s in by_y],
        [(on(lo, dy), on(hi, dy), on(x0, dx)) for lo, hi, x0 in ends],
    )


def _join_key(j):
    return (j.level, j.low.label, j.high.label)


def ref_noncrossing_grid(scene):
    dy, dx, by_y, ys, x_los, x_his, spans = ref_grid(scene)
    dy2, dx2 = dy * dy, dx * dx
    js = scene.joins
    out = []
    for j, (ylo, yhi, x0) in zip(js, spans):
        right = j.side == "right"
        for k in range(bisect_right(ys, ylo), bisect_left(ys, yhi)):
            y = ys[k]
            rr = (y - ylo) * (yhi - y) * dx2
            lo, hi = x_los[k] - x0, x_his[k] - x0
            if not right:
                lo, hi = -hi, -lo
            if hi > 0 and hi * hi * dy2 > rr and (lo < 0 or lo * lo * dy2 < rr):
                out.append({"kind": "segment-join", "segment": by_y[k].label, "join": _join_key(j)})
    charts = {}
    place = []
    for a, (j, (_, _, x0)) in enumerate(zip(js, spans)):
        chart = charts.setdefault((j.side, x0), [])
        place.append(len(chart))
        chart.append(a)
    for a, (alo, ahi, x0) in enumerate(spans):
        for b in charts[js[a].side, x0][place[a] + 1 :]:
            blo, bhi, _ = spans[b]
            if (alo < blo < ahi) != (alo < bhi < ahi):
                out.append({"kind": "join-join", "join_a": _join_key(js[a]), "join_b": _join_key(js[b])})
    return out


def ref_betweenness_grid(scene):
    if scene.x_mode == "rank":
        _, _, by_y, ys, x_lo, x_hi, spans = ref_grid(scene)
        tol = 0
    else:
        by_y = sorted(scene.segments, key=lambda s: s.y.value)
        ys = [s.y.value for s in by_y]
        x_lo = [float(s.x_lo) for s in by_y]
        x_hi = [float(s.x_hi) for s in by_y]
        spans = [(j.y_lo, j.y_hi, float(j.x0)) for j in scene.joins]
        tol = 1e-9
    out = []
    for j, (ylo, yhi, x0) in zip(scene.joins, spans):
        head = scene.nu.expand(j.level - 1)
        for k in range(bisect_right(ys, ylo), bisect_left(ys, yhi)):
            s = by_y[k]
            if s.last(j.level - 1) != head:
                out.append({"kind": "foreign-symbols", "segment": s.label, "level": j.level})
                continue
            if j.side == "right":
                ok = x_hi[k] <= x0 + tol
            else:
                ok = x_lo[k] >= x0 - tol
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


def _drawn(nu, context, **kwargs):
    """(scene, merged): where the merge reference met no comparison nu
    leaves undecided, build_scene draws its scene; where it met one,
    build_scene raises AmbiguousAtDepth and the merge's scene stands in
    as a checker input."""
    MERGED.clear()
    ref = ref_build_scene(nu, context, **kwargs)
    if MERGED:
        with pytest.raises(AmbiguousAtDepth):
            build_scene(nu, context, **kwargs)
        return ref, True
    sc = build_scene(nu, context, **kwargs)
    assert scene_to_dict(sc) == scene_to_dict(ref), (str(nu), str(context), kwargs)
    return sc, False


def _oracle_scenes(merges):
    """(name, scene): rank cylinder and explicit-tail scenes, scrambled
    controls and the truncated-nu scene the merge drew; whether each
    drawn scene met a merge is added to ``merges``."""
    def drawn(*args, **kwargs):
        sc, merged = _drawn(*args, **kwargs)
        merges.add(merged)
        return sc

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
                yield f"{name} {L} depth {d}", drawn(nu, L, depth=d)
    tails = figure_tails()
    fig = drawn(figure_nu(), "(1).", tails=tails + [parse_left("(1).")])
    yield "figure (1).", fig
    yield "figure N6", drawn(figure_nu(), tails[5], tails=tails)
    gold6 = drawn(GOLD, "(101).", depth=6)
    for seed in range(10):
        yield f"figure scrambled {seed}", _permute_heights(fig, random.Random(seed))
        yield f"golden scrambled {seed}", _permute_heights(gold6, random.Random(seed))
        yield f"golden fan {seed}", _fan(gold6, random.Random(seed))
    yield "on the arc", _on_arc(gold6)
    yield "truncated nu", drawn(TRUNCATED_NU, "(0111)1.", depth=13)


def test_checkers_agree_with_reference():
    kinds, merges = set(), set()
    for name, sc in _oracle_scenes(merges):
        assert sc.x_mode == "rank"
        got = verify_noncrossing(sc)
        assert got == _reference_noncrossing(sc), name
        between = betweenness_check(sc)
        assert between == _reference_betweenness(sc), name
        kinds.update(v["kind"] for v in got + between)
        if name == "truncated nu":
            assert len(got + between) == 52
    assert kinds == {"segment-join", "join-join", "foreign-symbols", "x-overreach"}
    # scenes build_scene draws as the merge did, and one it refuses
    assert merges == {False, True}


def _tamper(scene, rng):
    """Swap the height of a segment strictly inside a level >= 2 join gap
    with that of a segment whose last level-1 symbols are not nu's head,
    so the moved segment sits in the gap with foreign symbols."""
    ys = [s.y.value for s in scene.segments]
    gaps = [(j, bisect_right(ys, j.y_lo), bisect_left(ys, j.y_hi)) for j in scene.joins if j.level >= 2]
    j, lo, hi = rng.choice([g for g in gaps if g[1] < g[2]])
    inside = scene.segments[rng.randrange(lo, hi)]
    head = scene.nu.expand(j.level - 1)
    foreign = rng.choice([s for s in scene.segments if s.last(j.level - 1) != head])
    swap = {inside.label: foreign.y, foreign.label: inside.y}
    return _with_heights(scene, [swap.get(s.label, s.y) for s in scene.segments]), foreign.label


def _star(scene, n=8):
    """The lowest segment joined to each of the next n in the chart of the
    first join, outermost first: spans that nest but share their low end."""
    j0 = scene.joins[0]
    low, *rest = scene.segments[: n + 1]
    joins = [SceneJoin(j0.level, j0.side, low, s, j0.x0) for s in reversed(rest)]
    return dataclasses.replace(scene, joins=joins)


def _reversed_span(scene):
    """Two joins in the chart of the first join: A spans segments 1..10,
    and B is given low end 12 and high end 5, so its low end lies above
    its high end and one of its ends falls inside A."""
    j0, segs = scene.joins[0], scene.segments
    joins = [SceneJoin(j0.level, j0.side, segs[1], segs[10], j0.x0),
             SceneJoin(j0.level, j0.side, segs[12], segs[5], j0.x0)]
    return dataclasses.replace(scene, joins=joins)


def _grid_oracle_scenes():
    """(name, scene): deep rank cylinder scenes, their tampered and
    scrambled copies, shared-end charts, a chart with a reversed span and
    value-mode tail scenes."""
    rng = random.Random(14)
    for name, nu, depths in (("golden", GOLD, (12, 13, 14)),
                             ("sqrt2", kneading_from_slope(math.sqrt(2)), (12, 13, 14)),
                             ("slope-2", kneading_from_slope(2.0), (10, 11))):
        ctxs = []
        while len(ctxs) < 2:
            L = random_tail(rng, nu)
            if L not in ctxs:
                ctxs.append(L)
        for L in ctxs:
            for d in depths:
                sc = build_scene(nu, L, depth=d)
                yield f"{name} {L} depth {d}", sc
                if d == depths[0]:
                    bad, label = _tamper(sc, random.Random(d))
                    yield f"{name} {L} depth {d} tampered ({label})", bad
                if d == depths[0] and name == "golden":
                    # every chart tangled: the pairwise scans interleave
                    yield f"{name} {L} depth {d} scrambled", _permute_heights(sc, random.Random(d))
    gold6 = build_scene(GOLD, "(101).", depth=6)
    for seed in range(10):
        yield f"golden fan {seed}", _fan(gold6, random.Random(seed))
    yield "golden star", _star(gold6)
    yield "on the arc", _on_arc(gold6)
    yield "reversed span", _reversed_span(gold6)
    value_nu = kneading_from_slope(1.9, max_iter=512)
    for seed in range(3):
        pool = [t for t in _oracle_pool(random.Random(seed), value_nu) if is_admissible_tail(t, value_nu)]
        vs = build_scene(value_nu, random_tail(random.Random(seed), value_nu), tails=pool, x_mode="value")
        yield f"value {seed}", vs
        yield f"value {seed} scrambled", _permute_heights(vs, random.Random(seed))


def test_checkers_agree_with_grid_reference():
    kinds = Counter()
    for name, sc in _grid_oracle_scenes():
        between = betweenness_check(sc)
        assert between == ref_betweenness_grid(sc), name
        if "tampered" in name:
            label = name[name.rindex("(") + 1 : -1]
            assert any(v["kind"] == "foreign-symbols" and v["segment"] == label for v in between), name
        got = verify_noncrossing(sc)
        if sc.x_mode == "rank":
            assert got == ref_noncrossing_grid(sc), name
        else:
            assert got == ref_noncrossing_value(sc), name
        if name == "reversed span":
            # a span with y_lo > y_hi is not nested, whatever its sort order
            assert [v["kind"] for v in got] == ["join-join"], got
        kinds.update(v["kind"] for v in got + between)
    assert set(kinds) == {"segment-join", "join-join", "foreign-symbols", "x-overreach"}


# ------------------------------------------------- value-mode reference
# the value-mode body of verify_noncrossing before it read the scene
# grid: every join visits its whole gap, and every pair of same-side
# joins whose float abscissae lie within the tolerance is compared


def _ref_crosses_float(side, x0, rr, x_lo, x_hi):
    arm = math.sqrt(rr)
    xc = x0 + arm if side == "right" else x0 - arm
    return min(x_hi - xc, xc - x_lo) > 1e-9


def ref_noncrossing_value(scene):
    out = []
    by_y = sorted(scene.segments, key=lambda s: s.y.value)
    ys = [s.y.value for s in by_y]
    for j in scene.joins:
        ylo, yhi = j.y_lo, j.y_hi
        yc, r = (ylo + yhi) / 2, (yhi - ylo) / 2
        for k in range(bisect_right(ys, ylo), bisect_left(ys, yhi)):
            s = by_y[k]
            dy = ys[k] - yc
            rr = r * r - dy * dy
            if _ref_crosses_float(j.side, float(j.x0), float(rr), float(s.x_lo), float(s.x_hi)):
                out.append({"kind": "segment-join", "segment": s.label, "join": _join_key(j)})
    js = scene.joins
    for a in range(len(js)):
        for b in range(a + 1, len(js)):
            ja, jb = js[a], js[b]
            if ja.side != jb.side or abs(float(ja.x0) - float(jb.x0)) > 1e-9:
                continue
            if (ja.y_lo < jb.y_lo < ja.y_hi) != (ja.y_lo < jb.y_hi < ja.y_hi):
                out.append({"kind": "join-join", "join_a": _join_key(ja), "join_b": _join_key(jb)})
    return out


def _value_tail_scenes():
    """(name, scene): value scenes of exact nu with one explicit tail per
    cylinder word, and scrambled copies.  Distinct levels share an
    abscissa: on golden nu levels 1/4/7, 2/5 and 3/6 up to float noise,
    on sqrt2 and slope 2 exactly."""
    for name, nu, context, depth in (("golden", GOLD, LeftTail("101", ""), 7),
                                     ("sqrt2", kneading_from_slope(math.sqrt(2)), LeftTail("1", ""), 6),
                                     ("slope-2", kneading_from_slope(2.0), LeftTail("1", ""), 5)):
        tails = [LeftTail(context.period, context.transient + w) for w in enumerate_cylinders(nu, depth)]
        sc = build_scene(nu, context, tails=[t for t in tails if is_admissible_tail(t, nu)], x_mode="value")
        yield name, sc
        for seed in range(3):
            yield f"{name} scrambled {seed}", _permute_heights(sc, random.Random(seed))


def test_value_noncrossing_agrees_with_reference():
    kinds = Counter()
    for name, sc in _value_tail_scenes():
        got = verify_noncrossing(sc)
        assert got == ref_noncrossing_value(sc), name
        if "scrambled" not in name:
            assert got == [], name
        x0 = {_join_key(j): float(j.x0) for j in sc.joins}
        for v in got:
            kinds[v["kind"]] += 1
            if v["kind"] == "join-join" and x0[v["join_a"]] != x0[v["join_b"]]:
                kinds["join-join across float noise"] += 1
    # pairs whose abscissae differ only by float noise are compared too
    assert min(kinds[k] for k in ("segment-join", "join-join", "join-join across float noise")) > 0, kinds


# ------------------------------------------------------ one grid per scene


def _count_grids(monkeypatch):
    built = []
    grid = scene_module._grid

    def counted(sc):
        built.append(sc)
        return grid(sc)

    monkeypatch.setattr(scene_module, "_grid", counted)
    return built


def test_scene_grid_is_built_once(monkeypatch):
    built = _count_grids(monkeypatch)
    sc = build_scene(GOLD, "(101).", depth=5)
    assert verify_noncrossing(sc) == [] and betweenness_check(sc) == []
    stack = build_glue_stack(sc)
    assert collapse_certificate(stack, sc)["ok"]
    assert built == [sc]


def test_replaced_scene_builds_its_own_grid(monkeypatch):
    built = _count_grids(monkeypatch)
    sc = build_scene(GOLD, "(101).", depth=6)
    assert betweenness_check(sc) == []
    bad, label = _tamper(sc, random.Random(6))
    found = betweenness_check(bad)
    assert built == [sc, bad] and bad.grid is not sc.grid
    assert any(v["kind"] == "foreign-symbols" and v["segment"] == label for v in found)


def test_scene_is_immutable():
    sc = build_scene(GOLD, "(101).", depth=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.segments = []
    assert type(sc.segments) is tuple and type(sc.joins) is tuple
    made = Scene(sc.nu, sc.context, sc.mode, sc.x_mode, list(sc.segments), list(sc.joins), depth=sc.depth)
    assert (made.segments, made.joins) == (sc.segments, sc.joins)
    assert type(made.segments) is tuple and type(made.joins) is tuple
    # lists given to replace, as a tampered copy is made
    bad, _ = _tamper(sc, random.Random(4))
    assert type(bad.segments) is tuple and type(bad.joins) is tuple


def test_checkers_are_output_sensitive(monkeypatch):
    # a clean scene: each segment answers last(m) at most once per level,
    # and no chart needs the pairwise join-join comparison
    sc = build_scene(kneading_from_text("(101)"), "(1).", depth=14)
    calls = Counter()
    last, interleaved = Segment.last, scene_module._interleaved

    def counted_last(self, k):
        calls["last"] += 1
        return last(self, k)

    def counted_interleaved(a, b):
        calls["interleaved"] += 1
        return interleaved(a, b)

    monkeypatch.setattr(Segment, "last", counted_last)
    monkeypatch.setattr(scene_module, "_interleaved", counted_interleaved)
    assert verify_noncrossing(sc) == [] and betweenness_check(sc) == []
    levels = {j.level for j in sc.joins}
    assert calls["last"] <= len(sc.segments) * len(levels), (calls, len(sc.segments), len(levels))
    assert calls["interleaved"] == 0
    # the shared-end charts of a fan fall back to the pairwise scan
    assert verify_noncrossing(_fan(sc, random.Random(0))) and calls["interleaved"] > 0


# ------------------------------------------------ build_scene reference
# build_scene before each arc was scanned once: the landing indices, the
# window projections and the joins each rescanned the arc's word


def ref_flip_joins(items, nu, window, flip):
    pool = Counter(items)
    out = []
    for a in items:
        w = window(a)
        for k in head_matches(w, nu):
            i = len(w) - 1 - k
            if i < 0 or w[i] == "1":
                continue
            b = flip(a, k + 1)
            out += [Join(k + 1, side_of_level(nu, k + 1), a, b)] * pool[b]
    return out


def ref_build_scene(nu, context, *, tails=None, depth=None, x_mode="rank", slope=None):
    if isinstance(context, str):
        context = parse_left(context)
    if (tails is None) == (depth is None):
        raise MalformedSequence("give either tails or depth, not both")
    if not is_admissible_tail(context, nu):
        raise NotAdmissible(f"context {context} is not admissible")
    if slope is None:
        slope = nu.slope
    entries = []
    if tails is not None:
        seen = {}
        for item in tails:
            label = item if isinstance(item, str) else str(item)
            tail = parse_left(item) if isinstance(item, str) else item
            if tail in seen:
                continue
            ok, ks = tail_scan(tail, nu, match_window(tail, nu))
            if not ok:
                raise NotAdmissible(f"tail {label} is not admissible")
            seen[tail] = label
            proj = ref_landing_projection(tail, nu, ks)
            entries.append((label, tail, None, cantor_coordinate(tail, context), proj))
        mode = "tails"
        # boundary_pairs: joins ordered by notation
        ts = [e[1] for e in entries]
        reach = max((len(t.transient) for t in ts), default=0)
        raw = [Join(j.level, j.side, *sorted((j.low, j.high), key=str))
               for j in ref_flip_joins(ts, nu, lambda t: t.window(reach), flip_at)]
        raw.sort(key=lambda j: (j.level, str(j.low)))
    else:
        for w in enumerate_cylinders(nu, depth):
            entries.append((w, None, w, block_midpoint(w, context), ref_window_projection(w, nu)))
        mode = "cylinders"
        raw = ref_flip_joins([e[2] for e in entries], nu, lambda w: w,
                             lambda w, m: w[: len(w) - m] + "1" + w[len(w) - m + 1 :])
    indices = {2}
    for e in entries:
        indices.add(e[4].lo_index)
        indices.add(e[4].hi_index)
    for j in raw:
        indices.add(j.level)
    xs = ref_resolve_x(indices, nu, mode=x_mode, slope=slope)
    segments = []
    for label, tail, word, y, proj in entries:
        segments.append(Segment(label, y, proj, xs[proj.lo_index], xs[proj.hi_index], tail=tail, word=word))
    segments.sort(key=lambda s: s.y.value)
    by_key = {}
    for s in segments:
        by_key[s.tail if s.tail is not None else s.word] = s
    joins = []
    for j in raw:
        lo, hi = by_key[j.low], by_key[j.high]
        if lo.y.value > hi.y.value:
            lo, hi = hi, lo
        joins.append(SceneJoin(j.level, j.side, lo, hi, xs[j.level]))
    joins.sort(key=lambda j: (j.level, str(j.low.label)))
    return Scene(nu, context, mode, x_mode, segments, joins, depth=depth, slope=slope)


def _built(build, *args, **kwargs):
    """A scene's file form and its projections, or the error it raised."""
    try:
        sc = build(*args, **kwargs)
    except TentplaneError as e:
        return type(e), str(e)
    return scene_to_dict(sc), [s.projection for s in sc.segments]


def _agree(*args, **kwargs):
    """build_scene's outcome and whether the merge reference met a
    comparison nu leaves undecided: if it did, build_scene raises
    AmbiguousAtDepth, else both give the same scene or error."""
    got = _built(build_scene, *args, **kwargs)
    MERGED.clear()
    want = _built(ref_build_scene, *args, **kwargs)
    if MERGED:
        assert got[0] is AmbiguousAtDepth, (args, kwargs)
    else:
        assert got == want, (args, kwargs)
    return got, bool(MERGED)


def _cylinder_oracle_pool():
    """(nu, context, depth): the C4 sweep's nus, contexts and depths, and
    under each nu's first context every depth in between."""
    rng = random.Random(2026)
    nus = [kneading_from_slope(2.0), GOLD, kneading_from_slope(math.sqrt(2))]
    seen = {str(n) for n in nus}
    while len(nus) < 23:
        n = random_kneading(rng, length=10)
        if str(n) not in seen:
            seen.add(str(n))
            nus.append(n)
    for nu in nus:
        ctxs, used = [], set()
        while len(ctxs) < 5:
            L = random_tail(rng, nu)
            if str(L) not in used:
                used.add(str(L))
                ctxs.append(L)
        dmax = 3
        for d in range(4, 11):
            if len(enumerate_cylinders(nu, d)) > 200:
                break
            dmax = d
        for i, L in enumerate(ctxs):
            for d in range(3, dmax + 1) if i == 0 else sorted({3, dmax}):
                yield nu, L, d


def test_cylinder_scenes_agree_with_reference():
    joins, merges = 0, Counter()
    for nu, L, d in _cylinder_oracle_pool():
        got, merged = _agree(nu, L, depth=d)
        merges[merged] += 1
        if not merged:
            joins += len(got[0]["joins"])
    assert joins > 5_000
    # layouts drawn as the merge drew them, and layouts it merged
    assert merges[False] and merges[True], merges


def test_tail_scenes_agree_with_reference():
    tails = figure_tails()
    for ctx in ("(1).", tails[5]):
        assert len(_agree(figure_nu(), ctx, tails=tails)[0][0]["joins"]) == 11
    # (011). matches nu up to 19 symbols, past its match window of 7 and
    # the longest transient: the landing reads its matches up to 7 only
    # the scene needs T^5(c) and T^8(c) ordered, which agree over all 20
    past = KneadingSequence(RightSeq("", "101"), validated_depth=20.0)
    tails = [parse_left(t) for t in ("(011).", "(101).", "(1)0101101101.")]
    assert _agree(past, "(101).", tails=tails) == ((AmbiguousAtDepth, "orbit points T^5(c) and T^8(c) "
                                                    "agree over validated depth 20"), True)
    assert _landing(tails[0], past, scan_tails(tails, past)[tails[0]].landing)[0] == 8
    rng = random.Random(43)
    nus = oracle_pool_nus(rng)
    kinds = Counter()
    for n in range(250):
        nu = nus[n % len(nus)]
        pool = _oracle_pool(rng, nu)
        # tails as typed, some spelled with a doubled period
        items = [str(t) if rng.random() < 0.5 else t for t in pool]
        items += [f"({t.period * 2}){t.transient}." for t in rng.sample(pool, min(2, len(pool)))]
        if n % 7 == 0:
            items.insert(rng.randrange(len(items) + 1), LeftTail("1" * rng.randint(2, 3), "0"))
        context = random_tail(rng, nu)
        for x_mode in ("rank", "value"):
            got, merged = _agree(nu, context, tails=items, x_mode=x_mode)
            kinds[got[0] if isinstance(got[0], type) else ("joins", x_mode, bool(got[0]["joins"]))] += 1
            kinds[("merged", x_mode, merged)] += 1
    # scenes with and without joins in both modes, every error kind, and
    # in both modes scenes drawn as the merge drew them and merged ones
    assert {("joins", m, j) for m in ("rank", "value") for j in (True, False)} <= set(kinds)
    assert {NotAdmissible, AmbiguousAtDepth, MalformedSequence} <= set(kinds)
    assert {("merged", m, b) for m in ("rank", "value") for b in (True, False)} <= set(kinds), kinds


def test_malformed_tail_reported_before_inadmissible_one(tmp_path):
    # every tail is parsed before any is scanned
    tails = ["(011)010.", "(100).", "(10"]
    with pytest.raises(MalformedSequence, match=r"^not a left tail: '\(10'$"):
        build_scene(GOLD, "(101).", tails=tails)
    with pytest.raises(NotAdmissible, match=r"^tail \(100\)\. is not admissible$"):
        ref_build_scene(GOLD, "(101).", tails=tails)
    path = tmp_path / "scene.json"
    data = {"nu": "(101)", "L": "(101).", "x_mode": "rank", "segments": [{"tail": t} for t in tails]}
    path.write_text(json.dumps(data))
    assert main(["verify", "--scene", str(path)]) == 2


def test_star_tails_are_not_arcs():
    # heights count only the 1s, so (1*). was drawn on (10).: the same
    # height over the same span, with no violation reported
    with pytest.raises(NotAdmissible, match=r"^tail \(1\*\)\. is not admissible$"):
        build_scene(kneading_from_text("1(0)"), "(1).", tails=["(1*).", "(10)."])
    # refused before its joins are sought, where * cannot be flipped
    with pytest.raises(NotAdmissible, match=r"^tail \(01\)\*1\. is not admissible$"):
        build_scene(GOLD, "(101).", tails=["(01)*1."])
    with pytest.raises(NotAdmissible, match=r"^context \(1\*1\)\. is not admissible$"):
        build_scene(GOLD, "(1*1).", tails=["(101)."])


def test_build_scene_never_rescans_a_word(monkeypatch):
    def rescan(word, nu):
        raise AssertionError(f"rescanned {word}")

    rng = random.Random(5)
    value_nu = kneading_from_slope(1.9, max_iter=512)
    pool = [t for _ in range(3) for t in _oracle_pool(rng, value_nu) if is_admissible_tail(t, value_nu)]
    # a memo hit would scan nothing at all
    scene_module._layout.cache_clear()
    # arcs reads every tail's matches through tail_scan and no longer
    # imports head_matches; the patch still catches it coming back
    monkeypatch.setattr("tentplane.arcs.head_matches", rescan, raising=False)
    monkeypatch.setattr("tentplane.kneading.head_matches", rescan)
    scenes = [
        build_scene(GOLD, "(101).", depth=8),
        build_scene(figure_nu(), "(1).", tails=figure_tails()),
        build_scene(value_nu, random_tail(rng, value_nu), tails=pool, x_mode="value"),
    ]
    assert all(sc.joins for sc in scenes)


# ------------------------------------------------ the cylinder layout memo
# build_scene keeps the context-free part of a cylinder scene per (nu,
# depth, x mode, slope); every context's scene must still be the scene
# the reference builds, and the one a cold build gives


def _full(sc):
    """A scene's file form, its projections and both violation lists."""
    return scene_to_dict(sc), [s.projection for s in sc.segments], verify_noncrossing(sc), betweenness_check(sc)


def test_layout_memo_agrees_with_reference_and_cold_builds():
    layout = scene_module._layout
    rng = random.Random(19)
    cases = [(nu, d) for nu in (kneading_from_slope(2.0), GOLD, kneading_from_slope(math.sqrt(2)))
             for d in range(2, 11)]
    cases.append((TRUNCATED_NU, 10))
    for nu, d in cases:
        ctxs = []
        while len(ctxs) < 10:
            L = random_tail(rng, nu)
            if L not in ctxs:
                ctxs.append(L)
        # ten contexts in a row: the first builds the layout, the rest reuse it
        layout.cache_clear()
        warm = [build_scene(nu, L, depth=d) for L in ctxs]
        info = layout.cache_info()
        assert (info.misses, info.hits) == (1, 9), (str(nu), d)
        for L, sc in zip(ctxs, warm):
            MERGED.clear()
            want = _full(ref_build_scene(nu, L, depth=d))
            assert not MERGED
            assert _full(sc) == want, (str(nu), str(L), d)
            layout.cache_clear()
            assert _full(build_scene(nu, L, depth=d)) == want, (str(nu), str(L), d)
    # a depth the truncated nu cannot order raises every time, and the
    # memo keeps no entry for it
    layout.cache_clear()
    build_scene(TRUNCATED_NU, "(0111)1.", depth=10)
    for _ in range(2):
        with pytest.raises(AmbiguousAtDepth):
            build_scene(TRUNCATED_NU, "(0111)1.", depth=13)
        assert layout.cache_info().currsize == 1


def test_tampered_copy_of_a_memo_scene_follows_its_heights():
    scene_module._layout.cache_clear()
    build_scene(GOLD, "(1).", depth=8)
    sc = build_scene(GOLD, "(101).", depth=8)
    assert scene_module._layout.cache_info().hits == 1
    # heights swapped between two segments, the joins rebuilt on them
    bad, label = _tamper(sc, random.Random(8))
    before = {s.label: s.y for s in sc.segments}
    after = {s.label: s.y for s in bad.segments}
    assert after[label] != before[label]
    g = bad.grid
    assert g.ys == [after[k].value * g.dy for k in g.labels] == sorted(g.ys)
    for j in bad.joins:
        assert (j.low.y, j.high.y) == (after[j.low.label], after[j.high.label])
    assert any(v["kind"] == "foreign-symbols" and v["segment"] == label for v in betweenness_check(bad))
    assert betweenness_check(sc) == []


# ------------------------------------------------ columnar cylinder scenes
# build_scene places a cylinder scene's grid straight from its layout's
# integer columns and makes Segment and SceneJoin objects only when read;
# a copy given those objects back is placed by the general grid


def _columnar_scenes():
    for case in GRID_CASES:
        if case.startswith("cylinders"):
            yield case, grid_case(case)
    for nu, L, d in _cylinder_oracle_pool():
        # value mode places a slope's orbit: the random words have none
        for mode in ("rank", "value") if nu.slope is not None else ("rank",):
            try:
                yield (str(nu), str(L), d, mode), build_scene(nu, L, depth=d, x_mode=mode)
            except AmbiguousAtDepth:
                continue


def test_columnar_grid_equals_general_grid():
    modes = Counter()
    for name, sc in _columnar_scenes():
        g = sc.grid
        copy = dataclasses.replace(sc, segments=sc.segments, joins=sc.joins)
        ref = scene_module._grid(copy)
        for field in g._fields:
            assert getattr(g, field) == getattr(ref, field), (name, field)
        assert verify_noncrossing(sc) == verify_noncrossing(copy), name
        assert betweenness_check(sc) == betweenness_check(copy), name
        modes[sc.x_mode] += 1
    assert modes["rank"] > 100 and modes["value"] > 40, modes


def test_clean_checkers_build_no_scene_objects(monkeypatch):
    # a clean cylinder scene is built and checked on its columns alone:
    # no Segment, SceneJoin or CantorCoordinate until one is read
    made = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            made[key] += 1
            return fn(*args, **kwargs)
        return counted

    for cls in (Segment, SceneJoin, CantorCoordinate):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    # cantor._block makes a CantorCoordinate without __init__
    block = sys.modules["tentplane.cantor"]._block
    for name, mod in list(sys.modules.items()):
        if name.startswith("tentplane") and getattr(mod, "_block", None) is block:
            monkeypatch.setattr(mod, "_block", counting("CantorCoordinate", block))
    scene_module._layout.cache_clear()
    sc = build_scene(kneading_from_text("(101)"), "(1).", depth=14)
    assert verify_noncrossing(sc) == [] and betweenness_check(sc) == []
    assert made == Counter(), made
    # read, they are made once: one height per segment
    assert len(sc.segments) == 987 and sc.joins[0].low in sc.segments
    assert made == Counter(Segment=987, CantorCoordinate=987, SceneJoin=len(sc.joins)), made
    assert sc.segments is sc.segments


EMBEDDING_NUS = ("1(0)", "10(1)", "(101)", "(100111)", "(10111)", "(1001)")


def test_one_embedding_across_depths():
    # the depth-(n + 1) word w is a child of the depth-n word w[1:]: the
    # children come in their parents' height order, and each depth-n join
    # has a depth-(n + 1) join at its level whose ends' parents are its ends
    arcs, pairs = 0, 0
    for text in EMBEDDING_NUS:
        nu = kneading_from_text(text)
        for ctx in ("(1).", "(011)0."):
            if not is_admissible_tail(parse_left(ctx), nu):
                continue
            pairs += 1
            parent = build_scene(nu, ctx, depth=2)
            for n in range(3, 11):
                child = build_scene(nu, ctx, depth=n)
                rank = {s.word: k for k, s in enumerate(parent.segments)}
                order = [rank[s.word[1:]] for s in child.segments]
                assert order == sorted(order), (text, ctx, n)
                below = {(j.level, j.low.word[1:], j.high.word[1:]) for j in child.joins}
                for j in parent.joins:
                    assert (j.level, j.low.word, j.high.word) in below, (text, ctx, n, j.level)
                arcs += len(child.segments)
                parent = child
    assert pairs == 10 and arcs > 9_000, (pairs, arcs)
