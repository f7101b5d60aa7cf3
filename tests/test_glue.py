"""Fiber squeeze, glue charts, certificates, and the probe."""
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import figure_nu, figure_tails

from tentplane import glue
from tentplane import (
    ChartOverflow,
    TentplaneError,
    WrongContext,
    accessibility_probe,
    build_glue_stack,
    build_scene,
    cauchy_certificate,
    ceiling_certificate,
    collapse_certificate,
    collapse_profile,
    displacement_certificate,
    fiber_collapse,
    kneading_from_slope,
    parse_left,
    support_certificate,
)
from tentplane.arcs import Projection
from tentplane.cantor import parse_ternary
from tentplane.glue import (
    GlueRegion,
    apply_gluing,
    in_carved_region,
    in_region,
    moved_stages,
    scene_samples,
    stage_map,
)
from tentplane.scene import Scene, SceneJoin, Segment

GOLD = kneading_from_slope((1 + math.sqrt(5)) / 2)
CERTS = (
    support_certificate,
    displacement_certificate,
    cauchy_certificate,
    collapse_certificate,
    ceiling_certificate,
)

strengths = st.fractions(min_value=0, max_value=2, max_denominator=32)
fibers = st.fractions(min_value=-1, max_value=1, max_denominator=64)


def reference_scene():
    return build_scene(figure_nu(), "(1).", tails=figure_tails() + [parse_left("(1).")])


# ----------------------------------------------------------------- profile


def test_profile_frozen_identities():
    half = Fraction(1, 2)
    assert collapse_profile(1, half) == half
    assert collapse_profile(0, half) == 0
    assert collapse_profile(0, Fraction(-1, 3)) == 0
    assert collapse_profile(Fraction(1, 2), -1) == -1
    assert collapse_profile(0, 1) == 1
    assert collapse_profile(2, Fraction(3, 4)) == 1
    assert collapse_profile(2, Fraction(-3, 4)) == -1


def test_profile_rejects():
    with pytest.raises(ValueError):
        collapse_profile(-0.1, 0)
    with pytest.raises(ValueError):
        collapse_profile(2.1, 0)
    with pytest.raises(ValueError):
        collapse_profile(1, 1.5)


@given(fibers)
def test_profile_strength_one_is_identity(y):
    assert collapse_profile(1, y) == y


@given(strengths, fibers)
def test_profile_exact_and_odd(a, y):
    out = collapse_profile(a, y)
    assert isinstance(out, (Fraction, int))
    assert -1 <= out <= 1
    assert collapse_profile(a, -y) == -out
    assert collapse_profile(a, 1) == 1 and collapse_profile(a, -1) == -1
    # both linear pieces meet at the half point
    assert a * Fraction(1, 2) == (2 - a) * Fraction(1, 2) - (1 - a)


@given(strengths, fibers, fibers)
def test_profile_monotone_and_lipschitz(a, y1, y2):
    f1, f2 = collapse_profile(a, y1), collapse_profile(a, y2)
    if y1 <= y2:
        assert f1 <= f2
    assert abs(f1 - f2) <= max(a, 2 - a) * abs(y1 - y2)
    if 0 < a < 2 and y1 != y2:
        assert f1 != f2


@given(fibers)
def test_fiber_collapse_strip_boundary_fixed(y):
    waist = [(Fraction(0), Fraction(1))]
    assert fiber_collapse(waist, Fraction(-1), y) == (Fraction(-1), y)
    assert fiber_collapse(waist, Fraction(2), y) == (Fraction(2), y)
    for x in (Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2)):
        assert fiber_collapse(waist, x, 1) == (x, 1)
        assert fiber_collapse(waist, x, -1) == (x, -1)


def test_fiber_collapse_waist_forms():
    # a bare number is a one-point interval
    assert fiber_collapse([Fraction(1, 2)], Fraction(1, 2), Fraction(1, 4)) == (
        Fraction(1, 2), 0)
    # inside the waist the whole middle band flattens
    assert fiber_collapse([(0, 1)], Fraction(2, 3), Fraction(-1, 2)) == (Fraction(2, 3), 0)
    with pytest.raises(TentplaneError):
        fiber_collapse([], 0, 0)
    with pytest.raises(TentplaneError):
        fiber_collapse([(1, 0)], 0, 0)


# ------------------------------------------------------------------ charts


def test_stack_structure():
    sc = reference_scene()
    stack = build_glue_stack(sc)
    assert [r.level for r in stack] == [1, 2, 3, 4, 7]
    assert [r.side for r in stack] == ["right", "left", "left", "left", "left"]
    assert [len(r.radii) for r in stack] == [5, 3, 1, 1, 1]
    for r in stack:
        # the hull of level-n bulges fits in 3^(1-n) of height
        assert r.hull_diam <= Fraction(1, 3 ** (r.level - 1))
        assert r.eps > 0
        assert r.r_max == r.radii[-1]
        assert r.r_outer == r.hull_diam * Fraction(2, 3)
        assert r.region_diam == 2 * r.r_outer


def _seg(label, ternary, x_lo, x_hi, tail):
    proj = Projection(2, 1, 2, 1, False)
    return Segment(label, parse_ternary(ternary), proj, x_lo, x_hi, tail=parse_left(tail))


def test_stack_rejects_bad_charts():
    a = _seg("A", "0(1)", 0.0, 1.0, "(101)0.")
    b = _seg("B", "(1)", 0.7, 1.0, "(101).")
    c = _seg("C", "2(1)", 0.0, 1.0, "(1)0.")

    def scene_with(joins, segs):
        return Scene(GOLD, parse_left("(101)0."), "tails", "value", segs, joins, slope=2.0)

    with pytest.raises(ChartOverflow):
        build_glue_stack(scene_with([SceneJoin(1, "left", a, a, 0.5)], [a]))
    mixed = [SceneJoin(1, "left", a, b, 0.5), SceneJoin(1, "right", a, c, 0.5)]
    with pytest.raises(TentplaneError):
        build_glue_stack(scene_with(mixed, [a, b, c]))
    off = [SceneJoin(1, "left", a, b, 0.5), SceneJoin(1, "left", a, c, 0.5)]
    with pytest.raises(TentplaneError):
        build_glue_stack(scene_with(off, [a, b, c]))


def test_stage_collapses_bulges_to_apexes():
    sc = reference_scene()
    stack = build_glue_stack(sc)
    for j in (sc.joins[0], sc.joins[-1]):
        sgn = 1 if j.side == "right" else -1
        r, cy, x0 = float(j.radius), float(j.center), float(j.x0)
        apex = (x0 + sgn * r, cy)
        for u in (-0.5, -0.37, 0.0, 0.25, 0.5):
            t = u * math.pi
            p = (x0 + sgn * r * math.cos(t), cy + r * math.sin(t))
            q = apply_gluing(stack, p)
            assert math.hypot(q[0] - apex[0], q[1] - apex[1]) < 1e-6
            hits = moved_stages(stack, p)
            assert hits == [] or len(hits) == 1


def test_stage_fixes_far_points():
    sc = reference_scene()
    stack = build_glue_stack(sc)
    for p in [(0.0, 0.99), (1.0, 1.0), (-0.2, 0.02), (0.5, 2.0)]:
        assert apply_gluing(stack, p) == p
        assert moved_stages(stack, p) == []


def test_stage_preserves_radius():
    sc = reference_scene()
    stack = build_glue_stack(sc)
    reg = stack[0]
    j = next(j for j in sc.joins if j.level == reg.level)
    r, cy, x0 = float(j.radius), float(j.center), float(j.x0)
    p = (x0 + r * math.cos(0.4 * math.pi), cy + r * math.sin(0.4 * math.pi))
    q = stage_map(reg, p)
    rho_in = math.hypot(p[0] - x0, p[1] - cy)
    rho_out = math.hypot(q[0] - x0, q[1] - cy)
    assert rho_out == pytest.approx(rho_in, abs=1e-12)


def test_region_membership():
    big = GlueRegion(1, "right", 0.5, Fraction(4, 5), (Fraction(1, 4),), 0.5)
    assert in_region(big, (0.5, 0.8))
    assert not in_region(big, (0.5 + float(big.r_outer) + 0.01, 0.8))
    stack = [
        GlueRegion(1, "right", 0.0, Fraction(1, 2), (Fraction(1, 4),), 1e-6),
        GlueRegion(2, "right", 0.0, Fraction(1, 2), (Fraction(1, 8),), 1e-6),
    ]
    assert in_carved_region(stack, 0, (0.3, 0.5))
    # inside the deeper chart, so carved out of the shallower one
    assert not in_carved_region(stack, 0, (0.05, 0.5))
    assert in_carved_region(stack, 1, (0.05, 0.5))


# ------------------------------------------------------------ certificates


def test_certificates_reference_scene():
    sc = reference_scene()
    stack = build_glue_stack(sc)
    assert len(scene_samples(sc)) == 13 * 5 + 11 * 5
    for fn in CERTS:
        rep = fn(stack, sc)
        assert rep["ok"], (fn.__name__, rep)
    assert collapse_certificate(stack, sc)["apexes_distinct"]
    assert ceiling_certificate(stack, sc)["max_height"] <= 1 + 1e-6


@pytest.mark.parametrize("depth", [3, 6])
def test_certificates_cylinder_scene(depth):
    sc = build_scene(GOLD, "(101).", depth=depth)
    stack = build_glue_stack(sc)
    assert [r.level for r in stack] == list(range(1, depth + 1))
    for fn in CERTS:
        assert fn(stack, sc)["ok"], fn.__name__


def test_certificates_value_mode():
    sc = build_scene(GOLD, "(101).", tails=["(011)010.", "(011)110."], x_mode="value")
    stack = build_glue_stack(sc)
    assert [(r.level, r.side) for r in stack] == [(3, "left")]
    assert stack[0].x0 == pytest.approx(0.5)
    for fn in CERTS:
        assert fn(stack, sc)["ok"], fn.__name__


# ------------------------------------------------------------------ oracle
# The stage map and region tests as first written, converting every
# Fraction on each call and scanning every radius; and the certificates
# as first written: every stage applied afresh to the previous image,
# and every Cauchy prefix recomposed from the start.


def _ref_stage_map(region, point):
    px, py = float(point[0]), float(point[1])
    cy = float(region.center_y)
    h = px - region.x0
    if region.side == "left":
        h = -h
    dy = py - cy
    rho = math.hypot(h, dy)
    if rho == 0.0:
        return (px, py)
    dist = min(abs(rho - float(r)) for r in region.radii)
    a = dist / region.eps
    if a >= 1.0:
        return (px, py)
    theta = math.atan2(dy, h)
    u2 = collapse_profile(a, theta / math.pi)
    t2 = u2 * math.pi
    h2 = rho * math.cos(t2)
    ny = cy + rho * math.sin(t2)
    nx = region.x0 + h2 if region.side == "right" else region.x0 - h2
    return (nx, ny)


def _ref_in_region(region, point, slack=0.0):
    dx = float(point[0]) - region.x0
    dy = float(point[1]) - float(region.center_y)
    return math.hypot(dx, dy) <= float(region.r_outer) + slack


def _ref_in_carved_region(stack, i, point, slack=0.0):
    if not _ref_in_region(stack[i], point, slack):
        return False
    return not any(_ref_in_region(r, point, -slack) for r in stack[i + 1 :])


def _ref_image(stack, p, n):
    q = (float(p[0]), float(p[1]))
    for region in stack[:n]:
        q = _ref_stage_map(region, q)
    return q


def ref_support(stack, scene, tol=1e-6):
    pts = scene_samples(scene)
    bad_support, bad_repeat = [], []
    for p in pts:
        cur, moved = p, []
        for i, region in enumerate(stack):
            q = _ref_stage_map(region, cur)
            if math.hypot(q[0] - cur[0], q[1] - cur[1]) > 1e-12:
                moved.append(i)
                if not (_ref_in_carved_region(stack, i, cur, tol)
                        and _ref_in_carved_region(stack, i, q, tol)):
                    bad_support.append((p, stack[i].level))
            cur = q
        if len(moved) > 1:
            bad_repeat.append((p, [stack[i].level for i in moved]))
    return {"ok": not bad_support and not bad_repeat, "samples": len(pts),
            "support_failures": bad_support, "repeat_movers": bad_repeat}


def ref_displacement(stack, scene, tol=1e-9):
    pts = scene_samples(scene)
    worst, bad = 0.0, []
    for p in pts:
        cur = p
        for region in stack:
            q = _ref_stage_map(region, cur)
            d = math.hypot(q[0] - cur[0], q[1] - cur[1])
            if d > 0:
                lim = float(region.region_diam)
                worst = max(worst, d / lim)
                if d > lim + tol:
                    bad.append((p, region.level, d, lim))
            cur = q
    return {"ok": not bad, "samples": len(pts), "worst_ratio": worst, "failures": bad}


def ref_cauchy(stack, scene, tol=1e-9):
    pts = scene_samples(scene)
    bad = []
    for p in pts:
        images = [_ref_image(stack, p, n) for n in range(len(stack) + 1)]
        for n in range(len(stack) + 1):
            for m in range(n + 1, len(stack) + 1):
                gap = math.hypot(images[m][0] - images[n][0], images[m][1] - images[n][1])
                lim = max((float(r.region_diam) for r in stack[n:m]), default=0.0)
                if gap > lim + tol:
                    bad.append((p, n, m, gap, lim))
    return {"ok": not bad, "samples": len(pts), "failures": bad}


def ref_collapse(stack, scene, tol=1e-6):
    per_level = {}
    for j in scene.joins:
        per_level.setdefault(j.level, []).append(j)
    bad, apexes = [], []
    for region in stack:
        sgn = 1 if region.side == "right" else -1
        for j in per_level[region.level]:
            r, cy = float(j.radius), float(region.center_y)
            apex = (region.x0 + sgn * r, cy)
            apexes.append((region.level, apex))
            for u in (-0.5, -0.3, 0.0, 0.3, 0.5):
                t = u * math.pi
                q = _ref_image(stack, (region.x0 + sgn * r * math.cos(t), cy + r * math.sin(t)),
                               len(stack))
                if math.hypot(q[0] - apex[0], q[1] - apex[1]) > tol:
                    bad.append((j.level, u, q, apex))
    sep_ok = True
    for lvl in per_level:
        pts = [a for l, a in apexes if l == lvl]
        for i in range(len(pts)):
            for k in range(i + 1, len(pts)):
                if math.hypot(pts[i][0] - pts[k][0], pts[i][1] - pts[k][1]) <= tol:
                    sep_ok = False
    return {"ok": not bad and sep_ok, "failures": bad, "apexes_distinct": sep_ok}


def ref_ceiling(stack, scene, tol=1e-6):
    pts = [p for p in scene_samples(scene) if p[1] <= 1 + 1e-12]
    worst, bad = 0.0, []
    for p in pts:
        q = _ref_image(stack, p, len(stack))
        worst = max(worst, q[1])
        if q[1] > 1 + tol:
            bad.append((p, q))
    return {"ok": not bad, "samples": len(pts), "max_height": worst, "failures": bad}


@pytest.mark.parametrize("make", [
    reference_scene,
    lambda: build_scene(GOLD, "(101).", depth=5),
    lambda: build_scene(kneading_from_slope(2.0), "(1).", depth=4),
], ids=["figure-tails", "golden-depth-5", "slope-2-depth-4"])
def test_certificates_agree_with_reference(make):
    sc = make()
    built = build_glue_stack(sc)
    pairs = [(support_certificate, ref_support), (displacement_certificate, ref_displacement),
             (cauchy_certificate, ref_cauchy), (collapse_certificate, ref_collapse),
             (ceiling_certificate, ref_ceiling)]
    for stack in (built, built[::-1], built + built):
        for p in scene_samples(sc):
            assert apply_gluing(stack, p) == _ref_image(stack, p, len(stack))
            assert apply_gluing(stack, p, upto=1) == _ref_image(stack, p, 1)
        for fn, ref in pairs:
            assert fn(stack, sc) == ref(stack, sc), fn.__name__
            # a negative tolerance fails every checked pair, so the
            # failure lists are full
            full = fn(stack, sc, tol=-1.0)
            assert full == ref(stack, sc, tol=-1.0), fn.__name__
            assert not full["ok"]


def test_certificates_share_one_sample_pass(monkeypatch):
    sc = build_scene(GOLD, "(101).", depth=5)
    stack = build_glue_stack(sc)
    calls = []
    real = glue.stage_path

    def counted(stack, point):
        calls.append(point)
        return real(stack, point)

    monkeypatch.setattr(glue, "stage_path", counted)
    # the memo holds one pass: certify a trimmed stack first, so the run
    # below starts without one for (stack, sc)
    support_certificate(stack[:-1], sc)
    samples, joins = len(scene_samples(sc)), len(sc.joins)
    # one path per sample, shared by four certificates; collapse follows
    # five points per join
    for expected in (samples + 5 * joins, 5 * joins):
        calls.clear()
        for fn in CERTS:
            assert fn(stack, sc)["ok"], fn.__name__
        assert len(calls) == expected


def test_sample_pass_memo_is_keyed_by_value():
    sc = build_scene(GOLD, "(101).", depth=5)
    built = build_glue_stack(sc)
    wider = built[:]
    wider[2] = replace(built[2], eps=2 * built[2].eps)
    k = 0
    seg = sc.segments[k]
    moved = replace(seg, x_hi=(seg.x_lo + seg.x_hi) / 2)
    pairs = [(support_certificate, ref_support), (displacement_certificate, ref_displacement),
             (cauchy_certificate, ref_cauchy), (collapse_certificate, ref_collapse),
             (ceiling_certificate, ref_ceiling)]
    # each call differs from the one before it in the stack or in the
    # scene's segment k, swapped in place; a stale pass would show as a
    # full failure list equal to the previous input's
    inputs = [(built, seg), (built, moved), (wider, moved), (wider, seg), (built, seg)]
    for fn, ref in pairs:
        seen = []
        for stack, s in inputs:
            sc.segments[k] = s
            for tol in ({}, {"tol": -1.0}):
                rep = fn(stack, sc, **tol)
                assert rep == ref(stack, sc, **tol), fn.__name__
            seen.append(rep)
        if fn is not collapse_certificate:
            assert seen[0] != seen[1] and seen[2] != seen[3], fn.__name__
        if fn is displacement_certificate or fn is cauchy_certificate:
            assert seen[1] != seen[2] and seen[3] != seen[4], fn.__name__
    # -0.0 == 0.0, but the memo tells them apart
    origin = [replace(r, x0=0.0) for r in built]
    signed = [replace(r, x0=-0.0) for r in built]
    assert origin == signed
    assert glue._sample_pass(origin, sc) is not glue._sample_pass(signed, sc)
    assert glue._sample_pass(origin, sc) is glue._sample_pass(origin[:], sc)


def _edge_radii(region):
    """Distances from the chart center that sit on each float radius and
    one ulp either side, inside and outside its tube, midway between
    neighbouring radii, inside the smallest, beyond the largest, and on
    the collar's rim and one ulp either side."""
    ch = region.chart
    rs = ch.radii
    out = [0.0, rs[0] / 2, rs[-1] * 2, rs[-1] + region.eps / 2]
    for r in rs + (ch.r_outer,):
        out += [r, math.nextafter(r, 0.0), math.nextafter(r, 2.0),
                r - region.eps / 2, r + region.eps / 3, r + 2 * region.eps]
    return out + [(a + b) / 2 for a, b in zip(rs, rs[1:])]


@pytest.mark.parametrize("make, most_radii", [
    (reference_scene, 5),
    (lambda: build_scene(GOLD, "(101).", depth=8), 21),
    (lambda: build_scene(kneading_from_slope(2.0), "(1).", depth=4), 8),
], ids=["figure-tails", "golden-depth-8", "slope-2-depth-4"])
def test_chart_maps_agree_with_reference(make, most_radii):
    sc = make()
    built = build_glue_stack(sc)
    assert max(len(r.radii) for r in built) == most_radii
    # copies centred at the origin, where a point on an axis lies at
    # exactly the float distance it was placed at
    origin = [replace(r, x0=0.0, center_y=Fraction(0)) for r in built]
    samples = scene_samples(sc)
    edges = {}
    for r in built + origin:
        cy = r.chart.center_y
        # several angles, on the chart's side and the other
        edges[id(r)] = [
            (r.x0 + sgn * rho * math.cos(u * math.pi), cy + rho * math.sin(u * math.pi))
            for rho in _edge_radii(r) for u in (0.0, 0.25, -0.4, 0.5) for sgn in (1, -1)]
    for r in origin:
        sgn = 1 if r.side == "right" else -1
        for rho in r.chart.radii:
            # on a bulge's top the whole pull lands on its apex
            assert stage_map(r, (0.0, rho)) == (sgn * rho, 0.0)
            assert stage_map(r, (sgn * rho, 0.0)) == (sgn * rho, 0.0)
        assert in_region(r, (r.chart.r_outer, 0.0))
        assert not in_region(r, (math.nextafter(r.chart.r_outer, 2.0), 0.0))
        for rho in _edge_radii(r):
            edges[id(r)] += [(0.0, rho), (sgn * rho, 0.0), (-sgn * rho, 0.0), (0.0, -rho)]
    for r in built + origin:
        for p in samples + edges[id(r)]:
            assert stage_map(r, p) == _ref_stage_map(r, p)
            for slack in (0.0, 1e-6):
                assert in_region(r, p, slack) == _ref_in_region(r, p, slack)
    for stack in (built, built[::-1], built + built, origin):
        for i, r in enumerate(stack):
            for p in samples + edges[id(r)]:
                assert in_carved_region(stack, i, p, 1e-6) == _ref_in_carved_region(stack, i, p, 1e-6)


# ------------------------------------------------------------------- probe


def test_probe_strict_contract():
    sc = reference_scene()
    stack = build_glue_stack(sc)
    rep = accessibility_probe(sc, stack)
    assert rep.accessible and rep.witness is None
    assert rep.target_label == "(1)."
    with pytest.raises(WrongContext):
        accessibility_probe(sc, stack, tail=figure_tails()[5])
    with pytest.raises(WrongContext):
        accessibility_probe(sc, stack, x=99.0)
    at_end = accessibility_probe(sc, stack, x=float(sc.segments[-1].x_lo))
    assert at_end.accessible


def test_probe_finds_segment_witness():
    sc = reference_scene()
    stack = build_glue_stack(sc)
    target = figure_tails()[5]
    rep = accessibility_probe(sc, stack, tail=target, strict=False)
    assert not rep.accessible
    assert rep.witness["kind"] == "segment"
    ty = next(s.y.value for s in sc.segments if s.tail == target)
    above = next(s for s in sc.segments if s.y.value > ty)
    assert rep.witness["label"] == above.label
    top = accessibility_probe(sc, stack, tail=figure_tails()[0], strict=False)
    assert top.witness == {"kind": "segment", "label": "(1).", "y": 1.0}


def test_probe_missing_targets_raise():
    sc = reference_scene()
    stack = build_glue_stack(sc)
    with pytest.raises(WrongContext):
        accessibility_probe(sc, stack, tail="(101)0.", strict=False)
    bare = build_scene(figure_nu(), "(1).", tails=figure_tails())
    with pytest.raises(WrongContext):
        accessibility_probe(bare, build_glue_stack(bare))


def test_probe_join_witness():
    a = _seg("A", "0(1)", 0.0, 1.0, "(101)0.")
    b = _seg("B", "(1)", 0.7, 1.0, "(101).")
    join = SceneJoin(1, "left", a, b, 0.6)
    sc = Scene(GOLD, parse_left("(101)0."), "tails", "value", [a, b], [join], slope=2.0)
    rep = accessibility_probe(sc, [], x=0.5)
    assert not rep.accessible
    assert rep.witness["kind"] == "join"
    assert rep.witness["join"] == (1, "A", "B")


def test_probe_glue_motion_witness():
    a = _seg("A", "0(1)", 0.0, 1.0, "(101)0.")
    sc = Scene(GOLD, parse_left("(101)0."), "tails", "value", [a], [], slope=2.0)
    wide = GlueRegion(1, "right", 0.5, Fraction(4, 5), (Fraction(1, 4),), 0.5)
    rep = accessibility_probe(sc, [wide], x=0.5)
    assert not rep.accessible
    assert rep.witness["kind"] == "glue-motion"
    assert rep.moved_stage_hits == 1 and rep.samples >= 1


def test_probe_cylinder_target():
    sc = build_scene(kneading_from_slope(2.0), "(1).", depth=6)
    stack = build_glue_stack(sc)
    rep = accessibility_probe(sc, stack, x=0.75)
    assert rep.target_label == "111111"
    assert rep.accessible
