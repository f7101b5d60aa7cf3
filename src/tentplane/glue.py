"""Stagewise gluing of joined arcs, with checkable certificates.

Each join level of a scene gets a chart: the level's bulges are
concentric semicircles around a shared center, so a stage map can work
in polar coordinates there.  Inside a thin radial tube around each bulge
radius the stage pulls angles toward the bulge's apex; exactly on a
bulge the pull is total, so the joined pair of endpoints (and the whole
bulge between them) lands on one point, performing the gluing.  Radii
are untouched, the tube is thin, and everything outside the tubes stays
fixed.

Nothing here proves the construction in the abstract.  Instead the
module exposes certificates: sampled assertions that stage supports stay
inside their allotted region, points move at most once across all
stages, per-stage displacements stay within the region diameter, the
collapse is injective on bulges, and the glued picture stays below the
ceiling.  Tests freeze these into pass/fail facts for concrete scenes.

``collapse_profile``/``fiber_collapse`` are the one-dimensional model
squeeze used by the charts, kept exact (piecewise linear, rational in,
rational out) so identities can be asserted without tolerance.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, count
from typing import NamedTuple, Optional

from .errors import ChartOverflow, TentplaneError, WrongContext
from .scene import Scene
from .sequences import parse_left

# tube half-width as a fraction of the safe margin; wide enough that float
# noise on points sitting exactly on a bulge stays far below the tube scale
_EPS_SCALE = 1e-4

# a stage moves a point when it carries it farther than this
_MOVE_TOL = 1e-12


def collapse_profile(a, y):
    """Three-piece squeeze of the fiber [-1, 1].

    Linear with slope ``a`` on |y| <= 1/2 and slope ``2 - a`` outside,
    which pins y = -1 and y = 1 for every strength.  Strength 1 is the
    identity; strength 0 flattens the middle band onto 0.  Piecewise
    linear with rational coefficients, so rational in means rational out
    and the identity claims hold exactly.
    """
    if not 0 <= a <= 2:
        raise ValueError(f"strength must lie in [0, 2], got {a!r}")
    sgn = 1 if y >= 0 else -1
    ay = y if y >= 0 else -y
    if ay > 1:
        raise ValueError(f"fiber coordinate must lie in [-1, 1], got {y!r}")
    if 2 * ay <= 1:
        return a * y
    return sgn * ((2 - a) * ay - (1 - a))


def _dist_to_set(x, waist) -> float:
    best = None
    for item in waist:
        lo, hi = item if isinstance(item, (tuple, list)) else (item, item)
        if lo > hi:
            raise TentplaneError(f"bad waist interval {item!r}")
        d = lo - x if x < lo else (x - hi if x > hi else 0)
        if best is None or d < best:
            best = d
    if best is None:
        raise TentplaneError("empty waist set")
    return best


def fiber_collapse(waist, x, y):
    """(x, y) -> (x, squeezed y): squeeze strength is the distance from
    x to the waist set, capped at 1 so far fibers are left alone.  On
    the strip [-1,2] x [-1,1] with the waist inside [0, 1], the whole
    strip boundary is fixed pointwise: the top and bottom edges by the
    profile's pinned endpoints, the sides by the strength cap."""
    d = _dist_to_set(x, waist)
    a = d if d < 1 else 1
    return (x, collapse_profile(a, y))


class FloatChart(NamedTuple):
    """A region's chart in floats, each the float of its exact value."""

    radii: tuple  # ascending floats
    center_y: float
    r_outer: float
    region_diam: float


@dataclass(frozen=True)
class GlueRegion:
    """Chart data for one join level: concentric bulges and their tube."""

    level: int
    side: str
    x0: float
    center_y: Fraction
    radii: tuple  # ascending Fractions
    eps: float

    @property
    def r_max(self) -> Fraction:
        return self.radii[-1]

    @property
    def hull_diam(self) -> Fraction:
        return 2 * self.r_max

    @property
    def r_outer(self) -> Fraction:
        # a sixth of the hull diameter as collar: 2/3 of the hull on each side
        return self.hull_diam * 2 / 3

    @property
    def region_diam(self) -> Fraction:
        return 2 * self.r_outer

    @cached_property
    def chart(self) -> FloatChart:
        # converted once per region; a replaced copy builds its own
        return FloatChart(
            tuple(float(r) for r in self.radii),
            float(self.center_y),
            float(self.r_outer),
            float(self.region_diam),
        )


def build_glue_stack(scene: Scene) -> list:
    """One GlueRegion per join level, shallow to deep.

    Levels whose joins disagree on abscissa or midpoint cannot be
    charted concentrically and raise; degenerate radii or no room for a
    tube raise ChartOverflow.
    """
    per_level: dict = {}
    for j in scene.joins:
        per_level.setdefault(j.level, []).append(j)
    out = []
    for level in sorted(per_level):
        joins = per_level[level]
        sides = {j.side for j in joins}
        x0s = {float(j.x0) for j in joins}
        mids = {j.center for j in joins}
        if len(sides) != 1 or len(x0s) != 1:
            raise TentplaneError(f"level {level} joins do not share a chart")
        if len(mids) != 1:
            raise TentplaneError(f"level {level} joins are not concentric")
        radii = tuple(sorted(j.radius for j in joins))
        if radii[0] <= 0:
            raise ChartOverflow(f"level {level} has a zero-height join")
        center_y = mids.pop()
        r_max = radii[-1]
        margin = min(radii[0], r_max / 3)
        ceiling_gap = 1 - (center_y + r_max)
        if ceiling_gap > 0:
            margin = min(margin, ceiling_gap)
        if margin <= 0:
            raise ChartOverflow(f"level {level} chart has no room for a tube")
        out.append(
            GlueRegion(
                level,
                joins[0].side,
                x0s.pop(),
                center_y,
                radii,
                float(margin) * _EPS_SCALE,
            )
        )
    return out


def stage_map(region: GlueRegion, point) -> tuple:
    """Apply one gluing stage to a point of the plane.

    Points inside any of the level's thin tubes get their polar angle
    squeezed by the fiber profile, in half-turn units so the outward
    semicircle is the flattened band and the two inward directions stay
    put.  All bulges of the level then land on their shared apexes while
    the tube boundary, and everything beyond it, is untouched."""
    px, py = float(point[0]), float(point[1])
    chart = region.chart
    cy = chart.center_y
    h = px - region.x0
    if region.side == "left":
        h = -h
    dy = py - cy
    rho = math.hypot(h, dy)
    if rho == 0.0:
        return (px, py)
    # float subtraction is monotone, so the nearest radius is one of the
    # two neighbours of rho in the ascending tuple
    radii = chart.radii
    i = bisect_left(radii, rho)
    if i == 0:
        dist = radii[0] - rho
    elif i == len(radii):
        dist = rho - radii[-1]
    else:
        dist = min(rho - radii[i - 1], radii[i] - rho)
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


def stage_path(stack, point) -> list:
    """The point, then its image after each stage, shallowest first."""
    path = [(float(point[0]), float(point[1]))]
    for region in stack:
        path.append(stage_map(region, path[-1]))
    return path


def _hops(path) -> list:
    # distance moved by each stage along a stage path
    return [math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in zip(path, path[1:])]


def apply_gluing(stack, point, upto: Optional[int] = None) -> tuple:
    """Compose the stages, shallowest first, through ``upto`` of them."""
    return stage_path(stack[:upto], point)[-1]


def moved_stages(stack, point, tol: float = _MOVE_TOL) -> list:
    """Indices (1-based prefix positions) of stages that move the point."""
    return [i for i, d in enumerate(_hops(stage_path(stack, point)), 1) if d > tol]


def in_region(region: GlueRegion, point, slack: float = 0.0) -> bool:
    """Inside the closed collared disk of a region (V), up to slack."""
    chart = region.chart
    dx = float(point[0]) - region.x0
    dy = float(point[1]) - chart.center_y
    return math.hypot(dx, dy) <= chart.r_outer + slack


def in_carved_region(stack, i: int, point, slack: float = 0.0) -> bool:
    """Inside region i's collar but outside every deeper one (U_i)."""
    if not in_region(stack[i], point, slack):
        return False
    return not any(in_region(r, point, -slack) for r in stack[i + 1 :])


def scene_samples(scene: Scene, per_seg: int = 5, arc_angles=(-0.5, -0.25, 0.0, 0.25, 0.5)):
    """Deterministic probe points on the drawn geometry."""
    pts = []
    for s in scene.segments:
        y = float(s.y.value)
        lo, hi = float(s.x_lo), float(s.x_hi)
        for k in range(per_seg):
            f = k / (per_seg - 1) if per_seg > 1 else 0.5
            pts.append((lo + f * (hi - lo), y))
    for j in scene.joins:
        cy, r = float(j.center), float(j.radius)
        x0 = float(j.x0)
        sgn = 1 if j.side == "right" else -1
        for u in arc_angles:
            t = u * math.pi
            pts.append((x0 + sgn * r * math.cos(t), cy + r * math.sin(t)))
    return pts


class _SamplePass(NamedTuple):
    points: tuple  # scene_samples
    paths: tuple  # stage_path of each point
    hops: tuple  # _hops of each path


def _sample_pass(stack, scene: Scene) -> _SamplePass:
    """The scene's samples, each with one stage path, shared by the
    sampled certificates.  Keyed by value, bit for bit: the regions, the
    floats their stage maps read and the sample coordinates (-0.0 == 0.0
    in Python, yet a stage map can tell them apart).  A scene mutated in
    place or a replaced region therefore misses."""
    regions = tuple(stack)
    floats = array(
        "d", chain.from_iterable((r.x0, r.eps, r.chart.center_y, *r.chart.radii) for r in regions)
    )
    coords = array("d", chain.from_iterable(scene_samples(scene)))
    return _sample_pass_by_value(regions, floats.tobytes(), coords.tobytes())


@lru_cache(maxsize=1)
def _sample_pass_by_value(regions: tuple, floats: bytes, coords: bytes) -> _SamplePass:
    # ``floats`` only keys the memo; the stage maps read the regions
    flat = array("d", coords)
    points = tuple(zip(flat[::2], flat[1::2]))
    paths = tuple(stage_path(regions, p) for p in points)
    return _SamplePass(points, paths, tuple(_hops(path) for path in paths))


def support_certificate(stack, scene: Scene, tol: float = 1e-6) -> dict:
    """Sampled support discipline: any stage that moves a sample moves it
    within that stage's carved region, and no sample moves twice."""
    sp = _sample_pass(stack, scene)
    bad_support = []
    bad_repeat = []
    for p, path, hops in zip(sp.points, sp.paths, sp.hops):
        moved = [i for i, d in enumerate(hops) if d > _MOVE_TOL]
        for i in moved:
            if not (
                in_carved_region(stack, i, path[i], tol)
                and in_carved_region(stack, i, path[i + 1], tol)
            ):
                bad_support.append((p, stack[i].level))
        if len(moved) > 1:
            bad_repeat.append((p, [stack[i].level for i in moved]))
    return {
        "ok": not bad_support and not bad_repeat,
        "samples": len(sp.points),
        "support_failures": bad_support,
        "repeat_movers": bad_repeat,
    }


def displacement_certificate(stack, scene: Scene, tol: float = 1e-9) -> dict:
    """Per-stage displacement of every sample stays within the moving
    stage's region diameter."""
    sp = _sample_pass(stack, scene)
    worst = 0.0
    bad = []
    for p, hops in zip(sp.points, sp.hops):
        for region, d in zip(stack, hops):
            if d > 0:
                lim = region.chart.region_diam
                worst = max(worst, d / lim)
                if d > lim + tol:
                    bad.append((p, region.level, d, lim))
    return {"ok": not bad, "samples": len(sp.points), "worst_ratio": worst, "failures": bad}


def cauchy_certificate(stack, scene: Scene, tol: float = 1e-9) -> dict:
    """Tail estimate: between any two prefix depths the image moves at
    most by the largest region diameter in the window."""
    sp = _sample_pass(stack, scene)
    diams = [r.chart.region_diam for r in stack]
    # lims[n][m - n - 1]: the largest diameter of stages n+1..m
    lims = [list(accumulate(diams[n:], max, initial=0.0))[1:] for n in range(len(stack))]
    bad = []
    for p, images in zip(sp.points, sp.paths):
        for n, row in enumerate(lims):
            xn, yn = images[n]
            for m, (xm, ym), lim in zip(count(n + 1), images[n + 1 :], row):
                gap = math.hypot(xm - xn, ym - yn)
                if gap > lim + tol:
                    bad.append((p, n, m, gap, lim))
    return {"ok": not bad, "samples": len(sp.points), "failures": bad}


def collapse_certificate(stack, scene: Scene, tol: float = 1e-6) -> dict:
    """Every bulge lands on its own apex, one apex per radius."""
    per_level: dict = {}
    for j in scene.joins:
        per_level.setdefault(j.level, []).append(j)
    bad = []
    apexes = []
    for region in stack:
        sgn = 1 if region.side == "right" else -1
        for j in per_level[region.level]:
            r = float(j.radius)
            cy = region.chart.center_y
            apex = (region.x0 + sgn * r, cy)
            apexes.append((region.level, apex))
            for u in (-0.5, -0.3, 0.0, 0.3, 0.5):
                t = u * math.pi
                p = (region.x0 + sgn * r * math.cos(t), cy + r * math.sin(t))
                q = apply_gluing(stack, p)
                if math.hypot(q[0] - apex[0], q[1] - apex[1]) > tol:
                    bad.append((j.level, u, q, apex))
    sep_ok = True
    for lvl, grp in per_level.items():
        pts = [a for l, a in apexes if l == lvl]
        for i in range(len(pts)):
            for k in range(i + 1, len(pts)):
                if math.hypot(pts[i][0] - pts[k][0], pts[i][1] - pts[k][1]) <= tol:
                    sep_ok = False
    return {"ok": not bad and sep_ok, "failures": bad, "apexes_distinct": sep_ok}


def ceiling_certificate(stack, scene: Scene, tol: float = 1e-6) -> dict:
    """Nothing drawn at or below height 1 ends up above it."""
    sp = _sample_pass(stack, scene)
    ends = [(p, path[-1]) for p, path in zip(sp.points, sp.paths) if p[1] <= 1 + 1e-12]
    worst = 0.0
    bad = []
    for p, q in ends:
        worst = max(worst, q[1])
        if q[1] > 1 + tol:
            bad.append((p, q))
    return {"ok": not bad, "samples": len(ends), "max_height": worst, "failures": bad}


@dataclass(frozen=True)
class ProbeReport:
    accessible: bool
    target_label: str
    probe_x: float
    witness: Optional[dict]
    moved_stage_hits: int
    samples: int


def accessibility_probe(
    scene: Scene,
    stack,
    tail=None,
    *,
    x: Optional[float] = None,
    strict: bool = True,
    steps: int = 64,
    tol: float = 1e-9,
) -> ProbeReport:
    """Drop a vertical probe from above the picture onto an arc.

    In strict mode the target must be the scene's context tail (the top
    arc); anything else raises WrongContext.  In a cylinder scene the
    target is the block the tail's window selects.  The probe descends
    at ``x`` (default: the middle of the target's span) from above the
    whole picture; a segment or bulge met on the way, or any gluing
    stage that moves a probe sample, is an obstruction and is reported
    as the witness.
    """
    if tail is None:
        tail = scene.context
    elif isinstance(tail, str):
        tail = parse_left(tail)
    if strict and tail != scene.context:
        raise WrongContext(f"strict probe targets the context {scene.context}, not {tail}")
    if scene.mode == "cylinders":
        word = tail.window(scene.depth)
        target = next((s for s in scene.segments if s.word == word), None)
    else:
        target = next((s for s in scene.segments if s.tail == tail), None)
    if target is None:
        raise WrongContext(f"{tail} is not drawn in this scene")

    if x is None:
        x = (float(target.x_lo) + float(target.x_hi)) / 2
    elif not float(target.x_lo) - tol <= x <= float(target.x_hi) + tol:
        raise WrongContext(f"probe abscissa {x} misses the target arc")
    ty = float(target.y.value)
    top = max(2.0, ty + 1.0)
    witness = None

    for s in scene.segments:
        if s is target:
            continue
        y = float(s.y.value)
        if ty < y <= top and float(s.x_lo) - tol <= x <= float(s.x_hi) + tol:
            witness = {"kind": "segment", "label": s.label, "y": y}
            break
    if witness is None:
        for j in scene.joins:
            dx = x - float(j.x0)
            if j.side == "right" and dx < -tol:
                continue
            if j.side == "left" and dx > tol:
                continue
            r = float(j.radius)
            if abs(dx) > r:
                continue
            arm = math.sqrt(max(r * r - dx * dx, 0.0))
            for y in (float(j.center) + arm, float(j.center) - arm):
                if ty + tol < y <= top:
                    witness = {
                        "kind": "join",
                        "join": (j.level, j.low.label, j.high.label),
                        "y": y,
                    }
                    break
            if witness:
                break

    moved_hits = 0
    nsamples = 0
    if witness is None:
        for k in range(1, steps + 1):
            y = ty + (top - ty) * k / steps
            nsamples += 1
            if moved_stages(stack, (x, y)):
                moved_hits += 1
                witness = {"kind": "glue-motion", "y": y}
                break

    return ProbeReport(
        accessible=witness is None,
        target_label=target.label,
        probe_x=x,
        witness=witness,
        moved_stage_hits=moved_hits,
        samples=nsamples,
    )
