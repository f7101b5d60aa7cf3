"""Stagewise gluing of joined arcs, with checkable certificates.

Each join level of a scene gets a chart, read from the scene grid's
(level, side, abscissa) groups: the level's bulges are concentric
semicircles around a shared center, so a stage map can work in polar
coordinates there.  Heights stay integers on the grid: a join spanning
lo..hi has center (lo + hi) / 2dy and radius (hi - lo) / 2dy, each float
one correctly rounded division, and only a region's fields are built as
Fractions.  Inside a thin radial tube around each bulge radius the stage
pulls angles toward the bulge's apex; exactly on a bulge the pull is
total, so the joined pair of endpoints (and the whole bulge between
them) lands on one point, performing the gluing.  Radii are untouched,
the tube is thin, and everything outside the tubes stays fixed.

Nothing here proves the construction in the abstract.  Instead the
module exposes certificates: sampled assertions that stage supports stay
inside their allotted region, points move at most once across all
stages, per-stage displacements stay within the region diameter, the
collapse is injective on bulges, and the glued picture stays below the
ceiling.  Points go through the stages in one sparse pass, point by
point: a stage skips every point farther than 2 eps outside its
innermost or outermost radius, which it provably fixes, and the pass
records only the stages that change a point's image.  A pass reads its
points as an x and a y column and returns its moves and final images as
columns of floats and ints, so it holds no object the garbage collector
tracks per point; a report builds point tuples only for the failures it
lists.  The stack, the samples and the probe read the scene grid alone,
each height and abscissa one correctly rounded division of its
integers, so a scene built from columns makes no ``Segment`` or
``SceneJoin`` for them.  The
certificates read one pass over the scene's samples, memoized on the
scene and keyed by the region objects, which compare by identity:
collapse reads the bulge points the samples share with it from that
pass and makes one pass over the rest, and the probe one over its own
points.  Tests freeze these into pass/fail facts for concrete scenes.

``collapse_profile``/``fiber_collapse`` are the one-dimensional model
squeeze used by the charts, kept exact (piecewise linear, rational in,
rational out) so identities can be asserted without tolerance.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, count
from typing import NamedTuple, Optional

from .errors import ChartOverflow, TentplaneError, WrongContext
from .scene import Scene, _on_scale
from .sequences import parse_left

# tube half-width as a fraction of the safe margin; wide enough that float
# noise on points sitting exactly on a bulge stays far below the tube scale
_EPS_SCALE = 1e-4

# a stage moves a point when it carries it farther than this
_MOVE_TOL = 1e-12

# _sample_columns: points per segment at these fractions of its span, and
# bulge angles (fractions of pi, times pi) with their cosines and sines
_SEGMENT_STEPS = tuple(k / 4 for k in range(5))
_ARC_TURNS = tuple(u * math.pi for u in (-0.5, -0.25, 0.0, 0.25, 0.5))
_ARC_UNITS = tuple((math.cos(t), math.sin(t)) for t in _ARC_TURNS)

# collapse_certificate: bulge angles as fractions of pi, their cosines and
# sines, and each one's index among the sample angles, or None
_BULGE_ANGLES = (-0.5, -0.3, 0.0, 0.3, 0.5)
_BULGE_TURNS = tuple(u * math.pi for u in _BULGE_ANGLES)
_BULGE_UNITS = tuple((math.cos(t), math.sin(t)) for t in _BULGE_TURNS)
_BULGE_SAMPLES = tuple(_ARC_TURNS.index(t) if t in _ARC_TURNS else None for t in _BULGE_TURNS)

# support_certificate: float slack on the distance beyond which a deeper
# region's collar cannot hold a point that a stage moves
_REACH_SLACK = 1e-9

# accessibility_probe: glue samples along the probe, and its float slack
_PROBE_STEPS = 64
_PROBE_TOL = 1e-9


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


@dataclass(frozen=True, eq=False)
class GlueRegion:
    """Chart data for one join level: concentric bulges and their tube.
    Compared by identity, as a ``Scene`` is."""

    level: int
    side: str
    x0: float
    center_y: Fraction
    radii: tuple  # ascending Fractions
    eps: float

    @cached_property
    def chart(self) -> FloatChart:
        # converted once per region; a replaced copy builds its own.  A
        # collar of a sixth of the hull diameter 2 r_max gives r_outer =
        # 4 r_max / 3 and a region diameter twice that, each one correctly
        # rounded division of r_max's integers
        n, d = self.radii[-1].numerator, self.radii[-1].denominator
        return FloatChart(
            tuple(float(r) for r in self.radii),
            float(self.center_y),
            4 * n / (3 * d),
            8 * n / (3 * d),
        )


def _levels(scene: Scene):
    """(level, its join indices in scene order), shallow to deep, from the
    scene grid's (level, side, abscissa) groups; a level spread over two
    groups has no concentric chart and raises when it is reached."""
    groups = sorted(scene.grid.groups.items())
    for i, ((level, _, _), members) in enumerate(groups):
        if i + 1 < len(groups) and groups[i + 1][0][0] == level:
            raise TentplaneError(f"level {level} joins do not share a chart")
        yield level, members


def build_glue_stack(scene: Scene) -> list:
    """One GlueRegion per join level, shallow to deep.

    Levels whose joins disagree on side, abscissa or midpoint cannot be
    charted concentrically and raise; a zero radius, or a tube half-width
    that rounds to 0.0 in floats (deep levels of deep scenes), raises
    ChartOverflow.
    """
    # a join spanning grid heights lo..hi has center (lo + hi) / scale and
    # radius (hi - lo) / scale: the chart is worked out on those integers,
    # and only the region's fields are built as Fractions.  The region's
    # side and abscissa come from the grid's columns too
    g = scene.grid
    scale = 2 * g.dy
    out = []
    for level, members in _levels(scene):
        spans = [g.joins[a] for a in members]
        mids = {lo + hi for lo, hi, _ in spans}
        if len(mids) != 1:
            raise TentplaneError(f"level {level} joins are not concentric")
        radii = sorted(hi - lo for lo, hi, _ in spans)
        if radii[0] <= 0:
            raise ChartOverflow(f"level {level} has a zero-height join")
        mid, r_max = mids.pop(), radii[-1]
        # min(r0, r_max / 3, ceiling gap), tripled
        margin = min(3 * radii[0], r_max)
        ceiling_gap = scale - (mid + r_max)
        if ceiling_gap > 0:
            margin = min(margin, 3 * ceiling_gap)
        eps = margin / (3 * scale) * _EPS_SCALE
        if not eps > 0:
            raise ChartOverflow(f"level {level} chart has no room for a tube")
        radii = tuple(Fraction(r, scale) for r in radii)
        side, x0 = g.ends[members[0]][1], g.joins[members[0]][2] / g.dx
        out.append(GlueRegion(level, side, x0, Fraction(mid, scale), radii, eps))
    return out


def _rows(scene: Scene):
    """Each segment's grid row, in scene order.  A scene built from
    columns holds its segments in grid order.  The grid of any other
    scene sorts them stably by height, and that order is found again
    here, where glue reads it, so the checkers never pay for it."""
    n = len(scene.grid.ys)
    if "_columns" in vars(scene):
        return range(n)
    _, heights = _on_scale([s.y for s in scene.segments])
    rows = [0] * n
    for k, i in enumerate(sorted(range(n), key=heights.__getitem__)):
        rows[i] = k
    return rows


# points run through the stages, as columns of floats and ints: per move
# in (point, stage) order, the point's index, the 0-based stage, the image
# before and after it and the hop between them; then every final image
_Pass = namedtuple("_Pass", "point stage bx by ax ay hop x y")


def _moves(regions, xs, ys) -> _Pass:
    """Run a batch of points, an x column and a y column, through the
    stages, shallowest first.

    A stage squeezes the polar angle of a point inside any of its level's
    thin tubes by the fiber profile, in half-turn units, so the outward
    semicircle is the flattened band and the two inward directions stay
    put.  All bulges of the level then land on their shared apexes while
    the tube boundary, and everything beyond it, is untouched.

    Returns the stages that change a point's image as flat columns of
    moves in (point, stage) order, and each point's final image.  A point
    whose distance from a stage's chart center lies outside [r0 - 2 eps,
    r_max + 2 eps] sits at least eps from every radius, so its strength
    is at least 1 and the stage fixes it; it is skipped, as is the
    center itself.  Every other point is squeezed, the distance computed
    once for both tests.  Each point runs through every stage in turn,
    its image held in locals, so its moves come out in order."""
    stages = []  # each stage's constants, unpacked once per pass
    for k, region in enumerate(regions):
        eps, radii = region.eps, region.chart.radii
        hi = radii[-1] + 2 * eps
        stages.append((k, region.x0, region.chart.center_y, eps, region.side == "right", radii,
                       radii[0] - 2 * eps, hi, -hi, len(radii)))
    point, stage, bx, by, ax, ay, hop, fx, fy = cols = ([], [], [], [], [], [], [], [], [])
    hypot, atan2, cos, sin, pi = math.hypot, math.atan2, math.cos, math.sin, math.pi
    for i, x, y in zip(count(), xs, ys):
        x, y = float(x), float(y)
        for k, x0, cy, eps, right, radii, lo, hi, nhi, n in stages:
            # the distance is at least either offset, so a point beyond hi
            # along one axis is skipped before it is computed
            h = x - x0
            if not nhi <= h <= hi:
                continue
            dy = y - cy
            if not nhi <= dy <= hi:
                continue
            rho = hypot(h, dy)
            if rho < lo or rho > hi or rho == 0.0:
                continue
            # float subtraction is monotone, so the nearest radius is one
            # of the two neighbours of rho in the ascending tuple
            j = bisect_left(radii, rho)
            if j == 0:
                dist = radii[0] - rho
            elif j == n:
                dist = rho - radii[-1]
            else:
                dist = min(rho - radii[j - 1], radii[j] - rho)
            a = dist / eps
            if a >= 1.0:
                continue
            theta = atan2(dy, h if right else -h)
            t2 = collapse_profile(a, theta / pi) * pi
            h2 = rho * cos(t2)
            qx, qy = x0 + h2 if right else x0 - h2, cy + rho * sin(t2)
            if qx != x or qy != y:
                point.append(i)
                stage.append(k)
                bx.append(x)
                by.append(y)
                ax.append(qx)
                ay.append(qy)
                hop.append(hypot(qx - x, qy - y))
            # a squeezed image replaces the point even when equal to it,
            # since -0.0 == 0.0
            x, y = qx, qy
        fx.append(x)
        fy.append(y)
    return _Pass(*cols)


def _in_collar(xs, ys, collar, slack) -> list:
    """Per point of an x and a y column, whether it lies inside the
    closed collared disk (x0, center_y, r_outer) of a region, up to
    slack."""
    x0, cy, r_outer = collar
    return [math.hypot(x - x0, y - cy) <= r_outer + slack for x, y in zip(xs, ys)]


def _deeper_in_reach(stack, collars, tol: float) -> list:
    """Per stage, the deeper regions' collars that, grown by |tol|, can
    hold a point the stage moves.  A stage moves only points within r_max
    + eps of its chart center and keeps their distance from it, so a
    deeper region whose center lies farther than r_max + 2 eps + its
    r_outer + |tol| (plus float slack) holds none of them.  A tube of no
    positive width moves every point, and every deeper collar is kept."""
    out = []
    for i, (a, (x0, cy, _)) in enumerate(zip(stack, collars)):
        reach = max(a.chart.radii) + 2 * a.eps + abs(tol) + _REACH_SLACK if a.eps > 0 else math.inf
        out.append([c for c in collars[i + 1 :] if math.hypot(c[0] - x0, c[1] - cy) <= reach + c[2]])
    return out


def _sample_columns(scene: Scene) -> tuple:
    """Deterministic probe points on the drawn geometry, in scene order,
    as an x and a y column.  Each height and abscissa is read off the
    grid as one correctly rounded division, the float of its exact
    value."""
    g = scene.grid
    xs, ys = [], []
    for k in _rows(scene):
        lo, hi = g.x_lo[k] / g.dx, g.x_hi[k] / g.dx
        xs += [lo + f * (hi - lo) for f in _SEGMENT_STEPS]
        ys += [g.ys[k] / g.dy] * len(_SEGMENT_STEPS)
    for (_, side, _, _), (_, _, x0), (cy, r) in zip(g.ends, g.joins, g.bulges()):
        x0, sgn = x0 / g.dx, 1 if side == "right" else -1
        xs += [x0 + sgn * r * c for c, _ in _ARC_UNITS]
        ys += [cy + r * s for _, s in _ARC_UNITS]
    return xs, ys


def _sample_pass(stack, scene: Scene) -> tuple:
    """The scene's sample columns and their pass through the stages,
    shared by the sampled certificates.  One pass is kept on the scene,
    keyed by the region objects, which are immutable and compare by
    identity: a hit converts nothing, a replaced scene or region misses,
    even one with equal fields, and the pass dies with its scene."""
    regions = tuple(stack)
    memo = scene.__dict__.get("_glue_pass")
    if memo is None or memo[0] != regions:
        xs, ys = _sample_columns(scene)
        memo = scene.__dict__["_glue_pass"] = (regions, (xs, ys, _moves(regions, xs, ys)))
    return memo[1]


def support_certificate(stack, scene: Scene, tol: float = 1e-6) -> dict:
    """Sampled support discipline: any stage that moves a sample moves it
    within that stage's carved region, and no sample moves twice."""
    xs, ys, sp = _sample_pass(stack, scene)
    collars = [(r.x0, r.chart.center_y, r.chart.r_outer) for r in stack]
    # a deeper region out of a stage's reach is not asked about its moves
    deeper = _deeper_in_reach(stack, collars, tol)
    moved = [j for j, hop in enumerate(sp.hop) if hop > _MOVE_TOL]
    by_stage: dict = {}
    for j in moved:
        by_stage.setdefault(sp.stage[j], []).append(j)
    # per stage, the images before and after each of its moves, tested a
    # column at a time: inside its collar but outside every deeper one (U_k)
    outside = set()
    for k, js in by_stage.items():
        cx = [sp.bx[j] for j in js] + [sp.ax[j] for j in js]
        cy = [sp.by[j] for j in js] + [sp.ay[j] for j in js]
        ok = _in_collar(cx, cy, collars[k], tol)
        for c in deeper[k]:
            ok = [a and not b for a, b in zip(ok, _in_collar(cx, cy, c, -tol))]
        outside.update(j for j, a, b in zip(js, ok, ok[len(js) :]) if not (a and b))
    # moves come in (point, stage) order, so a point's moves are adjacent
    at = [sp.point[j] for j in moved]
    bad_support = [((xs[i], ys[i]), stack[sp.stage[j]].level) for i, j in zip(at, moved) if j in outside]
    bad_repeat = [
        ((xs[i], ys[i]), [stack[sp.stage[j]].level for j in moved[bisect_left(at, i) : bisect_right(at, i)]])
        for i in dict.fromkeys(i for i, prev in zip(at[1:], at) if i == prev)
    ]
    return {"ok": not bad_support and not bad_repeat, "samples": len(xs),
            "support_failures": bad_support, "repeat_movers": bad_repeat}


def displacement_certificate(stack, scene: Scene, tol: float = 1e-9) -> dict:
    """Per-stage displacement of every sample stays within the moving
    stage's region diameter."""
    xs, ys, sp = _sample_pass(stack, scene)
    lims = [r.chart.region_diam for r in stack]
    worst = max([0.0] + [hop / lims[k] for k, hop in zip(sp.stage, sp.hop)])
    bad = [((xs[i], ys[i]), stack[k].level, hop, lims[k])
           for i, k, hop in zip(sp.point, sp.stage, sp.hop) if hop > lims[k] + tol]
    return {"ok": not bad, "samples": len(xs), "worst_ratio": worst, "failures": bad}


def cauchy_certificate(stack, scene: Scene, tol: float = 1e-9) -> dict:
    """Tail estimate: between any two prefix depths the image moves at
    most by the largest region diameter in the window."""
    xs, ys, sp = _sample_pass(stack, scene)
    diams = [r.chart.region_diam for r in stack]
    # lims[n][m - n - 1]: the largest diameter of stages n+1..m
    lims = [list(accumulate(diams[n:], max, initial=0.0))[1:] for n in range(len(stack))]
    # no window's limit is below the least diameter, so when that plus
    # tol is not negative only a point that moves can fail, and a point
    # that moves once fails only on a pair spanning its move, whose gap
    # is that move's hop
    quiet = min(diams, default=0.0) + tol >= 0
    runs = Counter(sp.point)
    todo = dict.fromkeys(i for i, k, hop in zip(sp.point, sp.stage, sp.hop)
                         if runs[i] > 1 or not hop <= diams[k] + tol) if quiet else range(len(xs))
    bad = []
    for i in todo:
        a = bisect_left(sp.point, i)  # the point's moves are sp.point[a:b]
        b = a + runs[i]
        p = xs[i], ys[i]
        after = dict(zip(sp.stage[a:b], zip(sp.ax[a:b], sp.ay[a:b])))
        images = list(accumulate(range(len(stack)), lambda q, k: after.get(k, q), initial=p))
        for n, row in enumerate(lims):
            xn, yn = images[n]
            for m, (xm, ym), lim in zip(count(n + 1), images[n + 1 :], row):
                gap = math.hypot(xm - xn, ym - yn)
                if gap > lim + tol:
                    bad.append((p, n, m, gap, lim))
    return {"ok": not bad, "samples": len(xs), "failures": bad}


def _same(a: float, b: float) -> bool:
    # equal bit for bit: 0.0 and -0.0 differ
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def collapse_certificate(stack, scene: Scene, tol: float = 1e-6) -> dict:
    """Every bulge lands on its own apex, one apex per radius.

    Where a region sits on its joins' own side, abscissa and center, bit
    for bit (as every region ``build_glue_stack`` makes does), the scene's
    samples hold its bulges' points at angles -1/2, 0 and 1/2: their
    images are read from the sample pass, and only the other angles run
    through the stages."""
    g = scene.grid
    levels = dict(_levels(scene))
    bulges = g.bulges()
    first = len(_SEGMENT_STEPS) * len(g.ys)  # the sample index of the first bulge point
    # per bulge its level and apex; per point on it, its index in the
    # sample pass, or the complement of its index in xs and ys
    lv, apx, apy, at, xs, ys = [], [], [], [], [], []
    apexes: dict = {}  # per level, across regions: indices of apexes
    sp = None
    for region in stack:
        sgn = 1 if region.side == "right" else -1
        x0, cy = region.x0, region.chart.center_y
        # a level's joins share one side and abscissa, the keys of its group
        members = levels[region.level]
        on_chart = g.ends[members[0]][1] == region.side and _same(x0, g.joins[members[0]][2] / g.dx)
        for a in members:
            jcy, r = bulges[a]
            shared = on_chart and _same(cy, jcy)
            apexes.setdefault(region.level, []).append(len(apx))
            lv.append(region.level)
            apx.append(x0 + sgn * r)
            apy.append(cy)
            for (c, s), k in zip(_BULGE_UNITS, _BULGE_SAMPLES):
                if shared and k is not None:
                    at.append(first + len(_ARC_TURNS) * a + k)
                else:
                    at.append(~len(xs))
                    xs.append(x0 + sgn * r * c)
                    ys.append(cy + r * s)
            if shared and sp is None:
                sp = _sample_pass(stack, scene)[2]
    out = _moves(stack, xs, ys)
    bad = []
    for n, k in enumerate(at):
        qx, qy = (sp.x[k], sp.y[k]) if k >= 0 else (out.x[~k], out.y[~k])
        a = n // len(_BULGE_TURNS)
        if math.hypot(qx - apx[a], qy - apy[a]) > tol:
            bad.append((lv[a], _BULGE_ANGLES[n % len(_BULGE_TURNS)], (qx, qy), (apx[a], apy[a])))
    sep_ok = not any(
        math.hypot(apx[a] - apx[b], apy[a] - apy[b]) <= tol for ks in apexes.values() for a, b in combinations(ks, 2)
    )
    return {"ok": not bad and sep_ok, "failures": bad, "apexes_distinct": sep_ok}


def ceiling_certificate(stack, scene: Scene, tol: float = 1e-6) -> dict:
    """Nothing drawn at or below height 1 ends up above it."""
    xs, ys, sp = _sample_pass(stack, scene)
    ends = [i for i, y in enumerate(ys) if y <= 1 + 1e-12]
    worst = max([0.0] + [sp.y[i] for i in ends])
    bad = [((xs[i], ys[i]), (sp.x[i], sp.y[i])) for i in ends if sp.y[i] > 1 + tol]
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
    # the target, and every first witness below, is sought in scene order
    g, rows = scene.grid, _rows(scene)
    if scene.mode == "cylinders":
        word = tail.window(scene.depth)
        at = next((i for i, k in enumerate(rows) if g.words[k] == word), None)
    else:
        at = next((i for i, s in enumerate(scene.segments) if s.tail == tail), None)
    if at is None:
        raise WrongContext(f"{tail} is not drawn in this scene")
    t = rows[at]
    lo, hi = g.x_lo[t] / g.dx, g.x_hi[t] / g.dx
    if x is None:
        x = (lo + hi) / 2
    elif not lo - _PROBE_TOL <= x <= hi + _PROBE_TOL:
        raise WrongContext(f"probe abscissa {x} misses the target arc")
    ty = g.ys[t] / g.dy  # the probe starts at height 2, above all of [0, 1]
    witness = None

    for k in rows:
        # a grid height no greater than the target's (the target's own
        # included) has a float no greater
        if g.ys[k] <= g.ys[t]:
            continue
        y = g.ys[k] / g.dy
        if ty < y and g.x_lo[k] / g.dx - _PROBE_TOL <= x <= g.x_hi[k] / g.dx + _PROBE_TOL:
            witness = {"kind": "segment", "label": g.labels[k], "y": y}
            break
    if witness is None:
        for (level, side, low, high), (_, _, x0), (cy, r) in zip(g.ends, g.joins, g.bulges()):
            h = x - x0 / g.dx
            if side == "right" and h < -_PROBE_TOL:
                continue
            if side == "left" and h > _PROBE_TOL:
                continue
            if abs(h) > r:
                continue
            arm = math.sqrt(max(r * r - h * h, 0.0))
            for y in (cy + arm, cy - arm):
                if ty + _PROBE_TOL < y:
                    witness = {"kind": "join", "join": (level, low, high), "y": y}
                    break
            if witness:
                break

    moved_hits = 0
    nsamples = 0
    if witness is None:
        ys = [ty + (2.0 - ty) * k / _PROBE_STEPS for k in range(1, _PROBE_STEPS + 1)]
        out = _moves(stack, [x] * _PROBE_STEPS, ys)
        # moves come in point order: the first past _MOVE_TOL is the
        # lowest sample that moves
        nsamples = next((i + 1 for i, hop in zip(out.point, out.hop) if hop > _MOVE_TOL), None)
        if nsamples is None:
            nsamples = _PROBE_STEPS
        else:
            moved_hits = 1
            witness = {"kind": "glue-motion", "y": ys[nsamples - 1]}

    return ProbeReport(accessible=witness is None, target_label=g.labels[t], probe_x=x,
                       witness=witness, moved_stage_hits=moved_hits, samples=nsamples)
