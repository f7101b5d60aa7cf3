"""Assembled diagrams: horizontal arcs plus join bulges.

A scene fixes a kneading sequence and a context tail.  Each drawn arc is
a horizontal segment whose height is the tail's ternary coordinate and
whose x-extent comes from its landing indices.  Joined pairs get a
semicircular bulge on the dictated side, spanning the two heights at the
shared landing abscissa.

Scenes come in two modes: explicit tails (each given tail is one arc)
and cylinders (every admissible window of a fixed depth is one arc, at
its block-midpoint height).

``verify_noncrossing`` checks the planarity contract: no segment pokes
through a bulge, and no two same-side bulges at the same abscissa
interleave.  In rank mode every coordinate is rational, and both it and
``betweenness_check`` run exactly on one integer grid per scene, built
inside each call: heights scaled by the lcm of their denominators,
abscissae by the lcm of theirs.  In value mode they are float
comparisons with a tolerance.

``stored_geometry_check`` compares the rows of a scene file with the
scene rebuilt from it.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from .arcs import (
    Join,
    Projection,
    arc_projection,
    boundary_pairs,
    resolve_x,
    side_of_level,
    window_projection,
)
from .cantor import CantorCoordinate, block_midpoint, cantor_coordinate
from .errors import MalformedSequence, NotAdmissible, ParseError
from .kneading import (
    KneadingSequence,
    enumerate_cylinders,
    head_matches,
    is_admissible_tail,
)
from .sequences import LeftTail, parse_left, parse_right


@dataclass(frozen=True)
class Segment:
    label: str
    y: CantorCoordinate
    projection: Projection
    x_lo: object
    x_hi: object
    tail: Optional[LeftTail] = None
    word: Optional[str] = None

    def last(self, k: int) -> str:
        if self.tail is not None:
            return self.tail.window(k)
        return self.word[len(self.word) - k :] if k else ""


@dataclass(frozen=True)
class SceneJoin:
    level: int
    side: str
    low: Segment
    high: Segment
    x0: object

    @property
    def y_lo(self) -> Fraction:
        return self.low.y.value

    @property
    def y_hi(self) -> Fraction:
        return self.high.y.value

    # computed once per join; a replaced copy computes its own
    @cached_property
    def center(self) -> Fraction:
        return (self.y_lo + self.y_hi) / 2

    @cached_property
    def radius(self) -> Fraction:
        return (self.y_hi - self.y_lo) / 2


@dataclass
class Scene:
    nu: KneadingSequence
    context: LeftTail
    mode: str
    x_mode: str
    segments: list
    joins: list
    depth: Optional[int] = None
    slope: Optional[float] = None


def build_scene(
    nu: KneadingSequence,
    context,
    *,
    tails=None,
    depth: Optional[int] = None,
    x_mode: str = "rank",
    slope=None,
) -> Scene:
    """Assemble a scene from explicit tails or from all depth-n windows."""
    if isinstance(context, str):
        context = parse_left(context)
    if (tails is None) == (depth is None):
        raise MalformedSequence("give either tails or depth, not both")
    if not is_admissible_tail(context, nu):
        raise NotAdmissible(f"context {context} is not admissible")
    if slope is None:
        slope = nu.slope

    entries = []  # (label, tail, word, y, projection)
    if tails is not None:
        seen = {}
        for item in tails:
            label = item if isinstance(item, str) else str(item)
            tail = parse_left(item) if isinstance(item, str) else item
            if tail in seen:
                continue
            if not is_admissible_tail(tail, nu):
                raise NotAdmissible(f"tail {label} is not admissible")
            seen[tail] = label
            entries.append((label, tail, None, cantor_coordinate(tail, context), arc_projection(tail, nu)))
        mode = "tails"
    else:
        for w in enumerate_cylinders(nu, depth):
            entries.append((w, None, w, block_midpoint(w, context), window_projection(w, nu)))
        mode = "cylinders"

    # join structure before x so the anchors take part in the x layout
    if mode == "tails":
        raw = boundary_pairs([e[1] for e in entries], nu, context=context)
    else:
        raw = _cylinder_pairs([e[2] for e in entries], nu)

    indices = {2}
    for e in entries:
        indices.add(e[4].lo_index)
        indices.add(e[4].hi_index)
    for j in raw:
        indices.add(j.level)
    xs = resolve_x(indices, nu, mode=x_mode, slope=slope)

    segments = []
    for label, tail, word, y, proj in entries:
        segments.append(
            Segment(label, y, proj, xs[proj.lo_index], xs[proj.hi_index], tail=tail, word=word)
        )
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


def _cylinder_pairs(words, nu: KneadingSequence) -> list:
    """Joined pairs among equal-length windows: flip one slot, the part
    after it must read as the head of nu."""
    pool = set(words)
    out = []
    for w in words:
        for k in head_matches(w, nu):
            i = len(w) - 1 - k  # slot -(k+1), just before the matched suffix
            if i < 0 or w[i] == "1":
                continue  # handle each unordered pair once, from its 0 side
            other = w[:i] + "1" + w[i + 1 :]
            if other in pool:
                out.append(Join(k + 1, side_of_level(nu, k + 1), w, other))
    return out


# ---------------------------------------------------------------- geometry


class _Grid(NamedTuple):
    """A rank-mode scene on one integer grid: height y is ``y * dy`` and
    abscissa x is ``x * dx``, where ``dy`` and ``dx`` are the lcms of the
    heights' and the abscissae's denominators."""

    dy: int
    dx: int
    segments: list  # sorted by height
    ys: list  # their heights, ascending
    x_lo: list
    x_hi: list
    joins: list  # (y_lo, y_hi, x0) of each scene join, in scene order


def _grid(scene: Scene) -> _Grid:
    by_y = sorted(scene.segments, key=lambda s: s.y.value)
    heights = [s.y.value for s in by_y]
    ends = [(j.y_lo, j.y_hi, j.x0) for j in scene.joins]
    dy = math.lcm(*{q.denominator for q in heights}, *{q.denominator for e in ends for q in e[:2]})
    dx = math.lcm(
        *{q.denominator for s in by_y for q in (s.x_lo, s.x_hi)},
        *{e[2].denominator for e in ends},
    )

    def on(q, d: int) -> int:
        return q.numerator * (d // q.denominator)

    return _Grid(
        dy,
        dx,
        by_y,
        [on(q, dy) for q in heights],
        [on(s.x_lo, dx) for s in by_y],
        [on(s.x_hi, dx) for s in by_y],
        [(on(lo, dy), on(hi, dy), on(x0, dx)) for lo, hi, x0 in ends],
    )


def _crosses_float(side: str, x0, rr, x_lo, x_hi, tol: float) -> bool:
    arm = math.sqrt(rr)
    xc = x0 + arm if side == "right" else x0 - arm
    pen = min(x_hi - xc, xc - x_lo)
    return pen > tol


def _join_key(j: SceneJoin) -> tuple:
    return (j.level, j.low.label, j.high.label)


def _segment_join(s: Segment, j: SceneJoin) -> dict:
    return {"kind": "segment-join", "segment": s.label, "join": _join_key(j)}


def _join_join(a: SceneJoin, b: SceneJoin) -> dict:
    return {"kind": "join-join", "join_a": _join_key(a), "join_b": _join_key(b)}


def verify_noncrossing(scene: Scene, tol: float = 1e-9) -> list:
    """All planarity violations; empty means the drawing is clean.

    Checks bulge against segment and bulge against same-abscissa,
    same-side bulge.  Exact integer arithmetic in rank mode, tolerance
    ``tol`` in value mode.
    """
    if scene.x_mode == "rank":
        return _noncrossing_exact(scene)
    out = []
    # scan segments by height so each join only visits its own gap
    by_y = sorted(scene.segments, key=lambda s: s.y.value)
    ys = [s.y.value for s in by_y]
    for j in scene.joins:
        ylo, yhi = j.y_lo, j.y_hi
        yc, r = (ylo + yhi) / 2, (yhi - ylo) / 2
        for k in range(bisect_right(ys, ylo), bisect_left(ys, yhi)):
            s = by_y[k]
            dy = ys[k] - yc
            rr = r * r - dy * dy
            if _crosses_float(j.side, float(j.x0), float(rr), float(s.x_lo), float(s.x_hi), tol):
                out.append(_segment_join(s, j))
    js = scene.joins
    for a in range(len(js)):
        for b in range(a + 1, len(js)):
            ja, jb = js[a], js[b]
            if ja.side != jb.side or abs(float(ja.x0) - float(jb.x0)) > tol:
                continue
            if (ja.y_lo < jb.y_lo < ja.y_hi) != (ja.y_lo < jb.y_hi < ja.y_hi):
                out.append(_join_join(ja, jb))
    return out


def _noncrossing_exact(scene: Scene) -> list:
    g = _grid(scene)
    dy2, dx2 = g.dy * g.dy, g.dx * g.dx
    ys, js = g.ys, scene.joins
    out = []
    for j, (ylo, yhi, x0) in zip(js, g.joins):
        right = j.side == "right"
        for k in range(bisect_right(ys, ylo), bisect_left(ys, yhi)):
            y = ys[k]
            # the bulge meets height y at x0 +- arm with arm^2 =
            # (y - ylo)(yhi - y); on the grid, arm^2 * dx^2 * dy^2 is rr
            rr = (y - ylo) * (yhi - y) * dx2
            lo, hi = g.x_lo[k] - x0, g.x_hi[k] - x0
            if not right:
                lo, hi = -hi, -lo  # mirror a left bulge onto the right
            # one end beyond the arm, the other inside it
            if hi > 0 and hi * hi * dy2 > rr and (lo < 0 or lo * lo * dy2 < rr):
                out.append(_segment_join(g.segments[k], j))
    # same-side bulges at one abscissa: compare within each chart only,
    # in the global (a, b) order (the interleave test is not symmetric)
    charts: dict = {}
    place = []  # each join's position in its chart
    for a, (j, (_, _, x0)) in enumerate(zip(js, g.joins)):
        chart = charts.setdefault((j.side, x0), [])
        place.append(len(chart))
        chart.append(a)
    for a, (alo, ahi, x0) in enumerate(g.joins):
        for b in charts[js[a].side, x0][place[a] + 1 :]:
            blo, bhi, _ = g.joins[b]
            if (alo < blo < ahi) != (alo < bhi < ahi):
                out.append(_join_join(js[a], js[b]))
    return out


def betweenness_check(scene: Scene, tol: float = 1e-9) -> list:
    """Structure of the strict interior of every join's height gap.

    Every segment strictly between the joined heights must share the
    join's last m-1 symbols and must not reach past the join's abscissa
    on the bulge side.
    """
    if scene.x_mode == "rank":
        g = _grid(scene)
        by_y, ys, x_lo, x_hi, spans = g.segments, g.ys, g.x_lo, g.x_hi, g.joins
        tol = 0  # integer grid: exact
    else:
        by_y = sorted(scene.segments, key=lambda s: s.y.value)
        ys = [s.y.value for s in by_y]
        x_lo = [float(s.x_lo) for s in by_y]
        x_hi = [float(s.x_hi) for s in by_y]
        spans = [(j.y_lo, j.y_hi, float(j.x0)) for j in scene.joins]
    heads: dict = {}
    out = []
    for j, (ylo, yhi, x0) in zip(scene.joins, spans):
        m = j.level - 1
        if m not in heads:
            heads[m] = scene.nu.expand(m)
        for k in range(bisect_right(ys, ylo), bisect_left(ys, yhi)):
            s = by_y[k]
            if s.last(m) != heads[m]:
                out.append({"kind": "foreign-symbols", "segment": s.label, "level": j.level})
                continue
            if j.side == "right":
                ok = x_hi[k] <= x0 + tol
            else:
                ok = x_lo[k] >= x0 - tol
            if not ok:
                out.append({"kind": "x-overreach", "segment": s.label, "level": j.level})
    return out


# ------------------------------------------------------------- serialization


def scene_to_dict(scene: Scene) -> dict:
    segs = []
    for s in scene.segments:
        row = {
            "y": s.y.ternary(),
            "x_lo": float(s.x_lo),
            "x_hi": float(s.x_hi),
        }
        if s.tail is not None:
            row["tail"] = str(s.tail)
            if s.label != str(s.tail):
                row["label"] = s.label
        else:
            row["tail"] = s.word
        segs.append(row)
    joins = []
    for j in scene.joins:
        joins.append(
            {
                "level": j.level,
                "side": j.side,
                "low_tail": j.low.label,
                "high_tail": j.high.label,
                "x0": float(j.x0),
            }
        )
    out = {
        "nu": str(scene.nu.seq),
        "L": str(scene.context),
        "depth": scene.depth,
        "x_mode": scene.x_mode,
        "segments": segs,
        "joins": joins,
    }
    if not scene.nu.exact:
        out["validated_depth"] = int(scene.nu.validated_depth)
    if scene.slope is not None:
        out["slope"] = scene.slope
    return out


def scene_to_json(scene: Scene) -> str:
    return json.dumps(scene_to_dict(scene), indent=2, sort_keys=True)


_REQUIRED = object()


def _field(data: dict, key: str, kinds, default=_REQUIRED):
    """``data[key]`` checked against ``kinds``; ParseError naming the key
    when it is missing (and required) or of another type."""
    if key not in data:
        if default is _REQUIRED:
            raise ParseError(f"scene lacks key {key!r}")
        return default
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, kinds):
        raise ParseError(f"scene key {key!r} has a {type(val).__name__} value")
    return val


def scene_from_dict(data: dict) -> Scene:
    """Rebuild a scene from its kneading sequence, context, mode and tails.

    The stored geometry is not read back; the scene is recomputed, and
    ``stored_geometry_check`` compares the stored rows with it.
    """
    if not isinstance(data, dict):
        raise ParseError("scene must be a JSON object")
    trusted = _field(data, "validated_depth", int, None)
    slope = _field(data, "slope", (int, float, type(None)), None)
    nu = KneadingSequence(
        parse_right(_field(data, "nu", str)),
        validated_depth=math.inf if trusted is None else float(trusted),
        slope=slope,
    )
    context = parse_left(_field(data, "L", str))
    x_mode = _field(data, "x_mode", str)
    depth = _field(data, "depth", (int, type(None)), None)
    if depth is not None:
        return build_scene(nu, context, depth=depth, x_mode=x_mode, slope=slope)
    tails = []
    for row in _field(data, "segments", list):
        if not isinstance(row, dict):
            raise ParseError("scene key 'segments' holds a row that is not an object")
        tails.append(_field(row, "label", str, _field(row, "tail", str)))
    return build_scene(nu, context, tails=tails, x_mode=x_mode, slope=slope)


def stored_geometry_check(data: dict, scene: Scene) -> list:
    """One ``stored-geometry`` violation per ``segments`` or ``joins`` row
    of a scene file that differs from the row ``scene_to_dict`` writes
    for the scene rebuilt from it (JSON keeps its floats and ternary
    strings exactly)."""
    want = scene_to_dict(scene)
    out = []
    for key in ("segments", "joins"):
        rows = _field(data, key, list, [])
        rebuilt = want[key]
        for i in range(max(len(rows), len(rebuilt))):
            got = rows[i] if i < len(rows) else None
            row = rebuilt[i] if i < len(rebuilt) else None
            if got != row:
                out.append({"kind": "stored-geometry", "row": f"{key}[{i}]", "stored": got, "rebuilt": row})
    return out


def scene_from_json(text: str) -> Scene:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, col=e.colno) from None
    return scene_from_dict(data)
