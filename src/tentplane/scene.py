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
interleave.  In rank mode every coordinate is rational and the checks
are exact; in value mode they are float comparisons with a tolerance.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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

    @property
    def center(self) -> Fraction:
        return (self.y_lo + self.y_hi) / 2

    @property
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


def _crosses_exact(side: str, x0, rr, x_lo, x_hi) -> bool:
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


def _crosses_float(side: str, x0, rr, x_lo, x_hi, tol: float) -> bool:
    arm = math.sqrt(rr)
    xc = x0 + arm if side == "right" else x0 - arm
    pen = min(x_hi - xc, xc - x_lo)
    return pen > tol


def verify_noncrossing(scene: Scene, tol: float = 1e-9) -> list:
    """All planarity violations; empty means the drawing is clean.

    Checks bulge against segment and bulge against same-abscissa,
    same-side bulge.  Exact arithmetic in rank mode, tolerance ``tol``
    in value mode.
    """
    exact = scene.x_mode == "rank"
    out = []
    # scan segments by height so each join only visits its own gap
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
            if exact:
                bad = _crosses_exact(j.side, j.x0, rr, s.x_lo, s.x_hi)
            else:
                bad = _crosses_float(j.side, float(j.x0), float(rr), float(s.x_lo), float(s.x_hi), tol)
            if bad:
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
            if ja.side != jb.side:
                continue
            if exact:
                if ja.x0 != jb.x0:
                    continue
            elif abs(float(ja.x0) - float(jb.x0)) > tol:
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


def betweenness_check(scene: Scene, tol: float = 1e-9) -> list:
    """Structure of the strict interior of every join's height gap.

    Every segment strictly between the joined heights must share the
    join's last m-1 symbols and must not reach past the join's abscissa
    on the bulge side.
    """
    exact = scene.x_mode == "rank"
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
                ok = s.x_hi <= j.x0 if exact else float(s.x_hi) <= float(j.x0) + tol
            else:
                ok = s.x_lo >= j.x0 if exact else float(s.x_lo) >= float(j.x0) - tol
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

    The stored geometry is not read back; the scene is recomputed.
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


def scene_from_json(text: str) -> Scene:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, col=e.colno) from None
    return scene_from_dict(data)
