"""Assembled diagrams: horizontal arcs plus join bulges.

A scene fixes a kneading sequence and a context tail.  Each drawn arc is
a horizontal segment whose height is the tail's ternary coordinate and
whose x-extent comes from its landing indices.  Joined pairs get a
semicircular bulge on the dictated side, spanning the two heights at the
shared landing abscissa.

Scenes come in two modes: explicit tails (each given tail is one arc)
and cylinders (every admissible window of a fixed depth is one arc, at
its block-midpoint height).

A depth-n cylinder scene depends on its context only through the
heights.  Everything else is a layout, built once per (nu, depth, x
mode, slope) and kept in a small memo, so one nu drawn under many
contexts scans its words once: the words, the window projections, raw
joins and abscissae their head matches give, and those abscissae on the
grid's x scale (each word's extent and each join's abscissa as integer
columns, scaled once, since a layout places only about n + 2 distinct
abscissae).  Per context each word gets one int, the xor of its and the
context's parity patterns: a height digit is 2 exactly where its bit is
0, so heights ascend as the ints descend.  The scene sorts the words
and orients the joins on those ints and keeps them as columns; its
``Segment`` and ``SceneJoin`` objects are made on first read.  Tail
scenes, and scenes given explicit segments, order their heights on one
scale, the lcm of the coordinates' 3^t * (3^p - 1).

``verify_noncrossing`` checks the planarity contract: no segment pokes
through a bulge, and no two same-side bulges at the same abscissa
interleave.  A scene is immutable, and ``Scene.grid``, built once per
scene, lists segment labels by height and groups joins into charts by
(side, abscissa) and by (level, side, abscissa).  Its heights are the
integers on the scene scale in both x modes: a cylinder scene's come
from its ints (numerator 2 * int(digits, 3) + 1 on 2 * 3^n) and its
abscissae from the layout's columns; any other scene's are read from
each segment's ``y`` and x.  It is the one exact form of the geometry
past the build: both checkers read nothing else, and the glue stack,
its samples, the probe and the SVG read a join's center and radius from
its integer span (``_Grid.bulges`` gives their floats), so ``SceneJoin``
keeps no Fraction of them.  In rank mode abscissae lie on an integer
grid too (scaled by the lcm of their denominators) and the checkers are
exact; in value mode abscissae are floats, compared with the tolerance
``_VALUE_TOL``.

Both checkers run one path in both modes and visit only what can fail.
A segment can cross a bulge only if it reaches past the chart's
abscissa on the bulge side, so each chart indexes those candidates by
height, each join bisects the index, and only the hit test depends on
the mode.  Same-side charts whose abscissae lie within the tolerance
(in rank mode, one chart) are compared together: if their spans nest,
with no shared end, no pair interleaves (a stack check); otherwise they
are compared pair by pair.  Betweenness counts, per (level, side,
abscissa) group, the segments that fail either of its questions by
height, so a clean gap costs one subtraction.  Violations come in the
order of the plain pairwise scans.

``stored_geometry_check`` compares the rows of a scene file with the
scene rebuilt from it.
"""
from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple, Optional

from .arcs import (
    Projection,
    _flip_joins,
    flip_at,
    landing_projection,
    resolve_x,
    scan_tails,
    window_projection,
)
from .cantor import _AGREE, CantorCoordinate, _block, _odd, cantor_coordinate
from .errors import ConflictError, MalformedSequence, NotAdmissible, ParseError
from .kneading import KneadingSequence, is_admissible_tail, kneading_from_slope, scan_cylinders
from .sequences import LeftTail, parse_left, parse_right

# value-mode slack of both checkers; rank mode is exact
_VALUE_TOL = 1e-9


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


@dataclass(frozen=True, eq=False)
class Scene:
    """Segments (sorted by height) and joins are stored as tuples, so
    ``grid`` is built once; a replaced copy builds its own.  A cylinder
    scene from ``build_scene`` holds columns instead and makes its
    segments and joins on first read."""

    nu: KneadingSequence
    context: LeftTail
    mode: str
    x_mode: str
    segments: tuple
    joins: tuple
    depth: Optional[int] = None
    slope: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "joins", tuple(self.joins))

    def __getattr__(self, name):
        # reached only for what the instance lacks: a columnar scene's
        # segments and joins before their first read
        cols = vars(self).get("_columns")
        if cols is None or name not in ("segments", "joins"):
            raise AttributeError(f"'Scene' object has no attribute {name!r}")
        vars(self).update(zip(("segments", "joins"), cols.objects()))
        return vars(self)[name]

    @cached_property
    def grid(self) -> _Grid:
        return _grid(self)


def check_context(context: LeftTail, nu: KneadingSequence) -> None:
    """NotAdmissible unless the context is an admissible tail of nu
    without a turning-point symbol."""
    if "*" in str(context) or not is_admissible_tail(context, nu):
        raise NotAdmissible(f"context {context} is not admissible")


def build_scene(
    nu: KneadingSequence,
    context,
    *,
    tails=None,
    depth: Optional[int] = None,
    x_mode: str = "rank",
    slope=None,
) -> Scene:
    """Assemble a scene from explicit tails or from all depth-n windows.

    An explicit ``slope`` must have ``nu`` as its kneading sequence as far
    as both are validated, else ConflictError.
    """
    if isinstance(context, str):
        context = parse_left(context)
    if (tails is None) == (depth is None):
        raise MalformedSequence("give either tails or depth, not both")
    if slope is None:
        slope = nu.slope
    else:
        _check_slope(nu, slope)
    check_context(context, nu)

    if tails is None:
        lay = _layout(nu, depth, x_mode, slope)
        # a height digit is 2 exactly where its key bit is 0, so heights
        # ascend as keys descend, and a join's lower end has the larger key
        ctx = _odd(context.window(depth))
        keys = [o ^ ctx for o in lay.odd]
        joins = [(level, side, a, b, r) if keys[a] > keys[b] else (level, side, b, a, r)
                 for r, (level, side, a, b) in enumerate(lay.joins)]
        joins.sort(key=lambda j: (j[0], lay.words[j[2]]))
        cols = _Columns(lay, depth, keys, sorted(range(len(keys)), key=keys.__getitem__, reverse=True), joins)
        sc = object.__new__(Scene)  # no segments or joins until read
        vars(sc).update(nu=nu, context=context, mode="cylinders", x_mode=x_mode, depth=depth, slope=slope,
                        _columns=cols)
        return sc

    # each tail is scanned once; its matches give its landing indices
    # and its joins, found before x so the anchors take part in the layout
    labels = {}  # each distinct tail, with its first label
    for item in tails:
        tail = parse_left(item) if isinstance(item, str) else item
        labels.setdefault(tail, item if isinstance(item, str) else str(item))
    scans = scan_tails(labels, nu)
    entries = []  # (label, tail, projection)
    for tail, label in labels.items():
        ok, landing, _, _ = scans[tail]
        if not ok:
            raise NotAdmissible(f"tail {label} is not admissible")
        entries.append((label, tail, landing_projection(tail, nu, landing)))
    raw = _flip_joins([(t, scans[t].window, scans[t].joins) for t in labels], nu, flip_at)
    xs = resolve_x(_indices([e[2] for e in entries], raw) | {2}, nu, mode=x_mode, slope=slope)
    drawn = [
        Segment(label, cantor_coordinate(tail, context), p, xs[p.lo_index], xs[p.hi_index], tail=tail)
        for label, tail, p in entries
    ]
    segments, joins = _placed(drawn, raw, xs)
    return Scene(nu, context, "tails", x_mode, segments, joins, depth=depth, slope=slope)


def _indices(projections, raw) -> set:
    # the orbit indices a scene draws at: every landing index and every
    # level; its x layout places 2 as well
    return {i for p in projections for i in (p.lo_index, p.hi_index)} | {level for level, *_ in raw}


def _placed(drawn: list, raw, xs) -> tuple:
    """The segments sorted by height and the scene joins, each with its
    lower segment as ``low``, from the segments in drawing order and the
    raw joins by position.  Heights are compared as integers on one
    scale, and equal ones (none in a valid scene) keep their drawing
    order."""
    _, heights = _on_scale([s.y for s in drawn])
    joins = []
    for level, side, a, b in raw:
        if heights[a] > heights[b]:
            a, b = b, a
        joins.append(SceneJoin(level, side, drawn[a], drawn[b], xs[level]))
    joins.sort(key=lambda j: (j.level, str(j.low.label)))
    return [drawn[k] for k in sorted(range(len(drawn)), key=heights.__getitem__)], joins


def _x_scale(qs, x_mode: str) -> tuple:
    """``dx`` and the map of an abscissa onto the grid: in rank mode the
    lcm of the abscissae's denominators and x -> x * dx, an integer; in
    value mode 1 and ``float``."""
    if x_mode != "rank":
        return 1, float
    dx = math.lcm(*{q.denominator for q in qs})
    return dx, lambda q: q.numerator * (dx // q.denominator)


def _on_scale(ys) -> tuple:
    """The lcm ``dy`` of the coordinates' unreduced denominators, and each
    coordinate's value times ``dy``, an integer."""
    dy = math.lcm(*{d for _, d in (y.scaled for y in ys)})
    return dy, [n * (dy // d) for n, d in (y.scaled for y in ys)]


class _Layout(NamedTuple):
    """What a depth-n cylinder scene holds that no context changes, in the
    words' signed-lex order."""

    words: tuple
    projections: tuple  # each word's window projection
    # the raw joins as ``_flip_joins`` gives them, (level, side, i, j)
    # with ``i`` and ``j`` positions in ``words``
    joins: tuple
    xs: MappingProxyType  # resolve_x of every orbit index the scene places
    odd: tuple  # each word's ``cantor._odd`` pattern, read by its heights
    # the grid's x scale, and on it each word's extent and each raw join's
    # abscissa, as ``_grid`` places them
    dx: int
    x_lo: tuple
    x_hi: tuple
    x0: tuple


# Every context at one (nu, depth) shares a layout: the paper makes each
# point of the inverse limit accessible in its own embedding, so one nu is
# drawn under many contexts.  A layout holds every word of its depth, so
# only a few are kept: enough for a handful of nu at their depths in turn.
# lru_cache keeps no exception, so an undecided truncated nu raises on
# every call; typed, so a slope 3/2 and 1.5 (whose value-mode orbits
# differ in rounding) get their own layouts.
@lru_cache(maxsize=8, typed=True)
def _layout(nu: KneadingSequence, depth: int, x_mode: str, slope) -> _Layout:
    # each word's head matches, as its scan found them, feed its
    # projection and its joins; the layout keeps only what they give
    scanned = scan_cylinders(nu, depth)
    words = tuple(w for w, _ in scanned)
    # words with one match set share a projection, and a layout places
    # about depth + 2 distinct abscissae: each is made and scaled once
    matches = [tuple(ks) for _, ks in scanned]
    made = {ks: window_projection(ks, nu) for ks in dict.fromkeys(matches)}
    raw = _flip_joins([(w, w, ks) for w, ks in scanned], nu, _raise_slot)
    placed = _indices(made.values(), raw)
    xs = resolve_x(placed | {2}, nu, mode=x_mode, slope=slope)
    dx, on = _x_scale([xs[i] for i in placed], x_mode)
    at = {i: on(xs[i]) for i in placed}
    ends = {ks: (at[p.lo_index], at[p.hi_index]) for ks, p in made.items()}
    return _Layout(
        words,
        tuple(made[ks] for ks in matches),
        tuple(raw),
        MappingProxyType(xs),
        tuple(map(_odd, words)),
        dx,
        tuple(ends[ks][0] for ks in matches),
        tuple(ends[ks][1] for ks in matches),
        tuple(at[level] for level, *_ in raw),
    )


class _Columns(NamedTuple):
    """A depth-n cylinder scene under one context: each word's key, the
    xor of its ``_odd`` pattern and the context's, the word positions by
    height, and the joins as (level, side, low, high, raw index), low and
    high positions in the layout's words, in scene order."""

    lay: _Layout
    n: int
    keys: list
    order: list
    joins: list

    def heights(self) -> list:
        # each word's block-midpoint numerator on the scale 2 * 3^n
        fmt = f"0{self.n}b"
        return [2 * int(format(k, fmt).translate(_AGREE), 3) + 1 for k in self.keys]

    def grid(self) -> _Grid:
        lay, heights, words = self.lay, self.heights(), self.lay.words
        labels = [words[i] for i in self.order]
        spans, ends, charts, groups = [], [], {}, {}
        for a, (level, side, lo, hi, r) in enumerate(self.joins):
            x0 = lay.x0[r]
            spans.append((heights[lo], heights[hi], x0))
            ends.append((level, side, words[lo], words[hi]))
            charts.setdefault((side, x0), []).append(a)
            groups.setdefault((level, side, x0), []).append(a)
        return _Grid(
            2 * 3**self.n,
            lay.dx,
            labels,
            labels,
            [heights[i] for i in self.order],
            [lay.x_lo[i] for i in self.order],
            [lay.x_hi[i] for i in self.order],
            spans,
            ends,
            charts,
            groups,
        )

    def objects(self) -> tuple:
        """The scene's segments and joins, as ``Segment`` and ``SceneJoin``."""
        lay, fmt, scale = self.lay, f"0{self.n}b", 2 * 3**self.n
        xs = lay.xs
        made = [
            Segment(w, _block(format(k, fmt).translate(_AGREE), scale), p, xs[p.lo_index], xs[p.hi_index], word=w)
            for w, k, p in zip(lay.words, self.keys, lay.projections)
        ]
        joins = (SceneJoin(level, side, made[lo], made[hi], xs[level]) for level, side, lo, hi, _ in self.joins)
        return tuple(made[i] for i in self.order), tuple(joins)


def _check_slope(nu: KneadingSequence, slope) -> None:
    # the slope's nu, cut where a truncated nu is, must agree with nu as
    # far as both are validated; eventually periodic words that agree on
    # the longer preperiod plus the lcm of the periods agree forever
    own = kneading_from_slope(slope, max_iter=int(min(nu.validated_depth, 4096)))
    a, b = nu.seq, own.seq
    n = max(len(a.preperiod), len(b.preperiod)) + math.lcm(len(a.period), len(b.period))
    n = int(min(nu.validated_depth, own.validated_depth, n))
    if a.expand(n) != b.expand(n):
        raise ConflictError(f"nu {a} is not the kneading sequence of slope {slope!r}")


def _raise_slot(w: str, m: int) -> str:
    # a cylinder word with slot -m raised from 0 to 1: its join partner
    i = len(w) - m
    return w[:i] + "1" + w[i + 1 :]


# ---------------------------------------------------------------- geometry


class _Grid(NamedTuple):
    """A scene's segment columns sorted by height, its join spans and its
    charts.

    Heights lie on one integer grid in both modes: height y is ``y * dy``,
    where ``dy`` is the lcm of the heights' unreduced denominators (for a
    depth-n cylinder scene, 2 * 3^n).  In rank mode abscissa x is ``x *
    dx``, ``dx`` the lcm of the abscissae's denominators; in value mode
    abscissae are floats and ``dx`` is 1.
    """

    dy: int
    dx: int
    labels: list  # the segments' labels, sorted by height
    # by height, each segment's word, or its tail's window as long as the
    # deepest join level: its last m symbols are its ``last(m)``
    words: list
    ys: list  # their heights, ascending
    x_lo: list
    x_hi: list
    joins: list  # (y_lo, y_hi, x0) of each scene join, in scene order
    ends: list  # (level, side, low label, high label) of each scene join
    charts: dict  # (side, x0): indices of its joins, ascending
    groups: dict  # (level, side, x0): indices of its joins, ascending

    def bulges(self) -> list:
        """(center, radius) of each join's bulge, in scene order: (y_lo +
        y_hi) / 2dy and (y_hi - y_lo) / 2dy, each rounded once, so each is
        the float of its exact value."""
        scale = 2 * self.dy
        return [((lo + hi) / scale, (hi - lo) / scale) for lo, hi, _ in self.joins]


def _grid(scene: Scene) -> _Grid:
    cols = vars(scene).get("_columns")
    if cols is not None:
        return cols.grid()
    segs, js = scene.segments, scene.joins
    # heights come from each segment's y, so a copy with replaced heights
    # is placed by them
    dy, ys = _on_scale([s.y for s in segs] + [y for j in js for y in (j.low.y, j.high.y)])
    heights, ends = ys[: len(segs)], ys[len(segs) :]
    dx, on = _x_scale([q for s in segs for q in (s.x_lo, s.x_hi)] + [j.x0 for j in js], scene.x_mode)
    x_lo = [on(s.x_lo) for s in segs]
    x_hi = [on(s.x_hi) for s in segs]
    spans = list(zip(ends[::2], ends[1::2], [on(j.x0) for j in js]))
    # a stable sort on the grid heights keeps the order of equal heights
    order = sorted(range(len(segs)), key=heights.__getitem__)
    m = max((j.level for j in js), default=1) - 1
    charts: dict = {}
    groups: dict = {}
    for a, (j, (_, _, x0)) in enumerate(zip(js, spans)):
        charts.setdefault((j.side, x0), []).append(a)
        groups.setdefault((j.level, j.side, x0), []).append(a)
    return _Grid(
        dy,
        dx,
        [segs[k].label for k in order],
        [segs[k].word if segs[k].tail is None else segs[k].tail.window(m) for k in order],
        [heights[k] for k in order],
        [x_lo[k] for k in order],
        [x_hi[k] for k in order],
        spans,
        [(j.level, j.side, j.low.label, j.high.label) for j in js],
        charts,
        groups,
    )


def _crosses_float(side: str, x0, rr, x_lo, x_hi) -> bool:
    arm = math.sqrt(rr)
    xc = x0 + arm if side == "right" else x0 - arm
    pen = min(x_hi - xc, xc - x_lo)
    return pen > _VALUE_TOL


def _join_key(end: tuple) -> tuple:
    # (level, low label, high label) of a grid's (level, side, low, high)
    return (end[0], end[2], end[3])


def _interleaved(a: tuple, b: tuple) -> bool:
    # the join-join predicate on spans (y_lo, y_hi, x0); not symmetric
    return (a[0] < b[0] < a[1]) != (a[0] < b[1] < a[1])


def _nested(spans: list) -> bool:
    """Whether every span has y_lo < y_hi, no two spans share an end and
    any two are nested or disjoint.  ``_interleaved`` then holds for no
    pair, in either order."""
    if len({y for lo, hi, _ in spans for y in (lo, hi)}) < 2 * len(spans):
        return False
    around = []  # upper ends of the spans enclosing the current one
    for lo, hi, _ in sorted(spans):
        if lo > hi:
            return False
        while around and around[-1] < lo:
            around.pop()
        if around and around[-1] < hi:
            return False
        around.append(hi)
    return True


def verify_noncrossing(scene: Scene) -> list:
    """All planarity violations; empty means the drawing is clean.

    Checks bulge against segment and bulge against same-abscissa,
    same-side bulge.  Exact integer arithmetic in rank mode, tolerance
    ``_VALUE_TOL`` on float abscissae in value mode.

    Each chart (the joins sharing a side and an abscissa x0) indexes by
    height the segments that reach past x0 on its side, the only ones
    that can cross its bulges, and each join bisects that index.  Charts
    on one side whose abscissae lie within the tolerance (none in rank
    mode) form a cluster; a cluster whose spans nest with no shared end
    has no interleaving pair, and any other is compared pair by pair.
    Segment violations come first, by join and then by height; join
    pairs follow by first join, then by partner.
    """
    g = scene.grid
    exact = scene.x_mode == "rank"
    tol = 0 if exact else _VALUE_TOL
    dy2, dx2 = g.dy * g.dy, g.dx * g.dx
    ys, ends, spans = g.ys, g.ends, g.joins
    # per chart, the segments inside its widest gap that reach past x0
    # on its side, by height
    reach = {}
    for (side, x0), members in g.charts.items():
        ks = range(bisect_right(ys, min(spans[a][0] for a in members)),
                   bisect_left(ys, max(spans[a][1] for a in members)))
        if side == "right":
            ks = [k for k in ks if g.x_hi[k] > x0]
        else:
            ks = [k for k in ks if g.x_lo[k] < x0]
        reach[side, x0] = ([ys[k] for k in ks], ks)
    out = []
    for end, (ylo, yhi, x0) in zip(ends, spans):
        side = end[1]
        heights, ks = reach[side, x0]
        for k in ks[bisect_right(heights, ylo) : bisect_left(heights, yhi)]:
            # the bulge meets height y at x0 +- arm, arm^2 = (y - ylo)(yhi - y)
            arm2 = (ys[k] - ylo) * (yhi - ys[k])
            if not exact:
                # arm2 / dy^2 rounds once, as the float of the exact arm^2
                hit = _crosses_float(side, x0, arm2 / dy2, g.x_lo[k], g.x_hi[k])
            else:
                # on the grid, arm^2 * dx^2 * dy^2 is rr
                rr = arm2 * dx2
                lo, hi = g.x_lo[k] - x0, g.x_hi[k] - x0
                if side != "right":
                    lo, hi = -hi, -lo  # mirror a left bulge onto the right
                # one end beyond the arm, the other inside it
                hit = hi > 0 and hi * hi * dy2 > rr and (lo < 0 or lo * lo * dy2 < rr)
            if hit:
                out.append({"kind": "segment-join", "segment": g.labels[k], "join": _join_key(end)})
    # same-side bulges at one abscissa: only the clusters that do not
    # nest cleanly are compared, pair by pair within the cluster, in the
    # global (a, b) order
    clusters, last = [], None
    for side, x0 in sorted(g.charts):
        if last is None or side != last[0] or x0 - last[1] > tol:
            clusters.append([])
        clusters[-1] += g.charts[side, x0]
        last = side, x0
    place = {}  # each such cluster's joins: the cluster, their position in it
    for members in clusters:
        if not _nested([spans[a] for a in members]):
            members.sort()
            place.update((a, (members, i)) for i, a in enumerate(members))
    for a in sorted(place):
        members, i = place[a]
        for b in members[i + 1 :]:
            if abs(spans[a][2] - spans[b][2]) <= tol and _interleaved(spans[a], spans[b]):
                out.append({"kind": "join-join", "join_a": _join_key(ends[a]), "join_b": _join_key(ends[b])})
    return out


def betweenness_check(scene: Scene) -> list:
    """Structure of the strict interior of every join's height gap.

    Every segment strictly between the joined heights must share the
    join's last m-1 symbols and must not reach past the join's abscissa
    on the bulge side.

    Joins with one (level, side, abscissa) ask the same two questions of
    a segment, so each group asks them once over the union of its gaps
    and counts the failing segments by height: a clean gap costs one
    subtraction, and only a gap holding a failure is scanned.  Exact on
    the integer grid in rank mode, tolerance ``_VALUE_TOL`` in value
    mode.
    """
    g = scene.grid
    ys = g.ys
    tol = 0 if scene.x_mode == "rank" else _VALUE_TOL
    gaps = [(bisect_right(ys, lo), bisect_left(ys, hi)) for lo, hi, _ in g.joins]
    found = {}  # group: (first index, failure kind by height, running count)
    for (level, side, x0), members in g.groups.items():
        head = scene.nu.expand(level - 1)
        start = min(gaps[a][0] for a in members)
        kinds, bad = [], [0]
        for k in range(start, max(gaps[a][1] for a in members)):
            if not g.words[k].endswith(head):
                kind = "foreign-symbols"
            elif (g.x_hi[k] > x0 + tol) if side == "right" else (g.x_lo[k] < x0 - tol):
                kind = "x-overreach"
            else:
                kind = None
            kinds.append(kind)
            bad.append(bad[-1] + (kind is not None))
        found[level, side, x0] = (start, kinds, bad)
    out = []
    for (level, side, _, _), (lo, hi), (_, _, x0) in zip(g.ends, gaps, g.joins):
        start, kinds, bad = found[level, side, x0]
        if lo >= hi or bad[hi - start] == bad[lo - start]:
            continue
        for k in range(lo, hi):
            if kinds[k - start]:
                out.append({"kind": kinds[k - start], "segment": g.labels[k], "level": level})
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
    if trusted is not None and trusted > sys.maxsize:
        raise ParseError(f"scene key 'validated_depth' exceeds {sys.maxsize}")
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
