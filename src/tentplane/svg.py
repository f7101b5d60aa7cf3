"""Flat-file SVG rendering of scenes.

Output is deterministic: fixed decimal formatting, stable element
order (frame, segments by height, joins by level then label, labels
last), no timestamps or ids.  Scene x and y share units, so bulges are
true circles there; the screen mapping scales axes independently and
draws them as elliptical arcs.
"""
from __future__ import annotations

from .scene import Scene

# canvas size and frame inset, in pixels
_WIDTH = 800
_HEIGHT = 520
_MARGIN = 48


def _f(v: float) -> str:
    return f"{float(v):.6f}"


def render_scene(scene: Scene, *, portrait: bool = False) -> str:
    # heights are Cantor coordinates, in [0, 1]: y maps that range
    xs = [0.0, 1.0]
    for s in scene.segments:
        xs += [float(s.x_lo), float(s.x_hi)]
    radii = [r for _, r in scene.grid.bulges()]
    for j, r in zip(scene.joins, radii):
        xs.append(float(j.x0) + r if j.side == "right" else float(j.x0) - r)
    xmin, xmax = min(xs), max(xs)
    spanx = (xmax - xmin) or 1.0
    sx = (_WIDTH - 2 * _MARGIN) / spanx
    sy = float(_HEIGHT - 2 * _MARGIN)

    def X(v: float) -> float:
        return _MARGIN + (v - xmin) * sx

    def Y(v: float) -> float:
        return _HEIGHT - _MARGIN - v * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    ]
    if portrait:
        cx, cy = _WIDTH / 2, _HEIGHT / 2
        parts.append(f'<g transform="rotate(90 {_f(cx)} {_f(cy)})">')
    parts.append(
        f'<rect x="{_f(_MARGIN)}" y="{_f(_MARGIN)}" width="{_f(_WIDTH - 2 * _MARGIN)}" '
        f'height="{_f(_HEIGHT - 2 * _MARGIN)}" fill="none" stroke="#cccccc" stroke-width="1"/>'
    )
    for s in scene.segments:
        y = Y(float(s.y))
        parts.append(
            f'<line x1="{_f(X(float(s.x_lo)))}" y1="{_f(y)}" x2="{_f(X(float(s.x_hi)))}" '
            f'y2="{_f(y)}" stroke="#000000" stroke-width="1.5"/>'
        )
    for j, r in zip(scene.joins, radii):
        x = X(float(j.x0))
        y1, y2 = Y(float(j.low.y)), Y(float(j.high.y))
        rx, ry = r * sx, r * sy
        sweep = 0 if j.side == "right" else 1
        parts.append(
            f'<path d="M {_f(x)} {_f(y1)} A {_f(rx)} {_f(ry)} 0 0 {sweep} {_f(x)} {_f(y2)}" '
            f'fill="none" stroke="#3355bb" stroke-width="1.2"/>'
        )
    for s in scene.segments:
        y = Y(float(s.y))
        # as xml.sax.saxutils.escape, whose import loads urllib and email
        label = s.label.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
        parts.append(
            f'<text x="{_f(X(float(s.x_hi)) + 5)}" y="{_f(y + 3)}" '
            f'font-family="monospace" font-size="10">{label}</text>'
        )
    if portrait:
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
