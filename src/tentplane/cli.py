"""Command line front end.

Exit codes: 0 success, 1 a check ran and found violations or an
obstruction, 2 unusable input (bad arguments, malformed sequences,
conflicting or undecidable requests).
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    AmbiguousAtDepth,
    ConflictError,
    MalformedSequence,
    NotAdmissible,
    ParseError,
    TentplaneError,
    WrongContext,
)
from .glue import (
    accessibility_probe,
    build_glue_stack,
    cauchy_certificate,
    ceiling_certificate,
    collapse_certificate,
    displacement_certificate,
    support_certificate,
)
from .cantor import block_midpoint
from .kneading import KneadingSequence, enumerate_cylinders, kneading_from_slope
from .scene import (
    betweenness_check,
    build_scene,
    scene_from_json,
    scene_to_json,
    stored_geometry_check,
    verify_noncrossing,
)
from .sequences import parse_left, parse_right
from .svg import render_scene

_CONFIG_KEYS = {
    "slope",
    "nu",
    "L",
    "context",
    "depth",
    "tails",
    "x_mode",
    "glue_stages",
    "out",
    "x",
}
# flag dests mirrored into the merged options (L is spelled context there)
_MERGE_KEYS = _CONFIG_KEYS - {"L"}
_NUMBER_KEYS = {"slope": float, "x": float, "depth": int, "glue_stages": int}


def _config_value(key: str, val):
    """One config value in its option type; TypeError or ValueError when
    it does not convert.  Text is parsed, JSON values must already fit."""
    conv = _NUMBER_KEYS.get(key)
    if conv is not None:
        kinds = (str, int) if conv is int else (str, int, float)
        if isinstance(val, bool) or not isinstance(val, kinds):
            raise TypeError(key)
        return conv(val)
    if key == "tails":
        if isinstance(val, str):
            return [t.strip() for t in val.split(",") if t.strip()]
        if isinstance(val, list) and all(isinstance(t, str) for t in val):
            return val
        raise TypeError(key)
    if not isinstance(val, str):
        raise TypeError(key)
    return val


def parse_config(text: str) -> dict:
    """Read a config as JSON or as key=value lines.

    Recognized keys: slope, nu, L (or context), depth, tails (comma
    separated), x_mode, glue_stages, out, x.  Giving both slope and nu
    is a conflict.  A value that does not convert is a ParseError at its
    line and column (key=value) or naming its key (JSON).
    """
    out: dict = {}
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(e.msg, line=e.lineno, col=e.colno) from None
        if not isinstance(data, dict):
            raise ParseError("config must be an object")
        items = [(key, val, None, None) for key, val in data.items()]
    else:
        items = []
        for i, line in enumerate(text.splitlines(), 1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            if "=" not in body:
                raise ParseError("expected key=value", line=i, col=1)
            key, _, val = body.partition("=")
            if key.strip() not in _CONFIG_KEYS:
                raise ParseError(f"unknown key {key.strip()!r}", line=i, col=1)
            # column of the value's first character
            col = line.index("=") + 2 + len(val) - len(val.lstrip())
            items.append((key.strip(), val.strip(), i, col))
    for key, val, lineno, col in items:
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown key {key!r}")
        try:
            out["context" if key == "L" else key] = _config_value(key, val)
        except (TypeError, ValueError):
            raise ParseError(f"bad value {val!r} for key {key!r}", line=lineno, col=col) from None
    if "slope" in out and "nu" in out:
        raise ConflictError("config gives both slope and nu")
    return out


def _merge_config(args) -> dict:
    opts: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            opts = parse_config(fh.read())
    for key in _MERGE_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def _nu_from(opts) -> KneadingSequence:
    slope, nu = opts.get("slope"), opts.get("nu")
    if slope is not None and nu is not None:
        raise ConflictError("give a slope or a kneading sequence, not both")
    if slope is not None:
        return kneading_from_slope(slope)
    if nu is not None:
        return KneadingSequence(parse_right(nu))
    raise ParseError("need --slope or --nu")


def _scene_from(args):
    """Build (scene, merged options, stored-geometry violations) from the
    parsed arguments; the violations compare a --scene file's rows with
    the rebuilt scene and are empty without --scene."""
    opts = _merge_config(args)
    if getattr(args, "scene", None):
        with open(args.scene, encoding="utf-8") as fh:
            text = fh.read()
        scene = scene_from_json(text)
        return scene, opts, stored_geometry_check(json.loads(text), scene)
    nu = _nu_from(opts)
    kwargs = {"x_mode": opts.get("x_mode") or "rank"}
    if opts.get("slope") is not None:
        kwargs["slope"] = opts["slope"]
    if opts.get("tails"):
        kwargs["tails"] = opts["tails"]
    elif opts.get("depth") is not None:
        kwargs["depth"] = opts["depth"]
    else:
        raise ParseError("need --tails or --depth")
    return build_scene(nu, opts.get("context") or "(1).", **kwargs), opts, []


def _trim_stack(stack, opts):
    n = opts.get("glue_stages")
    if n is None:
        return stack
    if n < 0:
        raise ParseError(f"glue stages must be at least 0, got {n}")
    return [r for r in stack if r.level <= n]


def _report(bad) -> int:
    # one JSON line per violation, then the count; exit 1 on any
    for v in bad:
        print(json.dumps(v, sort_keys=True))
    print(f"{len(bad)} violation(s)")
    return 1 if bad else 0


def _write(path, text: str):
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _add_source_args(p: argparse.ArgumentParser, with_scene: bool = False):
    p.add_argument("--slope", type=float)
    p.add_argument("--nu")
    p.add_argument("--L", "--context", dest="context")
    p.add_argument("--tails", nargs="+")
    p.add_argument("--depth", type=int)
    p.add_argument("--x-mode", dest="x_mode", choices=["rank", "value"])
    p.add_argument("--config")
    if with_scene:
        p.add_argument("--scene", help="read a scene from this JSON file instead")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tentplane")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kneading", help="kneading sequence of a slope")
    p.add_argument("--slope", type=float)
    p.add_argument("--nu")
    p.add_argument("--config")

    p = sub.add_parser("cylinders", help="admissible windows of a depth")
    p.add_argument("--slope", type=float)
    p.add_argument("--nu")
    p.add_argument("--L", "--context", dest="context")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--config")

    p = sub.add_parser("scene", help="build a scene and write JSON")
    _add_source_args(p)
    p.add_argument("--out")

    p = sub.add_parser("render", help="build a scene and write SVG")
    _add_source_args(p, with_scene=True)
    p.add_argument("--out")
    p.add_argument("--portrait", action="store_true")

    p = sub.add_parser("verify", help="planarity, betweenness and stored-geometry checks")
    _add_source_args(p, with_scene=True)

    p = sub.add_parser("glue", help="build the glue stack and run certificates")
    _add_source_args(p, with_scene=True)
    p.add_argument("--glue", dest="glue_stages", type=int, help="use stages through this level only")

    p = sub.add_parser("probe", help="drop a vertical probe onto an arc")
    _add_source_args(p, with_scene=True)
    p.add_argument("--tail")
    p.add_argument("--x", type=float, help="probe abscissa (default: middle of the target arc)")
    p.add_argument("--glue", dest="glue_stages", type=int, help="use stages through this level only")
    p.add_argument("--no-strict", dest="strict", action="store_false")
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (
        ParseError,
        ConflictError,
        MalformedSequence,
        NotAdmissible,
        WrongContext,
        AmbiguousAtDepth,
        OSError,
        UnicodeDecodeError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TentplaneError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "kneading":
        nu = _nu_from(_merge_config(args))
        print(nu.seq)
        depth = "exact" if nu.exact else str(int(nu.validated_depth))
        print(f"validated: {depth}")
        return 0

    if cmd == "cylinders":
        opts = _merge_config(args)
        nu = _nu_from(opts)
        words = enumerate_cylinders(nu, opts["depth"])
        if opts.get("context"):
            # bottom-to-top in the height order the context induces
            ctx = parse_left(opts["context"])
            words = sorted(words, key=lambda w: block_midpoint(w, ctx).value)
        for w in words:
            print(w)
        return 0

    scene, opts, stored_bad = _scene_from(args)
    if cmd == "verify":
        return _report(verify_noncrossing(scene) + betweenness_check(scene) + stored_bad)
    if stored_bad:
        # a scene file that disagrees with its rebuild is not used
        return _report(stored_bad)

    if cmd == "scene":
        _write(opts.get("out") or "-", scene_to_json(scene) + "\n")
        return 0

    if cmd == "render":
        _write(opts.get("out") or "-", render_scene(scene, portrait=args.portrait))
        return 0

    if cmd == "glue":
        stack = _trim_stack(build_glue_stack(scene), opts)
        checks = {
            "support": support_certificate(stack, scene),
            "displacement": displacement_certificate(stack, scene),
            "cauchy": cauchy_certificate(stack, scene),
            "collapse": collapse_certificate(stack, scene),
            "ceiling": ceiling_certificate(stack, scene),
        }
        ok = True
        for name, rep in checks.items():
            print(f"{name}: {'ok' if rep['ok'] else 'FAIL'}")
            ok = ok and rep["ok"]
        return 0 if ok else 1

    if cmd == "probe":
        stack = _trim_stack(build_glue_stack(scene), opts)
        rep = accessibility_probe(
            scene, stack, tail=args.tail, x=opts.get("x"), strict=args.strict
        )
        print(f"target: {rep.target_label}")
        print(f"accessible: {rep.accessible}")
        if rep.witness is not None:
            print(f"witness: {json.dumps(rep.witness, sort_keys=True)}")
        return 0 if rep.accessible else 1

    raise ParseError(f"unknown command {cmd!r}")
