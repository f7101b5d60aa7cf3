"""The three benchmark workloads.

Each workload turns a seeded ``random.Random`` into a stream of inputs,
runs one op per input, and checks the op's output.  Every call into
tentplane that belongs to an op goes through ``call`` (the op clock) and
names the function through its module attribute, so a tracer that swaps
module attributes sees it.  Input generation and checks also call
tentplane, but outside the clock and never while a tracer is installed.

An op is one user-level command sequence on one scene:

- verify-deep: ``tentplane verify`` on a rank-x cylinder scene.
- glue-certify: ``tentplane glue`` then ``tentplane probe`` on a small
  cylinder scene.
- tails-slope: slope to kneading sequence, explicit-tail scene in value
  mode, float checkers, JSON out, ``tentplane verify --scene`` on the
  file, SVG of the reloaded scene.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter

from tentplane import arcs, cli, glue, kneading, scene, svg
from tentplane.kneading import KneadingSequence
from tentplane.scene import SceneJoin
from tentplane.sequences import LeftTail, RightSeq

# the exact kneading sequences of slopes 2, golden and sqrt(2)
EXACT_NU = ("1(0)", "(101)", "10(1)")
EXACT_SLOPES = (2.0, (1 + math.sqrt(5)) / 2, math.sqrt(2.0))


def random_kneading(rng: random.Random, length: int, ones: float = 0.5) -> KneadingSequence:
    """A window-validated truncated kneading word of the given length
    whose symbols after the first are 1 with probability ``ones``."""
    while True:
        word = "1" + "".join("1" if rng.random() < ones else "0" for _ in range(length - 1))
        seq = RightSeq(word, "0")
        if kneading.validate_kneading(seq, length) is None:
            return KneadingSequence(seq, validated_depth=float(length))


def random_tail(rng: random.Random, nu: KneadingSequence, prefilter: int = 0) -> LeftTail:
    """An admissible left tail, rejection sampled.

    With ``prefilter`` the tail is accepted on the depth-limited scan
    alone.  A violation found at a smaller depth is also one at the full
    depth, so this only risks accepting a tail whose window follows nu
    for ``prefilter`` symbols; build_scene would then reject it and the
    op would count as failed, not pass silently.
    """
    while True:
        period = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        head = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        tail = LeftTail(period, head)
        if prefilter and not nu.exact:
            ok = kneading.is_admissible_tail(tail, nu, depth=prefilter)
        else:
            ok = kneading.is_admissible_tail(tail, nu)
        if ok:
            return tail


def decided(nu: KneadingSequence, depth: int) -> bool:
    """Whether nu orders every pair of the orbit points a depth-``depth``
    cylinder scene can place: indices 1 .. depth + 1, cut at the
    validated depth.

    Beyond that the rank layout merges points nu cannot tell apart
    instead of raising AmbiguousAtDepth, and the checkers then report
    violations (for example nu = 10111101110101(0) validated to 14,
    context (0111)1., depth 13).  Such scenes are outside what a
    truncated nu can answer, so the workloads do not draw them.
    """
    top = depth + 1 if nu.exact else min(depth + 1, int(nu.validated_depth))
    return all(
        arcs.orbit_compare(i, j, nu).decided for i in range(1, top + 1) for j in range(i + 1, top + 1)
    )


def deepest_depth(nu: KneadingSequence, max_cylinders: int, lo: int, hi: int):
    """Deepest decided depth in [lo, hi] with at most max_cylinders
    cylinders, with its cylinder count; None when there is none."""
    best = None
    for d in range(lo, hi + 1):
        n = len(kneading.enumerate_cylinders(nu, d))
        if n > max_cylinders or not decided(nu, d):
            break
        best = (d, n)
    return best


def chart_stats(sc) -> dict:
    """Join charts of a scene: joins sharing a (side, x0) chart, the
    join pairs the all-pairs check compares, and the segments strictly
    inside join gaps that the segment check visits."""
    charts = Counter((j.side, j.x0) for j in sc.joins)
    ys = sorted(s.y.value for s in sc.segments)
    gaps = sum(bisect_left(ys, j.y_hi) - bisect_right(ys, j.y_lo) for j in sc.joins)
    return {
        "max_chart_joins": max(charts.values(), default=0),
        "join_pairs": sum(k * (k - 1) // 2 for k in charts.values()),
        "gap_visits": max(gaps, 0),
    }


def scene_digest(sc) -> list:
    """Exact scene content: labels, ternary heights, x extents and joins."""
    segs = [(s.label, s.y.ternary(), str(s.x_lo), str(s.x_hi)) for s in sc.segments]
    joins = [(j.level, j.side, j.low.label, j.high.label, str(j.x0)) for j in sc.joins]
    return [segs, joins]


def tamper(sc, rng: random.Random):
    """Swap the height of a segment strictly inside a level-m >= 2 join
    gap with that of a segment whose last m-1 symbols are not nu's head.

    The moved segment then sits inside the gap with foreign symbols, so
    betweenness_check must report it.  Returns the copy and the
    violation it must contain.
    """
    ys = [s.y.value for s in sc.segments]
    gaps = []
    for j in sc.joins:
        if j.level >= 2:
            lo, hi = bisect_right(ys, j.y_lo), bisect_left(ys, j.y_hi)
            if lo < hi:
                gaps.append((j, lo, hi))
    j, lo, hi = rng.choice(gaps)
    inside = sc.segments[rng.randrange(lo, hi)]
    head = sc.nu.expand(j.level - 1)
    foreign = rng.choice([s for s in sc.segments if s.last(j.level - 1) != head])
    swap = {inside.label: foreign.y, foreign.label: inside.y}
    segs = [dataclasses.replace(s, y=swap[s.label]) if s.label in swap else s for s in sc.segments]
    by = {s.label: s for s in segs}
    joins = []
    for old in sc.joins:
        a, b = by[old.low.label], by[old.high.label]
        if a.y.value > b.y.value:
            a, b = b, a
        joins.append(SceneJoin(old.level, old.side, a, b, old.x0))
    segs.sort(key=lambda s: s.y.value)
    bad = dataclasses.replace(sc, segments=segs, joins=joins)
    return bad, {"kind": "foreign-symbols", "segment": foreign.label, "level": j.level}


class VerifyDeep:
    """Rank-x cylinder scenes checked by verify_noncrossing and
    betweenness_check; every fourth op also checks a tampered copy."""

    # random words need a scene of MIN..MAX cylinders, about the size the
    # exact ones get (128, 144 and 127), so the op times form one cluster
    MIN_CYLINDERS = 112
    MAX_CYLINDERS = 160
    TAMPER_EVERY = 4
    # warm-up op for set-up timing; SRC is the source directory
    WARMUP = (
        "from tentplane import kneading, scene\n"
        "sc = scene.build_scene(kneading.kneading_from_text('(101)'), '(1).', depth=6)\n"
        "assert not scene.verify_noncrossing(sc) and not scene.betweenness_check(sc)\n"
    )

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.exact = []
        for text in EXACT_NU:
            nu = kneading.kneading_from_text(text)
            self.exact.append((nu, deepest_depth(nu, self.MAX_CYLINDERS, 4, 20)[0]))

    def _random_nu(self):
        while True:
            nu = random_kneading(self.rng, self.rng.randint(12, 16))
            found = deepest_depth(nu, self.MAX_CYLINDERS, 4, int(nu.validated_depth))
            if found and found[1] >= self.MIN_CYLINDERS:
                return nu, found[0]

    def make_input(self, i: int) -> dict:
        k = i % 5
        nu, depth = self.exact[k] if k < len(self.exact) else self._random_nu()
        return {
            "nu": nu,
            "context": random_tail(self.rng, nu),
            "depth": depth,
            "tamper": self.rng.random() if i % self.TAMPER_EVERY == self.TAMPER_EVERY - 1 else None,
        }

    def run(self, inp: dict, call) -> dict:
        sc = call(scene.build_scene, inp["nu"], inp["context"], depth=inp["depth"])
        out = {
            "scene": sc,
            "noncrossing": call(scene.verify_noncrossing, sc),
            "betweenness": call(scene.betweenness_check, sc),
        }
        if inp["tamper"] is not None:
            bad, expect = tamper(sc, random.Random(inp["tamper"]))
            out["expect"] = expect
            out["tampered"] = call(scene.betweenness_check, bad)
        return out

    def check(self, inp: dict, out: dict) -> list:
        problems = []
        if out["noncrossing"] or out["betweenness"]:
            problems.append("violations on a rank cylinder scene")
        if "expect" in out and out["expect"] not in out["tampered"]:
            problems.append(f"tampered copy not flagged: {out['expect']}")
        return problems

    def digest(self, inp: dict, out: dict) -> list:
        return [
            scene_digest(out["scene"]),
            out["noncrossing"],
            out["betweenness"],
            out.get("tampered"),
        ]

    def shape(self, inp: dict, out: dict) -> dict:
        return dict(
            chart_stats(out["scene"]),
            truncated=not inp["nu"].exact,
            cylinders=len(out["scene"].segments),
        )


CERTIFICATES = ("support", "displacement", "cauchy", "collapse", "ceiling")


class GlueCertify:
    """Small cylinder scenes through the glue stack, the five
    certificates and the accessibility probe on the context."""

    MAX_CYLINDERS = 32
    WARMUP = (
        "from tentplane import glue, kneading, scene\n"
        "sc = scene.build_scene(kneading.kneading_from_text('(101)'), '(101).', depth=5)\n"
        "st = glue.build_glue_stack(sc)\n"
        "for f in (glue.support_certificate, glue.displacement_certificate,\n"
        "          glue.cauchy_certificate, glue.collapse_certificate, glue.ceiling_certificate):\n"
        "    assert f(st, sc)['ok']\n"
        "assert glue.accessibility_probe(sc, st).accessible\n"
    )

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.exact = [kneading.kneading_from_text(t) for t in EXACT_NU]

    def make_input(self, i: int) -> dict:
        # one op in five uses an exact ν, at depth 5, 6 or 7 capped where
        # the scene grows past MAX_CYLINDERS (a Cauchy certificate then
        # takes seconds).  The others use a random word that reaches the
        # rotation's depth within the cap; words rich in 1s have low
        # entropy, so the deeper scenes stay small.  Many small clusters
        # of op cost keep the median from sitting on one of them.
        if i % 5 == 0:
            nu = self.exact[(i // 5) % len(self.exact)]
            depth = deepest_depth(nu, self.MAX_CYLINDERS, 5, 5 + (i // 15) % 3)[0]
        else:
            depth = 5 + i % 3
            while True:
                nu = random_kneading(self.rng, self.rng.randint(12, 16), self.rng.uniform(0.5, 0.9))
                found = deepest_depth(nu, self.MAX_CYLINDERS, 5, depth)
                if found and found[0] == depth:
                    break
        return {"nu": nu, "context": random_tail(self.rng, nu), "depth": depth}

    def run(self, inp: dict, call) -> dict:
        sc = call(scene.build_scene, inp["nu"], inp["context"], depth=inp["depth"])
        st = call(glue.build_glue_stack, sc)
        certs = {name: call(getattr(glue, f"{name}_certificate"), st, sc) for name in CERTIFICATES}
        probe = call(glue.accessibility_probe, sc, st)
        return {"scene": sc, "stack": st, "certs": certs, "probe": probe}

    def check(self, inp: dict, out: dict) -> list:
        problems = [f"{name} certificate failed" for name in CERTIFICATES if not out["certs"][name]["ok"]]
        if not out["probe"].accessible:
            problems.append(f"context not accessible: {out['probe'].witness}")
        return problems

    def digest(self, inp: dict, out: dict) -> list:
        probe = out["probe"]
        return [
            scene_digest(out["scene"]),
            [(r.level, [str(x) for x in r.radii]) for r in out["stack"]],
            [(n, out["certs"][n]["ok"], out["certs"][n].get("samples")) for n in CERTIFICATES],
            [probe.accessible, probe.target_label, (probe.witness or {}).get("kind")],
        ]

    def shape(self, inp: dict, out: dict) -> dict:
        stack = out["stack"]
        return dict(
            chart_stats(out["scene"]),
            truncated=not inp["nu"].exact,
            cylinders=len(out["scene"].segments),
            stages=len(stack),
            radii_per_chart=[len(r.radii) for r in stack],
        )


class TailsSlope:
    """Slope-defined kneading sequences with explicit random tails in
    value mode, saved to JSON and reloaded through the CLI."""

    # ν of a random slope is cut at this many symbols (the library
    # default is 4096, where one op takes seconds: too few ops per run
    # for a steady median and a tail)
    MAX_ITER = 512
    PREFILTER = 128
    WARMUP = (
        "import io, contextlib, os\n"
        "from tentplane import cli, kneading, scene, svg\n"
        f"nu = kneading.kneading_from_slope((1 + 5 ** 0.5) / 2, max_iter={MAX_ITER})\n"
        "sc = scene.build_scene(nu, '(101).', tails=['(011)010.', '(011)110.'], x_mode='value')\n"
        "assert not scene.verify_noncrossing(sc) and not scene.betweenness_check(sc)\n"
        "path = os.path.join(OUT, 'warmup-%d.json' % os.getpid())\n"
        "with open(path, 'w') as fh:\n"
        "    fh.write(scene.scene_to_json(sc))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--scene', path]) == 0\n"
        "os.remove(path)\n"
        "svg.render_scene(sc)\n"
    )

    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng
        self.workdir = workdir

    def make_input(self, i: int) -> dict:
        rng = self.rng
        if i % 5 == 4:
            slope = EXACT_SLOPES[(i // 5) % len(EXACT_SLOPES)]
        else:
            slope = rng.uniform(1.6, 2.0)
        # uncached, so the op's own call still computes ν
        nu = kneading.kneading_from_slope.__wrapped__(slope, max_iter=self.MAX_ITER)
        # 6..16 tails in a fixed rotation, so every run has the same mix
        want = 6 + (i * 4) % 11
        tails = {}
        while len(tails) < want:
            t = random_tail(rng, nu, self.PREFILTER)
            tails.setdefault(t, str(t))
        context = random_tail(rng, nu, self.PREFILTER)
        return {"slope": slope, "tails": list(tails.values()), "context": str(context)}

    def run(self, inp: dict, call) -> dict:
        nu = call(kneading.kneading_from_slope, inp["slope"], max_iter=self.MAX_ITER)
        sc = call(scene.build_scene, nu, inp["context"], tails=inp["tails"], x_mode="value")
        bad = call(scene.verify_noncrossing, sc) + call(scene.betweenness_check, sc)
        text = call(scene.scene_to_json, sc)
        path = f"{self.workdir}/scene.json"
        with open(path, "w") as fh:
            fh.write(text)
        # keep the scene the CLI rebuilds so it can be compared
        reloaded = []
        load = cli.scene_from_json

        def capture(text):
            reloaded.append(load(text))
            return reloaded[-1]

        cli.scene_from_json = capture
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                code = call(cli.main, ["verify", "--scene", path])
        finally:
            cli.scene_from_json = load
        image = call(svg.render_scene, reloaded[0]) if reloaded else ""
        return {
            "nu": nu,
            "scene": sc,
            "violations": bad,
            "code": code,
            "printed": printed.getvalue(),
            "reloaded": reloaded[0] if reloaded else None,
            "svg": image,
        }

    def check(self, inp: dict, out: dict) -> list:
        problems = []
        expect = 1 if out["violations"] else 0
        if out["code"] != expect:
            problems.append(f"cli exit {out['code']}, library verdict {expect}")
        lines = out["printed"].splitlines()
        if not lines or lines[-1] != f"{len(out['violations'])} violation(s)":
            problems.append(f"cli printed {lines[-1:]!r}")
        if out["reloaded"] is None:
            problems.append("cli did not reload the scene")
        elif scene_digest(out["reloaded"]) != scene_digest(out["scene"]):
            problems.append("reloaded scene differs")
        if not out["svg"].startswith("<svg"):
            problems.append("no svg")
        return problems

    def digest(self, inp: dict, out: dict) -> list:
        nu = out["nu"]
        return [
            str(nu),
            None if nu.exact else int(nu.validated_depth),
            scene_digest(out["scene"]),
            out["violations"],
            out["code"],
            out["svg"],
        ]

    def shape(self, inp: dict, out: dict) -> dict:
        return dict(
            chart_stats(out["scene"]),
            truncated=not out["nu"].exact,
            tails=len(out["scene"].segments),
        )


def digest_line(material) -> str:
    return json.dumps(material, sort_keys=True, default=str)
