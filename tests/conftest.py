"""Shared fixtures: canonical slopes, a reference arc family, seeded
generators for kneading words and admissible tails, and the scenes on
which the readers of a scene's grid are pinned to their references."""
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import replace

import pytest

from tentplane import (
    KneadingSequence,
    LeftTail,
    RightSeq,
    SceneJoin,
    build_scene,
    is_admissible_tail,
    kneading_from_slope,
    validate_kneading,
)

GOLDEN = (1 + math.sqrt(5)) / 2

# twelve eventually periodic tails over the 101 pattern, labeled N1..N12
# in this order
FIGURE_HEADS = [
    "101101111",
    "101100111",
    "101101011",
    "101101001",
    "101100101",
    "101101101",
    "101101100",
    "101100100",
    "101101010",
    "100100110",
    "101100110",
    "101101110",
]


def figure_nu() -> KneadingSequence:
    # nine trusted symbols, arbitrary continuation beyond them
    return KneadingSequence(RightSeq("10011001", "0"), validated_depth=9.0)


def figure_tails():
    return [LeftTail("101", h) for h in FIGURE_HEADS]


def figure_labels():
    return {str(LeftTail("101", h)): f"N{i}" for i, h in enumerate(FIGURE_HEADS, 1)}


@pytest.fixture(scope="session")
def nu_full():
    return kneading_from_slope(2.0)


@pytest.fixture(scope="session")
def nu_golden():
    return kneading_from_slope(GOLDEN)


@pytest.fixture(scope="session")
def nu_sqrt2():
    return kneading_from_slope(math.sqrt(2.0))


def random_kneading(rng: random.Random, length: int = 10) -> KneadingSequence:
    """A window-validated truncated kneading sequence of the given length."""
    while True:
        word = "1" + "".join(rng.choice("01") for _ in range(length - 1))
        seq = RightSeq(word, "0")
        if validate_kneading(seq, length) is None:
            return KneadingSequence(seq, validated_depth=float(length))


def random_tail(rng: random.Random, nu: KneadingSequence, max_period: int = 4,
                max_head: int = 6, tries: int = 2000) -> LeftTail:
    """Some admissible left tail for nu, rejection sampled."""
    for _ in range(tries):
        p = "".join(rng.choice("01") for _ in range(rng.randint(1, max_period)))
        h = "".join(rng.choice("01") for _ in range(rng.randint(0, max_head)))
        tail = LeftTail(p, h)
        if is_admissible_tail(tail, nu):
            return tail
    raise AssertionError(f"no admissible tail found for {nu}")


SLOPES = {"slope2": 2.0, "golden": GOLDEN, "sqrt2": math.sqrt(2.0)}

GRID_CASES = (
    ["figure", "tampered-golden", "tampered-slope2", "reordered"]
    + [f"tails-value-{name}" for name in SLOPES]
    + [f"cylinders-{name}-{depth}-{mode}" for name in SLOPES for depth in range(2, 9) for mode in ("rank", "value")]
)


def tampered(sc):
    """A copy made as the benchmark makes one, first choice each time:
    the height of a segment inside a level >= 2 join gap swapped with
    that of a segment whose last m - 1 symbols are not nu's head, each
    join's ends re-oriented by height and the segments re-sorted."""
    ys = [s.y.value for s in sc.segments]
    j = next(j for j in sc.joins if j.level >= 2 and bisect_right(ys, j.y_lo) < bisect_left(ys, j.y_hi))
    inside = sc.segments[bisect_right(ys, j.y_lo)]
    head = sc.nu.expand(j.level - 1)
    foreign = next(s for s in sc.segments if s.last(j.level - 1) != head)
    swap = {inside.label: foreign.y, foreign.label: inside.y}
    segs = [replace(s, y=swap[s.label]) if s.label in swap else s for s in sc.segments]
    by = {s.label: s for s in segs}
    joins = []
    for old in sc.joins:
        a, b = by[old.low.label], by[old.high.label]
        if a.y.value > b.y.value:
            a, b = b, a
        joins.append(SceneJoin(old.level, old.side, a, b, old.x0))
    segs.sort(key=lambda s: s.y.value)
    return replace(sc, segments=segs, joins=joins)


def grid_case(case: str):
    """The scene named by a GRID_CASES id."""
    kind, _, rest = case.partition("-")
    if kind == "figure":
        return build_scene(figure_nu(), "(1).", tails=figure_tails() + [LeftTail("1", "")])
    if kind == "reordered":
        # out of height order, joins reversed
        sc = build_scene(kneading_from_slope(GOLDEN), "(101).", depth=6)
        return replace(sc, segments=sc.segments[::-1], joins=sc.joins[::-1])
    if kind == "tampered":
        nu = kneading_from_slope(SLOPES[rest])
        return tampered(build_scene(nu, random_tail(random.Random(rest), nu), depth=6))
    if kind == "tails":
        nu = kneading_from_slope(SLOPES[rest.split("-")[1]])
        rng = random.Random(case)
        tails = list(dict.fromkeys(random_tail(rng, nu) for _ in range(12)))
        context = random_tail(rng, nu)
        return build_scene(nu, context, tails=tails + [context], x_mode="value")
    name, depth, mode = rest.split("-")
    nu = kneading_from_slope(SLOPES[name])
    return build_scene(nu, random_tail(random.Random(case), nu), depth=int(depth), x_mode=mode)
