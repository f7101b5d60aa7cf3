"""Tent maps, itineraries, and admissibility.

The family is ``T_s(x) = min(s*x, s*(1-x))`` on [0, 1] with turning point
``c = 1/2`` and slope ``s`` in (1, 2].  The itinerary of ``x`` records
``0`` left of c, ``1`` right of c, ``*`` at c.  The kneading sequence is
the itinerary of ``T(c)``; when the turning point is periodic the bare
itinerary ends in a star block and is replaced by its resolved form (the
smaller of the two {0,1} completions in the signed-lex order).

A sequence is admissible for a kneading sequence ``nu`` when every shift
lies between ``shift(nu)`` and ``nu`` in the signed-lex order.  For left
tails the same bounds are applied to every finite factor.

``HeadScan`` reads a word one symbol at a time and keeps the lengths of
its suffixes that still equal a head of ``nu`` and of ``shift(nu)``; a
suffix is decided at its first differing symbol, which keeps it inside
the bounds or flags the word, and is dropped undecided once it has
matched the whole scanned head.  Admissibility, cylinder growth, landing
matches (``head_matches``) and one-slot joins all read that state.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Optional, Union

from .errors import MalformedSequence, MalformedStarPeriod, NotAdmissible
from .sequences import (
    RANK,
    SYMBOLS,
    LeftTail,
    Order,
    RightSeq,
    compare_right,
    parse_right,
    plex_compare,
    plex_key,
)

C = Fraction(1, 2)

# kneading_from_slope: orbit points this close are one point
_ORBIT_EPS = 1e-12

Number = Union[int, float, Fraction]


def tent(s: Number, x: Number) -> Number:
    """One step of the slope-s tent map."""
    return min(s * x, s * (1 - x))


def modify_star(seq: Union[str, RightSeq]) -> RightSeq:
    """Resolve a periodic itinerary whose period ends at the turning point.

    Input must be purely periodic with exactly one ``*``, in the last
    slot of the period.  The star is replaced by whichever of ``0``/``1``
    makes the periodic word smaller in the signed-lex order.
    """
    if isinstance(seq, str):
        seq = parse_right(seq)
    if seq.preperiod or seq.period.count("*") != 1 or not seq.period.endswith("*"):
        raise MalformedStarPeriod(f"cannot resolve {seq}")
    body = seq.period[:-1]
    cand0 = RightSeq("", body + "0")
    cand1 = RightSeq("", body + "1")
    if compare_right(cand0, cand1).order is Order.LESS:
        return cand0
    return cand1


def validate_kneading(seq: RightSeq, depth: Optional[int] = None):
    """Least shift k >= 1 that provably exceeds the sequence, or None.

    A kneading sequence must dominate all of its shifts.  With
    ``depth=None`` the check is exact over every distinct shift of the
    eventually periodic word; a finite depth restricts all comparisons to
    that many leading symbols, so only violations visible in the window
    are reported.
    """
    if depth is None:
        nshifts = len(seq.preperiod) + len(seq.period)
        for k in range(1, nshifts + 1):
            if compare_right(seq.shift(k), seq).order is Order.GREATER:
                return k
        return None
    word = seq.expand(depth)
    for k in range(1, depth):
        c = plex_compare(word[k:], word)
        if c.decided and c.order is Order.GREATER:
            return k
    return None


@dataclass(frozen=True)
class KneadingSequence:
    """A validated kneading sequence with its trust horizon.

    ``validated_depth`` is ``math.inf`` when the stored word is exact
    (turning point periodic, or orbit provably eventually periodic) and a
    finite count of trusted leading symbols when the word came from a
    truncated numeric orbit.  Beyond that horizon the stored period is an
    arbitrary continuation and must not be leaned on.
    """

    seq: RightSeq
    validated_depth: float = math.inf
    slope: Optional[float] = None

    def __post_init__(self):
        if isinstance(self.seq, str):
            object.__setattr__(self, "seq", parse_right(self.seq))
        if "*" in self.seq.preperiod or "*" in self.seq.period:
            raise MalformedSequence("kneading sequence must be star-free; use modify_star")
        d = self.validated_depth
        if d != math.inf:
            if d != int(d) or not 1 <= d <= sys.maxsize:
                raise MalformedSequence(f"bad validated depth {d!r}")
        if self.seq.at(0) != "1":
            raise NotAdmissible(f"kneading sequence must start with 1: {self.seq}")
        k = validate_kneading(self.seq, None if self.exact else int(d))
        if k is not None:
            raise NotAdmissible(f"shift {k} of {self.seq} exceeds it")

    @property
    def exact(self) -> bool:
        return self.validated_depth == math.inf

    @property
    def upper(self) -> RightSeq:
        return self.seq

    @property
    def lower(self) -> RightSeq:
        """The shift of the kneading sequence, the itinerary floor."""
        return self.seq.shift(1)

    def expand(self, n: int) -> str:
        return self.seq.expand(n)

    def __str__(self):
        return str(self.seq)


def kneading_from_text(text: str) -> KneadingSequence:
    """Parse an exact kneading sequence like ``"(101)"`` or ``"1(0)"``."""
    return KneadingSequence(parse_right(text))


@lru_cache(maxsize=256)
def kneading_from_slope(s: Number, *, max_iter: int = 4096) -> KneadingSequence:
    """Kneading sequence of the slope-s tent map.

    Detects, in order: a return of the orbit to the turning point
    (periodic turning point, resolved via modify_star), a revisit of an
    earlier orbit point (eventually periodic word, exact), or neither
    within ``max_iter`` steps, in which case the word is truncated and
    ``validated_depth`` records how much of it is real.  Results are
    immutable, so they are memoized per slope.
    """
    if not 1 < s <= 2:
        raise MalformedSequence(f"slope must be in (1, 2], got {s!r}")
    xs = [tent(s, C)]
    eps = _ORBIT_EPS
    # earliest orbit index per eps-sized bucket, for O(1) revisit checks
    buckets = {round(float(xs[0]) / eps): 0}
    word = []
    while len(word) < max_iter:
        x = xs[-1]
        # doubled, the tests against c = 1/2 stay exact and Fraction-free
        twice = 2 * x
        if abs(twice - 1) <= 2 * eps:
            # turning point periodic with period len(word) + 1
            star = "".join(word) + "*"
            nu = modify_star(RightSeq("", star))
            return KneadingSequence(nu, slope=float(s))
        word.append("0" if twice < 1 else "1")
        nxt = tent(s, x)
        b = round(float(nxt) / eps)
        for bb in (b - 1, b, b + 1):
            i = buckets.get(bb)
            if i is not None and abs(nxt - xs[i]) <= eps:
                # orbit revisits x_{i+1}: preperiod c_1..c_i, then a cycle
                w = "".join(word)
                try:
                    return KneadingSequence(RightSeq(w[:i], w[i:]), slope=float(s))
                except NotAdmissible:
                    break  # numeric revisit was spurious; keep iterating
        xs.append(nxt)
        buckets.setdefault(b, len(xs) - 1)
    w = "".join(word)
    return KneadingSequence(RightSeq(w[:-1], w[-1]), validated_depth=float(len(w)), slope=float(s))


@lru_cache(maxsize=256)
def _scan_masks(nu: KneadingSequence, depth: int) -> dict:
    # per symbol, bit sets over head slots j < depth: where the symbol
    # continues the head of nu, where it leaves nu from above, and the
    # same two for the head of shift(nu) and leaving it from below
    out = {s: [0, 0, 0, 0] for s in SYMBOLS}
    for base, head, worse in ((0, nu.upper.expand(depth), 1), (2, nu.lower.expand(depth), -1)):
        odd = False
        for j, ch in enumerate(head):
            for s in SYMBOLS:
                if s == ch:
                    out[s][base] |= 1 << j
                elif ((RANK[s] - RANK[ch]) * worse > 0) != odd:
                    out[s][base + 1] |= 1 << j
            if ch == "1":
                odd = not odd
    return {s: tuple(m) for s, m in out.items()}


class HeadScan:
    """Suffix scan against the first ``depth`` symbols of nu and shift(nu),
    ``depth`` capped at a truncated nu's validated depth.

    A state ``(up, down, bad)`` holds the lengths of the live nonempty
    suffixes on each head as bit sets (bit k for length k) and whether
    one left the bounds.
    """

    start = (0, 0, False)

    def __init__(self, nu: KneadingSequence, depth: int):
        if not nu.exact:
            depth = min(depth, int(nu.validated_depth))
        self.depth = depth
        self._masks = _scan_masks(nu, depth)

    def push(self, state, sym: str):
        """The state after one more symbol."""
        up, down, bad = state
        up_on, up_off, down_on, down_off = self._masks[sym]
        up, down = up | 1, down | 1  # the empty suffix starts at this symbol
        return (up & up_on) << 1, (down & down_on) << 1, bad or bool(up & up_off or down & down_off)


def head_matches(word: str, nu: KneadingSequence) -> list:
    """Lengths k, ascending, for which the last k symbols of ``word`` equal
    the first k of nu; 0 always matches, and no k exceeds a truncated nu's
    validated depth."""
    scan = HeadScan(nu, len(word))
    up = reduce(scan.push, word, scan.start)[0] | 1
    return [k for k in range(scan.depth + 1) if up >> k & 1]


def is_admissible_tail(tail: LeftTail, nu: KneadingSequence, depth: Optional[int] = None) -> bool:
    """Whether every factor of a left tail obeys the kneading bounds.

    Factors of length up to ``depth`` are scanned over one transient plus
    a full period plus slack, which covers every factor the infinite tail
    has at that length.  Undecided comparisons pass: only provable
    violations reject.
    """
    if depth is None:
        depth = max(
            8,
            len(tail.transient) + len(tail.period),
            len(nu.seq.preperiod) + 2 * len(nu.seq.period),
        )
    scan = HeadScan(nu, depth)
    win = tail.window(len(tail.transient) + len(tail.period) + 2 * scan.depth)
    return not reduce(scan.push, win, scan.start)[2]


def enumerate_cylinders(nu: KneadingSequence, depth: int) -> list:
    """All admissible {0,1} words of the given length, in signed-lex order."""
    if not 1 <= depth <= sys.maxsize:
        raise MalformedSequence(f"depth must lie in 1..{sys.maxsize}, got {depth}")
    scan = HeadScan(nu, depth)
    # grown level by level, so the depth is not bounded by the call stack
    level = [("", scan.start)]
    for _ in range(depth):
        level = [
            (w + s, state)
            for w, prev in level
            for s in "01"
            for state in (scan.push(prev, s),)
            if not state[2]
        ]
    return sorted((w for w, _ in level), key=plex_key)
