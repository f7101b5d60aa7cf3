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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .errors import MalformedSequence, MalformedStarPeriod, NotAdmissible
from .sequences import (
    LeftTail,
    Order,
    RightSeq,
    compare_right,
    parse_right,
    plex_compare,
    plex_key,
)

C = Fraction(1, 2)

Number = Union[int, float, Fraction]


def tent(s: Number, x: Number) -> Number:
    """One step of the slope-s tent map."""
    return min(s * x, s * (1 - x))


def tent_itinerary(s: Number, x: Number, n: int, eps: float = 1e-12) -> str:
    """First n itinerary symbols of x under the slope-s tent map.

    A landing on the turning point normally emits ``*``.  When the
    turning point itself is periodic for this slope the star has a forced
    resolution (the completion picked by modify_star), so that symbol is
    emitted instead.  Iteration continues either way.
    """
    if not 0 <= x <= 1:
        raise MalformedSequence(f"point must lie in [0, 1], got {x!r}")
    nu = kneading_from_slope(s, eps=eps)
    # a purely periodic kneading sequence happens exactly when c is periodic
    star_sym = nu.seq.period[-1] if nu.exact and nu.seq.is_periodic else "*"
    out = []
    for _ in range(n):
        if abs(x - C) <= eps:
            out.append(star_sym)
        elif x < C:
            out.append("0")
        else:
            out.append("1")
        x = tent(s, x)
    return "".join(out)


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
            if d != int(d) or d < 1:
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
def kneading_from_slope(
    s: Number, *, max_iter: int = 4096, eps: float = 1e-12
) -> KneadingSequence:
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
    # earliest orbit index per eps-sized bucket, for O(1) revisit checks
    buckets = {round(float(xs[0]) / eps): 0}
    word = []
    while len(word) < max_iter:
        x = xs[-1]
        if abs(x - C) <= eps:
            # turning point periodic with period len(word) + 1
            star = "".join(word) + "*"
            nu = modify_star(RightSeq("", star))
            return KneadingSequence(nu, slope=float(s))
        word.append("0" if x < C else "1")
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


def _window_violation(word: str, lo: str, hi: str) -> bool:
    # violates the bounds iff provably above hi or provably below lo
    c = plex_compare(word, hi[: len(word)] if len(hi) > len(word) else hi)
    if c.decided and c.order is Order.GREATER:
        return True
    c = plex_compare(word, lo[: len(word)] if len(lo) > len(word) else lo)
    if c.decided and c.order is Order.LESS:
        return True
    return False


def _default_tail_depth(tail: LeftTail, nu: KneadingSequence) -> int:
    d = max(
        8,
        len(tail.transient) + len(tail.period),
        len(nu.seq.preperiod) + 2 * len(nu.seq.period),
    )
    if not nu.exact:
        d = min(d, int(nu.validated_depth))
    return d


def is_admissible_tail(tail: LeftTail, nu: KneadingSequence, depth: Optional[int] = None) -> bool:
    """Whether every factor of a left tail obeys the kneading bounds.

    Factors of length up to ``depth`` are scanned over one transient plus
    a full period plus slack, which covers every factor the infinite tail
    has at that length.  Undecided comparisons pass: only provable
    violations reject.
    """
    if depth is None:
        depth = _default_tail_depth(tail, nu)
    elif not nu.exact:
        depth = min(depth, int(nu.validated_depth))
    win = tail.window(len(tail.transient) + len(tail.period) + 2 * depth)
    hi, lo = nu.upper.expand(depth), nu.lower.expand(depth)
    for i in range(len(win)):
        if _window_violation(win[i : i + depth], lo, hi):
            return False
    return True


def _word_admissible(word: str, lo: str, hi: str) -> bool:
    for k in range(len(word)):
        if _window_violation(word[k:], lo, hi):
            return False
    return True


def enumerate_cylinders(nu: KneadingSequence, depth: int) -> list:
    """All admissible {0,1} words of the given length, in signed-lex order."""
    if depth < 1:
        raise MalformedSequence("depth must be positive")
    d = depth if nu.exact else min(depth, int(nu.validated_depth))
    hi, lo = nu.upper.expand(d), nu.lower.expand(d)
    out = []

    def grow(w: str):
        if not _word_admissible(w, lo, hi):
            return
        if len(w) == depth:
            out.append(w)
            return
        grow(w + "0")
        grow(w + "1")

    grow("")
    out.sort(key=plex_key)
    return out
