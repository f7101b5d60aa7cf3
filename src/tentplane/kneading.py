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
matches and one-slot joins all read that state.  The lengths still live
on nu's head after a word are its ``head_matches``; the scan that admits
the word (``scan_cylinders``, ``tail_scan``) hands them over, so no word
is scanned twice.

Window.  A left tail with transient length T and period length P has
every factor of length at most D inside its last T + P + D symbols: a
factor that touches the transient starts within T + D - 1 symbols of the
dot, and a purely periodic one has the phase of a factor starting in the
leftmost P positions of that window.  Scanning to depth D over those
symbols therefore decides every factor the infinite tail has.  Nu's own
questions are bounded alike, T and P its preperiod and period: a shift
of nu agreeing with nu on T + P symbols agrees forever, so shifts
k <= T + P are decided within 2 * (T + P) symbols (later ones repeat one
P earlier), and the itineraries of T^i(c) and T^j(c) repeat in lockstep
T + P symbols past the later start.  An exact nu is one validated to
depth ``math.inf``; each question reads min(validated depth, its window).

One pass.  Bit j + 1 of the state after a symbol depends only on bit j
before it, so lower bits evolve the same at any scan depth.
``tail_scan`` grows suffixes to the larger of the admissibility depth
and the landing-match length, flags only suffixes shorter than the
admissibility depth, and reads the landing matches from the final bits,
cut at the match length: one pass gives both answers.  That pass reads
the tail's window as a partial period, whole periods and the transient.
The state after a symbol depends only on the state and the symbol
before it (bits past the scan depth drop), and every whole block is the
same period; so once one period leaves the whole state ``(up, down,
bad)`` unchanged, every later period does, and the scan goes straight to
the transient.  When nu's head follows the period for the whole depth
the state can change up to the last period; the pass never reads more
than the full window.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Union

from .errors import MalformedSequence, MalformedStarPeriod, NotAdmissible
from .sequences import (
    RANK,
    SYMBOLS,
    LeftTail,
    RightSeq,
    parity,
    parse_right,
)

C = Fraction(1, 2)

# kneading_from_slope: orbit points this close are one point
_ORBIT_EPS = 1e-12

# scan_cylinders: the most words one length may hold (2^17, slope 2 at
# depth 17; golden depth 24 holds 121,393).  On a shared 2-vCPU Xeon host,
# listing slope 2 at depth 17 took 0.4 s at 69 MB max RSS, and the whole
# cylinder scene 2.9 s at 171 MB.
_MAX_CYLINDERS = 2**17

Number = Union[int, float, Fraction]


def tent(s: Number, x: Number) -> Number:
    """One step of the slope-s tent map."""
    return min(s * x, s * (1 - x))


def modify_star(seq: Union[str, RightSeq]) -> RightSeq:
    """Resolve a periodic itinerary whose period ends at the turning point.

    Input must be purely periodic with exactly one ``*``, in the last
    slot of the period.  The star is replaced by whichever of ``0``/``1``
    makes the periodic word smaller in the signed-lex order: the two
    completions first differ after the body, so ``0`` when the body holds
    an even number of 1s and ``1`` when odd.
    """
    if isinstance(seq, str):
        seq = parse_right(seq)
    if seq.preperiod or seq.period.count("*") != 1 or not seq.period.endswith("*"):
        raise MalformedStarPeriod(f"cannot resolve {seq}")
    body = seq.period[:-1]
    return RightSeq("", body + "01"[parity(body)])


def validate_kneading(seq: RightSeq, depth: Optional[int] = None):
    """Least shift k >= 1 that provably exceeds the sequence, or None.

    A kneading sequence must dominate all of its shifts.  With
    ``depth=None`` the check is exact; a finite depth reports only the
    violations visible in that many leading symbols.  The word is read
    once, over at most 2 * (T + P) symbols (see the module docstring), as
    a suffix scan against its own head with the upper bound only: a
    suffix flagged at slot j of step t is the shift k = t - j.
    """
    n = 2 * (len(seq.preperiod) + len(seq.period))
    word = seq.expand(n if depth is None else min(depth, n))
    masks = _head_masks(word, 1)
    live, least = 0, None
    for t, sym in enumerate(word):
        on, off = masks[sym]
        live |= 1
        hit = live & off
        if hit:
            # the highest flagged slot is the least shift at this step
            k = t + 1 - hit.bit_length()
            if least is None or k < least:
                least = k
        live = (live & on) << 1
    return least


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

    @cached_property
    def _parities(self) -> int:
        # bit k: parity of the 1s among the first k symbols, for k up to
        # the preperiod plus one period (an int, as a slope's nu is kept
        # per slope and may be thousands of symbols long)
        word = self.seq.preperiod + self.seq.period
        bits, shift = int(word[::-1], 2), 1  # bit j is symbol j
        while shift < len(word):
            bits ^= bits << shift  # each bit xors in the bits below it
            shift *= 2
        return (bits << 1) & ((2 << len(word)) - 1)

    def head_parity(self, k: int) -> int:
        """Parity of the 1s among the first ``k`` symbols of the stored
        word, ``parity(self.expand(k))``, from one table per sequence."""
        bits, t, p = self._parities, len(self.seq.preperiod), len(self.seq.period)
        if k <= t:
            return bits >> k & 1
        laps, rest = divmod(k - t, p)
        cycle = (bits >> (t + p) ^ bits >> t) & 1  # the parity of one period
        return (bits >> (t + rest) & 1) ^ (laps & cycle)

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


# per symbol, the translation of a head into its slots that hold the
# symbol, that rank below it and that rank above it, as binary digits
_SAME, _UNDER, _OVER = (
    {s: str.maketrans({c: "1" if rel(RANK[s], RANK[c]) else "0" for c in SYMBOLS}) for s in SYMBOLS}
    for rel in (int.__eq__, int.__gt__, int.__lt__)
)


def _slots(rev: str, table: dict) -> int:
    # bit j is 1 where the j-th symbol of the reversed head ``rev`` does
    return int("0" + rev.translate(table), 2)


def _head_masks(head: str, worse: int) -> dict:
    """Per symbol, the bit sets ``(on, off)`` over the slots j of ``head``:
    where the symbol continues the head, and where it leaves the head on
    the ``worse`` side (1 above, -1 below) in the signed-lex order."""
    rev = head[::-1]  # slot j is bit j
    # bit j of odd: head[:j] holds an odd number of 1s (a prefix xor of
    # the 1s moved up one slot; bits past the head are never read)
    odd, step = _slots(rev, _SAME["1"]) << 1, 1
    while step < len(head):
        odd ^= odd << step
        step *= 2
    out = {}
    for s in SYMBOLS:
        above, below = _slots(rev, _UNDER[s]), _slots(rev, _OVER[s])
        if worse < 0:
            above, below = below, above
        # past an odd prefix the order flips
        out[s] = (_slots(rev, _SAME[s]), (above & ~odd) | (below & odd))
    return out


@lru_cache(maxsize=256)
def _scan_masks(nu: KneadingSequence, depth: int, flag: int) -> dict:
    # per symbol, bit sets over head slots j < depth: where the symbol
    # continues the head of nu, where it leaves nu from above, and the
    # same two for the head of shift(nu) and leaving it from below; only
    # slots j < flag leave
    cut = (1 << flag) - 1
    up = _head_masks(nu.upper.expand(depth), 1)
    down = _head_masks(nu.lower.expand(depth), -1)
    return {s: (up[s][0], up[s][1] & cut, down[s][0], down[s][1] & cut) for s in SYMBOLS}


class HeadScan:
    """Suffix scan against the first ``depth`` symbols of nu and shift(nu),
    ``depth`` capped at a truncated nu's validated depth.  Only suffixes
    shorter than ``flag_depth`` (default: the whole depth) can flag.

    A state ``(up, down, bad)`` holds the lengths of the live nonempty
    suffixes on each head as bit sets (bit k for length k) and whether
    one left the bounds.
    """

    start = (0, 0, False)

    def __init__(self, nu: KneadingSequence, depth: int, flag_depth: Optional[int] = None):
        self.depth = depth = int(min(depth, nu.validated_depth))
        flag = depth if flag_depth is None else min(flag_depth, depth)
        self._masks = _scan_masks(nu, depth, flag)

    def read(self, word: str, state) -> tuple:
        """The state after the symbols of ``word``, left to right."""
        up, down, bad = state
        masks = self._masks
        for sym in word:
            up_on, up_off, down_on, down_off = masks[sym]
            up |= 1  # the empty suffix starts at this symbol
            down |= 1
            if up & up_off or down & down_off:
                bad = True
            up = (up & up_on) << 1
            down = (down & down_on) << 1
        return up, down, bad


def _bits(x: int) -> list:
    """Positions of the set bits of ``x``, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def head_matches(word: str, nu: KneadingSequence) -> list:
    """Lengths k, ascending, for which the last k symbols of ``word`` equal
    the first k of nu; 0 always matches, and no k exceeds a truncated nu's
    validated depth."""
    scan = HeadScan(nu, len(word))
    return _bits(scan.read(word, scan.start)[0] | 1)


def tail_scan(tail: LeftTail, nu: KneadingSequence, match_len: int, depth: Optional[int] = None) -> tuple:
    """``is_admissible_tail(tail, nu, depth)`` and
    ``head_matches(tail.window(match_len), nu)`` from one pass.

    Suffixes grow to the larger of the two depths over the longer of the
    two windows; only those shorter than the admissibility depth flag,
    and the matches are the final bits up to the match length.  The
    periods of the window stop at the first one that leaves the state
    unchanged (see the module docstring).
    """
    if depth is None:
        depth = max(
            8,
            len(tail.transient) + len(tail.period),
            len(nu.seq.preperiod) + 2 * len(nu.seq.period),
        )
    scan = HeadScan(nu, max(depth, match_len), depth)
    adm, reach = min(depth, scan.depth), min(match_len, scan.depth)
    per, tr = tail.period, tail.transient
    # the window is a partial period, whole periods, then the transient
    reps, part = divmod(max(len(tr) + len(per) + adm, match_len) - len(tr), len(per))
    state = scan.read(per[len(per) - part :], scan.start)
    for _ in range(reps):
        prev, state = state, scan.read(per, state)
        if state == prev:
            break  # every later period repeats it
    up, _, bad = scan.read(tr, state)
    return not bad, _bits((up | 1) & ((2 << reach) - 1))


def is_admissible_tail(tail: LeftTail, nu: KneadingSequence, depth: Optional[int] = None) -> bool:
    """Whether every factor of a left tail obeys the kneading bounds.

    Factors of length up to ``depth`` (capped at a truncated nu's
    validated depth) are scanned over the tail's last T + P + depth
    symbols, T and P its transient and period lengths: that window holds
    every factor the infinite tail has at those lengths (see the module
    docstring).  Undecided comparisons pass: only provable violations
    reject.  A ``*`` ranks between 0 and 1 here, so a tail holding one
    may pass, but such a tail is never an arc: ``arcs.scan_tails`` and
    ``build_scene`` refuse it.
    """
    return tail_scan(tail, nu, 0, depth)[0]


def scan_cylinders(nu: KneadingSequence, depth: int) -> list:
    """All admissible {0,1} words of the given length, in signed-lex order,
    each paired with its ``head_matches``, read off the word's final scan
    state (the scan depth is the word length, as there).  Raises as soon
    as one length holds more than ``_MAX_CYLINDERS`` words."""
    if not 1 <= depth <= sys.maxsize:
        raise MalformedSequence(f"depth must lie in 1..{sys.maxsize}, got {depth}")
    scan = HeadScan(nu, depth)
    # grown level by level, so the depth is not bounded by the call stack,
    # and in order: words of one length first differ after a shared
    # prefix, whose parity of 1s puts 0 first when even and 1 first when
    # odd, so each word lists its children in that order after its parent's
    level = [("", scan.start, 0)]
    for n in range(1, depth + 1):
        level = [
            (w + s, state, odd ^ (s == "1"))
            for w, prev, odd in level
            for s in ("10" if odd else "01")
            for state in (scan.read(s, prev),)
            if not state[2]
        ]
        if len(level) > _MAX_CYLINDERS:
            raise MalformedSequence(
                f"depth {depth} is refused: length {n} has {len(level)} cylinders, more than {_MAX_CYLINDERS}"
            )
    return [(w, _bits(up | 1)) for w, (up, _, _), _ in level]


def enumerate_cylinders(nu: KneadingSequence, depth: int) -> list:
    """All admissible {0,1} words of the given length, in signed-lex order."""
    return [w for w, _ in scan_cylinders(nu, depth)]
