"""Arcs over the interval: landing indices and horizontal extent.

A left tail describes the history of a point; comparing the symbols next
to the dot with the head of the kneading sequence tells at which forward
images of the turning point the associated arc lands.  A slot count n
"matches" when the last n-1 symbols of the tail equal the first n-1 of
nu, that is when n-1 is in ``kneading.head_matches`` of a window.
Matches whose shared word holds an odd number of 1s feed the left
landing index, even ones the right landing index; n=1 always matches and
is even, so the right index exists for every tail.

The horizontal extent of an arc is the interval between the x-positions
of T^lo(c) and T^hi(c), where hi minimizes x over even matches and lo
maximizes x over odd matches (falling back to index 2, the left end of
the core interval).  Match sets of eventually periodic data are either
finite within a computable bound or contain full arithmetic
progressions, which is detected exactly.

Joined pairs: two tails that differ in exactly one slot -m and whose
shared last m-1 symbols equal the head of nu bound a gap at level m; the
bulge side is right when that shared word has an even ones-count.  They
are found by flip and lookup: for each item, every k in the head matches
of a window reaching the partner's slot names a candidate level k+1, and
flipping slot -(k+1) from 0 to 1 gives the only possible partner, kept
when it is in the pool.  Tails and cylinder words share that finder; each
caller passes every item with its window and that window's matches, as
the scan that admitted the item found them, and its own flip.  For tails
that is ``scan_tails``, the one pass that knows the tails' scan windows.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import lcm

from .errors import AmbiguousAtDepth, MalformedSequence
from .kneading import C, KneadingSequence, tail_scan, tent
from .sequences import Comparison, LeftTail, parity, plex_compare

TAU_INF = math.inf


def _joint(tail: LeftTail, nu: KneadingSequence) -> tuple:
    # t0 and the joint period: past t0 symbols both words repeat every step
    return len(tail.transient) + len(nu.seq.preperiod), lcm(len(tail.period), len(nu.seq.period))


def match_window(tail: LeftTail, nu: KneadingSequence) -> int:
    """Length of the window whose head matches decide the landing indices:
    one less than the detection bound ``t0 + 2 * step + 2``, and at most
    a truncated nu's validated depth."""
    t0, step = _joint(tail, nu)
    return int(min(t0 + 2 * step + 2, nu.validated_depth + 1)) - 1


# one tail's pass: admissible as an arc, the head matches of its
# match_window, and its join window with that window's head matches
TailScan = namedtuple("TailScan", "admissible landing window joins")


def scan_tails(tails, nu: KneadingSequence) -> dict:
    """A ``TailScan`` per distinct tail, first seen first, from one
    ``tail_scan`` to the longer of its match window and the reach: the
    longest transient, as a partner at slot -m past a tail's transient
    has a transient of m.  A tail holding ``*`` is not admissible."""
    reach = max((len(t.transient) for t in tails), default=0)
    out = {}
    for t in dict.fromkeys(tails):
        n = match_window(t, nu)
        ok, ks = tail_scan(t, nu, max(n, reach))
        out[t] = TailScan(ok and "*" not in str(t), [k for k in ks if k <= n],
                          t.window(reach), [k for k in ks if k <= reach])
    return out


def _landing(tail: LeftTail, nu: KneadingSequence, ks: list):
    """Landing indices ``(tau_l, tau_r)`` from the tail's landing matches
    ``ks`` (as ``scan_tails`` found them), followed by the even-class
    matches and the odd-class matches above 1.

    tau_r is the largest even match, tau_l the largest odd one (None when
    there is none); either is TAU_INF when its class matches forever.
    """
    t0, step = _joint(tail, nu)
    ms = [k + 1 for k in ks]
    pclass = {n: nu.head_parity(n - 1) for n in ms}
    inf: set = set()
    if nu.exact:
        mset = set(ms)
        blk = nu.seq.expand(len(nu.seq.preperiod) + step)[len(nu.seq.preperiod) :]
        delta = parity(blk)
        for n in ms:
            # two deep matches a full joint period apart pin the tail to
            # the head pattern and the progression continues forever
            if n > t0 and n + step in mset:
                if delta:
                    inf |= {0, 1}
                else:
                    inf.add(pclass[n])
    ev = [n for n in ms if pclass[n] == 0]
    od = [n for n in ms if pclass[n] == 1 and n > 1]
    tr = TAU_INF if 0 in inf else max(ev)
    tl = TAU_INF if 1 in inf else (max(od) if od else None)
    return tl, tr, ev, od


def _orbit_word(indices, nu: KneadingSequence) -> str:
    """The head of nu that orders the orbit points T^i(c), i in ``indices``:
    their itineraries repeat in lockstep T + P symbols past the latest
    start, and no symbol past the validated depth is read."""
    if min(indices) < 1:
        raise IndexError("orbit indices start at 1")
    top, d = max(indices), nu.validated_depth
    if top - 1 >= d:
        raise AmbiguousAtDepth(f"orbit index beyond validated depth {int(d)}", depth=int(d))
    return nu.expand(int(min(d, top - 1 + len(nu.seq.preperiod) + len(nu.seq.period))))


def orbit_compare(i: int, j: int, nu: KneadingSequence) -> Comparison:
    """x-order of T^i(c) versus T^j(c), read off the head of nu that decides it."""
    word = _orbit_word((i, j), nu)
    c = plex_compare(word[i - 1 :], word[j - 1 :])
    return Comparison(c.order, c.decided or nu.exact)


def orbit_ranks(indices, nu: KneadingSequence) -> dict:
    """Rank of each orbit point T^i(c) in x-order, equal points sharing
    one, from one sort of the suffixes of one ``_orbit_word``.  A pair
    the word leaves undecided (one suffix a prefix of the other) sorts
    shorter first, so some such pair is adjacent; a truncated nu cannot
    order it and raises AmbiguousAtDepth, an exact nu's are equal points."""
    idx = set(indices)
    if not idx:
        return {}
    word = _orbit_word(idx, nu)

    def cmp(i, j):
        c = plex_compare(word[i - 1 :], word[j - 1 :])
        return c.order if c.decided else j - i

    ranks, prev = {}, None
    for i in sorted(idx, key=cmp_to_key(cmp)):
        tie = prev is not None and word.startswith(word[prev - 1 :], i - 1)
        if tie and not nu.exact:
            d = int(nu.validated_depth)
            raise AmbiguousAtDepth(f"orbit points T^{min(prev, i)}(c) and T^{max(prev, i)}(c) "
                                   f"agree over validated depth {d}", depth=d)
        ranks[i] = ranks.get(prev, -1) + (not tie)
        prev = i
    return ranks


@dataclass(frozen=True)
class Projection:
    """Horizontal extent of an arc, as orbit indices of the endpoints."""

    lo_index: int
    hi_index: int
    tau_l: object  # int, TAU_INF, or None
    tau_r: object  # int or TAU_INF


def arc_projection(tail: LeftTail, nu: KneadingSequence) -> Projection:
    return landing_projection(tail, nu, scan_tails([tail], nu)[tail].landing)


def landing_projection(tail: LeftTail, nu: KneadingSequence, ks: list) -> Projection:
    """``arc_projection`` from the tail's matches ``ks`` (as in ``_landing``)."""
    tl, tr, ev, od = _landing(tail, nu, ks)
    rank = orbit_ranks(ev + od, nu).__getitem__
    return Projection(max(od, key=rank) if od else 2, min(ev, key=rank), tl, tr)


def window_projection(ks: list, nu: KneadingSequence) -> Projection:
    """Projection of a window from its ``head_matches`` ``ks``: the landing
    indices are the highest certified levels whose cut point can be placed
    (a truncated nu cannot order the index validated_depth + 1)."""
    tl, tr = None, 1
    for k in ks:
        if 0 < k < nu.validated_depth:
            if nu.head_parity(k) == 0:
                tr = k + 1
            else:
                tl = k + 1
    return Projection(tl if tl is not None else 2, tr, tl, tr)


def resolve_x(indices, nu: KneadingSequence, mode: str = "rank", slope=None) -> dict:
    """Map orbit indices to x-positions.

    rank mode: the ``orbit_ranks`` of the indices spread as fractions
    over [0, 1], equal points (the orbit has landed on a periodic point)
    at one position; a truncated nu that cannot order two of them raises
    AmbiguousAtDepth.  value mode: the actual orbit of the given slope.
    """
    idx = sorted(set(indices))
    if not idx:
        return {}
    if mode == "value":
        s = slope if slope is not None else nu.slope
        if s is None:
            raise MalformedSequence("value mode needs a slope")
        if not 1 < s <= 2:
            raise MalformedSequence(f"slope must be in (1, 2], got {s!r}")
        out = {}
        x = C
        for i in range(1, max(idx) + 1):
            x = tent(s, x)
            if i in idx:
                out[i] = float(x)
        return out
    if mode != "rank":
        raise MalformedSequence(f"unknown x mode {mode!r}")
    ranks = orbit_ranks(idx, nu)
    top = max(ranks.values())
    return {i: Fraction(r, top) if top else Fraction(0) for i, r in ranks.items()}


def side_of_level(nu: KneadingSequence, m: int) -> str:
    if m - 1 > nu.validated_depth:
        raise AmbiguousAtDepth(f"side of level {m} needs more of nu", depth=nu.validated_depth)
    return "right" if nu.head_parity(m - 1) == 0 else "left"


def _flip(sym: str) -> str:
    if sym == "0":
        return "1"
    if sym == "1":
        return "0"
    raise MalformedSequence(f"cannot flip symbol {sym!r}")


def flip_at(tail: LeftTail, m: int) -> LeftTail:
    """The tail with the symbol in slot -m flipped."""
    if m < 1:
        raise IndexError("slots are counted from 1 leftward")
    p, t = tail.period, tail.transient
    if m <= len(t):
        i = len(t) - m
        return LeftTail(p, t[:i] + _flip(t[i]) + t[i + 1 :])
    w = tail.window(m)
    phase = tail.window(m + len(p))[: len(p)]
    return LeftTail(phase, _flip(w[0]) + w[1:])


@dataclass(frozen=True)
class Join:
    level: int
    side: str
    low: LeftTail
    high: LeftTail


def _flip_joins(arcs, nu: KneadingSequence, flip) -> list:
    """Joins among the items of ``(item, window, matches)`` triples, each
    as ``(level, side, i, j)``: ``i`` and ``j`` are positions in ``arcs``,
    ``i`` on the slot-0 side.

    The window must reach every partner's slot, and the matches are its
    ``head_matches``; ``flip(a, m)`` is ``a`` with slot -m raised from 0
    to 1.  A partner listed n times gives n joins.
    """
    at: dict = {}  # each item's positions
    for i, (a, _, _) in enumerate(arcs):
        at.setdefault(a, []).append(i)
    out = []
    for i, (a, w, ks) in enumerate(arcs):
        for k in ks:
            s = len(w) - 1 - k  # slot -(k+1), just before the matched suffix
            if s < 0 or w[s] == "1":
                continue  # handle each unordered pair once, from its 0 side
            for j in at.get(flip(a, k + 1), ()):
                out.append((k + 1, side_of_level(nu, k + 1), i, j))
    return out


def boundary_pairs(tails, nu: KneadingSequence, check_tau: bool = False) -> list:
    """Joined pairs among the given tails, each ordered by notation.

    A pair joins at level m when the tails differ in slot -m alone and
    their shared last m-1 symbols equal the head of nu.  check_tau
    additionally demands that m is the landing index on the join's side
    for both tails.
    """
    ts = list(tails)
    scans = scan_tails(ts, nu)
    arcs = [(t, scans[t].window, scans[t].joins) for t in ts]
    out = []
    for level, side, i, j in _flip_joins(arcs, nu, flip_at):
        low, high = ts[i], ts[j]
        if check_tau:
            k = 1 if side == "right" else 0
            if any(_landing(t, nu, scans[t].landing)[k] != level for t in (low, high)):
                continue
        if str(high) < str(low):
            low, high = high, low
        out.append(Join(level, side, low, high))
    out.sort(key=lambda j: (j.level, str(j.low)))
    return out
