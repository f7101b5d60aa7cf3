"""Symbol sequences for unimodal itineraries.

Sequences are over the alphabet ``0``, ``*``, ``1`` and are always
eventually periodic, so every object here is an exact finite description
of an infinite word.

Notation
--------
Right-infinite: ``"10(1)"`` means ``1 0 1 1 1 ...`` (optional head, then
the parenthesised block repeating forever to the right).

Left-infinite tails end in a dot: ``"(011)010."`` means
``... 011 011 010`` read toward the dot, i.e. the block repeats forever
to the *left* of the finite part.

Order
-----
``plex_compare`` implements the signed lexicographic order used for
itineraries: at the first index where two words differ, the one with the
smaller symbol (``0 < * < 1``) is smaller when the shared prefix holds an
even number of ``1`` s, and larger when that count is odd.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from math import lcm

from .errors import MalformedSequence

SYMBOLS = "01*"
RANK = {"0": 0, "*": 1, "1": 2}


class Order(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class Comparison:
    """Outcome of an order query.

    ``decided`` is False when the inputs agreed over the whole window that
    was available, so the true order may still be anything.
    """

    order: Order
    decided: bool


def _check_word(w: str, *, allow_empty: bool = False, what: str = "word"):
    if not w and not allow_empty:
        raise MalformedSequence(f"empty {what}")
    bad = set(w) - set(SYMBOLS)
    if bad:
        raise MalformedSequence(f"bad symbol {sorted(bad)!r} in {what} {w!r}")


def ones(word: str) -> int:
    return word.count("1")


def parity(word: str) -> int:
    """0 when ``word`` has an even number of 1s, else 1."""
    return ones(word) & 1


def plex_compare(x: str, y: str) -> Comparison:
    """Signed-lex comparison of two finite words.

    Decided at the first differing index; if one word is a proper prefix
    of the other the result is EQUAL with ``decided=False``.
    """
    odd = False
    for a, b in zip(x, y):
        if a != b:
            lt = RANK[a] < RANK[b]
            if odd:
                lt = not lt
            return Comparison(Order.LESS if lt else Order.GREATER, True)
        if a == "1":
            odd = not odd
    return Comparison(Order.EQUAL, len(x) == len(y))


def plex_key(word: str) -> tuple:
    """Sort key equivalent to ``plex_compare`` on equal-length words.

    Each position contributes its symbol rank, mirrored whenever the
    number of 1s seen so far is odd.
    """
    out = []
    odd = False
    for ch in word:
        r = RANK[ch]
        out.append(2 - r if odd else r)
        if ch == "1":
            odd = not odd
    return tuple(out)


def _primitive(w: str) -> str:
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d]
    return w


def canon_right_words(pre: str, per: str) -> tuple:
    """Canonical (preperiod, period) for a right-infinite word.

    Alphabet-agnostic: also used for ternary digit streams.
    """
    per = _primitive(per)
    while pre and pre[-1] == per[-1]:
        per = per[-1] + per[:-1]
        pre = pre[:-1]
    return pre, per


@dataclass(frozen=True)
class RightSeq:
    """Eventually periodic right-infinite word ``preperiod (period)^inf``.

    Stored in canonical form: primitive period, shortest preperiod.  Two
    RightSeq are equal as dataclasses iff they are equal as infinite
    words.
    """

    preperiod: str
    period: str

    def __post_init__(self):
        _check_word(self.preperiod, allow_empty=True, what="preperiod")
        _check_word(self.period, what="period")
        pre, per = canon_right_words(self.preperiod, self.period)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def __str__(self):
        return f"{self.preperiod}({self.period})"

    def expand(self, n: int) -> str:
        if n <= len(self.preperiod):
            return self.preperiod[:n]
        m = n - len(self.preperiod)
        reps = -(-m // len(self.period))
        return self.preperiod + (self.period * reps)[:m]

    def at(self, k: int) -> str:
        if k < 0:
            raise IndexError("right sequence starts at index 0")
        if k < len(self.preperiod):
            return self.preperiod[k]
        return self.period[(k - len(self.preperiod)) % len(self.period)]

    def shift(self, n: int = 1) -> "RightSeq":
        """Drop the first ``n`` symbols."""
        if n < 0:
            raise ValueError("cannot shift by a negative count")
        if n <= len(self.preperiod):
            return RightSeq(self.preperiod[n:], self.period)
        m = (n - len(self.preperiod)) % len(self.period)
        return RightSeq("", self.period[m:] + self.period[:m])

    @property
    def is_periodic(self) -> bool:
        return not self.preperiod


def compare_right(a: RightSeq, b: RightSeq) -> Comparison:
    """Exact signed-lex order of two right sequences.

    Agreement over ``max(preperiods) + lcm(periods)`` symbols forces the
    words into lockstep, so the result is always decided.
    """
    h = max(len(a.preperiod), len(b.preperiod)) + lcm(len(a.period), len(b.period))
    c = plex_compare(a.expand(h), b.expand(h))
    return Comparison(c.order, True)


@dataclass(frozen=True)
class LeftTail:
    """Eventually periodic left-infinite word ``...(period)(period)transient.``

    The transient sits next to the dot; the period repeats leftward.
    Canonical form: primitive period, shortest transient (leading symbols
    of the transient that extend the periodic pattern are absorbed into a
    rotated period).
    """

    period: str
    transient: str = ""

    def __post_init__(self):
        _check_word(self.period, what="period")
        _check_word(self.transient, allow_empty=True, what="transient")
        per, tr = _primitive(self.period), self.transient
        while tr and tr[0] == per[0]:
            per = per[1:] + per[0]
            tr = tr[1:]
        object.__setattr__(self, "period", per)
        object.__setattr__(self, "transient", tr)

    def __str__(self):
        return f"({self.period}){self.transient}."

    def window(self, n: int) -> str:
        """The last ``n`` symbols, left to right: ``s_{-n} ... s_{-1}``."""
        t, p = self.transient, self.period
        if n <= len(t):
            return t[len(t) - n :]
        m = n - len(t)
        reps = -(-m // len(p))
        return (p * reps)[-m:] + t

    def at(self, k: int) -> str:
        """Symbol ``s_k`` for negative ``k``."""
        if k >= 0:
            raise IndexError("left tail indices are negative")
        n = -k
        t, p = self.transient, self.period
        if n <= len(t):
            return t[len(t) - n]
        return p[(len(p) - ((n - len(t)) % len(p))) % len(p)]

    def push(self, sym: str) -> "LeftTail":
        """Append one symbol at the dot."""
        _check_word(sym, what="symbol")
        if len(sym) != 1:
            raise MalformedSequence("push takes a single symbol")
        return LeftTail(self.period, self.transient + sym)


def tails_equal_horizon(a: LeftTail, b: LeftTail) -> int:
    """Window length whose agreement proves two tails are equal words."""
    return max(len(a.transient), len(b.transient)) + lcm(len(a.period), len(b.period))


_RIGHT_RE = re.compile(r"^([01*]*)\(([01*]+)\)$")
_LEFT_RE = re.compile(r"^\(([01*]+)\)([01*]*)\.$")


def parse_right(text: str) -> RightSeq:
    m = _RIGHT_RE.match(text.strip())
    if not m:
        raise MalformedSequence(f"not a right sequence: {text!r}")
    return RightSeq(m.group(1), m.group(2))


def parse_left(text: str) -> LeftTail:
    m = _LEFT_RE.match(text.strip())
    if not m:
        raise MalformedSequence(f"not a left tail: {text!r}")
    return LeftTail(m.group(1), m.group(2))

