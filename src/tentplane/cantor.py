"""Height coordinates for left tails.

Relative to a context tail ``L``, each left tail gets a ternary
coordinate whose i-th digit is 2 when the last-i ones-counts of the tail
and of ``L`` share parity, else 0.  The context itself gets all digits 2,
i.e. coordinate 1.  Both inputs are eventually periodic, so the digit
stream is too and the coordinate is an exact rational in the
middle-thirds Cantor set.

``compare_tails`` is the matching order on tails: tails compare the way
their coordinates do.  Cylinder blocks of finite words get the midpoint
of their ternary block, digits then ``(1)``.

Every coordinate carries its value as an unreduced integer pair
``scaled = (numerator, denominator)``, the denominator 3^t (3^p - 1) for
t preperiod and p period digits; a depth-n block midpoint is
(2 * int(digits, 3) + 1) / (2 * 3^n).  Tail scenes order heights on these
integers, and ``value`` reduces the pair only when it is read.  Digits
come from bit patterns, not a loop over symbols: bit n - i of
``_odd(word)`` is the ones-parity of the word's last i symbols, so two
words' digits are the xor of their patterns, and a digit is 2 exactly
where the xor's bit is 0: cylinder scenes order heights on the xor.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import MalformedSequence
from .sequences import Comparison, LeftTail, Order, canon_right_words, parity, tails_equal_horizon


@dataclass(frozen=True)
class CantorCoordinate:
    """Eventually periodic ternary expansion with its exact value."""

    preperiod: str
    period: str
    # the exact value, unreduced: (numerator, 3^t * (3^p - 1))
    scaled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bad = (set(self.preperiod) | set(self.period)) - set("012")
        if bad or not self.period:
            raise MalformedSequence(f"bad ternary digits {self.preperiod!r}({self.period!r})")
        pre, per = canon_right_words(self.preperiod, self.period)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)
        cycle = 3 ** len(per) - 1
        head = int(pre, 3) if pre else 0
        object.__setattr__(self, "scaled", (head * cycle + int(per, 3), 3 ** len(pre) * cycle))

    def ternary(self) -> str:
        return f"{self.preperiod}({self.period})"

    def digit(self, i: int) -> int:
        """Digit d_i, 1-based."""
        if i < 1:
            raise IndexError("digits start at 1")
        if i <= len(self.preperiod):
            return int(self.preperiod[i - 1])
        return int(self.period[(i - 1 - len(self.preperiod)) % len(self.period)])

    @cached_property
    def value(self) -> Fraction:
        return Fraction(*self.scaled)

    def __float__(self) -> float:
        # the float of ``value``, one correctly rounded division, unbuilt
        return self.scaled[0] / self.scaled[1]

    def __str__(self):
        return self.ternary()


def parse_ternary(text: str) -> CantorCoordinate:
    i = text.find("(")
    if i < 0 or not text.endswith(")"):
        raise MalformedSequence(f"not a ternary expansion: {text!r}")
    return CantorCoordinate(text[:i], text[i + 1 : -1])


def _adjusted_period(word: str) -> int:
    # ones-parity of the suffix repeats with this period
    return len(word) if parity(word) == 0 else 2 * len(word)


def _odd(word: str) -> int:
    """Bit n - i, for n = len(word), is the parity of the 1s among the
    last i symbols; a ``*`` counts as 0."""
    n = len(word)
    # the reversed word, s_-1 first, read in binary: bit n - i is s_-i
    x = int(word[::-1].replace("*", "0") or "0", 2)
    shift = 1
    while shift < n:
        x ^= x >> shift  # each bit xors in the bits above it
        shift *= 2
    return x


# a parity bit of 0 (the two words' last-i ones-counts agree) is digit 2
_AGREE = str.maketrans("01", "20")


def _digits(ws: str, wl: str) -> str:
    # digit i is 2 when the last-i ones-counts of ws and wl share parity
    n = len(ws)
    return format(_odd(ws) ^ _odd(wl), f"0{n}b").translate(_AGREE) if n else ""


def _block(digits: str, scale: int) -> CantorCoordinate:
    # the midpoint digits(1), ``scale`` = 2 * 3^len(digits), built without
    # re-checking digits of 0 and 2, which are canonical as they stand
    c = object.__new__(CantorCoordinate)
    c.__dict__.update(preperiod=digits, period="1", scaled=(2 * int(digits or "0", 3) + 1, scale))
    return c


def cantor_coordinate(tail: LeftTail, context: LeftTail) -> CantorCoordinate:
    """Ternary height of ``tail`` relative to ``context``.

    digit_i is 2 exactly when the number of 1s in the last i symbols of
    the tail and of the context agree mod 2.  The context maps to 1.
    """
    t = max(len(tail.transient), len(context.transient))
    p = lcm(_adjusted_period(tail.period), _adjusted_period(context.period))
    word = _digits(tail.window(t + p), context.window(t + p))
    return CantorCoordinate(word[:t], word[t:])


def block_midpoint(word: str, context: LeftTail) -> CantorCoordinate:
    """Midpoint height of the cylinder block of a finite window.

    The window's digits pin a ternary block of width 3^-n; the midpoint
    is that block's digit string followed by repeating 1.
    """
    return _block(_digits(word, context.window(len(word))), 2 * 3 ** len(word))


def compare_tails(a: LeftTail, b: LeftTail, context: LeftTail) -> Comparison:
    """Exact order of two tails relative to a context tail.

    Scan back from the dot for the first disagreeing slot -k.  If the
    ones-count parities of the shared (k-1)-suffix of the pair and of the
    context's (k-1)-suffix agree, the smaller tail is the one that
    disagrees with the context at -k; otherwise the one that agrees.
    Always decided: agreement over one transient plus a full joint period
    means equal words.
    """
    h = tails_equal_horizon(a, b)
    wa, wb = a.window(h), b.window(h)
    if wa == wb:
        return Comparison(Order.EQUAL, True)
    k = next(i for i in range(1, h + 1) if wa[h - i] != wb[h - i])
    shared = wa[h - (k - 1) :] if k > 1 else ""
    delta = (parity(shared) + parity(context.window(k - 1))) % 2
    lk = context.at(-k)
    if delta == 0:
        a_less = wb[h - k] == lk
    else:
        a_less = wa[h - k] == lk
    return Comparison(Order.LESS if a_less else Order.GREATER, True)
