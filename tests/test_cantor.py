"""Ternary heights of tails and cylinder blocks."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tentplane import (
    LeftTail,
    MalformedSequence,
    block_midpoint,
    cantor_coordinate,
    compare_tails,
    parse_left,
)
from tentplane.cantor import CantorCoordinate, parse_ternary
from tentplane.sequences import Order

periods = st.text(alphabet="01", min_size=1, max_size=4)
transients = st.text(alphabet="01", max_size=5)
tails = st.builds(LeftTail, periods, transients)
contexts = st.builds(LeftTail, periods, transients)


def test_coordinate_canonical():
    assert CantorCoordinate("2", "2").ternary() == "(2)"
    assert CantorCoordinate("", "222").ternary() == "(2)"
    # no absorption when the transient ends differently
    c = CantorCoordinate("02", "0")
    assert c.ternary() == "02(0)" and c.value == Fraction(2, 9)


def test_coordinate_value_and_digits():
    c = parse_ternary("02(1)")
    assert (c.digit(1), c.digit(2), c.digit(3), c.digit(7)) == (0, 2, 1, 1)
    assert c.value == Fraction(5, 18)
    with pytest.raises(IndexError):
        c.digit(0)
    assert CantorCoordinate("", "2").value == 1
    assert CantorCoordinate("", "0").value == 0


def test_coordinate_rejects():
    with pytest.raises(MalformedSequence):
        CantorCoordinate("3", "1")
    with pytest.raises(MalformedSequence):
        CantorCoordinate("0", "")
    with pytest.raises(MalformedSequence):
        parse_ternary("021")


@given(st.text(alphabet="012", max_size=4), st.text(alphabet="012", min_size=1, max_size=4))
def test_parse_ternary_round_trip(pre, per):
    c = CantorCoordinate(pre, per)
    again = parse_ternary(c.ternary())
    assert again == c and again.value == c.value
    assert 0 <= c.value <= 1


def test_height_frozen():
    L1 = parse_left("(1).")
    L101 = parse_left("(101).")
    assert cantor_coordinate(L1, L1).value == 1
    assert cantor_coordinate(L101, L101).ternary() == "(2)"
    assert cantor_coordinate(parse_left("(1)0."), L1).ternary() == "(0)"
    assert cantor_coordinate(parse_left("(101)0."), L1).ternary() == "(002220)"
    assert cantor_coordinate(L101, L1).ternary() == "(200022)"
    assert cantor_coordinate(parse_left("(011)110."), L1).ternary() == "00(000222)"


@given(tails, contexts)
def test_height_is_symmetric(t, L):
    # digit_i only asks whether the two suffix parities agree, so the
    # roles of tail and context can be swapped
    assert cantor_coordinate(t, L).value == cantor_coordinate(L, t).value


@given(tails, contexts)
def test_height_digits_are_cantor(t, L):
    c = cantor_coordinate(t, L)
    assert set(c.preperiod + c.period) <= {"0", "2"}
    assert 0 <= c.value <= 1
    assert cantor_coordinate(L, L).value == 1


@given(tails, tails, contexts, st.integers(1, 10))
def test_height_metric_bounds(a, b, L, n):
    wa, wb = a.window(n), b.window(n)
    va, vb = cantor_coordinate(a, L).value, cantor_coordinate(b, L).value
    if wa == wb:
        assert abs(va - vb) <= Fraction(1, 3**n)
    else:
        k = next(i for i in range(1, n + 1) if wa[n - i] != wb[n - i])
        assert abs(va - vb) >= Fraction(1, 3**k)


def test_block_midpoint_frozen():
    m = block_midpoint("11", parse_left("(1)."))
    assert m.ternary() == "22(1)" and m.value == Fraction(17, 18)
    m = block_midpoint("10", parse_left("(101)."))
    assert m.ternary() == "02(1)" and m.value == Fraction(5, 18)
    m = block_midpoint("0", parse_left("(1)."))
    assert m.ternary() == "0(1)" and m.value == Fraction(1, 6)


@given(tails, contexts, st.integers(1, 8))
def test_block_midpoint_centers_its_block(t, L, n):
    mid = block_midpoint(t.window(n), L).value
    v = cantor_coordinate(t, L).value
    assert abs(v - mid) <= Fraction(1, 2 * 3**n)


@given(tails, tails, contexts)
def test_compare_decided_and_matches_height(a, b, L):
    c = compare_tails(a, b, L)
    assert c.decided
    va, vb = cantor_coordinate(a, L).value, cantor_coordinate(b, L).value
    if c.order is Order.EQUAL:
        assert a == b and va == vb
    elif c.order is Order.LESS:
        assert va < vb
    else:
        assert va > vb
    # antisymmetry
    assert int(compare_tails(b, a, L).order) == -int(c.order)


@given(st.lists(tails, min_size=3, max_size=6), contexts)
def test_compare_sorts_like_height(ts, L):
    ts.sort(key=lambda t: cantor_coordinate(t, L).value)
    for x, y in zip(ts, ts[1:]):
        assert compare_tails(x, y, L).order is not Order.GREATER


def test_compare_frozen():
    L1 = parse_left("(1).")
    assert compare_tails(parse_left("(1)0."), parse_left("(101)."), L1).order is Order.LESS
    assert compare_tails(parse_left("(101)."), parse_left("(1)0."), L1).order is Order.GREATER
    assert compare_tails(parse_left("(011)110."), parse_left("(101)0."), L1).order is Order.LESS
    same = compare_tails(parse_left("(101)0."), parse_left("(101)0."), L1)
    assert same.order is Order.EQUAL and same.decided
