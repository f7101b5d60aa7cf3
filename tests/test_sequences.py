"""Words, parsers, and the signed lexicographic order."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tentplane import (
    LeftTail,
    MalformedSequence,
    RightSeq,
    parse_left,
    parse_right,
)
from tentplane.sequences import (
    Order,
    compare_right,
    ones,
    parity,
    plex_compare,
    plex_key,
    tails_equal_horizon,
)

words = st.text(alphabet="01", min_size=1, max_size=12)
short_words = st.text(alphabet="01", min_size=1, max_size=5)
maybe_word = st.text(alphabet="01", max_size=5)


def ref_plex(x: str, y: str) -> int:
    """Brute-force signed-lex on equal-length words."""
    assert len(x) == len(y)
    for i, (a, b) in enumerate(zip(x, y)):
        if a != b:
            less = (a < b) != bool(parity(x[:i]))
            return -1 if less else 1
    return 0


def test_parity_and_ones():
    assert ones("10110") == 3
    assert parity("") == 0
    assert parity("1") == 1
    assert parity("0110") == 0


def test_plex_frozen_cases():
    # plain lex before any 1: 0 < 1
    assert plex_compare("0", "1").order is Order.LESS
    # after an odd number of 1s the symbol order flips
    assert plex_compare("11", "10").order is Order.LESS
    assert plex_compare("100", "101").order is Order.GREATER
    # prefix of the other: undecided
    c = plex_compare("10", "101")
    assert not c.decided and c.order is Order.EQUAL
    assert plex_compare("10", "10").decided


@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.text(alphabet="01", min_size=n, max_size=n),
    st.text(alphabet="01", min_size=n, max_size=n))))
def test_plex_matches_reference(pair):
    x, y = pair
    c = plex_compare(x, y)
    assert c.decided
    assert int(c.order) == ref_plex(x, y)
    assert int(c.order) == (plex_key(x) > plex_key(y)) - (plex_key(x) < plex_key(y))


@given(words, words, words)
def test_plex_transitive(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = a[:n], b[:n], c[:n]
    trio = sorted([a, b, c], key=plex_key)
    assert plex_compare(trio[0], trio[1]).order is not Order.GREATER
    assert plex_compare(trio[1], trio[2]).order is not Order.GREATER
    assert plex_compare(trio[0], trio[2]).order is not Order.GREATER


def test_parse_right_canonical():
    assert str(parse_right("1(01)")) == "(10)"
    assert str(parse_right("11(1)")) == "(1)"
    assert str(parse_right("(101)")) == "(101)"
    assert str(parse_right("10(1)")) == "10(1)"
    assert str(parse_right("(101101)")) == "(101)"
    assert parse_right("1(01)") == parse_right("(10)")
    with pytest.raises(MalformedSequence):
        parse_right("101")
    with pytest.raises(MalformedSequence):
        parse_right("(1")
    with pytest.raises(MalformedSequence):
        parse_right("(2)")
    # an empty period, a bad symbol in the preperiod
    for pre, per in (("", ""), ("2", "1")):
        with pytest.raises(MalformedSequence):
            RightSeq(pre, per)


def test_parse_left_canonical():
    assert str(parse_left("(011)010.")) == "(101)0."
    assert str(parse_left("(1)110.")) == "(1)0."
    assert str(parse_left("(101)101101111.")) == "(011)11."
    assert str(parse_left("(101)101101110.")) == "(011)10."
    assert str(parse_left("(101)101101101.")) == "(101)."
    assert parse_left("(011)010.") == parse_left("(101)0.")
    with pytest.raises(MalformedSequence):
        parse_left("(101)")
    with pytest.raises(MalformedSequence):
        parse_left("101.")
    # an empty period, a bad symbol in the transient
    for args in (("",), ("1", "x")):
        with pytest.raises(MalformedSequence):
            LeftTail(*args)


def test_window_and_at():
    t = parse_left("(101)0.")
    assert t.window(0) == ""
    assert t.window(1) == "0"
    assert t.window(5) == "11010"
    assert t.at(-1) == "0" and t.at(-2) == "1" and t.at(-5) == "1"
    with pytest.raises(IndexError):
        t.at(0)
    with pytest.raises(MalformedSequence):
        LeftTail("1").push("01")
    r = parse_right("10(1)")
    assert r.expand(5) == "10111"
    assert r.at(0) == "1" and r.at(1) == "0" and r.at(4) == "1"
    with pytest.raises(IndexError):
        r.at(-1)
    with pytest.raises(ValueError):
        RightSeq("", "01").shift(-1)


@given(maybe_word, short_words, st.integers(0, 30))
def test_right_expand_consistent(pre, per, n):
    r = RightSeq(pre, per)
    assert r.expand(n) == "".join(r.at(k) for k in range(n))
    assert r.shift(3).expand(n) == r.expand(n + 3)[3:]


@given(short_words, maybe_word, st.integers(0, 30))
def test_left_window_consistent(per, tr, n):
    t = LeftTail(per, tr)
    assert t.window(n) == "".join(t.at(-k) for k in range(n, 0, -1))


@given(short_words, maybe_word)
def test_left_pop_push_roundtrip(per, tr):
    t = LeftTail(per, tr)
    for sym in "01":
        pushed = t.push(sym)
        assert pushed.window(1) == sym
        assert pushed.window(len(tr) + 2 * len(per)) == t.window(len(tr) + 2 * len(per) - 1) + sym


@given(short_words, maybe_word, short_words, maybe_word)
def test_compare_right_is_exact(pa, ta, pb, tb):
    a, b = RightSeq(ta, pa), RightSeq(tb, pb)
    c = compare_right(a, b)
    assert c.decided
    h = max(len(a.preperiod), len(b.preperiod)) + 2 * len(a.period) * len(b.period) + 4
    ref = plex_compare(a.expand(h), b.expand(h))
    if ref.decided:
        assert c.order is ref.order
    else:
        assert c.order is Order.EQUAL and a == b


def test_tails_equal_horizon():
    a, b = parse_left("(10)."), parse_left("(100)1.")
    h = tails_equal_horizon(a, b)
    assert a.window(h) != b.window(h)
    # equal words agree on their horizon no matter the spelling
    c, d = parse_left("(011)010."), parse_left("(101)0.")
    assert c.window(tails_equal_horizon(c, d)) == d.window(tails_equal_horizon(c, d))
