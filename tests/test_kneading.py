"""Kneading sequences: construction from slopes, star resolution,
validation, admissibility, and cylinder enumeration."""
import math
import random
from fractions import Fraction
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentplane import (
    KneadingSequence,
    MalformedSequence,
    MalformedStarPeriod,
    NotAdmissible,
    RightSeq,
    enumerate_cylinders,
    is_admissible_tail,
    kneading_from_slope,
    parse_left,
    parse_right,
    validate_kneading,
)
from tentplane import kneading
from tentplane.arcs import Join, _flip_joins, match_window, scan_tails, side_of_level
from tentplane.kneading import (
    _ORBIT_EPS,
    RANK,
    SYMBOLS,
    C,
    HeadScan,
    _bits,
    _scan_masks,
    head_matches,
    kneading_from_text,
    modify_star,
    scan_cylinders,
    tail_scan,
    tent,
)
from tentplane.scene import _raise_slot
from tentplane.sequences import LeftTail, Order, compare_right, plex_compare, plex_key

from conftest import GOLDEN, figure_nu, figure_tails, random_kneading, random_tail

slope_grid = st.integers(105, 200).map(lambda n: n / 100)


def tent_itinerary(s, x, n):
    """First n itinerary symbols of x under the slope-s tent map: the
    float reference the kneading code is checked against.

    A landing on the turning point normally emits ``*``.  When the
    turning point itself is periodic for this slope the star has a forced
    resolution (the completion picked by modify_star), so that symbol is
    emitted instead.  Iteration continues either way.
    """
    if not 0 <= x <= 1:
        raise MalformedSequence(f"point must lie in [0, 1], got {x!r}")
    eps = _ORBIT_EPS
    nu = kneading_from_slope(s)
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


def test_tent_map():
    assert tent(2.0, 0.75) == 0.5
    assert tent(Fraction(3, 2), Fraction(1, 2)) == Fraction(3, 4)
    assert tent(2.0, 0.0) == 0.0 and tent(2.0, 1.0) == 0.0
    assert C == Fraction(1, 2)


def test_kneading_from_slope_frozen():
    full = kneading_from_slope(2.0)
    assert str(full) == "1(0)" and full.exact
    gold = kneading_from_slope(GOLDEN)
    assert str(gold) == "(101)" and gold.exact
    root = kneading_from_slope(math.sqrt(2.0))
    assert str(root) == "10(1)" and root.exact
    trunc = kneading_from_slope(1.8)
    assert not trunc.exact
    assert trunc.expand(5) == "10011"
    assert trunc.validated_depth >= 1000


def ref_kneading_from_slope(s, max_iter):
    """The body kneading_from_slope had when it compared the float orbit
    with the Fraction c directly."""
    eps = 1e-12
    xs = [tent(s, C)]
    buckets = {round(float(xs[0]) / eps): 0}
    word = []
    while len(word) < max_iter:
        x = xs[-1]
        if abs(x - C) <= eps:
            star = "".join(word) + "*"
            nu = modify_star(RightSeq("", star))
            return KneadingSequence(nu, slope=float(s))
        word.append("0" if x < C else "1")
        nxt = tent(s, x)
        b = round(float(nxt) / eps)
        for bb in (b - 1, b, b + 1):
            i = buckets.get(bb)
            if i is not None and abs(nxt - xs[i]) <= eps:
                w = "".join(word)
                try:
                    return KneadingSequence(RightSeq(w[:i], w[i:]), slope=float(s))
                except NotAdmissible:
                    break
        xs.append(nxt)
        buckets.setdefault(b, len(xs) - 1)
    w = "".join(word)
    return KneadingSequence(RightSeq(w[:-1], w[-1]), validated_depth=float(len(w)), slope=float(s))


def test_kneading_from_slope_agrees_with_reference():
    rng = random.Random(5)
    special = [2.0, GOLDEN, math.sqrt(2.0), 1.8, Fraction(2), Fraction(3, 2), 2]
    randoms = [rng.uniform(1.0001, 2.0) for _ in range(100)]
    for max_iter, slopes in ((512, special + randoms), (4096, special[:5] + randoms[:15])):
        for s in slopes:
            got = kneading_from_slope.__wrapped__(s, max_iter=max_iter)
            ref = ref_kneading_from_slope(s, max_iter)
            assert (got.seq, got.validated_depth, got.slope) == (
                ref.seq, ref.validated_depth, ref.slope), (s, max_iter)


@pytest.mark.xfail(strict=True, reason="an orbit point within _ORBIT_EPS of c but not c "
                   "is read as the turning point, and the resulting nu is called exact")
def test_exact_slope_nu_follows_the_exact_orbit():
    # slope 1.0001 in Fraction arithmetic: its eighth orbit point lies
    # 4e-16 left of c, so the exact orbit reads 10111010, not 10111011
    s = Fraction(10001, 10000)
    nu = kneading_from_slope.__wrapped__(s)
    x, word = tent(s, C), ""
    for _ in range(40):
        word += "0" if x < C else "1" if x > C else "*"
        x = tent(s, x)
    assert nu.exact and nu.expand(40) == word


def test_modify_star():
    assert str(modify_star("(10*)")) == "(101)"
    assert str(modify_star("(1*)")) == "(1)"
    with pytest.raises(MalformedStarPeriod):
        modify_star("(1*0)")
    with pytest.raises(MalformedStarPeriod):
        modify_star("1(0*)")
    with pytest.raises(MalformedStarPeriod):
        modify_star("(10)")


def test_modify_star_resolves_to_smaller():
    for body in ("1", "10", "100", "1011"):
        resolved = modify_star(f"({body}*)")
        other = RightSeq("", body + ("1" if resolved.expand(len(body) + 1)[-1] == "0" else "0"))
        h = 3 * (len(body) + 1)
        c = plex_compare(resolved.expand(h), other.expand(h))
        assert c.order is not Order.GREATER
    # the completion by the body's parity is the one the exact comparison picks
    for n in range(1, 11):
        for k in range(2**n):
            body = format(k, f"0{n}b")
            cand0, cand1 = RightSeq("", body + "0"), RightSeq("", body + "1")
            want = cand0 if compare_right(cand0, cand1).order is Order.LESS else cand1
            assert modify_star(f"({body}*)") == want, body


def test_validate_kneading():
    assert validate_kneading(parse_right("(101)")) is None
    assert validate_kneading(parse_right("1(0)")) is None
    # (110) is beaten by its own first shift
    assert validate_kneading(parse_right("(110)")) == 1
    assert validate_kneading(parse_right("1100110(0)"), 4) == 1
    # the same word looks fine in a window too short to see the flaw
    assert validate_kneading(parse_right("1100110(0)"), 2) is None


def ref_validate_exact(seq):
    """The exact body validate_kneading had before every depth became one
    suffix scan: each distinct shift compared with the whole infinite
    word."""
    nshifts = len(seq.preperiod) + len(seq.period)
    for k in range(1, nshifts + 1):
        if compare_right(seq.shift(k), seq).order is Order.GREATER:
            return k
    return None


def ref_validate_kneading(seq, depth=None):
    """The body validate_kneading had before the finite-depth check became
    one suffix scan: every shift compared afresh with the whole word."""
    if depth is None:
        return ref_validate_exact(seq)
    word = seq.expand(depth)
    for k in range(1, depth):
        c = plex_compare(word[k:], word)
        if c.decided and c.order is Order.GREATER:
            return k
    return None


def _validate_cases(rng, count):
    """Random words, a tenth of them with stars, mostly starting like a
    kneading sequence so that the least violating shift is often deep or
    missing."""
    for n in range(count):
        alphabet = "01*" if n % 10 == 0 else "01"
        pre = "1" + "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        if n % 2:
            pre = "10" + "".join(rng.choice("0111") for _ in range(rng.randint(0, 12)))
        per = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
        yield n, RightSeq(pre, per)


def test_validate_kneading_agrees_with_reference():
    rng = random.Random(19)
    seen = set()
    for n, seq in _validate_cases(rng, 3000):
        depth = rng.randint(1, 60) if n % 100 else 512
        got = validate_kneading(seq, depth)
        assert got == ref_validate_kneading(seq, depth), (str(seq), depth)
        seen.add(got if got is None or got < 3 else 3)
    # no violation, a first-shift violation and deeper least shifts all occur
    assert seen == {None, 1, 2, 3}
    for text in ("(101)", "1(0)", "(110)", "10(1)", "100(1)", "(1001)"):
        assert validate_kneading(parse_right(text)) == ref_validate_kneading(parse_right(text))


def test_validate_kneading_exact_agrees_with_reference():
    # the exact check is the suffix scan over 2 * (T + P) symbols; every
    # finite depth up to twice that window is pinned too
    rng = random.Random(23)
    shapes = set()
    for _, seq in _validate_cases(rng, 2000):
        span = len(seq.preperiod) + len(seq.period)
        want = ref_validate_exact(seq)
        assert validate_kneading(seq) == want, str(seq)
        # T + P symbols of the word do not always decide
        shapes.add(validate_kneading(seq, span) == want)
        for depth in range(1, 4 * span + 1):
            assert validate_kneading(seq, depth) == ref_validate_kneading(seq, depth), (str(seq), depth)
    assert shapes == {True, False}


def test_kneading_sequence_guards():
    with pytest.raises(NotAdmissible):
        KneadingSequence(parse_right("(110)"))
    with pytest.raises(NotAdmissible):
        KneadingSequence(parse_right("0(1)"))
    with pytest.raises(MalformedSequence):
        KneadingSequence(parse_right("(10*)"))
    with pytest.raises(MalformedSequence):
        KneadingSequence(parse_right("(101)"), validated_depth=0.5)
    # beyond an index-sized integer, a depth cannot be expanded
    for big in (1e30, float(10**20)):
        with pytest.raises(MalformedSequence):
            KneadingSequence(parse_right("1(0)"), validated_depth=big)
    nu = kneading_from_text("(101)")
    assert nu.exact and nu.upper == nu.seq
    assert nu.lower == parse_right("(011)")


def test_tent_itinerary_frozen():
    # landing on the turning point of the full tent has no forced resolution
    assert tent_itinerary(2.0, 0.75, 4) == "1*10"
    # for the golden slope the turning point is periodic, so it has one
    assert tent_itinerary(GOLDEN, 0.5, 4) == "1101"
    assert tent_itinerary(GOLDEN, GOLDEN / 2, 6) == "101101"
    assert tent_itinerary(1.8, 0.9, 5) == "10011"
    with pytest.raises(MalformedSequence):
        tent_itinerary(2.0, 1.5, 3)


@given(slope_grid)
@settings(max_examples=40, deadline=None)
def test_itinerary_of_critical_value_is_kneading(s):
    nu = kneading_from_slope(s)
    d = 12 if nu.exact else min(12, int(nu.validated_depth))
    itin = tent_itinerary(s, tent(s, 0.5), d)
    if "*" not in itin:
        assert itin == nu.expand(d)


@given(st.tuples(slope_grid, slope_grid))
@settings(max_examples=60, deadline=None)
def test_kneading_monotone_in_slope(pair):
    s1, s2 = sorted(pair)
    k1, k2 = kneading_from_slope(s1), kneading_from_slope(s2)
    d = 30
    for k in (k1, k2):
        if not k.exact:
            d = min(d, int(k.validated_depth))
    c = plex_compare(k1.expand(d), k2.expand(d))
    if c.decided:
        assert c.order is not Order.GREATER


def test_enumerate_cylinders_counts():
    gold = kneading_from_slope(GOLDEN)
    assert [len(enumerate_cylinders(gold, d)) for d in range(1, 6)] == [2, 3, 5, 8, 13]
    root = kneading_from_slope(math.sqrt(2.0))
    assert [len(enumerate_cylinders(root, d)) for d in range(1, 7)] == [2, 3, 5, 7, 11, 15]
    full = kneading_from_slope(2.0)
    assert [len(enumerate_cylinders(full, d)) for d in range(1, 7)] == [2, 4, 8, 16, 32, 64]


def test_enumerate_cylinders_deeper_than_the_call_stack():
    # one word per symbol of depth would overflow a recursive grower
    assert enumerate_cylinders(kneading_from_text("(1)"), 1200) == ["1" * 1200]
    words = enumerate_cylinders(kneading_from_text("(10)"), 300)
    assert len(words) == 301 and words == sorted(words, key=plex_key)
    for bad in (0, 10**20):
        with pytest.raises(MalformedSequence):
            enumerate_cylinders(kneading_from_text("(1)"), bad)


def test_scan_cylinders_refuses_a_level_past_the_bound(monkeypatch):
    full = kneading_from_slope(2.0)
    # slope 2 doubles its words per symbol: the first length past 2^17
    # raises, long before depth 60's 2^60 words
    with pytest.raises(MalformedSequence, match="length 18 has 262144 cylinders, more than 131072"):
        scan_cylinders(full, 60)
    # a level of exactly the bound is listed, one more word is not
    gold = kneading_from_slope(GOLDEN)
    monkeypatch.setattr(kneading, "_MAX_CYLINDERS", 8)
    assert len(scan_cylinders(gold, 4)) == 8
    with pytest.raises(MalformedSequence, match="depth 9 is refused: length 5 has 13 cylinders"):
        scan_cylinders(gold, 9)


def test_enumerate_cylinders_order_and_closure():
    for nu in (kneading_from_slope(GOLDEN), kneading_from_slope(math.sqrt(2.0))):
        prev = None
        for d in (1, 2, 3, 4, 5, 6):
            words = enumerate_cylinders(nu, d)
            assert words == sorted(words, key=plex_key)
            assert len(set(words)) == len(words)
            if prev is not None:
                for w in words:
                    assert w[:-1] in prev
                    assert w[1:] in set(enumerate_cylinders(nu, d - 1))
            prev = set(words)


def test_cylinders_realized_in_core():
    """Core orbits only ever spell enumerated windows, and every
    enumerated window occurs.  20k samples per slope."""
    rng = random.Random(7)
    for s in (math.sqrt(2.0), GOLDEN, 2.0):
        nu = kneading_from_slope(s)
        d = 6
        enum = set(enumerate_cylinders(nu, d))
        hi = s / 2
        lo = tent(s, hi)
        seen = set()
        for _ in range(20000):
            x = lo + (hi - lo) * rng.random()
            w = tent_itinerary(s, x, d)
            if "*" in w:
                continue
            assert w in enum, w
            seen.add(w)
        assert seen == enum


def test_is_admissible_tail():
    gold = kneading_from_slope(GOLDEN)
    assert is_admissible_tail(parse_left("(101)."), gold)
    assert is_admissible_tail(parse_left("(011)010."), gold)
    assert is_admissible_tail(parse_left("(1)0."), gold)
    assert not is_admissible_tail(parse_left("(0)."), gold)
    assert not is_admissible_tail(parse_left("(100)."), gold)
    full = kneading_from_slope(2.0)
    assert is_admissible_tail(parse_left("(1)0."), full)
    assert is_admissible_tail(parse_left("(101)."), full)
    assert is_admissible_tail(parse_left("(0)."), full)


def test_truncated_admissibility():
    nu = figure_nu()
    for tail in figure_tails():
        assert is_admissible_tail(tail, nu)
    # 0000 provably undercuts the floor 0011... inside the trusted window
    assert not is_admissible_tail(parse_left("(0)."), nu)
    assert is_admissible_tail(parse_left("(1)."), nu)


# ------------------------------------------------------------------ oracle
# The rules the suffix scan replaced, written with plex_compare and string
# slices: every suffix of a word is compared afresh with the heads of nu.


def _ref_violation(word, lo, hi):
    c = plex_compare(word, hi[: len(word)] if len(hi) > len(word) else hi)
    if c.decided and c.order is Order.GREATER:
        return True
    c = plex_compare(word, lo[: len(word)] if len(lo) > len(word) else lo)
    return c.decided and c.order is Order.LESS


def _ref_bounds(nu, depth):
    d = depth if nu.exact else min(depth, int(nu.validated_depth))
    return d, nu.lower.expand(d), nu.upper.expand(d)


def ref_admissible_tail(tail, nu, depth=None):
    if depth is None:
        depth = max(8, len(tail.transient) + len(tail.period),
                    len(nu.seq.preperiod) + 2 * len(nu.seq.period))
    depth, lo, hi = _ref_bounds(nu, depth)
    win = tail.window(len(tail.transient) + len(tail.period) + 2 * depth)
    return not any(_ref_violation(win[i : i + depth], lo, hi) for i in range(len(win)))


def ref_cylinders(nu, depth):
    _, lo, hi = _ref_bounds(nu, depth)
    words = [""]
    for _ in range(depth):
        words = [w for w in (v + s for v in words for s in "01")
                 if not any(_ref_violation(w[k:], lo, hi) for k in range(len(w)))]
    return sorted(words, key=plex_key)


def ref_head_matches(word, nu):
    top = len(word) if nu.exact else min(len(word), int(nu.validated_depth))
    return [k for k in range(top + 1) if word[len(word) - k :] == nu.expand(k)]


def ref_cylinder_pairs(words, nu):
    pool, out = set(words), []
    for w in words:
        n = len(w)
        for i in range(n):
            m = n - i
            if w[i] == "1" or (not nu.exact and m - 1 > int(nu.validated_depth)):
                continue
            other = w[:i] + "1" + w[i + 1 :]
            if w[i + 1 :] == nu.expand(m - 1) and other in pool:
                out.append(Join(m, side_of_level(nu, m), w, other))
    return out


def _oracle_nus():
    rng = random.Random(11)
    exact = [kneading_from_slope(s) for s in (2.0, GOLDEN, math.sqrt(2.0))]
    return exact + [random_kneading(rng) for _ in range(20)]


@pytest.mark.parametrize("nu", _oracle_nus(), ids=str)
def test_scan_agrees_with_reference_rules(nu):
    rng = random.Random(str(nu))
    for d in range(1, 11):
        scanned = scan_cylinders(nu, d)
        words = [w for w, _ in scanned]
        assert words == enumerate_cylinders(nu, d) == ref_cylinders(nu, d), d
        # the scan finds a word's pairs shallow to deep, the reference deep
        # to shallow; scenes sort joins, so only the set is pinned
        pairs = [Join(m, side, words[i], words[j])
                 for m, side, i, j in _flip_joins([(w, w, ks) for w, ks in scanned], nu, _raise_slot)]
        ref = ref_cylinder_pairs(words, nu)
        assert len(pairs) == len(ref) and set(pairs) == set(ref), d
        # nu cut at depth d: cylinders deeper than it is trusted, and words
        # up to twice as long, whose matches must stop at the cut
        cut = KneadingSequence(nu.seq, validated_depth=float(d))
        if d <= 6:
            assert enumerate_cylinders(cut, d + 2) == ref_cylinders(cut, d + 2), d
        for w in words + [w + w for w in words]:
            for k in (nu, cut):
                got = head_matches(w, k)
                assert got == ref_head_matches(w, k), (w, str(k))
                assert max(got) <= k.validated_depth
    for _ in range(40):
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        head = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        tail = LeftTail(per, head)
        for depth in (None, 3, 7):
            assert is_admissible_tail(tail, nu, depth) == ref_admissible_tail(tail, nu, depth), (
                str(tail), depth)


def test_scan_cylinders_hands_over_head_matches():
    # the match set read off each word's final scan state is the one a
    # fresh scan of the word finds, for nu and for nu cut one symbol
    # short of the words, where matches stop at the cut (cut at the word
    # length, the scan would be nu's own)
    sizes = set()
    for nu in _oracle_nus():
        for d in range(1, 13):
            cut = KneadingSequence(nu.seq, validated_depth=float(min(max(d - 1, 1), nu.validated_depth)))
            for k in (nu, cut):
                got = scan_cylinders(k, d)
                assert got == [(w, head_matches(w, k)) for w, _ in got], (str(k), d)
                sizes.add(max(len(ks) for _, ks in got))
    # words matching nu at several lengths, not only the empty match
    assert max(sizes) >= 6


def ref_scan_masks(nu, depth):
    """The body _scan_masks had before its bit sets were read off
    translated strings: one slot at a time."""
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


def ref_push(masks, state, sym):
    """The one-symbol step HeadScan.read replaced (folded with reduce)."""
    up, down, bad = state
    up_on, up_off, down_on, down_off = masks[sym]
    up, down = up | 1, down | 1
    return (up & up_on) << 1, (down & down_on) << 1, bad or bool(up & up_off or down & down_off)


def test_read_agrees_with_push():
    rng = random.Random(23)
    nus = _oracle_nus() + [kneading_from_text(t) for t in ("(1)", "(10)", "100(1)")]
    for nu in nus:
        for depth in (0, 1, 2, 5, 9, 17, 40):
            ref = ref_scan_masks(nu, depth)
            assert _scan_masks(nu, depth, depth) == ref, (str(nu), depth)
            for flag in (None, 0, depth // 2, depth + 3):
                scan = HeadScan(nu, depth, flag)
                cut = (1 << (scan.depth if flag is None else min(flag, scan.depth))) - 1
                masks = ref_scan_masks(nu, scan.depth)
                masks = {s: (a, b & cut, c, d & cut) for s, (a, b, c, d) in masks.items()}
                for _ in range(5):
                    word = "".join(rng.choice("01*" if rng.random() < 0.2 else "01")
                                   for _ in range(rng.randint(0, 60)))
                    state = (rng.getrandbits(8) << 1, rng.getrandbits(8) << 1, rng.random() < 0.2)
                    want = reduce(partial(ref_push, masks), word, state)
                    assert scan.read(word, state) == want, (str(nu), depth, flag, word)


def ref_match_window(tail, nu):
    """The window _match_data scanned for landing matches: one less than
    its detection bound."""
    step = math.lcm(len(tail.period), len(nu.seq.period))
    bound = len(tail.transient) + len(nu.seq.preperiod) + 2 * step + 2
    if not nu.exact:
        bound = min(bound, int(nu.validated_depth) + 1)
    return bound - 1


def _scan_cases():
    """(nu, tails, depths): the named exact nus, slopes cut at 64 and 512
    symbols, and the random truncated words, each with random tails
    (admissible or not) and the tail repeating nu's period.  Short nus
    also get (1)., (0)., and (010). and (001)1., whose violations for
    golden nu at depth 2 all start beyond their last T + D symbols.
    Random tails of periods 5 to 7 come from a stream of their own.

    Last come nus whose head follows a tail's period for the whole
    scanned depth, so no period repeats the scan state before the
    transient: slope 2 1(0) with (0) tails (its shift is 0s), (10) cut
    at 64 and 512 symbols with (10) tails, and 10000000(1), which (0)
    tails follow below for 7 symbols and leave at the 8th."""
    rng, wide = random.Random(29), random.Random(31)
    exact = [kneading_from_slope(s) for s in (2.0, GOLDEN, math.sqrt(2.0))]
    exact += [kneading_from_text(t) for t in ("(1)", "(10)", "(100)", "(1001)", "100(1)")]
    cut = [kneading_from_slope.__wrapped__(s, max_iter=n) for s in (1.62, 1.77, 1.85, 1.93) for n in (64, 512)]
    assert not any(nu.exact for nu in cut)
    for nu in exact + cut + _oracle_nus()[3:]:
        deep = nu.validated_depth > 100
        tails = [LeftTail(nu.seq.period)]
        if not deep:
            tails += [parse_left(t) for t in ("(010).", "(001)1.", "(1).", "(0).")]
        for _ in range(6 if deep else 12):
            per = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            tails.append(LeftTail(per, "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))))
        if deep:
            # random tails rarely pass a long nu; add sampled admissible ones
            tails += [random_tail(rng, nu) for _ in range(4)]
            tails += [random_tail(wide, nu, max_period=7) for _ in range(2)]
        for _ in range(3):
            per = "".join(wide.choice("01") for _ in range(wide.randint(5, 7)))
            tails.append(LeftTail(per, "".join(wide.choice("01") for _ in range(wide.randint(0, 6)))))
        yield nu, tails, (None,) if deep else (None, 2, 3, 7)
    zeros = [parse_left(t) for t in ("(0).", "(0)1.", "(0)10.", "(0)100.", "(0)11.")]
    tens = [parse_left(t) for t in ("(10).", "(01).", "(10)0.", "(01)1.", "(10)00.", "(10)11.")]
    yield kneading_from_text("1(0)"), zeros, (None, 2, 7, 40)
    for n in (64, 512):
        nu = KneadingSequence(RightSeq("10" * (n // 2), "0"), validated_depth=float(n))
        yield nu, tens, (None, 2, 7, 40) if n < 100 else (None, 100)
    yield kneading_from_text("10000000(1)"), zeros, (None, 7, 8, 9)


def ref_tail_scan(tail, nu, match_len, depth=None):
    """The body tail_scan had before it stopped at a repeated period: one
    read over the whole window."""
    if depth is None:
        depth = max(8, len(tail.transient) + len(tail.period),
                    len(nu.seq.preperiod) + 2 * len(nu.seq.period))
    scan = HeadScan(nu, max(depth, match_len), depth)
    adm, reach = min(depth, scan.depth), min(match_len, scan.depth)
    win = tail.window(max(len(tail.transient) + len(tail.period) + adm, match_len))
    up, _, bad = scan.read(win, scan.start)
    return not bad, _bits((up | 1) & ((2 << reach) - 1))


def _count_reads(monkeypatch) -> list:
    # every word HeadScan.read is given from now on, in order
    read, words = HeadScan.read, []

    def counted(self, word, state):
        words.append(word)
        return read(self, word, state)

    monkeypatch.setattr(HeadScan, "read", counted)
    return words


def test_tail_scan_agrees_with_full_window(monkeypatch):
    words = _count_reads(monkeypatch)
    shapes = set()
    for nu, tails, depths in _scan_cases():
        for tail in tails:
            n = match_window(tail, nu)
            for depth in depths:
                d = depth if depth is not None else max(
                    8, len(tail.transient) + len(tail.period), len(nu.seq.preperiod) + 2 * len(nu.seq.period))
                window = len(tail.transient) + len(tail.period) + int(min(d, nu.validated_depth))
                # match lengths inside and beyond the admissibility window
                for m in (0, 1, n, window + 1, window + 2 * len(tail.period) + 3, 3 * window):
                    words.clear()
                    want = ref_tail_scan(tail, nu, m, depth)
                    full = len(words.pop())
                    got = tail_scan(tail, nu, m, depth)
                    used = sum(map(len, words))
                    assert got == want, (str(tail), str(nu), m, depth)
                    assert full == max(window, m) and used <= full, (str(tail), str(nu), m, depth)
                    shapes.add((want[0], used < full))
    # admissible and not, each with a scan that stopped early and one
    # that read the full window
    assert shapes == {(a, s) for a in (True, False) for s in (True, False)}


def test_tail_scan_stops_at_a_repeated_period(monkeypatch):
    # nu of slope 1.83 cut at 512 symbols: the full admissibility window
    # of (011)10. is 517 symbols, its match window 512
    nu = kneading_from_slope.__wrapped__(1.83, max_iter=512)
    tail = parse_left("(011)10.")
    want = ref_tail_scan(tail, nu, match_window(tail, nu))
    words = _count_reads(monkeypatch)
    assert is_admissible_tail(tail, nu) == want[0]
    assert sum(map(len, words)) < 64
    words.clear()
    # one scan for the arc: its join window 10 is nu's own head
    assert scan_tails([tail], nu)[tail] == (want[0], want[1], "10", [0, 2])
    assert sum(map(len, words)) < 64


def test_tail_scan_agrees_with_reference():
    shapes = set()
    for nu, tails, depths in _scan_cases():
        for tail in tails:
            n = ref_match_window(tail, nu)
            assert match_window(tail, nu) == n
            want_ks = ref_head_matches(tail.window(n), nu)
            for depth in depths:
                want = (ref_admissible_tail(tail, nu, depth), want_ks)
                assert tail_scan(tail, nu, n, depth) == want, (str(tail), str(nu), depth)
                # alone, the admissibility scan reads the shortest window
                assert is_admissible_tail(tail, nu, depth) == want[0], (str(tail), str(nu), depth)
                if depth is None:
                    depth = max(8, len(tail.transient) + len(tail.period),
                                len(nu.seq.preperiod) + 2 * len(nu.seq.period))
                adm = _ref_bounds(nu, depth)[0]
                shapes.add((want[0], (n > adm) - (n < adm)))
    # admissible and not, with the match window shorter and longer than
    # the admissibility depth
    assert shapes == {(a, c) for a in (True, False) for c in (-1, 0, 1)}
