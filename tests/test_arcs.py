"""Landing indices, horizontal extents, and joins."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import figure_nu, figure_tails, figure_labels, random_kneading, random_tail
from test_kneading import ref_admissible_tail, ref_head_matches, ref_match_window

from tentplane import (
    AmbiguousAtDepth,
    KneadingSequence,
    LeftTail,
    MalformedSequence,
    NotAdmissible,
    RightSeq,
    arc_projection,
    boundary_pairs,
    build_scene,
    is_admissible_tail,
    kneading_from_slope,
    parse_left,
    parse_right,
    resolve_x,
    validate_kneading,
)
from tentplane import arcs
from tentplane.arcs import (
    TAU_INF,
    Join,
    Projection,
    _flip_joins,
    _joint,
    _landing,
    flip_at,
    landing_projection,
    orbit_compare,
    orbit_ranks,
    scan_tails,
    side_of_level,
    window_projection,
)
from tentplane.kneading import head_matches, kneading_from_text, scan_cylinders, tail_scan
from tentplane.scene import _raise_slot
from tentplane.sequences import Order, compare_right, parity, plex_compare, tails_equal_horizon

GOLD = kneading_from_slope((1 + math.sqrt(5)) / 2)
FULL = kneading_from_slope(2.0)
SQ2 = kneading_from_slope(math.sqrt(2))


def landing(tail, nu):
    return _landing(tail, nu, scan_tails([tail], nu)[tail].landing)


def test_match_indices_frozen():
    a = parse_left("(011)010.")
    assert head_matches(a.window(11), GOLD) == [0, 2]
    assert head_matches(parse_left("(011)110.").window(11), GOLD) == [0, 2]
    # k = 0 matches for every tail (empty window)
    assert 0 in head_matches(parse_left("(0).").window(4), GOLD)


def test_match_indices_truncated_cap():
    fig = figure_nu()
    t = figure_tails()[0]
    # no match outruns the trusted symbols
    assert head_matches(t.window(14), fig) == [0, 1]


def test_tau_frozen():
    a, b = parse_left("(011)010."), parse_left("(011)110.")
    assert landing(a, GOLD)[:2] == (3, 1)
    assert landing(b, GOLD)[:2] == (3, 1)
    # the context tail itself matches at every multiple of its period
    tl, tr, _, _ = landing(parse_left("(101)."), GOLD)
    assert tl == 2
    assert tr is TAU_INF
    assert landing(parse_left("(1)."), FULL)[:2] == (2, 1)


def _spans(p, nu):
    # the layout puts the two ends of the extent at different x
    xs = resolve_x([p.lo_index, p.hi_index], nu)
    return xs[p.lo_index] != xs[p.hi_index]


def test_projection_frozen():
    for text in ("(011)010.", "(011)110."):
        p = arc_projection(parse_left(text), GOLD)
        assert (p.lo_index, p.hi_index, p.tau_l, p.tau_r) == (3, 1, 3, 1)
        assert _spans(p, GOLD)
    # the context tail itself matches at every multiple of its period
    p = arc_projection(parse_left("(101)."), GOLD)
    assert (p.lo_index, p.hi_index, p.tau_l, p.tau_r) == (2, 1, 2, TAU_INF)
    assert _spans(p, GOLD)
    p = arc_projection(parse_left("(1)."), FULL)
    assert (p.lo_index, p.hi_index, p.tau_l, p.tau_r) == (2, 1, 2, 1)
    # nu (1) has odd-parity periods: its progression matches both classes forever
    p = arc_projection(parse_left("(1)."), KneadingSequence("(1)"))
    assert (p.lo_index, p.hi_index, p.tau_l, p.tau_r) == (2, 1, TAU_INF, TAU_INF)


@given(st.sampled_from(["(011)010.", "(011)110.", "(101).", "(101)0.", "(1)0."]))
def test_window_agrees_with_tail(text):
    # window indices may name later passes through the same cut point, so
    # compare endpoints up to orbit position rather than by raw index
    def same(i, j):
        c = orbit_compare(i, j, GOLD)
        return not c.decided or c.order is Order.EQUAL

    t = parse_left(text)
    full = arc_projection(t, GOLD)
    win = window_projection(head_matches(t.window(12), GOLD), GOLD)
    assert same(win.lo_index, full.lo_index)
    assert same(win.hi_index, full.hi_index)


def test_window_taus_frozen():
    def taus(word, nu):
        p = window_projection(head_matches(word, nu), nu)
        return p.tau_l, p.tau_r

    assert taus("11010", GOLD) == (3, 1)
    assert taus("10", GOLD) == (3, 1)
    fig = figure_nu()
    w = figure_tails()[0].window(12)
    # cap sits at the trusted depth, not at the window length
    assert taus(w, fig) == (2, 1)
    p = window_projection(head_matches("11010", GOLD), GOLD)
    assert (p.lo_index, p.hi_index, p.tau_l, p.tau_r) == (3, 1, 3, 1)
    assert _spans(p, GOLD)


def test_resolve_rank_frozen():
    assert resolve_x([1, 2, 3], GOLD) == {2: Fraction(0), 3: Fraction(1, 2), 1: Fraction(1)}
    assert resolve_x([2], GOLD) == {2: Fraction(0)}
    assert resolve_x([], GOLD) == {}


def test_resolve_value_frozen():
    out = resolve_x([1, 2, 3], GOLD, mode="value")
    assert out[1] == pytest.approx(0.8090169943749475)
    assert out[2] == pytest.approx(0.3090169943749474)
    assert out[3] == pytest.approx(0.5)


def test_resolve_merges_indistinguishable_indices():
    # for slope sqrt(2) the orbit is periodic from the third step on, so
    # indices 3 and 4 denote the same cut point and share a position
    assert orbit_compare(3, 4, SQ2).order is Order.EQUAL
    assert resolve_x([3, 4], SQ2) == {3: Fraction(0), 4: Fraction(0)}
    out = resolve_x([1, 2, 3, 4], SQ2)
    assert out[3] == out[4] == Fraction(1, 2)
    assert out[2] == Fraction(0) and out[1] == Fraction(1)


def test_resolve_errors():
    bare = KneadingSequence(parse_right("(101)"))
    with pytest.raises(MalformedSequence):
        resolve_x([1, 2], bare, mode="value")
    with pytest.raises(MalformedSequence):
        resolve_x([1, 2], GOLD, mode="midpoint")
    # the value layout runs only the tent maps of the family
    for slope in (5.0, -1.0, 0.5, 1.0, math.nan, math.inf):
        with pytest.raises(MalformedSequence, match=r"^slope must be in \(1, 2\], got "):
            resolve_x([1, 2], GOLD, mode="value", slope=slope)
    assert resolve_x([1], GOLD, mode="value", slope=2.0) == {1: 1.0}


def test_orbit_compare():
    assert orbit_compare(2, 3, GOLD).order is Order.LESS
    assert orbit_compare(1, 1, GOLD).order is Order.EQUAL
    with pytest.raises(IndexError):
        orbit_compare(0, 1, GOLD)
    fig = figure_nu()
    assert orbit_compare(2, 3, fig).order is Order.LESS
    with pytest.raises(AmbiguousAtDepth):
        orbit_compare(10, 1, fig)


def ref_orbit_compare(i, j, nu):
    """The body orbit_compare had before exact and truncated nu shared one
    path: two exact shifts, or suffixes of nu expanded to its whole
    validated depth."""
    if i < 1 or j < 1:
        raise IndexError("orbit indices start at 1")
    if nu.exact:
        return compare_right(nu.seq.shift(i - 1), nu.seq.shift(j - 1))
    d = int(nu.validated_depth)
    if i - 1 >= d or j - 1 >= d:
        raise AmbiguousAtDepth(f"orbit index beyond validated depth {d}", depth=d)
    word = nu.expand(d)
    return plex_compare(word[i - 1 :], word[j - 1 :])


def _outcome(f, *args):
    try:
        return f(*args)
    except AmbiguousAtDepth as e:
        return ("ambiguous", str(e), e.depth)


def _orbit_nus():
    """Exact nus, slopes cut at 64 and 512 symbols, random truncated
    words, and truncated nus validated past their stored word's
    preperiod and period."""
    rng = random.Random(31)
    exact = [FULL, GOLD, SQ2] + [KneadingSequence(parse_right(t))
                                 for t in ("(1)", "(10)", "(100)", "(1001)", "100(1)")]
    cut = [kneading_from_slope.__wrapped__(s, max_iter=64) for s in (1.62, 1.77, 1.85, 1.93)]
    cut.append(kneading_from_slope.__wrapped__(1.77, max_iter=512))
    randoms = [random_kneading(rng) for _ in range(20)]
    past = [KneadingSequence(parse_right(t), validated_depth=float(d))
            for t, d in (("(101)", 20), ("100(1)", 15), ("(1001)", 30), ("1(0)", 9))]
    for _ in range(4):
        word = "1" + "".join(rng.choice("01") for _ in range(rng.randint(4, 9)))
        seq = RightSeq(word, "0")
        if validate_kneading(seq, len(word) + 6) is None:
            past.append(KneadingSequence(seq, validated_depth=float(len(word) + 6)))
    return exact, cut + randoms + past


def test_orbit_compare_agrees_with_reference():
    exact, truncated = _orbit_nus()
    shapes = set()
    for nu in exact + truncated:
        span = len(nu.seq.preperiod) + len(nu.seq.period)
        top = 3 * span + 2 if nu.exact else int(nu.validated_depth) + 2
        for i in range(1, top + 1):
            for j in range(1, top + 1):
                got = _outcome(orbit_compare, i, j, nu)
                assert got == _outcome(ref_orbit_compare, i, j, nu), (str(nu), i, j)
                shapes.add((nu.exact, got[0] if isinstance(got, tuple) else got.decided))
    # decided and undecided comparisons, and indices past the validated depth
    assert shapes == {(True, True), (False, True), (False, False), (False, "ambiguous")}
    # nus validated past their stored word ask the shortest head to decide
    assert sum(len(nu.seq.preperiod) + len(nu.seq.period) < nu.validated_depth
               for nu in truncated) >= 6


def test_side_of_level_frozen():
    assert [side_of_level(GOLD, m) for m in range(1, 7)] == [
        "right", "left", "left", "right", "left", "left"]
    assert [side_of_level(FULL, m) for m in range(1, 5)] == [
        "right", "left", "left", "left"]
    assert [side_of_level(SQ2, m) for m in range(1, 7)] == [
        "right", "left", "left", "right", "left", "right"]
    fig = figure_nu()
    assert side_of_level(fig, 10) == "right"
    with pytest.raises(AmbiguousAtDepth):
        side_of_level(fig, 12)


def test_flip_joins_look_up_each_level_once(monkeypatch):
    scanned = scan_cylinders(GOLD, 10)
    items = [(w, w, ks) for w, ks in scanned]
    want = _flip_joins(items, GOLD, _raise_slot)
    levels = {m for m, *_ in want}
    assert len(want) > 5 * len(levels)
    asked = []
    monkeypatch.setattr(arcs, "side_of_level", lambda nu, m: asked.append(m) or side_of_level(nu, m))
    assert _flip_joins(items, GOLD, _raise_slot) == want
    assert sorted(asked) == sorted(levels)
    assert all(side == side_of_level(GOLD, m) for m, side, _, _ in want)
    # a level past a cut nu's validated depth raises at its first join, as
    # side_of_level does
    cut = KneadingSequence(GOLD.seq, validated_depth=3.0)
    head = GOLD.expand(4)
    with pytest.raises(AmbiguousAtDepth, match="^side of level 5 needs more of nu$"):
        _flip_joins([("0" + head, "0" + head, [0, 4]), ("1" + head, "1" + head, [])], cut, _raise_slot)


def test_flip_at_frozen():
    L = parse_left("(101).")
    assert str(flip_at(L, 1)) == "(110)0."
    assert str(flip_at(L, 4)) == "(110)0101."
    assert str(flip_at(parse_left("(101)0."), 3)) == "(011)110."
    with pytest.raises(IndexError):
        flip_at(L, 0)


@given(st.builds(LeftTail, st.text(alphabet="01", min_size=1, max_size=4),
                 st.text(alphabet="01", max_size=5)), st.integers(1, 12))
def test_flip_at_involution(t, m):
    back = flip_at(flip_at(t, m), m)
    assert back == t
    # exactly one slot changed
    h = max(m, 12)
    diff = [k for k in range(1, h + 1) if flip_at(t, m).at(-k) != t.at(-k)]
    assert diff == [m]


def test_boundary_pairs_frozen():
    a, b = parse_left("(011)010."), parse_left("(011)110.")
    js = boundary_pairs([a, b], GOLD)
    assert len(js) == 1
    j = js[0]
    assert (j.level, j.side, str(j.low), str(j.high)) == (3, "left", "(011)110.", "(101)0.")


def test_boundary_pairs_tau_filter():
    L = parse_left("(101).")
    partner = flip_at(L, 4)
    loose = boundary_pairs([L, partner], GOLD)
    assert [(j.level, j.side) for j in loose] == [(4, "right")]
    # level 4 is not the right landing index of the context tail, so the
    # certified variant drops the pair
    assert boundary_pairs([L, partner], GOLD, check_tau=True) == []
    near = flip_at(L, 2)
    assert str(near) == "(011)11."
    for kw in ({}, {"check_tau": True}):
        js = boundary_pairs([L, near], GOLD, **kw)
        assert [(j.level, j.side, str(j.low), str(j.high)) for j in js] == [
            (2, "left", "(011)11.", "(101).")]


def test_boundary_pairs_figure_inventory():
    fig = figure_nu()
    lab = figure_labels()
    js = boundary_pairs(figure_tails(), fig)
    got = {(j.level, j.side, frozenset((lab[str(j.low)], lab[str(j.high)]))) for j in js}
    assert got == {
        (1, "right", frozenset({"N12", "N1"})),
        (1, "right", frozenset({"N11", "N2"})),
        (1, "right", frozenset({"N9", "N3"})),
        (1, "right", frozenset({"N8", "N5"})),
        (1, "right", frozenset({"N7", "N6"})),
        (2, "left", frozenset({"N6", "N1"})),
        (2, "left", frozenset({"N5", "N2"})),
        (2, "left", frozenset({"N4", "N3"})),
        (3, "left", frozenset({"N12", "N9"})),
        (4, "left", frozenset({"N8", "N7"})),
        (7, "left", frozenset({"N11", "N10"})),
    }
    assert len(boundary_pairs(figure_tails(), fig, check_tau=True)) == 11


def test_boundary_pairs_truncated_slot_skipped():
    fig = figure_nu()
    a = figure_tails()[0]
    # differ at slot 12 alone, beyond the nine trusted symbols: the join
    # cannot be certified, so the pair is silently dropped
    assert boundary_pairs([a, flip_at(a, 12)], fig) == []



def ref_boundary_pairs(tails, nu, check_tau=False):
    """The pairwise scan boundary_pairs replaced: every pair of tails,
    compared window by window over their equality horizon."""
    ts = list(tails)
    out = []
    for ai in range(len(ts)):
        for bi in range(ai + 1, len(ts)):
            a, b = ts[ai], ts[bi]
            h = tails_equal_horizon(a, b)
            wa, wb = a.window(h), b.window(h)
            diffs = [k for k in range(1, h + 1) if wa[h - k] != wb[h - k]]
            if len(diffs) != 1:
                continue
            m = diffs[0]
            if flip_at(a, m) != b:
                continue
            if m - 1 not in head_matches(a.window(m - 1), nu):
                continue
            side = side_of_level(nu, m)
            if check_tau:
                k = 1 if side == "right" else 0
                if landing(a, nu)[k] != m or landing(b, nu)[k] != m:
                    continue
            lo, hi = a, b
            if str(b) < str(a):
                lo, hi = b, a
            out.append(Join(m, side, lo, hi))
    out.sort(key=lambda j: (j.level, str(j.low)))
    return out


def _oracle_pool(rng, nu):
    """Admissible tails, some flip partners at matched slots (so pairs
    join), a few arbitrary flips and a few repeats, shuffled."""
    pool = [random_tail(rng, nu) for _ in range(rng.randint(1, 6))]
    for t in list(pool):
        reach = len(t.transient) + rng.randint(0, 4)
        ks = head_matches(t.window(reach), nu)
        for k in rng.sample(ks, min(len(ks), rng.randint(0, 2))):
            pool.append(flip_at(t, k + 1))
        if rng.random() < 0.3:
            pool.append(flip_at(t, rng.randint(1, 8)))
    pool += [rng.choice(pool) for _ in range(rng.randint(0, 2))]
    rng.shuffle(pool)
    return pool


def test_boundary_pairs_agree_with_reference():
    rng = random.Random(7)
    exact = [GOLD, FULL, SQ2] + [KneadingSequence(parse_right(t)) for t in ("(1001)", "100(1)")]
    nus = exact + [random_kneading(rng, rng.randint(6, 14)) for _ in range(6)] + [figure_nu()]
    joins = 0
    for n in range(2000):
        nu = nus[n % len(nus)]
        pool = _oracle_pool(rng, nu)
        if nu is nus[-1] and n % 2:
            pool += rng.sample(figure_tails(), 6)
        check_tau = n % 3 == 0
        got = boundary_pairs(pool, nu, check_tau=check_tau)
        assert got == ref_boundary_pairs(pool, nu, check_tau), ([str(t) for t in pool], str(nu))
        joins += len(got)
    # the pools are rich in joins, not a vacuous agreement
    assert joins > 2000


def test_orbit_ranks_agree_with_orbit_compare():
    # one sort orders every pair as orbit_compare does; a truncated nu
    # raises when it leaves any pair undecided or an index is past it
    exact, truncated = _orbit_nus()
    rng = random.Random(37)
    shapes = set()
    for nu in exact + truncated:
        assert orbit_ranks([], nu) == {}
        span = len(nu.seq.preperiod) + len(nu.seq.period)
        top = 3 * span + 2 if nu.exact else int(nu.validated_depth) + 1
        for _ in range(60):
            idx = rng.sample(range(1, top + 1), rng.randint(1, min(top, 12)))
            pairs = {(i, j): _outcome(orbit_compare, i, j, nu) for i in idx for j in idx}
            got = _outcome(orbit_ranks, idx, nu)
            beyond = [c for c in pairs.values() if isinstance(c, tuple)]
            if beyond:
                assert got == beyond[0], (str(nu), idx)
                shape = "beyond"
            elif all(c.decided for c in pairs.values()):
                assert sorted(set(got.values())) == list(range(len(set(got.values())))), (str(nu), idx)
                for (i, j), c in pairs.items():
                    assert int(c.order) == (got[i] > got[j]) - (got[i] < got[j]), (str(nu), i, j)
                shape = len(set(got.values())) < len(idx)
            else:
                d = int(nu.validated_depth)
                assert got[0] == "ambiguous" and got[2] == d, (str(nu), idx)
                assert got[1].endswith(f"agree over validated depth {d}"), got
                shape = "undecided"
            shapes.add((nu.exact, shape))
    # exact nus with equal points sharing a rank, and cut nus that order,
    # that leave a pair undecided and that stop short of an index
    assert {(True, True), (True, False), (False, False), (False, "undecided"), (False, "beyond")} <= shapes


# ------------------------------------------------ landing-index references
# the bodies that read a tail's matches before the match set was handed
# over by the scan that admits the arc


def ref_match_data(tail, nu, ks):
    t0, step = _joint(tail, nu)
    ms = [k + 1 for k in ks]
    pclass = {n: parity(nu.expand(n - 1)) for n in ms}
    inf = set()
    if nu.exact:
        mset = set(ms)
        blk = nu.seq.expand(len(nu.seq.preperiod) + step)[len(nu.seq.preperiod) :]
        delta = parity(blk)
        for n in ms:
            if n > t0 and n + step in mset:
                if delta:
                    inf |= {0, 1}
                else:
                    inf.add(pclass[n])
    return ms, pclass, inf


def ref_landing(tail, nu, ks):
    ms, pc, inf = ref_match_data(tail, nu, ks)
    ev = [n for n in ms if pc[n] == 0]
    od = [n for n in ms if pc[n] == 1 and n > 1]
    tr = TAU_INF if 0 in inf else max(ev)
    tl = TAU_INF if 1 in inf else (max(od) if od else None)
    return tl, tr, ev, od


# the orbit order before orbit_ranks: an orbit comparison a truncated nu
# could not decide counted as EQUAL, and the layout merged the two
# points; each such comparison is noted in MERGED
MERGED = []


def _orbit_cmp_merge(i, j, nu):
    c = orbit_compare(i, j, nu)
    if not c.decided:
        MERGED.append((i, j))
    return c.order if c.decided else Order.EQUAL


def merged_outcome(f, *args):
    """``_outcome`` of a reference, and whether it merged two points."""
    MERGED.clear()
    return _outcome(f, *args), bool(MERGED)


def ref_resolve_x(indices, nu, mode="rank", slope=None):
    """resolve_x with the pairwise insertion grouping of its rank mode."""
    if mode != "rank":
        return resolve_x(indices, nu, mode=mode, slope=slope)
    groups = []
    for i in sorted(set(indices)):
        for gi, g in enumerate(groups):
            order = _orbit_cmp_merge(i, g[0], nu)
            if order is Order.EQUAL:
                g.append(i)
                break
            if order is Order.LESS:
                groups.insert(gi, [i])
                break
        else:
            groups.append([i])
    count = len(groups)
    return {i: Fraction(gi, count - 1) if count > 1 else Fraction(0) for gi, g in enumerate(groups) for i in g}


def ref_landing_projection(tail, nu, ks):
    tl, tr, ev, od = ref_landing(tail, nu, ks)
    hi = ev[0]
    for n in ev[1:]:
        if _orbit_cmp_merge(n, hi, nu) is Order.LESS:
            hi = n
    if od:
        lo = od[0]
        for n in od[1:]:
            if _orbit_cmp_merge(n, lo, nu) is Order.GREATER:
                lo = n
    else:
        lo = 2
    _orbit_cmp_merge(lo, hi, nu)  # the degenerate flag's comparison
    return Projection(lo, hi, tl, tr)


def ref_window_projection(word, nu):
    """window_projection when it scanned the word itself."""
    tl, tr = None, 1
    for k in head_matches(word, nu):
        if 0 < k < nu.validated_depth:
            if parity(nu.expand(k)) == 0:
                tr = k + 1
            else:
                tl = k + 1
    lo = tl if tl is not None else 2
    _orbit_cmp_merge(lo, tr, nu)  # the degenerate flag's comparison
    return Projection(lo, tr, tl, tr)


def oracle_pool_nus(rng):
    """The nus of test_boundary_pairs_agree_with_reference, slopes cut at
    64 symbols, and nus validated past their stored word, where periodic
    tails match deeper than their match window."""
    exact = [GOLD, FULL, SQ2] + [KneadingSequence(parse_right(t)) for t in ("(1001)", "100(1)")]
    cut = [kneading_from_slope.__wrapped__(s, max_iter=64) for s in (1.62, 1.77, 1.85, 1.93)]
    past = [KneadingSequence(parse_right(t), validated_depth=float(d)) for t, d in (("(101)", 20), ("(1001)", 30))]
    return exact + cut + past + [random_kneading(rng, rng.randint(6, 14)) for _ in range(6)] + [figure_nu()]


def test_landing_projection_agrees_with_reference():
    # where the merge met no comparison nu leaves undecided the extents
    # are identical; where it met one, the rank table raises
    rng = random.Random(41)
    nus = oracle_pool_nus(rng)
    shapes = set()
    # and nu (1), whose one tail matches both classes forever
    cases = [(nus[n % len(nus)], None) for n in range(600)] + [(KneadingSequence("(1)"), [parse_left("(1).")])]
    for nu, pool in cases:
        for t, scan in scan_tails(pool or _oracle_pool(rng, nu), nu).items():
            ks = scan.landing
            assert _landing(t, nu, ks) == ref_landing(t, nu, ks), (str(t), str(nu))
            got = _outcome(landing_projection, t, nu, ks)
            want, merged = merged_outcome(ref_landing_projection, t, nu, ks)
            if merged:
                assert isinstance(got, tuple) and got[0] == "ambiguous", (str(t), str(nu))
            else:
                assert got == want, (str(t), str(nu))
            ev, od = ref_landing(t, nu, ks)[2:]
            shapes.add((nu.exact, len(ev) > 1, len(od) > 1, merged,
                        got[0] if isinstance(got, tuple) else "projection"))
    # min and max choose among several candidates on each side, exact or
    # cut, and a cut nu gives extents, merged ones that now raise, and
    # indices past its validated depth
    assert {(e, True) for e in (True, False)} <= {(s[0], s[2]) for s in shapes}
    assert {(e, True) for e in (True, False)} <= {(s[0], s[1]) for s in shapes}
    assert {(False, "projection"), (True, "ambiguous"), (False, "ambiguous")} <= {s[3:] for s in shapes if not s[0]}


def test_scan_tails_agrees_with_reference():
    # each entry against the references of its two cuts: the landing
    # matches of the match window, and the join window of the longest
    # transient with its matches; a tail holding * is never an arc
    rng = random.Random(43)
    nus = oracle_pool_nus(rng)
    shapes = set()
    for n in range(400):
        nu = nus[n % len(nus)]
        pool = _oracle_pool(rng, nu)
        if nu is nus[-1] and n % 2:
            pool += rng.sample(figure_tails(), 4)
        if n % 5 == 0:
            pool.append(parse_left(rng.choice(["(1*).", "(01)*1.", "(*).", "(10)*."])))
        if n % 3 == 0:
            # nu's own period matches deep; a far partner lifts the reach
            # past its match window
            per = LeftTail(nu.seq.period)
            pool += [per, flip_at(per, rng.randint(8, 24))]
        scans = scan_tails(pool, nu)
        assert list(scans) == list(dict.fromkeys(pool))
        reach = max(len(t.transient) for t in pool)
        for t, scan in scans.items():
            m = ref_match_window(t, nu)
            assert scan.landing == ref_head_matches(t.window(m), nu), (str(t), str(nu))
            assert scan.window == t.window(reach), (str(t), str(nu))
            assert scan.joins == ref_head_matches(scan.window, nu), (str(t), str(nu))
            assert scan.admissible == (ref_admissible_tail(t, nu) and "*" not in str(t)), (str(t), str(nu))
            shapes.add(((reach > m) - (reach < m), reach > nu.validated_depth, scan.admissible,
                        any(k > m for k in scan.joins)))
    # the reach above and below the match window, a truncated nu
    # validated below the reach, admissible tails and not, and join
    # matches past the match window that the landing cut drops
    assert {1, -1} <= {s[0] for s in shapes}
    assert True in {s[1] for s in shapes}
    assert {True, False} <= {s[2] for s in shapes}
    assert True in {s[3] for s in shapes}


def test_star_tail_is_admissible_but_never_an_arc():
    # is_admissible_tail ranks * between 0 and 1 and passes (1*).; the
    # arc scan and the scene refuse it
    star = parse_left("(1*).")
    for text in ("1(0)", "(101)", "(10)"):
        nu = kneading_from_text(text)
        assert is_admissible_tail(star, nu), text
        assert not scan_tails([star], nu)[star].admissible, text
        with pytest.raises(NotAdmissible, match=r"^tail \(1\*\)\. is not admissible$"):
            build_scene(nu, "(1).", tails=[star])


def test_one_tail_scan_per_distinct_tail(monkeypatch):
    scanned = []

    def counted(tail, *args):
        scanned.append(tail)
        return tail_scan(tail, *args)

    monkeypatch.setattr("tentplane.arcs.tail_scan", counted)
    tails = figure_tails()
    assert len(set(tails)) == 12
    # check_tau reads each tail's landing matches from the same scan
    assert len(boundary_pairs(tails, figure_nu(), check_tau=True)) == 11
    assert len(scanned) == 12
    # repeats as tails, and in the scene also as text
    pool = tails + tails[:5]
    for build in (lambda: boundary_pairs(pool, figure_nu()),
                  lambda: build_scene(figure_nu(), "(1).", tails=pool + [str(t) for t in tails[5:]])):
        scanned.clear()
        build()
        assert sorted(map(str, scanned)) == sorted(map(str, tails))
