"""Subshift engine tests.

The hitting kernels are checked against a deliberately dumb oracle that
enumerates *every* word of length n+|v| (all completions, not just the
zero-filled one) with its own hand-rolled gap predicates.  That is the
ground truth for the zero-fill exactness claim.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.errors import (
    CapExceeded,
    ConfigError,
    HorizonExhausted,
    PreconditionError,
)
from shiftlab import subshift
from shiftlab.dynamics import (
    check_a_transitive,
    check_delta_a_transitive,
    sweep_cylinders,
)
from shiftlab.intset import (
    ArithmeticProgression,
    DifferenceOf,
    DyadicBlocks,
    Naturals,
    Translate,
    Union,
    WindowedSet,
    materialize,
)
from shiftlab.points import _word_table
from shiftlab.subshift import (
    Cylinder,
    FullShift,
    Spacing,
    TripleRatio,
    Word,
    emptiness_certificate,
    enumerate_admissible_words,
    is_admissible,
    linear_hitting,
    parse_shift_rule,
)

FULL = FullShift()
EVENS = Spacing(ArithmeticProgression(2, 2))
DYADIC = Spacing(DyadicBlocks())
TR3 = TripleRatio(3)
# gaps {2, 3, ...}: a spacing rule with a single forbidden gap
SHIFT1 = Spacing(Translate(Naturals(), 1))


def cyl(text, offset=0):
    return Cylinder(Word.from_string(text), offset)


def hitting_window(rule, u, v, h):
    """N([u],[v]) on [1, h]: the batch of one that places u at 0 and v at n."""
    window, _ = linear_hitting(rule, [(0, u), (1, v)], h)
    return window


# ---------------------------------------------------------------------------
# oracle: independent gap predicates + exhaustive completion search


def _dyadic_member(g: int) -> bool:
    k = 1
    while True:
        lo, hi = 2 ** (2 * k - 1), 2 ** (2 * k) - 1
        if g < lo:
            return False
        if g <= hi:
            return True
        k += 1


ORACLE_PAIR = {
    "full": lambda g: True,
    "evens": lambda g: g % 2 == 0,
    "dyadic": _dyadic_member,
    "tr3": lambda g: g != 1,
    "shift1": lambda g: g >= 2,
}
# rules without an entry have no triple law
ORACLE_TRIPLE = {"tr3": lambda g1, g2: g2 != 2 * g1}
RULES = {"full": FULL, "evens": EVENS, "dyadic": DYADIC, "tr3": TR3, "shift1": SHIFT1}


def spectrum(w: Word) -> frozenset[int]:
    """All pairwise gaps between 1-positions (0 excluded)."""
    return frozenset(b - a for a, b in itertools.combinations(w.ones, 2))


def oracle_word_admissible(name: str, ones) -> bool:
    ones = sorted(ones)
    for a, b in itertools.combinations(ones, 2):
        if not ORACLE_PAIR[name](b - a):
            return False
    triple = ORACLE_TRIPLE.get(name)
    for a, b, c in itertools.combinations(ones, 3) if triple else ():
        if not triple(b - a, c - b):
            return False
    return True


def oracle_hitting(name: str, u: str, v: str, h: int) -> set[int]:
    """All n in [1,h] with SOME admissible word matching u at 0 and v at n."""
    hits = set()
    for n in range(1, h + 1):
        length = max(len(u), n + len(v))
        tpl = [-1] * length
        clash = False
        for i, ch in enumerate(u):
            tpl[i] = int(ch)
        for i, ch in enumerate(v):
            if tpl[n + i] not in (-1, int(ch)):
                clash = True
                break
            tpl[n + i] = int(ch)
        if clash:
            continue
        free = [i for i, t in enumerate(tpl) if t == -1]
        count = 1 << len(free)
        cand = np.zeros((count, length), dtype=bool)
        cand[:, [i for i, t in enumerate(tpl) if t == 1]] = True
        if free:
            bits = (np.arange(count)[:, None] >> np.arange(len(free))) & 1
            cand[:, free] = bits.astype(bool)
        good = np.ones(count, dtype=bool)
        for i, j in itertools.combinations(range(length), 2):
            if not ORACLE_PAIR[name](j - i):
                good &= ~(cand[:, i] & cand[:, j])
        if name == "tr3":
            for i, j, k in itertools.combinations(range(length), 3):
                if not ORACLE_TRIPLE[name](j - i, k - j):
                    good &= ~(cand[:, i] & cand[:, j] & cand[:, k])
        if good.any():
            hits.add(n)
    return hits


# ---------------------------------------------------------------------------
# words, spectrum, admissibility


def test_word_round_trip_and_validation():
    w = Word.from_string("10010")
    assert (w.length, w.ones) == (5, (0, 3))
    assert str(w) == "10010"
    with pytest.raises(ConfigError):
        Word.from_string("10a")
    with pytest.raises(ConfigError):
        Word.from_string("")
    with pytest.raises(ConfigError):
        Word(3, (0, 3))
    with pytest.raises(ConfigError):
        Word(0, ())


def test_spectrum_examples():
    assert spectrum(Word.from_string("10010")) == {3}
    assert spectrum(Word.from_string("1101")) == {1, 2, 3}
    assert spectrum(Word.from_string("00000")) == frozenset()


def test_is_admissible_examples():
    assert is_admissible(EVENS, Word.from_string("101"))
    assert not is_admissible(DYADIC, Word.from_string("10001"))
    w = Word(7, (0, 2, 6))  # gaps 2 then 4 = (3-1)*2
    assert not is_admissible(TR3, w)
    assert is_admissible(TR3, Word(7, (0, 3, 6)))
    assert not is_admissible(TR3, Word.from_string("11"))


@given(st.text(alphabet="01", min_size=1, max_size=12))
def test_spectrum_characterizes_spacing(text):
    w = Word.from_string(text)
    members = set(materialize(DyadicBlocks(), max(len(text) + 1, 2)))
    assert is_admissible(DYADIC, w) == (spectrum(w) <= members)


@given(st.sampled_from(sorted(RULES)), st.text(alphabet="01", min_size=1, max_size=10))
def test_downward_closure(name, text):
    w = Word.from_string(text)
    rule = RULES[name]
    if not is_admissible(rule, w):
        return
    for drop in range(len(w.ones)):
        ones = w.ones[:drop] + w.ones[drop + 1 :]
        assert is_admissible(rule, Word(w.length, ones))


@given(st.sampled_from(sorted(RULES)), st.text(alphabet="01", min_size=1, max_size=9))
def test_admissibility_matches_oracle(name, text):
    w = Word.from_string(text)
    assert is_admissible(RULES[name], w) == oracle_word_admissible(name, w.ones)


def test_admissibility_translation_invariant():
    # prepending zeros never changes the verdict
    for text in ("1", "1001", "10101", "1100001"):
        w = Word.from_string(text)
        padded = Word.from_string("00" + text)
        for rule in RULES.values():
            assert is_admissible(rule, w) == is_admissible(rule, padded)
            assert spectrum(w) == spectrum(padded)


def test_vectorized_admissibility_agrees_on_long_words():
    rng = np.random.default_rng(7)
    ones = tuple(sorted(rng.choice(4000, size=90, replace=False).tolist()))
    w = Word(4000, ones)
    for name, rule in RULES.items():
        assert is_admissible(rule, w) == oracle_word_admissible(name, ones)
    # an admissible long word whose every odd gap is forbidden: the pair scan
    # reads every diagonal
    assert is_admissible(EVENS, Word(8000, tuple(range(0, 8000, 2))))
    # a single forbidden gap in a long word, on a spacing rule: the pair scan
    # stops after the first diagonal
    assert is_admissible(SHIFT1, Word(8000, tuple(range(0, 8000, 2))))
    assert not is_admissible(SHIFT1, Word(8000, tuple(range(0, 7000, 2)) + (6999,)))
    # gaps 1..20 forbidden, so the scan stops after the first diagonal of
    # 70 ones; only the last two sit too close
    far = parse_shift_rule("spacing(shift(nat(),20))")
    ones = tuple(range(0, 1750, 25))
    assert is_admissible(far, Word(1750, ones))
    assert not is_admissible(far, Word(1750, ones[:-1] + (ones[-2] + 10,)))


# forbids only the gaps 300..400: the pair scan stops at the first diagonal
# whose least gap passes 400
ORACLE_PAIR["far"] = lambda g: not 300 <= g <= 400
LONG_RULES = {**RULES, "far": parse_shift_rule("spacing(union(range(1,299),shift(nat(),400)))")}


@st.composite
def long_configurations(draw):
    """65-200 ones, times 1 or 2, maybe plus a stray 1: consecutive gaps from
    one band, or the numbers whose base-4 digits are 0 or 2 (no three of them
    have c - b = 2(b - a), so tr3 admits them)."""
    m = draw(st.integers(65, 200))
    band = draw(st.sampled_from([None, (1, 2), (1, 4), (2, 16), (8, 64), (401, 600), (1, 600)]))
    step = draw(st.sampled_from([1, 2]))
    if band is None:
        ones = {2 * int(f"{i:b}", 4) for i in range(m)}
    else:
        gaps = draw(st.lists(st.integers(*band), min_size=m - 1, max_size=m - 1))
        ones = set(np.cumsum([0] + gaps).tolist())
    if draw(st.booleans()):
        ones.add(draw(st.integers(0, max(ones))))
    return sorted(step * x for x in ones)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LONG_RULES)), long_configurations())
def test_long_configuration_admissibility_matches_oracle(name, ones):
    w = Word(ones[-1] + 1, tuple(ones))
    assert is_admissible(LONG_RULES[name], w) == oracle_word_admissible(name, ones)


# ---------------------------------------------------------------------------
# superposition: cylinders placed at one coefficient move together


def test_co_moving_placements_superpose():
    # feasible unless one cylinder places a 1 on a 0 of another
    for cyls in ([cyl("10"), cyl("01", 2)], [cyl("101"), cyl("10", 2)]):
        window, analysis = linear_hitting(TR3, [(1, c) for c in cyls], 8)
        assert tuple(window) == tuple(range(1, 9)) and not analysis.constant_violations
    window, analysis = linear_hitting(FULL, [(1, cyl("1")), (1, cyl("0"))], 8)
    assert tuple(window) == ()
    assert analysis.constant_violations == ("co-moving cylinders clash 1-vs-0",)
    with pytest.raises(PreconditionError):
        linear_hitting(FULL, [], 8)


def test_co_moving_placements_zero_fill_gap():
    # the positions between the forced 1s stay 0: only the gap 5 is read
    window, _ = linear_hitting(TR3, [(1, cyl("1", -2)), (1, cyl("1", 3))], 8)
    assert tuple(window) == tuple(range(1, 9))
    # fixed gaps are listed before clashes: here 1s 3 apart, and "1" on the 0 of "0001"
    window, analysis = linear_hitting(EVENS, [(1, cyl("1")), (1, cyl("0001"))], 8)
    assert tuple(window) == ()
    assert analysis.constant_violations == (
        "fixed gap 3 between co-moving 1s is forbidden",
        "co-moving cylinders clash 1-vs-0",
    )


# ---------------------------------------------------------------------------
# hitting windows vs the exhaustive oracle


def test_hitting_window_examples():
    assert tuple(hitting_window(FULL, cyl("1"), cyl("1"), 5)) == (1, 2, 3, 4, 5)
    assert tuple(hitting_window(EVENS, cyl("1"), cyl("1"), 6)) == (2, 4, 6)
    got = hitting_window(DYADIC, cyl("1"), cyl("1"), 16)
    assert tuple(got) == (2, 3) + tuple(range(8, 16))
    assert set(got) == set(materialize(DyadicBlocks(), 17))


def test_hitting_window_rejects_bad_inputs():
    with pytest.raises(HorizonExhausted):
        hitting_window(FULL, cyl("1"), cyl("1"), 0)
    with pytest.raises(PreconditionError):
        hitting_window(EVENS, cyl("1", 1), cyl("1"), 4)  # one-sided offset
    with pytest.raises(PreconditionError):
        hitting_window(EVENS, cyl("11"), cyl("1"), 4)  # inadmissible word


def test_hitting_window_exhaustive_oracle_single_ones():
    for name in ("full", "evens", "dyadic", "shift1"):
        got = hitting_window(RULES[name], cyl("1"), cyl("1"), 18)
        assert set(got) == oracle_hitting(name, "1", "1", 18), name


def test_hitting_window_exhaustive_oracle_longer_words():
    cases = [
        ("evens", "101", "1"),
        ("evens", "1", "101"),
        ("dyadic", "100000001", "101"),
        ("shift1", "101", "1001"),
    ]
    for name, u, v in cases:
        got = hitting_window(RULES[name], cyl(u), cyl(v), 14)
        assert set(got) == oracle_hitting(name, u, v, 14), (name, u, v)


def test_hitting_window_tr3_matches_oracle():
    got = hitting_window(TR3, cyl("1"), cyl("1"), 12)
    assert set(got) == oracle_hitting("tr3", "1", "1", 12)
    got = hitting_window(TR3, cyl("101"), cyl("1001"), 11)
    assert set(got) == oracle_hitting("tr3", "101", "1001", 11)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(RULES)),
    st.text(alphabet="01", min_size=1, max_size=4),
    st.text(alphabet="01", min_size=1, max_size=4),
    st.integers(min_value=1, max_value=10),
)
def test_hitting_window_matches_exhaustive_oracle(name, u, v, h):
    rule = RULES[name]
    wu, wv = Word.from_string(u), Word.from_string(v)
    if not (is_admissible(rule, wu) and is_admissible(rule, wv)):
        return
    got = hitting_window(rule, Cylinder(wu), Cylinder(wv), h)
    assert set(got) == oracle_hitting(name, u, v, h)
    assert got.horizon == h + 1 and got.complete


def test_two_sided_hitting_translation_invariance():
    base = hitting_window(TR3, cyl("101"), cyl("1001"), 20)
    for shift in (-3, 2, 7):
        moved = hitting_window(TR3, cyl("101", shift), cyl("1001", shift), 20)
        assert tuple(moved) == tuple(base)


# ---------------------------------------------------------------------------
# multi / delta windows


def delta_window(rule, a, cylinders, h):
    """The window of n placing cylinders[0] at 0 and cylinders[i] at a_i n."""
    return linear_hitting(rule, list(zip((0, *a), cylinders)), h)


def multi_window(rule, a, pairs, h):
    """The n hitting every pair (u_i, v_i) at stride a_i, and the pairs' analyses."""
    hits = [linear_hitting(rule, [(0, u), (ai, v)], h) for ai, (u, v) in zip(a, pairs)]
    mask = np.logical_and.reduce([window.mask for window, _ in hits])
    return WindowedSet.from_mask(mask), [analysis for _, analysis in hits]


def test_multi_hitting_examples():
    pairs = [(cyl("1"), cyl("1")), (cyl("1"), cyl("1"))]
    assert tuple(multi_window(FULL, (1, 2), pairs, 3)[0]) == (1, 2, 3)
    got = multi_window(DYADIC, (2, 3), pairs, 10)[0]
    assert 4 in got
    assert tuple(multi_window(DYADIC, (1, 2), pairs, 200)[0]) == ()


def test_multi_hitting_cross_check_identity():
    h = 40
    cases = [
        (DYADIC, (2, 3), [(cyl("1"), cyl("1")), (cyl("1"), cyl("1"))]),
        (EVENS, (1, 3), [(cyl("101"), cyl("1")), (cyl("1"), cyl("101"))]),
        (TR3, (1, 2), [(cyl("101"), cyl("1")), (cyl("1001"), cyl("1"))]),
        (SHIFT1, (2, 3), [(cyl("101"), cyl("1")), (cyl("1"), cyl("1001"))]),
    ]
    for rule, a, pairs in cases:
        got = set(multi_window(rule, a, pairs, h)[0])
        expect = set(range(1, h + 1))
        for ai, (u, v) in zip(a, pairs):
            per = hitting_window(rule, u, v, ai * h)
            expect &= {n for n in range(1, h + 1) if ai * n in per}
        assert got == expect


def test_multi_hitting_validates_vector():
    with pytest.raises(PreconditionError, match="move with n"):
        linear_hitting(FULL, [(0, cyl("1")), (0, cyl("1"))], 5)
    with pytest.raises(PreconditionError, match=">= 0"):
        linear_hitting(FULL, [(0, cyl("1")), (-1, cyl("1"))], 5)


def test_delta_hitting_examples():
    cyls = [cyl("1"), cyl("1"), cyl("1")]
    assert tuple(delta_window(FULL, (1, 2), cyls, 3)[0]) == (1, 2, 3)
    assert tuple(delta_window(DYADIC, (1, 2), cyls, 300)[0]) == ()
    assert tuple(delta_window(TR3, (1, 3), cyls, 300)[0]) == ()
    with pytest.raises(PreconditionError, match="at least one placement"):
        linear_hitting(FULL, [], 5)


def test_delta_hitting_exhaustive_oracle():
    # delta with r=1 is a plain hitting window; check the r=2 full-shift case
    # and an evens case against first principles: positions {0, n, 2n} need
    # all three gaps n, n, 2n even.
    got, _ = delta_window(EVENS, (1, 2), [cyl("1")] * 3, 12)
    assert tuple(got) == (2, 4, 6, 8, 10, 12)
    got, _ = delta_window(TR3, (1, 2), [cyl("1")] * 3, 12)
    # positions {0, n, 2n}: g2 = n = ... forbidden iff n = 2n i.e. never; but
    # gap 1 kills n = 1
    assert tuple(got) == tuple(range(2, 13))


def test_delta_certificates():
    window, analysis = delta_window(TR3, (1, 3), [cyl("1")] * 3, 50)
    cert = emptiness_certificate(TR3, window, analysis, 50)
    assert cert is not None and cert["name"] == "triple-law"

    window, analyses = multi_window(
        DYADIC, (1, 2), [(cyl("1"), cyl("1")), (cyl("1"), cyl("1"))], 50
    )
    cert = emptiness_certificate(DYADIC, window, analyses, 50)
    assert cert is not None and cert["name"] == "parity-law"
    assert cert["gap_pair"] == [[1, 0], [2, 0]]

    window, analysis = delta_window(DYADIC, (1, 2), [cyl("1")] * 3, 50)
    cert = emptiness_certificate(DYADIC, window, analysis, 50)
    assert cert is not None and cert["name"] == "parity-law"

    # no certificate when the window is non-empty …
    window, analyses = multi_window(
        DYADIC, (2, 3), [(cyl("1"), cyl("1")), (cyl("1"), cyl("1"))], 50
    )
    assert emptiness_certificate(DYADIC, window, analyses, 50) is None
    # … or when emptiness is only observed, not structural
    window, analysis = delta_window(EVENS, (1, 2), [cyl("101")] * 3, 7)
    if not len(window):
        assert emptiness_certificate(EVENS, window, analysis, 7) is None


def test_constant_gap_certificate():
    # co-moving cylinders at the same coefficient with a forbidden fixed gap
    window, analysis = delta_window(
        EVENS, (2, 2), [cyl("1"), cyl("1"), cyl("001")], 30
    )
    assert tuple(window) == ()
    cert = emptiness_certificate(EVENS, window, analysis, 30)
    assert cert is not None and cert["name"] == "constant-gap"


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_examples():
    assert len(enumerate_admissible_words(FULL, 3)) == 8
    got = [str(w) for w in enumerate_admissible_words(EVENS, 3)]
    assert got == ["000", "001", "010", "100", "101"]
    got = [str(w) for w in enumerate_admissible_words(TR3, 2)]
    assert got == ["00", "01", "10"]
    with pytest.raises(CapExceeded):
        enumerate_admissible_words(FULL, 13)
    assert len(enumerate_admissible_words(FULL, 13, cap=13)) == 8192
    with pytest.raises(ConfigError):
        enumerate_admissible_words(FULL, 0)


@given(st.sampled_from(sorted(RULES)), st.integers(min_value=1, max_value=7))
def test_enumerate_agrees_with_admissibility_filter(name, length):
    rule = RULES[name]
    got = [str(w) for w in enumerate_admissible_words(rule, length)]
    expect = [
        "".join(bits)
        for bits in itertools.product("01", repeat=length)
        if oracle_word_admissible(name, [i for i, b in enumerate(bits) if b == "1"])
    ]
    assert got == sorted(expect)


@pytest.mark.parametrize("name", sorted(RULES))
def test_word_table_reads_the_enumerations_rows(name):
    # the greedy build's word table: texts and 1s per word, in build order
    rule = RULES[name]
    table = [(text, tuple(ones.tolist())) for text, ones in _word_table(rule, 8)]
    expect = [(str(w), w.ones) for n in range(1, 9) for w in enumerate_admissible_words(rule, n)]
    assert table == expect


# ---------------------------------------------------------------------------
# rule literals


def test_parse_shift_rule_round_trip():
    texts = (
        "full()",
        "spacing(dyadic())",
        "spacing(evens())",
        "tripleratio(3)",
        " spacing( union(range(2,3), ap(8,1)) ) ",
    )
    for text in texts:
        rule = parse_shift_rule(text)
        assert parse_shift_rule(rule.literal()) == rule
    for bad in ("", "full", "full(x)", "tripleratio()", "tripleratio(2)", "shift()"):
        with pytest.raises(ConfigError):
            parse_shift_rule(bad)


def test_large_window_spacing_consistency():
    # window for [1],[1] equals the spacing set itself — check far out
    h = 5000
    got = hitting_window(DYADIC, cyl("1"), cyl("1"), h)
    assert np.array_equal(got.mask, materialize(DyadicBlocks(), h + 1).mask)


# ---------------------------------------------------------------------------
# gap masks


def test_spacing_rejects_incomplete_set_rules():
    # A difference set is only sound on its window, so a gap mask cut from
    # it would grow with the bound asked for and a verdict would depend on
    # earlier queries.
    for text in ("spacing(diff(ap(1,3)))", "spacing(union(evens(), diff(dyadic())))"):
        with pytest.raises(ConfigError, match="complete"):
            parse_shift_rule(text)
    with pytest.raises(ConfigError):
        Spacing(Union((Naturals(), DifferenceOf(ArithmeticProgression(1, 3)))))
    # a complete rule answers the same on a fresh rule and after a wide mask
    fresh = hitting_window(parse_shift_rule("spacing(ap(1,3))"), cyl("1"), cyl("1"), 63)
    warm = parse_shift_rule("spacing(ap(1,3))")
    warm.pair_mask(200)
    assert tuple(hitting_window(warm, cyl("1"), cyl("1"), 63)) == tuple(fresh)


def test_rule_gap_masks_and_ratios():
    assert FULL.pair_mask(5)[1:6].all() and FULL.ratio is None
    assert TR3.pair_mask(5)[1:6].tolist() == [False, True, True, True, True]
    assert TR3.ratio == 2 and TripleRatio(5).ratio == 4
    assert EVENS.pair_mask(6)[1:7].tolist() == [False, True, False, True, False, True]
    assert SHIFT1.pair_mask(4)[1:5].tolist() == [False, True, True, True]
    assert EVENS.ratio is None and SHIFT1.ratio is None
    # every gap past a rule's last forbidden gap is allowed
    for rule in (FULL, TR3, TripleRatio(7)):
        assert rule.pair_mask(300)[rule.last_forbidden_gap + 1 : 301].all()
    assert EVENS.last_forbidden_gap == SHIFT1.last_forbidden_gap == float("inf")


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(RULES) + ["sparse5"]),
    # a few constraints, or many that repeat (coef, delta) pairs: the mask is
    # sliced once per distinct pair
    st.one_of(
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 12)), max_size=5),
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 12)), min_size=40, max_size=60
        ),
    ),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=400),
    st.lists(st.integers(min_value=0, max_value=450), max_size=3),
)
def test_affine_gap_window_matches_direct_scan(name, starts, lo, width, excluded):
    # sparse5 forbids the gaps {1, 4, 5, 6, 7}
    rule = RULES.get(name) or parse_shift_rule("spacing(union(range(2,3),ap(8,1)))")
    allowed = ORACLE_PAIR.get(name, lambda g: g in (2, 3) or g >= 8)
    # each constraint's first gap (at n = lo) is small, where gaps are forbidden
    constraints = [(c, first - c * lo) for c, first in starts]
    hi = lo + width
    got = np.ones(width + 1, dtype=bool)
    subshift.affine_gap_window(
        rule,
        np.array([c for c, _ in constraints], dtype=np.int64),
        np.array([d for _, d in constraints], dtype=np.int64),
        lo,
        got,
        excluded,
    )
    want = [
        n not in excluded and all(allowed(c * n + d) for c, d in constraints)
        for n in range(lo, hi + 1)
    ]
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# the batched kernel


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(RULES)),
    st.integers(min_value=1, max_value=4),
    st.one_of(
        st.tuples(st.integers(min_value=1, max_value=2)),
        st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True).map(sorted),
    ),
    st.integers(min_value=1, max_value=20),
    st.sampled_from([1, 3]),
    st.randoms(use_true_random=False),
)
def test_batch_rows_equal_batches_of_one(name, length, a, h, rows, rnd):
    rule = RULES[name]
    cylinders = sweep_cylinders(rule, length)
    coefs = (0, *a)
    tuples = list(itertools.product(range(len(cylinders)), repeat=len(coefs)))
    picked = rnd.sample(tuples, min(len(tuples), rnd.randint(1, 10)))
    got = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subshift, "chunk_rows", lambda row_bytes: rows)
        batches = subshift.hitting_batches(rule, coefs, cylinders, picked, h)
        for start, masks, analysis in batches:
            assert start % rows == 0 and len(masks) == min(rows, len(picked) - start)
            for i, mask in enumerate(masks):
                got[picked[start + i]] = (mask.tolist(), analysis(i))
    assert len(got) == len(picked)
    # past n_star the placed words of different coefficients never overlap
    n_star = max((length - 1) // (cj - ci) + 1 for ci, cj in itertools.combinations(coefs, 2))
    for tup in sorted(picked):
        placements = [(c, cylinders[w]) for c, w in zip(coefs, tup)]
        window, analysis = linear_hitting(rule, placements, h)
        assert got[tup] == (window.mask.tolist(), analysis)
        assert analysis.n_star == min(n_star, h)
        if len(a) == 1 and a[0] * h <= 12:
            u, v = (str(cylinders[w].word) for w in tup)
            hits = oracle_hitting(name, u, v, a[0] * h)
            assert set(window) == {n for n in range(1, h + 1) if a[0] * n in hits}


def _proof(outcome) -> dict | None:
    cert = (outcome.detail or {}).get("certificate")
    return None if cert is None else {k: v for k, v in cert.items() if k != "checked_horizon"}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(RULES)),
    st.integers(min_value=1, max_value=2),
    st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True).map(sorted),
    st.booleans(),
    st.data(),
)
def test_sweep_proofs_and_witnesses_stable_as_horizon_grows(name, length, a, delta, data):
    # a fresh rule: its gap mask is built by these two sweeps alone
    rule = parse_shift_rule(RULES[name].literal())
    strides = [(0, *a)] if delta else [(0, ai) for ai in a]
    pairs = [pair for s in strides for pair in itertools.combinations(s, 2)]
    n_star = max((length - 1) // (cj - ci) + 1 for ci, cj in pairs)
    horizons = st.lists(st.integers(n_star, 4 * n_star), min_size=2, max_size=2)
    low, high = sorted(data.draw(horizons))
    sweep = check_delta_a_transitive if delta else check_a_transitive
    reports = sweep(rule, a, length, low), sweep(rule, a, length, high)
    for small, large in zip(*(r.outcomes for r in reports)):
        assert small.words == large.words
        # certificates are the sweep's proofs: no n >= 1 ever hits
        assert _proof(small) == _proof(large)
        if small.witness is not None:
            assert large.witness == small.witness
