import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.errors import CapExceeded, ConfigError, HorizonExhausted
from shiftlab.intset import (
    _DIFFERENCE_COST_CAP,
    _FFT_ERROR_LIMIT,
    ArithmeticProgression,
    CongruenceStructure,
    DifferenceOf,
    DyadicBlocks,
    Explicit,
    Intersection,
    Naturals,
    Range,
    SetRule,
    Translate,
    Union,
    WindowedSet,
    _bigint_shifted_or,
    _fft_correlation,
    _fft_error_bound,
    _fft_shifted_or,
    _smooth_length,
    _use_fft,
    congruence_structures,
    cross_difference,
    difference_set,
    doubling_free_certificate,
    materialize,
    parse_set_rule,
)


def ws(members, horizon, complete=True):
    mask = np.zeros(horizon, dtype=bool)
    mask[list(members)] = True
    return WindowedSet.from_mask(mask, complete)


def doubling_conflicts(rule, h):
    """All n in [1, h] with both n and 2n members of the rule's set."""
    m = materialize(rule, 2 * h + 1).mask
    return tuple((np.flatnonzero(m[1 : h + 1] & m[2 : 2 * h + 1 : 2]) + 1).tolist())


# ---------------------------------------------------------------------------
# oracles


def oracle_difference(members):
    return sorted({a - b for a in members for b in members if a > b})


def oracle_dyadic(h):
    out = []
    k = 1
    while 2 ** (2 * k - 1) < h:
        out.extend(range(2 ** (2 * k - 1), min(2 ** (2 * k), h)))
        k += 1
    return out


# ---------------------------------------------------------------------------
# WindowedSet basics


def test_members_must_be_increasing_and_bounded():
    with pytest.raises(ConfigError):
        ws([], 0)


@settings(max_examples=200)
@given(
    st.integers(1, 80).flatmap(
        lambda h: st.tuples(
            st.one_of(
                st.lists(st.booleans(), min_size=h, max_size=h),
                st.just([False] * h),
                st.just([True] * h),
            ),
            st.integers(-3, h),
        )
    ),
    st.integers(-5, 90),
    st.booleans(),
)
def test_window_agrees_with_set_oracle(mask_and_cut, n, complete):
    bits, hi = mask_and_cut
    oracle = {i for i, b in enumerate(bits) if b}
    w = WindowedSet.from_mask(np.array(bits, dtype=bool), complete)
    assert w.horizon == len(bits)
    assert len(w) == len(oracle)
    assert list(w) == sorted(oracle)
    assert w.values.tolist() == sorted(oracle)
    assert w.first() == min(oracle, default=None)
    assert all(type(v) is int for v in w)
    for probe in (n, np.int64(n), np.int32(n)):
        assert (probe in w) == (n in oracle)
    if hi >= 1:
        cut = w.restrict(hi)
        assert cut.horizon == hi and cut.complete == w.complete
        assert set(cut) == {v for v in oracle if v < hi}
    else:
        with pytest.raises(ConfigError):
            w.restrict(hi)
    with pytest.raises(HorizonExhausted):
        w.restrict(len(bits) + 1)


def test_window_mask_is_read_only():
    w = ws([1, 3], 5)
    with pytest.raises(ValueError):
        w.mask[2] = True
    with pytest.raises(ValueError):
        w.restrict(4).mask[0] = True
    assert tuple(w) == (1, 3)


def test_dense_window_allocates_only_its_mask():
    mask = np.ones(10**6, dtype=bool)
    tracemalloc.start()
    try:
        w = WindowedSet.from_mask(mask)
        assert len(w) == 10**6 and w.first() == 0
        assert 999_999 in w and 10**6 not in w
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_membership_small_and_dense_paths():
    small = ws([1, 5], 100)
    assert 5 in small and 4 not in small and -1 not in small
    big = ws([1, 5000], 10000)
    assert 5000 in big and 4999 not in big


def test_membership_accepts_integer_like_values():
    s = ws([3, 5], 10)
    assert np.int64(3) in s and np.int32(5) in s and np.int64(4) not in s
    assert np.int64(5000) in ws([1, 5000], 10000)
    assert 3.0 not in s and "3" not in s


# ---------------------------------------------------------------------------
# materialize


def test_materialize_range():
    assert tuple(materialize(Range(2, 3), 10)) == (2, 3)


def test_materialize_dyadic_blocks_h20():
    got = materialize(DyadicBlocks(), 20)
    assert tuple(got) == (2, 3, 8, 9, 10, 11, 12, 13, 14, 15)
    assert tuple(got) == tuple(oracle_dyadic(20))


def test_materialize_progression():
    assert tuple(materialize(ArithmeticProgression(1, 2), 8)) == (1, 3, 5, 7)


def test_materialize_naturals_excludes_zero():
    assert tuple(materialize(Naturals(), 5)) == (1, 2, 3, 4)


def test_materialize_rejects_bad_rules():
    with pytest.raises(ConfigError):
        Range(4, 2)
    with pytest.raises(ConfigError):
        ArithmeticProgression(3, 0)
    with pytest.raises(ConfigError):
        materialize(Range(1, 2), 0)


def test_nesting_cap():
    rule: SetRule = Range(1, 2)
    for _ in range(20):
        rule = Union((rule,))
    with pytest.raises(CapExceeded):
        materialize(rule, 10)


# ---------------------------------------------------------------------------
# difference_set


def test_difference_examples():
    assert tuple(difference_set(ws([1, 3, 6], 7))) == (2, 3, 5)
    assert tuple(difference_set(ws([5], 7))) == ()
    evens = materialize(ArithmeticProgression(2, 2), 11)
    assert tuple(evens) == (2, 4, 6, 8, 10)
    d = difference_set(evens)
    assert tuple(d) == (2, 4, 6, 8)
    assert tuple(d) == tuple(oracle_difference(evens))
    assert not d.complete
    assert d.horizon == evens.horizon


@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=40, unique=True),
)
def test_difference_matches_pairwise_oracle(vals):
    members = tuple(sorted(vals))
    s = ws(members, 201)
    assert tuple(difference_set(s)) == tuple(oracle_difference(members))


def test_cross_difference():
    a = ws([1, 4], 10)
    b = ws([2, 6], 10)
    # {b - a : b in B, a in A, b > a} = {2-1, 6-1, 6-4} = {1, 2, 5}
    assert tuple(cross_difference(a, b)) == (1, 2, 5)


# ---------------------------------------------------------------------------
# the two paths of the difference kernel


def assert_paths_agree(base, shifts=None):
    """Both kernel paths give the same bits, and the FFT error stays in its bound.

    ``shifts`` is a subtrahend mask of any horizon; None correlates ``base``
    with itself, as difference_set does.
    """
    h = base.size
    members = np.flatnonzero(base if shifts is None else shifts[:h])
    fft_shifts = None if shifts is None else members
    big = _bigint_shifted_or(base, members.tolist())
    assert big.shape == base.shape
    assert np.array_equal(_fft_shifted_or(base, fft_shifts), big)
    raw = _fft_correlation(base, fft_shifts)
    top = int(members[-1]) if members.size else 0
    bound = _fft_error_bound(_smooth_length(h + top), int(base.sum()), members.size)
    assert float(np.abs(raw - np.round(raw)).max(initial=0.0)) <= bound < _FFT_ERROR_LIMIT


def shaped_masks(max_h):
    """Masks up to max_h long: random, empty, one member, the ends, all ones."""

    def shapes(h):
        ends = [False] * h
        ends[0] = ends[-1] = True
        one = st.integers(0, h - 1).map(lambda i: [j == i for j in range(h)])
        return st.one_of(
            st.lists(st.booleans(), min_size=h, max_size=h),
            st.just([False] * h),
            st.just([True] * h),
            st.just(ends),
            one,
        )

    return st.integers(1, max_h).flatmap(shapes).map(lambda bits: np.array(bits, dtype=bool))


@settings(max_examples=300)
@given(shaped_masks(120))
@example(np.array([1, 0, 1, 0, 0], dtype=bool))  # h + top - 1 = 6 is 3-smooth
@example(np.array([1, 0, 0, 1, 0, 0], dtype=bool))  # 8 is
@example(np.array([1], dtype=bool))
def test_autocorrelation_paths_agree(base):
    assert_paths_agree(base)


@settings(max_examples=300)
@given(shaped_masks(120), shaped_masks(160))
@example(np.array([0, 0, 1, 0, 0], dtype=bool), np.array([1, 0, 1], dtype=bool))
@example(np.array([1, 0, 0, 1], dtype=bool), np.array([1, 0, 0, 0, 0, 0, 1], dtype=bool))
def test_cross_correlation_paths_agree(minuend, subtrahend):
    assert_paths_agree(minuend, subtrahend)


@settings(max_examples=8, deadline=None)
@given(st.integers(20_000, 60_000), st.floats(0.25, 0.5), st.integers(0, 2**32 - 1), st.booleans())
def test_paths_agree_where_the_model_takes_fft(h, density, seed, auto):
    rng = np.random.default_rng(seed)
    base = rng.random(h) < density
    shifts = None if auto else rng.random(h + 500) < density
    members = np.flatnonzero(base if auto else shifts[:h])
    assert _use_fft(h, int(members[-1]), int(base.sum()), members.size, auto)
    assert_paths_agree(base, shifts)


def test_public_kernels_return_the_same_bits_on_both_paths(monkeypatch):
    rng = np.random.default_rng(7)
    a = WindowedSet.from_mask(rng.random(3000) < 0.3)
    b = WindowedSet.from_mask(rng.random(2500) < 0.3)
    outs = []
    for fft in (False, True):
        monkeypatch.setattr("shiftlab.intset._use_fft", lambda *args, fft=fft: fft)
        outs.append([difference_set(a), cross_difference(a, b), cross_difference(b, a)])
    for big, fft in zip(*outs):
        assert np.array_equal(big.mask, fft.mask) and not big.complete and not fft.complete


def test_smooth_length_is_the_least_3_smooth_at_or_above():
    def smooth(k):
        for p in (2, 3):
            while k % p == 0:
                k //= p
        return k == 1

    expected = [next(k for k in range(m, 2 * m + 1) if smooth(k)) for m in range(1, 3000)]
    assert [_smooth_length(m) for m in range(1, 3000)] == expected


@settings(max_examples=300)
@given(
    st.integers(1, 10**14).flatmap(
        lambda h: st.tuples(
            st.just(h), st.integers(0, h - 1), st.integers(0, h), st.integers(0, h)
        )
    ),
    st.booleans(),
)
@example((10**12, 10**12 - 1, 10**11, 10**11), False)
@example((10**12, 10**12 - 1, 10**9, 10**9), True)
def test_inexact_fft_is_never_chosen(sizes, auto):
    # pure arithmetic on the sizes: no mask of h bits is built
    h, top, m_base, m_shift = sizes
    if auto:
        m_shift = m_base
    bound = _fft_error_bound(_smooth_length(h + top), m_base, m_shift)
    if bound >= _FFT_ERROR_LIMIT:
        assert not _use_fft(h, top, m_base, m_shift, auto)


def test_error_bound_reaches_the_limit_only_far_past_the_cap():
    assert _fft_error_bound(_smooth_length(10**12), 10**11, 10**11) >= _FFT_ERROR_LIMIT
    # the largest inputs the cost cap admits stay far below it
    for m in (1, 2**10, 2**17):
        h = _DIFFERENCE_COST_CAP // m
        assert _fft_error_bound(_smooth_length(2 * h), m, m) < 1e-4
    tracemalloc.start()
    try:
        _use_fft(10**13, 10**13 - 1, 10**12, 10**12, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_real_call_shapes_take_the_measured_cheaper_path():
    # lemma-nuv: 168 of its 196 cross differences at h = 3584 have ~450 or
    # ~900 shifts; its 28 with 1792 shifts measured faster by FFT
    assert not _use_fft(3584, 3577, 1792, 448, False)
    assert not _use_fft(3584, 3577, 448, 448, False)
    assert not _use_fft(3584, 3577, 448, 896, False)
    # thm-wm-point: autocorrelations at h = 100,001 of ~25,000 members
    assert _use_fft(100_001, 100_000, 25_000, 25_000, True)
    # the points-families nuv job: h = 18,000 with 4,359 to 9,105 shifts
    assert _use_fft(17_999, 17_900, 4359, 4359, False)


def test_cap_is_checked_before_either_path(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("kernel reached past the cost cap")

    monkeypatch.setattr("shiftlab.intset._shifted_or", no_kernel)
    h = 2**17 + 1
    dense = WindowedSet.from_mask(np.ones(h, dtype=bool))
    with pytest.raises(CapExceeded, match=f"difference set of {h} members at horizon {h} exceeds"):
        difference_set(dense)
    with pytest.raises(CapExceeded, match="cross difference exceeds the kernel cost cap"):
        cross_difference(dense, dense)


def test_fft_difference_set_near_a_million_holds_two_transform_arrays():
    rng = np.random.default_rng(3)
    h, m = 10**6, 15_000
    mask = np.zeros(h, dtype=bool)
    mask[rng.choice(h, m, replace=False)] = True
    s = WindowedSet.from_mask(mask)
    top = int(s.values[-1])
    assert _use_fft(h, top, m, m, True)
    n = _smooth_length(h + top)
    tracemalloc.start()
    try:
        d = difference_set(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n
    assert d.horizon == h and len(d) > m


# ---------------------------------------------------------------------------
# rule grammar

CANONICAL = [
    ("range(2,3)", Range(2, 3)),
    ("ap(1,2)", ArithmeticProgression(1, 2)),
    ("dyadic()", DyadicBlocks()),
    ("nat()", Naturals()),
    ("evens()", ArithmeticProgression(2, 2)),
    ("explicit(1,3,6)", Explicit((1, 3, 6))),
    ("union(range(2,3),ap(1,2))", Union((Range(2, 3), ArithmeticProgression(1, 2)))),
    ("inter(nat(),evens())", Intersection((Naturals(), ArithmeticProgression(2, 2)))),
    ("shift(evens(),-1)", Translate(ArithmeticProgression(2, 2), -1)),
    ("diff(dyadic())", DifferenceOf(DyadicBlocks())),
]


@pytest.mark.parametrize("text,rule", CANONICAL)
def test_parse_canonical(text, rule):
    assert parse_set_rule(text) == rule


def test_parse_is_whitespace_insensitive():
    assert parse_set_rule(" union( range( 2 , 3 ) , dyadic( ) ) ") == Union(
        (Range(2, 3), DyadicBlocks())
    )


@pytest.mark.parametrize(
    "bad",
    ["", "range(2)", "range(2,3", "frobnicate()", "union()", "range(2,3)x", "ap(,2)"],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        parse_set_rule(bad)


def test_literals_round_trip():
    for text, rule in CANONICAL:
        if text == "evens()":
            continue  # sugar normalizes to ap(2,2)
        assert parse_set_rule(rule.literal()) == rule


# ---------------------------------------------------------------------------
# property tests over random rules

leaf_rules = st.one_of(
    st.builds(lambda a, w: Range(a, a + w), st.integers(1, 30), st.integers(0, 30)),
    st.builds(ArithmeticProgression, st.integers(1, 10), st.integers(1, 8)),
    st.just(DyadicBlocks()),
    st.just(Naturals()),
    st.builds(
        lambda vs: Explicit(tuple(sorted(set(vs)))),
        st.lists(st.integers(1, 60), min_size=1, max_size=6),
    ),
)


def complete_rules(depth=2):
    if depth == 0:
        return leaf_rules
    sub = complete_rules(depth - 1)
    return st.one_of(
        leaf_rules,
        st.builds(lambda a, b: Union((a, b)), sub, sub),
        st.builds(lambda a, b: Intersection((a, b)), sub, sub),
        st.builds(Translate, sub, st.integers(-10, 10)),
    )


@settings(max_examples=150)
@given(complete_rules(), st.integers(1, 80), st.integers(0, 80))
def test_window_monotonicity(rule, h1, extra):
    # Holds for every completeness-preserving rule; diff() is exempt by
    # design (see test_difference_rule_is_sound_but_not_monotone).
    h2 = h1 + extra
    small = materialize(rule, h1)
    large = materialize(rule, h2)
    assert tuple(small) == tuple(v for v in large if v < h1)
    assert small.complete and large.complete


def test_difference_rule_is_sound_but_not_monotone():
    rule = DifferenceOf(Explicit((2, 4)))
    assert tuple(materialize(rule, 3)) == ()
    assert tuple(materialize(rule, 5)) == (2,)  # new small member appears
    assert not materialize(rule, 5).complete


@settings(max_examples=60)
@given(complete_rules(), st.integers(2, 60))
def test_difference_of_rule_matches_op(rule, h):
    via_rule = materialize(DifferenceOf(rule), h)
    via_op = difference_set(materialize(rule, h))
    assert tuple(via_rule) == tuple(via_op)


# ---------------------------------------------------------------------------
# dyadic doubling law


def test_dyadic_parity_law_on_window():
    assert doubling_conflicts(DyadicBlocks(), 5000) == ()
    s = materialize(DyadicBlocks(), 5000)
    inside = [m for m in s if 2 * m < 5000]
    assert inside and all(2 * m not in s for m in inside)


def test_doubling_free_certificate_only_for_dyadic():
    cert = doubling_free_certificate(DyadicBlocks())
    assert cert is not None and cert["name"] == "parity-law"
    assert doubling_free_certificate(ArithmeticProgression(2, 2)) is None
    # evens genuinely double into themselves
    assert doubling_conflicts(ArithmeticProgression(2, 2), 50) != ()


# ---------------------------------------------------------------------------
# congruence structure


def test_congruences_of_evens():
    structs = congruence_structures(ArithmeticProgression(2, 2))
    mods = {c.modulus: c.residues for c in structs}
    assert mods[2] == frozenset({0})


def test_congruences_sound_on_window():
    rule = Union((ArithmeticProgression(3, 6), Explicit((1, 13))))
    s = materialize(rule, 400)
    for c in congruence_structures(rule):
        assert all(v % c.modulus in c.residues for v in s)


def test_congruences_unknown_for_dyadic():
    assert congruence_structures(DyadicBlocks()) == ()
