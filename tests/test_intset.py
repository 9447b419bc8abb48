import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.errors import CapExceeded, ConfigError, ShiftLabError
from shiftlab.families import parse_family_spec
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
    _fft_error_bound,
    _smooth_length,
    _transform_length,
    congruence_structures,
    cross_difference,
    cross_differences,
    difference_set,
    doubling_free_certificate,
    materialize,
    parse_set_rule,
)
from shiftlab.subshift import parse_shift_rule


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
        lambda h: st.one_of(
            st.lists(st.booleans(), min_size=h, max_size=h),
            st.just([False] * h),
            st.just([True] * h),
        )
    ),
    st.integers(-5, 90),
    st.booleans(),
)
def test_window_agrees_with_set_oracle(bits, n, complete):
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


def test_window_mask_is_read_only():
    w = ws([1, 3], 5)
    with pytest.raises(ValueError):
        w.mask[2] = True
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
# the difference kernel


def slice_or(base, shifts, lags=None):
    """Bits d in [1, lags) with base[d + s] for some s in ``shifts``: one slice-OR per shift.

    ``lags`` defaults to the horizon of ``base``; lags past it are never set.
    """
    lags = base.size if lags is None else lags
    out = np.zeros(max(lags, base.size), dtype=bool)
    for s in shifts:
        if s < base.size:
            out[: base.size - s] |= base[s:]
    out[0] = False
    return out[:lags]


def assert_kernel_exact(base, shifts=None):
    """The kernel's bits equal the slice-OR oracle, and its raw error stays in its bound.

    ``shifts`` is a subtrahend mask of any horizon; None correlates ``base``
    with itself, as difference_set does.
    """
    h = base.size
    sub = base if shifts is None else shifts
    minuend = WindowedSet.from_mask(base)
    if shifts is None:
        got = difference_set(minuend)
    else:
        got = cross_difference(WindowedSet.from_mask(shifts), minuend)
    assert np.array_equal(got.mask, slice_or(base, np.flatnonzero(sub)))
    assert not got.complete
    m_sub, m_min = int(sub.sum()), int(base.sum())
    n = _transform_length(h, max(h, sub.size), m_sub, m_min)
    raw = np.fft.irfft(np.conj(np.fft.rfft(sub, n)) * np.fft.rfft(base, n), n)[:h]
    bound = _fft_error_bound(n, m_min, m_sub)
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
@example(np.array([1, 0, 1, 0, 0], dtype=bool))  # 2h - 1 = 9 is 3-smooth
@example(np.array([1, 0, 0, 1, 0, 0], dtype=bool))
@example(np.array([1], dtype=bool))
def test_autocorrelation_matches_the_slice_or_oracle(base):
    assert_kernel_exact(base)


@settings(max_examples=300)
@given(shaped_masks(120), shaped_masks(160))
@example(np.array([0, 0, 1, 0, 0], dtype=bool), np.array([1, 0, 1], dtype=bool))
@example(np.array([1, 0, 0, 1], dtype=bool), np.array([1, 0, 0, 0, 0, 0, 1], dtype=bool))
def test_cross_correlation_matches_the_slice_or_oracle(minuend, subtrahend):
    assert_kernel_exact(minuend, subtrahend)


@settings(max_examples=8, deadline=None)
@given(st.integers(20_000, 60_000), st.floats(0.25, 0.5), st.integers(0, 2**32 - 1), st.booleans())
def test_large_windows_match_the_slice_or_oracle(h, density, seed, auto):
    rng = np.random.default_rng(seed)
    base = rng.random(h) < density
    shifts = None if auto else rng.random(h + 500) < density
    assert_kernel_exact(base, shifts)


def test_public_kernels_match_the_slice_or_oracle():
    rng = np.random.default_rng(7)
    a = WindowedSet.from_mask(rng.random(3000) < 0.3)
    b = WindowedSet.from_mask(rng.random(2500) < 0.3)
    for got, minuend, sub in [
        (difference_set(a), a, a),
        (cross_difference(a, b), b, a),
        (cross_difference(b, a), a, b),
    ]:
        assert got.horizon == minuend.horizon and not got.complete
        assert np.array_equal(got.mask, slice_or(minuend.mask, sub.values))


@st.composite
def windows_and_hcmp(draw):
    masks = draw(st.lists(shaped_masks(200), min_size=1, max_size=4))
    return masks, draw(st.integers(0, max(m.size for m in masks) // 2))


@settings(max_examples=200, deadline=None)
@given(windows_and_hcmp())
# lags + span - 1 = 9 is 3-smooth: lag 3 of member 5 reaches index 8, the
# first that would wrap onto member 0 at a shorter transform
@example(([np.array([0, 0, 0, 0, 0, 1], dtype=bool), np.array([1, 0, 0, 0, 0, 1], dtype=bool)], 3))
@example(([np.ones(7, dtype=bool), np.array([1, 0, 1], dtype=bool)], 3))
def test_shared_spectra_match_the_slice_or_oracle_up_to_hcmp(windows_hcmp):
    masks, h_cmp = windows_hcmp
    windows = [WindowedSet.from_mask(m) for m in masks]
    pairs = [(i, j) for i in range(len(masks)) for j in range(len(masks))]
    differences = cross_differences(windows, pairs, h_cmp + 1)
    # taken first: a mask must survive the later calls that reuse the buffers
    got = {(i, j): differences(i, j) for i, j in pairs}
    for i, j in pairs:
        want = slice_or(masks[j], np.flatnonzero(masks[i]), h_cmp + 1)
        assert np.array_equal(got[i, j], want)


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
            st.just(h), st.integers(1, h), st.integers(0, h), st.integers(0, h)
        )
    ),
)
@example((10**12, 10**12, 10**11, 10**11))
@example((10**12, 10**12, 10**9, 10**9))
def test_inexact_transform_length_is_refused(sizes):
    # pure arithmetic on the sizes: no mask of h bits is built
    h, lags, m_sub, m_min = sizes
    n = _smooth_length(lags + h - 1)
    if _fft_error_bound(n, m_min, m_sub) >= _FFT_ERROR_LIMIT:
        with pytest.raises(CapExceeded, match="error bound"):
            _transform_length(lags, h, m_sub, m_min)
    else:
        assert _transform_length(lags, h, m_sub, m_min) == n


def test_error_bound_stays_below_1_5e_3_under_the_cost_cap():
    # every power-of-two horizon H, subtrahend count and minuend count the cap
    # admits, at the longest lag window and the shortest (verify --prop nuv)
    worst = 0.0
    for a in range(_DIFFERENCE_COST_CAP.bit_length()):
        h = 1 << a
        for lags in (h // 2 + 1, h):
            n = _smooth_length(lags + h - 1)
            for b in range(a + 1):
                if h << b > _DIFFERENCE_COST_CAP:
                    break
                for c in range(a + 1):
                    worst = max(worst, _fft_error_bound(n, 1 << c, 1 << b))
    assert 1e-3 < worst < 1.5e-3


def test_error_bound_reaches_the_limit_only_far_past_the_cap():
    assert _fft_error_bound(_smooth_length(10**12), 10**11, 10**11) >= _FFT_ERROR_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="error bound"):
            _transform_length(10**13, 10**13, 10**12, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def no_transform(*args, **kwargs):
    raise AssertionError("a transform was taken")


def test_cap_is_checked_before_any_transform(monkeypatch):
    monkeypatch.setattr(np.fft, "rfft", no_transform)
    h = 2**17 + 1
    dense = WindowedSet.from_mask(np.ones(h, dtype=bool))
    with pytest.raises(CapExceeded, match=f"difference set of {h} members at horizon {h} exceeds"):
        difference_set(dense)
    with pytest.raises(CapExceeded, match="cross difference exceeds the kernel cost cap"):
        cross_difference(dense, dense)
    with pytest.raises(CapExceeded, match="cross difference exceeds the kernel cost cap"):
        cross_differences([ws([1], 2), dense], [(0, 1), (1, 1)], 2)


def test_bound_at_the_limit_is_refused_before_any_transform(monkeypatch):
    monkeypatch.setattr(np.fft, "rfft", no_transform)
    monkeypatch.setattr("shiftlab.intset._fft_error_bound", lambda *args: _FFT_ERROR_LIMIT)
    a, b = ws([1, 4], 10), ws([2, 6], 10)
    for call in (
        lambda: difference_set(a),
        lambda: cross_difference(a, b),
        lambda: cross_differences([a, b], [(0, 1)], 3),
    ):
        with pytest.raises(CapExceeded, match="error bound 0.25 at transform length"):
            call()


def test_fft_difference_set_near_a_million_holds_two_transform_arrays():
    rng = np.random.default_rng(3)
    h, m = 10**6, 15_000
    mask = np.zeros(h, dtype=bool)
    mask[rng.choice(h, m, replace=False)] = True
    s = WindowedSet.from_mask(mask)
    n = _transform_length(h, h, m, m)
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


def spaced(text, gaps):
    """``text`` with gaps[i] before its i-th token; integers stay one token."""
    tokens = re.findall(r"[a-z]+|-?\d+|[(),;]", text)
    return "".join(g + t for g, t in zip(itertools.cycle(gaps), tokens + [""]))


whitespace = st.lists(st.sampled_from(["", " ", "  ", "\t", "\n "]), min_size=1)

leaf_calls = st.one_of(
    st.builds(
        lambda a, w: (f"range({a},{a + w})", Range(a, a + w)),
        st.integers(1, 30), st.integers(0, 30),
    ),
    st.builds(
        lambda a, d: (f"ap({a},{d})", ArithmeticProgression(a, d)),
        st.integers(1, 10), st.integers(1, 8),
    ),
    st.just(("dyadic()", DyadicBlocks())),
    st.just(("nat()", Naturals())),
    st.just(("evens()", ArithmeticProgression(2, 2))),
    st.lists(st.integers(1, 60), min_size=1, max_size=4, unique=True).map(
        lambda vs: (f"explicit({','.join(map(str, sorted(vs)))})", Explicit(tuple(sorted(vs))))
    ),
)


def rule_calls(depth=4):
    """(literal, rule) over all ten set-rule names, nested at most ``depth`` deep."""
    if depth == 1:
        return leaf_calls
    sub = rule_calls(depth - 1)
    some = st.lists(sub, min_size=1, max_size=3)

    def joined(name, cls):
        return lambda cs: (f"{name}({','.join(t for t, _ in cs)})", cls(tuple(r for _, r in cs)))

    return st.one_of(
        leaf_calls,
        some.map(joined("union", Union)),
        some.map(joined("inter", Intersection)),
        st.builds(lambda c, n: (f"shift({c[0]},{n})", Translate(c[1], n)), sub, st.integers(-10, 10)),
        sub.map(lambda c: (f"diff({c[0]})", DifferenceOf(c[1]))),
    )


@settings(max_examples=200)
@given(rule_calls(), whitespace)
def test_random_rule_literals_round_trip(call, gaps):
    text, rule = call
    assert parse_set_rule(text) == rule
    assert hash(parse_set_rule(text)) == hash(rule)
    assert parse_set_rule(rule.literal()) == rule
    assert parse_set_rule(spaced(text, gaps)) == rule


LITERAL_NAMES = [
    "range", "ap", "dyadic", "nat", "evens", "explicit", "union", "inter", "shift", "diff",
    "full", "spacing", "tripleratio", "thick", "syndetic", "cofinite", "nabla", "fa", "fsa",
    "finfty",
]
literal_noise = st.lists(
    st.sampled_from(LITERAL_NAMES + list("0123456789(),;-+_ ")), max_size=30
).map("".join)


@pytest.mark.parametrize("parse", [parse_set_rule, parse_shift_rule, parse_family_spec])
@settings(max_examples=300)
@given(text=literal_noise)
def test_any_text_parses_or_raises_a_package_error(parse, text):
    try:
        parse(text)
    except ShiftLabError:
        pass


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
