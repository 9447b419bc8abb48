import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.errors import ConfigError, PreconditionError
from shiftlab.families import (
    REFUTED,
    UNDETERMINED,
    WITNESSED,
    GridParams,
    fa_grid_report,
    family_window_report,
    parse_family_spec,
)
from shiftlab.intset import ArithmeticProgression, DyadicBlocks, WindowedSet, difference_set
from shiftlab.points import (
    build_transitive_point,
    champernowne,
    entering_window,
    periodic_point,
)
from shiftlab import dynamics, subshift
from shiftlab.subshift import (
    Cylinder,
    FullShift,
    Spacing,
    TripleRatio,
    Word,
    emptiness_certificate,
    enumerate_admissible_words,
    hitting_batches,
    is_admissible,
    linear_hitting,
    parse_shift_rule,
    unique_rows,
)
from shiftlab.dynamics import (
    FAILS_ON_WINDOW,
    SweepOutcome,
    _family_firsts,
    _index_tuples,
    _mask_ids,
    check_a_transitive,
    check_delta_a_transitive,
    check_transitive,
    point_diagnostic,
    sweep_cylinders,
    verify_delta_product,
    verify_nuv,
    verify_nuv_pairs,
    verify_orbit_closure_prop,
)

W = Word.from_string


def hitting_window(rule, u, v, h):
    """N([u],[v]) on [1, h]: the batch of one that places u at 0 and v at n."""
    window, _ = linear_hitting(rule, [(0, u), (1, v)], h)
    return window


def evens_rule():
    return Spacing(ArithmeticProgression(2, 2))


def dyadic_rule():
    return Spacing(DyadicBlocks())


RULE_TEXTS = ["full()", "spacing(dyadic())", "spacing(ap(2,2))", "tripleratio(3)"]


# ---------------------------------------------------------------------------
# check_transitive


def test_plain_full_shift():
    rep = check_transitive(FullShift(), 2, 16, "plain")
    assert rep.verdict == WITNESSED
    assert rep.stats["tuples"] == 16
    assert all(o.witness is not None for o in rep.outcomes)


def test_cofinite_full_shift():
    rep = check_transitive(FullShift(), 2, 64, "cofinite_from")
    assert rep.verdict == WITNESSED
    assert max(o.detail["n0"] for o in rep.outcomes) <= 4
    # n0 is genuinely least: n0-1 is outside the window unless n0 == 1
    cyls = sweep_cylinders(FullShift(), 2)
    for (u, v), out in zip(itertools.product(cyls, repeat=2), rep.outcomes):
        window = hitting_window(FullShift(), u, v, 64)
        n0 = out.detail["n0"]
        assert all(n in window for n in range(n0, 65))
        if n0 > 1:
            assert n0 - 1 not in window


def test_thick_fails_for_evens():
    rep = check_transitive(evens_rule(), 1, 10**4, "thick(2)")
    assert rep.verdict == FAILS_ON_WINDOW
    assert rep.failing == ("1", "1")
    # every other pair does see a 2-run
    for o in rep.outcomes:
        if o.words != ("1", "1"):
            assert o.witness is not None


def test_thick_witnessed_on_full_shift():
    rep = check_transitive(FullShift(), 1, 64, "thick(5)")
    assert rep.verdict == WITNESSED
    assert all(o.detail == {"run_length": 5} for o in rep.outcomes)


def test_thick_implies_plain():
    for rule in (FullShift(), evens_rule(), dyadic_rule(), TripleRatio(3)):
        thick = check_transitive(rule, 1, 512, "thick(2)")
        plain = check_transitive(rule, 1, 512, "plain")
        if thick.verdict == WITNESSED:
            assert plain.verdict == WITNESSED


def test_mode_validation():
    with pytest.raises(ConfigError):
        check_transitive(FullShift(), 1, 8, "thick")
    with pytest.raises(ConfigError):
        check_transitive(FullShift(), 1, 8, "sometimes")


# ---------------------------------------------------------------------------
# check_a_transitive


def test_multi_dyadic_23_witnessed():
    rep = check_a_transitive(dyadic_rule(), (2, 3), 4, 2 * 10**4)
    assert rep.verdict == WITNESSED
    assert rep.stats["tuples"] == (8 * 8) ** 2


def test_multi_dyadic_12_fails_at_ones():
    rep = check_a_transitive(dyadic_rule(), (1, 2), 1, 10**6)
    assert rep.verdict == FAILS_ON_WINDOW
    assert rep.failing == ("1", "1", "1", "1")
    failures = [o for o in rep.outcomes if o.witness is None]
    assert len(failures) == 1
    assert failures[0].detail["certificate"]["name"] == "parity-law"


def test_multi_full_shift():
    rep = check_a_transitive(FullShift(), (3, 5), 2, 32)
    assert rep.verdict == WITNESSED


def test_multi_agrees_with_multi_hitting_window():
    rule = dyadic_rule()
    rep = check_a_transitive(rule, (1, 2), 2, 512)
    cyls = sweep_cylinders(rule, 2)
    pairs = list(itertools.product(cyls, repeat=2))
    for tup, out in zip(itertools.product(pairs, repeat=2), rep.outcomes):
        common = set.intersection(*(
            set(linear_hitting(rule, [(0, u), (ai, v)], 512)[0]) for ai, (u, v) in zip((1, 2), tup)
        ))
        assert out.witness == min(common, default=None)


def test_multi_validation():
    with pytest.raises(PreconditionError):
        check_a_transitive(FullShift(), (0, 2), 1, 8)
    with pytest.raises(PreconditionError):
        check_a_transitive(FullShift(), (), 1, 8)


def test_multi_deterministic_across_threads():
    rule = dyadic_rule()
    a = check_a_transitive(rule, (1, 2), 1, 10**4)
    b = check_a_transitive(rule, (1, 2), 1, 10**4)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(RULE_TEXTS),
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.booleans(),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([1, 3, None]),
)
def test_mask_ids_map_every_tuple_to_its_window(text, length, strides, product, h, rows):
    # coordinates placed as a multi sweep, (0, a_i), or as a product, (0, a_i, 2 a_i)
    rule = parse_shift_rule(text)
    k = 3 if product else 2
    coords = [tuple(j * ai for j in range(k)) for ai in strides]
    cylinders = sweep_cylinders(rule, length)
    tuples = _index_tuples(len(cylinders), k)
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(subshift, "chunk_rows", lambda row_bytes: rows)
        packed, ids, read = _mask_ids(rule, coords, cylinders, tuples, h)
    assert ids.shape == (len(coords), len(tuples))
    assert len({row.tobytes() for row in packed}) == len(packed)
    for i, coefs in enumerate(coords):
        for start, batch, analysis in hitting_batches(rule, coefs, cylinders, tuples, h):
            for j, mask in enumerate(batch):
                unpacked = np.unpackbits(packed[ids[i, start + j]], count=h + 1)
                assert np.array_equal(unpacked.astype(bool), mask)
                assert read(i, start + j) == analysis(j)


def void_row_family_firsts(packed, ids):
    """_family_firsts as it ranked the id combinations by whole void rows."""
    families = _index_tuples(ids.shape[1], len(ids))
    combos, inverse = unique_rows(ids[np.arange(len(ids)), families])
    masks = np.unpackbits(packed, axis=1).astype(bool)
    firsts = np.array([np.logical_and.reduce(masks[c]).argmax() for c in combos])
    return families, firsts[inverse]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(1, 9),
    st.integers(1, 24),
    st.integers(0, 2**32 - 1),
)
def test_family_firsts_match_the_void_row_ranking(r, width, masks, bits, seed):
    rng = np.random.default_rng(seed)
    windows = rng.random((masks, bits)) < 0.7
    windows[:, 0] = False
    packed = np.packbits(windows, axis=1)
    ids = rng.integers(0, masks, size=(r, width))
    families, firsts = _family_firsts(packed, ids)
    expected_families, expected = void_row_family_firsts(packed, ids)
    assert np.array_equal(families, expected_families)
    assert np.array_equal(firsts, expected)
    # packed rows sort as the bool rows do, so _mask_ids numbers masks in the same order
    keys, inverse = unique_rows(windows)
    packed_keys, packed_inverse = unique_rows(packed)
    assert np.array_equal(np.packbits(keys, axis=1), packed_keys)
    assert np.array_equal(inverse, packed_inverse)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(RULE_TEXTS),
    st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True).map(sorted),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=64),
    st.booleans(),
)
def test_multi_and_product_reports_do_not_depend_on_history(text, a, length, h, product):
    def sweep(rule):
        if product:
            return verify_delta_product(rule, a, 2, length, h)
        return check_a_transitive(rule, a, length, h)

    fresh = sweep(parse_shift_rule(text))
    warm = parse_shift_rule(text)
    check_transitive(warm, length + 1, 4 * h + 50, "plain")
    check_a_transitive(warm, [x + 1 for x in a], length + 1, 3 * h + 17)
    warm.pair_mask(10 * h + 100)
    assert sweep(warm) == fresh


# ---------------------------------------------------------------------------
# columnar sweep reports against a per-tuple reference


def first_run(mask, run):
    """Least n >= 1 with mask[n : n+run] all true, or None (one window)."""
    ok = mask.copy()
    ok[0] = False
    for i in range(1, min(run, mask.size)):
        ok[:-i] &= mask[i:]
        ok[-i:] = False
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size else None


def tuple_windows(rule, coefs, cylinders, tuples, h):
    """(mask, analysis) of every tuple, copied out of the kernel's chunks."""
    out = []
    for _, masks, analysis in hitting_batches(rule, coefs, cylinders, tuples, h):
        out += [(masks[i].copy(), analysis(i)) for i in range(len(masks))]
    return out


def certified(rule, words, mask, analyses, h):
    first = int(mask.argmax())
    if first:
        return SweepOutcome(words, first)
    cert = emptiness_certificate(rule, WindowedSet.from_mask(mask), analyses, h)
    return SweepOutcome(words, None, None if cert is None else {"certificate": cert})


def reference_sweep(kind, rule, length, h, a, n):
    """Outcomes, failing words and stats, one SweepOutcome per tuple as built
    before sweeps kept their witnesses as arrays."""
    cyls = sweep_cylinders(rule, length)
    names = [str(c.word) for c in cyls]
    stats = {}
    if kind in ("multi", "product"):
        width = 2 if kind == "multi" else n + 1
        coords = [[j * ai for j in range(width)] for ai in a]
        tuples = list(itertools.product(range(len(cyls)), repeat=width))
        per = [tuple_windows(rule, coefs, cyls, tuples, h) for coefs in coords]
        outs = []
        for family in itertools.product(range(len(tuples)), repeat=len(coords)):
            mask = np.logical_and.reduce([per[i][t][0] for i, t in enumerate(family)])
            words = sum((tuple(names[w] for w in tuples[t]) for t in family), ())
            if kind == "multi":
                analyses = [per[i][t][1] for i, t in enumerate(family)]
                outs.append(certified(rule, words, mask, analyses, h))
            else:
                outs.append(SweepOutcome(words, int(mask.argmax()) or None))
        if kind == "product":
            stats["unique_masks"] = len({m.tobytes() for p in per for m, _ in p})
    else:
        k = len(a) + 1 if kind == "delta" else 2
        tuples = list(itertools.product(range(len(cyls)), repeat=k))
        coefs = (0,) + tuple(a) if kind == "delta" else (0, 1)
        outs = []
        for tup, (mask, analysis) in zip(tuples, tuple_windows(rule, coefs, cyls, tuples, h)):
            words = tuple(names[w] for w in tup)
            if kind == "delta":
                outs.append(certified(rule, words, mask, analysis, h))
            elif kind == "plain":
                outs.append(SweepOutcome(words, int(mask.argmax()) or None))
            elif kind == "cofinite_from":
                missing = np.flatnonzero(~mask[1:]) + 1
                last = int(missing[-1]) if missing.size else 0
                if last >= h:
                    outs.append(SweepOutcome(words, None, {"last_missing": last}))
                else:
                    outs.append(SweepOutcome(words, last + 1, {"n0": last + 1}))
            else:
                run = int(kind[len("thick(") : -1])
                outs.append(SweepOutcome(words, first_run(mask, run), {"run_length": run}))
    failing = next((o.words for o in outs if o.witness is None), None)
    witnesses = [o.witness for o in outs if o.witness is not None]
    stats = {"tuples": len(outs), **({"max_witness": max(witnesses)} if witnesses else {}), **stats}
    return outs, failing, stats


def sweep(kind, rule, length, h, a, n):
    if kind == "multi":
        return check_a_transitive(rule, a, length, h)
    if kind == "delta":
        return check_delta_a_transitive(rule, a, length, h)
    if kind == "product":
        return verify_delta_product(rule, a, n, length, h)
    return check_transitive(rule, length, h, kind)


SWEEP_KINDS = ["plain", "thick(1)", "thick(3)", "cofinite_from", "multi", "delta", "product"]


@st.composite
def sweep_args(draw):
    kind = draw(st.sampled_from(SWEEP_KINDS))
    rule = draw(st.sampled_from(RULE_TEXTS + ["spacing(ap(1,3))", "tripleratio(4)"]))
    length = draw(st.integers(1, 2))
    increasing = st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True).map(sorted)
    a = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3) if kind == "multi" else increasing)
    n = draw(st.integers(1, 2))
    if kind in ("multi", "product") and length == 2 and len(a) > 1:
        n = 1  # at most 256 families when there are four words
    return kind, parse_shift_rule(rule), length, draw(st.integers(1, 40)), a, n


@settings(max_examples=60, deadline=None)
@given(sweep_args(), st.sampled_from([1, 3, None]))
# two distinct certificates, whose order the report must keep
@example(("delta", TripleRatio(3), 2, 20, [1, 3], 1), None)
@example(("delta", TripleRatio(4), 2, 5, [1, 4], 1), 3)
def test_columnar_reports_match_the_per_tuple_reference(args, rows):
    from shiftlab.cli import _sweep_payload

    with pytest.MonkeyPatch.context() as mp:
        for module in (subshift, dynamics):
            if rows is not None:
                mp.setattr(module, "chunk_rows", lambda row_bytes: rows)
        rep = sweep(*args)
    ref, failing, stats = reference_sweep(*args)
    outs = rep.outcomes
    assert len(outs) == len(ref)
    assert list(outs) == ref
    assert [outs[i] for i in range(len(ref))] == ref
    assert outs[-1] == ref[-1] and outs[-len(ref)] == ref[0]
    for bad in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            outs[bad]
    for cut in (slice(None, 16), slice(3, 7), slice(-5, None), slice(None, None, -3)):
        assert outs[cut] == tuple(ref[cut])
    assert outs == tuple(ref) and outs != list(ref)
    assert rep.failing == failing
    assert rep.verdict == (WITNESSED if failing is None else FAILS_ON_WINDOW)
    assert rep.stats == stats
    certs = [o.detail["certificate"] for o in ref if o.detail and "certificate" in o.detail]
    assert _sweep_payload(rep)[2] == list({json.dumps(c): c for c in certs}.values())


@settings(max_examples=30, deadline=None)
@given(sweep_args(), st.randoms(use_true_random=False))
def test_a_shuffled_tuple_order_restores_to_the_same_outcomes(args, rnd):
    # every tuple (and family) list a sweep enumerates comes in a shuffled order;
    # sorted back into canonical order by their words, the outcomes are unchanged
    canonical = sweep(*args)
    real = dynamics._index_tuples

    def shuffled(width, k):
        rows = real(width, k)
        order = list(range(len(rows)))
        rnd.shuffle(order)
        return rows[order]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_index_tuples", shuffled)
        moved = sweep(*args)
    position = {o.words: t for t, o in enumerate(canonical.outcomes)}
    assert sorted(moved.outcomes, key=lambda o: position[o.words]) == list(canonical.outcomes)
    assert (moved.verdict, moved.stats) == (canonical.verdict, canonical.stats)


# ---------------------------------------------------------------------------
# check_delta_a_transitive


def test_delta_tr3_12_witnessed_centered():
    rep = check_delta_a_transitive(TripleRatio(3), (1, 2), 3, 10**4)
    assert rep.verdict == WITNESSED
    assert rep.stats["tuples"] == 125


def test_delta_tr3_1p_fails_with_triple_law():
    rep = check_delta_a_transitive(TripleRatio(3), (1, 3), 1, 10**6)
    assert rep.verdict == FAILS_ON_WINDOW
    assert rep.failing == ("1", "1", "1")
    failing = next(o for o in rep.outcomes if o.witness is None)
    assert failing.detail["certificate"]["name"] == "triple-law"


def test_delta_full_shift():
    rep = check_delta_a_transitive(FullShift(), (1, 2, 3), 2, 64)
    assert rep.verdict == WITNESSED


def test_delta_dyadic_12_fails_with_parity_law():
    rep = check_delta_a_transitive(dyadic_rule(), (1, 2), 1, 10**4)
    assert rep.verdict == FAILS_ON_WINDOW
    failing = next(o for o in rep.outcomes if o.witness is None)
    assert failing.words == ("1", "1", "1")
    assert failing.detail["certificate"]["name"] == "parity-law"


def test_delta_rejects_non_increasing():
    with pytest.raises(PreconditionError, match="single point"):
        check_delta_a_transitive(FullShift(), (1, 1), 1, 8)
    with pytest.raises(PreconditionError):
        check_delta_a_transitive(FullShift(), (2, 1), 1, 8)
    with pytest.raises(PreconditionError):
        check_delta_a_transitive(FullShift(), (0, 1), 1, 8)


def test_delta_witnesses_match_delta_window():
    rule = TripleRatio(3)
    rep = check_delta_a_transitive(rule, (1, 2), 3, 512)
    cyls = sweep_cylinders(rule, 3)
    for tup, out in zip(itertools.product(cyls, repeat=3), rep.outcomes):
        window, _ = linear_hitting(rule, list(zip((0, 1, 2), tup)), 512)
        expected = window.first()
        assert out.witness == expected


# ---------------------------------------------------------------------------
# verify_nuv


def test_nuv_full_shift_ones():
    rep = verify_nuv(FullShift(), champernowne(9), W("1"), W("1"), 4096, 1024)
    assert rep.equal
    assert rep.mismatches == ()
    assert rep.sizes == {"window": 1024, "differences": 1024}


def test_nuv_full_shift_blocks():
    rep = verify_nuv(FullShift(), champernowne(9), W("00"), W("11"), 4096, 1024)
    assert rep.equal
    # n=1 is excluded on both sides: 00 at 0 and 11 at 1 clash at position 1
    assert rep.sizes["window"] == 1023


def test_nuv_evens_point():
    rule = evens_rule()
    p = build_transitive_point(rule, 8, 64)
    h = len(p)
    rep = verify_nuv(rule, p, W("1"), W("1"), h, h // 4)
    assert rep.equal
    window = hitting_window(rule, Cylinder(W("1")), Cylinder(W("1")), h // 4)
    assert all(n % 2 == 0 for n in window)


def test_nuv_preconditions():
    with pytest.raises(PreconditionError):
        verify_nuv(FullShift(), champernowne(2), W("1"), W("1"), 4096, 1024)
    with pytest.raises(PreconditionError):
        verify_nuv(FullShift(), champernowne(9), W("1"), W("1"), 4096, 3000)
    zeros = periodic_point(FullShift(), W("0"), 64)
    with pytest.raises(PreconditionError, match="transitive at scale"):
        verify_nuv(FullShift(), zeros, W("1"), W("1"), 32, 8)
    with pytest.raises(PreconditionError, match="not admissible"):
        verify_nuv(dyadic_rule(), champernowne(2), W("1"), W("1"), 8, 2)


def test_nuv_report_matches_set_oracle():
    # a short prefix, so truncation leaves some hitting times unmatched
    point = champernowne(4)
    text = point.prefix_string()
    h, h_cmp = len(point), len(point) // 2
    words = ["0", "1", "00", "01", "10", "11"]
    seen_mismatch = False
    for u, v in itertools.product(words, repeat=2):
        rep = verify_nuv(FullShift(), point, W(u), W(v), h, h_cmp)
        nu = {n for n in range(1, h - len(u) + 1) if text[n : n + len(u)] == u}
        nv = {n for n in range(1, h - len(v) + 1) if text[n : n + len(v)] == v}
        diffs = {b - a for a in nu for b in nv if 0 < b - a <= h_cmp}
        window = set(hitting_window(FullShift(), Cylinder(W(u)), Cylinder(W(v)), h_cmp))
        assert diffs <= window
        assert rep.mismatches == tuple(sorted(window - diffs))
        assert rep.sizes == {"window": len(window), "differences": len(diffs)}
        seen_mismatch |= bool(rep.mismatches)
    assert seen_mismatch


def test_nuv_pairs_equal_verify_nuv_on_each_pair():
    # a short prefix, so some pairs carry truncation mismatches
    point = champernowne(4)
    h, h_cmp = len(point), len(point) // 2
    words = [w for n in (1, 2) for w in enumerate_admissible_words(FullShift(), n)]
    got = verify_nuv_pairs(FullShift(), point, 2, h, h_cmp)
    want = [verify_nuv(FullShift(), point, u, v, h, h_cmp) for u in words for v in words]
    assert got == want
    assert any(not rep.equal for rep in got)


def test_nuv_pairs_preconditions_match_verify_nuv():
    with pytest.raises(PreconditionError, match="h_cmp"):
        verify_nuv_pairs(FullShift(), champernowne(9), 1, 4096, 0)
    with pytest.raises(PreconditionError, match="shorter than the horizon"):
        verify_nuv_pairs(FullShift(), champernowne(2), 1, 4096, 1024)
    zeros = periodic_point(FullShift(), W("0"), 64)
    with pytest.raises(PreconditionError, match="scale 1: 1 never occurs"):
        verify_nuv_pairs(FullShift(), zeros, 2, 32, 8)
    with pytest.raises(PreconditionError, match="not admissible"):
        verify_nuv_pairs(dyadic_rule(), champernowne(2), 1, 8, 2)


def test_nuv_stray_difference_is_a_kernel_bug(monkeypatch):
    import shiftlab.dynamics as dynamics

    def empty_windows(rule, coefs, cylinders, tuples, h):
        yield 0, np.zeros((len(tuples), h + 1), dtype=bool), None

    monkeypatch.setattr(dynamics, "hitting_batches", empty_windows)
    with pytest.raises(AssertionError, match="kernel bug"):
        verify_nuv(FullShift(), champernowne(9), W("1"), W("1"), 4096, 1024)


@settings(max_examples=25, deadline=None)
@given(
    ul=st.integers(min_value=1, max_value=3),
    vl=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_nuv_inclusion_never_violated(ul, vl, data):
    # the operation raises AssertionError if any difference escapes the window
    rule = dyadic_rule()
    point = build_transitive_point(rule, 4, 4096)
    words_u = [str(c.word) for c in sweep_cylinders(rule, ul)]
    words_v = [str(c.word) for c in sweep_cylinders(rule, vl)]
    u = W(data.draw(st.sampled_from(words_u)))
    v = W(data.draw(st.sampled_from(words_v)))
    h = len(point)
    rep = verify_nuv(rule, point, u, v, h, h // 4)
    assert isinstance(rep.equal, bool)


# ---------------------------------------------------------------------------
# verify_orbit_closure_prop


def test_orbit_closure_full_shift():
    rep = verify_orbit_closure_prop(FullShift(), (1, 2, 3), 2, 10**4)
    assert rep.agree
    assert rep.a_prime == (1, 2)
    assert len(rep.table) == 64


def test_orbit_closure_dyadic_23():
    rep = verify_orbit_closure_prop(dyadic_rule(), (2, 3), 1, 10**4)
    assert rep.agree
    assert rep.a_prime == (1,)


def test_orbit_closure_dyadic_124_consistency_probe():
    rep = verify_orbit_closure_prop(dyadic_rule(), (1, 2, 4), 1, 10**4)
    assert rep.agree
    row = next(o for o in rep.table if o.words == ("1", "1", "1"))
    assert row.lhs is None and row.rhs is None


def test_orbit_closure_two_sided_centered():
    rep = verify_orbit_closure_prop(TripleRatio(3), (1, 2, 3), 3, 300)
    assert rep.agree


def test_orbit_closure_windows_match_exactly():
    # shifting the reference frame by n*a_1 is a bijection on hits, so the
    # two windows are equal as sets, not merely equinonempty
    rule = dyadic_rule()
    a = (2, 3, 5)
    a_prime = (1, 3)
    cyls = sweep_cylinders(rule, 1)
    for tup in itertools.product(cyls, repeat=3):
        lhs, _ = linear_hitting(rule, list(zip(a, tup)), 2000)
        rhs, _ = linear_hitting(rule, list(zip((0, *a_prime), tup)), 2000)
        assert tuple(lhs) == tuple(rhs)


def test_orbit_closure_preconditions():
    with pytest.raises(PreconditionError):
        verify_orbit_closure_prop(FullShift(), (1,), 1, 16)
    with pytest.raises(PreconditionError):
        verify_orbit_closure_prop(FullShift(), (1, 1, 2), 1, 16)


# ---------------------------------------------------------------------------
# verify_delta_product


def test_delta_product_small():
    rep = verify_delta_product(FullShift(), (1, 2), 2, 1, 256)
    assert rep.verdict == WITNESSED
    # 1-cylinders at distinct positions never clash once m >= 1
    assert rep.stats["max_witness"] == 1


def test_delta_product_wider():
    rep = verify_delta_product(FullShift(), (2, 5), 2, 2, 10**4)
    assert rep.verdict == WITNESSED


def test_delta_product_deeper():
    rep = verify_delta_product(FullShift(), (1, 2), 3, 2, 10**4)
    assert rep.verdict == WITNESSED
    assert rep.stats["tuples"] == (4**4) ** 2


def test_delta_product_witness_against_overlay_oracle():
    # independent check: overlay characters by hand for the first families
    rule = FullShift()
    n, a, h = 2, (2, 5), 64
    rep = verify_delta_product(rule, a, n, 2, h)
    cyls = sweep_cylinders(rule, 2)
    tuples = list(itertools.product(cyls, repeat=n + 1))

    def overlay_ok(tup, m, ai):
        cells: dict[int, str] = {}
        for j, cyl in enumerate(tup):
            base = j * m * ai
            for i in range(cyl.word.length):
                ch = "1" if i in cyl.word.ones else "0"
                if cells.setdefault(base + i, ch) != ch:
                    return False
        return True

    for family, out in list(zip(itertools.product(tuples, repeat=2), rep.outcomes))[:200]:
        expected = next(
            (
                m
                for m in range(1, h + 1)
                if all(overlay_ok(tup, m, ai) for tup, ai in zip(family, a))
            ),
            None,
        )
        assert out.witness == expected


def test_delta_product_validation():
    with pytest.raises(PreconditionError):
        verify_delta_product(FullShift(), (1, 2), 0, 1, 16)
    with pytest.raises(PreconditionError):
        verify_delta_product(FullShift(), (2, 2), 2, 1, 16)


# ---------------------------------------------------------------------------
# point_diagnostic


def test_diagnostic_nabla_thick_full_shift():
    point = champernowne(13)
    rep = point_diagnostic(
        FullShift(), point, 2, 10**5, parse_family_spec("nabla(thick(16))")
    )
    assert rep.verdict == WITNESSED
    assert len(rep.per_cylinder) == 4
    assert all(r.verdict == WITNESSED for _, r in rep.per_cylinder)


def no_transform(*args, **kwargs):
    raise AssertionError("a transform was taken")


def test_diagnostic_nabla_thick_at_1e5_takes_no_transform(monkeypatch):
    point, spec = champernowne(13), parse_family_spec("nabla(thick(16))")
    with monkeypatch.context() as patched:
        patched.setattr(np.fft, "rfft", no_transform)
        rep = point_diagnostic(FullShift(), point, 2, 10**5, spec)
    assert rep.verdict == WITNESSED
    for word, report in rep.per_cylinder:
        s = entering_window(FullShift(), point, W(word), 10**5)
        assert report == family_window_report(difference_set(s), spec.spec)


def test_diagnostic_nabla_thick_evens():
    rule = evens_rule()
    point = build_transitive_point(rule, 8, 64)
    rep = point_diagnostic(
        rule, point, 1, len(point) - 1, parse_family_spec("nabla(thick(2))")
    )
    assert rep.verdict == UNDETERMINED
    table = dict(rep.per_cylinder)
    assert table["1"].verdict == UNDETERMINED
    assert table["0"].verdict == WITNESSED


def test_diagnostic_fa_grid_full_shift():
    point = champernowne(16)
    rep = point_diagnostic(
        FullShift(), point, 2, 10**6, parse_family_spec("fa(1,2;3,2000)")
    )
    assert rep.verdict == WITNESSED
    assert all(r.interpretation == "holds-on-grid" for _, r in rep.per_cylinder)


def test_diagnostic_fixed_point_fsa():
    point = periodic_point(FullShift(), W("0"), 200)
    rep = point_diagnostic(
        FullShift(),
        point,
        1,
        100,
        parse_family_spec("fsa(1,2,3;2,1)"),
        words=[W("0")],
    )
    assert rep.verdict == WITNESSED
    assert rep.per_cylinder[0][1].witness["max_gap"] == 1


def test_diagnostic_requires_transitive_prefix():
    zeros = periodic_point(FullShift(), W("0"), 200)
    with pytest.raises(PreconditionError, match="transitive at scale"):
        point_diagnostic(
            FullShift(), zeros, 1, 100, parse_family_spec("nabla(thick(2))")
        )


def test_diagnostic_finfty():
    point = champernowne(9)
    rep = point_diagnostic(
        FullShift(), point, 1, 4096, parse_family_spec("finfty(3;2,512)")
    )
    assert rep.verdict == WITNESSED


# ---------------------------------------------------------------------------
# characterization cross-check


def test_characterization_cross_check_dyadic():
    # the delta window on ([1],[1],[1]) is empty by the parity law, and the
    # same law shows on the generated point: no k has both x_k and x_2k set
    rule = dyadic_rule()
    window, _ = linear_hitting(rule, list(zip((0, 1, 2), [Cylinder(W("1"))] * 3)), 10**4)
    assert tuple(window) == ()

    point = build_transitive_point(rule, 4, 4096)
    ones = set(np.flatnonzero(point.bits).tolist())
    assert not [k for k in ones if 2 * k in ones]

    h = len(point) - 1
    s = entering_window(rule, point, W("1"), h)
    rep = fa_grid_report(s, (1, 2), GridParams(nmax=2, kmax=(h - 1) // 2))
    assert rep.verdict == UNDETERMINED
    assert rep.witness["cell"] == [0, 0]
    assert rep.witness["reason"] == "no-witness"


def test_characterization_cross_check_tr3():
    # delta-(1,2) is witnessed, so the fa diagnostic must not refute
    rule = TripleRatio(3)
    sweep = check_delta_a_transitive(rule, (1, 2), 1, 512)
    assert sweep.verdict == WITNESSED
    point = build_transitive_point(rule, 4, 256)
    kmax = (len(point) - 3) // 2
    rep = point_diagnostic(
        rule, point, 1, len(point) - 1, parse_family_spec(f"fa(1,2;2,{kmax})")
    )
    assert all(r.verdict != REFUTED for _, r in rep.per_cylinder)


# ---------------------------------------------------------------------------
# report plumbing


def test_sweep_report_rejects_unknown_verdict():
    from shiftlab.dynamics import SweepReport

    with pytest.raises(ConfigError):
        SweepReport("full()", "x", {}, "Maybe", (), None)


def test_sweep_cylinders_centering():
    one_sided = sweep_cylinders(FullShift(), 3)
    assert all(c.offset == 0 for c in one_sided)
    two_sided = sweep_cylinders(TripleRatio(3), 3)
    assert all(c.offset == -1 for c in two_sided)
    lengths = [str(c.word) for c in two_sided]
    assert lengths == sorted(lengths)


def test_reports_deterministic_across_runs():
    rep1 = check_delta_a_transitive(TripleRatio(3), (1, 2), 3, 2000)
    rep2 = check_delta_a_transitive(TripleRatio(3), (1, 2), 3, 2000)
    assert rep1 == rep2
