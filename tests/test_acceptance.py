"""Acceptance gate: ten exact criteria, one test per criterion.

Each test prints one pass/fail line; with `pytest -v` the test names double
as the per-criterion report.  Tolerances are exact (set equality, witness
equality) except for the wall-clock bounds, which are stated inline.
"""

import random
import time
from contextlib import contextmanager

import numpy as np

from shiftlab.cli import main as cli_main
from shiftlab.families import (
    REFUTED,
    UNDETERMINED,
    WITNESSED,
    GridParams,
    fa_grid_report,
    fa_structural_refute_even,
    fsa_grid_report,
    parse_family_spec,
)
from shiftlab.intset import (
    ArithmeticProgression,
    DyadicBlocks,
    Explicit,
    Naturals,
    WindowedSet,
    materialize,
)
from shiftlab.points import build_transitive_point, champernowne, entering_window, periodic_point
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
)
from shiftlab.dynamics import (
    FAILS_ON_WINDOW,
    check_a_transitive,
    check_delta_a_transitive,
    point_diagnostic,
    verify_nuv,
    verify_orbit_closure_prop,
)

W = Word.from_string


def hitting_window(rule, u, v, h):
    """N([u],[v]) on [1, h]: the batch of one that places u at 0 and v at n."""
    window, _ = linear_hitting(rule, [(0, u), (1, v)], h)
    return window


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL - {title}", flush=True)
        raise
    print(f"criterion {number:02d}: PASS - {title}", flush=True)


def test_criterion_01_multi_23_sweep_with_closed_form_witness():
    with criterion(1, "multi (2,3) sweep witnessed; closed-form witness checked"):
        started = time.monotonic()
        rule = Spacing(DyadicBlocks())
        report = check_a_transitive(rule, (2, 3), 4, 2 * 10**4)
        assert report.verdict == WITNESSED
        assert report.stats["tuples"] == 4096

        # closed-form witness: t=4, s=2^4+2^1=18; u 0^((i+1)s-t) v puts all
        # cross gaps inside [2s-t, 3s+t-1] = [32,57], within the block [32,63]
        t, s = 4, 18
        assert (2 * s - t, 3 * s + t - 1) == (32, 57)
        block = materialize(DyadicBlocks(), 64).mask
        assert block[32:64].all()
        words = list(enumerate_admissible_words(rule, 4))
        assert len(words) == 8
        for i in (1, 2):
            shift = (i + 1) * s
            for u in words:
                for v in words:
                    text = str(u) + "0" * (shift - t) + str(v)
                    assert is_admissible(rule, W(text))
                    gaps = [
                        shift + x - y
                        for x in v.ones
                        for y in u.ones
                    ]
                    assert all(32 <= g <= 57 for g in gaps)
            # hence n = s witnesses every pair at stride i+1
            for u in words:
                for v in words:
                    window, _ = linear_hitting(
                        rule, [(0, Cylinder(u)), (i + 1, Cylinder(v))], s
                    )
                    assert s in window
        assert time.monotonic() - started < 10.0


def test_criterion_02_parity_law_excludes_12_multi():
    with criterion(2, "no n <= 10^6 has n and 2n in the dyadic set; (1,2) empty"):
        started = time.monotonic()
        mask = materialize(DyadicBlocks(), 2 * 10**6 + 1).mask
        n_side = mask[1 : 10**6 + 1]
        dbl_side = mask[2 : 2 * 10**6 + 1 : 2]
        assert not (n_side & dbl_side).any()

        rule = Spacing(DyadicBlocks())
        one = Cylinder(W("1"))
        hits = [linear_hitting(rule, [(0, one), (ai, one)], 10**6) for ai in (1, 2)]
        window = WindowedSet.from_mask(hits[0][0].mask & hits[1][0].mask)
        analyses = [analysis for _, analysis in hits]
        assert tuple(window) == ()
        cert = emptiness_certificate(rule, window, analyses, 10**6)
        assert cert is not None and cert["name"] == "parity-law"
        assert time.monotonic() - started < 2.0


def test_criterion_03_delta_examples_with_triple_law():
    with criterion(3, "delta (1,2) witnessed; (1,3) empty with triple law"):
        started = time.monotonic()
        rule = TripleRatio(3)
        pos = check_delta_a_transitive(rule, (1, 2), 3, 10**4)
        assert pos.verdict == WITNESSED

        one = Cylinder(W("1"))
        window, analyses = linear_hitting(rule, [(0, one), (1, one), (3, one)], 10**6)
        assert tuple(window) == ()
        cert = emptiness_certificate(rule, window, analyses, 10**6)
        assert cert is not None and cert["name"] == "triple-law"
        assert cert["positions"] == [[0, 0], [1, 0], [3, 0]]
        assert time.monotonic() - started < 10.0


def test_criterion_04_hitting_equals_entering_differences():
    with criterion(4, "hitting window equals entering differences, oracle-checked"):
        point = champernowne(8)
        text = point.prefix_string()
        h = len(point)
        h_cmp = 512
        words = [
            format(value, f"0{length}b")
            for length in (1, 2, 3)
            for value in range(1 << length)
        ]
        for u in words:
            for v in words:
                rep = verify_nuv(FullShift(), point, W(u), W(v), h, h_cmp)
                assert rep.equal and rep.mismatches == ()

                # independent oracle: string scans and overlap arithmetic
                occ_u = [i for i in range(len(text) - len(u) + 1) if text.startswith(u, i)]
                occ_v = [i for i in range(len(text) - len(v) + 1) if text.startswith(v, i)]
                b_oracle = {
                    tv - tu
                    for tu in occ_u
                    for tv in occ_v
                    if 1 <= tv - tu <= h_cmp
                }
                a_oracle = {
                    n
                    for n in range(1, h_cmp + 1)
                    if all(
                        v[k] == u[n + k]
                        for k in range(len(v))
                        if n + k < len(u)
                    )
                }
                window = hitting_window(FullShift(), Cylinder(W(u)), Cylinder(W(v)), h_cmp)
                assert set(window) == a_oracle == b_oracle


def test_criterion_05_thick_difference_diagnostics():
    with criterion(5, "thick differences witnessed on full shift, blocked on evens"):
        full_rep = point_diagnostic(
            FullShift(), champernowne(13), 2, 10**5, parse_family_spec("nabla(thick(16))")
        )
        assert full_rep.verdict == WITNESSED
        assert all(r.verdict == WITNESSED for _, r in full_rep.per_cylinder)

        rule = Spacing(ArithmeticProgression(2, 2))
        point = build_transitive_point(rule, 8, 64)
        rep = point_diagnostic(
            rule, point, 1, len(point) - 1, parse_family_spec("nabla(thick(2))")
        )
        table = dict(rep.per_cylinder)
        assert table["1"].verdict == UNDETERMINED

        # the difference set of N(x,[1]) is exactly even
        s = entering_window(rule, point, W("1"), len(point) - 1)
        vals = s.values
        diffs = (vals[None, :] - vals[:, None])[np.triu_indices(len(vals), k=1)]
        assert (diffs % 2 == 0).all()


def test_criterion_06_even_set_excluded_from_vector_families():
    with criterion(6, "evens structurally refused; naturals witnessed with k=1"):
        naturals = materialize(Naturals(), 4096)
        for a in ((1, 2), (1, 3), (2, 4), (1, 3, 5)):
            rep = fa_structural_refute_even(a)
            assert rep.verdict == REFUTED
            cert = rep.certificate
            assert cert["modulus"] == 2
            cell = rep.witness["cell"]
            # re-verify the certificate by direct parity arithmetic
            for k in (0, 1):
                assert any((k * ai + ni) % 2 == 1 for ai, ni in zip(a, cell))

            grid_rep = fa_grid_report(naturals, a, GridParams(nmax=2, kmax=64))
            assert grid_rep.verdict == WITNESSED
            assert grid_rep.witness["max_k"] == 1
            assert grid_rep.witness["cells"] == 3 ** len(a)
            assert all(k == 1 for _, k in grid_rep.witness["witnesses"])


def test_criterion_07_orbit_closure_agreement():
    with criterion(7, "orbit closure equivalence agrees tuple-by-tuple"):
        full = verify_orbit_closure_prop(FullShift(), (1, 2, 3), 2, 10**4)
        assert full.agree
        assert len(full.lhs) == 64
        dyadic = verify_orbit_closure_prop(
            Spacing(DyadicBlocks()), (2, 3), 1, 10**4
        )
        assert dyadic.agree


def test_criterion_08_finite_orbit_diagnostics():
    with criterion(8, "fixed point carries syndetic family; 2-cycle refuted at (0,1)"):
        fixed = periodic_point(FullShift(), W("0"), 200)
        rep = point_diagnostic(
            FullShift(), fixed, 1, 100, parse_family_spec("fsa(1,2,3;2,1)"),
            words=[W("0")],
        )
        assert rep.verdict == WITNESSED

        cycle = periodic_point(FullShift(), W("10"), 203)
        window = entering_window(FullShift(), cycle, W("1"), 100)
        assert all(n % 2 == 0 for n in window)
        rep = fsa_grid_report(
            window, (1, 2), GridParams(nmax=2, g=1), rule=ArithmeticProgression(2, 2)
        )
        assert rep.verdict == REFUTED
        assert rep.witness["cell"] == [0, 1]
        assert rep.certificate["modulus"] == 2
        # independent check: m even forces 2m+1 odd, so B(0,1) is empty
        members = set(window)
        assert not [m for m in members if 2 * m + 1 in members]


def _oracle_decides(rule, pair_ok, triple_p, u: str, v: str, n: int) -> bool:
    """Exhaustive completion search, independent of the hitting kernel."""
    hull = max(len(u), n + len(v))
    template = ["?"] * hull
    for i, ch in enumerate(u):
        template[i] = ch
    for k, ch in enumerate(v):
        i = n + k
        if template[i] != "?" and template[i] != ch:
            return False
        template[i] = ch
    free = [i for i, ch in enumerate(template) if ch == "?"]
    forced = [i for i, ch in enumerate(template) if ch == "1"]
    count = 1 << len(free)
    grid = np.zeros((count, hull), dtype=bool)
    grid[:, forced] = True
    if free:
        bits = (np.arange(count)[:, None] >> np.arange(len(free))[None, :]) & 1
        grid[:, free] = bits.astype(bool)
    ok = np.ones(count, dtype=bool)
    for g in range(1, hull):
        if not pair_ok(g):
            ok &= ~(grid[:, : hull - g] & grid[:, g:]).any(axis=1)
    if triple_p is not None:
        ratio = triple_p - 1
        for x in range(hull):
            for y in range(x + 1, hull):
                z = y + ratio * (y - x)
                if z < hull:
                    ok &= ~(grid[:, x] & grid[:, y] & grid[:, z])
    return bool(ok.any())


def test_criterion_09_zero_fill_oracle_agreement():
    with criterion(9, "hitting decisions equal exhaustive enumeration, 200 cases"):
        dyadic_mask = materialize(DyadicBlocks(), 128).mask
        pool = [
            (FullShift(), lambda g: True, None),
            (Spacing(ArithmeticProgression(2, 2)), lambda g: g % 2 == 0, None),
            (Spacing(DyadicBlocks()), lambda g: bool(dyadic_mask[g]), None),
            (Spacing(Explicit((2, 3, 7))), lambda g: g in (2, 3, 7), None),
            (TripleRatio(3), lambda g: g != 1, 3),
            (TripleRatio(4), lambda g: g != 1, 4),
        ]
        rng = random.Random(0xC0FFEE)
        checked = 0
        while checked < 200:
            rule, pair_ok, triple_p = rng.choice(pool)
            lu = rng.randint(1, 4)
            lv = rng.randint(1, 4)
            u = rng.choice(list(enumerate_admissible_words(rule, lu)))
            v = rng.choice(list(enumerate_admissible_words(rule, lv)))
            n = rng.randint(1, 64)
            hull = max(lu, n + lv)
            if hull - lu - lv + max(0, lu - n) > 16:
                continue  # keep each enumeration at or below 2^16 cases
            window = hitting_window(rule, Cylinder(u), Cylinder(v), n)
            impl = n in window
            oracle = _oracle_decides(rule, pair_ok, triple_p, str(u), str(v), n)
            assert impl == oracle, (rule.literal(), str(u), str(v), n)
            checked += 1
        assert checked == 200


def test_criterion_10_performance_and_thread_determinism(capsys):
    with criterion(10, "10^6 window under a second; thread count changes nothing"):
        rule = Spacing(DyadicBlocks())
        u = Cylinder(W("10100000"))
        v = Cylinder(W("00010010"))
        started = time.monotonic()
        window = hitting_window(rule, u, v, 10**6)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        assert len(window) > 0

        argv = [
            "check", "--rule", "spacing(dyadic())", "--vector", "1,2",
            "--wordlen", "1", "--horizon", "100000",
        ]
        assert cli_main(argv + ["--threads", "1"]) == 0
        first = capsys.readouterr().out
        assert cli_main(argv + ["--threads", "8"]) == 0
        second = capsys.readouterr().out
        assert first == second and first
