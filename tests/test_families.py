"""Family verdict tests: three-valued semantics, certificates, grids."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.errors import (
    CapExceeded,
    ConfigError,
    HorizonExhausted,
    PreconditionError,
)
from shiftlab.families import (
    FamilyQuery,
    FamilySpec,
    GridParams,
    HOLDS_ON_GRID,
    HOLDS_ON_WINDOW,
    PROOF,
    REFUTED,
    REFUTED_ON_WINDOW,
    UNDETERMINED,
    WITNESS_ONLY,
    WITNESSED,
    WindowReport,
    fa_grid_report,
    fa_structural_refute_even,
    family_window_report,
    finfty_grid_report,
    fsa_grid_report,
    nabla_report,
    parse_family_spec,
    structural_cell_certificate,
)
from shiftlab.intset import (
    ArithmeticProgression,
    DyadicBlocks,
    Naturals,
    WindowedSet,
    congruence_structures,
    difference_head,
    difference_set,
    doubling_free_certificate,
    materialize,
)

EVENS_RULE = ArithmeticProgression(2, 2)
DYADIC_RULE = DyadicBlocks()
NATS_RULE = Naturals()


def W(members, horizon, complete=True):
    mask = np.zeros(horizon, dtype=bool)
    mask[list(members)] = True
    return WindowedSet.from_mask(mask, complete)


# ---------------------------------------------------------------------------
# plain families


def test_thick_witnessed_on_interval():
    rep = family_window_report(W(range(10, 21), 30), FamilySpec("thick", 8))
    assert rep.verdict == WITNESSED
    assert rep.witness == {"run_start": 10, "run_length": 8}
    assert rep.interpretation == WITNESS_ONLY
    assert rep.horizon_used == 30


def test_thick_undetermined_on_evens():
    rep = family_window_report(materialize(EVENS_RULE, 100), FamilySpec("thick", 2))
    assert rep.verdict == UNDETERMINED
    assert rep.witness == {"longest_run": 1}
    assert rep.interpretation == HOLDS_ON_WINDOW


def test_syndetic_refuted_on_dyadic():
    rep = family_window_report(materialize(DYADIC_RULE, 100), FamilySpec("syndetic", 4))
    assert rep.verdict == REFUTED
    assert rep.witness == {"gap_from": 3, "gap_to": 8}
    assert rep.interpretation == PROOF


def test_syndetic_anchor_cases():
    start = family_window_report(W([50, 51], 60), FamilySpec("syndetic", 10))
    assert start.verdict == REFUTED and start.witness == {"gap_from": None, "gap_to": 50}
    tail = family_window_report(W(range(11), 50), FamilySpec("syndetic", 10))
    assert tail.verdict == REFUTED and tail.witness == {"gap_from": 10, "gap_to": None}
    empty = family_window_report(W([], 20), FamilySpec("syndetic", 5))
    assert empty.verdict == REFUTED and empty.witness["note"] == "window empty"
    ok = family_window_report(materialize(EVENS_RULE, 100), FamilySpec("syndetic", 2))
    assert ok.verdict == UNDETERMINED
    assert ok.witness == {"holds_on_window": True, "max_gap": 2}
    first_too_far = family_window_report(
        materialize(EVENS_RULE, 100), FamilySpec("syndetic", 1)
    )
    assert first_too_far.verdict == REFUTED
    assert first_too_far.witness == {"gap_from": None, "gap_to": 2}


def test_cofinite_reports():
    sans7 = W([x for x in range(50) if x != 7], 50)
    rep = family_window_report(sans7, FamilySpec("cofinite", 8))
    assert rep.verdict == UNDETERMINED and rep.witness == {"holds_on_window": True}
    sans13 = W([x for x in range(50) if x != 13], 50)
    rep = family_window_report(sans13, FamilySpec("cofinite", 8))
    assert rep.verdict == REFUTED and rep.witness == {"missing": 13}
    assert rep.interpretation == PROOF


def test_incomplete_windows_downgrade_refutations():
    gappy = W([2, 30], 60, complete=False)
    rep = family_window_report(gappy, FamilySpec("syndetic", 4))
    assert rep.verdict == UNDETERMINED
    assert rep.interpretation == REFUTED_ON_WINDOW
    assert rep.witness["holds_on_window"] is False
    rep = family_window_report(gappy, FamilySpec("cofinite", 1))
    assert rep.verdict == UNDETERMINED
    assert rep.witness["missing"] == 1
    # thick witnesses survive incompleteness: members shown are real
    rep = family_window_report(W(range(5, 15), 40, complete=False), FamilySpec("thick", 6))
    assert rep.verdict == WITNESSED


def test_family_horizon_preconditions():
    s = materialize(EVENS_RULE, 20)
    with pytest.raises(HorizonExhausted):
        family_window_report(s, FamilySpec("thick", 21))
    with pytest.raises(HorizonExhausted):
        family_window_report(s, FamilySpec("syndetic", 20))
    with pytest.raises(HorizonExhausted):
        family_window_report(s, FamilySpec("cofinite", 25))
    with pytest.raises(ConfigError):
        FamilySpec("thick", 0)
    with pytest.raises(ConfigError):
        FamilySpec("dense", 1)


def test_report_payload_invariants():
    with pytest.raises(ConfigError):
        WindowReport(WITNESSED, None, 10, WITNESS_ONLY)
    with pytest.raises(ConfigError):
        WindowReport(REFUTED, None, 10, PROOF)
    with pytest.raises(ConfigError):
        WindowReport("Maybe", {}, 10, PROOF)


def test_refutations_and_proofs_stable_under_doubling_horizon():
    rules = [EVENS_RULE, DYADIC_RULE, NATS_RULE]
    specs = [
        FamilySpec("thick", k) for k in (2, 3, 5)
    ] + [
        FamilySpec("syndetic", g) for g in (1, 2, 4, 6)
    ] + [
        FamilySpec("cofinite", n0) for n0 in (1, 5, 10)
    ]
    for rule in rules:
        small, big = materialize(rule, 64), materialize(rule, 128)
        for spec in specs:
            a = family_window_report(small, spec)
            b = family_window_report(big, spec)
            if a.verdict == REFUTED or a.interpretation == PROOF:
                assert (a.verdict, a.witness) == (b.verdict, b.witness), (rule, spec)
            if a.verdict == WITNESSED:
                assert b.verdict == WITNESSED, (rule, spec)


# ---------------------------------------------------------------------------
# nabla


def test_nabla_examples():
    interval = W(range(21), 21)
    rep = nabla_report(interval, FamilySpec("thick", 10))
    assert rep.verdict == WITNESSED and rep.witness["run_start"] == 1
    rep = nabla_report(materialize(EVENS_RULE, 128), FamilySpec("thick", 2))
    assert rep.verdict == UNDETERMINED


def test_nabla_never_refutes_from_a_window():
    # dyadic differences have gaps, but the difference window is incomplete
    rep = nabla_report(materialize(DYADIC_RULE, 128), FamilySpec("syndetic", 1))
    assert rep.verdict == UNDETERMINED
    assert rep.interpretation == REFUTED_ON_WINDOW


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 600),
    st.floats(0, 1),
    st.integers(1, 48),
    st.integers(0, 2**32 - 1),
)
@example(600, 0.9, 16, 0)  # a 16-run inside the 22 scanned lags: no transform
@example(600, 0.9, 40, 0)  # L past the scanned lags: the transform decides
@example(600, 0.05, 2, 0)  # no 2-run among the first lags: the transform decides
def test_nabla_composition_law(h, density, run, seed):
    specs = [FamilySpec("thick", 3), FamilySpec("syndetic", 2), FamilySpec("cofinite", 4)]
    for rule in (EVENS_RULE, DYADIC_RULE, NATS_RULE):
        s = materialize(rule, 96)
        for spec in specs:
            assert nabla_report(s, spec) == family_window_report(difference_set(s), spec)
    s = WindowedSet.from_mask(np.random.default_rng(seed).random(h) < density)
    head = difference_head(s)
    assert np.array_equal(head, difference_set(s).mask[: head.size])
    spec = FamilySpec("thick", run)
    if run > h:
        with pytest.raises(HorizonExhausted):
            nabla_report(s, spec)
        with pytest.raises(HorizonExhausted):
            family_window_report(difference_set(s), spec)
    else:
        assert nabla_report(s, spec) == family_window_report(difference_set(s), spec)


# ---------------------------------------------------------------------------
# F[a] grids


def test_fa_witnessed_on_naturals():
    s = materialize(NATS_RULE, 100)
    rep = fa_grid_report(s, (1, 2, 3), GridParams(nmax=4, kmax=4))
    assert rep.verdict == WITNESSED and rep.interpretation == HOLDS_ON_GRID
    assert rep.witness["max_k"] == 1 and rep.witness["cells"] == 125
    assert all(k == 1 for _, k in rep.witness["witnesses"])


def test_fa_refutes_evens_with_congruence_certificate():
    s = materialize(EVENS_RULE, 200)
    rep = fa_grid_report(s, (1, 2), GridParams(nmax=1, kmax=8), rule=EVENS_RULE)
    assert rep.verdict == REFUTED and rep.interpretation == PROOF
    assert rep.certificate["name"] == "congruence"
    assert rep.certificate["modulus"] == 2
    # the all-ones cell is also structurally excluded on its own
    cert = structural_cell_certificate(
        (1, 2), (1, 1), congruence_structures(EVENS_RULE)
    )
    assert cert is not None and cert["modulus"] == 2
    # the failing cell (0, 0) comes before the structural cell (0, 1): the scan
    # must go on past a failing cell while the rule has analyzers
    rep = fa_grid_report(
        materialize(EVENS_RULE, 64), (1, 2), GridParams(nmax=1, kmax=1), rule=EVENS_RULE
    )
    assert rep.verdict == REFUTED and rep.witness["cell"] == [0, 1]
    assert rep.certificate["name"] == "congruence"


def test_fa_refutes_dyadic_cell_with_parity_law():
    s = materialize(DYADIC_RULE, 400)
    rep = fa_grid_report(s, (1, 2), GridParams(nmax=0, kmax=100), rule=DYADIC_RULE)
    assert rep.verdict == REFUTED and rep.certificate["name"] == "parity-law"
    assert rep.witness["cell"] == [0, 0]
    # without the rule there is no structural analyzer: only window evidence
    rep = fa_grid_report(s, (1, 2), GridParams(nmax=0, kmax=100))
    assert rep.verdict == UNDETERMINED
    assert rep.interpretation == REFUTED_ON_WINDOW
    assert rep.witness["reason"] == "no-witness"


def test_fa_horizon_limited_cells_stay_undetermined():
    s = W([9], 10)
    rep = fa_grid_report(s, (5,), GridParams(nmax=0, kmax=100))
    assert rep.verdict == UNDETERMINED
    assert rep.witness["reason"] == "horizon-limited"


def test_fa_validation():
    s = materialize(NATS_RULE, 50)
    with pytest.raises(PreconditionError):
        fa_grid_report(s, (), GridParams())
    with pytest.raises(PreconditionError):
        fa_grid_report(s, (0, 1), GridParams())
    with pytest.raises(ConfigError):
        fa_grid_report(s, (1,), GridParams(kmax=0))
    with pytest.raises(CapExceeded):
        # 101^3 = 1,030,301 cells: refused before any cell is read
        fa_grid_report(s, (1, 1, 1), GridParams(nmax=100, kmax=1))
    with pytest.raises(ConfigError):
        GridParams(nmax=-1)


def test_fa_tables_are_sized_by_the_window():
    # no k past (h - 1) // max(a) lands in the window, so kmax beyond it reads nothing more
    s = materialize(NATS_RULE, 50)
    huge = fa_grid_report(s, (1, 2), GridParams(nmax=2, kmax=10**30))
    assert huge == fa_grid_report(s, (1, 2), GridParams(nmax=2, kmax=24))
    assert huge.verdict == WITNESSED
    with pytest.raises(CapExceeded):
        fa_grid_report(materialize(NATS_RULE, 10**4), (1,), GridParams(nmax=999, kmax=10**30))


def test_fa_grid_monotone_in_kmax():
    s = materialize(DYADIC_RULE, 400)
    small = fa_grid_report(s, (3, 5), GridParams(nmax=0, kmax=10))
    big = fa_grid_report(s, (3, 5), GridParams(nmax=0, kmax=100))
    assert small.verdict == WITNESSED == big.verdict
    assert small.witness["witnesses"] == big.witness["witnesses"]
    assert small.witness["witnesses"] == [[[0, 0], 3]]  # 3*3=9, 5*3=15, both in P


def test_fa_translation_transport():
    s = materialize(NATS_RULE, 100)
    rep = fa_grid_report(s, (1, 3), GridParams(nmax=3, kmax=5))
    assert rep.verdict == WITNESSED
    moved = {m + 5 for m in s}
    for cell, k in rep.witness["witnesses"]:
        for ai, ni in zip((1, 3), cell):
            assert (k * ai + ni + 5) in moved


def test_fa_structural_refute_even():
    rep = fa_structural_refute_even((1, 3))
    assert rep.verdict == REFUTED and rep.witness["cell"] == [1, 2]
    assert rep.interpretation == PROOF
    rep = fa_structural_refute_even((1, 2))
    assert rep.witness["cell"] == [1, 1]
    rep = fa_structural_refute_even((2, 4))
    assert rep.witness["cell"] == [1, 1]
    assert rep.certificate["modulus"] == 2
    with pytest.raises(PreconditionError):
        fa_structural_refute_even((3,))


# ---------------------------------------------------------------------------
# F_s[a] grids


def test_fsa_witnessed_on_naturals():
    s = materialize(NATS_RULE, 100)
    rep = fsa_grid_report(s, (1, 2, 3), GridParams(nmax=2, g=1))
    assert rep.verdict == WITNESSED and rep.interpretation == HOLDS_ON_GRID
    assert rep.witness["cells"] == 27


def test_fsa_refutes_evens_cell():
    s = materialize(EVENS_RULE, 200)
    rep = fsa_grid_report(s, (1, 2), GridParams(nmax=1, g=2), rule=EVENS_RULE)
    assert rep.verdict == REFUTED and rep.interpretation == PROOF
    assert rep.certificate["name"] == "congruence"
    assert rep.witness["cell"] == [0, 1]


def test_fsa_gap_violation_is_window_evidence_only():
    s = materialize(DYADIC_RULE, 2000)
    rep = fsa_grid_report(s, (1,), GridParams(nmax=0, g=3), rule=DYADIC_RULE)
    assert rep.verdict == UNDETERMINED
    assert rep.interpretation == REFUTED_ON_WINDOW
    assert rep.witness["reason"] == "gap-exceeded"
    assert (rep.witness["gap_from"], rep.witness["gap_to"]) == (3, 8)


def test_fsa_requires_gap_bound():
    with pytest.raises(ConfigError):
        fsa_grid_report(materialize(NATS_RULE, 50), (1,), GridParams(nmax=0))


def test_fsa_witness_implies_fa_witness():
    # a syndetic carrier supplies k witnesses: F_s[a] evidence transfers to F[a]
    cases = [
        (materialize(NATS_RULE, 100), (1, 2, 3), GridParams(nmax=2, g=1), 2),
        (materialize(EVENS_RULE, 100), (2, 2), GridParams(nmax=0, g=2), 2),
    ]
    for s, a, grid, kmax in cases:
        syn = fsa_grid_report(s, a, grid)
        assert syn.verdict == WITNESSED
        plain = fa_grid_report(s, a, GridParams(nmax=grid.nmax, kmax=kmax))
        assert plain.verdict == WITNESSED


# ---------------------------------------------------------------------------
# grid reports against a per-cell oracle


def _analyzers(rule):
    return (congruence_structures(rule), doubling_free_certificate(rule)) if rule else ((), None)


def _oracle_fa(s, a, grid, rule):
    """fa_grid_report by brute force: every cell, every k, no early stop."""
    cs, dbl = _analyzers(rule)
    h, members = s.horizon, set(s)
    witnesses, structural, failing = [], [], []
    for cell in itertools.product(range(grid.nmax + 1), repeat=len(a)):
        known = [k for k in range(1, grid.kmax + 1)
                 if all(k * ai + ni < h for ai, ni in zip(a, cell))]
        hits = [k for k in known if all(k * ai + ni in members for ai, ni in zip(a, cell))]
        cert = structural_cell_certificate(a, cell, cs, dbl)
        if hits:
            witnesses.append([list(cell), hits[0]])
        elif cert is not None:
            structural.append((cell, cert))
        else:
            failing.append((cell, "no-witness" if len(known) == grid.kmax else "horizon-limited"))
    if structural:
        cell, cert = structural[0]
        return WindowReport(REFUTED, {"cell": list(cell), "vector": list(a)}, h, PROOF, cert)
    if failing:
        cell, reason = failing[0]
        tag = HOLDS_ON_WINDOW if reason == "horizon-limited" else REFUTED_ON_WINDOW
        return WindowReport(
            UNDETERMINED, {"cell": list(cell), "reason": reason, "vector": list(a)}, h, tag
        )
    payload = {"cells": len(witnesses), "max_k": max(k for _, k in witnesses), "vector": list(a)}
    if len(witnesses) <= 512:
        payload["witnesses"] = witnesses
    return WindowReport(WITNESSED, payload, h, HOLDS_ON_GRID)


def _oracle_fsa(s, a, grid, rule):
    """fsa_grid_report by brute force: every cell, every m, no early stop."""
    cs, dbl = _analyzers(rule)
    h, members, g = s.horizon, set(s), grid.g
    structural, failing, max_gap = [], [], 0
    cells = list(itertools.product(range(grid.nmax + 1), repeat=len(a)))
    for cell in cells:
        m_eff = min((h - 1 - ni) // ai for ai, ni in zip(a, cell))
        b = [m for m in range(1, m_eff + 1)
             if all(ai * m + ni in members for ai, ni in zip(a, cell))]
        cert = structural_cell_certificate(a, cell, cs, dbl)
        if m_eff < 1:
            failing.append((cell, {"reason": "horizon-limited"}))
        elif not b and cert is not None:
            structural.append((cell, cert))
        elif not b:
            failing.append((cell, {"reason": "empty-on-window"}))
        else:
            # anchored gaps on [0, m_eff]: the start, successive members, the tail
            gaps = [(None, b[0], b[0])] + [(x, y, y - x) for x, y in zip(b, b[1:])]
            gaps.append((b[-1], None, m_eff - b[-1]))
            bad = [(x, y) for x, y, d in gaps if d > g]
            if bad:
                failing.append((cell, {"gap_from": bad[0][0], "gap_to": bad[0][1],
                                       "reason": "gap-exceeded"}))
            else:
                max_gap = max([max_gap, b[0]] + [y - x for x, y in zip(b, b[1:])])
    if structural:
        cell, cert = structural[0]
        return WindowReport(REFUTED, {"cell": list(cell), "vector": list(a)}, h, PROOF, cert)
    if failing:
        cell, info = failing[0]
        tag = HOLDS_ON_WINDOW if info["reason"] == "horizon-limited" else REFUTED_ON_WINDOW
        return WindowReport(UNDETERMINED, dict(info, cell=list(cell), vector=list(a)), h, tag)
    return WindowReport(
        WITNESSED, {"cells": len(cells), "max_gap": max_gap, "g": g, "vector": list(a)},
        h, HOLDS_ON_GRID,
    )


def _oracle_finfty(s, m_max, grid, rule, level):
    """finfty_grid_report assembled from one oracle report per staircase level."""
    levels = [level(s, tuple(range(1, i + 1)), grid, rule) for i in range(1, m_max + 1)]
    rank = [REFUTED, UNDETERMINED, WITNESSED].index
    deciding = min(range(m_max), key=lambda i: rank(levels[i].verdict))  # the first weakest
    worst = levels[deciding]
    payload = {
        "levels": [rep.verdict for rep in levels],
        "deciding_level": deciding + 1,
        "detail": worst.witness,
    }
    tag = HOLDS_ON_GRID if worst.verdict == WITNESSED else worst.interpretation
    return WindowReport(worst.verdict, payload, s.horizon, tag, worst.certificate)


@settings(max_examples=300, deadline=None)
@given(
    bits=st.lists(st.booleans(), min_size=1, max_size=40),
    complete=st.booleans(),
    rule=st.sampled_from(
        [None, EVENS_RULE, ArithmeticProgression(1, 3), ArithmeticProgression(2, 4), DYADIC_RULE]
    ),
    a=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    nmax=st.integers(min_value=0, max_value=3),
    kmax=st.integers(min_value=1, max_value=12),
    g=st.integers(min_value=1, max_value=6),
)
def test_grid_reports_match_per_cell_oracle(bits, complete, rule, a, nmax, kmax, g):
    mask = np.array(bits)
    mask[0] = False
    if rule is not None:  # a window of the rule's set, thinned at random
        mask &= materialize(rule, len(bits)).mask
    s = WindowedSet.from_mask(mask, complete)
    a = tuple(a)
    grid = GridParams(nmax=nmax, kmax=kmax, g=g)
    assert fa_grid_report(s, a, grid, rule=rule) == _oracle_fa(s, a, grid, rule)
    assert fsa_grid_report(s, a, grid, rule=rule) == _oracle_fsa(s, a, grid, rule)
    # a staircase of len(a) levels, each level read from the per-cell oracle
    for which, level in (("fa", _oracle_fa), ("fsa", _oracle_fsa)):
        got = finfty_grid_report(s, len(a), grid, which=which, rule=rule)
        assert got == _oracle_finfty(s, len(a), grid, rule, level)


# ---------------------------------------------------------------------------
# F[infinity]


def test_finfty_witnessed_on_naturals():
    s = materialize(NATS_RULE, 100)
    rep = finfty_grid_report(s, 4, GridParams(nmax=2, kmax=8))
    assert rep.verdict == WITNESSED
    assert rep.witness["levels"] == [WITNESSED] * 4


def test_finfty_fails_at_level_two_on_evens():
    s = materialize(EVENS_RULE, 200)
    rep = finfty_grid_report(s, 2, GridParams(nmax=1, kmax=8), rule=EVENS_RULE)
    assert rep.verdict == REFUTED
    assert rep.witness["deciding_level"] == 2
    assert rep.witness["levels"] == [WITNESSED, REFUTED]
    assert rep.certificate["modulus"] == 2


def test_finfty_fsa_variant():
    s = materialize(EVENS_RULE, 200)
    rep = finfty_grid_report(
        s, 2, GridParams(nmax=1, kmax=8, g=2), which="fsa", rule=EVENS_RULE
    )
    assert rep.verdict == REFUTED and rep.witness["deciding_level"] == 2
    with pytest.raises(PreconditionError):
        finfty_grid_report(s, 0, GridParams())
    with pytest.raises(ConfigError):
        finfty_grid_report(s, 1, GridParams(), which="meow")


# ---------------------------------------------------------------------------
# textual forms


def test_parse_family_round_trips():
    texts = (
        "thick(8)",
        "syndetic(4)",
        "cofinite(8)",
        "nabla(thick(10))",
        "fa(1,2;4,64)",
        "fsa(1,2;4,2)",
        "finfty(3;4,100)",
    )
    for text in texts:
        q = parse_family_spec(text)
        assert parse_family_spec(q.literal()) == q
    q = parse_family_spec(" fa( 1 , 2 ; 4 , 64 ) ")
    assert q.vector == (1, 2) and q.grid.nmax == 4 and q.grid.kmax == 64


def test_parse_family_rejects_garbage():
    bad = (
        "",
        "thick()",
        "thick(1,2)",
        "thick(-3)",
        "fa(1,2)",
        "fa(;4,64)",
        "fa(1,2;4)",
        "nabla(fa(1;1,1))",
        "nabla(nabla(thick(2)))",
        "frob(1)",
        "finfty(1,2;3,4)",
    )
    for text in bad:
        with pytest.raises(ConfigError):
            parse_family_spec(text)


def test_family_integers_are_plain_tokens():
    # int() took a sign and digit separators; the call grammar takes -?digits
    for text in ("thick(+5)", "thick(1_0)", "fa(1,+2;3,4)"):
        with pytest.raises(ConfigError):
            parse_family_spec(text)
    assert parse_family_spec("thick(\n10 )") == FamilyQuery("plain", spec=FamilySpec("thick", 10))


plain_queries = st.builds(
    lambda kind, p: FamilyQuery("plain", spec=FamilySpec(kind, p)),
    st.sampled_from(["thick", "syndetic", "cofinite"]), st.integers(1, 10**6),
)
vectors = st.lists(st.integers(-5, 20), min_size=1, max_size=5).map(tuple)
bounds = st.integers(0, 10**4)
family_queries = st.one_of(
    plain_queries,
    plain_queries.map(lambda q: FamilyQuery("nabla", spec=q.spec)),
    st.builds(
        lambda v, n, k: FamilyQuery("fa", vector=v, grid=GridParams(nmax=n, kmax=k)),
        vectors, bounds, bounds,
    ),
    st.builds(
        lambda v, n, g: FamilyQuery("fsa", vector=v, grid=GridParams(nmax=n, kmax=0, g=g)),
        vectors, bounds, st.integers(1, 100),
    ),
    st.builds(
        lambda m, n, k: FamilyQuery("finfty", m_max=m, grid=GridParams(nmax=n, kmax=k)),
        st.integers(1, 8), bounds, bounds,
    ),
)


@settings(max_examples=200)
@given(family_queries, st.lists(st.sampled_from(["", " ", "\t", "\n"]), min_size=1))
def test_random_family_queries_round_trip(query, gaps):
    text = query.literal()
    assert parse_family_spec(text) == query
    assert hash(parse_family_spec(text)) == hash(query)
    # whitespace between any two tokens; an integer's digits and sign stay together
    pieces = [t for t in re.split(r"(-?\d+|[(),;])", text) if t]
    assert parse_family_spec("".join(g + t for g, t in zip(gaps * len(pieces), pieces))) == query
