"""Windowed three-valued decision procedures for recurrence-time families.

Thickness, syndeticity and cofiniteness are tail properties of an infinite
set; a finite window can *witness* some claims (an L-run exists) and
*refute* others (a gap exceeds the bound), but never both symmetrically.
Every report therefore carries a verdict in {Witnessed, Refuted,
Undetermined} plus an interpretation tag saying whether the verdict is a
proof about the infinite object or mere window-relative evidence:

- "proof": horizon-independent; re-running at any larger horizon agrees.
- "witness-only": a genuine finite witness (e.g. an L-run), which does not
  prove the unbounded property.
- "holds-on-window" / "holds-on-grid": no violation within the explored
  range; says nothing beyond it.
- "refuted-on-window": a violation on the window that falls short of a
  proof (e.g. a bounded witness search came up empty, but the quantifier
  is unbounded).

Sets sliced out of difference windows are *incomplete*: members shown are
real, but absences prove nothing.  Refutations that rest on an absence are
downgraded to Undetermined on incomplete inputs; witnesses stand.

The vector families quantify over offset vectors n and a witness step k.
The grid procedures truncate n to [0, Nmax]^r (evidence, not proof) but
never refute by exhausting k — k is unbounded, so refutations only come
from structural certificates: congruence arguments (every k leaves some
coordinate outside the set's residue classes) or the doubling argument
(coordinate j is pinned to twice coordinate i while no member of the set
has its double in the set).
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import CapExceeded, ConfigError, HorizonExhausted, PreconditionError
from .intset import (
    CallKind,
    CongruenceStructure,
    Record,
    SetRule,
    WindowedSet,
    congruence_structures,
    difference_head,
    difference_set,
    doubling_free_certificate,
)

WITNESSED = "Witnessed"
REFUTED = "Refuted"
UNDETERMINED = "Undetermined"
VERDICT_RANK = {REFUTED: 0, UNDETERMINED: 1, WITNESSED: 2}

PROOF = "proof"
WITNESS_ONLY = "witness-only"
HOLDS_ON_WINDOW = "holds-on-window"
HOLDS_ON_GRID = "holds-on-grid"
REFUTED_ON_WINDOW = "refuted-on-window"

DEFAULT_CELL_CAP = 10**6


class FamilySpec(Record):
    """thick(L) / syndetic(g) / cofinite(N0)."""

    kind: str
    param: int

    def __post_init__(self) -> None:
        if self.kind not in ("thick", "syndetic", "cofinite"):
            raise ConfigError(f"unknown family kind {self.kind!r}")
        if self.param < 1:
            raise ConfigError(f"{self.kind} parameter must be >= 1")

    def literal(self) -> str:
        return f"{self.kind}({self.param})"


class GridParams(Record):
    """Truncation bounds for the (n, k) quantifiers of the vector families.

    The vector length is taken from the vector itself; offsets n_i range
    over [0, nmax] (the definitions quantify n over Z_+, so grids start at
    0), k over [1, kmax].  g is the syndetic bound used by the F_s variant.
    """

    nmax: int = 4
    kmax: int = 64
    g: int | None = None
    cell_cap: int = DEFAULT_CELL_CAP

    def __post_init__(self) -> None:
        if self.nmax < 0 or self.kmax < 0:
            raise ConfigError("grid bounds must be non-negative")
        if self.g is not None and self.g < 1:
            raise ConfigError("syndetic bound must be >= 1")


class WindowReport(Record):
    verdict: str
    witness: dict | None
    horizon_used: int
    interpretation: str
    certificate: dict | None = None

    def __post_init__(self) -> None:
        if self.verdict not in VERDICT_RANK:
            raise ConfigError(f"unknown verdict {self.verdict!r}")
        if self.verdict in (WITNESSED, REFUTED) and self.witness is None:
            raise ConfigError(f"{self.verdict} requires a payload")


# ---------------------------------------------------------------------------
# plain families


def family_window_report(s: WindowedSet, spec: FamilySpec) -> WindowReport:
    """Three-valued verdict for thick(L) / syndetic(g) / cofinite(N0) on a window.

    Thick can only be Witnessed (an L-run is a finite fact) or Undetermined.
    Syndetic/cofinite can only be Refuted (a gap or a missing element inside
    a complete window stays a counterexample at every horizon) or
    Undetermined.  On incomplete windows absences prove nothing, so
    refutations degrade to Undetermined.
    """
    h = s.horizon
    if spec.kind == "thick":
        if spec.param > h:
            raise HorizonExhausted(f"thick({spec.param}) needs horizon >= {spec.param}")
        return _thick_report(s.mask, spec.param, h)

    if spec.kind == "syndetic":
        g = spec.param
        if g >= h:
            raise HorizonExhausted(f"syndetic({g}) needs horizon > {g}")
        gap = _syndetic_gap(s.values, h, g)
        if gap is not None:
            if s.complete:
                return WindowReport(REFUTED, gap, h, PROOF)
            return WindowReport(
                UNDETERMINED, dict(gap, holds_on_window=False), h, REFUTED_ON_WINDOW
            )
        diffs_max = int(np.diff(s.values).max()) if len(s.values) > 1 else 0
        return WindowReport(
            UNDETERMINED,
            {"holds_on_window": True, "max_gap": diffs_max},
            h,
            HOLDS_ON_WINDOW,
        )

    # cofinite
    n0 = spec.param
    if n0 >= h:
        raise HorizonExhausted(f"cofinite({n0}) needs horizon > {n0}")
    missing = np.flatnonzero(~s.mask[n0:])
    if missing.size:
        n = int(missing[0]) + n0
        if s.complete:
            return WindowReport(REFUTED, {"missing": n}, h, PROOF)
        return WindowReport(
            UNDETERMINED,
            {"missing": n, "holds_on_window": False},
            h,
            REFUTED_ON_WINDOW,
        )
    return WindowReport(UNDETERMINED, {"holds_on_window": True}, h, HOLDS_ON_WINDOW)


def _thick_report(mask: np.ndarray, run: int, h: int) -> WindowReport:
    """Witnessed at the first maximal run of ``run`` or more Trues, else the longest run."""
    edges = np.diff(np.concatenate(([False], mask, [False])).astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1) - starts
    hit = np.flatnonzero(lengths >= run)
    if hit.size:
        witness = {"run_start": int(starts[hit[0]]), "run_length": run}
        return WindowReport(WITNESSED, witness, h, WITNESS_ONLY)
    longest = int(lengths.max()) if lengths.size else 0
    return WindowReport(UNDETERMINED, {"longest_run": longest}, h, HOLDS_ON_WINDOW)


def _syndetic_gap(values: np.ndarray, h: int, g: int) -> dict | None:
    """First anchored successive gap exceeding g, scanning left to right.

    Anchors: the window start (a first member beyond g), successive member
    differences, and the tail (the true next member lies at or past the
    horizon, so a long tail slack is a sound counterexample).
    """
    if len(values) == 0:
        if h - 1 > g:
            return {"gap_from": None, "gap_to": None, "note": "window empty"}
        return None
    first = int(values[0])
    if first > g:
        return {"gap_from": None, "gap_to": first}
    diffs = np.diff(values)
    bad = np.flatnonzero(diffs > g)
    if bad.size:
        i = int(bad[0])
        return {"gap_from": int(values[i]), "gap_to": int(values[i + 1])}
    last = int(values[-1])
    if (h - 1) - last > g:
        return {"gap_from": last, "gap_to": None}
    return None


def nabla_report(s: WindowedSet, spec: FamilySpec) -> WindowReport:
    """Verdict for the difference set S-S; exactly the plain report of it.

    Members of the windowed difference set are real differences, so
    witnesses are sound; the window cannot certify that a difference is
    absent from the infinite object (pairs beyond the horizon may supply
    it), so the difference window is never complete and refutations arrive
    downgraded.

    thick(L) first scans :func:`difference_head`: the first maximal run of
    length >= L is fixed by the lags up to its L-th member, so a run found
    there is the plain report's witness and no transform is taken.
    """
    if spec.kind == "thick":
        report = _thick_report(difference_head(s), spec.param, s.horizon)
        if report.verdict == WITNESSED:
            return report
    return family_window_report(difference_set(s), spec)


# ---------------------------------------------------------------------------
# structural cell analysis


def structural_cell_certificate(
    a: Sequence[int],
    cell: Sequence[int],
    congruences: Sequence[CongruenceStructure] = (),
    doubling: dict | None = None,
) -> dict | None:
    """A proof that no k >= 1 has every k*a_i + n_i in the set, if one exists.

    Congruence route: residues are 1-periodic in k mod m, so checking the m
    residues of k covers all k.  Doubling route: if a_j = 2*a_i and
    n_j = 2*n_i then coordinate j is twice coordinate i for every k, which a
    doubling-free set never accommodates.
    """
    for cs in congruences:
        m, allowed = cs.modulus, cs.residues
        if all(
            any((k * ai + ni) % m not in allowed for ai, ni in zip(a, cell))
            for k in range(m)
        ):
            return {
                "name": "congruence",
                "modulus": m,
                "residues": sorted(allowed),
                "cell": list(cell),
                "statement": (
                    f"for every k, some coordinate k*a_i+n_i lies outside the "
                    f"residues {sorted(allowed)} mod {m} that carry the set"
                ),
            }
    if doubling is not None:
        for i, j in itertools.permutations(range(len(a)), 2):
            if a[j] == 2 * a[i] and cell[j] == 2 * cell[i]:
                return {
                    "name": "parity-law",
                    "cell": list(cell),
                    "coordinates": [i, j],
                    "statement": (
                        f"coordinate {j} equals twice coordinate {i} at every "
                        f"k; {doubling['statement']}"
                    ),
                }
    return None


# ---------------------------------------------------------------------------
# F[a]


def _check_grid_shape(a: Sequence[int], grid: GridParams) -> None:
    if not a:
        raise PreconditionError("vector must be non-empty")
    if any(ai < 1 for ai in a):
        raise PreconditionError("vector entries must be strictly positive")
    if (grid.nmax + 1) ** len(a) > grid.cell_cap:
        raise CapExceeded(
            f"grid of {(grid.nmax + 1) ** len(a)} cells exceeds cap {grid.cell_cap}"
        )


def _grid_scan(
    s: WindowedSet,
    a: Sequence[int],
    grid: GridParams,
    rule: SetRule | None,
    probe: Callable[[tuple[int, ...]], tuple[int | None, dict | None, bool]],
) -> tuple[WindowReport | None, list[tuple[tuple[int, ...], int]]]:
    """Scan the cells of [0, nmax]^r in order, up to the deciding one.

    ``probe(cell)`` gives (value, None, False) for a witnessed cell and
    (None, info, empty) for a failing one; an empty cell is refuted when a
    structural certificate excludes it.  Returns the Refuted or Undetermined
    report, or None and every cell's (cell, value) when all are witnessed.
    The first structural cell decides; so does the first failing cell when
    the rule has no congruence or doubling analyzer (no cell is structural).
    """
    congruences, doubling = (
        ((), None) if rule is None
        else (congruence_structures(rule), doubling_free_certificate(rule))
    )
    unrefutable = not congruences and doubling is None
    values: list[tuple[tuple[int, ...], int]] = []
    structural: tuple[tuple[int, ...], dict] | None = None
    failing: tuple[tuple[int, ...], dict] | None = None
    for cell in itertools.product(range(grid.nmax + 1), repeat=len(a)):
        if structural is not None or (failing is not None and unrefutable):
            break
        value, info, empty = probe(cell)
        cert = structural_cell_certificate(a, cell, congruences, doubling) if empty else None
        if cert is not None:
            structural = (cell, cert)
        elif info is None:
            values.append((cell, value))
        elif failing is None:
            failing = (cell, info)
    if structural is not None:
        cell, cert = structural
        witness = {"cell": list(cell), "vector": list(a)}
        return WindowReport(REFUTED, witness, s.horizon, PROOF, certificate=cert), values
    if failing is not None:
        cell, info = failing
        tag = HOLDS_ON_WINDOW if info["reason"] == "horizon-limited" else REFUTED_ON_WINDOW
        witness = dict(info, cell=list(cell), vector=list(a))
        return WindowReport(UNDETERMINED, witness, s.horizon, tag), values
    return None, values


def fa_grid_report(
    s: WindowedSet,
    a: Sequence[int],
    grid: GridParams,
    rule: SetRule | None = None,
) -> WindowReport:
    """Grid evidence for membership in the vector family of a.

    For every offset cell n in [0, nmax]^r, search the least k in [1, kmax]
    with k*a_i + n_i in S for all i.  All cells witnessed -> Witnessed
    (holds-on-grid).  A failing cell refutes only when a structural
    certificate excludes every k; a bare failed search leaves the verdict
    Undetermined because k is unbounded.  Cells whose search range leaves
    the horizon are reported Undetermined rather than failed.  The scan stops at the
    first structural cell (it refutes), and at the first failing cell when the rule
    has no congruence or doubling analyzer (no cell is then structural).
    """
    _check_grid_shape(a, grid)
    if grid.kmax < 1:
        raise ConfigError("kmax must be >= 1 for the k search")
    h, mask, span = s.horizon, s.mask, grid.nmax + 1
    # k*max(a) + n stays in the window only for k <= (h - 1) // max(a), so no
    # cell is known at any k past that: the tables stop there
    rows = min(grid.kmax, (h - 1) // max(a))
    if rows * span > grid.cell_cap:
        raise CapExceeded(f"k tables of {rows} x {span} entries exceed cap {grid.cell_cap}")
    ok_tables, known_tables = [], []
    for ai in a:
        ok = np.zeros((rows, span), dtype=bool)
        known = np.zeros((rows, span), dtype=bool)
        for v in range(span):
            k_hi = min(rows, (h - 1 - v) // ai)
            if k_hi >= 1:
                ok[:k_hi, v] = mask[ai + v : ai * k_hi + v + 1 : ai]
                known[:k_hi, v] = True
        ok_tables.append(ok)
        known_tables.append(known)

    def probe(cell: tuple[int, ...]) -> tuple[int | None, dict | None, bool]:
        ok = np.ones(rows, dtype=bool)
        known = np.ones(rows, dtype=bool)
        for i, v in enumerate(cell):
            ok &= ok_tables[i][:, v]
            known &= known_tables[i][:, v]
        hit = np.flatnonzero(ok & known)
        if hit.size:
            return int(hit[0]) + 1, None, False
        complete = rows == grid.kmax and bool(known.all())
        return None, {"reason": "no-witness" if complete else "horizon-limited"}, True

    report, witnesses = _grid_scan(s, a, grid, rule, probe)
    if report is not None:
        return report
    payload: dict = {
        "cells": len(witnesses),
        "max_k": max(k for _, k in witnesses),
        "vector": list(a),
    }
    if len(witnesses) <= 512:
        payload["witnesses"] = [[list(c), k] for c, k in witnesses]
    return WindowReport(WITNESSED, payload, h, HOLDS_ON_GRID)


def fa_structural_refute_even(a: Sequence[int]) -> WindowReport:
    """The even numbers never belong to the vector family of a (r >= 2).

    If every a_i is odd, take n = (1, 2, ..., r): for even k the first
    coordinate k*a_1 + 1 is odd, for odd k the second k*a_2 + 2 is odd.
    Otherwise take n = (1, ..., 1): an even a_i keeps k*a_i + 1 odd for
    every k.  Parity is 2-periodic in k, so checking k in {0, 1} verifies
    the claim for all k.
    """
    if len(a) < 2:
        raise PreconditionError("the even-set refutation needs a vector of length >= 2")
    if any(ai < 1 for ai in a):
        raise PreconditionError("vector entries must be strictly positive")
    if all(ai % 2 == 1 for ai in a):
        cell = tuple(range(1, len(a) + 1))
        argument = "one of k*a_1+1 and k*a_2+2 is odd for every k"
    else:
        cell = tuple(1 for _ in a)
        even_i = next(i for i, ai in enumerate(a) if ai % 2 == 0)
        argument = f"k*a_{even_i + 1}+1 is odd for every k (a_{even_i + 1} even)"
    for k in (0, 1):
        assert any((k * ai + ni) % 2 == 1 for ai, ni in zip(a, cell)), (a, cell)
    cert = {
        "name": "congruence",
        "modulus": 2,
        "residues": [0],
        "cell": list(cell),
        "statement": argument,
    }
    return WindowReport(
        REFUTED,
        {"cell": list(cell), "vector": list(a), "target": "evens"},
        0,
        PROOF,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# F_s[a]


def fsa_grid_report(
    s: WindowedSet,
    a: Sequence[int],
    grid: GridParams,
    rule: SetRule | None = None,
) -> WindowReport:
    """Grid evidence for the syndetic vector family.

    Per cell n the maximal candidate B(n) = {m >= 1 : a_i*m + n_i in S for
    all i} is computed on the window; any admissible carrier is a subset of
    B(n), so B(n) is the best possible candidate.  Witnessed when every
    B(n) keeps anchored gaps <= g on its window; Refuted only when some
    B(n) is structurally empty (then no carrier exists at any bound); a
    bare gap violation or an empty-looking window leaves Undetermined,
    since carriers with larger bounds remain possible.  Stops as fa_grid_report.
    """
    _check_grid_shape(a, grid)
    if grid.g is None:
        raise ConfigError("the syndetic vector family needs a gap bound g")
    g, h, mask = grid.g, s.horizon, s.mask

    def probe(cell: tuple[int, ...]) -> tuple[int | None, dict | None, bool]:
        m_eff = min((h - 1 - ni) // ai for ai, ni in zip(a, cell))
        if m_eff < 1:
            return None, {"reason": "horizon-limited"}, False
        b_mask = np.ones(m_eff, dtype=bool)
        for ai, ni in zip(a, cell):
            b_mask &= mask[ai + ni : ai * m_eff + ni + 1 : ai]
        members = np.flatnonzero(b_mask) + 1
        if members.size == 0:
            return None, {"reason": "empty-on-window"}, True
        gap = _syndetic_gap(members, m_eff + 1, g)
        if gap is not None:
            return None, dict(gap, reason="gap-exceeded"), False
        worst = int(np.diff(members).max()) if members.size > 1 else 0
        return max(worst, int(members[0])), None, False

    report, gaps = _grid_scan(s, a, grid, rule, probe)
    if report is not None:
        return report
    return WindowReport(
        WITNESSED,
        {"cells": len(gaps), "max_gap": max(gap for _, gap in gaps), "g": g, "vector": list(a)},
        h,
        HOLDS_ON_GRID,
    )


# ---------------------------------------------------------------------------
# F[infinity]


def finfty_grid_report(
    s: WindowedSet,
    m_max: int,
    grid: GridParams,
    which: str = "fa",
    rule: SetRule | None = None,
) -> WindowReport:
    """Conjunction over the staircase vectors (1), (1,2), ..., (1,...,m_max).

    The overall verdict is the weakest level verdict; the first level
    attaining it is reported.  A staircase whose k tables and cells, summed
    over its levels, exceed the cell cap is refused before the first level.
    """
    if m_max < 1:
        raise PreconditionError("m_max must be >= 1")
    if which not in ("fa", "fsa"):
        raise ConfigError(f"unknown variant {which!r}")
    # level i: i k tables and (nmax+1)^i cells; with nmax 0 only the tables grow (as m_max^2)
    span, work = grid.nmax + 1, 0
    for i in range(1, m_max + 1):
        work += i * (1 + min(grid.kmax, (s.horizon - 1) // i) * span) + span**i
        if work > grid.cell_cap:
            raise CapExceeded(f"staircase of {m_max} levels exceeds cap {grid.cell_cap}")
    level = fa_grid_report if which == "fa" else fsa_grid_report
    levels = [level(s, tuple(range(1, i + 1)), grid, rule) for i in range(1, m_max + 1)]
    ranks = [VERDICT_RANK[rep.verdict] for rep in levels]
    deciding = ranks.index(min(ranks)) + 1
    worst = levels[deciding - 1]
    payload = {
        "levels": [rep.verdict for rep in levels],
        "deciding_level": deciding,
        "detail": worst.witness,
    }
    return WindowReport(
        worst.verdict,
        payload,
        s.horizon,
        worst.interpretation if worst.verdict != WITNESSED else HOLDS_ON_GRID,
        certificate=worst.certificate,
    )


# ---------------------------------------------------------------------------
# textual forms


class FamilyQuery(Record):
    """Parsed CLI family expression; kind selects the procedure."""

    kind: str  # plain | nabla | fa | fsa | finfty
    spec: FamilySpec | None = None
    vector: tuple[int, ...] = ()
    grid: GridParams | None = None
    m_max: int = 0

    def literal(self) -> str:
        if self.kind == "plain":
            return self.spec.literal()
        if self.kind == "nabla":
            return f"nabla({self.spec.literal()})"
        head = ",".join(str(x) for x in self.vector)
        if self.kind == "fa":
            return f"fa({head};{self.grid.nmax},{self.grid.kmax})"
        if self.kind == "fsa":
            return f"fsa({head};{self.grid.nmax},{self.grid.g})"
        return f"finfty({self.m_max};{self.grid.nmax},{self.grid.kmax})"


def _nabla(query: FamilyQuery) -> FamilyQuery:
    if query.kind != "plain":
        raise ConfigError("nabla(...) takes a plain family")
    return FamilyQuery("nabla", spec=query.spec)


def _plain(kind: str) -> Callable[[int], FamilyQuery]:
    return lambda param: FamilyQuery("plain", spec=FamilySpec(kind, param))


_FAMILIES = CallKind("family", {
    **{kind: ("i", _plain(kind)) for kind in ("thick", "syndetic", "cofinite")},
    "nabla": ("c", _nabla),
    "fa": ("i+;ii", lambda *a: FamilyQuery(
        "fa", vector=a[:-2], grid=GridParams(nmax=a[-2], kmax=a[-1]))),
    "fsa": ("i+;ii", lambda *a: FamilyQuery(
        "fsa", vector=a[:-2], grid=GridParams(nmax=a[-2], kmax=0, g=a[-1]))),
    "finfty": ("i;ii", lambda m, nmax, kmax: FamilyQuery(
        "finfty", m_max=m, grid=GridParams(nmax=nmax, kmax=kmax))),
})


def parse_family_spec(text: str) -> FamilyQuery:
    """thick(L) | syndetic(g) | cofinite(N0) | nabla(<plain>) |
    fa(a1,..;Nmax,Kmax) | fsa(a1,..;Nmax,g) | finfty(m;Nmax,Kmax)."""
    return _FAMILIES.parse(text)
