"""Sweep-based transitivity checkers and windowed verifiers.

Every checker enumerates ordered tuples of admissible words in
length-then-lexicographic order and records the smallest witness per
tuple, so reports are deterministic and stable across runs.  A
FailsOnWindow verdict states only that no witness exists below the
horizon; it is promoted to a refutation nowhere in this module — callers
attach structural emptiness certificates where the hitting kernel can
supply one.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, PreconditionError
from .families import (
    UNDETERMINED,
    VERDICT_RANK,
    WITNESSED,
    FamilyQuery,
    WindowReport,
    family_window_report,
    fa_grid_report,
    fsa_grid_report,
    finfty_grid_report,
    nabla_report,
)
from .intset import CallKind, Record, WindowedSet, cross_differences
from .points import GeneratedPoint, entering_window
from .subshift import (
    DEFAULT_WORD_CAP,
    HitAnalysis,
    ShiftRule,
    TWO_SIDED,
    Word,
    _positions_admissible,
    admissible_rows,
    chunk_rows,
    emptiness_certificate,
    enumerate_admissible_words,
    hitting_batches,
    row_texts,
    unique_rows,
)

FAILS_ON_WINDOW = "FailsOnWindow"

_MODES = CallKind("mode", {"thick": ("i", lambda run: run)})


class SweepOutcome(Record):
    """One enumerated tuple: its words, least witness (or None), extras."""

    words: tuple[str, ...]
    witness: int | None
    detail: dict | None = None


class SweepOutcomes(Sequence):
    """A sweep's outcomes in tuple order, read-only; each is built on access.

    Tuple t has the words ``parts[j]`` for j in ``rows[t]``, concatenated, and
    the least witness ``witnesses[t]`` (0: none).  Its detail is ``details[t]``
    where the sparse map holds one (keys ascending), else a copy of ``common``.
    Slices are tuples of outcomes, and equality is that of the tuple.
    """

    def __init__(self, parts, rows, witnesses, details=None, common=None):
        self.parts, self.rows, self.witnesses = parts, rows, witnesses
        self.details, self.common = details or {}, common

    def __len__(self) -> int:
        return len(self.witnesses)

    def _at(self, t: int) -> SweepOutcome:
        words = sum(map(self.parts.__getitem__, self.rows[t].tolist()), ())
        detail = self.details.get(t, None if self.common is None else dict(self.common))
        return SweepOutcome(words, int(self.witnesses[t]) or None, detail)

    def __getitem__(self, key):
        at = range(len(self))[key]
        return tuple(map(self._at, at)) if isinstance(key, slice) else self._at(at)

    def __iter__(self):
        return map(self._at, range(len(self)))

    def __eq__(self, other) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, SweepOutcomes) else other)


class SweepReport(Record):
    rule: str
    operation: str
    params: dict
    verdict: str
    outcomes: Sequence[SweepOutcome]
    failing: tuple[str, ...] | None
    stats: dict | None = None

    def __post_init__(self) -> None:
        if self.verdict not in (WITNESSED, FAILS_ON_WINDOW, UNDETERMINED):
            raise ConfigError(f"unknown verdict {self.verdict!r}")


def _sweep_rows(rule: ShiftRule, length: int) -> tuple[np.ndarray, int]:
    """Admissible length-l words as bool rows in lex order, and the offset
    they are placed at: centered when two-sided."""
    offset = -((length - 1) // 2) if rule.sidedness == TWO_SIDED else 0
    return admissible_rows(rule, length), offset


def _close(
    rule: ShiftRule,
    operation: str,
    params: dict,
    outcomes: SweepOutcomes,
    extra_stats: dict | None = None,
) -> SweepReport:
    witnesses = outcomes.witnesses
    failing = np.flatnonzero(witnesses == 0)[:1].tolist()
    stats = {"tuples": len(witnesses)}
    if witnesses.any():
        stats["max_witness"] = int(witnesses.max())
    verdict = FAILS_ON_WINDOW if failing else WITNESSED
    words = outcomes[failing[0]].words if failing else None
    stats.update(extra_stats or {})
    return SweepReport(rule.literal(), operation, params, verdict, outcomes, words, stats)


def _index_tuples(width: int, k: int) -> np.ndarray:
    """Every k-tuple over range(width), one per row, in lexicographic order."""
    return np.indices((width,) * k).reshape(k, -1).T


def _mask_ids(
    rule: ShiftRule, coords: Sequence[Sequence[tuple[int, int, np.ndarray]]],
    tuples: np.ndarray, h: int,
) -> tuple[np.ndarray, np.ndarray, Callable[[int, int], HitAnalysis]]:
    """Number the distinct hitting masks of ``tuples`` placed at each coordinate.

    Returns the distinct masks, one ``np.packbits`` row each; ``ids``, with
    row ``ids[i, t]`` the window of tuple t placed by ``coords[i]`` (the
    placements of :func:`hitting_batches`); and
    ``read(i, t)``, that window's HitAnalysis.  A chunk's rows are sorted
    packed (in the bool rows' order: the first bit is the most significant)
    and matched to the masks numbered before it, so none is sorted again.
    """
    numbered = {}  # packed mask -> id, in id order
    ids = np.empty((len(coords), len(tuples)), dtype=np.int64)
    starts, analyses = [[] for _ in coords], [[] for _ in coords]
    for i, placements in enumerate(coords):
        for start, batch, analysis in hitting_batches(rule, placements, tuples, h):
            keys, inverse = unique_rows(np.packbits(batch, axis=1))
            found = [numbered.setdefault(k.tobytes(), len(numbered)) for k in keys]
            ids[i, start : start + len(batch)] = np.array(found)[inverse]
            starts[i].append(start)
            analyses[i].append(analysis)

    def read(i: int, t: int) -> HitAnalysis:
        c = bisect.bisect_right(starts[i], t) - 1
        return analyses[i][c](t - starts[i][c])

    packed = np.frombuffer(b"".join(numbered), dtype=np.uint8).reshape(len(numbered), -1)
    return packed, ids, read


def _family_firsts(packed: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every family (one tuple per coordinate, in lexicographic order) and the
    least n in all of its windows at once, or 0; one AND per distinct family."""
    families = _index_tuples(ids.shape[1], len(ids))
    columns = ids[np.arange(len(ids)), families]
    rank = np.zeros(len(columns), dtype=np.int64)  # re-ranked per column: below rows x masks
    for column in columns.T:
        rank = np.unique(rank * len(packed) + column, return_inverse=True)[1]
    combos = np.empty((rank.max() + 1, len(ids)), dtype=ids.dtype)
    combos[rank] = columns
    rows = chunk_rows(packed.shape[1] * 8 * len(ids))
    firsts = np.concatenate([  # 0 is never a member: 0 means none
        np.unpackbits(np.bitwise_and.reduce(packed[key], axis=1), axis=1).argmax(axis=1)
        for key in (combos[lo : lo + rows] for lo in range(0, len(combos), rows))
    ])
    return families, firsts[rank]


def _first_runs(masks: np.ndarray, run: int) -> np.ndarray:
    """Per row, the least n >= 1 with masks[row, n : n+run] all true, or 0."""
    ok = masks.copy()
    ok[:, 0] = False
    for i in range(1, min(run, masks.shape[1])):
        ok[:, :-i] &= masks[:, i:]
        ok[:, -i:] = False
    return ok.argmax(axis=1)


def _certificates(
    rule: ShiftRule, failing: list[int], analyses: Callable[[int], object], h: int
) -> dict[int, dict]:
    """{t: {"certificate": ...}} for each failing tuple t whose empty window has
    one; ``analyses(t)`` gives the HitAnalysis (or list of them) of tuple t."""
    if not failing:
        return {}
    empty = WindowedSet.from_mask(np.zeros(h + 1, dtype=bool))
    certs = {t: emptiness_certificate(rule, empty, analyses(t), h) for t in failing}
    return {t: {"certificate": cert} for t, cert in certs.items() if cert is not None}


def _words(rows: np.ndarray, tuples: np.ndarray | None = None) -> list[tuple[str, ...]]:
    """The words of each row of ``tuples``; of each word row alone by default."""
    names = row_texts(rows)
    return [(n,) for n in names] if tuples is None else [
        tuple(names[w] for w in tup) for tup in tuples.tolist()
    ]


def check_transitive(
    rule: ShiftRule, length: int, h: int, mode: str = "plain"
) -> SweepReport:
    """Sweep ordered pairs of admissible words through the hitting kernel.

    plain demands a nonempty window; thick(L) demands an L-run inside it
    (window evidence for weak mixing); cofinite_from reports the least N0
    with [N0, H] fully inside (window evidence for strong mixing).
    """
    run = None if mode in ("plain", "cofinite_from") else _MODES.parse(mode)
    if run is not None and run < 1:
        raise ConfigError("thick parameter must be >= 1")
    rows, offset = _sweep_rows(rule, length)
    tuples = _index_tuples(len(rows), 2)
    firsts = []
    for _, masks, _ in hitting_batches(rule, [(0, offset, rows), (1, offset, rows)], tuples, h):
        if mode != "cofinite_from":
            firsts.append(_first_runs(masks, run or 1))
        else:  # one past the last n >= 1 outside the window (1 for none)
            tail = masks[:, :0:-1]  # columns H down to 1
            firsts.append(np.where(tail.all(axis=1), 1, h + 1 - tail.argmin(axis=1)))
    witnesses = np.concatenate(firsts)
    details, common = {}, None
    if run is not None:
        common = {"run_length": run}
    elif mode != "plain":  # a window missing H has no cofinite tail
        details = {t: {"last_missing": h} if n0 > h else {"n0": n0}
                   for t, n0 in enumerate(witnesses.tolist())}
        witnesses[witnesses > h] = 0
    outcomes = SweepOutcomes(_words(rows), tuples, witnesses, details, common)
    return _close(rule, "check_transitive", {"l": length, "h": h, "mode": mode}, outcomes)


def check_a_transitive(
    rule: ShiftRule, a: Sequence[int], length: int, h: int
) -> SweepReport:
    """Multi-transitivity sweep: every r-tuple of cylinder pairs must admit
    a common n with each pair (u_i, v_i) hit at stride a_i."""
    a = tuple(int(x) for x in a)
    if not a or any(x < 1 for x in a):
        raise PreconditionError("vector entries must be >= 1")
    rows, offset = _sweep_rows(rule, length)
    pairs = _index_tuples(len(rows), 2)
    coords = [[(0, offset, rows), (ai, offset, rows)] for ai in a]
    packed, ids, read = _mask_ids(rule, coords, pairs, h)
    families, firsts = _family_firsts(packed, ids)
    certs = _certificates(
        rule, np.flatnonzero(firsts == 0).tolist(),
        lambda f: [read(i, p) for i, p in enumerate(families[f].tolist())], h,
    )
    outcomes = SweepOutcomes(_words(rows, pairs), families, firsts, certs)
    return _close(
        rule, "check_a_transitive", {"a": list(a), "l": length, "h": h}, outcomes
    )


def _require_strictly_increasing(a: tuple[int, ...]) -> None:
    if any(y <= x for x, y in zip(a, a[1:])) or (a and a[0] < 1):
        raise PreconditionError(
            "delta vectors must be strictly increasing with positive entries; "
            "a repeated entry, as in (1,1), collapses the diagonal system to "
            "a single point and the sweep would be meaningless"
        )


def check_delta_a_transitive(
    rule: ShiftRule, a: Sequence[int], length: int, h: int
) -> SweepReport:
    """Delta-transitivity sweep: every (r+1)-tuple (U_0..U_r) must admit an
    n with U_0 at 0 and U_i at a_i*n jointly admissible.

    Failing tuples carry the kernel's emptiness certificate when one
    exists; without one the verdict stays a window fact.
    """
    a = tuple(int(x) for x in a)
    if not a:
        raise PreconditionError("vector must be nonempty")
    _require_strictly_increasing(a)
    rows, offset = _sweep_rows(rule, length)
    tuples = _index_tuples(len(rows), len(a) + 1)
    placements = [(c, offset, rows) for c in (0,) + a]
    firsts, certs = [], {}
    for start, masks, analysis in hitting_batches(rule, placements, tuples, h):
        firsts.append(masks.argmax(axis=1))  # 0 is never a member: 0 means none
        failing = (np.flatnonzero(firsts[-1] == 0) + start).tolist()
        certs.update(_certificates(rule, failing, lambda t: analysis(t - start), h))
    outcomes = SweepOutcomes(_words(rows), tuples, np.concatenate(firsts), certs)
    return _close(
        rule, "check_delta_a_transitive", {"a": list(a), "l": length, "h": h}, outcomes
    )


# ---------------------------------------------------------------------------
# verifiers


class NuvReport(Record):
    """Comparison of the hitting window with entering-time differences."""

    rule: str
    u: str
    v: str
    h: int
    h_cmp: int
    equal: bool
    mismatches: tuple[int, ...]
    sizes: dict


def _check_scale(rule: ShiftRule, point: GeneratedPoint, scale: int) -> None:
    if scale <= point.scale:
        return
    text = point.prefix_string()
    for w in row_texts(admissible_rows(rule, scale, cap=max(scale, DEFAULT_WORD_CAP))):
        if w not in text:
            raise PreconditionError(
                f"prefix is not transitive at scale {scale}: {w} never occurs"
            )


def _check_nuv(
    rule: ShiftRule, point: GeneratedPoint, h: int, h_cmp: int, scales: Sequence[int]
) -> None:
    """The preconditions of the N(U,V) comparison, for words of the given lengths."""
    if h_cmp < 1 or h_cmp > h // 2:
        raise PreconditionError("h_cmp must lie in [1, h/2]")
    if len(point) < h:
        raise PreconditionError(
            f"prefix length {len(point)} is shorter than the horizon {h}"
        )
    if not _positions_admissible(rule, np.flatnonzero(point.bits)):
        raise PreconditionError(
            f"the point's prefix is not admissible under {rule.literal()}, so its "
            "entering-time differences need not be hitting times"
        )
    for scale in scales:
        _check_scale(rule, point, scale)


def _nuv_reports(
    rule: ShiftRule, point: GeneratedPoint, words: Sequence[Word],
    batches: Sequence[tuple[Sequence[int], Sequence[int]]], h: int, h_cmp: int,
) -> list[NuvReport]:
    """Compare N(u,v) with N(x,v) - N(x,u) over [0, h_cmp] for each u in ``us``
    and v in ``vs`` of each ``(us, vs)`` of ``batches`` (indices into ``words``).

    Each word's entering window and its spectrum are taken once; the
    hitting windows come in one batch per element of ``batches``, whose
    index groups each hold words of one length and are stacked into one
    rows array each.
    """
    entering = [entering_window(rule, point, w, h - w.length) for w in words]
    pairs = [list(itertools.product(us, vs)) for us, vs in batches]
    differences = cross_differences(entering, sum(pairs, []), h_cmp + 1)
    stacked = {id(g): np.array([words[i].row for i in g]) for b in batches for g in b}
    reports = {}
    for (us, vs), idx in zip(batches, pairs):
        placements = [(0, 0, stacked[id(us)]), (1, 0, stacked[id(vs)])]
        tuples = np.indices((len(us), len(vs))).reshape(2, -1).T
        for start, masks, _ in hitting_batches(rule, placements, tuples, h_cmp):
            for (i, j), window in zip(idx[start:], masks):
                diffs = differences(i, j)  # like window, it covers [0, h_cmp] and never holds 0
                stray = np.flatnonzero(diffs & ~window)
                if stray.size:
                    raise AssertionError(
                        f"entering-time differences {stray[:8].tolist()} missing from the "
                        "hitting window; the inclusion is exact and this indicates a kernel bug"
                    )
                missed = tuple(np.flatnonzero(window & ~diffs).tolist())
                sizes = {"window": int(window.sum()), "differences": int(diffs.sum())}
                u, v = str(words[i]), str(words[j])
                reports[i, j] = NuvReport(rule.literal(), u, v, h, h_cmp, not missed, missed, sizes)
    return [reports[key] for key in sorted(reports)]


def verify_nuv(
    rule: ShiftRule,
    point: GeneratedPoint,
    u: Word,
    v: Word,
    h: int,
    h_cmp: int,
) -> NuvReport:
    """Check N(U,V) against N(x,V) - N(x,U) on a truncation-safe window.

    Every difference of entering times is a genuine hitting time, so the
    difference set must embed in the hitting window exactly; the converse
    can miss only through window truncation, and those misses are
    reported.
    """
    _check_nuv(rule, point, h, h_cmp, [max(u.length, v.length)])
    return _nuv_reports(rule, point, [u, v], [([0], [1])], h, h_cmp)[0]


def verify_nuv_pairs(
    rule: ShiftRule, point: GeneratedPoint, wordlen: int, h: int, h_cmp: int
) -> list[NuvReport]:
    """The verify_nuv comparison on every pair of words up to length wordlen.

    The point is checked once; the hitting windows come in one batch per
    (|u|, |v|).
    """
    if wordlen < 1:
        raise ConfigError("word length must be >= 1")
    _check_nuv(rule, point, h, h_cmp, range(1, wordlen + 1))
    words = [w for n in range(1, wordlen + 1) for w in enumerate_admissible_words(rule, n)]
    groups = [[i for i, w in enumerate(words) if w.length == n] for n in range(1, wordlen + 1)]
    return _nuv_reports(rule, point, words, list(itertools.product(groups, repeat=2)), h, h_cmp)


class OrbitClosureReport(Record):
    """``lhs`` and ``rhs`` hold each tuple's least witness on either side."""

    rule: str
    a: tuple[int, ...]
    a_prime: tuple[int, ...]
    length: int
    h: int
    agree: bool
    lhs: SweepOutcomes
    rhs: SweepOutcomes


def verify_orbit_closure_prop(
    rule: ShiftRule, a: Sequence[int], length: int, h: int
) -> OrbitClosureReport:
    """Compare diagonal-orbit density against the reduced delta sweep.

    LHS: some n <= H places U_0..U_r at n*a_1..n*a_{r+1} jointly.  RHS:
    the delta window for a' = (a_2-a_1, ..., a_{r+1}-a_1) is nonempty.
    Both are computed independently; the report records agreement
    tuple-by-tuple.
    """
    a = tuple(int(x) for x in a)
    if len(a) < 2:
        raise PreconditionError("vector must have length >= 2")
    _require_strictly_increasing(a)
    a_prime = tuple(x - a[0] for x in a[1:])
    rows, offset = _sweep_rows(rule, length)
    tuples = _index_tuples(len(rows), len(a))
    names = _words(rows)

    def side(coefs: tuple[int, ...]) -> SweepOutcomes:
        placements = [(c, offset, rows) for c in coefs]
        batches = hitting_batches(rule, placements, tuples, h)
        # 0 is never a member: 0 means none
        return SweepOutcomes(names, tuples, np.concatenate([m.argmax(axis=1) for _, m, _ in batches]))

    lhs, rhs = side(a), side((0,) + a_prime)
    agree = bool(((lhs.witnesses == 0) == (rhs.witnesses == 0)).all())
    return OrbitClosureReport(rule.literal(), a, a_prime, length, h, agree, lhs, rhs)


def verify_delta_product(
    rule: ShiftRule,
    a: Sequence[int],
    n: int,
    length: int,
    h: int,
) -> SweepReport:
    """Delta-transitivity of the strided product system, swept directly.

    For every coordinate-wise family of (n+1)-tuples of cylinders, some
    m <= H must superpose tuple i along 0, m*a_i, ..., n*m*a_i for every
    coordinate at once.  (Meaningful when the base system passes the
    delta sweep for (1, ..., n*max(a)); that hypothesis is the caller's.)
    """
    a = tuple(int(x) for x in a)
    if not a:
        raise PreconditionError("vector must be nonempty")
    _require_strictly_increasing(a)
    if n < 1:
        raise PreconditionError("n must be >= 1")
    rows, offset = _sweep_rows(rule, length)
    tuples = _index_tuples(len(rows), n + 1)
    coords = [[(j * ai, offset, rows) for j in range(n + 1)] for ai in a]
    packed, ids, _ = _mask_ids(rule, coords, tuples, h)
    families, firsts = _family_firsts(packed, ids)
    outcomes = SweepOutcomes(_words(rows, tuples), families, firsts)
    return _close(
        rule,
        "verify_delta_product",
        {"a": list(a), "n": n, "l": length, "h": h},
        outcomes,
        {"unique_masks": len(packed)},
    )


# ---------------------------------------------------------------------------
# point diagnostics


class DiagnosticReport(Record):
    rule: str
    query: str
    length: int
    h: int
    verdict: str
    per_cylinder: tuple[tuple[str, WindowReport], ...]


def _dispatch_query(
    s: WindowedSet, query: FamilyQuery
) -> WindowReport:
    if query.kind == "plain":
        return family_window_report(s, query.spec)
    if query.kind == "nabla":
        return nabla_report(s, query.spec)
    if query.kind == "fa":
        return fa_grid_report(s, query.vector, query.grid)
    if query.kind == "fsa":
        return fsa_grid_report(s, query.vector, query.grid)
    if query.kind == "finfty":
        which = "fsa" if query.grid is not None and query.grid.g else "fa"
        return finfty_grid_report(s, query.m_max, query.grid, which=which)
    raise ConfigError(f"unknown query kind {query.kind!r}")


def point_diagnostic(
    rule: ShiftRule,
    point: GeneratedPoint,
    length: int,
    h: int,
    query: FamilyQuery,
    words: Sequence[Word] | None = None,
) -> DiagnosticReport:
    """Apply a family report to each entering window of the point.

    Sweeps every admissible length-l word by default; an explicit word
    list restricts the sweep (useful for periodic points, which are not
    transitive and cannot pass the default scale check).
    """
    if words is None:
        _check_scale(rule, point, length)
        words = list(enumerate_admissible_words(rule, length))
    per: list[tuple[str, WindowReport]] = []
    for w in words:
        s = entering_window(rule, point, w, h)
        per.append((str(w), _dispatch_query(s, query)))
    worst = min(VERDICT_RANK[rep.verdict] for _, rep in per)
    verdict = next(v for v, rank in VERDICT_RANK.items() if rank == worst)
    return DiagnosticReport(
        rule.literal(), query.literal(), length, h, verdict, tuple(per)
    )
