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
import functools
import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, PreconditionError
from .families import (
    UNDETERMINED,
    VERDICT_RANK,
    WITNESSED,
    FamilyQuery,
    GridParams,
    WindowReport,
    family_window_report,
    fa_grid_report,
    fsa_grid_report,
    finfty_grid_report,
    nabla_report,
)
from .intset import WindowedSet, cross_differences, first_member
from .points import GeneratedPoint, entering_window
from .subshift import (
    Cylinder,
    HitAnalysis,
    ShiftRule,
    TWO_SIDED,
    Word,
    chunk_rows,
    emptiness_certificate,
    enumerate_admissible_words,
    hitting_batches,
    is_admissible,
    unique_rows,
)

FAILS_ON_WINDOW = "FailsOnWindow"

_MODE = re.compile(r"plain|thick\((\d+)\)|cofinite_from")


@dataclass(frozen=True)
class SweepOutcome:
    """One enumerated tuple: its words, least witness (or None), extras."""

    words: tuple[str, ...]
    witness: int | None
    detail: dict | None = None


@dataclass(frozen=True)
class SweepReport:
    rule: str
    operation: str
    params: dict
    verdict: str
    outcomes: tuple[SweepOutcome, ...]
    failing: tuple[str, ...] | None
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in (WITNESSED, FAILS_ON_WINDOW, UNDETERMINED):
            raise ConfigError(f"unknown verdict {self.verdict!r}")


def sweep_cylinders(rule: ShiftRule, length: int, cap: int | None = None) -> list[Cylinder]:
    """Admissible length-l cylinders in lex order; centered when two-sided."""
    offset = -((length - 1) // 2) if rule.sidedness == TWO_SIDED else 0
    kwargs = {} if cap is None else {"cap": cap}
    return [Cylinder(w, offset) for w in enumerate_admissible_words(rule, length, **kwargs)]


def _close(
    rule: ShiftRule,
    operation: str,
    params: dict,
    outcomes: list[SweepOutcome],
    extra_stats: dict | None = None,
) -> SweepReport:
    failing = next((o for o in outcomes if o.witness is None), None)
    stats = {"tuples": len(outcomes)}
    witnesses = [o.witness for o in outcomes if o.witness is not None]
    if witnesses:
        stats["max_witness"] = max(witnesses)
    if extra_stats:
        stats.update(extra_stats)
    return SweepReport(
        rule.literal(),
        operation,
        params,
        WITNESSED if failing is None else FAILS_ON_WINDOW,
        tuple(outcomes),
        None if failing is None else failing.words,
        stats,
    )


def _index_tuples(width: int, k: int) -> np.ndarray:
    """Every k-tuple over range(width), one per row, in lexicographic order."""
    return np.indices((width,) * k).reshape(k, -1).T


def _hits(
    rule: ShiftRule, coefs: Sequence[int], cylinders: list[Cylinder], h: int
) -> Iterator[tuple[list[int], int, np.ndarray, Callable[[], HitAnalysis]]]:
    """(tuple, least witness or 0, window mask, its analysis) for every tuple of
    cylinders placed at ``coefs``, in lexicographic order, a kernel chunk at a time."""
    tuples = _index_tuples(len(cylinders), len(coefs))
    for start, masks, analysis in hitting_batches(rule, coefs, cylinders, tuples, h):
        firsts = masks.argmax(axis=1).tolist()  # 0 is never a member: 0 means none
        for i, tup in enumerate(tuples[start : start + len(masks)].tolist()):
            yield tup, firsts[i], masks[i], functools.partial(analysis, i)


def _mask_ids(
    rule: ShiftRule, coords: Sequence[Sequence[int]], cylinders: list[Cylinder],
    tuples: np.ndarray, h: int,
) -> tuple[np.ndarray, np.ndarray, Callable[[int, int], HitAnalysis]]:
    """Number the distinct hitting masks of ``tuples`` placed at each coordinate.

    Returns the distinct masks, one ``np.packbits`` row each; ``ids``, with
    row ``ids[i, t]`` the window of tuple t placed at ``coords[i]``; and
    ``read(i, t)``, that window's HitAnalysis.  A chunk's distinct rows are
    matched to the masks numbered before it by their exact packed bytes, so
    no earlier mask is sorted again.
    """
    numbered = {}  # packed mask -> id, in id order
    ids = np.empty((len(coords), len(tuples)), dtype=np.int64)
    starts, analyses = [[] for _ in coords], [[] for _ in coords]
    for i, coefs in enumerate(coords):
        for start, batch, analysis in hitting_batches(rule, coefs, cylinders, tuples, h):
            keys, inverse = unique_rows(batch)
            found = [numbered.setdefault(np.packbits(k).tobytes(), len(numbered)) for k in keys]
            ids[i, start : start + len(batch)] = np.array(found)[inverse]
            starts[i].append(start)
            analyses[i].append(analysis)

    def read(i: int, t: int) -> HitAnalysis:
        c = bisect.bisect_right(starts[i], t) - 1
        return analyses[i][c](t - starts[i][c])

    packed = np.frombuffer(b"".join(numbered), dtype=np.uint8).reshape(len(numbered), -1)
    return packed, ids, read


def _family_firsts(packed: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Every family (one tuple per coordinate, in lexicographic order) and the
    least n in all of its windows at once, or 0; one AND per distinct family."""
    families = _index_tuples(ids.shape[1], len(ids))
    combos, inverse = unique_rows(ids[np.arange(len(ids)), families])
    rows = chunk_rows(packed.shape[1] * 8 * len(ids))
    firsts = np.concatenate([  # 0 is never a member: 0 means none
        np.unpackbits(np.bitwise_and.reduce(packed[key], axis=1), axis=1).argmax(axis=1)
        for key in (combos[lo : lo + rows] for lo in range(0, len(combos), rows))
    ])
    return families, firsts[inverse].tolist()


def _first_run(mask: np.ndarray, run: int) -> int | None:
    """Least n with mask[n : n+run] all true, ignoring index 0."""
    ok = mask.copy()
    ok[0] = False
    for i in range(1, min(run, mask.size)):
        ok[:-i] &= mask[i:]
        ok[-i:] = False
    return first_member(ok)


def _outcome(
    rule: ShiftRule, words: tuple[str, ...], first: int, mask: np.ndarray, analyses, h: int
) -> SweepOutcome:
    """A tuple's outcome; an empty window carries its certificate when one exists."""
    if first:
        return SweepOutcome(words, first)
    cert = emptiness_certificate(rule, WindowedSet.from_mask(mask), analyses(), h)
    return SweepOutcome(words, None, None if cert is None else {"certificate": cert})


def check_transitive(
    rule: ShiftRule, length: int, h: int, mode: str = "plain"
) -> SweepReport:
    """Sweep ordered pairs of admissible words through the hitting kernel.

    plain demands a nonempty window; thick(L) demands an L-run inside it
    (window evidence for weak mixing); cofinite_from reports the least N0
    with [N0, H] fully inside (window evidence for strong mixing).
    """
    m = _MODE.fullmatch(mode)
    if not m:
        raise ConfigError(f"unknown mode {mode!r}")
    run = int(m.group(1)) if m.group(1) else None
    if run == 0:
        raise ConfigError("thick parameter must be >= 1")
    cylinders = sweep_cylinders(rule, length)
    names = [str(c.word) for c in cylinders]
    outcomes = []
    for (u, v), first, mask, _ in _hits(rule, (0, 1), cylinders, h):
        words = (names[u], names[v])
        if mode == "plain":
            outcomes.append(SweepOutcome(words, first or None))
        elif run is not None:
            outcomes.append(SweepOutcome(words, _first_run(mask, run), {"run_length": run}))
        else:
            missing = np.flatnonzero(~mask[1:]) + 1
            last = int(missing[-1]) if missing.size else 0
            if last >= h:
                outcomes.append(SweepOutcome(words, None, {"last_missing": last}))
            else:
                outcomes.append(SweepOutcome(words, last + 1, {"n0": last + 1}))
    return _close(rule, "check_transitive", {"l": length, "h": h, "mode": mode}, outcomes)


def check_a_transitive(
    rule: ShiftRule, a: Sequence[int], length: int, h: int
) -> SweepReport:
    """Multi-transitivity sweep: every r-tuple of cylinder pairs must admit
    a common n with each pair (u_i, v_i) hit at stride a_i."""
    a = tuple(int(x) for x in a)
    if not a or any(x < 1 for x in a):
        raise PreconditionError("vector entries must be >= 1")
    cylinders = sweep_cylinders(rule, length)
    names = [str(c.word) for c in cylinders]
    pairs = _index_tuples(len(cylinders), 2)
    packed, ids, read = _mask_ids(rule, [(0, ai) for ai in a], cylinders, pairs, h)
    families, firsts = _family_firsts(packed, ids)
    pair_words = [(names[u], names[v]) for u, v in pairs.tolist()]
    empty = np.zeros(h + 1, dtype=bool)  # the common window of every failing family
    outcomes = []
    for family, first in zip(families.tolist(), firsts):
        words = sum(map(pair_words.__getitem__, family), ())
        analyses = lambda family=family: [read(i, p) for i, p in enumerate(family)]
        outcomes.append(_outcome(rule, words, first, empty, analyses, h))
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
    cylinders = sweep_cylinders(rule, length)
    names = [str(c.word) for c in cylinders]
    outcomes = [
        _outcome(rule, tuple(names[w] for w in tup), first, mask, read, h)
        for tup, first, mask, read in _hits(rule, (0,) + a, cylinders, h)
    ]
    return _close(
        rule, "check_delta_a_transitive", {"a": list(a), "l": length, "h": h}, outcomes
    )


# ---------------------------------------------------------------------------
# verifiers


@dataclass(frozen=True)
class NuvReport:
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
    for w in enumerate_admissible_words(rule, scale, cap=max(scale, 12)):
        if str(w) not in text:
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
    if not is_admissible(rule, point.word):
        raise PreconditionError(
            f"the point's prefix is not admissible under {rule.literal()}, so its "
            "entering-time differences need not be hitting times"
        )
    for scale in scales:
        _check_scale(rule, point, scale)


def _nuv_reports(
    rule: ShiftRule, point: GeneratedPoint, words: Sequence[Word],
    batches: Sequence[Sequence[tuple[int, int]]], h: int, h_cmp: int,
) -> list[NuvReport]:
    """Compare N(u,v) with N(x,v) - N(x,u) over [0, h_cmp] for each index pair of ``batches``.

    Each word's entering window and its spectrum are taken once; the
    hitting windows come in one batch per element of ``batches``.
    """
    entering = [entering_window(rule, point, w, h - w.length) for w in words]
    differences = cross_differences(entering, [p for b in batches for p in b], h_cmp + 1)
    cylinders, reports = [Cylinder(w) for w in words], {}
    for idx in batches:
        for start, masks, _ in hitting_batches(rule, (0, 1), cylinders, idx, h_cmp):
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
    return _nuv_reports(rule, point, [u, v], [[(0, 1)]], h, h_cmp)[0]


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
    batches = [[(i, j) for i in us for j in vs] for us, vs in itertools.product(groups, repeat=2)]
    return _nuv_reports(rule, point, words, batches, h, h_cmp)


@dataclass(frozen=True)
class OrbitOutcome:
    words: tuple[str, ...]
    lhs: int | None
    rhs: int | None


@dataclass(frozen=True)
class OrbitClosureReport:
    rule: str
    a: tuple[int, ...]
    a_prime: tuple[int, ...]
    length: int
    h: int
    agree: bool
    table: tuple[OrbitOutcome, ...]


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
    cylinders = sweep_cylinders(rule, length)
    names = [str(c.word) for c in cylinders]
    lhs, rhs = (
        [first for _, first, _, _ in _hits(rule, coefs, cylinders, h)]
        for coefs in (a, (0,) + a_prime)
    )
    tuples = itertools.product(range(len(cylinders)), repeat=len(a))
    table = [
        OrbitOutcome(tuple(names[w] for w in tup), left or None, right or None)
        for tup, left, right in zip(tuples, lhs, rhs)
    ]
    agree = all((o.lhs is None) == (o.rhs is None) for o in table)
    return OrbitClosureReport(
        rule.literal(), a, a_prime, length, h, agree, tuple(table)
    )


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
    cylinders = sweep_cylinders(rule, length)
    names = [str(c.word) for c in cylinders]
    tuples = _index_tuples(len(cylinders), n + 1)
    coords = [[j * ai for j in range(n + 1)] for ai in a]
    packed, ids, _ = _mask_ids(rule, coords, cylinders, tuples, h)
    families, firsts = _family_firsts(packed, ids)
    tuple_words = [tuple(names[w] for w in tup) for tup in tuples.tolist()]
    outcomes = [
        SweepOutcome(sum(map(tuple_words.__getitem__, family), ()), first or None)
        for family, first in zip(families.tolist(), firsts)
    ]
    return _close(
        rule,
        "verify_delta_product",
        {"a": list(a), "n": n, "l": length, "h": h},
        outcomes,
        {"unique_masks": len(packed)},
    )


# ---------------------------------------------------------------------------
# point diagnostics


@dataclass(frozen=True)
class DiagnosticReport:
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
