"""Exact engine for downward-closed binary subshifts.

A shift rule here constrains only the 1-positions of a configuration, through
a predicate on pair gaps and one on consecutive-gap pairs of 1s.  Flipping a
1 to 0 can therefore never break admissibility (downward closure), and that
closure is what makes cylinder questions exactly decidable at a window:

Zero-fill exactness.  For a downward-closed rule, a tuple of shifted
cylinders has a common point iff the superposition that keeps exactly the
forced 1s (every other position 0) is feasible and admissible.  One
direction extends the superposed word by zeros; conversely, zeroing every
non-forced 1 of any witness point stays admissible by downward closure and
still lies in each cylinder.  The hitting kernels below rely on this and are
tested against brute-force enumeration over *all* completions.

The kernels work on 1-positions only.  For a placement of cylinders at
positions ``coef * n`` the cross gaps are affine in ``n``, so past a small
stabilization threshold the admissible ``n`` are computed by slicing the
rule's gap mask; the handful of small ``n`` where spans overlap are checked
directly.
"""

from __future__ import annotations

import bisect
import itertools
import re
import threading
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import CapExceeded, ConfigError, HorizonExhausted, PreconditionError
from .intset import (
    SetRule,
    WindowedSet,
    doubling_free_certificate,
    materialize,
    parse_set_rule,
)

DEFAULT_WORD_CAP = 12

ONE_SIDED = "one-sided"
TWO_SIDED = "two-sided"


# ---------------------------------------------------------------------------
# words and cylinders


@dataclass(frozen=True)
class Word:
    """A finite 0/1 word stored as its length plus the positions of its 1s."""

    length: int
    ones: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ConfigError("words must have length >= 1")
        o = self.ones
        if o and (o[0] < 0 or o[-1] >= self.length):
            raise ConfigError("1-positions out of range")
        if any(b <= a for a, b in zip(o, o[1:])):
            raise ConfigError("1-positions must be strictly increasing")

    @classmethod
    def from_string(cls, text: str) -> "Word":
        if not text or any(c not in "01" for c in text):
            raise ConfigError(f"word literal must be a non-empty 0/1 string: {text!r}")
        return cls(len(text), tuple(i for i, c in enumerate(text) if c == "1"))

    def __str__(self) -> str:
        bits = ["0"] * self.length
        for i in self.ones:
            bits[i] = "1"
        return "".join(bits)


@dataclass(frozen=True)
class Cylinder:
    """A word pinned at an absolute offset (0 for one-sided shifts)."""

    word: Word
    offset: int = 0

    @property
    def span(self) -> tuple[int, int]:
        return self.offset, self.offset + self.word.length - 1

    @property
    def ones(self) -> tuple[int, ...]:
        return tuple(self.offset + i for i in self.word.ones)


def cyl(text: str, offset: int = 0) -> Cylinder:
    return Cylinder(Word.from_string(text), offset)


# ---------------------------------------------------------------------------
# shift rules


# Held while a cached gap mask is grown and stored, so that threads sweeping
# the same rule materialize its mask once.
_GAP_MASK_LOCK = threading.Lock()


def _cached_mask(
    rule: "ShiftRule", bound: int, build: Callable[[int], np.ndarray]
) -> np.ndarray:
    """The rule's mask ``build(h)``, cached read-only and grown past ``bound``."""
    cached = rule.__dict__.get("_gap_mask")
    # a stored mask is read without the lock
    if cached is None or len(cached) <= bound:
        with _GAP_MASK_LOCK:
            cached = rule.__dict__.get("_gap_mask")
            if cached is None or len(cached) <= bound:
                need = max(2 * len(cached) if cached is not None else 64, bound + 1)
                cached = build(need)
                cached.setflags(write=False)
                object.__setattr__(rule, "_gap_mask", cached)
    return cached


@dataclass(frozen=True)
class ShiftRule:
    """Base for downward-closed rules over {0,1}.

    A rule is one gap mask plus an optional triple law: two 1s at distance g
    may coexist iff ``pair_mask(bound)[g]``, and when ``ratio`` is set no
    three 1s may have consecutive gaps g1, g2 with g2 = ratio * g1.
    """

    last_forbidden_gap: ClassVar[float] = float("inf")  # inf: no bound known

    @property
    def sidedness(self) -> str:
        return ONE_SIDED

    @property
    def ratio(self) -> int | None:
        return None

    def pair_mask(self, bound: int) -> np.ndarray:
        """allowed[g] for g in [0, bound]; the array may run past ``bound``."""
        raise NotImplementedError

    def literal(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class FullShift(ShiftRule):
    last_forbidden_gap = 0

    def pair_mask(self, bound: int) -> np.ndarray:
        return _cached_mask(self, bound, lambda h: np.ones(h, dtype=bool))

    def literal(self) -> str:
        return "full()"


@dataclass(frozen=True)
class Spacing(ShiftRule):
    """1s may only sit at mutual distances drawn from the rule's set."""

    set_rule: SetRule

    def __post_init__(self) -> None:
        # A mask cut from a set that is only sound on its window would grow
        # with the bound asked for, so verdicts would depend on call history.
        if not self.set_rule.preserves_completeness():
            raise ConfigError(
                f"spacing() needs a set rule that is complete on every window, "
                f"not {self.set_rule.literal()}"
            )

    def pair_mask(self, bound: int) -> np.ndarray:
        return _cached_mask(self, bound, lambda h: materialize(self.set_rule, h).mask)

    def literal(self) -> str:
        return f"spacing({self.set_rule.literal()})"


def _all_but_gap_one(h: int) -> np.ndarray:
    allowed = np.ones(h, dtype=bool)
    allowed[1:2] = False
    return allowed


@dataclass(frozen=True)
class TripleRatio(ShiftRule):
    """Two-sided rule forbidding adjacent 1s and gap pairs with g2 = (p-1)*g1."""

    p: int
    last_forbidden_gap = 1

    def __post_init__(self) -> None:
        if self.p <= 2:
            raise ConfigError("tripleratio(p) requires p > 2")

    @property
    def sidedness(self) -> str:
        return TWO_SIDED

    @property
    def ratio(self) -> int:
        return self.p - 1

    def pair_mask(self, bound: int) -> np.ndarray:
        return _cached_mask(self, bound, _all_but_gap_one)

    def literal(self) -> str:
        return f"tripleratio({self.p})"


def parse_shift_rule(text: str) -> ShiftRule:
    s = text.strip()
    if re.fullmatch(r"full\s*\(\s*\)", s):
        return FullShift()
    m = re.fullmatch(r"spacing\s*\((.*)\)", s, re.DOTALL)
    if m:
        return Spacing(parse_set_rule(m.group(1)))
    m = re.fullmatch(r"tripleratio\s*\(\s*(\d+)\s*\)", s)
    if m:
        return TripleRatio(int(m.group(1)))
    raise ConfigError(f"unknown shift rule literal {text!r}")


# ---------------------------------------------------------------------------
# admissibility


def _meets(arr: np.ndarray, targets: np.ndarray) -> bool:
    """Whether some target is an element of the sorted array ``arr``."""
    idx = np.minimum(np.searchsorted(arr, targets), arr.size - 1)
    return bool((arr[idx] == targets).any())


def _positions_admissible(rule: ShiftRule, pos: Sequence[int]) -> bool:
    """Admissibility of a configuration whose 1s sit exactly at ``pos`` (sorted).

    Gaps are only read when the mask forbids some gap up to the span.  Long
    configurations (m > 64 ones) then search the positions for each forbidden
    gap while there are fewer than m/4: one search measured 1/2 to 1/4 of the
    m - 1 row reads (m from 65 to 4,000; numpy 2.4, 2-core Xeon VM).  With
    more forbidden gaps they read the mask row by row.
    """
    m = len(pos)
    if m < 2:
        return True
    big = m > 64
    arr = np.asarray(pos, dtype=np.int64) if big else None
    span = pos[-1] - pos[0]
    allowed = rule.pair_mask(span)
    forbidden = span - np.count_nonzero(allowed[1 : span + 1])
    if forbidden and not big:
        for a, b in itertools.combinations(pos, 2):
            if not allowed[b - a]:
                return False
    elif forbidden and forbidden * 4 < m:
        for g in np.flatnonzero(~allowed[1 : span + 1]) + 1:
            if _meets(arr, arr + g):
                return False
    elif forbidden:
        for i in range(m - 1):
            if not allowed[arr[i + 1 :] - arr[i]].all():
                return False
    ratio = rule.ratio
    if ratio is not None and m >= 3:
        if big:
            # (i, j, k) forbidden iff k = j + ratio*(j - i): search per pair.
            for j in range(1, m):
                if _meets(arr, arr[j] + ratio * (arr[j] - arr[:j])):
                    return False
        else:
            have = set(pos)
            for i, j in itertools.combinations(range(m), 2):
                if pos[j] + ratio * (pos[j] - pos[i]) in have:
                    return False
    return True


def is_admissible(rule: ShiftRule, w: Word) -> bool:
    return _positions_admissible(rule, w.ones)


def _merged_ones(placed: Sequence[tuple[int, Word]]) -> list[int] | None:
    """Sorted 1-positions of words pinned at offsets, or None on a 1-vs-0 clash."""
    ones = sorted({off + i for off, w in placed for i in w.ones})
    for off, w in placed:
        # the word's own 1s are among ``ones``, so any further 1 in its span clashes
        start = bisect.bisect_left(ones, off)
        if bisect.bisect_left(ones, off + w.length) - start > len(w.ones):
            return None
    return ones


def superpose(constraints: Sequence[Cylinder]) -> Cylinder | None:
    """Combine cylinders into one zero-filled word, or None if they clash.

    A position of the spanned interval is 1 iff some constraint places a 1
    there; the combination is infeasible iff a constraint places a 0 where
    another places a 1.  Uncovered interior positions are zero-filled.
    """
    if not constraints:
        raise PreconditionError("superpose needs at least one cylinder")
    ones = _merged_ones([(c.offset, c.word) for c in constraints])
    if ones is None:
        return None
    lo = min(c.offset for c in constraints)
    hi = max(c.offset + c.word.length for c in constraints)
    return Cylinder(Word(hi - lo, tuple(p - lo for p in ones)), lo)


def enumerate_admissible_words(
    rule: ShiftRule, length: int, cap: int = DEFAULT_WORD_CAP
) -> list[Word]:
    """All admissible words of the given length, lexicographic (0 < 1)."""
    if length < 1:
        raise ConfigError("word length must be >= 1")
    if length > cap:
        raise CapExceeded(f"word length {length} exceeds the cap {cap}")
    out: list[Word] = []
    ones: list[int] = []

    def walk(t: int) -> None:
        if t == length:
            out.append(Word(length, tuple(ones)))
            return
        walk(t + 1)
        if _positions_admissible(rule, ones + [t]):
            ones.append(t)
            walk(t + 1)
            ones.pop()

    walk(0)
    out.sort(key=lambda w: str(w))
    return out


# ---------------------------------------------------------------------------
# hitting kernels


@dataclass(frozen=True)
class HitAnalysis:
    """What the linear kernel learned beyond the raw window.

    ``pair_constraints`` are (coef, delta) pairs: for every n past the
    stabilization threshold, membership requires gap coef*n + delta to be
    allowed.  ``all_n_triples`` are triple-law exclusions valid for every
    such n; ``constant_violations`` hold at every n >= 1.
    """

    n_star: int
    pair_constraints: tuple[tuple[int, int], ...]
    constant_violations: tuple[str, ...]
    all_n_triples: tuple[tuple[int, ...], ...]


def _validate_placements(
    rule: ShiftRule, placements: Sequence[tuple[int, Cylinder]]
) -> None:
    if not placements:
        raise PreconditionError("at least one placement required")
    for coef, c in placements:
        if coef < 0:
            raise PreconditionError("placement coefficients must be >= 0")
        if rule.sidedness == ONE_SIDED and c.offset != 0:
            raise PreconditionError("one-sided rules require cylinder offset 0")
        if not is_admissible(rule, c.word):
            raise PreconditionError(f"cylinder word {c.word} is not admissible")
    if all(coef == 0 for coef, _ in placements):
        raise PreconditionError("at least one placement must move with n")


def _strike(ok: np.ndarray, lo: int, num: np.ndarray, coef: np.ndarray | int) -> None:
    """Clear ok[n - lo] for every integer n = num / coef inside the window."""
    n, rem = np.divmod(num, coef)
    n = n[(rem == 0) & (n >= lo) & (n < lo + ok.size)]
    ok[n - lo] = False


def affine_gap_window(
    rule: ShiftRule,
    coefs: np.ndarray | int,
    deltas: np.ndarray,
    lo: int,
    ok: np.ndarray,
    exclusions: np.ndarray | Sequence[int] = (),
) -> None:
    """Clear ok[n - lo] where n is excluded or some gap coef*n + delta is forbidden.

    ``ok`` covers n in [lo, lo + ok.size); it is written in place so that a
    caller can pass a slice of its own mask.  ``coefs`` (each >= 1; an int or
    an array) pair with ``deltas``.  With no forbidden gap in the range the
    constraints reach (none past the rule's last) they all pass; otherwise the
    cheaper of two loops runs: solve each forbidden gap for n, or slice the
    mask once per distinct constraint.
    """
    hi = lo + ok.size - 1
    deltas = np.asarray(deltas, dtype=np.int64)
    g_lo = int((coefs * lo + deltas).min()) if deltas.size else 0
    if deltas.size and g_lo <= rule.last_forbidden_gap:
        g_hi = int((coefs * hi + deltas).max())
        allowed = rule.pair_mask(g_hi)[g_lo : g_hi + 1]
        forbidden = allowed.size - np.count_nonzero(allowed)
        # Measured on numpy 2.4, 2-core Xeon VM: one gap solve costs about
        # 7 us + 7 ns per constraint, one slice 1 us + 0.5 ns per window position.
        solve = forbidden * (1000 + deltas.size) * 14 < deltas.size * (2000 + ok.size)
        if forbidden and solve:
            for g in (np.flatnonzero(~allowed) + g_lo).tolist():
                _strike(ok, lo, g - deltas, coefs)
        elif forbidden:
            pairs = zip(np.broadcast_to(coefs, deltas.shape).tolist(), deltas.tolist())
            for c, d in set(pairs):
                start = c * lo + d - g_lo
                ok &= allowed[start : start + c * (hi - lo) + 1 : c]
    if len(exclusions):
        _strike(ok, lo, np.asarray(exclusions, dtype=np.int64), 1)


def linear_hitting(
    rule: ShiftRule, placements: Sequence[tuple[int, Cylinder]], h: int
) -> tuple[WindowedSet, HitAnalysis]:
    """n in [1, H] such that superposing each cylinder at coef*n is admissible.

    The workhorse behind every hitting-set operation; exact by zero-fill.
    """
    if h < 1:
        raise HorizonExhausted("horizon must be >= 1")
    _validate_placements(rule, placements)

    # Threshold past which groups with different coefficients are disjoint
    # and ordered by coefficient.
    n_star = 1
    for (ci, a), (cj, b) in itertools.combinations(placements, 2):
        if ci == cj:
            continue
        if ci > cj:
            (ci, a), (cj, b) = (cj, b), (ci, a)
        sep = (a.span[1] - b.span[0]) // (cj - ci) + 1
        n_star = max(n_star, sep)
    n_star = min(n_star, h)

    mask = np.zeros(h + 1, dtype=bool)
    for n in range(1, n_star + 1):
        ones = _merged_ones([(c.offset + coef * n, c.word) for coef, c in placements])
        mask[n] = ones is not None and _positions_admissible(rule, ones)

    # Merged 1-positions as (coef, offset) pairs; lexicographic order equals
    # position order for every n > n_star.
    cq = sorted({(coef, p) for coef, c in placements for p in c.ones})

    pair_constraints: set[tuple[int, int]] = set()
    constant_violations: list[str] = []
    all_n_triples: list[tuple[int, ...]] = []

    fixed_gaps: list[int] = []
    for (c1, q1), (c2, q2) in itertools.combinations(cq, 2):
        if c1 == c2:
            fixed_gaps.append(q2 - q1)
        else:
            pair_constraints.add((c2 - c1, q2 - q1))
    allowed = rule.pair_mask(max(fixed_gaps, default=0))
    for g in fixed_gaps:
        if not allowed[g]:
            constant_violations.append(
                f"fixed gap {g} between co-moving 1s is forbidden"
            )

    # Co-moving zero/one conflicts are n-independent.
    for (ci, a), (cj, b) in itertools.combinations(placements, 2):
        if ci == cj and superpose([a, b]) is None:
            constant_violations.append("co-moving cylinders clash 1-vs-0")

    point_exclusions: list[int] = []
    ratio = rule.ratio
    if ratio is not None and len(cq) >= 3:
        for (c1, q1), (c2, q2), (c3, q3) in itertools.combinations(cq, 3):
            # forbidden iff p3 - p2 = ratio * (p2 - p1) with affine positions
            slope = (c3 - c2) - ratio * (c2 - c1)
            inter = (q3 - q2) - ratio * (q2 - q1)
            if slope == 0 and inter == 0:
                all_n_triples.append((c1, q1, c2, q2, c3, q3))
            elif slope != 0 and (-inter) % slope == 0:
                point_exclusions.append((-inter) // slope)

    if n_star < h and not (constant_violations or all_n_triples):
        cd = np.array(sorted(pair_constraints), dtype=np.int64).reshape(-1, 2)
        tail = mask[n_star + 1 :]
        tail[:] = True
        affine_gap_window(rule, cd[:, 0], cd[:, 1], n_star + 1, tail, point_exclusions)

    if constant_violations:
        mask[:] = False

    analysis = HitAnalysis(
        n_star,
        tuple(sorted(pair_constraints)),
        tuple(constant_violations),
        tuple(all_n_triples),
    )
    return WindowedSet.from_mask(mask), analysis


def hitting_window(rule: ShiftRule, u: Cylinder, v: Cylinder, h: int) -> WindowedSet:
    """N([u],[v]) on [1,H]: times n with U meeting the n-preimage of V."""
    window, _ = linear_hitting(rule, [(0, u), (1, v)], h)
    return window


def multi_hitting_analysis(
    rule: ShiftRule,
    a: Sequence[int],
    pairs: Sequence[tuple[Cylinder, Cylinder]],
    h: int,
) -> tuple[WindowedSet, list[HitAnalysis]]:
    if len(a) != len(pairs):
        raise PreconditionError("need as many pairs as vector entries")
    if any(ai < 1 for ai in a):
        raise PreconditionError("vector entries must be positive")
    mask = np.zeros(h + 1, dtype=bool)
    mask[1:] = True
    analyses = []
    for ai, (u, v) in zip(a, pairs):
        window, analysis = linear_hitting(rule, [(0, u), (ai, v)], h)
        mask &= window.mask
        analyses.append(analysis)
    return WindowedSet.from_mask(mask), analyses


def delta_hitting_analysis(
    rule: ShiftRule, a: Sequence[int], cylinders: Sequence[Cylinder], h: int
) -> tuple[WindowedSet, HitAnalysis]:
    if len(cylinders) != len(a) + 1:
        raise PreconditionError("need r+1 cylinders for a length-r vector")
    if any(ai < 1 for ai in a):
        raise PreconditionError("vector entries must be positive")
    placements = [(0, cylinders[0])] + [
        (ai, c) for ai, c in zip(a, cylinders[1:])
    ]
    return linear_hitting(rule, placements, h)


def emptiness_certificate(
    rule: ShiftRule,
    window: WindowedSet,
    analyses: HitAnalysis | Sequence[HitAnalysis],
    h: int,
) -> dict | None:
    """Upgrade an empty window to a proof of emptiness for every n >= 1.

    Sound when the window is empty, covers the stabilization range, and a
    structural reason excludes all larger n: a doubling pair of necessary
    gaps against a doubling-free spacing set (parity law), an identically
    forbidden gap-pair (triple law), or an n-independent clash.
    """
    if len(window):
        return None
    items = [analyses] if isinstance(analyses, HitAnalysis) else list(analyses)
    if any(a.n_star > h for a in items):
        return None

    for a in items:
        if a.constant_violations:
            return {
                "name": "constant-gap",
                "statement": a.constant_violations[0],
                "checked_horizon": h,
            }
    for a in items:
        if a.all_n_triples:
            c1, q1, c2, q2, c3, q3 = a.all_n_triples[0]
            return {
                "name": "triple-law",
                "statement": (
                    "the second gap equals "
                    f"{rule.ratio} times the first at every step n"
                ),
                "positions": [[c1, q1], [c2, q2], [c3, q3]],
                "p": rule.ratio + 1,
                "checked_horizon": h,
            }
    if isinstance(rule, Spacing):
        base = doubling_free_certificate(rule.set_rule)
        if base is not None:
            combined = {c for a in items for c in a.pair_constraints}
            for c, d in sorted(combined):
                if (2 * c, 2 * d) in combined:
                    return {
                        "name": "parity-law",
                        "statement": (
                            f"gaps {c}n{d:+d} and {2 * c}n{2 * d:+d} are both "
                            "required, but no member of the spacing set has "
                            "its double in the set"
                        ),
                        "gap_pair": [[c, d], [2 * c, 2 * d]],
                        "basis": base["statement"],
                        "checked_horizon": h,
                    }
    return None
