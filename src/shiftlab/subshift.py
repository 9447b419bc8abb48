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

One kernel answers every hitting question, for a whole sweep at once.  The
tuples of a sweep place cylinders of one shape at positions ``coef * n``, so
the threshold n_star past which the placed words stop overlapping is one
number per sweep.  Up to it, each n is one vectorized step over all tuples:
the placed word rows are ORed into a dense superposition and tested for a
1-vs-0 clash, forbidden gaps and forbidden triples.  Past it the cross gaps
are affine in n: each tuple holds some of the sweep's few (coef, delta)
constraints and triple-law exclusions, and every distinct set of the
exclusions and the constraints that can reach a forbidden gap is solved
once by slicing the rule's gap mask.  A single window is the batch of one.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CapExceeded, ConfigError, HorizonExhausted, PreconditionError
from .intset import (
    SET_RULES,
    CallKind,
    Record,
    SetRule,
    WindowedSet,
    doubling_free_certificate,
    materialize,
)

DEFAULT_WORD_CAP = 12

# Largest tripleratio(p) ratio p - 1.  Positions stay below 2^33 in anything
# that fits in memory, so ratio * gap + position stays below 2^63 in int64.
MAX_TRIPLE_RATIO = 1 << 29

ONE_SIDED = "one-sided"
TWO_SIDED = "two-sided"


# ---------------------------------------------------------------------------
# words and cylinders


class Word(Record):
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

    @cached_property
    def row(self) -> np.ndarray:
        """The word as a read-only bool row."""
        row = np.zeros(self.length, dtype=bool)
        row[list(self.ones)] = True
        row.setflags(write=False)
        return row


class Cylinder(Record):
    """A word pinned at an absolute offset (0 for one-sided shifts)."""

    word: Word
    offset: int = 0


# ---------------------------------------------------------------------------
# shift rules


def _cached_mask(
    rule: "ShiftRule", bound: int, build: Callable[[int], np.ndarray]
) -> np.ndarray:
    """The rule's mask ``build(h)``, cached read-only and grown past ``bound``."""
    cached = rule.__dict__.get("_gap_mask")
    if cached is None or len(cached) <= bound:
        need = max(2 * len(cached) if cached is not None else 64, bound + 1)
        cached = build(need)
        cached.setflags(write=False)
        object.__setattr__(rule, "_gap_mask", cached)
    return cached


class ShiftRule(Record):
    """Base for downward-closed rules over {0,1}.

    A rule is one gap mask plus an optional triple law: two 1s at distance g
    may coexist iff ``pair_mask(bound)[g]``, and when ``ratio`` is set no
    three 1s may have consecutive gaps g1, g2 with g2 = ratio * g1.
    """

    last_forbidden_gap = float("inf")  # inf: no bound known
    sidedness = ONE_SIDED
    ratio = None

    def pair_mask(self, bound: int) -> np.ndarray:
        """allowed[g] for g in [0, bound]; the array may run past ``bound``."""
        raise NotImplementedError

    def literal(self) -> str:
        raise NotImplementedError


class FullShift(ShiftRule):
    last_forbidden_gap = 0

    def pair_mask(self, bound: int) -> np.ndarray:
        return _cached_mask(self, bound, lambda h: np.ones(h, dtype=bool))

    def literal(self) -> str:
        return "full()"


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


class TripleRatio(ShiftRule):
    """Two-sided rule forbidding adjacent 1s and gap pairs with g2 = (p-1)*g1."""

    p: int
    last_forbidden_gap = 1
    sidedness = TWO_SIDED

    def __post_init__(self) -> None:
        if self.p <= 2:
            raise ConfigError("tripleratio(p) requires p > 2")
        if self.p - 1 > MAX_TRIPLE_RATIO:
            raise ConfigError(f"tripleratio(p) requires p - 1 <= {MAX_TRIPLE_RATIO}")

    @property
    def ratio(self) -> int:
        return self.p - 1

    def pair_mask(self, bound: int) -> np.ndarray:
        return _cached_mask(self, bound, _all_but_gap_one)

    def literal(self) -> str:
        return f"tripleratio({self.p})"


_SHIFT_RULES = CallKind(
    "shift rule",
    {"full": ("", FullShift), "spacing": ("c", Spacing), "tripleratio": ("i", TripleRatio)},
    inner=SET_RULES,
)


def parse_shift_rule(text: str) -> ShiftRule:
    """full() | spacing(<set rule>) | tripleratio(p)."""
    return _SHIFT_RULES.parse(text)


# ---------------------------------------------------------------------------
# admissibility


def _meets(arr: np.ndarray, targets: np.ndarray) -> bool:
    """Whether some target is an element of the sorted array ``arr``."""
    idx = np.minimum(np.searchsorted(arr, targets), arr.size - 1)
    return bool((arr[idx] == targets).any())


def _positions_admissible(rule: ShiftRule, pos: Sequence[int]) -> bool:
    """Admissibility of a configuration whose 1s sit exactly at ``pos`` (sorted).

    Pair gaps are read one diagonal at a time: diagonal k holds the gaps
    pos[i + k] - pos[i], and its least gap grows with k, so the scan stops at
    the first diagonal past the largest gap the mask forbids up to the span.
    Triples are searched per middle 1 j: (i, j, k) is forbidden iff
    pos[k] = pos[j] + ratio * (pos[j] - pos[i]).
    """
    arr = np.asarray(pos, dtype=np.int64)
    m = arr.size
    if m < 2:
        return True
    span = int(arr[-1] - arr[0])
    allowed = rule.pair_mask(span)
    forbidden = np.flatnonzero(~allowed[1 : span + 1])
    last = forbidden[-1] + 1 if forbidden.size else 0
    for k in range(1, m):
        gaps = arr[k:] - arr[:-k]
        if gaps.min() > last:
            break
        if not allowed[gaps].all():
            return False
    for j in range(1, m) if rule.ratio is not None else ():
        if _meets(arr, arr[j] + rule.ratio * (arr[j] - arr[:j])):
            return False
    return True


def is_admissible(rule: ShiftRule, w: Word) -> bool:
    return _positions_admissible(rule, w.ones)


def _dense_violations(rule: ShiftRule, u: np.ndarray, reach: set[int]) -> np.ndarray:
    """Rows of ``u`` (1-positions as bools) with two 1s at a forbidden gap or
    three at a forbidden gap pair; only gaps in ``reach`` are read."""
    width, ratio = u.shape[1], rule.ratio
    allowed = rule.pair_mask(width)
    bad = np.zeros(len(u), dtype=bool)
    for g in reach:
        if 0 < g < width and not allowed[g]:
            bad |= (u[:, :-g] & u[:, g:]).any(axis=1)
        if ratio and 0 < g and ratio * g in reach and (ratio + 1) * g < width:
            m = width - (ratio + 1) * g
            bad |= (u[:, :m] & u[:, g : g + m] & u[:, -m:]).any(axis=1)
    return bad


def row_texts(rows: np.ndarray) -> list[str]:
    """Each bool row as a 0/1 string: its digits as UCS-4 code points, read as one string."""
    codes = rows.astype("<u4") + np.uint32(ord("0"))
    return codes.view(f"<U{rows.shape[1]}").ravel().tolist()


def admissible_rows(rule: ShiftRule, length: int, cap: int = DEFAULT_WORD_CAP) -> np.ndarray:
    """The admissible words of the given length as bool rows, lexicographic (0 < 1)."""
    if length < 1:
        raise ConfigError("word length must be >= 1")
    if length > cap:
        raise CapExceeded(f"word length {length} exceeds the cap {cap}")
    # row i spells i in binary, so the rows are in lexicographic order
    u = (np.arange(1 << length)[:, None] >> np.arange(length - 1, -1, -1)) & 1 == 1
    return u[~_dense_violations(rule, u, set(range(length)))]


def enumerate_admissible_words(
    rule: ShiftRule, length: int, cap: int = DEFAULT_WORD_CAP
) -> list[Word]:
    """All admissible words of the given length, lexicographic (0 < 1)."""
    rows = admissible_rows(rule, length, cap)
    return [Word(length, tuple(np.flatnonzero(row).tolist())) for row in rows]


# ---------------------------------------------------------------------------
# hitting kernel


class HitAnalysis(Record):
    """What the linear kernel learned beyond the raw window.

    ``pair_constraints`` are (coef, delta) pairs: for every n past the
    stabilization threshold, membership requires gap coef*n + delta to be
    allowed.  ``all_n_triples`` are triple-law exclusions valid for every
    such n.
    """

    n_star: int
    pair_constraints: tuple[tuple[int, int], ...]
    all_n_triples: tuple[tuple[int, ...], ...]


# Bytes of per-tuple arrays (mask rows plus their scratch) that one chunk of a
# batch holds; at H = 10^6 a chunk is one tuple.
CHUNK_BYTES = 1 << 20


def chunk_rows(row_bytes: int) -> int:
    """Tuples per chunk when each tuple holds ``row_bytes`` bytes of arrays."""
    return max(1, CHUNK_BYTES // row_bytes)


def unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array, sorted, and the index of each row among them.

    Rows are compared as byte strings, which ``np.unique(axis=0)`` does field
    by field: 60 times slower on rows of 10^4 bytes.
    """
    a = np.ascontiguousarray(a)
    if len(a) < 2 or not a.shape[1]:
        return a[:1], np.zeros(len(a), dtype=np.intp)
    rows = a.view(f"V{a.shape[1] * a.itemsize}").ravel()
    keys, inverse = np.unique(rows, return_inverse=True)
    return keys.view(a.dtype).reshape(len(keys), a.shape[1]), inverse.ravel()


def _validate_placements(
    rule: ShiftRule, placements: Sequence[tuple[int, int, np.ndarray]]
) -> None:
    """Check a batch's placements once, each distinct rows array once."""
    if not placements:
        raise PreconditionError("at least one placement required")
    coefs = [coef for coef, _, _ in placements]
    if min(coefs) < 0:
        raise PreconditionError("placement coefficients must be >= 0")
    checked = set()
    for _, offset, rows in placements:
        if rule.sidedness == ONE_SIDED and offset != 0:
            raise PreconditionError("one-sided rules require cylinder offset 0")
        if id(rows) not in checked:
            checked.add(id(rows))
            bad = np.flatnonzero(_dense_violations(rule, rows, set(range(rows.shape[1]))))
            if bad.size:
                raise PreconditionError(
                    f"cylinder word {row_texts(rows[bad[:1]])[0]} is not admissible"
                )
    if not any(coefs):
        raise PreconditionError("at least one placement must move with n")
    if len(set(coefs)) < len(coefs):
        raise PreconditionError("placements must move at distinct coefficients")


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
    mask is sliced once per distinct constraint.
    """
    hi = lo + ok.size - 1
    deltas = np.asarray(deltas, dtype=np.int64)
    g_lo = int((coefs * lo + deltas).min()) if deltas.size else 0
    if deltas.size and g_lo <= rule.last_forbidden_gap:
        g_hi = int((coefs * hi + deltas).max())
        allowed = rule.pair_mask(g_hi)[g_lo : g_hi + 1]
        if not allowed.all():
            pairs = zip(np.broadcast_to(coefs, deltas.shape).tolist(), deltas.tolist())
            for c, d in set(pairs):
                start = c * lo + d - g_lo
                ok &= allowed[start : start + c * (hi - lo) + 1 : c]
    if len(exclusions):
        _strike(ok, lo, np.asarray(exclusions, dtype=np.int64), 1)


def _present(held: np.ndarray, groups: list[list[tuple[int, int, int]]]) -> np.ndarray:
    """Per row of ``held``: whether some member of each group has its 3 columns set."""
    if not groups:
        return np.zeros((len(held), 0), dtype=bool)
    hit = np.logical_and.reduce([held[:, list(col)] for col in zip(*sum(groups, []))])
    return np.logical_or.reduceat(hit, np.cumsum([0] + [len(g) for g in groups[:-1]]), axis=1)


def hitting_batches(
    rule: ShiftRule,
    placements: Sequence[tuple[int, int, np.ndarray]],
    tuples: np.ndarray | Sequence[Sequence[int]],
    h: int,
) -> Iterator[tuple[int, np.ndarray, Callable[[int], HitAnalysis]]]:
    """Hitting windows of many tuples placed alike, one chunk of tuples at a time.

    Placement j is ``(coef, offset, rows)``, with ``rows`` a (W, l) bool array
    of words; row t of ``tuples`` places ``rows[tuples[t, j]]`` at
    ``offset + coef * n``, each placement at its own coefficient.  Yields
    ``(start, masks, analysis)``: ``masks[i]`` is the window over [0, H] of
    tuple ``start + i`` (n such that the superposition at n is admissible;
    exact by zero-fill) and ``analysis(i)`` its HitAnalysis.  The masks share
    one buffer, overwritten by the next chunk.
    """
    if h < 1:
        raise HorizonExhausted("horizon must be >= 1")
    tuples = np.asarray(tuples, dtype=np.int64)
    _validate_placements(rule, placements)
    template = [(int(coef), int(offset), rows.shape[1]) for coef, offset, rows in placements]
    ratio = rule.ratio
    # past n_star the placed words are disjoint and in coefficient order
    n_star = 1
    for (ci, oi, li), (cj, oj, _) in itertools.combinations(sorted(template), 2):
        n_star = max(n_star, (oi + li - 1 - oj) // (cj - ci) + 1)
    n_star = min(n_star, h)

    # n <= n_star: the rows are superposed densely; only the gaps two placed
    # 1s can span are read
    steps = []
    for n in range(1, n_star + 1):
        starts = [o + c * n for c, o, _ in template]
        blocks = [(s - min(starts), l) for s, (_, _, l) in zip(starts, template)]
        width = max(s + l for s, l in blocks)
        reach = {abs(g) for (s1, l1), (s2, l2) in itertools.product(blocks, repeat=2)
                 for g in range(s2 - s1 - l1 + 1, s2 - s1 + l2)}
        steps.append((n, blocks, width, reach))

    # n > n_star: merged 1-positions are (coef, offset) candidates in position
    # order.  Whether a tuple has a tail constraint (coef, delta), a point
    # exclusion or an all-n triple depends only on the candidates it holds:
    # each is a group of candidate triples (a pair repeats its second index),
    # present when one triple is held in full.  Two 1s of one word keep a
    # fixed gap, which the word's own admissibility allows.
    cand = sorted({(c, o + x) for c, o, l in template for x in range(l)})
    cols = [[cand.index((c, o + x)) for x in range(l)] for c, o, l in template]
    pairs, excluded, always = {}, {}, []
    for (i, (c1, q1)), (k, (c2, q2)) in itertools.combinations(enumerate(cand), 2):
        if c1 != c2:
            pairs.setdefault((c2 - c1, q2 - q1), []).append((i, k, k))
    for (i, (c1, q1)), (k, (c2, q2)), (m, (c3, q3)) in itertools.combinations(
        enumerate(cand) if ratio else (), 3
    ):
        # forbidden iff p3 - p2 = ratio * (p2 - p1) with affine positions
        slope = (c3 - c2) - ratio * (c2 - c1)
        inter = (q3 - q2) - ratio * (q2 - q1)
        if slope == 0 and inter == 0:
            always.append(((i, k, m), cand[i] + cand[k] + cand[m]))
        elif slope and (-inter) % slope == 0 and n_star < (-inter) // slope <= h:
            excluded.setdefault((-inter) // slope, []).append((i, k, m))
    items, points = sorted(pairs), sorted(excluded)
    groups = [pairs[x] for x in items] + [excluded[n] for n in points]
    groups += [[t] for t, _ in always]
    item_c, item_d = np.array(items, dtype=np.int64).reshape(-1, 2).T
    points = np.array(points, dtype=np.int64)
    n_need = len(items) + len(points)  # columns that set the tail; then always

    lo = n_star + 1
    # tails differ only by exclusions and constraints that reach a forbidden gap
    reach = item_c * lo + item_d <= rule.last_forbidden_gap
    key_cols = np.concatenate((np.flatnonzero(reach), np.arange(len(points)) + len(items)))
    item_c, item_d = item_c[reach], item_d[reach]
    scratch = max([w for _, _, w, _ in steps] + [sum(map(len, groups))])
    chunk = chunk_rows(h + 1 + len(cand) + scratch)
    buffer = np.zeros((min(chunk, len(tuples)), h + 1), dtype=bool)
    for start in range(0, len(tuples), chunk):
        idx = tuples[start : start + chunk]
        placed = [rows[idx[:, j]] for j, (_, _, rows) in enumerate(placements)]
        masks = buffer[: len(idx)]
        if start:
            masks[:] = False
        for n, blocks, width, reach in steps:
            u = np.zeros((len(idx), width), dtype=bool)
            for (s, l), w in zip(blocks, placed):
                u[:, s : s + l] |= w
            bad = _dense_violations(rule, u, reach)
            for (s, l), w in zip(blocks, placed):
                bad |= (u[:, s : s + l] > w).any(axis=1)  # a 1 on a 0 of the word
            masks[:, n] = ~bad

        held = np.zeros((len(idx), len(cand)), dtype=bool)
        for col, w in zip(cols, placed):
            held[:, col] |= w
        present = _present(held, groups)
        need, triples = present[:, :n_need], present[:, n_need:]
        # one affine window per distinct set of reaching constraints and exclusions
        live = np.flatnonzero(~triples.any(axis=1)) if lo <= h else []
        keys, inverse = unique_rows(need[live][:, key_cols])
        for g, key in enumerate(keys):
            group = live[inverse == g]
            tail = masks[group[0], lo:]
            tail[:] = True
            c, e = key[: item_c.size], key[item_c.size :]
            affine_gap_window(rule, item_c[c], item_d[c], lo, tail, points[e])
            if len(group) > 1:  # (an empty fancy assignment still copies ``tail``)
                masks[group[1:], lo:] = tail

        # binds this chunk's presence rows: the caller may read them later
        def analysis(i: int, need=need, triples=triples):
            return HitAnalysis(
                n_star,
                tuple(itertools.compress(items, need[i])),
                tuple(t for (_, t), on in zip(always, triples[i]) if on),
            )

        yield start, masks, analysis


def linear_hitting(
    rule: ShiftRule, placements: Sequence[tuple[int, Cylinder]], h: int
) -> tuple[WindowedSet, HitAnalysis]:
    """n in [1, H] such that superposing each cylinder at coef*n is admissible.

    The batch of one of :func:`hitting_batches`.
    """
    columns = [(coef, c.offset, c.word.row[None]) for coef, c in placements]
    ((_, masks, analysis),) = hitting_batches(rule, columns, [[0] * len(columns)], h)
    return WindowedSet.from_mask(masks[0]), analysis(0)


def emptiness_certificate(
    rule: ShiftRule,
    window: WindowedSet,
    analyses: HitAnalysis | Sequence[HitAnalysis],
    h: int,
) -> dict | None:
    """Upgrade an empty window to a proof of emptiness for every n >= 1.

    Sound when the window is empty, covers the stabilization range, and a
    structural reason excludes all larger n: an identically forbidden
    gap-pair (triple law), or a doubling pair of necessary gaps against a
    doubling-free spacing set (parity law).
    """
    if len(window):
        return None
    items = [analyses] if isinstance(analyses, HitAnalysis) else list(analyses)
    if any(a.n_star > h for a in items):
        return None

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
