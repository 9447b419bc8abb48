"""Deterministic transitive-point prefixes and entering-time windows.

A transitive point visits every cylinder; the constructors here build
finite prefixes that visit every admissible word up to a scale, so that
entering windows N(x, [u]) can be read off exactly.  Construction is
greedy: words are appended in length-then-lexicographic order, each
preceded by the smallest zero-spacer keeping the whole prefix admissible.
The spacer search is exact — cross gaps to the existing prefix are affine
in the spacer, so the admissible spacers are computed by slicing the
rule's gap mask rather than by trial re-scans.

Two-sided rules are sampled as one-sided rays: entering windows only read
forward iterates, and admissibility is translation invariant.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    CapExceeded,
    ConfigError,
    HorizonExhausted,
    PreconditionError,
    SpacerExhausted,
)
from .intset import Record, WindowedSet, first_member
from .subshift import (
    DEFAULT_WORD_CAP,
    FullShift,
    ShiftRule,
    Word,
    _positions_admissible,
    admissible_rows,
    affine_gap_window,
    is_admissible,
    parse_shift_rule,
    row_texts,
)

CHAMPERNOWNE_CAP = 16


class GeneratedPoint(Record):
    """A one-sided prefix plus the record of how it was laid down.

    ``occurrence`` maps each enumerated word to the position where it was
    placed; every admissible word of length <= ``scale`` occurs there.
    ``build_log`` is the (word, spacer) sequence, sufficient to replay the
    construction.  Points compare by identity.
    """

    bits: np.ndarray
    occurrence: dict[str, int]
    build_log: tuple[tuple[str, int], ...]
    scale: int
    rule_literal: str
    g_max: int | None = None
    period: int | None = None
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self) -> None:
        self.bits.setflags(write=False)

    def __len__(self) -> int:
        return len(self.bits)

    def prefix_string(self) -> str:
        return (self.bits.view(np.uint8) + np.uint8(ord("0"))).tobytes().decode("ascii")


def champernowne(l_max: int, cap: int = CHAMPERNOWNE_CAP) -> GeneratedPoint:
    """All binary words in length-then-lex order, concatenated."""
    if l_max < 1:
        raise ConfigError("l_max must be >= 1")
    if l_max > cap:
        raise CapExceeded(f"l_max {l_max} exceeds the cap {cap}")
    blocks = [admissible_rows(FullShift(), n, cap) for n in range(1, l_max + 1)]
    texts = [text for b in blocks for text in row_texts(b)]
    bits = np.concatenate([b.ravel() for b in blocks])
    occurrence = dict(zip(texts, itertools.accumulate(map(len, texts), initial=0)))
    log = tuple(zip(texts, [0] * len(texts)))
    return GeneratedPoint(bits, occurrence, log, l_max, "full()", g_max=0)


def _spacer_candidates(
    rule: ShiftRule, olds: np.ndarray, length: int, ones: np.ndarray, n: int, g_max: int,
    anchors: np.ndarray,
) -> int | None:
    """Smallest g in [0, g_max] so that appending 0^g then a word of length n stays admissible.

    New 1s land at g + length + ones; every cross gap to an existing 1 is
    g plus a constant, so the affine gap kernel answers for all g at once.
    ``anchors`` marks where two old 1s forbid a new 1 (read for ratio rules).
    """
    ratio = rule.ratio
    # a cross gap is at least length - old, so older 1s pass every g
    reach = length - rule.last_forbidden_gap
    if not ones.size or (ratio is None and (not olds.size or olds[-1] < reach)):
        return 0
    near = olds[np.searchsorted(olds, reach) :]
    ok = np.ones(g_max + 1, dtype=bool)
    excluded = []
    if ratio is not None:
        # spacers that complete a forbidden triple (old, old, new) or (old, new, new);
        # y - x = ratio * (x + length + g - old) puts the old 1 within n of the end
        for x in ones.tolist():
            ok &= ~anchors[length + x : length + x + g_max + 1]
        ends = olds[np.searchsorted(olds, length - n) :]
        for x, y in itertools.combinations(ones.tolist(), 2):
            if (y - x) % ratio == 0:
                excluded.append((y - x) // ratio - length - x + ends)
    deltas = np.subtract.outer(ones + length, near).ravel()
    excluded = np.concatenate(excluded) if excluded else ()
    affine_gap_window(rule, 1, deltas, 0, ok, excluded)
    return first_member(ok)


def _word_table(rule: ShiftRule, l_max: int) -> list[tuple[str, np.ndarray]]:
    """(text, 1-positions) of every admissible word of length <= l_max, in
    length-then-lex order, read off each length's admissible rows."""
    table: list[tuple[str, np.ndarray]] = []
    for n in range(1, l_max + 1):
        rows = admissible_rows(rule, n, max(l_max, DEFAULT_WORD_CAP))
        cols, ends = np.nonzero(rows)[1], np.cumsum(rows.sum(axis=1)).tolist()
        table += zip(row_texts(rows), [cols[a:b] for a, b in zip([0] + ends, ends)])
    return table


def build_transitive_point(rule: ShiftRule, l_max: int, g_max: int) -> GeneratedPoint:
    """Greedy prefix visiting every admissible word of length <= l_max.

    Words are appended in length-then-lex order after the smallest
    admissible zero-spacer in [0, g_max].  Exhausting g_max raises with
    the offending word — for spacing sets with bounded blocks at the
    probed scale this is an expected outcome, reported rather than
    retried.
    """
    if l_max < 1:
        raise ConfigError("l_max must be >= 1")
    if g_max < 0:
        raise ConfigError("g_max must be >= 0")
    table = _word_table(rule, l_max)
    ratio = rule.ratio
    # anchors[z]: placed 1s a < b with z = b + ratio * (b - a), so no later 1
    # may sit at z; no prefix outgrows the sum of g_max + |w| over the words
    anchors = np.zeros(sum(g_max + len(t) for t, _ in table) if ratio else 0, dtype=bool)
    ones = np.zeros(sum(x.size for _, x in table), dtype=np.int64)
    placed = length = 0
    occurrence: dict[str, int] = {}
    log: list[tuple[str, int]] = []
    for text, xs in table:
        g = _spacer_candidates(rule, ones[:placed], length, xs, len(text), g_max, anchors)
        if g is None:
            raise SpacerExhausted(text, g_max)
        base = length + g
        occurrence[text] = base
        log.append((text, g))
        ones[placed : placed + xs.size] = xs + base
        placed += xs.size
        if ratio and xs.size:
            new = ones[placed - xs.size : placed, None]
            d = new - ones[:placed]
            z = (new + ratio * d)[d > 0]
            anchors[z[z < anchors.size]] = True
        length = base + len(text)
    bits = np.zeros(length, dtype=bool)
    bits[ones] = True
    point = GeneratedPoint(
        bits, occurrence, tuple(log), l_max, rule.literal(), g_max=g_max
    )
    # re-verify on the full prefix rather than trusting incremental checks
    if not _positions_admissible(rule, np.flatnonzero(bits)):
        raise AssertionError("greedy construction produced an inadmissible prefix")
    return point


def periodic_point(rule: ShiftRule, w: Word, min_length: int) -> GeneratedPoint:
    """The periodic ray w w w ... sampled to at least min_length symbols."""
    if min_length < 1:
        raise ConfigError("min_length must be >= 1")
    reps = -(-min_length // w.length) + 1
    bits = np.zeros(reps * w.length, dtype=bool)
    for i in w.ones:
        bits[i :: w.length] = True
    if not _positions_admissible(rule, np.flatnonzero(bits)):
        raise PreconditionError(
            f"word {w} does not generate an admissible periodic point"
        )
    return GeneratedPoint(
        bits,
        {str(w): 0},
        (),
        0,
        rule.literal(),
        period=w.length,
    )


def entering_window(
    rule: ShiftRule, point: GeneratedPoint, u: Word, h: int
) -> WindowedSet:
    """Exactly {n in [1,H] : prefix[n .. n+|u|) = u}; complete on its window."""
    if not is_admissible(rule, u):
        raise PreconditionError(f"cylinder word {u} is not admissible")
    if h < 1:
        raise HorizonExhausted("horizon must be >= 1")
    if h > len(point.bits) - u.length:
        raise HorizonExhausted(
            f"prefix of length {len(point.bits)} only covers H <= "
            f"{len(point.bits) - u.length}"
        )
    target = np.zeros(u.length, dtype=bool)
    if u.ones:
        target[list(u.ones)] = True
    ok = np.ones(h, dtype=bool)
    for i in range(u.length):
        ok &= point.bits[1 + i : 1 + i + h] == target[i]
    mask = np.concatenate(([False], ok))
    return WindowedSet.from_mask(mask)


# ---------------------------------------------------------------------------
# cache serialization


def encode_point(point: GeneratedPoint) -> dict:
    """JSON-ready payload: rule, parameters, run-length-encoded prefix."""
    bits = point.bits
    # runs alternate 0s and 1s from a run of 0s, which is empty when bits[0] is 1
    padded = np.concatenate(([False], bits))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    runs = np.diff([0] + edges + [bits.size]).tolist()
    return {
        "schema": 1,
        "rule": point.rule_literal,
        "scale": point.scale,
        "g_max": point.g_max,
        "period": point.period,
        "length": int(bits.size),
        "rle": runs,
        "build_log": [[w, g] for w, g in point.build_log],
    }


def decode_point(payload: dict) -> GeneratedPoint:
    """Rebuild a point from its payload, re-verifying admissibility."""
    try:
        rule = parse_shift_rule(payload["rule"])
        length = int(payload["length"])
        runs = np.asarray(payload["rle"], dtype=np.int64)
        log = tuple((str(w), int(g)) for w, g in payload["build_log"])
        scale = int(payload["scale"])
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"corrupt point payload: {exc}") from exc
    if runs.ndim != 1 or not ((runs >= 0) & (runs <= length)).all():
        raise ConfigError("corrupt point payload: run lengths out of range")
    # each run is below 2^63, so a prefix sum that wraps turns negative
    ends = np.cumsum(runs)
    if (ends < 0).any() or (int(ends[-1]) if ends.size else 0) != length:
        raise ConfigError("corrupt point payload: run lengths do not add up")
    bits = np.repeat(np.arange(runs.size) % 2 == 1, runs)
    starts = itertools.accumulate((g + len(w) for w, g in log), initial=0)
    occurrence = {w: at + g for (w, g), at in zip(log, starts)}
    point = GeneratedPoint(
        bits,
        occurrence,
        log,
        scale,
        payload["rule"],
        g_max=payload.get("g_max"),
        period=payload.get("period"),
    )
    if not _positions_admissible(rule, np.flatnonzero(bits)):
        raise ConfigError("corrupt point payload: prefix is not admissible")
    return point
