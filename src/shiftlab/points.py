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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CapExceeded,
    ConfigError,
    HorizonExhausted,
    PreconditionError,
    SpacerExhausted,
)
from .intset import WindowedSet, first_member
from .subshift import (
    DEFAULT_WORD_CAP,
    ShiftRule,
    Word,
    affine_gap_window,
    enumerate_admissible_words,
    is_admissible,
    parse_shift_rule,
)

CHAMPERNOWNE_CAP = 16


@dataclass(frozen=True, eq=False)
class GeneratedPoint:
    """A one-sided prefix plus the record of how it was laid down.

    ``occurrence`` maps each enumerated word to the position where it was
    placed; every admissible word of length <= ``scale`` occurs there.
    ``build_log`` is the (word, spacer) sequence, sufficient to replay the
    construction.
    """

    bits: np.ndarray
    occurrence: dict[str, int]
    build_log: tuple[tuple[str, int], ...]
    scale: int
    rule_literal: str
    g_max: int | None = None
    period: int | None = None

    def __post_init__(self) -> None:
        self.bits.setflags(write=False)

    def __len__(self) -> int:
        return len(self.bits)

    @cached_property
    def word(self) -> Word:
        return Word(len(self.bits), tuple(np.flatnonzero(self.bits).tolist()))

    def prefix_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


def champernowne(l_max: int, cap: int = CHAMPERNOWNE_CAP) -> GeneratedPoint:
    """All binary words in length-then-lex order, concatenated."""
    if l_max < 1:
        raise ConfigError("l_max must be >= 1")
    if l_max > cap:
        raise CapExceeded(f"l_max {l_max} exceeds the cap {cap}")
    # row i of block n spells i in n binary digits
    blocks = [
        (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1 for n in range(1, l_max + 1)
    ]
    texts = [  # each row's digits as UCS-4 code points, read as one string
        text for b in blocks
        for text in (b + ord("0")).astype("<u4").view(f"<U{b.shape[1]}").ravel().tolist()
    ]
    lengths = np.repeat(np.arange(1, l_max + 1), [len(b) for b in blocks])
    positions = (np.cumsum(lengths) - lengths).tolist()
    bits = np.concatenate([b.ravel() for b in blocks]) == 1
    occurrence = dict(zip(texts, positions))
    log = tuple(zip(texts, [0] * len(texts)))
    return GeneratedPoint(bits, occurrence, log, l_max, "full()", g_max=0)


def _spacer_candidates(
    rule: ShiftRule, olds: np.ndarray, length: int, w: Word, g_max: int, anchors: np.ndarray
) -> int | None:
    """Smallest g in [0, g_max] so that appending 0^g then w stays admissible.

    New 1s land at g + length + w.ones; every cross gap to an existing 1 is
    g plus a constant, so the affine gap kernel answers for all g at once.
    ``anchors`` marks where two old 1s forbid a new 1 (read for ratio rules).
    """
    ratio = rule.ratio
    # a cross gap is at least length - old, so older 1s pass every g
    near = olds[np.searchsorted(olds, length - rule.last_forbidden_gap) :]
    if not w.ones or (ratio is None and near.size == 0):
        return 0
    ok = np.ones(g_max + 1, dtype=bool)
    excluded = []
    if ratio is not None:
        # spacers that complete a forbidden triple (old, old, new) or (old, new, new);
        # y - x = ratio * (x + length + g - old) puts the old 1 within |w| of the end
        for x in w.ones:
            ok &= ~anchors[length + x : length + x + g_max + 1]
        ends = olds[np.searchsorted(olds, length - w.length) :]
        for x, y in itertools.combinations(w.ones, 2):
            if (y - x) % ratio == 0:
                excluded.append((y - x) // ratio - length - x + ends)
    deltas = np.subtract.outer(np.add(w.ones, length), near).ravel()
    excluded = np.concatenate(excluded) if excluded else ()
    affine_gap_window(rule, 1, deltas, 0, ok, excluded)
    return first_member(ok)


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
    cap = max(l_max, DEFAULT_WORD_CAP)
    words = [w for n in range(1, l_max + 1) for w in enumerate_admissible_words(rule, n, cap)]
    ratio = rule.ratio
    # anchors[z]: placed 1s a < b with z = b + ratio * (b - a), so no later 1
    # may sit at z; no prefix outgrows the sum of g_max + |w| over the words
    anchors = np.zeros(sum(g_max + w.length for w in words) if ratio else 0, dtype=bool)
    ones = np.zeros(sum(len(w.ones) for w in words), dtype=np.int64)
    placed = length = 0
    occurrence: dict[str, int] = {}
    log: list[tuple[str, int]] = []
    for w in words:
        g = _spacer_candidates(rule, ones[:placed], length, w, g_max, anchors)
        if g is None:
            raise SpacerExhausted(str(w), g_max)
        base = length + g
        occurrence[str(w)] = base
        log.append((str(w), g))
        ones[placed : placed + len(w.ones)] = np.add(w.ones, base)
        placed += len(w.ones)
        if ratio and w.ones:
            new = ones[placed - len(w.ones) : placed, None]
            d = new - ones[:placed]
            z = (new + ratio * d)[d > 0]
            anchors[z[z < anchors.size]] = True
        length = base + w.length
    bits = np.zeros(length, dtype=bool)
    bits[ones] = True
    point = GeneratedPoint(
        bits, occurrence, tuple(log), l_max, rule.literal(), g_max=g_max
    )
    # re-verify on the full prefix rather than trusting incremental checks
    if not is_admissible(rule, point.word):
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
    full = Word(len(bits), tuple(np.flatnonzero(bits).tolist()))
    if not is_admissible(rule, full):
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
    if bits.size == 0:
        runs: list[int] = []
    else:
        edges = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        bounds = np.concatenate(([0], edges, [bits.size]))
        runs = np.diff(bounds).tolist()
        if bool(bits[0]):
            runs = [0] + runs
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
        runs = [int(x) for x in payload["rle"]]
        log = tuple((str(w), int(g)) for w, g in payload["build_log"])
        scale = int(payload["scale"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"corrupt point payload: {exc}") from exc
    if sum(runs) != length or any(r < 0 for r in runs):
        raise ConfigError("corrupt point payload: run lengths do not add up")
    bits = np.repeat(np.arange(len(runs)) % 2 == 1, runs)
    occurrence: dict[str, int] = {}
    at = 0
    for w, g in log:
        occurrence[w] = at + g
        at += g + len(w)
    point = GeneratedPoint(
        bits,
        occurrence,
        log,
        scale,
        payload["rule"],
        g_max=payload.get("g_max"),
        period=payload.get("period"),
    )
    if not is_admissible(rule, point.word):
        raise ConfigError("corrupt point payload: prefix is not admissible")
    return point
