import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.errors import (
    CapExceeded,
    ConfigError,
    HorizonExhausted,
    PreconditionError,
    SpacerExhausted,
)
from shiftlab.intset import (
    ArithmeticProgression,
    DyadicBlocks,
    Explicit,
    Naturals,
    Translate,
)
from shiftlab.points import (
    GeneratedPoint,
    build_transitive_point,
    champernowne,
    decode_point,
    encode_point,
    entering_window,
    periodic_point,
)
from shiftlab.subshift import (
    FullShift,
    Spacing,
    TripleRatio,
    Word,
    is_admissible,
    parse_shift_rule,
)


def evens_rule():
    return Spacing(ArithmeticProgression(2, 2))


def dyadic_rule():
    return Spacing(DyadicBlocks())


def shift1_rule():
    # gaps {2, 3, ...}: one forbidden gap
    return Spacing(Translate(Naturals(), 1))


# ---------------------------------------------------------------------------
# champernowne


def test_champernowne_prefixes():
    assert champernowne(1).prefix_string() == "01"
    assert champernowne(2).prefix_string() == "0100011011"


def test_champernowne_placements():
    p = champernowne(2)
    assert p.occurrence == {"0": 0, "1": 1, "00": 2, "01": 4, "10": 6, "11": 8}
    s = p.prefix_string()
    for w, pos in p.occurrence.items():
        assert s[pos : pos + len(w)] == w


def test_champernowne_length():
    # sum over l of l * 2^l
    p = champernowne(6)
    assert len(p) == sum(l * (1 << l) for l in range(1, 7))
    assert p.scale == 6
    assert p.period is None


def formatted_champernowne(l_max):
    """Bits, occurrence and log built word by word with ``format``."""
    parts, occurrence, log, pos = [], {}, [], 0
    for length in range(1, l_max + 1):
        for value in range(1 << length):
            text = format(value, f"0{length}b")
            occurrence[text] = pos
            log.append((text, 0))
            parts.append(text)
            pos += length
    bits = np.frombuffer("".join(parts).encode("ascii"), dtype=np.uint8) == ord("1")
    return bits, occurrence, tuple(log)


@pytest.mark.parametrize("l_max", range(1, 15))
def test_champernowne_matches_the_word_by_word_construction(l_max):
    bits, occurrence, log = formatted_champernowne(l_max)
    p = champernowne(l_max)
    assert p.bits.dtype == bool and np.array_equal(p.bits, bits)
    assert p.occurrence == occurrence and list(p.occurrence) == list(occurrence)
    assert p.build_log == log
    assert all(type(w) is str and type(n) is int for w, n in p.occurrence.items())


def test_champernowne_caps():
    with pytest.raises(ConfigError):
        champernowne(0)
    with pytest.raises(CapExceeded):
        champernowne(17)


def test_point_bits_are_frozen():
    p = champernowne(2)
    with pytest.raises(ValueError):
        p.bits[0] = True


# ---------------------------------------------------------------------------
# entering windows


def test_entering_window_ones():
    p = champernowne(2)
    s = entering_window(FullShift(), p, Word.from_string("1"), 9)
    assert tuple(s) == (1, 5, 6, 8, 9)
    assert s.complete


def test_entering_window_zeros():
    p = champernowne(2)
    s = entering_window(FullShift(), p, Word.from_string("0"), 9)
    assert tuple(s) == (2, 3, 4, 7)


def test_entering_window_excludes_zero():
    # position 0 matches "0" but entering times start at 1
    p = champernowne(2)
    s = entering_window(FullShift(), p, Word.from_string("0"), 9)
    assert 0 not in s


def test_entering_window_horizon_guard():
    p = champernowne(2)
    with pytest.raises(HorizonExhausted):
        entering_window(FullShift(), p, Word.from_string("1"), 10)
    with pytest.raises(HorizonExhausted):
        entering_window(FullShift(), p, Word.from_string("1"), 0)


def test_entering_window_rejects_inadmissible_word():
    p = build_transitive_point(evens_rule(), 2, 8)
    with pytest.raises(PreconditionError):
        entering_window(evens_rule(), p, Word.from_string("11"), 4)


def test_entering_window_longer_word():
    p = champernowne(3)
    s = entering_window(FullShift(), p, Word.from_string("11"), len(p) - 2)
    text = p.prefix_string()
    expected = tuple(
        n for n in range(1, len(p) - 1) if text[n : n + 2] == "11"
    )
    assert tuple(s) == expected


# ---------------------------------------------------------------------------
# greedy construction


@pytest.mark.parametrize("g_max", [0, 4096])
def test_full_shift_greedy_matches_champernowne(g_max):
    for l_max in range(1, 9):
        built = build_transitive_point(FullShift(), l_max, g_max)
        canon = champernowne(l_max)
        assert np.array_equal(built.bits, canon.bits)
        assert built.occurrence == canon.occurrence


def test_evens_greedy_log():
    p = build_transitive_point(evens_rule(), 2, 8)
    log = dict(p.build_log)
    # after "0","1","00" the prefix is 0100; "01" fits with no spacer
    assert p.prefix_string()[:6] == "010001"
    assert log["01"] == 0
    assert p.occurrence["01"] == 4


def test_greedy_covers_all_admissible_words():
    from shiftlab.subshift import enumerate_admissible_words

    for rule, l_max, g_max in (
        (evens_rule(), 4, 64),
        (dyadic_rule(), 4, 4096),
        (TripleRatio(3), 4, 64),
        (shift1_rule(), 4, 64),
    ):
        p = build_transitive_point(rule, l_max, g_max)
        text = p.prefix_string()
        for level in range(1, l_max + 1):
            for w in enumerate_admissible_words(rule, level):
                pos = p.occurrence[str(w)]
                assert text[pos : pos + level] == str(w)


def test_greedy_prefix_is_admissible():
    for rule in (evens_rule(), dyadic_rule(), TripleRatio(3), shift1_rule()):
        p = build_transitive_point(rule, 4, 4096)
        assert is_admissible(rule, Word.from_string(p.prefix_string()))


@pytest.mark.parametrize(
    "rule, l_max, g_max",
    [(dyadic_rule(), 3, 4096), (shift1_rule(), 3, 4096), (evens_rule(), 4, 64)]
    + [(TripleRatio(p), 5, 256) for p in range(3, 9)],
)
def test_greedy_spacers_are_minimal(rule, l_max, g_max):
    # replaying each step, no smaller spacer keeps the prefix admissible
    p = build_transitive_point(rule, l_max, g_max)
    prefix = ""
    for w, g in p.build_log:
        for smaller in range(g):
            candidate = prefix + "0" * smaller + w
            assert not is_admissible(rule, Word.from_string(candidate))
        prefix = prefix + "0" * g + w
        assert is_admissible(rule, Word.from_string(prefix))
    assert prefix == p.prefix_string()


def _build_digest(point):
    """sha256 over the packed bits, then over [length, build_log] as JSON."""
    h = hashlib.sha256(np.packbits(point.bits).tobytes())
    h.update(json.dumps([len(point.bits), point.build_log]).encode())
    return h.hexdigest()


# Recorded greedy builds: whatever the spacer search does inside, it must lay
# down the same bits and build log, byte for byte.
@pytest.mark.parametrize(
    "literal, l_max, g_max, digest",
    [
        ("tripleratio(3)", 8, 4096, "6e53f9ed7b309bee1c3bad03432b4875c537a2a85ebfc289fdd0fcc602797148"),
        ("tripleratio(5)", 8, 4096, "dfc1243b538166f8bea2efc498207f1cefb6128a432ceaec4a8885eb7456a901"),
        ("tripleratio(7)", 8, 4096, "1ad5cf33edbeb0384ad2a5855ff9707038475cbe43aff9a27d816d95b2e57976"),
        ("tripleratio(7)", 9, 4096, "7b2d7aeff56953bc0109fabb9bf9a216a4dbf5dd9be8b4f9600744064b306c39"),
        ("full()", 10, 4096, "e0713c7ac2c2ca3bbc16199a29b9a701d574a746b1c8da0c9f4361dea1ffff01"),
        ("spacing(dyadic())", 4, 4096, "957992e3ef0aa33e48b634b9643a476966e08a74568e931059276a716e32c141"),
        ("spacing(evens())", 8, 64, "d832aa397d76acfb172d51f045b5da98ce43a9a6c33634b0cdb2efad197a7bda"),
    ],
)
def test_greedy_builds_keep_their_recorded_bytes(literal, l_max, g_max, digest):
    point = build_transitive_point(parse_shift_rule(literal), l_max, g_max)
    assert _build_digest(point) == digest


@pytest.mark.parametrize(
    "literal, l_max, g_max, word",
    [("tripleratio(4)", 7, 64, "100101"), ("spacing(dyadic())", 4, 256, "1000")],
)
def test_spacer_exhaustion_keeps_its_recorded_word(literal, l_max, g_max, word):
    with pytest.raises(SpacerExhausted) as info:
        build_transitive_point(parse_shift_rule(literal), l_max, g_max)
    assert (info.value.word, info.value.spacer_max) == (word, g_max)


def test_greedy_is_deterministic():
    a = build_transitive_point(dyadic_rule(), 4, 4096)
    b = build_transitive_point(dyadic_rule(), 4, 4096)
    assert np.array_equal(a.bits, b.bits)
    assert a.build_log == b.build_log


def test_spacer_exhaustion_reports_word():
    rule = Spacing(Explicit((5,)))
    with pytest.raises(SpacerExhausted) as info:
        build_transitive_point(rule, 2, 64)
    assert info.value.word == "10"
    assert info.value.spacer_max == 64


def test_build_validation():
    with pytest.raises(ConfigError):
        build_transitive_point(FullShift(), 0, 4)
    with pytest.raises(ConfigError):
        build_transitive_point(FullShift(), 2, -1)


@settings(max_examples=20, deadline=None)
@given(l_max=st.integers(min_value=1, max_value=3), g_max=st.integers(min_value=8, max_value=64))
def test_greedy_windows_hit_recorded_positions(l_max, g_max):
    rule = evens_rule()
    p = build_transitive_point(rule, l_max, g_max)
    text = p.prefix_string()
    for w, pos in p.occurrence.items():
        h = len(p) - len(w)
        if h < 1:
            continue
        window = entering_window(rule, p, Word.from_string(w), h)
        brute = tuple(
            n for n in range(1, h + 1) if text[n : n + len(w)] == w
        )
        assert tuple(window) == brute
        if pos >= 1:
            assert pos in window


# ---------------------------------------------------------------------------
# periodic points


def test_periodic_zero_ray():
    p = periodic_point(dyadic_rule(), Word.from_string("0"), 100)
    assert len(p) >= 100
    assert not p.bits.any()
    assert p.period == 1


def test_periodic_rejects_inadmissible():
    with pytest.raises(PreconditionError):
        periodic_point(evens_rule(), Word.from_string("11"), 10)
    with pytest.raises(PreconditionError):
        # consecutive ones three apart: gap 3 is odd
        periodic_point(evens_rule(), Word.from_string("100"), 10)


def test_periodic_ray_with_ones():
    p = periodic_point(FullShift(), Word.from_string("10"), 10)
    assert p.prefix_string().startswith("101010")
    assert p.period == 2
    s = entering_window(FullShift(), p, Word.from_string("1"), len(p) - 1)
    assert all(n % 2 == 0 for n in s)


def test_prefix_string_spells_the_bits():
    for p in (
        champernowne(4),
        build_transitive_point(TripleRatio(3), 4, 64),
        periodic_point(FullShift(), Word.from_string("0110"), 50),
    ):
        assert p.prefix_string() == "".join("1" if b else "0" for b in p.bits)


# ---------------------------------------------------------------------------
# serialization


def test_point_round_trip():
    p = build_transitive_point(dyadic_rule(), 4, 4096)
    payload = encode_point(p)
    json.dumps(payload)
    q = decode_point(payload)
    assert np.array_equal(p.bits, q.bits)
    assert p.occurrence == q.occurrence
    assert p.build_log == q.build_log
    assert p.scale == q.scale
    assert p.rule_literal == q.rule_literal


def test_champernowne_round_trip():
    p = champernowne(3)
    q = decode_point(encode_point(p))
    assert np.array_equal(p.bits, q.bits)
    assert q.occurrence == p.occurrence


def test_rle_starts_with_zero_run():
    p = periodic_point(FullShift(), Word.from_string("1"), 4)
    payload = encode_point(p)
    assert payload["rle"][0] == 0  # leading run of zeros is empty


def test_decode_rejects_corrupt_payload():
    p = champernowne(2)
    payload = encode_point(p)
    bad = dict(payload)
    bad["rle"] = [3, 3]
    with pytest.raises(ConfigError):
        decode_point(bad)
    missing = dict(payload)
    del missing["rule"]
    with pytest.raises(ConfigError):
        decode_point(missing)


@pytest.mark.parametrize(
    "rle, length",
    [
        (5, 10),  # 0-d
        ([[1, 2]], 3),  # 2-D
        ([1, 2**63], 10),  # past int64
        ([11], 10),  # a run longer than the prefix
        ([-1, 11], 10),  # a negative run
        ([2**62] * 5, 2**62),  # an int64 sum that wraps round to the length
    ],
)
def test_decode_rejects_bad_run_arrays(rle, length):
    payload = dict(encode_point(champernowne(2)), rle=rle, length=length)
    with pytest.raises(ConfigError):
        decode_point(payload)


def test_decode_reverifies_admissibility():
    # 011 has gap 1, inadmissible for the evens spacing rule
    payload = {
        "schema": 1,
        "rule": "spacing(evens())",
        "scale": 1,
        "g_max": 4,
        "period": None,
        "length": 3,
        "rle": [1, 2],
        "build_log": [],
    }
    with pytest.raises(ConfigError):
        decode_point(payload)
