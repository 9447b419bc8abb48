"""Value semantics of the immutable records: equality, hashing, immutability, validation."""

import numpy as np
import pytest

from shiftlab.cli import RunConfig
from shiftlab.errors import ConfigError, ShiftLabError
from shiftlab.families import FamilyQuery, FamilySpec, GridParams, WindowReport
from shiftlab.intset import (
    ArithmeticProgression,
    DifferenceOf,
    DyadicBlocks,
    Explicit,
    Intersection,
    Naturals,
    Range,
    Translate,
    Union,
    WindowedSet,
)
from shiftlab.points import GeneratedPoint, champernowne
from shiftlab.subshift import Cylinder, FullShift, Spacing, TripleRatio, Word


def equal_pairs():
    """Pairs built twice from the same arguments, defaults left out on one side."""
    fields = {"command": "check", "rule": "full()", "wordlen": 2, "horizon": 64}
    return [
        (Range(2, 3), Range(2, 3)),
        (TripleRatio(3), TripleRatio(3)),
        (FullShift(), FullShift()),
        (Spacing(Union((Range(2, 3), ArithmeticProgression(8, 1)))),
         Spacing(Union((Range(2, 3), ArithmeticProgression(8, 1))))),
        (Word(3, (0, 2)), Word.from_string("101")),
        (Cylinder(Word(2, (1,))), Cylinder(Word(2, (1,)), 0)),
        (FamilySpec("thick", 4), FamilySpec("thick", 4)),
        (GridParams(), GridParams(nmax=4, kmax=64, g=None)),
        (FamilyQuery("plain", spec=FamilySpec("thick", 2)),
         FamilyQuery("plain", FamilySpec("thick", 2), (), None, 0)),
        (RunConfig(**fields), RunConfig("check", rule="full()", wordlen=2, horizon=64)),
    ]


@pytest.mark.parametrize("left, right", equal_pairs(), ids=lambda r: type(r).__name__)
def test_equal_records_compare_and_hash_equal(left, right):
    assert left is not right
    assert left == right and not left != right
    assert hash(left) == hash(right)
    assert {left: 1}[right] == 1


def test_equality_is_class_aware():
    assert Range(2, 3) != ArithmeticProgression(2, 3)
    assert len({Range(2, 3), ArithmeticProgression(2, 3)}) == 2
    assert Union((Naturals(),)) != Intersection((Naturals(),))
    assert Naturals() != DyadicBlocks()
    assert FullShift() != Spacing(Naturals())
    assert TripleRatio(3) != TripleRatio(4)
    assert Range(2, 3) != (2, 3)
    assert Cylinder(Word(1, ()), 0) != Cylinder(Word(1, ()), -1)
    assert GridParams(kmax=8) != GridParams(kmax=9)


def test_records_show_their_fields():
    assert repr(Range(2, 3)) == "Range(lo=2, hi=3)"
    assert repr(Cylinder(Word(2, (1,)))) == "Cylinder(word=Word(length=2, ones=(1,)), offset=0)"
    assert str(Translate(Range(2, 3), -1)) == "shift(range(2,3),-1)"
    assert str(Word(3, (0, 2))) == "101"


@pytest.mark.parametrize(
    "record, name",
    [
        (Range(2, 3), "lo"),
        (TripleRatio(3), "p"),
        (Word(2, (1,)), "ones"),
        (GridParams(), "kmax"),
        (RunConfig("check"), "horizon"),
        (WindowedSet.from_mask(np.ones(4, dtype=bool)), "complete"),
    ],
)
def test_field_assignment_raises(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 5)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == before


def test_windows_and_points_compare_by_identity():
    mask = np.array([False, True, True])
    one, two = WindowedSet.from_mask(mask), WindowedSet.from_mask(mask.copy())
    assert one == one and one != two
    assert len({one, two}) == 2
    assert champernowne(2) != champernowne(2)
    point = champernowne(2)
    assert point == point and {point: 1}[point] == 1


def test_window_values_are_cached():
    window = WindowedSet.from_mask(np.array([False, True, False, True]))
    assert window.values is window.values
    assert window.values.tolist() == [1, 3]


def test_pair_mask_is_cached_on_the_rule():
    rule = Spacing(ArithmeticProgression(2, 2))
    first = rule.pair_mask(100)
    assert rule.pair_mask(50) is first
    assert not first.flags.writeable
    assert rule == Spacing(ArithmeticProgression(2, 2))
    assert hash(rule) == hash(Spacing(ArithmeticProgression(2, 2)))


def test_generated_point_bits_are_read_only():
    point = GeneratedPoint(np.array([True, False]), {"1": 0}, (("1", 0),), 1, "full()")
    assert not point.bits.flags.writeable
    assert (point.g_max, point.period) == (None, None)


@pytest.mark.parametrize(
    "make",
    [
        lambda: WindowedSet.from_mask(np.zeros(0, dtype=bool)),
        lambda: Explicit(()),
        lambda: Explicit((0, 2)),
        lambda: Explicit((3, 2)),
        lambda: Range(0, 3),
        lambda: Range(4, 3),
        lambda: ArithmeticProgression(0, 1),
        lambda: ArithmeticProgression(1, 0),
        lambda: Union(()),
        lambda: Intersection(()),
        lambda: Word(0, ()),
        lambda: Word(2, (2,)),
        lambda: Word(3, (1, 1)),
        lambda: Spacing(Union((Naturals(), DifferenceOf(Naturals())))),
        lambda: TripleRatio(2),
        lambda: TripleRatio((1 << 29) + 2),
        lambda: FamilySpec("thin", 2),
        lambda: FamilySpec("thick", 0),
        lambda: GridParams(g=0),
        lambda: WindowReport("Maybe", None, 1, "proof"),
        lambda: WindowReport("Witnessed", None, 1, "proof"),
        lambda: RunConfig("check", threads=0),
    ],
)
def test_validators_reject_bad_input(make):
    # with the cases in test_run_config_validation, test_fa_validation and
    # test_sweep_report_rejects_unknown_verdict, every validator is covered
    with pytest.raises(ShiftLabError):
        make()


def test_constructors_reject_wrong_arguments():
    with pytest.raises(TypeError):
        Range(2)
    with pytest.raises(TypeError):
        Range(2, 3, 4)
    with pytest.raises(TypeError):
        Range(2, 3, lo=2)
    with pytest.raises(TypeError):
        RunConfig("check", colour="red")
    with pytest.raises(ConfigError):
        Range(lo=3, hi=2)
