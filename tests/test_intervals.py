"""Exact interval sets and the two limit evaluation orders."""

from fractions import Fraction

import pytest

from geopal.intervals import (
    EMPTY,
    HarmonicFamily,
    Interval,
    IntervalSet,
    divergence_report,
    euclid_closure,
    euclid_interior,
    finite_meet,
    omega_limit,
    random_interval_set,
)

HALF = Fraction(1, 2)


def test_interior_opens_endpoints():
    area = IntervalSet.of(Interval.closed(-HALF, HALF))
    assert str(euclid_interior(area)) == "(-1/2, 1/2)"


def test_interior_of_point_is_empty():
    assert euclid_interior(IntervalSet.of(Interval.point(0))) == EMPTY
    assert str(EMPTY) == "{}"


def test_touching_halves_merge_before_interior():
    area = IntervalSet.of(
        Interval(Fraction(-1), Fraction(0), False, True),
        Interval(Fraction(0), Fraction(1), True, False),
    )
    assert str(area) == "(-1, 1)"
    assert euclid_interior(area) == area


def test_closure_examples():
    assert str(euclid_closure(IntervalSet.of(Interval.open(Fraction(-1, 3), Fraction(1, 3))))) == "[-1/3, 1/3]"
    assert euclid_closure(EMPTY) == EMPTY
    point = IntervalSet.of(Interval.point(0))
    assert euclid_closure(point) == point


def test_finite_meet_examples():
    closed = HarmonicFamily(Fraction(1), closed=True)
    assert str(finite_meet(closed, 2)) == "[-1/2, 1/2]"
    assert str(finite_meet(closed, 1)) == "[-1, 1]"
    open_family = HarmonicFamily(Fraction(1), closed=False)
    assert str(finite_meet(open_family, 5)) == "(-1/5, 1/5)"
    with pytest.raises(ValueError):
        finite_meet(HarmonicFamily(Fraction(1), closed=True, start=3), 2)


def test_large_scale_members_are_clamped():
    family = HarmonicFamily(Fraction(2), closed=False)
    assert str(family.member(1)) == "[-1, 1]"
    assert str(family.member(4)) == "(-1/2, 1/2)"


def test_omega_limit_is_the_origin():
    for family in (
        HarmonicFamily(Fraction(1), closed=True),
        HarmonicFamily(Fraction(1), closed=False),
        HarmonicFamily(Fraction(2), closed=True),
    ):
        limit = omega_limit(family)
        assert str(limit) == "{0}"
        # consistency with deep finite truncations
        deep = finite_meet(family, 60)
        assert deep.contains(0)
        assert limit.contains(0)


def test_divergence_report_exact_values():
    report = divergence_report()
    assert str(report.interior_of_limit) == "{}"
    assert str(report.limit_of_interiors) == "{0}"
    assert report.carriers_differ
    assert report.truncations_agree
    for n, first, second in report.truncations:
        assert first == second
        assert str(first) == f"(-1/{n}, 1/{n})"


def test_report_renders_bit_stable():
    text = divergence_report().render()
    assert "interior of the limit intersection : {}" in text
    assert "limit intersection of the interiors: {0}" in text
    assert "(-1/1000, 1/1000)" in text


def test_no_floats_anywhere():
    report = divergence_report()
    for collection in (report.interior_of_limit, report.limit_of_interiors):
        for part in collection.parts:
            assert isinstance(part.lo, Fraction) and isinstance(part.hi, Fraction)


def test_kuratowski_laws_on_random_sets():
    for seed in range(300):
        a = random_interval_set(seed)
        b = random_interval_set(seed + 50_000)
        interior = euclid_interior(a)
        assert euclid_interior(interior) == interior
        assert euclid_interior(a.intersect(b)) == interior.intersect(euclid_interior(b))
        closure = euclid_closure(a)
        assert euclid_closure(closure) == closure
        assert euclid_closure(a.union(b)) == closure.union(euclid_closure(b))
        for x in (Fraction(0), Fraction(1, 7), Fraction(-2, 3), Fraction(1)):
            assert not interior.contains(x) or a.contains(x)
            assert not a.contains(x) or closure.contains(x)
    # The carrier [-1, 1] is its own interior, and the empty set its own closure.
    carrier = IntervalSet.of(Interval.closed(-1, 1))
    assert euclid_interior(carrier) == carrier
    assert euclid_closure(EMPTY) == EMPTY
    # A member clamped to the carrier is open in it.
    clamped = HarmonicFamily(Fraction(2), closed=False).member(1)
    assert euclid_interior(clamped) == clamped


def test_interior_keeps_the_carrier_bounds_closed():
    assert str(euclid_interior(IntervalSet.of(Interval.closed(-1, 0)))) == "[-1, 0)"
    assert str(euclid_interior(IntervalSet.of(Interval.closed(HALF, 1)))) == "(1/2, 1]"
    assert str(euclid_interior(IntervalSet.of(Interval(-1, 1, False, True)))) == "(-1, 1]"
    for end in (-1, 1):
        assert euclid_interior(IntervalSet.of(Interval.point(end))) == EMPTY


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0), True, True)
    with pytest.raises(ValueError):
        Interval(Fraction(0), Fraction(0), True, False)
    with pytest.raises(ValueError):
        Interval(Fraction(-2), Fraction(0), True, True)
    with pytest.raises(ValueError):
        HarmonicFamily(Fraction(0))
    with pytest.raises(ValueError):
        HarmonicFamily(Fraction(1), start=0)


def test_float_endpoints_and_scales_are_refused():
    for build in (
        lambda: Interval(0.1, 0.5, True, True),
        lambda: Interval(Fraction(0), 0.5, True, False),
        lambda: Interval.closed(-0.5, 0),
        lambda: Interval.open(0, 1.0),
        lambda: Interval.point(0.25),
        lambda: HarmonicFamily(0.5),
        lambda: HarmonicFamily(2.0, closed=False),
        lambda: Interval.closed(0, "1/10").contains(0.1),
        lambda: IntervalSet.of(Interval.closed(0, 1)).contains(0.5),
    ):
        with pytest.raises(ValueError, match="float"):
            build()


def test_ints_fractions_and_ratio_strings_are_exact():
    assert str(Interval(0, "1/2", True, True)) == "[0, 1/2]"
    assert str(Interval.open("-1/3", Fraction(1, 3))) == "(-1/3, 1/3)"
    assert Interval.point("1/10").lo == Fraction(1, 10)
    assert str(HarmonicFamily("5/2", closed=False).member(5)) == "(-1/2, 1/2)"
    assert str(HarmonicFamily(3).member(6)) == "[-1/2, 1/2]"
    tenth = Interval.closed(0, "1/10")
    assert tenth.contains(0) and tenth.contains(Fraction(1, 20)) and tenth.contains("1/10")
    assert not tenth.contains("1/5") and not tenth.contains(-1)
    assert IntervalSet.of(tenth).contains("1/10") and not IntervalSet.of(tenth).contains(1)


@pytest.mark.parametrize("scale", [Fraction(1, 3), 1, 2, Fraction(5, 2), 7], ids=str)
@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("start", [1, 2, 3])
def test_finite_meet_equals_the_folded_intersection(scale, closed, start):
    family = HarmonicFamily(scale, closed=closed, start=start)
    folded = family.member(start)
    for n in range(start, 61):
        folded = folded.intersect(family.member(n))
        assert finite_meet(family, n) == folded


def test_normalization_sorts_and_merges():
    messy = IntervalSet.of(
        Interval.closed(Fraction(1, 4), HALF),
        Interval.closed(Fraction(-1, 2), Fraction(1, 4)),
        Interval.point(Fraction(3, 4)),
    )
    assert str(messy) == "[-1/2, 1/2] u {3/4}"
