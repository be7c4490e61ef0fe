"""Tests for divisor class arithmetic, reduction, and parsing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints3 import divclass
from fatpoints3.divclass import (
    ClassParseError,
    PlaneClass,
    QuadricClass,
    ReductionStatus,
    ThreefoldClass,
    cremona_reduce,
    edim3,
    format_class,
    is_standard_form,
    k_int,
    pair,
    parse_class,
    plane_canonical,
    quadric_canonical,
    quadric_to_plane,
    residual,
    restrict_to_quadric,
    restricted_plane_class,
    self_int,
    vdim2,
    vdim3,
    vdim_quadric,
)


def test_vdim3_values():
    assert vdim3(ThreefoldClass(2, (1,) * 9)) == 0
    assert vdim3(ThreefoldClass(3, (2, 1, 1, 1, 1, 1))) == 10
    assert vdim3(ThreefoldClass(5, (2,) * 5 + (1,) * 7)) == 28
    assert vdim3(ThreefoldClass(1, ())) == 3
    assert vdim3(ThreefoldClass(0, ())) == 0
    assert vdim3(ThreefoldClass(-1, ())) == -1
    assert vdim3(ThreefoldClass(-3, (2,))) == -5
    assert edim3(ThreefoldClass(-3, (2,))) == -1


def test_vdim3_rejects_deep_negative_degree():
    with pytest.raises(ValueError):
        vdim3(ThreefoldClass(-4, ()))


def test_vdim3_small_multiplicities_are_free():
    # multiplicities below 3 on a curve point still cost conditions, but
    # multiplicity 1 and 2 cost 1 and 4; the count comes from the binomial
    base = vdim3(ThreefoldClass(4, ()))
    assert base - vdim3(ThreefoldClass(4, (1,))) == 1
    assert base - vdim3(ThreefoldClass(4, (2,))) == 4
    assert base - vdim3(ThreefoldClass(4, (3,))) == 10


def test_vdim2_and_quadric():
    assert vdim2(PlaneClass(4, (2, 2, 2))) == 5
    assert vdim2(PlaneClass(1, ())) == 2
    assert vdim_quadric(QuadricClass(2, 2, (1,) * 8)) == 0
    assert vdim_quadric(QuadricClass(1, 1, ())) == 3


def test_pairing_and_canonical():
    a = PlaneClass(3, (1, 1, 1))
    assert self_int(a) == 9 - 3
    assert k_int(a) == -9 + 3
    k5 = plane_canonical(5)
    assert k5 == PlaneClass(-3, (-1,) * 5)
    assert pair(a, k5) == -9 + 3
    q = QuadricClass(2, 3, (1, 1))
    kq = quadric_canonical(2)
    assert kq == QuadricClass(-2, -2, (-1, -1))
    assert self_int(q) == 2 * 2 * 3 - 2
    assert pair(q, kq) == -2 * 2 - 2 * 3 + 2
    with pytest.raises(TypeError):
        pair(a, q)


def test_pairing_pads_multiplicities():
    a = PlaneClass(2, (1,))
    b = PlaneClass(2, (1, 1, 1))
    assert pair(a, b) == 4 - 1


def test_restriction_and_residual():
    c = ThreefoldClass(3, (2, 1))
    q = restrict_to_quadric(c)
    assert q == QuadricClass(3, 3, (2, 1))
    assert residual(c) == ThreefoldClass(1, (1, 0))
    assert residual(c, effective=True) == ThreefoldClass(1, (1, 0))
    c2 = ThreefoldClass(2, (1, 1))
    assert residual(c2) == ThreefoldClass(0, (0, 0))
    c3 = ThreefoldClass(1, (2, 0))
    assert residual(c3) == ThreefoldClass(-1, (1, -1))
    assert residual(c3, effective=True) == ThreefoldClass(-1, (1, 0))


def test_quadric_to_plane_dictionary():
    q = QuadricClass(2, 3, (2, 1, 1))
    pl = quadric_to_plane(q)
    # anchored at the largest multiplicity: degree a+b-m1, two new entries
    assert pl.d == 2 + 3 - 2
    assert sorted(pl.mults, reverse=True) == sorted((2 - 2, 3 - 2, 1, 1), reverse=True)
    # no multiplicities at all: anchor multiplicity is zero
    q0 = QuadricClass(1, 2, ())
    pl0 = quadric_to_plane(q0)
    assert pl0.d == 3 and sorted(pl0.mults) == [1, 2]


def test_restricted_plane_class_canonical_degree():
    c = ThreefoldClass(2, (1,) * 9)
    pl = restricted_plane_class(c)
    assert pl.d == 2 * 2 - 1
    assert k_int(pl) == -4 * 2 + 9


def test_standard_form_detection():
    assert is_standard_form(PlaneClass(3, (1, 1, 1)))
    assert not is_standard_form(PlaneClass(2, (1, 1, 1)))
    assert not is_standard_form(PlaneClass(3, (1, -1)))
    assert is_standard_form(PlaneClass(0, ()))
    assert not is_standard_form(PlaneClass(-1, ()))


def test_cremona_reduce_simple():
    log = cremona_reduce(PlaneClass(2, (1, 1, 1)))
    assert log.status is ReductionStatus.IN_STANDARD_FORM
    assert len(log.steps) == 1
    assert log.result == PlaneClass(1, (0, 0, 0))
    assert log.standard


def test_cremona_reduce_not_standard():
    log = cremona_reduce(PlaneClass(5, (3, 3, 3)))
    assert log.status is ReductionStatus.NOT_STANDARD
    assert not log.standard
    assert log.reason


def test_cremona_degree_strictly_decreases():
    rng = random.Random(99)
    for _ in range(200):
        d = rng.randrange(0, 30)
        r = rng.randrange(0, 10)
        mults = tuple(rng.randrange(-2, 12) for _ in range(r))
        log = cremona_reduce(PlaneClass(d, mults))
        degs = [s.before.d for s in log.steps] + [log.result.d]
        assert all(x > y for x, y in zip(degs, degs[1:])) or not log.steps
        if log.standard:
            assert is_standard_form(log.result)
        # every step conserves both intersection invariants
        for s in log.steps:
            assert self_int(s.before) == self_int(s.after)
            assert k_int(s.before) == k_int(s.after)


def test_cremona_pads_to_three():
    # two assigned points are padded with a third zero; the move sends the
    # line through the pair to an exceptional class, which the reduction
    # rule reports as not standard
    log = cremona_reduce(PlaneClass(1, (1, 1)))
    assert log.status is ReductionStatus.NOT_STANDARD
    assert len(log.steps) == 1
    assert log.result.d == 0 and min(log.result.mults) == -1


def test_parse_and_format_roundtrip():
    cases = [
        "L3(5; 2^5, 1^7)",
        "L3(2)",
        "L3(-1; 3)",
        "L2(3; 1, 1, 1)",
        "LQ(2, 3; 2, 1)",
        "L2(0)",
    ]
    for txt in cases:
        c = parse_class(txt)
        assert parse_class(format_class(c)) == c


def test_parse_flexible_input():
    assert parse_class("l3(2;1,1)") == ThreefoldClass(2, (1, 1))
    assert parse_class(" L3 ( 2 ; 1 ^ 3 ) ") == ThreefoldClass(2, (1, 1, 1))
    assert parse_class("LQ(1,1)") == QuadricClass(1, 1, ())


def test_parse_errors_have_positions():
    for bad in ("", "L4(2)", "L3(2; 1,,1)", "L3(2; 1) junk", "L3(; 1)", "L3(2; 1^)"):
        with pytest.raises(ClassParseError) as err:
            parse_class(bad)
        assert err.value.pos >= 0


def test_format_groups_runs():
    c = ThreefoldClass(7, (3, 3, 2, 1, 1, 1))
    assert format_class(c) == "L3(7; 3^2, 2, 1^3)"
    assert format_class(ThreefoldClass(2, ())) == "L3(2)"


def test_normalized_sorts_and_drops_zeros():
    c = ThreefoldClass(4, (0, 2, 1, 0, 3))
    assert c.normalized() == ThreefoldClass(4, (3, 2, 1))
    # negatives are kept: they mark an invalid class, not a removable entry
    c2 = ThreefoldClass(4, (1, -1, 0))
    assert c2.normalized() == ThreefoldClass(4, (1, -1))


def test_random_roundtrip_property():
    rng = random.Random(12345)
    for _ in range(300):
        kind = rng.randrange(3)
        r = rng.randrange(0, 8)
        mults = tuple(rng.randrange(-3, 9) for _ in range(r))
        if kind == 0:
            c = ThreefoldClass(rng.randrange(-3, 13), mults)
        elif kind == 1:
            c = PlaneClass(rng.randrange(-5, 20), mults)
        else:
            c = QuadricClass(rng.randrange(-4, 9), rng.randrange(-4, 9), mults)
        assert parse_class(format_class(c)) == c


def test_parse_bounds_the_point_count():
    # m^k is refused before it is expanded: 10^18 copies would not fit
    with pytest.raises(ClassParseError, match="points") as err:
        parse_class("L3(2; 1^1000000000000000000)")
    assert err.value.pos == 8
    limit = divclass._MAX_POINTS
    assert parse_class(f"L3(2; 1^{limit})").r == limit
    # a plain entry past the bound is refused at its own position
    text = f"L3(2; 3, 1^{limit - 1}, 2)"
    with pytest.raises(ClassParseError, match="points") as err:
        parse_class(text)
    assert err.value.pos == text.rindex("2")


def test_parse_rejects_integers_int_cannot_read():
    # non-ASCII digits and more digits than int() converts
    for bad in ("L3(\u00b2)", "L3(2; 1^\u0663)", "L3(" + "9" * 5000 + ")"):
        with pytest.raises(ClassParseError):
            parse_class(bad)


INTEGERS = st.sampled_from((
    "0", "1", "2", "-1", "+3", "12", "10000", "10001", "99999999999999999999",
    "\u00b2", "\u0663", "", "x",
))


@st.composite
def class_like_texts(draw):
    """Class strings near the grammar: heads, integers and separators are
    drawn from valid and invalid choices."""
    head = draw(st.sampled_from(("L3", "LQ", "L2", "l3", "L4", "")))
    degs = draw(INTEGERS) + ("," + draw(INTEGERS) if draw(st.booleans()) else "")
    items = draw(st.lists(st.tuples(INTEGERS, st.none() | INTEGERS), max_size=5))
    body = ", ".join(m if k is None else f"{m}^{k}" for m, k in items)
    sep = draw(st.sampled_from(("; ", ",", "")))
    close = draw(st.sampled_from((")", "", ") x")))
    return f"{head}({degs}{sep}{body}{close}"


CLASS_TEXTS = st.text(max_size=40) | class_like_texts()


@settings(max_examples=400, deadline=None)
@given(CLASS_TEXTS)
def test_parse_class_fuzz(text):
    try:
        c = parse_class(text)
    except ClassParseError:
        return
    assert parse_class(format_class(c)) == c
