"""Divisor class arithmetic for linear systems with fat base points.

Three ambient models are supported:

* ``ThreefoldClass``: systems of degree-d surfaces in P^3 with r assigned
  base points of multiplicities m_1..m_r (classes on the blow-up of P^3).
* ``QuadricClass``: bidegree (a,b) classes on a blown-up smooth quadric.
* ``PlaneClass``: degree-d plane curve classes on a blown-up plane.

The module provides the virtual/expected dimension counts, the intersection
pairing on the two surface models, the restriction/residual calculus that
moves a threefold class onto a quadric and back, the quadric-to-plane
conversion, and the Cremona reduction to standard form.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

__all__ = ["ThreefoldClass", "QuadricClass", "PlaneClass", "ReductionLog", "ReductionStatus",
           "CremonaStep", "ClassParseError", "vdim3", "edim3", "vdim2", "vdim_quadric", "pair",
           "self_int", "k_int", "plane_canonical", "quadric_canonical", "restrict_to_quadric",
           "residual", "quadric_to_plane", "restricted_plane_class", "is_standard_form",
           "cremona_reduce", "parse_class", "format_class"]

MAX_MOVES = 1000  # Cremona moves of one reduction; a class of degree below this never needs more


# ---------------------------------------------------------------------------
# class records


def _as_mults(mults: Iterable[int]) -> tuple[int, ...]:
    """Multiplicities as a tuple of Python ints.  Integer types (numpy's
    too) convert; floats and strings raise TypeError rather than being
    truncated or parsed."""
    return tuple(map(operator.index, mults))


@dataclass(frozen=True)
class _DegreeClass:
    """A degree d and multiplicities m_i: the fields, checks and ``r`` that
    the threefold and plane classes share."""

    d: int
    mults: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mults", _as_mults(self.mults))
        object.__setattr__(self, "d", operator.index(self.d))

    @property
    def r(self) -> int:
        return len(self.mults)


# Each subclass is decorated again, adding no field, so that its own frozen
# __setattr__ refuses every name: on a subclass the base's refuses only the
# fields.  The generated __eq__ compares classes, so a threefold class never
# equals the plane class with the same numbers.
@dataclass(frozen=True)
class ThreefoldClass(_DegreeClass):
    """Degree d surfaces in P^3 with multiplicity >= m_i at the i-th point."""

    def normalized(self) -> "ThreefoldClass":
        """Sort multiplicities non-increasing and drop zero entries; the class
        itself when it is already in that form."""
        ms = tuple(sorted(self.mults, reverse=True))
        if 0 in ms:
            return ThreefoldClass(self.d, tuple(m for m in ms if m != 0))
        return self if ms == self.mults else ThreefoldClass(self.d, ms)


@dataclass(frozen=True)
class QuadricClass:
    """Class a*f1 + b*f2 - sum m_i e_i on a blown-up smooth quadric."""

    a: int
    b: int
    mults: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mults", _as_mults(self.mults))
        object.__setattr__(self, "a", operator.index(self.a))
        object.__setattr__(self, "b", operator.index(self.b))

    @property
    def r(self) -> int:
        return len(self.mults)


@dataclass(frozen=True)
class PlaneClass(_DegreeClass):
    """Class d*h - sum m_i e_i on a blown-up projective plane."""


AnyClass = Union[ThreefoldClass, QuadricClass, PlaneClass]


def plane_canonical(s: int) -> PlaneClass:
    """Canonical class of the plane blown up at s points."""
    return PlaneClass(-3, (-1,) * s)


def quadric_canonical(r: int) -> QuadricClass:
    """Canonical class of the quadric blown up at r points."""
    return QuadricClass(-2, -2, (-1,) * r)


# ---------------------------------------------------------------------------
# dimension counts


def _c3(n: int) -> int:
    # binomial(n, 3) extended by 0 below n = 3 (counts degree <= n-3 monomials)
    if n < 3:
        return 0
    return n * (n - 1) * (n - 2) // 6


def vdim3(c: ThreefoldClass) -> int:
    """Virtual dimension binom(d+3,3) - sum binom(m_i+2,3) - 1.

    Degrees below -3 are rejected: the leading binomial is no longer zero
    there and the count stops being meaningful.
    """
    if c.d < -3:
        raise ValueError(f"degree {c.d} below -3 is outside the counting range")
    return _c3(c.d + 3) - sum(_c3(m + 2) for m in c.mults) - 1


def edim3(c: ThreefoldClass) -> int:
    """Expected dimension max(-1, vdim3)."""
    return max(-1, vdim3(c))


def vdim2(c: PlaneClass) -> int:
    """Virtual dimension d(d+3)/2 - sum m_i(m_i+1)/2 of a plane class."""
    return c.d * (c.d + 3) // 2 - sum(m * (m + 1) // 2 for m in c.mults)


def vdim_quadric(c: QuadricClass) -> int:
    """Virtual dimension (a+1)(b+1) - sum m_i(m_i+1)/2 - 1 on the quadric."""
    return (c.a + 1) * (c.b + 1) - sum(m * (m + 1) // 2 for m in c.mults) - 1


# ---------------------------------------------------------------------------
# intersection pairing


def pair(c1: AnyClass, c2: AnyClass) -> int:
    """Intersection number of two classes on the same surface model.

    Plane: h^2 = 1, e_i.e_j = -delta_ij.  Quadric: f1.f2 = 1, f1^2 = f2^2 = 0,
    e_i.e_j = -delta_ij.  Classes with different point counts pair as if
    zero-padded: ``zip`` stops at the shorter, whose missing entries would
    add nothing.  Mixing the two models is rejected.
    """
    if isinstance(c1, PlaneClass) and isinstance(c2, PlaneClass):
        return c1.d * c2.d - sum(a * b for a, b in zip(c1.mults, c2.mults))
    if isinstance(c1, QuadricClass) and isinstance(c2, QuadricClass):
        return c1.a * c2.b + c1.b * c2.a - sum(a * b for a, b in zip(c1.mults, c2.mults))
    raise TypeError(
        f"cannot pair {type(c1).__name__} with {type(c2).__name__}: "
        "intersection numbers live on a single surface model"
    )


def self_int(c: AnyClass) -> int:
    return pair(c, c)


def k_int(c: AnyClass) -> int:
    """Intersection with the canonical class of the ambient blown-up surface:
    sum(m) - 3d on the plane, sum(m) - 2(a + b) on the quadric."""
    if isinstance(c, PlaneClass):
        return sum(c.mults) - 3 * c.d
    if isinstance(c, QuadricClass):
        return sum(c.mults) - 2 * (c.a + c.b)
    raise TypeError(f"no canonical pairing for {type(c).__name__}")


# ---------------------------------------------------------------------------
# restriction / residual calculus


def restrict_to_quadric(c: ThreefoldClass) -> QuadricClass:
    """Trace of the threefold class on the distinguished quadric: (d,d; m)."""
    return QuadricClass(c.d, c.d, c.mults)


def residual(c: ThreefoldClass) -> ThreefoldClass:
    """Residual class after removing the quadric: (d-2; m_1-1, ..., m_r-1).

    No entry is clamped: a point of multiplicity 1 leaves a zero, which
    ``normalized`` drops, and the certificate chains read every residual
    through it.
    """
    return ThreefoldClass(c.d - 2, tuple(m - 1 for m in c.mults))


def quadric_to_plane(c: QuadricClass) -> PlaneClass:
    """Blow-down dictionary from the quadric model to the plane model.

    Anchored at the largest multiplicity m1 (sorted first; m1 = 0 when there
    are no assigned points): (a, b; m1, ..., mr) maps to
    (a + b - m1; a - m1, b - m1, m2, ..., mr).
    """
    ms = sorted(c.mults, reverse=True)
    m1 = ms[0] if ms else 0
    rest = tuple(ms[1:])
    return PlaneClass(c.a + c.b - m1, (c.a - m1, c.b - m1) + rest)


def restricted_plane_class(c: ThreefoldClass) -> PlaneClass:
    """Plane model of the trace on the quadric, with the largest multiplicity
    anchoring the blow-down: (2d - m1; (d - m1)^2, m2, ..., mr)."""
    return quadric_to_plane(restrict_to_quadric(c))


# ---------------------------------------------------------------------------
# standard form and Cremona reduction


class ReductionStatus(Enum):
    IN_STANDARD_FORM = "InStandardForm"
    NOT_STANDARD = "NotStandard"


@dataclass(frozen=True)
class CremonaStep:
    """One quadratic move: indices of the three multiplicities acted on,
    with the class before and after."""

    indices: tuple[int, int, int]
    before: PlaneClass
    after: PlaneClass


@dataclass(frozen=True)
class ReductionLog:
    status: ReductionStatus
    steps: tuple[CremonaStep, ...]
    start: PlaneClass
    result: PlaneClass
    reason: str = ""

    @property
    def standard(self) -> bool:
        return self.status is ReductionStatus.IN_STANDARD_FORM


def is_standard_form(c: PlaneClass) -> bool:
    """True when d >= m1+m2+m3 for the three largest multiplicities and all
    multiplicities are non-negative (zero-padded below three entries)."""
    if min(c.mults, default=0) < 0:
        return False
    return c.d >= sum(sorted(c.mults, reverse=True)[:3])


def _top3_indices(mults: tuple[int, ...]) -> tuple[int, int, int]:
    # the sort is stable, so ties keep their index order
    order = sorted(range(len(mults)), key=mults.__getitem__, reverse=True)
    return order[0], order[1], order[2]


def cremona_reduce(c: PlaneClass) -> ReductionLog:
    """Greedy Cremona reduction toward standard form.

    While d < m_i + m_j + m_k for the three largest multiplicities, apply the
    quadratic move d -> 2d - (m_i+m_j+m_k), m_i -> d - m_j - m_k (and
    cyclically).  Each move strictly decreases d, so the loop terminates;
    a class that needs more than ``MAX_MOVES`` moves raises ValueError.
    Ends NotStandard when the degree goes negative, or when no
    degree-decreasing move remains but some multiplicity is negative.
    Multiplicity lists shorter than three are padded with zeros up front so
    the moves are always defined.
    """
    start = c
    work = c
    if work.r < 3:
        work = PlaneClass(work.d, work.mults + (0,) * (3 - work.r))
    steps: list[CremonaStep] = []
    while True:
        if work.d < 0:
            return ReductionLog(
                ReductionStatus.NOT_STANDARD, tuple(steps), start, work,
                reason="degree became negative",
            )
        i, j, k = _top3_indices(work.mults)
        mi, mj, mk = work.mults[i], work.mults[j], work.mults[k]
        if work.d >= mi + mj + mk:
            if min(work.mults) < 0:
                return ReductionLog(
                    ReductionStatus.NOT_STANDARD, tuple(steps), start, work,
                    reason="negative multiplicity with no degree-decreasing move left",
                )
            return ReductionLog(
                ReductionStatus.IN_STANDARD_FORM, tuple(steps), start, work,
            )
        if len(steps) == MAX_MOVES:
            raise ValueError(
                f"the plane class of degree {c.d} needs more than {MAX_MOVES} Cremona moves")
        new_mults = list(work.mults)
        new_mults[i] = work.d - mj - mk
        new_mults[j] = work.d - mi - mk
        new_mults[k] = work.d - mi - mj
        after = PlaneClass(2 * work.d - mi - mj - mk, tuple(new_mults))
        steps.append(CremonaStep((i, j, k), work, after))
        work = after


# ---------------------------------------------------------------------------
# class strings


class ClassParseError(ValueError):
    """Parse failure with the offending position in the input string."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _runs(mults: tuple[int, ...]) -> list[tuple[int, int]]:
    """Runs of equal consecutive multiplicities, as (value, length)."""
    runs = []
    i = 0
    while i < len(mults):
        j = i + 1
        while j < len(mults) and mults[j] == mults[i]:
            j += 1
        runs.append((mults[i], j - i))
        i = j
    return runs


def _render_run(m: int, n: int) -> str:
    return f"{m}^{n}" if n > 1 else f"{m}"


def _render_mults(mults: tuple[int, ...]) -> str:
    return ", ".join([_render_run(m, n) for m, n in _runs(mults)])


def _format_bumps(c: ThreefoldClass) -> list[str]:
    """``format_class`` of ``c`` with its i-th multiplicity raised by one, for
    every i, in time linear in the length of the strings.

    A bump at i splits the run holding i around it; the raised point joins
    a neighbouring run of its new value when it ends the split run on that
    side.  Every other run renders as in ``c``, so each string is spliced
    from ``c``'s rendered runs.
    """
    runs = _runs(c.mults)
    parts = [_render_run(m, n) for m, n in runs]
    out: list[str] = []
    for k, (m, n) in enumerate(runs):
        for left in range(n):
            right = n - 1 - left
            head, tail, raised = parts[:k], parts[k + 1:], 1
            if not left and k > 0 and runs[k - 1][0] == m + 1:
                head, raised = parts[:k - 1], raised + runs[k - 1][1]
            if not right and k + 1 < len(runs) and runs[k + 1][0] == m + 1:
                tail, raised = parts[k + 2:], raised + runs[k + 1][1]
            mid = [_render_run(m + 1, raised)]
            if left:
                mid.insert(0, _render_run(m, left))
            if right:
                mid.append(_render_run(m, right))
            out.append(f"L3({c.d}; {', '.join(head + mid + tail)})")
    return out


def format_class(c: AnyClass) -> str:
    """Render a class string such as L3(5; 2^5, 1^7).

    Runs of equal consecutive multiplicities use the caret shorthand; the
    output re-parses to an equal class.
    """
    if isinstance(c, ThreefoldClass):
        head, degs = "L3", str(c.d)
    elif isinstance(c, QuadricClass):
        head, degs = "LQ", f"{c.a},{c.b}"
    elif isinstance(c, PlaneClass):
        head, degs = "L2", str(c.d)
    else:
        raise TypeError(f"cannot format {type(c).__name__}")
    if not c.mults:
        return f"{head}({degs})"
    return f"{head}({degs}; {_render_mults(c.mults)})"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ClassParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == digits:
            raise ClassParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise ClassParseError("integer too long", start) from None


# parse_class refuses more points than this, before expanding m^k; every
# checker box and CLI cap stays far below it
_MAX_POINTS = 10_000


def parse_class(text: str) -> AnyClass:
    """Parse a class string: L3(d; m1, ..., mr), LQ(a,b; ...), L2(d; ...).

    Whitespace-insensitive; m^k expands to k copies of m; the multiplicity
    list may be empty or omitted.
    """
    sc = _Scanner(text)
    sc.skip_ws()
    rest = sc.text[sc.pos:sc.pos + 2].upper()
    if rest in ("L3", "LQ", "L2"):
        head = rest
        sc.pos += 2
    else:
        raise ClassParseError("expected class head L3, LQ or L2", sc.pos)
    sc.expect("(")
    degs = [sc.integer()]
    if head == "LQ":
        sc.expect(",")
        degs.append(sc.integer())
    mults: list[int] = []
    if sc.peek() == ";":
        sc.expect(";")
        while sc.peek() not in (")", ""):
            pos = sc.pos
            m = sc.integer()
            k = 1
            if sc.peek() == "^":
                sc.expect("^")
                pos = sc.pos
                k = sc.integer()
                if k < 1:
                    raise ClassParseError("exponent must be positive", pos)
            if len(mults) + k > _MAX_POINTS:
                raise ClassParseError(f"more than {_MAX_POINTS} points", pos)
            mults.extend([m] * k)
            if sc.peek() == ",":
                sc.expect(",")
            elif sc.peek() != ")":
                raise ClassParseError("expected ',' or ')'", sc.pos)
    sc.expect(")")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ClassParseError("trailing characters after class", sc.pos)
    if head == "L3":
        return ThreefoldClass(degs[0], tuple(mults))
    if head == "LQ":
        return QuadricClass(degs[0], degs[1], tuple(mults))
    return PlaneClass(degs[0], tuple(mults))
