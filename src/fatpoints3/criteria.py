"""Inequality classifiers and machine-checkable reduction certificates.

The three checkers decide, from integer inequalities alone, whether a
threefold class L3(d; m_1..m_r) with base points on the distinguished
anticanonical curve is non-special (sufficient condition, tri-state),
base point free (iff), or very ample (iff).  ``build_certificate`` replays
the inductive argument behind each verdict as an explicit chain of
restriction and residual steps whose per-step predicates are verified
numerically, so a verdict can be audited step by step.  The three goals
share one walk (restrict to the quadric, check the plane model of the
trace, pass to the residual) and differ only in a few rules: how many steps
the walk takes, whether a step is clamped and checks its residual's
non-speciality, which class a failing step's terminal names, and how the
chain ends.

Point-count thresholds are implemented exactly as stated: the 4d bound is
enforced from r >= 8 for base-point-freeness but from r >= 9 for the other
two checks.  The sweep machinery probes this asymmetry empirically instead
of second-guessing it.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .divclass import (
    PlaneClass,
    ReductionLog,
    ThreefoldClass,
    _format_bumps,
    cremona_reduce,
    format_class,
    k_int,
    residual,
    restricted_plane_class,
    vdim3,
)

SCHEMA_VERSION = 1


class Mode(Enum):
    """Where the base points live.

    ON_ANTICANONICAL: general points on the anticanonical curve cut on a
    smooth quadric by a second quadric.  All three checkers apply with the
    stated iff/sufficiency strength, and the finite-field oracle verifies
    the same geometry.

    GENERAL_POSITION: general points of P^3.  The same inequalities remain
    sufficient but the 4d bounds are no longer necessary, so boolean
    verdicts are labeled sufficient-only.
    """

    ON_ANTICANONICAL = "on-anticanonical"
    GENERAL_POSITION = "general-position"


class Verdict(Enum):
    YES = "yes"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Condition:
    """One evaluated inequality, kept as evidence for reports."""

    name: str
    text: str
    holds: bool
    enforced: bool = True

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "text": self.text,
            "holds": self.holds,
            "enforced": self.enforced,
        }


def _norm(c: ThreefoldClass) -> ThreefoldClass:
    s = c.normalized()
    if len(s.mults) < len(c.mults):
        warnings.warn(
            "zero multiplicities dropped before applying point-count thresholds",
            stacklevel=3,
        )
    return s


def _padded_tops(mults: tuple[int, ...], k: int) -> list[int]:
    ms = list(mults) + [0] * k
    return ms[:k]


def _passes(holds: tuple[bool, bool, bool], tail_enforced: bool) -> bool:
    """A verdict from its three holds flags; the last is the point-count
    bound, which counts only where it is enforced."""
    return holds[0] and holds[1] and (holds[2] or not tail_enforced)


def _nonspecial_rule(s: ThreefoldClass) -> Optional[tuple[tuple[bool, bool, bool], bool]]:
    """Holds flags of the non-speciality hypothesis, c1 and c2 for a
    normalized class, and whether c2 is enforced; None when a multiplicity
    is negative, outside the test's domain."""
    d, ms = s.d, s.mults
    if ms and ms[-1] < 0:
        return None
    m1, m2, m3, m4 = _padded_tops(ms, 4)
    return (2 * d >= m1 + m2 + m3 + m4, d >= m1 + m2 - 1, 4 * d >= sum(ms)), len(ms) >= 9


def _nonspecial_verdict(s: ThreefoldClass) -> Verdict:
    """The verdict of ``check_nonspecial`` for a normalized class, without
    the condition texts."""
    rule = _nonspecial_rule(s)
    return Verdict.YES if rule is not None and _passes(*rule) else Verdict.UNKNOWN


def check_nonspecial(c: ThreefoldClass) -> tuple[Verdict, list[Condition]]:
    """Sufficient non-speciality test; Yes or Unknown, never a refusal.

    Yes when 2d >= m1+m2+m3+m4, d >= m1+m2-1, and (r <= 8 or 4d >= sum m_i).
    Anything else (including negative multiplicities, which the inequalities
    do not cover) is Unknown.
    """
    s = _norm(c)
    rule = _nonspecial_rule(s)
    if rule is None:
        return Verdict.UNKNOWN, [
            Condition("domain", "negative multiplicity outside the test's domain", False)
        ]
    (hyp, c1, c2), enforced = rule
    d, ms, r = s.d, s.mults, s.r
    m1, m2, m3, m4 = _padded_tops(ms, 4)
    total = sum(ms)
    conds = [
        Condition("hypothesis", f"2d={2 * d} >= m1+m2+m3+m4={m1 + m2 + m3 + m4}", hyp),
        Condition("c1", f"d={d} >= m1+m2-1={m1 + m2 - 1}", c1),
        Condition(
            "c2",
            f"4d={4 * d} >= sum(m)={total}" + ("" if enforced else f" [not enforced, r={r} <= 8]"),
            c2,
            enforced=enforced,
        ),
    ]
    return (Verdict.YES if _passes(*rule) else Verdict.UNKNOWN), conds


def _bpf_rule(d: int, mr: int, top2: int, total: int, r: int
              ) -> tuple[tuple[bool, bool, bool], bool]:
    """Holds flags of the freeness conditions c1..c3 for a normalized class
    with smallest multiplicity ``mr``, two largest summing to ``top2`` and
    sum ``total``, and whether c3 is enforced."""
    return (mr >= 0, d >= top2, 4 * d >= total + 2), r >= 8


def check_bpf(c: ThreefoldClass) -> tuple[bool, list[Condition]]:
    """Base-point-freeness test: m_r >= 0, d >= m1+m2, and 4d >= sum(m)+2
    once r >= 8.  An iff in on-anticanonical mode."""
    s = _norm(c)
    d, ms, r = s.d, s.mults, s.r
    m1, m2 = _padded_tops(ms, 2)
    mr = ms[-1] if ms else 0
    total = sum(ms)
    (c1, c2, c3), enforced = _bpf_rule(d, mr, m1 + m2, total, r)
    conds = [
        Condition("c1", f"m_r={mr} >= 0", c1),
        Condition("c2", f"d={d} >= m1+m2={m1 + m2}", c2),
        Condition(
            "c3",
            f"4d={4 * d} >= sum(m)+2={total + 2}" + ("" if enforced else f" [not enforced, r={r} < 8]"),
            c3,
            enforced=enforced,
        ),
    ]
    return _passes((c1, c2, c3), enforced), conds


def check_very_ample(c: ThreefoldClass) -> tuple[bool, list[Condition]]:
    """Very-ampleness test: m_r > 0, d >= m1+m2+1 (d >= m1+1 when r = 1,
    d >= 1 when r = 0), and 4d >= sum(m)+3 once r >= 9.  An iff in
    on-anticanonical mode."""
    s = _norm(c)
    d, ms, r = s.d, s.mults, s.r
    m1, m2 = _padded_tops(ms, 2)
    mr = ms[-1] if ms else 1
    total = sum(ms)
    if r == 0:
        deg_cond = Condition("c2", f"d={d} >= 1", d >= 1)
    elif r == 1:
        deg_cond = Condition("c2", f"d={d} >= m1+1={m1 + 1}", d >= m1 + 1)
    else:
        deg_cond = Condition("c2", f"d={d} >= m1+m2+1={m1 + m2 + 1}", d >= m1 + m2 + 1)
    conds = [
        Condition("c1", f"m_r={mr} > 0", mr > 0),
        deg_cond,
        Condition(
            "c3",
            f"4d={4 * d} >= sum(m)+3={total + 3}" + ("" if r >= 9 else f" [not enforced, r={r} < 9]"),
            4 * d >= total + 3,
            enforced=r >= 9,
        ),
    ]
    ok = all(cond.holds for cond in conds if cond.enforced)
    return ok, conds


# ---------------------------------------------------------------------------
# classification record


@dataclass(frozen=True)
class Classification:
    clazz: ThreefoldClass
    mode: Mode
    vdim: int
    edim: int
    nonspecial: Verdict
    nonspecial_conditions: tuple[Condition, ...]
    bpf: bool
    bpf_conditions: tuple[Condition, ...]
    very_ample: bool
    very_ample_conditions: tuple[Condition, ...]

    @property
    def sufficiency_only(self) -> bool:
        return self.mode is Mode.GENERAL_POSITION

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "class": format_class(self.clazz),
            "mode": self.mode.value,
            "vdim": self.vdim,
            "edim": self.edim,
            "nonspecial": self.nonspecial.value,
            "nonspecial_conditions": [c.to_dict() for c in self.nonspecial_conditions],
            "bpf": self.bpf,
            "bpf_conditions": [c.to_dict() for c in self.bpf_conditions],
            "very_ample": self.very_ample,
            "very_ample_conditions": [c.to_dict() for c in self.very_ample_conditions],
            "verdict_strength": "sufficient-only" if self.sufficiency_only else "iff (bpf, very_ample); sufficient (nonspecial)",
        }


def classify(c: ThreefoldClass, mode: Mode = Mode.ON_ANTICANONICAL) -> Classification:
    s = _norm(c)  # once, so a dropped zero is reported once, at the caller
    ns, ns_conds = check_nonspecial(s)
    bp, bp_conds = check_bpf(s)
    va, va_conds = check_very_ample(s)
    vdim = vdim3(c)
    return Classification(
        clazz=c,
        mode=mode,
        vdim=vdim,
        edim=max(-1, vdim),
        nonspecial=ns,
        nonspecial_conditions=tuple(ns_conds),
        bpf=bp,
        bpf_conditions=tuple(bp_conds),
        very_ample=va,
        very_ample_conditions=tuple(va_conds),
    )


# ---------------------------------------------------------------------------
# surface predicates


class Goal(Enum):
    NONSPECIAL = "nonspecial"
    BPF = "bpf"
    VERY_AMPLE = "very-ample"


# K-intersection thresholds for the plane-class predicates: a standard class
# is non-special when c.K <= 0, base point free when c.K <= -2, very ample
# when c.(-K) >= 3.
_K_THRESHOLD = {Goal.NONSPECIAL: 0, Goal.BPF: -2, Goal.VERY_AMPLE: -3}


@dataclass(frozen=True)
class SurfaceCheck:
    clazz: PlaneClass
    goal: Goal
    reduction: ReductionLog
    k: int
    threshold: int
    ok: bool

    def to_dict(self) -> dict:
        return {
            "class": format_class(self.clazz),
            "goal": self.goal.value,
            "standard": self.reduction.standard,
            "reduction_steps": len(self.reduction.steps),
            "reduced": format_class(self.reduction.result),
            "k_intersection": self.k,
            "k_threshold": self.threshold,
            "ok": self.ok,
        }


def _surface_check(c: PlaneClass, goal: Goal, log: ReductionLog, k: int) -> SurfaceCheck:
    """The predicate of ``goal`` on a plane class, given its reduction and
    K-intersection."""
    thr = _K_THRESHOLD[goal]
    return SurfaceCheck(c, goal, log, k, thr, log.standard and k <= thr)


def surface_predicate(c: PlaneClass, goal: Goal) -> SurfaceCheck:
    """Plane-class predicate: Cremona-reducible to standard form plus a
    K-intersection bound.  The pairing is computed on the input class, which
    is safe because the quadratic moves preserve it."""
    return _surface_check(c, goal, cremona_reduce(c), k_int(c))


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertStep:
    """One restriction/residual step of the induction.

    ``clazz`` is the (normalized) class the step starts from, ``plane`` the
    plane model of its trace on the quadric, ``surface`` the predicate that
    must hold for the trace, ``residual_raw`` the literal residual class and
    ``next_class`` its normalized form passed to the next step.
    ``ns_residual`` records the non-speciality sub-check of the residual
    where the induction needs it.  ``clamped`` marks the very-ampleness
    branch that zeroes the exhausted last multiplicity.
    """

    index: int
    clazz: ThreefoldClass
    plane: PlaneClass
    surface: SurfaceCheck
    residual_raw: ThreefoldClass
    next_class: ThreefoldClass
    ns_residual: Optional[Verdict] = None
    clamped: bool = False

    @property
    def passed(self) -> bool:
        if not self.surface.ok:
            return False
        if self.ns_residual is not None and self.ns_residual is not Verdict.YES:
            return False
        return True

    def to_dict(self) -> dict:
        out = {
            "index": self.index,
            "class": format_class(self.clazz),
            "restricted_plane": format_class(self.plane),
            "surface": self.surface.to_dict(),
            "residual": format_class(self.residual_raw),
            "next": format_class(self.next_class),
            "passed": self.passed,
            "clamped": self.clamped,
        }
        if self.ns_residual is not None:
            out["ns_residual"] = self.ns_residual.value
        return out


@dataclass(frozen=True)
class AugmentedCheck:
    """Top-level very-ampleness bookkeeping: the class with one multiplicity
    bumped must stay base point free.

    The record keeps the certificate's start class and the bumped index;
    ``clazz``, the bumped class, is built each time it is read, so the r
    checks of an r-point certificate hold no r copies of its multiplicities.
    """

    index: int
    start: ThreefoldClass
    bpf: bool

    @property
    def clazz(self) -> ThreefoldClass:
        return _bump(self.start, self.index)

    def to_dict(self) -> dict:
        return self._dict(format_class(self.clazz))

    def _dict(self, clazz: str) -> dict:
        return {"index": self.index, "class": clazz, "bpf": self.bpf}


@dataclass(frozen=True)
class Terminal:
    clazz: ThreefoldClass
    rule: str
    checks: tuple[Condition, ...] = ()
    ok: bool = True

    def to_dict(self) -> dict:
        return {
            "class": format_class(self.clazz),
            "rule": self.rule,
            "checks": [c.to_dict() for c in self.checks],
            "ok": self.ok,
        }


@dataclass(frozen=True)
class Certificate:
    goal: Goal
    clazz: ThreefoldClass
    steps: tuple[CertStep, ...]
    terminal: Terminal
    augmented: tuple[AugmentedCheck, ...] = ()
    failed_at: Optional[int] = None

    @property
    def ok(self) -> bool:
        return (
            self.failed_at is None
            and self.terminal.ok
            and all(s.passed for s in self.steps)
            and all(a.bpf for a in self.augmented)
        )

    def to_dict(self) -> dict:
        # the checks a certificate builds share one start; their bumped
        # classes are spliced from its caret runs, so the r checks of an
        # r-point start render in time linear in their bytes
        start = self.augmented[0].start if self.augmented else None
        bumped = _format_bumps(start) if start is not None else []
        return {
            "schema": SCHEMA_VERSION,
            "goal": self.goal.value,
            "class": format_class(self.clazz),
            "ok": self.ok,
            "failed_at": self.failed_at,
            "steps": [s.to_dict() for s in self.steps],
            "augmented_bpf_checks": [
                a._dict(bumped[a.index]) if a.start is start else a.to_dict()
                for a in self.augmented
            ],
            "terminal": self.terminal.to_dict(),
        }


_MAX_STEPS = 64


def _bump(c: ThreefoldClass, i: int) -> ThreefoldClass:
    ms = list(c.mults)
    ms[i] += 1
    return ThreefoldClass(c.d, tuple(ms))


def _augmented_checks(start: ThreefoldClass) -> tuple[AugmentedCheck, ...]:
    """Freeness of each class with one multiplicity of the normalized
    ``start`` bumped by one, in linear time.

    With every multiplicity positive, a bump keeps the point count, adds one
    to the sum and leaves the smallest multiplicity positive; its two
    largest sum to m1+m2+1 when it bumps m1 or a multiplicity equal to m2,
    and to m1+m2 otherwise.  So two evaluations of the freeness rule give
    every verdict.  A bump of a negative multiplicity can make it zero, which
    the general check drops with a warning; such a start takes that check
    for every bump.
    """
    ms = start.mults
    if not ms or ms[-1] <= 0:
        return tuple(AugmentedCheck(i, start, check_bpf(_bump(start, i))[0])
                     for i in range(len(ms)))
    m1, m2 = _padded_tops(ms, 2)
    total, r = sum(ms) + 1, len(ms)
    # the smallest bumped multiplicity is positive; ms[-1] stands for it
    up = _passes(*_bpf_rule(start.d, ms[-1], m1 + m2 + 1, total, r))
    flat = _passes(*_bpf_rule(start.d, ms[-1], m1 + m2, total, r))
    return tuple(AugmentedCheck(i, start, up if i == 0 or m == m2 else flat)
                 for i, m in enumerate(ms))


@functools.lru_cache(maxsize=256)
def _reduced_step(cur: ThreefoldClass) -> tuple[PlaneClass, ReductionLog, int,
                                                ThreefoldClass, ThreefoldClass, Verdict]:
    """The goal-free part of a step from ``cur``: the trace's plane model, its
    Cremona reduction and K-intersection, the residual, its normalized form
    and that form's non-speciality verdict.

    Cached, so the three goal chains of a class reduce each step class once.
    A clamped step starts from a class whose multiplicities are all at least
    1, so clamping changes no residual multiplicity and the key is the class
    alone.
    """
    plane = restricted_plane_class(cur)
    res_raw = residual(cur)
    nxt = res_raw.normalized()
    return plane, cremona_reduce(plane), k_int(plane), res_raw, nxt, _nonspecial_verdict(nxt)


def _make_step(idx: int, cur: ThreefoldClass, goal: Goal, clamped: bool,
               with_ns: bool) -> CertStep:
    plane, log, k, res_raw, nxt, ns_v = _reduced_step(cur)
    return CertStep(idx, cur, plane, _surface_check(plane, goal, log, k), res_raw, nxt,
                    ns_v if with_ns else None, clamped)


def _chain_length(goal: Goal, start: ThreefoldClass) -> int:
    """How many steps the chain of ``goal`` takes from the normalized
    ``start`` when no step fails.

    A step lowers every multiplicity by one and drops those that reach
    zero, so after k steps the positive ones are the m_i > k and, with no
    negative multiplicity, the smallest is m_r - k.  Non-speciality steps
    while nine stay positive, m_9 times; freeness m_r times; very ampleness
    through its clamped step, from a smallest multiplicity of 1, which is
    step m_r.  With a negative multiplicity very ampleness never clamps, so
    its chain runs past the budget.
    """
    ms = start.mults
    if goal is Goal.NONSPECIAL:
        return ms[8] if len(ms) >= 9 else 0
    if goal is Goal.BPF or ms[-1] > 0:
        return ms[-1]
    return _MAX_STEPS + 1


def _terminal(goal: Goal, cur: ThreefoldClass) -> Terminal:
    """The rule that closes a chain which ends at ``cur``, with its checks."""
    if goal is Goal.NONSPECIAL:
        return Terminal(cur, "at most 8 points: dimension count for general points of P^3")
    ok, conds = check_bpf(cur)
    if goal is Goal.BPF:
        return Terminal(cur, "smallest multiplicity exhausted: induction on fewer points",
                        tuple(conds), ok)
    # the clamped step also needs the residual to stay base point free
    va_ok, va_conds = check_very_ample(cur)
    return Terminal(cur, "smallest multiplicity exhausted: residual base point free, "
                    "induction on fewer points", tuple(conds) + tuple(va_conds), ok and va_ok)


def build_certificate(c: ThreefoldClass, goal: Goal) -> Certificate:
    """Replay the inductive argument for the requested property.

    Freeness with at most 8 points and very ampleness with at most 2 close
    at once, by their base cases.  Every other chain is one walk: restrict
    to the quadric, check the plane-model predicate of the trace, pass to
    the residual (d - 2; m - 1), and repeat for ``_chain_length`` steps;
    ``_terminal`` then closes it.  Freeness and very ampleness also check
    each step's residual for non-speciality; very ampleness clamps its
    last step, which exhausts the smallest multiplicity, and records up
    front that every class with one multiplicity bumped stays base point
    free (``_augmented_checks``).  A chain that needs more than ``_MAX_STEPS``
    steps proves nothing and fails at its last step.  If the verdict's
    inequalities fail, the chain is still built up to the first failing
    step, which is the useful diagnostic.
    """
    start = c.normalized()
    if goal is Goal.BPF and start.r <= 8:
        term = Terminal(start, "at most 8 points: base case for general points of P^3")
        return Certificate(goal, start, (), term)
    if goal is Goal.VERY_AMPLE and start.r <= 2:
        ok, conds = check_very_ample(start)
        term = Terminal(start, "at most 2 points: projection base case", tuple(conds), ok)
        return Certificate(goal, start, (), term)
    va = goal is Goal.VERY_AMPLE
    augmented = _augmented_checks(start) if va else ()
    n = _chain_length(goal, start)
    with_ns = goal is not Goal.NONSPECIAL
    steps: list[CertStep] = []
    cur = start
    while len(steps) < n:
        if len(steps) == _MAX_STEPS:
            term = Terminal(cur, "aborted: step budget exhausted", (), False)
            return Certificate(goal, start, tuple(steps), term, augmented, len(steps))
        step = _make_step(len(steps) + 1, cur, goal, va and len(steps) + 1 == n, with_ns)
        steps.append(step)
        if not step.passed:
            # very ampleness names the failing step's own class, the others its
            # residual; the golden hash pins both
            term = Terminal(cur if va else step.next_class, "aborted: failing step", (), False)
            return Certificate(goal, start, tuple(steps), term, augmented, step.index)
        cur = step.next_class
    return Certificate(goal, start, tuple(steps), _terminal(goal, cur), augmented)
