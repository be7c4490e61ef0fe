"""Tests for the combinatorial checkers and induction certificates."""

import hashlib
import itertools
import json
import warnings

import pytest

from fatpoints3 import criteria
from fatpoints3.criteria import (
    Goal,
    Mode,
    Verdict,
    build_certificate,
    check_bpf,
    check_nonspecial,
    check_very_ample,
    classify,
    surface_predicate,
)
from fatpoints3.divclass import PlaneClass, ThreefoldClass, format_class, k_int, parse_class, self_int


def ns(txt):
    return check_nonspecial(parse_class(txt))[0]


def bpf(txt):
    return check_bpf(parse_class(txt))[0]


def va(txt):
    return check_very_ample(parse_class(txt))[0]


def test_nonspecial_verdicts():
    assert ns("L3(3; 2, 1^5)") is Verdict.YES
    assert ns("L3(2; 1^9)") is Verdict.UNKNOWN       # 4d < sum m at nine points
    assert ns("L3(2; 1^7)") is Verdict.YES
    assert ns("L3(1; 1^4)") is Verdict.UNKNOWN       # hypothesis 2d fails
    assert ns("L3(4; 3, 3)") is Verdict.UNKNOWN      # d < m1+m2-1
    assert ns("L3(0)") is Verdict.YES
    assert ns("L3(-2)") is Verdict.UNKNOWN           # hypothesis needs 2d >= 0
    assert ns("L3(2; -1)") is Verdict.UNKNOWN        # out of domain


def test_bpf_verdicts():
    assert bpf("L3(2; 1, 1)")
    assert not bpf("L3(1; 1, 1)")
    assert not bpf("L3(2; 1^8)")      # eight points enforce the count bound
    assert bpf("L3(2; 1^7)")          # seven do not (as printed)
    assert bpf("L3(3; 1^10)")
    assert not bpf("L3(0; 1)")
    assert bpf("L3(0)")
    assert not bpf("L3(-1)")


def test_va_verdicts():
    assert va("L3(1)")
    assert not va("L3(0)")
    assert va("L3(2; 1)")
    assert not va("L3(1; 1)")
    assert va("L3(4; 2, 1^5)")
    assert not va("L3(3; 2, 1^5)")
    assert not va("L3(3; 2, 1^8)")    # nine points enforce the count bound
    assert va("L3(5; 3, 1^7)")        # eight do not (as printed)


def test_threshold_asymmetry_is_visible_in_conditions():
    # the point-count bound is enforced from eight points for freeness but
    # only from nine for very ampleness; the condition lists say which
    _, conds = check_bpf(parse_class("L3(2; 1^8)"))
    c3 = next(c for c in conds if c.name == "c3")
    assert c3.enforced and not c3.holds
    _, conds = check_very_ample(parse_class("L3(5; 3, 1^7)"))
    c3 = next(c for c in conds if c.name == "c3")
    assert not c3.enforced
    assert "not enforced" in c3.text


def test_zero_multiplicities_drop_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdict = check_bpf(ThreefoldClass(2, (1, 0, 1)))[0]
    assert verdict
    assert any("zero" in str(w.message).lower() for w in caught)


def test_implication_chain_exhaustive():
    # very ample implies base point free implies nonspecial, across the
    # whole printed-threshold domain
    for d in range(0, 11):
        for counts in itertools.product(range(15), repeat=4):
            if sum(counts) > 14:
                continue
            mults = (4,) * counts[3] + (3,) * counts[2] + (2,) * counts[1] + (1,) * counts[0]
            c = ThreefoldClass(d, mults)
            v, b, n = check_very_ample(c)[0], check_bpf(c)[0], check_nonspecial(c)[0]
            if v:
                assert b, c
            if b:
                assert n is Verdict.YES, c


def test_degree_monotonicity():
    for d in range(0, 9):
        for counts in itertools.product(range(7), repeat=3):
            if sum(counts) > 6:
                continue
            mults = (3,) * counts[2] + (2,) * counts[1] + (1,) * counts[0]
            c = ThreefoldClass(d, mults)
            c_up = ThreefoldClass(d + 1, mults)
            if check_bpf(c)[0]:
                assert check_bpf(c_up)[0]
            if check_very_ample(c)[0]:
                assert check_very_ample(c_up)[0]
            if check_nonspecial(c)[0] is Verdict.YES:
                assert check_nonspecial(c_up)[0] is Verdict.YES


def test_classification_shape_and_modes():
    c = parse_class("L3(4; 2, 1^5)")
    cl = classify(c)
    assert cl.mode is Mode.ON_ANTICANONICAL
    assert not cl.sufficiency_only
    assert cl.vdim == 35 - 4 - 5 - 1
    blob = json.dumps(cl.to_dict(), sort_keys=True)
    assert "iff" in blob
    gp = classify(c, mode=Mode.GENERAL_POSITION)
    assert gp.sufficiency_only
    assert gp.to_dict()["verdict_strength"] == "sufficient-only"
    # the combinatorial verdicts themselves do not change with the mode
    assert gp.bpf == cl.bpf and gp.very_ample == cl.very_ample


def test_surface_predicate_examples():
    assert not surface_predicate(PlaneClass(3, (1,) * 10), Goal.NONSPECIAL).ok
    assert surface_predicate(PlaneClass(4, (1,) * 10), Goal.NONSPECIAL).ok
    assert surface_predicate(PlaneClass(2, (1, 1, 1)), Goal.VERY_AMPLE).ok
    assert surface_predicate(PlaneClass(4, (1,) * 10), Goal.BPF).ok
    sc = surface_predicate(PlaneClass(3, (1,) * 10), Goal.NONSPECIAL)
    assert sc.k == 1 and sc.threshold == 0


# ---------------------------------------------------------------------------
# certificates


def test_ns_certificate_trivial_and_failing():
    ok = build_certificate(parse_class("L3(3; 2, 1^5)"), Goal.NONSPECIAL)
    assert ok.ok and len(ok.steps) == 0

    bad = build_certificate(parse_class("L3(2; 1^9)"), Goal.NONSPECIAL)
    assert not bad.ok
    assert bad.failed_at == 1
    assert bad.steps[0].surface.k == 1

    # a failing step's terminal names its residual, except for very
    # ampleness, which names the step's own class
    for goal, named in ((Goal.NONSPECIAL, "L3(0)"), (Goal.BPF, "L3(0)"),
                        (Goal.VERY_AMPLE, "L3(2; 1^9)")):
        bad = build_certificate(parse_class("L3(2; 1^9)"), goal)
        assert bad.failed_at == 1 and bad.terminal.rule == "aborted: failing step"
        assert format_class(bad.terminal.clazz) == named


def test_ns_certificate_reduces_point_count():
    cert = build_certificate(parse_class("L3(4; 1^11)"), Goal.NONSPECIAL)
    assert cert.ok
    assert len(cert.steps) >= 1
    assert all(s.passed for s in cert.steps)
    # the terminal class has at most eight points
    assert len([m for m in cert.terminal.clazz.mults if m > 0]) <= 8


def test_bpf_certificate_small_r_terminal():
    for txt in ("L3(2; 1^7)", "L3(2; 1^8)"):
        cert = build_certificate(parse_class(txt), Goal.BPF)
        assert cert.ok and len(cert.steps) == 0
        assert "8 points" in cert.terminal.rule
    # nine points take the walk
    cert = build_certificate(parse_class("L3(2; 1^9)"), Goal.BPF)
    assert len(cert.steps) == 1 and "8 points" not in cert.terminal.rule


def test_bpf_certificate_descends():
    cert = build_certificate(parse_class("L3(3; 1^10)"), Goal.BPF)
    assert cert.ok
    assert len(cert.steps) == 1
    step = cert.steps[0]
    assert step.ns_residual is Verdict.YES
    assert cert.terminal.clazz == ThreefoldClass(1, ())
    assert cert.terminal.ok


def test_va_certificate_examples():
    cert = build_certificate(parse_class("L3(5; 2^5, 1^7)"), Goal.VERY_AMPLE)
    assert cert.ok
    assert len(cert.steps) == 1 and cert.steps[0].clamped
    assert cert.augmented and all(a.bpf for a in cert.augmented)

    # three points exceed the 2-point projection base case, so the
    # induction peels the smallest multiplicity, three times
    cert = build_certificate(parse_class("L3(7; 3^3)"), Goal.VERY_AMPLE)
    assert cert.ok and len(cert.steps) == 3

    cert2 = build_certificate(parse_class("L3(4; 2, 1)"), Goal.VERY_AMPLE)
    assert cert2.ok and len(cert2.steps) == 0
    assert "2 points" in cert2.terminal.rule


def test_va_certificate_failure_is_diagnostic():
    # two points fall to the projection base case; its checks fail and the
    # certificate reports not-ok through the terminal record
    cert = build_certificate(parse_class("L3(1; 1, 1)"), Goal.VERY_AMPLE)
    assert not cert.ok
    assert not cert.terminal.ok
    assert any(not c.holds for c in cert.terminal.checks)


def test_certificates_serialize():
    for txt, goal in (
        ("L3(4; 1^11)", Goal.NONSPECIAL),
        ("L3(3; 1^10)", Goal.BPF),
        ("L3(5; 2^5, 1^7)", Goal.VERY_AMPLE),
        ("L3(2; 1^9)", Goal.NONSPECIAL),
    ):
        cert = build_certificate(parse_class(txt), goal)
        blob = json.dumps(cert.to_dict(), sort_keys=True)
        assert json.loads(blob)["schema"] == 1


# chains that need more than the 64-step budget (100 and 70 steps); a chain
# cut off there has proved nothing
OVER_BUDGET = [
    ("L3(1000; 100^9)", Goal.NONSPECIAL),
    ("L3(1000; 100^9)", Goal.BPF),
    ("L3(1000; 100^9)", Goal.VERY_AMPLE),
    ("L3(300; 70^3)", Goal.VERY_AMPLE),
]


@pytest.mark.parametrize("txt, goal", OVER_BUDGET)
def test_certificate_out_of_budget_fails(txt, goal):
    c = parse_class(txt)
    cert = build_certificate(c, goal)
    assert not cert.ok
    assert cert.failed_at == len(cert.steps) == 64
    assert all(step.passed for step in cert.steps)
    assert cert.terminal.rule == "aborted: step budget exhausted"
    assert not cert.terminal.ok
    # very ampleness keeps its bumped-class checks
    assert len(cert.augmented) == (c.r if goal is Goal.VERY_AMPLE else 0)


def test_certificate_of_exactly_the_budget_passes():
    assert build_certificate(parse_class("L3(1000; 64^9)"), Goal.BPF).ok
    cert = build_certificate(parse_class("L3(1000; 64^9)"), Goal.NONSPECIAL)
    assert cert.ok and len(cert.steps) == 64 and format_class(cert.terminal.clazz) == "L3(872)"
    cert = build_certificate(parse_class("L3(300; 64^3)"), Goal.VERY_AMPLE)
    assert cert.ok and len(cert.steps) == 64 and cert.steps[-1].clamped


def test_classify_warns_once_at_the_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cl = classify(parse_class("L3(3; 0, 1)"))
    assert [str(w.message) for w in caught] == [
        "zero multiplicities dropped before applying point-count thresholds"
    ]
    assert caught[0].filename == __file__
    assert cl.clazz == ThreefoldClass(3, (0, 1))
    assert (cl.nonspecial, cl.bpf, cl.very_ample) == (Verdict.YES, True, True)


def test_certificate_reductions_preserve_invariants():
    cert = build_certificate(parse_class("L3(4; 1^11)"), Goal.NONSPECIAL)
    for step in cert.steps:
        for move in step.surface.reduction.steps:
            assert self_int(move.before) == self_int(move.after)
            assert k_int(move.before) == k_int(move.after)


def test_certificates_cover_all_passing_classes_quick():
    # moderate sweep; the acceptance suite runs the full contract domain
    failures = []
    for d in range(0, 7):
        for counts in itertools.product(range(10), repeat=3):
            if sum(counts) > 9:
                continue
            mults = (3,) * counts[2] + (2,) * counts[1] + (1,) * counts[0]
            c = ThreefoldClass(d, mults)
            if check_nonspecial(c)[0] is Verdict.YES:
                if not build_certificate(c, Goal.NONSPECIAL).ok:
                    failures.append(("ns", c))
            if check_bpf(c)[0]:
                if not build_certificate(c, Goal.BPF).ok:
                    failures.append(("bpf", c))
            if check_very_ample(c)[0]:
                if not build_certificate(c, Goal.VERY_AMPLE).ok:
                    failures.append(("va", c))
    assert not failures, failures[:10]


# ---------------------------------------------------------------------------
# the certificates' verdict-only paths against the general checks


def assert_bumps_match(start, augmented):
    assert [a.index for a in augmented] == list(range(start.r))
    for a in augmented:
        bumped = criteria._bump(start, a.index)
        assert a.clazz == bumped, (start, a.index)
        assert a.bpf == check_bpf(bumped)[0], (start, a.index)


def assert_residuals_match(cert):
    for step in cert.steps:
        assert step.ns_residual == check_nonspecial(step.next_class)[0], (cert.clazz, step.index)


def test_bump_and_residual_verdicts_match_the_general_checks_on_a_box():
    # d <= 10, r <= 10, m <= 4: 11,011 classes, both point-count thresholds
    for d in range(0, 11):
        for r in range(0, 11):
            for mults in itertools.combinations_with_replacement(range(4, 0, -1), r):
                start = ThreefoldClass(d, mults)
                va_cert = build_certificate(start, Goal.VERY_AMPLE)
                if r >= 3:
                    assert_bumps_match(start, va_cert.augmented)
                assert_residuals_match(va_cert)
                assert_residuals_match(build_certificate(start, Goal.BPF))


BUMP_CASES = [
    "L3(3; 2)", "L3(2; 2)", "L3(0; 1)",          # one point
    "L3(5; 3, 1)", "L3(4; 3, 1)", "L3(4; 2, 2)",  # two
    "L3(5; 3, 2, 1)",                            # three: bumping m2 pairs it with m1
    "L3(6; 3, 3, 1)", "L3(7; 3, 3, 1)",           # ties m1 = m2
    "L3(6; 3, 2, 2, 1)", "L3(5; 3, 2, 2, 1)",     # ties m2 = m3
    "L3(5; 2, 2, 2)", "L3(4; 2, 2, 2)",           # the bumped m3 overtakes m1
    # 4d = sum(m) + 2, then + 3, at seven, eight and nine points: the bumped
    # sum bound is enforced from eight points
    "L3(4; 2^7)", "L3(4; 2^6, 1^2)", "L3(4; 2^5, 1^4)",
    "L3(4; 2^6, 1)", "L3(4; 2^5, 1^3)", "L3(4; 2^4, 1^5)",
]


@pytest.mark.parametrize("txt", BUMP_CASES)
def test_bump_verdicts_match_the_general_check(txt):
    start = parse_class(txt)
    assert_bumps_match(start, criteria._augmented_checks(start))
    if start.r >= 3:
        assert build_certificate(start, Goal.VERY_AMPLE).augmented == criteria._augmented_checks(start)


def test_bump_of_a_negative_multiplicity_takes_the_general_check():
    # bumping the -1 leaves a zero, which the general check drops with a warning
    start = parse_class("L3(6; 2, 1, 1, -1)")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        augmented = criteria._augmented_checks(start)
    assert [str(w.message) for w in caught] == [
        "zero multiplicities dropped before applying point-count thresholds"
    ]
    assert [a.bpf for a in augmented] == [False, False, False, True]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_bumps_match(start, augmented)
        assert_residuals_match(build_certificate(start, Goal.VERY_AMPLE))


@pytest.fixture
def fresh_steps():
    """An empty step cache before and after a test that patches internals,
    so no step reduced under a patch leaks into another test."""
    criteria._reduced_step.cache_clear()
    yield
    criteria._reduced_step.cache_clear()


def test_va_certificate_checks_freeness_a_fixed_number_of_times(monkeypatch, fresh_steps):
    # r one-bumped classes are decided by two evaluations of the freeness
    # rule; the general check runs once, on the terminal class
    calls = []
    check = criteria.check_bpf

    def counted(c):
        calls.append(None)
        return check(c)

    monkeypatch.setattr(criteria, "check_bpf", counted)
    counts = []
    for n in (10, 100, 1000):
        calls.clear()
        cert = build_certificate(ThreefoldClass(n, (2,) * 3 + (1,) * n), Goal.VERY_AMPLE)
        assert cert.ok and len(cert.augmented) == n + 3
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def golden_classes():
    # positive box: d <= 10, r <= 10, m in 1..3 (3,146 classes); then zeros
    # and negatives: d in -2..5, r <= 5, m in -2..3 (3,696 classes)
    for ds, rmax, ms in ((range(0, 11), 10, range(1, 4)), (range(-2, 6), 5, range(-2, 4))):
        for d in ds:
            for r in range(rmax + 1):
                for combo in itertools.combinations_with_replacement(ms, r):
                    yield ThreefoldClass(d, combo[::-1])


def test_checker_and_certificate_output_matches_the_golden_hash():
    # every classification and certificate dict, with every warning, pinned
    # byte for byte; a changed plane model, Cremona move, residual or
    # warning text changes the hash
    digest = hashlib.sha256()
    count = 0
    for c in golden_classes():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dicts = [classify(c).to_dict()] + [build_certificate(c, g).to_dict() for g in Goal]
        line = json.dumps([dicts, [str(w.message) for w in caught]], sort_keys=True) + "\n"
        digest.update(line.encode())
        count += 1
    assert count == 3146 + 3696
    assert digest.hexdigest() == "f730e20ef6e23f4f7dde34007087db2863bbae8e201d4ddf774c6414fc7636a9"


def test_three_goal_chains_reduce_each_step_class_once(monkeypatch, fresh_steps):
    # six steps over two classes; the very-ampleness chain's clamped last
    # step starts from the class the other two chains step from unclamped
    calls = []
    reduce = criteria.cremona_reduce

    def counted(c):
        calls.append(c)
        return reduce(c)

    monkeypatch.setattr(criteria, "cremona_reduce", counted)
    c = parse_class("L3(12; 2^12)")
    certs = [build_certificate(c, g) for g in Goal]
    steps = [step for cert in certs for step in cert.steps]
    assert len(steps) == 6 and [s.clamped for s in steps].count(True) == 1
    assert len(calls) == len({s.clazz for s in steps}) == 2
    assert all(cert.ok for cert in certs)


def test_step_cache_is_bounded():
    assert criteria._reduced_step.cache_info().maxsize == 256


def test_certificate_json_formats_a_fixed_number_of_classes(monkeypatch, fresh_steps):
    # the bumped classes of a very-ampleness certificate are spliced from the
    # start's caret runs, not formatted one by one
    calls = []
    fmt = criteria.format_class

    def counted(c):
        calls.append(None)
        return fmt(c)

    monkeypatch.setattr(criteria, "format_class", counted)
    counts = []
    for n in (10, 100, 1000):
        calls.clear()
        cert = build_certificate(ThreefoldClass(n, (2,) * 3 + (1,) * n), Goal.VERY_AMPLE)
        checks = cert.to_dict()["augmented_bpf_checks"]
        assert len(checks) == n + 3
        assert checks[3]["class"] == f"L3({n}; 2^4, 1^{n - 1})"
        counts.append(len(calls))
    # the start, its one step's six classes and the terminal, at any n
    assert counts == [8, 8, 8]


def test_certificate_dict_renders_bumps_like_the_single_check():
    # the bump of the -1 leaves a zero, which the freeness check drops
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cert = build_certificate(parse_class("L3(9; 3, 2^4, 1^6, -1)"), Goal.VERY_AMPLE)
    assert len(cert.augmented) == 12
    assert cert.to_dict()["augmented_bpf_checks"] == [a.to_dict() for a in cert.augmented]
