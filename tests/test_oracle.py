"""Tests for the finite-field verification engine."""

import dataclasses
import functools
import gc
import itertools
import json
import math
import pathlib
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from fatpoints3 import cli, gfp, oracle
from fatpoints3.divclass import ThreefoldClass, parse_class
from test_properties import segre_point

P0 = oracle.PRIMES[0]


def geom0():
    return oracle.get_geometry(P0, 0)


def jacobian(g, pt):
    """The curve's 2x4 Jacobian at pt: the gradients of xw - yz and of the
    second quadric, from their coefficients over ``_QUAD_PAIRS``."""
    p = g.prime
    rows = []
    for q in (oracle._qbar_coeffs(p), g.qprime):
        grad = [0, 0, 0, 0]
        for (i, j), c in zip(oracle._QUAD_PAIRS, q):
            grad[i] += c * pt[j]
            grad[j] += c * pt[i]
        rows.append([x % p for x in grad])
    return np.array(rows, dtype=np.int64)


def test_geometry_is_well_formed():
    g = geom0()
    assert len(g.points) == oracle.DEFAULT_POINTS
    assert len(set(g.points)) == len(g.points)
    qbar = oracle._qbar_coeffs(P0)
    for pt in g.points:
        assert oracle._quad_eval(qbar, pt, P0) == 0
        assert oracle._quad_eval(g.qprime, pt, P0) == 0
        assert gfp.rank_mod(jacobian(g, pt), P0) == 2
    assert oracle._squarefree_binary_form(g.delta, 4, P0)


def test_geometry_determinism():
    a = oracle.build_geometry(P0, 3, 6)
    b = oracle.build_geometry(P0, 3, 6)
    assert a.qprime == b.qprime
    assert a.points == b.points


def test_segre_restriction_identity():
    g = geom0()
    rng = random.Random(77)
    for _ in range(100):
        s, t, u, v = (rng.randrange(P0) for _ in range(4))
        z = (s * u % P0, s * v % P0, t * u % P0, t * v % P0)
        lhs = oracle._quad_eval(g.qprime, z, P0)
        # each form is ascending in s: f0 t^2 + f1 s t + f2 s^2
        av, bv, cv = (
            sum(f[i] * pow(s, i, P0) * pow(t, 2 - i, P0) for i in range(3)) % P0 for f in g.forms
        )
        rhs = (av * u % P0 * u + bv * u % P0 * v + cv * v % P0 * v) % P0
        assert lhs == rhs


def test_monomial_count_and_order():
    for d in range(7):
        exps = oracle.monomial_exponents(d)
        assert exps.shape[0] == (d + 1) * (d + 2) * (d + 3) // 6
        tuples = [tuple(row) for row in exps]
        assert tuples == sorted(tuples, reverse=True)


FROZEN_DIMS = [
    # class, dim, h1
    ("L3(1; 1, 1)", 1, 0),
    ("L3(2; 1, 1)", 7, 0),
    ("L3(3; 2, 1^5)", 10, 0),
    ("L3(2; 1^7)", 2, 0),
    ("L3(2; 1^9)", 1, 1),      # special: quadrics through nine curve points
    ("L3(0)", 0, 0),
    ("L3(5; 2^5, 1^7)", 28, 0),
    ("L3(8; 3^12)", 48, 4),    # special: triple curve splits off twice
    ("L3(4; 3, 3)", 15, 1),    # special: double line between the triple points
]


@pytest.mark.parametrize("txt,dim,h1", FROZEN_DIMS)
def test_frozen_dimensions(txt, dim, h1):
    sysd = oracle.solve_system(geom0(), parse_class(txt))
    assert (sysd.dim, sysd.h1) == (dim, h1)


def test_frozen_dimensions_other_primes():
    for prime in oracle.PRIMES[1:]:
        g = oracle.get_geometry(prime, 0)
        for txt, dim, h1 in FROZEN_DIMS[:5]:
            sysd = oracle.solve_system(g, parse_class(txt))
            assert (sysd.dim, sysd.h1) == (dim, h1), (prime, txt)


def test_dim_never_below_expected():
    g = geom0()
    rng = random.Random(4242)
    for _ in range(60):
        d = rng.randrange(0, 7)
        r = rng.randrange(0, 9)
        mults = tuple(sorted((rng.randrange(1, 4) for _ in range(r)), reverse=True))
        sysd = oracle.solve_system(g, ThreefoldClass(d, mults))
        assert sysd.dim >= sysd.edim
        assert sysd.h1 >= 0
        assert sysd.h0 == sysd.n_cols - sysd.rank


def test_kernel_satisfies_conditions():
    g = geom0()
    for txt in ("L3(3; 2, 1^5)", "L3(4; 2^4)", "L3(2; 1^9)"):
        c = parse_class(txt)
        mat = oracle.conditions_matrix(g, c)
        sysd = oracle.solve_system(g, c)
        if sysd.kernel.size:
            prod = gfp.matmul_mod(mat, sysd.kernel.T, P0)
            assert not prod.any()


def test_validation_errors():
    g = geom0()
    with pytest.raises(ValueError):
        oracle.solve_system(g, ThreefoldClass(2, (1, -1)))
    with pytest.raises(ValueError):
        oracle.conditions_matrix(g, ThreefoldClass(oracle.MAX_DEGREE + 1, ()))
    with pytest.raises(ValueError):
        oracle.conditions_matrix(g, ThreefoldClass(3, (oracle.MAX_MULT + 1,)))
    with pytest.raises(ValueError):
        oracle.build_geometry(15, 0)
    with pytest.raises(ValueError):
        oracle.build_geometry(97, 0)  # below the supported field size
    g = oracle.get_geometry(65537, 0)
    with pytest.raises(ValueError, match="fewer sampled points"):
        oracle.conditions_matrix(g, parse_class("L3(2; 1^17)"))
    with pytest.raises(ValueError, match="field characteristic too small"):
        oracle.conditions_matrix(dataclasses.replace(g, prime=5), parse_class("L3(5)"))
    # below degree 0 the system is empty, and the class is still checked
    with pytest.raises(ValueError, match="negative multiplicity"):
        oracle.solve_system(g, ThreefoldClass(-1, (-1,)))
    with pytest.raises(ValueError, match="degree below -3"):
        oracle.solve_system(g, ThreefoldClass(-4, ()))


def test_condition_matrices_past_the_entry_bound_are_refused(monkeypatch):
    # 2,000 quintuple points in degree 16 make 70,000 rows of 969 monomials,
    # 67,830,000 entries on one geometry: past 2^26 for one layer, and for a
    # battery's five seeds of one prime before any geometry is built
    c = parse_class("L3(16; 5^2000)")
    with pytest.raises(ValueError, match=r"at most 67108864 entries, got 67830000$"):
        oracle.solve_system(geom0(), c)

    def build(*args):
        raise AssertionError("a geometry was built")

    monkeypatch.setattr(oracle, "build_geometry", build)
    with pytest.raises(ValueError, match=r"at most 67108864 entries, got 339150000$"):
        oracle.run_battery(c, probes=0)


def test_build_geometry_rejects_a_negative_point_count():
    with pytest.raises(ValueError, match=r"^npoints must be nonnegative, got -1$"):
        oracle.build_geometry(oracle.PRIMES[0], 0, -1)
    assert oracle.build_geometry(oracle.PRIMES[0], 0, 0).points == ()


def no_work(*args):
    raise AssertionError("work started")


def test_probe_counts_above_max_probes_are_refused_before_any_work(monkeypatch):
    c, big, g = parse_class("L3(5; 2^5, 1^7)"), oracle.MAX_PROBES + 1, geom0()
    for name in ("get_geometry", "_solve", "solve_system"):
        monkeypatch.setattr(oracle, name, no_work)
    for bad, refused in (
        (big, rf"^probes must be at most {oracle.MAX_PROBES} per category, got {big}$"),
        (-4, r"^probes must not be negative, got -4$"),
    ):
        with pytest.raises(ValueError, match=refused):
            oracle.run_battery(c, probes=bad)
        for probe in (oracle.probe_base_locus, oracle.probe_separation):
            with pytest.raises(ValueError, match=refused):
                probe(g, c, bad)
    for probe in (oracle.probe_base_locus, oracle.probe_separation):
        # MAX_PROBES itself passes the check and goes on to the solve
        with pytest.raises(AssertionError, match="work started"):
            probe(g, c, oracle.MAX_PROBES)
    with pytest.raises(AssertionError, match="work started"):
        oracle.run_battery(c, probes=oracle.MAX_PROBES)
    # as many geometries as seeds times primes, refused before the first
    many = rf"^a battery has at most {oracle.MAX_GEOMETRIES} geometries, got 3000000000$"
    with pytest.raises(ValueError, match=many):
        oracle.run_battery(c, seeds=range(10**9))
    with pytest.raises(AssertionError, match="work started"):
        oracle.run_battery(c, seeds=range(oracle.MAX_GEOMETRIES // len(oracle.PRIMES)))


def test_negative_degree_system():
    sysd = oracle.solve_system(geom0(), ThreefoldClass(-1, (1,)))
    assert sysd.h0 == 0 and sysd.dim == -1 and sysd.h1 >= 0


# ---------------------------------------------------------------------------
# base-locus probes


def base(txt, nprobes=16):
    return oracle.probe_base_locus(geom0(), parse_class(txt), nprobes)


def test_base_probe_line_component():
    r = base("L3(1; 1, 1)")
    assert r.fired and r.witnesses[0].kind == "on-line"


def test_base_probe_free_class_silent():
    for txt in ("L3(2; 1, 1)", "L3(3; 1^9)", "L3(0)", "L3(4; 2, 1^6)"):
        r = base(txt)
        assert not r.fired, txt


def test_base_probe_curve_component():
    r = base("L3(1; 1^5)")
    assert r.fired  # degree at most 0 on the curve: empty or curve-based
    r = base("L3(2; 1^8)")
    assert r.fired and r.witnesses[0].kind == "on-curve"


def test_base_probe_exact_hunt_forced_point():
    # curve degree 1: a single forced base point no random probe can hit
    r = base("L3(3; 1^11)")
    assert r.fired and r.witnesses[0].kind == "isolated-on-curve"
    r = base("L3(4; 2^7, 1)")
    assert r.fired and r.witnesses[0].kind == "isolated-on-curve"


def test_base_probe_eighth_point():
    # the classical partner point: quadrics through seven general curve
    # points all pass through one more
    r = base("L3(2; 1^7)")
    assert r.fired and r.witnesses[0].kind == "isolated-on-curve"
    z = tuple(r.witnesses[0].data["point"])
    sysd = oracle.solve_system(geom0(), parse_class("L3(2; 1^7)"))
    assert not oracle._form_values(sysd.kernel, [z], 2, P0).any()
    assert z not in geom0().points[:7]


def test_probes_with_no_candidates_stay_quiet():
    # zero probes per category: nothing to evaluate, nothing fires
    b = base("L3(2; 1^3)", nprobes=0)
    assert not b.fired and b.checked == {"generic": 0}
    s = sep("L3(2; 1^3)", nprobes=0)
    assert not s.fired and set(s.checked.values()) == {0}


# the checked counts at zero probes: with one assigned point, each of the
# four random lines still draws max(1, 0 // 4) points, and one line draws
# max(1, 0 // 2) pairs; with none, the line categories leave no count
ZERO_PROBES_CHECKED = {
    "L3(4; 2, 1^5)": ({"generic": 0}, {"pair-on-line": 0}),
    "L3(3; 2)": ({"generic": 0, "on-line": 4}, {"pair-on-line": 1}),
    "L3(3)": ({"generic": 0}, {}),
}


@pytest.mark.parametrize("txt", ZERO_PROBES_CHECKED)
def test_zero_probes_pin_both_reports(txt):
    base_checked, line = ZERO_PROBES_CHECKED[txt]
    sep_checked = dict.fromkeys(("pair-generic", "pair-mixed", "pair-on-curve",
                                 "tangent-generic", "tangent-on-curve"), 0)
    quiet = {"fired": False, "witnesses": [], "notes": []}
    assert base(txt, nprobes=0).to_dict() == dict(quiet, target="base-locus", checked=base_checked)
    assert sep(txt, nprobes=0).to_dict() == dict(quiet, target="separation",
                                                 checked=dict(sorted({**sep_checked, **line}.items())))


def test_probes_refuse_a_system_of_another_class_or_geometry(monkeypatch):
    # L3(4; 3, 3) fires on geom0; a system solved on another geometry, of
    # another prime or seed, or for another class of its degree or of
    # another degree, is refused before any stream is seeded
    c = parse_class("L3(4; 3, 3)")
    assert base("L3(4; 3, 3)").fired
    others = [oracle.solve_system(oracle.get_geometry(oracle.PRIMES[1], 0), c),
              oracle.solve_system(oracle.get_geometry(P0, 1), c),
              oracle.solve_system(geom0(), parse_class("L3(4; 3)")),
              oracle.solve_system(geom0(), parse_class("L3(5; 3, 3)"))]
    seeded = []
    monkeypatch.setattr(oracle, "derive_seed", lambda *parts: seeded.append(parts))
    for sysd in others:
        for probe in (oracle.probe_base_locus, oracle.probe_separation):
            with pytest.raises(ValueError, match="^the system was solved for another class or geometry$"):
                probe(geom0(), c, 16, sysd)
    assert seeded == []


QUIET_NO_POINT = {
    "target": "base-locus", "fired": False, "witnesses": [],
    "checked": {"generic": 16, "on-curve": 16}, "notes": [],
}
QUIET_SEP_NO_POINT = {
    "target": "separation", "fired": False, "witnesses": [],
    "checked": {"pair-generic": 16, "pair-mixed": 16, "pair-on-curve": 16,
                "tangent-generic": 16, "tangent-on-curve": 16},
    "notes": [],
}


@pytest.mark.parametrize("txt", ["L3(2)", "L3(3)"])
def test_probes_without_assigned_points(txt):
    # no assigned point: the line categories do not run and leave no count
    assert base(txt).to_dict() == QUIET_NO_POINT
    assert sep(txt).to_dict() == QUIET_SEP_NO_POINT


PROBE_STREAMS = [
    # derive_seed label, extra parts after (prime, seed, class): the random
    # categories also take the probe count, the hunts do not
    ("probe-line", (0,)), ("probe-curve", (0,)), ("probe-generic", (0,)),
    ("probe-hunt", ()),
    ("sep-line", (0,)), ("sep-pair-on-curve", (0,)), ("sep-pair-generic", (0,)),
    ("sep-pair-mixed", (0,)), ("sep-tangent", (0,)), ("sep-tangent-curve", (0,)),
    ("sep-hunt-base", ()), ("sep-pair", ()),
    ("probe-line", (0,)), ("probe-curve", (0,)), ("probe-generic", (0,)),
    ("sep-line", (0,)), ("sep-pair-on-curve", (0,)), ("sep-pair-generic", (0,)),
    ("sep-pair-mixed", (0,)), ("sep-tangent", (0,)), ("sep-tangent-curve", (0,)),
    ("sep-conjugate", ()),
]


def test_probe_stream_labels(monkeypatch):
    # the labels and their order fix every draw; with no probes every
    # category still seeds its stream and the curve-degree hunts run
    g = geom0()
    seen = []
    real = oracle.derive_seed

    def spy(*parts):
        seen.append((parts[0], parts[4:]))
        return real(*parts)

    monkeypatch.setattr(oracle, "derive_seed", spy)
    for txt in ("L3(3; 1^11)", "L3(3; 1^10)"):  # curve degree 1, then 2
        base(txt, nprobes=0)
        sep(txt, nprobes=0)
    assert seen == PROBE_STREAMS


def test_base_probe_empty_system():
    r = base("L3(0; 1)")
    assert r.fired and r.witnesses[0].kind == "empty-system"


def test_hunt_no_false_positive_on_free_class():
    g = geom0()
    for txt in ("L3(3; 1^9)", "L3(4; 2, 1^6)"):
        c = parse_class(txt)
        sysd = oracle.solve_system(g, c)
        rng = random.Random(5)
        found = oracle.hunt_common_zeros(
            g, sysd.kernel, c.d, list(g.points[: c.r]), frozenset(), rng
        )
        assert found == [], txt


def test_hunt_returns_nothing_on_its_three_early_exits(monkeypatch):
    g = geom0()
    real = oracle._form_values
    seen = []

    def spy(forms, points, d, p):
        seen.append(points)
        return real(forms, points, d, p)

    def unreachable(*args):
        raise AssertionError("reached past the exit")

    monkeypatch.setattr(oracle, "_form_values", spy)
    c = parse_class("L3(3; 1^11)")  # curve degree 1: one forced base point
    kernel, assigned = oracle.solve_system(g, c).kernel, list(g.points[:11])
    found = oracle.hunt_common_zeros(g, kernel, 3, assigned, frozenset(), random.Random(5))
    assert len(found) == 1 and found[0] in seen[0]
    monkeypatch.setattr(oracle, "_form_values", unreachable)
    # every candidate excluded: no form is evaluated
    assert oracle.hunt_common_zeros(g, kernel, 3, assigned, frozenset(seen[0]),
                                    random.Random(5)) == []
    monkeypatch.setattr(gfp, "rational_roots", unreachable)
    # no sections, or degree 0: no resultant is formed
    assert oracle.hunt_common_zeros(g, kernel[:0], 3, assigned, frozenset(), random.Random(5)) == []
    assert oracle.hunt_common_zeros(g, kernel[:, :1], 0, [], frozenset(), random.Random(5)) == []
    # the quadrics through eight curve points are the pencil of the curve
    # itself: every combination vanishes on the whole curve, both
    # resultants are zero and no fibre is singled out
    c = parse_class("L3(2; 1^8)")
    kernel = oracle.solve_system(g, c).kernel
    assert kernel.shape[0] == 2
    assert oracle.hunt_common_zeros(g, kernel, 2, list(g.points[:8]), frozenset(),
                                    random.Random(5)) == []


# ---------------------------------------------------------------------------
# separation probes


def sep(txt, nprobes=16):
    return oracle.probe_separation(geom0(), parse_class(txt), nprobes)


def test_sep_probe_line_pairs():
    r = sep("L3(3; 2, 2)")
    assert r.fired and r.witnesses[0].kind == "pair-on-line"
    r = sep("L3(1; 1)")
    assert r.fired and r.witnesses[0].kind == "pair-on-line"


def test_sep_probe_embeddings_silent():
    for txt in ("L3(1)", "L3(2; 1)", "L3(4; 1^12)", "L3(3; 1^8)"):
        r = sep(txt)
        assert not r.fired, txt


def test_sep_probe_small_system():
    r = sep("L3(0)")
    assert r.fired and r.witnesses[0].kind == "insufficient-sections"


def test_sep_probe_conjugate_pair():
    # curve degree 2: the forms identify curve points in pairs
    r = sep("L3(3; 1^10)")
    assert r.fired and r.witnesses[0].kind == "conjugate-pair"
    z1, z2 = (tuple(z) for z in r.witnesses[0].data["pair"])
    sysd = oracle.solve_system(geom0(), parse_class("L3(3; 1^10)"))
    e1, e2 = oracle._form_values(sysd.kernel, [z1, z2], 3, P0)
    assert oracle._rank_le_1(e1[None], e2[None], P0)[0]
    assert e1.any() and e2.any()  # a genuine pair, not a hidden base point


def test_sep_probe_degree_one_collapses_curve_pairs():
    # curve degree 1: the restriction image is a single form up to scale,
    # so already a random pair of curve points fails to separate
    r = sep("L3(3; 1^11)")
    assert r.fired
    assert r.witnesses[0].kind in ("pair-on-curve", "unseparated-base-point")


def test_sep_probe_curve_in_base_locus():
    r = sep("L3(2; 1^9)")
    assert r.fired  # curve degree -1: curve points give zero rows


# ---------------------------------------------------------------------------
# the hunts' exits, at zero probes, where only a hunt can fire


def test_a_curve_in_the_base_locus_leaves_the_degree_one_hunts_quiet():
    # L3(4; 3^3, 1^6), curve degree 1: every curve point is a base point,
    # so both resultants vanish and the hunts find nothing
    g, c = geom0(), parse_class("L3(4; 3^3, 1^6)")
    kernel = oracle.solve_system(g, c).kernel
    assert not oracle._form_values(kernel, list(g.points[c.r:]), 4, P0).any()
    b, s = base("L3(4; 3^3, 1^6)", nprobes=0), sep("L3(4; 3^3, 1^6)", nprobes=0)
    assert not b.fired and b.checked["isolated-hunt"] == 1
    assert b.notes == ("exact hunt found no unassigned curve point",)
    assert not s.fired and s.checked["base-point-hunt"] == 1
    assert s.notes == ("degree-1 hunt found no base point",)


def test_a_restriction_of_rank_one_ends_the_conjugate_hunt_after_four_points():
    # L3(4; 3^3, 1^5), curve degree 2: the forms restrict to multiples of
    # one form, so the forms through a curve point vanish on the whole
    # curve and single out no partner
    s = sep("L3(4; 3^3, 1^5)", nprobes=0)
    assert not s.fired and s.checked["conjugate-hunt"] == 4
    assert s.notes == ("degree-2 hunt found no unseparated pair",)


def test_the_conjugate_hunt_pairs_a_base_point_it_draws():
    # L3(5; 4^3, 1^6), curve degree 2 with the curve in the base locus: the
    # first curve point drawn has a zero row
    s = sep("L3(5; 4^3, 1^6)", nprobes=0)
    assert s.fired and s.checked["conjugate-hunt"] == 1
    assert s.witnesses[0].kind == "unseparated-base-point"
    kernel = oracle.solve_system(geom0(), parse_class("L3(5; 4^3, 1^6)")).kernel
    z1 = tuple(s.witnesses[0].data["pair"][0])
    assert not oracle._form_values(kernel, [z1], 5, P0).any()


def test_the_conjugate_hunt_skips_failed_and_assigned_draws(monkeypatch):
    # a failed curve draw and a draw of an assigned point, put in front of
    # the stream's draws, are not tried: the hunt then pairs the stream's
    # first draw as it did without them
    fired = sep("L3(3; 1^10)", nprobes=0)
    assert fired.fired and fired.checked["conjugate-hunt"] == 1
    real = oracle._Words.curve
    skipped = [(np.zeros((1, 4), dtype=np.int64), np.array([False])),
               (np.array([geom0().points[0]], dtype=np.int64), np.array([True]))]

    def curve(words, count):
        return skipped.pop(0) if count == 1 and skipped else real(words, count)

    monkeypatch.setattr(oracle._Words, "curve", curve)
    assert sep("L3(3; 1^10)", nprobes=0).to_dict() == fired.to_dict()
    assert skipped == []


@pytest.mark.parametrize("txt", ("L3(3; 1^11)", "L3(3; 1^10)", "L3(5; 4^3, 1^6)"))
def test_a_hunted_pair_the_forms_separate_is_an_invariant_breach(monkeypatch, capsys, txt):
    # each hunt's pair (a base point with a random point, a conjugate pair,
    # a base point the conjugate hunt drew) is checked once more; the
    # random categories keep their own unseparated test from the table
    monkeypatch.setattr(oracle._Stack, "unseparated",
                        lambda stack, pairs, at: np.zeros(len(pairs), dtype=bool))
    with pytest.raises(AssertionError, match=r"^L3\(.*\): the forms separate a hunted "):
        sep(txt, nprobes=0)
    if txt == "L3(3; 1^10)":  # no random category fires first at 16 probes
        code = cli.main(["oracle", txt, "--trials", "1", "--probes", "16"])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("internal invariant breach: L3(3; 1^10): ")


# ---------------------------------------------------------------------------
# batteries


def test_battery_determinism_and_shape():
    c = parse_class("L3(4; 2, 1^5)")
    r1 = oracle.run_battery(c, probes=8)
    r2 = oracle.run_battery(c, probes=8)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)
    assert len(r1.trials) == len(oracle.PRIMES) * len(oracle.DEFAULT_SEEDS)
    assert r1.dim_min == r1.dim_max == 25
    assert r1.matches_expected
    assert not r1.base.fired and not r1.separation.fired


def test_battery_flags_special_class():
    r = oracle.run_battery(parse_class("L3(2; 1^9)"))
    assert not r.matches_expected
    assert all(t.dim == 1 and t.h1 == 1 for t in r.trials)


def test_battery_rejects_negative_multiplicity():
    with pytest.raises(ValueError):
        oracle.run_battery(ThreefoldClass(2, (1, -2)))


def test_battery_is_independent_of_solve_order():
    # each geometry keeps the kernel of the last class solved on it; the
    # reports must not depend on which class that was, or on whether the
    # geometry was warm at all
    golden = pathlib.Path(__file__).parent / "data" / "golden_oracle.json"
    classes = sorted(json.loads(golden.read_text(encoding="utf-8")))

    def report(txt):
        r = oracle.run_battery(parse_class(txt), seeds=(0, 1), probes=16)
        return json.dumps(r.to_dict(), sort_keys=True)

    forward = {txt: report(txt) for txt in classes}
    backward = {txt: report(txt) for txt in reversed(classes)}
    cold = {}
    for txt in classes:
        oracle.get_geometry.cache_clear()
        cold[txt] = report(txt)
    assert forward == backward == cold


# at the bounds: MAX_DEGREE 16 and MAX_MULT 5 on more than 16 points, and
# the two hunts with 18 and 19 assigned fibers; frozen from the reports
FROZEN_BOUNDS = [
    # class, dim per prime, base kind, separation kind (None: quiet)
    ("L3(16; 5^2, 1^18)", [880] * 3, None, None),
    ("L3(5; 1^19)", [36] * 3, "isolated-on-curve", "pair-on-curve"),
    ("L3(5; 1^18)", [37] * 3, None, "conjugate-pair"),
]


def test_battery_at_the_degree_and_multiplicity_bounds():
    for txt, dims, base_kind, sep_kind in FROZEN_BOUNDS:
        c = parse_class(txt)
        r = oracle.run_battery(c, seeds=(0,), probes=4)
        assert [t.dim for t in r.trials] == dims, txt
        for t in r.trials:
            geom = oracle.get_geometry(t.prime, t.seed, c.r)
            mat = oracle.conditions_matrix(geom, c)
            _, pivots = gfp.rref_mod(mat, t.prime)
            assert t.dim == mat.shape[1] - len(pivots) - 1, txt
        for summary, kind in ((r.base, base_kind), (r.separation, sep_kind)):
            assert summary.fired == (kind is not None), txt
            if kind is None:
                continue
            witness = summary.first.witnesses[0]
            assert witness.kind == kind, txt
            prime, seed, _ = summary.trials[-1]
            geom = oracle.get_geometry(prime, seed, c.r)
            kernel = gfp.kernel_mod(oracle.conditions_matrix(geom, c), prime)
            if "pair" in witness.data:  # a pair no form separates
                zs = [tuple(z) for z in witness.data["pair"]]
                vals = oracle._form_values(kernel, zs, c.d, prime)
                assert gfp.rank_mod(vals, prime) <= 1, txt
            else:  # a base point: off the assigned set, where every form vanishes
                z = tuple(witness.data["point"])
                assert z not in geom.points[: c.r], txt
                assert not oracle._form_values(kernel, [z], c.d, prime).any(), txt


NEGATIVE = "L3(2; 1, -1)"


@pytest.mark.parametrize("entry", [
    "conditions_matrix", "solve_system", "probe_base_locus", "probe_separation",
    "run_battery", "cli",
])
def test_negative_multiplicity_is_rejected(entry, capsys):
    # one check where the class reaches the exact kernels; every entry
    # point raises through it, and the CLI reports a usage error
    if entry == "cli":
        assert cli.main(["oracle", NEGATIVE]) == 1
        assert "negative multiplicity" in capsys.readouterr().err
        return
    args = (parse_class(NEGATIVE),)
    if entry != "run_battery":
        args = (geom0(),) + args
    with pytest.raises(ValueError, match="negative multiplicity"):
        getattr(oracle, entry)(*args)


def test_derive_seed_stability():
    assert oracle.derive_seed("a", 1) == oracle.derive_seed("a", 1)
    assert oracle.derive_seed("a", 1) != oracle.derive_seed("a", 2)
    assert oracle.derive_seed("a", 1) != oracle.derive_seed("b", 1)


# ---------------------------------------------------------------------------
# a prime congruent to 1 mod 4: square roots go through Tonelli-Shanks

TS_PRIME = 65537
FROZEN_TS = [
    # class, (dim, h1) per seed, base kind, separation kind (None: quiet)
    ("L3(1; 1)", [(2, 0), (2, 0)], None, "pair-on-line"),
    ("L3(2; 1^7)", [(2, 0), (2, 0)], "isolated-on-curve", "pair-on-line"),
    ("L3(3; 1^10)", [(9, 0), (9, 0)], None, "conjugate-pair"),
    ("L3(4; 2, 1^5)", [(25, 0), (25, 0)], None, None),
    ("L3(2; 1^9)", [(1, 1), (1, 1)], "on-curve", "pair-on-line"),
    ("L3(3; 2, 2)", [(11, 0), (11, 0)], "on-line", "pair-on-line"),
    ("L3(5; 2^5, 1^7)", [(28, 0), (28, 0)], None, None),
    ("L3(3; 1^11)", [(8, 0), (8, 0)], "isolated-on-curve", "pair-on-curve"),
    ("L3(4; 3, 3)", [(15, 1), (15, 1)], "on-line", "pair-on-line"),
]


def test_battery_at_prime_one_mod_four(monkeypatch):
    assert TS_PRIME % 4 == 1
    shanks = []
    real_sqrt = gfp.sqrt_mod

    def spy(a, p):
        root = real_sqrt(a, p)
        if p == TS_PRIME and root is not None and a % p:
            assert root * root % p == a % p
            shanks.append(a)
        return root

    monkeypatch.setattr(gfp, "sqrt_mod", spy)
    oracle.get_geometry.cache_clear()  # build the geometries under the spy
    for txt, dims, base_kind, sep_kind in FROZEN_TS:
        r = oracle.run_battery(parse_class(txt), primes=(TS_PRIME,), seeds=(0, 1), probes=8)
        assert [(t.dim, t.h1) for t in r.trials] == dims, txt
        assert r.base.fired == (base_kind is not None), txt
        assert r.separation.fired == (sep_kind is not None), txt
        if base_kind:
            assert r.base.first.witnesses[0].kind == base_kind, txt
        if sep_kind:
            assert r.separation.first.witnesses[0].kind == sep_kind, txt
    assert shanks  # nonzero residues had their roots taken at p = 1 mod 4
    for seed in (0, 1):
        g = oracle.build_geometry(TS_PRIME, seed)
        for pt in g.points:
            assert oracle._quad_eval(g.qprime, pt, TS_PRIME) == 0
            assert gfp.rank_mod(jacobian(g, pt), TS_PRIME) == 2


# ---------------------------------------------------------------------------
# curve draws


def test_curve_draws_are_smooth_points_of_both_quadrics():
    # a squarefree discriminant makes the curve smooth, so the draws are not
    # checked one by one: every draw must lie on both quadrics with a
    # Jacobian of rank 2
    for p in oracle.PRIMES + (TS_PRIME,):
        qbar = oracle._qbar_coeffs(p)
        for seed in range(6):
            g = oracle.get_geometry(p, seed)
            rng = random.Random(oracle.derive_seed("test-draws", p, seed))
            zs, ok = oracle._Words(rng, g).curve(300)
            assert ok.all()
            for z in map(tuple, zs.tolist()):
                assert oracle._quad_eval(qbar, z, p) == 0
                assert oracle._quad_eval(g.qprime, z, p) == 0
                assert gfp.rank_mod(jacobian(g, z), p) == 2


# ---------------------------------------------------------------------------
# the condition rows and the solver workspace of a geometry


def reference_conditions(geom, clazz):
    """Condition rows in pure Python integers: for each point and each
    alpha with |alpha| < m, in graded order, the derivative d^alpha of every
    monomial in the point's affine chart, at the point."""
    p, rows = geom.prime, []
    exps = oracle.monomial_exponents(clazz.d).tolist()
    for pt, m in zip(geom.points, clazz.mults):
        alphas = sorted(
            (a for a in itertools.product(range(m), repeat=3) if sum(a) < m),
            key=lambda a: (sum(a), a),
        )
        for alpha in alphas:
            row = []
            for e in exps:
                val = 1
                chart = next(k for k in range(4) if pt[k])
                affine_e = [e[j] for j in range(4) if j != chart]
                affine_z = [pt[j] for j in range(4) if j != chart]
                for ej, aj, zj in zip(affine_e, alpha, affine_z):
                    val = val * math.perm(ej, aj) * pow(zj, max(ej - aj, 0), p) % p
                row.append(val)
            rows.append(row)
    return rows


def test_conditions_match_pure_python_derivatives():
    real = oracle.build_geometry(P0, 5, 5)
    # off-curve points in each of the four affine charts
    pts = tuple(
        segre_point(s, 1, u, 1, TS_PRIME)
        for s, u in ((3, 5), (7, 0), (0, 11), (0, 0))
    )
    assert [next(k for k in range(4) if pt[k]) for pt in pts] == [0, 1, 2, 3]
    charts = dataclasses.replace(oracle.build_geometry(TS_PRIME, 0, 4), points=pts)
    for geom in (real, charts):
        for d in range(5):
            for mults in ((1,), (2, 1), (3, 3, 2), (5, 4, 3, 2), (5, 5, 1, 1, 1)):
                c = ThreefoldClass(d, mults[: len(geom.points)])
                mat = oracle.conditions_matrix(geom, c)
                assert mat.tolist() == reference_conditions(geom, c), (geom.prime, d, mults)


def test_geometry_is_frozen():
    g = oracle.build_geometry(P0, 3, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.points = ()


def test_cache_clear_drops_the_workspace():
    oracle.get_geometry.cache_clear()
    g = oracle.get_geometry(P0, 0)
    oracle.solve_system(g, parse_class("L3(3; 2, 1^4)"))
    ws = oracle._workspace(g)
    # a double point and simple points at degree 3: 4 rows, then 1 row each
    assert ws.last is not None and list(ws.rows) == [3]
    assert [len(rows) for rows in ws.rows[3]] == [4, 1, 1, 1, 1] + [0] * 11
    refs = (weakref.ref(g), weakref.ref(ws))
    del g, ws
    oracle.get_geometry.cache_clear()
    gc.collect()
    assert all(ref() is None for ref in refs)
    fresh = oracle._workspace(oracle.get_geometry(P0, 0))
    assert fresh.last is None and not fresh.rows


def test_the_geometry_cache_keys_on_the_point_count():
    # leaving out the point count and passing the default are one entry,
    # with one geometry and one workspace
    oracle.get_geometry.cache_clear()
    g = oracle.get_geometry(P0, 0)
    assert oracle.get_geometry(P0, 0, oracle.DEFAULT_POINTS) is g
    assert oracle.get_geometry(P0, 0, npoints=oracle.DEFAULT_POINTS) is g
    assert oracle.get_geometry.cache_info().misses == 1
    assert oracle.get_geometry(P0, 0, oracle.DEFAULT_POINTS + 1) is not g
    assert oracle.get_geometry.cache_info().misses == 2
    oracle.get_geometry.cache_clear()
    assert oracle.get_geometry.cache_info().currsize == 0
    assert oracle.get_geometry(P0, 0) is not g


def test_an_empty_battery_is_rejected():
    c = parse_class("L3(2; 1^3)")
    for battery in ({"seeds": ()}, {"primes": ()}):
        with pytest.raises(ValueError, match="at least one prime and one seed"):
            oracle.run_battery(c, **battery)


def test_cached_and_fresh_geometries_give_identical_kernels():
    classes = [parse_class(txt) for txt in (
        "L3(4; 2, 1^5)", "L3(4; 2^2, 1^5)", "L3(4; 3, 2, 1^6)", "L3(4; 1^3)",
        "L3(4; 2^3, 1^8)", "L3(3; 2, 1^4)", "L3(4)",
    )]
    cached = oracle.get_geometry(P0, 2)
    fresh = oracle.build_geometry(P0, 2)
    assert oracle._workspace(cached) is not oracle._workspace(fresh)
    for first, second in ((cached, fresh), (fresh, cached)):
        one = [oracle.solve_system(first, c).kernel for c in classes]
        other = [oracle.solve_system(second, c).kernel for c in reversed(classes)][::-1]
        for c, a, b in zip(classes, one, other):
            assert np.array_equal(a, b), c


def held_rows(geom, d):
    """How many degree-d rows each point of the geometry holds."""
    return [len(rows) for rows in oracle._workspace(geom).rows.get(d, [()] * len(geom.points))]


def test_growing_the_row_table_matches_a_fresh_solve():
    g = oracle.build_geometry(P0, 4)
    oracle.solve_system(g, parse_class("L3(5; 2^3)"))
    # only the points in use, each as deep as its multiplicity
    assert held_rows(g, 5) == [4] * 3 + [0] * 13
    for txt in ("L3(5; 1^16)", "L3(5; 2^3, 1^13)"):
        c = parse_class(txt)
        grown = oracle.solve_system(g, c)
        assert held_rows(g, 5) == [4] * 3 + [1] * 13
        fresh_geom = oracle.build_geometry(P0, 4)
        fresh = oracle.solve_system(fresh_geom, c)
        assert np.array_equal(grown.kernel, fresh.kernel), txt
        assert np.array_equal(
            oracle.conditions_matrix(g, c), oracle.conditions_matrix(fresh_geom, c)
        )


def test_the_row_table_grows_in_place():
    # a fill evaluates only the points it deepens: every other point keeps
    # its row array, the same object, and a deepened point's new array
    # starts with its old rows
    g = oracle.build_geometry(P0, 4)
    oracle.solve_system(g, parse_class("L3(5; 2^3)"))
    for txt, deepened, held in (("L3(5; 2^3, 1^13)", range(3, 16), [4] * 3 + [1] * 13),
                                ("L3(5; 2^8, 1^8)", range(3, 8), [4] * 8 + [1] * 8)):
        before = list(oracle._workspace(g).rows[5])
        oracle.solve_system(g, parse_class(txt))
        after = oracle._workspace(g).rows[5]
        assert held_rows(g, 5) == held, txt
        for i, (old, new) in enumerate(zip(before, after)):
            assert (new is old) == (i not in deepened), (txt, i)
            assert np.array_equal(new[:len(old)], old)


def test_the_row_table_holds_only_the_rows_a_class_reads():
    # simple points read one row each: 300 x 969 entries at degree 16, not
    # 35 times as many
    g = oracle.build_geometry(TS_PRIME, 0, 300)
    oracle.solve_system(g, parse_class("L3(16; 1^300)"))
    assert list(oracle._workspace(g).rows) == [16]
    assert held_rows(g, 16) == [1] * 300
    assert sum(rows.nbytes for rows in oracle._workspace(g).rows[16]) == 300 * 969 * 4
    # a quintuple point adds the 34 rows of orders 1 to 4 at that point
    # alone: 301 + 34 rows, not 35 at each of the 301 points
    g = oracle.build_geometry(TS_PRIME, 0, 301)
    assert oracle.solve_system(g, parse_class("L3(16; 5, 1^300)")).h0 == 875
    assert held_rows(g, 16) == [35] + [1] * 300
    assert sum(rows.nbytes for rows in oracle._workspace(g).rows[16]) == 335 * 969 * 4


def test_the_row_table_grows_in_depth_and_in_points():
    # depth, then points, then depth again, and both at once, on points in
    # all four affine charts: every class asked for so far still gets its
    # pure-Python rows, and the kernel of a fresh geometry.  Each step gives
    # the class and then, per point, the largest multiplicity asked of it
    # so far, whose rows that point holds
    pts = tuple(
        segre_point(s, 1, u, 1, TS_PRIME)
        for s, u in ((3, 5), (7, 0), (0, 11), (0, 0))
    )
    steps = {
        "depth, points, depth": (((1,), (1, 0, 0, 0)), ((3,), (3, 0, 0, 0)),
                                 ((3, 2, 2, 1), (3, 2, 2, 1)), ((5, 4, 2, 1), (5, 4, 2, 1))),
        "both at once": (((2,), (2, 0, 0, 0)), ((4, 1, 1), (4, 1, 1, 0)),
                         ((1, 1, 1, 1), (4, 1, 1, 1))),
        "no points": (((), (0, 0, 0, 0)),),
        "points only": (((2, 1), (2, 1, 0, 0)), ((2, 1, 1), (2, 1, 1, 0))),
        "depth only": (((1, 1), (1, 1, 0, 0)), ((3, 1), (3, 1, 0, 0))),
    }
    for name, sequence in steps.items():
        geom = dataclasses.replace(oracle.build_geometry(TS_PRIME, 0, 4), points=pts)
        asked = []
        for mults, deepest in sequence:
            asked.append(ThreefoldClass(4, mults))
            for c in asked:
                assert oracle.conditions_matrix(geom, c).tolist() == reference_conditions(geom, c)
            assert oracle.conditions_matrix(geom, asked[-1]).shape == (
                sum(math.comb(m + 2, 3) for m in mults), 35)
            assert held_rows(geom, 4) == [math.comb(m + 2, 3) for m in deepest], (name, mults)
            # solved right after the class before it: extends that memo when
            # the new class contains it
            fresh = dataclasses.replace(oracle.build_geometry(TS_PRIME, 0, 4), points=pts)
            assert np.array_equal(oracle.solve_system(geom, asked[-1]).kernel,
                                  oracle.solve_system(fresh, asked[-1]).kernel), (name, mults)


def test_the_row_tables_are_int32_and_every_matrix_int64():
    # every entry is reduced below p < 2^31, so the store holds int32, half
    # the bytes of int64, with the same values; the rows, matrices and
    # kernels read from it stay int64
    g = oracle.build_geometry(P0, 4)
    c, wider = parse_class("L3(6; 3, 2^4, 1^3)"), parse_class("L3(6; 3^2, 2^4, 1^4)")
    kernels = [oracle.solve_system(g, c).kernel, oracle.solve_system(g, wider).kernel]
    store = oracle._workspace(g).rows
    assert list(store) == [6]
    # every point holds the rows of the wider class, which asks each of
    # them for the larger multiplicity
    assert {rows.dtype for rows in store[6]} == {np.dtype(np.int32)}
    held = np.concatenate(store[6])
    assert held.tolist() == reference_conditions(g, wider) and int(held.max()) >= 2**30
    mat = oracle.conditions_matrix(g, wider)
    assert mat.dtype == np.int64 and np.array_equal(mat, held)
    stack = oracle._rows([g], 6, (), wider.mults)
    assert stack.dtype == np.int64 and stack.shape == (1, *mat.shape)
    assert gfp.rref_mod(mat, P0)[0].dtype == np.int64
    # the second kernel extends the first solve
    assert [k.dtype for k in kernels] == [np.int64] * 2


def test_conditions_matrix_is_the_row_stack_of_one():
    # one row order, point by point: conditions_matrix is _rows' stack of
    # one, and the rows beyond a done class are that matrix's rows of each
    # point from its old multiplicity to its new one
    c = parse_class("L3(5; 3, 2^2, 1^3)")
    geoms = [oracle.build_geometry(P0, seed) for seed in (6, 7)]
    mats = [oracle.conditions_matrix(g, c) for g in geoms]
    assert np.array_equal(np.stack(mats), oracle._rows(geoms, c.d, (), c.mults))
    first = np.cumsum([0, *map(oracle._mult_rows, c.mults)])
    for done in ((), (1,), (2, 2, 1), (3, 1, 1, 1), (3, 2, 2, 1, 1), c.mults):
        old = done + (0,) * (c.r - len(done))
        picked = [row for i, (o, m) in enumerate(zip(old, c.mults))
                  for row in range(first[i] + oracle._mult_rows(o), first[i] + oracle._mult_rows(m))]
        rows = oracle._rows(geoms, c.d, done, c.mults)
        assert rows.shape == (2, len(picked), 56), done
        for layer, mat in zip(rows, mats):
            assert np.array_equal(layer, mat[picked]), done


def test_a_cold_battery_evaluates_the_monomials_once_per_geometry_and_chart(monkeypatch):
    # a point's rows of every order come from one evaluation of its
    # monomials, made for all the new points of a chart at once; one per
    # order took twice the calls here, whose double points need orders 0
    # and 1
    c = parse_class("L3(5; 2^5, 1^7)")
    oracle.get_geometry.cache_clear()
    geoms = [oracle.get_geometry(p, s) for p in oracle.PRIMES for s in oracle.DEFAULT_SEEDS]
    charts = sum(len({next(k for k in range(4) if pt[k]) for pt in g.points[:c.r]}) for g in geoms)
    degrees = []
    evaluate = oracle.monomial_values

    def counted(z, d, p):
        degrees.append(d)
        return evaluate(z, d, p)

    monkeypatch.setattr(oracle, "monomial_values", counted)
    oracle.run_battery(c, probes=0)
    assert degrees == [5] * charts and charts >= len(geoms)
    # warm: every point already holds its rows
    oracle.run_battery(c, probes=0)
    assert len(degrees) == charts


def test_a_deep_point_leaves_only_its_own_rows_after_the_solve():
    # L3(16; 5, 1^300) on five geometries of one prime: each geometry keeps
    # the 335 rows the class reads, 1.2 MiB of int32.  Order tables sized
    # for every point held 228.7 MiB after the solve; the point store
    # 40.4 MiB beside whole int64 kernels, 9.6 MiB beside int32 blocks
    c = parse_class("L3(16; 5, 1^300)")
    geoms = [oracle.build_geometry(P0, seed, 301) for seed in range(5)]
    tracemalloc.start()
    try:
        systems = oracle._solve(geoms, c)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [s.h0 for s in systems] == [875] * 5
    assert held < 80 * 2**20, held / 2**20


def test_a_solve_keeps_only_the_pivot_columns_of_its_kernels():
    # the same solve: its 5 x 875 x 969 int64 kernels, 32.3 MiB, held
    # 40.4 MiB in all; their int32 pivot columns, 5 x 875 x 94, 1.6 MiB,
    # hold 9.6 MiB with the rows
    c = parse_class("L3(16; 5, 1^300)")
    geoms = [oracle.build_geometry(P0, seed, 301) for seed in range(5)]
    tracemalloc.start()
    try:
        systems = oracle._solve(geoms, c)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [s.h0 for s in systems] == [875] * 5
    assert held < 20 * 2**20, held / 2**20


def check_kernel(sysd, expected):
    """``SystemData.kernel`` is built on each read, equal each time, as
    read-only int64."""
    first, second = sysd.kernel, sysd.kernel
    assert first is not second
    for kernel in (first, second):
        assert kernel.dtype == np.int64 and not kernel.flags.writeable
        assert np.array_equal(kernel, expected), sysd.clazz


def test_the_kernel_is_built_from_the_solve_on_each_read():
    g = geom0()
    twin = dataclasses.replace(g, points=(g.points[0],) + g.points[:-1])
    for txt in ("L3(4; 2^3, 1^4)", "L3(2; 1^10)", "L3(6; 3^2, 2)"):
        c = parse_class(txt)
        # the twin's repeated point makes the stack pivot apart: two solves
        systems = oracle._solve([g, twin], c)
        assert systems[0].solution is not systems[1].solution, txt
        for geom, sysd in zip((g, twin), systems):
            check_kernel(sysd, gfp.kernel_mod(oracle.conditions_matrix(geom, c), P0))
    for sysd in oracle._solve([g, twin], parse_class("L3(-1; 1^2)")):
        assert (sysd.n_cols, sysd.h0) == (0, 0)
        check_kernel(sysd, np.zeros((0, 0), dtype=np.int64))


def test_a_point_off_the_fixed_quadric_is_off_the_curve():
    # every drawn point lies on xw = yz by construction, so build_geometry
    # never meets this branch; the check keeps a point off that quadric
    # from passing on the second quadric alone
    g = geom0()
    assert oracle._quad_eval(oracle._qbar_coeffs(P0), (1, 0, 0, 1), P0) == 1
    assert oracle._curve_value(g, (1, 0, 0, 1)) == 1
    assert [oracle._curve_value(g, pt) for pt in g.points] == [0] * len(g.points)


def test_a_tangent_witness_gives_its_point_and_direction(monkeypatch):
    # a pair category fires first on every class the suites probe, so only
    # the tangent categories run here.  The quadrics through nine points of
    # the quartic curve contain it, so both forms of the pencil vanish at
    # every curve point, and every direction there is flat
    tangents = tuple(row for row in oracle._SEPARATION_CATEGORIES if row[0].startswith("tangent"))
    assert [row[0] for row in tangents] == ["tangent-generic", "tangent-on-curve"]
    monkeypatch.setattr(oracle, "_SEPARATION_CATEGORIES", tangents)
    g, c = geom0(), parse_class("L3(2; 1^9)")
    sysd = oracle.solve_system(g, c)
    report = oracle.probe_separation(g, c, 16, sysd)
    assert report.fired and [w.kind for w in report.witnesses] == ["tangent-on-curve"]
    data = report.witnesses[0].data
    assert sorted(data) == ["direction", "point"]
    z, v = data["point"], data["direction"]
    assert oracle._curve_value(g, z) == 0 and z not in map(list, g.points[:9])
    values = np.stack([oracle.monomial_values(z, 2, P0), oracle.derivative_values(z, v, 2, P0)])
    assert gfp.rank_mod(gfp.matmul_mod(values, sysd.kernel.T, P0), P0) <= 1


def test_a_cold_stacked_solve_holds_no_full_size_temporary():
    # L3(16; 5^16) on five fresh geometries of one prime: a (5, 560, 969)
    # stack of 21.7 MB, 10.9 MB of tables and 17.1 MB of kernels.  The
    # solve's traced peak was 70.5 MB with int64 tables, full-size
    # quotients and row moves in rref_mod and a reduced negation of the new
    # coefficients beside the reduced stack; it is 43.6 MB without them
    c = parse_class("L3(16; 5^16)")
    geoms = [oracle.build_geometry(P0, seed) for seed in range(5)]
    tracemalloc.start()
    try:
        systems = oracle._solve(geoms, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.h0 for s in systems] == [441] * 5
    assert peak < 57e6, peak


def test_the_sketch_is_built_once_per_kernel(monkeypatch):
    # the dimension pass builds no sketch; a battery with probes builds one
    # per SystemData, shared by its base-locus and separation probes
    builds = []
    build = oracle.SystemData.sketch.func

    def counted(sysd):
        builds.append(sysd)
        return build(sysd)

    sketch = functools.cached_property(counted)
    sketch.__set_name__(oracle.SystemData, "sketch")
    monkeypatch.setattr(oracle.SystemData, "sketch", sketch)
    c = parse_class("L3(4; 1^8)")  # no probe fires: every system is probed twice
    oracle.run_battery(c, probes=0)
    assert builds == []
    report = oracle.run_battery(c, seeds=(0,), probes=8)
    assert not report.base.fired and not report.separation.fired
    assert len(builds) == len({id(s) for s in builds}) == len(oracle.PRIMES)
    for sysd in builds:
        assert not sysd.sketch.flags.writeable
        weights = np.vstack([np.ones(sysd.h0, dtype=np.int64), np.arange(1, sysd.h0 + 1)])
        assert np.array_equal(sysd.sketch, gfp.matmul_mod(weights, sysd.kernel, sysd.prime))
    # no form left: both probes fire on h0 alone and build no sketch
    builds.clear()
    report = oracle.run_battery(parse_class("L3(1; 1^5)"), seeds=(0,), probes=8)
    assert [t.h0 for t in report.trials] == [0] * len(oracle.PRIMES)
    assert report.base.first.witnesses[0].kind == "empty-system"
    assert report.separation.first.witnesses[0].kind == "insufficient-sections"
    assert builds == []
