"""Tests for the finite-field verification engine."""

import dataclasses
import gc
import itertools
import json
import math
import pathlib
import random
import weakref

import numpy as np
import pytest

from fatpoints3 import cli, gfp, oracle
from fatpoints3.divclass import ThreefoldClass, parse_class

P0 = oracle.PRIMES[0]


def geom0():
    return oracle.get_geometry(P0, 0)


def test_geometry_is_well_formed():
    g = geom0()
    assert len(g.points) == oracle.DEFAULT_POINTS
    assert len({pt.coords for pt in g.points}) == len(g.points)
    qbar = oracle._qbar_coeffs(P0)
    for pt in g.points:
        assert oracle._quad_eval(qbar, pt.coords, P0) == 0
        assert oracle._quad_eval(g.qprime, pt.coords, P0) == 0
        assert not oracle._proportional(*oracle._jacobian(g, pt), P0)
    assert oracle._squarefree_binary_form(g.delta, 4, P0)


def test_geometry_determinism():
    a = oracle.build_geometry(P0, 3, 6)
    b = oracle.build_geometry(P0, 3, 6)
    assert a.qprime == b.qprime
    assert [pt.coords for pt in a.points] == [pt.coords for pt in b.points]


def test_segre_restriction_identity():
    g = geom0()
    rng = random.Random(77)
    a, b, c = g.forms
    for _ in range(100):
        s, t, u, v = (rng.randrange(P0) for _ in range(4))
        z = (s * u % P0, s * v % P0, t * u % P0, t * v % P0)
        lhs = oracle._quad_eval(g.qprime, z, P0)
        av = oracle._form_eval(a, s, t, 2, P0)
        bv = oracle._form_eval(b, s, t, 2, P0)
        cv = oracle._form_eval(c, s, t, 2, P0)
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
    assert z not in {pt.coords for pt in geom0().points[:7]}


def test_probes_with_no_candidates_stay_quiet():
    # zero probes per category: nothing to evaluate, nothing fires
    b = base("L3(2; 1^3)", nprobes=0)
    assert not b.fired and b.checked == {"generic": 0}
    s = sep("L3(2; 1^3)", nprobes=0)
    assert not s.fired and set(s.checked.values()) == {0}


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
    assert oracle._rank_le_1(e1, e2, P0)
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
            assert oracle._quad_eval(g.qprime, pt.coords, TS_PRIME) == 0
            assert not oracle._proportional(*oracle._jacobian(g, pt), TS_PRIME)


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
            for _ in range(300):
                z = oracle._sample_curve_point(g, rng).coords
                assert oracle._quad_eval(qbar, z, p) == 0
                assert oracle._quad_eval(g.qprime, z, p) == 0
                jac = [oracle._quad_grad(qbar, z, p), oracle._quad_grad(g.qprime, z, p)]
                assert gfp.rank_mod(np.array(jac, dtype=np.int64), p) == 2


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
                affine_e = [e[j] for j in range(4) if j != pt.chart]
                for ej, aj, zj in zip(affine_e, alpha, pt.affine):
                    val = val * math.perm(ej, aj) * pow(zj, max(ej - aj, 0), p) % p
                row.append(val)
            rows.append(row)
    return rows


def test_conditions_match_pure_python_derivatives():
    real = oracle.build_geometry(P0, 5, 5)
    # off-curve points in each of the four affine charts
    pts = tuple(
        oracle._make_dpoint(s, 1, u, 1, TS_PRIME)
        for s, u in ((3, 5), (7, 0), (0, 11), (0, 0))
    )
    assert [pt.chart for pt in pts] == [0, 1, 2, 3]
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
    assert ws.last is not None and list(ws.tables) == [3]
    refs = (weakref.ref(g), weakref.ref(ws))
    del g, ws
    oracle.get_geometry.cache_clear()
    gc.collect()
    assert all(ref() is None for ref in refs)
    fresh = oracle._workspace(oracle.get_geometry(P0, 0))
    assert fresh.last is None and not fresh.tables


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


def test_growing_the_row_table_matches_a_fresh_solve():
    g = oracle.build_geometry(P0, 4)
    tables = oracle._workspace(g).tables
    oracle.solve_system(g, parse_class("L3(5; 2^3)"))
    assert tables[5].shape[0] == 3  # only the points in use
    for txt in ("L3(5; 1^16)", "L3(5; 2^3, 1^13)"):
        c = parse_class(txt)
        grown = oracle.solve_system(g, c)
        assert tables[5].shape[0] == 16
        fresh_geom = oracle.build_geometry(P0, 4)
        fresh = oracle.solve_system(fresh_geom, c)
        assert np.array_equal(grown.kernel, fresh.kernel), txt
        assert np.array_equal(
            oracle.conditions_matrix(g, c), oracle.conditions_matrix(fresh_geom, c)
        )
