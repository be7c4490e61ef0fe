"""Property tests: the oracle's closed forms and batched kernels against
straightforward references.

Each closed form replaced a general routine (a loop, a numpy rank, a
per-point evaluation); the references below are those general routines,
kept here so the two are compared on inputs hypothesis picks, including
the degenerate ones (zero rows, rank 0 and 1, no free columns).

The exact kernels everything rests on, ``rref_mod`` and ``matmul_mod``, are
checked against pure-Python integer arithmetic: ``rref_mod`` on shapes on
both sides of its column panels and on the oracle's real condition
matrices, ``matmul_mod`` on both sides of its float64 route and on
factors it must reduce itself; ``reduce_mod`` is checked against numpy's
``%`` on any int64 entry, in place on arrays and strided views.  A stack of
matrices is checked against ``rref_mod`` of each layer alone, and it is
reported as pivoting apart exactly when an elimination without row swaps
pivots two layers on different rows or columns.  ``solve_system`` on a warm geometry
(which restricts the last kernel solved there) is checked against a fresh
elimination of the full condition matrix, and ``run_battery``'s stacked
solves against ``solve_system`` on freshly built geometries.

One numpy lift, ``_fiber_block`` and ``_fiber_lift``, computes the curve's
points over every fibre: (s:1) with s and c nonzero, and apart from those
s = 0, (1:0) and c = 0.  It is checked against the scalar lift it replaced,
``fiber_points`` through ``quad_roots`` and ``segre_point``, kept here: on
named fibres that reach every branch, each lifted alone and through a word
stream, and on random blocks that mix every kind of fibre in one lift.  The
curve-point draw is checked against a draw through the scalar lift, random
stream included.

The curve's tangent directions are checked against the kernel basis
``gfp.kernel_mod`` returns for a Jacobian built here: on points hypothesis
picks, and on named points whose pivot columns are not 0 and 1 or whose
first basis vector lies along the point.

The probe categories parse their candidates from blocks of random words;
every category's list is checked against the scalar stream it replaced,
kept here, on seeded streams and on scripted words that reach the rare
branches (words only randrange(p) accepts, zero points, draws of assigned
points, 512 fibres without a point).

The probe tests run through a two-form sketch of the basis before the
whole basis; they are checked against the full test alone, with sketches
made to flag every candidate and on every block the golden classes
evaluate.  The tangent sketch's values along a direction, taken from the
partials of the sketch forms, are checked against the derivative rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fatpoints3 import gfp, oracle
from fatpoints3.divclass import ThreefoldClass, parse_class

P = 1000003
PRIMES = (P, 65537, oracle.PRIMES[0])

SETTINGS = settings(max_examples=60, deadline=None)


def kernel_from_rref_loop(m, pivots, p):
    """The original double loop: one basis vector per free column."""
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, pc in enumerate(pivots):
            basis[i, pc] = (-int(m[row, f])) % p
    return basis


def form_eval(coeffs, s, t, n, p):
    """Value of the degree-n binary form with ascending coefficients.

    Homogeneous Horner: the step for coefficient i multiplies the running
    value by s and adds c_i t^(n-i).
    """
    val = 0
    tpow = 1
    for i in range(n, -1, -1):
        if i < len(coeffs):
            val = (val * s + coeffs[i] * tpow) % p
        else:
            val = val * s % p
        tpow = tpow * t % p
    return val


@st.composite
def matrices(draw, max_rows=6, max_cols=8, primes=PRIMES):
    """Matrices mod p of a chosen kind: random, zero, low rank, or square
    of full rank (no free column)."""
    p = draw(st.sampled_from(primes))
    kind = draw(st.sampled_from(("random", "zero", "low-rank", "full")))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = st.integers(0, p - 1)
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64), p
    if kind == "full":
        # upper triangular with a nonzero diagonal, rows shuffled
        n = cols
        mat = np.triu(np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)),
                               dtype=np.int64).reshape(n, n))
        mat[np.arange(n), np.arange(n)] = draw(
            st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
        order = draw(st.permutations(range(n)))
        return mat[list(order)], p
    if kind == "low-rank":
        k = draw(st.integers(0, min(rows, cols)))
        left = np.array(draw(st.lists(entries, min_size=rows * k, max_size=rows * k)),
                        dtype=np.int64).reshape(rows, k)
        right = np.array(draw(st.lists(entries, min_size=k * cols, max_size=k * cols)),
                         dtype=np.int64).reshape(k, cols)
        return gfp.matmul_mod(left, right, p), p
    small = st.integers(0, 2) | entries
    mat = np.array(draw(st.lists(small, min_size=rows * cols, max_size=rows * cols)),
                   dtype=np.int64).reshape(rows, cols)
    return mat, p


@SETTINGS
@given(matrices())
def test_kernel_from_rref_matches_loop(case):
    mat, p = case
    red, pivots = gfp.rref_mod(mat.copy(), p)
    basis = gfp.kernel_from_rref(red, pivots, p)
    assert np.array_equal(basis, kernel_from_rref_loop(red, pivots, p))
    assert basis.shape == (mat.shape[1] - len(pivots), mat.shape[1])
    if basis.size and mat.size:
        assert not gfp.matmul_mod(mat, basis.T, p).any()


@SETTINGS
@given(st.data())
def test_kernel_from_rref_matches_loop_on_any_pivots(data):
    # the two agree on any matrix and pivot list, reduced or not
    rows = data.draw(st.integers(0, 5))
    cols = data.draw(st.integers(1, 7))
    mat = np.array(
        data.draw(st.lists(st.integers(0, P - 1), min_size=rows * cols, max_size=rows * cols)),
        dtype=np.int64,
    ).reshape(rows, cols)
    pivots = sorted(data.draw(st.sets(st.integers(0, cols - 1), max_size=min(rows, cols))))
    assert np.array_equal(
        gfp.kernel_from_rref(mat, pivots, P), kernel_from_rref_loop(mat, pivots, P)
    )


def test_kernel_from_rref_edge_shapes():
    eye = np.eye(4, dtype=np.int64)
    assert gfp.kernel_from_rref(eye, [0, 1, 2, 3], P).shape == (0, 4)
    zero = np.zeros((0, 3), dtype=np.int64)
    assert np.array_equal(gfp.kernel_from_rref(zero, [], P), np.eye(3, dtype=np.int64))


@SETTINGS
@given(st.sampled_from(PRIMES + (1073741827, 1073741831)), st.integers(0, 2**31))
def test_sqrt_mod_matches_legendre(p, a):
    # primes 3 mod 4 take one exponentiation and check its square, the
    # others go through Tonelli-Shanks; both agree with Euler's criterion
    root = gfp.sqrt_mod(a, p)
    if gfp.legendre(a, p) == -1:
        assert root is None
    else:
        assert root is not None and root * root % p == a % p


# ---------------------------------------------------------------------------
# the smoothness test and the tangent directions


def vectors(p, size=4):
    return st.lists(st.integers(0, p - 1) | st.just(0), min_size=size, max_size=size)


def jacobian(geom, pt):
    """The curve's 2x4 Jacobian at pt: the gradients of xw - yz and of the
    second quadric, from their coefficients over ``_QUAD_PAIRS``."""
    p = geom.prime
    rows = []
    for q in (oracle._qbar_coeffs(p), geom.qprime):
        grad = [0, 0, 0, 0]
        for (i, j), c in zip(oracle._QUAD_PAIRS, q):
            grad[i] += c * pt[j]
            grad[j] += c * pt[i]
        rows.append([x % p for x in grad])
    return np.array(rows, dtype=np.int64)


def along(a, b, p):
    """Do the two vectors span at most a line?"""
    return gfp.rank_mod(np.array([a, b], dtype=np.int64), p) <= 1


def tangent_candidates(geom, pt):
    """At a point whose Jacobian has rank 2: the two vectors of
    ``gfp.kernel_mod`` of the Jacobian, in its order, then their sum."""
    p = geom.prime
    basis = [tuple(int(x) for x in row) for row in gfp.kernel_mod(jacobian(geom, pt), p)]
    return basis + [tuple((a + b) % p for a, b in zip(*basis))]


def curve_tangent_reference(geom, pt):
    """The first tangent candidate not along the point, or None."""
    return next((v for v in tangent_candidates(geom, pt) if not along(pt, v, geom.prime)), None)


@SETTINGS
@given(st.integers(-3, oracle.MAX_DEGREE), st.lists(st.integers(-1, oracle.MAX_MULT), max_size=8))
@example(1, [3])
@example(1, [2])
@example(0, [-1])
def test_a_hunted_curve_degree_means_a_positive_degree(d, mults):
    # the class gate refuses a negative multiplicity at every degree, so a
    # class it accepts with curve degree 4d - sum(m) of 1 or 2 has
    # 4d >= 1 + sum(m) >= 1: the probe pass needs no guard on d
    c = ThreefoldClass(d, tuple(mults)).normalized()
    try:
        oracle._check_class(c, 1)
    except ValueError as err:
        assert str(err) == "negative multiplicity" and min(c.mults) < 0
        return
    assert 4 * c.d - sum(c.mults) not in (1, 2) or c.d >= 1


@st.composite
def geometry_points(draw, kinds=("random", "multiple", "zero")):
    """A geometry with a second quadric of one of ``kinds`` and a point with
    chosen coordinates; over all three kinds the Jacobian can have any rank
    from 0 to 2.  A "multiple" second quadric l (xw - yz) has the gradient
    l (w, -z, -y, x), a multiple of the first one's, and a "zero" one the
    gradient 0, so with either the Jacobian has rank below 2."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        qprime = tuple(draw(vectors(p, 10)))
    elif kind == "multiple":
        lam = draw(st.integers(0, p - 1))
        qprime = tuple(lam * c % p for c in oracle._qbar_coeffs(p))
    else:
        qprime = (0,) * 10
    coords = tuple(draw(vectors(p)))
    geom = oracle.Geometry(p, 0, 0, qprime, oracle._segre_forms(qprime, p), [], ())
    return geom, coords


def tangent_geometry(qprime, p=P):
    return oracle.Geometry(p, 0, 0, qprime, oracle._segre_forms(qprime, p), [], ())


@SETTINGS
@given(geometry_points())
def test_smooth_at_matches_rank_of_jacobian(case):
    # the curve is smooth at the point exactly when the two gradients are
    # independent, and exactly there does the point get a direction
    geom, pt = case
    dirs, ok = oracle._tangents(geom, np.array([pt], dtype=np.int64))
    assert ok[0] == (gfp.rank_mod(jacobian(geom, pt), geom.prime) == 2)
    assert ok[0] or not dirs.any()


@SETTINGS
@given(geometry_points(kinds=("random",)), st.integers(0, 3))
@example((tangent_geometry((1, 2, 3, 4, 5, 6, 7, 8, 9, 10)), (1, 2, 0, 0)), 0)  # D(0, 1) = 0
def test_tangents_match_curve_tangent(case, extra):
    # a stack of points at which the Jacobian has rank 2, on or off the
    # curve, against the reference tangent at each; only a random second
    # quadric can give rank 2, so the other kinds are not drawn.  The sum
    # of the basis vectors is never taken: two independent vectors never
    # both lie along one point
    geom, pt = case
    p = geom.prime
    assume(gfp.rank_mod(jacobian(geom, pt), p) == 2)
    others = [q for q in oracle.get_geometry(p, 0).points[:extra]
              if gfp.rank_mod(jacobian(geom, q), p) == 2]
    stack = np.array([pt] + others, dtype=np.int64)
    dirs, ok = oracle._tangents(geom, stack)
    assert ok.all()
    for row, v in zip(stack.tolist(), dirs.tolist()):
        expected = curve_tangent_reference(geom, row)
        assert tuple(v) == expected
        assert tangent_candidates(geom, row).index(expected) < 2


TANGENT_CASES = {
    # name: (second quadric, point, pivot columns c1 and c2, basis vector taken)
    "c1 > 0": ((6, 6, 0, 4, 8, 7, 6, 4, 7, 5), (0, 0, 1, 0), [1, 2], 0),
    "c2 > c1 + 1": ((4, 3, 1, 9, 5, 3, 9, 8, 5, 2), (0, 1, 0, 0), [0, 2], 0),
    "basis 0 along the point": ((8, 7, 9, 5, 8, 2, 2, 0, 7, 2), (0, 0, 1, 0), [0, 1], 1),
    "c1 > 0, c2 > c1 + 1, basis 0 along the point": ((0, 4, 7, 1, 4, 2, 8, 5, 1, 2), (1, 0, 0, 0), [1, 3], 1),
}


@pytest.mark.parametrize("name", TANGENT_CASES)
def test_tangents_named_cases(name):
    qprime, pt, pivots, taken = TANGENT_CASES[name]
    geom = tangent_geometry(qprime)
    assert gfp.rref_mod(jacobian(geom, pt), P)[1] == pivots
    candidates = tangent_candidates(geom, pt)
    assert along(pt, candidates[0], P) == (taken == 1)
    dirs, ok = oracle._tangents(geom, np.array([pt], dtype=np.int64))
    assert ok[0]
    assert tuple(dirs[0].tolist()) == candidates[taken] == curve_tangent_reference(geom, pt)


def test_curve_tangents_lie_in_the_tangent_space():
    g = oracle.get_geometry(oracle.PRIMES[0], 0)
    p = g.prime
    dirs, ok = oracle._tangents(g, np.array(g.points, dtype=np.int64))
    assert ok.all()
    for pt, got in zip(g.points, dirs.tolist()):
        v = curve_tangent_reference(g, pt)
        assert tuple(got) == v
        for grad in jacobian(g, pt).tolist():
            assert sum(a * b for a, b in zip(grad, v)) % p == 0
        assert not along(pt, v, p)


# ---------------------------------------------------------------------------
# curve points as normalised coordinate tuples


def norm_pair(a, b, p):
    """A nonzero pair scaled to (a/b, 1), or to (1, 0) when b = 0."""
    return (a * pow(b, -1, p) % p, 1) if b else (1, 0)


def fibre_key(s, t, p):
    """The fibre (s:t) as ``_fiber_block`` encodes it: s/t, or p for (1:0)."""
    return s * pow(t, -1, p) % p if t else p


def fibre_pair(k, p):
    """The fibre k as (s, t): (k, 1) below p and (1, 0) for p."""
    return (1, 0) if k == p else (k, 1)


def quad_roots(a, b, c, p):
    """Projective roots (u:v) of a u^2 + b uv + c v^2 over GF(p), each
    scaled to (0:1) or (1:v), sorted."""
    a, b, c = a % p, b % p, c % p
    if a == 0 and b == 0 and c == 0:
        raise ValueError("identically zero fiber form")
    out = []
    if c:
        disc = (b * b - 4 * a * c) % p
        root = gfp.sqrt_mod(disc, p)
        if root is not None:
            inv2c = pow(2 * c, -1, p)
            v1 = (-b + root) * inv2c % p
            v2 = (-b - root) * inv2c % p
            out = [(1, v1)] if v1 == v2 else [(1, v1), (1, v2)]
    else:
        out.append((0, 1))
        if b:
            out.append((1, (-a) * pow(b, -1, p) % p))
    return sorted(out)


def segre_point(s, t, u, v, p):
    """The point (su:sv:tu:tv) for nonzero pairs (s, t) and (u, v), scaled
    so that its first nonzero coordinate is 1: the form every point takes."""
    raw = (s * u % p, s * v % p, t * u % p, t * v % p)
    inv = pow(next(c for c in raw if c), -1, p)
    return tuple(c * inv % p for c in raw)


def fiber_quadratic(geom, s, t):
    """The values f0 t^2 + f1 s t + f2 s^2 of the three fibre forms at (s:t)."""
    p = geom.prime
    ss, st_, tt = s * s, s * t, t * t
    return tuple((f[0] * tt + f[1] * st_ + f[2] * ss) % p for f in geom.forms)


def fiber_points(geom, s, t):
    """The curve's rational points over (s:t), one root at a time in
    ``quad_roots`` order; [] when there is none or the fibre form vanishes
    identically.  The scalar lift ``_fiber_lift`` replaced."""
    p = geom.prime
    a, b, c = fiber_quadratic(geom, s, t)
    if a == 0 and b == 0 and c == 0:
        return []
    return [segre_point(s, t, u, v, p) for u, v in quad_roots(a, b, c, p)]


def segre_point_loop(s, t, u, v, p):
    """The normalisation of the old point record: both pairs normalised,
    their products taken, then scaled by the first nonzero product."""
    (s, t), (u, v) = norm_pair(s, t, p), norm_pair(u, v, p)
    raw = (s * u % p, s * v % p, t * u % p, t * v % p)
    chart = next(k for k in range(4) if raw[k])
    inv = pow(raw[chart], -1, p)
    return tuple(c * inv % p for c in raw)


POINT_PRIMES = oracle.PRIMES + (65537,)
COORD = st.sampled_from((0, 1)) | st.integers(0, 2**31)


@SETTINGS
@given(st.sampled_from(POINT_PRIMES), COORD, COORD, COORD, COORD)
@example(65537, 5, 0, 3, 7)  # t = 0
@example(P, 2, 3, 0, 1)  # u = 0
@example(P, 2, 3, 1, 0)  # v = 0
@example(oracle.PRIMES[0], 1, 0, 0, 1)  # both, the point (0:1:0:0)
def test_segre_point_matches_the_old_normalisation(p, s, t, u, v):
    s, t, u, v = s % p, t % p, u % p, v % p
    assume((s or t) and (u or v))
    pt = segre_point(s, t, u, v, p)
    assert pt == segre_point_loop(s, t, u, v, p)
    x, y, z, w = pt
    assert (x * w - y * z) % p == 0
    assert oracle._fiber_of(pt, p) == fibre_key(s, t, p)


@SETTINGS
@given(st.sampled_from(POINT_PRIMES), st.integers(0, 2), st.integers(0, 2**31), st.booleans())
def test_fiber_points_match_a_lift_through_quad_roots(p, seed, k, at_infinity):
    geom = oracle.get_geometry(p, seed)
    s, t = (1, 0) if at_infinity else (k % p, 1)
    a, b, c = fiber_quadratic(geom, s, t)
    roots = quad_roots(a, b, c, p)
    if p == 65537:
        # every (u:v) with u in {0, 1}, by exhaustion
        vs = np.arange(p, dtype=np.int64)
        brute = [(0, 1)] if c == 0 else []
        brute += [(1, int(v)) for v in np.flatnonzero((a + b * vs % p + c * vs % p * vs) % p == 0)]
        assert roots == brute
    expected = [segre_point_loop(s, t, u, v, p) for u, v in roots]
    assert fiber_points(geom, s, t) == expected
    assert block_lift(geom, [fibre_key(s, t, p)]) == [expected]
    qbar = oracle._qbar_coeffs(p)
    for pt in expected:
        assert oracle._quad_eval(qbar, pt, p) == 0
        assert oracle._quad_eval(geom.qprime, pt, p) == 0
        assert oracle._fiber_of(pt, p) == fibre_key(s, t, p)


def lift_through_quad_roots(geom, s, t):
    """The fibre lift as it was before its fast path: the forms evaluated by
    ``form_eval``, the roots by ``quad_roots``, each point by
    ``segre_point``."""
    p = geom.prime
    a, b, c = (form_eval(f, s, t, 2, p) for f in geom.forms)
    if a == 0 and b == 0 and c == 0:
        return []
    return [segre_point(s, t, u, v, p) for u, v in quad_roots(a, b, c, p)]


def block_lift(geom, ks, rng=None):
    """Every point over each fibre of ks, as a list per fibre, by one
    ``_fiber_block`` and one ``_fiber_lift`` over every (fibre, pick); rng
    shuffles the rows of the lift."""
    ks = np.array(ks, dtype=np.int64)
    block = oracle._fiber_block(geom.forms, geom.prime, ks)
    rows, pick = (block[-1][:, None] > [0, 1]).nonzero()
    order = np.arange(len(rows))
    if rng is not None:
        rng.shuffle(order)
    rows, pick = rows[order], pick[order]
    z = oracle._fiber_lift(ks[rows], pick, [x[rows] for x in block[:5]], geom.prime)
    out = [[None] * int(n) for n in block[-1]]
    for i, j, pt in zip(rows.tolist(), pick.tolist(), z.tolist()):
        out[i][j] = tuple(pt)
    return out


def forms_through(p, s, t, abc, rng):
    """Random fibre forms whose values over (s:t) are abc."""
    forms = []
    for val in abc:
        if t:  # x t^2 + y s t + z s^2 at t = 1
            y, z = rng.randrange(p), rng.randrange(p)
            forms.append(((val - y * s - z * s * s) % p, y, z))
        else:  # (s:t) = (1:0) reads the s^2 coefficient
            forms.append((rng.randrange(p), rng.randrange(p), val % p))
    return tuple(forms)


def fiber_cases(p):
    """Named (s, t, (a, b, c), number of points) cases: every branch of the
    lift, the block lift's shortcut over (s:1) with s, c nonzero and the
    general one."""
    nonresidue = next(n for n in range(2, p) if gfp.legendre(n, p) == -1)
    half = pow(2, -1, p)
    v1, v2, w = 3, p - 7, 12345

    def through(c, *roots):  # c (v - r1)(v - r2), as ascending (a, b, c)
        r1, r2 = roots if len(roots) == 2 else roots * 2
        return (c * r1 * r2 % p, -c * (r1 + r2) % p, c)

    return {
        "two roots": (5, 1, through(w, v1, v2), 2),
        "a root at v = 0": (5, 1, through(w, 0, v2), 2),
        "s = p - 1": (p - 1, 1, through(w, v1, v2), 2),
        "c = 0, b != 0": (5, 1, (7, 11, 0), 2),
        "c = 0, b = 0": (5, 1, (7, 0, 0), 1),
        "discriminant 0": (5, 1, through(w, v1), 1),
        "discriminant 0 at v = 0": (5, 1, through(w, 0), 1),
        "s = 0": (0, 1, through(w, v1, v2), 2),
        "s = 0, c = 0": (0, 1, (7, 11, 0), 2),
        "t = 0": (1, 0, through(w, v1, v2), 2),
        "t = 0, c = 0": (1, 0, (7, 11, 0), 2),
        "zero fibre form": (5, 1, (0, 0, 0), 0),
        "non-residue discriminant": (5, 1, (-nonresidue * half * half % p, 0, 1), 0),
        "non-residue discriminant, s = 0": (0, 1, (-nonresidue * half * half % p, 0, 1), 0),
    }


@pytest.mark.parametrize("p", (oracle.PRIMES[0], 65537))
def test_fiber_points_named_cases(p):
    # p = 2^31 - 1 takes its square roots by one power, 65537 by
    # Tonelli-Shanks; both against the lift through quad_roots
    geom = oracle.get_geometry(p, 0)
    rng = random.Random(p)
    for name, (s, t, abc, npts) in fiber_cases(p).items():
        g = dataclasses.replace(geom, forms=forms_through(p, s, t, abc, rng))
        assert fiber_quadratic(g, s, t) == tuple(x % p for x in abc), name
        expected = lift_through_quad_roots(g, s, t)
        assert len(expected) == npts, name
        assert fiber_points(g, s, t) == expected, name
        for x, y, z, w in expected:
            assert (x * w - y * z) % p == 0, name
            assert oracle._fiber_of((x, y, z, w), p) == fibre_key(s, t, p), name


@pytest.mark.parametrize("p", (oracle.PRIMES[0], 65537))
def test_fiber_lift_named_cases(p):
    # every pick of every named fibre, each lifted alone and not through a
    # word stream, against the scalar lift; 65537 takes Tonelli-Shanks
    geom = oracle.get_geometry(p, 0)
    rng = random.Random(p)
    for name, (s, t, abc, npts) in fiber_cases(p).items():
        g = dataclasses.replace(geom, forms=forms_through(p, s, t, abc, rng))
        expected = fiber_points(g, s, t)
        k = np.array([fibre_key(s, t, p)], dtype=np.int64)
        block = oracle._fiber_block(g.forms, p, k)
        assert block[-1].tolist() == [npts], name
        for pick in range(npts):
            z = oracle._fiber_lift(k, np.array([pick], dtype=np.int64), block[:5], p)
            assert tuple(z[0].tolist()) == expected[pick], (name, pick)


def vanishing_form(p, k, rng):
    """A random fibre form, f0 + f1 s at t = 1, zero over (k:1)."""
    f1 = rng.choice((0, rng.randrange(p)))
    return (-f1 * k % p, f1, rng.choice((0, rng.randrange(p))))


@pytest.mark.parametrize("p", POINT_PRIMES)
def test_fiber_lift_on_random_fibres(p):
    # one lift over every point of a block that mixes (k:1) with k = 0,
    # (1:0) and fibres where c, or b and c, vanish, rows in random order
    rng = random.Random(p)
    geom = oracle.get_geometry(p, 0)
    kinds = set()
    for _ in range(30):
        k0 = rng.randrange(1, p)
        a = tuple(rng.randrange(p) for _ in range(3))
        b = vanishing_form(p, k0, rng) if rng.random() < 0.5 else a[::-1]
        g = dataclasses.replace(geom, forms=(a, b, vanishing_form(p, k0, rng)))
        ks = [0, p, k0] + [rng.randrange(p) for _ in range(20)] + [k0]
        for k, got in zip(ks, block_lift(g, ks, rng)):
            abc = fiber_quadratic(g, *fibre_pair(k, p))
            assert got == fiber_points(g, *fibre_pair(k, p)), (k, abc)
            if got:
                kinds.add("c = 0, b = 0" if abc[1:] == (0, 0) else "c = 0" if abc[2] == 0
                          else "k = 0" if k == 0 else "(1:0)" if k == p else "(k:1)")
    assert kinds == {"c = 0, b = 0", "c = 0", "k = 0", "(1:0)", "(k:1)"}


def reference_draw(geom, rng):
    """A curve draw one ``randrange`` at a time: a fibre, k for (k:1) and p
    for (1:0), until one with points, at most 512 times, then a pick among
    them; None after 512 fibres without one."""
    p = geom.prime
    for _ in range(512):
        pts = lift_through_quad_roots(geom, *fibre_pair(rng.randrange(p + 1), p))
        if pts:
            return pts[rng.randrange(len(pts))]
    return None


def random_proj_point_reference(rng, p):
    """A point of space one ``randrange`` at a time, drawn again while it is
    zero."""
    while True:
        z = tuple(rng.randrange(p) for _ in range(4))
        if any(z):
            return z


@pytest.mark.parametrize("p", POINT_PRIMES)
def test_curve_draws_consume_the_random_stream_as_before(p):
    # the same points, and the same random numbers consumed, including the
    # randrange(1) that picks the one point over a double root
    geom = oracle.get_geometry(p, 0)
    seed = oracle.derive_seed("draw-stream", p)
    words, slow = oracle._Words(random.Random(seed), geom), ScriptedRandom([], seed)
    z, ok = words.curve(2000)
    want = [reference_draw(geom, slow) for _ in range(2000)]
    assert ok.all() and z.tolist() == [list(w) for w in want]
    assert words.pos == slow.read


def build_geometry_reference(prime, seed, npoints):
    """``build_geometry`` with its points drawn one at a time by
    ``reference_draw``, a repeated point skipped: the geometry, and how many
    draws were skipped."""
    for attempt in range(256):
        rng = random.Random(oracle.derive_seed("geometry", prime, seed, attempt))
        qprime = tuple(rng.randrange(prime) for _ in oracle._QUAD_PAIRS)
        a, b, c = forms = oracle._segre_forms(qprime, prime)
        delta = tuple(gfp.padd(gfp.pmul(b, b, prime),
                               gfp.pscale(gfp.pmul(a, c, prime), -4, prime), prime))
        if not oracle._squarefree_binary_form(delta, 4, prime):
            continue
        geom = oracle.Geometry(prime, seed, attempt, qprime, forms, delta, ())
        prng = random.Random(oracle.derive_seed("points", prime, seed, attempt))
        points, skipped = [], 0
        for _ in range(64 * npoints):
            if len(points) == npoints:
                break
            pt = reference_draw(geom, prng)
            if pt is None:
                break
            if pt in points:
                skipped += 1
                continue
            if oracle._curve_value(geom, pt):
                break
            points.append(pt)
        if len(points) == npoints:
            return dataclasses.replace(geom, points=tuple(points)), skipped
    raise AssertionError("no configuration")


def test_geometry_points_match_the_scalar_draws():
    # 600 geometries, none of which draws a point twice, and two at 65537
    # with enough points that a draw repeats one
    cases = [(p, seed, n) for p in oracle.PRIMES + (65537, P)
             for seed in range(40) for n in (1, 16, 40)]
    skipped = 0
    for p, seed, n in cases + [(65537, 0, 200), (65537, 5, 300)]:
        got = oracle.build_geometry(p, seed, n)
        want, repeats = build_geometry_reference(p, seed, n)
        assert dataclasses.astuple(got) == dataclasses.astuple(want), (p, seed, n)
        skipped += repeats
    assert skipped >= 2


# ---------------------------------------------------------------------------
# candidate streams parsed from word blocks, against the scalar streams
#
# The references are the streams as they were before word blocks: one
# ``randrange`` call per value, one candidate at a time.  Each returns an
# iterator of tuples, or of pairs of tuples.


def lin(lam, a, mu, b, p):
    return tuple((lam * a[j] + mu * b[j]) % p for j in range(4))


def line_points_reference(pr, rng):
    p, p1 = pr.p, pr.assigned[0]
    if len(pr.assigned) >= 2:
        p2 = pr.assigned[1]
        for _ in range(pr.nprobes):
            lam, mu = rng.randrange(1, p), rng.randrange(1, p)
            z = lin(lam, p1, mu, p2, p)
            if z not in pr.assigned_coords:
                yield z
    else:
        for _ in range(4):
            direction = random_proj_point_reference(rng, p)
            for _ in range(max(1, pr.nprobes // 4)):
                z = lin(1, p1, rng.randrange(1, p), direction, p)
                if any(z) and z not in pr.assigned_coords:
                    yield z


def line_pairs_reference(pr, rng):
    p, p1 = pr.p, pr.assigned[0]
    two = len(pr.assigned) >= 2
    for _ in range(pr.nprobes if two else max(1, pr.nprobes // 2)):
        p2 = pr.assigned[1] if two else random_proj_point_reference(rng, p)
        l1, l2 = rng.randrange(1, p), rng.randrange(1, p)
        if l1 == l2:
            continue
        z1, z2 = lin(1, p1, l1, p2, p), lin(1, p1, l2, p2, p)
        if z1 not in pr.assigned_coords and z2 not in pr.assigned_coords:
            yield z1, z2


def curve_point_reference(pr, rng):
    return reference_draw(pr.geom, rng)


def generic_point_reference(pr, rng):
    return random_proj_point_reference(rng, pr.p)


def fresh_curve_point_reference(pr, rng):
    for _ in range(64):
        z = curve_point_reference(pr, rng)
        if z is not None and z not in pr.assigned_coords:
            return z
    return None


def fresh_points_reference(draw):
    def stream(pr, rng):
        found = 0
        for _ in range(4 * pr.nprobes):
            if found == pr.nprobes:
                return
            z = draw(pr, rng)
            if z is not None and z not in pr.assigned_coords:
                found += 1
                yield z
    return stream


def random_pairs_reference(draw1, draw2):
    def stream(pr, rng):
        for _ in range(pr.nprobes):
            z1, z2 = draw1(pr, rng), draw2(pr, rng)
            if z1 is None or z2 is None or z1 == z2:
                continue
            if z1 not in pr.assigned_coords and z2 not in pr.assigned_coords:
                yield z1, z2
    return stream


def generic_tangents_reference(pr, rng):
    for _ in range(pr.nprobes):
        z = random_proj_point_reference(rng, pr.p)
        if z in pr.assigned_coords:
            continue
        v = random_proj_point_reference(rng, pr.p)
        if not along(z, v, pr.p):
            yield z, v


def curve_tangents_reference(pr, rng):
    for _ in range(pr.nprobes):
        z = reference_draw(pr.geom, rng)
        if z is None or z in pr.assigned_coords:
            continue
        v = curve_tangent_reference(pr.geom, z)
        if v is not None:
            yield z, v


REFERENCE_STREAMS = {
    "on-line": line_points_reference,
    "on-curve": fresh_points_reference(curve_point_reference),
    "generic": fresh_points_reference(generic_point_reference),
    "pair-on-line": line_pairs_reference,
    "pair-on-curve": random_pairs_reference(fresh_curve_point_reference,
                                            fresh_curve_point_reference),
    "pair-generic": random_pairs_reference(generic_point_reference, generic_point_reference),
    "pair-mixed": random_pairs_reference(fresh_curve_point_reference, generic_point_reference),
    "tangent-generic": generic_tangents_reference,
    "tangent-on-curve": curve_tangents_reference,
}
CATEGORIES = oracle._BASE_CATEGORIES + oracle._SEPARATION_CATEGORIES
# no assigned point, one, and several
STREAM_CLASSES = (ThreefoldClass(3, ()), parse_class("L3(3; 2)"), parse_class("L3(4; 2, 1^5)"))


def as_lists(candidates):
    return [as_lists(c) if isinstance(c, tuple) else int(c) for c in candidates]


class ScriptedRandom(random.Random):
    """A ``random.Random`` whose 32-bit words come from a script, then from
    a seeded stream.  ``getrandbits(k)`` takes one word shifted right by
    32 - k for k <= 32, and k / 32 words, the first in the low bits, for a
    multiple of 32: as CPython's generator hands its words out, which
    ``test_word_blocks_are_the_words_of_successive_draws`` checks.  ``read``
    counts the words handed out."""

    def __init__(self, script, seed):
        self.script, self.base, self.read = list(script)[::-1], random.Random(seed), 0
        super().__init__(seed)

    def word(self):
        self.read += 1
        return self.script.pop() if self.script else self.base.getrandbits(32)

    def getrandbits(self, k):
        if k <= 32:
            return self.word() >> (32 - k)
        assert k % 32 == 0
        return sum(self.word() << (32 * i) for i in range(k // 32))


def check_streams(pr, make_rng, names=None):
    """Every category's candidates, from the rng make_rng(label) gives, with
    the words a curve stream draws up front, equal the reference stream's
    from another one like it."""
    for name, label, stream, *_, needs_point, reserve in CATEGORIES:
        if (needs_point and not pr.assigned) or (names and name not in names):
            continue
        got = stream(pr, oracle._Words(make_rng(label), pr.geom, reserve(pr) if reserve else 0))
        want = list(REFERENCE_STREAMS[name](pr, make_rng(label)))
        assert got.dtype == np.int64, name
        assert got.tolist() == as_lists(want), (name, pr.p, pr.tag, pr.nprobes)


@pytest.mark.parametrize("p", POINT_PRIMES)
@pytest.mark.parametrize("nprobes", (16, 64, 100))
def test_streams_match_the_scalar_streams(p, nprobes):
    for seed in (0, 1):
        geom = oracle.get_geometry(p, seed)
        for c in STREAM_CLASSES:
            pr = oracle._Probe("streams", geom, c, nprobes, None)
            check_streams(pr, lambda label: pr.rng(label, nprobes))


def test_word_blocks_are_the_words_of_successive_draws():
    for seed in range(4):
        block = random.Random(seed).getrandbits(32 * 100)
        one, scripted = random.Random(seed), ScriptedRandom([], seed)
        words = [one.getrandbits(32) for _ in range(100)]
        assert block == sum(w << (32 * i) for i, w in enumerate(words))
        assert block == scripted.getrandbits(32 * 100)
        for p in POINT_PRIMES:
            for n in (p - 1, p, p + 1, 1, 2):
                a, b = random.Random(seed), ScriptedRandom([], seed)
                assert [a.randrange(n) for _ in range(50)] == [b.randrange(n) for _ in range(50)]


@pytest.mark.parametrize("p", POINT_PRIMES)
def test_words_randrange_reads_the_words_randrange_reads(p):
    # value by value and word by word, between points of space and curve
    # draws; every third word is one randrange(n) passes over, and at
    # p = 2^31 - 1, randrange(p + 1) = randrange(2^31) shifts by 0
    geom = oracle.get_geometry(p, 0)
    for n in (1, 2, 3, p - 1, p, p + 1):
        base, spare = random.Random(n), n << (32 - n.bit_length())
        script = [spare if i % 3 == 0 else base.getrandbits(32) for i in range(400)]
        words = oracle._Words(ScriptedRandom(script, n), geom)
        scalar = ScriptedRandom(script, n)
        for step in range(80):
            if step % 4 == 1:
                got, want = words.point(), random_proj_point_reference(scalar, p)
            elif step % 4 == 3:
                z, ok = words.curve(1)
                got, want = tuple(z[0].tolist()) if ok[0] else None, reference_draw(geom, scalar)
            else:
                got, want = words.randrange(n), scalar.randrange(n)
            assert got == want and words.pos == scalar.read, (n, step)


@pytest.mark.parametrize("p", POINT_PRIMES)
def test_words_take_reads_the_words_randrange_reads(p):
    # n draws of one bound at once, each call after the last; every third
    # word of the script is one randrange(b) passes over, and 1000 draws
    # read past the script into the seeded stream
    geom = oracle.get_geometry(p, 0)
    for b in (1, 2, 3, p - 1, p, p + 1):
        base, spare = random.Random(b), b << (32 - b.bit_length())
        script = [spare if i % 3 == 0 else base.getrandbits(32) for i in range(400)]
        words = oracle._Words(ScriptedRandom(script, b), geom)
        scalar = ScriptedRandom(script, b)
        for n in (0, 1, 63, 64, 65, 1000):
            assert words.take(b, n).tolist() == [scalar.randrange(b) for _ in range(n)], (b, n)
            assert words.pos == scalar.read, (b, n)


@pytest.mark.parametrize("p", POINT_PRIMES)
def test_points_of_space_index_no_curve_fibres(monkeypatch, p):
    # a stream that reads only points of space, as the degree-1 separation
    # hunt's partner draw does, keeps its own lookups; 40 points read past
    # the first block of 64 words
    geom = oracle.get_geometry(p, 0)  # its points are curve draws
    calls = []
    monkeypatch.setattr(oracle, "_index", calls.append)
    seed = oracle.derive_seed("sep-pair", p)
    words, scalar = oracle._Words(random.Random(seed), geom), ScriptedRandom([], seed)
    for _ in range(40):
        assert words.point() == random_proj_point_reference(scalar, p)
        assert words.pos == scalar.read
    assert calls == []


def scripted_probes(p, nprobes=16):
    geom = oracle.get_geometry(p, 0)
    return [oracle._Probe("streams", geom, c, nprobes, None) for c in STREAM_CLASSES[1:]]


@pytest.mark.parametrize("p", POINT_PRIMES)
def test_streams_on_words_only_randrange_p_accepts(p):
    # a word whose value is p - 1 is a coordinate of a random point but is
    # passed over by randrange(1, p): the line streams with one assigned
    # point mix the two
    spare = (p - 1) << (32 - p.bit_length())
    for pr in scripted_probes(p):
        for every in (2, 3, 7):
            base = random.Random(every)
            script = [spare if i % every == 0 else base.getrandbits(32) for i in range(600)]
            check_streams(pr, lambda label: ScriptedRandom(script, every))


@pytest.mark.parametrize("p", POINT_PRIMES)
def test_streams_on_zero_points(p):
    # runs of zero words draw random points of zero, which are drawn again;
    # as fibre words they lift over (0:1), a fibre off the lift's shortcut
    for pr in scripted_probes(p):
        for run in (4, 5, 9, 13):
            base = random.Random(run)
            script = [0] * run + [base.getrandbits(32) for _ in range(7)] + [0] * run * 2
            check_streams(pr, lambda label: ScriptedRandom(script, run))


def fibre_word(geom, s, t):
    """The word a curve draw reads as the fibre (s:t)."""
    p = geom.prime
    return (p if t == 0 else s) << (32 - (p + 1).bit_length())


@pytest.mark.parametrize("p", POINT_PRIMES)
def test_streams_on_draws_of_assigned_points(p):
    # 70 curve draws of an assigned point: a fresh curve point is drawn
    # again, 64 times at most, and then there is none; random points of
    # space at an assigned point are passed over, and a tangent's direction
    # is not drawn for one
    for pr in scripted_probes(p):
        pt = pr.assigned[-1]
        s, t = fibre_pair(oracle._fiber_of(pt, p), p)
        pick = fiber_points(pr.geom, s, t).index(pt) << 30
        coords = [x << (32 - p.bit_length()) for x in pt]
        for draws in (1, 3, 70):
            for script in ([fibre_word(pr.geom, s, t), pick] * draws, coords * draws,
                           coords + [1 << 20] * 7 + coords * draws):
                check_streams(pr, lambda label: ScriptedRandom(script, draws))


@pytest.mark.parametrize("p", POINT_PRIMES)
def test_curve_draws_after_512_fibres_without_points(p):
    geom = oracle.get_geometry(p, 0)
    empty = next(s for s in range(2, p) if not fiber_points(geom, s, 1))
    script = [fibre_word(geom, empty, 1)] * 1100
    scalar, block = ScriptedRandom(script, 5), ScriptedRandom(script, 5)
    want = [reference_draw(geom, scalar) for _ in range(40)]
    assert want[:2] == [None, None] and want[2] is not None
    words = oracle._Words(block, geom)
    z, ok = words.curve(40)
    assert ok.tolist() == [w is not None for w in want]
    assert z.tolist() == [list(w) if w else [0] * 4 for w in want]
    for pr in scripted_probes(p):
        check_streams(pr, lambda label: ScriptedRandom(script, 5),
                      ("on-curve", "pair-on-curve", "pair-mixed", "tangent-on-curve"))


def fresh_curve_reference(pr, words, count, after=None):
    """``oracle._fresh_curve`` with rounds as long as the draws still
    wanted: after a drawn point that is assigned, every draw past it is
    read again, so its work grows with the square of the count."""
    zs, found, others = [np.zeros((0, 4), dtype=np.int64)], [], []
    while len(found) < count:
        draws, ends, more = [], [], []
        for _ in range(count - len(found)):
            draws.append(words.curve_draw())
            ends.append(words.pos)
            if after:
                more.append(after())
        z, ok = oracle._lift(words, draws)
        ok &= pr.unassigned(z)
        j = len(draws) if ok.all() else int(np.argmin(ok))
        zs.append(z[:j])
        found += [True] * j
        others += more[:j]
        if j == len(draws):
            break
        words.pos = ends[j]
        z, ok = np.zeros((1, 4), dtype=np.int64), False
        for _ in range(63):
            one, good = words.curve(1)
            if good[0] and pr.unassigned(one)[0]:
                z, ok = one, True
                break
        zs.append(z)
        found.append(ok)
        if after:
            others.append(after())
    return np.concatenate(zs), np.array(found, dtype=bool), np.array(others, dtype=np.int64)


class AssignedPoints:
    """The one part of a probe ``_fresh_curve`` reads: ``unassigned``."""

    def __init__(self, points):
        self.points = np.array(points, dtype=np.int64).reshape(-1, 4)

    def unassigned(self, z):
        return ~(z[..., None, :] == self.points).all(axis=-1).any(axis=-1)


@pytest.mark.parametrize("p", (65537, 2**31 - 1))
def test_fresh_curve_matches_the_uncapped_rounds(p):
    # every 29th point the stream draws is taken as assigned, so rounds
    # are cut short and read again, at counts on both sides of one round
    geom = oracle.get_geometry(p, 0)
    seed = oracle.derive_seed("fresh-curve", p)
    for with_after in (False, True):
        words = oracle._Words(random.Random(seed), geom)
        drawn = oracle._fresh_curve(AssignedPoints([]), words, 1200,
                                    words.point if with_after else None)[0]
        pr = AssignedPoints(drawn[::29])
        for count in (1, oracle._CURVE_ROUND, oracle._CURVE_ROUND + 1, 1000):
            fast = oracle._Words(random.Random(seed), geom)
            slow = oracle._Words(random.Random(seed), geom)
            got = oracle._fresh_curve(pr, fast, count, fast.point if with_after else None)
            want = fresh_curve_reference(pr, slow, count, slow.point if with_after else None)
            assert len(got[1]) == count and (got[0][0] != drawn[0]).any()  # drawn again
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (with_after, count)
            assert fast.pos == slow.pos


def test_fresh_curve_draws_grow_linearly_with_the_count(monkeypatch):
    # L3(5; 2^5, 1^7) at 65537: 20,000 curve pairs want 40,000 curve
    # points, and drawing the 12 assigned points again costs at most a
    # round each; the uncapped rounds read every later draw again
    calls = []
    draw = oracle._Words.curve_draw

    def counted(words):
        calls.append(None)
        return draw(words)

    monkeypatch.setattr(oracle._Words, "curve_draw", counted)
    geom = oracle.get_geometry(65537, 0)
    pr = oracle._Probe("separation", geom, parse_class("L3(5; 2^5, 1^7)"), 20_000, None)
    pairs = oracle._curve_pairs(pr, oracle._Words(pr.rng("pair-on-curve", pr.nprobes), pr.geom))
    assert len(pairs) > 19_900
    assert 40_000 <= len(calls) < 40_000 + 20 * (oracle._CURVE_ROUND + 64)


def fibre_coordinates(p):
    """Fibres k for a block: 0, 1, 2, p - 2, p - 1, p for (1:0), and random."""
    return st.lists(st.sampled_from((0, 1, 2, p - 2, p - 1, p)) | st.integers(0, p),
                    min_size=1, max_size=12)


@SETTINGS
@given(st.sampled_from(POINT_PRIMES), st.data())
@example(oracle.PRIMES[0], None)
def test_fiber_block_matches_the_scalar_lift(p, data):
    # the block's products stay below 2^62 with every coefficient and s at
    # p - 1 or p - 2, where a product of three would pass 2^63
    geom = oracle.get_geometry(p, 0)
    if data is None:  # the largest entries
        forms = ((p - 1, p - 2, p - 1), (p - 2, p - 1, p - 2), (p - 1, p - 1, p - 2))
        ks = [p - 1, p - 2, p - 1, 0, 1, p]
    else:
        coef = st.sampled_from((0, 1, p - 2, p - 1)) | st.integers(0, p - 1)
        forms = tuple(tuple(data.draw(coef) for _ in range(3)) for _ in range(3))
        ks = data.draw(fibre_coordinates(p))
    g = dataclasses.replace(geom, forms=forms)
    a, b, c, disc, root, npts = oracle._fiber_block(g.forms, p, np.array(ks, dtype=np.int64))
    for i, k in enumerate(ks):
        abc = fiber_quadratic(g, *fibre_pair(k, p))
        assert (int(a[i]), int(b[i]), int(c[i])) == abc
        assert int(disc[i]) == (abc[1] ** 2 - 4 * abc[0] * abc[2]) % p
        expected = gfp.sqrt_mod(int(disc[i]), p)
        assert int(npts[i]) == len(fiber_points(g, *fibre_pair(k, p)))
        assert (npts[i] > 0) == (expected is not None and any(abc))
        if p % 4 == 1:  # Euler's criterion; the lift takes the root
            assert int(root[i]) == pow(int(disc[i]), (p - 1) // 2, p)
        elif expected is not None:
            assert int(root[i]) in (expected, -expected % p)


def test_curve_draws_of_the_streams_lift_every_fibre_branch():
    # the block lift against the scalar lift on the named fibres, through a
    # scripted fibre word and pick word, at both kinds of prime
    for p in (oracle.PRIMES[0], 65537):
        geom = oracle.get_geometry(p, 0)
        rng = random.Random(p)
        for name, (s, t, abc, npts) in fiber_cases(p).items():
            g = dataclasses.replace(geom, forms=forms_through(p, s, t, abc, rng))
            expected = fiber_points(g, s, t)
            for pick in range(npts):
                script = [fibre_word(g, s, t), pick << 30]
                z, ok = oracle._Words(ScriptedRandom(script, 0), g).curve(1)
                assert ok[0] and tuple(z[0].tolist()) == expected[pick], (p, name, pick)


@st.composite
def jacobian_rows(draw):
    """Two rows of length 4 of rank 0, 1 or 2."""
    p = draw(st.sampled_from(PRIMES))
    g1 = draw(vectors(p))
    kind = draw(st.sampled_from(("random", "multiple", "zero")))
    if kind == "random":
        g2 = draw(vectors(p))
    elif kind == "multiple":
        lam = draw(st.integers(0, p - 1))
        g2 = [lam * x % p for x in g1]
    else:
        g1 = [0, 0, 0, 0] if draw(st.booleans()) else g1
        g2 = [0, 0, 0, 0]
    if draw(st.booleans()):
        g1, g2 = g2, g1
    return g1, g2, p


@SETTINGS
@given(jacobian_rows())
def test_proportional_matches_rank(case):
    # two gradients are proportional exactly when the 1-row _rank_le_1
    # says so
    g1, g2, p = case
    rank = gfp.rank_mod(np.array([g1, g2], dtype=np.int64), p)
    got = oracle._rank_le_1(np.array([g1], dtype=np.int64), np.array([g2], dtype=np.int64), p)
    assert bool(got[0]) == (rank <= 1)


@SETTINGS
@given(st.sampled_from(PRIMES), st.integers(0, 4), st.data())
def test_rank_le_1_rowwise_matches_rank(p, width, data):
    n = data.draw(st.integers(1, 5))
    rows = []
    for _ in range(n):
        a = data.draw(vectors(p, width + 1))
        kind = data.draw(st.sampled_from(("random", "multiple", "zero")))
        if kind == "random":
            b = data.draw(vectors(p, width + 1))
        elif kind == "multiple":
            lam = data.draw(st.integers(0, p - 1))
            b = [lam * x % p for x in a]
        else:
            a = [0] * (width + 1) if data.draw(st.booleans()) else a
            b = [0] * (width + 1)
        if data.draw(st.booleans()):
            a, b = b, a
        rows.append((a, b))
    a = np.array([r[0] for r in rows], dtype=np.int64)
    b = np.array([r[1] for r in rows], dtype=np.int64)
    got = oracle._rank_le_1(a, b, p)
    for k, (ra, rb) in enumerate(rows):
        expected = gfp.rank_mod(np.array([ra, rb], dtype=np.int64), p) <= 1
        assert bool(got[k]) == expected
        assert oracle._rank_le_1(a[k:k + 1], b[k:k + 1], p)[0] == expected


@SETTINGS
@given(st.sampled_from(PRIMES), st.lists(st.integers(-5, 10**12), max_size=6),
       st.integers(0, 10**12), st.integers(0, 10**12), st.integers(0, 5))
def test_form_eval_matches_power_sum(p, coeffs, s, t, extra):
    n = max(len(coeffs) - 1, 0) + extra
    expected = sum(c * pow(s, i, p) * pow(t, n - i, p) for i, c in enumerate(coeffs)) % p
    assert form_eval(coeffs, s, t, n, p) == expected


# ---------------------------------------------------------------------------
# the exact kernels against integer arithmetic


def bareiss_rank_profile(mat, p):
    """Rank and pivot columns mod p by fraction-free elimination over Z.

    After k steps every entry below the pivot rows is a (k+1)-minor of the
    input, divided exactly by the previous pivot (Sylvester's identity), so
    no fraction and no inverse mod p is ever formed.  A pivot is an entry
    that is nonzero mod p: a column is skipped when every minor bordering
    the pivot minor vanishes mod p, which is the rank profile over GF(p).
    """
    a = [[int(x) for x in row] for row in mat]
    rows = len(a)
    cols = mat.shape[1]
    prev, r, pivots = 1, 0, []
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] % p), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                num = a[r][c] * a[i][j] - a[i][c] * a[r][j]
                assert num % prev == 0
                a[i][j] = num // prev
        prev = a[r][c]
        pivots.append(c)
        r += 1
    return r, pivots


@SETTINGS
@given(matrices(primes=PRIMES + (5, 7)))
def test_rref_rank_matches_bareiss(case):
    mat, p = case
    _, pivots = gfp.rref_mod(mat.copy(), p)
    rank, bareiss_pivots = bareiss_rank_profile(mat, p)
    assert len(pivots) == gfp.rank_mod(mat, p) == rank
    assert pivots == bareiss_pivots


MATMUL_PRIMES = oracle.PRIMES + (65537,)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(MATMUL_PRIMES),
    st.integers(1, 3), st.sampled_from((1, 2, 84, 969, 2**15)) | st.integers(1, 969),
    st.integers(1, 3), st.integers(0, 2**32 - 1),
)
def test_matmul_mod_matches_big_integers(p, rows, inner, cols, seed):
    # entries just below 2^31 (also at and above p = 2^31 - 1), and inner
    # dimensions up to the 969 monomials of degree 16 and the 2^15 limit
    rng = np.random.default_rng(seed)
    a = rng.integers(2**31 - 2**12, 2**31, size=(rows, inner), dtype=np.int64)
    b = rng.integers(2**31 - 2**12, 2**31, size=(inner, cols), dtype=np.int64)
    small = rng.random(b.shape) < 0.2
    b[small] = rng.integers(0, 4, size=int(small.sum()))
    got = gfp.matmul_mod(a, b, p)
    ai, bi = a.tolist(), b.tolist()
    expected = [
        [sum(ai[i][k] * bi[k][j] for k in range(inner)) % p for j in range(cols)]
        for i in range(rows)
    ]
    assert got.dtype == np.int64
    assert got.tolist() == expected


def matmul_reference(a, b, p):
    """(a @ b) % p in Python integers."""
    bt = list(zip(*b.tolist()))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a.tolist()]


def test_matmul_mod_exact_at_the_float_boundary():
    # inner dimensions 63 and 64 go through float64, 65 through int64.  With
    # every entry p - 1 each dot product sits just under 2^53 at 64; with the
    # odd entries p - 2 the sum at 65 is odd and above 2^53, so float64
    # would round it
    p = 2**31 - 1
    rng = np.random.default_rng(0)
    for inner in (63, 64, 65):
        for rows, cols in ((1, 1), (1, 7), (7, 1), (5, 9)):
            for a, b in (
                (np.full((rows, inner), p - 1), np.full((inner, cols), p - 1)),
                (np.full((rows, inner), p - 2), np.full((inner, cols), p - 2)),
                (rng.integers(p - 2**16, p, size=(rows, inner)),
                 rng.integers(p - 2**16, p, size=(inner, cols))),
            ):
                got = gfp.matmul_mod(a, b, p)
                assert got.dtype == np.int64
                assert got.tolist() == matmul_reference(a, b, p), (inner, rows, cols)


# the entries reduce_mod meets: any int64, the magnitudes up to 2^62, and
# gfp.product's values, below 2^47 times one more than the inner dimension
# (at most 969 monomials in the oracle, 2^15 in matmul_mod)
INT64_ENTRIES = (st.integers(-2**63, 2**63 - 1) | st.integers(-2**62, 2**62)
                 | st.integers(0, 970 * 2**47) | st.integers(0, (2**15 + 1) * 2**47 - 1)
                 | st.integers(-2**31, 2**31))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(MATMUL_PRIMES),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=9), elements=INT64_ENTRIES),
)
def test_reduce_mod_matches_remainder(p, x):
    expected = x % p
    got = gfp.reduce_mod(x, p)
    assert got is x
    assert np.array_equal(x, expected)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(MATMUL_PRIMES),
    hnp.arrays(np.int64, st.tuples(st.integers(1, 5), st.integers(1, 9), st.integers(2, 30)),
               elements=INT64_ENTRIES),
    st.data(),
)
def test_reduce_mod_on_a_strided_panel_in_place(p, x, data):
    # a column panel of a stack, as rref_mod reduces its blocks and updates:
    # the view is reduced in place and the entries around it stay as they were
    c0 = data.draw(st.integers(0, x.shape[-1] - 1))
    c1 = data.draw(st.integers(c0 + 1, x.shape[-1]))
    rows = data.draw(st.integers(0, x.shape[1] - 1))
    expected = x.copy()
    expected[:, rows:, c0:c1] %= p
    view = x[:, rows:, c0:c1]
    assert gfp.reduce_mod(view, p) is view
    assert np.array_equal(x, expected)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(MATMUL_PRIMES),
    st.integers(1, 3), st.sampled_from((1, 64, 65, 969)) | st.integers(1, 100),
    st.integers(1, 3), st.integers(0, 2**32 - 1),
)
def test_matmul_mod_reduces_negative_and_unreduced_factors(p, rows, inner, cols, seed):
    # matmul_mod reduces both factors itself: any int64 entries, on both
    # sides of the float64 route
    rng = np.random.default_rng(seed)
    a = rng.integers(-2**62, 2**62, size=(rows, inner), dtype=np.int64)
    b = rng.integers(-2**62, 2**62, size=(inner, cols), dtype=np.int64)
    b[rng.random(b.shape) < 0.2] = -1
    a[0, 0], b[0, 0] = -2**63, 2**63 - 1
    got = gfp.matmul_mod(a, b, p)
    assert got.dtype == np.int64
    assert got.tolist() == matmul_reference(a, b, p)


# ---------------------------------------------------------------------------
# the panel elimination against Gauss-Jordan in Python integers

PANEL_PRIMES = (65537, 1000003, 2**31 - 1)
PANEL = gfp._PANEL
# one column short of a panel, one panel, one column over, two panels and one
PANEL_COLS = (PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 1)
PANEL_KINDS = ("random", "thin-product", "duplicated-rows", "tall", "zero-panel", "zero",
               "p-1")
# the 12 classes of the benchmark's oracle workload
ORACLE_WORKLOAD_CLASSES = (
    "L3(5; 2^5, 1^7)", "L3(4; 1^8)", "L3(6; 3, 2^6, 1^4)", "L3(9; 4, 3^6, 2^4)",
    "L3(3; 1^10)", "L3(8; 3^10)", "L3(7; 2^13)", "L3(2; 1^7)", "L3(4; 2, 1^13)",
    "L3(8; 3^10, 1)", "L3(10; 3^13)", "L3(8; 3^12)",
)


def rref_reference(mat, p):
    """Gauss-Jordan in Python integers, each pivot row swapped up."""
    a = [[x % p for x in row] for row in mat.tolist()]
    r, pivots = 0, []
    for c in range(mat.shape[1]):
        if r == len(a):
            break
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        prow = a[r] = [x * inv % p for x in a[r]]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and f:
                a[i] = [(x - f * y) % p for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
    return a, pivots


def panel_matrix(kind, rows, cols, p, rng):
    """A matrix of one kind: random entries, a product of thin factors (rank
    at most 5), rows repeated with scalings, more rows than columns, a whole
    panel of zero columns, zero, or entries p - 1 and 0 only."""
    def entries(r, c):
        small = rng.random((r, c)) < 0.3
        return np.where(small, rng.integers(0, 3, size=(r, c)), rng.integers(0, p, size=(r, c)))

    if kind == "thin-product":
        k = int(rng.integers(0, 6))
        return gfp.matmul_mod(entries(rows, k), entries(k, cols), p)
    if kind == "duplicated-rows":
        base = entries(int(rng.integers(1, rows + 1)), cols)
        picks = rng.integers(0, len(base), size=rows)
        return base[picks] * rng.integers(1, p, size=(rows, 1)) % p
    if kind == "tall":
        return entries(max(rows, cols + 1 + int(rng.integers(0, 8))), cols)
    if kind == "zero-panel":
        mat = entries(rows, cols)
        start = PANEL * int(rng.integers(0, cols // PANEL + 1))
        mat[:, start:start + PANEL] = 0
        return mat
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "p-1":
        return np.where(rng.random((rows, cols)) < 0.8, p - 1, 0)
    return entries(rows, cols)


def check_rref(mat, p):
    """rref_mod equals the reference, as an int64 array reduced in place."""
    work = mat.copy()
    red, pivots = gfp.rref_mod(work, p)
    expected, expected_pivots = rref_reference(mat, p)
    assert red is work
    assert red.dtype == np.int64 and red.shape == mat.shape
    assert pivots == expected_pivots
    assert red.tolist() == expected


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PANEL_PRIMES), st.sampled_from(PANEL_KINDS), st.integers(1, 80),
       st.sampled_from(PANEL_COLS), st.integers(0, 2**32 - 1))
def test_rref_mod_matches_gauss_jordan_across_panels(p, kind, rows, cols, seed):
    mat = panel_matrix(kind, rows, cols, p, np.random.default_rng(seed))
    check_rref(np.asarray(mat, dtype=np.int64), p)


def test_rref_mod_panel_boundaries_named_cases():
    # every kind and column count at the row counts around one panel and at
    # 80 rows, where the trailing columns take a product after each panel
    for i, (kind, cols, rows) in enumerate(
            (k, c, r) for k in PANEL_KINDS for c in PANEL_COLS
            for r in (1, PANEL, PANEL + 1, 80)):
        p = PANEL_PRIMES[i % len(PANEL_PRIMES)]
        mat = panel_matrix(kind, rows, cols, p, np.random.default_rng(i))
        check_rref(np.asarray(mat, dtype=np.int64), p)


def test_rref_mod_on_the_oracle_workload_condition_matrices():
    # the real condition matrices, up to 130 x 286 for L3(10; 3^13)
    for txt in ORACLE_WORKLOAD_CLASSES:
        c = parse_class(txt).normalized()
        geom = oracle.get_geometry(oracle.PRIMES[0], 0, max(oracle.DEFAULT_POINTS, c.r))
        check_rref(oracle.conditions_matrix(geom, c), geom.prime)


# ---------------------------------------------------------------------------
# stacked elimination against layer by layer

STACK_PRIMES = oracle.PRIMES + (65537,)
STACK_DEFECTS = ("none", "zeroed", "duplicated")


def stack_matrix(kind, defect, layers, rows, cols, p, rng):
    """A (layers, rows, cols) stack of independent ``panel_matrix`` layers,
    or of layers with nonzero entries only.

    The defects make one layer pivot apart from the others: "zeroed"
    zeroes the first layer's first row, so its first column pivots on a
    later row than theirs or not at all, and "duplicated" writes a multiple
    of the last layer's first row over its second, so that row drops out
    of the second column's pivot.
    """
    if kind == "tall":  # one row count for every layer
        kind, rows = "random", max(rows, cols + 1 + int(rng.integers(0, 8)))
    if kind == "nonzero":  # layers that pivot alike
        stack = rng.integers(1, p, size=(layers, rows, cols))
    else:
        stack = np.stack([np.asarray(panel_matrix(kind, rows, cols, p, rng), dtype=np.int64)
                          for _ in range(layers)])
    if defect == "zeroed":
        stack[0, 0] = 0
    elif defect == "duplicated" and rows > 1:
        stack[-1, 1] = stack[-1, 0] * int(rng.integers(1, p)) % p
    return stack


def pivot_steps(mat, p):
    """The (row, column) of each pivot of Gauss-Jordan without row swaps,
    each pivot taken in the first unused row with a nonzero entry."""
    a = np.asarray(mat, dtype=np.int64) % p
    used = np.zeros(len(a), dtype=bool)
    steps = []
    for c in range(a.shape[1]):
        candidates = np.flatnonzero((a[:, c] != 0) & ~used)
        if candidates.size == 0:
            continue
        r = int(candidates[0])
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        factors = a[:, c].copy()
        factors[r] = 0
        a = (a - factors[:, None] * a[r]) % p
        used[r] = True
        steps.append((r, c))
    return steps


def check_stacked_rref(stack, p):
    """rref_mod of a stack is None exactly when two layers pivot on
    different rows or columns; otherwise it reduces the stack in place, and
    each layer and its kernel equal those of rref_mod on the layer alone."""
    work = stack.copy()
    reduced = gfp.rref_mod(work, p)
    steps = [pivot_steps(layer, p) for layer in stack]
    assert (reduced is None) == any(s != steps[0] for s in steps)
    if reduced is None:
        return None
    red, pivots = reduced
    assert red is work
    assert pivots == [c for _, c in steps[0]]
    basis = gfp.kernel_from_rref(red, pivots, p)
    for layer, layer_red, layer_basis in zip(stack, red, basis):
        expected, expected_pivots = gfp.rref_mod(layer.copy(), p)
        assert expected_pivots == pivots
        assert np.array_equal(layer_red, expected)
        assert np.array_equal(layer_basis, gfp.kernel_from_rref(expected, pivots, p))
    return pivots


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(STACK_PRIMES), st.sampled_from(PANEL_KINDS + ("nonzero",)),
       st.sampled_from(STACK_DEFECTS), st.integers(1, 4), st.integers(1, 60),
       st.sampled_from((5,) + PANEL_COLS), st.integers(0, 2**32 - 1))
def test_stacked_rref_mod_matches_each_layer(p, kind, defect, layers, rows, cols, seed):
    stack = stack_matrix(kind, defect, layers, rows, cols, p, np.random.default_rng(seed))
    check_stacked_rref(stack, p)


def test_stacked_rref_mod_named_cases():
    # stacks on both sides of one panel of rows, alike and made to pivot
    # apart; only the latter are reported as pivoting apart
    for i, (defect, rows, cols) in enumerate(
            (d, r, c) for d in STACK_DEFECTS for r in (3, PANEL, PANEL + 1, 60)
            for c in (5, PANEL + 1, 2 * PANEL + 1)):
        p = STACK_PRIMES[i % len(STACK_PRIMES)]
        stack = stack_matrix("nonzero", defect, 3, rows, cols, p, np.random.default_rng(i))
        pivots = check_stacked_rref(stack, p)
        assert (pivots is None) == (defect != "none"), (defect, rows, cols)
    # a short stack whose layers pivot apart only in the second panel:
    # rows 3 to 5 are zero in the first panel, and the first layer's row 3
    # in the second too, so its free row 4 pivots where the others' row 3
    # does, after the first panel's trailing product
    p = STACK_PRIMES[0]
    alike = np.random.default_rng(len(STACK_DEFECTS)).integers(1, p, size=(3, 6, 2 * PANEL + 1))
    alike[:, 3:, :PANEL] = 0
    apart = alike.copy()
    apart[0, 3, PANEL:2 * PANEL] = 0
    assert check_stacked_rref(alike, p) == list(range(3)) + list(range(PANEL, PANEL + 3))
    assert check_stacked_rref(apart, p) is None
    check_rref(apart[0], p)
    # a first layer with no pivot at all where the others have one
    empty_first = stack_matrix("nonzero", "zeroed", 3, 1, 5, p, np.random.default_rng(0))
    assert check_stacked_rref(empty_first, p) is None


FREE_ROW_PRIMES = (65537, 2**31 - 1)


@pytest.mark.parametrize("p", FREE_ROW_PRIMES)
def test_rref_mod_earlier_pivot_rows_with_entries_in_later_panels(p):
    # [[A, B], [0, C]] with A invertible: the first panel pivots on the top
    # rows, whose entries in B every later panel's product must clear
    rng = np.random.default_rng(p)
    for top, low, cols in ((PANEL, PANEL + 7, 3 * PANEL + 1), (PANEL, 2 * PANEL, 2 * PANEL)):
        upper = np.triu(rng.integers(1, p, size=(top, top)))
        mat = np.zeros((top + low, cols), dtype=np.int64)
        mat[:top, :top] = upper
        mat[:top, top:] = rng.integers(0, p, size=(top, cols - top))
        mat[top:, top:] = rng.integers(0, p, size=(low, cols - top))
        assert (mat[:top, top:] != 0).any(axis=1).all()
        check_rref(mat, p)
        layers = np.stack([mat, (mat * 3) % p, (mat * (p - 1)) % p])
        assert check_stacked_rref(layers, p) is not None


@pytest.mark.parametrize("p", FREE_ROW_PRIMES)
def test_rref_mod_zero_rows_between_pivot_rows(p):
    # every third row a combination of the two above it, across three
    # panels of rows: the zero rows end below the pivot rows in their first
    # order, in a single matrix and in a stack of layers alike
    rng = np.random.default_rng(p + 1)
    for rows, cols in ((3 * PANEL, 2 * PANEL + 5), (2 * PANEL + 3, 3 * PANEL)):
        layers = []
        for _ in range(3):
            mat = rng.integers(0, p, size=(rows, cols))
            for r in range(2, rows, 3):
                a, b = (int(x) for x in rng.integers(0, p, size=2))
                mat[r] = (a * mat[r - 2] + b * mat[r - 1]) % p
            check_rref(mat, p)
            layers.append(mat)
        pivots = check_stacked_rref(np.stack(layers), p)
        assert pivots is not None and len(pivots) == rows - rows // 3


@pytest.mark.parametrize("p", FREE_ROW_PRIMES)
def test_rref_mod_five_layers_pivot_apart_in_a_later_panel(p):
    # the five layers agree on the first panel; one of them has a row that
    # drops out of its pivot in the second panel, and another one that
    # drops out only in the third
    rng = np.random.default_rng(p + 2)
    rows, cols = 2 * PANEL + 10, 3 * PANEL + 2
    for layer, row in ((3, PANEL + 5), (1, 2 * PANEL + 4)):
        stack = rng.integers(1, p, size=(5, rows, cols))
        stack[layer, row] = (7 * stack[layer, 0] + 11 * stack[layer, row - 1]) % p
        assert check_stacked_rref(stack, p) is None
        assert gfp.rref_mod(stack.copy(), p) is None
        for single in stack:
            check_rref(single, p)


@SETTINGS
@given(st.sampled_from(MATMUL_PRIMES), st.integers(1, 6), st.integers(1, 8), st.data())
def test_vanishing_at_matches_kernel_mod(p, h0, n_cols, data):
    # the conjugate hunt's closed form against the kernel of the 1 x h0 row
    # w times the basis, on nonzero rows with up to h0 - 1 leading zeros
    lead = data.draw(st.integers(0, h0 - 1))
    w = [0] * lead + [data.draw(st.integers(1, p - 1))] + data.draw(vectors(p, h0 - lead - 1))
    w = np.array(w, dtype=np.int64)
    kernel = np.array(data.draw(st.lists(vectors(p, n_cols), min_size=h0, max_size=h0)),
                      dtype=np.int64)
    expected = gfp.matmul_mod(gfp.kernel_mod(w.reshape(1, -1), p), kernel, p)
    got = oracle._vanishing_at(kernel, w, p)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape == (h0 - 1, n_cols)
    assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# solves on a warm geometry against a fresh elimination

WARM_PRIME = P


def fresh_solve(geom, c):
    """Rank and kernel of the full condition matrix, eliminated from scratch."""
    red, pivots = gfp.rref_mod(oracle.conditions_matrix(geom, c), geom.prime)
    return len(pivots), gfp.kernel_from_rref(red, pivots, geom.prime)


def solve_walk(npoints, walk):
    """Solve the classes one after another on one warm geometry; check each."""
    geom = oracle.get_geometry(WARM_PRIME, 0, npoints)
    out = []
    for d, mults in walk:
        c = ThreefoldClass(d, mults)
        sysd = oracle.solve_system(geom, c)
        rank, kernel = fresh_solve(geom, c)
        assert sysd.rank == rank, (d, mults)
        assert sysd.h0 == kernel.shape[0] == sysd.n_cols - rank, (d, mults)
        assert sysd.kernel.dtype == kernel.dtype
        assert np.array_equal(sysd.kernel, kernel), (d, mults)
        out.append(sysd)
    return out


@st.composite
def class_walks(draw):
    """A geometry size and a sequence of classes, each a move from the last:
    the same class, a superset, a subset, another degree, or any class."""
    npoints = draw(st.sampled_from((16, 20)))
    mult = st.integers(1, 3)

    def any_class():
        return draw(st.integers(0, 6)), draw(st.lists(mult, max_size=npoints))

    d, ms = any_class()
    walk = [(d, tuple(ms))]
    for _ in range(draw(st.integers(1, 8))):
        move = draw(st.sampled_from(("same", "superset", "subset", "degree", "any")))
        ms = sorted(ms, reverse=True)
        if move == "superset":
            if ms and (len(ms) == npoints or draw(st.booleans())):
                i = draw(st.integers(0, len(ms) - 1))
                ms[i] = min(ms[i] + 1, oracle.MAX_MULT)
            else:
                ms.append(draw(mult))
        elif move == "subset" and ms:
            i = draw(st.integers(0, len(ms) - 1))
            ms[i] -= 1
            ms = [m for m in ms if m]
        elif move == "degree":
            d = draw(st.integers(0, 6))
        elif move == "any":
            d, ms = any_class()
        walk.append((d, tuple(ms)))
    return npoints, walk


@settings(max_examples=40, deadline=None)
@given(class_walks())
def test_warm_solves_match_fresh_elimination(case):
    solve_walk(*case)


# each move the memo must get right, in one walk on one geometry
NAMED_MOVES = [
    (3, (2, 1, 1)),
    (3, (2, 1, 1)),        # the same class twice: no new row
    (3, (2, 2, 1, 1, 1)),  # a superset: only the extra rows
    (3, (2, 1)),           # a subset: from scratch
    (4, (2, 1)),           # another degree: from scratch
    (1, (1,) * 5),         # no form left
    (1, (2,) + (1,) * 4),  # extends a full-rank predecessor
    (1, ()),               # r = 0: every monomial is free
    (1, (1,)),             # extends the identity kernel
    (6, (3,) * 10),
    (6, (3,) * 10 + (1,)),
    (oracle.MAX_DEGREE, (oracle.MAX_MULT,) * 2),  # the caps
    (oracle.MAX_DEGREE, (oracle.MAX_MULT,) * 2 + (4,)),
]
# r > 16 needs a larger geometry
BIG_MOVES = [
    (3, (1,) * 16),
    (3, (1,) * 18),
    (3, (2,) * 2 + (1,) * 18),
    (4, (2,) * 17),
]


def test_warm_solves_named_moves():
    sysd = solve_walk(16, NAMED_MOVES)
    assert sysd[5].h0 == 0 and sysd[6].h0 == 0
    assert sysd[7].h0 == 4 and sysd[8].h0 == 3
    big = solve_walk(20, BIG_MOVES)
    assert [s.clazz.r for s in big] == [16, 18, 20, 17]


# ---------------------------------------------------------------------------
# the stacked dimension pass against per-geometry solves


def fresh_system(prime, seed, c):
    """``solve_system`` on a geometry built afresh: a cold memo, a stack of one."""
    return oracle.solve_system(oracle.build_geometry(prime, seed, max(oracle.DEFAULT_POINTS, c.r)), c)


def check_kept(solution, layer, kernel, why=None):
    """A kept solve holds ``kernel`` on its layer: its int32 block, shape
    (layers, h0, N - h0), is the kernel's pivot columns, and the kernel is
    identity on the free columns."""
    h0, n_cols = kernel.shape
    columns = np.sort(np.concatenate([solution.free, solution.pivots]))
    assert solution.block.dtype == np.int32, why
    assert solution.block.shape == (solution.block.shape[0], h0, n_cols - h0), why
    assert np.array_equal(columns, np.arange(n_cols)), why
    assert np.array_equal(kernel[:, solution.free], np.eye(h0, dtype=np.int64)), why
    assert np.array_equal(kernel[:, solution.pivots], solution.block[layer]), why


def check_battery(c, primes, seeds):
    """``run_battery``'s trials, and the solve it leaves on each geometry,
    equal ``solve_system`` on fresh geometries, one at a time."""
    report = oracle.run_battery(c, primes=primes, seeds=seeds)
    expected = []
    for prime in primes:
        for seed in seeds:
            sysd = fresh_system(prime, seed, c)
            expected.append(oracle.TrialResult(prime, seed, sysd.dim, sysd.h0, sysd.h1, sysd.rank,
                                               sysd.n_rows, sysd.n_cols))
            geom = oracle.get_geometry(prime, seed, max(oracle.DEFAULT_POINTS, c.r))
            solution, layer = oracle._workspace(geom).last
            check_kept(solution, layer, sysd.kernel, (c, prime, seed))
    assert report.trials == tuple(expected), c
    return report


def test_battery_solves_named_moves():
    oracle.get_geometry.cache_clear()
    for d, mults in NAMED_MOVES + BIG_MOVES:
        check_battery(ThreefoldClass(d, mults), (WARM_PRIME,), (0, 1, 2))


def test_battery_solves_after_mixed_memos():
    # a stack whose memos are not the layers of one solve, in order, starts
    # from scratch, also when they hold the same class from different solves
    oracle.get_geometry.cache_clear()
    first, other, grown = (parse_class(txt) for txt in (
        "L3(4; 2, 1^5)", "L3(4; 3, 1^2)", "L3(4; 2^2, 1^6)"))
    seeds = (0, 1, 2)
    geoms = [oracle.get_geometry(WARM_PRIME, seed, oracle.DEFAULT_POINTS) for seed in seeds]

    def memos():
        return [oracle._workspace(g).last[0] for g in geoms]

    check_battery(first, (WARM_PRIME,), seeds)
    oracle.solve_system(geoms[1], other)  # one layer's memo holds another class
    assert [m.mults for m in memos()] == [first.mults, other.mults, first.mults]
    check_battery(grown, (WARM_PRIME,), seeds)
    check_battery(first, (WARM_PRIME,), seeds)
    oracle.solve_system(geoms[1], other)
    oracle.solve_system(geoms[1], first)  # the same class, from a stack of one
    outer, middle, _ = memos()
    assert middle is not outer and middle.mults == outer.mults
    check_battery(grown, (WARM_PRIME,), seeds)
    # every memo a layer of one stack, but the seeds in another order
    check_battery(first, (WARM_PRIME,), seeds)
    check_battery(grown, (WARM_PRIME,), seeds[::-1])


def spy_done(monkeypatch):
    """The ``done`` multiplicities of every ``_rows`` call from here on:
    () for a stack that starts from scratch, the memo's class for one that
    extends it."""
    done = []
    rows = oracle._rows

    def spy(geoms, d, done_mults, mults):
        done.append(done_mults)
        return rows(geoms, d, done_mults, mults)

    monkeypatch.setattr(oracle, "_rows", spy)
    return done


def test_stack_of_one_extends_the_first_layer_of_a_deeper_stack(monkeypatch):
    # the probe pass's stack of one on seed 0 after the dimension pass's
    # five seeds: the memo is layer 0 of a deeper solve
    oracle.get_geometry.cache_clear()
    first, grown = parse_class("L3(4; 2, 1^5)"), parse_class("L3(4; 2^2, 1^6)")
    expected = [fresh_system(WARM_PRIME, 0, c).kernel for c in (first, grown)]
    oracle.run_battery(first, primes=(WARM_PRIME,), seeds=oracle.DEFAULT_SEEDS)
    geom = oracle.get_geometry(WARM_PRIME, 0)
    solution, layer = oracle._workspace(geom).last
    assert layer == 0 and len(solution.block) == len(oracle.DEFAULT_SEEDS)
    done = spy_done(monkeypatch)
    hit = oracle.solve_system(geom, first)
    assert hit.solution is solution and hit.layer == 0
    extended = oracle.solve_system(geom, grown)
    assert done == [first.mults]  # the hit reads no rows, the extension its own
    for sysd, kernel in zip((hit, extended), expected):
        assert np.array_equal(sysd.kernel, kernel), sysd.clazz


def test_probe_pass_solve_is_a_memo_hit_without_rows(monkeypatch):
    # run_battery(c, seeds=(0,)) after run_battery(c), as a sweep's probe
    # pass follows its dimension pass: each prime's stack of one is layer 0
    # of the dimension pass's stack, of the same class, so _kernels returns
    # that solve and layer as they are, before reading any row
    oracle.get_geometry.cache_clear()
    c = parse_class("L3(4; 2, 1^5)")
    oracle.run_battery(c)
    layer0 = {}
    for prime in oracle.PRIMES:
        solution, layer = oracle._workspace(oracle.get_geometry(prime, 0)).last
        assert layer == 0 and len(solution.block) == len(oracle.DEFAULT_SEEDS)
        layer0[prime] = solution
    done = spy_done(monkeypatch)
    returned = []
    kernels = oracle._kernels

    def spy(geoms, clazz):
        out = kernels(geoms, clazz)
        returned.append((geoms[0].prime, out))
        return out

    monkeypatch.setattr(oracle, "_kernels", spy)
    report = oracle.run_battery(c, seeds=(0,))
    assert done == []
    assert [prime for prime, _ in returned] == list(oracle.PRIMES)
    for prime, out in returned:
        assert len(out) == 1 and out[0][0] is layer0[prime] and out[0][1] == 0
    assert [t.h0 for t in report.trials] == [layer0[prime].free.size for prime in oracle.PRIMES]


def test_extension_product_past_the_float_route(monkeypatch):
    # L3(8; 3^7) leaves a memo with 70 pivot columns of the 165 monomials,
    # so the next class's product B K^T has an inner dimension above 64 and
    # takes gfp.product's int64 route.  At p = 2^31 - 1 its unreduced sum
    # with B's free columns reaches about 2^53 before rref_mod reduces it
    oracle.get_geometry.cache_clear()
    first, grown = parse_class("L3(8; 3^7)"), parse_class("L3(8; 3^7, 2^2)")
    primes, seeds = oracle.PRIMES[:1], (0, 1, 2)
    check_battery(first, primes, seeds)
    memo = oracle._workspace(oracle.get_geometry(primes[0], 0)).last[0]
    assert memo.mults == first.mults and memo.pivots.size == 70 > gfp._FLOAT_INNER
    inner = []
    product = gfp.product

    def spy(a, b, p):
        inner.append(a.shape[-1])
        return product(a, b, p)

    monkeypatch.setattr(gfp, "product", spy)
    oracle.run_battery(grown, primes=primes, seeds=seeds)
    assert inner[0] == 70
    check_battery(grown, primes, seeds)


def test_stack_with_memos_from_different_solves_starts_from_scratch(monkeypatch):
    first, grown = parse_class("L3(4; 2, 1^5)"), parse_class("L3(4; 2^2, 1^6)")
    seeds = (0, 1, 2)
    expected = [fresh_system(WARM_PRIME, seed, grown) for seed in seeds]

    def one_by_one(geoms, extra):
        for g in geoms:
            oracle.solve_system(g, first)

    def in_another_order(geoms, extra):
        oracle._solve(geoms[::-1], first)

    def not_from_layer_0(geoms, extra):
        oracle._solve([extra] + geoms, first)

    done = spy_done(monkeypatch)
    for memos in (one_by_one, in_another_order, not_from_layer_0):
        geoms = [oracle.build_geometry(WARM_PRIME, seed) for seed in seeds]
        memos(geoms, oracle.build_geometry(WARM_PRIME, 3))
        assert all(oracle._workspace(g).last[0].mults == first.mults for g in geoms)
        done.clear()
        systems = oracle._solve(geoms, grown)
        assert done == [()], memos.__name__
        for got, want in zip(systems, expected):
            assert (got.h0, got.rank) == (want.h0, want.rank), memos.__name__
            assert np.array_equal(got.kernel, want.kernel), memos.__name__


def test_battery_solves_repeated_seeds_and_primes():
    oracle.get_geometry.cache_clear()
    for txt in ("L3(3; 2, 1^4)", "L3(3; 2, 1^4)", "L3(3; 2^2, 1^5)", "L3(5; 3, 2^3)"):
        report = check_battery(parse_class(txt), (WARM_PRIME, WARM_PRIME), (0, 0))
        assert len(report.trials) == 4


def test_battery_solves_at_prime_one_mod_four():
    oracle.get_geometry.cache_clear()
    for d, mults in NAMED_MOVES[:9]:
        check_battery(ThreefoldClass(d, mults), (65537,), (0, 1, 2))


def test_stack_with_layers_pivoting_apart_solves_them_one_by_one(monkeypatch):
    # a geometry whose first point is sampled twice has conditions that
    # pivot apart from a proper one's; the stack falls back to stacks of one
    stacks = []
    kernels = oracle._kernels

    def spy(geoms, c):
        stacks.append(len(geoms))
        return kernels(geoms, c)

    monkeypatch.setattr(oracle, "_kernels", spy)

    def pair():
        g = oracle.build_geometry(WARM_PRIME, 0)
        return g, dataclasses.replace(g, points=(g.points[0],) + g.points[:-1])

    for first, grown in (("L3(3; 2, 1^4)", "L3(3; 2^2, 1^5)"), ("L3(4; 2^3)", "L3(4; 3, 2^3)")):
        geoms = pair()
        for txt in (first, grown):
            # the grown class finds memos from two stacks of one, and
            # starts from scratch
            c = parse_class(txt)
            stacks.clear()
            systems = oracle._solve(geoms, c)
            assert stacks == [2, 1, 1], txt
            fresh = [oracle.solve_system(g, c) for g in pair()]
            for got, want in zip(systems, fresh):
                assert (got.h0, got.rank) == (want.h0, want.rank), txt
                assert np.array_equal(got.kernel, want.kernel), txt


# ---------------------------------------------------------------------------
# extensions from the solves kept in the workspaces

HISTORY_PRIMES = (65537,) + oracle.PRIMES


def check_stack(geoms, c, done=None):
    """``_solve`` on the stack equals ``solve_system`` on fresh geometries;
    ``done``, when given, is left holding the ``_rows`` calls of the stack
    alone."""
    wanted = [fresh_system(geom.prime, geom.seed, c) for geom in geoms]
    if done is not None:
        done.clear()
    systems = oracle._solve(geoms, c)
    for geom, got, want in zip(geoms, systems, wanted):
        assert (got.h0, got.rank) == (want.h0, want.rank), (c, geom.seed)
        assert got.kernel.dtype == want.kernel.dtype, (c, geom.seed)
        assert np.array_equal(got.kernel, want.kernel), (c, geom.seed)
    return systems


@st.composite
def history_walks(draw):
    """A prime, a stack of 1-5 fresh geometries and a walk of classes of
    one degree, up to 12 points of multiplicity at most 3: each class is
    drawn afresh or grown from one solved 1-12 steps before, so its best
    base lies anywhere in the history, or past it."""
    prime = draw(st.sampled_from(HISTORY_PRIMES))
    seeds = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
    d = draw(st.integers(1, 5))
    mult = st.integers(1, 3)
    walk = [draw(st.lists(mult, max_size=12))]
    for _ in range(draw(st.integers(1, 14))):
        if draw(st.booleans()):
            ms = list(walk[-draw(st.integers(1, min(12, len(walk))))])
            for _ in range(draw(st.integers(0, 3))):
                if ms and (len(ms) == 12 or draw(st.booleans())):
                    i = draw(st.integers(0, len(ms) - 1))
                    ms[i] = min(ms[i] + 1, 3)
                else:
                    ms.append(draw(mult))
        else:
            ms = draw(st.lists(mult, max_size=12))
        walk.append(ms)
    return prime, seeds, d, [tuple(sorted(ms, reverse=True)) for ms in walk]


@settings(max_examples=40, deadline=None)
@given(history_walks())
def test_history_walks_match_fresh_geometries(case):
    prime, seeds, d, walk = case
    geoms = [oracle.build_geometry(prime, seed) for seed in seeds]
    for mults in walk:
        check_stack(geoms, ThreefoldClass(d, mults))


def test_history_base_back_and_evicted(monkeypatch):
    # the base L3(4; 2, 1) solved `back` solves before L3(4; 2^2, 1), with
    # classes of another degree between: extended while it is one of the
    # last _HISTORY solves, from scratch once it has been evicted
    base, grown = ThreefoldClass(4, (2, 1)), ThreefoldClass(4, (2, 2, 1))
    done = spy_done(monkeypatch)
    for back in range(2, oracle._HISTORY + 3):
        geoms = [oracle.build_geometry(WARM_PRIME, seed) for seed in (0, 1, 2)]
        check_stack(geoms, base)
        for i in range(back - 1):
            check_stack(geoms, ThreefoldClass(3, (1,) * i))
        check_stack(geoms, grown, done)
        assert done == [base.mults if back <= oracle._HISTORY else ()], back


def test_history_picks_the_base_with_the_most_rows(monkeypatch):
    geoms = [oracle.build_geometry(WARM_PRIME, seed) for seed in (0, 1)]
    done = spy_done(monkeypatch)
    for mults in ((2, 2, 2), (3, 1, 1), (2, 1), (1, 1, 1), (5,), (4, 4)):
        check_stack(geoms, ThreefoldClass(4, mults))
    # (2, 2, 2) and (3, 1, 1) hold 12 rows each: the newer one is taken
    check_stack(geoms, ThreefoldClass(4, (3, 2, 2, 1)), done)
    assert done == [(3, 1, 1)]
    # an empty kernel, (5,), over more rows, (4, 4) with 5 forms left
    systems = check_stack(geoms, ThreefoldClass(4, (5, 4)), done)
    assert done == [(5,)] and systems[0].h0 == 0
    # the most rows: (3, 2, 2, 1) has 17; this ninth solve then evicts (2, 2, 2)
    check_stack(geoms, ThreefoldClass(4, (3, 3, 2, 1, 1)), done)
    assert done == [(3, 2, 2, 1)]
    assert [s.mults for s, _ in oracle._workspace(geoms[1]).solves][:2] == [(3, 1, 1), (2, 1)]


def test_stack_of_one_after_a_deeper_stack_and_back(monkeypatch):
    # a stack of one on the first geometry extends layer 0 of a deeper
    # solve, which stays kept on all three; the deeper stack then extends
    # that solve with no row to add, and solving the class again is a memo hit
    geoms = [oracle.build_geometry(WARM_PRIME, seed) for seed in (0, 1, 2)]
    first = ThreefoldClass(4, (2, 1, 1))
    kernels = [s.kernel for s in check_stack(geoms, first)]
    solution = oracle._workspace(geoms[0]).last[0]
    done = spy_done(monkeypatch)
    check_stack(geoms[:1], ThreefoldClass(4, (2, 2, 1, 1)), done)
    assert done == [first.mults]
    assert oracle._workspace(geoms[0]).last[0] is not solution
    assert oracle._workspace(geoms[1]).last[0] is solution
    for layer, (geom, kernel) in enumerate(zip(geoms, kernels)):
        assert (solution, layer) in oracle._workspace(geom).solves
        check_kept(solution, layer, kernel, layer)
    check_stack(geoms, first, done)
    assert done == [first.mults]
    check_stack(geoms, first, done)
    assert done == []
    # a stack whose first geometry never saw the solve starts from scratch
    check_stack(geoms[1:], ThreefoldClass(4, (2, 2, 1, 1)), done)
    assert done == [()]


def test_kept_solves_hold_int32_pivot_columns():
    # every solve, the newest on each geometry too, keeps only its kernels'
    # pivot columns, as int32 of shape (layers, h0, N - h0)
    fields = [f.name for f in dataclasses.fields(oracle._Solution)]
    assert fields == ["d", "mults", "free", "pivots", "block"]
    oracle.get_geometry.cache_clear()
    oracle.run_battery(parse_class("L3(6; 3, 2^4, 1^3)"))
    geoms = [oracle.get_geometry(p, seed) for p in oracle.PRIMES for seed in oracle.DEFAULT_SEEDS]
    for geom in geoms:
        [(solution, _)] = oracle._workspace(geom).solves
        assert solution.block.dtype == np.int32
    returned = {}
    # the first class again, a memo hit, returns the battery's solve
    for txt in ("L3(6; 3, 2^4, 1^3)", "L3(6; 3, 2^4, 1^4)", "L3(6; 2^3)",
                "L3(6; 3^2, 2^4, 1^4)", "L3(6; 3^10)"):
        c = parse_class(txt)
        for prime in oracle.PRIMES:
            stack = [oracle.get_geometry(prime, seed) for seed in oracle.DEFAULT_SEEDS]
            returned[c.mults, prime] = [s.kernel for s in oracle._solve(stack, c)]
    n_cols = math.comb(6 + 3, 3)
    for geom in geoms:
        solves = list(oracle._workspace(geom).solves)
        assert len(solves) == 5
        for solution, layer in solves:
            h0 = solution.free.size
            assert solution.block.shape == (len(oracle.DEFAULT_SEEDS), h0, n_cols - h0)
            check_kept(solution, layer, returned[solution.mults, geom.prime][layer], solution.mults)


def test_warm_sweep_box_pass_counts(monkeypatch):
    # one warm pass of perfbench's sweep_box without its probes: the
    # dimension pass on 5 seeds and the probe pass's stack of one per prime
    classes = [ThreefoldClass(6, tuple(sorted(ms, reverse=True)))
               for r in range(11) for ms in itertools.combinations_with_replacement((1, 2, 3), r)]
    assert len(classes) == 286

    def sweep():
        for c in classes:
            oracle.run_battery(c)
            oracle.run_battery(c, seeds=(0,))

    oracle.get_geometry.cache_clear()
    sweep()
    done = spy_done(monkeypatch)
    counts = {"kernels": 0, "rref": 0, "split": 0}
    kernels, rref = oracle._kernels, gfp.rref_mod

    def kernels_spy(geoms, c):
        counts["kernels"] += 1
        return kernels(geoms, c)

    def rref_spy(mat, p):
        counts["rref"] += 1
        out = rref(mat, p)
        counts["split"] += out is None
        return out

    monkeypatch.setattr(oracle, "_kernels", kernels_spy)
    monkeypatch.setattr(gfp, "rref_mod", rref_spy)
    sweep()
    assert done.count(()) <= 36  # 168 when only the last solve could be extended
    assert counts == {"kernels": 1716, "rref": 858, "split": 0}


# ---------------------------------------------------------------------------
# stacked evaluation


@st.composite
def point_stacks(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 4))
    pts = [tuple(draw(vectors(p))) for _ in range(n)]
    dirs = [tuple(draw(vectors(p))) for _ in range(n)]
    return p, pts, dirs


def monomial_reference(z, d, p):
    out = []
    for e in oracle.monomial_exponents(d):
        value = 1
        for j in range(4):
            value = value * pow(z[j], int(e[j]), p) % p
        out.append(value)
    return out


def derivative_reference(z, v, d, p):
    out = []
    for e in oracle.monomial_exponents(d):
        total = 0
        for k in range(4):
            if e[k] == 0:
                continue
            term = v[k] * int(e[k])
            for j in range(4):
                term = term * pow(z[j], int(e[j]) - (j == k), p) % p
            total += term
        out.append(total % p)
    return out


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((0, 1, 2, 16)), point_stacks())
def test_stacked_values_match_per_point(d, case):
    p, pts, dirs = case
    mono = oracle.monomial_values(np.array(pts, dtype=np.int64), d, p)
    deriv = oracle.derivative_values(
        np.array(pts, dtype=np.int64), np.array(dirs, dtype=np.int64), d, p
    )
    ncols = oracle.monomial_exponents(d).shape[0]
    assert mono.shape == deriv.shape == (len(pts), ncols)
    for k, (z, v) in enumerate(zip(pts, dirs)):
        single = oracle.monomial_values(z, d, p)
        assert single.shape == (ncols,)
        assert np.array_equal(mono[k], single)
        unstacked = oracle.derivative_values(z, v, d, p)
        assert unstacked.shape == (ncols,)
        assert np.array_equal(deriv[k], unstacked)
        assert unstacked.tolist() == derivative_reference(z, v, d, p)
    z = pts[0]
    assert oracle.monomial_values(z, d, p).tolist() == monomial_reference(z, d, p)


# ---------------------------------------------------------------------------
# probe tests through the sketch, confirmed on the whole basis

GOLDEN_ORACLE = pathlib.Path(__file__).parent / "data" / "golden_oracle.json"
SKETCH_CLASSES = ("L3(2; 1^3)", "L3(3; 2, 1^4)", "L3(4; 2^2, 1^5)", "L3(6; 4, 3)")
# monomial rows per candidate, which is also the number of sketch forms read
PROBE_TESTS = {"vanishing": 1, "unseparated": 2, "flat": 2}


def sketch_reference(kernel, p):
    """C^T K in Python integers, C with columns (1, ..., 1) and (1, 2, ..., h0)."""
    rows = kernel.tolist()
    return [
        [sum(c * row[j] for c, row in zip(weights, rows)) % p for j in range(kernel.shape[1])]
        for weights in ([1] * len(rows), range(1, len(rows) + 1))
    ]


def probe_test(pr, kind, block):
    """The probe test ``kind`` on a block of the probe's candidates, as a
    stack of one layer evaluates it."""
    return getattr(oracle._Stack([pr]), kind)(np.array(block, dtype=np.int64),
                                              np.zeros(len(block), dtype=np.int64))


def value_rows(pr, kind, block):
    """Each candidate's monomial rows, shape (candidates, k, N): a point's,
    a pair's two, or a tangent's point and derivative along its direction."""
    d, p = pr.d, pr.p
    if kind == "vanishing":
        return oracle.monomial_values(np.array(block), d, p)[:, None]
    if kind == "unseparated":
        return oracle.monomial_values(np.array(block), d, p)
    zs = np.array([z for z, _ in block])
    vs = np.array([v for _, v in block])
    return np.stack([oracle.monomial_values(zs, d, p),
                     oracle.derivative_values(zs, vs, d, p)], axis=1)


def full_test(kind, rows, forms, p):
    """The test on the forms' values, one rank per candidate: all zero for
    ``vanishing``, rank at most 1 for the other two."""
    n, k, n_cols = rows.shape
    vals = gfp.matmul_mod(rows.reshape(-1, n_cols), np.asarray(forms).T, p).reshape(n, k, -1)
    if kind == "vanishing":
        return [not v.any() for v in vals]
    return [gfp.rank_mod(v, p) <= 1 for v in vals]


def sketch_probe(txt):
    geom = oracle.get_geometry(oracle.PRIMES[0], 0)
    return oracle._Probe("sketch", geom, parse_class(txt), 0, None)


def random_block(draw, pr, kind):
    """One to six candidates mixing assigned points, where every form
    vanishes, with random points; tangent directions are random."""
    p = pr.p
    point = st.sampled_from(pr.assigned) | vectors(p).filter(any).map(tuple)
    n = draw(st.integers(1, 6))
    if kind == "vanishing":
        return [draw(point) for _ in range(n)]
    if kind == "unseparated":
        return [(draw(point), draw(point)) for _ in range(n)]
    return [(draw(point), tuple(draw(vectors(p)))) for _ in range(n)]


@st.composite
def false_alarm_cases(draw):
    """A probe, a block for one of its three tests, and a sketch that flags
    every candidate of it: the first form is zero or a random form that
    vanishes on every monomial row of the block, the second any of those or
    a random form."""
    pr = sketch_probe(draw(st.sampled_from(SKETCH_CLASSES)))
    kind = draw(st.sampled_from(tuple(PROBE_TESTS)))
    block = random_block(draw, pr, kind)
    rows = value_rows(pr, kind, block)
    p, n_cols = pr.p, rows.shape[2]
    orthogonal = gfp.kernel_mod(rows.reshape(-1, n_cols), p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    forms = {
        "zero": np.zeros(n_cols, dtype=np.int64),
        "orthogonal": gfp.matmul_mod(
            rng.integers(0, p, size=(1, len(orthogonal))), orthogonal, p)[0],
        "random": rng.integers(0, p, size=n_cols),
    }
    first = draw(st.sampled_from(("zero", "orthogonal")))
    second = draw(st.sampled_from(tuple(forms)))
    return pr, kind, block, np.array([forms[first], forms[second]], dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(false_alarm_cases())
def test_sketch_false_alarms_are_rejected_by_the_full_test(case):
    pr, kind, block, sketch = case
    rows = value_rows(pr, kind, block)
    k = PROBE_TESTS[kind]
    assert all(full_test(kind, rows, sketch[:k], pr.p))  # every candidate flagged
    pr.sysd.sketch = sketch
    got = probe_test(pr, kind, block)
    assert got.tolist() == full_test(kind, rows, pr.sysd.kernel, pr.p)


def test_sketch_false_alarms_named_cases():
    # a zero first form flags every candidate, a random second form flags
    # none of the assigned points: only the first k forms may be read
    for txt in SKETCH_CLASSES:
        pr = sketch_probe(txt)
        assert pr.sysd.sketch.tolist() == sketch_reference(pr.sysd.kernel, pr.p)
        z, other = pr.assigned[0], (1, 2, 3, 4)
        blocks = {
            "vanishing": [z, other, z],
            "unseparated": [(z, other), (other, (4, 3, 2, 1)), (z, z)],
            "flat": [(z, other), (other, (4, 3, 2, 1)), (other, other)],
        }
        rng = np.random.default_rng(0)
        n_cols = pr.sysd.sketch.shape[1]
        pr.sysd.sketch = np.array([[0] * n_cols, rng.integers(1, pr.p, size=n_cols)],
                                  dtype=np.int64)
        for kind, block in blocks.items():
            rows = value_rows(pr, kind, block)
            expected = full_test(kind, rows, pr.sysd.kernel, pr.p)
            assert expected == [True, False, True], (txt, kind)
            assert probe_test(pr, kind, block).tolist() == expected, (txt, kind)


def test_sketch_flags_exactly_the_full_test_on_the_golden_blocks(monkeypatch):
    # every block the golden classes evaluate at 16 probes: the sketch is
    # C^T K, and the sketch alone, the probe's mask and the full test agree
    seen = []

    def spy(test):
        def recorded(stack, block, at):
            mask = test(stack, block, at)
            assert len(stack.layers) == 1  # the probes below are stacks of one
            seen.append((stack.layers[0], test.__name__, block, mask))
            return mask
        return recorded

    for table in ("_BASE_CATEGORIES", "_SEPARATION_CATEGORIES"):
        rows = getattr(oracle, table)
        monkeypatch.setattr(oracle, table, tuple(r[:3] + (spy(r[3]),) + r[4:] for r in rows))
    for txt in json.loads(GOLDEN_ORACLE.read_text(encoding="utf-8")):
        c = parse_class(txt)
        for prime in oracle.PRIMES:
            for seed in (0, 1):
                geom = oracle.get_geometry(prime, seed)
                sysd = oracle.solve_system(geom, c)
                oracle.probe_base_locus(geom, c, 16, sysd)
                oracle.probe_separation(geom, c, 16, sysd)
    assert {kind for _, kind, _, _ in seen} == set(PROBE_TESTS)
    for pr, kind, block, mask in seen:
        sketch = sketch_reference(pr.sysd.kernel, pr.p)
        assert pr.sysd.sketch.tolist() == sketch
        rows = value_rows(pr, kind, block)
        full = full_test(kind, rows, pr.sysd.kernel, pr.p)
        assert mask.tolist() == full
        assert full_test(kind, rows, sketch[:PROBE_TESTS[kind]], pr.p) == full


# ---------------------------------------------------------------------------
# the tangent sketch without derivative_values

TANGENT_CLASSES = {1: "L3(1; 1)", 2: "L3(2; 1^3)", 16: "L3(16; 5^2, 3)"}


def tangent_probe(p, d):
    return oracle._Probe("tangents", oracle.get_geometry(p, 0), parse_class(TANGENT_CLASSES[d]),
                         0, None)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(tuple(TANGENT_CLASSES)), point_stacks())
def test_tangent_sketch_matches_the_derivative_rows(d, case):
    # the values along v from the partials of the sketch forms are the
    # derivative rows times the sketch, at every point and direction
    p, pts, dirs = case
    pr = tangent_probe(p, d)
    zs, vs = np.array(pts, dtype=np.int64), np.array(dirs, dtype=np.int64)
    mono = oracle.monomial_values(zs, d, p)
    got = oracle._Stack([pr]).tangent_sketch(zs, vs, np.zeros(len(zs), dtype=np.int64))
    sketch = np.array(sketch_reference(pr.sysd.kernel, p), dtype=np.int64)
    assert got.shape == (len(pts), 2, 2)
    assert np.array_equal(got[:, 0], gfp.matmul_mod(mono, sketch.T, p))
    # against the reference rows, not derivative_values: both that and the
    # sketch partials read _raised_monomials
    deriv = np.array([derivative_reference(z, v, d, p) for z, v in zip(pts, dirs)], dtype=np.int64)
    assert np.array_equal(got[:, 1], gfp.matmul_mod(deriv, sketch.T, p))
    partials = pr.sysd.sketch_partials
    assert partials.shape == (4, 2, oracle.monomial_exponents(d - 1).shape[0])


def spy_derivatives(monkeypatch):
    """The (points, directions) of every ``derivative_values`` call from
    here on."""
    calls = []
    values = oracle.derivative_values

    def spy(z, v, d, p):
        calls.append((np.array(z).tolist(), np.array(v).tolist()))
        return values(z, v, d, p)

    monkeypatch.setattr(oracle, "derivative_values", spy)
    return calls


def sketch_flags(pr, z, v):
    """Whether the sketch flags the tangent (z, v), from the reference
    derivative row."""
    d, p = pr.d, pr.p
    rows = [monomial_reference(z, d, p), derivative_reference(z, v, d, p)]
    vals = gfp.matmul_mod(np.array(rows, dtype=np.int64),
                          np.array(sketch_reference(pr.sysd.kernel, p), dtype=np.int64).T, p)
    return gfp.rank_mod(vals, p) <= 1


def test_derivative_values_runs_on_flagged_tangents_only(monkeypatch):
    calls = spy_derivatives(monkeypatch)
    # an assigned double point flags every direction; random tangents
    # flag none
    pr = sketch_probe("L3(4; 2^2, 1^5)")
    z, rng = pr.assigned[0], random.Random(7)
    others = [(tuple(rng.randrange(pr.p) for _ in range(4)),
               tuple(rng.randrange(pr.p) for _ in range(4))) for _ in range(5)]
    block = [others[0], (z, others[1][1]), others[2], others[3], (z, others[4][1])]
    assert probe_test(pr, "flat", block).tolist() == [False, True, False, False, True]
    assert calls == [([list(z)] * 2, [list(others[1][1]), list(others[4][1])])]
    calls.clear()
    assert not probe_test(pr, "flat", others).any()
    assert calls == []
    # every call the golden classes' probes make holds flagged tangents only
    for txt in json.loads(GOLDEN_ORACLE.read_text(encoding="utf-8")):
        c = parse_class(txt)
        for prime in oracle.PRIMES:
            geom = oracle.get_geometry(prime, 0)
            sysd = oracle.solve_system(geom, c)
            calls.clear()
            oracle.probe_separation(geom, c, 16, sysd)
            probe = oracle._Probe("separation", geom, c, 16, sysd)
            for zs, vs in calls:
                assert all(sketch_flags(probe, z, v) for z, v in zip(zs, vs)), txt


def patched_reference_streams(monkeypatch):
    """The probe tables with every stream swapped for its reference, which
    reads a fresh ``random.Random`` of the category's label in place of the
    layer's words; so no words are drawn up front."""
    def as_array(reference, label):
        return lambda pr, words: np.array(
            as_lists(list(reference(pr, pr.rng(label, pr.nprobes)))), dtype=np.int64)

    for table in ("_BASE_CATEGORIES", "_SEPARATION_CATEGORIES"):
        rows = getattr(oracle, table)
        monkeypatch.setattr(oracle, table, tuple(
            r[:2] + (as_array(REFERENCE_STREAMS[r[0]], r[1]),) + r[3:-1] + (None,) for r in rows))


def test_battery_at_a_prime_one_mod_four_matches_the_scalar_streams(monkeypatch):
    # one golden class of each witness kind, and a quiet one, whose probes
    # run every category: the block curve draws take their roots by
    # Tonelli-Shanks here
    golden = json.loads(GOLDEN_ORACLE.read_text(encoding="utf-8"))
    chosen = {}
    for txt, entry in golden.items():
        kinds = tuple(sorted({w["kind"] for r in entry["reports"] for rep in r[2:]
                              for w in rep["witnesses"]}))
        chosen.setdefault(kinds, txt)
    roots = []
    sqrt_mod = gfp.sqrt_mod

    def spy(a, p):
        roots.append(p)
        return sqrt_mod(a, p)

    with monkeypatch.context() as m:
        m.setattr(gfp, "sqrt_mod", spy)
        _, ok = oracle._Words(random.Random(0), oracle.get_geometry(65537, 0)).curve(20)
    assert roots == [65537] * len(roots) and len(roots) >= ok.sum() == 20
    reports = {}
    for patch in (False, True):
        with monkeypatch.context() as m:
            m.setattr(gfp, "sqrt_mod", spy)
            if patch:
                patched_reference_streams(m)
            for txt in chosen.values():
                report = oracle.run_battery(parse_class(txt), primes=(65537,), probes=64)
                reports.setdefault(txt, []).append(report.to_dict())
    for txt, (blocks, scalar) in reports.items():
        assert blocks == scalar, txt


class ScalarWords:
    """``_Words`` with every draw made one ``randrange`` at a time from its
    stream, by the references."""

    def __init__(self, rng, geom, reserve=0):
        self.rng, self.geom = rng, geom

    def randrange(self, n):
        return self.rng.randrange(n)

    def point(self):
        return random_proj_point_reference(self.rng, self.geom.prime)

    def curve(self, count):
        draws = [reference_draw(self.geom, self.rng) for _ in range(count)]
        z = np.array([w or (0, 0, 0, 0) for w in draws], dtype=np.int64).reshape(-1, 4)
        return z, np.array([w is not None for w in draws], dtype=bool)


def test_conjugate_hunt_at_a_prime_one_mod_four_matches_the_scalar_stream(monkeypatch):
    # the curve-degree-2 golden classes, whose separation reports at 65537
    # come from the conjugate hunt: its curve draws take Tonelli-Shanks,
    # and it shares one stream with hunt_common_zeros and rational_roots
    golden = json.loads(GOLDEN_ORACLE.read_text(encoding="utf-8"))
    classes = {txt: parse_class(txt) for txt in golden}
    chosen = [txt for txt, c in classes.items() if 4 * c.d - sum(c.mults) == 2]
    assert chosen
    for txt in chosen:
        reports = []
        for patch in (False, True):
            with monkeypatch.context() as m:
                if patch:
                    patched_reference_streams(m)
                    m.setattr(oracle, "_Words", ScalarWords)
                report = oracle.run_battery(classes[txt], primes=(65537,), probes=64)
                reports.append(report.to_dict())
        assert reports[0] == reports[1], txt
        assert "conjugate-hunt" in reports[0]["separation_probes"]["first_witness"]["checked"]
