"""Property tests: the oracle's closed forms and batched kernels against
straightforward references.

Each closed form replaced a general routine (a loop, a numpy rank, a
per-point evaluation); the references below are those general routines,
kept here so the two are compared on inputs hypothesis picks, including
the degenerate ones (zero rows, rank 0 and 1, no free columns).

The exact kernels everything rests on, ``rref_mod`` and ``matmul_mod``, are
checked against pure-Python integer arithmetic, and ``solve_system`` on a
warm geometry (which restricts the last kernel solved there) against a
fresh elimination of the full condition matrix.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints3 import gfp, oracle
from fatpoints3.divclass import ThreefoldClass

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
    red, pivots = gfp.rref_mod(mat, p)
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
    g1, g2, p = case
    rank = gfp.rank_mod(np.array([g1, g2], dtype=np.int64), p)
    assert oracle._proportional(g1, g2, p) == (rank <= 1)


@st.composite
def geometry_points(draw):
    """A geometry with a chosen second quadric and a point with chosen
    coordinates; the Jacobian can have any rank from 0 to 2."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(("random", "multiple", "zero")))
    if kind == "random":
        qprime = tuple(draw(vectors(p, 10)))
    elif kind == "multiple":
        lam = draw(st.integers(0, p - 1))
        qprime = tuple(lam * c % p for c in oracle._qbar_coeffs(p))
    else:
        qprime = (0,) * 10
    coords = tuple(draw(vectors(p)))
    geom = oracle.Geometry(p, 0, 0, qprime, oracle._segre_forms(qprime, p), [], ())
    pt = oracle.DPoint((0, 1), (0, 1), coords, 0, coords[1:])
    return geom, pt


@SETTINGS
@given(geometry_points())
def test_smooth_at_matches_rank_of_jacobian(case):
    geom, pt = case
    p = geom.prime
    jac = np.array(
        [oracle._quad_grad(oracle._qbar_coeffs(p), pt.coords, p),
         oracle._quad_grad(geom.qprime, pt.coords, p)],
        dtype=np.int64,
    )
    # the curve is singular at the point exactly when the two gradients
    # are proportional
    assert oracle._proportional(*oracle._jacobian(geom, pt), p) == (gfp.rank_mod(jac, p) < 2)


@SETTINGS
@given(jacobian_rows())
def test_tangent_basis_matches_kernel_mod(case):
    g1, g2, p = case
    jac = np.array([g1, g2], dtype=np.int64)
    if gfp.rank_mod(jac, p) < 2:
        return
    expected = [tuple(int(x) for x in row) for row in gfp.kernel_mod(jac, p)]
    assert oracle._tangent_basis(g1, g2, p) == expected


def test_curve_tangents_lie_in_the_tangent_space():
    g = oracle.get_geometry(oracle.PRIMES[0], 0)
    p = g.prime
    for pt in g.points:
        v = oracle._curve_tangent(g, pt)
        assert v is not None
        for grad in oracle._jacobian(g, pt):
            assert sum(a * b for a, b in zip(grad, v)) % p == 0
        assert not oracle._proportional(pt.coords, v, p)


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
            b = [0] * (width + 1)
        rows.append((a, b))
    a = np.array([r[0] for r in rows], dtype=np.int64)
    b = np.array([r[1] for r in rows], dtype=np.int64)
    got = oracle._rank_le_1(a, b, p)
    for k, (ra, rb) in enumerate(rows):
        expected = gfp.rank_mod(np.array([ra, rb], dtype=np.int64), p) <= 1
        assert bool(got[k]) == expected
        assert oracle._rank_le_1(a[k], b[k], p) == expected


@SETTINGS
@given(st.sampled_from(PRIMES), st.lists(st.integers(-5, 10**12), max_size=6),
       st.integers(0, 10**12), st.integers(0, 10**12), st.integers(0, 5))
def test_form_eval_matches_power_sum(p, coeffs, s, t, extra):
    n = max(len(coeffs) - 1, 0) + extra
    expected = sum(c * pow(s, i, p) * pow(t, n - i, p) for i, c in enumerate(coeffs)) % p
    assert oracle._form_eval(coeffs, s, t, n, p) == expected


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
    _, pivots = gfp.rref_mod(mat, p)
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


def test_warm_solves_named_moves():
    # each move the memo must get right, in one walk on one geometry
    sysd = solve_walk(16, [
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
    ])
    assert sysd[5].h0 == 0 and sysd[6].h0 == 0
    assert sysd[7].h0 == 4 and sysd[8].h0 == 3
    # r > 16 needs a larger geometry
    big = solve_walk(20, [
        (3, (1,) * 16),
        (3, (1,) * 18),
        (3, (2,) * 2 + (1,) * 18),
        (4, (2,) * 17),
    ])
    assert [s.clazz.r for s in big] == [16, 18, 20, 17]


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
@given(st.sampled_from((0, 1, 16)), point_stacks())
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
        assert np.array_equal(deriv[k], oracle.derivative_values(z, v, d, p))
    z, v = pts[0], dirs[0]
    assert oracle.monomial_values(z, d, p).tolist() == monomial_reference(z, d, p)
    assert oracle.derivative_values(z, v, d, p).tolist() == derivative_reference(z, v, d, p)
