"""Finite-field verification engine for the space classes.

The checkers in :mod:`fatpoints3.criteria` are combinatorial.  This module
provides independent numerical evidence over large prime fields:

* fix the smooth quadric surface ``xw = yz`` in projective 3-space, which
  the Segre map identifies with a product of two projective lines;
* draw a second random quadric and intersect: for a squarefree
  discriminant the intersection is a smooth quartic curve of genus one;
* sample base points on that curve, impose vanishing conditions exactly,
  and read dimensions off the rank of the condition matrix;
* probe the resulting spaces of forms for unassigned base points and for
  point pairs or tangent directions the forms fail to separate.

A firing probe is a verified witness, so probe evidence is one sided:
"fired" proves a defect, "did not fire" is only a sampling statement.
Two hunts go beyond random sampling.  When the curve degree of the class
(4d minus the sum of multiplicities) equals 1, a resultant hunt locates
the single forced base point on the curve; when it equals 2, a second
hunt builds a point pair on the curve that no form in the space can tell
apart.  Both witnesses are verified against the full space before they
are reported.

Everything is deterministic: all randomness is drawn from SHA-256 derived
per-purpose streams, so a (prime, seed) pair fixes the geometry, the
sampled points, and every probe, independent of call order.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import weakref
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import gfp
from .divclass import ThreefoldClass, edim3, format_class, vdim3

PRIMES = (2147483647, 1073741827, 1073741831)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_POINTS = 16
DEFAULT_PROBES = 64
MAX_DEGREE = 16
MAX_MULT = 5

_QUAD_PAIRS = (
    (0, 0), (0, 1), (0, 2), (0, 3), (1, 1),
    (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
)
_QPOS = {pair: k for k, pair in enumerate(_QUAD_PAIRS)}


def derive_seed(*parts: object) -> int:
    """Deterministic 64-bit stream seed from a label and parameters."""
    blob = "|".join(str(part) for part in parts).encode("ascii")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


# ---------------------------------------------------------------------------
# quadrics and the product-of-lines chart


def _qbar_coeffs(p: int) -> tuple[int, ...]:
    """The fixed quadric xw - yz as a coefficient vector."""
    q = [0] * 10
    q[_QPOS[(0, 3)]] = 1
    q[_QPOS[(1, 2)]] = p - 1
    return tuple(q)


def _quad_eval(q: Sequence[int], z: Sequence[int], p: int) -> int:
    total = 0
    for (i, j), c in zip(_QUAD_PAIRS, q):
        total += c * z[i] % p * z[j]
    return total % p


def _quad_grad(q: Sequence[int], z: Sequence[int], p: int) -> list[int]:
    g = [0, 0, 0, 0]
    for (i, j), c in zip(_QUAD_PAIRS, q):
        g[i] += c * z[j]
        g[j] += c * z[i]
    return [x % p for x in g]


def _segre_forms(q: Sequence[int], p: int) -> tuple[tuple[int, ...], ...]:
    """Restriction of a quadric to the chart (s,t),(u,v) -> (su,sv,tu,tv).

    The pullback is A(s,t) u^2 + B(s,t) uv + C(s,t) v^2 with quadratic
    coefficient forms; each is returned as a tuple ascending in s (t = 1),
    formal degree 2.
    """
    g = lambda i, j: q[_QPOS[(i, j)]]
    a = [g(2, 2), g(0, 2), g(0, 0)]
    b = [g(2, 3), (g(0, 3) + g(1, 2)) % p, g(0, 1)]
    c = [g(3, 3), g(1, 3), g(1, 1)]
    return tuple(tuple(x % p for x in f) for f in (a, b, c))


def _form_eval(coeffs: Sequence[int], s: int, t: int, n: int, p: int) -> int:
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


def _squarefree_binary_form(f: Sequence[int], n: int, p: int) -> bool:
    """Squarefree test for a binary form via the resultant of its partials."""
    full = [c % p for c in f] + [0] * (n + 1 - len(f))
    fs = gfp.ptrim([i * full[i] % p for i in range(1, n + 1)])
    ft = gfp.ptrim([(n - i) * full[i] % p for i in range(n)])
    if not fs or not ft:
        return False
    return gfp.resultant_formal(fs, ft, n - 1, n - 1, p) != 0


def _norm_pair(a: int, b: int, p: int) -> tuple[int, int]:
    a %= p
    b %= p
    if b:
        return (a * pow(b, -1, p) % p, 1)
    if not a:
        raise ValueError("zero parameter pair")
    return (1, 0)


def _quad_roots(a: int, b: int, c: int, p: int) -> list[tuple[int, int]]:
    """Projective roots (u:v) of a u^2 + b uv + c v^2 over GF(p)."""
    a, b, c = a % p, b % p, c % p
    if a == 0 and b == 0 and c == 0:
        raise ValueError("identically zero fiber form")
    out: list[tuple[int, int]] = []
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


# ---------------------------------------------------------------------------
# the sampled geometry


@dataclass(frozen=True)
class DPoint:
    """A rational point of the sampled curve, in every chart we need."""

    st: tuple[int, int]
    uv: tuple[int, int]
    coords: tuple[int, int, int, int]
    chart: int
    affine: tuple[int, int, int]


def _make_dpoint(s: int, t: int, u: int, v: int, p: int) -> DPoint:
    st = _norm_pair(s, t, p)
    uv = _norm_pair(u, v, p)
    raw = (st[0] * uv[0] % p, st[0] * uv[1] % p, st[1] * uv[0] % p, st[1] * uv[1] % p)
    chart = next(k for k in range(4) if raw[k])
    inv = pow(raw[chart], -1, p)
    coords = tuple(c * inv % p for c in raw)
    affine = tuple(coords[j] for j in range(4) if j != chart)
    return DPoint(st, uv, coords, chart, affine)


@dataclass(frozen=True, eq=False)
class Geometry:
    """A fixed prime field, a random smooth curve, and points on it.

    Compared by identity: its solver state is a ``_Workspace`` keyed by it."""

    prime: int
    seed: int
    attempt: int
    qprime: tuple[int, ...]
    forms: tuple[tuple[int, ...], ...]
    delta: tuple[int, ...]
    points: tuple[DPoint, ...]


def _fiber_quadratic(geom: Geometry, s: int, t: int) -> tuple[int, int, int]:
    p = geom.prime
    a, b, c = geom.forms
    return (
        _form_eval(a, s, t, 2, p),
        _form_eval(b, s, t, 2, p),
        _form_eval(c, s, t, 2, p),
    )


def _proportional(a: Sequence[int], b: Sequence[int], p: int) -> bool:
    """Whether two short vectors span at most a line: every 2x2 minor is 0."""
    n = len(a)
    return not any(
        (a[i] * b[j] - a[j] * b[i]) % p for i in range(n) for j in range(i + 1, n)
    )


def _jacobian(geom: Geometry, pt: DPoint) -> tuple[list[int], list[int]]:
    """Gradients of the two quadrics at the point: the curve's 2x4 Jacobian.

    The fixed quadric xw - yz has gradient (w, -z, -y, x).
    """
    p = geom.prime
    x, y, z, w = pt.coords
    return ([w, -z % p, -y % p, x], _quad_grad(geom.qprime, pt.coords, p))


def _tangent_basis(g1: Sequence[int], g2: Sequence[int], p: int) -> list[tuple[int, ...]]:
    """Right-kernel basis of a rank-2 matrix with rows g1, g2 (length 4).

    The same basis ``gfp.kernel_mod`` returns: the pivots c1 < c2 of the
    reduced echelon form are the first nonzero column and the first column
    independent of it, and by Cramer's rule column f reduces to
    (D(f, c2), D(c1, f)) / D(c1, c2), with D the 2x2 minor on two columns.
    The free column f gets the vector e_f minus that combination.
    """
    def minor(i: int, j: int) -> int:
        return (g1[i] * g2[j] - g1[j] * g2[i]) % p

    c1 = next(c for c in range(4) if g1[c] % p or g2[c] % p)
    c2 = next(c for c in range(c1 + 1, 4) if minor(c1, c))
    inv = pow(minor(c1, c2), -1, p)
    basis = []
    for f in range(4):
        if f in (c1, c2):
            continue
        vec = [0, 0, 0, 0]
        vec[f] = 1
        vec[c1] = -minor(f, c2) * inv % p
        vec[c2] = -minor(c1, f) * inv % p
        basis.append(tuple(vec))
    return basis


def _curve_tangent(geom: Geometry, pt: DPoint) -> Optional[tuple[int, ...]]:
    """A tangent direction of the curve at a smooth point, not along the point.

    Tries the two kernel basis vectors of the Jacobian, then their sum.
    """
    p = geom.prime
    basis = _tangent_basis(*_jacobian(geom, pt), p)
    total = tuple(sum(col) % p for col in zip(*basis))
    for cand in basis + [total]:
        if any(cand) and not _proportional(pt.coords, cand, p):
            return cand
    return None


def _curve_value(geom: Geometry, pt: DPoint) -> int:
    p = geom.prime
    if _quad_eval(_qbar_coeffs(p), pt.coords, p):
        return 1
    return _quad_eval(geom.qprime, pt.coords, p)


def _sample_curve_point(geom: Geometry, rng: random.Random) -> Optional[DPoint]:
    """A random curve point; smooth, as ``build_geometry`` accepts only a
    squarefree discriminant.  None after 512 fibers without one."""
    p = geom.prime
    for _ in range(512):
        k = rng.randrange(p + 1)
        s, t = ((1, 0) if k == p else (k, 1))
        a, b, c = _fiber_quadratic(geom, s, t)
        if a == 0 and b == 0 and c == 0:
            continue
        roots = _quad_roots(a, b, c, p)
        if not roots:
            continue
        u, v = roots[rng.randrange(len(roots))]
        return _make_dpoint(s, t, u, v, p)
    return None


def build_geometry(prime: int, seed: int, npoints: int = DEFAULT_POINTS) -> Geometry:
    """Draw a smooth curve configuration with npoints sampled points.

    Retries with fresh randomness until the discriminant of the sampled
    curve is squarefree (which certifies smoothness) and enough distinct
    smooth rational points have been found.
    """
    if not gfp.is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if prime < 65537 or prime >= gfp.MAX_MODULUS:
        raise ValueError("prime must lie in [65537, 2^31) for the exact kernels")
    for attempt in range(256):
        rng = random.Random(derive_seed("geometry", prime, seed, attempt))
        qprime = tuple(rng.randrange(prime) for _ in _QUAD_PAIRS)
        forms = _segre_forms(qprime, prime)
        a, b, c = forms
        delta = tuple(gfp.padd(
            gfp.pmul(b, b, prime),
            gfp.pscale(gfp.pmul(a, c, prime), -4, prime),
            prime,
        ))
        if not _squarefree_binary_form(delta, 4, prime):
            continue
        geom = Geometry(prime, seed, attempt, qprime, forms, delta, ())
        prng = random.Random(derive_seed("points", prime, seed, attempt))
        points: list[DPoint] = []
        seen: set[tuple[int, ...]] = set()
        ok = True
        for _ in range(64 * npoints):
            if len(points) == npoints:
                break
            pt = _sample_curve_point(geom, prng)
            if pt is None:
                ok = False
                break
            if pt.coords in seen:
                continue
            if _curve_value(geom, pt):
                ok = False
                break
            seen.add(pt.coords)
            points.append(pt)
        if ok and len(points) == npoints:
            return replace(geom, points=tuple(points))
    raise RuntimeError(f"no smooth configuration found for prime={prime} seed={seed}")


@lru_cache(maxsize=96)
def get_geometry(prime: int, seed: int, npoints: int = DEFAULT_POINTS) -> Geometry:
    return build_geometry(prime, seed, npoints)


# ---------------------------------------------------------------------------
# monomials, derivative rows, condition matrices


@lru_cache(maxsize=None)
def monomial_exponents(d: int) -> np.ndarray:
    """Exponent tuples of the degree-d monomials, graded-lex, as an array."""
    if d < 0:
        return np.zeros((0, 4), dtype=np.int64)
    tuples = [
        (a, b, c, d - a - b - c)
        for a in range(d, -1, -1)
        for b in range(d - a, -1, -1)
        for c in range(d - a - b, -1, -1)
    ]
    tuples.sort(reverse=True)
    return np.array(tuples, dtype=np.int64)


_ALPHAS = sorted(
    (
        (i, j, k)
        for i in range(MAX_MULT)
        for j in range(MAX_MULT)
        for k in range(MAX_MULT)
        if i + j + k <= MAX_MULT - 1
    ),
    key=lambda a: (sum(a), a),
)


@lru_cache(maxsize=None)
def _chart_rows(d: int, chart: int) -> tuple[np.ndarray, np.ndarray]:
    """The part of the condition rows that depends on the chart, not the point.

    Entry (alpha, e) of a point's rows is the derivative of the monomial
    x^e along alpha at the point's affine coordinates z: the product over
    the three coordinates j of the falling factorial e_j (e_j - 1) ...
    (e_j - alpha_j + 1) and z_j^(e_j - alpha_j).  Returns the products of
    the falling factorials, at most 16^4, shape (len(_ALPHAS), N), and the
    exponents clipped at 0, shape (3, len(_ALPHAS), N); the clip only hits
    entries whose falling factorial is 0.
    """
    exps = monomial_exponents(d)[:, [j for j in range(4) if j != chart]].T[:, None, :]
    alphas = np.array(_ALPHAS, dtype=np.int64).T[:, :, None]
    ff = np.prod([np.where(i < alphas, exps - i, 1) for i in range(MAX_MULT - 1)], axis=(0, 1))
    return ff, np.maximum(exps - alphas, 0)


def _mult_rows(m: int) -> int:
    return math.comb(m + 2, 3)


def _check_conditions(geom: Geometry, c: ThreefoldClass) -> None:
    """Reject a normalized class whose conditions this geometry cannot hold."""
    if any(m < 0 for m in c.mults):
        raise ValueError("negative multiplicity")
    if c.d < 0 or c.d > MAX_DEGREE:
        raise ValueError(f"degree {c.d} outside the supported range 0..{MAX_DEGREE}")
    if c.d >= geom.prime:
        raise ValueError("field characteristic too small for this degree")
    if any(m > MAX_MULT for m in c.mults):
        raise ValueError(f"multiplicity above the supported bound {MAX_MULT}")
    if c.r > len(geom.points):
        raise ValueError("geometry holds fewer sampled points than the class needs")


class _Workspace:
    """The solver state of one geometry, alive exactly as long as it is.

    ``tables[d]`` holds the degree-d condition rows of the first points in
    use, shape (points, len(_ALPHAS), N).  The graded ``_ALPHAS`` layout
    makes the first C(m+2, 3) rows of a point its conditions for
    multiplicity m.  ``last`` is the (d, mults, kernel) of the last class
    solved on the geometry, see ``_kernel``.
    """

    def __init__(self) -> None:
        self.tables: dict[int, np.ndarray] = {}
        self.last: Optional[tuple] = None

    def rows(self, geom: Geometry, d: int, done: tuple, mults: tuple) -> np.ndarray:
        """The rows imposing ``mults`` beyond the ``done`` multiplicities.

        ``done`` is no longer than ``mults`` and no entry of it is larger.
        The table grows to the first ``len(mults)`` points when it is shorter.
        """
        r, p = len(mults), geom.prime
        table = self.tables.get(d)
        n = 0 if table is None else len(table)
        if table is None or n < r:
            grown = np.empty((r, len(_ALPHAS), monomial_exponents(d).shape[0]), dtype=np.int64)
            if n:
                grown[:n] = table
            for i, pt in enumerate(geom.points[n:r], n):
                ff, exps = _chart_rows(d, pt.chart)
                pw = _power_table(pt.affine, d, p)
                grown[i] = ff * pw[0, exps[0]] % p * pw[1, exps[1]] % p * pw[2, exps[2]] % p
            table = self.tables[d] = grown
        start = np.array([_mult_rows(o) for o in done] + [0] * (r - len(done)), dtype=np.int64)
        count = np.array([_mult_rows(m) for m in mults], dtype=np.int64) - start
        point = np.repeat(np.arange(r), count)
        # the k-th row gathered for a point is its row start + k
        offset = np.repeat(start - np.cumsum(count) + count, count)
        return table[point, np.arange(point.size) + offset]


_WORKSPACES: "weakref.WeakKeyDictionary[Geometry, _Workspace]" = weakref.WeakKeyDictionary()


def _workspace(geom: Geometry) -> _Workspace:
    return _WORKSPACES.setdefault(geom, _Workspace())


def conditions_matrix(geom: Geometry, clazz: ThreefoldClass) -> np.ndarray:
    """Stacked interpolation conditions for the class at the sampled points."""
    c = clazz.normalized()
    _check_conditions(geom, c)
    return _workspace(geom).rows(geom, c.d, (), c.mults)


def _kernel(geom: Geometry, c: ThreefoldClass) -> np.ndarray:
    """Kernel basis of the class's conditions, as ``kernel_from_rref`` reads
    it off the reduced ``conditions_matrix``: identity on the free columns.

    When the last class solved on this geometry has the same degree and no
    larger multiplicity at any point, its kernel ``K`` already satisfies
    every condition but the extra rows ``B``.  The forms left are ``N K``
    with ``N`` the kernel of ``B K^T``, and ``N K`` is again identity on
    the free columns (the free columns of ``B K^T`` pick them out of the
    old ones), so it is exactly the basis a full elimination would give.
    Any other class starts from the identity, which is the full elimination.
    The kernel is kept in the geometry's workspace, so each geometry holds one.
    """
    p = geom.prime
    ws = _workspace(geom)
    last = ws.last
    if (last is not None and last[0] == c.d and len(last[1]) <= len(c.mults)
            and all(o <= m for o, m in zip(last[1], c.mults))):
        done, base = last[1], last[2]
    else:
        done, base = (), None
    rows = ws.rows(geom, c.d, done, c.mults)
    if base is None:
        red, pivots = gfp.rref_mod(rows, p)
        kernel = gfp.kernel_from_rref(red, pivots, p)
    elif rows.shape[0] == 0:
        kernel = base
    else:
        red, pivots = gfp.rref_mod(gfp.matmul_mod(rows, base.T, p), p)
        coeffs = gfp.kernel_from_rref(red, pivots, p)
        # coeffs is identity on its free columns: only the pivot rows of
        # base need a product
        free = np.ones(len(base), dtype=bool)
        free[pivots] = False
        kernel = (base[free] + gfp.matmul_mod(coeffs[:, pivots], base[pivots], p)) % p
    # shared with the returned SystemData and the next solve on this geometry
    kernel.flags.writeable = False
    ws.last = (c.d, c.mults, kernel)
    return kernel


@dataclass
class SystemData:
    """One exact interpolation computation for one class on one geometry."""

    clazz: ThreefoldClass
    prime: int
    seed: int
    n_cols: int
    n_rows: int
    rank: int
    h0: int
    dim: int
    h1: int
    vdim: int
    edim: int
    curve_degree: int
    kernel: np.ndarray
    geometry: Geometry

    def to_dict(self) -> dict:
        return {
            "class": format_class(self.clazz),
            "prime": self.prime,
            "seed": self.seed,
            "monomials": self.n_cols,
            "conditions": self.n_rows,
            "rank": self.rank,
            "h0": self.h0,
            "dim": self.dim,
            "h1": self.h1,
            "vdim": self.vdim,
            "edim": self.edim,
            "curve_degree": self.curve_degree,
        }


def solve_system(geom: Geometry, clazz: ThreefoldClass) -> SystemData:
    """Exact dimension of the class's space of forms on this geometry."""
    c = clazz.normalized()
    if c.d >= 0:
        _check_conditions(geom, c)
    elif any(m < 0 for m in c.mults):
        raise ValueError("negative multiplicity")
    elif c.d < -3:
        raise ValueError("degree below -3 is outside the model")
    vd = vdim3(c)
    ed = edim3(c)
    e = 4 * c.d - sum(c.mults)
    if c.d < 0:
        data = SystemData(
            c, geom.prime, geom.seed, 0, 0, 0, 0, -1, -(vd + 1), vd, ed, e,
            np.zeros((0, 0), dtype=np.int64), geom,
        )
    else:
        kernel = _kernel(geom, c)
        h0, n_cols = kernel.shape
        data = SystemData(
            c, geom.prime, geom.seed, n_cols, sum(_mult_rows(m) for m in c.mults),
            n_cols - h0, h0, h0 - 1, h0 - (vd + 1), vd, ed, e, kernel, geom,
        )
    if data.dim < data.edim or data.h1 < 0:
        raise AssertionError(
            f"interpolation rank exceeded the condition count for {format_class(c)}"
        )
    return data


# ---------------------------------------------------------------------------
# evaluation helpers


def _power_table(z, d: int, p: int) -> np.ndarray:
    """z[..., j]^t mod p for t = 0..d, as an array of shape z.shape + (d+1,)."""
    z = np.asarray(z, dtype=np.int64) % p
    pw = np.ones(z.shape + (d + 1,), dtype=np.int64)
    for t in range(1, d + 1):
        pw[..., t] = pw[..., t - 1] * z % p
    return pw


def monomial_values(z, d: int, p: int) -> np.ndarray:
    """Every degree-d monomial at a point z, or at each row of an (n, 4) stack."""
    exps = monomial_exponents(d)
    pw = _power_table(z, d, p)
    out = pw[..., 0, exps[:, 0]]
    for j in range(1, 4):
        out = out * pw[..., j, exps[:, j]] % p
    return out


def derivative_values(z, v, d: int, p: int) -> np.ndarray:
    """Directional derivative of every degree-d monomial at z along v.

    z and v are single points, or (n, 4) stacks paired row by row.
    """
    exps = monomial_exponents(d)
    pw = _power_table(z, d, p)
    v = np.asarray(v, dtype=np.int64) % p
    total = np.zeros(pw.shape[:-2] + (exps.shape[0],), dtype=np.int64)
    for k in range(4):
        factor = exps[:, k] % p * v[..., k, None] % p
        prod = np.ones_like(total)
        for j in range(4):
            drop = 1 if j == k else 0
            prod = prod * pw[..., j, np.maximum(exps[:, j] - drop, 0)] % p
        total = (total + factor * prod) % p
    return total


def _form_values(forms: np.ndarray, points: list, d: int, p: int) -> np.ndarray:
    """The degree-d forms (one coefficient row each) at each point: one row
    of values per point."""
    return gfp.matmul_mod(monomial_values(np.array(points), d, p), forms.T, p)


def _rank_le_1(a: np.ndarray, b: np.ndarray, p: int):
    """Whether a and b span at most a line; row by row for (n, k) stacks.

    With i the first nonzero entry of a, b is a multiple of a exactly when
    a * b[i] - b * a[i] vanishes; a zero row on either side always passes.
    """
    a2 = np.atleast_2d(a) % p
    b2 = np.atleast_2d(b) % p
    rows = np.arange(a2.shape[0])
    lead = (a2 != 0).argmax(axis=1)
    ai = a2[rows, lead][:, None]
    bi = b2[rows, lead][:, None]
    dependent = ~((a2 * bi - b2 * ai) % p).any(axis=1)
    out = ~a2.any(axis=1) | ~b2.any(axis=1) | dependent
    return out if np.ndim(a) == 2 else bool(out[0])


def _random_proj_point(rng: random.Random, p: int) -> tuple[int, int, int, int]:
    while True:
        z = tuple(rng.randrange(p) for _ in range(4))
        if any(z):
            return z


# ---------------------------------------------------------------------------
# resultant hunts on the curve


@lru_cache(maxsize=None)
def _bihom_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    exps = monomial_exponents(d)
    return exps[:, 2] + exps[:, 3], exps[:, 1] + exps[:, 3]


def bihom_matrix(coeffs: np.ndarray, d: int, p: int) -> np.ndarray:
    """Coefficient matrix of a degree-d form pulled back to the chart.

    Entry (i, j) multiplies s^(d-i) t^i u^(d-j) v^j.
    """
    rows, cols = _bihom_indices(d)
    phi = np.zeros((d + 1, d + 1), dtype=np.int64)
    np.add.at(phi, (rows, cols), coeffs % p)
    return phi % p


def hunt_common_zeros(
    geom: Geometry,
    sections: np.ndarray,
    d: int,
    assigned: Sequence[DPoint],
    exclude: frozenset,
    rng: random.Random,
) -> list[DPoint]:
    """Rational curve points, off the assigned set, where every form vanishes.

    Eliminates the fiber coordinate by a resultant against the curve
    equation, interpolated from 4d+1 exact evaluations; shared roots of two
    (occasionally three) random combinations cut the candidates down, the
    fibers of assigned points are divided out and re-checked through their
    partner points, and every candidate is verified against the full basis
    before being reported.  Output is therefore never a false positive.
    """
    p = geom.prime
    if sections.shape[0] == 0 or d < 1:
        return []
    xs = list(range(4 * d + 1))
    xpow = _power_table(xs, d, p)[:, ::-1]  # x^(d-i) in column i
    gamma_fibers = [_fiber_quadratic(geom, x, 1) for x in xs]

    def combo_resultant() -> Optional[list[int]]:
        for _ in range(8):
            cvec = np.array([rng.randrange(p) for _ in range(sections.shape[0])],
                            dtype=np.int64)
            gg = gfp.matmul_mod(cvec.reshape(1, -1), sections, p).ravel()
            if gg.any():
                break
        else:
            return None
        phi = bihom_matrix(gg, d, p)
        fibers = gfp.matmul_mod(xpow, phi, p)
        vals = []
        for n in range(len(xs)):
            gam = gfp.ptrim([gamma_fibers[n][0], gamma_fibers[n][1], gamma_fibers[n][2]])
            sec = gfp.ptrim([int(c) for c in fibers[n]])
            vals.append(gfp.resultant_formal(gam, sec, 2, d, p))
        poly = gfp.pinterp(xs, vals, p)
        return poly if poly else None

    polys = [combo_resultant() for _ in range(2)]
    polys = [q for q in polys if q is not None]
    if not polys:
        return []

    def off_assigned(g: list[int]) -> list[int]:
        for pt in assigned:
            if pt.st[1] == 1:
                g, _ = gfp.divide_out_root(g, pt.st[0], p)
        return g

    g = polys[0]
    for q in polys[1:]:
        g = gfp.pgcd(g, q, p)
    g = off_assigned(g)
    if gfp.pdeg(g) > 2 * len(assigned) + 6:
        extra = combo_resultant()
        if extra is not None:
            g = off_assigned(gfp.pgcd(g, extra, p))
    roots = gfp.rational_roots(g, p, rng)

    fibers = [(x, 1) for x in roots] + [(1, 0)] + [pt.st for pt in assigned]
    assigned_coords = {pt.coords for pt in assigned}
    candidates: dict[tuple, DPoint] = {}
    for s, t in fibers:
        a, b, c = _fiber_quadratic(geom, s, t)
        if a == 0 and b == 0 and c == 0:
            continue
        for u, v in _quad_roots(a, b, c, p):
            z = _make_dpoint(s, t, u, v, p)
            if z.coords not in assigned_coords and z.coords not in exclude:
                candidates.setdefault(z.coords, z)
    if not candidates:
        return []
    zero = ~_form_values(sections, list(candidates), d, p).any(axis=1)
    return [candidates[k] for k in sorted(itertools.compress(candidates, zero))]


# ---------------------------------------------------------------------------
# probes


@dataclass
class Witness:
    kind: str
    data: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "data": self.data}


@dataclass
class ProbeReport:
    target: str
    fired: bool
    witnesses: list[Witness]
    checked: dict[str, int]
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "fired": self.fired,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "checked": dict(sorted(self.checked.items())),
            "notes": list(self.notes),
        }


# candidates per stacked evaluation: memory stays bounded for any probe count
_BLOCK = 64


class _Probe:
    """One probe call: what its candidate streams need, its ``checked``
    counts, and the kernel's basis forms evaluated at stacked candidates."""

    def __init__(self, target: str, geom: Geometry, clazz: ThreefoldClass,
                 nprobes: int, sysd: Optional[SystemData]):
        c = clazz.normalized()
        self.sysd = solve_system(geom, c) if sysd is None else sysd
        self.target = target
        self.geom = geom
        self.p, self.d = geom.prime, c.d
        self.nprobes = nprobes
        self.tag = format_class(c)
        self.assigned = list(geom.points[: c.r])
        self.assigned_coords = {pt.coords for pt in self.assigned}
        self.checked: dict[str, int] = {}

    def rng(self, label: str, *extra: object) -> random.Random:
        return random.Random(derive_seed(label, self.p, self.geom.seed, self.tag, *extra))

    def fired(self, kind: str, data: dict) -> ProbeReport:
        return ProbeReport(self.target, True, [Witness(kind, data)], self.checked)

    def scan(self, min_h0: int, short_kind: str, categories: tuple) -> Optional[ProbeReport]:
        """Fire at once on fewer than min_h0 forms, else on the first witness.

        The categories run in table order, each scanning its candidates in
        draw order one block of at most _BLOCK at a time; None when none of
        them fired.
        """
        if self.sysd.h0 < min_h0:
            return self.fired(short_kind, {"h0": self.sysd.h0})
        for name, label, stream, test, data, count, needs_point in categories:
            if needs_point and not self.assigned:
                continue
            candidates = stream(self, self.rng(label, self.nprobes))
            n, hit = 0, None
            while hit is None:
                block = list(itertools.islice(candidates, _BLOCK))
                if not block:
                    break
                flagged = np.flatnonzero(test(self, block))
                if not flagged.size:
                    n += len(block)
                    continue
                k = int(flagged[0])
                hit = block[k]
                if count == _TO_WITNESS:
                    n += k + 1
                else:  # the rest of the stream is drawn and counted, not evaluated
                    n += len(block) + sum(1 for _ in candidates)
            if n or count != _EVERY_IF_ANY:
                self.checked[name] = n
            if hit is not None:
                return self.fired(name, data(hit))
        return None

    def at(self, points: list) -> np.ndarray:
        """One row of basis values per point."""
        return _form_values(self.sysd.kernel, points, self.d, self.p)

    def vanishing(self, points: list) -> np.ndarray:
        """Per point: does every form vanish there?"""
        return ~self.at(points).any(axis=1)

    def unseparated(self, pairs: list) -> np.ndarray:
        """Per pair: do the forms fail to tell the two points apart?"""
        vals = self.at([z for pair in pairs for z in pair])
        return _rank_le_1(vals[0::2], vals[1::2], self.p)

    def flat(self, tangents: list) -> np.ndarray:
        """Per (point, direction): do the forms fail to separate the direction?"""
        zs = np.array([z for z, _ in tangents])
        vs = np.array([v for _, v in tangents])
        rows = np.concatenate([
            monomial_values(zs, self.d, self.p),
            derivative_values(zs, vs, self.d, self.p),
        ])
        vals = gfp.matmul_mod(rows, self.sysd.kernel.T, self.p)
        return _rank_le_1(vals[: len(tangents)], vals[len(tangents):], self.p)


# ---------------------------------------------------------------------------
# candidate streams: each takes the probe and its seeded stream and yields
# candidates off the assigned points


def _lin(lam: int, a: Sequence[int], mu: int, b: Sequence[int], p: int) -> tuple:
    return tuple((lam * a[j] + mu * b[j]) % p for j in range(4))


def _line_points(pr: _Probe, rng: random.Random):
    """Points on the line through the two deepest assigned points; with one
    assigned point, on four random lines through it."""
    p, p1 = pr.p, pr.assigned[0].coords
    if len(pr.assigned) >= 2:
        p2 = pr.assigned[1].coords
        for _ in range(pr.nprobes):
            lam, mu = rng.randrange(1, p), rng.randrange(1, p)
            z = _lin(lam, p1, mu, p2, p)
            if z not in pr.assigned_coords:
                yield z
    else:
        for _ in range(4):
            direction = _random_proj_point(rng, p)
            for _ in range(max(1, pr.nprobes // 4)):
                z = _lin(1, p1, rng.randrange(1, p), direction, p)
                if any(z) and z not in pr.assigned_coords:
                    yield z


def _line_pairs(pr: _Probe, rng: random.Random):
    """Pairs on the line through the two deepest assigned points; with one
    assigned point, each pair on a fresh random line through it."""
    p, p1 = pr.p, pr.assigned[0].coords
    two = len(pr.assigned) >= 2
    for _ in range(pr.nprobes if two else max(1, pr.nprobes // 2)):
        p2 = pr.assigned[1].coords if two else _random_proj_point(rng, p)
        l1, l2 = rng.randrange(1, p), rng.randrange(1, p)
        if l1 == l2:
            continue
        z1, z2 = _lin(1, p1, l1, p2, p), _lin(1, p1, l2, p2, p)
        if z1 not in pr.assigned_coords and z2 not in pr.assigned_coords:
            yield z1, z2


def _curve_point(pr: _Probe, rng: random.Random) -> Optional[tuple]:
    pt = _sample_curve_point(pr.geom, rng)
    return None if pt is None else pt.coords


def _generic_point(pr: _Probe, rng: random.Random) -> tuple:
    return _random_proj_point(rng, pr.p)


def _fresh_curve_point(pr: _Probe, rng: random.Random) -> Optional[tuple]:
    """An unassigned curve point, within 64 draws."""
    for _ in range(64):
        z = _curve_point(pr, rng)
        if z is not None and z not in pr.assigned_coords:
            return z
    return None


def _fresh_points(draw: Callable):
    """Unassigned draws, at most nprobes of them out of 4 * nprobes."""
    def stream(pr: _Probe, rng: random.Random):
        found = 0
        for _ in range(4 * pr.nprobes):
            if found == pr.nprobes:
                return
            z = draw(pr, rng)
            if z is not None and z not in pr.assigned_coords:
                found += 1
                yield z
    return stream


def _random_pairs(draw1: Callable, draw2: Callable):
    """nprobes draws of a pair, kept when both are distinct unassigned points."""
    def stream(pr: _Probe, rng: random.Random):
        for _ in range(pr.nprobes):
            z1, z2 = draw1(pr, rng), draw2(pr, rng)
            if z1 is None or z2 is None or z1 == z2:
                continue
            if z1 not in pr.assigned_coords and z2 not in pr.assigned_coords:
                yield z1, z2
    return stream


def _generic_tangents(pr: _Probe, rng: random.Random):
    for _ in range(pr.nprobes):
        z = _random_proj_point(rng, pr.p)
        if z in pr.assigned_coords:
            continue
        v = _random_proj_point(rng, pr.p)
        if not _proportional(z, v, pr.p):
            yield z, v


def _curve_tangents(pr: _Probe, rng: random.Random):
    for _ in range(pr.nprobes):
        zpt = _sample_curve_point(pr.geom, rng)
        if zpt is None or zpt.coords in pr.assigned_coords:
            continue
        v = _curve_tangent(pr.geom, zpt)
        if v is not None:
            yield zpt.coords, v


def _point_data(z) -> dict:
    return {"point": list(map(int, z))}


def _line_point_data(z) -> dict:
    return dict(_point_data(z), through="deepest pair")


def _pair_data(pair) -> dict:
    return {"pair": [list(map(int, z)) for z in pair]}


def _tangent_data(zv) -> dict:
    z, v = zv
    return {"point": list(map(int, z)), "direction": list(map(int, v))}


# count rules for ``checked``: every valid candidate counts, also those past
# the witness (_EVERY_IF_ANY leaves a zero count out), or only the candidates
# up to and including the witness (_TO_WITNESS)
_EVERY, _EVERY_IF_ANY, _TO_WITNESS = "every", "every-if-any", "to-witness"

# The random categories, run in this order by ``_Probe.scan``.  Columns: the
# category (a ``checked`` key and the witness kind), its derive_seed label,
# candidate stream, test per block, witness data, count rule, and whether it
# needs an assigned point (the line categories).  Labels and draw order are
# part of the output.
_BASE_CATEGORIES = (
    ("on-line", "probe-line", _line_points,
     _Probe.vanishing, _line_point_data, _EVERY_IF_ANY, True),
    ("on-curve", "probe-curve", _fresh_points(_curve_point),
     _Probe.vanishing, _point_data, _EVERY_IF_ANY, False),
    ("generic", "probe-generic", _fresh_points(_generic_point),
     _Probe.vanishing, _point_data, _EVERY, False),
)
_SEPARATION_CATEGORIES = (
    ("pair-on-line", "sep-line", _line_pairs,
     _Probe.unseparated, _pair_data, _EVERY, True),
    ("pair-on-curve", "sep-pair-on-curve", _random_pairs(_fresh_curve_point, _fresh_curve_point),
     _Probe.unseparated, _pair_data, _TO_WITNESS, False),
    ("pair-generic", "sep-pair-generic", _random_pairs(_generic_point, _generic_point),
     _Probe.unseparated, _pair_data, _TO_WITNESS, False),
    ("pair-mixed", "sep-pair-mixed", _random_pairs(_fresh_curve_point, _generic_point),
     _Probe.unseparated, _pair_data, _TO_WITNESS, False),
    ("tangent-generic", "sep-tangent", _generic_tangents,
     _Probe.flat, _tangent_data, _TO_WITNESS, False),
    ("tangent-on-curve", "sep-tangent-curve", _curve_tangents,
     _Probe.flat, _tangent_data, _TO_WITNESS, False),
)


def probe_base_locus(
    geom: Geometry,
    clazz: ThreefoldClass,
    nprobes: int = DEFAULT_PROBES,
    sysd: Optional[SystemData] = None,
) -> ProbeReport:
    """Hunt for base points the class did not assign.

    Categories, cheapest decisive first: points on the line spanned by the
    two deepest assigned points, fresh points on the curve, generic points
    of the ambient space, and (only when the curve degree is exactly 1) the
    exact resultant hunt for the single forced curve point.
    """
    pr = _Probe("base-locus", geom, clazz, nprobes, sysd)
    report = pr.scan(1, "empty-system", _BASE_CATEGORIES)
    if report is not None:
        return report

    notes: tuple[str, ...] = ()
    if pr.sysd.curve_degree == 1 and pr.d >= 1:
        found = hunt_common_zeros(
            geom, pr.sysd.kernel, pr.d, pr.assigned, frozenset(), pr.rng("probe-hunt")
        )
        pr.checked["isolated-hunt"] = 1
        if found:
            return pr.fired("isolated-on-curve", _point_data(found[0].coords))
        notes = ("exact hunt found no unassigned curve point",)

    return ProbeReport("base-locus", False, [], pr.checked, notes)


def probe_separation(
    geom: Geometry,
    clazz: ThreefoldClass,
    nprobes: int = DEFAULT_PROBES,
    sysd: Optional[SystemData] = None,
) -> ProbeReport:
    """Hunt for point pairs or tangent directions the forms cannot separate.

    A witness is a pair (or a point with a tangent direction) whose joint
    evaluation matrix against the whole basis has rank at most 1.  The two
    curve-degree gated hunts cover the structurally forced failures: a
    degree-1 class has a base point (which defeats every pairing), and a
    degree-2 class identifies each curve point with a partner.
    """
    pr = _Probe("separation", geom, clazz, nprobes, sysd)
    report = pr.scan(2, "insufficient-sections", _SEPARATION_CATEGORIES)
    if report is not None:
        return report
    p, d, kernel = pr.p, pr.d, pr.sysd.kernel

    def pair_witness(kind: str, z1, z2) -> Optional[ProbeReport]:
        if pr.unseparated([(z1, z2)])[0]:
            return pr.fired(kind, _pair_data((z1, z2)))
        return None

    notes: list[str] = []
    # a forced base point defeats every pairing
    if pr.sysd.curve_degree == 1 and d >= 1:
        found = hunt_common_zeros(
            geom, kernel, d, pr.assigned, frozenset(), pr.rng("sep-hunt-base")
        )
        pr.checked["base-point-hunt"] = 1
        if found:
            other = _random_proj_point(pr.rng("sep-pair"), p)
            report = pair_witness("unseparated-base-point", found[0].coords, other)
            if report:
                return report
        notes.append("degree-1 hunt found no base point")

    # curve degree 2: each curve point has a partner no form separates
    if pr.sysd.curve_degree == 2 and d >= 1:
        rng = pr.rng("sep-conjugate")
        tried = 0
        for _ in range(8):
            zpt = _sample_curve_point(geom, rng)
            if zpt is None or zpt.coords in pr.assigned_coords:
                continue
            tried += 1
            pr.checked["conjugate-hunt"] = tried
            w1 = pr.at([zpt.coords])[0]
            if not w1.any():
                other = _random_proj_point(rng, p)
                report = pair_witness("unseparated-base-point", zpt.coords, other)
                if report:
                    return report
                continue
            coeff_kernel = gfp.kernel_mod(w1.reshape(1, -1), p)
            sub = gfp.matmul_mod(coeff_kernel, kernel, p)
            partners = hunt_common_zeros(
                geom, sub, d, pr.assigned, frozenset([zpt.coords]), rng
            )
            for z2 in partners:
                report = pair_witness("conjugate-pair", zpt.coords, z2.coords)
                if report:
                    return report
            if tried >= 4:
                break
        pr.checked["conjugate-hunt"] = tried
        notes.append("degree-2 hunt found no unseparated pair")

    return ProbeReport("separation", False, [], pr.checked, tuple(notes))


# ---------------------------------------------------------------------------
# batteries


@dataclass
class TrialResult:
    prime: int
    seed: int
    dim: int
    h0: int
    h1: int
    rank: int
    n_rows: int
    n_cols: int

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "seed": self.seed,
            "dim": self.dim,
            "h0": self.h0,
            "h1": self.h1,
            "rank": self.rank,
            "conditions": self.n_rows,
            "monomials": self.n_cols,
        }


@dataclass
class ProbeSummary:
    fired: bool
    trials: tuple[tuple[int, int, bool], ...]
    first: Optional[ProbeReport]

    def to_dict(self) -> dict:
        return {
            "fired": self.fired,
            "trials": [
                {"prime": pr, "seed": sd, "fired": fl} for pr, sd, fl in self.trials
            ],
            "first_witness": self.first.to_dict() if self.first else None,
        }


@dataclass
class OracleReport:
    clazz: ThreefoldClass
    vdim: int
    edim: int
    curve_degree: int
    trials: tuple[TrialResult, ...]
    dim_min: int
    dim_max: int
    matches_expected: bool
    base: Optional[ProbeSummary]
    separation: Optional[ProbeSummary]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "class": format_class(self.clazz),
            "vdim": self.vdim,
            "edim": self.edim,
            "curve_degree": self.curve_degree,
            "trials": [t.to_dict() for t in self.trials],
            "dim_min": self.dim_min,
            "dim_max": self.dim_max,
            "matches_expected": self.matches_expected,
            "base_probes": self.base.to_dict() if self.base else None,
            "separation_probes": self.separation.to_dict() if self.separation else None,
        }


def run_battery(
    clazz: ThreefoldClass,
    primes: Sequence[int] = PRIMES,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    npoints: int = DEFAULT_POINTS,
    probes: int = 0,
) -> OracleReport:
    """Dimensions over every (prime, seed) pair, plus optional probes.

    Probe passes stop at the first firing geometry; the dimension pass
    always covers the full battery.
    """
    c = clazz.normalized()
    need = max(npoints, c.r)
    systems: list[SystemData] = []
    trials: list[TrialResult] = []
    for prime in primes:
        for seed in seeds:
            geom = get_geometry(prime, seed, need)
            sysd = solve_system(geom, c)
            systems.append(sysd)
            trials.append(
                TrialResult(prime, seed, sysd.dim, sysd.h0, sysd.h1, sysd.rank,
                            sysd.n_rows, sysd.n_cols)
            )
    dims = [t.dim for t in trials]
    vd, ed = systems[0].vdim, systems[0].edim
    base = separation = None
    if probes > 0:
        base = _probe_pass(systems, c, probes, probe_base_locus)
        separation = _probe_pass(systems, c, probes, probe_separation)
    return OracleReport(
        c, vd, ed, systems[0].curve_degree, tuple(trials),
        min(dims), max(dims), all(x == ed for x in dims), base, separation,
    )


def _probe_pass(systems, clazz, nprobes, fn) -> ProbeSummary:
    flags: list[tuple[int, int, bool]] = []
    first: Optional[ProbeReport] = None
    for sysd in systems:
        report = fn(sysd.geometry, clazz, nprobes, sysd)
        flags.append((sysd.prime, sysd.seed, report.fired))
        if report.fired:
            first = report
            break
    return ProbeSummary(any(f for _, _, f in flags), tuple(flags), first)
