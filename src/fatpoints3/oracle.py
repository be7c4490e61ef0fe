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

import collections
import hashlib
import itertools
import math
import random
import weakref
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import gfp
from .divclass import ThreefoldClass, format_class, vdim3

__all__ = ["PRIMES", "DEFAULT_SEEDS", "DEFAULT_PROBES", "Geometry", "SystemData", "OracleReport",
           "build_geometry", "get_geometry", "conditions_matrix", "solve_system",
           "probe_base_locus", "probe_separation", "run_battery"]

PRIMES = (2147483647, 1073741827, 1073741831)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_POINTS = 16
DEFAULT_PROBES = 64
MAX_PROBES = 100_000  # probes per category; their memory and time grow faster than linearly
MAX_GEOMETRIES = 96  # geometries of one battery, and of the geometry cache
# condition-matrix entries of one prime's stack, 512 MiB of int64; at its
# peak the prime's solve holds that stack, the same rows in its geometries'
# point stores at 4 bytes an entry, and the int32 kernel blocks
_MAX_ENTRIES = 2**26
MAX_DEGREE = 16
MAX_MULT = 5
_HISTORY = 8  # solves kept per geometry for later classes to extend

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


def _squarefree_binary_form(f: Sequence[int], n: int, p: int) -> bool:
    """Squarefree test for a binary form via the resultant of its partials."""
    full = [c % p for c in f] + [0] * (n + 1 - len(f))
    fs = gfp.ptrim([i * full[i] % p for i in range(1, n + 1)])
    ft = gfp.ptrim([(n - i) * full[i] % p for i in range(n)])
    return gfp.resultant_formal(fs, ft, n - 1, n - 1, p) != 0


# ---------------------------------------------------------------------------
# the sampled geometry


def _fiber_of(pt: Sequence[int], p: int) -> int:
    """The fiber (s:t) of a point (su:sv:tu:tv) as k, the fibre (k:1) for
    k below p and (1:0) for p: the encoding of ``_fiber_block``.

    (x:z) = (s:t) unless u = 0, and then (y:w) = (s:t).
    """
    s, t = (pt[0], pt[2]) if pt[0] or pt[2] else (pt[1], pt[3])
    return s * pow(t, -1, p) % p if t else p


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
    points: tuple[tuple[int, int, int, int], ...]


def _curve_value(geom: Geometry, pt: Sequence[int]) -> int:
    p = geom.prime
    # every lifted point lies on xw = yz by construction; this keeps a point
    # off that quadric from passing on the second quadric alone
    if _quad_eval(_qbar_coeffs(p), pt, p):
        return 1
    return _quad_eval(geom.qprime, pt, p)


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
    if npoints < 0:
        raise ValueError(f"npoints must be nonnegative, got {npoints}")
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
        # only a squarefree discriminant certifies a smooth curve: draw again
        if not _squarefree_binary_form(delta, 4, prime):
            continue
        geom = Geometry(prime, seed, attempt, qprime, forms, delta, ())
        words = _Words(random.Random(derive_seed("points", prime, seed, attempt)), geom,
                       8 * npoints + 64)
        # distinct points in draw order, from at most 64 * npoints curve
        # draws, each round drawing only as many as are still wanted
        points: dict[tuple, None] = {}
        drawn = 0
        while len(points) < npoints and drawn < 64 * npoints:
            k = min(npoints - len(points), 64 * npoints - drawn)
            z, ok = words.curve(k)
            drawn += k
            # a draw fails only after 512 fibres without a point: a new curve
            if not ok.all():
                break
            points.update(dict.fromkeys(map(tuple, z.tolist())))
        if len(points) == npoints and not any(_curve_value(geom, pt) for pt in points):
            return replace(geom, points=tuple(points))
    # a bound on the draws, so that no input loops for ever
    raise RuntimeError(f"no smooth configuration found for prime={prime} seed={seed}")


@lru_cache(maxsize=MAX_GEOMETRIES)
def _geometry(prime: int, seed: int, npoints: int) -> Geometry:
    return build_geometry(prime, seed, npoints)


def get_geometry(prime: int, seed: int, npoints: int = DEFAULT_POINTS) -> Geometry:
    """``build_geometry``, cached once per (prime, seed, npoints): leaving
    out ``npoints`` and passing ``DEFAULT_POINTS`` give one geometry."""
    return _geometry(prime, seed, npoints)


get_geometry.cache_clear = _geometry.cache_clear
get_geometry.cache_info = _geometry.cache_info


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
def _raised_monomials(d: int) -> tuple[np.ndarray, np.ndarray]:
    """For each coordinate k and degree-(d-1) exponent e, the index of the
    degree-d monomial x^e x_k and the exponent e_k + 1, both of shape
    (4, N'): the coefficients of the partial of g along x_k are g at the
    indices times those exponents."""
    index = {e: i for i, e in enumerate(map(tuple, monomial_exponents(d).tolist()))}
    lower = monomial_exponents(d - 1)
    raised = [[index[tuple(e)] for e in (lower + unit).tolist()]
              for unit in np.eye(4, dtype=np.int64)]
    return np.array(raised, dtype=np.int64).reshape(4, -1), lower.T + 1


@lru_cache(maxsize=None)
def _chart_rows(d: int, chart: int) -> tuple[np.ndarray, np.ndarray]:
    """The part of the condition rows that depends on the chart, not the point.

    Entry (alpha, e) of a point's rows is the derivative of the monomial
    x^e along alpha at the point's affine coordinates z: the product over
    the three coordinates j of the falling factorial e_j (e_j - 1) ...
    (e_j - alpha_j + 1) and z_j^(e_j - alpha_j).  Returns the products of
    the falling factorials, at most 16^4, shape (len(_ALPHAS), N), and for
    each entry the index of the degree-d monomial whose exponents off the
    chart are the e_j - alpha_j, which is z^(e - alpha) when the chart's
    coordinate is 1; the exponents are clipped at 0, which only hits
    entries whose falling factorial is 0.
    """
    off = [j for j in range(4) if j != chart]
    affine = monomial_exponents(d)[:, off].T
    exps, alphas = affine[:, None, :], np.array(_ALPHAS, dtype=np.int64).T[:, :, None]
    ff = np.prod([np.where(i < alphas, exps - i, 1) for i in range(MAX_MULT - 1)], axis=(0, 1))
    # every affine exponent of degree at most d is one degree-d monomial
    lookup = np.zeros((d + 1,) * 3, dtype=np.int64)
    lookup[tuple(affine)] = np.arange(affine.shape[1])
    return ff, lookup[tuple(np.maximum(exps - alphas, 0))]


def _mult_rows(m: int) -> int:
    return math.comb(m + 2, 3)


def _check_class(c: ThreefoldClass, layers: int) -> None:
    """Reject a normalized class whose conditions no geometry can hold, or
    whose condition matrices on ``layers`` geometries of one prime would
    pass ``_MAX_ENTRIES``: the one class gate, at every degree."""
    if any(m < 0 for m in c.mults):
        raise ValueError("negative multiplicity")
    if c.d < -3:
        raise ValueError("degree below -3 is outside the model")
    if c.d > MAX_DEGREE:
        raise ValueError(f"degree {c.d} outside the supported range -3..{MAX_DEGREE}")
    if any(m > MAX_MULT for m in c.mults):
        raise ValueError(f"multiplicity above the supported bound {MAX_MULT}")
    entries = layers * sum(map(_mult_rows, c.mults)) * math.comb(c.d + 3, 3)
    if entries > _MAX_ENTRIES:
        raise ValueError(f"a prime's condition matrices hold at most {_MAX_ENTRIES} entries, got {entries}")


def _check_conditions(geoms: Sequence[Geometry], c: ThreefoldClass) -> None:
    """Reject a normalized class whose conditions these geometries, one
    stack of one prime, cannot hold."""
    _check_class(c, len(geoms))
    for geom in geoms:
        if c.d >= geom.prime:
            raise ValueError("field characteristic too small for this degree")
        if c.r > len(geom.points):
            raise ValueError("geometry holds fewer sampled points than the class needs")


class _Workspace:
    """The solver state of one geometry, alive exactly as long as it is.

    ``rows[d]`` holds the degree-d condition rows of each point: point i's
    entry holds its C(m+2, 3) rows, the derivatives of orders below m, for
    the largest multiplicity m a class has asked of it, shape
    (C(m+2, 3), N), as int32: every entry is reduced below
    p < ``gfp.MAX_MODULUS`` = 2^31.  ``_rows`` and ``conditions_matrix``
    return them as int64.  ``point_rows`` fills a point again in full when
    a class asks it for a larger multiplicity, and leaves the other points'
    arrays as they are.  ``solves`` holds the (solution, layer) of the last
    ``_HISTORY`` classes solved on the geometry, oldest first, and ``last``
    is the newest, see ``_kernels``.  Each keeps only its kernel's pivot
    columns as int32, at most N^2/4 entries of 4 bytes per geometry, so the
    solves hold at most 8 N^2 bytes per geometry, what one int64 kernel
    may take.
    """

    def __init__(self) -> None:
        self.rows: dict[int, list] = {}
        self.solves: collections.deque = collections.deque(maxlen=_HISTORY)

    @property
    def last(self) -> Optional[tuple]:
        return self.solves[-1] if self.solves else None

    def point_rows(self, geom: Geometry, d: int, mults: tuple) -> list:
        """The degree-d rows of every point, point i's holding at least the
        orders below mults[i].  The points that hold fewer are filled
        again: one evaluation of the degree-d monomials per affine chart,
        times the chart's falling factorials, for each point's new depth."""
        n_cols = monomial_exponents(d).shape[0]
        rows = self.rows.get(d)
        if rows is None:
            rows = self.rows[d] = [np.empty((0, n_cols), dtype=np.int32)] * len(geom.points)
        deeper = {i: _mult_rows(m) for i, m in enumerate(mults) if len(rows[i]) < _mult_rows(m)}
        if not deeper:
            return rows
        at, depths = np.array(list(deeper)), np.array(list(deeper.values()))
        pts = np.array(geom.points, dtype=np.int64)[at]
        charts = (pts != 0).argmax(axis=1)
        for chart in np.unique(charts).tolist():
            mine = charts == chart
            ff, index = _chart_rows(d, chart)
            # the kept rows come before the int64 temporaries, so that the
            # heap can give the temporaries' pages back when they are freed
            groups = [(depth, np.flatnonzero(depths[mine] == depth))
                      for depth in np.unique(depths[mine]).tolist()]
            blocks = [np.empty((len(group), depth, n_cols), dtype=np.int32) for depth, group in groups]
            affine = pts[mine]
            affine[:, chart] = 1
            values = monomial_values(affine, d, geom.prime)
            for (depth, group), block in zip(groups, blocks):
                vals = values[group[:, None, None], index[:depth]]
                vals *= ff[:depth]
                vals %= geom.prime
                block[...] = vals
                for i, point in zip(at[mine][group].tolist(), block):
                    rows[i] = point
        return rows


_WORKSPACES: "weakref.WeakKeyDictionary[Geometry, _Workspace]" = weakref.WeakKeyDictionary()


def _workspace(geom: Geometry) -> _Workspace:
    ws = _WORKSPACES.get(geom)
    if ws is None:
        ws = _WORKSPACES[geom] = _Workspace()
    return ws


def _rows(geoms: Sequence[Geometry], d: int, done: tuple, mults: tuple) -> np.ndarray:
    """The rows imposing ``mults`` beyond the ``done`` multiplicities, one
    layer per geometry: shape (geometries, rows, N).

    ``done`` is no longer than ``mults`` and no entry of it is larger.  The
    rows come point by point: point i gives its orders from ``done[i]`` up
    to ``mults[i]``, each order's C(k+2, 2) rows in graded order, the same
    rows on every geometry.
    """
    done = done + (0,) * (len(mults) - len(done))
    n_cols = monomial_exponents(d).shape[0]
    # a degree with no monomial, below 0, has no condition row
    spans = [(i, _mult_rows(o), _mult_rows(m)) for i, (o, m) in enumerate(zip(done, mults))
             if o < m and n_cols]
    out = np.empty((len(geoms), sum(b - a for _, a, b in spans), n_cols), dtype=np.int64)
    if not spans:  # nothing to impose
        return out
    for layer, geom in zip(out, geoms):
        rows = _workspace(geom).point_rows(geom, d, mults)
        np.concatenate([rows[i][a:b] for i, a, b in spans], out=layer)
    return out


def conditions_matrix(geom: Geometry, clazz: ThreefoldClass) -> np.ndarray:
    """Stacked interpolation conditions for the class at the sampled
    points, point by point, each point's rows by order: ``_rows``' stack
    of one."""
    c = clazz.normalized()
    _check_conditions([geom], c)
    return _rows([geom], c.d, (), c.mults)[0]


@dataclass(eq=False)
class _Solution:
    """One stacked solve: a class and its kernels, one per geometry, which
    are identity on the same ``free`` columns; ``pivots`` are the others.
    Only ``block`` is kept, the kernels' pivot columns, shape
    (geometries, h0, N - h0), as int32: every entry is below p < 2^31.
    ``SystemData.kernel`` builds a whole kernel where one is read."""

    d: int
    mults: tuple
    free: np.ndarray
    pivots: np.ndarray
    block: np.ndarray


def _extends(s: _Solution, spaces: list, c: ThreefoldClass) -> bool:
    """Is ``s`` a class of c's degree with no larger multiplicity at any
    point, solved on these geometries as its layers 0..n-1, in order?"""
    return (s.d == c.d and len(s.mults) <= len(c.mults)
            and all(o <= m for o, m in zip(s.mults, c.mults))
            and all((s, layer) in ws.solves for layer, ws in enumerate(spaces)))


def _kernels(geoms: Sequence[Geometry], c: ThreefoldClass) -> list[tuple]:
    """Kernel basis of the class's conditions on each geometry, all of one
    prime, the one of the reduced ``conditions_matrix`` that is identity on
    the free columns, as the (solution, layer) that holds it.

    The geometries are solved as one stack, whose layers share their pivot
    rows and columns.  A stack of n geometries extends a base: a solve kept
    in their workspaces as its layers 0..n-1, in order, of a class of the
    same degree with no larger multiplicity at any point.  The last solve's
    own layers are returned at once, before any row is read, for its own
    class, as for the probe pass's stack of one on the first geometry of a
    battery, and when its kernel is empty, as no form is left to lose.  Else
    the base is the kept solve with an empty kernel or, failing that, the
    most condition rows, the newest on a tie; with none, the stack starts
    from the identity, every column free, which is the full elimination.
    Each base kernel ``K`` already satisfies every condition but the extra
    rows ``B``, each point's orders from its old multiplicity to its new
    one, as ``_rows`` gathers them.  The forms left are ``N K`` with ``N``
    the kernel of ``B K^T``, and ``N K`` is again identity on the free
    columns (the free columns of ``B K^T`` pick them out of the old ones),
    so it is exactly the basis a full elimination would give.  As ``K`` is
    identity on its free columns, ``B K^T`` is ``B`` on those columns plus
    a product over the pivot columns alone, taken unreduced
    (``gfp.product``), as ``rref_mod`` reduces its input.  The new block,
    ``N K`` on its pivot columns in their sorted order, is read straight
    off that reduced matrix: the old free columns that now pivot take the
    coefficients ``-red[:, kept]^T``, and K's pivot columns one product,
    reduced once with the kept rows of ``K`` added.  No whole kernel is
    built.  When two layers pivot differently the geometries are solved one
    by one, as stacks of one.  Each solve is kept in its geometries'
    workspaces.
    """
    p, n, n_cols = geoms[0].prime, len(geoms), monomial_exponents(c.d).shape[0]
    spaces = [_workspace(g) for g in geoms]
    last = spaces[0].last and spaces[0].last[0]
    if (last is not None and _extends(last, spaces, c)
            and (last.free.size == 0 or last.mults == c.mults)):
        return [(last, layer) for layer in range(n)]  # the stack may be a prefix
    bases = [s for s, layer in reversed(spaces[0].solves) if layer == 0 and _extends(s, spaces, c)]
    base = max(bases, default=None,
               key=lambda s: (s.free.size == 0, sum(map(_mult_rows, s.mults))))
    if base is None:
        free, pivots = np.arange(n_cols), np.arange(0)
        coords = _rows(geoms, c.d, (), c.mults)
    else:
        free, pivots, old = base.free, base.pivots, base.block[:n]
        rows = _rows(geoms, c.d, base.mults, c.mults)
        coords = gfp.product(rows[:, :, pivots], old.swapaxes(1, 2), p)
        coords += rows[:, :, free]
    reduced = gfp.rref_mod(coords, p)
    if reduced is None:  # the layers pivot apart
        return [_kernels([g], c)[0] for g in geoms]
    new = reduced[1]
    kept = np.ones(free.size, dtype=bool)
    kept[new] = False
    coeffs = reduced[0][:, :len(new)][:, :, kept]
    del coords, reduced  # the reduced matrix goes before the block comes
    # -x mod p in place: p - x, and p back to 0
    np.subtract(p, coeffs, out=coeffs)
    coeffs[coeffs == p] = 0
    coeffs = coeffs.swapaxes(1, 2)
    is_free = np.zeros(n_cols, dtype=bool)
    is_free[free[kept]] = True
    new_free, new_pivots = np.flatnonzero(is_free), np.flatnonzero(~is_free)
    block = np.empty((n, new_free.size, new_pivots.size), dtype=np.int32)
    block[:, :, np.searchsorted(new_pivots, free[new])] = coeffs
    if pivots.size:
        update = gfp.product(coeffs, old[:, new], p)
        update += old[:, kept]
        block[:, :, np.searchsorted(new_pivots, pivots)] = gfp.reduce_mod(update, p)
    solution = _Solution(c.d, c.mults, new_free, new_pivots, block)
    for layer, ws in enumerate(spaces):
        ws.solves.append((solution, layer))
    return [(solution, layer) for layer in range(n)]


@dataclass
class SystemData:
    """One exact interpolation computation for one class on one geometry:
    layer ``layer`` of the stacked ``solution``."""

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
    solution: _Solution
    layer: int
    geometry: Geometry

    @property
    def kernel(self) -> np.ndarray:
        """The kernel basis, shape (h0, N), as read-only int64, built on each
        read: identity on the solve's free columns, the layer's block on
        its pivot columns."""
        kernel = np.zeros((self.h0, self.n_cols), dtype=np.int64)
        kernel[np.arange(self.h0), self.solution.free] = 1
        kernel[:, self.solution.pivots] = self.solution.block[self.layer]
        kernel.flags.writeable = False
        return kernel

    @cached_property
    def sketch(self) -> np.ndarray:
        """C^T K for the fixed h0 x 2 matrix C with columns (1, ..., 1) and
        (1, 2, ..., h0): two combinations of the basis forms, built on the
        first probe that reads them and shared by every later one."""
        weights = np.vstack([np.ones(self.h0, dtype=np.int64), np.arange(1, self.h0 + 1)])
        sketch = gfp.reduce_mod(gfp.product(weights, self.kernel, self.prime), self.prime)
        sketch.flags.writeable = False
        return sketch

    @cached_property
    def sketch_partials(self) -> np.ndarray:
        """The partial derivatives of the two sketch forms, shape (4, 2, N')
        over the degree d-1 monomials, built from ``sketch`` on the first
        tangent probe that reads them."""
        raised, factor = _raised_monomials(self.clazz.d)
        return (self.sketch[:, raised] * factor % self.prime).swapaxes(0, 1)


def solve_system(geom: Geometry, clazz: ThreefoldClass) -> SystemData:
    """Exact dimension of the class's space of forms on this geometry."""
    return _solve([geom], clazz)[0]


def _solve(geoms: Sequence[Geometry], clazz: ThreefoldClass) -> list[SystemData]:
    """``solve_system`` on each geometry, all of one prime, as one stack."""
    c = clazz.normalized()
    _check_conditions(geoms, c)
    solves = _kernels(geoms, c)
    vd = vdim3(c)
    e = 4 * c.d - sum(c.mults)
    n_cols = monomial_exponents(c.d).shape[0]
    n_rows = sum(map(_mult_rows, c.mults)) if n_cols else 0  # as in ``_rows``
    systems = []
    for geom, (solution, layer) in zip(geoms, solves):
        h0, rank = solution.block.shape[1:]
        data = SystemData(
            c, geom.prime, geom.seed, n_cols, n_rows,
            rank, h0, h0 - 1, h0 - (vd + 1), vd, max(-1, vd), e, solution, layer, geom,
        )
        # the rows cut at most their count from the N forms, so h0 is at least
        # vdim + 1; fewer forms left can only come from a wrong elimination
        if data.h1 < 0:
            raise AssertionError(
                f"interpolation rank exceeded the condition count for {format_class(c)}"
            )
        systems.append(data)
    return systems


# ---------------------------------------------------------------------------
# evaluation helpers


# The elementwise helpers take the modulus p as an int, or as an array of
# per-row moduli that broadcasts against the rows' last axis: shape (n, 1)
# for n points (n, 4), (n, 1, 1) for n pairs (n, 2, 4).


def _power_table(z, d: int, p) -> np.ndarray:
    """z[..., j]^t mod p for t = 0..d, as an array of shape z.shape + (d+1,)."""
    z = np.asarray(z, dtype=np.int64) % p
    pw = np.ones(z.shape + (d + 1,), dtype=np.int64)
    for t in range(1, d + 1):
        pw[..., t] = pw[..., t - 1] * z % p
    return pw


@lru_cache(maxsize=None)
def _half_monomials(d: int) -> tuple[np.ndarray, ...]:
    """The exponents (a, b) of the monomials of degree at most d in two
    coordinates, and for each degree-d monomial x^e the index among them
    of (e0, e1) and of (e2, e3)."""
    pairs = {(a, b): i for i, (a, b) in enumerate(
        (a, b) for a in range(d + 1) for b in range(d + 1 - a))}
    exps = monomial_exponents(d).tolist()
    first = np.array([pairs[e[0], e[1]] for e in exps], dtype=np.int64)
    last = np.array([pairs[e[2], e[3]] for e in exps], dtype=np.int64)
    return *np.array(list(pairs), dtype=np.int64).reshape(-1, 2).T, first, last


def monomial_values(z, d: int, p) -> np.ndarray:
    """Every degree-d monomial at a point z, or at each row of an (n, 4) stack:
    a monomial in the first two coordinates times one in the last two, each
    from a table of those of degree at most d, so a single reduction runs
    over all the degree-d monomials."""
    a, b, first, last = _half_monomials(d)
    pw = _power_table(z, d, p)
    head, tail = pw[..., 0, a] * pw[..., 1, b] % p, pw[..., 2, a] * pw[..., 3, b] % p
    return head[..., first] * tail[..., last] % p


def derivative_values(z, v, d: int, p) -> np.ndarray:
    """Directional derivative of every degree-d monomial at z along v.

    z and v are single points, or (n, 4) stacks paired row by row.  The
    partial along x_k of the monomial x^e x_k, for e of degree d-1, is
    (e_k + 1) x^e, so the values are the degree d-1 monomials at z placed
    by ``_raised_monomials``.
    """
    raised, factor = _raised_monomials(d)
    lower = monomial_values(z, d - 1, p)
    v = np.asarray(v, dtype=np.int64) % p
    total = np.zeros(lower.shape[:-1] + (monomial_exponents(d).shape[0],), dtype=np.int64)
    for k in range(4):
        total[..., raised[k]] += v[..., k, None] * factor[k] % p * lower % p
    return total % p


def _form_values(forms: np.ndarray, points: list, d: int, p: int) -> np.ndarray:
    """The degree-d forms (one coefficient row each) at each point: one row
    of values per point."""
    return gfp.matmul_mod(monomial_values(np.array(points), d, p), forms.T, p)


def _rank_le_1(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """Row by row for (n, k) stacks: do the rows of a and b span at most a line?

    With i the first nonzero entry of a, b is a multiple of a exactly when
    a * b[i] - b * a[i] vanishes; a zero row on either side always passes.
    """
    a, b = a % p, b % p
    rows = np.arange(a.shape[0])
    lead = (a != 0).argmax(axis=1)
    ai = a[rows, lead][:, None]
    bi = b[rows, lead][:, None]
    dependent = ~((a * bi - b * ai) % p).any(axis=1)
    return ~a.any(axis=1) | ~b.any(axis=1) | dependent


def _vanishing_at(kernel: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """The forms of ``kernel``'s span that vanish where its rows take the
    values w, not all zero: ``gfp.kernel_mod`` of the row w, times ``kernel``.
    With i the first nonzero entry of w, that is kernel[f] - (w[f] / w[i])
    kernel[i] for every other index f."""
    i = int(np.flatnonzero(w)[0])
    free = np.arange(len(w)) != i
    ratio = w[free] * pow(int(w[i]), -1, p) % p
    return (kernel[free] - np.outer(ratio, kernel[i])) % p


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
    assigned: Sequence[tuple],
    exclude: frozenset,
    rng: random.Random | _Words,
) -> list[tuple]:
    """Rational curve points, off the assigned set, where every form vanishes;
    rng needs only a ``randrange`` method.

    Eliminates the fiber coordinate by a resultant against the curve
    equation, interpolated from 4d+1 exact evaluations; shared roots of two
    random combinations cut the candidates down, the fibers of assigned
    points are divided out and re-checked through their partner points, and
    every candidate is verified against the full basis before being
    reported.  Output is therefore never a false positive.
    """
    p = geom.prime
    if sections.shape[0] == 0 or d < 1:
        return []
    xs = list(range(4 * d + 1))
    xpow = _power_table(xs, d, p)[:, ::-1]  # x^(d-i) in column i
    gammas = np.stack(_fiber_block(geom.forms, p, np.array(xs, dtype=np.int64))[:3], axis=1).tolist()

    def combo_resultant() -> list[int]:
        cvec = np.array([rng.randrange(p) for _ in range(sections.shape[0])], dtype=np.int64)
        gg = gfp.matmul_mod(cvec.reshape(1, -1), sections, p).ravel()
        phi = bihom_matrix(gg, d, p)
        fibers = gfp.matmul_mod(xpow, phi, p).tolist()
        vals = [gfp.resultant_formal(gam, sec, 2, d, p) for gam, sec in zip(gammas, fibers)]
        return gfp.pinterp(xs, vals, p)

    f, h = combo_resultant(), combo_resultant()
    if not f and not h:
        return []
    g = gfp.pgcd(f, h, p) if f and h else f or h
    assigned_fibers = [_fiber_of(pt, p) for pt in assigned]
    for k in assigned_fibers:
        if k < p:
            g, _ = gfp.divide_out_root(g, k, p)
    roots = gfp.rational_roots(g, p, rng)

    # every point over the root fibres, (1:0) and the assigned fibres
    ks = np.array(roots + [p] + assigned_fibers, dtype=np.int64)
    block = _fiber_block(geom.forms, p, ks)
    rows, pick = (block[-1][:, None] > [0, 1]).nonzero()
    z = _fiber_lift(ks[rows], pick, [x[rows] for x in block[:5]], p)
    candidates = sorted(set(map(tuple, z.tolist())) - exclude.union(assigned))
    if not candidates:
        return []
    zero = ~_form_values(sections, candidates, d, p).any(axis=1)
    return list(itertools.compress(candidates, zero))


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


def _check_probes(nprobes: int) -> None:
    if nprobes < 0:
        raise ValueError(f"probes must not be negative, got {nprobes}")
    if nprobes > MAX_PROBES:
        raise ValueError(f"probes must be at most {MAX_PROBES} per category, got {nprobes}")


class _Probe:
    """One layer of a probe call: one geometry's system, what its candidate
    streams need, and its ``checked`` counts."""

    def __init__(self, target: str, geom: Geometry, clazz: ThreefoldClass,
                 nprobes: int, sysd: Optional[SystemData]):
        _check_probes(nprobes)
        c = clazz.normalized()
        if sysd is not None and (sysd.geometry is not geom or sysd.clazz != c):
            raise ValueError("the system was solved for another class or geometry")
        self.sysd = solve_system(geom, c) if sysd is None else sysd
        self.target = target
        self.geom = geom
        self.p, self.d = geom.prime, c.d
        self.nprobes = nprobes
        self.tag = format_class(c)
        self.assigned = geom.points[: c.r]
        self.assigned_coords = set(self.assigned)
        self.assigned_array = np.array(self.assigned, dtype=np.int64).reshape(-1, 4)
        self.checked: dict[str, int] = {}

    def rng(self, label: str, *extra: object) -> random.Random:
        return random.Random(derive_seed(label, self.p, self.geom.seed, self.tag, *extra))

    def fired(self, kind: str, data: dict) -> ProbeReport:
        return ProbeReport(self.target, True, [Witness(kind, data)], self.checked)

    def quiet(self, notes: Sequence[str] = ()) -> ProbeReport:
        return ProbeReport(self.target, False, [], self.checked, tuple(notes))

    def unassigned(self, points: np.ndarray) -> np.ndarray:
        """Per point of a (..., 4) stack: is it off the assigned points?"""
        return ~(points[..., None, :] == self.assigned_array).all(axis=-1).any(axis=-1)


class _Stack:
    """One probe call on a stack of layers, ``_Probe``s of one class in
    battery order, whose geometries may have different primes.

    Its tests take candidates of several layers at once, in layer order,
    with the layer of each in ``at``, and test each through a sketch of its
    own layer's basis forms and then through that layer's whole basis.  The
    elementwise work reads each candidate's prime as a column; a product
    with forms is one ``gfp.product`` per layer, so ``gfp`` keeps one
    modulus per call."""

    def __init__(self, layers: Sequence[_Probe]):
        self.layers, self.d = list(layers), layers[0].d
        self.primes = np.array([pr.p for pr in layers], dtype=np.int64)

    def scan(self, min_h0: int, short_kind: str, categories: tuple) -> list[ProbeReport]:
        """Each layer's report from the categories, up to the first layer
        that fired.

        A layer fires at once on fewer than min_h0 forms, else on its first
        witness.  The categories run in table order on the live layers,
        those before the first that fired.  Each draws every live layer's
        stream and tests their candidates, in layer and draw order, one
        block of at most _BLOCK at a time.  The first block with a witness
        ends the category: every candidate of an earlier layer lies in it or
        before it.  A curve stream's words are drawn and indexed for every
        live layer at once, in one ``_index``, before the streams run.
        """
        reports = [pr.fired(short_kind, {"h0": pr.sysd.h0}) if pr.sysd.h0 < min_h0 else None
                   for pr in self.layers]
        for name, label, stream, test, data, count, needs_point, reserve in categories:
            live = self.layers[:next((i for i, r in enumerate(reports) if r), len(reports))]
            if not live or (needs_point and not live[0].assigned):
                continue
            words = [_Words(pr.rng(label, pr.nprobes), pr.geom, reserve(pr) if reserve else 0)
                     for pr in live]
            if reserve:
                _index(words)
            drawn = [stream(pr, w) for pr, w in zip(live, words)]
            sizes = [len(z) for z in drawn]
            candidates, at = np.concatenate(drawn), np.repeat(np.arange(len(live)), sizes)
            hits: dict[int, int] = {}
            for start in range(0, len(candidates), _BLOCK):
                block = slice(start, start + _BLOCK)
                for k in np.flatnonzero(test(self, candidates[block], at[block]))[::-1].tolist():
                    hits[int(at[start + k])] = start + k
                if hits:
                    break
            for i, (pr, n, first) in enumerate(zip(live, sizes, itertools.accumulate([0, *sizes]))):
                hit = hits.get(i)
                if hit is not None and count == _TO_WITNESS:
                    n = hit - first + 1
                if n or count != _EVERY_IF_ANY:
                    pr.checked[name] = n
                if hit is not None:
                    reports[i] = pr.fired(name, data(candidates[hit]))
        stop = next((i + 1 for i, r in enumerate(reports) if r), len(reports))
        return [r or pr.quiet() for r, pr in zip(reports[:stop], self.layers)]

    def _products(self, x: np.ndarray, at: np.ndarray, forms: Callable) -> np.ndarray:
        """Each row of x, shape (n, ..., N), in layer order, times the forms
        ``forms(layer)`` of its layer, (f, N), transposed: shape (n, ..., f),
        with one ``gfp.product`` per layer.  Both factors are reduced, so
        the product is reduced once."""
        bounds = np.searchsorted(at, np.arange(len(self.layers) + 1)).tolist()
        out = []
        for pr, a, b in zip(self.layers, bounds, bounds[1:]):
            if a < b:
                vals = gfp.product(x[a:b].reshape(-1, x.shape[-1]), forms(pr).T, pr.p)
                gfp.reduce_mod(vals, pr.p)
                out.append(vals.reshape(x[a:b].shape[:-1] + (-1,)))
        return np.concatenate(out)

    def _confirm(self, rough: np.ndarray, at: np.ndarray, test: Callable, rows: Callable) -> np.ndarray:
        """``test`` per candidate on its values on the first k sketch forms
        of its layer, rough of shape (candidates, k, k), then on its layer's
        whole basis for the candidates the sketch flags, whose k monomial
        rows ``rows(flagged)`` gives, shape (flagged, k, N).

        ``test`` maps values of shape (candidates, k, forms) and their
        moduli to a mask.  A candidate that passes it on the basis passes it
        on any k combinations of the basis, so the sketch misses none and
        the mask is exactly the full test's; a false alarm costs one exact
        check.  The layers are checked in order, up to the first with a
        candidate that passes: the later ones leave the stack, and their
        candidates read False.
        """
        flagged = np.flatnonzero(test(rough, self.primes[at, None]))
        mask = np.zeros(len(rough), dtype=bool)
        if flagged.size:
            exact = rows(flagged)
            n, k, n_cols = exact.shape
            for i in np.unique(at[flagged]).tolist():
                mine, pr = at[flagged] == i, self.layers[i]
                values = gfp.product(exact[mine].reshape(-1, n_cols), pr.sysd.kernel.T, pr.p)
                gfp.reduce_mod(values, pr.p)
                mask[flagged[mine]] = test(values.reshape(int(mine.sum()), k, -1), pr.p)
                if mask.any():
                    break
        return mask

    def _sketched(self, rows: np.ndarray, at: np.ndarray, test: Callable) -> np.ndarray:
        """``_confirm`` for candidates given by their k monomial rows, rows
        of shape (candidates, k, N)."""
        k = rows.shape[1]
        rough = self._products(rows, at, lambda pr: pr.sysd.sketch[:k])
        return self._confirm(rough, at, test, lambda flagged: rows[flagged])

    def vanishing(self, points: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Per point: does every form of its layer vanish there?"""
        return self._sketched(monomial_values(points, self.d, self.primes[at, None])[:, None], at, _vanish)

    def unseparated(self, pairs: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Per pair: do the forms of its layer fail to tell its points apart?"""
        return self._sketched(monomial_values(pairs, self.d, self.primes[at, None, None]), at, _dependent)

    def flat(self, tangents: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Per (point, direction): do the forms of its layer fail to separate
        the direction?"""
        d, p = self.d, self.primes[at, None]
        zs, vs = tangents[:, 0], tangents[:, 1]
        return self._confirm(self.tangent_sketch(zs, vs, at), at, _dependent, lambda flagged: np.stack(
            [monomial_values(zs[flagged], d, p[flagged]),
             derivative_values(zs[flagged], vs[flagged], d, p[flagged])], axis=1))

    def tangent_sketch(self, zs: np.ndarray, vs: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The sketch forms' values at each point z and their derivatives
        along its v, shape (n, 2, 2).

        A sketch form g has derivative D_v g(z) = sum_k v_k (d_k g)(z), and
        by Euler's identity, as g has degree d, the value d g(z) = sum_k z_k
        (d_k g)(z).  Its partials d_k g are forms of degree d-1, so this
        reads the degree d-1 monomial values alone; ``monomial_values`` of
        degree d and ``derivative_values`` run only on the candidates the
        sketch flags.
        """
        p = self.primes[at, None]
        slopes = self._products(monomial_values(zs, self.d - 1, p), at,
                                lambda pr: pr.sysd.sketch_partials.reshape(8, -1)).reshape(-1, 4, 2)
        along, euler = ((u[:, :, None] % p[:, None] * slopes % p[:, None]).sum(axis=1) % p for u in (vs, zs))
        inverse_d = np.array([pow(self.d, -1, q) for q in self.primes.tolist()])[at, None]
        return np.stack([euler * inverse_d % p, along], axis=1)


def _vanish(vals: np.ndarray, p) -> np.ndarray:
    """Per candidate of an (n, 1, forms) stack: is every value zero?"""
    return ~vals[:, 0].any(axis=1)


def _dependent(vals: np.ndarray, p) -> np.ndarray:
    """Per candidate of an (n, 2, forms) stack: do its rows span at most a line?"""
    return _rank_le_1(vals[:, 0], vals[:, 1], p)


# ---------------------------------------------------------------------------
# curve points from random words.  The lifts, tangents and inverses take
# one geometry and one prime.  Only ``_index`` works across a stack's
# layers, indexing their word blocks together, so ``_fiber_block`` and
# ``_power`` take the modulus as an int or one per row, as ``_moduli``
# gives it.


def _moduli(primes: list, sizes: list):
    """The modulus of each row, for rows in parts of the given sizes with
    the given primes: an int when the parts share one."""
    return primes[0] if len(set(primes)) == 1 else np.repeat(primes, sizes)


def _power(a: np.ndarray, e, p) -> np.ndarray:
    """a^e mod p entrywise, by square and multiply; entries in [0, p).  e
    and p are ints or one per entry: one chain of squarings serves every
    exponent, and each product is taken on the entries whose exponent has
    that bit."""
    out, base = np.ones_like(a), a.copy()
    exps = [int(e)] if np.ndim(e) == 0 else np.unique(e).tolist()
    every, some = (exps[0] if exps else 0), 0
    for x in exps:
        every, some = every & x, some | x
    top = some.bit_length()
    for t in range(top):
        if every >> t & 1:
            out *= base
            out %= p
        elif some >> t & 1:
            rows = (e >> t & 1).astype(bool)
            out[rows] = out[rows] * base[rows] % p[rows]
        if t + 1 < top:
            base *= base
            base %= p
    return out


def _fiber_block(forms, p, k: np.ndarray) -> tuple:
    """The fibre forms over the fibres k, (k:1) for k below p and (1:0) for
    p: the values a, b, c of the three forms f0 t^2 + f1 st + f2 s^2, the
    discriminant b^2 - 4ac, a root of it, and the number of curve points
    over the fibre, (a, b, c, disc, root, npts).  ``forms`` is a geometry's
    forms, or their coefficients per fibre, shape (3, 3, n).

    At p = 3 (mod 4) root is disc^((p+1)/4), which squares back to disc
    exactly on the squares; at other primes Euler's criterion decides and
    ``_fiber_lift`` takes the root.  A fibre has two points, one over a
    double root or for c = b = 0, and none for a non-square or a zero form.
    Each product is reduced before the next one, and a c before it is
    scaled by 4, so no entry passes 2^62."""
    ss = k * k % p
    a, b, c = ((f[0] + f[1] * k % p + f[2] * ss % p) % p for f in forms)
    at_infinity = (k == p).nonzero()[0]
    if at_infinity.size:  # (1:0) reads the s^2 coefficients
        for x, f in zip((a, b, c), forms):
            x[at_infinity] = np.broadcast_to(f[2], k.shape)[at_infinity]
    disc = (b * b - 4 * (a * c % p)) % p
    three = p % 4 == 3
    root = _power(disc, np.where(three, (p + 1) // 4, (p - 1) // 2), p)
    square = np.where(three, root * root % p == disc, root <= 1)
    npts = square * np.where(disc == 0, 1, 2)
    flat = (c == 0).nonzero()[0]
    if flat.size:
        npts[flat[(a[flat] | b[flat]) == 0]] = 0
    return a, b, c, disc, root, npts


def _fiber_lift(k: np.ndarray, pick: np.ndarray, rows, p: int) -> np.ndarray:
    """The pick-th curve point over each fibre k, given the fibres'
    ``_fiber_block`` rows (a, b, c, disc, root, ...), shape (n, 4).  The
    points over a fibre are in the order of their roots (u:v), each scaled
    to (0:1) or (1:v), and each pick is below the fibre's point count.

    The roots are (2c : +-r - b) for c nonzero, with r a root of disc, and
    (0:1) and (b : -a) for c = 0.  A point (su:sv:tu:tv) is scaled by its
    first nonzero coordinate, (s or t)(u or v), with one inversion for all
    rows.  Over (k:1) with k and c nonzero that coordinate is 2ck, whose
    inverse gives 1/k and 1/(2c), and the root (1:v) the point (1 : v : 1/k
    : v/k).  The other rows, k = 0, (1:0) and c = 0, are lifted apart."""
    a, b, c, disc, root = rows[:5]
    if p % 4 == 1:
        root = np.array([gfp.sqrt_mod(x, p) for x in disc.tolist()], dtype=np.int64)
    # lead = unit * w: unit is s or t, w the u or v of the unscaled root
    unit, w = k, 2 * c % p
    lead = w * unit % p
    rare = (lead == 0).nonzero()[0]
    if rare.size:
        kr, flat, second = k[rare], c[rare] == 0, pick[rare] == 1
        s, t = np.where(kr == p, 1, kr), (kr < p).astype(np.int64)
        unit = k.copy()
        unit[rare] = np.where(s != 0, s, t)
        w[rare] = np.where(flat, np.where(second, b[rare], 1), w[rare])
        lead[rare] = unit[rare] * w[rare] % p
    inv = gfp.inverses(lead, p)
    r_s, scale = w * inv % p, unit * inv % p  # 1/unit and 1/w
    v1 = (root - b) % p * scale % p
    v2 = (-root - b) % p * scale % p
    v = np.where(pick == 1, np.maximum(v1, v2), np.minimum(v1, v2))
    out = np.stack([np.ones_like(v), v, r_s, v * r_s % p], axis=1)
    if rare.size:  # for c = 0 the roots (0:1), then (1 : -a/b)
        v = np.where(flat, np.where(second, -a[rare] % p * scale[rare] % p, 1), v[rare])
        u = (~flat | second).astype(np.int64)
        out[rare] = np.stack([s * u, s * v % p, t * u, t * v % p], axis=1) * r_s[rare, None] % p
    return out


def _tangents(geom: Geometry, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A tangent direction of the curve, not along the point, at each point
    of an (n, 4) stack, zero where there is none, and which rows have one.

    The direction is the first vector of the right-kernel basis
    ``gfp.kernel_mod`` returns for the 2x4 Jacobian, or the second where the
    first lies along the point.  The pivots c1 < c2 of its echelon form are
    the first nonzero column and the first column independent of it, and
    by Cramer's rule the free column f reduces to (D(f, c2), D(c1, f)) /
    D(c1, c2), with D the 2x2 minor on two columns; its basis vector is e_f
    minus that combination.  Two independent vectors never both lie along
    one point, so every point with a Jacobian of rank 2 has a direction.
    """
    p, n = geom.prime, len(points)
    quad = np.zeros((4, 4), dtype=np.int64)
    for (i, j), coef in zip(_QUAD_PAIRS, geom.qprime):
        quad[i, j] += coef
        quad[j, i] += coef
    x, y, z, w = points.T
    grad1 = np.stack([w, -z % p, -y % p, x], axis=1)
    grad2 = (points[:, :, None] * (quad % p) % p).sum(axis=1) % p
    minors = (grad1[:, :, None] * grad2[:, None, :] - grad1[:, None, :] * grad2[:, :, None]) % p
    rows = np.arange(n)
    c1 = ((grad1 != 0) | (grad2 != 0)).argmax(axis=1)
    # D(c1, c) = 0 for c <= c1, so c2 is the first column where it is not
    independent = minors[rows, c1] != 0
    ok = independent.any(axis=1)
    # a row of rank below 2 takes c2 = 3 - c1, so it too has two free columns
    c2 = np.where(ok, independent.argmax(axis=1), 3 - c1)
    inv = gfp.inverses(np.where(ok, minors[rows, c1, c2], 1), p)[:, None]
    cols = np.arange(4)
    free = np.nonzero((cols != c1[:, None]) & (cols != c2[:, None]))[1].reshape(n, 2)
    rows, c1, c2 = rows[:, None], c1[:, None], c2[:, None]
    basis = np.zeros((n, 2, 4), dtype=np.int64)
    basis[rows, [0, 1], free] = 1
    basis[rows, [0, 1], c1] = -minors[rows, free, c2] * inv % p
    basis[rows, [0, 1], c2] = -minors[rows, c1, free] * inv % p
    along = _rank_le_1(points, basis[:, 0], p)
    dirs = np.where(along[:, None], basis[:, 1], basis[:, 0])
    dirs[~ok] = 0
    return dirs, ok


class _Words:
    """One stream's random words, drawn in blocks and read as the
    ``randrange`` calls of its draws read them.

    ``randrange(b)`` takes 32-bit words until one, shifted right by
    ``32 - b.bit_length()``, is below b, and one ``getrandbits(32 k)``
    returns the next k words, the first in the low bits.  So a stream's
    draws are parsed from word blocks in numpy.  Its ``random.Random`` is
    private to it, so words drawn past the last one read change no draw.
    ``pos`` is the first word not read.

    Every reader reads the words by their rank in ``accepted(b)``, the
    words ``randrange(b)`` accepts: n draws of one bound read the n
    accepted words from the rank of pos on.  A point of space is four
    ``randrange(p)``, drawn again while all four are zero.  A curve draw is
    ``randrange(p + 1)``, the fibre (k:1) for k below p and (1:0) for p,
    until a fibre with points, at most 512 times, and then ``randrange(n)``
    picks one of the fibre's n points; for n = 1 or 2 that reads the next
    word ``randrange(2)`` accepts, the words below 2^31.  ``_index`` looks
    up each fibre draw's fibre, the next fibre draw with points and the
    pick after it, for the walk in ``curve_draw``; it finds the picks
    straight from the words, as nothing reads them by rank.
    """

    def __init__(self, rng: random.Random, geom: Geometry, reserve: int = 0):
        self.rng, self.geom, self.p = rng, geom, geom.prime
        self.words = np.zeros(0, dtype=np.int64)
        self.pos = 0
        self.lookups: dict[int, tuple] = {}
        self.walk: Optional[tuple] = None
        if reserve:
            self._draw(reserve)

    def _draw(self, n: int) -> None:
        """Draw n more words; the lookups over the words drawn go."""
        block = self.rng.getrandbits(32 * n).to_bytes(4 * n, "little")
        block = np.frombuffer(block, dtype="<u4").astype(np.int64)
        self.words = np.concatenate([self.words, block]) if len(self.words) else block
        self.lookups, self.walk = {}, None

    def accepted(self, b: int) -> tuple[list, np.ndarray, np.ndarray]:
        """The words drawn that ``randrange(b)`` accepts: for each place, how
        many are before it, and their places and values."""
        lookup = self.lookups.get(b)
        if lookup is None:
            vals = self.words >> (32 - b.bit_length())
            ok = vals < b
            before = np.concatenate(([0], ok.cumsum())).tolist()
            lookup = self.lookups[b] = (before, ok.nonzero()[0], vals[ok])
        return lookup

    def take(self, b: int, n: int) -> np.ndarray:
        """n ``randrange(b)`` read at pos."""
        if not len(self.words):  # no lookup is built on an empty stream
            self._draw((n << b.bit_length()) // b + 64)
        while True:
            before, places, values = self.accepted(b)
            k = before[self.pos]
            short = k + n - len(places)
            if short <= 0:
                break
            self._draw(max((short << b.bit_length()) // b, len(self.words)) + 64)
        if n:
            self.pos = int(places[k + n - 1]) + 1
        return values[k:k + n]

    def randrange(self, n: int) -> int:
        """``randrange(n)`` read at pos, for 0 < n < 2^32."""
        return int(self.take(n, 1)[0])

    def points(self, count: int) -> np.ndarray:
        """count points of space, shape (count, 4).  The zero points among
        them are drawn again from the words after the last."""
        rows = [np.zeros((0, 4), dtype=np.int64)]
        while count:
            z = self.take(self.p, 4 * count).reshape(-1, 4)
            rows.append(z[z.any(axis=1)])
            count -= len(rows[-1])
        return np.concatenate(rows)

    def point(self) -> tuple:
        """The point of space read at pos, as ``points(1)`` reads it."""
        while True:
            z = tuple(self.take(self.p, 4).tolist())
            if any(z):
                return z

    def curve_draw(self) -> Optional[tuple[int, int]]:
        """The curve draw read at pos: the rank of its fibre among the fibre
        draws and its pick among the fibre's points, or None after 512
        fibres without one."""
        while True:
            if self.walk is None:
                _index([self])
            before, following, ends, picks = self.walk
            j = before[self.pos]
            k = following[j]
            if k - j >= 512:
                self.pos = int(self.accepted(self.p + 1)[1][j + 511]) + 1
                return None
            if ends[k]:
                self.pos = ends[k]
                return k, picks[k]
            self._draw(len(self.words) + 64)

    def curve(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """count curve draws, lifted as ``_lift`` lifts them."""
        return _lift(self, [self.curve_draw() for _ in range(count)])


def _index(stack: list) -> None:
    """The walk's lookups over the words drawn, for each ``_Words`` of the
    stack, with one ``_fiber_block`` for the fibre draws of all of them:
    for each place, the number of fibre draws before it, and by the rank
    of a fibre draw, the rank of the first fibre draw at or after it with
    points; the word after the pick that follows it, 0 where none was
    drawn; that pick, ``randrange(2)`` over two points and 0 over one; and
    for ``_lift`` its fibre and ``_fiber_block`` rows."""
    fibres = [words.accepted(words.p + 1) for words in stack]
    sizes = [len(places) for _, places, _ in fibres]
    forms = [words.geom.forms for words in stack]
    block = _fiber_block(forms[0] if len(stack) == 1 else np.repeat(forms, sizes, axis=0).transpose(1, 2, 0),
                         _moduli([words.p for words in stack], sizes),
                         np.concatenate([ks for _, _, ks in fibres]))
    cuts = [0, *itertools.accumulate(sizes)]
    for words, (before, places, ks), a, b in zip(stack, fibres, cuts, cuts[1:]):
        # randrange(2) accepts the words below 2^31 and reads their bit 30
        picks = np.flatnonzero(words.words < 1 << 31)
        bits = words.words[picks] >> 30
        npts, after = block[-1][a:b], picks.searchsorted(places, side="right")
        ranks = np.where(npts > 0, np.arange(b - a), b - a)
        following = np.minimum.accumulate(ranks[::-1])[::-1].tolist() + [b - a]
        ends = (np.append(picks, -1)[after] + 1).tolist() + [0]
        words.walk = (before, following, ends, np.where(npts == 2, np.append(bits, 0)[after], 0).tolist())
        words.lifts = (ks, [x[a:b] for x in block[:5]])


def _lift(words: _Words, draws: list) -> tuple[np.ndarray, np.ndarray]:
    """The curve points of draws from ``words.curve_draw``, shape (n, 4),
    zero where a draw is None, and which rows are points.  The lift, square
    roots included, runs over these fibres only."""
    ok = np.array([d is not None for d in draws], dtype=bool)
    z = np.zeros((len(draws), 4), dtype=np.int64)
    drawn = [d for d in draws if d is not None]
    if drawn:
        ks, block = words.lifts
        j, pick = np.array(drawn, dtype=np.int64).T
        z[ok] = _fiber_lift(ks[j], pick, [x[j] for x in block], words.p)
    return z, ok


# ---------------------------------------------------------------------------
# candidate streams: each takes a layer and its ``_Words`` and returns the
# layer's candidates off its assigned points, in draw order, as one array:
# points (n, 4), pairs and tangents (n, 2, 4).  The words of a stream with
# curve draws come with a block drawn and indexed, see ``_Stack.scan``.


def _line_points(pr: _Probe, words: _Words) -> np.ndarray:
    """Points on the line through the two deepest assigned points; with one
    assigned point, on four random lines through it."""
    p = pr.p
    p1 = np.array(pr.assigned[0], dtype=np.int64)
    if len(pr.assigned) >= 2:
        lam, mu = words.take(p - 1, 2 * pr.nprobes).reshape(-1, 2).T + 1
        z = (lam[:, None] * p1 % p + mu[:, None] * np.array(pr.assigned[1]) % p) % p
    else:
        lines = [(words.points(1), words.take(p - 1, max(1, pr.nprobes // 4))) for _ in range(4)]
        z = np.concatenate([((lam[:, None] + 1) * u % p + p1) % p for u, lam in lines])
        z = z[z.any(axis=1)]
    return z[pr.unassigned(z)]


def _line_pairs(pr: _Probe, words: _Words) -> np.ndarray:
    """Pairs on the line through the two deepest assigned points; with one
    assigned point, each pair on a fresh random line through it."""
    p = pr.p
    if len(pr.assigned) >= 2:
        ls = words.take(p - 1, 2 * pr.nprobes).reshape(-1, 2) + 1
        p2 = np.array(pr.assigned[1], dtype=np.int64)
    else:
        lines = [(words.points(1), words.take(p - 1, 2)) for _ in range(max(1, pr.nprobes // 2))]
        ls, p2 = np.stack([l for _, l in lines]) + 1, np.stack([u for u, _ in lines])
    z = (ls[:, :, None] * p2 % p + np.array(pr.assigned[0])) % p
    return z[(ls[:, 0] != ls[:, 1]) & pr.unassigned(z).all(axis=1)]


def _fresh(pr: _Probe, words: _Words, curve: bool) -> np.ndarray:
    """Unassigned draws, curve draws (the on-curve stream) or points of
    space (the generic one), at most nprobes of them out of 4 * nprobes.
    Each round draws only as many as are still wanted, so none past the
    last."""
    found, drawn, want = [np.zeros((0, 4), dtype=np.int64)], 0, pr.nprobes
    while want and drawn < 4 * pr.nprobes:
        k = min(want, 4 * pr.nprobes - drawn)
        z, ok = words.curve(k) if curve else (words.points(k), True)
        found.append(z[ok & pr.unassigned(z)])
        drawn, want = drawn + k, want - len(found[-1])
    return np.concatenate(found)


# curve draws one round of ``_fresh_curve`` reads ahead
_CURVE_ROUND = 256


def _fresh_curve(pr: _Probe, words: _Words, count: int,
                 after: Optional[Callable] = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count unassigned curve points, each the first of up to 64 curve draws
    that is one, and after each a draw of ``after`` when given: the points
    (zero where 64 draws found none), which of them were found, and the
    ``after`` draws.

    Every draw is first taken to be such a point, in rounds of at most
    ``_CURVE_ROUND`` draws; from the first that is not one, the draws are
    read again, so a drawn point that is assigned wastes at most one round.
    """
    zs, found, others = [np.zeros((0, 4), dtype=np.int64)], [], []
    while len(found) < count:
        draws, ends, more = [], [], []
        for _ in range(min(count - len(found), _CURVE_ROUND)):
            draws.append(words.curve_draw())
            ends.append(words.pos)
            if after:
                more.append(after())
        z, ok = _lift(words, draws)
        ok &= pr.unassigned(z)
        j = len(draws) if ok.all() else int(np.argmin(ok))
        zs.append(z[:j])
        found += [True] * j
        others += more[:j]
        if j == len(draws):
            continue
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


def _curve_pairs(pr: _Probe, words: _Words) -> np.ndarray:
    """Pairs of distinct unassigned curve points."""
    z, ok, _ = _fresh_curve(pr, words, 2 * pr.nprobes)
    z, ok = z.reshape(-1, 2, 4), ok.reshape(-1, 2).all(axis=1)
    return z[ok & (z[:, 0] != z[:, 1]).any(axis=1)]


def _generic_pairs(pr: _Probe, words: _Words) -> np.ndarray:
    """Pairs of distinct unassigned points of space."""
    z = words.points(2 * pr.nprobes).reshape(-1, 2, 4)
    return z[(z[:, 0] != z[:, 1]).any(axis=1) & pr.unassigned(z).all(axis=1)]


def _mixed_pairs(pr: _Probe, words: _Words) -> np.ndarray:
    """An unassigned curve point paired with a distinct unassigned point of
    space."""
    z1, ok, z2 = _fresh_curve(pr, words, pr.nprobes, words.point)
    z2 = z2.reshape(-1, 4)
    z = np.stack([z1, z2], axis=1)
    return z[ok & (z1 != z2).any(axis=1) & pr.unassigned(z2)]


def _generic_tangents(pr: _Probe, words: _Words) -> np.ndarray:
    """An unassigned point of space and a direction not along it; an
    assigned point is skipped before its direction is drawn."""
    z = words.points(2 * pr.nprobes)
    assigned = (~pr.unassigned(z)).tolist()
    first, i = [], 0
    for _ in range(pr.nprobes):
        if assigned[i]:
            i += 1
            continue
        first.append(i)
        i += 2
    pairs = z[np.array(first, dtype=np.int64)[:, None] + [0, 1]]
    return pairs[~_rank_le_1(pairs[:, 0], pairs[:, 1], pr.p)]


def _curve_tangents(pr: _Probe, words: _Words) -> np.ndarray:
    """An unassigned curve point and a tangent direction there."""
    z, ok = words.curve(pr.nprobes)
    z = z[ok & pr.unassigned(z)]
    v, ok = _tangents(pr.geom, z)
    return np.stack([z[ok], v[ok]], axis=1)


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

# The random categories, run in this order by ``_Stack.scan``.  Columns: the
# category (a ``checked`` key and the witness kind), its derive_seed label,
# candidate stream, test per block, witness data, count rule, whether it
# needs an assigned point (the line categories), and for a stream with curve
# draws the words its ``_Words`` draws up front for a layer, to be indexed
# with the other layers'.  Labels and draw order are part of the output.
_BASE_CATEGORIES = (
    ("on-line", "probe-line", _line_points,
     _Stack.vanishing, _line_point_data, _EVERY_IF_ANY, True, None),
    ("on-curve", "probe-curve", partial(_fresh, curve=True),
     _Stack.vanishing, _point_data, _EVERY_IF_ANY, False, lambda pr: 8 * pr.nprobes + 64),
    ("generic", "probe-generic", partial(_fresh, curve=False),
     _Stack.vanishing, _point_data, _EVERY, False, None),
)
_SEPARATION_CATEGORIES = (
    ("pair-on-line", "sep-line", _line_pairs,
     _Stack.unseparated, _pair_data, _EVERY, True, None),
    ("pair-on-curve", "sep-pair-on-curve", _curve_pairs,
     _Stack.unseparated, _pair_data, _TO_WITNESS, False, lambda pr: 16 * pr.nprobes + 64),
    ("pair-generic", "sep-pair-generic", _generic_pairs,
     _Stack.unseparated, _pair_data, _TO_WITNESS, False, None),
    # about 6 words per curve draw, and 4 per random point, each kept with
    # chance p / 2^bits
    ("pair-mixed", "sep-pair-mixed", _mixed_pairs,
     _Stack.unseparated, _pair_data, _TO_WITNESS, False,
     lambda pr: (8 + (4 << pr.p.bit_length()) // pr.p) * pr.nprobes + 64),
    ("tangent-generic", "sep-tangent", _generic_tangents,
     _Stack.flat, _tangent_data, _TO_WITNESS, False, None),
    ("tangent-on-curve", "sep-tangent-curve", _curve_tangents,
     _Stack.flat, _tangent_data, _TO_WITNESS, False, lambda pr: 8 * pr.nprobes + 64),
)


def _target(target: str) -> tuple:
    """A probe target's settings: min_h0, the short witness kind, its
    category table, and its exact hunt keyed by the curve degree it covers.
    The table is read at call time, so a test that swaps it is seen."""
    if target == "base-locus":
        return 1, "empty-system", _BASE_CATEGORIES, {1: _base_hunt}
    return 2, "insufficient-sections", _SEPARATION_CATEGORIES, {1: _base_pair_hunt, 2: _conjugate_hunt}


def _reports(layers: list) -> list[ProbeReport]:
    """The layers' target probe on a stack, up to its first layer that
    fired; a hunted curve degree runs the hunt on a stack of one only."""
    pr = layers[0]
    min_h0, short_kind, categories, hunts = _target(pr.target)
    stack = _Stack(layers)
    reports = stack.scan(min_h0, short_kind, categories)
    hunt = hunts.get(pr.sysd.curve_degree)
    if len(layers) > 1 or reports[0].fired or hunt is None:
        return reports
    return [hunt(stack, pr)]


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
    exact resultant hunt for the single forced curve point.  The stack of
    one layer of ``_reports``.
    """
    return _reports([_Probe("base-locus", geom, clazz, nprobes, sysd)])[0]


def _base_point(pr: _Probe, label: str, key: str) -> Optional[tuple]:
    """Curve degree 1: the one unassigned curve point the forms all vanish
    at, hunted with the stream ``label`` and counted under ``key``, or None."""
    found = hunt_common_zeros(
        pr.geom, pr.sysd.kernel, pr.d, pr.assigned, frozenset(), pr.rng(label)
    )
    pr.checked[key] = 1
    return found[0] if found else None


def _base_hunt(stack: _Stack, pr: _Probe) -> ProbeReport:
    """Curve degree 1: the one curve point the forms all vanish at."""
    z = _base_point(pr, "probe-hunt", "isolated-hunt")
    if z is None:
        return pr.quiet(("exact hunt found no unassigned curve point",))
    return pr.fired("isolated-on-curve", _point_data(z))


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
    degree-2 class identifies each curve point with a partner.  The stack
    of one layer of ``_reports``.
    """
    return _reports([_Probe("separation", geom, clazz, nprobes, sysd)])[0]


def _verified_pair(stack: _Stack, pr: _Probe, kind: str, z1, z2) -> ProbeReport:
    """The witness of a pair a hunt built, checked against the whole basis.

    The check never fails: a hunted base point gives a zero row, and a
    partner z2 of z1 kills every form that vanishes at z1, so the row of z2
    is a multiple of the row of z1.  A pair that fails it is a fault of the
    hunt, raised as ``AssertionError``."""
    pair = np.array([(z1, z2)], dtype=np.int64)
    if not stack.unseparated(pair, np.zeros(1, dtype=np.int64))[0]:
        raise AssertionError(f"{pr.tag}: the forms separate a hunted {kind} pair")
    return pr.fired(kind, _pair_data((z1, z2)))


def _base_pair_hunt(stack: _Stack, pr: _Probe) -> ProbeReport:
    """Curve degree 1: a base point, which defeats every pairing."""
    z = _base_point(pr, "sep-hunt-base", "base-point-hunt")
    if z is None:
        return pr.quiet(("degree-1 hunt found no base point",))
    other = _Words(pr.rng("sep-pair"), pr.geom).point()
    return _verified_pair(stack, pr, "unseparated-base-point", z, other)


def _conjugate_hunt(stack: _Stack, pr: _Probe) -> ProbeReport:
    """Curve degree 2: a curve point and the partner no form separates it from."""
    p, d, geom, kernel = pr.p, pr.d, pr.geom, pr.sysd.kernel
    words = _Words(pr.rng("sep-conjugate"), geom)
    tried = 0
    for _ in range(8):
        z, ok = words.curve(1)
        z1 = tuple(z[0].tolist())
        if not ok[0] or z1 in pr.assigned_coords:
            continue
        tried += 1
        pr.checked["conjugate-hunt"] = tried
        w1 = _form_values(kernel, [z1], d, p)[0]
        if not w1.any():
            return _verified_pair(stack, pr, "unseparated-base-point", z1, words.point())
        sub = _vanishing_at(kernel, w1, p)
        partners = hunt_common_zeros(
            geom, sub, d, pr.assigned, frozenset([z1]), words
        )
        if partners:
            return _verified_pair(stack, pr, "conjugate-pair", z1, partners[0])
        if tried >= 4:
            break
    pr.checked["conjugate-hunt"] = tried
    return pr.quiet(("degree-2 hunt found no unseparated pair",))


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
    probes: int = 0,
) -> OracleReport:
    """Dimensions over every (prime, seed) pair, plus optional probes.

    The dimension pass always covers the full battery, solving the seeds of
    each prime as one stack; probe passes take the geometries in stacks, in
    battery order, and stop at the first firing geometry.
    A battery of more than ``MAX_GEOMETRIES`` pairs, or of a class that
    ``_check_class`` refuses at any degree, negative ones included (a bad
    degree or multiplicity, or condition matrices of one prime past
    ``_MAX_ENTRIES`` entries), is refused before any geometry is built.
    """
    if not primes or not seeds:
        raise ValueError("a battery needs at least one prime and one seed")
    n = len(primes) * len(seeds)
    if n > MAX_GEOMETRIES:
        raise ValueError(f"a battery has at most {MAX_GEOMETRIES} geometries, got {n}")
    _check_probes(probes)
    c = clazz.normalized()
    _check_class(c, len(seeds))
    need = max(DEFAULT_POINTS, c.r)
    systems: list[SystemData] = []
    for prime in primes:
        systems += _solve([get_geometry(prime, seed, need) for seed in seeds], c)
    trials = [
        TrialResult(s.prime, s.seed, s.dim, s.h0, s.h1, s.rank, s.n_rows, s.n_cols)
        for s in systems
    ]
    dims = [t.dim for t in trials]
    vd, ed = systems[0].vdim, systems[0].edim
    base = separation = None
    if probes > 0:
        base = _probe_pass(systems, c, probes, "base-locus")
        separation = _probe_pass(systems, c, probes, "separation")
    return OracleReport(
        c, vd, ed, systems[0].curve_degree, tuple(trials),
        min(dims), max(dims), all(x == ed for x in dims), base, separation,
    )


def _probe_pass(systems, clazz, nprobes, target) -> ProbeSummary:
    """One probe over the battery's geometries in order, up to the first
    that fired: the flags and report the per-geometry loop gave.

    ``_reports`` probes a stack of up to _BLOCK // nprobes layers, at least
    one, so one evaluation of every layer's candidates holds about _BLOCK.
    A class whose curve degree the target hunts goes layer by layer: its
    hunt runs per layer and usually fires on the first.  Such a degree, 1
    or 2, already means d >= 1, as ``_check_class`` refuses a negative
    multiplicity."""
    hunts = _target(target)[3]
    size = 1 if systems[0].curve_degree in hunts else max(1, _BLOCK // nprobes)
    flags: list[tuple[int, int, bool]] = []
    first: Optional[ProbeReport] = None
    for start in range(0, len(systems), size):
        stack = systems[start:start + size]
        for sysd, report in zip(stack, _reports([_Probe(target, s.geometry, clazz, nprobes, s)
                                                 for s in stack])):
            flags.append((sysd.prime, sysd.seed, report.fired))
            first = report if report.fired else None
        if first:
            break
    return ProbeSummary(first is not None, tuple(flags), first)
