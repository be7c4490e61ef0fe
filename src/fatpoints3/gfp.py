"""Exact arithmetic over prime fields: linear algebra and univariate tools.

Matrices are numpy int64 arrays with entries reduced mod p.  All primes in
use are below 2^31, so a product of two reduced entries stays below 2^62
and row elimination never overflows int64.

``rref_mod`` is Gauss-Jordan elimination over column panels of
``_PANEL`` columns.  Inside a panel each pivot updates only the rows still
free, which are the only rows a later pivot can come from, and only the
panel's columns, plus one recorded transform column per pivot: row r gets
a 1 in transform column s when it becomes the panel's s-th pivot, and the
same scale and eliminate steps then keep every free row written as a
combination of the panel's pivot rows as they stood when the panel began.
At the panel's end its pivot rows move up, in pivot order, under those of
the earlier panels, and the free rows below them keep their order.  The
earlier pivot rows take the panel's steps in one product: each loses its
entries in the panel's pivot columns times the panel's final pivot rows,
in the panel's columns and, as a transform, right of them.  The columns
right of the panel then take the row move and all of the panel's steps
at once, as one product of the transform with the pivot rows, in column
blocks of at most ``_PRODUCT_ENTRIES`` entries; the input is reduced in
bands of rows of that size.  So no temporary is as large as the matrix.
Every matrix takes this one route, whatever its shape.  The reduced form
and its pivot columns are unique, so the result does not depend on the
panels.

``rref_mod`` and ``kernel_from_rref`` also take a stack of B matrices of
one shape, as a (B, rows, cols) array with one modulus; a single matrix is
the stack of one.  The layers are reduced together, one set of numpy calls
per pivot for all of them, as long as they take their pivots on the same
rows and columns.  When two layers would pivot apart, ``rref_mod`` returns
None, leaving an int64 input part-reduced, and the caller reduces the
layers one at a time, as stacks of one.

``matmul_mod`` splits the second factor into 16-bit halves so that every
accumulated dot product stays exact.  With an inner dimension of at most
``_FLOAT_INNER`` = 64 the two halves go through float64 BLAS: every dot
product is an integer below 64 * 2^31 * 2^16 = 2^53, so float64 holds it
exactly and the result does not depend on the summation order or the
thread count of the BLAS.  Larger inner dimensions use int64 products.
``product`` is that product before its last reduction.  A caller that
adds it to other entries reduces the sum once: ``rref_mod`` for its earlier
pivot rows and its trailing columns, ``oracle`` for its kernels.  The
oracle's probe values, like ``matmul_mod``, reduce the product alone.

``reduce_mod`` reduces an array in place as ``x - (x // p) * p``.
numpy divides an int64 array by one int through a precomputed reciprocal
(libdivide, after Granlund and Montgomery, "Division by invariant integers
using multiplication", 1994), while ``%`` divides entry by entry, so on a
(5, 84, 84) stack the three calls take about half the time of one ``%``.
The floor quotient is exact, and x - (x // p) * p lies in [0, p), so
int64 arithmetic, exact mod 2^64, gets it right even where the product
wraps: every int64 entry is reduced exactly.  The quotient is a temporary
of x's size.  The sites are ``rref_mod``'s input bands, its per-pivot
block and its updates of the earlier pivot rows and of the trailing column
blocks, the high half of ``product``, the output of ``matmul_mod``, the
negated coefficients of ``kernel_from_rref``, and in ``oracle`` the pivot
columns of an extended kernel, ``SystemData.sketch`` and the probe values.
``oracle._kernels`` negates its reduced coefficients in place instead, as
p - x with p set back to 0.  On a few dozen entries the three calls cost
as much as one ``%``, so the pivot row, the factors of ``matmul_mod`` and
the oracle's elementwise helpers keep ``%``.

Polynomials are Python lists of ints, ascending powers, no trailing zeros
(the zero polynomial is the empty list).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

MAX_MODULUS = 2**31  # int64-safety bound for the elimination kernels
_PANEL = 24  # columns per elimination panel
_FLOAT_INNER = 64  # largest inner dimension of the float64 product
_PRODUCT_ENTRIES = 1 << 15  # entries per product of a panel's trailing update


# ---------------------------------------------------------------------------
# scalars


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for anything below 3.3 * 10^24."""
    if n < 2:
        return False
    small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for q in small:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@lru_cache(maxsize=None)
def _nonresidue(p: int) -> int:
    """The least quadratic non-residue mod an odd prime p."""
    z = 2
    while legendre(z, p) != -1:
        z += 1
    return z


def sqrt_mod(a: int, p: int) -> Optional[int]:
    """A square root of a mod an odd prime p, or None for a non-residue.

    Primes congruent to 3 mod 4 use the one-exponentiation shortcut
    a^((p+1)/4), which squares back to a exactly when a is a residue; the
    general case falls back to Tonelli-Shanks.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
        return x if x * x % p == a else None
    if legendre(a, p) != 1:
        return None
    # Tonelli-Shanks
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    m, c, t, x = s, pow(_nonresidue(p), q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        x = x * b % p
    return x


def inverses(a: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of the nonzero entries of a 1-d array, with one
    inversion: the running products are inverted once and unwound
    (Montgomery)."""
    vals = a.tolist()
    before, run = [], 1
    for x in vals:
        before.append(run)
        run = run * x % p
    inv, out = pow(run, -1, p), [0] * len(vals)
    for i in range(len(vals) - 1, -1, -1):
        out[i] = before[i] * inv % p
        inv = inv * vals[i] % p
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# matrices mod p (numpy int64)


def _check_modulus(p: int) -> None:
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} too large for the int64 kernels")


def rref_mod(mat: np.ndarray, p: int) -> Optional[tuple[np.ndarray, list[int]]]:
    """Reduced row echelon form mod p; returns (rref, pivot column list).

    Each pivot is taken in the first non-pivot row, in the rows' first
    order, with a nonzero entry, and the pivot rows end on top in pivot
    order, above the zero rows in their first order.  ``mat`` may also be a
    stack of shape (B, rows, cols) whose layers take their pivots on the
    same rows and columns; the pivot list is theirs.  For a stack whose
    layers would pivot apart the result is None.  An int64 ``mat`` is
    reduced in place, and the rref returned is ``mat`` itself: pass a copy
    to keep the entries.  On None it is left part-reduced; ``rank_mod``
    and ``kernel_mod`` pass copies, and ``oracle._kernels`` gathers the
    rows again.

    Every matrix is eliminated in panels of ``_PANEL`` columns, each with
    its transform columns.  Inside a panel the per-pivot steps run on the
    free rows only.  At the panel's end its pivot rows move up under the
    earlier ones, and those earlier ones take the panel's steps in one
    product.  The input's reduction, and the row move and the update of
    the columns right of a panel, go in pieces of at most
    ``_PRODUCT_ENTRIES`` entries, so the elimination allocates nothing of
    the matrix's size.
    """
    _check_modulus(p)
    out = np.asarray(mat, dtype=np.int64)
    m = out[None] if out.ndim == 2 else out
    nb, rows, cols = m.shape
    # bands of rows and blocks of columns of at most _PRODUCT_ENTRIES entries
    band = max(1, _PRODUCT_ENTRIES // (nb * cols or 1))
    width = max(1, _PRODUCT_ENTRIES // (nb * rows or 1))
    for r0 in range(0, rows, band):
        reduce_mod(m[:, r0:r0 + band], p)
    pivots: list[int] = []
    for c0 in range(0, cols, _PANEL):
        start = len(pivots)  # the rows above start are the pivot rows, in pivot order
        if start == rows:
            break
        c1 = min(c0 + _PANEL, cols)
        w = c1 - c0
        live = m[:, start:]  # the free rows, in their first order, zero left of c0
        # the panel's columns, then its transform columns
        panel = np.zeros((nb, rows - start, 2 * w), dtype=np.int64)
        panel[:, :, :w] = live[:, :, c0:c1]
        unused = np.ones(rows - start, dtype=bool)
        mine: list[int] = []  # the panel's pivot rows, as live rows
        for c in range(w):
            nz = panel[:, :, c] != 0
            nz &= unused
            first = nz.argmax(axis=1)
            pr = int(first[0])
            if not nz[0, pr]:  # no pivot in the first layer
                if nz.any():
                    return None
                continue
            if nb > 1 and (int(first.min()) != pr or not nz[:, pr].all()):
                return None
            s = len(mine)
            hi = w + s + 1  # transform columns past s are zero
            panel[:, pr, w + s] = 1
            row = panel[:, pr, c:hi]
            row *= inverses(row[:, 0], p)[:, None]
            row %= p
            update = panel[:, :, c, None] * row[:, None, :]
            update[:, pr] = 0
            block = panel[:, :, c:hi]
            block -= update
            reduce_mod(block, p)
            unused[pr] = False
            mine.append(pr)
            pivots.append(c0 + c)
            if s + 1 == rows - start:  # every free row has pivoted
                break
        k = len(mine)
        if not k:
            continue
        # the panel's pivot rows move up, in pivot order, above the rows still
        # free, which keep their order: only the live rows a to b - 1 change,
        # as the rows past the last pivot row stay
        moved = mine != list(range(k))
        perm = mine + np.flatnonzero(unused).tolist() if moved else slice(None)
        if moved:
            a, b = next(s for s, r in enumerate(mine) if s != r), max(mine) + 1
            dest, source = slice(start + a, start + b), start + np.array(perm[a:b])
        if start:
            # each earlier pivot row loses its entry in each of the panel's
            # pivot columns times that pivot's final row
            done = m[:, :start]
            steps = product(np.negative(done[:, :, pivots[-k:]]) % p,
                            panel[:, mine, :w + k], p)
            old = done[:, :, c0:c1]
            old += steps[:, :, :w]
            reduce_mod(old, p)
        live[:, :, c0:c1] = panel[:, perm, :w]
        if c1 == cols:
            break
        transform = np.empty((nb, rows, k), dtype=np.int64)
        transform[:, start:] = panel[:, perm, w:w + k]
        if start:
            transform[:, :start] = steps[:, :, w:] % p
        # move the rows as in the panel, replace the pivot rows and add each
        # row's recorded combination of them, one column block at a time
        for b0 in range(c1, cols, width):
            rest = m[:, :, b0:b0 + width]
            if moved:
                rest[:, dest] = rest[:, source]
            update = product(transform, rest[:, start:start + k], p)
            rest[:, start:start + k] = 0
            rest += update
            reduce_mod(rest, p)
    return out, pivots


def rank_mod(mat: np.ndarray, p: int) -> int:
    return len(rref_mod(np.array(mat, dtype=np.int64), p)[1])


def kernel_mod(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel, one vector per row, shape (nullity, cols)."""
    m, pivots = rref_mod(np.array(mat, dtype=np.int64), p)
    return kernel_from_rref(m, pivots, p)


def kernel_from_rref(m: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Right-kernel basis read off an already reduced matrix, or off each
    layer of a (B, rows, cols) stack that shares one pivot list."""
    cols = m.shape[-1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros(m.shape[:-2] + (free.size, cols), dtype=np.int64)
    basis[..., np.arange(free.size), free] = 1
    coeffs = m[..., : len(pivots), :][..., free]
    np.negative(coeffs, out=coeffs)
    reduce_mod(coeffs, p)
    basis[..., pivots] = np.swapaxes(coeffs, -1, -2)
    return basis


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p via a 16-bit split of b; inner dim up to 2^15."""
    _check_modulus(p)
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    if a.shape[-1] > 32768:
        raise ValueError("inner dimension too large for the overflow-free product")
    return reduce_mod(product(a, b, p), p)


def reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place by floor division, for an int64 array or view x;
    returns x."""
    q = x // p
    q *= p
    x -= q
    return x


def product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b for a and b reduced mod p, congruent to it mod p but not
    reduced: each entry is below 2^47 times one more than the inner
    dimension, so below 2^57 for the oracle's inner dimensions, at most 969
    monomials, and below 2^63 up to ``matmul_mod``'s limit of 2^15."""
    hi = b >> 16
    lo = b & 0xFFFF
    if a.shape[-1] <= _FLOAT_INNER:  # each dot product below 2^53: exact in float64
        a = a.astype(np.float64)
        out = (a @ hi.astype(np.float64)).astype(np.int64)
        lo = lo.astype(np.float64)
    else:
        out = a @ hi
    reduce_mod(out, p)
    out *= 65536
    out += (a @ lo).astype(np.int64, copy=False)
    return out


# ---------------------------------------------------------------------------
# univariate polynomials over GF(p)


def ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def pdeg(f: Sequence[int]) -> int:
    return len(f) - 1  # zero polynomial gets -1


def padd(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return ptrim(out)


def pscale(f: Sequence[int], c: int, p: int) -> list[int]:
    c %= p
    return ptrim([a * c % p for a in f])


def pmul(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return ptrim(out)


def pdivmod(f: Sequence[int], g: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = pdeg(g)
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - dg)
    while pdeg(f) >= dg and f:
        k = pdeg(f) - dg
        c = f[-1] * inv % p
        q[k] = c
        for i, b in enumerate(g):
            f[i + k] = (f[i + k] - c * b) % p
        ptrim(f)
    return ptrim(q), f


def pmod(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    return pdivmod(f, g, p)[1]


def pgcd(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    a, b = ptrim(list(f)), ptrim(list(g))
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def peval(f: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def pinterp(xs: Sequence[int], ys: Sequence[int], p: int) -> list[int]:
    """Lagrange interpolation through distinct nodes xs."""
    n = len(xs)
    poly: list[int] = []
    base = [1]
    # Newton form: build incrementally for O(n^2)
    for i in range(n):
        val = peval(poly, xs[i], p)
        denom = peval(base, xs[i], p)
        c = (ys[i] - val) * pow(denom, -1, p) % p
        poly = padd(poly, pscale(base, c, p), p)
        base = pmul(base, [(-xs[i]) % p, 1], p)
    return poly


def ppow_mod(f: Sequence[int], e: int, g: Sequence[int], p: int) -> list[int]:
    """f^e mod g over GF(p), by square and multiply."""
    result = [1]
    base = pmod(f, g, p)
    while e:
        if e & 1:
            result = pmod(pmul(result, base, p), g, p)
        base = pmod(pmul(base, base, p), g, p)
        e >>= 1
    return result


def divide_out_root(f: list[int], x0: int, p: int) -> tuple[list[int], int]:
    """Divide (x - x0)^k out of f for the maximal k; returns (quotient, k)."""
    k = 0
    lin = [(-x0) % p, 1]
    while f and peval(f, x0, p) == 0:
        f, rem = pdivmod(f, lin, p)
        assert not rem
        k += 1
    return f, k


def rational_roots(f: Sequence[int], p: int, rng: random.Random) -> list[int]:
    """All roots of f in GF(p), sorted; multiplicities not repeated.  rng
    needs only a ``randrange`` method."""
    f = ptrim(list(f))
    if not f or pdeg(f) == 0:
        return []
    x = [0, 1]
    xp = ppow_mod(x, p, f, p)
    h = pgcd(padd(xp, pscale(x, -1, p), p), f, p)
    roots: list[int] = []

    def split(g: list[int]) -> None:
        if pdeg(g) <= 0:
            return
        if pdeg(g) == 1:
            roots.append((-g[0]) * pow(g[1], -1, p) % p)
            return
        while True:
            c = rng.randrange(p)
            probe = ppow_mod([c, 1], (p - 1) // 2, g, p)
            probe = padd(probe, [-1], p)
            g1 = pgcd(probe, g, p)
            if 0 < pdeg(g1) < pdeg(g):
                split(g1)
                split(pdivmod(g, g1, p)[0])
                return

    split(h)
    return sorted(roots)


# ---------------------------------------------------------------------------
# resultants of binary forms via formal-degree bookkeeping


def _res_actual(f: list[int], g: list[int], p: int) -> int:
    """Resultant with respect to the actual degrees of nonzero f and g."""
    a, b = list(f), list(g)
    da, db = pdeg(a), pdeg(b)
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if (da * db) % 2 == 1:
            sign = -sign
    res = 1
    while True:
        if db == 0:
            res = res * pow(b[0], da, p) % p
            return res * sign % p
        r = pmod(a, b, p)
        dr = pdeg(r)
        if dr < 0:
            return 0
        res = res * pow(b[-1], da - dr, p) % p
        if (da * db) % 2 == 1:
            sign = -sign
        a, b, da, db = b, r, db, dr


def resultant_formal(f: Sequence[int], g: Sequence[int], n: int, m: int, p: int) -> int:
    """Resultant of binary forms of formal degrees n and m, given by their
    dehomogenized coefficient lists (ascending).  A drop in actual degree
    means a root at infinity; two simultaneous drops make the resultant 0,
    one drop contributes the other form's leading coefficient.
    """
    f = ptrim(list(c % p for c in f))
    g = ptrim(list(c % p for c in g))
    if not f or not g:
        return 0
    kf = n - pdeg(f)
    kg = m - pdeg(g)
    if kf < 0 or kg < 0:
        raise ValueError("formal degree below actual degree")
    if kf > 0 and kg > 0:
        return 0
    # Sylvester-determinant bookkeeping for roots at infinity: expanding
    # along the first column, a drop of k in f contributes (-1)^(k*m) times
    # lc(g)^k, while a drop of k in g contributes lc(f)^k with no sign.
    res = 1
    if kf > 0:
        res = pow(g[-1], kf, p)
        if (kf * m) % 2 == 1:
            res = -res % p
    if kg > 0:
        res = pow(f[-1], kg, p)
    return res * _res_actual(f, g, p) % p
