"""Tests for the exact mod-p linear algebra and polynomial helpers."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints3 import gfp

P = 1000003  # small enough to exercise, comfortably under 2^31


def sylvester_resultant(f, g, n, m, p):
    """Independent resultant: determinant of the (n+m) Sylvester matrix of
    the forms padded to formal degrees n and m, computed by fraction-free
    Gaussian elimination in exact integers, then reduced mod p.
    """
    fc = list(f) + [0] * (n + 1 - len(f))
    gc = list(g) + [0] * (m + 1 - len(g))
    size = n + m
    if size == 0:
        return 1 % p
    rows = []
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(fc)):
            row[i + j] = c % p
        rows.append(row)
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(gc)):
            row[i + j] = c % p
        rows.append(row)
    # determinant mod p by Gaussian elimination with modular inverses
    mat = [r[:] for r in rows]
    det = 1
    for c in range(size):
        piv = None
        for r in range(c, size):
            if mat[r][c] % p != 0:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det = det * mat[c][c] % p
        inv = pow(mat[c][c], -1, p)
        for r in range(c + 1, size):
            if mat[r][c]:
                factor = mat[r][c] * inv % p
                for k in range(c, size):
                    mat[r][k] = (mat[r][k] - factor * mat[c][k]) % p
    return det % p


def test_primality_known_values():
    assert gfp.is_probable_prime(2)
    assert gfp.is_probable_prime(2147483647)
    assert gfp.is_probable_prime(1073741827)
    assert gfp.is_probable_prime(1073741831)
    assert not gfp.is_probable_prime(1)
    assert not gfp.is_probable_prime(2147483647 * 3)
    assert not gfp.is_probable_prime(561)  # Carmichael


def test_sqrt_mod_both_branches():
    rng = random.Random(11)
    for p in (1000003, 2147483647, 1073741827, 13, 17):
        for _ in range(50):
            x = rng.randrange(1, p)
            a = x * x % p
            r = gfp.sqrt_mod(a, p)
            assert r is not None and r * r % p == a
        assert gfp.sqrt_mod(0, p) == 0
        nonresidues = sum(
            1 for _ in range(40) if gfp.sqrt_mod(rng.randrange(1, p), p) is None
        )
        assert nonresidues > 0  # about half should fail


def test_rref_rank_and_kernel():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rows, cols, inner = (
            int(rng.integers(1, 12)),
            int(rng.integers(1, 12)),
            int(rng.integers(1, 6)),
        )
        a = rng.integers(0, P, size=(rows, inner))
        b = rng.integers(0, P, size=(inner, cols))
        m = gfp.matmul_mod(a, b, P)
        r = gfp.rank_mod(m, P)
        assert r <= min(rows, cols, inner)
        ker = gfp.kernel_mod(m, P)
        assert ker.shape == (cols - r, cols)
        if ker.size:
            prod = gfp.matmul_mod(m, ker.T, P)
            assert not prod.any()
        # rank-nullity on the transpose as well
        assert gfp.rank_mod(m.T, P) == r


def test_rank_full_and_zero():
    assert gfp.rank_mod(np.zeros((3, 4), dtype=np.int64), P) == 0
    assert gfp.rank_mod(np.eye(5, dtype=np.int64), P) == 5


def test_matmul_mod_large_entries():
    # entries near the modulus and a big prime: would overflow a naive
    # int64 dot product at this size without the 16-bit split
    p = 2147483647
    n = 64
    a = np.full((n, n), p - 1, dtype=np.int64)
    out = gfp.matmul_mod(a, a, p)
    assert int(out[0, 0]) == n % p  # (-1)*(-1) summed n times


def test_poly_divmod_and_gcd():
    rng = random.Random(7)
    for _ in range(60):
        f = [rng.randrange(P) for _ in range(rng.randrange(1, 8))]
        g = [rng.randrange(P) for _ in range(rng.randrange(1, 8))]
        g = gfp.ptrim(g)
        if not g:
            continue
        q, r = gfp.pdivmod(f, g, P)
        assert gfp.ptrim(list(f)) == gfp.padd(gfp.pmul(q, g, P), r, P)
        assert gfp.pdeg(r) < gfp.pdeg(g) or not r
        h = [rng.randrange(P) for _ in range(3)]
        h = gfp.ptrim(h)
        if h and gfp.ptrim(list(f)):
            d = gfp.pgcd(gfp.pmul(f, h, P), gfp.pmul(g, h, P), P)
            # common factor h must divide the gcd
            _, rem = gfp.pdivmod(d, gfp.pgcd(h, h, P), P)
            assert not rem


def test_interpolation_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 10)
        f = gfp.ptrim([rng.randrange(P) for _ in range(n)])
        xs = rng.sample(range(P), max(1, len(f)))
        ys = [gfp.peval(f, x, P) for x in xs]
        g = gfp.pinterp(xs, ys, P)
        assert g == f or (not f and not g)


def test_rational_roots_reconstruction():
    rng = random.Random(19)
    for _ in range(25):
        roots = sorted(set(rng.randrange(P) for _ in range(rng.randrange(1, 6))))
        f = [1]
        for r in roots:
            f = gfp.pmul(f, [(-r) % P, 1], P)
        # multiply in an irreducible quadratic so not everything splits
        while True:
            c0, c1 = rng.randrange(P), rng.randrange(P)
            disc = (c1 * c1 - 4 * c0) % P
            if gfp.legendre(disc, P) == -1:
                break
        f = gfp.pmul(f, [c0, c1, 1], P)
        found = gfp.rational_roots(f, P, random.Random(99))
        assert found == roots


SMALL_PRIMES = [q for q in range(3, 102) if gfp.is_probable_prime(q)]


@st.composite
def small_field_polys(draw):
    """A nonzero polynomial over a small odd prime field: random of degree
    0-8, a product of linear factors with repeats, or irreducible quadratics
    times linear factors."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    coeff = st.integers(0, p - 1)
    kind = draw(st.sampled_from(("random", "repeated", "irreducible")))
    if kind == "random":
        return draw(st.lists(coeff, max_size=8)) + [draw(st.integers(1, p - 1))], p
    f = [draw(st.integers(1, p - 1))]
    for root in draw(st.lists(coeff, max_size=5)):
        for _ in range(draw(st.integers(1, 3) if kind == "repeated" else st.just(1))):
            f = gfp.pmul(f, [(-root) % p, 1], p)
    if kind == "irreducible":
        residues = {x * x % p for x in range(p)}
        for _ in range(draw(st.integers(1, 2))):
            b = draw(coeff)
            # x^2 + bx + c with discriminant b^2 - 4c a non-residue
            disc = draw(st.sampled_from([n for n in range(1, p) if n not in residues]))
            c = (b * b - disc) * pow(4, -1, p) % p
            f = gfp.pmul(f, [c, b, 1], p)
    return f, p


@settings(max_examples=300, deadline=None)
@given(small_field_polys(), st.integers(0, 2**32))
def test_rational_roots_match_brute_force(case, seed):
    f, p = case
    expected = [x for x in range(p) if gfp.peval(f, x, p) == 0]
    assert gfp.rational_roots(f, p, random.Random(seed)) == expected


def test_divide_out_root():
    f = gfp.pmul(gfp.pmul([3, 1], [3, 1], P), [5, 7], P)  # (x+3)^2 (7x+5)
    q, k = gfp.divide_out_root(list(f), (-3) % P, P)
    assert k == 2 and q == [5, 7]


def test_resultant_matches_sylvester():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 6)
        # random drop in actual degree to exercise roots at infinity
        da = n - (rng.randrange(3) if rng.random() < 0.4 else 0)
        db = m - (rng.randrange(3) if rng.random() < 0.4 else 0)
        f = [rng.randrange(P) for _ in range(max(0, da + 1))]
        g = [rng.randrange(P) for _ in range(max(0, db + 1))]
        f = gfp.ptrim(f)
        g = gfp.ptrim(g)
        if gfp.pdeg(f) > n or gfp.pdeg(g) > m:
            continue
        want = sylvester_resultant(f or [0], g or [0], n, m, P)
        got = gfp.resultant_formal(f, g, n, m, P)
        assert got == want, (f, g, n, m, got, want)


def test_resultant_shared_root_vanishes():
    rng = random.Random(31)
    for _ in range(40):
        r = rng.randrange(P)
        f = gfp.pmul([(-r) % P, 1], [rng.randrange(1, P), rng.randrange(1, P)], P)
        g = gfp.pmul([(-r) % P, 1], [rng.randrange(1, P), 1, 1], P)
        assert gfp.resultant_formal(f, g, gfp.pdeg(f), gfp.pdeg(g), P) == 0


def test_resultant_rejects_bad_formal_degree():
    with pytest.raises(ValueError):
        gfp.resultant_formal([1, 2, 3], [1], 1, 1, P)
