"""A fixed piece of work, independent of the program, that gauges machine speed.

On a shared host the same work can run up to twice as slow for seconds or
minutes while other tenants are busy.  The harness times this work between
classes and rescales each class time by ``REFERENCE_S`` over the local
calibration time, so class times are in reference seconds: what they would
be on the host when the calibration work takes ``REFERENCE_S``.

The work mixes the two kinds of cost the workloads have: small numpy
operations driven from Python (an elimination mod p, as in the oracle) and
pure-Python tuple, string and dict work (as in the checkers).  It is frozen
here, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.004
_P = 2147483647
_MATRIX = np.random.default_rng(1).integers(0, _P, size=(30, 56), dtype=np.int64)


def _eliminate(mat: np.ndarray, p: int) -> int:
    m = mat % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = (m[other] - np.outer(m[other, c], m[r])) % p
        r += 1
    return r


def _bookkeeping() -> int:
    out = {}
    for d in range(12):
        for r in range(6):
            ms = tuple(sorted(((d * 7 + r * 3 + k) % 5 + 1 for k in range(r)), reverse=True))
            key = f"L3({d}; {', '.join(map(str, ms))})"
            out[key] = (4 * d - sum(ms), [m * m for m in ms], max(ms, default=0))
    return len(out)


def sample() -> float:
    """Seconds the calibration work takes right now."""
    t0 = time.perf_counter()
    for _ in range(2):
        _eliminate(_MATRIX, _P)
        _bookkeeping()
    return time.perf_counter() - t0
