"""Compiled inner loops of the tridiagonal eigensolver.

Every kernel is a plain Python function JIT-compiled with numba when
available; without numba the same code runs interpreted (slow but
identical results, numerics included).
"""
from __future__ import annotations

import numpy as np

try:
    from numba import njit

    def _jit(fn):
        return njit(cache=True)(fn)

except ImportError:

    def _jit(fn):
        return fn


@_jit
def sturm_count(diag, offsq, mu, subst):
    """Number of eigenvalues strictly below mu (signs of the LDL pivots).

    ``subst`` replaces exact-zero pivots; it is positive so that an
    eigenvalue of a leading principal submatrix equal to mu is not counted
    (keeps the count strict and sturm_count(op, 0) == 0 for the singular
    free Laplacian).
    """
    count = 0
    d = diag[0] - mu
    if d == 0.0:
        d = subst
    if d < 0.0:
        count += 1
    for i in range(1, diag.shape[0]):
        d = (diag[i] - mu) - offsq[i - 1] / d
        if d == 0.0:
            d = subst
        if d < 0.0:
            count += 1
    return count


@_jit
def bisect_bracket(diag, offsq, index, lo, hi, rel_tol, lam_floor, subst):
    """Shrink [lo, hi] around the index-th eigenvalue.

    Requires count(lo) <= index < count(hi) on entry.  Stops when the width
    drops below rel_tol * max(|midpoint|, lam_floor) or no representable
    midpoint remains.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        scale = abs(mid)
        if scale < lam_floor:
            scale = lam_floor
        if hi - lo <= rel_tol * scale:
            break
        if sturm_count(diag, offsq, mid, subst) >= index + 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


@_jit
def factor_shifted(diag, off, sigma, pivot_floor):
    """LU factorization (no pivoting) of the shifted matrix H - sigma*I.

    Returns (pivots, multipliers, smallest |pivot| before clamping).
    ``pivot_floor`` is an overflow guard, orders of magnitude below any
    meaningful pivot: pivots below it (notably exact zeros) are replaced by
    +-pivot_floor with their sign kept, so the solve blows up along the
    wanted near-null direction instead of producing inf/NaN.
    """
    n = diag.shape[0]
    piv = np.empty(n)
    mult = np.empty(n - 1)
    min_abs = np.inf
    d = diag[0] - sigma
    ad = abs(d)
    if ad < min_abs:
        min_abs = ad
    if pivot_floor > 0.0 and ad < pivot_floor:
        d = pivot_floor if d >= 0.0 else -pivot_floor
    piv[0] = d
    for i in range(1, n):
        m = off[i - 1] / piv[i - 1]
        mult[i - 1] = m
        d = (diag[i] - sigma) - m * off[i - 1]
        ad = abs(d)
        if ad < min_abs:
            min_abs = ad
        if pivot_floor > 0.0 and ad < pivot_floor:
            d = pivot_floor if d >= 0.0 else -pivot_floor
        piv[i] = d
    return piv, mult, min_abs


@_jit
def solve_factored(piv, mult, off, rhs):
    """Solve (H - sigma*I) x = rhs given the factor_shifted output."""
    n = piv.shape[0]
    y = np.empty(n)
    y[0] = rhs[0]
    for i in range(1, n):
        y[i] = rhs[i] - mult[i - 1] * y[i - 1]
    x = np.empty(n)
    x[n - 1] = y[n - 1] / piv[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (y[i] - off[i] * x[i + 1]) / piv[i]
    return x
