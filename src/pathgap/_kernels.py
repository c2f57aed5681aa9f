"""Inner loops of the tridiagonal eigensolver, in plain Python.

Every kernel reads its float64 arrays through ``memoryview`` and so
computes on Python floats: the same IEEE double operations, in the same
order, as indexing the arrays element by element, at a fraction of the cost
of numpy scalar arithmetic.  Arrays the kernels return are built with
``array.array("d")`` and handed out through ``np.frombuffer`` without a
copy.

A bisection step only asks whether the count at the midpoint reaches
``index + 1``, and the count only grows along a sweep, so ``bisect_bracket``
stops each Sturm sweep at the site where it does.  The brackets, and so
every result, stay bit-identical to the full-sweep reference loops.
"""
from __future__ import annotations

import math
from array import array

import numpy as np


def sturm_count(diag, offsq, mu, subst, stop=0):
    """Number of eigenvalues strictly below mu (signs of the LDL pivots).

    ``subst`` replaces exact-zero pivots; it is positive so that an
    eigenvalue of a leading principal submatrix equal to mu is not counted
    (keeps the count strict and sturm_count(op, 0) == 0 for the singular
    free Laplacian).  The sweep returns as soon as the count reaches
    ``stop``, so it returns min(count, stop); the default 0 counts all n
    sites.  ``diag - mu`` is taken once per sweep by numpy, the same IEEE
    subtraction per element as inside the loop.
    """
    shifted = memoryview(diag - mu)
    count = 0
    d = shifted[0]
    if d <= 0.0:  # one test per site: -0.0 takes subst, NaN neither branch
        if d == 0.0:
            d = subst
        else:
            count = 1
            if count == stop:
                return count
    for s, b in zip(shifted[1:], memoryview(offsq)):
        d = s - b / d
        if d <= 0.0:
            if d == 0.0:
                d = subst
            else:
                count += 1
                if count == stop:
                    return count
    return count


def bisect_bracket(diag, offsq, index, lo, hi, rel_tol, lam_floor, subst):
    """Shrink [lo, hi] around the index-th eigenvalue.

    Requires count(lo) <= index < count(hi) on entry.  Stops when the width
    drops below rel_tol * max(|midpoint|, lam_floor) or no representable
    midpoint remains.  Each step's sweep stops once its count reaches
    ``index + 1``; the brackets are bit-identical to full-count bisection.
    """
    stop = index + 1
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        scale = abs(mid)
        if scale < lam_floor:
            scale = lam_floor
        if hi - lo <= rel_tol * scale:
            break
        if sturm_count(diag, offsq, mid, subst, stop) == stop:
            hi = mid
        else:
            lo = mid
    return lo, hi


def factor_shifted(diag, off, sigma, pivot_floor):
    """LU factorization (no pivoting) of the shifted matrix H - sigma*I.

    Returns (pivots, multipliers, smallest |pivot| before clamping).
    ``pivot_floor`` is an overflow guard, orders of magnitude below any
    meaningful pivot: pivots below it (notably exact zeros) are replaced by
    +-pivot_floor with their sign kept, so the solve blows up along the
    wanted near-null direction instead of producing inf/NaN.  With
    ``pivot_floor`` 0 an exact-zero pivot raises ZeroDivisionError.
    """
    diag = memoryview(diag)
    piv = array("d")
    mult = array("d")
    min_abs = math.inf
    d = diag[0] - sigma
    ad = abs(d)
    if ad < min_abs:
        min_abs = ad
    if ad < pivot_floor:
        d = pivot_floor if d >= 0.0 else -pivot_floor
    piv.append(d)
    for a, b in zip(diag[1:], memoryview(off)):
        m = b / d
        mult.append(m)
        d = (a - sigma) - m * b
        ad = abs(d)
        if ad < min_abs:
            min_abs = ad
        if ad < pivot_floor:
            d = pivot_floor if d >= 0.0 else -pivot_floor
        piv.append(d)
    return np.frombuffer(piv), np.frombuffer(mult), min_abs


def solve_factored(piv, mult, off, rhs):
    """Solve (H - sigma*I) x = rhs given the factor_shifted output."""
    rhs = memoryview(rhs)
    y = array("d")
    yi = rhs[0]
    y.append(yi)
    for r, m in zip(rhs[1:], memoryview(mult)):
        yi = r - m * yi
        y.append(yi)
    piv = memoryview(piv)
    x = array("d")
    xi = yi / piv[-1]
    x.append(xi)
    for yi, o, p in zip(memoryview(y)[-2::-1], memoryview(off)[::-1], piv[-2::-1]):
        xi = (yi - o * xi) / p
        x.append(xi)
    x.reverse()
    return np.frombuffer(x)
