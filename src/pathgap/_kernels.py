"""Inner loops of the tridiagonal eigensolver, in plain Python.

Every kernel reads its float64 arrays through ``memoryview`` and so
computes on Python floats: the same IEEE double operations, in the same
order, as indexing the arrays element by element, at a fraction of the cost
of numpy scalar arithmetic.  Arrays the kernels return are built with
``array.array("d")`` and handed out through ``np.frombuffer`` without a
copy.

A caller of ``bisect_bracket`` that knows the count outside an interval
(``known_lo``, ``known_hi``) spares the sweeps there; ``spectrum_low``
passes a certified band narrower than the stopping width, so it rarely
sweeps at all.  The first site is a step of its own: seeding one loop
with a zero off-diagonal term gives the same bits but costs 4-10% per
call.  ``factor_shifted`` and ``solve_factored`` make the one solve at
lambda0 that checks the glued ground state.
"""
from __future__ import annotations

import math
from array import array

import numpy as np


def sturm_count(diag, offsq, mu, subst):
    """Number of eigenvalues strictly below mu (signs of the LDL pivots).

    ``subst`` replaces exact-zero pivots; it is positive so that an
    eigenvalue of a leading principal submatrix equal to mu is not counted
    (keeps the count strict and sturm_count(op, 0) == 0 for the singular
    free Laplacian).  ``diag - mu`` is taken once per sweep by numpy, the
    same IEEE subtraction per element as inside the loop.
    """
    shifted = memoryview(diag - mu)
    count = 0
    d = shifted[0]
    if d <= 0.0:  # one test per site: -0.0 takes subst, NaN neither branch
        if d == 0.0:
            d = subst
        else:
            count = 1
    for s, b in zip(shifted[1:], memoryview(offsq)):
        d = s - b / d
        if d <= 0.0:
            if d == 0.0:
                d = subst
            else:
                count += 1
    return count


def bisect_bracket(diag, offsq, index, lo, hi, rel_tol, lam_floor, subst,
                   known_lo=-math.inf, known_hi=math.inf):
    """Shrink [lo, hi] around the index-th eigenvalue.

    Requires count(lo) <= index < count(hi) on entry.  Stops when the width
    drops below rel_tol * max(|midpoint|, lam_floor) or no representable
    midpoint remains.  A midpoint above ``known_hi`` becomes hi and one
    below ``known_lo`` becomes lo without a sweep: the caller vouches that
    the count there is known.
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
        if mid > known_hi:
            hi = mid
        elif mid < known_lo:
            lo = mid
        elif sturm_count(diag, offsq, mid, subst) > index:
            hi = mid
        else:
            lo = mid
    return lo, hi


def factor_shifted(diag, off, sigma, pivot_floor):
    """LU factorization (no pivoting) of the shifted matrix H - sigma*I.

    Returns (pivots, multipliers).  ``pivot_floor`` is an overflow guard,
    orders of magnitude below any meaningful pivot: pivots below it
    (notably exact zeros) are replaced by +-pivot_floor with their sign
    kept, so the solve blows up along the wanted near-null direction
    instead of producing inf/NaN.  With ``pivot_floor`` 0 an exact-zero
    pivot raises ZeroDivisionError.
    """
    diag = memoryview(diag)
    piv = array("d")
    mult = array("d")
    d = diag[0] - sigma
    if abs(d) < pivot_floor:
        d = pivot_floor if d >= 0.0 else -pivot_floor
    piv.append(d)
    for a, b in zip(diag[1:], memoryview(off)):
        m = b / d
        mult.append(m)
        d = (a - sigma) - m * b
        if abs(d) < pivot_floor:
            d = pivot_floor if d >= 0.0 else -pivot_floor
        piv.append(d)
    return np.frombuffer(piv), np.frombuffer(mult)


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
