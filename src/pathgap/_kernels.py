"""Inner loops of the tridiagonal eigensolver, in plain Python.

Every kernel reads its float64 arrays through ``memoryview`` and so
computes on Python floats: the same IEEE double operations, in the same
order, as indexing the arrays element by element, at a fraction of the cost
of numpy scalar arithmetic.  An elementwise step with no recurrence in it
(a shift, the multipliers) is one numpy operation on the whole array, with
the same bits; the recurrences of the solve are list comprehensions, and
the arrays the kernels return are new numpy arrays of those lists.  Only
the two kernels that build arrays import numpy, when they run.

A caller of ``bisect_bracket`` that knows the count outside an interval
(``known_lo``, ``known_hi``) spares the sweeps there; ``spectrum_low``
passes a certified band narrower than the stopping width, so it rarely
sweeps at all.  The first site is a step of its own: seeding one loop
with a zero off-diagonal term gives the same bits but costs 4-10% per
call.  ``factor_shifted`` and ``solve_factored`` make the one solve at
lambda0 that checks the glued ground state, with the path's unit
coupling; the Sturm pair keeps ``offsq`` (all ones) only for the
benchmark's positional calls of ``bisect_bracket``.
"""
from __future__ import annotations

import math


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


def factor_shifted(diag, sigma, pivot_floor):
    """LU factorization (no pivoting) of H - sigma*I, coupling -1 on every
    edge: a multiplier -1/d has the bits of b/d at b = -1.

    Returns (pivots, multipliers).  ``pivot_floor`` is an overflow guard,
    orders of magnitude below any meaningful pivot: pivots below it
    (notably exact zeros) are replaced by +-pivot_floor with their sign
    kept, so the solve blows up along the wanted near-null direction
    instead of producing inf/NaN.  With ``pivot_floor`` 0 an exact-zero
    pivot raises ZeroDivisionError.  ``diag - sigma`` is taken once by
    numpy, and the multipliers -(1/d) by one numpy division after the
    loop: the same IEEE quotients as the loop's.
    """
    import numpy as np
    shifted = memoryview(diag - sigma)
    d = shifted[0]
    if abs(d) < pivot_floor:
        d = pivot_floor if d >= 0.0 else -pivot_floor
    piv = [d]
    for s in shifted[1:]:
        d = s - 1.0 / d
        if abs(d) < pivot_floor:
            d = pivot_floor if d >= 0.0 else -pivot_floor
        piv.append(d)
    piv = np.array(piv)
    return piv, -(1.0 / piv[:-1])


def solve_factored(piv, mult, rhs):
    """Solve (H - sigma*I) x = rhs given the factor_shifted output."""
    import numpy as np
    rhs = memoryview(rhs)
    yi = rhs[0]
    y = [yi] + [yi := r - m * yi for r, m in zip(rhs[1:], memoryview(mult))]
    piv = memoryview(piv)
    xi = yi / piv[-1]
    x = [xi] + [xi := (yi + xi) / p for yi, p in zip(y[-2::-1], piv[-2::-1])]
    x.reverse()
    return np.array(x)
