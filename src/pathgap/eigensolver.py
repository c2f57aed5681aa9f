"""Symmetric-tridiagonal eigensolver for path graphs: the two lowest levels
on Sturm counts, the ground state from its closed form, and closed-form
eigenvalue oracles.

Both solvers write a level as lambda = 4 sin^2(pi/(4s)), s = n/2 + u, and
find u by secant (Illinois) steps on the Wronskian inside brackets
certified by a Sturm count that costs O(support) and reads no length-n
array, so they reach any k; where the two-level model's window brackets a
root, the search starts at the model's root sigma +- Delta (``_roots``).
One builder (``_result``) turns the two brackets into the record: lambda0
at u0's midpoint and the gap from a formula in u that has no
cancellation, flagged ``precision_limited`` by one rule, the bracket
widths against the distance between the roots.  ``eigenvalues_low``
(gap-scan, alpha-scan) is that record; ``spectrum_low`` (spectrum,
verify-bounds) adds the ground state: the closed form glued across the
support (``_glued_ground_state``) under a first-order running error bound,
checked by one inverse-iteration solve (``ground_state``) shifted to
lambda0 bisected on the O(n) Sturm count of ``_kernels`` to the relative
width ``REL_TOL``; where either declines it, ``ConvergenceError``.  The
free path takes its closed forms, unflagged.  Fits drop flagged points.
numpy is imported only inside the functions that build arrays, so
``eigenvalues_low`` loads none.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import _kernels
from .operators import Potential, TridiagonalOperator, apply_operator, check_half_width

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SpectralResult",
    "ConvergenceError",
    "ground_state",
    "eigenvalues_low",
    "spectrum_low",
    "dirichlet_ground_energy",
    "free_spectrum",
]

EPS = sys.float_info.epsilon
# relative width at which spectrum_low's two O(n) bisections stop; the
# bracketed ground energy is the shift of the solve that checks the ground state
REL_TOL = 1e-14
# the level below which the stopping width is absolute: REL_TOL times it is
# the smallest subnormal, so a subnormal level is bisected to its last bit
LAMBDA_FLOOR = 5e-324 / REL_TOL
# the smallest normal double; below it a Wronskian or a level has lost bits
_NORMAL = sys.float_info.min
# the largest normwise error bound at which the glued ground state is
# taken, and the scale (times the norm bound) of the residual test of it
RESIDUAL_SCALE = 1e-11
# slack for the rounding of the one solve in the Davis-Kahan test
CHANGE_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """No ground state that both the glued construction's error bound and
    one inverse-iteration solve vouch for."""


# no longer raised; perfbench/tracer.py imports it by name
class PositivityError(RuntimeError):
    """Computed ground state has a significantly negative entry."""


@dataclass(frozen=True)
class SpectralResult:
    """Low-lying spectrum of the operator on the path -k..k: the record of
    one grid point.

    ``gap`` is stored as the solver computed it, not as the difference of
    two rounded levels; ``lambda1`` is lambda0 + gap, to half an ulp.
    ``ground_state`` is None when only the eigenvalues were requested
    (``eigenvalues_low``).
    ``precision_limited`` marks a gap that the solver's brackets do not
    resolve (``_result``); such gaps are reported but not trustworthy.
    """

    k: int
    lambda0: float
    gap: float
    precision_limited: bool
    ground_state: np.ndarray | None = None

    @property
    def n(self) -> int:
        return 2 * self.k + 1

    @property
    def lambda1(self) -> float:
        return self.lambda0 + self.gap


def _offsq(op: TridiagonalOperator) -> np.ndarray:
    # the squared unit coupling; perfbench pins bisect_bracket's positional offsq
    import numpy as np
    return np.ones(op.n - 1)


def _residual(op: TridiagonalOperator, lambda0: float, v: np.ndarray) -> float:
    """||H v - lambda0 v||, taken on the residual scaled by the power of two
    2^-e that puts its largest entry in [1/2, 1), times 2^e, so that no
    square overflows: one above 1.3e154 would make the plain norm inf."""
    import numpy as np
    r = apply_operator(op, v) - lambda0 * v
    e = math.frexp(max(float(r.max()), -float(r.min())))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(r, -e, out=r)), e))


def _unit(w: np.ndarray) -> np.ndarray | None:
    """w normalized and signed to a positive sum, or None where its norm is
    not finite and positive."""
    import numpy as np
    norm = float(np.linalg.norm(w))
    if not math.isfinite(norm) or norm == 0.0:
        return None
    w /= norm
    return -w if float(np.sum(w)) < 0.0 else w


def ground_state(op: TridiagonalOperator, lambda0: float, start: np.ndarray | None,
                 err: float, gap: float) -> np.ndarray:
    """``start``, the glued ground state (read-only), where one
    inverse-iteration solve does not reject it; otherwise ConvergenceError.

    ``lambda0`` is the shift, the bisected ground energy; ``start`` a unit
    vector within ``err`` (normwise) of the ground state, or None where the
    construction does not vouch for one, and ``gap`` the distance from
    lambda0 to the next level.  H - lambda0 is factored once and solved
    once from ``start``; the solution w, normalized and signed, is within
    ||H w - lambda0 w|| / gap of the ground state (Davis & Kahan, SIAM J.
    Numer. Anal. 7, 1970), so ``start`` is returned where its residual is
    within 1e-11 * (4 + max strength) and gap (||w - start|| - ``CHANGE_TOL``
    - 2 err) <= 2 ||H w - lambda0 w||: no division, and a gap at the
    rounding of the bisected levels passes any such start, which rests on
    ``err``.
    """
    import numpy as np
    if start is None:
        raise ConvergenceError("the closed form's error bound vouches for no ground state")
    residual = _residual(op, lambda0, start)
    if not residual <= RESIDUAL_SCALE * op.norm_bound:
        raise ConvergenceError(
            f"the glued ground state's residual {residual:.3e} is above "
            f"{RESIDUAL_SCALE:g} times the norm bound")
    piv, mult = _kernels.factor_shifted(op.diag, lambda0, 1e-150 * op.norm_bound)
    w = _unit(_kernels.solve_factored(piv, mult, start))
    if w is None or not gap * (float(np.linalg.norm(w - start)) - CHANGE_TOL
                               - 2.0 * err) <= 2.0 * _residual(op, lambda0, w):
        raise ConvergenceError("one inverse-iteration solve rejects the glued ground state")
    return start


def _transfer(potential: Potential) -> tuple[float, float]:
    """(sigma, Delta) of a non-empty potential.

    The zero-energy transfer matrix (A, B; C, D) across the support starts
    at the identity at r_min; at each site, in increasing order, it first
    crosses the free stretch of length L from the previous site (A += L C,
    B += L D) and then the site's strength a (C += a A, D += a B).  The
    two lowest levels sit near s = n/2 + sigma +- Delta.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    rmin, rmax = potential.site_min, potential.site_max
    previous = rmin
    for site, strength in potential.entries:
        a += (site - previous) * c
        b += (site - previous) * d
        c += strength * a
        d += strength * b
        previous = site
    delta = (rmin + rmax) / 2 + (d - a) / (2 * c)
    return ((a + d) / c - (rmax - rmin)) / 2, math.hypot(delta, 1 / c)


def _level(n: int, u: float) -> float:
    """lambda = 4 sin^2(pi / (4s)) at s = n/2 + u."""
    return 4.0 * math.sin(math.pi / (4.0 * (0.5 * n + u))) ** 2


def _nearest(y: float, odd: bool) -> int:
    """The integer of the parity of ``odd`` nearest to y."""
    return odd + 2 * round((y - odd) / 2)


def _cos(deficit: float, phase: float) -> float:
    """cos(deficit) = sin(phase), deficit + phase = pi/2, from the smaller one."""
    return math.cos(deficit) if deficit <= phase else math.sin(phase)


def _rescaled(v: float, w: float, e: int) -> tuple[float, float, int]:
    """(v, w) times the power of two 2^-d that puts max(|v|, |w|) in
    [1/4, 1/2), and e + d, so that v 2^e and w 2^e do not change."""
    d = 1 + math.frexp(max(abs(v), abs(w)))[1]
    return math.ldexp(v, -d), math.ldexp(w, -d), e + d


def _sweep(n: int, potential: Potential, u: float) -> tuple[int, float, int]:
    """(count, f, e): the Sturm count of lambda(u), s = n/2 + u > 1/2, and
    the Wronskian f 2^e, in O(support).  The count is the sign changes of
    the solution psi of the left end condition over -k..k and k+1, where
    psi is det(H - lambda) (Teschl, Jacobi Operators, ch. 4).

    With t = pi/(2s), psi is cos(t (j + k + 1/2)) left of the support and
    a cos x + b sin x right of it, x = t (k - j + 1/2), b = f/(n sin t)
    with f the Wronskian, so psi(k+1) = -2 b sin(t/2).  A free stretch of
    phase y pi changes sign the number of times nearest to y of the parity
    its end signs give, so only signs must be exact; every phase is
    written in u.  Across the support psi (times n) and its forward
    difference w follow the recurrence, rescaled by powers of two against
    overflow; e undoes them.
    """
    s = 0.5 * n + u
    half = 0.25 * math.pi / s
    sin_half = math.sin(half)
    lam = 4.0 * sin_half**2
    edge = 2.0 * n * sin_half
    k, rmin, rmax = n // 2, potential.site_min, potential.site_max
    def_l = 0.5 * math.pi * (u - rmin) / s
    v = n * math.sin(def_l)
    w = -edge * _cos(def_l + half, 2.0 * half * (k + rmin))
    negative, e = v < 0.0, 0
    count = _nearest(0.5 * (k + rmin) / s, negative)
    strengths = potential.support_strengths
    for a in strengths[:-1]:
        v, w, e = _rescaled(v, w, e)
        w += (a - lam) * v
        v += w
        count += (v < 0.0) != negative
        negative = v < 0.0
    v, w, e = _rescaled(v, w, e)
    w += (strengths[-1] - lam) * v
    v, w, e = _rescaled(v, w, e)
    def_r, m = 0.5 * math.pi * (u + rmax) / s, k - rmax
    f = v * edge * _cos(def_r + half, 2.0 * half * m) - n * math.sin(def_r) * w
    psi_k = ((_cos(def_r, half * (2 * m + 1)) * (v + w)
              - v * _cos(def_r + 2.0 * half, half * (2 * m - 1))) * math.cos(half)
             + f / n * sin_half)
    count += _nearest(0.5 * (k - rmax) / s, negative != (psi_k < 0.0))
    return count + ((psi_k < 0.0) != (f > 0.0)), f, e


def _gap(n: int, u0: float, u1: float) -> float:
    """lambda(u1) - lambda(u0) without cancellation: 4 sin((pi/4)(u0 - u1)
    / (s0 s1)) sin(pi/(4 s0) + pi/(4 s1))."""
    s0, s1 = 0.5 * n + u0, 0.5 * n + u1
    return (4.0 * math.sin(0.25 * math.pi * (u0 - u1) / (s0 * s1))
            * math.sin(0.25 * math.pi / s0 + 0.25 * math.pi / s1))


def _shrink(n: int, potential: Potential, index: int, lo: float, hi: float,
            at_lo: tuple[int, float, int], at_hi: tuple[int, float, int],
            tol: float, guess: float | None) -> tuple[float, float]:
    """Shrink the u-bracket (lo, hi] of the index-th root, with count above
    index at lo and at most index at hi, until its width is at most tol or
    no double is left between its ends, or between their subnormal levels
    (a level below the normal range is then known to its last bit, and
    the gap, at least 4 sin^2(pi/(2n)), cannot feel it; there |f| too has
    underflowed).  ``at_lo`` and ``at_hi`` are the ``_sweep`` results at
    the ends (f NaN where an end was not swept).

    The first point is ``guess`` where one is given; every other point is
    the Illinois (modified regula falsi) point of |f 2^e| at the two ends,
    whose |f| is halved at an end kept twice in a row.
    The count at the point decides which end it replaces, so the bracket
    stays certified by counts.  A point closer than tol/2 to an end moves
    to max(tol/2, one ulp) from it: where that end has converged onto the
    root, the step certifies the other end at once instead of leaving it to
    halvings (not where either |f| is subnormal, too coarse to say that an
    end has converged).  The midpoint is taken instead when the point is
    not strictly inside the bracket or the bracket did not halve over the
    last two steps, so it halves at least every three steps.
    """
    (_, f_lo, e_lo), (_, f_hi, e_hi) = at_lo, at_hi
    f_lo, f_hi = abs(f_lo), abs(f_hi)
    half_tol = 0.5 * tol
    side = 0  # +1 after lo moved, -1 after hi moved
    older = old = math.inf  # the widths two steps and one step back
    while True:
        width, mid = hi - lo, 0.5 * (lo + hi)
        if not (width > tol and lo < mid < hi) or (
                f_lo < _NORMAL and _level(n, lo) <= math.nextafter(_level(n, hi), 1.0) < _NORMAL):
            return lo, hi
        u = guess
        if u is None and width <= 0.5 * older:
            top = max(e_lo, e_hi)
            a, b = math.ldexp(f_lo, e_lo - top), math.ldexp(f_hi, e_hi - top)
            if a + b > 0.0:
                u = lo + width * (a / (a + b))
        if u is not None and (u - lo < half_tol or hi - u < half_tol) and not (
                0.0 < f_lo < _NORMAL or 0.0 < f_hi < _NORMAL):
            near = max(half_tol, math.ulp(max(-lo, hi)))
            u = min(max(u, lo + near), hi - near)
        if u is None or not lo < u < hi:
            u = mid
        older, old, guess = old, width, None
        count, f, e = _sweep(n, potential, u)
        if count > index:
            lo, f_lo, e_lo = u, abs(f), e
            if side > 0:
                f_hi *= 0.5
            side = 1
        else:
            hi, f_hi, e_hi = u, abs(f), e
            if side < 0:
                f_lo *= 0.5
            side = -1


# in place of a _sweep result at a bracket end not swept: no count, f unknown
_UNSWEPT = (-1, math.nan, 0)


def _seed(n: int, potential: Potential, index: int) -> tuple[float, float]:
    """A guess at the index-th root u and a first step for the search
    around it.

    u0 is the weak-coupling estimate n (pi/(4 theta) - 1/2), from the single
    site at the origin's 2 sin t tan(t n/2) = alpha at t = 2 theta/n, where
    theta tan theta = y = alpha_sum n/4; theta is taken as
    sqrt(y / (1 + 4y/pi^2)), which has both limits right (sqrt(y) and pi/2)
    and is within a few percent between them.  u1 of a weak potential sits
    just below u = 0, the free level, at most alpha_sum n^2/pi^2 below it by
    first-order perturbation theory; the guess is half that above.
    """
    y = min(potential.strength_sum * n / 4.0, 1e300)
    if index == 0:
        u = n * (0.25 * math.pi * math.sqrt(1.0 + 4.0 * y / math.pi**2) / math.sqrt(y) - 0.5)
        return u, max(u, 1.0) / 16.0
    step = min(0.5 * n, max(4.0 * y * n / math.pi**2, EPS))
    return 0.5 * step, step


def _roots(n: int, potential: Potential) -> tuple[tuple[float, float], tuple[float, float]]:
    """The certified u-brackets (lo0, hi0] and (lo1, hi1] of u0 and u1,
    where lambda(u) is lambda0 and lambda1 (a non-empty potential).

    The first bracket of u0 is [sigma, sigma + 3 Delta/2], that of u1
    [sigma - 3 Delta/2, sigma], with sigma, the end they share, swept once;
    it holds if s > 1/2 at its low end, with counts index + 1 there and
    index at its high end.  Its search then starts at the two-level guess
    sigma + Delta for u0 and sigma - Delta for u1, whose relative error is
    O(1/n^2) (14.8/n^2 for u0 of one site 0:1, where sigma - Delta is u1
    = 0), so a point takes about 12 sweeps.  Otherwise the search
    starts at ``_seed``'s guess and steps away from it, doubling the step,
    until the counts bracket the root; its low end stops at 1/2 - n/2, where
    lambda = 4 at s = 1/2 is above both levels, as a potential on at most
    n - 2 sites moves at most n - 2 free levels, all below 4, and its high
    end is kept finite.  ``_shrink`` narrows each bracket to
    EPS * min(Delta, s) (EPS / 2 if that is not finite and positive) or
    until no double is left between the ends.
    """
    sigma, delta = _transfer(potential)
    ends = (sigma + 1.5 * delta, sigma, sigma - 1.5 * delta)
    # the gap needs each root to about EPS * Delta, each level to ulp(s)
    scale = min(delta, 0.5 * n + ends[2])
    tol = max(EPS * scale, math.ulp(0.0)) if 0.0 < scale < math.inf else 0.5 * EPS
    floor = 0.5 - 0.5 * n
    # sigma ends u0's window and starts u1's, so it is swept once
    swept = [_UNSWEPT] * 3
    if 0.5 * n + sigma > 0.5 and sigma < math.inf:
        swept[1] = _sweep(n, potential, sigma)
        if swept[1][0] == 1:
            for j in (0, 2):
                if 0.5 * n + ends[j] > 0.5 and ends[j] < math.inf:
                    swept[j] = _sweep(n, potential, ends[j])
    brackets = []
    for index, guess in ((0, sigma + delta), (1, sigma - delta)):
        hi, lo = ends[index], ends[index + 1]
        at_hi, at_lo = swept[index], swept[index + 1]
        if (at_lo[0], at_hi[0]) != (index + 1, index):
            guess = None
            u, step = _seed(n, potential, index)
            at = _sweep(n, potential, u)
            if at[0] > index:
                lo, at_lo, hi, at_hi = u, at, u + step, _sweep(n, potential, u + step)
                while at_hi[0] > index and hi < 1e300:
                    step *= 2.0
                    lo, at_lo, hi, at_hi = hi, at_hi, u + step, _sweep(n, potential, u + step)
            else:
                hi, at_hi, lo, at_lo = u, at, u - step, _UNSWEPT
                while lo > floor:
                    at_lo = _sweep(n, potential, lo)
                    if at_lo[0] > index:
                        break
                    step *= 2.0
                    hi, at_hi, lo, at_lo = lo, at_lo, u - step, _UNSWEPT
                lo = max(lo, floor)
        brackets.append(_shrink(n, potential, index, lo, hi, at_lo, at_hi, tol, guess))
    return brackets[0], brackets[1]


def _result(k: int, brackets: tuple[tuple[float, float], tuple[float, float]] | None,
            psi: np.ndarray | None = None) -> SpectralResult:
    """The record of the u-brackets (lo0, hi0] and (lo1, hi1] of ``_roots``,
    or of the free path where ``brackets`` is None, with the ground state
    ``psi``.

    lambda0 = ``_level`` and gap = ``_gap``, at the midpoints; the free path
    has the closed forms lambda0 = 0 and gap = 4 sin^2(pi/(2n)).  The gap is
    flagged where the brackets' widths sum to more than 1e-10 of the
    distance between them, (hi0 - lo0) + (hi1 - lo1) > 1e-10 (lo0 - hi1),
    or where it is below the smallest normal double: the only flag rule.
    """
    n = 2 * k + 1
    if brackets is None:
        return SpectralResult(k, 0.0, _level(n, 0.0), False, psi)
    (lo0, hi0), (lo1, hi1) = brackets
    u0 = 0.5 * (lo0 + hi0)
    gap = _gap(n, u0, 0.5 * (lo1 + hi1))
    limited = (hi0 - lo0) + (hi1 - lo1) > 1e-10 * (lo0 - hi1) or gap < _NORMAL
    return SpectralResult(k, _level(n, u0), gap, limited, psi)


def eigenvalues_low(op: TridiagonalOperator) -> SpectralResult:
    """Two lowest eigenvalues and their gap in O(support), no ground state:
    ``_result`` of ``_roots``' brackets."""
    potential = op.potential
    return _result(op.k, None if potential.is_empty else _roots(op.n, potential))


def _edge_sweep(start: tuple[float, float, float, float, float, float], lam: float, dlam: float,
                strengths: tuple[float, ...]) -> list[tuple[float, float, int, float, float]]:
    """psi across the support from one edge, in the order of ``strengths``,
    by the recurrence of ``_sweep``, with a first-order running error bound
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).

    ``start`` is (v, w, E_v, E_w, sq, esq): psi at the edge site, its
    forward difference w, their error bounds, the squared norm of the free
    stretch outside and that of its error bounds; ``dlam`` bounds the error
    of lambda.  At each support site the tuple (v, E, e, sq, esq): psi =
    v 2^e, its error at most E 2^e, and the sums of the squares of psi and
    of the error bounds from the far end of the free stretch up to the
    site, times 2^-2e.  (v, w), (E_v, E_w) and the sums are rescaled by the
    same powers of two."""
    v, w, ev, ew, sq, esq = start
    e = 0
    out = []
    for a in strengths:  # the step after the last site is not read
        d = 1 + math.frexp(max(abs(v), abs(w)))[1]
        v, w, ev, ew = (math.ldexp(x, -d) for x in (v, w, ev, ew))
        sq, esq, e = math.ldexp(sq, -2 * d), math.ldexp(esq, -2 * d), e + d
        sq, esq = sq + v * v, esq + ev * ev
        out.append((v, ev, e, sq, esq))
        c = a - lam
        step = c * v
        ew += abs(c) * ev + abs(v) * (EPS * abs(c) + dlam) + EPS * abs(step)
        w += step
        ew += EPS * abs(w)
        v += w
        ev += ew + EPS * abs(v)
    return out


def _split(rows: list[tuple[float, float, int, float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """The values psi = v 2^e of ``_edge_sweep`` rows as arrays of
    mantissas in [1/2, 1) (0 for a zero) and of exponents."""
    import numpy as np
    mantissas, exponents = np.frexp([v for v, *_ in rows])
    return mantissas, exponents + np.array([e for _, _, e, *_ in rows])


def _glue(free_a: np.ndarray, rows_a: list, rows_b: list, free_b: np.ndarray) -> np.ndarray:
    """``free_a``, the ``_edge_sweep`` rows ``rows_a`` up to the glue site,
    and side b (``rows_b`` from it, ``free_b``) times a(g)/b(g) = scale
    2^shift, |scale| in (1/2, 2) or 0; all times a power 2^-top that takes
    each entry below 1 (|sin| <= 1, mantissas below 1): none overflows."""
    import numpy as np
    am, ae = _split(rows_a)
    bm, be = _split(rows_b)
    scale, shift = am[-1] / bm[0], int(ae[-1] - be[0])
    top = max(0, int(ae.max()), int(be.max()) + shift + 1, shift + 1)
    return np.concatenate((np.ldexp(free_a, -top), np.ldexp(am[:-1], ae[:-1] - top),
                           np.ldexp(scale * bm, be + shift - top),
                           np.ldexp(scale * free_b, shift - top)))


def _glued_ground_state(n: int, potential: Potential, lo: float,
                        hi: float) -> tuple[np.ndarray, float] | None:
    """The ground state from its closed form at the midpoint u of u0's
    bracket (lo, hi], with a normwise bound on its error, or None where the
    bound does not vouch for it.

    With t = pi/(2s) it is sin(defL + t (r_min - j)) left of the support and
    sin(defR + t (j - r_max)) right of it (the deficits of ``_sweep``).
    ``_edge_sweep`` carries each profile across the support with a running
    error bound, from the first-order errors of its inputs (u is known to
    the bracket's half-width):

        du = (hi - lo)/2 + eps |u|,  ds = du + eps s,
        dt = t (ds/s + 2 eps),  dlam = 2 sin(t) dt + 4 eps lambda,
        ddef = (pi/2) du (n/2 + r)/s^2 + 4 eps |def|

    at the support edge r (r_min, and -r_max for defR), from the derivative
    of (u - r)/s in u, which stays small where the bracket is wide (a
    subnormal strength); the edge site starts with |cos def| ddef + eps |v|
    and its difference w = -2 sin(t/2) cos(def + t/2) with 2 sin(t/2)
    (ddef + dt/2 + 4 eps) + |cos(def + t/2)| dt.  A free stretch of m sites
    adds sqrt(m) (ddef + m dt + 4 eps) to its side's error norm.  At a glue
    site g one side, the divisor D, is scaled by N(g)/D(g) to meet the
    other, N: D is the right side where E_R(g) < |R(g)|/2 and the left one
    otherwise, and g is admissible where E_D(g) < |D(g)|/2.  The scale is
    linear in N(g), which may be 0 or known to no digit (a strong site
    next to the ground state's node), and off by at most
    d = (E_N(g) + |scale| E_D(g)) / |D(g)|; the unit vector is then within

        (||E_N|| + |scale| ||E_D||) / ||psi|| + 2 d ||N|| ||D|| / ||psi||^2

    of the ground state, to first order, whichever side divides where
    both entries are nonzero.  The admissible g with the
    smallest bound is taken, and the vector returned with it where it is at
    most ``RESIDUAL_SCALE``.  The bound is first order, not a proof:
    ``ground_state`` checks it with one solve.  Both sides are scaled by the
    power of two that takes their largest entry into the double range, so
    no entry overflows.
    """
    import numpy as np
    k, rmin, rmax = n // 2, potential.site_min, potential.site_max
    u = 0.5 * (lo + hi)
    s = 0.5 * n + u
    half = 0.25 * math.pi / s
    lam, t = 4.0 * math.sin(half) ** 2, 2.0 * half
    def_l, def_r = 0.5 * math.pi * (u - rmin) / s, 0.5 * math.pi * (u + rmax) / s
    du = 0.5 * (hi - lo) + EPS * abs(u)
    ds = du + EPS * s
    dt = t * (ds / s + 2.0 * EPS)
    dlam = 2.0 * math.sin(t) * dt + 4.0 * EPS * lam
    j = np.arange(-k, k + 1, dtype=float)
    free_l = np.sin(def_l + t * (rmin - j[: rmin + k]))
    free_r = np.sin(def_r + t * (j[rmax + k + 1:] - rmax))
    support = potential.support_strengths

    def sweep(deficit, r, phase, order, free):
        ddef = 0.5 * math.pi * (du / s) * ((0.5 * n + r) / s) + 4.0 * EPS * abs(deficit)
        cos_phase = _cos(deficit + half, phase)
        v, w = math.sin(deficit), -2.0 * math.sin(half) * cos_phase
        ev = abs(math.cos(deficit)) * ddef + EPS * abs(v)
        ew = 2.0 * math.sin(half) * (ddef + 0.5 * dt + 4.0 * EPS) + abs(cos_phase) * dt
        free_err = math.sqrt(free.size) * (ddef + free.size * dt + 4.0 * EPS)
        return _edge_sweep((v, w, ev, ew, float(free @ free), free_err * free_err), lam, dlam,
                           order)

    left = sweep(def_l, rmin, t * (k + rmin), support, free_l)
    right = sweep(def_r, -rmax, t * (k - rmax), support[::-1], free_r)[::-1]
    # x = |N(g)|/||N|| and y = |D(g)|/||D|| are at most 1 (a norm is at
    # least its entry, whose square can underflow); the glued vector times
    # y/(||N|| m), m = max(x, y), is (y/m) N/||N|| beside (x/m) D/||D||, of
    # norm^2 at least 1, so nothing overflows.  The right side divides
    # wherever it may: the choice decides only whose rounding builds psi
    bound, g, by_left = math.inf, -1, False
    for site, rows in enumerate(zip(left, right)):
        rel = [err / abs(v) if v else math.inf for v, err, *_ in rows]
        if not min(rel) < 0.5:
            continue
        left_divides = not rel[1] < 0.5
        (nv, ne, _, nsq, nesq), (dv, de, _, dsq, desq) = rows[::-1] if left_divides else rows
        norm_n, norm_d = max(math.sqrt(nsq), abs(nv)), max(math.sqrt(dsq), abs(dv))
        x, y = abs(nv) / norm_n, abs(dv) / norm_d
        m = max(x, y)
        xs, ys = x / m, y / m
        norm_sq = xs * xs + ys * ys - (xs * y) ** 2  # the glue entry is in both sides
        b = ((ys * math.sqrt(nesq) / norm_n + xs * math.sqrt(desq) / norm_d) / math.sqrt(norm_sq)
             + 2.0 * (ys * ne / norm_n + xs * de / norm_d) / (m * norm_sq))
        if b < bound:
            bound, g, by_left = b, site, left_divides
    if not bound <= RESIDUAL_SCALE:
        return None
    if by_left:  # the mirror image, glued with the left side as the divisor
        psi = _glue(free_r[::-1], right[g:][::-1], left[: g + 1][::-1], free_l[::-1])[::-1]
    else:
        psi = _glue(free_l, left[: g + 1], right[g:], free_r)
    psi /= np.linalg.norm(psi)
    psi.flags.writeable = False
    return psi, bound


def spectrum_low(op: TridiagonalOperator) -> SpectralResult:
    """``eigenvalues_low`` plus the ground state.

    On the free path the ground state is the flat vector 1/sqrt(n).
    Otherwise it is ``_glued_ground_state`` at the midpoint of u0's bracket
    from ``_roots``, vouched for by ``ground_state``'s one solve, whose
    shift and gap are the levels bisected on the O(n) Sturm count from
    [0, norm_bound] inside the lambda-image of their brackets, which
    decides every midpoint outside it without a sweep; where either
    declines it, ConvergenceError."""
    import numpy as np
    n = op.n
    if op.potential.is_empty:
        psi = np.full(n, 1.0 / math.sqrt(n))
        psi.flags.writeable = False
        return _result(op.k, None, psi)
    brackets = _roots(n, op.potential)
    (lo0, hi0), (lo1, hi1) = (
        _kernels.bisect_bracket(op.diag, _offsq(op), i, 0.0, op.norm_bound, REL_TOL,
                                LAMBDA_FLOOR, EPS * op.norm_bound, _level(n, hi), _level(n, lo))
        for i, (lo, hi) in enumerate(brackets))
    lam0, lam1 = 0.5 * (lo0 + hi0), 0.5 * (lo1 + hi1)
    start, err = _glued_ground_state(n, op.potential, *brackets[0]) or (None, 0.0)
    return _result(op.k, brackets, ground_state(op, lam0, start, err, lam1 - lam0))


def dirichlet_ground_energy(m: int) -> float:
    """Lowest energy of the path on 2m+1 sites with the center pinned to zero,
    equivalently of a path of m free sites next to one Dirichlet endpoint:
    2 - 2 cos(pi / (2m+1)), taken without cancellation as ``_level``."""
    if int(m) != m or m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    return _level(2 * m + 1, 0.0)


def free_spectrum(k: int) -> np.ndarray:
    """All 2k+1 eigenvalues of the potential-free path Laplacian, ascending:
    2 - 2 cos(pi m / (2k+1)), m = 0..2k.  Used as a test oracle."""
    import numpy as np
    n = 2 * check_half_width(k) + 1
    m = np.arange(n)
    return 2.0 - 2.0 * np.cos(np.pi * m / n)
