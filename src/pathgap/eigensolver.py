"""Symmetric-tridiagonal eigensolver for path graphs: the two lowest levels
on Sturm counts, the ground state by inverse iteration, and closed-form
eigenvalue oracles.

``eigenvalues_low`` (gap-scan, alpha-scan) writes a level as
lambda = 4 sin^2(pi/(4s)), s = n/2 + u, and finds u by secant (Illinois)
steps on the Wronskian inside brackets certified by a Sturm count that
costs O(support) and reads no length-n array, so it reaches any k.
``spectrum_low`` (spectrum, verify-bounds) bisects both levels on the O(n)
Sturm count of ``_kernels`` (plain Python over float64 buffers) to the
relative width ``REL_TOL`` = 1e-14 and adds the ground state by inverse
iteration; it sweeps only where a certified band around the level,
widened by the O(n) count's backward error, leaves the count undecided,
and its brackets are those of plain bisection.  Both return a
``SpectralResult``: k, the two eigenvalues and the flag, with ``n`` and
``gap`` derived from them.  A gap below 10^3 ulp of its rounding scale
(lambda1 for ``eigenvalues_low``, the matrix norm bound for
``spectrum_low``) carries ``precision_limited=True``, and downstream fits
drop such points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .operators import Potential, TridiagonalOperator, apply_operator

__all__ = [
    "SpectralResult",
    "ConvergenceError",
    "PositivityError",
    "sturm_count",
    "eigenvalue",
    "ground_state",
    "eigenvalues_low",
    "spectrum_low",
    "dirichlet_ground_energy",
    "free_spectrum",
]

EPS = float(np.finfo(float).eps)
# relative width at which every eigenvalue bracket stops; the bracketed
# ground energy is also the inverse-iteration shift
REL_TOL = 1e-14
LAMBDA_FLOOR = 1e-300
# where the O(support) brackets leave the O(n) count undecided, in units of
# EPS * norm_bound: the count's backward error widened with room to spare
# (see _eigenvalue_bracket)
COUNT_MARGIN = 16.0
RESIDUAL_SCALE = 1e-11
GAP_ULP_FACTOR = 1e3
MAX_SWEEPS = 50
# iterate-change threshold: the shift sits within ~ulp of the true ground
# energy, so one extra sweep shrinks the first-excited admixture by orders
# of magnitude; iterating until the vector stops moving removes admixture
# that the residual test alone cannot see when the gap is small.
CHANGE_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Inverse iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class PositivityError(RuntimeError):
    """Computed ground state has a significantly negative entry."""


@dataclass(frozen=True)
class SpectralResult:
    """Low-lying spectrum of the operator on the path -k..k: the record of
    one grid point.

    ``ground_state`` is None when only the eigenvalues were requested
    (``eigenvalues_low``).
    ``precision_limited`` marks gaps at or below the double-precision noise
    floor; such gaps are reported but not trustworthy.
    """

    k: int
    lambda0: float
    lambda1: float
    precision_limited: bool
    ground_state: np.ndarray | None = None

    @property
    def n(self) -> int:
        return 2 * self.k + 1

    @property
    def gap(self) -> float:
        return self.lambda1 - self.lambda0


def _offsq(op: TridiagonalOperator) -> np.ndarray:
    return op.offdiag * op.offdiag


def sturm_count(op: TridiagonalOperator, mu: float) -> int:
    """Number of eigenvalues of ``op`` strictly below ``mu``."""
    subst = EPS * op.norm_bound
    return int(_kernels.sturm_count(op.diag, _offsq(op), float(mu), subst))


def _eigenvalue_bracket(op: TridiagonalOperator, index: int,
                        band: tuple[float, float] = (-math.inf, math.inf)) -> tuple[float, float]:
    """Bracket of the index-th eigenvalue by bisection from [0, norm_bound]
    on the O(n) Sturm count.

    ``band``, an interval [lo, hi] of lambda that holds the eigenvalue (by
    default the whole line), widened by ``COUNT_MARGIN * EPS * norm_bound``,
    is where the double-precision count can differ from the exact count;
    bisection takes the count at a midpoint outside it as known and sweeps
    only inside, so the bracket is bit-identical to the one found without
    ``band``.  The bound the margin rests on: the computed count is the
    exact count of the matrix whose off-diagonals are perturbed by at most
    2.5 EPS relative, which covers the rounding of a_i - mu and of each
    pivot (Kahan 1966; Demmel, Applied Numerical Linear Algebra, section
    5.3), and the pivot ``subst`` adds at most EPS * norm_bound to one
    diagonal entry.  With |b_i| = 1 that moves each eigenvalue by at most
    5 EPS + EPS * norm_bound <= 2.25 EPS * norm_bound, as norm_bound >= 4;
    the rest of the margin covers the rounding of the band's ends.
    """
    n = op.n
    if not 0 <= index <= n - 1:
        raise ValueError(f"eigenvalue index {index} out of range 0..{n - 1}")
    subst = EPS * op.norm_bound
    margin = COUNT_MARGIN * subst
    lo, hi = _kernels.bisect_bracket(
        op.diag, _offsq(op), index, 0.0, op.norm_bound, REL_TOL, LAMBDA_FLOOR, subst,
        band[0] - margin, band[1] + margin,
    )
    return float(lo), float(hi)


def eigenvalue(op: TridiagonalOperator, index: int) -> float:
    """The index-th smallest eigenvalue, midpoint of a certified bracket.

    The initial bracket is [0, 4 + max strength]; bisection stops once the
    bracket width is below REL_TOL * max(|midpoint|, 1e-300).
    """
    lo, hi = _eigenvalue_bracket(op, index)
    return 0.5 * (lo + hi)


def ground_state(op: TridiagonalOperator, lambda0: float) -> np.ndarray:
    """Positive normalized ground state by inverse iteration (read-only).

    ``lambda0`` is the shift: the bisection ground energy, ``eigenvalue(op,
    0)``.  If the shifted factorization hits a pivot below 10^3 eps times
    the norm bound, the shift is nudged up by 2 ulp of the norm bound and
    the factorization redone.  Tiny pivots beyond that are kept as-is
    (they drive the solve along the wanted direction); only a microscopic
    overflow floor replaces exact zeros.  Converged when ||H v - lambda0 v|| <= 1e-11 * (4 + max
    strength) and the iterate has stopped moving.
    """
    tol = RESIDUAL_SCALE * op.norm_bound
    pivot_min = 1e3 * EPS * op.norm_bound
    overflow_floor = 1e-150 * op.norm_bound
    nudge = 2.0 * math.ulp(op.norm_bound)
    piv, mult, min_abs = _kernels.factor_shifted(
        op.diag, op.offdiag, lambda0, overflow_floor
    )
    if min_abs < pivot_min:
        piv, mult, _ = _kernels.factor_shifted(
            op.diag, op.offdiag, lambda0 + nudge, overflow_floor
        )

    n = op.n
    v = np.full(n, 1.0 / math.sqrt(n))
    residual = math.inf
    for _ in range(MAX_SWEEPS):
        w = _kernels.solve_factored(piv, mult, op.offdiag, v)
        norm_w = float(np.linalg.norm(w))
        if not math.isfinite(norm_w) or norm_w == 0.0:
            raise ConvergenceError(
                "inverse iteration produced a non-finite iterate", residual=residual
            )
        w /= norm_w
        if float(np.sum(w)) < 0.0:
            w = -w
        change = float(np.linalg.norm(w - v))
        v = w
        residual = float(np.linalg.norm(apply_operator(op, v) - lambda0 * v))
        if residual <= tol and change <= CHANGE_TOL:
            break
    else:
        raise ConvergenceError(
            f"inverse iteration did not converge in {MAX_SWEEPS} sweeps "
            f"(last residual {residual:.3e}, tol {tol:.3e})",
            residual=residual,
        )

    if float(np.min(v)) < -1e-14:
        raise PositivityError(
            f"positivity violated: ground-state entry {float(np.min(v)):.3e}"
        )
    v.flags.writeable = False
    return v


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
    strengths = dict(potential.entries)
    for site in range(rmin, rmax):
        v, w, e = _rescaled(v, w, e)
        w += (strengths.get(site, 0.0) - lam) * v
        v += w
        count += (v < 0.0) != negative
        negative = v < 0.0
    v, w, e = _rescaled(v, w, e)
    w += (strengths[rmax] - lam) * v
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
            tol: float) -> tuple[float, float]:
    """Shrink the u-bracket (lo, hi] of the index-th root, with count above
    index at lo and at most index at hi, until its width is at most tol or
    no double is left between its ends.  ``at_lo`` and ``at_hi`` are the
    ``_sweep`` results at the ends (f NaN where an end was not swept).

    Each new point is the Illinois (modified regula falsi) point of |f 2^e|
    at the two ends, whose |f| is halved at an end kept twice in a row.
    The count at the point decides which end it replaces, so the bracket
    stays certified by counts.  The midpoint is taken instead when that
    point is not strictly inside the bracket or the bracket did not halve
    over the last two steps, so it halves at least every three steps.
    """
    (_, f_lo, e_lo), (_, f_hi, e_hi) = at_lo, at_hi
    f_lo, f_hi = abs(f_lo), abs(f_hi)
    side = 0  # +1 after lo moved, -1 after hi moved
    older = old = math.inf  # the widths two steps and one step back
    while True:
        width, mid = hi - lo, 0.5 * (lo + hi)
        if not (width > tol and lo < mid < hi):
            return lo, hi
        u = mid
        if width <= 0.5 * older:
            top = max(e_lo, e_hi)
            a, b = math.ldexp(f_lo, e_lo - top), math.ldexp(f_hi, e_hi - top)
            if a + b > 0.0:
                u = lo + width * (a / (a + b))
                if not lo < u < hi:
                    u = mid
        older, old = old, width
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


def _roots(n: int, potential: Potential) -> tuple[tuple[float, float], tuple[float, float]]:
    """The certified u-brackets (lo0, hi0] and (lo1, hi1] of u0 and u1,
    where lambda(u) is lambda0 and lambda1 (a non-empty potential).

    The first bracket of u0 is [sigma, sigma + 3 Delta/2], that of u1
    [sigma - 3 Delta/2, sigma]; it holds if s > 1/2 at its low end, with
    counts index + 1 there and index at its high end.  Otherwise it is
    (1/2 - n/2, hi]: lambda = 4 at s = 1/2 is above both levels, as a
    potential on at most n - 2 sites moves at most n - 2 free levels, all
    below 4; hi doubles from 1, kept finite, until its count is at most
    index.  ``_shrink`` narrows each bracket to EPS * min(Delta, s) (EPS / 2
    if that is not finite and positive) or until no double is left
    between the ends.
    """
    sigma, delta = _transfer(potential)
    ends = (sigma + 1.5 * delta, sigma, sigma - 1.5 * delta)
    # the gap needs each root to about EPS * Delta, each level to ulp(s)
    tol = EPS * min(delta, 0.5 * n + ends[2])
    tol = tol if 0.0 < tol < math.inf else 0.5 * EPS
    brackets = []
    for index in (0, 1):
        hi, lo = ends[index], ends[index + 1]
        at_lo = at_hi = _UNSWEPT
        if 0.5 * n + lo > 0.5 and hi < math.inf:
            at_lo = _sweep(n, potential, lo)
            if at_lo[0] == index + 1:
                at_hi = _sweep(n, potential, hi)
        if at_hi[0] != index:
            lo, hi, at_lo, at_hi = 0.5 - 0.5 * n, 1.0, _UNSWEPT, _UNSWEPT
            while hi < 1e300:
                at_hi = _sweep(n, potential, hi)
                if at_hi[0] <= index:
                    break
                hi, at_hi = 2.0 * hi, _UNSWEPT
        brackets.append(_shrink(n, potential, index, lo, hi, at_lo, at_hi, tol))
    return brackets[0], brackets[1]


def eigenvalues_low(op: TridiagonalOperator) -> SpectralResult:
    """Two lowest eigenvalues and their gap in O(support), no ground state.

    The free path has the closed form lambda0 = 0, lambda1 = 4 sin^2(pi/(2n));
    otherwise the levels come from ``_roots``, with lambda1 = lambda0 +
    ``_gap``, which has no cancellation.  The gap is flagged below 10^3 ulp
    of lambda1, its rounding scale.
    """
    n = op.n
    if op.potential.is_empty:
        lam0, lam1 = 0.0, _level(n, 0.0)
    else:
        (lo0, hi0), (lo1, hi1) = _roots(n, op.potential)
        u0, u1 = 0.5 * (lo0 + hi0), 0.5 * (lo1 + hi1)
        lam0 = _level(n, u0)
        lam1 = lam0 + _gap(n, u0, u1)
    limited = lam1 - lam0 < GAP_ULP_FACTOR * math.ulp(lam1)
    return SpectralResult(k=op.k, lambda0=lam0, lambda1=lam1, precision_limited=limited)


def spectrum_low(op: TridiagonalOperator) -> SpectralResult:
    """Two lowest eigenvalues by O(n) bisection, each inside a certified
    band (the closed-form levels on the free path, the lambda-image of the
    u-brackets of ``_roots`` otherwise), and the ground state by inverse
    iteration shifted to lambda0; the gap is flagged below 10^3 ulp of the
    norm bound."""
    n = op.n
    if op.potential.is_empty:
        bands = [(lam, lam) for lam in (0.0, _level(n, 0.0))]
    else:
        bands = [(_level(n, hi), _level(n, lo)) for lo, hi in _roots(n, op.potential)]
    (lo0, hi0), (lo1, hi1) = (_eigenvalue_bracket(op, i, band) for i, band in enumerate(bands))
    lam0, lam1 = 0.5 * (lo0 + hi0), 0.5 * (lo1 + hi1)
    limited = lam1 - lam0 < GAP_ULP_FACTOR * math.ulp(op.norm_bound)
    return SpectralResult(op.k, lam0, lam1, limited, ground_state(op, lam0))


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
    if int(k) != k or k < 1:
        raise ValueError(f"half-width k must be a positive integer, got {k}")
    n = 2 * k + 1
    m = np.arange(n)
    return 2.0 - 2.0 * np.cos(np.pi * m / n)
