"""Independent high-precision oracles for the two lowest eigenvalues.

The operator is the path Laplacian on n = 2k+1 sites (diagonal 2, ends 1,
off-diagonal -1) plus a positive potential on a few sites.  Three oracles,
all in mpmath and sharing no code with ``pathgap``:

* no potential: the closed form lambda0 = 0, lambda1 = 2 - 2 cos(pi/n);
* one site at the origin: lambda1 = 2 - 2 cos(pi/n) (the odd ground state
  vanishes at the origin), lambda0 = 2 - 2 cos t with t the root in
  (0, pi/n) of 2 sin t tan(t (k + 1/2)) = alpha;
* anything else: Sturm bisection on lambda = 2 - 2 cos t.  Between
  potential sites the leading-minor recurrence is free, so it is advanced
  in closed form and its sign changes counted exactly; one count costs
  O(number of sites), not O(n).

mpmath is imported by the benchmark only, never by the program, and outside
every timed region.  All arithmetic uses a private 50-digit context.
"""
from __future__ import annotations

import mpmath

ctx = mpmath.MPContext()
ctx.dps = 50
mpf = ctx.mpf
# Bisection gives up separating two eigenvalues below this relative width
# in t (the path operators here have simple spectra, so it is a safeguard).
_T_REL_TOL = mpf(10) ** -40
# Bisection starts on [pi * _T_EDGE, pi * (1 - _T_EDGE)], inside (0, pi)
# where sin t > 0.
_T_EDGE = mpf(10) ** -30

Entries = tuple[tuple[int, float], ...]


def levels(k: int, entries: Entries):
    """(lambda0, lambda1) of the path on sites -k..k with potential entries."""
    if not entries:
        return mpf(0), _free_lambda1(k)
    if len(entries) == 1 and entries[0][0] == 0:
        return _origin_lambda0(k, entries[0][1]), _free_lambda1(k)
    return sturm_level(k, entries, 0), sturm_level(k, entries, 1)


def _lam(t):
    return 4 * ctx.sin(t / 2) ** 2


def _free_lambda1(k: int):
    return _lam(ctx.pi / (2 * k + 1))


def _origin_lambda0(k: int, alpha: float):
    # 2 sin t tan(Kt) = alpha multiplied through by cos(Kt), so the root is
    # bracketed without the pole at t = pi/n: f(0) = -alpha < 0 and
    # f(pi/n) = 2 sin(pi/n) > 0.
    big_k = mpf(2 * k + 1) / 2
    a = mpf(alpha)

    def f(t):
        return 2 * ctx.sin(t) * ctx.sin(big_k * t) - a * ctx.cos(big_k * t)

    t = ctx.findroot(f, (mpf(0), ctx.pi / (2 * k + 1)), solver="anderson")
    return _lam(t)


def sturm_count(k: int, entries: Entries, t) -> int:
    """Number of eigenvalues strictly below 2 - 2 cos t, for 0 < t < pi."""
    return _sweep(k, entries, t)[0]


def characteristic(k: int, entries: Entries, t):
    """det(H - (2 - 2 cos t))."""
    return _sweep(k, entries, t)[1]


def _sweep(k: int, entries: Entries, t):
    n = 2 * k + 1
    cos_t, sin_t = ctx.cos(t), ctx.sin(t)
    shift = {0: mpf(-1), n - 1: mpf(-1)}
    for site, strength in entries:
        shift[site + k] = shift.get(site + k, mpf(0)) + mpf(strength)
    # Leading principal minors P_i of H - lambda: P_-2 = 0, P_-1 = 1 and
    # P_i = (2 cos t + shift_i) P_{i-1} - P_{i-2}.  The count is the number
    # of sign changes along P_-1, P_0, ..., P_{n-1}.
    p2, p1 = mpf(0), mpf(1)
    count = 0
    pos = 0
    for special in sorted(shift):
        m = special - pos
        if m > 0:
            # Free stretch: P_{pos-1+j} = R sin(theta + j t) for j = 0..m.
            # Each step advances the phase by t < pi, so the sign changes
            # are the multiples of pi the phase passes.
            y = (p1 * cos_t - p2) / sin_t
            theta, radius = ctx.atan2(p1, y), ctx.hypot(p1, y)
            end = theta + m * t
            count += int(ctx.floor(end / ctx.pi) - ctx.floor(theta / ctx.pi))
            p2, p1 = radius * ctx.sin(end - t), radius * ctx.sin(end)
        p0 = (2 * cos_t + shift[special]) * p1 - p2
        if p0 * p1 < 0:
            count += 1
        p2, p1 = p1, p0
        pos = special + 1
    return count, p1


def sturm_level(k: int, entries: Entries, index: int):
    """The index-th eigenvalue by Sturm bisection on t, polished by a
    bracketed root of the determinant once the bracket isolates it."""
    lo, hi = ctx.pi * _T_EDGE, ctx.pi * (1 - _T_EDGE)
    count_lo, count_hi = sturm_count(k, entries, lo), sturm_count(k, entries, hi)
    if not count_lo <= index < count_hi:
        raise ValueError(f"eigenvalue {index} not inside (0, 4) at k = {k}")
    while not (count_lo == index and count_hi == index + 1):
        mid = (lo + hi) / 2
        if hi - lo <= _T_REL_TOL * hi:
            return _lam(mid)
        c = sturm_count(k, entries, mid)
        if c >= index + 1:
            hi, count_hi = mid, c
        else:
            lo, count_lo = mid, c
    t = ctx.findroot(
        lambda s: characteristic(k, entries, s), (lo, hi), solver="anderson"
    )
    if not lo <= t <= hi:
        raise ArithmeticError(f"root polishing left the bracket at k = {k}")
    return _lam(t)
