"""Volume sweeps of the spectral gap and scaling-law fits.

Without a potential the gap of the path on n = 2k+1 sites falls off like
pi^2 / n^2; any non-empty compactly supported potential pushes the decay to
order n^-3.  This module runs the sweeps over k and fits power laws on
log-log axes with band statistics of the scaled sequence n^p * gap.  A
sweep is its tuple of grid points, each the ``SpectralResult`` that
``eigenvalues_low`` returns for it; k, n and the gap are read from it.
``cli`` writes and reads the gap-scan CSV.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .eigensolver import SpectralResult, eigenvalues_low
from .operators import Potential, assemble_hamiltonian, check_half_width

__all__ = [
    "ScalingFit",
    "geometric_grid",
    "linear_grid",
    "gap_series",
    "fit_power_law",
]

# band statistics use the points with k >= BAND_K_MIN, or every usable
# point when none reaches it
BAND_K_MIN = 100


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law gap ~ prefactor * n^exponent plus band
    statistics of the scaled sequence n^band_power * gap."""

    exponent: float
    prefactor: float
    r_squared: float
    band_min: float
    band_max: float
    band_power: int
    points_excluded: int

    @property
    def band_ratio(self) -> float:
        return self.band_max / self.band_min


def geometric_grid(lo: int, hi: int, count: int) -> list[int]:
    """count geometrically spaced integers from lo to hi (deduplicated).

    Each interior point is lo plus its integer offset lo (r^i - 1), with
    r^i - 1 = expm1(i log1p((hi - lo)/lo) / (count - 1)), so steps far
    below one ulp of lo are not lost."""
    _check_grid(lo, hi, count)
    if count == 1:
        return [lo]
    rate = math.log1p((hi - lo) / lo) / (count - 1)
    return _with_ends(lo, hi, count, lambda i: lo + round(lo * math.expm1(i * rate)))


def linear_grid(lo: int, hi: int, count: int) -> list[int]:
    """count evenly spaced integers from lo to hi (deduplicated): the
    interior points are float(lo) + i * step, with step = (float(hi) -
    float(lo)) / (count - 1), rounded (the values of ``numpy.linspace``)."""
    _check_grid(lo, hi, count)
    if count == 1:
        return [lo]
    start = float(lo)
    step = (float(hi) - start) / (count - 1)
    return _with_ends(lo, hi, count, lambda i: round(start + i * step))


def _with_ends(lo: int, hi: int, count: int, point) -> list[int]:
    """lo, hi (exact at any size) and the distinct values of the interior
    points ``point(i)``, i = 1..count-2, clamped into [lo, hi]; sorted.

    ``point`` is non-decreasing in i, so the last i of each value is found
    by bisection: the work is O(distinct values * log count), however large
    count is."""
    def at(i: int) -> int:
        return min(max(point(i), lo), hi)

    values = {lo, hi}
    i = 1
    while i < count - 1:
        value = at(i)
        values.add(value)
        same, differs = i, count - 1  # the last i of value is in [same, differs)
        while differs - same > 1:
            mid = (same + differs) // 2
            if at(mid) == value:
                same = mid
            else:
                differs = mid
        i = differs
    return sorted(values)


def _check_grid(lo: int, hi: int, count: int) -> None:
    check_half_width(lo)
    check_half_width(hi)
    if hi < lo:
        raise ValueError(f"grid needs min <= max, got {lo}..{hi}")
    if not 1 <= count <= sys.float_info.max:
        raise ValueError(f"grid needs 1 <= count <= {sys.float_info.max:g}, got {count}")


def gap_series(potential: Potential, k_values: list[int]) -> tuple[SpectralResult, ...]:
    """eigenvalues_low over the given k values (sorted, duplicates
    rejected): one point per k, in increasing k, without ground states."""
    ks = sorted(k_values)
    if len(set(ks)) != len(ks):
        raise ValueError("k grid contains duplicates")
    return tuple(eigenvalues_low(assemble_hamiltonian(k, potential)) for k in ks)


def _integers(values: list[float]) -> tuple[list[int], int]:
    """Integers X and a power of two d with X[i] / d == values[i] exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    d = max(den for _, den in ratios)
    return [num * (d // den) for num, den in ratios], d


def fit_power_law(points: tuple[SpectralResult, ...]) -> ScalingFit:
    """Ordinary least squares of log gap against log n, in closed form.

    Each double log is an integer over a power of two, so the sums of the
    two-parameter normal equations are exact integers: the exponent, the
    log of the prefactor and r_squared are the exact least-squares values
    of the double logs, each rounded once.  Flagged (precision-limited)
    points are excluded; at least 3 usable points, with finite gaps and
    two distinct values of log n, are required.  Band statistics are taken
    over the scaled sequence at the fitted exponent rounded to the nearest
    integer, using points with k >= ``BAND_K_MIN`` (all usable points if
    none qualify).
    """
    pts = [pt for pt in points if not pt.precision_limited and pt.gap > 0]
    if len(pts) < 3:
        raise ValueError(
            f"power-law fit needs at least 3 usable points, have {len(pts)}"
        )
    if any(pt.gap == math.inf for pt in pts):
        raise ValueError("power-law fit needs finite gaps")
    xs, dx = _integers([math.log(pt.n) for pt in pts])
    ys, dy = _integers([math.log(pt.gap) for pt in pts])
    m, sx, sy = len(pts), sum(xs), sum(ys)
    sxx = m * sum(a * a for a in xs) - sx * sx
    sxy = m * sum(a * b for a, b in zip(xs, ys)) - sx * sy
    syy = m * sum(b * b for b in ys) - sy * sy
    if sxx == 0:  # from n near 10^15 up, distinct n may share one double log n
        raise ValueError("power-law fit needs two distinct values of log n")
    exponent = sxy * dx / (sxx * dy)
    intercept = (sy * sxx - sx * sxy) / (m * sxx * dy)
    r_squared = sxy * sxy / (sxx * syy) if syy else 1.0
    power = round(-exponent)
    band = [pt.n**power * pt.gap for pt in pts if pt.k >= BAND_K_MIN]
    if not band:
        band = [pt.n**power * pt.gap for pt in pts]
    return ScalingFit(
        exponent=exponent,
        prefactor=math.exp(intercept),
        r_squared=r_squared,
        band_min=min(band),
        band_max=max(band),
        band_power=power,
        points_excluded=len(points) - len(pts),
    )
