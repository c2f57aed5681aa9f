"""Volume sweeps of the spectral gap and scaling-law fits.

Without a potential the gap of the path on n = 2k+1 sites falls off like
pi^2 / n^2; any non-empty compactly supported potential pushes the decay to
order n^-3.  This module runs the sweeps over k, fits power laws on log-log
axes with band statistics of the scaled sequence n^p * gap, and writes and
reads the gap-scan CSV.  A grid point is the ``SpectralResult`` that
``eigenvalues_low`` returns for it; k, n and the gap are read from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import SpectralResult, eigenvalues_low
from .operators import Potential, assemble_hamiltonian

__all__ = [
    "GapSeries",
    "ScalingFit",
    "geometric_grid",
    "linear_grid",
    "gap_series",
    "fit_power_law",
    "series_to_csv",
    "series_from_csv",
]

CSV_HEADER = "k,n,alpha_sum,lambda0,lambda1,gap,gap_n2,gap_n3,precision_limited"

# band statistics use the points with k >= BAND_K_MIN, or every usable
# point when none reaches it
BAND_K_MIN = 100


@dataclass(frozen=True)
class GapSeries:
    """Gap sweep for one fixed potential: one ``SpectralResult`` per k, in
    strictly increasing k, without ground states.

    ``potential`` is None for series re-read from CSV (only the total
    strength survives serialization, in the alpha_sum column).
    """

    potential: Potential | None
    points: tuple[SpectralResult, ...]


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

    def to_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "prefactor": self.prefactor,
            "r_squared": self.r_squared,
            "band_min": self.band_min,
            "band_max": self.band_max,
            "band_ratio": self.band_ratio,
            "band_power": self.band_power,
            "points_excluded": self.points_excluded,
        }


def geometric_grid(lo: int, hi: int, count: int) -> list[int]:
    """count geometrically spaced integers from lo to hi (deduplicated)."""
    _check_grid(lo, hi, count)
    if count == 1 or lo == hi:
        return [lo] if lo == hi else [lo, hi][:count]
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return sorted({round(lo * ratio**i) for i in range(count)})


def linear_grid(lo: int, hi: int, count: int) -> list[int]:
    """count evenly spaced integers from lo to hi (deduplicated)."""
    _check_grid(lo, hi, count)
    if count == 1:
        return [lo]
    return sorted({round(v) for v in np.linspace(lo, hi, count)})


def _check_grid(lo: int, hi: int, count: int) -> None:
    if lo < 1 or hi < lo:
        raise ValueError(f"grid needs 1 <= min <= max, got {lo}..{hi}")
    if count < 1:
        raise ValueError(f"grid needs count >= 1, got {count}")


def gap_series(potential: Potential, k_values: list[int]) -> GapSeries:
    """eigenvalues_low over the given k values (sorted, duplicates
    rejected); no ground state is computed."""
    ks = sorted(k_values)
    if len(set(ks)) != len(ks):
        raise ValueError("k grid contains duplicates")
    points = tuple(eigenvalues_low(assemble_hamiltonian(k, potential)) for k in ks)
    return GapSeries(potential=potential, points=points)


def fit_power_law(series: GapSeries) -> ScalingFit:
    """Ordinary least squares of log gap against log n.

    Flagged (precision-limited) points are excluded; at least 3 usable
    points are required.  Band statistics are taken over the scaled
    sequence at the fitted exponent rounded to the nearest integer, using
    points with k >= ``BAND_K_MIN`` (all usable points if none qualify).
    """
    pts = [pt for pt in series.points if not pt.precision_limited and pt.gap > 0]
    if len(pts) < 3:
        raise ValueError(
            f"power-law fit needs at least 3 usable points, have {len(pts)}"
        )
    x = np.log([pt.n for pt in pts])
    y = np.log([pt.gap for pt in pts])
    exponent, intercept = np.polyfit(x, y, 1)
    resid = y - (exponent * x + intercept)
    ss_res = float(np.dot(resid, resid))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    power = int(round(-float(exponent)))
    band = [pt.n**power * pt.gap for pt in pts if pt.k >= BAND_K_MIN]
    if not band:
        band = [pt.n**power * pt.gap for pt in pts]
    return ScalingFit(
        exponent=float(exponent),
        prefactor=float(math.exp(intercept)),
        r_squared=r_squared,
        band_min=min(band),
        band_max=max(band),
        band_power=power,
        points_excluded=len(series.points) - len(pts),
    )


def series_to_csv(series: GapSeries, timestamp: str | None = None) -> str:
    """CSV with one row per k; floats carry 17 significant digits."""
    lines = []
    if timestamp is not None:
        lines.append(f"# generated {timestamp}")
    lines.append(CSV_HEADER)
    strength_sum = 0.0 if series.potential is None else series.potential.strength_sum
    for pt in series.points:
        lines.append(
            ",".join(
                [
                    str(pt.k),
                    str(pt.n),
                    format(strength_sum, ".17g"),
                    format(pt.lambda0, ".17g"),
                    format(pt.lambda1, ".17g"),
                    format(pt.gap, ".17g"),
                    format(pt.n**2 * pt.gap, ".17g"),
                    format(pt.n**3 * pt.gap, ".17g"),
                    "true" if pt.precision_limited else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def series_from_csv(text: str) -> GapSeries:
    """Inverse of series_to_csv (the potential itself is not recoverable).

    Raises ValueError naming the row when a row has the wrong field count,
    a field that does not parse, a k below 1 or not above the previous
    row's, an n other than 2k+1, a gap other than lambda1 - lambda0, a
    precision_limited other than true/false, or a gap_n2 / gap_n3 other
    than n**2 * gap / n**3 * gap.
    """
    rows = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(
            f"unrecognized gap-scan CSV (expected header {CSV_HEADER!r})"
        )
    points: list[SpectralResult] = []
    for row in rows[1:]:
        fields = row.split(",")
        if len(fields) != 9:
            raise ValueError(f"malformed CSV row: {row!r}")
        try:
            k, n = int(fields[0]), int(fields[1])
            float(fields[2])  # alpha_sum: parsed, not kept
            lam0, lam1, gap, gap_n2, gap_n3 = (float(f) for f in fields[3:8])
        except ValueError as err:
            raise ValueError(f"CSV row {row!r}: {err}") from None
        flag = fields[8]
        if k < 1:
            raise ValueError(
                f"CSV row {row!r}: half-width k must be a positive integer, got {k}"
            )
        if points and k <= points[-1].k:
            raise ValueError(
                f"CSV row {row!r}: k = {k} does not exceed the previous row's "
                f"k = {points[-1].k}"
            )
        if n != 2 * k + 1:
            raise ValueError(f"CSV row {row!r}: n = {n} is not 2k+1 for k = {k}")
        # exact: gap-scan writes every float with 17 significant digits
        if gap != lam1 - lam0:
            raise ValueError(
                f"CSV row {row!r}: gap = {gap!r} is not lambda1 - lambda0 = "
                f"{lam1 - lam0!r}"
            )
        if flag not in ("true", "false"):
            raise ValueError(
                f"CSV row {row!r}: precision_limited must be true or false, got {flag!r}"
            )
        for name, scaled, p in (("gap_n2", gap_n2, 2), ("gap_n3", gap_n3, 3)):
            if scaled != n**p * gap:
                raise ValueError(
                    f"CSV row {row!r}: {name} = {scaled!r} is not n**{p} * gap = "
                    f"{n**p * gap!r}"
                )
        points.append(
            SpectralResult(
                k=k, lambda0=lam0, lambda1=lam1, precision_limited=flag == "true"
            )
        )
    return GapSeries(potential=None, points=tuple(points))
