"""Symmetric-tridiagonal eigensolver: Sturm counts, certified bisection,
inverse iteration, and the closed-form eigenvalue oracles for path graphs.

Only the two lowest eigenvalues and the ground state are ever needed, so
eigenvalues are extracted one at a time by bisection on the Sturm count,
which gives a certified bracket at any requested index, always bisected to
the relative width ``REL_TOL`` = 1e-14.  The inner loops live in
``_kernels`` (plain Python over float64 buffers; the only backend).
``eigenvalues_low`` stops there; ``spectrum_low`` adds the ground state by
inverse iteration shifted to the bisection ground energy.  Both return a
``SpectralResult``: the half-width k, the two eigenvalues and the flag,
with ``n`` and ``gap`` derived from them.  Double precision limits how
small a spectral gap can be resolved; results whose gap falls below 10^3
ulp of the matrix norm bound carry ``precision_limited=True`` and
downstream fits drop such points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .operators import TridiagonalOperator, apply_operator

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


def _pivot_scale(op: TridiagonalOperator) -> float:
    return float(np.max(np.abs(op.diag))) + 2.0


def _offsq(op: TridiagonalOperator) -> np.ndarray:
    return op.offdiag * op.offdiag


def sturm_count(op: TridiagonalOperator, mu: float) -> int:
    """Number of eigenvalues of ``op`` strictly below ``mu``."""
    subst = EPS * _pivot_scale(op)
    return int(_kernels.sturm_count(op.diag, _offsq(op), float(mu), subst))


def _eigenvalue_bracket(op: TridiagonalOperator, index: int) -> tuple[float, float]:
    n = op.n
    if not 0 <= index <= n - 1:
        raise ValueError(f"eigenvalue index {index} out of range 0..{n - 1}")
    subst = EPS * _pivot_scale(op)
    lo, hi = _kernels.bisect_bracket(
        op.diag, _offsq(op), index, 0.0, op.norm_bound, REL_TOL, LAMBDA_FLOOR, subst
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
    0)``.  If the shifted factorization hits a pivot below 10^3 eps * scale
    the shift is nudged up by 2 ulp of the norm bound and the factorization
    redone.  Tiny pivots beyond that are kept as-is (they drive the solve
    along the wanted direction); only a microscopic overflow floor replaces
    exact zeros.  Converged when ||H v - lambda0 v|| <= 1e-11 * (4 + max
    strength) and the iterate has stopped moving.
    """
    tol = RESIDUAL_SCALE * op.norm_bound
    scale = _pivot_scale(op)
    pivot_min = 1e3 * EPS * scale
    overflow_floor = 1e-150 * scale
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


def eigenvalues_low(op: TridiagonalOperator) -> SpectralResult:
    """Two lowest eigenvalues and their gap, without the ground state."""
    lo0, hi0 = _eigenvalue_bracket(op, 0)
    lo1, hi1 = _eigenvalue_bracket(op, 1)
    lam0 = 0.5 * (lo0 + hi0)
    lam1 = 0.5 * (lo1 + hi1)
    gap = lam1 - lam0
    limited = gap < GAP_ULP_FACTOR * math.ulp(op.norm_bound) or lo1 <= hi0
    return SpectralResult(
        k=op.k, lambda0=lam0, lambda1=lam1, precision_limited=limited
    )


def spectrum_low(op: TridiagonalOperator) -> SpectralResult:
    """Two lowest eigenvalues, their gap, and the ground state."""
    values = eigenvalues_low(op)
    return replace(values, ground_state=ground_state(op, values.lambda0))


def dirichlet_ground_energy(m: int) -> float:
    """Lowest energy of the path on 2m+1 sites with the center pinned to zero,
    equivalently of a path of m free sites next to one Dirichlet endpoint:
    2 - 2 cos(pi / (2m+1))."""
    if int(m) != m or m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    return 2.0 - 2.0 * math.cos(math.pi / (2 * m + 1))


def free_spectrum(k: int) -> np.ndarray:
    """All 2k+1 eigenvalues of the potential-free path Laplacian, ascending:
    2 - 2 cos(pi m / (2k+1)), m = 0..2k.  Used as a test oracle."""
    if int(k) != k or k < 1:
        raise ValueError(f"half-width k must be a positive integer, got {k}")
    n = 2 * k + 1
    m = np.arange(n)
    return 2.0 - 2.0 * np.cos(np.pi * m / n)
