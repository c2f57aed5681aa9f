"""Evaluation of the analytic eigenvalue bounds against computed spectra.

For a potential supported on sites r_min..r_max inside the path -k..k, the
two lowest eigenvalues are controlled by the ground energies of the free
sub-paths left of r_min and right of r_max with a Dirichlet site at the
support edge.  This module computes

* the side corrections (half-mass deficits of the ground state outside the
  support) entering the lower bound on the ground energy,
* the variational trial state (two half-path Dirichlet cosines plus a
  constant floor with mixing weight solving the normalization relation)
  giving the upper bound; its mixing weight is a closed form, so no trial
  vector is built,
* the sandwich for the first excited energy,

and aggregates every inequality into a report with per-check status;
``cli`` writes the report's fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .eigensolver import SpectralResult, dirichlet_ground_energy
from .operators import Potential, TridiagonalOperator

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BoundCheck",
    "BoundsReport",
    "side_energies",
    "compute_side_corrections",
    "build_trial_state",
    "evaluate_bounds",
]

# the trial state's floor parameter: the floor energy is the Dirichlet
# ground energy of the full path over 2 + EPSILON
EPSILON = 1.0

# comparison slack for inequalities that the theory allows to be attained
# with equality (e.g. the excited-level sandwich is exact for single-site
# potentials); forgives eigensolver noise only.
_SLACK = 1e-12


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality; ``skipped_reason`` marks non-applicable."""

    name: str
    lhs: float
    rhs: float
    holds: bool
    skipped_reason: str | None = None

    @property
    def applicable(self) -> bool:
        return self.skipped_reason is None


@dataclass(frozen=True)
class BoundsReport:
    """Every bound evaluated at one grid point: the potential, the point's
    ``spectrum_low`` result and what ``evaluate_bounds`` built from them.

    Each bound is read from the check that compares it with the spectrum,
    by name: the rhs of ``ground_energy_upper_bound`` is the ground upper
    bound (NaN when the trial state is degenerate), the rhs of
    ``excited_energy_upper_bound`` the larger side energy.
    """

    potential: Potential
    result: SpectralResult
    side_corrections: tuple[float, float]  # (left, right): compute_side_corrections(op, phi)
    side_energies: tuple[float, float]  # (left, right): side_energies(op)
    mixing: float | None  # build_trial_state(op), None when degenerate
    checks: list[BoundCheck]

    @property
    def k(self) -> int:
        return self.result.k

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks if c.applicable)


def side_energies(op: TridiagonalOperator) -> tuple[float, float]:
    """Dirichlet ground energies of the free sub-paths left of r_min and
    right of r_max, each with a Dirichlet site at the support edge.

    ``assemble_hamiltonian`` has checked that both sub-paths are non-empty.
    """
    return (
        dirichlet_ground_energy(op.k + op.potential.site_min),
        dirichlet_ground_energy(op.k - op.potential.site_max),
    )


def compute_side_corrections(op: TridiagonalOperator, phi: np.ndarray) -> tuple[float, float]:
    """Half-mass deficits (left, right): 1/2 - sum over each side of |phi(j) - phi(edge)|^2.

    ``phi`` is the positive normalized ground state of ``op`` (ValueError if
    not of length n); the sums run from the boundary through the support edge.
    """
    import numpy as np
    i_min, i_max = op.potential.site_min + op.k, op.potential.site_max + op.k
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (op.n,):
        raise ValueError(f"ground state has length {phi.shape}, expected {op.n}")
    dl = phi[: i_min + 1] - phi[i_min]
    dr = phi[i_max:] - phi[i_max]
    return 0.5 - float(np.dot(dl, dl)), 0.5 - float(np.dot(dr, dr))


def _piece_sum(m: int) -> float:
    """Sum of the half-cosine cos((i + 1/2) x), i = 0..m, x = pi/(2m+1),
    scaled to squared norm 1/2: its raw sum is cot(x/2)/2 and its raw
    squared norm (2m+1)/4, so the sum is cot(x/2) / sqrt(2(2m+1))."""
    return 1.0 / (math.tan(0.5 * math.pi / (2 * m + 1)) * math.sqrt(2.0 * (2 * m + 1)))


def _floor_and_sum(op: TridiagonalOperator) -> tuple[float, float]:
    """The trial state's floor amplitude a and the sum S of its two cosine
    pieces.

    Each piece is the ground profile of its free sub-path, with m + 1 sites
    from the path end up to the support edge, where it vanishes, at squared
    norm 1/2; it is zero outside its side.  ValueError off the branch
    (2k+1) a^2 < 1.
    """
    k, n, strength_sum = op.k, op.n, op.potential.strength_sum
    amp = math.sqrt(dirichlet_ground_energy(k) / (2.0 + EPSILON) / strength_sum)
    if n * amp * amp >= 1.0:
        raise ValueError(
            f"degenerate mixing branch: (2k+1) * floor amplitude^2 = "
            f"{n * amp * amp:.6g} >= 1 (k = {k}, total strength = "
            f"{strength_sum:g}, epsilon = {EPSILON:g})"
        )
    cos_sum = _piece_sum(k + op.potential.site_min) + _piece_sum(k - op.potential.site_max)
    return amp, cos_sum


def build_trial_state(op: TridiagonalOperator) -> float:
    """The mixing weight b of the trial state sqrt(1-b) (left + right
    pieces) + sqrt(b) a, in O(1).

    b solves the normalization relation  b = 2 sqrt((1-b) b) a S + (2k+1) b a^2
    (a = floor amplitude, S = sum of the cosine pieces) in closed form:
    b = 4 a^2 S^2 / ((1 - (2k+1) a^2)^2 + 4 a^2 S^2), valid on the branch
    (2k+1) a^2 < 1; ValueError off it.
    """
    amp, cos_sum = _floor_and_sum(op)
    a2s2 = 4.0 * amp * amp * cos_sum * cos_sum
    return a2s2 / ((1.0 - op.n * amp * amp) ** 2 + a2s2)


def _leq(name: str, lhs: float, rhs: float) -> BoundCheck:
    slack = _SLACK * max(1.0, abs(lhs), abs(rhs))
    return BoundCheck(name, lhs, rhs, bool(lhs <= rhs + slack))


def evaluate_bounds(op: TridiagonalOperator, result: SpectralResult) -> BoundsReport:
    """Evaluate every bound at one grid point: the operator ``op`` and its
    ``spectrum_low(op)`` result, with the trial state at ``EPSILON``.

    A degenerate trial-state branch (the ValueError of
    ``build_trial_state``) is recorded as a skipped upper-bound check; any
    other error is raised.
    """
    k, potential = op.k, op.potential
    theta_left, theta_right = side_energies(op)
    theta_path = dirichlet_ground_energy(k)
    phi = result.ground_state
    lam0, lam1 = result.lambda0, result.lambda1

    left, right = compute_side_corrections(op, phi)
    lower = (0.5 - left) * theta_left + (0.5 - right) * theta_right

    mixing: float | None = None
    upper: float | None = None
    trial_error: str | None = None
    try:
        mixing = b = build_trial_state(op)
        upper = 0.5 * (1.0 - b) * (theta_left + theta_right) + b * (theta_path / (2.0 + EPSILON))
    except ValueError as err:
        trial_error = str(err)

    checks: list[BoundCheck] = []
    total = left + right
    slack = _SLACK * max(1.0, abs(total))
    checks.append(
        BoundCheck(
            "side_correction_total_in_unit_interval",
            total,
            1.0,
            bool(-slack <= total <= 1.0 + slack),
        )
    )
    checks.append(_leq("ground_energy_lower_bound", lower, lam0))
    if upper is not None:
        checks.append(_leq("ground_energy_upper_bound", lam0, upper))
    else:
        checks.append(BoundCheck("ground_energy_upper_bound", lam0, math.nan, False, trial_error))
    # the excited sandwich; its upper bound holds at every k by min-max: the
    # two side ground states, extended by zero, have disjoint, non-adjacent
    # supports and no potential energy, so H is diagonal on their span
    checks.append(_leq("excited_energy_lower_bound", theta_path, lam1))
    checks.append(_leq("excited_energy_upper_bound", lam1, max(theta_left, theta_right)))
    checks.append(_leq("ground_energy_pair_mean", 2.0 * lam0, theta_left + theta_right))

    pot_term = sum(a * float(phi[s + k]) ** 2 for s, a in potential.entries)
    checks.append(
        _leq(
            "potential_term_vs_side_corrections",
            pot_term,
            left * theta_left + right * theta_right,
        )
    )

    return BoundsReport(potential, result, (left, right), (theta_left, theta_right), mixing,
                        checks)
