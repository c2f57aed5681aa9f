import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from pathgap import (
    assemble_hamiltonian,
    dirichlet_ground_energy,
    evaluate_bounds,
    geometric_grid,
    spectrum_low,
)
from pathgap.bounds import EPSILON, _floor_and_sum
from pathgap.cli import parse_potential_spec

# the benchmark's mpmath oracle, point checks and command lists, which share
# no code with pathgap, are imported from perfbench/ as they are
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

# the standard sweep used by the acceptance criteria
ACCEPTANCE_GRID = geometric_grid(100, 1600, 16)
BOUND_POTENTIALS = ("0:1", "0:8", "-2:5,3:7", "-1:2,0:3,1:2")
ALPHA_SET = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
# (k, spec) where the window [sigma, sigma +- 3 Delta/2] of a level is not
# a bracket that double-precision counts in lambda certify.  Either it fails
# (Delta not small against n, or n small against the support) and _roots
# bisects from (1/2 - n/2, hi], or it is narrower than a count in lambda
# resolves and only counts made in u certify it (the last four)
FALLBACK_CASES = ((10, "0:1e-3"), (100, "0:1e-6"), (6, "-5:1"), (6, "-4:1,5:2"),
                  (2, "-1:2,1:3"), (3, "0:1e300"), (3, "0:1e16"), (80, "0:1e12"),
                  (25600, "-8:100,8:100"))


def mp_ground_state(k, pairs, dps=None):
    """The ground state in mpmath: lambda0 by bisection on the positivity
    of the LDL^T pivots, then two inverse-iteration solves just below it.

    ``dps`` defaults to 60 + 2 log10 of the largest strength a (at least
    60): a barrier splits the two lowest levels by about 1/a relative, and
    the two solves separate their states only where the working precision
    resolves lambda0 far below that split.  At k = 4 with
    0:3.3888804809460114e+71, 60 digits give a ground state 0.033
    asymmetric."""
    if dps is None:
        dps = 60 + 2 * math.ceil(math.log10(max([1.0, *(a for _, a in pairs)])))
    with mpmath.workdps(dps):
        d = [mpmath.mpf(2)] * (2 * k + 1)
        d[0] = d[-1] = mpmath.mpf(1)
        for site, strength in pairs:
            d[site + k] += mpmath.mpf(strength)

        def pivots(lam):
            p = [d[0] - lam]
            for a in d[1:]:
                if p[-1] <= 0:
                    break
                p.append(a - lam - 1 / p[-1])
            return p

        lo, hi = mpmath.mpf(0), mpmath.mpf(4)
        for _ in range(4 * dps):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if min(pivots(mid)) > 0 else (lo, mid)
        p = pivots(lo)
        x = [mpmath.mpf(1)] * len(d)
        for _ in range(2):
            y = [x[0]]
            for i in range(1, len(d)):
                y.append(x[i] + y[-1] / p[i - 1])
            x = [y[-1] / p[-1]]
            for i in range(len(d) - 2, -1, -1):
                x.insert(0, (y[i] + x[0]) / p[i])
            norm = mpmath.sqrt(mpmath.fsum(v * v for v in x))
            x = [v / norm for v in x]
        return np.array([float(v) for v in x])


def mp_origin_gap(k, alpha, dps=40):
    """The gap of one site of strength alpha at the origin, in mpmath.

    lambda1 = 4 sin^2(x/2), x = pi/n, is the odd level, which the site does
    not see; lambda0 = 4 sin^2(t/2) with t the root in (0, x) of
    2 sin t tan(t n/2) = alpha.  Written in d = x - t, where t n/2 =
    pi/2 - d n/2, that is 2 sin(x - d) cos(d n/2) = alpha sin(d n/2),
    bisected in d to 10^(5 - dps) relative, and the gap is
    4 sin(x - d/2) sin(d/2): nothing cancels, so ``dps`` need not grow with
    k or alpha."""
    with mpmath.workdps(dps):
        a, half, x = mpmath.mpf(alpha), mpmath.mpf(2 * k + 1) / 2, mpmath.pi / (2 * k + 1)
        lo, hi = mpmath.mpf(0), x
        while hi - lo > hi * mpmath.mpf(10) ** (5 - dps):
            d = (lo + hi) / 2
            if 2 * mpmath.sin(x - d) * mpmath.cos(half * d) > a * mpmath.sin(half * d):
                lo = d
            else:
                hi = d
        d = (lo + hi) / 2
        return 4 * mpmath.sin(x - d / 2) * mpmath.sin(d / 2)


# O(n) references of what the library computes in closed form


def quadratic_form(op, f):
    """Energy of f: sum of squared gradients along edges plus potential term.

    Agrees with <f, H f> up to rounding; evaluated in the gradient form so the
    result is a sum of non-negative terms (exactly 0 for constants when the
    potential is empty).
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n,):
        raise ValueError(f"vector length {f.shape} does not match n = {op.n}")
    grad = np.diff(f)
    value = float(np.dot(grad, grad))
    for site, strength in op.potential.entries:
        value += strength * float(f[site + op.k]) ** 2
    return value


def rayleigh_quotient(op, f):
    """quadratic_form(op, f) / ||f||^2; rejects the zero vector."""
    f = np.asarray(f, dtype=float)
    norm_sq = float(np.dot(f, f))
    if norm_sq == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    return quadratic_form(op, f) / norm_sq


def cosine_pieces(op):
    """The two half-path cosine profiles of the trial state as full-length
    vectors.

    Each piece is the ground profile of its free sub-path with a Dirichlet
    site at the support edge (where it vanishes), scaled by direct summation
    to squared norm 1/2, and zero outside its side.
    """
    k, rmin, rmax = op.k, op.potential.site_min, op.potential.site_max
    left = np.zeros(op.n)
    right = np.zeros(op.n)

    m_left = k + rmin
    j = np.arange(-k, rmin + 1)
    raw = np.cos((j + k + 0.5) * math.pi / (2 * m_left + 1))
    left[: m_left + 1] = raw / math.sqrt(2.0 * float(np.dot(raw, raw)))

    m_right = k - rmax
    j = np.arange(rmax, k + 1)
    raw = np.cos((k - j + 0.5) * math.pi / (2 * m_right + 1))
    right[rmax + k :] = raw / math.sqrt(2.0 * float(np.dot(raw, raw)))
    return left, right


def trial_vector(op, mixing):
    """The trial state sqrt(1 - b) (left + right) + sqrt(b) a at b =
    ``mixing``, with a the floor amplitude sqrt(E_D(k) / (2 + EPSILON) /
    total strength)."""
    left, right = cosine_pieces(op)
    amp = math.sqrt(dirichlet_ground_energy(op.k) / (2.0 + EPSILON) / op.potential.strength_sum)
    return math.sqrt(1.0 - mixing) * (left + right) + math.sqrt(mixing) * amp


def trial_rayleigh(op, b, theta_sum):
    """Rayleigh quotient of the trial state at mixing weight ``b``, with
    ``theta_sum`` the sum of the two side energies, in O(1).

    Each piece is a Dirichlet ground state of its side, of energy theta/2,
    and both vanish on the support, so the floor adds only its potential
    energy b a^2 alpha_sum:
    ((1-b) theta_sum / 2 + b a^2 alpha_sum) / ((1-b) + 2 sqrt((1-b) b) a S + (2k+1) b a^2).
    The report's ground_upper is this quotient at a norm^2 of 1.
    """
    amp, cos_sum = _floor_and_sum(op)
    energy = 0.5 * (1.0 - b) * theta_sum + b * amp * amp * op.potential.strength_sum
    norm_sq = (1.0 - b) + 2.0 * math.sqrt((1.0 - b) * b) * amp * cos_sum + op.n * b * amp * amp
    return energy / norm_sq


def expanded_side_total(op, phi):
    """The side-correction total rewritten through ground-state sums: the
    reference that the report's direct definition is checked against."""
    k, rmin, rmax = op.k, op.potential.site_min, op.potential.site_max
    i_min, i_max = rmin + k, rmax + k
    support_sq = float(np.dot(phi[i_min : i_max + 1], phi[i_min : i_max + 1]))
    left_sum = float(np.sum(phi[:i_min]))
    right_sum = float(np.sum(phi[i_max + 1 :]))
    return (
        support_sq
        + 2.0 * float(phi[i_min]) * left_sum
        + 2.0 * float(phi[i_max]) * right_sum
        - float(phi[i_min]) ** 2 * (k + rmin)
        - float(phi[i_max]) ** 2 * (k - rmax)
    )


def mp_trial_state(k, pairs, dps=50):
    """(mixing weight, upper bound) of the trial state in mpmath, from the
    exact strengths: the Rayleigh quotient of the exactly normalized state,
    ((1-b)(theta_L + theta_R)/2 + b E_D(k) / (2 + EPSILON)), which is the
    upper bound.  The piece sums are cot(x/2) / sqrt(2(2m+1)), x = pi/(2m+1)
    (``test_bounds.py`` checks them against direct mpmath sums)."""
    rmin, rmax = min(s for s, _ in pairs), max(s for s, _ in pairs)
    with mpmath.workdps(dps):
        def energy(m):
            return 4 * mpmath.sin(mpmath.pi / (2 * (2 * m + 1))) ** 2

        def piece_sum(m):
            return mpmath.cot(mpmath.pi / (2 * (2 * m + 1))) / mpmath.sqrt(2 * (2 * m + 1))

        floor = energy(k) / (2 + mpmath.mpf(EPSILON))
        a2 = floor / mpmath.fsum(mpmath.mpf(a) for _, a in pairs)
        a2s2 = 4 * a2 * (piece_sum(k + rmin) + piece_sum(k - rmax)) ** 2
        b = a2s2 / ((1 - (2 * k + 1) * a2) ** 2 + a2s2)
        return b, (1 - b) * (energy(k + rmin) + energy(k - rmax)) / 2 + b * floor


@pytest.fixture(scope="session")
def spectral():
    """Memoized spectrum_low over (potential spec, k)."""
    cache = {}

    def get(spec: str, k: int):
        key = (spec, k)
        if key not in cache:
            pot = parse_potential_spec(spec)
            cache[key] = spectrum_low(assemble_hamiltonian(k, pot))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def bound_reports(spectral):
    """BoundsReports for the four standard potentials over the grid."""
    out = {}
    for spec in BOUND_POTENTIALS:
        pot = parse_potential_spec(spec)
        out[spec] = [
            evaluate_bounds(assemble_hamiltonian(k, pot), spectral(spec, k))
            for k in ACCEPTANCE_GRID
        ]
    return out
