import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from pathgap import (
    assemble_hamiltonian,
    evaluate_bounds,
    geometric_grid,
    spectrum_low,
)
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
