import pytest

from pathgap import (
    assemble_hamiltonian,
    evaluate_bounds,
    geometric_grid,
    spectrum_low,
)
from pathgap.cli import parse_potential_spec

# the standard sweep used by the acceptance criteria
ACCEPTANCE_GRID = geometric_grid(100, 1600, 16)
BOUND_POTENTIALS = ("0:1", "0:8", "-2:5,3:7", "-1:2,0:3,1:2")
ALPHA_SET = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


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
            evaluate_bounds(
                assemble_hamiltonian(k, pot),
                spectral(spec, k),
                epsilon=1.0,
                k_min=10,
            )
            for k in ACCEPTANCE_GRID
        ]
    return out
