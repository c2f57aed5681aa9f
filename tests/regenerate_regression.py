"""Recompute the pinned regression extrema over the standard grid.

Usage: PYTHONPATH=src python tests/regenerate_regression.py
Overwrites tests/data/regression_values.json in place.  Only do this after
an intentional change to the solver or grid; the acceptance suite asserts
agreement with the pinned values within +-20%.
"""
import json
from pathlib import Path

from pathgap import (
    assemble_hamiltonian,
    build_trial_state,
    evaluate_bounds,
    geometric_grid,
    spectrum_low,
)
from pathgap.cli import parse_potential_spec

GRID_SPEC = "100:1600:geometric:16"


def main() -> None:
    grid = geometric_grid(100, 1600, 16)
    payload = {
        "comment": (
            "Empirical extrema pinned from the first full run of the "
            "acceptance grid (geometric k = 100..1600, 16 points); tests "
            "assert agreement within +-20%. Regenerate with: "
            "python tests/regenerate_regression.py"
        ),
        "grid": GRID_SPEC,
        "potentials": {},
    }
    for spec in ("0:1", "0:8"):
        pot = parse_potential_spec(spec)
        a_min, a_sum = min(a for _, a in pot.entries), pot.strength_sum
        ak, bk, scaled, epk3 = [], [], [], []
        for k in grid:
            op = assemble_hamiltonian(k, pot)
            res = spectrum_low(op)
            rep = evaluate_bounds(op, res)
            left, right = rep.side_corrections
            ak.append((left + right) * a_min * k)
            bk.append(rep.mixing * a_sum * k)
            # phi(0), the potential energy a phi(0)^2 and a k^{3/2} phi(0)
            phi0 = float(res.ground_state[k])
            scaled.append(a_sum * k**1.5 * phi0)
            epk3.append(a_sum * phi0 * phi0 * k**3)
        payload["potentials"][spec] = {
            "ak_product_max": max(ak),
            "bk_product_min": min(bk),
            "origin_scaled_max": max(scaled),
            "potential_energy_k3_max": max(epk3),
        }
    payload["trial_mixing_k10_alpha1"] = build_trial_state(
        assemble_hamiltonian(10, parse_potential_spec("0:1"))
    )

    out = Path(__file__).parent / "data" / "regression_values.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
