"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 6 and 8 compare empirical extrema, computed here from the
bound reports and ground states, against values pinned in
tests/data/regression_values.json (+-20%); regenerate that file with
``PYTHONPATH=src python tests/regenerate_regression.py`` after an intentional change.
"""
import json
import math
from pathlib import Path

import numpy as np

from pathgap import (
    assemble_hamiltonian,
    build_potential,
    build_trial_state,
    dirichlet_ground_energy,
    fit_power_law,
    free_spectrum,
)
from pathgap.cli import main, parse_k_grid, parse_potential_spec

from conftest import (
    ACCEPTANCE_GRID,
    ALPHA_SET,
    BOUND_POTENTIALS,
    cosine_pieces,
    eigenvalue,
    rayleigh_quotient,
    trial_vector,
)

REGRESSION = json.loads(
    (Path(__file__).parent / "data" / "regression_values.json").read_text()
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _within_regression(observed: float, pinned: float) -> bool:
    return pinned / 1.2 <= observed <= pinned * 1.2


def test_criterion_01_eigensolver_oracle():
    worst = 0.0
    for k in range(1, 51):
        op = assemble_hamiltonian(k, build_potential([]))
        oracle = free_spectrum(k)
        for i in range(op.n):
            worst = max(worst, abs(eigenvalue(op, i) - oracle[i]))
    op5 = assemble_hamiltonian(1, build_potential([(0, 5.0)]))
    worst = max(worst, abs(eigenvalue(op5, 0) - (4.0 - math.sqrt(11.0))))
    worst = max(worst, abs(eigenvalue(op5, 1) - 1.0))
    _report(1, "eigensolver oracle equivalence", worst <= 1e-12,
            f"worst abs err {worst:.2e} <= 1e-12")


def test_criterion_02_pinned_center_identity():
    worst = 0.0
    for alpha in (0.5, 1.0, 10.0, 1e4):
        for k in range(1, 51):
            op = assemble_hamiltonian(k, build_potential([(0, alpha)]))
            worst = max(worst, abs(eigenvalue(op, 1) - dirichlet_ground_energy(k)))
    _report(2, "second eigenvalue vs pinned-center closed form", worst <= 1e-12,
            f"worst abs err {worst:.2e} <= 1e-12")


def test_criterion_03_pi_squared_baseline(spectral):
    res = spectral("none", 1000)
    n = 2001
    dev = abs(n**2 * res.gap - math.pi**2) / math.pi**2
    _report(3, "free-Laplacian pi^2 baseline at k=1000", dev <= 1e-4,
            f"relative deviation {dev:.2e} <= 1e-4")


def test_criterion_04_ground_energy_sandwich(bound_reports):
    violations = 0
    points = 0
    for spec in BOUND_POTENTIALS:
        for rep in bound_reports[spec]:
            points += 1
            for name in ("ground_energy_lower_bound", "ground_energy_upper_bound"):
                check = next(c for c in rep.checks if c.name == name)
                if not (check.applicable and check.holds):
                    violations += 1
    _report(4, "two-sided ground-energy sandwich", violations == 0,
            f"{violations} violations over {points} grid points")


def test_criterion_05_excited_energy_sandwich(bound_reports):
    violations = 0
    points = 0
    for spec in BOUND_POTENTIALS:
        for rep in bound_reports[spec]:
            points += 1  # every grid k is >= 10
            for name in ("excited_energy_lower_bound", "excited_energy_upper_bound"):
                check = next(c for c in rep.checks if c.name == name)
                if not (check.applicable and check.holds):
                    violations += 1
    _report(5, "excited-energy sandwich (k >= 10)", violations == 0,
            f"{violations} violations over {points} grid points")


def test_criterion_06_correction_products(bound_reports):
    ok = True
    details = []
    for spec in ("0:1", "0:8"):
        pot = parse_potential_spec(spec)
        reports = bound_reports[spec]
        # (left + right) * smallest strength * k, and mixing * total strength * k
        a_min = min(a for _, a in pot.entries)
        ak = [(rep.side_corrections[0] + rep.side_corrections[1]) * a_min * rep.k
              for rep in reports]
        bk = [rep.mixing * pot.strength_sum * rep.k for rep in reports]
        ak_max, bk_min = max(ak), min(bk)
        ok &= math.isfinite(ak_max) and bk_min > 0.0
        pins = REGRESSION["potentials"][spec]
        ok &= _within_regression(ak_max, pins["ak_product_max"])
        ok &= _within_regression(bk_min, pins["bk_product_min"])
        details.append(f"{spec}: ak_max={ak_max:.4f} bk_min={bk_min:.4f}")
    mixing = build_trial_state(assemble_hamiltonian(10, parse_potential_spec("0:1")))
    ok &= _within_regression(mixing, REGRESSION["trial_mixing_k10_alpha1"])
    _report(6, "side-correction and mixing-weight products", ok,
            "; ".join(details) + " vs pinned +-20%")


def test_criterion_07_inverse_strength_band(spectral):
    band = []
    exponents = {}
    for alpha in ALPHA_SET:
        spec = f"0:{alpha:g}"
        pts = []
        for k in ACCEPTANCE_GRID:
            res = spectral(spec, k)
            band.append(alpha * res.n**3 * res.gap)
            pts.append(res)
        exponents[alpha] = fit_power_law(tuple(pts)).exponent
    ratio = max(band) / min(band)
    exp_ok = all(-3.05 <= e <= -2.95 for e in exponents.values())
    ok = ratio < 10.0 and exp_ok
    worst_exp = min(exponents.values(), key=lambda e: -abs(e + 3.0))
    _report(7, "strength-scaled cubic band", ok,
            f"band ratio {ratio:.3f} < 10; exponents within [-3.05,-2.95] "
            f"(farthest {worst_exp:.4f})")


def test_criterion_08_origin_diagnostics(spectral, bound_reports):
    ok = True
    details = []
    for spec in ("0:1", "0:8"):
        pot = parse_potential_spec(spec)
        scaled_vals = []
        epk3_vals = []
        for k in ACCEPTANCE_GRID:
            # phi(0), the potential energy a phi(0)^2 and a k^{3/2} phi(0)
            phi0 = float(spectral(spec, k).ground_state[k])
            scaled_vals.append(pot.strength_sum * k**1.5 * phi0)
            epk3_vals.append(pot.strength_sum * phi0 * phi0 * k**3)
        pins = REGRESSION["potentials"][spec]
        s_max, e_max = max(scaled_vals), max(epk3_vals)
        ok &= math.isfinite(s_max) and math.isfinite(e_max)
        ok &= _within_regression(s_max, pins["origin_scaled_max"])
        ok &= _within_regression(e_max, pins["potential_energy_k3_max"])
        details.append(f"{spec}: scaled_max={s_max:.4f} epot_k3_max={e_max:.4f}")
    _report(8, "origin-site diagnostics bounded", ok,
            "; ".join(details) + " vs pinned +-20%")


def test_criterion_09_trial_state_integrity(bound_reports):
    # the library's trial state is closed forms; the O(n) reference vector
    # at its mixing weight is the state they describe
    worst_norm = 0.0
    worst_piece = 0.0
    rayleigh_ok = True
    for spec in BOUND_POTENTIALS:
        pot = parse_potential_spec(spec)
        for rep in bound_reports[spec]:
            op = assemble_hamiltonian(rep.k, pot)
            vector = trial_vector(op, rep.mixing)
            worst_norm = max(worst_norm, abs(float(np.dot(vector, vector)) - 1.0))
            left, right = cosine_pieces(op)
            worst_piece = max(
                worst_piece,
                abs(float(np.dot(left, left)) - 0.5),
                abs(float(np.dot(right, right)) - 0.5),
            )
            rayleigh_ok &= rayleigh_quotient(op, vector) >= rep.result.lambda0
    ok = worst_norm <= 1e-12 and worst_piece <= 1e-12 and rayleigh_ok
    _report(9, "trial-state integrity", ok,
            f"worst |norm^2-1| {worst_norm:.1e}, worst piece dev {worst_piece:.1e}, "
            f"rayleigh above ground: {rayleigh_ok}")


def test_criterion_10_cli_contract(tmp_path, capsys):
    code = main(
        ["verify-bounds", "--potential", "0:1", "--k-grid", "100:1600:geometric:16",
         "--no-timestamp", "--out", str(tmp_path / "vb.json")]
    )
    verify_ok = code == 0

    grid = "100:1600:geometric:16"
    scan = tmp_path / "scan.csv"
    assert main(["gap-scan", "--potential", "0:1", "--k-grid", grid,
                 "--no-timestamp", "--out", str(scan)]) == 0
    assert main(["fit", str(scan), "--no-timestamp",
                 "--out", str(tmp_path / "fit.json")]) == 0
    payload = json.loads((tmp_path / "fit.json").read_text())
    from pathgap import gap_series

    series = gap_series(parse_potential_spec("0:1"), parse_k_grid(grid))
    in_process = fit_power_law(series)
    fit_ok = abs(payload["exponent"] - in_process.exponent) <= 1e-12

    scan2 = tmp_path / "scan2.csv"
    assert main(["gap-scan", "--potential", "0:1", "--k-grid", grid,
                 "--no-timestamp", "--out", str(scan2)]) == 0
    bytes_ok = scan.read_bytes() == scan2.read_bytes()

    ok = verify_ok and fit_ok and bytes_ok
    _report(10, "CLI contract", ok,
            f"verify-bounds exit {code}; fit exponent delta "
            f"{abs(payload['exponent'] - in_process.exponent):.1e} <= 1e-12; "
            f"deterministic bytes: {bytes_ok}")
