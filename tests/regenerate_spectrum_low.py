"""Rewrite the recorded ``spectrum_low`` outputs.

Usage: PYTHONPATH=src python tests/regenerate_spectrum_low.py
Overwrites tests/data/spectrum_low_values.json.  Only do this after an
intended change of the solver, and say which values moved;
``test_eigensolver.TestSpectrumLowHint.test_spectrum_low_is_bit_identical_to_the_recorded_values``
compares ``spectrum_low`` with this file bit for bit.  For each case whose
ground state moved, it prints the largest per-entry error against the
60-digit mpmath ground state of the new vector and of inverse iteration
from the flat vector (``ground_state`` with no start), and whether the
latter is the vector recorded before.
"""
import hashlib
import json
import random
from pathlib import Path

import numpy as np

from pathgap import (
    ConvergenceError,
    PositivityError,
    assemble_hamiltonian,
    build_potential,
    ground_state,
    spectrum_low,
)

from conftest import mp_ground_state

FREE_KS = (1, 2, 3, 10, 50, 101, 400, 1600)
SEED = 17
RANDOM_CASES = 400


def cases() -> list[tuple[int, list[list]]]:
    """The empty potential at ``FREE_KS``, then ``RANDOM_CASES`` operators
    with k uniform in 1..400, 1-3 distinct sites inside the path and
    strengths 10^U(-12, 12), drawn from ``random.Random(SEED)``."""
    out = [(k, []) for k in FREE_KS]
    rng = random.Random(SEED)
    for _ in range(RANDOM_CASES):
        k = rng.randint(1, 400)
        m = rng.randint(1, 3)
        sites = sorted(rng.sample(range(-(k - 1), k), min(m, 2 * k - 1)))
        out.append((k, [[site, 10 ** rng.uniform(-12, 12)] for site in sites]))
    return out


def _sha256(psi: np.ndarray) -> str:
    return hashlib.sha256(psi.tobytes()).hexdigest()


def record(k: int, entries: list[list], recorded: dict | None = None) -> dict:
    """Levels as float.hex, the flag and the SHA-256 of the ground state's
    float64 bytes, or the name of the error raised.  Prints the errors
    against mpmath where the ground state differs from ``recorded``."""
    pairs = [tuple(pair) for pair in entries]
    op = assemble_hamiltonian(k, build_potential(pairs, empty_baseline=not pairs))
    try:
        res = spectrum_low(op)
    except (ConvergenceError, PositivityError) as err:
        return {"k": k, "entries": entries, "error": type(err).__name__}
    sha = _sha256(res.ground_state)
    if recorded is not None and recorded.get("ground_state_sha256") != sha:
        want = mp_ground_state(k, pairs)
        try:
            flat = ground_state(op, res.lambda0)
            flat_err = f"{np.max(np.abs(flat - want)):.2g}"
            if _sha256(flat) == recorded.get("ground_state_sha256"):
                flat_err += " (recorded)"
        except (ConvergenceError, PositivityError) as err:
            flat_err = type(err).__name__
        print(f"k = {k} {entries}: {np.max(np.abs(res.ground_state - want)):.2g}, "
              f"flat start {flat_err}")
    return {
        "k": k,
        "entries": entries,
        "lambda0": res.lambda0.hex(),
        "lambda1": res.lambda1.hex(),
        "precision_limited": res.precision_limited,
        "ground_state_sha256": sha,
    }


def main() -> None:
    comment = (
        f"spectrum_low on the empty potential at {len(FREE_KS)} values of k and on "
        f"{RANDOM_CASES} random operators (k = 1..400, 1-3 sites, strengths "
        f"10^U(-12, 12), seed {SEED}): levels as float.hex, the ground state as the "
        "SHA-256 of its float64 bytes, or the error raised. "
        "tests/test_eigensolver.py asserts that these stay bit for bit; "
        "regenerate with PYTHONPATH=src python tests/regenerate_spectrum_low.py."
    )
    out = Path(__file__).parent / "data" / "spectrum_low_values.json"
    recorded = {}
    if out.exists():
        recorded = {(case["k"], json.dumps(case["entries"])): case
                    for case in json.loads(out.read_text())["cases"]}
    rows = ",\n".join("  " + json.dumps(record(k, entries, recorded.get((k, json.dumps(entries)))))
                       for k, entries in cases())
    out.write_text(f'{{\n "comment": {json.dumps(comment)},\n "cases": [\n{rows}\n ]\n}}\n')
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
