"""Rewrite the recorded ``spectrum_low`` outputs.

Usage: PYTHONPATH=src python tests/regenerate_spectrum_low.py
Overwrites tests/data/spectrum_low_values.json.  Only do this after an
intended change of the solver, and say which values moved;
``test_eigensolver.TestSpectrumLowHint.test_spectrum_low_is_bit_identical_to_the_recorded_values``
compares ``spectrum_low`` with this file bit for bit.  Every ground state
is compared with the mpmath ground state (``conftest.mp_ground_state``):
for each one that moved it prints the normwise error and its ratio to the
glued construction's error bound, and at the end the worst ratio over all
cases.  The mpmath references take a few minutes.
"""
import hashlib
import json
import random
from pathlib import Path

import numpy as np

from pathgap import ConvergenceError, assemble_hamiltonian, build_potential, spectrum_low
from pathgap.eigensolver import _glued_ground_state, _roots

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


def record(k: int, entries: list[list], recorded: dict | None, ratios: list[float]) -> dict:
    """lambda0 and the gap as float.hex, the flag and the SHA-256 of the ground state's
    float64 bytes, or the name of the error raised.  Appends the ratio of
    the ground state's error against mpmath to its bound to ``ratios``, and
    prints both where the ground state differs from ``recorded``."""
    pairs = [tuple(pair) for pair in entries]
    op = assemble_hamiltonian(k, build_potential(pairs))
    try:
        res = spectrum_low(op)
    except ConvergenceError as err:
        print(f"k = {k} {entries}: {type(err).__name__}")
        return {"k": k, "entries": entries, "error": type(err).__name__}
    sha = hashlib.sha256(res.ground_state.tobytes()).hexdigest()
    if pairs:
        bound = _glued_ground_state(op.n, op.potential, *_roots(op.n, op.potential)[0])[1]
        err = float(np.linalg.norm(res.ground_state - mp_ground_state(k, pairs)))
        ratios.append(err / bound)
        if recorded is None or recorded.get("ground_state_sha256") != sha:
            print(f"k = {k} {entries}: error {err:.2g}, bound {bound:.2g}, "
                  f"ratio {err / bound:.2g}")
    return {
        "k": k,
        "entries": entries,
        "lambda0": res.lambda0.hex(),
        "gap": res.gap.hex(),
        "precision_limited": res.precision_limited,
        "ground_state_sha256": sha,
    }


def main() -> None:
    comment = (
        f"spectrum_low on the empty potential at {len(FREE_KS)} values of k and on "
        f"{RANDOM_CASES} random operators (k = 1..400, 1-3 sites, strengths "
        f"10^U(-12, 12), seed {SEED}): lambda0 and the gap as float.hex, the ground state as the "
        "SHA-256 of its float64 bytes, or the error raised. "
        "tests/test_eigensolver.py asserts that these stay bit for bit; "
        "regenerate with PYTHONPATH=src python tests/regenerate_spectrum_low.py."
    )
    out = Path(__file__).parent / "data" / "spectrum_low_values.json"
    recorded = {}
    if out.exists():
        recorded = {(case["k"], json.dumps(case["entries"])): case
                    for case in json.loads(out.read_text())["cases"]}
    ratios: list[float] = []
    rows = ",\n".join(
        "  " + json.dumps(record(k, entries, recorded.get((k, json.dumps(entries))), ratios))
        for k, entries in cases())
    out.write_text(f'{{\n "comment": {json.dumps(comment)},\n "cases": [\n{rows}\n ]\n}}\n')
    print(f"worst error/bound ratio over {len(ratios)} ground states: {max(ratios):.2g}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
