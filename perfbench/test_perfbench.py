"""Tests of the benchmark itself: tracer counts, oracles and failure accounting.

Run with ``python -m pytest perfbench`` from the repository root.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import pathgap._kernels  # noqa: E402
from pathgap import cli, free_spectrum  # noqa: E402

mpf = oracle.mpf


def _direct_level(k, entries, index):
    """Plain O(n) Sturm bisection in the oracle's 50-digit arithmetic."""
    n = 2 * k + 1
    diag = [mpf(2)] * n
    diag[0] = diag[-1] = mpf(1)
    for site, strength in entries:
        diag[site + k] += mpf(strength)

    def count(lam):
        c, q = 0, diag[0] - lam
        c += q < 0
        for i in range(1, n):
            q = (diag[i] - lam) - 1 / q
            c += q < 0
        return c

    lo, hi = mpf(0), 4 + max(a for _, a in entries)
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if count(mid) >= index + 1 else (mid, hi)
    return (lo + hi) / 2


def test_tracer_counts_on_a_hand_checked_case(tmp_path):
    # k = 1 with 5 at the origin: H = [[1,-1,0],[-1,7,-1],[0,-1,1]], whose two
    # lowest eigenvalues are 4 - sqrt(11) (even) and 1 (odd).  Bisection from
    # [0, 9] to a width of 1e-14 * lambda takes ceil(log2(9 / (1e-14 * lambda)))
    # sweeps: 51 and 50.
    t = tracer.Tracer()
    with t.installed():
        code = t.main(["spectrum", "--k", "1", "--potential", "0:5", "--format", "json",
                       "--out", str(tmp_path / "s.json")])
    assert code == 0
    m = tracer.layer_metrics(t.spans, 0)
    sweeps = [math.ceil(math.log2(9 / (1e-14 * lam))) for lam in (4 - math.sqrt(11), 1.0)]
    assert sweeps == [51, 50]
    assert m["kernels.bisect_calls"] == 2
    assert m["kernels.sturm_sweeps"] == sum(sweeps)
    assert m["kernels.site_updates"] == 3 * sum(sweeps)
    assert m["eigensolver.spectrum_low_calls"] == 1
    assert m["operators.assemble_calls"] == 1
    assert m["bounds.assemble_calls"] == 0
    assert m["bounds.evaluate_calls"] == 0
    assert m["kernels.factor_calls"] == 1 + m["eigensolver.nudges"]
    assert m["eigensolver.inverse_sweeps_per_point"] == m["kernels.solve_calls"] >= 1
    # the recursive to_json is one span, and every span belongs to point 1
    assert [s.name for s in t.spans].count("cli.to_json") == 1
    assert {s.point for s in t.spans if s.name != "cli.main"} == {1}
    # the originals are back once the tracer is uninstalled
    assert cli.to_json.__module__ == "pathgap.cli"
    assert pathgap._kernels.bisect_bracket.__name__ == "bisect_bracket"


def test_derived_sweeps_equal_the_halvings_of_a_known_bracket():
    # 1x1 matrix [2]: from [0, 8], rel_tol 1.5 * 2^-10 stops after 12 halvings
    # (8 * 2^-12 <= 1.5 * 2^-10 * 2 < 8 * 2^-11).
    import numpy as np

    t = tracer.Tracer()
    with t.installed():
        lo, hi = pathgap._kernels.bisect_bracket(
            np.array([2.0]), np.array([]), 0, 0.0, 8.0, 1.5 * 2**-10, 1e-300, 1e-15
        )
    assert hi - lo == 8 * 2**-12
    assert tracer.layer_metrics(t.spans, 0)["kernels.sturm_sweeps"] == 12


def test_oracle_matches_free_spectrum():
    for k in (1, 7, 100):
        want = free_spectrum(k)
        lam0, lam1 = oracle.levels(k, ())
        assert lam0 == 0
        assert float(lam1) == pytest.approx(want[1], rel=1e-15)
        assert float(oracle.sturm_level(k, (), 1)) == pytest.approx(want[1], rel=1e-15)


@pytest.mark.parametrize(
    "k, spec",
    [(5, "0:1"), (40, "0:1e6"), (7, "-2:5,3:7"), (6, "-1:2,0:3,1:2"), (4, "0:1e12")],
)
def test_oracles_agree(k, spec):
    entries = workloads.parse_entries(spec)
    compressed = [oracle.sturm_level(k, entries, i) for i in (0, 1)]
    direct = [_direct_level(k, entries, i) for i in (0, 1)]
    closed = oracle.levels(k, entries)
    for a, b, c in zip(compressed, direct, closed):
        assert abs(a - b) <= mpf(10) ** -40
        assert abs(a - c) <= mpf(10) ** -40


def _run_in(workdir, commands):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return [cli.main(list(c.argv)) for c in commands]
    finally:
        os.chdir(cwd)


def _spectrum(k, spec, out):
    argv = ("spectrum", "--k", str(k), f"--potential={spec}", "--format", "json", "--out", out)
    return workloads.Command(argv, "spectrum", out, spec, (k,))


def test_planted_wrong_gap_and_exit_3_count_as_failed(tmp_path):
    commands = [_spectrum(20, "0:3", "a.json"), _spectrum(20, "-2:5,3:7", "b.json"),
                _spectrum(5, "0:2", "c.json")]
    codes = _run_in(tmp_path, commands)
    assert codes == [0, 0, 0]
    clean = checks.Checker(str(tmp_path)).check(commands, codes)
    assert (clean.attempted, clean.failed, clean.correct) == (3, 0, True)

    # a gap 5% off
    path = tmp_path / "b.json"
    payload = json.loads(path.read_text())
    payload["gap"] *= 1.05
    path.write_text(json.dumps(payload))
    # and a numerical failure
    codes[2] = checks.NUMERICAL_FAILURE
    out = checks.Checker(str(tmp_path)).check(commands, codes)
    assert (out.attempted, out.failed, out.wrong) == (3, 2, 1)
    assert not out.correct
    assert out.gap_rel_err_max == pytest.approx(0.05, rel=1e-6)

    # exit 3 alone is a failure but not a wrong answer
    path.write_text(json.dumps({**payload, "gap": payload["gap"] / 1.05}))
    alone = checks.Checker(str(tmp_path)).check(commands, codes)
    assert (alone.failed, alone.correct) == (1, True)


def test_default_seed_reproduces_the_listed_grids_and_seeds_jitter():
    paper = workloads.build("paper-grid", 0)
    assert paper[0].argv[3] == "100:1600:geometric:16"
    assert len(paper[0].ks) == 16
    small = workloads.build("small-k", 0)
    ladder = [c for c in small if c.kind == "spectrum"]
    assert len(ladder) == 48
    assert {c.ks[0] for c in ladder} == {5, 20, 80}
    assert workloads.build("deep-origin", 0)[0].ks == (3200, 6400, 12800, 25600)
    assert workloads.build("small-k", 3) == workloads.build("small-k", 3)
    assert workloads.build("paper-grid", 3) != paper


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    t = tracer.Tracer()
    per_layer = [*tracer.layer_metrics(t.spans, 0), "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
