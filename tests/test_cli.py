import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathgap
from pathgap import (
    SpectralResult,
    dirichlet_ground_energy,
    fit_power_law,
    gap_series,
    geometric_grid,
)
from pathgap.cli import (
    CSV_HEADER,
    _COMMANDS,
    _OPTIONS,
    main,
    parse_k_grid,
    parse_potential_spec,
    series_from_csv,
    series_to_csv,
    spec_string,
    to_json,
)
from pathgap.operators import build_potential

from conftest import FALLBACK_CASES, checks, mp_origin_gap, oracle, workloads

EPS = sys.float_info.epsilon

GOLDEN = Path(__file__).parent / "data" / "golden"
# Each file in tests/data/golden is the output of ``pathgap <args>
# --no-timestamp --out tests/data/golden/<file>``, in this order (fit reads
# the gap-scan file).  ``PYTHONPATH=src python tests/regenerate_golden.py``
# rewrites them.
FAR_GRID = f"{10**6}:{10**100}:geometric:16"
GOLDEN_COMMANDS = {
    "spectrum.json": ["spectrum", "--k", "20", "--potential", "0:1", "--format", "json"],
    "gap-scan.csv": ["gap-scan", "--potential", "0:1", "--k-grid", "20:80:geometric:4"],
    "fit.json": ["fit", str(GOLDEN / "gap-scan.csv")],
    "alpha-scan.csv": ["alpha-scan", "--potential", "0:1", "--k", "30",
                       "--alphas", "0.5,1,4"],
    "verify-bounds.json": ["verify-bounds", "--potential=-2:5,3:7",
                           "--k-grid", "50:100:linear:2"],
    "verify-bounds-origin.json": ["verify-bounds", "--potential=0:1",
                                  "--k-grid", "100:1600:geometric:4"],
    "spectrum-weak.json": ["spectrum", "--k", "80", "--potential", "0:1e-6",
                           "--format", "json"],
    "spectrum-free.json": ["spectrum", "--k", "50", "--potential", "none",
                           "--format", "json"],
    "spectrum-k1.txt": ["spectrum", "--k", "1", "--potential", "0:5"],
    # the far end: k = 10^6..10^100 and alpha up to 1e300
    "gap-scan-far.csv": ["gap-scan", "--potential", "0:1", "--k-grid", FAR_GRID],
    "fit-far.json": ["fit", str(GOLDEN / "gap-scan-far.csv")],
    "gap-scan-far-two-sites.csv": ["gap-scan", "--potential=-2:5,3:7", "--k-grid", FAR_GRID],
    "fit-far-two-sites.json": ["fit", str(GOLDEN / "gap-scan-far-two-sites.csv")],
    "alpha-scan-far.csv": ["alpha-scan", "--potential", "0:1", "--k", str(10**50),
                           "--alphas", "1e-12,1e-6,1,1e6,1e12,1e100,1e200,1e300"],
}


class TestParsePotentialSpec:
    def test_single(self):
        p = parse_potential_spec("0:1.5")
        assert p.entries == ((0, 1.5),)

    def test_multi_with_whitespace(self):
        p = parse_potential_spec("-1:2, 0:3, 1:2")
        assert p.entries == ((-1, 2.0), (0, 3.0), (1, 2.0))
        assert p.strength_sum == 7.0

    def test_none_is_the_free_baseline(self):
        assert parse_potential_spec("none") == build_potential([])
        assert parse_potential_spec(" NONE ").is_empty

    def test_nonpositive_strength_names_token(self):
        # build_potential names token i of the spec as pair i
        with pytest.raises(ValueError, match="pair 1: non-positive strength"):
            parse_potential_spec("0:0")
        with pytest.raises(ValueError, match="pair 2: non-positive strength"):
            parse_potential_spec("0:1,-1:-3")
        with pytest.raises(ValueError, match="pair 2: non-finite strength"):
            parse_potential_spec("0:1,-1:inf")

    def test_malformed_token(self):
        with pytest.raises(ValueError, match="malformed token 1"):
            parse_potential_spec("05")
        with pytest.raises(ValueError, match="bad site at token 1"):
            parse_potential_spec("x:1")
        with pytest.raises(ValueError, match="bad strength at token 2"):
            parse_potential_spec("0:1,1:y")

    def test_duplicate_site(self):
        with pytest.raises(ValueError, match="pair 2: duplicate site 0"):
            parse_potential_spec("0:1,0:2")

    def test_empty_string(self):
        with pytest.raises(ValueError, match="empty potential spec"):
            parse_potential_spec("  ")

    def test_round_trip_with_spec_string(self):
        p = build_potential([(-2, 0.5), (4, 12.0)])
        assert parse_potential_spec(spec_string(p)).entries == p.entries

    @pytest.mark.parametrize("strengths", [
        (1.23456789, 1 / 3), (123456789.0, 1e-300),
    ])
    def test_round_trip_lossless_strengths(self, strengths):
        p = build_potential([(-2, strengths[0]), (4, strengths[1])])
        assert parse_potential_spec(spec_string(p)).entries == p.entries


class TestParseKGrid:
    def test_geometric(self):
        assert parse_k_grid("100:1600:geometric:16") == geometric_grid(100, 1600, 16)

    def test_linear(self):
        assert parse_k_grid("10:50:linear:5") == [10, 20, 30, 40, 50]

    def test_the_benchmark_reads_the_same_grids(self):
        # perfbench recomputes each grid's k values to check the output
        grids = 0
        for seed in range(40):
            for name in workloads.NAMES:
                for cmd in workloads.build(name, seed):
                    if "--k-grid" in cmd.argv:
                        spec = cmd.argv[cmd.argv.index("--k-grid") + 1]
                        assert parse_k_grid(spec) == list(cmd.ks), spec
                        grids += 1
        assert grids == 440

    def test_ends_are_the_requested_integers_at_any_k(self, tmp_path):
        for k in (100000000000000001, 10**20):
            out = tmp_path / "scan.csv"
            args = ["gap-scan", "--potential=0:1", "--k-grid", f"{k}:{k}:linear:1",
                    "--no-timestamp", "--out", str(out)]
            assert main(args) == 0
            assert out.read_text().splitlines()[1].startswith(f"{k},{2 * k + 1},")

    def test_bad_forms(self):
        for bad in ("10:50:linear", "a:50:linear:5", "10:50:cubic:5"):
            with pytest.raises(ValueError):
                parse_k_grid(bad)


class TestJsonEmitter:
    def test_seventeen_digits_and_null(self):
        text = to_json({"x": 0.1, "nan": math.nan, "flag": True, "items": [1, 2.5]})
        parsed = json.loads(text)
        assert parsed["x"] == 0.1
        assert parsed["nan"] is None
        assert parsed["flag"] is True
        assert parsed["items"] == [1, 2.5]

    def test_lossless_floats(self):
        values = [math.pi, 1e-300, 0.31662479035539984, 7.0]
        parsed = json.loads(to_json(values))
        assert parsed == values


class TestCommands:
    def test_spectrum_prints_gap(self, capsys):
        assert main(["spectrum", "--k", "1", "--potential", "0:5"]) == 0
        out = capsys.readouterr().out
        assert "lambda0" in out and "gap" in out
        gap = float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("gap =")))
        assert gap == pytest.approx(math.sqrt(11) - 3.0, abs=1e-12)

    def test_spectrum_json(self, capsys):
        assert main(["spectrum", "--k", "2", "--potential", "0:1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 5
        assert payload["lambda1"] == pytest.approx(2 - 2 * math.cos(math.pi / 5), abs=1e-12)

    def test_spectrum_text_is_the_default_and_csv_is_no_format(self, capsys):
        args = ["spectrum", "--k", "1", "--potential", "0:5"]
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main(args + ["--format", "text"]) == 0
        assert capsys.readouterr().out == default
        with pytest.raises(SystemExit) as exc:
            main(args + ["--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_spectrum_names_the_potential_exactly(self, capsys):
        assert main(["spectrum", "--k", "5", "--potential", "0:1.23456789",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["potential"] == "0:1.23456789"

    @pytest.mark.parametrize("argv,message", [
        # the parser requires each of these options
        (["spectrum", "--potential", "0:5"], "--k"),
        (["gap-scan", "--potential=0:1"], "--k-grid"),
        (["verify-bounds", "--potential=0:1"], "--k-grid"),
        (["alpha-scan", "--potential=0:1", "--alphas", "1,2"], "--k"),
        (["alpha-scan", "--potential=0:1", "--k", "10"], "--alphas"),
        # Potential.scaled rejects the empty potential, before any solve
        (["alpha-scan", "--potential", "none", "--k", "10", "--alphas", "1,2"],
         "cannot scale the empty baseline potential"),
        # checked before the first O(n) solve of the grid
        (["verify-bounds", "--potential", "none", "--k-grid", "5:6:linear:2"],
         "verify-bounds needs a non-empty potential"),
        # an empty --alphas is one empty token
        (["alpha-scan", "--potential=0:1", "--k", "10", "--alphas", ""],
         "bad alpha at token 1 ('')"),
    ])
    def test_missing_input_exits_two_naming_it(self, argv, message, capsys):
        if message.startswith("--"):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"the following arguments are required: {message}\n" in (
                capsys.readouterr().err)
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err == f"pathgap: {message}\n"

    def test_help_shows_the_required_options_without_brackets(self, capsys):
        for name, options in (("spectrum", ["--k K"]), ("gap-scan", ["--k-grid"]),
                              ("alpha-scan", ["--k K", "--alphas A,B,C"]),
                              ("verify-bounds", ["--k-grid"])):
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
            for option in options:
                assert f" {option}" in usage and f"[{option}" not in usage, (name, usage)

    def test_gap_scan_csv(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(
            ["gap-scan", "--potential", "none", "--k-grid", "10:40:linear:4",
             "--no-timestamp", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,n,alpha_sum,lambda0,lambda1,gap,gap_n2,gap_n3,precision_limited"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "10" and first[1] == "21"

    def test_gap_scan_timestamp_header(self, capsys):
        assert main(["gap-scan", "--potential", "0:1", "--k-grid", "5:10:linear:2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# generated ")

    def test_alpha_scan(self, capsys):
        code = main(
            ["alpha-scan", "--potential", "0:1", "--k", "30", "--alphas", "1,4",
             "--no-timestamp"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,k,n,gap,alpha_n3_gap,precision_limited"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "4"]
        # alpha * n^3 * gap stays within a narrow band across strengths
        v = [float(r[4]) for r in rows]
        assert max(v) / min(v) < 2.0

    def test_alpha_scan_writes_a_subnormal_gap_flagged_and_its_product_finite(self, capsys):
        # the gap, about 1e-314, is subnormal, so it is flagged; the product
        # is formed as alpha (n^3 gap), which does not overflow as
        # (alpha n^3) gap did (inf * a gap of 0 was nan), and it is
        # within 1.4e-10 of the closed form's 8 pi^2 limit
        assert main(["alpha-scan", "--potential=0:1", "--k", "100000", "--alphas", "1e300",
                     "--no-timestamp"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:3] == ["1.0000000000000001e+300", "100000", "200001"]
        assert 0.0 < float(row[3]) < sys.float_info.min and row[5] == "true"
        want = mp_origin_gap(100000, 1e300) * 200001**3 * 1e300
        assert abs(float(row[4]) / want - 1) <= 2e-10
        assert abs(float(row[4]) / (8 * math.pi**2) - 1) <= 2e-10

    def test_alpha_scan_products_hold_their_digits_to_alpha_1e300(self, capsys):
        # alpha n^3 gap -> 8 pi^2 (1 - 6 sigma/n) with sigma = 1/alpha: each
        # unflagged product within 4 eps of mpmath, 78.95683520 to 10 digits
        # from alpha = 1e8 to 1e200 (the rounded difference of two levels wrote
        # 78.9556 at 1e8 and 0 from 1e12)
        alphas = [10.0**e for e in range(-12, 301, 4)]
        assert main(["alpha-scan", "--potential=0:1", "--k", "100000", "--alphas",
                     ",".join(map(repr, alphas)), "--no-timestamp"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert [float(row[0]) for row in rows] == alphas
        for a, row in zip(alphas, rows):
            if row[5] == "false":
                want = mp_origin_gap(100000, a) * 200001**3 * a
                assert abs(float(row[4]) / want - 1) <= 4 * EPS, a
            if 1e8 <= a <= 1e200:
                assert f"{float(row[4]):.10g}" == "78.9568352", a
        # flagged exactly where the gap is subnormal: from alpha = 1e296 on
        assert [row[0] for row in rows if row[5] == "true"] == [
            row[0] for row in rows if float(row[3]) < sys.float_info.min] == [
            "9.9999999999999998e+295", "1.0000000000000001e+300"]

    def test_gap_scan_with_an_infinite_alpha_sum_reads_back(self, tmp_path):
        # each strength is finite, their sum is not
        spec, grid = "0:1.7e308,1:1.7e308", "5:50:geometric:3"
        out = tmp_path / "scan.csv"
        assert main(["gap-scan", f"--potential={spec}", "--k-grid", grid, "--no-timestamp",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == ["inf"] * 3
        assert series_from_csv(out.read_text()) == gap_series(parse_potential_spec(spec),
                                                              parse_k_grid(grid))

    def test_alpha_scan_names_a_bad_alpha(self, capsys):
        for alphas, token in (("1,,2", "2 ('')"), ("x", "1 ('x')"), ("1,2,3e", "3 ('3e')")):
            assert main(["alpha-scan", "--potential", "0:1", "--k", "10",
                         "--alphas", alphas]) == 2
            assert f"bad alpha at token {token}" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas,message", [
        ("1,1e308", "factor 1e+308: pair 1: non-finite strength inf at site 0"),
        ("0", "factor 0.0: pair 1: non-positive strength 0.0 at site 0"),
        # 1e-330 parses to 0.0, so the message names the factor that was used
        ("1,1e-330", "factor 0.0: pair 1: non-positive strength 0.0 at site 0"),
    ], ids=["overflow", "zero", "underflow"])
    def test_alpha_scan_names_a_rejected_factor(self, alphas, message, capsys):
        assert main(["alpha-scan", "--potential", "0:10", "--k", "5", "--alphas", alphas]) == 2
        assert capsys.readouterr().err == f"pathgap: {message}\n"

    def test_verify_bounds_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["verify-bounds", "--potential", "0:1", "--k-grid", "100:300:geometric:3",
             "--no-timestamp", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["all_hold"] is True
        assert len(payload["points"]) == 3
        for point in payload["points"]:
            for check in point["checks"]:
                assert check["holds"] or "skipped_reason" in check

    @pytest.mark.parametrize("argv", [
        ["verify-bounds", "--potential=0:1", "--k-grid", "5:5:linear:1"],
        ["fit", str(GOLDEN / "gap-scan.csv")],
    ])
    def test_json_report_starts_with_its_generated_time(self, argv, capsys):
        assert main(argv) == 0
        first = next(iter(json.loads(capsys.readouterr().out).items()))
        assert first[0] == "generated"
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", first[1])

    def test_verify_bounds_writes_null_for_a_degenerate_trial_state(self, capsys):
        assert main(["verify-bounds", "--potential", "0:0.0001", "--k-grid", "2:2:linear:1",
                     "--no-timestamp"]) == 0
        (point,) = json.loads(capsys.readouterr().out)["points"]
        assert point["mixing_weight"] is None
        upper = next(c for c in point["checks"] if c["name"] == "ground_energy_upper_bound")
        assert upper["rhs"] is None and "degenerate mixing branch" in upper["skipped_reason"]

    @pytest.mark.parametrize("spec, at_origin", [("0:1", True), ("1:1", False),
                                                 ("-2:5,3:7", False)])
    def test_verify_bounds_point_writes_each_number_once(self, spec, at_origin, capsys):
        # the bounds are the checks' lhs and rhs, and the potential and
        # epsilon are the report's: no point field restates them
        assert main(["verify-bounds", f"--potential={spec}", "--k-grid", "20:21:linear:2",
                     "--no-timestamp"]) == 0
        keys = ["k", "n", "lambda0", "lambda1", "gap", "precision_limited",
                "side_energy_left", "side_energy_right", "side_correction_left",
                "side_correction_right", "mixing_weight", "all_hold", "checks"]
        for point in json.loads(capsys.readouterr().out)["points"]:
            assert list(point) == keys + ["ground_at_origin"] * at_origin

    def test_verify_bounds_flags_a_gap_as_spectrum_does(self, capsys):
        # the gap, about 1e-12, is below what the brackets resolve at lambda0
        spec = "--potential=-1:274993492971.9633,1:9.362020523665404e+192"
        assert main(["spectrum", "--k", "3", spec, "--format", "json"]) == 0
        spectrum = json.loads(capsys.readouterr().out)
        assert spectrum["precision_limited"] is True
        assert main(["verify-bounds", spec, "--k-grid", "3:3:linear:1", "--no-timestamp"]) == 0
        (point,) = json.loads(capsys.readouterr().out)["points"]
        assert (point["gap"], point["precision_limited"]) == (spectrum["gap"], True)

    def test_verify_bounds_single_k(self, capsys):
        assert main(["verify-bounds", "--potential", "0:2", "--k-grid", "50:50:linear:1",
                     "--no-timestamp"]) == 0

    def test_verify_bounds_failing_check_exits_one(self, monkeypatch, capsys):
        import pathgap.cli as cli_mod
        from pathgap.bounds import BoundCheck

        real = cli_mod.evaluate_bounds

        def sabotaged(op, result):
            rep = real(op, result)
            bad = BoundCheck("forced_failure", 1.0, 0.0, False)
            object.__setattr__(rep, "checks", list(rep.checks) + [bad])
            return rep

        monkeypatch.setattr(cli_mod, "evaluate_bounds", sabotaged)
        code = main(["verify-bounds", "--potential", "0:1", "--k-grid", "20:20:linear:1",
                     "--no-timestamp"])
        assert code == 1

    def test_nonconvergence_exits_three(self, capsys):
        # a mirror-symmetric double barrier: the digits of u0 cannot weigh
        # the two wells, so no glue site is admissible and the error bound
        # vouches for no ground state; the CLI reports a numerical failure
        code = main(["spectrum", "--k", "20", "--potential=-1:1e8,1:1e8"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_bad_potential_exits_two(self, capsys):
        assert main(["spectrum", "--k", "5", "--potential", "0:-1"]) == 2
        assert "pathgap:" in capsys.readouterr().err

    def test_gap_scan_passes_tol_to_the_solver(self, capsys):
        # spectrum bisects, gap-scan takes the Wronskian roots: their lambda0
        # agree to the benchmark's per-eigenvalue tolerance
        assert main(["spectrum", "--k", "20", "--potential", "0:1"]) == 0
        spectrum = capsys.readouterr().out
        lambda0 = next(line.split(" = ")[1] for line in spectrum.splitlines()
                       if line.startswith("lambda0 ="))
        assert main(["gap-scan", "--potential", "0:1", "--k-grid", "20:20:linear:1",
                     "--no-timestamp"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == "20"
        assert abs(float(row[3]) - float(lambda0)) <= checks.LAMBDA_ULPS * math.ulp(5.0)

    def test_subnormal_lambda0_is_bisected_to_its_last_bit(self, capsys):
        # the level is about 7e-325, which rounds to 0: the bisection must
        # stop no wider than the smallest subnormal (not at 1e-14 * 1e-300)
        assert main(["spectrum", "--k", "3", "--potential", "0:5e-324",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["lambda0"] == 0.0
        assert main(["gap-scan", "--potential", "0:5e-324", "--k-grid", "3:3:linear:1",
                     "--no-timestamp"]) == 0
        assert float(capsys.readouterr().out.splitlines()[1].split(",")[3]) == 0.0

    @pytest.mark.xfail(strict=True, reason=(
        "F8: at adjacent strong barriers the glued ground state is accurate only "
        "normwise, so potential_term_vs_side_corrections reads 8.87 against 0.092"))
    def test_verify_bounds_holds_at_adjacent_strong_barriers(self, capsys):
        assert main(["verify-bounds", "--potential=0:1e35,1:1e35",
                     "--k-grid", "3:3:linear:1", "--no-timestamp"]) == 0
        assert json.loads(capsys.readouterr().out)["all_hold"] is True

    def test_verify_bounds_k_zero_exits_two(self, capsys):
        assert main(["verify-bounds", "--potential", "0:1", "--k-grid", "0:0:linear:1"]) == 2
        assert "half-width k must be a positive integer, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [10**103, 10**400])
    @pytest.mark.parametrize("command", ["spectrum", "gap-scan", "alpha-scan",
                                         "verify-bounds", "fit"])
    def test_a_k_whose_cube_overflows_exits_two(self, command, k, tmp_path, capsys):
        # n**3 * gap is no double from k = 10^103 up, and k is none from 10^309
        if command == "fit":
            scan = tmp_path / "scan.csv"
            scan.write_text(f"{CSV_HEADER}\n{k},{2 * k + 1},1,0.25,0.75,0.5,1,1,false\n")
            argv = ["fit", str(scan)]
        else:
            grid = f"{k}:{k}:linear:1"
            argv = {"spectrum": ["spectrum", "--k", str(k)],
                    "gap-scan": ["gap-scan", "--k-grid", grid],
                    "alpha-scan": ["alpha-scan", "--k", str(k), "--alphas", "1"],
                    "verify-bounds": ["verify-bounds", "--k-grid", grid]}[command]
            argv += ["--potential=0:1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("pathgap: ") and err.count("\n") == 1
        assert err.endswith(f"half-width k = {k} is too large: (2k+1)^3 overflows a double\n")

    def test_gap_scan_at_k_1e102_exits_zero(self, capsys):
        k = 10**102
        assert main(["gap-scan", "--potential=0:1", "--k-grid", f"{k}:{k}:linear:1",
                     "--no-timestamp"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == str(k) and math.isfinite(float(row[7]))

    @pytest.mark.parametrize("k", [10**50, 10**100])
    def test_gap_scan_at_the_far_end_writes_the_strong_law(self, k, capsys):
        # n^3 gap -> 8 pi^2 (1 - 6 sigma/n), sigma = 1: 8 pi^2 to the last
        # digits, unflagged (the rounded difference of two levels was 0)
        assert main(["gap-scan", "--potential", "0:1", "--k-grid", f"{k}:{k}:linear:1",
                     "--no-timestamp"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[8] == "false"
        assert abs(float(row[7]) - 8 * math.pi**2) <= 1e-13
        assert abs(float(row[5]) / mp_origin_gap(k, 1.0) - 1) <= 4 * EPS

    @pytest.mark.parametrize("kind", ["geometric", "linear"])
    def test_a_count_far_above_the_distinct_values_is_quick(self, kind, capsys):
        # 10^12 interior points, 10 distinct values: the work goes with the
        # values, not the count
        start = time.perf_counter()
        assert main(["gap-scan", "--potential", "0:1", "--k-grid",
                     f"1:10:{kind}:1000000000000", "--no-timestamp"]) == 0
        assert time.perf_counter() - start < 1.0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(1, 11))

    @pytest.mark.parametrize("argv", [["spectrum", "--k", "1000000000000000"],
                                      ["verify-bounds", "--k-grid",
                                       "1000000000000000:1000000000000000:linear:1"]])
    def test_a_path_beyond_memory_exits_two_naming_k(self, capsys, argv):
        # n = 2e15 + 1 doubles are 14.2 PiB, an allocation that fails at once
        # (a k near 1e9 could really allocate memory, so none is tried)
        assert main([*argv, "--potential", "0:1"]) == 2
        assert capsys.readouterr().err == "pathgap: out of memory at k = 1000000000000000\n"

    @pytest.mark.parametrize("k", [10**19, 10**20])
    @pytest.mark.parametrize("command", ["spectrum", "verify-bounds"])
    def test_a_path_past_the_largest_array_exits_two_naming_k(self, capsys, command, k):
        # n doubles past numpy's largest array: numpy's own words named
        # neither k nor the cause
        argv = ([command, "--k", str(k)] if command == "spectrum"
                else [command, "--k-grid", f"{k}:{k}:linear:1"])
        assert main([*argv, "--potential", "0:1"]) == 2
        assert capsys.readouterr().err == f"pathgap: out of memory at k = {k}\n"

    def test_spectrum_k_zero_reaches_assemble_hamiltonian(self, capsys):
        assert main(["spectrum", "--potential", "0:1", "--k", "0"]) == 2
        assert "half-width k must be a positive integer" in capsys.readouterr().err

    def test_strong_barrier_at_k_200_exits_zero(self, tmp_path):
        # a gap far below eps * ||H||, where no solve from the flat vector
        # settles: the ground state is the glued closed form, which is even,
        # cos(t (k - |j| + 1/2)) normalized
        k, out = 200, tmp_path / "spectrum.json"
        assert main(["spectrum", "--k", str(k), "--potential", "0:1e6", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        lam0 = oracle.levels(k, ((0, 1e6),))[0]
        t = 2 * math.asin(math.sqrt(float(lam0)) / 2)
        want = np.cos(t * (k - np.abs(np.arange(-k, k + 1)) + 0.5))
        want /= np.linalg.norm(want)
        for key, value in (("min", want.min()), ("max", want.max()), ("at_origin", want[k])):
            assert abs(payload[f"ground_state_{key}"] - value) <= 1e-15, key

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [3, 20])
    @pytest.mark.parametrize("spec", ["0:1e200,1:1e200", "0:1e300,2:1e300", "0:1e308,1:1e308"])
    def test_a_barrier_past_1e154_takes_its_dirichlet_limits(self, k, spec, tmp_path, capsys):
        # the residual's entries square past the double range, which once
        # made its norm inf and spectrum exit 3; two such barriers cut the
        # path into free sides with Dirichlet ends, the longer side holding
        # lambda0 and the shorter lambda1, to O(1/strength)
        out = tmp_path / "spectrum.json"
        assert main(["spectrum", "--k", str(k), f"--potential={spec}", "--format", "json",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text())
        sites = [int(pair.split(":")[0]) for pair in spec.split(",")]
        sides = sorted((k + min(sites), k - max(sites)), reverse=True)
        for key, m in zip(("lambda0", "lambda1"), sides):
            want = dirichlet_ground_energy(m)
            assert abs(payload[key] - want) <= 4 * math.ulp(want), key

    def test_gap_scan_needs_no_ground_state(self, capsys):
        # a gap far below eps * ||H||, where inverse iteration from the flat
        # vector once made spectrum exit 3: gap-scan reads only the
        # eigenvalues, and the Wronskian roots resolve the gap, so it is
        # reported unflagged and correct
        assert main(["gap-scan", "--potential", "0:1000000", "--k-grid",
                     "200:201:linear:2", "--no-timestamp"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["200", "201"]
        for row in rows:
            want = mp_origin_gap(int(row[0]), 1e6)
            assert row[-1] == "false"
            assert abs(float(row[5]) / want - 1) <= 4 * EPS

    def test_gap_scan_and_alpha_scan_at_k_1e9(self, capsys):
        # no length-n array is built: 2 x 16 GB at this k
        k = 10**9
        assert main(["gap-scan", "--potential=0:1", "--k-grid", f"{k}:{k}:linear:1",
                     "--no-timestamp"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        # the gap the solver computed, not lambda1 - lambda0, which held it
        # to about an ulp of lambda1 (5.9e-9 relative here)
        assert abs(float(row[5]) / mp_origin_gap(k, 1.0) - 1) <= 4 * EPS
        assert main(["alpha-scan", "--potential=0:1", "--k", str(k), "--alphas", "1,2",
                     "--no-timestamp"]) == 0

    def test_the_o_support_commands_load_no_numpy(self, tmp_path):
        # gap-scan, alpha-scan and fit build no array, so a fresh
        # interpreter that imports pathgap.cli and runs them loads no numpy
        script = """if True:
            import sys
            import pathgap.cli as cli
            csv, grid = sys.argv[1], "100:1600:geometric:16"
            codes = [cli.main(argv + ["--no-timestamp"]) for argv in (
                ["gap-scan", "--potential", "0:1", "--k-grid", grid, "--out", csv],
                ["gap-scan", "--potential", "none", "--k-grid", grid, "--out", csv + ".free"],
                ["alpha-scan", "--potential", "0:1", "--k", "800", "--alphas", "0.5,1,16",
                 "--out", csv + ".alpha"],
                ["fit", csv, "--out", csv + ".fit"],
            )]
            print(codes, sorted(name for name in sys.modules if name.startswith("numpy"))[:3])
        """
        src = Path(pathgap.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "scan.csv")],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[0, 0, 0, 0] []\n")

    def test_benchmark_grids_need_no_bisection(self, monkeypatch, capsys):
        # gap-scan and alpha-scan run on O(support) counts alone: an O(n)
        # kernel reached on the benchmark's grids, or where a window fails,
        # fails here, not only in the benchmark's timings
        import pathgap._kernels

        def no_kernel(*args):
            raise AssertionError("O(n) kernel reached")

        for name in ("sturm_count", "bisect_bracket", "factor_shifted", "solve_factored"):
            monkeypatch.setattr(pathgap._kernels, name, no_kernel)
        for spec, grid in (("none", "100:1600:geometric:16"),
                           ("0:1", "100:1600:geometric:16"),
                           ("0:1", "3200:25600:geometric:4"),
                           *((spec, f"{k}:{k}:linear:1") for k, spec in FALLBACK_CASES)):
            assert main(["gap-scan", f"--potential={spec}", "--k-grid", grid,
                         "--no-timestamp"]) == 0, (spec, grid)
        assert main(["alpha-scan", "--potential", "0:1", "--k", "800", "--alphas",
                     "0.5,1,2,4,8,16", "--no-timestamp"]) == 0
        # and spectrum still reaches them
        with pytest.raises(AssertionError, match="O\\(n\\) kernel reached"):
            main(["spectrum", "--k", "5", "--potential", "0:1"])


class TestOptionSets:
    @pytest.mark.parametrize("args", [
        ["fit", "scan.csv", "--k", "5"],
        ["fit", "scan.csv", "--tol", "1e-8"],
        ["alpha-scan", "--potential", "0:1", "--k", "5", "--alphas", "1",
         "--format", "json"],
        ["spectrum", "--k", "5", "--alphas", "1"],
        ["spectrum", "--k", "5", "--epsilon", "2"],
        ["gap-scan", "--k-grid", "5:6:linear:2", "--epsilon", "2"],
        ["gap-scan", "--k-grid", "5:6:linear:2", "--band-k-min", "5"],
        # an abbreviation of --k-grid
        ["gap-scan", "--k-grid", "5:6:linear:2", "--k", "20"],
        ["verify-bounds", "--potential", "0:1", "--k-grid", "5:5:linear:1",
         "--format", "json"],
        ["verify-bounds", "--potential", "0:1", "--k-grid", "5:5:linear:1",
         "--alphas", "1"],
        # a one-point --k-grid writes what --k did
        ["verify-bounds", "--potential", "0:1", "--k-grid", "5:6:linear:2", "--k", "5"],
        # the bound and fit settings are constants, and gap-scan writes CSV only
        ["gap-scan", "--k-grid", "5:6:linear:2", "--format", "json"],
        ["verify-bounds", "--potential", "0:1", "--k-grid", "5:5:linear:1",
         "--epsilon", "1"],
        ["verify-bounds", "--potential", "0:1", "--k-grid", "5:5:linear:1",
         "--k-min", "5"],
        ["fit", "scan.csv", "--band-k-min", "5"],
        # the solver tolerance is a constant, not an option
        ["spectrum", "--k", "5", "--tol", "1e-8"],
        ["gap-scan", "--k-grid", "5:6:linear:2", "--tol", "1e-8"],
        ["alpha-scan", "--potential", "0:1", "--k", "5", "--alphas", "1",
         "--tol", "1e-8"],
        ["verify-bounds", "--potential", "0:1", "--k-grid", "5:5:linear:1",
         "--tol", "1e-8"],
    ], ids=lambda args: f"{args[0]}-{args[-2]}")
    def test_option_the_command_does_not_read_exits_two(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_option_table_matches_the_parser(self):
        # README's table has one row per command: | `name` | `opt`, `opt` |
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = {}
        for line in readme.splitlines():
            row = re.fullmatch(r"\| `([a-z-]+)` \| (.+) \|", line)
            if row:
                table[row[1]] = re.findall(r"`([^`]+)`", row[2])

        def documented(option):
            return option if option.startswith("--") else _OPTIONS[option]["metavar"]

        assert table == {
            name: [documented(option) for option in options]
            for name, _, _, options in _COMMANDS
        }


class TestFitCommand:
    def test_round_trip_matches_in_process(self, tmp_path, capsys):
        grid = "100:400:geometric:6"
        out = tmp_path / "scan.csv"
        assert main(["gap-scan", "--potential", "0:1", "--k-grid", grid,
                     "--no-timestamp", "--out", str(out)]) == 0
        assert main(["fit", str(out), "--no-timestamp"]) == 0
        payload = json.loads(capsys.readouterr().out)

        series = gap_series(parse_potential_spec("0:1"), parse_k_grid(grid))
        fit = fit_power_law(series)
        assert payload["exponent"] == pytest.approx(fit.exponent, abs=1e-12)
        assert payload["prefactor"] == pytest.approx(fit.prefactor, rel=1e-12)

    def test_csv_from_stdin(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO((GOLDEN / "gap-scan.csv").read_text()))
        out = tmp_path / "fit.json"
        assert main(["fit", "-", "--no-timestamp", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "fit.json").read_bytes()

    def test_missing_file_exits_two(self, capsys):
        assert main(["fit", "/nonexistent/scan.csv"]) == 2

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            assert main(["gap-scan", "--potential=0:1", "--k-grid", "5:6:linear:2",
                         "--out", str(out)]) == 2
            assert f"cannot write {out}: " in capsys.readouterr().err

    def test_bad_row_exits_two(self, tmp_path, capsys):
        # four good rows (k = 20..80): without the row checks the fit would run
        golden = (GOLDEN / "gap-scan.csv").read_text()
        last = golden.splitlines()[-1]
        for row in (
            "100,7,1,1e-4,2e-4,1e-4,4,800,TRUE",
            "0,1,1,1e-4,2e-4,1e-4,4,800,false",
            "2x0,41,1,1e-4,2e-4,1e-4,4,800,false",
            last,
            "100,201,1,0.1,0.2,5,202010,40804010,false",
            "100,201,abc,0.25,0.75,0.5,20200.5,4060300.5,false",
            "100,201,1,0.25,0.75,0.5,abc,4060300.5,false",
            "100,201,1,0.25,0.75,0.5,20200.5,abc,false",
            "100,201,1,0.25,0.75,0.5,20200,4060300.5,false",
            "100,201,1,0.25,0.75,0.5,20200.5,4060300,false",
            "100,201,1,0.25,0.75,0.5,20200.5,4060300.5",
        ):
            scan = tmp_path / "scan.csv"
            scan.write_text(golden + row + "\n")
            assert main(["fit", str(scan), "--no-timestamp"]) == 2, row
            assert repr(row) in capsys.readouterr().err

    @pytest.mark.parametrize("lo,exponent,gap_lo,cause", [
        # n**-3 at n = 2e100 is 1.25e-301; times the gap 1e-30 it is 0
        (10**100, 3, 1e-30, "n**-3 * gap underflows to 0"),
        (10**6, -60, 1e-3, "prefactor e^863.612 overflows"),
        (10**6, -50, 1e-8, "n**50 overflows a double"),
    ], ids=["band-underflow", "prefactor-overflow", "band-overflow"])
    def test_a_fit_past_the_doubles_exits_two(self, lo, exponent, gap_lo, cause, tmp_path,
                                              capsys):
        # every row passes the row checks; the first two used to end in a traceback
        points = tuple(SpectralResult(k, 0.0, gap_lo * (k / lo) ** exponent, False)
                       for k in (lo, 2 * lo, 4 * lo))
        scan = tmp_path / "scan.csv"
        scan.write_text(series_to_csv(points, 1.0))
        assert main(["fit", str(scan), "--no-timestamp"]) == 2
        assert capsys.readouterr() == ("", f"pathgap: power-law fit: {cause}\n")

    @given(ks=st.lists(st.integers(1, 10**100), min_size=3, max_size=6, unique=True),
           decades=st.lists(st.floats(-300.0, 0.0), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_fit_of_valid_rows_exits_zero_or_two(self, ks, decades):
        points = tuple(SpectralResult(k, 0.0, 10.0**d, False)
                       for k, d in zip(sorted(ks), decades))
        with tempfile.TemporaryDirectory() as tmp:
            scan, out = Path(tmp) / "scan.csv", Path(tmp) / "fit.json"
            scan.write_text(series_to_csv(points, 1.0))
            assert main(["fit", str(scan), "--no-timestamp", "--out", str(out)]) in (0, 2)


class TestDeterminism:
    def test_identical_bytes_without_timestamp(self, tmp_path):
        args = ["gap-scan", "--potential", "0:1", "--k-grid", "20:80:geometric:4",
                "--no-timestamp"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_bounds_deterministic(self, tmp_path):
        # specs starting with a negative site need the --potential=... form
        args = ["verify-bounds", "--potential=-2:5,3:7", "--k-grid",
                "50:100:linear:2", "--no-timestamp"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_the_same_argv_twice_writes_the_same_bytes(self, tmp_path):
        # one parser, built at import, serves every call of a process
        out = tmp_path / "verify-bounds.json"
        args = GOLDEN_COMMANDS[out.name] + ["--no-timestamp", "--out", str(out)]
        for _ in range(2):
            out.unlink(missing_ok=True)  # each read must be this call's file
            assert main(args) == 0
            assert out.read_bytes() == (GOLDEN / out.name).read_bytes()

    def test_a_call_without_no_timestamp_after_one_with_it_is_stamped(self, capsys):
        args = ["fit", str(GOLDEN / "gap-scan.csv")]
        assert main(args + ["--no-timestamp"]) == 0
        assert "generated" not in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert re.sub(r'\n  "generated": "[^"]*",', "", out, count=1) == (
            GOLDEN / "fit.json").read_text()

    @pytest.mark.parametrize("bad", [
        ["spectrum", "--k", "1", "--potential", "0:5", "--tol", "1e-8"],
        ["spectrum", "--potential", "0:5"],
    ])
    def test_a_call_after_one_that_exits_two_runs_as_alone(self, bad, capsys):
        try:
            code = main(bad)
        except SystemExit as exc:  # argparse rejects an unknown option this way
            code = exc.code
        assert code == 2
        capsys.readouterr()
        assert main(["spectrum", "--k", "1", "--potential", "0:5"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "spectrum-k1.txt").read_text()

    def test_golden_bytes(self, tmp_path):
        """Output matches the committed files of ``GOLDEN_COMMANDS`` byte for
        byte.  Regenerate them only for an intended change of the output,
        and say so."""
        for name, args in GOLDEN_COMMANDS.items():
            out = tmp_path / name
            assert main(args + ["--no-timestamp", "--out", str(out)]) == 0, name
            assert out.read_bytes() == (GOLDEN / name).read_bytes(), name
