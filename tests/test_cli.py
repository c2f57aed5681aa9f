import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pathgap import fit_power_law, gap_series, geometric_grid
from pathgap.cli import (
    _COMMANDS,
    _OPTIONS,
    main,
    parse_k_grid,
    parse_potential_spec,
    to_json,
)
from pathgap.operators import build_potential

from conftest import FALLBACK_CASES, checks, oracle, workloads

GOLDEN = Path(__file__).parent / "data" / "golden"
# Each file in tests/data/golden is the output of ``pathgap <args>
# --no-timestamp --out tests/data/golden/<file>``, in this order (fit reads
# the gap-scan file).  ``PYTHONPATH=src python tests/regenerate_golden.py``
# rewrites them.
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
        assert parse_potential_spec(p.spec_string()).entries == p.entries

    @pytest.mark.parametrize("strengths", [
        (1.23456789, 1 / 3), (123456789.0, 1e-300),
    ])
    def test_round_trip_lossless_strengths(self, strengths):
        p = build_potential([(-2, strengths[0]), (4, strengths[1])])
        assert parse_potential_spec(p.spec_string()).entries == p.entries


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

    def test_spectrum_requires_k(self, capsys):
        assert main(["spectrum", "--potential", "0:5"]) == 2

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

    def test_alpha_scan_needs_base_potential(self, capsys):
        assert main(["alpha-scan", "--potential", "none", "--k", "10",
                     "--alphas", "1,2"]) == 2

    def test_alpha_scan_names_a_bad_alpha(self, capsys):
        for alphas, token in (("1,,2", "2 ('')"), ("x", "1 ('x')"), ("1,2,3e", "3 ('3e')")):
            assert main(["alpha-scan", "--potential", "0:1", "--k", "10",
                         "--alphas", alphas]) == 2
            assert f"bad alpha at token {token}" in capsys.readouterr().err

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

    def test_verify_bounds_k_zero_exits_two(self, capsys):
        assert main(["verify-bounds", "--potential", "0:1", "--k-grid", "0:0:linear:1"]) == 2
        assert "grid needs 1 <= min <= max" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["spectrum", "--k", "1000000000000000"],
                                      ["verify-bounds", "--k-grid",
                                       "1000000000000000:1000000000000000:linear:1"]])
    def test_a_path_beyond_memory_exits_two_naming_k(self, capsys, argv):
        # n = 2e15 + 1 doubles are 14.2 PiB, an allocation that fails at once
        # (a k near 1e9 could really allocate memory, so none is tried)
        assert main([*argv, "--potential", "0:1"]) == 2
        assert capsys.readouterr().err == "pathgap: out of memory at k = 1000000000000000\n"

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
            want0, want1 = oracle.levels(int(row[0]), ((0, 1e6),))
            assert row[-1] == "false"
            assert abs(float(row[5]) - float(want1 - want0)) <= 2 * math.ulp(float(row[4]))

    def test_gap_scan_and_alpha_scan_at_k_1e9(self, capsys):
        # no length-n array is built: 2 x 16 GB at this k
        k = 10**9
        assert main(["gap-scan", "--potential=0:1", "--k-grid", f"{k}:{k}:linear:1",
                     "--no-timestamp"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        want0, want1 = oracle.levels(k, ((0, 1.0),))
        # lambda1 - lambda0 holds the gap to about an ulp of lambda1
        assert abs(float(row[5]) - float(want1 - want0)) <= 2 * math.ulp(float(row[4]))
        assert main(["alpha-scan", "--potential=0:1", "--k", str(k), "--alphas", "1,2",
                     "--no-timestamp"]) == 0

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
        ["gap-scan", "--k", "20"],
        ["verify-bounds", "--potential", "0:1", "--k-grid", "5:5:linear:1",
         "--format", "json"],
        ["verify-bounds", "--potential", "0:1", "--k-grid", "5:5:linear:1",
         "--alphas", "1"],
        # a one-point --k-grid writes what --k did
        ["verify-bounds", "--potential", "0:1", "--k", "5"],
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
        ):
            scan = tmp_path / "scan.csv"
            scan.write_text(golden + row + "\n")
            assert main(["fit", str(scan), "--no-timestamp"]) == 2, row
            assert repr(row) in capsys.readouterr().err


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

    def test_golden_bytes(self, tmp_path):
        """Output matches the committed files of ``GOLDEN_COMMANDS`` byte for
        byte.  Regenerate them only for an intended change of the output,
        and say so."""
        for name, args in GOLDEN_COMMANDS.items():
            out = tmp_path / name
            assert main(args + ["--no-timestamp", "--out", str(out)]) == 0, name
            assert out.read_bytes() == (GOLDEN / name).read_bytes(), name
