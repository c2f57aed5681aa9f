import math

import pytest

from pathgap import (
    GapSeries,
    SpectralResult,
    build_potential,
    dirichlet_ground_energy,
    fit_power_law,
    gap_series,
    geometric_grid,
    linear_grid,
    series_from_csv,
    series_to_csv,
)
from pathgap.scaling import CSV_HEADER

SQRT11 = math.sqrt(11.0)


def _synthetic(prefactor, exponent, ks, flagged=()):
    pts = tuple(
        SpectralResult(
            k=k,
            lambda0=0.0,
            lambda1=prefactor * (2 * k + 1) ** exponent,
            precision_limited=k in flagged,
        )
        for k in ks
    )
    return GapSeries(potential=None, points=pts)


class TestGrids:
    def test_geometric_endpoints(self):
        grid = geometric_grid(100, 1600, 16)
        assert grid[0] == 100 and grid[-1] == 1600
        assert len(grid) == 16
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_linear(self):
        assert linear_grid(10, 50, 5) == [10, 20, 30, 40, 50]

    def test_single_point(self):
        assert geometric_grid(7, 7, 1) == [7]
        assert linear_grid(7, 7, 1) == [7]

    def test_ends_are_the_requested_integers_beyond_double_precision(self):
        big = 100000000000000001  # not a double: float(big) == 1e17
        assert linear_grid(big, big, 1) == [big]
        assert linear_grid(10**20, 10**20, 1) == [10**20]  # above 2**63
        assert geometric_grid(10**16 + 1, 10**16 + 3, 2) == [10**16 + 1, 10**16 + 3]
        for grid in (linear_grid(big, big + 10, 4), geometric_grid(big, 3 * big, 5),
                     linear_grid(1, 10**20, 7), geometric_grid(10**16 + 1, 10**16 + 3, 3)):
            assert grid[0] in (big, 1, 10**16 + 1) and grid[-1] in (big + 10, 3 * big, 10**20,
                                                                     10**16 + 3)
            assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_geometric_steps_below_an_ulp_are_kept(self):
        # (hi / lo) ** 0.5 rounds to 1.0 here, so a ratio taken in doubles
        # puts the middle point on lo
        assert geometric_grid(10**16 + 1, 10**16 + 3, 3) == [10**16 + 1, 10**16 + 2, 10**16 + 3]
        big = 10**20
        assert geometric_grid(big, big + 4, 5) == [big + i for i in range(5)]

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            geometric_grid(0, 10, 3)
        with pytest.raises(ValueError):
            linear_grid(10, 5, 3)
        with pytest.raises(ValueError):
            geometric_grid(5, 10, 0)


class TestGapSeries:
    def test_single_point_exact(self):
        series = gap_series(build_potential([(0, 5.0)]), [1])
        (pt,) = series.points
        assert pt.n == 3
        assert pt.gap == pytest.approx(SQRT11 - 3.0, abs=1e-13)

    def test_free_baseline_point(self):
        series = gap_series(build_potential([]), [100])
        assert series.points[0].gap == pytest.approx(
            dirichlet_ground_energy(100), abs=1e-13
        )

    def test_sorted_and_unique(self):
        series = gap_series(build_potential([(0, 1.0)]), [9, 3, 6])
        assert [pt.k for pt in series.points] == [3, 6, 9]
        with pytest.raises(ValueError, match="duplicates"):
            gap_series(build_potential([(0, 1.0)]), [3, 3])

    def test_gaps_decrease_along_sweep(self):
        series = gap_series(build_potential([(0, 1.0)]), geometric_grid(50, 800, 8))
        gaps = [pt.gap for pt in series.points]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_inadmissible_k_aborts(self):
        with pytest.raises(ValueError, match="side sub-path"):
            gap_series(build_potential([(2, 1.0)]), [2, 10])


class TestScaledSequence:
    """The scaled sequence n^p * gap, read off the points of a series."""

    def test_p_zero_identity(self):
        series = _synthetic(7.0, -3.0, [10, 20, 40])
        assert [pt.n**0.0 * pt.gap for pt in series.points] == pytest.approx(
            [pt.gap for pt in series.points]
        )

    def test_free_baseline_near_pi_squared(self):
        series = gap_series(build_potential([]), [100])
        (pt,) = series.points
        value = pt.n**2 * pt.gap
        assert value == pytest.approx(201**2 * (2 - 2 * math.cos(math.pi / 201)), rel=1e-12)
        assert abs(value - math.pi**2) < 3e-4

    def test_free_envelope_and_monotone(self):
        # n^2 * gap increases toward pi^2 inside the cosine-expansion envelope
        series = gap_series(
            build_potential([]), list(range(10, 90, 7))
        )
        prev = -math.inf
        for pt in series.points:
            value = pt.n**2 * pt.gap
            assert abs(value - math.pi**2) <= 1.1 * math.pi**4 / (12 * pt.n**2)
            assert value > prev
            prev = value


class TestFitPowerLaw:
    def test_exact_cubic(self):
        # no k reaches BAND_K_MIN, so the band spans every usable point
        series = _synthetic(7.0, -3.0, [10, 20, 40, 80])
        fit = fit_power_law(series)
        assert fit.exponent == pytest.approx(-3.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(7.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.band_power == 3
        assert fit.band_ratio == pytest.approx(1.0, rel=1e-12)

    def test_excludes_flagged_points(self):
        series = _synthetic(7.0, -3.0, [10, 20, 40, 80], flagged={20})
        fit = fit_power_law(series)
        assert fit.points_excluded == 1
        assert fit.exponent == pytest.approx(-3.0, abs=1e-12)

    def test_needs_three_points(self):
        series = _synthetic(7.0, -3.0, [10, 20], flagged=())
        with pytest.raises(ValueError, match="at least 3"):
            fit_power_law(series)

    def test_free_baseline_exponent(self):
        series = gap_series(
            build_potential([]), geometric_grid(100, 800, 6)
        )
        fit = fit_power_law(series)
        assert -2.01 <= fit.exponent <= -1.99

    def test_single_site_exponent(self):
        series = gap_series(build_potential([(0, 1.0)]), geometric_grid(100, 800, 6))
        fit = fit_power_law(series)
        assert -3.05 <= fit.exponent <= -2.95


class TestFitInverseAlpha:
    """n^3 * gap at fixed k against the strength alpha of one site at the
    origin, where its limit is 8 pi^2 / alpha and its 1/n rate -6 / alpha."""

    def test_sweep_at_fixed_k(self):
        k, n = 200, 401
        for a in (0.5, 1.0, 2.0, 4.0):
            series = gap_series(build_potential([(0, a)]), [k])
            closed_form = (8 * math.pi**2 / a) * (1 - 6 / (a * n))
            assert abs(n**3 * series.points[0].gap / closed_form - 1) < 1e-3

    def test_scaled_gap_decreasing_in_alpha(self):
        k, n = 150, 301
        values = []
        for a in (1.0, 4.0, 16.0, 64.0):
            series = gap_series(build_potential([(0, a)]), [k])
            values.append(n**3 * series.points[0].gap)
        assert all(b < a for a, b in zip(values, values[1:]))


class TestCubicBandCheck:
    """n^3 * gap over a k sweep and against the strength."""

    def test_weak_single_site_applicable_with_large_band(self):
        series = gap_series(build_potential([(0, 0.01)]), geometric_grid(100, 400, 5))
        # the band grows as the total strength shrinks
        assert min(pt.n**3 * pt.gap for pt in series.points) > 100.0

    def test_off_centre_floor(self):
        # one site of strength alpha at 3: the limit is 8 pi^2 hypot(3, 1/alpha),
        # so n^3 * gap stays above about 8 pi^2 * 3 however strong the site
        k, n = 400, 801
        for a in (1.0, 4.0, 16.0, 64.0):
            series = gap_series(build_potential([(3, a)]), [k])
            closed_form = 8 * math.pi**2 * math.hypot(3, 1 / a) * (1 - 6 / (a * n))
            assert abs(n**3 * series.points[0].gap / closed_form - 1) < 1e-3


class TestCsvRoundTrip:
    def test_lossless(self):
        series = gap_series(build_potential([(0, 1.0)]), [50, 100, 200])
        text = series_to_csv(series)
        back = series_from_csv(text)
        for a, b in zip(series.points, back.points):
            assert (a.k, a.n) == (b.k, b.n)
            assert a.lambda0 == b.lambda0  # exact: 17 significant digits
            assert a.lambda1 == b.lambda1
            assert a.gap == b.gap
            assert a.precision_limited == b.precision_limited

    def test_header_and_timestamp(self):
        series = gap_series(build_potential([(0, 1.0)]), [10])
        text = series_to_csv(series, timestamp="2024-01-01T00:00:00Z")
        lines = text.splitlines()
        assert lines[0] == "# generated 2024-01-01T00:00:00Z"
        assert lines[1].startswith("k,n,alpha_sum,lambda0")
        assert series_from_csv(text).points[0].k == 10

    def test_rejects_foreign_csv(self):
        with pytest.raises(ValueError, match="unrecognized"):
            series_from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("row, message", [
        ("100,7,1,1e-4,2e-4,1e-4,4,800,TRUE", r"n = 7 is not 2k\+1 for k = 100"),
        ("100,201,1,1e-4,2e-4,1e-4,4,800,TRUE", "precision_limited must be true or false"),
        ("100,201,1,1e-4,2e-4,1e-4,4,800,yes", "precision_limited must be true or false"),
        ("100,201,1,1e-4,2e-4,1e-4,4,800,nope", "precision_limited must be true or false"),
        ("0,1,1,1e-4,2e-4,1e-4,4,800,false", "half-width k must be a positive integer, got 0"),
        ("2x0,41,1,1e-4,2e-4,1e-4,4,800,false", "invalid literal for int.*'2x0'"),
        ("20,4.1e1,1,1e-4,2e-4,1e-4,4,800,false", "invalid literal for int.*'4.1e1'"),
        ("20,41,1,1e-4,2e-4,1x-4,4,800,false", "could not convert string to float: '1x-4'"),
        ("10,21,1,0.25,0.75,0.5,220.5,4630.5,false\n10,21,1,1e-4,2e-4,1e-4,4,800,false",
         "k = 10 does not exceed the previous row's k = 10"),
        ("20,41,1,0.25,0.75,0.5,840.5,34460.5,false\n10,21,1,1e-4,2e-4,1e-4,4,800,false",
         "k = 10 does not exceed the previous row's k = 20"),
        ("20,41,1,0.1,0.2,5,2101,344605,false", "gap = 5.0 is not lambda1 - lambda0 = 0.1"),
        # n = 201, gap = 0.5: n**2 * gap = 20200.5 and n**3 * gap = 4060300.5 exactly
        ("100,201,abc,0.25,0.75,0.5,20200.5,4060300.5,false",
         "could not convert string to float: 'abc'"),
        ("100,201,1,0.25,0.75,0.5,abc,4060300.5,false",
         "could not convert string to float: 'abc'"),
        ("100,201,1,0.25,0.75,0.5,20200.5,abc,false",
         "could not convert string to float: 'abc'"),
        ("100,201,1,0.25,0.75,0.5,20200,4060300.5,false",
         r"gap_n2 = 20200.0 is not n\*\*2 \* gap = 20200.5"),
        ("100,201,1,0.25,0.75,0.5,20200.5,4060300,false",
         r"gap_n3 = 4060300.0 is not n\*\*3 \* gap = 4060300.5"),
    ], ids=["bad-n", "TRUE", "yes", "nope", "k-zero", "k-not-int", "n-not-int",
            "gap-not-float", "k-repeated", "k-decreasing", "gap-mismatch",
            "alpha-sum-not-float", "gap-n2-not-float", "gap-n3-not-float",
            "gap-n2-mismatch", "gap-n3-mismatch"])
    def test_rejects_bad_rows(self, row, message):
        # the error names the offending row, the last one given
        with pytest.raises(ValueError, match=message) as exc:
            series_from_csv(CSV_HEADER + "\n" + row + "\n")
        assert repr(row.splitlines()[-1]) in str(exc.value)
