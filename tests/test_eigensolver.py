import dataclasses
import hashlib
import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathgap import (
    ConvergenceError,
    _kernels,
    apply_operator,
    assemble_hamiltonian,
    build_potential,
    dirichlet_ground_energy,
    eigensolver,
    eigenvalue,
    eigenvalues_low,
    evaluate_bounds,
    free_spectrum,
    geometric_grid,
    ground_state,
    spectrum_low,
    sturm_count,
)
from pathgap.cli import parse_potential_spec
from pathgap.eigensolver import (
    EPS,
    _eigenvalue_bracket,
    _gap,
    _glued_ground_state,
    _level,
    _roots,
    _sweep,
)

from conftest import (
    ACCEPTANCE_GRID,
    BOUND_POTENTIALS,
    FALLBACK_CASES,
    mp_ground_state,
    mp_origin_gap,
    oracle,
    rayleigh_quotient,
    workloads,
)

SQRT11 = math.sqrt(11.0)
DATA = Path(__file__).parent / "data"


def _op(k, pairs):
    return assemble_hamiltonian(k, build_potential(pairs))


def _dense(op):
    return np.diag(op.diag) - np.eye(op.n, k=1) - np.eye(op.n, k=-1)


class TestSturmCount:
    def test_nonnegative_operator(self):
        assert sturm_count(_op(1, [(0, 5.0)]), 0.0) == 0

    def test_at_interior_eigenvalue(self):
        # spectrum is {4-sqrt(11), 1, 4+sqrt(11)}; strictly below 1.0 -> one
        assert sturm_count(_op(1, [(0, 5.0)]), 1.0) == 1

    def test_above_everything(self):
        assert sturm_count(_op(1, [(0, 5.0)]), 100.0) == 3

    def test_zero_for_singular_free_laplacian(self):
        # 0 is an exact eigenvalue; the strict count below 0 is still 0
        for k in (1, 7, 40):
            assert sturm_count(_op(k, []), 0.0) == 0

    def test_full_count_above_norm_bound(self):
        op = _op(9, [(0, 3.0)])
        assert sturm_count(op, op.norm_bound + 1.0) == op.n

    @given(st.lists(st.floats(min_value=-2.0, max_value=10.0), min_size=2, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_mu(self, mus):
        op = _op(5, [(1, 2.0)])
        mus = sorted(mus)
        counts = [sturm_count(op, mu) for mu in mus]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestEigenvalue:
    def test_free_3x3(self):
        op = _op(1, [])
        assert eigenvalue(op, 1) == pytest.approx(1.0, abs=1e-13)
        assert eigenvalue(op, 0) == pytest.approx(0.0, abs=1e-13)
        assert eigenvalue(op, 2) == pytest.approx(3.0, abs=1e-13)

    def test_symmetry_reduced_quadratic(self):
        # even block gives lambda^2 - 8 lambda + 5 = 0
        op = _op(1, [(0, 5.0)])
        assert eigenvalue(op, 0) == pytest.approx(4.0 - SQRT11, abs=1e-13)
        assert eigenvalue(op, 2) == pytest.approx(4.0 + SQRT11, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 10.0, 1e4])
    def test_pinned_center_closed_form(self, alpha):
        # second eigenvalue is strength-independent: Dirichlet site at 0
        op = _op(2, [(0, alpha)])
        assert eigenvalue(op, 1) == pytest.approx(
            2.0 - 2.0 * math.cos(math.pi / 5.0), abs=1e-13
        )

    def test_index_out_of_range(self):
        op = _op(1, [])
        with pytest.raises(ValueError, match="out of range"):
            eigenvalue(op, 3)
        with pytest.raises(ValueError, match="out of range"):
            eigenvalue(op, -1)

    def test_against_dense_solver(self):
        # independent route: dense symmetric eigensolver
        for k, pairs in [(3, [(0, 2.0)]), (5, [(-2, 1.5), (1, 7.0)]), (4, [])]:
            op = _op(k, pairs)
            dense_eigs = np.linalg.eigvalsh(_dense(op))
            for i in range(op.n):
                assert eigenvalue(op, i) == pytest.approx(dense_eigs[i], abs=1e-11)

    def test_free_oracle_sweep(self):
        for k in range(1, 13):
            op = _op(k, [])
            oracle = free_spectrum(k)
            for i in range(op.n):
                assert abs(eigenvalue(op, i) - oracle[i]) <= 1e-12

    def test_monotone_in_strength(self):
        # adding potential can only push eigenvalues up
        prev = None
        for alpha in (0.5, 1.0, 3.0, 10.0, 100.0):
            op = _op(4, [(0, alpha), (2, 0.5 * alpha)])
            eigs = [eigenvalue(op, i) for i in range(op.n)]
            if prev is not None:
                assert all(b >= a - 1e-13 for a, b in zip(prev, eigs))
            prev = eigs


class TestClosedForms:
    def test_dirichlet_ground_energy(self):
        # against 2 - 2 cos(pi/(2m+1)) in 50 digits; evaluated as written in
        # doubles that form cancels to 6e-12 relative at m = 1600, 0.1 at 1e8
        with mpmath.workdps(50):
            for m in (1, 2, 100, 1600, 25600, 10**6, 10**8):
                want = 2 - 2 * mpmath.cos(mpmath.pi / (2 * m + 1))
                assert abs(dirichlet_ground_energy(m) - want) <= 1e-15 * want, m

    def test_dirichlet_rejects(self):
        with pytest.raises(ValueError):
            dirichlet_ground_energy(0)

    def test_free_spectrum_small(self):
        assert free_spectrum(1) == pytest.approx([0.0, 1.0, 3.0], abs=1e-15)
        assert free_spectrum(2) == pytest.approx(
            [0.0, 0.38196601125010515, 1.3819660112501051, 2.618033988749895, 3.618033988749895],
            abs=1e-12,
        )

    def test_free_spectrum_vs_dense(self):
        for k in (1, 2, 5, 9):
            op = _op(k, [])
            assert free_spectrum(k) == pytest.approx(
                np.linalg.eigvalsh(_dense(op)), abs=1e-12
            )

    def test_first_entry_exactly_zero(self):
        assert free_spectrum(17)[0] == 0.0


def _ground(op):
    return spectrum_low(op).ground_state


class TestGroundState:
    def test_free_kernel_vector(self):
        # the free path's closed form, without a solve
        op = _op(1, [])
        assert eigenvalue(op, 0) == pytest.approx(0.0, abs=1e-14)
        assert np.array_equal(_ground(op), np.full(3, 1 / math.sqrt(3)))

    def test_exact_3x3(self):
        phi = _ground(_op(1, [(0, 5.0)]))
        s = SQRT11 - 3.0
        expect = np.array([1.0, s, 1.0]) / math.sqrt(2.0 + s * s)
        assert phi == pytest.approx(expect, abs=1e-10)

    def test_dirichlet_limit(self):
        phi = _ground(_op(1, [(0, 1e6)]))
        assert phi[1] < 1e-5
        assert phi[0] == pytest.approx(1 / math.sqrt(2), abs=1e-4)
        assert phi[2] == pytest.approx(1 / math.sqrt(2), abs=1e-4)

    @pytest.mark.parametrize("k,pairs", [(5, [(0, 1.0)]), (30, [(0, 8.0)]), (20, [(-2, 5.0), (3, 7.0)])])
    def test_contract(self, k, pairs):
        op = _op(k, pairs)
        r = spectrum_low(op)
        lam0, phi = r.lambda0, r.ground_state
        assert float(np.min(phi)) > 0.0
        assert float(np.linalg.norm(phi)) == pytest.approx(1.0, abs=1e-13)
        assert float(np.sum(phi)) > 0.0
        residual = np.linalg.norm(apply_operator(op, phi) - lam0 * phi)
        assert residual <= 1e-11 * op.norm_bound

    def test_symmetry_for_symmetric_potentials(self):
        # eigenvector noise grows like eps/gap, so the 1e-12 symmetry level
        # is meaningful while the gap stays well above the precision floor
        for k, pairs in [
            (3, [(0, 0.5)]),
            (2, [(0, 1e4)]),
            (25, [(0, 10.0)]),
            (20, [(-1, 2.0), (0, 3.0), (1, 2.0)]),
            (100, [(0, 1.0)]),
        ]:
            phi = _ground(_op(k, pairs))
            assert float(np.max(np.abs(phi - phi[::-1]))) <= 1e-12

    def test_rayleigh_consistency(self):
        for k, pairs in [(5, [(0, 1.0)]), (50, [(0, 8.0)])]:
            op = _op(k, pairs)
            assert rayleigh_quotient(op, _ground(op)) == pytest.approx(
                eigenvalue(op, 0), rel=1e-12, abs=1e-15
            )

    def test_start_with_an_excited_admixture_is_rejected(self):
        # its residual, 1e-6 gap, passes the residual test; one solve removes
        # the admixture and so moves it by 1e-6, far beyond the bound, and
        # with no other path to a ground state that is a numerical failure
        op = _op(100, [(0, 1.0)])
        r = spectrum_low(op)
        vecs = np.linalg.eigh(_dense(op))[1]
        ground, excited = (vecs[:, i] * np.sign(np.sum(vecs[:, i])) for i in (0, 1))
        start = ground + 1e-6 * excited
        start /= np.linalg.norm(start)
        assert np.linalg.norm(apply_operator(op, start) - r.lambda0 * start) <= (
            eigensolver.RESIDUAL_SCALE * op.norm_bound)
        with pytest.raises(ConvergenceError, match="rejects"):
            ground_state(op, r.lambda0, start, 0.0, r.gap)
        assert ground_state(op, r.lambda0, ground, 0.0, r.gap) is ground

    def test_start_with_a_large_residual_is_rejected(self):
        # the flat vector beside a strong site: its residual, about
        # 1e6 / sqrt(41) at the origin, fails the residual test before any solve
        op = _op(20, [(0, 1e6)])
        r = spectrum_low(op)
        flat = np.full(op.n, 1.0 / math.sqrt(op.n))
        with pytest.raises(ConvergenceError,
                           match=r"residual 1\.562e\+05 is above 1e-11 times the norm bound"):
            ground_state(op, r.lambda0, flat, 0.0, r.gap)

    def test_start_is_taken_where_the_bisected_gap_is_at_the_noise_floor(self):
        # the check's gap, the difference of the two bisected levels, is 8.8
        # ulp of the norm bound, which makes the residual/gap term vacuous,
        # and the start rests on its own bound err; it is 2.8e-17 off
        # mpmath, where inverse iteration from the flat vector was 2.4e-14.
        # The gap of the record, from the u-brackets, is not flagged
        op = _op(73, [(-62, 623528892358.2329), (-42, 1.950268731830399e-06)])
        r = spectrum_low(op)
        brackets = _roots(op.n, op.potential)
        lam0, lam1 = (0.5 * sum(_eigenvalue_bracket(op, i, (_level(op.n, hi), _level(op.n, lo))))
                      for i, (lo, hi) in enumerate(brackets))
        assert lam1 - lam0 < 10 * math.ulp(op.norm_bound) and not r.precision_limited
        start, err = _glued_ground_state(op.n, op.potential, *brackets[0])
        assert ground_state(op, lam0, start, err, lam1 - lam0) is start
        assert np.array_equal(r.ground_state, start)
        assert np.max(np.abs(start - mp_ground_state(73, op.potential.entries))) <= 1e-16

    def test_paper_grid_takes_one_factorization_and_one_solve_per_point(self, monkeypatch):
        # with inverse iteration from the flat vector: 112 and 182
        calls = Counter()
        for name in ("factor_shifted", "solve_factored"):
            kernel = getattr(_kernels, name)
            monkeypatch.setattr(_kernels, name, lambda *args, name=name, kernel=kernel:
                                calls.update([name]) or kernel(*args))
        for spec in BOUND_POTENTIALS:
            for k in ACCEPTANCE_GRID:
                spectrum_low(assemble_hamiltonian(k, parse_potential_spec(spec)))
        assert calls == {"factor_shifted": 64, "solve_factored": 64}

    @pytest.mark.parametrize("seed", [0, 7])
    def test_ladder_takes_one_factorization_and_one_solve_per_point(self, monkeypatch, seed):
        # with inverse iteration first on flagged gaps: 71 and 644 at seed 0,
        # 71 and 738 at seed 7
        calls = Counter()
        for name in ("factor_shifted", "solve_factored"):
            kernel = getattr(_kernels, name)
            monkeypatch.setattr(_kernels, name, lambda *args, name=name, kernel=kernel:
                                calls.update([name]) or kernel(*args))
        ladder = [c for c in workloads.build("small-k", seed) if c.kind == "spectrum"]
        assert len(ladder) == 48
        for c in ladder:
            spectrum_low(assemble_hamiltonian(c.ks[0], parse_potential_spec(c.potential)))
        assert calls == {"factor_shifted": 48, "solve_factored": 48}

    @pytest.mark.parametrize("spec", BOUND_POTENTIALS)
    def test_spectrum_low_against_mpmath(self, spec):
        # the glued vector: at most 2.8e-17 per entry; inverse iteration
        # from the flat vector was 8.7e-16 to 1.8e-12 off
        pot = parse_potential_spec(spec)
        psi = spectrum_low(assemble_hamiltonian(100, pot)).ground_state
        assert np.max(np.abs(psi - mp_ground_state(100, pot.entries))) <= 1e-15


class TestSpectrumLow:
    def test_gap_exact_3x3(self):
        r = spectrum_low(_op(1, [(0, 5.0)]))
        assert r.gap == pytest.approx(SQRT11 - 3.0, abs=1e-13)
        assert not r.precision_limited

    def test_free_gap_small(self):
        assert spectrum_low(_op(1, [])).gap == pytest.approx(1.0, abs=1e-13)

    def test_free_gap_k100(self):
        r = spectrum_low(_op(100, []))
        oracle = free_spectrum(100)
        assert r.gap == pytest.approx(oracle[1] - oracle[0], abs=1e-13)
        assert r.gap == pytest.approx(2.0 - 2.0 * math.cos(math.pi / 201.0), abs=1e-13)

    def test_strict_ordering(self):
        r = spectrum_low(_op(40, [(0, 2.0)]))
        assert 0.0 <= r.lambda0 < r.lambda1
        assert r.gap > 0.0

    def test_precision_flag(self):
        # one rule for both solvers (_result).  k = 1, strength 1e7: the gap
        # 4 / (sqrt((1 + a)^2 + 8) + 1 + a), about 2e-7, is below 1e3 ulp of
        # the norm bound, where the difference of two bisected levels was
        # flagged; the gap from the brackets holds it to 1e-14, unflagged
        r = spectrum_low(_op(1, [(0, 1e7)]))
        exact = 4 / (mpmath.sqrt(mpmath.mpf(1e7 + 1) ** 2 + 8) + 1e7 + 1)
        assert not r.precision_limited and abs(r.gap / exact - 1) <= 1e-14
        assert float(np.min(r.ground_state)) > 0.0
        # a subnormal gap is flagged: about 2 / a at k = 1, a = 1.7e308
        r = spectrum_low(_op(1, [(0, 1.7e308)]))
        assert r.precision_limited and 0.0 < r.gap < sys.float_info.min
        # so is a gap whose brackets are wider than 1e-10 of the distance
        # between the roots: two mirror-image barriers, whose roots lie
        # 6.8e-9 apart in u, each bracket an ulp of u wide
        op = _op(6, [(-2, 1e4), (2, 1e4)])
        (lo0, hi0), (lo1, hi1) = _roots(op.n, op.potential)
        assert (hi0 - lo0) + (hi1 - lo1) > 1e-10 * (lo0 - hi1) > 0.0
        assert eigenvalues_low(op).precision_limited

    def test_eigenvalues_low_is_spectrum_low_without_the_vector(self):
        # one record from the same brackets, digit for digit
        op = _op(40, [(0, 2.0)])
        values, full = eigenvalues_low(op), spectrum_low(op)
        assert values.ground_state is None
        assert values == dataclasses.replace(full, ground_state=None)
        with pytest.raises(ValueError, match="ground state"):
            evaluate_bounds(op, values)


def _ulps(got, want, scale):
    return float(abs(got - want)) / math.ulp(scale)


class TestEigenvaluesLowAgainstTheOracle:
    def test_random_potentials(self):
        # worst seen over 1200 such cases: 3.4, 3.3 and 1.0 ulp
        rng = random.Random(11)
        for _ in range(12):
            sites = rng.sample(range(-8, 9), rng.randint(1, 4))
            pairs = sorted((s, 10 ** rng.uniform(-1, 2)) for s in sites)
            for k in (100, 1600, 25600):
                r = eigenvalues_low(_op(k, pairs))
                want0, want1 = oracle.levels(k, tuple(pairs))
                case = (k, pairs)
                assert _ulps(r.lambda0, want0, r.lambda0) <= 4, case
                assert _ulps(r.lambda1, want1, r.lambda1) <= 4, case
                assert _ulps(r.gap, want1 - want0, r.lambda1) <= 2, case
                assert not r.precision_limited, case

    def test_public_gap_of_one_site_to_k_1e102(self):
        # the gap as written, not _gap alone, against the closed form at
        # every decade of k that check_half_width admits; lambda1 - lambda0
        # was 2e-11 off at k = 1e6, flagged from 1e15 and 0 from 1e17
        for e in range(1, 103):
            r = eigenvalues_low(_op(10**e, [(0, 1.0)]))
            assert not r.precision_limited, e
            assert abs(r.gap / mp_origin_gap(10**e, 1.0) - 1) <= 4 * EPS, e
        # the closed form is the oracle's where 50 digits resolve the gap
        for k in (10, 1000, 100000):
            want0, want1 = oracle.levels(k, ((0, 1.0),))
            assert abs(mp_origin_gap(k, 1.0) / (want1 - want0) - 1) <= 1e-30

    @pytest.mark.parametrize("pairs, exponents", [
        (((-2, 5.0), (3, 7.0)), range(2, 16)),
        (((-1, 2.0), (0, 3.0), (1, 2.0)), (3, 7, 11, 15)),
    ])
    def test_public_gap_of_multi_site_potentials_to_k_1e15(self, pairs, exponents):
        # against the oracle's Sturm levels at 80 digits.  The gap is resolved
        # to about ulp(u) / Delta: worst seen 1.9 eps for -2:5,3:7 (Delta
        # 1.6) and 10.4 eps for -1:2,0:3,1:2 (Delta 0.026, sigma -0.64), where
        # lambda1 - lambda0 was 1.4e-5 off at k = 1e12
        for e in exponents:
            r = eigenvalues_low(_op(10**e, list(pairs)))
            with oracle.ctx.workdps(80):
                want0, want1 = oracle.levels(10**e, pairs)
                rel = abs(r.gap / (want1 - want0) - 1)
            assert not r.precision_limited and rel <= 1e-14, e

    def test_free_path_closed_form(self):
        for k in (1, 100, 25600):
            r = eigenvalues_low(_op(k, []))
            want0, want1 = oracle.levels(k, ())
            assert r.lambda0 == 0.0
            assert _ulps(r.lambda1, want1, r.lambda1) <= 4
            assert not r.precision_limited

    @pytest.mark.parametrize("k, spec", FALLBACK_CASES)
    def test_failed_windows_fall_back(self, k, spec):
        pairs = [(int(s), float(a)) for s, a in (t.split(":") for t in spec.split(","))]
        op = _op(k, pairs)
        r = eigenvalues_low(op)
        # the closed form for one site at the origin does not converge at
        # 1e300, so every case uses the oracle's Sturm bisection.  Worst
        # seen: 0.36 ulp of the norm bound and 2.9 ulp of the level itself;
        # the gap within 2.2 ulp of lambda1
        want = [oracle.sturm_level(k, tuple(pairs), index) for index in (0, 1)]
        for got, level in zip((r.lambda0, r.lambda1), want):
            assert _ulps(got, level, op.norm_bound) <= 1, spec
            assert _ulps(got, level, got) <= 4, spec
        assert _ulps(r.gap, want[1] - want[0], r.lambda1) <= 4, spec

    @pytest.mark.parametrize("spec", ["0:1", "-3:2,4:0.5", "0:1e-12"])
    def test_roots_at_large_k(self, spec):
        # _roots never builds the length-n arrays; its brackets hold by the
        # O(support) counts at their ends.  Worst seen at the midpoints: 3.0
        # ulp for a level and 3.2e-15 for the gap, which is resolved to
        # about ulp(u) / Delta
        pairs = tuple((int(s), float(a)) for s, a in (t.split(":") for t in spec.split(",")))
        potential = build_potential(pairs)
        for k in (10**6, 10**9, 10**12):
            n = 2 * k + 1
            brackets = _roots(n, potential)
            for index, (lo, hi) in enumerate(brackets):
                assert _sweep(n, potential, lo)[0] > index >= _sweep(n, potential, hi)[0]
            u0, u1 = (0.5 * (lo + hi) for lo, hi in brackets)
            lam0, gap = _level(n, u0), _gap(n, u0, u1)
            want0, want1 = oracle.levels(k, pairs)
            assert _ulps(lam0, want0, lam0) <= 4, (spec, k)
            assert _ulps(lam0 + gap, want1, lam0 + gap) <= 4, (spec, k)
            assert abs(gap - float(want1 - want0)) <= 1e-14 * gap, (spec, k)

    def test_no_length_n_array_at_k_1e9(self):
        tracemalloc.start()
        try:
            r = eigenvalues_low(_op(10**9, [(0, 1.0)]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        want0, want1 = oracle.levels(10**9, ((0, 1.0),))
        assert _ulps(r.lambda0, want0, r.lambda0) <= 4
        assert _ulps(r.lambda1, want1, r.lambda1) <= 4

    @pytest.mark.parametrize("grid", [(100, 1600, 16), (3200, 25600, 4)])
    def test_sweeps_per_point(self, monkeypatch, grid):
        # Illinois steps inside the certified brackets, each search starting
        # at the two-level guess sigma +- Delta: 11 to 13 evaluations of f
        # per point, where starting from the window's ends took about 27
        # and bisection alone about 110
        calls = []
        sweep = eigensolver._sweep
        monkeypatch.setattr(eigensolver, "_sweep", lambda *args: calls.append(1) or sweep(*args))
        for k in geometric_grid(*grid):
            calls.clear()
            eigenvalues_low(_op(k, [(0, 1.0)]))
            assert len(calls) <= 16, k

    def test_one_search_never_sweeps_the_same_u_twice(self, monkeypatch):
        # sigma ends u0's window and starts u1's: one sweep serves both
        us = []
        sweep = eigensolver._sweep
        monkeypatch.setattr(eigensolver, "_sweep", lambda n, p, u: us.append(u) or sweep(n, p, u))
        for spec in BOUND_POTENTIALS:
            potential = parse_potential_spec(spec)
            for k in (*ACCEPTANCE_GRID, *range(4, 41)):
                us.clear()
                _roots(2 * k + 1, potential)
                assert len(set(us)) == len(us), (spec, k)


class TestSpectrumLowHint:
    def test_sweeps_only_where_the_count_is_undecided(self, monkeypatch):
        # plain bisection from [0, norm_bound] sweeps about 69 times per
        # level; inside the unwidened certified bands a midpoint needs a
        # sweep only where it lands in the sub-ulp band itself
        calls = []
        count = _kernels.sturm_count
        monkeypatch.setattr(_kernels, "sturm_count", lambda *args: calls.append(1) or count(*args))
        spectrum_low(_op(1600, [(0, 1.0)]))
        assert len(calls) <= 2  # 0 measured, 46 with the bands widened
        calls.clear()
        for spec in BOUND_POTENTIALS:
            for k in ACCEPTANCE_GRID:
                spectrum_low(assemble_hamiltonian(k, parse_potential_spec(spec)))
        assert len(calls) <= 4  # 1 measured; 2564 widened, 8452 without a band

    @given(k=st.integers(1, 800), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_hint_leaves_the_brackets_unchanged(self, k, data):
        # the bands spectrum_low bisects in, the lambda-image of each
        # u-bracket of _roots, decide every midpoint outside them, so each
        # bracket ends inside its band up to the bisection's own width
        sites = data.draw(st.lists(st.integers(-(k - 1), k - 1), min_size=1, max_size=4,
                                   unique=True))
        exponents = data.draw(st.lists(st.floats(-12.0, 16.0), min_size=4, max_size=4))
        op = _op(k, sorted(zip(sites, (10.0**e for e in exponents))))
        for index, (lo_u, hi_u) in enumerate(_roots(op.n, op.potential)):
            band = (_level(op.n, hi_u), _level(op.n, lo_u))
            lo, hi = _eigenvalue_bracket(op, index, band)
            slack = eigensolver.REL_TOL * max(band[1], eigensolver.LAMBDA_FLOOR)
            assert band[0] - slack <= lo < hi <= band[1] + slack, index

    def test_free_path_sweeps_only_near_its_levels(self, monkeypatch):
        # the free path takes its closed forms: no O(n) sweep, where plain
        # bisection from [0, norm_bound] takes 172
        calls = []
        count = _kernels.sturm_count
        monkeypatch.setattr(_kernels, "sturm_count", lambda *args: calls.append(1) or count(*args))
        r = spectrum_low(_op(1600, []))
        assert len(calls) == 0
        assert (r.lambda0, r.lambda1) == (0.0, _level(3201, 0.0))

    def test_spectrum_low_is_bit_identical_to_the_recorded_values(self):
        # lambda0, the gap, the flag and the ground state, or the error
        # raised, as written by tests/regenerate_spectrum_low.py; and
        # spectrum_low is eigenvalues_low plus the ground state, bit for bit
        cases = json.loads((DATA / "spectrum_low_values.json").read_text())["cases"]
        assert len(cases) == 408
        for case in cases:
            op = _op(case["k"], [tuple(pair) for pair in case["entries"]])
            values = eigenvalues_low(op)
            try:
                res = spectrum_low(op)
            except ConvergenceError as err:
                assert type(err).__name__ == case.get("error"), case
                continue
            assert (values.lambda0, values.gap, values.precision_limited) == (
                res.lambda0, res.gap, res.precision_limited), case
            got = {
                "lambda0": res.lambda0.hex(),
                "gap": res.gap.hex(),
                "precision_limited": res.precision_limited,
                "ground_state_sha256": hashlib.sha256(res.ground_state.tobytes()).hexdigest(),
            }
            assert {"k": case["k"], "entries": case["entries"], **got} == case


class TestRootsFallback:
    @pytest.mark.parametrize("k, spec", [(10**6, "0:1e-12"), (1000, "0:1e-6"), (100, "0:1e-6"),
                                         (12, "0:6e-12"), (20, "0:1e-3"), (80, "0:1e-3")])
    def test_weak_potentials_start_from_the_weak_coupling_estimate(self, monkeypatch, k, spec):
        # doubling hi from 1 took 99, 54, 53, 56, 35 and 45 _sweep calls
        calls = []
        sweep = eigensolver._sweep
        monkeypatch.setattr(eigensolver, "_sweep", lambda *args: calls.append(1) or sweep(*args))
        pairs = ((0, float(spec[2:])),)
        brackets = _roots(2 * k + 1, build_potential(pairs))
        assert len(calls) <= 40
        want = oracle.levels(k, pairs)
        for (lo, hi), level in zip(brackets, want):
            assert _ulps(_level(2 * k + 1, 0.5 * (lo + hi)), level, float(level)) <= 4

    @pytest.mark.parametrize("k", [3, 1000])
    def test_subnormal_strength(self, monkeypatch, k):
        # at 5e-324 the Wronskian and lambda0 are subnormal: the bracket
        # stops once no double is left between the levels of its ends.
        # 9 and 14 calls, where doubling hi from 1 took 618 and 629
        calls = []
        sweep = eigensolver._sweep
        monkeypatch.setattr(eigensolver, "_sweep", lambda *args: calls.append(1) or sweep(*args))
        n, potential = 2 * k + 1, build_potential([(0, 5e-324)])
        brackets = _roots(n, potential)
        assert len(calls) <= 40
        for index, (lo, hi) in enumerate(brackets):
            assert _sweep(n, potential, lo)[0] > index >= _sweep(n, potential, hi)[0]
        assert _level(n, 0.5 * sum(brackets[0])) <= 5e-324


# points where inverse iteration from the flat vector returned the first
# excited state, 1.4 off normwise, and exited 0: one barrier too strong for
# the factorization of H - lambda0 to see a gap below eps times the norm
# bound.  The last three are recorded operators (spectrum_low_values.json)
_EXCITED_STATE_POINTS = (
    (20, ((-3, 1e10), (-2, 1.0), (4, 3e12))),
    (238, ((60, 270578439604.99896),)),
    (155, ((-49, 0.00032710746178693387), (-44, 7.7080754978363295), (74, 930496919493.4572))),
    (190, ((-51, 47586929738.82373), (3, 2.4267200183699664e-05), (34, 204733054678.3947))),
    (381, ((-94, 521556715791.26685), (207, 28221612736.516476), (360, 1.264835389167755))),
)

# a well between two walls: one wall site of strength 1e200 to 1.7e308 on
# either side, and 26 sites of 1e13 on either side of a 7-site well
_WALLED_WELLS = ((3, "-2:1e200,2:1e200"), (4, "-3:1e307,3:1e307"),
                 (5, "-4:1.7e308,4:1.7e308"),
                 (30, ",".join(f"{j}:1e13" for j in [*range(-29, -3), *range(4, 30)])))


class TestGluedGroundState:
    @pytest.mark.parametrize("k", workloads.LADDER_KS)
    def test_every_ladder_strength_exits_zero_with_the_closed_form(self, k, tmp_path):
        # inverse iteration raised at 12 of these 48 points; the construction
        # holds at all of them, within 1.6e-16 of the even closed form, and
        # spectrum_low returns it (inverse iteration, where it converged on
        # a flagged gap, was up to 2.4e-9 off)
        from pathgap.cli import main

        for e in workloads.LADDER_EXPONENTS:
            pairs = ((0, 10.0**e),)
            out = tmp_path / f"{e}.json"
            assert main(["spectrum", "--k", str(k), f"--potential=0:{10.0**e!r}",
                         "--format", "json", "--out", str(out)]) == 0, e
            n = 2 * k + 1
            potential = build_potential(pairs)
            psi, _ = _glued_ground_state(n, potential, *_roots(n, potential)[0])
            t = float(2 * mpmath.asin(mpmath.sqrt(oracle.levels(k, pairs)[0]) / 2))
            want = np.cos(t * (k - np.abs(np.arange(-k, k + 1)) + 0.5))
            want /= np.linalg.norm(want)
            assert np.max(np.abs(psi - want)) <= 1e-15, e
            got = spectrum_low(assemble_hamiltonian(k, potential)).ground_state
            assert np.max(np.abs(got - want)) <= 1e-15, e

    def test_zero_gap_exits_zero_with_the_closed_form(self, tmp_path):
        # the two levels coincide in double precision (their difference is
        # exactly 0), and the gap the solver computed is the closed form's
        # 3.0682772109345732e-73, unflagged; inverse iteration's residual
        # test, 1e-11 of a norm bound of 3.4e71, accepted the flat vector,
        # 0.11 off.  The glued vector is 5.6e-17 off the even closed form
        # cos(t (k - |j| + 1/2)), t = pi/(2k + 1)
        from pathgap.cli import main

        k, spec = 4, "0:3.3888804809460114e+71"
        assert main(["spectrum", "--k", str(k), f"--potential={spec}", "--format", "json",
                     "--out", str(tmp_path / "spectrum.json")]) == 0
        r = spectrum_low(assemble_hamiltonian(k, parse_potential_spec(spec)))
        assert r.lambda1 == r.lambda0 and not r.precision_limited
        assert abs(r.gap / mp_origin_gap(k, 3.3888804809460114e+71) - 1) <= 4 * EPS
        want = np.cos(math.pi / (2 * k + 1) * (k - np.abs(np.arange(-k, k + 1)) + 0.5))
        assert np.max(np.abs(r.ground_state - want / np.linalg.norm(want))) <= 1e-15

    @pytest.mark.parametrize("k", [1, 3, 4, 20, 200])
    @pytest.mark.parametrize("strength", ["1e155", "1e160", "1e200", "1e300", "1.7e308"])
    def test_strong_single_site_exits_zero_with_the_closed_form(self, tmp_path, k, strength):
        # each side's norm is above 1e154 times its entry at the origin, so
        # its square overflowed: the bound was 0.0 from 1e154, and NaN at
        # every glue site (exit 3) from about 1e160.  At 1.7e308 u0 is
        # subnormal: its stopping width underflowed to 0 and fell back to
        # EPS / 2 (a bracket 40% wide), and the norm in units of the
        # subnormal entry overflowed
        from pathgap.cli import main

        spec = f"0:{strength}"
        assert main(["spectrum", "--k", str(k), f"--potential={spec}", "--format", "json",
                     "--out", str(tmp_path / "spectrum.json")]) == 0
        op = assemble_hamiltonian(k, parse_potential_spec(spec))
        _, err = _glued_ground_state(op.n, op.potential, *_roots(op.n, op.potential)[0])
        assert 0.0 < err <= 1e-14
        want = np.cos(math.pi / (2 * k + 1) * (k - np.abs(np.arange(-k, k + 1)) + 0.5))
        psi = spectrum_low(op).ground_state
        assert np.max(np.abs(psi - want / np.linalg.norm(want))) <= 2e-16

    @pytest.mark.parametrize("spec", ["3:1e15", "-7:1e15", "1:1e16", "-1:1e16"])
    def test_strong_single_site_off_the_origin_exits_zero(self, tmp_path, spec):
        # u0 lies within an ulp or two of the site, so the profile entering
        # it from the small well's side is 0 (+-1:1e16) or known to no digit:
        # the scale is linear in that entry, and only the divisor, the other
        # side's entry, needs a relative error below 1/2 (worst seen:
        # 5.6e-17 per entry, bound 3.3e-15)
        from pathgap.cli import main

        k = 20
        assert main(["spectrum", "--k", str(k), f"--potential={spec}", "--format", "json",
                     "--out", str(tmp_path / "spectrum.json")]) == 0
        op = _op(k, parse_potential_spec(spec).entries)
        psi, err = _glued_ground_state(op.n, op.potential, *_roots(op.n, op.potential)[0])
        assert np.array_equal(spectrum_low(op).ground_state, psi)
        want = mp_ground_state(k, op.potential.entries)
        assert np.max(np.abs(psi - want)) <= 5e-16
        assert np.linalg.norm(psi - want) <= err
        assert main(["verify-bounds", f"--potential={spec}", "--k-grid", "20:20:linear:1",
                     "--no-timestamp", "--out", str(tmp_path / "bounds.json")]) == 0

    def test_spectrum_low_returns_the_glued_vector(self):
        # inverse iteration from the flat vector did not converge here; the
        # glued vector is the only path, so without it ground_state raises
        op = _op(20, [(0, 1e9)])
        r = spectrum_low(op)
        psi, _ = _glued_ground_state(op.n, op.potential, *_roots(op.n, op.potential)[0])
        assert np.array_equal(r.ground_state, psi)
        with pytest.raises(ConvergenceError, match="vouches for no ground state"):
            ground_state(op, r.lambda0, None, 0.0, r.gap)

    @pytest.mark.parametrize("k", [6, 20])
    @pytest.mark.parametrize("spec", ["0:1e9", "0:1e12", "0:100", "0:1e3,1:1e9",
                                      "-1:3e12,0:1e3", "-1:1e2,0:1e12,3:1e1"])
    def test_against_mpmath_on_strong_potentials(self, k, spec):
        # worst seen: 1.1e-16 per entry; inverse iteration raises at 0:1e9
        pairs = [(int(s), float(a)) for s, a in (t.split(":") for t in spec.split(","))]
        potential = build_potential(pairs)
        psi, err = _glued_ground_state(2 * k + 1, potential, *_roots(2 * k + 1, potential)[0])
        assert float(np.min(psi)) > 0.0 and not psi.flags.writeable
        want = mp_ground_state(k, pairs)
        assert np.max(np.abs(psi - want)) <= 5e-16
        # the bound it returns holds normwise
        assert np.linalg.norm(psi - want) <= err

    @pytest.mark.parametrize("k, pairs", _EXCITED_STATE_POINTS)
    def test_returns_the_ground_state_where_inverse_iteration_took_the_excited_one(self, k, pairs):
        op = _op(k, pairs)
        psi, bound = _glued_ground_state(op.n, op.potential, *_roots(op.n, op.potential)[0])
        assert np.array_equal(spectrum_low(op).ground_state, psi)
        err = np.linalg.norm(psi - mp_ground_state(k, pairs))
        assert err <= 1e-15
        assert err <= bound

    def test_mp_ground_state_is_a_reference_at_the_zero_gap(self):
        # the two levels agree beyond 60 digits, where the mpmath ground
        # state was 0.033 asymmetric; at its default precision it is
        # mirror-symmetric and the even closed form, t = pi/(2k + 1)
        k = 4
        got = mp_ground_state(k, ((0, 3.3888804809460114e+71),))
        assert np.max(np.abs(got - got[::-1])) <= 1e-16
        want = np.cos(math.pi / (2 * k + 1) * (k - np.abs(np.arange(-k, k + 1)) + 0.5))
        assert np.max(np.abs(got - want / np.linalg.norm(want))) <= 1e-15

    @pytest.mark.parametrize("k", [6, 20])
    @pytest.mark.parametrize("spec", ["-1:1e12,1:1e12", "-1:1e8,1:1e8", "-2:1e4,2:1e4"])
    def test_rejects_symmetric_double_barriers(self, k, spec):
        # glued without the bound these err by 1.6e-13 to 0.45 per entry:
        # two wells of nearly equal ground energy fix the weights of the two
        # sides only through digits the bracket of u0 does not carry.  The
        # bound is about 2e-7 on the third, above RESIDUAL_SCALE; no glue
        # site is admissible on the other two
        pairs = [(int(s), float(a)) for s, a in (t.split(":") for t in spec.split(","))]
        potential = build_potential(pairs)
        assert _glued_ground_state(2 * k + 1, potential, *_roots(2 * k + 1, potential)[0]) is None
        with pytest.raises(ConvergenceError):
            spectrum_low(_op(k, pairs))

    @pytest.mark.parametrize("k", [6, 20])
    def test_vouches_for_a_weak_symmetric_double_barrier(self, k):
        # bound 6e-12; inverse iteration from the flat vector was 1.3e-11
        # (k = 6) and 2.8e-10 (k = 20) off
        pairs = [(-1, 100.0), (1, 100.0)]
        op = _op(k, pairs)
        psi, bound = _glued_ground_state(op.n, op.potential, *_roots(op.n, op.potential)[0])
        assert bound <= eigensolver.RESIDUAL_SCALE
        assert np.array_equal(spectrum_low(op).ground_state, psi)
        assert np.linalg.norm(psi - mp_ground_state(k, pairs)) <= bound

    @pytest.mark.parametrize("k, spec", _WALLED_WELLS)
    def test_walled_wells_exit_zero_with_the_ground_state(self, k, spec, tmp_path):
        # both sweeps cross a wall into the well, so its entries lie beyond
        # the double range on either side of the glue site; scaled from that
        # site alone they overflowed, into zero vectors (the first two) or
        # an OverflowError (the third).  The last one's bound, 2.2e-13, is
        # the largest of the four
        from pathgap.cli import main

        out = tmp_path / "spectrum.json"
        assert main(["spectrum", "--k", str(k), f"--potential={spec}",
                     "--format", "json", "--out", str(out)]) == 0
        pairs = parse_potential_spec(spec).entries
        psi = spectrum_low(_op(k, pairs)).ground_state
        assert np.max(np.abs(psi - mp_ground_state(k, pairs))) <= 5e-16

    @pytest.mark.parametrize("k, spec", _WALLED_WELLS[:3])
    def test_walled_wells_are_scaled_to_the_double_range(self, k, spec):
        potential = parse_potential_spec(spec)
        psi, err = _glued_ground_state(2 * k + 1, potential, *_roots(2 * k + 1, potential)[0])
        want = mp_ground_state(k, potential.entries)
        assert np.max(np.abs(psi - want)) <= 5e-16
        assert np.linalg.norm(psi - want) <= err


# lambda(u) sits at a fraction of (0, 4) shifted by the golden ratio, so the
# simple floats hypothesis favours do not put it exactly on a rational level
# of a walled-off sub-path, where neither count is decided
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@given(sites=st.lists(st.integers(-8, 8), min_size=1, max_size=4, unique=True),
       exponents=st.lists(st.floats(-12.0, 300.0), min_size=4, max_size=4),
       k=st.integers(9, 200), fraction=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_sweep_count_is_the_sturm_count(sites, exponents, k, fraction):
    op = _op(k, sorted(zip(sites, (10.0**e for e in exponents))))
    lam = 4.0 * ((fraction + _GOLDEN) % 1.0)
    assume(lam > 0.0)
    u = math.pi / (4.0 * math.asin(math.sqrt(lam) / 2.0)) - 0.5 * op.n
    assume(0.5 * op.n + u > 0.5)
    want = _kernels.sturm_count(op.diag, np.ones(op.n - 1), _level(op.n, u), EPS * op.norm_bound)
    assert _sweep(op.n, op.potential, u)[0] == want
