import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgap import (
    ConvergenceError,
    apply_operator,
    assemble_hamiltonian,
    build_potential,
    dirichlet_ground_energy,
    eigenvalue,
    eigenvalues_low,
    evaluate_bounds,
    free_spectrum,
    ground_state,
    rayleigh_quotient,
    spectrum_low,
    sturm_count,
)

SQRT11 = math.sqrt(11.0)


def _op(k, pairs):
    return assemble_hamiltonian(k, build_potential(pairs, empty_baseline=not pairs))


def _dense(op):
    return np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)


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
        assert dirichlet_ground_energy(1) == pytest.approx(1.0, abs=1e-14)
        assert dirichlet_ground_energy(2) == pytest.approx(
            2.0 - 2.0 * math.cos(math.pi / 5.0), abs=1e-15
        )
        assert dirichlet_ground_energy(100) == pytest.approx(
            2.0 - 2.0 * math.cos(math.pi / 201.0), abs=1e-18
        )

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
    return ground_state(op, eigenvalue(op, 0))


class TestGroundState:
    def test_free_kernel_vector(self):
        op = _op(1, [])
        assert eigenvalue(op, 0) == pytest.approx(0.0, abs=1e-14)
        assert _ground(op) == pytest.approx(np.full(3, 1 / math.sqrt(3)), abs=1e-12)

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
        lam0 = eigenvalue(op, 0)
        phi = ground_state(op, lam0)
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

    def test_unresolvable_gap_raises(self):
        # gap far below eps * ||H||: the iterate cannot settle
        with pytest.raises(ConvergenceError):
            _ground(_op(200, [(0, 1e6)]))


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
        # k=1, strength 1e7: gap ~ 2e-7 sits below 1e3 ulp(1e7)
        r = spectrum_low(_op(1, [(0, 1e7)]))
        assert r.precision_limited
        assert float(np.min(r.ground_state)) > 0.0
        # moderate strengths stay unflagged
        assert not spectrum_low(_op(1, [(0, 1e4)])).precision_limited

    def test_eigenvalues_low_is_spectrum_low_without_the_vector(self):
        op = _op(40, [(0, 2.0)])
        values, full = eigenvalues_low(op), spectrum_low(op)
        assert values.ground_state is None
        assert (values.lambda0, values.lambda1, values.gap, values.precision_limited) == (
            full.lambda0, full.lambda1, full.gap, full.precision_limited)
        with pytest.raises(ValueError, match="ground state"):
            evaluate_bounds(op, values)
