import json
import math

import numpy as np
import pytest

from pathgap import (
    assemble_hamiltonian,
    build_potential,
    build_trial_state,
    compute_side_corrections,
    cosine_pieces,
    dirichlet_ground_energy,
    evaluate_bounds,
    excited_energy_bounds,
    ground_energy_lower_bound,
    ground_energy_upper_bound,
    mixing_weight_product,
    rayleigh_quotient,
    side_correction_product,
    side_energies,
    single_site_diagnostics,
    spectrum_low,
)
from pathgap import bounds
from pathgap.bounds import EPSILON

SQRT11 = math.sqrt(11.0)


def _op(k, pairs):
    return assemble_hamiltonian(k, build_potential(pairs))


def _op_low(k, pairs):
    op = _op(k, pairs)
    return op, spectrum_low(op)


# exact 3x3 ground state for k=1, strength 5 at the origin
_S = SQRT11 - 3.0
_PHI3 = np.array([1.0, _S, 1.0]) / math.sqrt(2.0 + _S * _S)
_A1_EXACT = 0.5 - (_PHI3[0] - _PHI3[1]) ** 2


class TestSideCorrections:
    def test_exact_3x3(self):
        op, res = _op_low(1, [(0, 5.0)])
        side = compute_side_corrections(op, res.ground_state)
        assert side.left == pytest.approx(_A1_EXACT, abs=1e-10)
        assert side.right == pytest.approx(_A1_EXACT, abs=1e-10)

    def test_symmetric_potential_gives_equal_sides(self):
        op, res = _op_low(30, [(-1, 2.0), (0, 3.0), (1, 2.0)])
        side = compute_side_corrections(op, res.ground_state)
        assert side.left == pytest.approx(side.right, abs=1e-11)

    def test_dirichlet_limit_vanishes(self):
        op, res = _op_low(1, [(0, 1e6)])
        side = compute_side_corrections(op, res.ground_state)
        assert abs(side.left) < 1e-4

    def test_total_in_unit_interval(self):
        for k, pairs in [(10, [(0, 1.0)]), (60, [(-2, 5.0), (3, 7.0)])]:
            op, res = _op_low(k, pairs)
            side = compute_side_corrections(op, res.ground_state)
            assert 0.0 <= side.total <= 1.0

    def test_empty_potential_rejected(self):
        # assemble_hamiltonian accepts the empty baseline; the bounds do not
        op = assemble_hamiltonian(1, build_potential([]))
        with pytest.raises(ValueError, match="non-empty"):
            compute_side_corrections(op, np.ones(3) / math.sqrt(3))


class TestGroundLowerBound:
    def test_exact_3x3_value(self):
        op, res = _op_low(1, [(0, 5.0)])
        side = compute_side_corrections(op, res.ground_state)
        bound = ground_energy_lower_bound(op, side)
        # both side energies equal 1 here
        assert bound == pytest.approx(2.0 * (0.5 - _A1_EXACT), abs=1e-9)
        assert bound <= res.lambda0

    def test_formula_with_zero_corrections(self):
        from pathgap.bounds import SideCorrections

        bound = ground_energy_lower_bound(_op(7, [(0, 2.0)]), SideCorrections(0.0, 0.0))
        assert bound == pytest.approx(dirichlet_ground_energy(7), abs=1e-15)

    def test_degenerate_corrections_give_zero(self):
        from pathgap.bounds import SideCorrections

        op = _op(7, [(0, 2.0)])
        assert ground_energy_lower_bound(op, SideCorrections(0.5, 0.5)) == 0.0

    def test_side_subpath_precondition(self):
        # assemble_hamiltonian rejects these supports (test_operators); given
        # the pair, side_energies meets an empty side sub-path
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            side_energies(1, build_potential([(1, 2.0)]))
        with pytest.raises(ValueError, match="m must be a positive integer, got -4"):
            side_energies(1, build_potential([(-5, 2.0)]))

    def test_product_nonnegative(self):
        op, res = _op_low(25, [(0, 1.0)])
        side = compute_side_corrections(op, res.ground_state)
        assert side_correction_product(op, side) >= 0.0


class TestCosinePieces:
    @pytest.mark.parametrize("k,pairs", [(10, [(-2, 5.0), (3, 7.0)]), (4, [(0, 1.0)]), (200, [(0, 8.0)])])
    def test_piece_invariants(self, k, pairs):
        op = _op(k, pairs)
        left, right = cosine_pieces(op)
        assert float(np.dot(left, left)) == pytest.approx(0.5, abs=1e-12)
        assert float(np.dot(right, right)) == pytest.approx(0.5, abs=1e-12)
        i_min, i_max = op.potential.site_min + k, op.potential.site_max + k
        # each piece vanishes at its support edge and outside its side
        assert abs(left[i_min]) <= 1e-15
        assert abs(right[i_max]) <= 1e-15
        assert np.all(left[i_min + 1 :] == 0.0)
        assert np.all(right[:i_max] == 0.0)

    def test_normalizers_match_closed_form(self):
        # sum of cos^2((i+1/2) pi/(2m+1)) over i=0..m equals (2m+1)/4,
        # hence each piece is its raw cosine over sqrt((2m+1)/2)
        k = 10
        left, right = cosine_pieces(_op(k, [(-2, 5.0), (3, 7.0)]))
        # i counts sites away from the path end: left from -k, right from k
        for piece, m in ((left[: k - 2 + 1], k - 2), (right[3 + k :][::-1], k - 3)):
            raw = np.cos((np.arange(m + 1) + 0.5) * math.pi / (2 * m + 1))
            np.testing.assert_allclose(
                piece, raw / math.sqrt((2 * m + 1) / 2.0), rtol=0, atol=1e-12
            )

    def test_piece_sum_matches_closed_form(self):
        # sum of cos((i+1/2) x), x = pi/(2m+1), equals cot(x/2)/2
        left, right = cosine_pieces(_op(10, [(-2, 5.0), (3, 7.0)]))
        expected = 0.0
        for m in (8, 7):
            expected += math.sqrt(2.0 / (2 * m + 1)) * 0.5 / math.tan(
                math.pi / (2 * (2 * m + 1))
            )
        assert float(np.sum(left) + np.sum(right)) == pytest.approx(expected, rel=1e-12)


class TestTrialState:
    def test_basic_properties(self):
        op = _op(10, [(0, 1.0)])
        trial = build_trial_state(op)
        b = trial.mixing
        assert 0.0 < b < 1.0
        assert float(np.dot(trial.vector, trial.vector)) == pytest.approx(1.0, abs=1e-12)
        # the floor energy is E_D(k) / (2 + EPSILON) = E_D(k) / 3
        theta_left, theta_right = side_energies(10, op.potential)
        floor_energy = dirichlet_ground_energy(10) / 3.0
        expected = 0.5 * (1.0 - b) * (theta_left + theta_right) + b * floor_energy
        assert ground_energy_upper_bound(op, trial) == expected

    def test_mixing_solves_normalization_relation(self):
        # b = 2 sqrt((1-b) b) a S + (2k+1) b a^2, with floor amplitude
        # a = sqrt(E_D(k) / (2 + EPSILON) / total strength) and S the sum of
        # the cosine pieces
        for k, pairs in [(10, [(0, 1.0)]), (50, [(-2, 5.0), (3, 7.0)])]:
            op = _op(k, pairs)
            left, right = cosine_pieces(op)
            b = build_trial_state(op).mixing
            a = math.sqrt(dirichlet_ground_energy(k) / (2.0 + EPSILON) / op.potential.strength_sum)
            s = float(np.sum(left) + np.sum(right))
            rhs = 2.0 * math.sqrt((1.0 - b) * b) * a * s + (2 * k + 1) * b * a * a
            assert b == pytest.approx(rhs, rel=1e-12)

    def test_strong_potential_kills_mixing(self):
        trial = build_trial_state(_op(10, [(0, 1e9)]))
        assert trial.mixing < 1e-6

    def test_degenerate_branch_rejected(self):
        with pytest.raises(ValueError, match="degenerate mixing branch"):
            build_trial_state(_op(1, [(0, 0.001)]))


class TestGroundUpperBound:
    def test_above_ground_energy_3x3(self):
        op, res = _op_low(1, [(0, 5.0)])
        trial = build_trial_state(op)
        assert ground_energy_upper_bound(op, trial) >= res.lambda0

    def test_zero_mixing_limit_is_side_mean(self):
        op = _op(9, [(0, 1e12)])
        bound = ground_energy_upper_bound(op, build_trial_state(op))
        mean = dirichlet_ground_energy(9)  # both sides equal for J={0}
        assert bound == pytest.approx(mean, rel=1e-5)

    def test_product_positive(self):
        op = _op(20, [(0, 1.0)])
        assert mixing_weight_product(op, build_trial_state(op)) > 0.0


class TestExcitedBounds:
    def test_exact_3x3(self):
        op, res = _op_low(1, [(0, 5.0)])
        lower, upper = excited_energy_bounds(op)
        assert lower == upper == pytest.approx(1.0, abs=1e-14)
        assert res.lambda1 == pytest.approx(1.0, abs=1e-12)

    def test_single_site_collapses(self):
        lower, upper = excited_energy_bounds(_op(17, [(0, 3.3)]))
        assert lower == upper == dirichlet_ground_energy(17)

    def test_two_site_formula(self):
        op, res = _op_low(10, [(-1, 1.0), (1, 1.0)])
        lower, upper = excited_energy_bounds(op)
        assert lower == pytest.approx(dirichlet_ground_energy(10))
        assert upper == pytest.approx(dirichlet_ground_energy(9))
        assert lower <= res.lambda1 <= upper + 1e-12


class TestSingleSiteDiagnostics:
    def test_exact_3x3(self):
        op, res = _op_low(1, [(0, 5.0)])
        phi0, e_pot, scaled = single_site_diagnostics(res, op.potential)
        assert phi0 == pytest.approx(_PHI3[1], abs=1e-10)
        assert e_pot == pytest.approx(5.0 * _PHI3[1] ** 2, abs=1e-9)
        assert scaled == pytest.approx(5.0 * phi0, abs=1e-9)

    def test_multi_site_rejected(self):
        op, res = _op_low(10, [(-1, 1.0), (1, 1.0)])
        with pytest.raises(ValueError, match="single-site"):
            single_site_diagnostics(res, op.potential)


class TestEvaluateBounds:
    def test_small_exact_case(self):
        op, res = _op_low(1, [(0, 5.0)])
        rep = evaluate_bounds(op, res)
        assert rep.all_hold
        names = {c.name for c in rep.checks}
        assert "side_correction_identity" in names
        assert "ground_energy_pair_mean" in names
        # the excited upper bound holds at every k; here with equality, since
        # lambda1 = 1 is the energy of both one-site Dirichlet sides
        upper = next(c for c in rep.checks if c.name == "excited_energy_upper_bound")
        assert upper.applicable and upper.holds
        assert upper.lhs == pytest.approx(upper.rhs, abs=1e-13)
        assert upper.rhs == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("pairs", [[(0, 1.0)], [(-2, 5.0), (3, 7.0)]])
    def test_medium_sweep_point(self, pairs):
        op, res = _op_low(200, pairs)
        rep = evaluate_bounds(op, res)
        assert rep.all_hold
        assert all(c.applicable for c in rep.checks)
        assert rep.ground_lower <= res.lambda0 <= rep.ground_upper
        # the excited sandwich is attained with equality for J={0}; allow
        # eigensolver noise at the library's own slack level
        assert rep.excited_lower - 1e-12 <= res.lambda1 <= rep.excited_upper + 1e-12

    def test_identity_reconstruction(self):
        op, res = _op_low(150, [(-1, 2.0), (0, 3.0), (1, 2.0)])
        rep = evaluate_bounds(op, res)
        check = next(c for c in rep.checks if c.name == "side_correction_identity")
        assert check.holds
        assert abs(check.lhs - check.rhs) <= 1e-10

    def test_trial_rayleigh_check(self):
        op, res = _op_low(80, [(0, 8.0)])
        rep = evaluate_bounds(op, res)
        rq_check = next(c for c in rep.checks if c.name == "trial_rayleigh_above_ground")
        assert rq_check.holds
        assert rq_check.rhs == pytest.approx(
            rayleigh_quotient(op, rep.trial.vector), rel=1e-12
        )

    def test_degenerate_trial_reported_as_skipped(self):
        op, res = _op_low(2, [(0, 0.0001)])
        rep = evaluate_bounds(op, res)
        upper = next(c for c in rep.checks if c.name == "ground_energy_upper_bound")
        assert upper.skipped_reason is not None and "degenerate" in upper.skipped_reason
        assert rep.ground_upper is None
        assert rep.trial is None
        # the remaining applicable checks still hold
        assert rep.all_hold

    def test_internal_trial_error_is_raised_not_skipped(self, monkeypatch):
        # pieces off their norm trip the norm guard, which is no degenerate
        # branch: the report must not read it as two skipped checks
        op, res = _op_low(30, [(0, 1.0)])
        pieces = bounds.cosine_pieces
        monkeypatch.setattr(bounds, "cosine_pieces",
                            lambda op: tuple(1.01 * piece for piece in pieces(op)))
        with pytest.raises(RuntimeError, match="internal error: trial-state norm"):
            evaluate_bounds(op, res)

    def test_json_serialization(self):
        op, res = _op_low(30, [(0, 1.0)])
        rep = evaluate_bounds(op, res)
        payload = rep.to_dict()
        text = json.dumps(payload)
        parsed = json.loads(text)
        assert parsed["k"] == 30
        assert parsed["all_hold"] is True
        for entry in parsed["checks"]:
            assert {"name", "lhs", "rhs", "holds"} <= set(entry)

    def test_report_reads_the_bounds_of_its_checks(self):
        op, res = _op_low(40, [(-2, 5.0), (3, 7.0)])
        rep = evaluate_bounds(op, res)
        assert rep.k == 40 and rep.result is res
        assert rep.ground_lower == ground_energy_lower_bound(op, rep.side)
        assert rep.ground_upper == ground_energy_upper_bound(op, rep.trial)
        assert (rep.excited_lower, rep.excited_upper) == excited_energy_bounds(op)
        d = rep.to_dict()
        assert (d["lambda0"], d["lambda1"], d["gap"]) == (res.lambda0, res.lambda1, res.gap)
        assert (d["side_energy_min"], d["side_energy_max"]) == (
            dirichlet_ground_energy(38), dirichlet_ground_energy(37)
        )

    def test_empty_potential_rejected(self):
        pot = build_potential([])
        op = assemble_hamiltonian(5, pot)
        res = spectrum_low(op)
        with pytest.raises(ValueError, match="non-empty"):
            evaluate_bounds(op, res)
