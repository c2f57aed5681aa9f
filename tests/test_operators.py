import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgap import (
    Potential,
    apply_operator,
    assemble_hamiltonian,
    build_potential,
)

from conftest import eigenvalue, quadratic_form, rayleigh_quotient


def _op(k, pairs):
    return assemble_hamiltonian(k, build_potential(pairs))


class TestBuildPotential:
    def test_single_site(self):
        p = build_potential([(0, 1.5)])
        assert p.site_min == p.site_max == 0
        assert p.support_strengths == (1.5,)
        assert p.strength_min == p.strength_sum == 1.5

    def test_multi_site(self):
        p = build_potential([(-1, 2.0), (0, 3.0), (1, 2.0)])
        assert (p.site_min, p.site_max) == (-1, 1)
        assert p.strength_min == 2.0
        assert p.strength_sum == 7.0
        assert p.support_strengths == (2.0, 3.0, 2.0)
        p = build_potential([(4, 1.5), (-2, 5.0), (1, 7.0)])
        assert (p.site_min, p.site_max) == (-2, 4)
        assert p.support_strengths == (5.0, 0.0, 0.0, 7.0, 0.0, 0.0, 1.5)
        assert p.support_strengths is p.support_strengths  # laid out once

    def test_nonpositive_strength(self):
        # errors name the offending pair by its 1-based position
        for pairs, message in (
            ([(0, -1.0)], "pair 1: non-positive strength"),
            ([(0, 0.0)], "pair 1: non-positive strength"),
            ([(1, 2.0), (0, -3.0)], "pair 2: non-positive strength"),
            ([(0, math.inf)], "pair 1: non-finite strength"),
            ([(0, -math.inf)], "pair 1: non-finite strength"),
            ([(1, 2.0), (0, math.nan)], "pair 2: non-finite strength"),
        ):
            with pytest.raises(ValueError, match=message):
                build_potential(pairs)

    def test_duplicate_site(self):
        for pairs, message in (
            ([(0, 1.0), (0, 2.0)], "pair 2: duplicate site 0"),
            ([(-1, 1.0), (2, 1.0), (-1, 3.0)], "pair 3: duplicate site -1"),
        ):
            with pytest.raises(ValueError, match=message):
                build_potential(pairs)

    def test_scaled_strengths_are_validated(self):
        p = build_potential([(0, 1.5)])
        assert p.scaled(2.0).entries == ((0, 3.0),)
        for factor in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="pair 1: non-"):
                p.scaled(factor)

    def test_empty_is_the_free_baseline(self):
        p = build_potential([])
        assert p == Potential(()) and p.is_empty
        assert p.strength_sum == 0.0
        for name in ("site_min", "site_max", "support_strengths"):
            with pytest.raises(ValueError, match="the empty baseline has no support"):
                getattr(p, name)


class TestAssemble:
    @pytest.mark.parametrize("k", [1, 2, 1000])
    def test_diagonal_is_degree_plus_strength(self, k):
        # degree 1 at the two ends, 2 inside, plus the strength at site 0
        op = _op(k, [(0, 0.5)])
        diag = [1.0] + [2.0] * (2 * k - 1) + [1.0]
        diag[k] += 0.5
        assert op.n == 2 * k + 1
        assert op.diag.tolist() == diag

    @pytest.mark.parametrize("k", [0, -1, 2.5])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError, match="half-width k must be a positive integer"):
            assemble_hamiltonian(k, build_potential([]))

    def test_rejects_a_k_whose_cube_overflows_a_double(self):
        # n**3 * gap must be a double: (2k+1)^3 is finite up to k ~ 2.8e102
        assert assemble_hamiltonian(10**102, build_potential([])).k == 10**102
        with pytest.raises(ValueError, match=r"too large: \(2k\+1\)\^3 overflows a double"):
            assemble_hamiltonian(10**103, build_potential([]))

    def test_free_laplacian(self):
        op = _op(1, [])
        assert op.diag.tolist() == [1.0, 2.0, 1.0]

    def test_with_potential(self):
        op = _op(1, [(0, 5.0)])
        assert op.diag.tolist() == [1.0, 7.0, 1.0]

    def test_empty_side_subpath(self):
        with pytest.raises(ValueError, match="side sub-path"):
            _op(1, [(1, 2.0)])

    def test_site_out_of_range(self):
        # the empty-side rule also keeps every site on the path
        with pytest.raises(ValueError, match=r"support 5\.\.5 leaves an empty side "
                           r"sub-path of the path -2\.\.2"):
            _op(2, [(5, 1.0)])
        with pytest.raises(ValueError, match=r"support -3\.\.1 leaves"):
            _op(2, [(-3, 1.0), (1, 1.0)])

    def test_arrays_frozen(self):
        op = _op(3, [(0, 1.0)])
        with pytest.raises(ValueError):
            op.diag[0] = 9.0

    @pytest.mark.parametrize("k, pairs", [
        (1, []), (1, [(0, 0.5)]), (7, [(-3, 2.0), (5, 1e3)]), (200, []),
        (200, [(-199, 3.5), (0, 1.0), (150, 1e-9)]),
    ])
    def test_apply_operator_is_the_dense_path_laplacian(self, k, pairs):
        # degree plus strength on the diagonal, -1 on every edge, built here
        # without the operator; the columns agree exactly
        n = 2 * k + 1
        diag = np.full(n, 2.0)
        diag[0] = diag[-1] = 1.0
        for site, strength in pairs:
            diag[site + k] += strength
        dense = np.diag(diag) - np.eye(n, k=1) - np.eye(n, k=-1)
        op = _op(k, pairs)
        columns = np.column_stack([apply_operator(op, e) for e in np.eye(n)])
        assert np.array_equal(columns, dense)

    def test_equality_and_hash_are_those_of_k_and_potential(self):
        p = build_potential([(0, 1.0)])
        a, b = assemble_hamiltonian(5, p), assemble_hamiltonian(5, p)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, _op(5, [(0, 2.0)]), _op(6, [(0, 1.0)])}) == 3


class TestQuadraticForm:
    def test_constant_in_kernel(self):
        op = _op(4, [])
        assert quadratic_form(op, np.ones(9)) == 0.0

    def test_hand_sum_gradient(self):
        # (0-1)^2 + (-1-0)^2, potential term vanishes at f(0)=0
        op = _op(1, [(0, 5.0)])
        assert quadratic_form(op, np.array([1.0, 0.0, -1.0])) == pytest.approx(2.0, abs=1e-15)

    def test_hand_sum_potential(self):
        op = _op(1, [(0, 5.0)])
        assert quadratic_form(op, np.ones(3)) == pytest.approx(5.0, abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            quadratic_form(_op(1, []), np.ones(4))


class TestRayleigh:
    def test_examples(self):
        op = _op(1, [(0, 5.0)])
        assert rayleigh_quotient(_op(1, []), np.ones(3)) == 0.0
        assert rayleigh_quotient(op, np.array([1.0, 0.0, -1.0])) == pytest.approx(1.0)
        assert rayleigh_quotient(op, np.ones(3)) == pytest.approx(5.0 / 3.0)

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            rayleigh_quotient(_op(1, []), np.zeros(3))

    @pytest.mark.parametrize("pairs", [[], [(0, 5.0)], [(-1, 2.0), (1, 0.3)]])
    def test_always_above_ground_energy(self, pairs):
        op = _op(4, pairs)
        lam0 = eigenvalue(op, 0)
        rng = np.random.default_rng(42)
        for _ in range(100):
            f = rng.standard_normal(op.n)
            assert rayleigh_quotient(op, f) >= lam0 - 1e-12


@st.composite
def _operator_and_vector(draw):
    k = draw(st.integers(min_value=1, max_value=10))
    lo, hi = (-(k - 1), k - 1) if k > 1 else (0, 0)
    sites = draw(
        st.lists(
            st.integers(min_value=lo, max_value=hi),
            max_size=min(3, hi - lo + 1),
            unique=True,
        )
    )
    strengths = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0),
            min_size=len(sites),
            max_size=len(sites),
        )
    )
    pairs = list(zip(sites, strengths))
    f = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0),
            min_size=2 * k + 1,
            max_size=2 * k + 1,
        )
    )
    return _op(k, pairs), np.array(f)


@given(_operator_and_vector())
@settings(max_examples=50, deadline=None)
def test_form_nonnegative(case):
    op, f = case
    assert quadratic_form(op, f) >= 0.0


@given(_operator_and_vector())
@settings(max_examples=50, deadline=None)
def test_gradient_form_matches_matvec(case):
    # the two evaluation routes agree to 1e-13 relative (operator scale)
    op, f = case
    a = quadratic_form(op, f)
    b = float(np.dot(f, apply_operator(op, f)))
    scale = max(abs(a), abs(b), float(np.dot(f, f)) * op.norm_bound, 1e-300)
    assert abs(a - b) <= 1e-13 * scale


def test_form_matches_matvec_large():
    op = _op(200, [(-3, 2.5), (0, 1.0)])
    rng = np.random.default_rng(3)
    f = rng.standard_normal(op.n)
    a = quadratic_form(op, f)
    b = float(np.dot(f, apply_operator(op, f)))
    assert abs(a - b) <= 1e-13 * max(abs(a), abs(b))


def test_half_edge_sum_equals_gradient_sum():
    # (1/2) sum over ordered pairs of gamma |f(v)-f(w)|^2 equals the
    # one-sided gradient sum
    op = _op(6, [(2, 4.0)])
    rng = np.random.default_rng(11)
    f = rng.standard_normal(op.n)
    pair_sum = 0.0
    for v in range(op.n - 1):
        pair_sum += (f[v + 1] - f[v]) ** 2  # each edge once == half of both orders
    pot_term = 4.0 * f[2 + 6] ** 2
    assert quadratic_form(op, f) == pytest.approx(pair_sum + pot_term, rel=1e-13)
