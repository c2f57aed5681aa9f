"""The Python-float kernels against array-indexed reference loops.

The ``_ref_*`` functions index the arrays element by element, so they
compute on numpy float64 scalars.  Both versions perform the same IEEE
double operations in the same order, so every result must agree bit for
bit, pivot substitution and clamping included.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathgap import _kernels, eigensolver
from pathgap.cli import parse_potential_spec
from pathgap.operators import assemble_hamiltonian


def _ref_sturm_count(diag, offsq, mu, subst):
    count = 0
    d = diag[0] - mu
    if d == 0.0:
        d = subst
    if d < 0.0:
        count += 1
    for i in range(1, diag.shape[0]):
        d = (diag[i] - mu) - offsq[i - 1] / d
        if d == 0.0:
            d = subst
        if d < 0.0:
            count += 1
    return count


def _ref_bisect_bracket(diag, offsq, index, lo, hi, rel_tol, lam_floor, subst):
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        scale = abs(mid)
        if scale < lam_floor:
            scale = lam_floor
        if hi - lo <= rel_tol * scale:
            break
        if _ref_sturm_count(diag, offsq, mid, subst) >= index + 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _ref_factor_shifted(diag, off, sigma, pivot_floor):
    n = diag.shape[0]
    piv = np.empty(n)
    mult = np.empty(n - 1)
    d = diag[0] - sigma
    if pivot_floor > 0.0 and abs(d) < pivot_floor:
        d = pivot_floor if d >= 0.0 else -pivot_floor
    piv[0] = d
    for i in range(1, n):
        m = off[i - 1] / piv[i - 1]
        mult[i - 1] = m
        d = (diag[i] - sigma) - m * off[i - 1]
        if pivot_floor > 0.0 and abs(d) < pivot_floor:
            d = pivot_floor if d >= 0.0 else -pivot_floor
        piv[i] = d
    return piv, mult


def _ref_solve_factored(piv, mult, off, rhs):
    n = piv.shape[0]
    y = np.empty(n)
    y[0] = rhs[0]
    for i in range(1, n):
        y[i] = rhs[i] - mult[i - 1] * y[i - 1]
    x = np.empty(n)
    x[n - 1] = y[n - 1] / piv[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (y[i] - off[i] * x[i + 1]) / piv[i]
    return x


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _frozen(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


# Small integers make exact-zero pivots (the ``subst`` and ``pivot_floor``
# branches) common; general floats cover rounding in every operation.
_entry = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(1, 24))
    diag = _frozen(draw(st.lists(_entry, min_size=n, max_size=n)))
    off = _frozen(draw(st.lists(_entry, min_size=n - 1, max_size=n - 1)))
    return diag, off


def _free_laplacian(n):
    diag = np.full(n, 2.0)
    diag[0] = diag[-1] = 1.0
    return _frozen(diag), _frozen(np.full(n - 1, -1.0))


def _examples(test):
    """The free Laplacian at shift 0 has an exact-zero last pivot; n = 1 has
    no off-diagonal at all."""
    for n, shift in ((5, 0.0), (1, 0.0), (1, 1.0)):
        test = example(matrix=_free_laplacian(n), shift=shift)(test)
    return test


SUBST = 1e-15
PIVOT_FLOOR = 1e-150


@settings(max_examples=150, deadline=None)
@_examples
@given(matrix=tridiagonals(), shift=_entry)
def test_sturm_count_matches_reference(matrix, shift):
    diag, off = matrix
    offsq = off * off
    # at a computed eigenvalue the last pivot is rounding noise, so there a
    # count depends on the order of every operation
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    for mu in [shift, *np.linalg.eigvalsh(dense).tolist()]:
        with np.errstate(all="ignore"):  # the reference warns where both overflow
            want = _ref_sturm_count(diag, offsq, mu, SUBST)
        assert _kernels.sturm_count(diag, offsq, mu, SUBST) == want


@settings(max_examples=100, deadline=None)
@example(matrix=_free_laplacian(5), index=0, digits=14)
@example(matrix=_free_laplacian(1), index=0, digits=14)
@given(matrix=tridiagonals(), index=st.integers(0, 23), digits=st.integers(2, 15))
def test_bisect_bracket_matches_reference(matrix, index, digits):
    diag, off = matrix
    offsq = off * off
    # a Gershgorin bracket holds every eigenvalue
    reach = 2.0 * float(np.max(np.abs(off), initial=0.0)) + 1.0
    lo, hi = float(np.min(diag)) - reach, float(np.max(diag)) + reach
    args = (diag, offsq, index % diag.shape[0], lo, hi, 10.0**-digits, 1e-300, SUBST)
    with np.errstate(all="ignore"):
        want = _ref_bisect_bracket(*args)
    assert _bits(_kernels.bisect_bracket(*args)) == _bits(want)


def test_bisect_bracket_matches_reference_on_the_paper_operator():
    # the benchmark's size, n = 3201; the hypothesis cases above have n <= 24
    op = assemble_hamiltonian(1600, parse_potential_spec("0:1"))
    offsq = np.ones(op.n - 1)
    subst = eigensolver.EPS * op.norm_bound
    for index in (0, 1):
        args = (op.diag, offsq, index, 0.0, op.norm_bound,
                eigensolver.REL_TOL, eigensolver.LAMBDA_FLOOR, subst)
        assert _bits(_kernels.bisect_bracket(*args)) == _bits(_ref_bisect_bracket(*args))


@settings(max_examples=150, deadline=None)
@_examples
@given(matrix=tridiagonals(), shift=_entry)
def test_factor_and_solve_match_reference(matrix, shift):
    # the kernels use the path's unit coupling: the general reference at -1
    diag = matrix[0]
    off = _frozen(np.full(diag.shape[0] - 1, -1.0))
    with np.errstate(all="ignore"):
        want_piv, want_mult = _ref_factor_shifted(diag, off, shift, PIVOT_FLOOR)
        piv, mult = _kernels.factor_shifted(diag, shift, PIVOT_FLOOR)
        assert _bits(piv) == _bits(want_piv)
        assert _bits(mult) == _bits(want_mult)

        rhs = _frozen(np.linspace(1.0, 2.0, diag.shape[0]))
        x = _kernels.solve_factored(piv, mult, rhs)
        assert _bits(x) == _bits(_ref_solve_factored(want_piv, want_mult, off, rhs))
    assert x.dtype == np.float64 and x.shape == diag.shape
    assert x.flags.writeable  # ground_state normalizes the solution in place


def test_exact_zero_pivots_take_the_substitutes():
    diag, off = _free_laplacian(5)
    # every pivot of the free Laplacian at 0 is 1 except the last, exactly 0
    assert _kernels.sturm_count(diag, off * off, 0.0, SUBST) == 0
    piv, _ = _kernels.factor_shifted(diag, 0.0, PIVOT_FLOOR)
    assert piv[-1] == PIVOT_FLOOR
