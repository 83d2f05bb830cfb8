import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqs import gks, linalg
from dqs.linalg import DensityMatrix

from helpers import random_complex, random_hermitian, random_psd, reference_expm, unvec, vec

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------- tolerances

TOLERANCE_CHECKS = {
    # the dispersive qubit: D_H is exactly 0, so any tolerance would pass it
    "is_dispersive": lambda tol: gks.is_dispersive(gks.qubit_liouvillian(-2.5, 2.5, 1.0), tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", list(TOLERANCE_CHECKS))
def test_a_tolerance_must_be_a_positive_number(name, tol):
    with pytest.raises(ValueError, match=re.escape(f"tolerance must be a positive number, got {tol!r}")):
        TOLERANCE_CHECKS[name](tol)


# ---------------------------------------------------------------- eigen

def test_eigen_diagonal_is_sorted():
    w, v = linalg.hermitian_eigen(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [-1.0, 2.0, 3.0])
    # columns match sorted eigenvalues
    assert abs(v[1, 0]) == pytest.approx(1.0)
    assert abs(v[2, 1]) == pytest.approx(1.0)
    assert abs(v[0, 2]) == pytest.approx(1.0)


def test_eigen_pauli_x_by_hand():
    # characteristic polynomial x^2 - 1: eigenvalues -1, +1 with
    # eigenvectors (1, -+1)/sqrt(2)
    w, v = linalg.hermitian_eigen(SX)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    lo = np.array([1.0, -1.0]) / np.sqrt(2.0)
    hi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(np.vdot(lo, v[:, 0])) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(hi, v[:, 1])) == pytest.approx(1.0, abs=1e-12)


def test_eigen_reconstructs_random_hermitian(rng):
    for n in (2, 3, 5, 8):
        for _ in range(5):
            a = random_hermitian(rng, n, scale=3.0)
            w, v = linalg.hermitian_eigen(a)
            scale = np.linalg.norm(a)
            assert np.linalg.norm(a - v @ np.diag(w) @ v.conj().T) <= 1e-11 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12


def test_eigen_matches_numpy_oracle(rng):
    for n in (2, 4, 7):
        a = random_hermitian(rng, n, scale=2.0)
        w, _ = linalg.hermitian_eigen(a)
        expected = np.linalg.eigvalsh(a)
        assert np.abs(w - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        linalg.hermitian_eigen(np.zeros((2, 3)))


def test_small_non_hermitian_matrix_is_rejected():
    # the defect is as large as the matrix, at any scale
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.require_hermitian(1e-12 * np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_degenerate_spectrum(rng):
    a = np.eye(4, dtype=complex) * 2.0
    w, v = linalg.hermitian_eigen(a)
    assert np.allclose(w, 2.0)
    assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= 1e-13


# ---------------------------------------------------------------- expm

def _expm_series(a, terms=40):
    # partial-sum oracle, independent of the Pade route
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def test_expm_zero_is_identity():
    assert np.array_equal(linalg.expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    d = np.diag([0.3, -1.2, 2.0]).astype(complex)
    assert np.allclose(linalg.expm(d), np.diag(np.exp([0.3, -1.2, 2.0])), atol=1e-14)


def test_expm_pauli_rotation():
    # exp(i (pi/2) sx) = cos(pi/2) I + i sin(pi/2) sx = i sx
    got = linalg.expm(1j * (np.pi / 2.0) * SX)
    assert np.allclose(got, 1j * SX, atol=1e-13)
    series = _expm_series(1j * (np.pi / 2.0) * SX)
    assert np.allclose(got, series, atol=1e-13)


def test_expm_scale_argument(rng):
    a = random_complex(rng, (4, 4))
    assert np.allclose(linalg.expm(a, scale=-0.7), linalg.expm(-0.7 * a), atol=1e-13)


def test_expm_matches_scipy(rng):
    for n in (2, 3, 6):
        a = random_complex(rng, (n, n)) * 2.0
        ours = linalg.expm(a)
        ref = scipy.linalg.expm(a)
        assert np.linalg.norm(ours - ref) <= 1e-11 * max(1.0, np.linalg.norm(ref))


def test_expm_normal_matrix_spectral_form(rng):
    h = random_hermitian(rng, 5, scale=4.0)
    w, v = np.linalg.eigh(h)
    ref = v @ np.diag(np.exp(-1.3 * w)) @ v.conj().T
    assert np.linalg.norm(linalg.expm(h, scale=-1.3) - ref) <= 1e-11 * np.linalg.norm(ref)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(1.0, np.inf)])
@pytest.mark.parametrize("scale", [1.0, 0.0])
def test_expm_rejects_non_finite_entries(entry, scale):
    a = np.eye(3, dtype=complex)
    a[1, 2] = entry
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        linalg.expm(a, scale=scale)


@pytest.mark.filterwarnings("error")
def test_expm_reports_overflow_of_finite_matrices():
    big = np.full((2, 2), 1e308, dtype=complex)
    with pytest.raises(ValueError, match="matrix exponential overflowed"):
        linalg.expm(big)
    with pytest.raises(ValueError, match="matrix exponential overflowed"):
        linalg.expm(np.eye(2), scale=1e308)
    with pytest.raises(ValueError, match="matrix exponential overflowed"):
        linalg.expm(800.0 * np.eye(2))


def test_expm_argument_errors_keep_their_order():
    with pytest.raises(ValueError, match="2-d"):
        linalg.expm(np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        linalg.expm(np.full((2, 3), np.nan))
    with pytest.raises(ValueError, match="square"):
        linalg.expm(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        linalg.expm(np.full((2, 2), np.nan), scale=np.inf)
    with pytest.raises(ValueError, match="scale must be finite"):
        linalg.expm(np.eye(2), scale=np.nan)
    with pytest.raises(ValueError, match="scale must be finite"):
        linalg.expm(np.zeros((0, 0)), scale=np.inf)


@settings(max_examples=25)
@given(s=st.floats(-3.0, 3.0), t=st.floats(-3.0, 3.0), seed=st.integers(0, 2**31 - 1))
@example(s=3.0, t=-3.0, seed=60879455)
def test_expm_semigroup_property(s, t, seed):
    # the product's round-off scales with ||e^{sa}|| ||e^{ta}||, not with
    # ||e^{(s+t)a}||: at the example e^{3a} e^{-3a} = I from factors of
    # norm 342 and 36070
    g = np.random.default_rng(seed)
    a = random_complex(g, (3, 3))
    lhs = linalg.expm(a, scale=s + t)
    es, et = linalg.expm(a, scale=s), linalg.expm(a, scale=t)
    bound = 1e-12 * max(1.0, np.linalg.norm(es, 2) * np.linalg.norm(et, 2))
    assert np.linalg.norm(lhs - es @ et) <= bound


def test_expm_keeps_a_real_matrix_real(rng):
    for n in (2, 3, 6):
        for scale in (1.0, -0.7, 40.0):
            a = rng.standard_normal((n, n))
            got = linalg.expm(a, scale=scale)
            ref = linalg.expm(a.astype(complex), scale=scale)
            assert got.dtype == np.float64
            assert np.abs(got - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())
    assert linalg.expm(np.zeros((2, 2), dtype=int)).dtype == np.float64
    assert linalg.expm(SX.real, scale=1j).dtype == np.complex128


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("norm", [699.9, 705.0])
def test_expm_squarings_near_the_overflow_threshold_warn_nothing(norm):
    # below a scaled 1-norm of 700 the squarings skip np.errstate; neither
    # side of that threshold may overflow on the way to a finite result
    a = np.array([[1.0, 0.0], [0.5, -1.0]])
    got = linalg.expm(a, scale=norm / 1.5)
    ref = scipy.linalg.expm(a * (norm / 1.5))
    assert np.isfinite(got).all()
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _expm_outcome(expm, a, scale):
    """(result, None) of one exponential, or (None, message) of its ValueError."""
    try:
        return expm(a, scale), None
    except ValueError as exc:
        return None, str(exc)


def _assert_expm_matches_reference(a, scale):
    got, error = _expm_outcome(linalg.expm, a, scale)
    ref, ref_error = _expm_outcome(reference_expm, a, scale)
    assert error == ref_error, (a, scale)
    if ref is not None:
        assert got.dtype == ref.dtype and np.array_equal(got, ref), (a, scale)


def _with_one_norm(g, n, norm):
    """A real n x n matrix whose 1-norm is exactly norm, carried by one entry below the diagonal.

    The other columns sum to at most half of it, and to at most 0.01 n, so
    the exponential stays finite at any norm.
    """
    a = min(0.01, 0.5 * norm / n) * g.uniform(-1.0, 1.0, (n, n))
    a[:, 0] = 0.0
    a[1, 0] = norm if g.random() < 0.5 else -norm
    return a


@pytest.mark.filterwarnings("error")
def test_expm_matches_its_reference_bit_for_bit():
    # every size 0-16, real, complex and integer entries, scales of both signs and 1j
    g = np.random.default_rng(33)
    scales = (1.0, -1.0, 0.0, 1e-4, -0.37, 3.0, -25.0, 300.0, np.float64(-0.5), 2, 1j)
    for n in range(17):
        for a in (g.standard_normal((n, n)), random_complex(g, (n, n)),
                  g.integers(-3, 4, (n, n))):
            for scale in scales:
                _assert_expm_matches_reference(a, scale)


@pytest.mark.filterwarnings("error")
def test_expm_matches_its_reference_where_the_scaling_rule_turns():
    # 1-norms exactly at 0.5 2^k and one ulp either side, where the squaring
    # count steps, and on both sides of _SAFE_NORM, where np.errstate starts
    g = np.random.default_rng(34)
    norms = [0.5 * 2.0 ** k for k in range(-3, 12)]
    norms += [0.5 * linalg._SAFE_NORM, linalg._SAFE_NORM, 705.0, 4 * linalg._SAFE_NORM]
    for norm in norms:
        for x in (np.nextafter(norm, 0.0), norm, np.nextafter(norm, math.inf)):
            for n in (2, 3, 6):
                a = _with_one_norm(g, n, x)
                assert np.abs(a).sum(axis=0).max() == x
                _assert_expm_matches_reference(a, 1.0)
                _assert_expm_matches_reference(a.astype(complex), 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, scale", [
    (np.full((3, 3), np.nan), 1.0),
    (np.where(np.eye(3) > 0, np.inf, 0.0), 0.0),
    (np.array([[1.0, complex(1.0, np.inf)], [0.0, 1.0]]), 1.0),
    (np.zeros(3), 1.0),
    (np.zeros((2, 3)), 1.0),
    (np.zeros((2, 2, 2)), 1.0),
    (np.full((2, 3), np.nan), 1.0),
    (np.eye(2), np.nan),
    (np.eye(2), np.inf),
    (np.eye(2), -np.inf),
    (np.eye(2), complex(0.0, np.inf)),
    (np.zeros((0, 0)), np.inf),
    (np.full((2, 2), np.nan), np.inf),
    (np.full((2, 2), 1e308, dtype=complex), 1.0),
    (np.eye(2), 1e308),
    (800.0 * np.eye(2), 1.0),
    (np.array([[-800.0, 1.0], [0.0, -800.0]]), -1.0),
], ids=["nan", "inf-at-scale-0", "complex-inf", "1-d", "not-square", "3-d",
        "not-square-nan", "scale-nan", "scale-inf", "scale-minus-inf", "scale-complex-inf",
        "empty-scale-inf", "nan-scale-inf", "overflow", "scale-overflow", "overflow-late",
        "overflow-negative"])
def test_expm_fails_as_its_reference_does(a, scale):
    _, error = _expm_outcome(linalg.expm, a, scale)
    assert error is not None and error == _expm_outcome(reference_expm, a, scale)[1]


def test_expm_results_share_no_memory():
    # the squarings ping-pong between two buffers, so a result ends in either;
    # from 0 to 4 squarings (safe path) and 11, 12 (past _SAFE_NORM)
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    results = [linalg.expm(rotation, scale=s) for s in (0.25, 0.75, 1.5, 3.0, 6.0)]
    results += [linalg.expm(shear, scale=s) for s in (1000.0, 2000.0, 0.25)]
    kept = [r.copy() for r in results]
    for i, r in enumerate(results):
        assert not any(np.shares_memory(r, other) for other in results[i + 1:])
    for i, r in enumerate(results):
        r[...] = -7.0
        assert all(np.array_equal(other, copy)
                   for other, copy in zip(results[i + 1:], kept[i + 1:]))


@pytest.mark.filterwarnings("error")
def test_expms_solve_gufunc_is_the_one_np_linalg_solve_calls():
    # expm calls numpy's private LAPACK gufunc itself: a numpy that moves it
    # or changes what it computes must fail here, not shift expm's bits
    g = np.random.default_rng(35)
    for n in range(1, 17):
        for draw, signature in ((g.standard_normal, "dd->d"),
                                (lambda shape: random_complex(g, shape), "DD->D")):
            # I plus a perturbation of 1-norm 0.3, well-conditioned as expm's den
            e = draw((n, n))
            den = np.eye(n) + 0.3 / np.abs(e).sum(axis=0).max() * e
            rhs = draw((n, n))
            got = linalg._umath_linalg.solve(den, rhs, signature=signature, casting="no")
            ref = np.linalg.solve(den, rhs)
            assert got.dtype == ref.dtype == rhs.dtype and np.array_equal(got, ref), (n, signature)


def test_expm_under_the_callers_errstate_acts_as_its_reference_does():
    # np.linalg.solve sets its own errstate and the bare gufunc does not:
    # under all="raise" expm must still give the reference's bits or raise
    # the reference's exception, over the sizes and scales of the bit-for-bit
    # sweep, scales far enough out that products underflow, and the 1-norms
    # where the scaling rule turns
    kinds = (FloatingPointError, TypeError, ValueError)

    def outcome(expm, a, scale):
        """(result, None), or (None, the kind of exception raised): the
        wrapper's TypeError and the gufunc's UFuncTypeError are one kind."""
        try:
            with np.errstate(all="raise"):
                return expm(a, scale), None
        except kinds as exc:
            return None, next(kind for kind in kinds if isinstance(exc, kind))

    g = np.random.default_rng(36)
    # the wrapper rejects the extended precision a longdouble scale gives b
    scales = (1.0, -1.0, 0.0, 1e-4, -0.37, 3.0, -25.0, 300.0, np.float64(-0.5), 2, 1j,
              1e-310, 1e-160, 1e-300j, 1e100, -1e300, np.longdouble(0.5), np.clongdouble(0.5j))
    cases = [(a, scale) for n in range(17)
             for a in (g.standard_normal((n, n)), random_complex(g, (n, n)),
                       g.integers(-3, 4, (n, n)))
             for scale in scales]
    norms = [0.5 * 2.0 ** k for k in range(-3, 12)] + [linalg._SAFE_NORM, 705.0]
    cases += [(_with_one_norm(g, n, norm).astype(dtype), 1.0)
              for norm in norms for n in (2, 3, 6) for dtype in (float, complex)]
    errors = []
    for a, scale in cases:
        got, error = outcome(linalg.expm, a, scale)
        ref, ref_error = outcome(reference_expm, a, scale)
        assert error == ref_error, (a, scale)
        errors.append(error)
        if ref is not None:
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (a, scale)
    # results, underflows and overflows all occur, so no branch is vacuous; a
    # longdouble wider than float64 adds the rejected dtypes
    assert {None, FloatingPointError, ValueError} <= set(errors)


# ---------------------------------------------------------------- kernel

def test_kernel_of_zero_map_is_everything():
    k = linalg.kernel_basis(np.zeros((4, 3)))
    assert k.shape == (3, 3)
    assert np.allclose(k.conj().T @ k, np.eye(3), atol=1e-12)


def test_kernel_of_identity_is_empty():
    assert linalg.kernel_basis(np.eye(3)).shape == (3, 0)


def test_kernel_of_rank_one_projector():
    m = np.zeros((3, 3))
    m[0, 0] = 1.0
    k = linalg.kernel_basis(m)
    assert k.shape == (3, 2)
    # kernel is the e2/e3 plane: no component along e1
    assert np.abs(k[0, :]).max() <= 1e-12
    assert np.allclose(k.conj().T @ k, np.eye(2), atol=1e-12)


def test_kernel_vectors_are_annihilated(rng):
    a = random_complex(rng, (4, 6))
    a[:, 5] = a[:, 0] + a[:, 1]  # force rank deficiency
    k = linalg.kernel_basis(a)
    assert k.shape[1] >= 1
    norm = np.linalg.norm(a, 2)
    for i in range(k.shape[1]):
        assert np.linalg.norm(a @ k[:, i]) <= 1e-9 * norm


def test_kernel_nullity_of_random_low_rank(rng):
    # decomposing a^dagger a instead of a leaves the zero singular values
    # near sqrt(eps) times the largest, above the default kernel tolerance
    for _ in range(20):
        a = random_complex(rng, (30, 20)) @ random_complex(rng, (20, 30))
        k = linalg.kernel_basis(a)
        assert k.shape == (30, 10)
        assert np.linalg.norm(a @ k) <= 1e-9 * np.linalg.norm(a, 2)
        assert np.allclose(k.conj().T @ k, np.eye(10), atol=1e-12)


# ---------------------------------------------------------------- psd

def test_is_psd_basic():
    assert linalg.is_psd(np.eye(2))
    assert not linalg.is_psd(SZ)
    assert linalg.is_psd(np.zeros((2, 2)))


@settings(max_examples=60)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi))
def test_is_psd_qubit_determinant_rule(a, r, phi):
    # [[a, b], [conj(b), 1-a]] is PSD iff |b|^2 <= a(1-a); sample |b| away
    # from the boundary so the tolerance window never flips the verdict
    limit = np.sqrt(a * (1.0 - a))
    inside = 0.5 * limit * r * np.exp(1j * phi)
    m = np.array([[a, inside], [np.conj(inside), 1.0 - a]])
    assert linalg.is_psd(m)
    if limit > 1e-3:
        outside = 1.5 * limit * np.exp(1j * phi)
        m = np.array([[a, outside], [np.conj(outside), 1.0 - a]])
        assert not linalg.is_psd(m)


def test_psd_bound_reduces_over_the_last_axis(rng):
    w = rng.standard_normal((3, 2, 5)) * np.array([0.1, 10.0])[:, None]
    bound = linalg.psd_bound(w)
    assert bound.shape == (3, 2)
    for idx in np.ndindex(3, 2):
        assert bound[idx] == linalg.psd_bound(w[idx])
        assert bound[idx] == linalg.PSD_TOL * float(np.abs(w[idx]).max())
    # no absolute floor: a zero or empty spectrum gets bound 0
    assert linalg.psd_bound(np.zeros(0)) == linalg.psd_bound(np.zeros(3)) == 0.0


def test_small_indefinite_matrix_is_not_psd():
    assert not linalg.is_psd(1e-12 * np.diag([1.0, -0.5]))


def test_is_psd_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------- density matrices

def test_density_matrix_accepts_states(rng):
    rho = DensityMatrix(random_psd(rng, 3, trace=1.0))
    assert rho.dim == 3
    assert not rho.matrix.flags.writeable


def test_density_matrix_keeps_its_spectrum(rng):
    m = random_psd(rng, 3, trace=1.0)
    rho = DensityMatrix(m)
    assert np.array_equal(rho.spectrum, linalg.hermitian_eigen(m)[0])
    with pytest.raises(ValueError, match="read-only"):
        rho.spectrum[0] = 0.0


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative():
    m = np.array([[1.2, 0.0], [0.0, -0.2]])
    with pytest.raises(ValueError, match="PSD"):
        DensityMatrix(m)


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.1, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(m)


# Each bad state with the message it is rejected with; where a state breaks
# two rules, the rule checked first names it.
BAD_STATES = [
    ([[np.nan, 0.0], [0.0, 1.0]], "matrix has non-finite entries"),
    ([[0.5, 0.3], [0.1, 0.5]],
     "matrix is not Hermitian: defect 2.000e-01 exceeds 1.0e-10 * 1.000e+00"),
    ([[1.0, 0.3], [0.1, 1.0]],
     "matrix is not Hermitian: defect 2.000e-01 exceeds 1.0e-10 * 1.000e+00"),
    ([[1.0, 0.0], [0.0, 1.0]], "density matrix trace deviates from 1 by 1.000e+00"),
    ([[1.5, 0.0], [0.0, -0.2]], "density matrix trace deviates from 1 by 3.000e-01"),
    ([[1.2, 0.0], [0.0, -0.2]], "density matrix is not PSD: min eigenvalue -2.000e-01"),
]


@pytest.mark.parametrize("bad, message", BAD_STATES)
def test_density_spectra_stops_at_the_first_invalid_state(rng, bad, message):
    good = [random_psd(rng, 2, trace=1.0) for _ in range(3)]
    w, error = linalg.density_spectra(np.stack(good + [np.array(bad)] + good))
    assert error == message
    # the stacked eigh gives each matrix the bits of its own decomposition
    assert np.array_equal(w, [linalg.hermitian_eigen(g)[0] for g in good])
    with pytest.raises(ValueError) as exc:
        DensityMatrix(bad)
    assert str(exc.value) == message


def test_density_spectra_accepts_whole_and_empty_stacks(rng):
    states = np.stack([random_psd(rng, 3, trace=1.0) for _ in range(5)])
    w, error = linalg.density_spectra(states)
    assert error is None and w.shape == (5, 3)
    w, error = linalg.density_spectra(states[:0])
    assert error is None and w.shape == (0, 3)


def test_density_matrix_shape_errors_keep_their_messages():
    with pytest.raises(ValueError, match=r"expected a 2-d matrix, got shape \(2,\)"):
        DensityMatrix([0.5, 0.5])
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(1, 2\)"):
        DensityMatrix([[0.5, 0.5]])


# ---------------------------------------------------------------- near the float maximum

def test_frobenius_rescales_only_when_the_plain_norm_overflows(rng):
    m = random_complex(rng, (4, 4))
    assert linalg.frobenius(m) == float(np.linalg.norm(m))
    assert linalg.frobenius(np.diag([1e200, -1e200])) == pytest.approx(2 ** 0.5 * 1e200,
                                                                       rel=1e-15)
    assert linalg.frobenius([[1e300 + 1e300j]]) == pytest.approx(2 ** 0.5 * 1e300, rel=1e-15)
    # a norm past the float range is infinite, without a warning
    assert linalg.frobenius(np.full((2, 2), 1.5e308)) == np.inf


def test_hermitian_part_halves_before_it_sums(rng):
    stack = random_complex(rng, (5, 3, 3))
    assert np.array_equal(linalg.hermitian_part(stack),
                          0.5 * (stack + stack.conj().swapaxes(1, 2)))
    big = np.array([[1.5e308, 1.5e308], [1.5e308, 0.0]])
    assert np.array_equal(linalg.hermitian_part(big), big)
    w, _ = linalg.hermitian_eigen(np.diag([1e308, 0.0]))
    assert w.tolist() == [0.0, 1e308]


@pytest.mark.filterwarnings("error")
def test_hermiticity_defect_halves_before_it_subtracts():
    m = np.array([[0.5, 0.3], [0.1, 0.5]])
    assert linalg.hermiticity_defect(m) == abs(0.3 - 0.1)
    # the defect 3e308 is past the float range: it reads as the largest float
    # and the matrix is still judged not Hermitian
    h = np.array([[0.0, 1.5e308], [-1.5e308, 0.0]])
    assert linalg.hermiticity_defect(h) == np.finfo(float).max
    with pytest.raises(ValueError, match="not Hermitian: defect 1.798e[+]308"):
        linalg.require_hermitian(h)


# ---------------------------------------------------------------- vec plumbing (tests/helpers.py)

def test_vec_column_stacking_identity(rng):
    a = random_complex(rng, (3, 3))
    b = random_complex(rng, (3, 3))
    x = random_complex(rng, (3, 3))
    lhs = vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ vec(x)
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(unvec(vec(x), 3), x)
