import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dqs import linalg
from dqs.linalg import DensityMatrix

from helpers import random_complex, random_hermitian, random_psd

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


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
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(0, 2**31 - 1))
def test_expm_semigroup_property(s, t, seed):
    g = np.random.default_rng(seed)
    a = random_complex(g, (3, 3))
    lhs = linalg.expm(a, scale=s + t)
    rhs = linalg.expm(a, scale=s) @ linalg.expm(a, scale=t)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(lhs))


# ---------------------------------------------------------------- singular values / norms

def test_trace_norm_frozen_cases():
    assert linalg.trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)
    assert linalg.trace_norm(0.7 * SX) == pytest.approx(1.4, abs=1e-12)
    rho = np.array([[0.5, 0.25], [0.25, 0.5]])
    assert linalg.trace_norm(rho) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_matches_numpy_oracle(rng):
    a = random_complex(rng, (5, 5))
    expected = np.linalg.svd(a, compute_uv=False).sum()
    assert linalg.trace_norm(a) == pytest.approx(expected, rel=1e-11)


def test_trace_norm_dominates_operator_norm(rng):
    for _ in range(10):
        a = random_complex(rng, (4, 4))
        assert linalg.trace_norm(a) >= linalg.operator_norm(a) - 1e-12


def test_trace_norm_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        linalg.trace_norm(np.zeros((2, 3)))


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
    norm = linalg.operator_norm(a)
    for i in range(k.shape[1]):
        assert np.linalg.norm(a @ k[:, i]) <= 1e-9 * norm


def test_kernel_nullity_of_random_low_rank(rng):
    # decomposing a^dagger a instead of a leaves the zero singular values
    # near sqrt(eps) times the largest, above the default kernel tolerance
    for _ in range(20):
        a = random_complex(rng, (30, 20)) @ random_complex(rng, (20, 30))
        k = linalg.kernel_basis(a)
        assert k.shape == (30, 10)
        assert np.linalg.norm(a @ k) <= 1e-9 * linalg.operator_norm(a)
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
    bound = linalg.psd_bound(w, 1e-8)
    assert bound.shape == (3, 2)
    for idx in np.ndindex(3, 2):
        assert bound[idx] == linalg.psd_bound(w[idx], 1e-8)
        assert bound[idx] == 1e-8 * max(1.0, float(np.abs(w[idx]).max()))
    assert linalg.psd_bound(np.zeros(0)) == linalg.PSD_TOL


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


# ---------------------------------------------------------------- vec plumbing

def test_vec_column_stacking_identity(rng):
    a = random_complex(rng, (3, 3))
    b = random_complex(rng, (3, 3))
    x = random_complex(rng, (3, 3))
    lhs = linalg.vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ linalg.vec(x)
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(linalg.unvec(linalg.vec(x), 3), x)
