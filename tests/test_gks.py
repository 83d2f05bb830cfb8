import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqs import dynamics, gks, linalg
from dqs.gks import GKSLiouvillian, KossakowskiMatrix, OperatorBasis

from helpers import (random_complex, random_density, random_hermitian, random_liouvillian,
                     random_psd, random_unitary, reference_dissipation_operator,
                     reference_dissipator, reference_superop, superop_of, unvec, vec)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def dispersive_kossakowski(lam):
    a = np.zeros((3, 3))
    a[2, 2] = lam
    return a


def apply_generator(liou, sigma):
    """L(sigma) through the generator matrix on column-stacked states."""
    return unvec(superop_of(liou) @ vec(sigma), liou.dim)


def apply_dissipator(a, basis, sigma):
    """The dissipator alone: the generator with H = 0 applied to sigma."""
    n = basis.dim
    return apply_generator(GKSLiouvillian(np.zeros((n, n)), KossakowskiMatrix(n, a), basis),
                           sigma)


# ---------------------------------------------------------------- basis

def test_gell_mann_qubit_is_scaled_paulis():
    b = gks.gell_mann_basis(2)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(b.elements[0], s * SX)
    assert np.allclose(b.elements[1], s * SY)
    assert np.allclose(b.elements[2], s * SZ)
    assert np.allclose(b.elements[3], s * np.eye(2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gell_mann_orthonormal_and_traceless(n):
    b = gks.gell_mann_basis(n)
    assert len(b.elements) == n * n
    gram = np.array([[np.trace(x.conj().T @ y) for y in b.elements] for x in b.elements])
    assert np.abs(gram - np.eye(n * n)).max() <= 1e-12
    for e in b.traceless:
        assert abs(np.trace(e)) <= 1e-12
    assert np.allclose(b.elements[-1], np.eye(n) / np.sqrt(n))


def test_basis_rejects_bad_families():
    eye = np.eye(2, dtype=complex)
    s = 1.0 / np.sqrt(2)
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorBasis(2, (s * SX, s * SX, s * SZ, s * eye))
    with pytest.raises(ValueError, match="traceless"):
        OperatorBasis(2, (s * eye, s * SY, s * SZ, s * eye))
    with pytest.raises(ValueError, match="last"):
        OperatorBasis(2, (s * SX, s * SY, s * SZ, s * SZ))


# ---------------------------------------------------------------- kossakowski

def test_kossakowski_validates():
    KossakowskiMatrix(2, np.eye(3))
    with pytest.raises(ValueError, match="PSD"):
        KossakowskiMatrix(2, -np.eye(3))
    with pytest.raises(ValueError, match="Hermitian"):
        KossakowskiMatrix(2, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))
    with pytest.raises(ValueError, match="3 x 3"):
        KossakowskiMatrix(2, np.eye(4))


def test_kossakowski_spectrum_is_the_read_only_one_that_decided_psd(rng):
    # a Hermitian defect within tolerance: the spectrum is that of the Hermitian part
    a = random_psd(rng, 8)
    a[0, 1] += 1e-13
    koss = KossakowskiMatrix(3, a)
    assert np.array_equal(koss.spectrum, np.linalg.eigvalsh(linalg.hermitian_part(a)))
    with pytest.raises(ValueError, match="read-only"):
        koss.spectrum[0] = 1.0


def test_small_indefinite_kossakowski_matrix_is_invalid():
    # an eigenvalue of -0.1 times the largest is no round-off at any scale;
    # the flow of this model at t = 0.01/c is not CP
    with pytest.raises(ValueError, match="PSD"):
        KossakowskiMatrix(2, 1e-12 * np.diag([1.0, -0.1, 0.0]))


BAD_HAMILTONIANS = {
    "wrong-shape": (np.eye(3), "Hamiltonian shape (3, 3) does not match basis dimension 2"),
    "not-hermitian": ([[0.0, 1.0], [0.0, 0.0]],
                      "matrix is not Hermitian: defect 1.000e+00 exceeds 1.0e-10 * 1.000e+00"),
    "non-finite": ([[math.nan, 0.0], [0.0, 1.0]], "matrix has non-finite entries"),
}
HAMILTONIAN_USERS = {
    "GKSLiouvillian": lambda h, b: GKSLiouvillian(h, KossakowskiMatrix(2, np.eye(3)), b),
    "dissipation_from_parts": lambda h, b: gks.dissipation_from_parts(np.eye(3), b, h),
    "dispersive_kossakowski_kernel": lambda h, b: gks.dispersive_kossakowski_kernel(h, b, samples=0),
}


@pytest.mark.parametrize("bad", list(BAD_HAMILTONIANS))
@pytest.mark.parametrize("user", list(HAMILTONIAN_USERS))
def test_every_hamiltonian_user_applies_one_rule(user, bad):
    h, message = BAD_HAMILTONIANS[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HAMILTONIAN_USERS[user](h, gks.gell_mann_basis(2))


def test_qubit_liouvillian_rejects_a_non_integer_axis_and_a_non_finite_rate():
    for axis in (1.0, True, "1", 0, 4):
        with pytest.raises(ValueError, match="^axis must be the integer 1, 2 or 3"):
            gks.qubit_liouvillian(-1.0, 1.0, 0.5, axis=axis)
    for lam in (math.nan, math.inf, -0.5):
        with pytest.raises(ValueError, match="^damping rate must be finite and nonnegative"):
            gks.qubit_liouvillian(-1.0, 1.0, lam)
    assert gks.qubit_liouvillian(-1.0, 1.0, 0.5, axis=np.int64(1)).kossakowski.matrix[0, 0] == 0.5


# ---------------------------------------------------------------- dissipator

def test_dissipator_zero_coefficients(rng):
    b = gks.gell_mann_basis(2)
    s = random_hermitian(rng, 2)
    assert np.abs(apply_dissipator(np.zeros((3, 3)), b, s)).max() == 0.0


def test_dissipator_dephasing_on_pauli_x():
    # a with a_33 = lam acts on sx as (lam/2)(sz sx sz - sx) = -lam sx
    b = gks.gell_mann_basis(2)
    lam = 0.8
    out = apply_dissipator(dispersive_kossakowski(lam), b, SX)
    assert np.allclose(out, -lam * SX, atol=1e-14)


def test_dissipator_dephasing_scales_coherences(rng):
    b = gks.gell_mann_basis(2)
    lam = 1.3
    rho = random_density(rng, 2).matrix
    out = apply_dissipator(dispersive_kossakowski(lam), b, rho)
    expected = np.array([[0.0, -lam * rho[0, 1]], [-lam * rho[1, 0], 0.0]])
    assert np.allclose(out, expected, atol=1e-14)


def test_dissipator_preserves_trace_and_hermiticity(rng):
    for n in (2, 3):
        liou = random_liouvillian(rng, n)
        for _ in range(20):
            s = random_hermitian(rng, n, scale=2.0)
            out = apply_dissipator(liou.kossakowski.matrix, liou.basis, s)
            assert abs(np.trace(out)) <= 1e-11
            assert linalg.hermiticity_defect(out) <= 1e-11


# ---------------------------------------------------------------- liouvillian

def test_liouvillian_apply_unitary_part_annihilates_h(rng):
    liou = gks.GKSLiouvillian(np.diag([1.0, -1.0]).astype(complex),
                              KossakowskiMatrix(2, np.zeros((3, 3))),
                              gks.gell_mann_basis(2))
    assert np.abs(apply_generator(liou, liou.hamiltonian)).max() <= 1e-14


def test_dispersive_qubit_liouvillian_action(rng):
    lam, e1, e0 = 0.7, 2.0, -1.0
    delta = e1 - e0
    liou = gks.qubit_liouvillian(e0, e1, lam)
    rho = random_density(rng, 2).matrix
    out = apply_generator(liou, rho)
    expected = np.array([
        [0.0, -(lam + 1j * delta) * rho[0, 1]],
        [-(lam - 1j * delta) * rho[1, 0], 0.0],
    ])
    assert np.allclose(out, expected, atol=1e-13)
    # diagonal states are stationary
    assert np.abs(apply_generator(liou, np.diag([0.3, 0.7]))).max() <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bloch_generator_is_real_with_an_exact_zero_last_row(rng, n):
    liou = random_liouvillian(rng, n)
    r = liou.bloch
    assert r.dtype == np.float64 and r.shape == (n * n, n * n)
    assert not r.flags.writeable and liou.bloch is r
    assert np.all(r[-1] == 0.0)
    g = gks.gell_mann_basis(n).elements
    ref = reference_superop(liou.hamiltonian, liou.kossakowski.matrix, liou.basis)
    for j in range(n * n):
        out = unvec(ref @ vec(g[j]), n)
        coords = [np.trace(gi @ out) for gi in g]
        assert np.abs(r[:, j] - coords).max() <= 1e-12


def test_liouvillian_holds_one_generator_matrix():
    # R is the only matrix a model stores beside its inputs
    assert [f.name for f in dataclasses.fields(GKSLiouvillian)] == [
        "hamiltonian", "kossakowski", "basis", "bloch"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_matches_textbook_double_sum(rng, n):
    liou = random_liouvillian(rng, n)
    h, a, basis = liou.hamiltonian, liou.kossakowski.matrix, liou.basis
    assert np.abs(np.triu(h, 1)).max() > 0.01
    assert np.abs(superop_of(liou) - reference_superop(h, a, basis)).max() <= 1e-12
    assert np.abs(gks.dissipation_operator(liou)
                  - reference_dissipation_operator(a, basis, h)).max() <= 1e-12
    for _ in range(5):
        s = random_complex(rng, (n, n))
        assert np.abs(apply_dissipator(a, basis, s)
                      - reference_dissipator(a, basis, s)).max() <= 1e-12
        # duality: D_H is the adjoint dissipator at H, tr(rho D_H) = tr(H D(rho))
        rho = random_density(rng, n).matrix
        lhs = np.trace(rho @ gks.dissipation_operator(liou))
        rhs = np.trace(h @ reference_dissipator(a, basis, rho))
        assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("n", [5, 6, 8])
def test_dissipation_operator_matches_textbook_double_sum_at_larger_n(rng, n):
    # D_H alone: the generator's reference_superop is too slow at N = 8
    liou = random_liouvillian(rng, n)
    h, a, basis = liou.hamiltonian, liou.kossakowski.matrix, liou.basis
    ref = reference_dissipation_operator(a, basis, h)
    assert np.abs(gks.dissipation_operator(liou) - ref).max() <= 1e-13 * np.abs(ref).max()


def _exact_zero_models(rng):
    """(label, model) pairs whose H commutes with every jump operator."""
    from helpers import random_psd
    for c in (1e-150, 1.0, 1e150):
        yield f"dephasing qubit c={c:g}", gks.qubit_liouvillian(-c, c, c)
    for n in (3, 4):
        # diagonal H, a supported on the diagonal traceless Gell-Mann elements
        a = np.zeros((n * n - 1, n * n - 1), dtype=complex)
        a[n * (n - 1):, n * (n - 1):] = 1e100 * random_psd(rng, n - 1)
        h = 1e100 * np.diag(rng.standard_normal(n))
        yield f"eigenbasis dephasing N={n}", GKSLiouvillian(h, KossakowskiMatrix(n, a),
                                                             gks.gell_mann_basis(n))
    for n in (2, 3, 4):
        for c in (1.0, 1e100):
            a = KossakowskiMatrix(n, random_psd(rng, n * n - 1))
            yield f"H = {c:g} I, N={n}", GKSLiouvillian(c * np.eye(n), a, gks.gell_mann_basis(n))


def test_dissipation_operator_is_exactly_zero_when_h_commutes_with_the_jumps(rng):
    # the commutator contraction cancels exactly, whatever the scale; the
    # plain F^+ H G - {F^+ G, H}/2 leaves ~1e284 on the 1e150 qubit, and
    # S(a)^+ vec H, the adjoint of the dissipator matrix, leaves round-off on H = c I
    for label, liou in _exact_zero_models(rng):
        assert np.all(gks.dissipation_operator(liou) == 0), label
        assert gks.is_dispersive(liou) == (True, 0.0), label


def test_dissipation_from_parts_rejects_non_hermitian_coefficients():
    a = np.zeros((3, 3))
    a[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        gks.dissipation_from_parts(a, gks.gell_mann_basis(2), np.diag([1.0, -1.0]))


def test_superop_zero_model():
    liou = gks.GKSLiouvillian(np.zeros((2, 2)),
                              KossakowskiMatrix(2, np.zeros((3, 3))),
                              gks.gell_mann_basis(2))
    assert np.abs(liou.bloch).max() == 0.0
    assert np.abs(superop_of(liou)).max() == 0.0


def test_dispersive_qubit_superop_spectrum():
    lam, delta = 0.9, 4.0
    liou = gks.qubit_liouvillian(0.0, delta, lam)
    eigs = np.sort_complex(np.linalg.eigvals(superop_of(liou)))
    expected = np.sort_complex(np.array([0.0, 0.0, -lam - 1j * delta, -lam + 1j * delta]))
    assert np.abs(eigs - expected).max() <= 1e-12


def test_liouvillian_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="Hamiltonian"):
        gks.GKSLiouvillian(np.zeros((3, 3)), KossakowskiMatrix(2, np.zeros((3, 3))),
                           gks.gell_mann_basis(2))


# ---------------------------------------------------------------- dissipation operator

def test_dispersive_qubit_has_zero_dissipation_operator(rng):
    for _ in range(10):
        e0 = rng.uniform(-2, 2)
        e1 = e0 + rng.uniform(0.1, 3)
        lam = rng.uniform(0, 3)
        liou = gks.qubit_liouvillian(e0, e1, lam)
        assert linalg.frobenius(gks.dissipation_operator(liou)) <= 1e-13
        verdict = gks.is_dispersive(liou)
        assert verdict.dispersive


def test_x_damped_qubit_dissipation_operator():
    # damping along sx with H = c I + (delta/2) sz gives
    # D_H = (lam/2)(sx H sx - H) = -(lam delta / 2) sz
    lam, e1, e0 = 0.6, 2.5, -2.5
    delta = e1 - e0
    liou = gks.qubit_liouvillian(e0, e1, lam, axis=1)
    dh = gks.dissipation_operator(liou)
    assert np.allclose(dh, -(lam * delta / 2.0) * SZ, atol=1e-13)
    verdict = gks.is_dispersive(liou)
    assert not verdict.dispersive
    assert verdict.residual == pytest.approx(lam * delta / np.sqrt(2.0), rel=1e-12)


def test_unitary_model_is_trivially_dispersive(rng):
    h = random_hermitian(rng, 3, scale=2.0)
    liou = gks.GKSLiouvillian(h, KossakowskiMatrix(3, np.zeros((8, 8))),
                              gks.gell_mann_basis(3))
    assert gks.is_dispersive(liou).dispersive


def test_proportional_hamiltonian_is_dispersive_for_any_dissipator(rng):
    # H = c I commutes through every term of D_H
    from helpers import random_psd
    a = random_psd(rng, 8, trace=1.0)
    liou = gks.GKSLiouvillian(1.7 * np.eye(3), KossakowskiMatrix(3, a),
                              gks.gell_mann_basis(3))
    assert gks.is_dispersive(liou).dispersive


def test_dissipation_operator_is_hermitian(rng):
    for n in (2, 3):
        liou = random_liouvillian(rng, n)
        dh = gks.dissipation_operator(liou)
        assert linalg.hermiticity_defect(dh) <= 1e-12


def test_dispersiveness_survives_basis_rotation(rng):
    # rebuild the dispersive qubit in a randomly rotated traceless basis:
    # G_i = sum_k V_ki F_k with a' = V^+ a V represents the same dissipator
    liou = gks.qubit_liouvillian(-1.0, 1.5, 0.9)
    f = liou.basis.elements
    v = random_unitary(rng, 3)
    rotated = [sum(v[k, i] * f[k] for k in range(3)) for i in range(3)]
    basis2 = OperatorBasis(2, (*rotated, f[3]))
    a2 = v.conj().T @ dispersive_kossakowski(0.9) @ v
    liou2 = gks.GKSLiouvillian(liou.hamiltonian, KossakowskiMatrix(2, a2), basis2)
    assert linalg.frobenius(gks.dissipation_operator(liou2)) <= 1e-10
    # and the generator itself is unchanged
    assert np.abs(superop_of(liou2) - superop_of(liou)).max() <= 1e-12


def test_verdict_bound_survives_an_overflowing_hamiltonian_norm():
    # ||H||_F is past the float range but 1e-9 ||H||_F is not; an infinite
    # bound would call every finite residual dispersive.  The identity part
    # of H cancels in the generator, so R stays finite (max |R| = 2e301)
    a = np.zeros((15, 15))
    a[0, 0] = 1.0
    h = 1e308 * np.eye(4) + 1e301 * np.diag([1.0, -1.0, 0.0, 0.0])
    liou = gks.GKSLiouvillian(h, KossakowskiMatrix(4, a), gks.gell_mann_basis(4))
    assert linalg.frobenius(h) == math.inf
    assert np.isfinite(liou.bloch).all()
    verdict = gks.is_dispersive(liou)
    assert not verdict.dispersive and np.isfinite(verdict.residual)
    # with tol ||H||_F itself past the float range every finite residual is below it
    assert gks.is_dispersive(liou, tol=1e10).dispersive


def test_generator_and_dissipation_operator_refuse_to_overflow():
    basis = gks.gell_mann_basis(2)
    z = np.zeros((3, 3))
    z[2, 2] = 1.0
    with pytest.raises(ValueError, match="^generator overflows$"):
        GKSLiouvillian(np.diag([1.7e308, -1.7e308]), KossakowskiMatrix(2, z), basis)
    # L is finite here, but its change of basis to R overflows
    a = np.zeros((8, 8))
    a[0, 0] = 1.0
    with pytest.raises(ValueError, match="^generator overflows$"):
        GKSLiouvillian(np.full((3, 3), 1e308), KossakowskiMatrix(3, a), gks.gell_mann_basis(3))
    x = np.zeros((3, 3))
    x[0, 0] = 1e308
    liou = GKSLiouvillian(np.diag([2.5, -2.5]), KossakowskiMatrix(2, x), basis)
    with pytest.raises(ValueError, match="^dissipation operator overflows$"):
        gks.dissipation_operator(liou)


# ---------------------------------------------------------------- kernel solver

def test_qubit_dispersion_kernel_dimension_and_ray():
    basis = gks.gell_mann_basis(2)
    h = np.diag([1.0, -2.0]).astype(complex)
    report = gks.dispersive_kossakowski_kernel(h, basis, samples=400)
    assert report.dimension == 5  # frozen regression value for nondegenerate H
    assert report.map_matrix.shape == (4, 9)

    # every kernel element leaves D_H at zero
    for m in report.kernel:
        dh = gks.dissipation_from_parts(m, basis, h)
        assert linalg.frobenius(dh) <= 1e-10

    # the dephasing direction e3 e3^T lies in the kernel span
    ray = np.zeros((3, 3))
    ray[2, 2] = 1.0
    coords = gks.hermitian_coords(ray)
    span = np.column_stack([gks.hermitian_coords(m) for m in report.kernel])
    residual = coords - span @ (span.T @ coords)
    assert np.linalg.norm(residual) <= 1e-10

    # PSD members of the kernel lie on that ray and nowhere else
    for m, plus, minus in zip(report.kernel, report.element_psd, report.negation_psd):
        for mat, flag in ((m, plus), (-m, minus)):
            if flag:
                t = mat.trace().real
                assert t > 0
                assert np.abs(mat - t * ray).max() <= 1e-7
    for sample in report.samples:
        if sample.psd:
            t = sample.matrix.trace().real
            assert t > 0
            assert np.abs(sample.matrix - t * ray).max() <= 1e-7
    # the ray itself projects onto itself inside the kernel and is PSD there
    proj = gks.coords_to_hermitian(span @ (span.T @ coords), 3)
    assert np.abs(proj - ray).max() <= 1e-10
    assert linalg.is_psd(proj)


def test_dispersion_kernel_dimension_is_basis_independent(rng):
    # the kernel dimension of a nondegenerate qubit H is 5 whatever its
    # eigenbasis; a rotated H must not lose kernel directions
    basis = gks.gell_mann_basis(2)
    for _ in range(5):
        u = random_unitary(rng, 2)
        h = u @ np.diag([2.5, -2.5]) @ u.conj().T
        report = gks.dispersive_kossakowski_kernel(h, basis, samples=0)
        assert report.dimension == 5
        for m in report.kernel:
            assert linalg.frobenius(gks.dissipation_from_parts(m, basis, h)) <= 1e-10
    # at N = 3, 4 a random H, its rotations and diag(eig H) share one dimension
    for n in (3, 4):
        basis = gks.gell_mann_basis(n)
        h = random_hermitian(rng, n)
        hs = [h, np.diag(np.linalg.eigvalsh(h))]
        hs += [u @ h @ u.conj().T for u in (random_unitary(rng, n) for _ in range(2))]
        dims = set()
        for hh in hs:
            report = gks.dispersive_kossakowski_kernel(hh, basis, samples=0)
            dims.add(report.dimension)
            for m in report.kernel:
                assert linalg.frobenius(gks.dissipation_from_parts(m, basis, hh)) <= 1e-10
        assert len(dims) == 1 and dims.pop() > 0


def test_kernel_map_singular_values_are_basis_invariant():
    # mixing the traceless elements by a unitary is an isometry of the
    # coefficient matrices; in isometric coordinates the map keeps its
    # singular values, and so the rank cut keeps its meaning
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 3)
    gm = gks.gell_mann_basis(3)
    u = random_unitary(rng, 8)
    mixed = np.einsum("ji,jkl->ikl", u, np.stack(gm.traceless))
    rotated = OperatorBasis(3, tuple(mixed) + (gm.elements[-1],))
    s = [np.linalg.svd(gks.dispersive_kossakowski_kernel(h, b, samples=0).map_matrix,
                       compute_uv=False) for b in (gm, rotated)]
    assert np.abs(s[1] - s[0]).max() <= 1e-12 * s[0][0]


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_elements_are_frobenius_orthonormal(rng, n):
    kernel = gks.dispersive_kossakowski_kernel(random_hermitian(rng, n),
                                               gks.gell_mann_basis(n), samples=0).kernel
    gram = np.einsum("aij,bij->ab", np.conj(kernel), kernel)
    assert np.abs(gram - np.eye(len(kernel))).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_map_columns_are_dissipation_operators(rng, n):
    # column c is the coordinate vector of D_H(e_c), by dissipation_from_parts; an H
    # with a 1e-11 anti-Hermitian part (which require_hermitian accepts) must
    # give the map of its Hermitian part, as D_H's Hermitian coordinates do
    basis = gks.gell_mann_basis(n)
    h = random_hermitian(rng, n)
    x = random_complex(rng, (n, n))
    k = n * n - 1
    for hh in (h, h + 0.5e-11 * (x - x.conj().T)):
        phi = gks.dispersive_kossakowski_kernel(hh, basis, samples=0).map_matrix
        assert phi.shape == (n * n, k * k)
        for c, e in enumerate(np.eye(k * k)):
            dh = gks.dissipation_from_parts(gks.coords_to_hermitian(e, k), basis, hh)
            assert np.abs(phi[:, c] - gks.hermitian_coords(dh)).max() <= 1e-12


def test_kernel_query_builds_no_dissipator_superoperator(rng, monkeypatch):
    # the map and D_H are gathered from H-contracted GKS terms, so no N^2 x N^2
    # S(a) is built for any coordinate direction, nor for D_H itself
    calls = []
    original = gks._dissipator_superop

    def counting(a, basis):
        calls.append(a.shape)
        return original(a, basis)
    monkeypatch.setattr(gks, "_dissipator_superop", counting)
    for n in (2, 3, 4):
        gks.dispersive_kossakowski_kernel(random_hermitian(rng, n), gks.gell_mann_basis(n))
    assert calls == []
    gks.dissipation_from_parts(np.eye(3), gks.gell_mann_basis(2), SZ)
    assert calls == []


def test_degenerate_hamiltonian_kernel_is_everything(rng):
    basis = gks.gell_mann_basis(2)
    report = gks.dispersive_kossakowski_kernel(2.2 * np.eye(2), basis, samples=0)
    assert report.dimension == 9
    # a rotated multiple of I carries ~1e-16 off-diagonals, so the map is pure
    # round-off; every model with this H is dispersive, so the kernel is all
    for n in (2, 3):
        u = random_unitary(rng, n)
        h = u @ (2.2 * np.eye(n)) @ u.conj().T
        report = gks.dispersive_kossakowski_kernel(h, gks.gell_mann_basis(n), samples=0)
        assert report.dimension == (n * n - 1) ** 2


@pytest.mark.parametrize("spectrum, dimension", [
    ((0.0, 1e-9, 0.0), 64), ((0.0, 1.2e-9), 9), ((0.0, 1.6e-9), 5)])
def test_near_tolerance_kernel_dimension_is_decided_once(rng, spectrum, dimension):
    # the identity part c I puts the zero bound _ROUNDOFF ||H||_F at 1e-9, so
    # ||H0||_F is 0.82, 0.85 and 1.13 times it, where phi's singular values
    # straddle the bound: counting them one at a time gave 59 to 63 at N = 3
    # and 7 at N = 2, dimensions no H can have
    n = len(spectrum)
    basis = gks.gell_mann_basis(n)
    c = 1e-9 / (gks._ROUNDOFF * math.sqrt(n))
    for _ in range(20):
        u = random_unitary(rng, n)
        h = u @ np.diag(c + np.array(spectrum)) @ u.conj().T
        assert gks.dispersive_kossakowski_kernel(h, basis, samples=0).dimension == dimension


def test_small_nondegenerate_qubit_hamiltonian_has_a_kernel_of_dimension_5():
    # the closed form gives 5 for every H = c diag(1, -1), c != 0
    basis = gks.gell_mann_basis(2)
    for c in (1e-12, 1e-9, 1.0, 1e12):
        assert gks.dispersive_kossakowski_kernel(c * SZ, basis, samples=0).dimension == 5


@pytest.mark.filterwarnings("error")
def test_kernel_reports_overflow_as_one_error():
    basis = gks.gell_mann_basis(2)
    # tr(H)/N is summed from the scaled diagonal, so H0 = 0 without overflow
    assert gks.dispersive_kossakowski_kernel(1.5e308 * np.eye(2), basis,
                                             samples=0).dimension == 9
    with pytest.raises(ValueError, match="^dispersion map overflows$"):
        gks.dispersive_kossakowski_kernel(np.diag([1e308, -1e308]), basis)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.one_of(st.none(), st.floats(0.5, 0.99), st.floats(1.01, 2.0)))
def test_kernel_rank_and_verdict_are_basis_invariant(n, seed, levels, near):
    # a spectrum with at most `levels` distinct energies; `near` scales it and
    # adds an identity part of norm 1 so that ||H0||_F is that multiple of the
    # zero bound _ROUNDOFF ||H||_F, to 1e-9
    g = np.random.default_rng(seed)
    spectrum = g.standard_normal(levels)[g.integers(0, levels, n)]
    flat = spectrum.min() == spectrum.max()  # H0 = 0
    if near is not None and not flat:
        spectrum = (1.0 / math.sqrt(n) + near * gks._ROUNDOFF
                    * (spectrum - spectrum.mean()) / np.linalg.norm(spectrum - spectrum.mean()))
    full = (n * n - 1) ** 2
    expected = full if flat or (near is not None and near < 1) else full - n * n
    basis = gks.gell_mann_basis(n)
    u = random_unitary(g, n)
    # a jump operator diagonal in H's eigenbasis commutes with H: dispersive
    jump = np.diag(g.standard_normal(n))
    for w in (np.eye(n), u):
        h = w @ np.diag(spectrum) @ w.conj().T
        kernel = gks.dispersive_kossakowski_kernel(h, basis, samples=0)
        assert kernel.dimension == expected
        if expected < full:
            h0 = linalg.frobenius(h - np.trace(h).real / n * np.eye(n))
            s_min = np.linalg.svd(kernel.map_matrix, compute_uv=False)[-1]
            # phi and H0 carry the round-off of H's identity part, ~eps ||H||_F
            assert s_min >= h0 / math.sqrt(2.0) * (1.0 - 1e-12) - 1e-15 * linalg.frobenius(h)
        v = w @ jump @ w.conj().T
        c = np.array([np.trace(f.conj().T @ v) for f in basis.traceless])
        liou = GKSLiouvillian(h, KossakowskiMatrix(n, np.outer(c, c.conj())), basis)
        assert gks.is_dispersive(liou).dispersive


def kernel_hamiltonians(rng):
    """Random H at N = 2, 3, 4, a rotated nondegenerate qubit H and the
    degenerate and diagonal special cases: 19 Hamiltonians."""
    hs = [random_hermitian(rng, n) for n in (2, 3, 4) for _ in range(5)]
    u = random_unitary(rng, 2)
    hs.append(u @ np.diag([1.3, -0.4]) @ u.conj().T)
    hs += [2.2 * np.eye(2), 2.2 * np.eye(3), np.diag([2.5, -2.5])]
    return hs


def test_kernel_flags_match_is_psd(rng):
    for h in kernel_hamiltonians(rng):
        report = gks.dispersive_kossakowski_kernel(h, gks.gell_mann_basis(h.shape[0]))
        kernel = np.array(report.kernel)
        assert report.element_psd == tuple(linalg.is_psd(m) for m in kernel)
        assert report.negation_psd == tuple(linalg.is_psd(-m) for m in kernel)
        assert len(report.samples) == 200
        for k, sample in enumerate(report.samples):
            c = sample.coefficients
            assert type(sample.psd) is bool
            assert sample.psd == linalg.is_psd(sample.matrix)
            assert np.abs(sample.matrix - np.tensordot(c, kernel, axes=1)).max() <= 1e-12
            assert abs(np.linalg.norm(c) - 1.0) <= 1e-15
            assert k < 100 or (c >= 0).all()


def test_kernel_query_decomposes_one_stack(rng, monkeypatch):
    # the kernel elements, their negations and all samples share one eigvalsh
    # call; no per-matrix PSD check runs
    counts = {"is_psd": 0, "eigh": 0, "eigvalsh": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((linalg, "is_psd"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        counting(module, name)
    h = random_hermitian(rng, 3)
    seen = []
    for samples in (20, 200):
        counts.update(is_psd=0, eigh=0, eigvalsh=0)
        report = gks.dispersive_kossakowski_kernel(h, gks.gell_mann_basis(3), samples=samples)
        assert len(report.samples) == samples
        seen.append(dict(counts))
    assert seen[0]["is_psd"] == seen[1]["is_psd"] == 0
    assert seen[0] == seen[1]


def test_kernel_solver_rejects_non_hermitian_h():
    with pytest.raises(ValueError, match="Hermitian"):
        gks.dispersive_kossakowski_kernel(np.array([[0, 1], [0, 0.0]]),
                                          gks.gell_mann_basis(2))


def test_coordinate_round_trip(rng):
    a = random_hermitian(rng, 4, scale=2.0)
    x = gks.hermitian_coords(a)
    assert x.shape == (16,)
    assert np.linalg.norm(x) == pytest.approx(2.0, rel=1e-14)  # a Frobenius isometry
    assert np.abs(gks.coords_to_hermitian(x, 4) - a).max() <= 1e-14


def test_coordinate_order():
    # diagonal, then sqrt(2) (re, im) of each upper-triangle entry
    a = np.array([[1, 2 + 3j, 4 + 5j], [2 - 3j, 6, 7 + 8j], [4 - 5j, 7 - 8j, 9]])
    coords = [1, 6, 9] + (math.sqrt(0.5) * np.array([4, 6, 8, 10, 14, 16])).tolist()
    assert gks.hermitian_coords(a).tolist() == coords
    assert np.abs(gks.coords_to_hermitian(coords, 3) - a).max() <= 1e-14


# ---------------------------------------------------------------- lindblad form

def test_lindblad_operators_dispersive_qubit():
    basis = gks.gell_mann_basis(2)
    lam = 1.7
    ops = gks.lindblad_operators(dispersive_kossakowski(lam), basis)
    assert len(ops) == 1
    v = ops[0]
    # unique up to phase: sqrt(lam) sz / sqrt(2); proportionality shows up as
    # equality in Cauchy-Schwarz for the trace inner product
    target = np.sqrt(lam / 2.0) * SZ
    overlap = abs(np.trace(v.conj().T @ target))
    assert overlap == pytest.approx(linalg.frobenius(v) * linalg.frobenius(target), rel=1e-12)
    assert linalg.frobenius(v) == pytest.approx(np.sqrt(lam), rel=1e-12)


def test_lindblad_operators_diagonal_coefficients():
    basis = gks.gell_mann_basis(2)
    a = np.diag([0.5, 0.0, 2.0])
    ops = gks.lindblad_operators(a, basis)
    assert len(ops) == 2
    norms = sorted(linalg.frobenius(v) for v in ops)
    assert norms[0] == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert norms[1] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_lindblad_operators_empty_for_zero():
    assert gks.lindblad_operators(np.zeros((3, 3)), gks.gell_mann_basis(2)) == []


def test_small_coefficient_matrix_keeps_its_jump_operators():
    # 1e-11 I_3 is three equal rates, not zero
    ops = gks.lindblad_operators(1e-11 * np.eye(3), gks.gell_mann_basis(2))
    assert len(ops) == 3


def test_lindblad_operators_reject_indefinite():
    a = np.diag([1.0, -0.5, 0.0])
    with pytest.raises(ValueError, match="PSD"):
        gks.lindblad_operators(a, gks.gell_mann_basis(2))


def test_lindblad_reconstruction_matches_dissipator(rng):
    from helpers import random_psd
    for n in (2, 3):
        basis = gks.gell_mann_basis(n)
        for _ in range(25):
            a = random_psd(rng, n * n - 1, trace=rng.uniform(0.2, 2.0))
            ops = gks.lindblad_operators(a, basis)
            s = random_hermitian(rng, n, scale=1.5)
            direct = reference_dissipator(a, basis, s)
            rebuilt = np.zeros((n, n), dtype=complex)
            for v in ops:
                vdv = v.conj().T @ v
                rebuilt += v @ s @ v.conj().T - 0.5 * (vdv @ s + s @ vdv)
            assert np.abs(direct - rebuilt).max() <= 1e-10


# ---------------------------------------------------------------- units

def accepts(check, *args):
    try:
        check(*args)
    except ValueError:
        return False
    return True


def unit_free_verdicts(h, a, basis):
    """(a valid, H valid, dispersive, kernel dimension); the last two are None
    for an invalid model."""
    n = basis.dim
    valid = accepts(KossakowskiMatrix, n, a), accepts(linalg.require_hermitian, h)
    if not all(valid):
        return (*valid, None, None)
    liou = GKSLiouvillian(h, KossakowskiMatrix(n, a), basis)
    kernel = gks.dispersive_kossakowski_kernel(h, basis, samples=0)
    return True, True, gks.is_dispersive(liou).dispersive, kernel.dimension


def eigenbasis_dephasing(g, u, basis):
    """A Kossakowski matrix whose N - 1 jump operators are traceless and
    diagonal in the basis u, so that they commute with every H diagonal there."""
    n = basis.dim
    jumps = [(u * (lambda d: d - d.mean())(g.standard_normal(n))) @ u.conj().T
             for _ in range(n - 1)]
    c = np.array([[np.trace(f.conj().T @ v) for f in basis.traceless] for v in jumps]).T
    return c @ c.conj().T


def witness_at_scale(h, a, basis, s):
    """(t s, sign of the Choi minimum) of the witness of (s H, s a) on the grid (0.5, 2)/s."""
    liou = GKSLiouvillian(s * h, KossakowskiMatrix(basis.dim, s * a), basis)
    w = dynamics.time_reversal_witness(liou, np.array([0.5, 2.0]) / s)
    return None if w is None else (round(w.t * s, 9), np.sign(w.choi_min_eigenvalue))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(["dispersive", "generic", "invalid"]),
       st.floats(-12.0, 12.0), st.floats(-12.0, 12.0), st.floats(-1.0, 1.0))
def test_verdicts_do_not_depend_on_the_units(n, seed, kind, h_exp, a_exp, shift):
    # D_H(a) = 0 is linear in a and sees H only through H0: scaling H0 and a
    # by any factors and adding c I to H, |c| <= 1e8 ||H0||_F, changes no verdict
    g = np.random.default_rng(seed)
    basis = gks.gell_mann_basis(n)
    k = n * n - 1
    u = random_unitary(g, n)
    d = g.standard_normal(n)
    h0 = linalg.hermitian_part((u * (d - d.mean())) @ u.conj().T)
    if kind == "dispersive":
        a = eigenbasis_dephasing(g, u, basis)
    else:
        a = random_psd(g, k, trace=1.0)
    if kind == "invalid":
        # an eigenvalue of -0.1 times the largest, and an anti-Hermitian part
        # as large as H0
        w, q = np.linalg.eigh(a)
        w[0] = -0.1 * w[-1]
        a = (q * w) @ q.conj().T
        x = random_complex(g, (n, n))
        h0 = h0 + linalg.frobenius(h0) * (x - x.conj().T) / linalg.frobenius(x - x.conj().T)
    unit = unit_free_verdicts(h0, a, basis)
    assert unit[:3] == {"dispersive": (True, True, True), "generic": (True, True, False),
                        "invalid": (False, False, None)}[kind]
    s_h, s_a = 10.0 ** h_exp, 10.0 ** a_exp
    c = shift * 1e8 * s_h * linalg.frobenius(h0)
    assert unit_free_verdicts(s_h * h0 + c * np.eye(n), s_a * a, basis) == unit
    if kind != "invalid":
        assert witness_at_scale(h0, a, basis, s_h) == witness_at_scale(h0, a, basis, 1.0)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_dispersive_verdict_survives_the_largest_shift(rng, n):
    # c I with |c| = 1e8 ||H0||_F leaves D_H's round-off as the whole bound;
    # it stays within 1.42 eps sqrt(N) ||a||_F ||H||_F, far below _ROUNDOFF
    eps = np.finfo(float).eps
    basis = gks.gell_mann_basis(n)
    for _ in range(3):
        u = random_unitary(rng, n)
        d = rng.standard_normal(n)
        h0 = linalg.hermitian_part((u * (d - d.mean())) @ u.conj().T)
        models = {True: eigenbasis_dephasing(rng, u, basis),
                  False: random_psd(rng, n * n - 1, trace=1.0)}
        for dispersive, a in models.items():
            for shift in (0.0, -1e8, 1e8):
                h = h0 + shift * linalg.frobenius(h0) * np.eye(n)
                verdict = gks.is_dispersive(GKSLiouvillian(h, KossakowskiMatrix(n, a), basis))
                assert verdict.dispersive == dispersive
                if dispersive:
                    scale = math.sqrt(n) * linalg.frobenius(a) * linalg.frobenius(h)
                    assert verdict.residual <= 2.0 * eps * scale


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ratio", [0.5, 1e3])
def test_kernel_dimension_agrees_with_is_dispersive_under_a_large_identity_part(rng, n, ratio):
    # ||H0||_F is `ratio` times _ROUNDOFF ||H||_F under c I = 1e6 I: at 0.5
    # the kernel is everything and every a is dispersive, at 1e3 neither
    basis = gks.gell_mann_basis(n)
    full = (n * n - 1) ** 2
    u = random_unitary(rng, n)
    d = rng.standard_normal(n)
    d = ratio * gks._ROUNDOFF * 1e6 * math.sqrt(n) * (d - d.mean()) / np.linalg.norm(d - d.mean())
    h = linalg.hermitian_part((u * (1e6 + d)) @ u.conj().T)
    dimension = gks.dispersive_kossakowski_kernel(h, basis, samples=0).dimension
    assert dimension == (full if ratio < 1 else full - n * n)
    for _ in range(5):
        liou = GKSLiouvillian(h, KossakowskiMatrix(n, random_psd(rng, n * n - 1)), basis)
        assert gks.is_dispersive(liou).dispersive == (ratio < 1)
    # H = I + 1e-10 diag(1, -1) exchanges energy under sigma_x damping
    h = np.eye(2) + 1e-10 * SZ
    liou = GKSLiouvillian(h, KossakowskiMatrix(2, np.diag([1.0, 0.0, 0.0])), gks.gell_mann_basis(2))
    assert gks.dispersive_kossakowski_kernel(h, gks.gell_mann_basis(2), samples=0).dimension == 5
    assert not gks.is_dispersive(liou).dispersive


@pytest.mark.parametrize("n", [4, 8])
def test_large_kossakowski_entry_keeps_the_unit_scale_verdict(n):
    # sqrt(N) ||a||_F overflows at a_11 = 1e308 while D_H, about 1.4e308,
    # and its zero bound do not: the bound must not read as infinite
    basis = gks.gell_mann_basis(n)
    h = np.diag([1.0, -1.0] + [0.0] * (n - 2))
    a = np.zeros((n * n - 1, n * n - 1))
    for a11 in (1.0, 1e308):
        a[0, 0] = a11
        verdict = gks.is_dispersive(GKSLiouvillian(h, KossakowskiMatrix(n, a), basis))
        assert not verdict.dispersive and np.isfinite(verdict.residual)
