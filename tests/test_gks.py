import math

import numpy as np
import pytest

from dqs import gks, linalg
from dqs.gks import GKSLiouvillian, KossakowskiMatrix, OperatorBasis

from helpers import (random_complex, random_density, random_hermitian, random_liouvillian,
                     random_unitary, reference_dissipation_operator, reference_dissipator,
                     reference_superop)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def dispersive_kossakowski(lam):
    a = np.zeros((3, 3))
    a[2, 2] = lam
    return a


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


# ---------------------------------------------------------------- dissipator

def test_dissipator_zero_coefficients(rng):
    b = gks.gell_mann_basis(2)
    s = random_hermitian(rng, 2)
    assert np.abs(gks.dissipator_apply(np.zeros((3, 3)), b, s)).max() == 0.0


def test_dissipator_dephasing_on_pauli_x():
    # a with a_33 = lam acts on sx as (lam/2)(sz sx sz - sx) = -lam sx
    b = gks.gell_mann_basis(2)
    lam = 0.8
    out = gks.dissipator_apply(dispersive_kossakowski(lam), b, SX)
    assert np.allclose(out, -lam * SX, atol=1e-14)


def test_dissipator_dephasing_scales_coherences(rng):
    b = gks.gell_mann_basis(2)
    lam = 1.3
    rho = random_density(rng, 2).matrix
    out = gks.dissipator_apply(dispersive_kossakowski(lam), b, rho)
    expected = np.array([[0.0, -lam * rho[0, 1]], [-lam * rho[1, 0], 0.0]])
    assert np.allclose(out, expected, atol=1e-14)


def test_dissipator_preserves_trace_and_hermiticity(rng):
    for n in (2, 3):
        liou = random_liouvillian(rng, n)
        for _ in range(20):
            s = random_hermitian(rng, n, scale=2.0)
            out = gks.dissipator_apply(liou.kossakowski, liou.basis, s)
            assert abs(np.trace(out)) <= 1e-11
            assert linalg.hermiticity_defect(out) <= 1e-11


# ---------------------------------------------------------------- liouvillian

def test_liouvillian_apply_unitary_part_annihilates_h(rng):
    liou = gks.GKSLiouvillian(np.diag([1.0, -1.0]).astype(complex),
                              KossakowskiMatrix(2, np.zeros((3, 3))),
                              gks.gell_mann_basis(2))
    assert np.abs(gks.liouvillian_apply(liou, liou.hamiltonian)).max() <= 1e-14


def test_dispersive_qubit_liouvillian_action(rng):
    lam, e1, e0 = 0.7, 2.0, -1.0
    delta = e1 - e0
    liou = gks.qubit_liouvillian(e0, e1, lam)
    rho = random_density(rng, 2).matrix
    out = gks.liouvillian_apply(liou, rho)
    expected = np.array([
        [0.0, -(lam + 1j * delta) * rho[0, 1]],
        [-(lam - 1j * delta) * rho[1, 0], 0.0],
    ])
    assert np.allclose(out, expected, atol=1e-13)
    # diagonal states are stationary
    assert np.abs(gks.liouvillian_apply(liou, np.diag([0.3, 0.7]))).max() <= 1e-14


def test_superop_matches_direct_action(rng):
    for n in (2, 3):
        liou = random_liouvillian(rng, n)
        m = liou.superop
        for _ in range(20):
            s = random_complex(rng, (n, n))
            direct = gks.liouvillian_apply(liou, s)
            via_matrix = linalg.unvec(m @ linalg.vec(s), n)
            assert np.abs(direct - via_matrix).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bloch_generator_is_real_with_an_exact_zero_last_row(rng, n):
    liou = random_liouvillian(rng, n)
    r = liou.bloch
    assert r.dtype == np.float64 and r.shape == (n * n, n * n)
    assert not r.flags.writeable and liou.bloch is r
    assert np.all(r[-1] == 0.0)
    g = gks.gell_mann_basis(n).elements
    for j in range(n * n):
        out = gks.liouvillian_apply(liou, g[j])
        coords = [np.trace(gi @ out) for gi in g]
        assert np.abs(r[:, j] - coords).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_matches_textbook_double_sum(rng, n):
    liou = random_liouvillian(rng, n)
    h, a, basis = liou.hamiltonian, liou.kossakowski.matrix, liou.basis
    assert np.abs(np.triu(h, 1)).max() > 0.01
    assert np.abs(liou.superop - reference_superop(h, a, basis)).max() <= 1e-12
    assert np.abs(gks.dissipation_operator(liou)
                  - reference_dissipation_operator(a, basis, h)).max() <= 1e-12
    for _ in range(5):
        s = random_complex(rng, (n, n))
        assert np.abs(gks.dissipator_apply(a, basis, s)
                      - reference_dissipator(a, basis, s)).max() <= 1e-12
        # duality: D_H is the adjoint dissipator at H, tr(rho D_H) = tr(H D(rho))
        rho = random_density(rng, n).matrix
        lhs = np.trace(rho @ gks.dissipation_operator(liou))
        rhs = np.trace(h @ gks.dissipator_apply(a, basis, rho))
        assert abs(lhs - rhs) <= 1e-12


def test_dissipation_from_parts_rejects_non_hermitian_coefficients():
    a = np.zeros((3, 3))
    a[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        gks.dissipation_from_parts(a, gks.gell_mann_basis(2), np.diag([1.0, -1.0]))


def test_superop_zero_model():
    liou = gks.GKSLiouvillian(np.zeros((2, 2)),
                              KossakowskiMatrix(2, np.zeros((3, 3))),
                              gks.gell_mann_basis(2))
    assert np.abs(liou.superop).max() == 0.0


def test_dispersive_qubit_superop_spectrum():
    lam, delta = 0.9, 4.0
    liou = gks.qubit_liouvillian(0.0, delta, lam)
    eigs = np.sort_complex(np.linalg.eigvals(liou.superop))
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
    assert np.abs(liou2.superop - liou.superop).max() <= 1e-12


def test_verdict_bound_survives_an_overflowing_hamiltonian_norm():
    # ||H||_F = 3e308 is past the float range but 1e-9 ||H||_F is not; an
    # infinite bound would call every finite residual dispersive
    a = np.zeros((8, 8))
    a[0, 0] = 1.0
    liou = gks.GKSLiouvillian(np.full((3, 3), 1e308), KossakowskiMatrix(3, a),
                              gks.gell_mann_basis(3))
    verdict = gks.is_dispersive(liou)
    assert not verdict.dispersive and np.isfinite(verdict.residual)
    # the Bloch generator is built on first use only, and refuses to overflow
    with pytest.raises(ValueError, match="^generator overflows$"):
        liou.bloch
    # with tol ||H||_F itself past the float range every finite residual is below it
    assert gks.is_dispersive(liou, tol=1e10).dispersive


def test_generator_and_dissipation_operator_refuse_to_overflow():
    basis = gks.gell_mann_basis(2)
    z = np.zeros((3, 3))
    z[2, 2] = 1.0
    with pytest.raises(ValueError, match="^generator overflows$"):
        GKSLiouvillian(np.diag([1.7e308, -1.7e308]), KossakowskiMatrix(2, z), basis)
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
    assert linalg.is_psd(proj, 1e-8)


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
    # column c is the coordinate vector of D_H(e_c), by the S(a) core; an H
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
    # the map is gathered from H-contracted GKS terms, so no N^2 x N^2 S(a)
    # is built for any coordinate direction
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
    assert calls == [(3, 3)]


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


def kernel_hamiltonians(rng):
    """Random H at N = 2, 3, 4, a rotated nondegenerate qubit H and the
    degenerate and diagonal special cases: 19 Hamiltonians."""
    hs = [random_hermitian(rng, n) for n in (2, 3, 4) for _ in range(5)]
    u = random_unitary(rng, 2)
    hs.append(u @ np.diag([1.3, -0.4]) @ u.conj().T)
    hs += [2.2 * np.eye(2), 2.2 * np.eye(3), np.diag([2.5, -2.5])]
    return hs


def test_kernel_flags_match_is_psd(rng):
    tol = 1e-8
    for h in kernel_hamiltonians(rng):
        report = gks.dispersive_kossakowski_kernel(h, gks.gell_mann_basis(h.shape[0]),
                                                   psd_tol=tol)
        kernel = np.array(report.kernel)
        assert report.element_psd == tuple(linalg.is_psd(m, tol) for m in kernel)
        assert report.negation_psd == tuple(linalg.is_psd(-m, tol) for m in kernel)
        assert len(report.samples) == 200
        for k, sample in enumerate(report.samples):
            c = sample.coefficients
            assert type(sample.psd) is bool
            assert sample.psd == linalg.is_psd(sample.matrix, tol)
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
            direct = gks.dissipator_apply(a, basis, s)
            rebuilt = np.zeros((n, n), dtype=complex)
            for v in ops:
                vdv = v.conj().T @ v
                rebuilt += v @ s @ v.conj().T - 0.5 * (vdv @ s + s @ vdv)
            assert np.abs(direct - rebuilt).max() <= 1e-10
