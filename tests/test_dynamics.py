import numpy as np
import pytest

from dqs import dynamics, gks, linalg
from dqs.gks import KossakowskiMatrix
from dqs.linalg import KERNEL_TOL, DensityMatrix

from helpers import random_density, random_hermitian, random_liouvillian

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def dispersive_qubit(lam=1.0, delta=5.0):
    return gks.qubit_liouvillian(-0.5 * delta, 0.5 * delta, lam)


def coherent_state(a=0.5, b=0.5):
    return DensityMatrix(np.array([[a, b], [np.conj(b), 1.0 - a]]))


def closed_form_matrix(a, b, lam, delta, t):
    z = b * np.exp(-(lam + 1j * delta) * t)
    return np.array([[a, z], [np.conj(z), 1.0 - a]])


# ---------------------------------------------------------------- propagation

def test_propagate_at_zero_time_is_identity(rng):
    liou = random_liouvillian(rng, 3)
    rho = random_density(rng, 3)
    out = dynamics.propagate(liou, rho, 0.0)
    assert np.abs(out.matrix - rho.matrix).max() <= 1e-14


def test_propagate_rejects_negative_time(rng):
    liou = dispersive_qubit()
    with pytest.raises(ValueError, match="nonnegative"):
        dynamics.propagate(liou, coherent_state(), -0.1)


def test_propagate_rejects_a_state_of_another_dimension():
    with pytest.raises(ValueError, match="expected square of dim 2"):
        dynamics.propagate(dispersive_qubit(), np.eye(3) / 3.0, 1.0)


def test_propagate_matches_dephasing_closed_form():
    lam, delta = 0.8, 3.0
    liou = dispersive_qubit(lam, delta)
    a, b = 0.6, 0.3 + 0.25j
    for t in (0.1, 0.7, 2.0, 9.0):
        out = dynamics.propagate(liou, coherent_state(a, b), t)
        assert np.abs(out.matrix - closed_form_matrix(a, b, lam, delta, t)).max() <= 1e-12


def test_propagate_unitary_model_is_conjugation(rng):
    h = random_hermitian(rng, 3, scale=1.0)
    liou = gks.GKSLiouvillian(h, KossakowskiMatrix(3, np.zeros((8, 8))),
                              gks.gell_mann_basis(3))
    rho = random_density(rng, 3)
    t = 1.3
    w, v = np.linalg.eigh(h)
    u = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
    expected = u @ rho.matrix @ u.conj().T
    out = dynamics.propagate(liou, rho, t)
    assert np.abs(out.matrix - expected).max() <= 1e-12


def test_propagated_states_stay_valid(rng):
    for n in (2, 3):
        for _ in range(5):
            liou = random_liouvillian(rng, n)
            rho = random_density(rng, n)
            for t in (0.1, 1.0, 10.0):
                out = dynamics.propagate(liou, rho, t)  # DensityMatrix validates
                assert abs(np.trace(out.matrix) - 1.0) <= 1e-12


# ---------------------------------------------------------------- semigroup and CPTP

def bloch_models():
    from dqs import cli
    from dqs.models import bundled
    models = {name: cli.build_liouvillian(cli.load_model(bundled(f"{name}.model")))
              for name in ("dispersive_qubit", "damped_x")}
    for n, seed in ((3, 11), (4, 12)):
        models[f"n{n}"] = random_liouvillian(np.random.default_rng(seed), n)
    return models


@pytest.mark.parametrize("name", ["dispersive_qubit", "damped_x", "n3", "n4"])
def test_trace_coordinate_is_exact_on_long_horizons(name):
    liou = bloch_models()[name]
    n = liou.dim
    x0 = np.zeros(n * n)
    x0[-1] = 1.0 / np.sqrt(n)
    x0[:-1] = np.random.default_rng(3).uniform(-0.1, 0.1, n * n - 1)
    for t in np.concatenate([np.linspace(0.0, 1e4, 401), [1e-3, 372.3, 850.0]]):
        x = linalg.expm(liou.bloch, scale=t) @ x0
        assert x[-1] == x0[-1], t


@pytest.mark.parametrize("name", ["dispersive_qubit", "damped_x", "n3", "n4"])
def test_propagate_agrees_with_the_superoperator_exponential(name):
    liou = bloch_models()[name]
    n = liou.dim
    rho = random_density(np.random.default_rng(5), n)
    for t in (0.0, 0.3, 2.0, 10.0):
        ref = linalg.unvec(linalg.expm(liou.superop, scale=t) @ linalg.vec(rho.matrix), n)
        assert np.abs(dynamics.propagate(liou, rho, t).matrix - ref).max() <= 1e-12


@pytest.mark.parametrize("name", ["damped_x", "n3"])
def test_propagate_many_rebuilds_each_state_on_its_own(name):
    liou = bloch_models()[name]
    rho = random_density(np.random.default_rng(6), liou.dim)
    times = np.linspace(0.0, 50.0, 256).tolist()
    states, error = dynamics.propagate_many(liou, rho, times)
    assert error is None and states.shape == (256, liou.dim, liou.dim)
    singles = [dynamics.propagate_many(liou, rho, [t])[0] for t in times]
    assert np.concatenate(singles).tobytes() == states.tobytes()
    assert np.array_equal(states, states.conj().swapaxes(1, 2))
    assert states[0].tobytes() == linalg.hermitian_part(rho.matrix).tobytes()


def test_propagate_many_stops_at_a_negative_time():
    # exp(-L) of the dephasing qubit is no channel: its state is never built
    states, error = dynamics.propagate_many(dispersive_qubit(), coherent_state(),
                                            [0, 1, -1, 2])
    assert len(states) == 2
    assert isinstance(error, ValueError)
    assert str(error) == "propagation time must be nonnegative, got -1"


def test_propagate_many_stops_at_the_first_time_that_fails():
    liou = bloch_models()["damped_x"]
    states, error = dynamics.propagate_many(liou, coherent_state(), [0.0, 1.0, 1e308, 2.0])
    assert len(states) == 2
    assert isinstance(error, ValueError) and str(error) == "matrix exponential overflowed"


def test_semigroup_residual_zero_time(rng):
    liou = random_liouvillian(rng, 2)
    assert dynamics.semigroup_residual(liou, 0.0, 1.0) <= 1e-12


def test_semigroup_residual_small(rng):
    for n in (2, 3):
        liou = random_liouvillian(rng, n)
        for t1, t2 in ((0.3, 0.4), (1.0, 1.0), (2.0, 0.5)):
            assert dynamics.semigroup_residual(liou, t1, t2) <= 1e-9


def test_choi_of_identity_channel():
    liou = dispersive_qubit(0.0, 1.0)
    prop = dynamics.propagator(liou, 0.0)
    c = dynamics.choi_matrix(prop)
    vec_eye = linalg.vec(np.eye(2))
    assert np.abs(c - np.outer(vec_eye, vec_eye.conj())).max() <= 1e-14
    report = dynamics.cptp_report(prop)
    assert report.trace_residual <= 1e-14
    assert report.choi_min_eigenvalue >= -1e-14


def test_choi_matches_kron_definition(rng):
    # C = sum_ij E_ij (x) channel(E_ij), built term by term as the reference
    for n in (2, 3, 4):
        prop = dynamics.propagator(random_liouvillian(rng, n), 0.7)
        ref = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1.0
                ref += np.kron(e, linalg.unvec(prop.matrix @ linalg.vec(e), n))
        assert np.array_equal(dynamics.choi_matrix(prop), ref)


def test_cptp_along_flow(rng):
    for n in (2, 3):
        for _ in range(5):
            liou = random_liouvillian(rng, n)
            for t in (0.1, 1.0, 10.0):
                report = dynamics.cptp_report(dynamics.propagator(liou, t))
                assert report.trace_residual <= 1e-10
                assert report.hermiticity_residual <= 1e-10
                assert report.choi_min_eigenvalue >= -1e-9


def test_backward_map_of_dephasing_fails_positivity():
    liou = dispersive_qubit(1.0, 5.0)
    c = dynamics._choi_of_matrix(dynamics.channel_matrix(liou, -1.0), 2)
    w, _ = linalg.hermitian_eigen(c)
    # coherence block [[1, e^{(lam+i delta) t}], [conj, 1]] has 1 - e^{lam t}
    assert w[0] == pytest.approx(1.0 - np.e, abs=1e-10)


# ---------------------------------------------------------------- generator recovery

def test_generator_recovery_zero_generator():
    liou = gks.GKSLiouvillian(np.zeros((2, 2)), KossakowskiMatrix(2, np.zeros((3, 3))),
                              gks.gell_mann_basis(2))
    assert dynamics.generator_recovery_residual(liou, 1e-3) == 0.0


def test_generator_recovery_halves_with_eps(rng):
    for n in (2, 3):
        for _ in range(5):
            liou = random_liouvillian(rng, n)
            r1 = dynamics.generator_recovery_residual(liou, 1e-3)
            r2 = dynamics.generator_recovery_residual(liou, 5e-4)
            assert 0.4 <= r2 / r1 <= 0.6


def test_generator_recovery_rejects_bad_eps(rng):
    with pytest.raises(ValueError, match="positive"):
        dynamics.generator_recovery_residual(dispersive_qubit(), 0.0)


# ---------------------------------------------------------------- stationary states

def test_dephasing_stationary_family_is_diagonal():
    liou = dispersive_qubit(0.7, 2.0)
    family = dynamics.stationary_states(liou)
    assert len(family.kernel) == 2
    for m in family.kernel:
        assert np.abs(m - np.diag(np.diag(m))).max() <= 1e-10
    assert family.density_matrices
    for rho in family.density_matrices:
        assert np.abs(liou.superop @ linalg.vec(rho.matrix)).max() <= 1e-9
        assert abs(rho.matrix[0, 1]) <= 1e-10


def test_random_generators_have_stationary_states(rng):
    # every CPTP semigroup has a fixed point; the kernel must match an SVD
    # nullity count of the generator matrix
    for n in (2, 3):
        for _ in range(25):
            liou = random_liouvillian(rng, n)
            family = dynamics.stationary_states(liou)
            s = np.linalg.svd(liou.superop, compute_uv=False)
            nullity = int(np.count_nonzero(s <= KERNEL_TOL * s[0]))
            assert len(family.kernel) == nullity >= 1
            the_stationary_state(liou)


def test_stationary_states_take_one_svd(monkeypatch, rng):
    # V and W come from the right and left singular vectors of one SVD of L,
    # so their rank cuts are one cut and W^+ V is square
    liouvillians = [dispersive_qubit(0.7, 2.0), random_liouvillian(rng, 3)]
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for liou in liouvillians:
        n = liou.dim
        calls.clear()
        family = dynamics.stationary_states(liou)
        assert calls == [(n * n, n * n)]
        assert len(family.kernel) >= 1


def single_jump_liouvillian(h, v):
    """The generator with Hamiltonian h and the one traceless jump operator v."""
    n = h.shape[0]
    basis = gks.gell_mann_basis(n)
    c = np.array([np.trace(f.conj().T @ v) for f in basis.traceless])
    return gks.GKSLiouvillian(h, KossakowskiMatrix(n, np.outer(c, c.conj())), basis)


def the_stationary_state(liou):
    """The one state stationary_states returns, after checking L vec rho = 0."""
    family = dynamics.stationary_states(liou, tol=KERNEL_TOL)
    assert len(family.density_matrices) == 1
    rho = family.density_matrices[0]
    assert np.abs(liou.superop @ linalg.vec(rho.matrix)).max() <= 1e-12
    return rho.matrix


def test_planted_dispersive_models_have_a_stationary_state():
    # one jump operator diagonal in a random H's eigenbasis: I/N is
    # stationary, but random combinations of the kernel are rarely PSD, so
    # sampling them found no state for 1 of these models at N = 6 and 4 at N = 8
    rng = np.random.default_rng(5)
    for n in (6, 8):
        for _ in range(10):
            h = random_hermitian(rng, n)
            _, u = np.linalg.eigh(h)
            d = rng.standard_normal(n)
            d -= d.mean()
            the_stationary_state(single_jump_liouvillian(h, u @ np.diag(d) @ u.conj().T))


def test_amplitude_damping_relaxes_to_the_ground_state():
    lowering = np.array([[0, 1], [0, 0]], dtype=complex)
    liou = single_jump_liouvillian(np.diag([0.0, 1.5]), 0.8 * lowering)
    assert np.abs(the_stationary_state(liou) - np.diag([1.0, 0.0])).max() <= 1e-12


def test_unital_models_keep_the_maximally_mixed_state():
    zero = gks.GKSLiouvillian(np.zeros((3, 3)), KossakowskiMatrix(3, np.zeros((8, 8))),
                              gks.gell_mann_basis(3))
    for liou in (dispersive_qubit(0.7, 2.0), dispersive_qubit(0.0, 3.0), zero):
        n = liou.dim
        assert np.abs(the_stationary_state(liou) - np.eye(n) / n).max() <= 1e-12


def test_zero_generator_kernel_is_everything():
    liou = gks.GKSLiouvillian(np.zeros((2, 2)), KossakowskiMatrix(2, np.zeros((3, 3))),
                              gks.gell_mann_basis(2))
    family = dynamics.stationary_states(liou)
    assert len(family.kernel) == 4


def test_unitary_qubit_kernel_is_commutant():
    liou = dispersive_qubit(0.0, 3.0)
    family = dynamics.stationary_states(liou)
    assert len(family.kernel) == 2


# ---------------------------------------------------------------- entropy

def test_entropy_frozen_values():
    assert dynamics.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert dynamics.von_neumann_entropy(0.5 * np.eye(2)) == pytest.approx(np.log(2.0), abs=1e-14)
    a = 0.3
    expected = -a * np.log(a) - (1 - a) * np.log(1 - a)
    assert dynamics.von_neumann_entropy(np.diag([a, 1 - a])) == pytest.approx(expected, abs=1e-13)


def test_entropy_monotone_under_dephasing():
    lam = 1.0
    liou = dispersive_qubit(lam, 5.0)
    rho = coherent_state(0.5, 0.5)
    values = [dynamics.von_neumann_entropy(dynamics.propagate(liou, rho, t))
              for t in np.linspace(0.0, 12.0, 100)]
    diffs = np.diff(values)
    assert diffs.min() >= -1e-12
    late = dynamics.von_neumann_entropy(dynamics.propagate(liou, rho, 50.0 / lam))
    assert abs(late - np.log(2.0)) <= 1e-6


def test_entropy_of_state_and_bare_matrix_agree_exactly(rng):
    # the stored spectrum gives the same bits as decomposing the bare array
    liou = random_liouvillian(rng, 3)
    for t in (0.0, 0.3, 2.0):
        rho = dynamics.propagate(liou, random_density(rng, 3), t)
        assert dynamics.von_neumann_entropy(rho) == dynamics.von_neumann_entropy(rho.matrix)


def test_energy_eigenstates_keep_purity():
    liou = dispersive_qubit(2.0, 4.0)
    for a in (0.0, 1.0):
        rho = DensityMatrix(np.diag([a, 1.0 - a]))
        out = dynamics.propagate(liou, rho, 3.0)
        assert dynamics.von_neumann_entropy(out) <= 1e-10
        purity = np.trace(out.matrix @ out.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-12)


def test_determinant_growth_is_exponential():
    lam, delta = 0.9, 3.0
    liou = dispersive_qubit(lam, delta)
    a, b = 0.7, 0.2 - 0.35j
    rho = coherent_state(a, b)
    for t in (0.0, 0.5, 1.5, 4.0):
        out = dynamics.propagate(liou, rho, t)
        det = np.linalg.det(out.matrix).real
        expected = a * (1 - a) - abs(b) ** 2 * np.exp(-2 * lam * t)
        assert det == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------- energy flow

def test_energy_flow_identity_dispersive():
    liou = dispersive_qubit(1.5, 5.0)
    assert dynamics.energy_flow_residual(liou, coherent_state(0.5, 0.5), 1e-3) <= 1e-8


def test_energy_flow_identity_x_damped():
    liou = gks.qubit_liouvillian(-2.5, 2.5, 0.6, axis=1)
    upper = DensityMatrix(np.diag([1.0, 0.0]))
    # flow from the upper level is -lam*delta/2; the identity must still hold
    dh = gks.dissipation_operator(liou)
    flow = np.trace(upper.matrix @ dh).real
    assert flow == pytest.approx(-0.6 * 5.0 / 2.0, rel=1e-12)
    assert dynamics.energy_flow_residual(liou, upper, 1e-3) <= 1e-6


def test_energy_flow_identity_random(rng):
    for n in (2, 3):
        for _ in range(5):
            liou = random_liouvillian(rng, n)
            for _ in range(5):
                rho = random_density(rng, n)
                assert dynamics.energy_flow_residual(liou, rho, 1e-3) <= 1e-6


def test_energy_conservation_iff_dispersive(rng):
    cases = [
        (dispersive_qubit(1.0, 5.0), True),
        (dispersive_qubit(0.0, 2.0), True),
        (gks.qubit_liouvillian(-2.5, 2.5, 1.0, axis=1), False),
        (random_liouvillian(rng, 3), False),
    ]
    for liou, expect in cases:
        verdict = gks.is_dispersive(liou)
        assert verdict.dispersive == expect
        flows = [dynamics.energy_flow_residual(liou, random_density(rng, liou.dim),
                                               1e-3) for _ in range(20)]
        conserved = all(f <= 1e-6 for f in flows)
        # residual measures fd-vs-tr(rho D_H); for the conservation check use
        # the flow itself
        flows_direct = []
        dh = gks.dissipation_operator(liou)
        for _ in range(20):
            rho = random_density(rng, liou.dim)
            flows_direct.append(abs(np.trace(rho.matrix @ dh).real))
        assert (max(flows_direct) <= 1e-8) == expect
        assert conserved


# ---------------------------------------------------------------- time reversal

def test_time_reversal_witness_finds_dephasing_violation():
    liou = dispersive_qubit(1.0, 5.0)
    witness = dynamics.time_reversal_witness(liou, [0.25, 0.5, 1.0])
    assert witness is not None
    assert witness.t == 1.0
    assert witness.choi_min_eigenvalue == pytest.approx(1.0 - np.e, abs=1e-9)
    assert witness.choi_min_eigenvalue < -1e-3


def test_time_reversal_witness_clears_unitary_flow():
    liou = dispersive_qubit(0.0, 5.0)
    assert dynamics.time_reversal_witness(liou, np.linspace(0.0, 10.0, 21)) is None


def test_time_reversal_witness_rejects_negative_times():
    with pytest.raises(ValueError, match="nonnegative"):
        dynamics.time_reversal_witness(dispersive_qubit(), [-1.0])
