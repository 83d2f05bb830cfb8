import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqs import dynamics, gks, qubit
from dqs.qubit import DispersiveQubitParams, QubitBloch
from helpers import reference_transition

EPS = np.finfo(float).eps


def params(lam=1.0, delta=5.0):
    return DispersiveQubitParams(-0.5 * delta, 0.5 * delta, lam)


# ---------------------------------------------------------------- dataclasses

def test_params_validation():
    with pytest.raises(ValueError, match="e1 > e0"):
        DispersiveQubitParams(1.0, 0.5, 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        DispersiveQubitParams(0.0, 1.0, -0.1)
    assert params(delta=3.0).delta == pytest.approx(3.0)


def test_bloch_validation():
    QubitBloch(0.5, 0.5)  # pure superposition is allowed
    with pytest.raises(ValueError, match="population"):
        QubitBloch(1.2, 0.0)
    with pytest.raises(ValueError, match="coherence"):
        QubitBloch(0.5, 0.6)
    with pytest.raises(ValueError, match="coherence"):
        QubitBloch(1.0, 0.1)


@pytest.mark.parametrize("a, b", [(0.5, complex("nan")), (0.5, complex(0.0, float("nan"))),
                                  (0.5, float("nan")), (float("inf"), 0.0)])
def test_bloch_rejects_non_finite_coordinates(a, b):
    with pytest.raises(ValueError, match="population|not finite"):
        QubitBloch(a, b)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_horizon_rejects_a_non_finite_rate(lam):
    with pytest.raises(ValueError, match="dephasing rate must be finite and nonnegative"):
        qubit.positivity_horizon(QubitBloch(0.5, 0.25), lam)


# ---------------------------------------------------------------- evolution

def test_evolution_matches_generator_route(rng):
    p = params(0.7, 4.0)
    liou = gks.qubit_liouvillian(p.e0, p.e1, p.lam)
    for _ in range(10):
        a = rng.uniform(0.0, 1.0)
        r = np.sqrt(a * (1.0 - a)) * rng.uniform(0.0, 1.0)
        b = r * np.exp(2j * np.pi * rng.uniform())
        t = rng.uniform(0.0, 8.0)
        closed = qubit.evolve_closed_form(p, QubitBloch(a, b), t)
        numeric = dynamics.propagate(liou, closed_form_state(a, b), t)
        assert np.abs(closed.matrix - numeric.matrix).max() <= 1e-11


def closed_form_state(a, b):
    from dqs.linalg import DensityMatrix
    return DensityMatrix(np.array([[a, b], [np.conj(b), 1.0 - a]]))


def test_evolution_rejects_negative_time():
    with pytest.raises(ValueError, match="nonnegative"):
        qubit.evolve_closed_form(params(), QubitBloch(0.5, 0.5), -1.0)


def test_populations_are_frozen():
    p = params(2.0, 6.0)
    out = qubit.evolve_closed_form(p, QubitBloch(0.3, 0.2j), 4.0)
    assert out.matrix[0, 0].real == pytest.approx(0.3, abs=1e-14)
    assert out.matrix[1, 1].real == pytest.approx(0.7, abs=1e-14)


def test_coherence_decays_and_rotates():
    p = params(1.0, np.pi)
    out = qubit.evolve_closed_form(p, QubitBloch(0.5, 0.5), 1.0)
    # e^{-(1 + i pi)} = -e^{-1}
    assert out.matrix[0, 1] == pytest.approx(-0.5 * np.exp(-1.0), abs=1e-14)


# ---------------------------------------------------------------- probabilities

def test_transition_probability_endpoints():
    p = params(1.0, 5.0)
    theta = np.pi / 8
    assert qubit.transition_probability(p, theta, 0.0) == pytest.approx(0.0, abs=1e-15)
    late = qubit.transition_probability(p, theta, 40.0)
    assert late == pytest.approx(0.5 * np.sin(2 * theta) ** 2, abs=1e-12)


def test_transition_probability_frozen_value():
    # undamped, delta = 5, theta = pi/8: at t = pi/5 the oscillation peaks
    p = params(0.0, 5.0)
    value = qubit.transition_probability(p, np.pi / 8, np.pi / 5)
    assert value == pytest.approx(np.sin(2 * np.pi / 8) ** 2, abs=1e-14)
    assert value == pytest.approx(0.5, abs=1e-14)


def test_transition_probability_projector_oracle(rng):
    # independent route: evolve the "plus" preparation and project onto the
    # orthogonal angle eigenvector
    for _ in range(20):
        lam = rng.uniform(0.0, 2.0)
        delta = rng.uniform(0.1, 8.0)
        theta = rng.uniform(0.0, np.pi / 2)
        t = rng.uniform(0.0, 6.0)
        p = params(lam, delta)
        c, s = np.cos(theta), np.sin(theta)
        plus = np.array([c, s])
        minus = np.array([-s, c])
        rho0 = np.outer(plus, plus)
        state = QubitBloch(rho0[0, 0].real, rho0[0, 1])
        rho_t = qubit.evolve_closed_form(p, state, t).matrix
        oracle = (minus.conj() @ rho_t @ minus).real
        value = qubit.transition_probability(p, theta, t)
        assert value == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("delta, t", [(5.0, 1e308), (1e308, 10.0)])
def test_transition_probability_rejects_overflowing_phase(delta, t):
    with pytest.raises(ValueError, match="^oscillation phase overflows$"):
        qubit.transition_probability(params(0.0, delta), 0.4, t)


@pytest.mark.parametrize("lam, delta, t", [(0.0, 2.0, 1e308), (0.5, 2.0, 1e308), (0.0, 1e308, 10.0)])
def test_evolve_closed_form_rejects_overflowing_phase(lam, delta, t):
    with pytest.raises(ValueError, match="^oscillation phase overflows$"):
        qubit.evolve_closed_form(params(lam, delta), QubitBloch(0.5, 0.3), t)


def test_surviving_probability_complements():
    p = params(0.9, 4.0)
    for t in (0.0, 0.3, 2.0, 7.0):
        total = (qubit.transition_probability(p, 0.4, t)
                 + qubit.surviving_probability(p, 0.4, t))
        assert total == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(0.01, 10.0),
       st.floats(0.0, np.pi / 2), st.floats(0.0, 20.0))
def test_transition_probability_bounds(lam, delta, theta, t):
    p = params(lam, delta)
    value = qubit.transition_probability(p, theta, t)
    assert -1e-15 <= value <= 0.5 * np.sin(2 * theta) ** 2 * (1 + np.exp(-lam * t)) + 1e-12


# (lam, delta, theta, t_max): slow and fast phases, no to strong damping, and
# angles at both ends of [0, pi/2] and in between
FORMULA_CASES = [(0.0, 5.0, np.pi / 8, 20.0), (1.0, 5.0, 0.4, 2.0), (0.3, 0.01, 1.2, 1e3),
                 (2.0, 40.0, np.pi / 4, 3.0), (1e-3, 1e3, 0.0, 50.0), (0.5, 7.0, np.pi / 2, 1e4),
                 (5.0, 1e-6, 0.7, 1e6)]


@pytest.mark.parametrize("lam, delta, theta, t_max", FORMULA_CASES)
def test_transition_probability_of_an_array_is_the_scalar_values(lam, delta, theta, t_max):
    # one formula: the array evaluation gives each time's scalar value bit for bit
    p = params(lam, delta)
    times = np.linspace(0.0, t_max, 1001)
    values = qubit.transition_probability(p, theta, times)
    assert isinstance(values, np.ndarray) and values.shape == times.shape
    assert values.tolist() == [qubit.transition_probability(p, theta, t) for t in times.tolist()]
    assert type(qubit.transition_probability(p, theta, t_max)) is float


@pytest.mark.parametrize("lam, delta, theta, t_max", FORMULA_CASES)
def test_transition_probability_stays_within_an_eps_of_the_math_formula(lam, delta, theta, t_max):
    # numpy's exp may differ from math's in the last bit, and s * s from pow's
    # s ** 2: P moves by at most an eps
    times = np.linspace(0.0, t_max, 1001)
    values = qubit.transition_probability(params(lam, delta), theta, times)
    reference = [reference_transition(delta, lam, theta, t) for t in times.tolist()]
    assert np.abs(values - reference).max() <= EPS


def test_transition_probability_names_the_first_bad_time():
    p = params(1.0, 5.0)
    for times, bad in (([0.0, -1.0, np.nan], "-1.0"), ([1.0, np.nan], "nan"), (-2.0, "-2.0")):
        with pytest.raises(ValueError, match=f"^time must be nonnegative, got {bad}$"):
            qubit.transition_probability(p, 0.4, times)
    with pytest.raises(ValueError, match="^oscillation phase overflows$"):
        qubit.transition_probability(p, 0.4, [1.0, 1e308])


def test_expectation_constant_for_diagonal_observable():
    p = params(1.0, 5.0)
    x = np.diag([1.0, -1.0])  # eigenvalues +-1 on the energy basis
    state = QubitBloch(0.5, 0.5)
    values = [np.trace(x @ qubit.evolve_closed_form(p, state, t).matrix).real
              for t in (0.0, 1.0, 4.0)]
    assert np.ptp(values) <= 1e-14


def test_expectation_decays_to_diagonal_limit():
    p = params(1.0, 5.0)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1 on (|E1> +- |E0>)/sqrt(2)
    late = np.trace(x @ qubit.evolve_closed_form(p, QubitBloch(0.3, 0.25), 40.0).matrix).real
    limit = np.trace(x @ np.diag([0.3, 0.7])).real
    assert late == pytest.approx(limit, abs=1e-12)


# ---------------------------------------------------------------- horizon

def test_horizon_none_cases():
    assert qubit.positivity_horizon(QubitBloch(0.4, 0.0), 1.0) is None
    assert qubit.positivity_horizon(QubitBloch(0.0, 0.0), 1.0) is None
    assert qubit.positivity_horizon(QubitBloch(0.5, 0.3), 0.0) is None


def test_horizon_pure_superposition_is_now():
    assert qubit.positivity_horizon(QubitBloch(0.5, 0.5), 1.0) == pytest.approx(0.0)


def test_horizon_frozen_value():
    # a = 1/2, |b| = 1/4: det = 1/4 - (1/16)e^{2 lam t} hits zero at ln(4)/2
    t = qubit.positivity_horizon(QubitBloch(0.5, 0.25), 1.0)
    assert t == pytest.approx(np.log(2.0), abs=1e-14)


def test_horizon_scales_inversely_with_rate():
    base = qubit.positivity_horizon(QubitBloch(0.6, 0.2), 0.5)
    doubled = qubit.positivity_horizon(QubitBloch(0.6, 0.2), 1.0)
    assert doubled == pytest.approx(0.5 * base, rel=1e-14)


def test_horizon_sign_scan_oracle(rng):
    # the backward-evolved coherence |b| e^{lam t} must satisfy the Bloch
    # constraint exactly up to the reported horizon and fail beyond it
    for _ in range(10):
        a = rng.uniform(0.1, 0.9)
        r = np.sqrt(a * (1.0 - a)) * rng.uniform(0.05, 0.95)
        lam = rng.uniform(0.2, 2.0)
        t_star = qubit.positivity_horizon(QubitBloch(a, r), lam)
        det_at = a * (1.0 - a) - (r * np.exp(lam * t_star)) ** 2
        assert det_at == pytest.approx(0.0, abs=1e-12)
        det_before = a * (1.0 - a) - (r * np.exp(lam * 0.99 * t_star)) ** 2
        det_after = a * (1.0 - a) - (r * np.exp(lam * 1.01 * t_star)) ** 2
        assert det_before > 0.0
        assert det_after < 0.0
