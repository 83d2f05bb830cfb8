import math

import numpy as np
import pytest

from dqs import neutrino, qubit
from dqs.neutrino import OscillationParams, SpectrumPoint
from helpers import reference_grid

THETA_04 = math.atan(math.sqrt(0.40))  # tan^2 theta = 0.40


def test_phase_constant_against_hbar_c():
    hbar_gev_s = 6.582119e-25
    c_km_s = 2.99792458e5
    oracle = 1e-18 / (4.0 * hbar_gev_s * c_km_s)
    assert neutrino.PHASE_CONSTANT == oracle
    assert neutrino.PHASE_CONSTANT == pytest.approx(1.2669327886587591, abs=0.0)


def test_oscillation_phase_scaling():
    base = neutrino.oscillation_phase(7.9e-5, 180.0, 0.005)
    assert base == pytest.approx(neutrino.PHASE_CONSTANT * 7.9e-5 * 180.0 / 0.005,
                                 rel=1e-15)
    assert neutrino.oscillation_phase(7.9e-5, 360.0, 0.01) == pytest.approx(base)
    with pytest.raises(ValueError, match="positive"):
        neutrino.oscillation_phase(7.9e-5, 180.0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        neutrino.oscillation_phase(7.9e-5, -1.0, 1.0)


def test_params_validation():
    with pytest.raises(ValueError, match="positive"):
        OscillationParams(0.0, 0.5)
    with pytest.raises(ValueError, match="pi/2"):
        OscillationParams(7.9e-5, 2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        OscillationParams(7.9e-5, 0.5, -1e-6)
    assert OscillationParams(7.9e-5, THETA_04).sin2_2theta == pytest.approx(
        0.8163265306122449, abs=1e-15)


def test_undamped_survival_formula():
    params = OscillationParams(7.9e-5, THETA_04, 0.0)
    for L, E in ((180.0, 0.004), (295.0, 0.6), (1.0, 1.0)):
        phase = neutrino.PHASE_CONSTANT * params.dm2 * L / E
        expected = 1.0 - params.sin2_2theta * math.sin(phase) ** 2
        assert neutrino.survival_probability(params, L, E) == pytest.approx(
            expected, abs=1e-15)


def test_transition_complements_survival():
    params = OscillationParams(7.9e-5, 0.6, 5e-5)
    for L, E in ((180.0, 0.004), (1000.0, 1.0)):
        total = (neutrino.survival_probability(params, L, E)
                 + neutrino.transition_probability(params, L, E))
        assert total == pytest.approx(1.0, abs=1e-15)


def test_damped_limit_is_incoherent_average():
    params = OscillationParams(7.9e-5, THETA_04, 1e-2)
    value = neutrino.survival_probability(params, 5e4, 1.0)
    assert value == pytest.approx(1.0 - 0.5 * params.sin2_2theta, abs=1e-12)


def test_survival_matches_dephasing_qubit():
    # the two-level reduction: delta = 2 K dm2 / E, evolution time = L
    params = OscillationParams(7.9e-5, 0.47, 3e-5)
    for L, E in ((250.0, 0.004), (1.8e4, 1.0), (0.0, 2.0)):
        half_delta = neutrino.PHASE_CONSTANT * params.dm2 / E
        qp = qubit.DispersiveQubitParams(-half_delta, half_delta, params.lambda_km)
        expected = qubit.surviving_probability(qp, params.theta, L)
        assert neutrino.survival_probability(params, L, E) == pytest.approx(
            expected, abs=1e-12)


def test_l_over_e_convention():
    params = OscillationParams(7.9e-5, THETA_04, 5e-5)
    for x in (0.0, 12.5, 1.8e4):
        assert neutrino.survival_at_l_over_e(params, x) == pytest.approx(
            neutrino.survival_probability(params, x, 1.0), abs=1e-15)
    grid = np.linspace(0.0, 3.0e4, 7)
    values = neutrino.survival_at_l_over_e(params, grid)
    assert values.shape == grid.shape
    assert np.all((values >= 0.0) & (values <= 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        neutrino.survival_at_l_over_e(params, -1.0)


def test_octant_degeneracy_of_survival():
    # sin^2(2 theta) cannot tell theta from its mirror about pi/4
    x = np.linspace(0.0, 3.6e4, 50)
    lo = OscillationParams(7.9e-5, THETA_04, 5e-5)
    hi = OscillationParams(7.9e-5, math.pi / 2.0 - THETA_04, 5e-5)
    assert np.abs(neutrino.survival_at_l_over_e(lo, x)
                  - neutrino.survival_at_l_over_e(hi, x)).max() <= 1e-15


def test_spectrum_point_validation():
    SpectrumPoint(0.0, 1.0)
    with pytest.raises(ValueError, match="probability"):
        SpectrumPoint(1.0, 1.5)
    with pytest.raises(ValueError, match="L/E"):
        SpectrumPoint(-1.0, 0.5)
    with pytest.raises(ValueError, match="weight"):
        SpectrumPoint(1.0, 0.5, -1.0)


# ------------------------------------------------------------------ CSV

def test_read_spectrum_csv(tmp_path):
    path = tmp_path / "spectrum.csv"
    path.write_text(
        "# synthetic survival spectrum\n"
        "\n"
        "L_over_E_km_per_GeV,P_survival,weight\n"
        "0.0,1.0,1.0\n"
        "# mid-spectrum comment\n"
        "12000.0,0.55,2.0\n")
    points = neutrino.read_spectrum_csv(path)
    assert len(points) == 2
    assert points[0] == SpectrumPoint(0.0, 1.0, 1.0)
    assert points[1].weight == 2.0


def test_read_spectrum_csv_without_weights(tmp_path):
    path = tmp_path / "spectrum.csv"
    path.write_text("L_over_E_km_per_GeV,P_survival\n100.0,0.9\n")
    (point,) = neutrino.read_spectrum_csv(path)
    assert point.weight == 1.0


def test_read_spectrum_csv_errors(tmp_path):
    cases = [
        ("L/E,P\n1,1\n", "line 1: unexpected header"),
        ("L_over_E_km_per_GeV,P_survival\n1.0\n", "line 2: expected 2 fields"),
        ("L_over_E_km_per_GeV,P_survival\n1.0,spam\n", "line 2"),
        ("L_over_E_km_per_GeV,P_survival\n1.0,7.0\n", "line 2.*probability"),
        ("# only comments\n", "no header"),
    ]
    for text, pattern in cases:
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=pattern):
            neutrino.read_spectrum_csv(path)


# ------------------------------------------------------------------ fitting

def synthetic_spectrum(params, n=120, x_max=3.6e4):
    x = np.linspace(0.0, x_max, n)
    p = neutrino.survival_at_l_over_e(params, x)
    return [SpectrumPoint(float(xi), float(pi)) for xi, pi in zip(x, p)]


FIRST_OCTANT = {"theta": (0.0, math.pi / 4.0)}


def test_fit_recovers_undamped_truth():
    truth = OscillationParams(7.9e-5, THETA_04, 0.0)
    fit = neutrino.fit_parameters(synthetic_spectrum(truth),
                                  bounds=FIRST_OCTANT, grid_points=21)
    assert fit.converged
    assert abs(fit.params.dm2 - truth.dm2) <= 1e-3 * truth.dm2
    assert abs(fit.params.theta - truth.theta) <= 1e-3 * truth.theta
    assert fit.params.lambda_km <= 1e-6
    assert fit.sse <= fit.grid_sse + 1e-18
    assert fit.sse <= 1e-10


def test_fit_recovers_damped_truth():
    truth = OscillationParams(7.9e-5, THETA_04, 5e-5)
    fit = neutrino.fit_parameters(synthetic_spectrum(truth),
                                  bounds=FIRST_OCTANT, grid_points=21)
    assert fit.converged
    assert abs(fit.params.dm2 - truth.dm2) <= 1e-3 * truth.dm2
    assert abs(fit.params.theta - truth.theta) <= 1e-3 * truth.theta
    assert abs(fit.params.lambda_km - truth.lambda_km) <= 1e-2 * 1e-3


def test_fit_respects_fixed_parameters():
    truth = OscillationParams(7.9e-5, THETA_04, 0.0)
    data = synthetic_spectrum(truth, n=80)
    fit = neutrino.fit_parameters(data, fixed={"lambda_km": 0.0}, grid_points=21)
    assert fit.params.lambda_km == 0.0
    assert abs(fit.params.dm2 - truth.dm2) <= 1e-3 * truth.dm2
    pinned = neutrino.fit_parameters(
        data, bounds={"theta": (THETA_04, THETA_04)},
        fixed={"lambda_km": 0.0}, grid_points=21)
    assert pinned.params.theta == THETA_04


def test_fit_is_deterministic():
    truth = OscillationParams(9.1e-5, 0.52, 2e-5)
    data = synthetic_spectrum(truth, n=60)
    one = neutrino.fit_parameters(data, grid_points=13)
    two = neutrino.fit_parameters(data, grid_points=13)
    assert one.params == two.params
    assert one.sse == two.sse
    assert one.cycles == two.cycles


def test_fit_input_validation():
    with pytest.raises(ValueError, match="no spectrum points"):
        neutrino.fit_parameters([])
    data = [SpectrumPoint(0.0, 1.0), SpectrumPoint(100.0, 0.9)]
    with pytest.raises(ValueError, match="unknown parameter"):
        neutrino.fit_parameters(data, bounds={"mass": (0.0, 1.0)})
    with pytest.raises(ValueError, match="unknown parameter"):
        neutrino.fit_parameters(data, fixed={"mass": 1.0})
    with pytest.raises(ValueError, match="bad bounds"):
        neutrino.fit_parameters(data, bounds={"dm2": (1e-4, 1e-5)})
    with pytest.raises(ValueError, match="positive"):
        neutrino.fit_parameters(data, fixed={"dm2": 0.0})
    with pytest.raises(ValueError, match="grid_points"):
        neutrino.fit_parameters(data, grid_points=1)


def test_fit_rejects_zero_total_weight():
    data = [SpectrumPoint(0.0, 1.0, 0.0), SpectrumPoint(100.0, 0.9, 0.0)]
    with pytest.raises(ValueError, match="zero total weight"):
        neutrino.fit_parameters(data)


def test_fit_all_parameters_pinned():
    truth = OscillationParams(7.9e-5, 0.5, 1e-5)
    data = synthetic_spectrum(truth, n=40)
    fit = neutrino.fit_parameters(
        data, fixed={"dm2": truth.dm2, "theta": truth.theta,
                     "lambda_km": truth.lambda_km})
    assert fit.converged
    assert fit.cycles == 0
    assert fit.params == truth
    assert fit.sse <= 1e-24


# ------------------------------------------------------------------ bounded grid

def _grid_setup(points, bounds=None, fixed=None):
    """The arrays and parameter split that ``fit_parameters`` grids over."""
    merged = dict(neutrino.DEFAULT_BOUNDS)
    merged.update(bounds or {})
    values, free = {}, []
    for name in neutrino.PARAMETER_NAMES:
        if fixed and name in fixed:
            values[name] = float(fixed[name])
        elif merged[name][0] == merged[name][1]:
            values[name] = merged[name][0]
        else:
            free.append(name)
    x = np.array([pt.l_over_e for pt in points])
    p = np.array([pt.p for pt in points])
    w = np.array([pt.weight for pt in points])
    return x, p, w, merged, values, free


def _random_spectrum(seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 300))
    x = np.sort(g.uniform(0.0, 3.6e4, n)) if seed % 2 else np.linspace(0.0, 3.6e4, n)
    truth = OscillationParams(g.uniform(1e-5, 2e-4), g.uniform(0.0, math.pi / 2.0),
                              g.choice([0.0, g.uniform(0.0, 1e-3)]))
    p = neutrino.survival_at_l_over_e(truth, x)
    w = np.ones(n)
    if seed % 3:
        sigma = g.uniform(0.005, 0.05, n)
        p = np.clip(p + sigma * g.standard_normal(n), 0.0, 1.0)
        w = 1.0 / sigma ** 2
    return [SpectrumPoint(float(a), float(b), float(c)) for a, b, c in zip(x, p, w)]


def _tiny_weight_spectrum(seed):
    # weights so small that the model products underflow
    g = np.random.default_rng(seed)
    n = int(g.integers(1, 30))
    x = np.sort(g.uniform(0.0, 3.6e4, n))
    p = g.uniform(0.0, 1.0, n)
    w = g.choice([5e-324, 1e-323, 3e-320, 1e-310, 0.0], n)
    w[0] = max(w[0], 5e-324)
    return [SpectrumPoint(float(a), float(b), float(c)) for a, b, c in zip(x, p, w)]


_GRID_OPTIONS = [
    {},
    {"fixed": {"lambda_km": 0.0}},
    {"bounds": {"theta": (0.0, math.pi / 4.0)}},
    {"fixed": {"theta": 0.6}},
    {"fixed": {"dm2": 7.9e-5}},
    {"bounds": {"lambda_km": (0.0, 0.0)}, "grid_points": 7},
    {"grid_points": 2},
    {"fixed": {"dm2": 7.9e-5, "theta": 0.6}},
]
_X50 = np.linspace(0.0, 3.6e4, 50)
_MIRROR = neutrino.survival_at_l_over_e(
    OscillationParams(8e-5, math.pi / 4.0 - 0.3), _X50)

GRID_CASES = (
    [pytest.param(_random_spectrum(seed), _GRID_OPTIONS[seed % len(_GRID_OPTIONS)],
                  id=f"random{seed}") for seed in range(32)]
    + [pytest.param([SpectrumPoint(float(x), level) for x in _X50], options,
                    id=f"flat{level}-{len(options)}")
       for level in (1.0, 0.5, 0.0)
       for options in ({}, {"fixed": {"lambda_km": 0.0}})]
    + [pytest.param([SpectrumPoint(float(x), float(p)) for x, p in zip(_X50, _MIRROR)],
                    {}, id="mirror-theta"),
       pytest.param([SpectrumPoint(float(x), 0.7, float(k == 7))
                     for k, x in enumerate(_X50)], {}, id="one-weight"),
       pytest.param([SpectrumPoint(0.0, 0.3 + 0.01 * k) for k in range(20)], {},
                    id="all-x-zero"),
       pytest.param([SpectrumPoint(float(x), float(p)) for x, p in zip(_X50, _MIRROR)],
                    {"bounds": {"dm2": (1e-5, 1.7e308)}}, id="overflowing-dm2")]
    + [pytest.param(_tiny_weight_spectrum(seed), {}, id=f"tiny-weights{seed}")
       for seed in (35, 39)]
    + [pytest.param([SpectrumPoint(float(x), float(p), 1e308)
                     for x, p in zip(_X50, _MIRROR)], {}, id="huge-weights")]
)


@pytest.mark.parametrize("points, options", GRID_CASES)
def test_grid_matches_brute_force_exactly(points, options):
    # grid_sse is exactly the brute-force SSE at the reported grid point, and
    # since theta is solved at every (dm2, lambda_km) node rather than taken
    # from a grid, that point is no worse than the brute-force theta grid, up
    # to rounding
    fit = neutrino.fit_parameters(points, **options)
    x, p, w, merged, values, free = _grid_setup(
        points, options.get("bounds"), options.get("fixed"))
    at = fit.grid_params
    with np.errstate(over="ignore"):
        r = neutrino._model(x, at.dm2, at.theta, at.lambda_km) - p
        assert fit.grid_sse == float(np.dot(w * r, r))
    _, want_sse = reference_grid(x, p, w, merged, values, free,
                                 options.get("grid_points", 41))
    total_weight = sum(pt.weight for pt in points)
    assert fit.grid_sse <= want_sse * (1.0 + 1e-9) + 1e-12 * total_weight
    assert fit.sse <= fit.grid_sse
    assert fit.converged


def test_grid_evaluates_few_rows(monkeypatch):
    # a clean three-parameter spectrum: the brute-force grid makes 41^2 model
    # calls before the polish even starts
    truth = OscillationParams(7.5e-5, 0.6, 3e-5)
    x = np.linspace(0.0, 3.6e4, 200)
    points = [SpectrumPoint(float(a), float(b))
              for a, b in zip(x, neutrino.survival_at_l_over_e(truth, x))]
    calls = []
    damped = neutrino._damped

    def counting(*args):
        calls.append(args)
        return damped(*args)

    monkeypatch.setattr(neutrino, "_damped", counting)
    fit = neutrino.fit_parameters(points, bounds=FIRST_OCTANT)
    assert fit.converged
    assert len(calls) < 41 ** 2


def test_polish_does_not_stop_short_of_a_slice_minimum():
    # with two grid points the first bracket spans the whole dm2 range and
    # golden section lands in a worse valley; the polish must narrow the
    # bracket rather than settle where the SSE still falls along dm2
    points = _random_spectrum(22)
    coarse = neutrino.fit_parameters(points, grid_points=2)
    fine = neutrino.fit_parameters(points)
    assert coarse.converged
    assert coarse.sse <= fine.sse * (1.0 + 1e-9)


def test_fit_lands_in_the_second_octant_when_bounded_there():
    truth = OscillationParams(7.9e-5, 1.1, 2e-5)
    fit = neutrino.fit_parameters(synthetic_spectrum(truth),
                                  bounds={"theta": (0.8, 1.5)})
    assert fit.converged
    assert 0.8 <= fit.params.theta <= 1.5
    assert 0.8 <= fit.grid_params.theta <= 1.5
    assert fit.sse <= 1e-18


def test_theta_only_fit_beats_a_fine_theta_scan():
    g = np.random.default_rng(11)
    truth = OscillationParams(7.9e-5, 0.5, 2e-5)
    x = np.linspace(0.0, 3.6e4, 80)
    sigma = g.uniform(0.01, 0.03, x.size)
    p = np.clip(neutrino.survival_at_l_over_e(truth, x)
                + sigma * g.standard_normal(x.size), 0.0, 1.0)
    w = 1.0 / sigma ** 2
    points = [SpectrumPoint(float(a), float(b), float(c)) for a, b, c in zip(x, p, w)]
    fit = neutrino.fit_parameters(points, fixed={"dm2": truth.dm2,
                                                 "lambda_km": truth.lambda_km})
    assert fit.converged
    assert fit.cycles == 0
    assert fit.params.dm2 == truth.dm2 and fit.params.lambda_km == truth.lambda_km
    scan = np.linspace(0.0, math.pi / 2.0, 10001)
    r = neutrino._model(x, truth.dm2, scan[:, None], truth.lambda_km) - p
    assert fit.sse <= float(((w * r * r).sum(axis=1)).min())
