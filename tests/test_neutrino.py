import math

import numpy as np
import pytest

from dqs import neutrino, qubit
from dqs.neutrino import OscillationParams, SpectrumPoint
from helpers import reference_coordinate_polish, reference_golden_min, reference_grid

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
    with pytest.raises(ValueError, match=r"^theta must be in \[0, pi/2\], got 2.0$"):
        OscillationParams(7.9e-5, 2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        OscillationParams(7.9e-5, 0.5, -1e-6)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^lambda_km must be finite, got {value!r}$"):
            OscillationParams(7.9e-5, 0.5, value)
    assert OscillationParams(7.9e-5, THETA_04).sin2_2theta == pytest.approx(
        0.8163265306122449, abs=1e-15)


def test_undamped_survival_formula():
    params = OscillationParams(7.9e-5, THETA_04, 0.0)
    for L, E in ((180.0, 0.004), (295.0, 0.6), (1.0, 1.0)):
        phase = neutrino.PHASE_CONSTANT * params.dm2 * L / E
        expected = 1.0 - params.sin2_2theta * math.sin(phase) ** 2
        assert neutrino.survival_probability(params, L, E) == pytest.approx(
            expected, abs=1e-15)


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
        # the first bad line in file order is named, whatever its fault
        ("L_over_E_km_per_GeV,P_survival\n1.0,0.5\n1.0,7.0\n2.0,0.5\n1.0,spam\n",
         "^line 3: survival probability"),
        ("L_over_E_km_per_GeV,P_survival\n-1.0,0.5\n1.0\n", "^line 2: L/E"),
        ("L_over_E_km_per_GeV,P_survival\n1.0,spam\n1.0,7.0\n", "^line 2: could not convert"),
        ("L_over_E_km_per_GeV,P_survival,weight\n1.0,0.5,1\n1.0,0.5,-2\n2.0,0.5\n",
         "^line 3: weight"),
    ]
    for text, pattern in cases:
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=pattern):
            neutrino.read_spectrum_csv(path)


def test_read_spectrum_csv_counts_lines_as_file_iteration_does(tmp_path):
    # CRLF and a lone CR each end one line; a form feed or U+2028 inside a
    # comment ends none, although str.splitlines breaks there
    text = ("# exported\u2028by a spreadsheet\r\n"
            "L_over_E_km_per_GeV,P_survival\r\n"
            "# page\x0cbreak\r\n"
            "1.0,0.5\r"
            "1.5,0.6\r\n"
            "2.0,oops\r\n")
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8-sig") as fh:
        want = next(k for k, line in enumerate(fh, start=1) if "oops" in line)
    assert want == 6
    message = f"^line {want}: could not convert string to float: 'oops'$"
    with pytest.raises(ValueError, match=message):
        neutrino.read_spectrum_csv(path)


BAD_POINTS = [(-1.0, 0.5, 1.0), (math.nan, 0.5, 1.0), (math.inf, 0.5, 1.0),
              (1.0, 1.0 + 2e-9, 1.0), (1.0, -0.1, 1.0), (1.0, math.nan, 1.0),
              (1.0, 0.5, -1.0), (1.0, 0.5, math.inf), (1.0, 0.5, math.nan),
              (-1.0, 7.0, -1.0), (1.0, 7.0, -1.0)]


@pytest.mark.parametrize("bad", BAD_POINTS, ids=repr)
def test_spectrum_applies_the_point_rule(bad):
    # one rule: a spectrum names its first bad point with the message that
    # point alone raises as a SpectrumPoint
    with pytest.raises(ValueError) as alone:
        SpectrumPoint(*bad)
    good = (0.0, 1.0, 1.0)
    with pytest.raises(ValueError) as within:
        neutrino.Spectrum(*zip(good, bad, bad))
    assert str(within.value) == f"point 1: {alone.value}"


def test_spectrum_accepts_the_probability_slack():
    spectrum = neutrino.Spectrum([0.0, 1.0], [-1e-9, 1.0 + 1e-9], [0.0, 2.0])
    assert spectrum[0] == SpectrumPoint(0.0, -1e-9, 0.0)


def test_spectrum_keeps_read_only_copies():
    x = np.array([0.0, 10.0])
    spectrum = neutrino.Spectrum(x, [1.0, 0.5], [1.0, 2.0])
    x[0] = 5.0
    assert spectrum.l_over_e.tolist() == [0.0, 10.0]
    for column in (spectrum.l_over_e, spectrum.p, spectrum.weight):
        assert column.dtype == np.float64 and column.flags.c_contiguous
        with pytest.raises(ValueError):
            column[0] = 0.5
    with pytest.raises(ValueError, match="equal length"):
        neutrino.Spectrum([0.0, 1.0], [0.5], [1.0, 1.0])
    with pytest.raises(ValueError, match="1-D"):
        neutrino.Spectrum([[0.0]], [[0.5]], [[1.0]])


def test_spectrum_acts_as_a_list_of_points():
    points = [SpectrumPoint(0.0, 1.0), SpectrumPoint(10.0, 0.5, 2.0)]
    spectrum = neutrino.Spectrum.from_points(points)
    assert len(spectrum) == 2
    assert spectrum[1] == points[1] and spectrum[-1] == points[1]
    assert list(spectrum) == points
    assert spectrum == neutrino.Spectrum([0.0, 10.0], [1.0, 0.5], [1.0, 2.0])
    assert spectrum != neutrino.Spectrum([0.0, 10.0], [1.0, 0.5], [1.0, 3.0])
    assert spectrum != points
    assert len(neutrino.Spectrum.from_points([])) == 0


# ------------------------------------------------------------------ slice minimiser

BRACKETS = [(0.0, 1.0), (1e-5, 2e-4), (0.0, 1e-3), (-3.0, 5.0)]


def _minimise(f, lo, hi, tol):
    """``_brent_min`` on [lo, hi]; returns its point and every point it evaluated."""
    seen = []

    def recording(v):
        seen.append(v)
        return f(v), v

    v, (fv, at) = neutrino._brent_min(recording, lo, hi, tol)
    assert at == v and fv == f(v)  # the tuple f gave at the returned point
    assert all(lo <= u <= hi for u in seen + [v])
    return v, seen


@pytest.mark.parametrize("lo, hi", BRACKETS)
@pytest.mark.parametrize("where", [0.013, 0.37, 0.5, 0.81, 0.999])
def test_brent_min_lands_on_a_parabola_vertex_in_few_steps(lo, hi, where):
    # golden section needs about 45 evaluations for the same tolerance
    width = hi - lo
    c = lo + where * width
    tol = 1e-10 * width
    v, seen = _minimise(lambda u: ((u - c) / width) ** 2, lo, hi, tol)
    assert abs(v - c) <= tol
    assert len(seen) <= 15


@pytest.mark.parametrize("lo, hi", BRACKETS)
def test_brent_min_finds_a_minimum_at_either_end(lo, hi):
    tol = 1e-10 * (hi - lo)
    v, _ = _minimise(lambda u: u, lo, hi, tol)
    assert v - lo <= tol
    v, _ = _minimise(lambda u: -u, lo, hi, tol)
    assert hi - v <= tol


@pytest.mark.parametrize("lo, hi", BRACKETS)
@pytest.mark.parametrize("where", [0.1, 0.5, 0.73])
def test_brent_min_falls_back_to_golden_steps_on_a_kink(lo, hi, where):
    c = lo + where * (hi - lo)
    tol = 1e-10 * (hi - lo)
    v, _ = _minimise(lambda u: abs(u - c), lo, hi, tol)
    assert abs(v - c) <= tol


@pytest.mark.parametrize("lo, hi", BRACKETS)
def test_brent_min_on_a_constant_stays_in_the_bracket(lo, hi):
    _minimise(lambda u: 1.0, lo, hi, 1e-10 * (hi - lo))


def test_brent_min_ends_when_its_tolerance_is_below_one_ulp():
    # the tolerance is below one ulp of the bracket and cannot be met; the
    # search must still end, and so must a fit over that bracket
    lo, hi = 1e-4, 1.000000000001e-4
    _, seen = _minimise(lambda u: (u - 1.0000000000004e-4) ** 2, lo, hi, 1e-10 * (hi - lo))
    assert len(seen) < 100
    fit = neutrino.fit_parameters(synthetic_spectrum(OscillationParams(1e-4, 0.5), n=50),
                                  bounds={"dm2": (lo, hi)}, fixed={"lambda_km": 0.0})
    assert fit.converged


def test_brent_min_degenerate_bracket_is_its_midpoint():
    # evaluated once, so that the caller gets its value with it
    assert _minimise(lambda u: u, 0.25, 0.25, 1e-12) == (0.25, [0.25])
    lo, hi = 0.25, 0.25 + 1e-13
    mid = 0.5 * (lo + hi)
    assert _minimise(lambda u: u, lo, hi, 1e-12) == (mid, [mid])


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
    # the default bounds do not limit a fixed value, only bounds given for it
    outside = neutrino.fit_parameters(data, fixed={"dm2": 3e-4}, grid_points=21)
    assert outside.params.dm2 == 3e-4
    inside = neutrino.fit_parameters(data, bounds={"dm2": (1e-5, 4e-4)},
                                     fixed={"dm2": 3e-4}, grid_points=21)
    assert inside == outside


@pytest.mark.parametrize("name, value", [("theta", 0.6), ("theta", math.pi / 4.0),
                                         ("theta", 0.0), ("lambda_km", 0.0),
                                         ("lambda_km", 2e-5)])
def test_a_fixed_value_is_a_degenerate_bound(name, value):
    points = _random_spectrum(5)
    fixed = neutrino.fit_parameters(points, fixed={name: value}, grid_points=13)
    assert fixed == neutrino.fit_parameters(points, bounds={name: (value, value)},
                                            grid_points=13)
    assert getattr(fixed.params, name) == value


def test_fit_is_deterministic():
    truth = OscillationParams(9.1e-5, 0.52, 2e-5)
    data = synthetic_spectrum(truth, n=60)
    one = neutrino.fit_parameters(data, grid_points=13)
    two = neutrino.fit_parameters(data, grid_points=13)
    assert one.params == two.params
    assert one.sse == two.sse
    assert one.cycles == two.cycles


def test_fit_reads_a_spectrum_as_its_points():
    points = _random_spectrum(4)
    spectrum = neutrino.Spectrum.from_points(points)
    assert neutrino.fit_parameters(spectrum) == neutrino.fit_parameters(points)


def test_reading_and_fitting_make_no_point_objects(monkeypatch, tmp_path):
    # the reader and the fit work on columns; one validated SpectrumPoint
    # per row used to be made, and converted back into arrays by the fit
    points = _bench_like_spectrum(4, 2000, True)
    path = tmp_path / "spectrum.csv"
    path.write_text("L_over_E_km_per_GeV,P_survival,weight\n" + "".join(
        f"{pt.l_over_e!r},{pt.p!r},{pt.weight!r}\n" for pt in points))
    made = []
    check = SpectrumPoint.__post_init__

    def counting(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(SpectrumPoint, "__post_init__", counting)
    spectrum = neutrino.read_spectrum_csv(path)
    fit = neutrino.fit_parameters(spectrum, bounds=FIRST_OCTANT, fixed={"lambda_km": 0.0})
    assert fit.converged
    assert made == []
    assert spectrum == neutrino.Spectrum.from_points(points)
    assert spectrum[0] == points[0] and len(made) == 1  # the spy counts


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
    with pytest.raises(ValueError, match="dm2 must be finite, got nan"):
        neutrino.fit_parameters(data, fixed={"dm2": math.nan})
    with pytest.raises(ValueError,
                       match=r"^fixed theta=0.5 lies outside its bounds \[0.0, 0.3\]$"):
        neutrino.fit_parameters(data, bounds={"theta": (0.0, 0.3)},
                                fixed={"theta": 0.5, "lambda_km": 0.0})
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

RANDOM_CASES = [pytest.param(_random_spectrum(seed), _GRID_OPTIONS[seed % len(_GRID_OPTIONS)],
                             id=f"random{seed}") for seed in range(32)]
GRID_CASES = (
    RANDOM_CASES
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


def _counting_model_calls(monkeypatch):
    """A list that gains an entry with each ``_damped`` call from now on."""
    calls = []
    damped = neutrino._damped

    def counting(*args, **kwargs):
        calls.append(args)
        return damped(*args, **kwargs)

    monkeypatch.setattr(neutrino, "_damped", counting)
    return calls


def _clean_fit_counting_model_calls(monkeypatch):
    """A clean 200-point three-parameter fit, theta in the first octant, and
    the number of ``_damped`` calls it makes."""
    truth = OscillationParams(7.5e-5, 0.6, 3e-5)
    x = np.linspace(0.0, 3.6e4, 200)
    points = [SpectrumPoint(float(a), float(b))
              for a, b in zip(x, neutrino.survival_at_l_over_e(truth, x))]
    calls = _counting_model_calls(monkeypatch)
    return neutrino.fit_parameters(points, bounds=FIRST_OCTANT), len(calls)


def test_grid_evaluates_few_rows(monkeypatch):
    # the brute-force grid makes 41^2 model calls before the polish even starts
    fit, calls = _clean_fit_counting_model_calls(monkeypatch)
    assert fit.converged
    assert calls < 41 ** 2


def test_polish_evaluates_few_points(monkeypatch):
    # golden-section slices narrowed to 1e-10 of the bound width made 362
    # model calls here and Brent's parabolic slices 97; Levenberg-Marquardt
    # steps on both parameters at once need 6
    fit, calls = _clean_fit_counting_model_calls(monkeypatch)
    assert fit.converged
    assert calls <= 10


def _merged_bounds(options):
    """Every parameter's (lo, hi) under a fit's options, a fixed one as (v, v)."""
    merged = dict(neutrino.DEFAULT_BOUNDS)
    merged.update(options.get("bounds", {}))
    merged.update({name: (v, v) for name, v in options.get("fixed", {}).items()})
    return merged


def _both_free(options):
    merged = _merged_bounds(options)
    return all(merged[name][0] < merged[name][1] for name in ("dm2", "lambda_km"))


def _check_against_coordinate_polish(fit, points, options, minimiser=None):
    """The fit converged from the reference's grid point, to an SSE no worse
    than the coordinate-wise reference polish from there, up to rounding."""
    ref = reference_coordinate_polish(points, _merged_bounds(options), fit.grid_params,
                                      options.get("grid_points", 41), minimiser=minimiser)
    assert (fit.grid_params, fit.grid_sse) == (ref.grid_params, ref.grid_sse)
    assert fit.converged
    total_weight = sum(pt.weight for pt in points)
    assert fit.sse <= ref.sse * (1.0 + 1e-12) + 1e-12 * total_weight


def test_polish_does_not_stop_short_of_a_slice_minimum():
    # with two grid points the polish starts in a corner of the box, and the
    # coordinate-wise reference's first dm2 bracket spans the whole range
    # with its slice minimum in a worse valley; the fit must end no worse
    # than that reference, which narrows the bracket, or than the finer grid
    points = _random_spectrum(22)
    coarse = neutrino.fit_parameters(points, grid_points=2)
    _check_against_coordinate_polish(coarse, points, {"grid_points": 2})
    fine = neutrino.fit_parameters(points)
    assert coarse.sse <= fine.sse * (1.0 + 1e-9)


@pytest.mark.parametrize("seed, options, most", [(22, {"grid_points": 2}, 16),
                                                 (6, {"grid_points": 2}, 24),
                                                 (13, {}, 10)])
def test_polish_settles_a_correlated_valley_in_few_steps(monkeypatch, seed, options, most):
    # the coordinate-wise polish crept along these correlated (dm2, lambda_km)
    # valleys for 20, 20 and 25 cycles of 914, 706 and 1030 model calls
    points = _random_spectrum(seed)
    calls = _counting_model_calls(monkeypatch)
    fit = neutrino.fit_parameters(points, **options)
    assert fit.cycles <= most and len(calls) <= most
    _check_against_coordinate_polish(fit, points, options)


@pytest.mark.parametrize("seed", range(4))
def test_profiled_jacobian_matches_central_differences(seed):
    g = np.random.default_rng(seed)
    x = np.sort(g.uniform(0.0, 3.6e4, 80))
    truth = OscillationParams(g.uniform(5e-5, 1e-4), g.uniform(0.4, 0.7), g.uniform(0.0, 1e-4))
    p = np.clip(neutrino.survival_at_l_over_e(truth, x) + 0.02 * g.standard_normal(x.size),
                0.0, 1.0)
    w = g.uniform(0.5, 2.0, x.size)
    q, ws = 1.0 - p, w / w.max()
    seen = set()
    # for this data T* is mostly interior to [0, 1] and clipped to [0, 0.1]
    for t_range in ((0.0, 1.0), (0.0, 0.1)):
        for _ in range(5):
            at = np.array([g.uniform(1e-5, 2e-4), g.uniform(0.0, 1e-3)])
            _, t, _, jac = neutrino._profiled_residual(x, q, ws, ws * q, t_range, *at)
            clipped = not t_range[0] < t < t_range[1]
            seen.add(clipped)
            for k, h in enumerate((1e-10, 1e-9)):
                ends = [neutrino._profiled_residual(x, q, ws, ws * q, t_range,
                                                    *(at + sign * h * np.eye(2)[k]))[2]
                        for sign in (1.0, -1.0)]
                want = (ends[0] - ends[1]) / (2.0 * h)
                scale = np.abs(jac[k]).max()
                assert np.abs(jac[k] - want).max() <= 1e-6 * scale
            if clipped:
                _, *slopes = neutrino._damped(x, *at, True)
                assert np.array_equal(jac, np.array(slopes) * t)  # dT* = 0
    assert seen == {False, True}


def test_fit_reports_the_condition_of_jtj():
    data = _random_spectrum(13)
    fit = neutrino.fit_parameters(data)
    x = np.array([pt.l_over_e for pt in data])
    p = np.array([pt.p for pt in data])
    w = np.array([pt.weight for pt in data])
    ws = w / w.max()
    _, _, _, jac = neutrino._profiled_residual(
        x, 1.0 - p, ws, ws * (1.0 - p), (0.0, 1.0), fit.params.dm2, fit.params.lambda_km)
    widths = np.array([np.subtract(*neutrino.DEFAULT_BOUNDS[n][::-1])
                       for n in ("dm2", "lambda_km")])
    scaled = jac * widths[:, None] * np.sqrt(ws)
    assert fit.jtj_cond == pytest.approx(np.linalg.cond(scaled @ scaled.T), rel=1e-6)
    assert fit == neutrino.fit_parameters(data)
    # not defined for fewer than two free parameters
    assert neutrino.fit_parameters(data, fixed={"lambda_km": 0.0}).jtj_cond is None
    assert neutrino.fit_parameters(data, fixed={"dm2": 7.9e-5}).jtj_cond is None


def _bench_like_spectrum(seed, n, noisy):
    """A spectrum drawn the way the nu-fit benchmark draws its spectra."""
    g = np.random.default_rng(seed)
    truth = OscillationParams(g.uniform(6e-5, 9e-5), math.atan(math.sqrt(g.uniform(0.3, 0.5))),
                              g.uniform(0.0, 8e-5))
    x = np.linspace(0.0, 3.6e4, n)
    p = neutrino.survival_at_l_over_e(truth, x)
    w = np.ones(n)
    if noisy:
        sigma = g.uniform(0.01, 0.03, n)
        p = np.clip(p + sigma * g.standard_normal(n), 0.0, 1.0)
        w = 1.0 / sigma ** 2
    return [SpectrumPoint(float(a), float(b), float(c)) for a, b, c in zip(x, p, w)]


POLISH_CASES = RANDOM_CASES + [
    pytest.param(_bench_like_spectrum(1, 200, False), {"bounds": FIRST_OCTANT},
                 id="bench-octant-200"),
    pytest.param(_bench_like_spectrum(2, 200, True), {}, id="bench-free-200"),
    pytest.param(_bench_like_spectrum(3, 2000, False),
                 {"bounds": FIRST_OCTANT, "fixed": {"lambda_km": 0.0}}, id="bench-fix-2000"),
    pytest.param(_bench_like_spectrum(4, 2000, True),
                 {"bounds": FIRST_OCTANT, "fixed": {"lambda_km": 0.0}},
                 id="bench-fix-noisy-2000"),
]


@pytest.mark.parametrize("points, options", POLISH_CASES)
def test_polish_matches_the_golden_section_reference(monkeypatch, points, options):
    # with one free parameter, the same grid, cycles and verdict as a polish
    # by golden section, and an SSE no worse up to rounding; with two, no
    # worse than a coordinate-wise polish by golden section
    fit = neutrino.fit_parameters(points, **options)
    assert (fit.jtj_cond is not None) == _both_free(options)
    if _both_free(options):
        _check_against_coordinate_polish(fit, points, options, reference_golden_min)
        return
    monkeypatch.setattr(neutrino, "_brent_min", reference_golden_min)
    ref = neutrino.fit_parameters(points, **options)
    assert (fit.cycles, fit.converged) == (ref.cycles, ref.converged)
    assert (fit.grid_params, fit.grid_sse) == (ref.grid_params, ref.grid_sse)
    total_weight = sum(pt.weight for pt in points)
    assert fit.sse <= ref.sse * (1.0 + 1e-12) + 1e-12 * total_weight


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
