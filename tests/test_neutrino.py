import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dqs import neutrino, qubit
from dqs.neutrino import OscillationParams, Spectrum
from helpers import (reference_coordinate_polish, reference_grid, reference_grid_table,
                     reference_lm_min, reference_survival, reference_survival_rows)

EPS = np.finfo(float).eps

THETA_04 = math.atan(math.sqrt(0.40))  # tan^2 theta = 0.40


def make_spectrum(x, p, w=None):
    """The spectrum of columns x and p, with weights w or else 1."""
    return Spectrum(x, p, np.ones(np.shape(x)) if w is None else w)


def test_phase_constant_against_hbar_c():
    hbar_gev_s = 6.582119e-25
    c_km_s = 2.99792458e5
    oracle = 1e-18 / (4.0 * hbar_gev_s * c_km_s)
    assert neutrino.PHASE_CONSTANT == oracle
    assert neutrino.PHASE_CONSTANT == pytest.approx(1.2669327886587591, abs=0.0)


@pytest.mark.parametrize("dm2, message", [
    (math.nan, "dm2 must be finite, got nan"),
    (math.inf, "dm2 must be finite, got inf"),
    (-1.0, "dm2 must be positive, got -1.0"),
    (0.0, "dm2 must be positive, got 0.0"),
])
def test_params_check_dm2(dm2, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OscillationParams(dm2, 0.5)


def test_survival_probability_checks_the_energy_before_the_baseline():
    params = OscillationParams(7.9e-5, THETA_04)
    with pytest.raises(ValueError, match="^energy must be positive, got 0.0$"):
        neutrino.survival_probability(params, -1.0, 0.0)
    with pytest.raises(ValueError, match="^baseline must be nonnegative, got -1.0$"):
        neutrino.survival_probability(params, -1.0, 0.005)


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


def random_points(seed, count):
    """Parameters and (L, E) points spread over the reactor-to-accelerator range."""
    g = np.random.default_rng(seed)
    params = OscillationParams(g.uniform(1e-5, 3e-3), g.uniform(0.0, math.pi / 2.0),
                               g.choice([0.0, g.uniform(0.0, 1e-3)]))
    return params, g.uniform(0.0, 1.5e4, count), 10.0 ** g.uniform(-3.0, 1.0, count)


@pytest.mark.parametrize("seed", range(5))
def test_single_point_survival_moves_by_at_most_two_eps_of_the_phase(seed):
    # the phase is (C dm2 / E) L, where the math formula took (C dm2 L) / E:
    # the two roundings move P by at most 2 eps max(1, phase)
    params, baselines, energies = random_points(seed, 2000)
    for L, E in zip(baselines.tolist(), energies.tolist()):
        value = neutrino.survival_probability(params, L, E)
        phase = neutrino.PHASE_CONSTANT * params.dm2 * L / E
        reference = reference_survival(params.dm2, params.theta, params.lambda_km, L, E)
        assert abs(value - reference) <= 2.0 * EPS * max(1.0, phase)


@pytest.mark.parametrize("seed", range(5))
def test_survival_on_an_l_over_e_grid_is_the_single_point_value_at_one_gev(seed):
    # one formula: x on the L/E grid and (L, E) = (x, 1) agree bit for bit,
    # and the grid keeps the numpy formula's bits
    params, x, _ = random_points(seed, 2000)
    values = neutrino.survival_at_l_over_e(params, x)
    assert values.tolist() == [neutrino.survival_probability(params, v, 1.0) for v in x.tolist()]
    assert values.tolist() == reference_survival_rows(
        x, params.dm2, params.theta, params.lambda_km).tolist()


def test_octant_degeneracy_of_survival():
    # sin^2(2 theta) cannot tell theta from its mirror about pi/4
    x = np.linspace(0.0, 3.6e4, 50)
    lo = OscillationParams(7.9e-5, THETA_04, 5e-5)
    hi = OscillationParams(7.9e-5, math.pi / 2.0 - THETA_04, 5e-5)
    assert np.abs(neutrino.survival_at_l_over_e(lo, x)
                  - neutrino.survival_at_l_over_e(hi, x)).max() <= 1e-15


@pytest.mark.parametrize("function, args, message", [
    ("survival_at_l_over_e", (math.nan,), "L/E must be finite, got nan"),
    ("survival_at_l_over_e", ([1.0, -math.inf, math.nan],), "L/E must be finite, got -inf"),
    ("survival_probability", (math.nan, 1.0), "baseline must be finite, got nan"),
    ("survival_probability", (math.inf, 1.0), "baseline must be finite, got inf"),
    ("survival_probability", (1.0, math.inf), "energy must be finite, got inf"),
    ("survival_probability", (1.0, math.nan), "energy must be finite, got nan"),
], ids=["loe-nan", "loe-array-inf", "baseline-nan", "baseline-inf", "energy-inf",
        "energy-nan"])
def test_non_finite_inputs_are_named(function, args, message):
    # a non-finite input is named, before any range check and before the
    # phase is formed
    params = OscillationParams(7.9e-5, THETA_04, 5e-5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(neutrino, function)(params, *args)


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
    spectrum = neutrino.read_spectrum_csv(path)
    assert np.array_equal(spectrum.l_over_e, [0.0, 12000.0])
    assert np.array_equal(spectrum.p, [1.0, 0.55])
    assert np.array_equal(spectrum.weight, [1.0, 2.0])


def test_read_spectrum_csv_without_weights(tmp_path):
    path = tmp_path / "spectrum.csv"
    path.write_text("L_over_E_km_per_GeV,P_survival\n100.0,0.9\n")
    spectrum = neutrino.read_spectrum_csv(path)
    assert len(spectrum) == 1 and np.array_equal(spectrum.weight, [1.0])


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


def _point_fault(x, p, w):
    """The column of the first value of (L/E, P, weight) that breaks the point
    rule, or None: L/E finite and >= 0, P in [0, 1] up to 1e-9, weight
    finite and >= 0."""
    for col, ok in enumerate((math.isfinite(x) and x >= 0.0,
                              -1e-9 <= p <= 1.0 + 1e-9,
                              math.isfinite(w) and w >= 0.0)):
        if not ok:
            return col
    return None


# fields that pass the point rule in every column, and fields that fail
# float() or the rule in some column
GOOD_FIELDS = ["0", "0.5", " 0.25 ", "1", "1.0000000005", "-0.0", "1e-3", "1_0e-2"]
BAD_FIELDS = ["12.5", "1_000", "spam", "nan", "inf", "-inf", "1e999", "-1", "-1e-10",
              "1.000000002", "", "0x1"]
SKIPPED_LINES = ["", "   ", "# note", "  #1,2"]


@st.composite
def spectrum_files(draw):
    """A spectrum CSV text: comments, a header, and short good or bad rows."""
    ncols = draw(st.sampled_from([2, 3]))
    good = st.lists(st.sampled_from(GOOD_FIELDS), min_size=ncols, max_size=ncols)
    mixed = st.lists(st.sampled_from(GOOD_FIELDS + BAD_FIELDS), min_size=1, max_size=4)
    # good rows come twice as often as mixed ones, so that many files pass
    line = st.one_of(good.map(",".join), good.map(",".join), mixed.map(",".join),
                     st.sampled_from(SKIPPED_LINES))
    header = ",".join(neutrino.SPECTRUM_COLUMNS + ("weight",) * (ncols - 2))
    lines = (draw(st.lists(st.sampled_from(SKIPPED_LINES), max_size=2)) + [header]
             + draw(st.lists(line, max_size=8)))
    return "\n".join(lines) + "\n"


def _reference_read(text):
    """(the columns, None) for a file whose every data line splits into the
    header's field count, converts by float() and passes the point rule, or
    (None, the number of the first line that does not)."""
    lines = [line.strip() for line in text.split("\n")]
    header = next(k for k, line in enumerate(lines) if line and not line.startswith("#"))
    ncols = lines[header].count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[header + 1:], start=header + 2):
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        try:
            row = [float(f) for f in fields] + [1.0] * (3 - ncols)
        except ValueError:
            return None, lineno
        if len(fields) != ncols or _point_fault(*row) is not None:
            return None, lineno
        rows.append(row)
    return np.array(rows).reshape(-1, 3).T, None


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spectrum_files())
def test_reader_agrees_with_a_line_by_line_reference(tmp_path, text):
    path = tmp_path / "fuzz.csv"
    path.write_text(text)
    columns, bad_line = _reference_read(text)
    if bad_line is not None:
        with pytest.raises(ValueError, match=f"^line {bad_line}: "):
            neutrino.read_spectrum_csv(path)
        return
    spectrum = neutrino.read_spectrum_csv(path)
    for got, want in zip((spectrum.l_over_e, spectrum.p, spectrum.weight), columns):
        assert np.array_equal(got, want)


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


def _float_columns(rows):
    """Each column of rows of field strings, read by float() field by field."""
    return [np.array([float(f) for f in column]) for column in zip(*rows)]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("style", ["repr", "%.17g"])
def test_c_parse_reads_the_bits_float_reads(tmp_path, monkeypatch, style):
    # numpy's C reader and float() round alike, down to the sign of zero,
    # on subnormals, values near the ends of the float range, 17-digit
    # values and probabilities at the edges of the point rule's slack
    g = np.random.default_rng(7)
    sizes = ([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300,
              1.7976931348623157e308] + (10.0 ** g.uniform(-300, 300, 40)).tolist()
             + g.uniform(0.0, 3.6e4, 40).tolist())
    probabilities = ([0.0, -0.0, 1.0, 5e-324, 1e-300, -1e-9, 1.0 + 1e-9,
                      np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)]
                     + g.uniform(0.0, 1.0, len(sizes) - 9).tolist())
    fmt = repr if style == "repr" else (lambda v: "%.17g" % v)
    rows = [[fmt(float(v)) for v in point]
            for point in zip(sizes, probabilities, g.permutation(sizes))]
    path = tmp_path / "bits.csv"
    path.write_text("L_over_E_km_per_GeV,P_survival,weight\n"
                    + "".join(",".join(row) + "\n" for row in rows))

    def no_line_pass(lines, ncols):
        raise AssertionError("the C parse refused a file float() reads")

    monkeypatch.setattr(neutrino, "_read_lines", no_line_pass)
    spectrum = neutrino.read_spectrum_csv(path)
    for got, want in zip((spectrum.l_over_e, spectrum.p, spectrum.weight), _float_columns(rows)):
        assert np.array_equal(got, want) and _same_bits(got, want)


@pytest.mark.parametrize("loe, p", [("١٢", "0.5"), ("12", "1_0e-2"), (" 1_2 ", "\u0660.5")],
                         ids=["arabic-indic-loe", "underscore-p", "both"])
def test_fields_only_float_reads_go_through_the_line_pass(tmp_path, monkeypatch, loe, p):
    # numpy's C reader refuses underscores and non-ASCII digits, which
    # float() reads; the line pass reads them instead
    line_pass = neutrino._read_lines
    calls = []
    monkeypatch.setattr(neutrino, "_read_lines",
                        lambda lines, ncols: calls.append(ncols) or line_pass(lines, ncols))
    rows = [["0.0", "1.0"], [loe, p], ["360.0", "0.25"]]
    path = tmp_path / "float-only.csv"
    path.write_text("L_over_E_km_per_GeV,P_survival\n"
                    + "".join(",".join(row) + "\n" for row in rows))
    spectrum = neutrino.read_spectrum_csv(path)
    assert calls == [2]
    for got, want in zip((spectrum.l_over_e, spectrum.p), _float_columns(rows)):
        assert _same_bits(got, want)
    assert np.array_equal(spectrum.weight, np.ones(3))


@pytest.mark.parametrize("row, field", [("2.0\x1c,0.5", "2.0\x1c"), ("2.0,\x1f0.5", "\x1f0.5")])
def test_reader_refuses_the_separators_float_refuses(tmp_path, row, field):
    # numpy's C reader skips the ASCII separators \x1c-\x1f around a field,
    # as str.strip does, but float() refuses them, and so does the reader;
    # at either end of a line they are stripped with the line
    path = tmp_path / "separator.csv"
    path.write_text(f"L_over_E_km_per_GeV,P_survival\n1.0,0.5\n{row}\n")
    message = f"^line 3: could not convert string to float: {re.escape(repr(field))}$"
    with pytest.raises(ValueError, match=message):
        neutrino.read_spectrum_csv(path)


def test_field_space_is_the_whitespace_float_strips():
    # a line holds no \n or \r; float() refuses \x1c-\x1f, which str.strip takes
    space = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
    assert set(neutrino._FIELD_SPACE) == space - set("\n\r\x1c\x1d\x1e\x1f")
    for c in neutrino._FIELD_SPACE:
        assert float(f"{c}2.5{c}") == 2.5


@pytest.mark.parametrize("pad", ["\v", "\f", "\x85", "\xa0", " ", "　"])
def test_reader_names_a_padded_field_without_its_padding(tmp_path, pad):
    # float() reads a number padded with any whitespace but \x1c-\x1f, and a
    # field that is no number is named stripped, whichever pass reads it
    path = tmp_path / "padded.csv"
    path.write_text(f"L_over_E_km_per_GeV,P_survival\n{pad}2.5{pad},0.5\n")
    assert neutrino.read_spectrum_csv(path).l_over_e.tolist() == [2.5]
    for row in (f"{pad}abc{pad},0.5", f"{pad}1_0{pad},{pad}abc{pad}"):
        path.write_text(f"L_over_E_km_per_GeV,P_survival\n1.0,0.5\n{row}\n")
        with pytest.raises(ValueError, match="^line 3: could not convert string to float: 'abc'$"):
            neutrino.read_spectrum_csv(path)


@pytest.mark.parametrize("text", [
    "L_over_E_km_per_GeV,P_survival\n",
    "# a spectrum\nL_over_E_km_per_GeV,P_survival,weight\n\n# no points yet\n   \n",
], ids=["header-only", "header-and-comments"])
def test_reader_returns_an_empty_spectrum_without_a_warning(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectrum = neutrino.read_spectrum_csv(path)
    assert len(spectrum) == 0
    for column in (spectrum.l_over_e, spectrum.p, spectrum.weight):
        assert column.shape == (0,) and column.dtype == float


_BLOCK = 256
_THIRD_BLOCK_ROW = 2 * _BLOCK + 18
_SECOND_BLOCK_ROW = _BLOCK + 44


@pytest.mark.parametrize("bad, message", [
    ({_THIRD_BLOCK_ROW: "1.0,0.5"}, "expected 3 fields, got 2$"),
    ({_THIRD_BLOCK_ROW: "1.0,spam,1.0", _THIRD_BLOCK_ROW + 30: "1.0"},
     "could not convert string to float: 'spam'$"),
    ({_THIRD_BLOCK_ROW: "1.0,7.0,1.0"}, "survival probability must lie in"),
    # a row a field short, then one a field long: the block's field total balances
    ({_SECOND_BLOCK_ROW: "1.0,0.5", _SECOND_BLOCK_ROW + 1: "1.0,0.5,1.0,1.0"},
     "expected 3 fields, got 2$"),
], ids=["short-third-block", "not-a-number-third-block", "point-third-block", "balanced-block"])
def test_reader_names_the_first_bad_line_beyond_the_first_block(tmp_path, bad, message):
    # 2 * _BLOCK + 88 rows, so that the bad lines lie far past the first; line 1
    # is the header
    rows = [f"{60.0 * k!r},0.5,1.0" for k in range(2 * _BLOCK + 88)]
    for k, text in bad.items():
        rows[k] = text
    path = tmp_path / "long.csv"
    path.write_text("L_over_E_km_per_GeV,P_survival,weight\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=f"^line {min(bad) + 2}: {message}"):
        neutrino.read_spectrum_csv(path)


BAD_POINTS = [(-1.0, 0.5, 1.0), (math.nan, 0.5, 1.0), (math.inf, 0.5, 1.0),
              (1.0, 1.0 + 2e-9, 1.0), (1.0, -0.1, 1.0), (1.0, math.nan, 1.0),
              (1.0, 0.5, -1.0), (1.0, 0.5, math.inf), (1.0, 0.5, math.nan),
              (-1.0, 7.0, -1.0), (1.0, 7.0, -1.0)]


@pytest.mark.parametrize("bad", BAD_POINTS, ids=repr)
def test_spectrum_applies_the_point_rule(bad, tmp_path):
    # one rule: a spectrum names its first bad point, and the reader its
    # first bad line, with the same message
    col = _point_fault(*bad)
    message = f"{neutrino._POINT_RULE[col]}, got {bad[col]!r}"
    good = (0.0, 1.0, 1.0)
    with pytest.raises(ValueError) as within:
        Spectrum(*zip(good, bad))
    assert str(within.value) == f"point 1: {message}"
    path = tmp_path / "bad.csv"
    path.write_text("L_over_E_km_per_GeV,P_survival,weight\n"
                    + "".join(",".join(map(repr, row)) + "\n" for row in (good, bad)))
    with pytest.raises(ValueError) as read:
        neutrino.read_spectrum_csv(path)
    assert str(read.value) == f"line 3: {message}"


def test_spectrum_accepts_the_probability_slack():
    spectrum = Spectrum([0.0, 1.0], [-1e-9, 1.0 + 1e-9], [0.0, 2.0])
    assert np.array_equal(spectrum.p, [-1e-9, 1.0 + 1e-9])
    assert np.array_equal(spectrum.weight, [0.0, 2.0])


def test_spectrum_keeps_read_only_copies():
    x = np.array([0.0, 10.0])
    spectrum = Spectrum(x, [1.0, 0.5], [1.0, 2.0])
    x[0] = 5.0
    assert spectrum.l_over_e.tolist() == [0.0, 10.0]
    for column in (spectrum.l_over_e, spectrum.p, spectrum.weight):
        assert column.dtype == np.float64 and column.flags.c_contiguous
        with pytest.raises(ValueError):
            column[0] = 0.5
    with pytest.raises(ValueError, match="equal length"):
        Spectrum([0.0, 1.0], [0.5], [1.0, 1.0])
    with pytest.raises(ValueError, match="1-D"):
        Spectrum([[0.0]], [[0.5]], [[1.0]])


# ------------------------------------------------------------------ fitting

def synthetic_spectrum(params, n=120, x_max=3.6e4):
    x = np.linspace(0.0, x_max, n)
    return make_spectrum(x, neutrino.survival_at_l_over_e(params, x))


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
    spectrum = _random_spectrum(5)
    fixed = neutrino.fit_parameters(spectrum, fixed={name: value}, grid_points=13)
    assert fixed == neutrino.fit_parameters(spectrum, bounds={name: (value, value)},
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


def test_fit_input_validation():
    with pytest.raises(ValueError, match="no spectrum points"):
        neutrino.fit_parameters(Spectrum([], [], []))
    with pytest.raises(TypeError, match=r"^data must be a Spectrum, got list$"):
        neutrino.fit_parameters([(0.0, 1.0), (100.0, 0.9)])
    data = make_spectrum([0.0, 100.0], [1.0, 0.9])
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


@pytest.mark.parametrize("pair", [(1e-5,), 5, (1e-5, 2e-4, 3e-4), None, ("spam", 1e-4)],
                         ids=repr)
def test_fit_rejects_bounds_that_are_not_a_pair(pair):
    # each entry of bounds is exactly two numbers
    data = make_spectrum([0.0, 100.0], [1.0, 0.9])
    with pytest.raises(ValueError, match=f"^bad bounds for dm2: {re.escape(repr(pair))}$"):
        neutrino.fit_parameters(data, bounds={"dm2": pair})


def test_fit_rejects_a_string_as_bounds():
    # "01" iterates as the characters "0" and "1", which both parse as floats
    data = make_spectrum([0.0, 100.0], [1.0, 0.9])
    with pytest.raises(ValueError, match=r"^bad bounds for theta: '01'$"):
        neutrino.fit_parameters(data, bounds={"theta": "01"})


def test_fit_rejects_zero_total_weight():
    data = Spectrum([0.0, 100.0], [1.0, 0.9], [0.0, 0.0])
    with pytest.raises(ValueError, match="zero total weight"):
        neutrino.fit_parameters(data)


def test_fit_over_bounds_narrower_than_an_ulp_converges():
    # a step tolerance of 1e-10 of these dm2 bounds is below one ulp and
    # cannot be met; the polish must still end, converged
    lo, hi = 1e-4, 1.000000000001e-4
    fit = neutrino.fit_parameters(synthetic_spectrum(OscillationParams(1e-4, 0.5), n=50),
                                  bounds={"dm2": (lo, hi)}, fixed={"lambda_km": 0.0})
    assert fit.converged
    assert lo <= fit.params.dm2 <= hi


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

def _grid_setup(spectrum, bounds=None, fixed=None):
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
    return spectrum.l_over_e, spectrum.p, spectrum.weight, merged, values, free


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
    return Spectrum(x, p, w)


def _tiny_weight_spectrum(seed):
    # weights so small that the model products underflow
    g = np.random.default_rng(seed)
    n = int(g.integers(1, 30))
    x = np.sort(g.uniform(0.0, 3.6e4, n))
    p = g.uniform(0.0, 1.0, n)
    w = g.choice([5e-324, 1e-323, 3e-320, 1e-310, 0.0], n)
    w[0] = max(w[0], 5e-324)
    return Spectrum(x, p, w)


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
    + [pytest.param(make_spectrum(_X50, np.full(_X50.size, level)), options,
                    id=f"flat{level}-{len(options)}")
       for level in (1.0, 0.5, 0.0)
       for options in ({}, {"fixed": {"lambda_km": 0.0}})]
    + [pytest.param(make_spectrum(_X50, _MIRROR), {}, id="mirror-theta"),
       pytest.param(Spectrum(_X50, np.full(_X50.size, 0.7), np.arange(_X50.size) == 7), {},
                    id="one-weight"),
       pytest.param(make_spectrum(np.zeros(20), 0.3 + 0.01 * np.arange(20)), {},
                    id="all-x-zero"),
       pytest.param(make_spectrum(_X50, _MIRROR), {"bounds": {"dm2": (1e-5, 1.7e308)}},
                    id="overflowing-dm2")]
    + [pytest.param(_tiny_weight_spectrum(seed), {}, id=f"tiny-weights{seed}")
       for seed in (35, 39)]
    + [pytest.param(Spectrum(_X50, _MIRROR, np.full(_X50.size, 1e308)), {},
                    id="huge-weights")]
)


@pytest.mark.parametrize("spectrum, options", GRID_CASES)
def test_grid_matches_brute_force_exactly(spectrum, options):
    # grid_sse is exactly the brute-force SSE at the reported grid point, and
    # since theta is solved at every (dm2, lambda_km) node rather than taken
    # from a grid, that point is no worse than the brute-force theta grid, up
    # to rounding
    fit = neutrino.fit_parameters(spectrum, **options)
    x, p, w, merged, values, free = _grid_setup(
        spectrum, options.get("bounds"), options.get("fixed"))
    at = fit.grid_params
    with np.errstate(over="ignore"):
        r = neutrino.survival_at_l_over_e(at, x) - p
        assert fit.grid_sse == float(np.dot(w * r, r))
    _, want_sse = reference_grid(x, p, w, merged, values, free,
                                 options.get("grid_points", 41))
    total_weight = sum(spectrum.weight.tolist())
    assert fit.grid_sse <= want_sse * (1.0 + 1e-9) + 1e-12 * total_weight
    assert fit.sse <= fit.grid_sse
    assert fit.converged


def _t_range(merged):
    """The image [t_lo, t_hi] of the theta bounds under sin^2(2 theta)."""
    lo, hi = merged["theta"]
    ends = (math.sin(2.0 * lo) ** 2, math.sin(2.0 * hi) ** 2)
    return min(ends), 1.0 if lo <= math.pi / 4.0 <= hi else max(ends)


TABLE_CASES = (
    [pytest.param(_random_spectrum(seed), _GRID_OPTIONS, id=f"random{seed}")
     for seed in range(64)]
    + [pytest.param(case.values[0], [case.values[1]], id=case.id)
       for case in GRID_CASES if case.id == "overflowing-dm2"]
)


@pytest.mark.parametrize("spectrum, option_list", TABLE_CASES)
def test_grid_rows_match_the_direct_table(spectrum, option_list):
    # the rows built by recurrence agree with one sine or exponential per
    # node, and the fit chooses the node the direct table chooses, up to a
    # tie within rounding
    x, p, w = spectrum.l_over_e, spectrum.p, spectrum.weight
    for options in option_list:
        merged = _merged_bounds(options)
        count = options.get("grid_points", 41)
        levels = [np.linspace(lo, hi, count if lo < hi else 1)
                  for lo, hi in (merged["dm2"], merged["lambda_km"])]
        want = reference_grid_table(x, *levels)
        sse_inputs = (1.0 - p, w / w.max(), _t_range(merged))
        with np.errstate(all="ignore"):
            rows = neutrino._grid_rows(x, *levels)
            estimate = neutrino._grid_sse(*want, *sse_inputs)
            assert np.array_equal(np.isfinite(neutrino._grid_sse(*rows, *sse_inputs)),
                                  np.isfinite(estimate))
        for got, ref in zip(rows, want):
            # finite wherever the direct table is; not the reverse, since
            # where PHASE_CONSTANT dm2 overflows the direct table is NaN even
            # at x = 0, whose phase the recurrence keeps at 0
            finite = np.isfinite(ref)
            assert np.isfinite(got[finite]).all()
            assert np.abs(got - ref, where=finite, out=np.zeros_like(ref)).max() <= 1e-13

        at = neutrino.fit_parameters(spectrum, max_cycles=1, **options).grid_params
        best = np.where(np.isfinite(estimate), estimate, np.inf).min()
        chosen = estimate[levels[0] == at.dm2][:, levels[1] == at.lambda_km]
        assert chosen.shape == (1, 1)
        assert chosen[0, 0] - best <= 1e-12 * abs(best)


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
    spectrum = make_spectrum(x, neutrino.survival_at_l_over_e(truth, x))
    calls = _counting_model_calls(monkeypatch)
    return neutrino.fit_parameters(spectrum, bounds=FIRST_OCTANT), len(calls)


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


def _check_against_coordinate_polish(fit, spectrum, options):
    """The fit converged from the reference's grid point, to an SSE no worse
    than the coordinate-wise golden-section polish from there, up to rounding."""
    ref = reference_coordinate_polish(spectrum, _merged_bounds(options), fit.grid_params,
                                      options.get("grid_points", 41))
    assert (fit.grid_params, fit.grid_sse) == (ref.grid_params, ref.grid_sse)
    assert fit.converged
    total_weight = sum(spectrum.weight.tolist())
    assert fit.sse <= ref.sse * (1.0 + 1e-12) + 1e-12 * total_weight


def test_polish_does_not_stop_short_of_a_slice_minimum():
    # with two grid points the polish starts in a corner of the box, and the
    # coordinate-wise reference's first dm2 bracket spans the whole range
    # with its slice minimum in a worse valley; the fit must end no worse
    # than that reference, which narrows the bracket, or than the finer grid
    spectrum = _random_spectrum(22)
    coarse = neutrino.fit_parameters(spectrum, grid_points=2)
    _check_against_coordinate_polish(coarse, spectrum, {"grid_points": 2})
    fine = neutrino.fit_parameters(spectrum)
    assert coarse.sse <= fine.sse * (1.0 + 1e-9)


@pytest.mark.parametrize("seed, options, most", [(22, {"grid_points": 2}, 16),
                                                 (6, {"grid_points": 2}, 24),
                                                 (13, {}, 10)])
def test_polish_settles_a_correlated_valley_in_few_steps(monkeypatch, seed, options, most):
    # the coordinate-wise polish crept along these correlated (dm2, lambda_km)
    # valleys for 20, 20 and 25 cycles of 914, 706 and 1030 model calls
    spectrum = _random_spectrum(seed)
    calls = _counting_model_calls(monkeypatch)
    fit = neutrino.fit_parameters(spectrum, **options)
    assert fit.cycles <= most and len(calls) <= most
    _check_against_coordinate_polish(fit, spectrum, options)


@pytest.mark.parametrize("seed, fixed", [
    pytest.param(seed, fixed, id=f"{seed}-{'-'.join(fixed) or 'free'}")
    for seed, fixed in [(85, {"theta": 0.5}), (143, {"theta": 0.5}), (375, {"theta": 0.5}),
                        (387, {"theta": 0.5}), (186, {}), (283, {}),
                        (85, {"lambda_km": 0.0, "theta": 0.5}),
                        (143, {"lambda_km": 0.0, "theta": 0.5})]])
def test_polish_converges_within_the_cycle_limit(seed, fixed):
    # when mu shrank by a fixed third after each accepted step, the first six
    # ended unconverged after 60 iterations; Brent's slices polished the
    # last two, with lambda_km pinned as well
    fit = neutrino.fit_parameters(_random_spectrum(seed), fixed=fixed)
    assert fit.converged
    assert fit.sse <= fit.grid_sse


def _as_arrays(out):
    """f's tuple with g and m as arrays, the form ``reference_lm_min`` reads."""
    value, g, m, rss, *rest = out
    return (value, np.array(g), np.array(m), rss, *rest)


def _within_4_ulp(a, b):
    return a == b or abs(a - b) <= 4.0 * math.ulp(max(abs(a), abs(b)))


def test_polish_matches_the_numpy_reference(monkeypatch):
    # the polish in Python floats takes the numpy polish's decisions, and
    # lands where it does up to the last bits of its products of two
    library = neutrino._lm_min
    pairs = []

    def both(f, start, at_start, lo, hi, tol, max_iterations):
        got = library(f, start, at_start, lo, hi, tol, max_iterations)
        want = reference_lm_min(lambda beta: _as_arrays(f(beta.tolist())), np.array(start),
                                _as_arrays(at_start), np.array(lo), np.array(hi),
                                np.array(tol), max_iterations)
        pairs.append((got, want))
        return got

    monkeypatch.setattr(neutrino, "_lm_min", both)
    for seed in range(300):
        spectrum = _random_spectrum(seed)
        for options in _GRID_OPTIONS:
            neutrino.fit_parameters(spectrum, **options)
    assert len(pairs) == 300 * len(_GRID_OPTIONS)
    for (beta, best, cycles, converged), (want_beta, want_best, want_cycles,
                                          want_converged) in pairs:
        assert (cycles, converged) == (want_cycles, want_converged)
        for got, want in zip([*beta, best[0], best[4]],
                             [*want_beta.tolist(), want_best[0], want_best[4]]):
            assert _within_4_ulp(got, want)


def test_polish_leaves_the_grid_node_when_every_weight_is_subnormal():
    # sum w r^2 underflows to 0 at every trial point, so a polish that took
    # only steps lowering it stayed on the grid node; the sum with weights
    # scaled to a maximum of 1 still ranks the points
    spectrum = _tiny_weight_spectrum(35)
    fit = neutrino.fit_parameters(spectrum)
    assert fit.converged
    assert fit.sse == fit.grid_sse == 0.0
    x, p, w, *_ = _grid_setup(spectrum)

    def scaled_sse(at):
        r = neutrino.survival_at_l_over_e(at, x) - p
        return np.dot(w / w.max() * r, r)

    assert scaled_sse(fit.params) < scaled_sse(fit.grid_params)


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
                _, *slopes = neutrino._damped(x, *at)
                assert np.array_equal(jac, np.array(slopes) * t)  # dT* = 0
    assert seen == {False, True}


def test_fit_reports_the_condition_of_jtj():
    data = _random_spectrum(13)
    fit = neutrino.fit_parameters(data)
    x, p, w = data.l_over_e, data.p, data.weight
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
    return Spectrum(x, p, w)


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


@pytest.mark.parametrize("seed, n, noisy", [(3, 2000, False), (63, 50, True),
                                             (92, 2000, False), (128, 200, False)])
def test_one_free_polish_evaluates_few_points(monkeypatch, seed, n, noisy):
    # these spectra are damped, so pinning lambda_km at 0 leaves a large
    # residual, along which J^T J overrates the curvature of the SSE:
    # Brent's slices made 24 to 40 model calls here, and Levenberg-Marquardt
    # steps sized by J^T J alone reached the cycle limit on the last three
    calls = _counting_model_calls(monkeypatch)
    fit = neutrino.fit_parameters(_bench_like_spectrum(seed, n, noisy),
                                  bounds=FIRST_OCTANT, fixed={"lambda_km": 0.0})
    assert fit.converged
    assert len(calls) <= 10


@pytest.mark.parametrize("spectrum, options", POLISH_CASES)
def test_polish_matches_the_golden_section_reference(spectrum, options):
    # the same grid point as a coordinate-wise polish by golden section, and
    # an SSE no worse up to rounding, whether one parameter is free or two
    fit = neutrino.fit_parameters(spectrum, **options)
    assert (fit.jtj_cond is not None) == _both_free(options)
    _check_against_coordinate_polish(fit, spectrum, options)


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
    fit = neutrino.fit_parameters(Spectrum(x, p, w), fixed={"dm2": truth.dm2,
                                                 "lambda_km": truth.lambda_km})
    assert fit.converged
    assert fit.cycles == 0
    assert fit.params.dm2 == truth.dm2 and fit.params.lambda_km == truth.lambda_km
    scan = np.linspace(0.0, math.pi / 2.0, 10001)
    d = neutrino._damped(x, truth.dm2, truth.lambda_km)[0]
    r = 1.0 - d * np.sin(2.0 * scan[:, None]) ** 2 - p
    assert fit.sse <= float(((w * r * r).sum(axis=1)).min())
