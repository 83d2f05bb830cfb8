"""Two-flavor survival spectra with exponential coherence damping.

Units follow oscillation-experiment conventions: squared-mass splittings in
eV^2, baselines in km, energies in GeV, damping rates in 1/km.  The phase
constant ties them together:

    phase = PHASE_CONSTANT * dm2 * L / E

Survival of the first flavor is

    P(L, E) = 1 - [1/2 - exp(-lambda_km * L) (1/2 - sin^2 phase)] sin^2(2 theta)

which reduces to the familiar undamped formula at lambda_km = 0 and washes
out to the incoherent average 1 - sin^2(2 theta)/2 at long baselines.  It
is the dephasing qubit's transition probability with splitting
Delta = 2 PHASE_CONSTANT dm2 / E, time t = L and rate lambda_km, and it is
evaluated in one place, ``qubit._transition``; only the fit keeps its own
table of it (``_damped`` and the grid rows), for the slopes.

Spectra are tabulated against x = L/E.  The damping factor depends on the
baseline alone, so a pure L/E table cannot carry an independent baseline;
``survival_at_l_over_e`` realises x as (L, E) = (x km, 1 GeV), making the
damping exp(-lambda_km * x).  Data taken at a fixed energy other than 1 GeV
should rescale its rate accordingly or go through ``survival_probability``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from . import qubit

# 1e-18 / (4 hbar c) with hbar = 6.582119e-25 GeV s and c = 2.99792458e5 km/s;
# the 1e-18 converts eV^2 to GeV^2.
PHASE_CONSTANT = 1.2669327886587591

PARAMETER_NAMES = ("dm2", "theta", "lambda_km")

DEFAULT_BOUNDS: Mapping[str, Tuple[float, float]] = {
    "dm2": (1e-5, 2e-4),
    "theta": (0.0, math.pi / 2.0),
    "lambda_km": (0.0, 1e-3),
}

SPECTRUM_COLUMNS = ("L_over_E_km_per_GeV", "P_survival")

# the least Levenberg-Marquardt damping, which keeps the step's system
# regular when the Jacobian's columns are parallel
_MU_MIN = 1e-12

# slack for survival probabilities that graze 0 or 1 through rounding
_P_SLACK = 1e-9

# the whitespace float() strips from a field: str.strip's but \x1c-\x1f
_FIELD_SPACE = "\t\v\f \x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000" + "".join(map(chr, range(0x2000, 0x200b)))


_RANGE_CHECKS = {
    "dm2": (lambda v: v > 0.0, "positive"),
    "theta": (lambda v: 0.0 <= v <= math.pi / 2.0, "in [0, pi/2]"),
    "lambda_km": (lambda v: v >= 0.0, "nonnegative"),
    "baseline": (lambda v: v >= 0.0, "nonnegative"),
    "energy": (lambda v: v > 0.0, "positive"),
}


def _check_range(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and legal for the named quantity."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    ok, phrase = _RANGE_CHECKS[name]
    if not ok(value):
        raise ValueError(f"{name} must be {phrase}, got {value!r}")


@dataclass(frozen=True)
class OscillationParams:
    """Two-flavor model point: splitting, mixing angle, damping rate."""

    dm2: float
    theta: float
    lambda_km: float = 0.0

    def __post_init__(self) -> None:
        for name in PARAMETER_NAMES:
            _check_range(name, getattr(self, name))

    @property
    def sin2_2theta(self) -> float:
        return math.sin(2.0 * self.theta) ** 2


# the point rule, one clause per column of (L/E, P, weight), in that order
_POINT_RULE = ("L/E must be finite and nonnegative",
               "survival probability must lie in [0, 1]",
               "weight must be finite and nonnegative")


def _first_fault(x: np.ndarray, p: np.ndarray, w: np.ndarray) -> Optional[Tuple[int, int]]:
    """(point, column) of the first value, in point order, that breaks the point rule.

    A point has a finite L/E >= 0, a survival probability in [0, 1] up to
    ``_P_SLACK`` and a finite weight >= 0.  The column indexes
    ``_POINT_RULE``; None when every point passes.
    """
    bad = np.stack([~(np.isfinite(x) & (x >= 0.0)),
                    ~((p >= -_P_SLACK) & (p <= 1.0 + _P_SLACK)),
                    ~(np.isfinite(w) & (w >= 0.0))], axis=-1)
    if not bad.any():
        return None
    point = int(bad.any(axis=1).argmax())
    return point, int(bad[point].argmax())


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A survival spectrum as three read-only float64 columns of equal length.

    ``l_over_e`` holds x = L/E in km/GeV, ``p`` the survival probabilities
    and ``weight`` the fit weights.  Every point is validated at
    construction by ``_first_fault``; the ValueError names the first bad
    point by its index.  Columns are copied, so the caller's arrays stay
    writable.  ``len`` is the number of points.
    """

    l_over_e: np.ndarray
    p: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        cols = [np.array(c, dtype=float) for c in (self.l_over_e, self.p, self.weight)]
        if any(c.ndim != 1 or c.shape != cols[0].shape for c in cols):
            raise ValueError("spectrum columns must be 1-D and of equal length")
        fault = _first_fault(*cols)
        if fault is not None:
            point, col = fault
            raise ValueError(f"point {point}: {_POINT_RULE[col]}, got {float(cols[col][point])!r}")
        for name, c in zip(("l_over_e", "p", "weight"), cols):
            c.flags.writeable = False
            object.__setattr__(self, name, c)

    def __len__(self) -> int:
        return self.p.size


def survival_probability(params: OscillationParams, baseline_km: float,
                         energy_gev: float) -> float:
    """Survival at one (L, E): 1 - ``qubit._transition`` with t = L and half the
    splitting PHASE_CONSTANT dm2 / E."""
    _check_range("energy", energy_gev)
    _check_range("baseline", baseline_km)
    return 1.0 - qubit._transition(PHASE_CONSTANT * params.dm2 / energy_gev, params.lambda_km,
                                   params.theta, baseline_km)


def survival_at_l_over_e(params: OscillationParams, l_over_e):
    """Survival on an L/E grid, realising x as (L, E) = (x km, 1 GeV).

    Accepts a scalar or an array; returns a matching float or ndarray.
    """
    x = np.asarray(l_over_e, dtype=float)
    bad = x[~np.isfinite(x)]
    if bad.size:
        raise ValueError(f"L/E must be finite, got {float(bad[0])!r}")
    if np.any(x < 0.0):
        raise ValueError("L/E must be nonnegative")
    return 1.0 - qubit._transition(PHASE_CONSTANT * params.dm2, params.lambda_km, params.theta, x)


def _damped(x, dm2, lambda_km):
    """D = 1/2 - exp(-lambda_km x) (1/2 - sin^2 phase), so that P = 1 - D sin^2(2 theta).

    Returns the triple (D, dD/d dm2, dD/d lambda_km), the slopes from the
    same sine and exponential: with E = exp(-lambda_km x),
    dD/d dm2 = PHASE_CONSTANT x E sin(2 phase) and
    dD/d lambda_km = x E (1/2 - sin^2 phase).
    """
    phase = PHASE_CONSTANT * dm2 * x
    s = np.sin(phase)
    h = 0.5 - s ** 2
    e = np.exp(-lambda_km * x)
    d = 0.5 - e * h
    xe = x * e
    return d, (2.0 * PHASE_CONSTANT) * xe * s * np.cos(phase), xe * h


# ------------------------------------------------------------------ spectrum IO

def read_spectrum_csv(path) -> Spectrum:
    """Read a survival spectrum from CSV into a ``Spectrum``.

    Expected header: ``L_over_E_km_per_GeV,P_survival`` with an optional
    trailing ``weight`` column; without it every weight is 1.  Blank lines
    and lines starting with ``#`` are ignored, and so is a UTF-8 byte order
    mark, which spreadsheet exports often write.  Each field is read as
    ``float`` reads it: numpy's C reader parses the data rows in one call,
    with the correctly rounded routine ``float`` uses, and a file it
    refuses, or whose points fail, goes through ``_read_lines``.  A
    malformed row raises ValueError naming the first bad line in file
    order, whatever its fault: a wrong field count, a field that is not a
    number, or a point that breaks the rule ``Spectrum`` applies.  Lines
    are counted as file iteration counts them: by ``\\n`` after
    universal-newline translation, so a form feed or U+2028 inside a line
    does not start a new one.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = (text := fh.read()).split("\n")
    # the header and the data rows: every line not blank and no comment
    rows = [row for line in lines if (row := line.strip()) and row[0] != "#"]
    if not rows:
        raise ValueError("no header line found")
    fields = [f.strip() for f in rows[0].split(",")]
    expected = list(SPECTRUM_COLUMNS)
    if fields not in (expected, expected + ["weight"]):
        lineno = next(_content_lines(lines))[0]
        raise ValueError(f"line {lineno}: unexpected header {rows[0]!r}")
    ncols = len(fields)
    del rows[0]
    try:
        # loadtxt warns on no rows and, unlike float, skips the separators
        # \x1c-\x1f; its comments="#" would cut a row at a mid-line '#'
        if not rows or any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
            raise ValueError("left to the line pass")
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if values.shape != (len(rows), ncols):
            raise ValueError("wrong field count")
        weight = values[:, 2] if ncols == 3 else np.ones(len(rows))
        return Spectrum(values[:, 0], values[:, 1], weight)
    except ValueError:
        return Spectrum(*_read_lines(lines, ncols))


def _content_lines(lines: List[str]) -> Iterator[Tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank or a comment."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line and line[0] != "#":
            yield lineno, line


def _read_lines(lines: List[str], ncols: int) -> np.ndarray:
    """The columns (L/E, P, weight) of the data lines, read by ``float``; a
    ValueError names the first line that breaks the row rule."""
    linenos, points, problem = [], [], None
    for lineno, line in islice(_content_lines(lines), 1, None):
        fields = [f.strip(_FIELD_SPACE) for f in line.split(",")]
        try:
            if len(fields) != ncols:
                raise ValueError(f"expected {ncols} fields, got {len(fields)}")
            points.append([float(f) for f in fields] + [1.0] * (3 - ncols))
        except ValueError as exc:
            problem = f"line {lineno}: {exc}"
            break
        linenos.append(lineno)
    columns = np.array(points).reshape(-1, 3).T
    if (fault := _first_fault(*columns)) is not None:
        point, col = fault
        problem = f"line {linenos[point]}: {_POINT_RULE[col]}, got {float(columns[col, point])!r}"
    if problem is not None:
        raise ValueError(problem)
    return columns


# ------------------------------------------------------------------ fitting

@dataclass(frozen=True)
class FitResult:
    """Outcome of a spectrum fit.

    ``grid_params``/``grid_sse`` record the best coarse-grid point before the
    polish, which is occasionally useful for diagnosing a fit that latched
    onto an aliased minimum.  Only dm2 and lambda_km are grid nodes;
    ``grid_params.theta`` is the angle solved in closed form there.

    ``cycles`` counts the polish's iterations, the Levenberg-Marquardt
    steps proposed, and is 0 when dm2 and lambda_km are both pinned.
    ``jtj_cond`` is cond(J^T J) of the profiled residual at the returned
    point, in coordinates scaled by the bound widths; inf when J^T J is
    singular or out of float range, and None unless dm2 and lambda_km are
    both free.
    """

    params: OscillationParams
    sse: float
    converged: bool
    cycles: int
    grid_params: OscillationParams
    grid_sse: float
    jtj_cond: Optional[float] = None


def _lm_min(f: Callable[[List[float]], tuple], start: List[float], at_start: tuple,
            lo: List[float], hi: List[float], tol: List[float],
            max_iterations: int) -> Tuple[List[float], tuple, int, bool]:
    """Box-projected Levenberg-Marquardt minimiser of a sum of squares in two
    parameters, in Python floats.

    f(beta) returns a tuple (value, g, m, rss, ...): the value minimised,
    and for a residual r whose sum of squares it is, up to a constant
    factor and rounding, the gradient g = J^T r, m = J^T J as two rows and
    rss = r^T r, all Python floats, as are beta, lo, hi and ``tol``: on two
    coordinates they cost less than numpy calls, and round alike on any
    BLAS.  ``at_start`` is f's tuple at ``start``.  Each iteration solves
    kappa (J^T J + mu diag(J^T J)) step = -g (Marquardt's scaling, so the
    step does not depend on the units of beta) over the free coordinates:
    one pinned by degenerate bounds (lo == hi), one on a bound whose
    gradient points out of the box and one along which J vanishes or is
    not finite stay put.  The trial point is beta + step clipped to [lo, hi].

    A trial that lowers rss, and does not raise the value, is taken.  mu
    then follows the gain ratio rho, rss's actual decrease over the
    decrease that the model promised for the unclipped step: mu is
    multiplied by max(1/3, 1 - (2 rho - 1)^3) (H. B. Nielsen,
    IMM-REP-1999-05), so that a step the model overrates shortens the next
    one.  Any other trial, a non-finite one included, is rejected and mu
    grows, faster with each rejection in a row.  No divisor is 0: a free
    coordinate has 0 < m_kk < inf, and k^2 - c^2 > 0 since |c| <= 1 < k.

    With a large residual, J^T J can overrate the curvature of rss, and
    each Gauss-Newton step then falls short of the minimum by the same
    fraction.  So after a step taken along one coordinate, where the
    secant is the curvature, kappa becomes the curvature that step met,
    step^T (g' - g), over the curvature J^T J gave it, clipped to [0.1, 1];
    after any other step taken it is 1, as at the start.

    The search stops, converged, once a step would move every coordinate
    by at most its ``tol``, or once the full Gauss-Newton step
    g^T (J^T J)^-1 g promises to lower rss by no more than 1e-13 of it:
    closer to the minimum, rounding in g moves the steps more than the
    residual can show.  Returns beta, f's tuple there, the number of
    iterations and whether it converged within ``max_iterations``.
    """
    beta, best = start, at_start
    mu, grow, kappa = 1e-3, 2.0, 1.0
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        value, g, m, rss = best[:4]
        free = [lo[k] < hi[k] and 0.0 < m[k][k] < math.inf and not (
            beta[k] <= lo[k] and g[k] > 0.0 or beta[k] >= hi[k] and g[k] < 0.0) for k in (0, 1)]
        # in units of the columns of J, J^T J has unit diagonal and the
        # off-diagonal c; a fixed coordinate has c = 0 and no gradient
        s = [math.sqrt(m[k][k]) if free[k] else 1.0 for k in (0, 1)]
        gs = [g[k] / s[k] if free[k] else 0.0 for k in (0, 1)]
        c = m[0][1] / (s[0] * s[1]) if all(free) else 0.0

        def solve(k):
            """[[k, c], [c, k]]^-1 gs."""
            det = k * k - c * c
            return [(k * gs[0] - c * gs[1]) / det, (k * gs[1] - c * gs[0]) / det]

        if sum(a * b for a, b in zip(gs, solve(1.0 + _MU_MIN))) <= 1e-13 * rss:
            return beta, best, iterations, True
        step = [v / kappa for v in solve(1.0 + mu)]
        # min and max keep a NaN, as np.clip does, so that f rejects it
        trial = [min(max(beta[k] - step[k] / s[k], lo[k]), hi[k]) for k in (0, 1)]
        if all(abs(trial[k] - beta[k]) <= tol[k] for k in (0, 1)):
            return beta, best, iterations, True
        out = f(trial)
        if out[3] < rss and out[0] <= value:
            # the model promises 2 step.gs - kappa step^T C step, C being the
            # scaled J^T J, which (C + mu) kappa step = gs turns into this sum
            drop = rss - out[3]
            promised = sum(a * b for a, b in zip(step, gs)) + kappa * mu * sum(v * v for v in step)
            rho = drop / promised if drop < promised else 1.0
            h = [trial[k] - beta[k] for k in (0, 1)]
            met = sum(h[k] * (out[1][k] - g[k]) for k in (0, 1))
            modelled = sum((h[0] * m[0][k] + h[1] * m[1][k]) * h[k] for k in (0, 1))
            one_axis = (h[0] != 0.0) != (h[1] != 0.0)
            kappa = (max(met, 0.1 * modelled) / modelled
                     if one_axis and 0.0 < modelled and met < modelled else 1.0)
            beta, best = trial, out
            mu, grow = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), _MU_MIN), 2.0
        else:
            mu, grow = mu * grow, grow * 2.0
    return beta, best, iterations, False


def _jtj_condition(m: List[List[float]], widths: List[float]) -> float:
    """cond(J^T J) of two parameters in coordinates scaled by ``widths``: inf
    when it is singular or out of float range, never NaN."""
    s = [v / max(widths) for v in widths]
    a, b, c = m[0][0] * s[0] * s[0], m[1][1] * s[1] * s[1], m[0][1] * s[0] * s[1]
    det = a * b - c * c
    if not (math.isfinite(a) and math.isfinite(b) and det > 0.0):
        return math.inf
    # the larger eigenvalue squared over the product of both
    high = 0.5 * (a + b) + math.hypot(0.5 * (a - b), c)
    return high * high / det


def _theta_for(t: float, lo: float, hi: float) -> float:
    """An angle in [lo, hi] with sin^2(2 theta) = t, the first octant on a tie."""
    first = 0.5 * math.asin(math.sqrt(t))
    second = math.pi / 2.0 - first
    gaps = [max(lo - theta, 0.0, theta - hi) for theta in (first, second)]
    return min(max(second if gaps[1] < gaps[0] else first, lo), hi)


def _best_t(d: np.ndarray, ws: np.ndarray, wsq: np.ndarray,
            t_range: Tuple[float, float]) -> Tuple[float, float]:
    """(T*, B): T* = A/B clipped to t_range, or its low end where B = 0.

    A = <D, ws q> (``wsq`` = ws q) and B = <D, ws D>, so that T* minimises
    sum ws (q - D T)^2 over T in t_range.
    """
    b = np.dot(ws * d, d)
    t_lo, t_hi = t_range
    return (t_lo if b == 0.0 else min(max(np.dot(wsq, d) / b, t_lo), t_hi)), b


def _profiled_residual(x: np.ndarray, q: np.ndarray, ws: np.ndarray, wsq: np.ndarray,
                       t_range: Tuple[float, float], dm2: float,
                       lambda_km: float) -> Tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """The profiled residual r = D T* - q at (dm2, lambda_km) and its Jacobian.

    Returns (D, T*, r, jac), T* from ``_best_t``, with jac[k] the derivative
    of r along dm2 (k = 0) and lambda_km (k = 1): dD_k T* + D dT*_k, where
    dT*_k = (<dD_k, ws q> - 2 T* <dD_k, ws D>) / B, or 0 where T* is
    clipped.  D and both dD_k come from one ``_damped`` call.
    """
    d, *slopes = _damped(x, dm2, lambda_km)
    dd = np.array(slopes)
    t, b = _best_t(d, ws, wsq, t_range)
    jac = dd * t
    if t_range[0] < t < t_range[1]:
        jac += np.outer((dd @ wsq - 2.0 * t * (dd @ (ws * d))) / b, d)
    return d, t, d * t - q, jac


def _grid_rows(x: np.ndarray, dm2_levels: np.ndarray,
               lambda_levels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The grid's tables S = 1/2 - sin^2 phase, a row per dm2 level, and
    E = exp(-lambda_km x), a row per lambda_km level, both by ``_exp_rows``:
    S is half the real part of exp(2i PHASE_CONSTANT dm2 x)."""
    s = 0.5 * _exp_rows(x, 2j * PHASE_CONSTANT, dm2_levels).real
    return s, _exp_rows(x, -1.0, lambda_levels)


def _exp_rows(x: np.ndarray, c, levels: np.ndarray) -> np.ndarray:
    """exp(c level x), a row per level of an evenly spaced ``levels``.

    Row 0 is exp(c (lo x)) and row k is row k-1 times exp(c (step x)).
    Where c step x overflows, the rows after the first are NaN (c
    imaginary) or 0 (c negative).
    """
    rows = np.empty((levels.size, x.size), dtype=np.result_type(c, x))
    rows[0] = np.exp(c * (levels[0] * x))
    if levels.size > 1:
        fixed = np.exp(c * ((levels[-1] - levels[0]) / (levels.size - 1) * x))
        for k in range(1, levels.size):
            np.multiply(rows[k - 1], fixed, out=rows[k])
    return rows


def _grid_sse(s: np.ndarray, e: np.ndarray, q: np.ndarray, ws: np.ndarray,
              t_range: Tuple[float, float]) -> np.ndarray:
    """The SSE at T*, weighted by ws, at every node of the rows S and E.

    With D = 1/2 - E S, SSE(T) = sum ws q^2 - 2 T A + T^2 B where
        A = sum(ws q)/2 - S (ws q E)^T,
        B = sum(ws)/4 - S (ws E)^T + S^2 (ws E^2)^T,
    two matrix products over the nodes; T* = A/B clipped to t_range, or
    its low end where B = 0, as in ``_best_t``.
    """
    t_lo, t_hi = t_range
    we = ws * e
    a = 0.5 * np.dot(ws, q) - s @ (q * we).T
    b = 0.25 * ws.sum() - s @ we.T + (s * s) @ (we * e).T
    t = np.where(b == 0.0, t_lo, np.clip(a / b, t_lo, t_hi))
    return np.dot(ws * q, q) - 2.0 * t * a + t * t * b


def fit_parameters(data: Spectrum,
                   bounds: Optional[Mapping[str, Tuple[float, float]]] = None,
                   fixed: Optional[Mapping[str, float]] = None,
                   grid_points: int = 41,
                   max_cycles: int = 60) -> FitResult:
    """Weighted least-squares fit of (dm2, theta, lambda_km) to a spectrum.

    Theta is profiled out.  With q = 1 - p and D = 1/2 - exp(-lambda_km x)
    (1/2 - sin^2 phase) the residual is q - D T, linear in T = sin^2(2 theta),
    so at fixed (dm2, lambda_km) the SSE is a convex quadratic in T with
    minimum T* = A/B, A = sum w q D and B = sum w D^2 (variable projection,
    Golub & Pereyra 1973).  T* is clipped to the image of the theta bounds
    and mapped back to an angle inside them; where both theta and
    pi/2 - theta are allowed, the first octant is taken.

    Only dm2 and lambda_km are searched.  The SSE at T* is estimated on a
    full grid over the free ones (``_grid_sse``), and the best finite node
    is polished.  The grid's rows of 1/2 - sin^2 phase = cos(2 phase)/2 and
    of exp(-lambda_km x) are built by recurrence (``_exp_rows``): the levels
    are evenly spaced, so each row is the one before times a fixed row, and
    a table costs two exponentials of a row and one product per row.  Each
    product adds about an ulp: over the default bounds, 41 levels and x up
    to 3.6e4, the rows agree with one sine or exponential per node within
    3.3e-15 for 1/2 - sin^2 phase and a relative 9.1e-15 for the damping.
    So only a tie between nodes within rounding can change the node chosen,
    which is then evaluated exactly.

    The polish is ``_lm_min``: box-projected Levenberg-Marquardt steps on
    the profiled residual D T* - q over dm2 and lambda_km, with a pinned
    one held where it is.  Its Jacobian (``_profiled_residual``) is exact:
    with one linear parameter the residual term that Kaufman's
    approximation (BIT 15, 1975) drops costs two dot products.  It stops
    once a step would move each free parameter by at most 1e-10 of its
    bound width, or once the Gauss-Newton step promises no more than
    rounding, or after ``max_cycles`` iterations.  A step is taken when it
    lowers the profiled SSE with the weights scaled to a maximum of 1 and
    does not raise the SSE with the caller's, which underflows to 0 when
    every weight is subnormal.  The reported SSE is
    always sum w (p - P)^2 at the returned parameters, and never above the
    grid node's.  Degenerate bounds (lo == hi) pin a parameter, and an
    entry v in ``fixed`` is the bound (v, v): it must lie inside any bounds
    given for the same name, though the default bounds do not limit it.  A
    pinned theta is kept exactly.  The procedure is deterministic: the same
    data and settings always return the same result.

    Survival spectra cannot distinguish theta from pi/2 - theta (sin^2 of
    twice the angle is symmetric about pi/4), so with the default theta
    bounds the fit reports the first octant.  Restrict theta to
    (pi/4, pi/2) for the second.

    ``data`` must be a ``Spectrum``; its columns are used as they are.
    """
    if not isinstance(data, Spectrum):
        raise TypeError(f"data must be a Spectrum, got {type(data).__name__}")
    if not len(data):
        raise ValueError("no spectrum points to fit")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    if max_cycles < 1:
        raise ValueError("max_cycles must be at least 1")

    x, p, w = data.l_over_e, data.p, data.weight
    if not w.max() > 0.0:
        raise ValueError("spectrum has zero total weight")

    merged: Dict[str, Tuple[float, float]] = dict(DEFAULT_BOUNDS)
    for name, pair in (bounds or {}).items():
        if name not in PARAMETER_NAMES:
            raise ValueError(f"unknown parameter {name!r}")
        try:
            lo, hi = map(float, pair)
        except (TypeError, ValueError):
            lo = hi = math.nan
        # a string is not a pair, though two of its characters may parse
        if isinstance(pair, str) or not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ValueError(f"bad bounds for {name}: {pair!r}")
        _check_range(name, lo)
        _check_range(name, hi)
        merged[name] = (lo, hi)
    for name, value in (fixed or {}).items():
        if name not in PARAMETER_NAMES:
            raise ValueError(f"unknown parameter {name!r}")
        v = float(value)
        _check_range(name, v)
        lo, hi = merged[name]
        if name in (bounds or {}) and not lo <= v <= hi:
            raise ValueError(f"fixed {name}={v!r} lies outside its bounds [{lo!r}, {hi!r}]")
        merged[name] = (v, v)

    values = {name: lo for name, (lo, hi) in merged.items() if lo == hi}
    free = [name for name in ("dm2", "lambda_km") if name not in values]

    theta_lo, theta_hi = merged["theta"]
    ends = (math.sin(2.0 * theta_lo) ** 2, math.sin(2.0 * theta_hi) ** 2)
    t_range = (min(ends), 1.0 if theta_lo <= math.pi / 4.0 <= theta_hi else max(ends))

    # A/B is computed with the weights scaled to a maximum of 1, so that
    # neither huge nor subnormal weights overflow or underflow
    q = 1.0 - p
    ws = w / w.max()
    wsq = ws * q

    def profiled(beta: List[float]) -> tuple:
        """The SSE at (dm2, lambda_km) = beta and its best theta, with J^T r,
        J^T J and r^T r of the profiled residual r weighted by ws, as floats."""
        with np.errstate(over="ignore", invalid="ignore"):
            d, t, r, jac = _profiled_residual(x, q, ws, wsq, t_range, beta[0], beta[1])
            wr = ws * r
            theta = _theta_for(t, theta_lo, theta_hi)
            res = 1.0 - d * np.sin(2.0 * theta) ** 2 - p
            return (float(np.dot(w * res, res)), (jac @ wr).tolist(),
                    ((jac * ws) @ jac.T).tolist(), float(np.dot(wr, r)), theta)

    # a pinned parameter has an axis of length 1
    levels = {name: np.linspace(*merged[name], grid_points if name in free else 1)
              for name in ("dm2", "lambda_km")}
    with np.errstate(all="ignore"):
        estimate = _grid_sse(*_grid_rows(x, levels["dm2"], levels["lambda_km"]),
                             q, ws, t_range)
    finite = np.isfinite(estimate)
    if not finite.any():
        raise ValueError("no grid point has a finite SSE")
    i, j = np.unravel_index(np.argmin(np.where(finite, estimate, np.inf)), estimate.shape)
    values["dm2"] = float(levels["dm2"][i])
    values["lambda_km"] = float(levels["lambda_km"][j])

    lo, hi = ([merged[n][k] for n in ("dm2", "lambda_km")] for k in (0, 1))
    widths = [b - a for a, b in zip(lo, hi)]
    beta = [values["dm2"], values["lambda_km"]]
    at_grid = profiled(beta)
    grid_sse, values["theta"] = at_grid[0], at_grid[4]
    grid_params = OscillationParams(**values)
    cur_sse, cycles, converged, jtj_cond = grid_sse, 0, True, None
    if free:
        beta, (cur_sse, _, jtj, _, values["theta"]), cycles, converged = _lm_min(
            profiled, beta, at_grid, lo, hi, [1e-10 * v for v in widths], max_cycles)
        values.update(dm2=beta[0], lambda_km=beta[1])
        if len(free) == 2:
            jtj_cond = _jtj_condition(jtj, widths)

    return FitResult(params=OscillationParams(**values), sse=cur_sse,
                     converged=converged, cycles=cycles,
                     grid_params=grid_params, grid_sse=grid_sse, jtj_cond=jtj_cond)
