"""Two-flavor survival spectra with exponential coherence damping.

Units follow oscillation-experiment conventions: squared-mass splittings in
eV^2, baselines in km, energies in GeV, damping rates in 1/km.  The phase
constant ties them together:

    phase = PHASE_CONSTANT * dm2 * L / E

Survival of the first flavor is

    P(L, E) = 1 - [1/2 - exp(-lambda_km * L) (1/2 - sin^2 phase)] sin^2(2 theta)

which reduces to the familiar undamped formula at lambda_km = 0 and washes
out to the incoherent average 1 - sin^2(2 theta)/2 at long baselines.

Spectra are tabulated against x = L/E.  The damping factor depends on the
baseline alone, so a pure L/E table cannot carry an independent baseline;
``survival_at_l_over_e`` realises x as (L, E) = (x km, 1 GeV), making the
damping exp(-lambda_km * x).  Data taken at a fixed energy other than 1 GeV
should rescale its rate accordingly or go through ``survival_probability``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

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

# the golden-section fraction (3 - sqrt 5)/2 of a bracket
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = sys.float_info.epsilon

# the least Levenberg-Marquardt damping, which keeps the step's system
# regular when the Jacobian's columns are parallel
_MU_MIN = 1e-12

# slack for survival probabilities that graze 0 or 1 through rounding
_P_SLACK = 1e-9

# spectrum CSV rows parsed at a time, so that the field strings of one block
# are alive at once rather than those of the whole file
_PARSE_BLOCK = 256


_RANGE_CHECKS = {
    "dm2": (lambda v: v > 0.0, "positive"),
    "theta": (lambda v: 0.0 <= v <= math.pi / 2.0, "in [0, pi/2]"),
    "lambda_km": (lambda v: v >= 0.0, "nonnegative"),
}


def _check_range(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and legal for the named parameter."""
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


@dataclass(frozen=True)
class SpectrumPoint:
    """One sample of a survival spectrum: x = L/E in km/GeV, probability, weight.

    Validation is ``_first_fault`` on a spectrum of one point.
    """

    l_over_e: float
    p: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        values = (self.l_over_e, self.p, self.weight)
        fault = _first_fault(*(np.array([v], dtype=float) for v in values))
        if fault is not None:
            col = fault[1]
            raise ValueError(f"{_POINT_RULE[col]}, got {values[col]!r}")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A survival spectrum as three read-only float64 columns of equal length.

    ``l_over_e`` holds x = L/E in km/GeV, ``p`` the survival probabilities
    and ``weight`` the fit weights.  Every point is validated at
    construction by ``_first_fault``, the rule ``SpectrumPoint`` applies to
    one point; the ValueError names the first bad point by its index.
    Columns are copied, so the caller's arrays stay writable.

    ``len``, integer indexing (which yields a ``SpectrumPoint``) and
    iteration behave as on a list of points; two spectra are equal when
    their columns are.
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

    @classmethod
    def from_points(cls, points: Iterable[SpectrumPoint]) -> "Spectrum":
        """The spectrum of the given points, in order."""
        pts = list(points)
        return cls([pt.l_over_e for pt in pts], [pt.p for pt in pts],
                   [pt.weight for pt in pts])

    def __len__(self) -> int:
        return self.p.size

    def __getitem__(self, k: int) -> SpectrumPoint:
        return SpectrumPoint(float(self.l_over_e[k]), float(self.p[k]), float(self.weight[k]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in ((self.l_over_e, other.l_over_e),
                                                      (self.p, other.p),
                                                      (self.weight, other.weight)))


def oscillation_phase(dm2: float, baseline_km: float, energy_gev: float) -> float:
    """PHASE_CONSTANT * dm2 * L / E, the argument of the oscillating sine."""
    if not energy_gev > 0.0:
        raise ValueError(f"energy must be positive, got {energy_gev!r}")
    if baseline_km < 0.0:
        raise ValueError(f"baseline must be nonnegative, got {baseline_km!r}")
    return PHASE_CONSTANT * dm2 * baseline_km / energy_gev


def survival_probability(params: OscillationParams, baseline_km: float,
                         energy_gev: float) -> float:
    phase = oscillation_phase(params.dm2, baseline_km, energy_gev)
    if not math.isfinite(phase):
        raise ValueError("oscillation phase overflows")
    damped = 0.5 - math.exp(-params.lambda_km * baseline_km) * (0.5 - math.sin(phase) ** 2)
    return 1.0 - damped * params.sin2_2theta


def survival_at_l_over_e(params: OscillationParams, l_over_e):
    """Survival on an L/E grid, realising x as (L, E) = (x km, 1 GeV).

    Accepts a scalar or an array; returns a matching float or ndarray.
    """
    x = np.asarray(l_over_e, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("L/E must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        phase = PHASE_CONSTANT * params.dm2 * x
    if not np.isfinite(phase).all():
        raise ValueError("oscillation phase overflows")
    # an overflowing damping exponent is full damping, exp(-inf) = 0
    with np.errstate(over="ignore"):
        values = _model(x, params.dm2, params.theta, params.lambda_km)
    return float(values) if values.ndim == 0 else values


def _damped(x, dm2, lambda_km, slopes=False):
    """D = 1/2 - exp(-lambda_km x) (1/2 - sin^2 phase), so that P = 1 - D sin^2(2 theta).

    With ``slopes`` the triple (D, dD/d dm2, dD/d lambda_km) is returned,
    from the same sine and exponential: with E = exp(-lambda_km x),
    dD/d dm2 = PHASE_CONSTANT x E sin(2 phase) and
    dD/d lambda_km = x E (1/2 - sin^2 phase).
    """
    phase = PHASE_CONSTANT * dm2 * x
    s = np.sin(phase)
    h = 0.5 - s ** 2
    e = np.exp(-lambda_km * x)
    d = 0.5 - e * h
    if not slopes:
        return d
    xe = x * e
    return d, (2.0 * PHASE_CONSTANT) * xe * s * np.cos(phase), xe * h


def _model(x, dm2, theta, lambda_km):
    return 1.0 - _damped(x, dm2, lambda_km) * np.sin(2.0 * theta) ** 2


# ------------------------------------------------------------------ spectrum IO

def read_spectrum_csv(path) -> Spectrum:
    """Read a survival spectrum from CSV into a ``Spectrum``.

    Expected header: ``L_over_E_km_per_GeV,P_survival`` with an optional
    trailing ``weight`` column; without it every weight is 1.  Blank lines
    and lines starting with ``#`` are ignored, and so is a UTF-8 byte order
    mark, which spreadsheet exports often write.  Each field is converted by
    ``float``.  A malformed row raises ValueError naming the first bad line
    in file order, whatever its fault: a wrong field count, a field that is
    not a number, or a point that breaks the ``SpectrumPoint`` rule.

    The rows are parsed in one pass and checked as columns; only a file
    that fails is gone through line by line, to find the line to name.
    Lines are counted as file iteration counts them: by ``\\n`` after
    universal-newline translation, so a form feed or U+2028 inside a line
    does not start a new one.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [raw.strip() for raw in fh.read().split("\n")]
    header = next((k for k, line in enumerate(lines) if line and line[0] != "#"), None)
    if header is None:
        raise ValueError("no header line found")
    fields = [f.strip() for f in lines[header].split(",")]
    expected = list(SPECTRUM_COLUMNS)
    if fields not in (expected, expected + ["weight"]):
        raise ValueError(f"line {header + 1}: unexpected header {lines[header]!r}")
    ncols = len(fields)
    rows = [line for line in lines[header + 1:] if line and line[0] != "#"]
    values = np.empty((len(rows), ncols))
    try:
        for k in range(0, len(rows), _PARSE_BLOCK):
            block = rows[k:k + _PARSE_BLOCK]
            if any(row.count(",") != ncols - 1 for row in block):
                raise ValueError("wrong field count")
            values[k:k + len(block)] = np.fromiter(
                map(float, ",".join(block).split(",")), dtype=float).reshape(-1, ncols)
        weight = values[:, 2] if ncols == 3 else np.ones(len(rows))
        return Spectrum(values[:, 0], values[:, 1], weight)
    except ValueError:
        _raise_at_first_bad_line(lines, header + 1, ncols)
        raise


def _raise_at_first_bad_line(lines: List[str], start: int, ncols: int) -> None:
    """Raise ValueError naming the first bad data line of ``lines[start:]``, if any."""
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line or line[0] == "#":
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != ncols:
            raise ValueError(f"line {lineno}: expected {ncols} fields, got {len(fields)}")
        try:
            SpectrumPoint(*[float(f) for f in fields])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None


# ------------------------------------------------------------------ fitting

@dataclass(frozen=True)
class FitResult:
    """Outcome of a spectrum fit.

    ``grid_params``/``grid_sse`` record the best coarse-grid point before the
    polish, which is occasionally useful for diagnosing a fit that latched
    onto an aliased minimum.  Only dm2 and lambda_km are grid nodes;
    ``grid_params.theta`` is the angle solved in closed form there.

    ``cycles`` counts the polish's iterations: Levenberg-Marquardt steps
    proposed when dm2 and lambda_km are both free, Brent slice cycles when
    one of them is, and 0 when both are pinned.  ``jtj_cond`` is cond(J^T J)
    of the profiled residual at the returned point, in coordinates scaled
    by the bound widths; inf when J^T J is singular or out of float range,
    and None unless dm2 and lambda_km are both free.
    """

    params: OscillationParams
    sse: float
    converged: bool
    cycles: int
    grid_params: OscillationParams
    grid_sse: float
    jtj_cond: Optional[float] = None


def _brent_min(f: Callable[[float], tuple], lo: float, hi: float,
               tol: float) -> Tuple[float, tuple]:
    """Brent's bounded minimiser on [lo, hi]; assumes a unimodal slice.

    f returns a tuple whose first item is the value minimised; the best
    point is returned together with f's tuple there.

    Each step goes to the vertex of the parabola through the three best
    points so far.  When that vertex leaves the bracket, or the step is not
    less than half the step before last, a golden-section step into the
    larger part of the bracket is taken instead (R. P. Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 5).  The search stops
    once both ends of the bracket lie within 2/3 ``tol`` of the best point,
    plus a few ulps of it; a bracket no wider than ``tol`` returns its midpoint.
    """
    a, b = lo, hi
    if b - a <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    x = w = v = a + _CGOLD * (b - a)
    best = f(x)
    fx = fw = fv = best[0]
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        # at least one ulp of x, so that every step moves
        tol1 = _EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, best
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
                golden = False
        if golden:
            e = (a if x >= m else b) - x
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        out = f(u)
        fu = out[0]
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx, best = w, fw, x, fx, u, fu, out
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _lm_min(f: Callable[[np.ndarray], tuple], start: np.ndarray, at_start: tuple,
            lo: np.ndarray, hi: np.ndarray, tol: np.ndarray,
            max_iterations: int) -> Tuple[np.ndarray, tuple, int, bool]:
    """Box-projected Levenberg-Marquardt minimiser of a sum of squares in two
    parameters.

    f(beta) returns a tuple (value, g, m, rss, ...): the value minimised,
    and for a residual r whose sum of squares it is, up to a constant
    factor and rounding, the gradient g = J^T r, m = J^T J and rss = r^T r;
    ``at_start`` is f's tuple at ``start``.  Each iteration solves
    (J^T J + mu diag(J^T J)) step = -g (Marquardt's scaling, so the step
    does not depend on the units of beta) over the free coordinates: a
    coordinate on a bound whose gradient points out of the box stays there,
    and so does one along which J vanishes.  The trial point is beta + step
    clipped to [lo, hi].  A trial with a lower value is taken and mu
    shrinks; any other, a non-finite value included, is rejected and mu
    grows, faster with each rejection in a row.

    The search stops, converged, once a step would move every coordinate
    by at most its ``tol``, or once the full Gauss-Newton step
    g^T (J^T J)^-1 g promises to lower rss by no more than 1e-13 of it:
    closer to the minimum, rounding in g moves the steps more than the
    residual can show.  Returns beta, f's tuple there, the number of
    iterations and whether it converged within ``max_iterations``.
    """
    beta, best = start, at_start
    mu, grow = 1e-3, 2.0
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        value, g, m, rss = best[:4]
        scale = np.sqrt(np.diag(m))
        free = ((scale > 0.0) & np.isfinite(scale)
                & ~(((beta <= lo) & (g > 0.0)) | ((beta >= hi) & (g < 0.0))))
        # in units of the columns of J, J^T J has unit diagonal and the
        # off-diagonal c; a fixed coordinate has c = 0 and no gradient
        s = np.where(free, scale, 1.0)
        gs = np.where(free, g / s, 0.0)
        c = m[0, 1] / (s[0] * s[1]) if free.all() else 0.0

        def solve(k):
            """[[k, c], [c, k]]^-1 gs."""
            return np.array([k * gs[0] - c * gs[1], k * gs[1] - c * gs[0]]) / (k * k - c * c)

        if gs @ solve(1.0 + _MU_MIN) <= 1e-13 * rss:
            return beta, best, iterations, True
        trial = np.clip(beta - solve(1.0 + mu) / s, lo, hi)
        if (np.abs(trial - beta) <= tol).all():
            return beta, best, iterations, True
        out = f(trial)
        if out[0] < value:
            beta, best = trial, out
            mu, grow = max(mu / 3.0, _MU_MIN), 2.0
        else:
            mu, grow = mu * grow, grow * 2.0
    return beta, best, iterations, False


def _jtj_condition(m: np.ndarray, widths: np.ndarray) -> float:
    """cond(J^T J) of two parameters in coordinates scaled by ``widths``: inf
    when it is singular or out of float range, never NaN."""
    s = widths / widths.max()
    a, b, c = (float(v) for v in (m[0, 0] * s[0] * s[0], m[1, 1] * s[1] * s[1],
                                   m[0, 1] * s[0] * s[1]))
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
    d, *slopes = _damped(x, dm2, lambda_km, True)
    dd = np.array(slopes)
    t, b = _best_t(d, ws, wsq, t_range)
    jac = dd * t
    if t_range[0] < t < t_range[1]:
        jac += np.outer((dd @ wsq - 2.0 * t * (dd @ (ws * d))) / b, d)
    return d, t, d * t - q, jac


def fit_parameters(data: Union[Spectrum, Iterable[SpectrumPoint]],
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
    full grid over the free ones by two matrix products, and the best
    finite node is polished.

    With dm2 and lambda_km both free, the polish is ``_lm_min``:
    box-projected Levenberg-Marquardt steps on the profiled residual
    D T* - q.  Its Jacobian (``_profiled_residual``) is exact: with one
    linear parameter the residual term that Kaufman's approximation (BIT 15,
    1975) drops costs two dot products.  It stops once a step would move
    each parameter by at most 1e-10 of its bound width, or once the
    Gauss-Newton step promises no more than rounding, or after
    ``max_cycles`` iterations.  With one of them free, the polish is
    coordinate-wise: Brent's bounded minimiser over a bracket of one grid
    spacing either side.  A slice minimum that lowers the SSE is taken; one
    that lies farther away but does not lower it halves that bracket.  It
    cycles until the slice minimum lies within 1e-6 of the bound width of
    the current value, or ``max_cycles`` is exhausted.  The reported SSE is
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

    ``data`` is a ``Spectrum``, whose columns are used as they are, or any
    iterable of ``SpectrumPoint``, which is gathered into one first.
    """
    spectrum = data if isinstance(data, Spectrum) else Spectrum.from_points(data)
    if not len(spectrum):
        raise ValueError("no spectrum points to fit")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    if max_cycles < 1:
        raise ValueError("max_cycles must be at least 1")

    x, p, w = spectrum.l_over_e, spectrum.p, spectrum.weight
    if not w.max() > 0.0:
        raise ValueError("spectrum has zero total weight")

    merged: Dict[str, Tuple[float, float]] = dict(DEFAULT_BOUNDS)
    for name, pair in (bounds or {}).items():
        if name not in PARAMETER_NAMES:
            raise ValueError(f"unknown parameter {name!r}")
        lo, hi = float(pair[0]), float(pair[1])
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
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
    t_lo = min(ends)
    t_hi = 1.0 if theta_lo <= math.pi / 4.0 <= theta_hi else max(ends)
    t_range = (t_lo, t_hi)

    # A/B is computed with the weights scaled to a maximum of 1, so that
    # neither huge nor subnormal weights overflow or underflow
    q = 1.0 - p
    ws = w / w.max()
    wsq = ws * q

    def profile(d) -> Tuple[float, float]:
        """(SSE, theta) at the best theta for the damping column d."""
        if theta_lo == theta_hi:
            theta = theta_lo
        else:
            theta = _theta_for(_best_t(d, ws, wsq, t_range)[0], theta_lo, theta_hi)
        r = 1.0 - d * np.sin(2.0 * theta) ** 2 - p
        return float(np.dot(w * r, r)), theta

    def slice_profile(at: Mapping[str, float]) -> Tuple[float, float]:
        """(SSE, theta) at the best theta for the point's dm2 and lambda_km."""
        with np.errstate(over="ignore", invalid="ignore"):
            return profile(_damped(x, at["dm2"], at["lambda_km"]))

    def profiled(beta: np.ndarray) -> tuple:
        """``profile``'s SSE at (dm2, lambda_km) = beta, with J^T r, J^T J and
        r^T r of the profiled residual r weighted by ws, and ``profile``'s theta."""
        with np.errstate(over="ignore", invalid="ignore"):
            d, _, r, jac = _profiled_residual(x, q, ws, wsq, t_range, beta[0], beta[1])
            wr = ws * r
            sse, theta = profile(d)
            return sse, jac @ wr, (jac * ws) @ jac.T, np.dot(wr, r), theta

    # SSE(T) = sum w q^2 - 2 T A + T^2 B at every (dm2, lambda_km) node, with
    # S = 1/2 - sin^2 phase and E = exp(-lambda_km x) so that D = 1/2 - E S:
    #     A = sum(w q)/2 - S (w q E)^T,
    #     B = sum(w)/4 - S (w E)^T + S^2 (w E^2)^T.
    # A pinned parameter has an axis of length 1.
    levels = {name: np.linspace(*merged[name], grid_points) if name in free
              else np.array([values[name]]) for name in ("dm2", "lambda_km")}
    with np.errstate(all="ignore"):
        s = 0.5 - np.sin(PHASE_CONSTANT * levels["dm2"][:, None] * x) ** 2
        e = np.exp(-levels["lambda_km"][:, None] * x)
        we = ws * e
        a = 0.5 * np.dot(ws, q) - s @ (q * we).T
        b = 0.25 * ws.sum() - s @ we.T + (s * s) @ (we * e).T
        t = np.where(b == 0.0, t_lo, np.clip(a / b, t_lo, t_hi))
        estimate = np.dot(wsq, q) - 2.0 * t * a + t * t * b
    finite = np.isfinite(estimate)
    if not finite.any():
        raise ValueError("no grid point has a finite SSE")
    i, j = np.unravel_index(np.argmin(np.where(finite, estimate, np.inf)), estimate.shape)
    values["dm2"] = float(levels["dm2"][i])
    values["lambda_km"] = float(levels["lambda_km"][j])

    converged = not free
    cycles = 0
    jtj_cond = None
    if len(free) == 2:
        lo, hi = (np.array([merged[n][k] for n in free]) for k in (0, 1))
        beta = np.array([values[n] for n in free])
        at_grid = profiled(beta)
        grid_sse, values["theta"] = at_grid[0], at_grid[4]
        grid_params = OscillationParams(**values)
        beta, (cur_sse, _, jtj, _, values["theta"]), cycles, converged = _lm_min(
            profiled, beta, at_grid, lo, hi, 1e-10 * (hi - lo), max_cycles)
        values.update(zip(free, map(float, beta)))
        jtj_cond = _jtj_condition(jtj, hi - lo)
    else:
        cur_sse, values["theta"] = slice_profile(values)
        grid_params = OscillationParams(**values)
        grid_sse = cur_sse
    if len(free) == 1:
        name = free[0]
        bound_lo, bound_hi = merged[name]
        spacing = (bound_hi - bound_lo) / (grid_points - 1)
        tol = 1e-10 * (bound_hi - bound_lo)
        threshold = 1e-6 * (bound_hi - bound_lo)
        while cycles < max_cycles:
            cycles += 1
            lo = max(bound_lo, values[name] - spacing)
            hi = min(bound_hi, values[name] + spacing)
            candidate, (candidate_sse, candidate_theta) = _brent_min(
                lambda v: slice_profile({**values, name: v}), lo, hi, tol)
            move = abs(candidate - values[name])
            if candidate_sse < cur_sse:
                values[name] = candidate
                values["theta"] = candidate_theta
                cur_sse = candidate_sse
            elif move >= threshold:
                # the bracket reached a worse valley; the current point need
                # not be a minimum of this slice, so look closer to it
                spacing *= 0.5
            if move < threshold:
                converged = True
                break

    return FitResult(params=OscillationParams(**values), sse=cur_sse,
                     converged=converged, cycles=cycles,
                     grid_params=grid_params, grid_sse=grid_sse, jtj_cond=jtj_cond)
