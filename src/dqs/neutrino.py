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
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# slack for survival probabilities that graze 0 or 1 through rounding
_P_SLACK = 1e-9


@dataclass(frozen=True)
class OscillationParams:
    """Two-flavor model point: splitting, mixing angle, damping rate."""

    dm2: float
    theta: float
    lambda_km: float = 0.0

    def __post_init__(self) -> None:
        for name in PARAMETER_NAMES:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dm2 <= 0.0:
            raise ValueError(f"dm2 must be positive, got {self.dm2!r}")
        if not 0.0 <= self.theta <= math.pi / 2.0:
            raise ValueError("theta must lie in [0, pi/2]")
        if self.lambda_km < 0.0:
            raise ValueError("lambda_km must be nonnegative")

    @property
    def sin2_2theta(self) -> float:
        return math.sin(2.0 * self.theta) ** 2


@dataclass(frozen=True)
class SpectrumPoint:
    """One sample of a survival spectrum: x = L/E in km/GeV, probability, weight."""

    l_over_e: float
    p: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.l_over_e) and self.l_over_e >= 0.0):
            raise ValueError(f"L/E must be finite and nonnegative, got {self.l_over_e!r}")
        if not -_P_SLACK <= self.p <= 1.0 + _P_SLACK:
            raise ValueError(f"survival probability must lie in [0, 1], got {self.p!r}")
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError(f"weight must be finite and nonnegative, got {self.weight!r}")


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


def transition_probability(params: OscillationParams, baseline_km: float,
                           energy_gev: float) -> float:
    return 1.0 - survival_probability(params, baseline_km, energy_gev)


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


def _damped(x, dm2, lambda_km):
    """D = 1/2 - exp(-lambda_km x) (1/2 - sin^2 phase), so that P = 1 - D sin^2(2 theta)."""
    phase = PHASE_CONSTANT * dm2 * x
    return 0.5 - np.exp(-lambda_km * x) * (0.5 - np.sin(phase) ** 2)


def _model(x, dm2, theta, lambda_km):
    return 1.0 - _damped(x, dm2, lambda_km) * np.sin(2.0 * theta) ** 2


# ------------------------------------------------------------------ spectrum IO

def read_spectrum_csv(path) -> List[SpectrumPoint]:
    """Read a survival spectrum from CSV.

    Expected header: ``L_over_E_km_per_GeV,P_survival`` with an optional
    trailing ``weight`` column.  Blank lines and lines starting with ``#``
    are ignored.  Malformed rows raise ValueError with the line number.
    """
    points: List[SpectrumPoint] = []
    ncols: Optional[int] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if ncols is None:
                expected = list(SPECTRUM_COLUMNS)
                if fields not in (expected, expected + ["weight"]):
                    raise ValueError(f"line {lineno}: unexpected header {line!r}")
                ncols = len(fields)
                continue
            if len(fields) != ncols:
                raise ValueError(
                    f"line {lineno}: expected {ncols} fields, got {len(fields)}")
            try:
                numbers = [float(f) for f in fields]
                points.append(SpectrumPoint(*numbers))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    if ncols is None:
        raise ValueError("no header line found")
    return points


# ------------------------------------------------------------------ fitting

@dataclass(frozen=True)
class FitResult:
    """Outcome of a spectrum fit.

    ``grid_params``/``grid_sse`` record the best coarse-grid point before the
    golden-section polish, which is occasionally useful for diagnosing a fit
    that latched onto an aliased minimum.  Only dm2 and lambda_km are grid
    nodes; ``grid_params.theta`` is the angle solved in closed form there.
    """

    params: OscillationParams
    sse: float
    converged: bool
    cycles: int
    grid_params: OscillationParams
    grid_sse: float


def _golden_min(f: Callable[[float], float], lo: float, hi: float,
                tol: float) -> float:
    """Golden-section minimiser on [lo, hi]; assumes a unimodal slice."""
    a, b = lo, hi
    h = b - a
    if h <= tol:
        return 0.5 * (a + b)
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    return c if fc <= fd else d


_RANGE_CHECKS = {
    "dm2": (lambda v: v > 0.0, "positive"),
    "theta": (lambda v: 0.0 <= v <= math.pi / 2.0, "in [0, pi/2]"),
    "lambda_km": (lambda v: v >= 0.0, "nonnegative"),
}


def _check_range(name: str, value: float) -> None:
    ok, phrase = _RANGE_CHECKS[name]
    if not (math.isfinite(value) and ok(value)):
        raise ValueError(f"{name} must be {phrase}, got {value!r}")


def _theta_for(t: float, lo: float, hi: float) -> float:
    """An angle in [lo, hi] with sin^2(2 theta) = t, the first octant on a tie."""
    first = 0.5 * math.asin(math.sqrt(t))
    second = math.pi / 2.0 - first
    gaps = [max(lo - theta, 0.0, theta - hi) for theta in (first, second)]
    return min(max(second if gaps[1] < gaps[0] else first, lo), hi)


def fit_parameters(data: Iterable[SpectrumPoint],
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
    pi/2 - theta are allowed, the first octant is taken.  A pinned theta is
    kept exactly.

    Only dm2 and lambda_km are searched.  The SSE at T* is estimated on a
    full grid over the free ones by two matrix products; the best finite
    node seeds a coordinate-wise golden-section polish over a bracket of one
    grid spacing either side.  A slice minimum that lowers the SSE is taken;
    one that lies farther away but does not lower it halves that bracket.
    The polish cycles until every slice minimum lies within 1e-6 of its
    bound width of the current value, or ``max_cycles`` is exhausted.
    Degenerate bounds (lo == hi) pin a parameter just like an entry in
    ``fixed``.  The procedure is deterministic: the same data and settings
    always return the same result.

    Survival spectra cannot distinguish theta from pi/2 - theta (sin^2 of
    twice the angle is symmetric about pi/4), so with the default theta
    bounds the fit reports the first octant.  Restrict theta to
    (pi/4, pi/2) for the second.
    """
    points = list(data)
    if not points:
        raise ValueError("no spectrum points to fit")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    if max_cycles < 1:
        raise ValueError("max_cycles must be at least 1")

    x = np.array([pt.l_over_e for pt in points], dtype=float)
    p = np.array([pt.p for pt in points], dtype=float)
    w = np.array([pt.weight for pt in points], dtype=float)
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
        _check_range(name, float(value))

    values: Dict[str, float] = {}
    for name in PARAMETER_NAMES:
        if fixed is not None and name in fixed:
            values[name] = float(fixed[name])
        elif merged[name][0] == merged[name][1]:
            values[name] = merged[name][0]
    free = [name for name in ("dm2", "lambda_km") if name not in values]

    pinned_theta = values.get("theta")
    theta_lo, theta_hi = merged["theta"]
    if pinned_theta is not None:
        t_lo = t_hi = math.sin(2.0 * pinned_theta) ** 2
    else:
        ends = (math.sin(2.0 * theta_lo) ** 2, math.sin(2.0 * theta_hi) ** 2)
        t_lo = min(ends)
        t_hi = 1.0 if theta_lo <= math.pi / 4.0 <= theta_hi else max(ends)

    # A/B is computed with the weights scaled to a maximum of 1, so that
    # neither huge nor subnormal weights overflow or underflow
    q = 1.0 - p
    ws = w / w.max()

    def profile(at: Mapping[str, float]) -> Tuple[float, float]:
        """(SSE, theta) at the best theta for the point's dm2 and lambda_km."""
        with np.errstate(over="ignore", invalid="ignore"):
            d = _damped(x, at["dm2"], at["lambda_km"])
            if pinned_theta is not None:
                theta = pinned_theta
            else:
                b = np.dot(ws * d, d)
                t = t_lo if b == 0.0 else min(max(np.dot(ws * q, d) / b, t_lo), t_hi)
                theta = _theta_for(t, theta_lo, theta_hi)
            r = 1.0 - d * np.sin(2.0 * theta) ** 2 - p
            return float(np.dot(w * r, r)), theta

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
        estimate = np.dot(ws * q, q) - 2.0 * t * a + t * t * b
    finite = np.isfinite(estimate)
    if not finite.any():
        raise ValueError("no grid point has a finite SSE")
    i, j = np.unravel_index(np.argmin(np.where(finite, estimate, np.inf)), estimate.shape)
    values["dm2"] = float(levels["dm2"][i])
    values["lambda_km"] = float(levels["lambda_km"][j])
    cur_sse, values["theta"] = profile(values)

    grid_params = OscillationParams(**values)
    grid_sse = cur_sse

    spacing = {n: (merged[n][1] - merged[n][0]) / (grid_points - 1) for n in free}
    tol = {n: 1e-10 * (merged[n][1] - merged[n][0]) for n in free}
    threshold = {n: 1e-6 * (merged[n][1] - merged[n][0]) for n in free}

    converged = not free
    cycles = 0
    while free and cycles < max_cycles:
        cycles += 1
        settled = True
        for name in free:
            lo = max(merged[name][0], values[name] - spacing[name])
            hi = min(merged[name][1], values[name] + spacing[name])
            candidate = _golden_min(lambda v: profile({**values, name: v})[0],
                                    lo, hi, tol[name])
            candidate_sse, candidate_theta = profile({**values, name: candidate})
            move = abs(candidate - values[name])
            if candidate_sse < cur_sse:
                values[name] = candidate
                values["theta"] = candidate_theta
                cur_sse = candidate_sse
            elif move >= threshold[name]:
                # the bracket reached a worse valley; the current point need
                # not be a minimum of this slice, so look closer to it
                spacing[name] *= 0.5
            if move >= threshold[name]:
                settled = False
        if settled:
            converged = True
            break

    return FitResult(params=OscillationParams(**values), sse=cur_sse,
                     converged=converged, cycles=cycles,
                     grid_params=grid_params, grid_sse=grid_sse)
