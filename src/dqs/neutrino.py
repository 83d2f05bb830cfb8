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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
    values = _model(x, params.dm2, params.theta, params.lambda_km)
    return float(values) if values.ndim == 0 else values


def _model(x, dm2, theta, lambda_km):
    phase = PHASE_CONSTANT * dm2 * x
    damped = 0.5 - np.exp(-lambda_km * x) * (0.5 - np.sin(phase) ** 2)
    return 1.0 - damped * np.sin(2.0 * theta) ** 2


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
        raise ValueError(f"{path}: no header line found")
    return points


# ------------------------------------------------------------------ fitting

@dataclass(frozen=True)
class FitResult:
    """Outcome of a spectrum fit.

    ``grid_params``/``grid_sse`` record the best coarse-grid point before the
    golden-section polish, which is occasionally useful for diagnosing a fit
    that latched onto an aliased minimum.
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


def fit_parameters(data: Iterable[SpectrumPoint],
                   bounds: Optional[Mapping[str, Tuple[float, float]]] = None,
                   fixed: Optional[Mapping[str, float]] = None,
                   grid_points: int = 41,
                   max_cycles: int = 60) -> FitResult:
    """Weighted least-squares fit of (dm2, theta, lambda_km) to a spectrum.

    A full grid over the free parameters seeds a coordinate-wise
    golden-section polish, which cycles until every coordinate moves by less
    than 1e-6 of its bound width or ``max_cycles`` is exhausted.  Degenerate
    bounds (lo == hi) pin a parameter just like an entry in ``fixed``.  The
    procedure is deterministic: the same data and settings always return the
    same result.

    Survival spectra cannot distinguish theta from pi/2 - theta (sin^2 of
    twice the angle is symmetric about pi/4), so with the default theta
    bounds the fit may land in either octant.  Restrict theta to (0, pi/4)
    when the angle itself, rather than sin^2(2 theta), is wanted.
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
    if not w.sum() > 0.0:
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
    free: List[str] = []
    for name in PARAMETER_NAMES:
        if fixed is not None and name in fixed:
            values[name] = float(fixed[name])
        elif merged[name][0] == merged[name][1]:
            values[name] = merged[name][0]
        else:
            free.append(name)

    def sse_at(vals: Mapping[str, float]) -> float:
        pred = _model(x, vals["dm2"], vals["theta"], vals["lambda_km"])
        r = pred - p
        return float(np.dot(w * r, r))

    # coarse grid, vectorised over the last free axis
    if free:
        grids = {name: np.linspace(*merged[name], grid_points) for name in free}
        inner = free[-1]
        outer = free[:-1]
        best_sse = math.inf
        for combo in itertools.product(*(grids[n] for n in outer)):
            trial = dict(values)
            trial.update(zip(outer, combo))
            args = {n: trial.get(n) for n in PARAMETER_NAMES}
            args[inner] = grids[inner][:, None]
            pred = _model(x, args["dm2"], args["theta"], args["lambda_km"])
            r = pred - p
            sse_vec = (w * r * r).sum(axis=1)
            k = int(np.argmin(sse_vec))
            if sse_vec[k] < best_sse:
                best_sse = float(sse_vec[k])
                values = dict(trial)
                values[inner] = float(grids[inner][k])
        cur_sse = best_sse
    else:
        cur_sse = sse_at(values)

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

            def slice_sse(v: float, _name: str = name) -> float:
                trial = dict(values)
                trial[_name] = v
                return sse_at(trial)

            candidate = _golden_min(slice_sse, lo, hi, tol[name])
            candidate_sse = slice_sse(candidate)
            if candidate_sse <= cur_sse:
                move = abs(candidate - values[name])
                values[name] = candidate
                cur_sse = candidate_sse
            else:
                move = 0.0
            if move >= threshold[name]:
                settled = False
        if settled:
            converged = True
            break

    return FitResult(params=OscillationParams(**values), sse=cur_sse,
                     converged=converged, cycles=cycles,
                     grid_params=grid_params, grid_sse=grid_sse)
