"""Closed-form two-level model with pure dephasing.

In the energy eigenbasis {|E1>, |E0>} (higher level first, splitting
Delta = E1 - E0 > 0) the state

    rho(t) = [[a,                    b exp(-(lam + i Delta) t)],
              [conj(b) exp(-(lam - i Delta) t), 1 - a]]

solves the dephasing master equation exactly: populations freeze, the
coherence spirals to zero at rate lam.  The transition probability between
the two-outcome bases that a mixing angle theta rotates out of the energy
basis follows from it in closed form too.  Everything in this module is an
independent closed-form evaluation (no generator is built and nothing is
exponentiated), which is what makes it usable as an oracle against the
matrix route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import DensityMatrix, require_nonnegative


@dataclass(frozen=True)
class DispersiveQubitParams:
    """Energy levels e0 < e1 and dephasing rate lam >= 0."""

    e0: float
    e1: float
    lam: float

    def __post_init__(self):
        for name in ("e0", "e1", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.e1 > self.e0:
            raise ValueError(f"need e1 > e0, got e1={self.e1!r}, e0={self.e0!r}")
        if self.lam < 0:
            raise ValueError("dephasing rate must be nonnegative")

    @property
    def delta(self) -> float:
        return self.e1 - self.e0


@dataclass(frozen=True)
class QubitBloch:
    """State coordinates: population a of the upper level, coherence b."""

    a: float
    b: complex

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0):
            raise ValueError(f"population must lie in [0, 1], got {self.a!r}")
        if not abs(self.b) ** 2 <= self.a * (1.0 - self.a) + 1e-12:
            raise ValueError("coherence too large or not finite: |b|^2 must not exceed a(1-a)")


def evolve_closed_form(params: DispersiveQubitParams, state: QubitBloch,
                       t: float) -> DensityMatrix:
    """The dephasing solution at time t >= 0."""
    if not (t >= 0.0):
        raise ValueError(f"time must be nonnegative, got {t!r}")
    if not math.isfinite(params.delta * t):
        raise ValueError("oscillation phase overflows")
    z = state.b * cmath.exp(-(params.lam + 1j * params.delta) * t)
    m = np.array([[state.a, z], [np.conj(z), 1.0 - state.a]])
    return DensityMatrix(m)


def check_angle(theta: float) -> None:
    """Reject a mixing angle outside [0, pi/2], NaN included."""
    if not (0.0 <= theta <= math.pi / 2.0):
        raise ValueError("mixing angle must lie in [0, pi/2]")


def transition_probability(params: DispersiveQubitParams, theta: float, t):
    """Probability that a system prepared in |x1> is found in |x2> at time t.

    t may be an array of times; the result is then an array of probabilities.
    """
    check_angle(theta)
    times = np.asarray(t, dtype=float)
    bad = times[~(times >= 0.0)]
    if bad.size:
        raise ValueError(f"time must be nonnegative, got {float(bad[0])!r}")
    return _transition(0.5 * params.delta, params.lam, theta, times)


def _transition(half_delta: float, lam: float, theta: float, t):
    """[1/2 - exp(-lam t) (1/2 - sin^2(half_delta t))] sin^2(2 theta) at times t >= 0.

    The one evaluation of the two-level formula, ``neutrino``'s spectra
    included: elementwise in t, and a float for one t.  A phase that is not
    finite is a ValueError; an overflowing damping exponent is full
    damping, exp(-inf) = 0.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = half_delta * t
        if not np.isfinite(phase).all():
            raise ValueError("oscillation phase overflows")
        damping = np.exp(-lam * t)
    s = np.sin(phase)  # s * s: a numpy scalar's s ** 2 is pow, which can differ in the last bit
    p = (0.5 - damping * (0.5 - s * s)) * np.sin(2.0 * theta) ** 2
    return float(p) if p.ndim == 0 else p


def surviving_probability(params: DispersiveQubitParams, theta: float, t: float) -> float:
    """Probability that the |x1> preparation survives; exact complement."""
    return 1.0 - transition_probability(params, theta, t)


def positivity_horizon(state: QubitBloch, lam: float) -> Optional[float]:
    """How far the dephasing flow extends backward before positivity fails.

    Running the closed form at -t grows the coherence by exp(lam t); the
    determinant a(1-a) - |b|^2 exp(2 lam t) hits zero at

        t* = ln(a(1-a) / |b|^2) / (2 lam).

    Returns None when the backward flow stays a state forever (diagonal
    states, pure populations, or lam = 0).
    """
    require_nonnegative(lam, "dephasing rate")
    det = state.a * (1.0 - state.a)
    b2 = abs(state.b) ** 2
    if b2 == 0.0 or det == 0.0 or lam == 0.0:
        return None
    return math.log(det / b2) / (2.0 * lam)
