"""Closed-form two-level model with pure dephasing.

In the energy eigenbasis {|E1>, |E0>} (higher level first, splitting
Delta = E1 - E0 > 0) the state

    rho(t) = [[a,                    b exp(-(lam + i Delta) t)],
              [conj(b) exp(-(lam - i Delta) t), 1 - a]]

solves the dephasing master equation exactly: populations freeze, the
coherence spirals to zero at rate lam.  Everything in this module is an
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

from .linalg import DensityMatrix


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
        if abs(self.b) ** 2 > self.a * (1.0 - self.a) + 1e-12:
            raise ValueError("coherence too large: |b|^2 must not exceed a(1-a)")


@dataclass(frozen=True)
class AngleObservable:
    """Two-outcome observable mixing the energy basis by an angle.

    Eigenvalue x1 belongs to |x1> = cos(theta) |E1> + sin(theta) |E0> and
    x2 <= x1 to the orthogonal |x2> = -sin(theta) |E1> + cos(theta) |E0>.
    """

    x1: float
    x2: float
    theta: float

    def __post_init__(self):
        if self.x1 < self.x2:
            raise ValueError("eigenvalues must satisfy x1 >= x2")
        check_angle(self.theta)


def evolve_closed_form(params: DispersiveQubitParams, state: QubitBloch,
                       t: float) -> DensityMatrix:
    """The dephasing solution at time t >= 0."""
    if not (t >= 0.0):
        raise ValueError(f"time must be nonnegative, got {t!r}")
    z = state.b * cmath.exp(-(params.lam + 1j * params.delta) * t)
    m = np.array([[state.a, z], [np.conj(z), 1.0 - state.a]])
    return DensityMatrix(m)


def observable_matrix(obs: AngleObservable) -> np.ndarray:
    """x1 |x1><x1| + x2 |x2><x2| in the energy basis."""
    c = math.cos(obs.theta)
    s = math.sin(obs.theta)
    off = (obs.x1 - obs.x2) * s * c
    return np.array([
        [obs.x1 * c * c + obs.x2 * s * s, off],
        [off, obs.x1 * s * s + obs.x2 * c * c],
    ], dtype=complex)


def check_angle(theta: float) -> None:
    """Reject a mixing angle outside [0, pi/2], NaN included."""
    if not (0.0 <= theta <= math.pi / 2.0):
        raise ValueError("mixing angle must lie in [0, pi/2]")


def transition_probability(params: DispersiveQubitParams, theta: float, t: float) -> float:
    """Probability that a system prepared in |x1> is found in |x2> at time t."""
    check_angle(theta)
    if not (t >= 0.0):
        raise ValueError(f"time must be nonnegative, got {t!r}")
    phase = 0.5 * params.delta * t
    if not math.isfinite(phase):
        raise ValueError("oscillation phase overflows")
    damping = math.exp(-params.lam * t)
    osc = math.sin(phase) ** 2
    return (0.5 - damping * (0.5 - osc)) * math.sin(2.0 * theta) ** 2


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
    if lam < 0:
        raise ValueError("dephasing rate must be nonnegative")
    det = state.a * (1.0 - state.a)
    b2 = abs(state.b) ** 2
    if b2 == 0.0 or det == 0.0 or lam == 0.0:
        return None
    return math.log(det / b2) / (2.0 * lam)
