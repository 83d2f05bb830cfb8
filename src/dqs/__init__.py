"""Dispersive quantum systems toolkit.

Builds GKS (Lindblad) generators in standard form, decides whether a model
conserves energy despite its dissipator, propagates states through the
quantum dynamical semigroup, and applies the two-level closed form to damped
neutrino-oscillation spectra.
"""

from .dynamics import (
    cptp_report,
    energy_flow_residual,
    propagate,
    propagator,
    stationary_states,
    time_reversal_witness,
    von_neumann_entropy,
)
from .gks import (
    GKSLiouvillian,
    KossakowskiMatrix,
    OperatorBasis,
    dispersive_kossakowski_kernel,
    dissipation_operator,
    gell_mann_basis,
    is_dispersive,
    lindblad_operators,
    qubit_liouvillian,
)
from .linalg import (
    DensityMatrix,
    expm,
    hermitian_eigen,
    is_psd,
    kernel_basis,
)
from .neutrino import (
    OscillationParams,
    Spectrum,
    fit_parameters,
    read_spectrum_csv,
    survival_at_l_over_e,
)
from .qubit import (
    DispersiveQubitParams,
    QubitBloch,
    evolve_closed_form,
    positivity_horizon,
    surviving_probability,
    transition_probability,
)

__all__ = [
    "DensityMatrix",
    "DispersiveQubitParams",
    "GKSLiouvillian",
    "KossakowskiMatrix",
    "OperatorBasis",
    "OscillationParams",
    "QubitBloch",
    "Spectrum",
    "cptp_report",
    "dispersive_kossakowski_kernel",
    "dissipation_operator",
    "energy_flow_residual",
    "evolve_closed_form",
    "expm",
    "fit_parameters",
    "gell_mann_basis",
    "hermitian_eigen",
    "is_dispersive",
    "is_psd",
    "kernel_basis",
    "lindblad_operators",
    "positivity_horizon",
    "propagate",
    "propagator",
    "qubit_liouvillian",
    "read_spectrum_csv",
    "stationary_states",
    "survival_at_l_over_e",
    "surviving_probability",
    "time_reversal_witness",
    "transition_probability",
    "von_neumann_entropy",
]
