"""The public API: the names ``dqs`` exports and the parameters of each.

Adding, removing or renaming an export or a parameter changes this table,
so the change shows up as a reviewed one-line diff.
"""

import inspect

import dqs

SIGNATURES = {
    "DensityMatrix": ("matrix",),
    "DispersiveQubitParams": ("e0", "e1", "lam"),
    "GKSLiouvillian": ("hamiltonian", "kossakowski", "basis"),
    "KossakowskiMatrix": ("dim", "matrix"),
    "OperatorBasis": ("dim", "elements"),
    "OscillationParams": ("dm2", "theta", "lambda_km"),
    "QubitBloch": ("a", "b"),
    "Spectrum": ("l_over_e", "p", "weight"),
    "cptp_report": ("prop",),
    "dispersive_kossakowski_kernel": ("hamiltonian", "basis", "samples", "seed"),
    "dissipation_operator": ("liouvillian",),
    "energy_flow_residual": ("liouvillian", "rho"),
    "evolve_closed_form": ("params", "state", "t"),
    "expm": ("a", "scale"),
    "fit_parameters": ("data", "bounds", "fixed", "grid_points", "max_cycles"),
    "gell_mann_basis": ("dim",),
    "hermitian_eigen": ("a",),
    "is_dispersive": ("liouvillian", "tol"),
    "is_psd": ("a",),
    "kernel_basis": ("m",),
    "lindblad_operators": ("a", "basis"),
    "positivity_horizon": ("state", "lam"),
    "propagate": ("liouvillian", "rho", "t"),
    "propagator": ("liouvillian", "t"),
    "qubit_liouvillian": ("e0", "e1", "lam", "axis"),
    "read_spectrum_csv": ("path",),
    "stationary_states": ("liouvillian",),
    "survival_at_l_over_e": ("params", "l_over_e"),
    "surviving_probability": ("params", "theta", "t"),
    "time_reversal_witness": ("liouvillian", "t_grid"),
    "transition_probability": ("params", "theta", "t"),
    "von_neumann_entropy": ("rho",),
}


def test_exports():
    assert dqs.__all__ == list(SIGNATURES)


def test_parameter_names():
    got = {name: tuple(inspect.signature(getattr(dqs, name)).parameters)
           for name in dqs.__all__}
    assert got == SIGNATURES
