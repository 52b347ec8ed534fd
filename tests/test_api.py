"""The public API: qdrive.__all__ is exactly this tuple, so adding or removing
a public name is a reviewed change to this file."""
import qdrive

PUBLIC_NAMES = (
    "BadParam", "ConfigInvalid", "DegenerateDrive", "DensityMatrix", "DiscriminantNegative",
    "DriveHamiltonian", "IDENTITY", "InvariantDrift", "NotHermitian",
    "NotNormalized", "NotPositive", "OutOfRange", "PulseParams", "QdriveError", "RabiParams",
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "Sampled", "StateVector",
    "TimeGrid", "TimeSeries", "TraceNotOne", "build_series", "commutator", "dm_eigenvalues",
    "dm_new", "dm_purity", "floquet_quasienergy", "floquet_solution", "frobenius_coherence",
    "ground_state_dm", "invariance_residual", "invariant_operator",
    "l1_coherence", "l1_pulse_closed_form", "lewis_phase", "mat2", "periodicity_T", "propagate",
    "pulse_density", "pulse_f", "pulse_hamiltonian", "pulse_rho", "pulse_state", "rabi_density",
    "rabi_hamiltonian", "rabi_rho", "rabi_state", "refine_max", "xi_squared",
)


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == tuple(sorted(PUBLIC_NAMES))
    assert tuple(qdrive.__all__) == PUBLIC_NAMES
