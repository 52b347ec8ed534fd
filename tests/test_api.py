"""The public API: qdrive.__all__ is exactly this tuple, so adding or removing
a public name is a reviewed change to this file."""
import qdrive

PUBLIC_NAMES = (
    "BadParam", "ConfigInvalid", "DegenerateDrive", "DiscriminantNegative", "DriveHamiltonian",
    "IDENTITY", "InvariantDrift", "NotHermitian", "NotPositive", "OutOfRange", "PulseParams",
    "QdriveError", "RabiParams", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "Sampled", "TimeGrid",
    "TimeSeries", "TraceNotOne", "build_series", "commutator", "floquet_quasienergy",
    "invariance_residual", "invariant_operator", "l1_pulse_closed_form", "lewis_phase",
    "periodicity_T", "propagate", "pulse_amplitudes", "pulse_density", "pulse_f",
    "pulse_hamiltonian", "pulse_rho", "rabi_amplitudes", "rabi_density", "rabi_hamiltonian",
    "rabi_rho", "refine_max", "xi_squared",
)


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == tuple(sorted(PUBLIC_NAMES))
    assert tuple(qdrive.__all__) == PUBLIC_NAMES
