"""qdrive: density-matrix dynamics of periodically driven two-level systems.

Closed-form solutions (RWA harmonic drive, square-pulse drive), a
Lewis-type dynamical invariant that reproduces the density matrix, Floquet
quasi-energies, l1/Frobenius coherence measures, and a fixed-step RK4
Liouville propagator that cross-checks every closed form.
"""
from types import ModuleType as _ModuleType

from .coherence import (
    build_series,
    frobenius_coherence,
    l1_coherence,
    l1_pulse_closed_form,
    refine_max,
)
from .core import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    StateVector,
    TimeGrid,
    TimeSeries,
    commutator,
    dm_eigenvalues,
    dm_new,
    dm_purity,
    ground_state_dm,
    mat2,
)
from .errors import (
    BadParam,
    ConfigInvalid,
    DegenerateDrive,
    DiscriminantNegative,
    InvariantDrift,
    NotHermitian,
    NotNormalized,
    NotPositive,
    OutOfRange,
    QdriveError,
    TraceNotOne,
)
from .lewis import (
    invariance_residual,
    invariant_operator,
    lewis_phase,
    xi_squared,
)
from .liouville import (
    DriveHamiltonian,
    Sampled,
    propagate,
)
from .pulse import (
    PulseParams,
    periodicity_T,
    pulse_density,
    pulse_f,
    pulse_hamiltonian,
    pulse_rho,
    pulse_state,
)
from .rabi import (
    RabiParams,
    floquet_quasienergy,
    floquet_solution,
    rabi_density,
    rabi_hamiltonian,
    rabi_rho,
    rabi_state,
)

__version__ = "0.1.0"

# the public API is exactly the names imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
