"""qdrive: density-matrix dynamics of periodically driven two-level systems.

Closed-form solutions (RWA harmonic drive, square-pulse drive), a
Lewis-type dynamical invariant that reproduces the density matrix, Floquet
quasi-energies, l1/Frobenius coherence measures, and a fixed-step RK4
Liouville propagator that cross-checks every closed form.
"""
from types import ModuleType as _ModuleType

from .coherence import (
    build_series,
    l1_pulse_closed_form,
    refine_max,
)
from .core import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TimeGrid,
    TimeSeries,
    commutator,
)
from .errors import (
    BadParam,
    ConfigInvalid,
    DegenerateDrive,
    DiscriminantNegative,
    InvariantDrift,
    NotHermitian,
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
    pulse_amplitudes,
    pulse_density,
    pulse_f,
    pulse_hamiltonian,
    pulse_rho,
)
from .rabi import (
    RabiParams,
    floquet_quasienergy,
    rabi_amplitudes,
    rabi_density,
    rabi_hamiltonian,
    rabi_rho,
)

__version__ = "0.1.0"

# the public API is exactly the names imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
