"""Exception hierarchy for qdrive.

Every error raised by the library derives from :class:`QdriveError`, so
callers can catch one type at the boundary.  Names follow the invariant or
contract they report on.
"""


class QdriveError(Exception):
    """Base class for all qdrive errors."""


class NotHermitian(QdriveError):
    """Matrix fails the Hermiticity check (rho10 != conj(rho01) or complex diagonal)."""


class TraceNotOne(QdriveError):
    """Density-matrix trace differs from 1 beyond tolerance."""


class NotPositive(QdriveError):
    """Density matrix has an eigenvalue below -tolerance."""


class DiscriminantNegative(QdriveError):
    """Frobenius radicand 1 + 4|rho01|^2 - 4 rho00 rho11 (four times the eigenvalue
    radicand) is below what a state within the scan's trace tolerance reaches
    (invalid state); raised when Scan.c_frob is read."""


class DegenerateDrive(QdriveError):
    """Rabi frequency is zero (zero coupling and zero detuning), or so small that
    1/(4 Omega^2) overflows; closed forms divide by it."""


class BadParam(QdriveError):
    """Parameter outside its documented domain (non-positive, non-finite, ...)."""


class OutOfRange(QdriveError):
    """Time lies outside the range covered by a sampled drive."""


class InvariantDrift(QdriveError):
    """Trace or Hermiticity drift of a propagated state exceeded core.TOL_RUNTIME (1e-8)."""


class ConfigInvalid(QdriveError):
    """Scenario configuration failed validation; message names the offending field."""
