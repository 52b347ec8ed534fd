import numpy as np
import pytest

from qdrive.core import scan_rho


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random mixed qubit state: normalized A A^dag with Ginibre A, checked by scan_rho."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    m = m / m.trace().real
    scan_rho(m).require_valid()
    return m


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
