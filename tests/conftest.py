import numpy as np
import pytest

from trapqa import thermometry
from trapqa.core import CA40, DriveParams
from trapqa.electrostatics import find_rf_minima, paper_trap_geometry


@pytest.fixture(scope="session")
def geometry():
    return paper_trap_geometry()


@pytest.fixture(scope="session")
def drive():
    return DriveParams.from_mhz(120.0, 17.0)


@pytest.fixture(scope="session")
def rf_minima(geometry, drive):
    window = ((-150e-6, 150e-6), (40e-6, 250e-6))
    return find_rf_minima(geometry, CA40, drive, window)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=1234))


@pytest.fixture
def starved_fit(monkeypatch):
    """Make every R(T) fit stop after one evaluation, unconverged."""
    real = thermometry.optimize.least_squares
    monkeypatch.setattr(
        thermometry.optimize, "least_squares", lambda *a, **kw: real(*a, **{**kw, "max_nfev": 1})
    )
