import numpy as np
import pytest

from trapqa.core import ATOMIC_MASS, CA40, ELEMENTARY_CHARGE, DriveParams


def test_ion_species_mass():
    # 40Ca+ in kg
    assert CA40.mass == pytest.approx(39.962591 * 1.66053906660e-27, rel=1e-9)
    assert CA40.charge == pytest.approx(1.602176634e-19, rel=1e-12)


def test_constants_equal_scipy_exactly():
    from scipy import constants

    assert ATOMIC_MASS == constants.atomic_mass
    assert ELEMENTARY_CHARGE == constants.e
    assert CA40.mass == 39.962591 * constants.atomic_mass
    assert CA40.charge == constants.e


def test_drive_params_from_mhz():
    d = DriveParams.from_mhz(120.0, 17.0)
    assert d.omega == pytest.approx(2 * np.pi * 17e6, rel=1e-12)
    assert d.v0 == 120.0
