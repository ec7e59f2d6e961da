import numpy as np
import pytest

from trapqa.core import ATOMIC_MASS, CA40, ELEMENTARY_CHARGE, DriveParams, IonSpecies


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


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: IonSpecies("X", 0.0), "mass_amu must be positive", id="mass_zero"),
        pytest.param(lambda: IonSpecies("X", -40.0), "mass_amu must be positive", id="mass_negative"),
        pytest.param(lambda: IonSpecies("X", 40.0, 0), "charge_e must be a positive integer", id="charge_zero"),
        pytest.param(lambda: DriveParams(-1.0, 1e8), "v0 must be >= 0", id="v0_negative"),
        pytest.param(lambda: DriveParams(100.0, 0.0), "omega must be positive", id="omega_zero"),
        pytest.param(lambda: DriveParams.from_mhz(100.0, -17.0), "omega must be positive", id="f_mhz_negative"),
    ],
)
def test_core_types_refuse_unphysical_values(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
