"""Shared value types: ion species and RF drive parameters, in SI units."""

from dataclasses import dataclass

import numpy as np

from ._io import nonnegative, positive

__all__ = [
    "IonSpecies",
    "DriveParams",
    "CA40",
    "ATOMIC_MASS",
    "ELEMENTARY_CHARGE",
]

# CODATA 2022 values, as scipy.constants gives them; written out so that
# importing trapqa does not load scipy.
ATOMIC_MASS = 1.66053906892e-27  # kg
ELEMENTARY_CHARGE = 1.602176634e-19  # C


@dataclass(frozen=True)
class IonSpecies:
    """Trapped ion species; mass in atomic mass units, charge in units of e."""

    name: str
    mass_amu: float
    charge_e: int = 1

    def __post_init__(self):
        positive("mass_amu", self.mass_amu)
        if not 1 <= self.charge_e < np.inf:
            raise ValueError("charge_e must be a positive integer")

    @property
    def mass(self) -> float:
        """Mass in kg."""
        return self.mass_amu * ATOMIC_MASS

    @property
    def charge(self) -> float:
        """Charge in C."""
        return self.charge_e * ELEMENTARY_CHARGE


@dataclass(frozen=True)
class DriveParams:
    """RF drive: voltage amplitude (zero to peak) and angular frequency."""

    v0: float
    omega: float

    def __post_init__(self):
        nonnegative("v0", self.v0)
        positive("omega", self.omega)

    @classmethod
    def from_mhz(cls, v0: float, f_mhz: float) -> "DriveParams":
        return cls(v0=v0, omega=2.0 * np.pi * f_mhz * 1e6)


CA40 = IonSpecies(name="Ca40", mass_amu=39.962591, charge_e=1)
