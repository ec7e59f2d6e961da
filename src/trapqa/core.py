"""Shared value types: materials, trace geometries, ion species, RF drive.

All quantities are SI internally (meters, ohms, kelvin, ohm meters). Loaders
accept the unit-suffixed keys used in the JSON configs (``*_um``, ``*_mm``)
and convert on the way in.
"""

from dataclasses import dataclass

import numpy as np

from ._io import as_list, as_number, as_object, as_text, read_json

__all__ = [
    "Material",
    "TraceGeometry",
    "IonSpecies",
    "DriveParams",
    "resistivity_at",
    "trace_resistance",
    "load_material",
    "material_from_dict",
    "MATERIALS",
    "RF_TRACES",
    "CA40",
    "ATOMIC_MASS",
    "ELEMENTARY_CHARGE",
]

# CODATA 2022 values, as scipy.constants gives them; written out so that
# importing trapqa does not load scipy.
ATOMIC_MASS = 1.66053906892e-27  # kg
ELEMENTARY_CHARGE = 1.602176634e-19  # C


@dataclass(frozen=True)
class Material:
    """A conductor or dielectric used in the trap stack.

    :param name: identifier, e.g. ``"al_pure"``.
    :param resistivity: table of ``(T [K], rho [ohm m])`` knots, ascending in
        temperature. Empty for dielectrics.
    :param tan_delta: dielectric loss tangent; 0.0 for metals.
    """

    name: str
    resistivity: tuple[tuple[float, float], ...] = ()
    tan_delta: float = 0.0

    def __post_init__(self):
        if self.tan_delta < 0:
            raise ValueError(f"tan_delta must be >= 0, got {self.tan_delta}")
        temps = [t for t, _ in self.resistivity]
        if any(t <= 0 for t in temps):
            raise ValueError("resistivity knots need positive temperatures")
        if any(r <= 0 for _, r in self.resistivity):
            raise ValueError("resistivity knots need positive resistivities")
        if temps != sorted(temps) or len(set(temps)) != len(temps):
            raise ValueError("resistivity knots must be strictly ascending in T")


@dataclass(frozen=True)
class TraceGeometry:
    """Rectangular metal trace: length along the current path, cross section w x t."""

    length: float
    width: float
    thickness: float

    def __post_init__(self):
        for fname in ("length", "width", "thickness"):
            if getattr(self, fname) <= 0:
                raise ValueError(f"{fname} must be positive")


@dataclass(frozen=True)
class IonSpecies:
    """Trapped ion species; mass in atomic mass units, charge in units of e."""

    name: str
    mass_amu: float
    charge_e: int = 1

    def __post_init__(self):
        if self.mass_amu <= 0:
            raise ValueError("mass_amu must be positive")
        if self.charge_e < 1:
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
        if self.v0 < 0:
            raise ValueError("v0 must be >= 0")
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    @classmethod
    def from_mhz(cls, v0: float, f_mhz: float) -> "DriveParams":
        return cls(v0=v0, omega=2.0 * np.pi * f_mhz * 1e6)


def resistivity_at(material: Material, temperature: float) -> float:
    """Resistivity (ohm m) at ``temperature``, log-log interpolated between knots.

    Knot temperatures are returned exactly. Outside the tabulated range the
    nearest knot value is used (resistivity of a metal is essentially flat
    below the lowest tabulated point, and the tables end at room temperature).
    """
    if not material.resistivity:
        raise ValueError(f"material {material.name!r} has no resistivity table")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    temps = np.array([t for t, _ in material.resistivity])
    rhos = np.array([r for _, r in material.resistivity])
    if len(temps) == 1:
        return float(rhos[0])
    logr = np.interp(np.log(temperature), np.log(temps), np.log(rhos))
    return float(np.exp(logr))


def trace_resistance(trace: TraceGeometry, resistivity: float) -> float:
    """DC resistance rho * L / (w * t) of a uniform trace."""
    if resistivity <= 0:
        raise ValueError("resistivity must be positive")
    return resistivity * trace.length / (trace.width * trace.thickness)


def material_from_dict(data: dict) -> Material:
    """Build a Material from its JSON form.

    Expected keys: ``name``, optional ``tan_delta``, optional ``resistivity``
    as a list of ``[T_K, rho_ohm_m]`` pairs.
    """
    data = as_object(data, "a material")
    knots = as_list(data.get("resistivity", []), "material 'resistivity'")
    return Material(
        name=as_text(data["name"], "material 'name'"),
        resistivity=tuple(
            tuple(as_number(x, "material 'resistivity'") for x in as_list(k, "a resistivity knot", 2))
            for k in knots
        ),
        tan_delta=as_number(data.get("tan_delta", 0.0), "material 'tan_delta'"),
    )


def load_material(path) -> Material:
    return material_from_dict(read_json(path))


# Bundled materials. The 10 K resistivities are measured values for the two
# metallizations; the 300 K values are chosen so that the RF trace geometries
# below reproduce the room-temperature trace resistances of the bundled
# dissipation presets (3.0 ohm for the alloy process, 1.1 ohm for the pure
# aluminum process). The tabulated resistances at the two temperatures imply
# slightly different residual-resistance ratios than these two-knot tables,
# so the dissipation presets carry their measured resistances explicitly.
MATERIALS = {
    "al_pure": Material(
        name="al_pure",
        resistivity=((10.0, 4.3e-10), (300.0, 2.65e-8)),
    ),
    "al_alloy": Material(
        name="al_alloy",
        resistivity=((10.0, 2.4e-9), (300.0, 3.0e-8)),
    ),
    "trap_dielectric": Material(name="trap_dielectric", tan_delta=1.0e-3),
}

# RF feed traces of the two processes, sized to give the tabulated
# room-temperature resistances with the materials above:
#   alloy,  t = 2 um: R = 3.0e-8 * 0.049  / (245e-6 * 2e-6) = 3.00 ohm
#   pure Al, t = 4 um: R = 2.65e-8 * 0.0407 / (245e-6 * 4e-6) = 1.10 ohm
RF_TRACES = {
    "al_alloy": TraceGeometry(length=0.049, width=245e-6, thickness=2e-6),
    "al_pure": TraceGeometry(length=0.0407, width=245e-6, thickness=4e-6),
}

CA40 = IonSpecies(name="Ca40", mass_amu=39.962591, charge_e=1)
