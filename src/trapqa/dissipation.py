"""Lumped-element RF dissipation model for a surface trap drive.

The trap is modeled as a series feed resistance ``R`` into the trap
capacitance ``C`` shunted by the dielectric loss conductance
``G = omega C tan(delta)``:

    Z = R + (G - i omega C) / (G^2 + omega^2 C^2)

Driving the network with an RF voltage of amplitude ``V0`` dissipates

    P = V0^2 / 2 * Re(1/Z)

exactly. For ``C R omega << 1`` this splits into the familiar pair

    P_ohmic = V0^2 / 6 * C^2 R omega^2        (R measured end to end; the
                                               distributed factor 1/3 is
                                               folded into the prefactor)
    P_diel  = V0^2 / 2 * omega C tan(delta)

``power_exact`` takes the resistance argument as given; callers comparing
against the approximation evaluate it with ``R/3``, the effective series
value of a distributed feed whose current tapers linearly to zero.
"""

import math
import warnings
from dataclasses import dataclass

from ._io import finite, nonnegative, positive

__all__ = [
    "CircuitModel",
    "TrapPreset",
    "DissipationRow",
    "conductance",
    "impedance",
    "power_exact",
    "power_approx",
    "distributed_ohmic_power",
    "dissipation_report",
    "TRAP_PRESETS",
    "DEFAULT_DRIVE_V0",
    "DEFAULT_DRIVE_OMEGA",
]

#: Drive used for the bundled preset comparison: 160 V amplitude at 22 MHz.
DEFAULT_DRIVE_V0 = 160.0
DEFAULT_DRIVE_OMEGA = 2.0 * math.pi * 22e6

#: Above this value of C*R*omega the small-loss split is no longer reliable.
APPROX_VALIDITY_LIMIT = 0.1


@dataclass(frozen=True)
class CircuitModel:
    """Series resistance R (ohm), trap capacitance C (F), loss tangent."""

    resistance: float
    capacitance: float
    tan_delta: float

    def __post_init__(self):
        nonnegative("resistance", self.resistance)
        positive("capacitance", self.capacitance)
        nonnegative("tan_delta", self.tan_delta)


@dataclass(frozen=True)
class TrapPreset:
    """Measured lumped parameters of one trap build at 300 K and 10 K."""

    name: str
    capacitance: float
    resistance_300k: float
    resistance_10k: float
    tan_delta: float

    def circuit(self, temperature: float) -> CircuitModel:
        if temperature not in (300.0, 10.0):
            raise ValueError("presets carry resistances at 300 K and 10 K only")
        r = self.resistance_300k if temperature == 300.0 else self.resistance_10k
        return CircuitModel(resistance=r, capacitance=self.capacitance, tan_delta=self.tan_delta)


def conductance(capacitance: float, omega: float, tan_delta: float) -> float:
    """Dielectric loss conductance G = omega C tan(delta)."""
    return omega * capacitance * tan_delta


def impedance(model: CircuitModel, omega: float) -> complex:
    """Series R plus lossy capacitor, as a complex impedance."""
    g = conductance(model.capacitance, omega, model.tan_delta)
    wc = omega * model.capacitance
    return model.resistance + (g - 1j * wc) / (g * g + wc * wc)


def power_exact(model: CircuitModel, v0: float, omega: float) -> float:
    """Exact dissipated power V0^2/2 * Re(1/Z) for the series network.

    The resistance in ``model`` is used as given; pass R/3 to represent a
    distributed feed line by its effective series value.
    """
    z = impedance(model, omega)
    return 0.5 * v0 * v0 * (1.0 / z).real


def power_approx(model: CircuitModel, v0: float, omega: float) -> tuple[float, float]:
    """Small-loss split (P_ohmic, P_diel).

    ``model.resistance`` is the end-to-end feed resistance; the distributed
    1/3 is part of the P_ohmic prefactor. Warns when ``C R omega`` exceeds
    0.1, where the split degrades.
    """
    # the powers first: a drive whose omega**2 overflows raises before it warns
    p_ohmic = v0 * v0 / 6.0 * model.capacitance**2 * model.resistance * omega**2
    p_diel = 0.5 * v0 * v0 * conductance(model.capacitance, omega, model.tan_delta)
    crw = model.capacitance * model.resistance * omega
    if crw > APPROX_VALIDITY_LIMIT:
        warnings.warn(
            f"C*R*omega = {crw:.3g} exceeds {APPROX_VALIDITY_LIMIT}; "
            "the small-loss power split is unreliable here",
            stacklevel=2,
        )
    return p_ohmic, p_diel


def distributed_ohmic_power(resistance: float, i0: float) -> float:
    """Ohmic power of a feed line whose current tapers linearly to zero.

    With ``I(x) = I0 (1 - x/L)`` along a line of total resistance R, the
    dissipated power integrates to ``R I0^2 / 3`` (peak current convention;
    the time-average factor 1/2 is not included here). A ``resistance``
    below zero, or either value not finite, raises ValueError.
    """
    nonnegative("resistance", resistance)
    finite("i0", i0)
    return resistance * i0 * i0 / 3.0


@dataclass(frozen=True)
class DissipationRow:
    """One preset/temperature line of the comparison report. Powers in watts."""

    name: str
    temperature: float
    p_ohmic: float
    p_diel: float
    p_total: float
    p_exact: float
    rel_error: float


def dissipation_report(
    v0: float = DEFAULT_DRIVE_V0, omega: float = DEFAULT_DRIVE_OMEGA
) -> list[DissipationRow]:
    """Approximate-vs-exact dissipation for each of ``TRAP_PRESETS`` at 300 K and 10 K.

    The exact reference evaluates the lumped network with the effective
    series resistance R/3 so that both columns describe the same distributed
    feed. Raises ``ValueError`` unless ``v0`` and ``omega`` are finite and above
    zero: at zero drive there is no power to split, no relative error. Raises
    ``ValueError`` naming the drive when a power or the relative error is not
    finite, as for a ``v0`` whose square overflows, an ``omega`` whose square
    overflows, or an ``omega`` so small that the admittance underflows. The
    small-loss validity warnings of :func:`power_approx` are issued, for the
    caller, only once every row is finite: a refused drive does not warn.
    """
    positive("drive amplitude v0", v0)
    positive("drive angular frequency omega", omega)
    rows = []
    # power_approx's validity warnings wait until every row is finite: a
    # refused drive says only why it is refused
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for preset in TRAP_PRESETS:
            for temperature in (300.0, 10.0):
                model = preset.circuit(temperature)
                effective = CircuitModel(
                    resistance=model.resistance / 3.0,
                    capacitance=model.capacitance,
                    tan_delta=model.tan_delta,
                )
                try:
                    p_ohm, p_diel = power_approx(model, v0, omega)
                    p_exact = power_exact(effective, v0, omega)
                    total = p_ohm + p_diel
                    rel_error = abs(p_exact - total) / p_exact
                    finite = all(map(math.isfinite, (p_ohm, p_diel, total, p_exact, rel_error)))
                except (OverflowError, ZeroDivisionError):
                    finite = False
                if not finite:
                    raise ValueError(
                        f"the drive v0 = {float(v0)!r} V at omega = {float(omega)!r} rad/s gives "
                        f"{preset.name} at {temperature:g} K a power that is not finite"
                    )
                rows.append(
                    DissipationRow(
                        name=preset.name,
                        temperature=temperature,
                        p_ohmic=p_ohm,
                        p_diel=p_diel,
                        p_total=total,
                        p_exact=p_exact,
                        rel_error=rel_error,
                    )
                )
    for w in caught:
        warnings.warn(w.message, stacklevel=2)
    return rows


#: The three trap builds compared in the bundled report. Capacitance is the
#: measured trap capacitance, resistances are the end-to-end RF feed values
#: at room temperature and 10 K, and tan_delta the composite dielectric loss.
TRAP_PRESETS = (
    TrapPreset(
        name="si_partial_shield",
        capacitance=28e-12,
        resistance_300k=3.0,
        resistance_10k=0.31,
        tan_delta=1.0e-3,
    ),
    TrapPreset(
        name="si_full_shield",
        capacitance=42e-12,
        resistance_300k=3.0,
        resistance_10k=0.31,
        tan_delta=1.0e-3,
    ),
    TrapPreset(
        name="fused_silica",
        capacitance=12e-12,
        resistance_300k=1.1,
        resistance_10k=0.025,
        tan_delta=1.0e-3,
    ),
)
