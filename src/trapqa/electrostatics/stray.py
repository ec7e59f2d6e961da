"""Stray-field reconstruction and excess-micromotion estimates."""

from dataclasses import dataclass

import numpy as np

from .. import kernels
from .._io import positive
from ..core import DriveParams, IonSpecies
from .fields import _as_points, _checked
from .geometry import TrapGeometry, _check_voltage

__all__ = ["stray_field", "micromotion_index", "MicromotionReport"]


def stray_field(
    geometry: TrapGeometry,
    applied: dict,
    reference: dict,
    points,
):
    """Stray field inferred from compensation settings.

    If the ion is compensated with ``applied`` voltages where the ideal
    (simulated) set is ``reference``, the stray field being cancelled is

        E_stray = -sum_i (applied_i - reference_i) * E_i

    with ``E_i`` the field of electrode ``i`` alone at 1 V (``field_at``
    with ``{i: 1.0}``), evaluated at ``points``. Electrodes missing from
    either dict count as 0 V there. The terms are summed in sorted-id order,
    skipping electrodes whose voltage does not differ, in one kernel pass
    over all their rectangles; an unknown id with a nonzero difference
    raises ``KeyError``, and a voltage that is not finite, or a field that
    overflows, ``ValueError``. Returns (3,) for a single point, else (N, 3).
    """
    pts, single = _as_points(points)
    for volts in (applied, reference):
        for eid, v in volts.items():
            _check_voltage(eid, v)
    ids = sorted(set(applied) | set(reference))
    dv = [applied.get(eid, 0.0) - reference.get(eid, 0.0) for eid in ids]
    moved = [(geometry.electrode(eid).rects, d) for eid, d in zip(ids, dv) if d != 0.0]
    total = -_checked(
        "stray field",
        kernels.rect_field_superpose,
        [rects for rects, _ in moved],
        [d for _, d in moved],
        pts,
    )
    return total[0] if single else total


@dataclass(frozen=True)
class MicromotionReport:
    """Excess micromotion of an ion displaced from the RF null.

    ``displacement`` (m) is the static push off the null, ``amplitude`` (m)
    the resulting driven motion at the trap drive frequency, and ``beta`` the
    phase modulation index seen by a probe beam with the given k vector
    projection.
    """

    displacement: float
    mathieu_q: float
    amplitude: float
    beta: float


def micromotion_index(
    e_stray: float,
    omega_radial: float,
    ion: IonSpecies,
    drive: DriveParams,
    k: float,
) -> MicromotionReport:
    """Modulation index of micromotion driven by a stray field.

    The chain, valid deep in the pseudopotential regime:

        d   = q E / (m omega_r^2)         static displacement off the null
        q_M = 2 sqrt(2) omega_r / Omega   Mathieu drive parameter
        u   = q_M d / 2                   micromotion amplitude at Omega
        beta = k u                        modulation index

    ``e_stray`` is the stray-field component along the mode (V/m), ``k`` the
    probe wavevector projection on the micromotion direction (rad/m).
    """
    positive("omega_radial", omega_radial)
    d = ion.charge * e_stray / (ion.mass * omega_radial**2)
    q_m = 2.0 * np.sqrt(2.0) * omega_radial / drive.omega
    u = q_m * d / 2.0
    return MicromotionReport(
        displacement=d, mathieu_q=q_m, amplitude=u, beta=k * u
    )
