"""Potentials, fields and the RF pseudopotential on top of the kernels."""

import numpy as np

from .. import kernels
from ..core import DriveParams, IonSpecies
from .geometry import TrapGeometry, _check_voltage

__all__ = [
    "rect_potential",
    "potential_at",
    "field_at",
    "field_gradient_at",
    "basis_potential",
    "basis_field",
    "pseudopotential",
    "total_potential",
]


def _as_points(points) -> tuple[np.ndarray, bool]:
    """``points`` as an (N, 3) array and whether a single (3,) point was given.

    Points that are not finite or not above the electrode plane are refused:
    the closed forms hold only in the half space z > 0; below the plane they
    return values that break the maximum principle instead of failing.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.shape == (3,)
    pts = pts.reshape(-1, 3)
    ok = np.isfinite(pts).all(axis=1) & (pts[:, 2] > 0.0)
    if not ok.all():
        x, y, z = pts[np.argmin(ok)] * 1e6
        raise ValueError(
            f"point ({x:g}, {y:g}, {z:g}) um is outside the half space z > 0 above the electrodes"
        )
    return pts, single


def _checked(what: str, kernel, *args):
    """``kernel(*args)``, refused with ``ValueError`` unless every value is
    finite.

    The points and voltages are finite, so a value that is not comes from
    the arithmetic: a voltage near the float range overflows the sums, and
    a point too close to the plane underflows ``z``. numpy's warnings for
    these are silenced, here and in the kernel's threads, which run in a
    copy of this context; the refusal speaks instead.
    """
    with np.errstate(all="ignore"):
        out = kernel(*args)
    for a in out if isinstance(out, tuple) else (out,):
        if not np.isfinite(a).all():
            raise ValueError(
                f"the {what} is not finite: a voltage is too large or a point too close to the plane"
            )
    return out


def _evaluate(what: str, kernel, rects, volts, pts, zeros):
    """``kernel(rects, volts, pts)`` through :func:`_checked`, or, with no
    rectangle driven, +0.0 arrays of the per-point shapes ``zeros``, one per
    array the kernel returns. Every kernel call on geometry inputs but the
    stray field's superposition comes here."""
    if len(rects) == 0:
        out = tuple(np.zeros((len(pts), *z)) for z in zeros)
        return out if len(out) > 1 else out[0]
    return _checked(what, kernel, rects, volts, pts)


def rect_potential(rect, voltage: float, point) -> float:
    """Potential of a single rectangle ``(x1, x2, y1, y2)`` at one point.

    Gapless-plane closed form; ``point`` is ``(x, y, z)`` with ``z > 0``. A
    voltage that is not finite, or a potential that is not, raises
    ``ValueError``.
    """
    rects = np.asarray(rect, dtype=float).reshape(1, 4)
    _check_voltage(rects[0].tolist(), voltage, "rectangle")
    pts, _ = _as_points(np.reshape(point, (1, 3)))
    volts = np.array([voltage], dtype=float)
    return float(_evaluate("potential", kernels.rect_potential_sum, rects, volts, pts, ((),))[0])


def potential_at(geometry: TrapGeometry, voltages: dict, points):
    """Total potential (V) of the geometry under ``voltages`` at ``points``.

    ``points`` may be one (3,) point or an (N, 3) array; the result matches
    (scalar or (N,)). A result that is not finite, from a voltage near the
    float range, raises ``ValueError``; so it does in the functions below.
    """
    pts, single = _as_points(points)
    rects, volts = geometry.rect_arrays(voltages)
    out = _evaluate("potential", kernels.rect_potential_sum, rects, volts, pts, ((),))
    return float(out[0]) if single else out


def field_at(geometry: TrapGeometry, voltages: dict, points):
    """Electric field E = -grad(phi) (V/m) at ``points``; (3,) or (N, 3)."""
    pts, single = _as_points(points)
    rects, volts = geometry.rect_arrays(voltages)
    out = _evaluate("field", kernels.rect_field_sum, rects, volts, pts, ((3,),))
    return out[0] if single else out


def field_gradient_at(geometry: TrapGeometry, voltages: dict, points):
    """Field E (V/m) and its gradient ``G[i, j] = dE_i/dx_j`` (V/m^2) at
    ``points``: ((3,), (3, 3)) for one point, ((N, 3), (N, 3, 3)) for N.

    ``G`` is symmetric and traceless; ``E`` equals :func:`field_at` bit for bit.
    """
    pts, single = _as_points(points)
    rects, volts = geometry.rect_arrays(voltages)
    e, grad = _evaluate(
        "field gradient", kernels.rect_field_grad_sum, rects, volts, pts, ((3,), (3, 3))
    )
    return (e[0], grad[0]) if single else (e, grad)


def basis_potential(geometry: TrapGeometry, electrode_id: str, points):
    """Potential per unit volt of one electrode (others grounded)."""
    geometry.electrode(electrode_id)  # validate the id
    return potential_at(geometry, {electrode_id: 1.0}, points)


def basis_field(geometry: TrapGeometry, electrode_id: str, points):
    """Field per unit volt of one electrode, E = -grad(phi) at 1 V."""
    geometry.electrode(electrode_id)
    return field_at(geometry, {electrode_id: 1.0}, points)


def _rf_voltages(geometry: TrapGeometry, amplitude: float) -> dict:
    ids = geometry.ids(role="rf")
    if not ids:
        raise ValueError("geometry has no RF electrodes")
    return {i: amplitude for i in ids}


def pseudopotential(geometry: TrapGeometry, ion: IonSpecies, drive: DriveParams, points):
    """Time-averaged RF pseudopotential (J) at ``points``.

    Psi = q^2 |E_rf|^2 / (4 m Omega^2) with E_rf the field amplitude of all
    RF electrodes driven in phase at ``drive.v0``.
    """
    pts, single = _as_points(points)
    e = field_at(geometry, _rf_voltages(geometry, drive.v0), pts)
    e2 = np.einsum("ij,ij->i", e, e)
    psi = ion.charge**2 * e2 / (4.0 * ion.mass * drive.omega**2)
    return float(psi[0]) if single else psi


def total_potential(
    geometry: TrapGeometry,
    ion: IonSpecies,
    drive: DriveParams,
    dc_voltages: dict,
    points,
):
    """Pseudopotential plus q times the static potential, in joules."""
    pts, single = _as_points(points)  # (N, 3): both terms are (N,) arrays
    u = pseudopotential(geometry, ion, drive, pts) + ion.charge * potential_at(geometry, dc_voltages, pts)
    return float(u[0]) if single else u
