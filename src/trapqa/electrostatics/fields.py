"""Potentials, fields and the RF pseudopotential on top of the kernels.

Every kernel call on geometry inputs passes :func:`_checked`, which refuses
a value that is not finite: here through :func:`_at`, in ``stray_field`` and
``diagnosis.axial_potential`` directly. An empty set of driven electrodes
takes no branch of its own: the kernels return +0.0 for no rectangle.
"""

import numpy as np

from .. import kernels
from ..core import DriveParams, IonSpecies
from .geometry import TrapGeometry

__all__ = ["potential_at", "field_at", "field_gradient_at", "pseudopotential"]


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
            raise _not_finite(what)
    return out


def _not_finite(what: str) -> ValueError:
    """The refusal of a ``what`` that is not finite."""
    return ValueError(f"the {what} is not finite: a voltage is too large or a point too close to the plane")


def _at(what: str, kernel, geometry: TrapGeometry, voltages: dict, points):
    """``kernel`` over the rectangles ``voltages`` drives in ``geometry``,
    through :func:`_checked`: its arrays at (N, 3) ``points``, or at a
    single (3,) point each array's one row (a potential as a float)."""
    pts, single = _as_points(points)
    rects, volts = geometry.rect_arrays(voltages)
    out = _checked(what, kernel, rects, volts, pts)
    if not single:
        return out
    return tuple(map(_one, out)) if isinstance(out, tuple) else _one(out)


def _one(a):
    """The row of a one-point result: a float for a potential."""
    return a[0] if a.ndim > 1 else float(a[0])


def potential_at(geometry: TrapGeometry, voltages: dict, points):
    """Total potential (V) of the geometry under ``voltages`` at ``points``.

    ``points`` may be one (3,) point or an (N, 3) array; the result matches
    (scalar or (N,)). With no electrode driven it is +0.0. A result that is
    not finite, from a voltage near the float range, raises ``ValueError``;
    so it does in the functions below.
    """
    return _at("potential", kernels.rect_potential_sum, geometry, voltages, points)


def field_at(geometry: TrapGeometry, voltages: dict, points):
    """Electric field E = -grad(phi) (V/m) at ``points``; (3,) or (N, 3)."""
    return _at("field", kernels.rect_field_sum, geometry, voltages, points)


def field_gradient_at(geometry: TrapGeometry, voltages: dict, points):
    """Field E (V/m) and its gradient ``G[i, j] = dE_i/dx_j`` (V/m^2) at
    ``points``: ((3,), (3, 3)) for one point, ((N, 3), (N, 3, 3)) for N.

    ``G`` is symmetric and traceless; ``E`` equals :func:`field_at` bit for bit.
    """
    return _at("field gradient", kernels.rect_field_grad_sum, geometry, voltages, points)


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

