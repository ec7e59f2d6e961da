"""RF pseudopotential minima and secular mode frequencies."""

from dataclasses import dataclass

import numpy as np

from ..core import DriveParams, IonSpecies
from .fields import field_at, pseudopotential, total_potential
from .geometry import TrapGeometry

__all__ = ["TrapMinimum", "SecularModes", "find_rf_minima", "secular_frequencies"]


@dataclass(frozen=True)
class TrapMinimum:
    """One pseudopotential minimum.

    ``position`` is (x, y, z) in meters, ``height`` its z coordinate,
    ``psi_min`` the pseudopotential there (J), and ``depth`` the barrier to
    escape along the vertical ray above the minimum (J), the standard
    shallow-direction estimate for surface traps.
    """

    position: tuple[float, float, float]
    height: float
    psi_min: float
    depth: float


# Batched Newton search for the RF nulls. The Jacobian comes from central
# differences at a step proportional to the height, small enough that its
# truncation error only slows the last iterations, not where they converge.
_FD_STEP = 1e-4  # finite-difference step / height
_STEP_TOL = 1e-12  # converged once the step is below this / height
_MAX_ITER = 60
_STENCIL = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _newton_nulls(geometry, x, window, grid):
    """Converged zeros of (E_y, E_z) from a ``grid x grid`` lattice of seeds.

    All active seeds advance together: one ``field_at`` call per iteration
    evaluates each seed and its four +-h neighbours, and one batched solve
    gives every Newton step. A step is scaled down so that it at most halves
    the seed's height, so no evaluated point reaches z <= 0. A seed retires
    when its step is below the tolerance (converged), when it moves beside
    or above the window by more than the window's own size, or when its
    Jacobian is singular or its step not finite.
    Returns the converged (y, z) in seed order, y outer and z inner.
    """
    (y_lo, y_hi), (z_lo, z_hi) = window
    dy, dz = y_hi - y_lo, z_hi - z_lo
    unit_volts = {i: 1.0 for i in geometry.ids(role="rf")}
    ys, zs = np.meshgrid(np.linspace(y_lo, y_hi, grid), np.linspace(z_lo, z_hi, grid), indexing="ij")
    yz = np.column_stack([ys.ravel(), zs.ravel()])
    converged = np.zeros(len(yz), dtype=bool)
    active = np.arange(len(yz))

    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        p = yz[active]
        h = _FD_STEP * p[:, 1]
        stencil = (p[:, None, :] + h[:, None, None] * _STENCIL).reshape(-1, 2)
        pts = np.column_stack([np.full(len(stencil), x), stencil])
        e = field_at(geometry, unit_volts, pts)[:, 1:].reshape(-1, 5, 2)
        # jac[k, i, j] = d E_i / d (y, z)_j for seed k
        jac = np.stack([e[:, 1] - e[:, 2], e[:, 3] - e[:, 4]], axis=2) / (2.0 * h[:, None, None])
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        scale = np.abs(jac[:, 0, 0] * jac[:, 1, 1]) + np.abs(jac[:, 0, 1] * jac[:, 1, 0])
        ok = np.isfinite(det) & (np.abs(det) > 1e-12 * scale)
        active, p = active[ok], p[ok]
        step = -np.linalg.solve(jac[ok], e[ok, 0][:, :, None])[:, :, 0]
        ok = np.isfinite(step).all(axis=1)
        active, p, step = active[ok], p[ok], step[ok]

        # shrink the step so the height at most halves: no point reaches z <= 0
        step *= np.minimum(1.0, 0.5 * p[:, 1] / np.maximum(-step[:, 1], 0.5 * p[:, 1]))[:, None]
        p = p + step
        yz[active] = p
        done = np.abs(step).max(axis=1) <= _STEP_TOL * p[:, 1]
        converged[active[done]] = True
        inside = (p[:, 0] >= y_lo - dy) & (p[:, 0] <= y_hi + dy) & (p[:, 1] <= z_hi + dz)
        active = active[~done & inside]

    return [tuple(q) for q in yz[converged]]


def find_rf_minima(
    geometry: TrapGeometry,
    ion: IonSpecies,
    drive: DriveParams,
    window: tuple[tuple[float, float], tuple[float, float]],
    x: float = 0.0,
    grid: int = 11,
    dedup_tol: float = 1e-6,
) -> list[TrapMinimum]:
    """Locate RF nulls in the transverse (y, z) plane at fixed ``x``.

    Seeds a ``grid x grid`` lattice over ``window = ((y_lo, y_hi),
    (z_lo, z_hi))`` and solves E_y = E_z = 0 of the unit-volt RF field from
    all seeds at once by a damped Newton iteration: one field evaluation per
    iteration covers every active seed with its finite-difference
    neighbours, and every evaluated point stays above the electrode plane.
    Seeds that do not converge (singular Jacobian, leaving the window far
    behind, iteration limit) are dropped. Converged nulls inside the window
    with a positive-definite transverse curvature are kept, deduplicated
    within ``dedup_tol`` (1 um by default), and returned sorted by y.

    For an RF-only drive the pseudopotential is q^2 |E|^2 / (4 m Omega^2),
    so its minima with zero value are exactly the nulls of E; minima at
    nonzero pseudopotential (which a pure-RF surface layout does not produce
    in practice) are not searched for.
    """
    (y_lo, y_hi), (z_lo, z_hi) = window
    if not (y_hi > y_lo and z_hi > z_lo and z_lo > 0):
        raise ValueError("window must be (y_lo < y_hi, 0 < z_lo < z_hi)")
    if not geometry.ids(role="rf"):
        raise ValueError("geometry has no RF electrodes")

    found = []
    for y0, z0 in _newton_nulls(geometry, x, window, grid):
        if not (y_lo - dedup_tol <= y0 <= y_hi + dedup_tol):
            continue
        if not (z_lo - dedup_tol <= z0 <= z_hi + dedup_tol):
            continue
        if any(abs(y0 - fy) < dedup_tol and abs(z0 - fz) < dedup_tol for fy, fz in found):
            continue
        found.append((y0, z0))

    minima = []
    for y0, z0 in found:
        # confirm a transverse minimum (positive-definite curvature of psi)
        h = 0.5e-6
        pts = np.array(
            [
                [x, y0, z0],
                [x, y0 + h, z0],
                [x, y0 - h, z0],
                [x, y0, z0 + h],
                [x, y0, z0 - h],
                [x, y0 + h, z0 + h],
                [x, y0 + h, z0 - h],
                [x, y0 - h, z0 + h],
                [x, y0 - h, z0 - h],
            ]
        )
        p = pseudopotential(geometry, ion, drive, pts)
        dyy = (p[1] - 2 * p[0] + p[2]) / h**2
        dzz = (p[3] - 2 * p[0] + p[4]) / h**2
        dyz = (p[5] - p[6] - p[7] + p[8]) / (4 * h**2)
        eigvals = np.linalg.eigvalsh(np.array([[dyy, dyz], [dyz, dzz]]))
        if eigvals[0] <= 0:
            continue

        # escape barrier along the vertical ray above the null
        zs = np.linspace(z0, z_hi, 400)
        ray = np.column_stack([np.full_like(zs, x), np.full_like(zs, y0), zs])
        psi_ray = pseudopotential(geometry, ion, drive, ray)
        minima.append(
            TrapMinimum(
                position=(x, float(y0), float(z0)),
                height=float(z0),
                psi_min=float(p[0]),
                depth=float(np.max(psi_ray) - p[0]),
            )
        )

    minima.sort(key=lambda m: m.position[1])
    return minima


@dataclass(frozen=True)
class SecularModes:
    """Mode frequencies and principal axes at a potential minimum.

    ``omegas`` are signed angular frequencies (rad/s): the sign of each entry
    follows the sign of the corresponding curvature eigenvalue, so a negative
    entry marks an unstable (anti-trapping) direction and ``stable`` is True
    only when all three are positive. ``axes`` holds the unit eigenvectors as
    columns, matching the order of ``omegas`` (ascending curvature).
    """

    omegas: tuple[float, float, float]
    axes: np.ndarray
    stable: bool

    @property
    def frequencies_hz(self) -> tuple[float, float, float]:
        return tuple(w / (2.0 * np.pi) for w in self.omegas)


def _hessian(f, point: np.ndarray, h: float) -> np.ndarray:
    """3x3 Hessian by central differences with step ``h``."""
    H = np.empty((3, 3))
    f0 = f(point)
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = h
        H[i, i] = (f(point + ei) - 2.0 * f0 + f(point - ei)) / h**2
        for j in range(i + 1, 3):
            ej = np.zeros(3)
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(point + ei + ej) - f(point + ei - ej) - f(point - ei + ej) + f(point - ei - ej)
            ) / (4.0 * h**2)
    return H


def secular_frequencies(
    geometry: TrapGeometry,
    ion: IonSpecies,
    drive: DriveParams,
    dc_voltages: dict,
    point,
    step: float = 10e-9,
) -> SecularModes:
    """Secular modes from the curvature of the total potential at ``point``.

    The Hessian of ``pseudopotential + q * phi_dc`` is taken by central
    differences at steps ``step`` and ``step/2`` and Richardson-combined,
    then diagonalized; ``omega_i = sqrt(lambda_i / m)`` with the sign
    convention described on :class:`SecularModes`.
    """
    pt = np.asarray(point, dtype=float).reshape(3)

    def u(p):
        return total_potential(geometry, ion, drive, dc_voltages, p)

    coarse = _hessian(u, pt, step)
    fine = _hessian(u, pt, step / 2.0)
    H = (4.0 * fine - coarse) / 3.0

    lam, vec = np.linalg.eigh(H)
    omegas = tuple(np.sign(l) * np.sqrt(abs(l) / ion.mass) for l in lam)
    return SecularModes(omegas=omegas, axes=vec, stable=bool(np.all(lam > 0)))
