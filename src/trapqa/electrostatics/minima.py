"""RF pseudopotential minima and secular mode frequencies."""

from dataclasses import dataclass

import numpy as np

from ..core import DriveParams, IonSpecies
from .fields import _rf_voltages, field_gradient_at, pseudopotential
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


# Batched Newton search for the RF nulls, on the analytic field gradient.
_GRID = 11  # seeds per side of the lattice
_STEP_TOL = 1e-12  # converged once the step is below this / height
_MAX_ITER = 60
_STALL_ITER = 8  # a seed retires after this many iterations without a new least residual
_DEDUP_TOL = 1e-6  # m: nulls this close in y and in z are one null


def _newton_nulls(geometry, x, window):
    """Converged zeros of (E_y, E_z) from a ``_GRID x _GRID`` lattice of seeds.

    All active seeds advance together: one ``field_gradient_at`` call per
    iteration gives each seed's residual and its Jacobian ``dE_(y,z)/d(y,z)``,
    and one batched solve gives every Newton step. A step is scaled down so
    that it at most halves the seed's height, so no evaluated point reaches
    z <= 0. A seed retires when its step is below the tolerance (converged),
    when its residual |(E_y, E_z)| has not reached a new least value for
    ``_STALL_ITER`` iterations in a row, when it moves beside or above the
    window by more than the window's own size, or when its Jacobian is
    singular or its step not finite.
    Returns the converged (y, z) in seed order, y outer and z inner, and the
    number of seeds still active when the iteration limit ended the search.
    """
    (y_lo, y_hi), (z_lo, z_hi) = window
    dy, dz = y_hi - y_lo, z_hi - z_lo
    unit_volts = _rf_voltages(geometry, 1.0)
    ys, zs = np.meshgrid(np.linspace(y_lo, y_hi, _GRID), np.linspace(z_lo, z_hi, _GRID), indexing="ij")
    yz = np.column_stack([ys.ravel(), zs.ravel()])
    converged = np.zeros(len(yz), dtype=bool)
    least = np.full(len(yz), np.inf)  # least residual so far, per seed
    stalled = np.zeros(len(yz), dtype=int)  # iterations since it was reached
    active = np.arange(len(yz))

    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        p = yz[active]
        e, grad = field_gradient_at(geometry, unit_volts, np.column_stack([np.full(len(p), x), p]))
        e, jac = e[:, 1:], grad[:, 1:, 1:]  # jac[k, i, j] = d E_i / d (y, z)_j

        res = np.hypot(e[:, 0], e[:, 1])
        better = res < least[active]
        least[active[better]] = res[better]
        stalled[active] = np.where(better, 0, stalled[active] + 1)
        ok = stalled[active] < _STALL_ITER

        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        scale = np.abs(jac[:, 0, 0] * jac[:, 1, 1]) + np.abs(jac[:, 0, 1] * jac[:, 1, 0])
        ok &= np.isfinite(det) & (np.abs(det) > 1e-12 * scale)
        active, p = active[ok], p[ok]
        step = -np.linalg.solve(jac[ok], e[ok][:, :, None])[:, :, 0]
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

    return [tuple(q) for q in yz[converged]], active.size


def find_rf_minima(
    geometry: TrapGeometry,
    ion: IonSpecies,
    drive: DriveParams,
    window: tuple[tuple[float, float], tuple[float, float]],
    x: float = 0.0,
) -> list[TrapMinimum]:
    """Locate RF nulls in the transverse (y, z) plane at fixed ``x``.

    Seeds a ``_GRID x _GRID`` (11 x 11) lattice over ``window = ((y_lo, y_hi),
    (z_lo, z_hi))`` and solves E_y = E_z = 0 of the unit-volt RF field from
    all seeds at once by a damped Newton iteration: one evaluation of the
    field and its analytic gradient per iteration covers every active seed,
    and every evaluated point stays above the electrode plane. Seeds that do
    not converge (singular Jacobian, residual stalled for ``_STALL_ITER``
    iterations, leaving the window far behind, iteration limit) are dropped;
    a window where no seed converges gives ``[]``, unless seeds were still
    active at the iteration limit: that search was cut short, not empty, and
    raises ``ValueError``. Converged nulls inside the window are
    deduplicated within ``_DEDUP_TOL`` (1 um) and kept when the transverse
    curvature of the pseudopotential,
    ``q^2 / (2 m Omega^2) (G^T G)`` at a null with ``G`` the gradient of the
    RF field, is positive definite; they are returned sorted by y.

    For an RF-only drive the pseudopotential is q^2 |E|^2 / (4 m Omega^2),
    so its minima with zero value are exactly the nulls of E; minima at
    nonzero pseudopotential (which a pure-RF surface layout does not produce
    in practice) are not searched for.
    """
    (y_lo, y_hi), (z_lo, z_hi) = window
    if not (y_hi > y_lo and z_hi > z_lo and z_lo > 0):
        raise ValueError("window must be (y_lo < y_hi, 0 < z_lo < z_hi)")

    found = []
    converged, unfinished = _newton_nulls(geometry, x, window)
    for y0, z0 in converged:
        if not (y_lo - _DEDUP_TOL <= y0 <= y_hi + _DEDUP_TOL):
            continue
        if not (z_lo - _DEDUP_TOL <= z0 <= z_hi + _DEDUP_TOL):
            continue
        if any(abs(y0 - fy) < _DEDUP_TOL and abs(z0 - fz) < _DEDUP_TOL for fy, fz in found):
            continue
        found.append((y0, z0))

    if not found:
        if unfinished:
            raise ValueError(
                f"the RF null search found no null, with {unfinished} seeds still active "
                f"after {_MAX_ITER} iterations"
            )
        return []
    nulls = np.array([[x, y0, z0] for y0, z0 in found])
    e, grad = field_gradient_at(geometry, _rf_voltages(geometry, drive.v0), nulls)
    c = ion.charge**2 / (4.0 * ion.mass * drive.omega**2)
    psi = c * np.einsum("ij,ij->i", e, e)
    # at a null E = 0, so Hess(psi) = 2c G^T G: confirm a transverse minimum
    hess = 2.0 * c * np.einsum("nki,nkj->nij", grad, grad)[:, 1:, 1:]
    keep = np.linalg.eigvalsh(hess)[:, 0] > 0
    nulls, psi = nulls[keep], psi[keep]

    # escape barrier along the vertical ray above each null, 400 points each
    zs = np.linspace(nulls[:, 2], z_hi, 400, axis=1)
    rays = np.stack([np.full_like(zs, x), np.broadcast_to(nulls[:, 1:2], zs.shape), zs], axis=2)
    psi_ray = pseudopotential(geometry, ion, drive, rays.reshape(-1, 3)).reshape(zs.shape)
    minima = [
        TrapMinimum(
            position=(x, float(y0), float(z0)),
            height=float(z0),
            psi_min=float(p0),
            depth=float(np.max(ray) - p0),
        )
        for (_, y0, z0), p0, ray in zip(nulls, psi, psi_ray)
    ]
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


_STEP_FRACTION = 1e-3  # largest difference step / height in secular_frequencies


def secular_frequencies(
    geometry: TrapGeometry,
    ion: IonSpecies,
    drive: DriveParams,
    dc_voltages: dict,
    point,
    step: float = 10e-9,
) -> SecularModes:
    """Secular modes from the curvature of the total potential at ``point``.

    With ``E`` the RF field at amplitude ``drive.v0``, ``G = grad E`` and
    ``c = q^2 / (4 m Omega^2)``, the pseudopotential ``c |E|^2`` has the
    Hessian ``2c (G^T G + sym(sum_k E_k grad grad E_k))``, and ``q phi_dc``
    adds ``-q G_dc`` (Wineland et al., J. Res. NIST 103, 259 (1998)). ``G``
    and ``G_dc`` are analytic; ``grad grad E_k``, which vanishes from the
    sum at an RF null, is the central difference of ``G`` at ``+-h`` along
    each axis, ``h = min(step, 1e-3 z)`` so every evaluated point stays above
    the plane. That is one kernel call, plus one for ``dc_voltages`` when
    there are any. The Hessian is diagonalized and
    ``omega_i = sqrt(lambda_i / m)`` with the sign convention described on
    :class:`SecularModes`.
    """
    pt = np.asarray(point, dtype=float).reshape(3)
    h = min(step, _STEP_FRACTION * pt[2])
    # the point itself goes first, so a point outside the half space is
    # refused by its own coordinates
    offsets = h * np.vstack([np.zeros(3), np.eye(3), -np.eye(3)])
    e, grad = field_gradient_at(geometry, _rf_voltages(geometry, drive.v0), pt + offsets)
    # curv[i, k, j] = d^2 E_k / dx_i dx_j
    curv = (grad[1:4] - grad[4:7]) / (2.0 * h)
    t = np.einsum("k,ikj->ij", e[0], curv)
    c = ion.charge**2 / (4.0 * ion.mass * drive.omega**2)
    H = 2.0 * c * (grad[0].T @ grad[0] + 0.5 * (t + t.T))
    if dc_voltages:
        H -= ion.charge * field_gradient_at(geometry, dc_voltages, pt)[1]

    lam, vec = np.linalg.eigh(H)
    omegas = tuple(np.sign(l) * np.sqrt(abs(l) / ion.mass) for l in lam)
    return SecularModes(omegas=omegas, axes=vec, stable=bool(np.all(lam > 0)))
