"""Ion-position based diagnosis of DC electrode faults.

A fault hypothesis is expressed as a :class:`FaultScenario` transforming the
applied DC voltage set; the axial potential it produces is minimized to get
the predicted ion position. Comparing measured positions at several global
DC scale factors against the nominal simulation separates fault classes:

* scaling every voltage by ``s`` leaves the equilibrium of a healthy trap
  fixed (the potential just scales),
* an electrode shorted to ground also scales with everything else, so the
  position is again scale-invariant, but offset from nominal,
* an electrode stuck at a fixed voltage, or exposed charged dielectric, adds
  a term that does not scale: its displacement shrinks as 1/s, so the ion
  walks back toward the nominal position as ``s`` grows.

A floating electrode and trapped charge act identically under this probe
(a fixed potential term), so they share the class ``FLOATING_OR_CHARGE``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._solvers import _fminbound
from .electrostatics.fields import _as_points, _checked
from .electrostatics.geometry import TrapGeometry

# The bounded refine is a port of scipy's fminbound (trapqa._solvers), so
# diagnosis needs numpy alone: importing scipy.optimize would cost about
# 0.6 s per ``diagnose`` process for one scalar minimizer.

__all__ = [
    "FaultScenario",
    "PositionMeasurement",
    "EquilibriumResult",
    "scenario_voltages",
    "axial_potential",
    "equilibrium_position",
    "simulate_positions",
    "classify_fault",
    "CLASSES",
]

CLASSES = ("NOMINAL", "SHORTED", "FLOATING_OR_CHARGE", "UNCLASSIFIED")

#: Position agreement tolerance (m): two positions closer than this are
#: considered the same for classification purposes.
POSITION_TOL = 0.5e-6

#: Default equilibrium search tolerance (m).
SEARCH_TOL = 0.1e-6


@dataclass(frozen=True)
class FaultScenario:
    """A fault hypothesis applied on top of a DC voltage set.

    ``kind`` is one of ``NOMINAL``, ``SHORTED`` (electrode tied to ground),
    ``FLOATING`` (electrode stuck at ``held_voltage``), ``GAP_CHARGE``
    (exposed dielectric rectangles at an effective ``charge_voltage``; the
    rectangles are in meters and must lie in otherwise empty plane).
    """

    kind: str
    electrode: str | None = None
    held_voltage: float = 0.0
    charge_rects: tuple[tuple[float, float, float, float], ...] = ()
    charge_voltage: float = 0.0

    def __post_init__(self):
        if self.kind not in ("NOMINAL", "SHORTED", "FLOATING", "GAP_CHARGE"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind in ("SHORTED", "FLOATING") and not self.electrode:
            raise ValueError(f"{self.kind} scenario needs an electrode id")
        if self.kind == "GAP_CHARGE" and not self.charge_rects:
            raise ValueError("GAP_CHARGE scenario needs charge_rects")
        for name in ("held_voltage", "charge_voltage"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite: {getattr(self, name)!r}")


@dataclass(frozen=True)
class PositionMeasurement:
    """Measured axial ion position (m) at a global DC scale factor."""

    scale: float
    position: float


@dataclass(frozen=True)
class EquilibriumResult:
    position: float
    value: float
    at_boundary: bool


def scenario_voltages(voltages: dict, scenario: FaultScenario, scale: float) -> dict:
    """Electrode voltages under the scenario at global scale ``scale``."""
    out = {k: v * scale for k, v in voltages.items()}
    if scenario.kind == "SHORTED":
        out[scenario.electrode] = 0.0
    elif scenario.kind == "FLOATING":
        out[scenario.electrode] = scenario.held_voltage
    return out


def axial_potential(
    geometry: TrapGeometry,
    voltages: dict,
    scenario: FaultScenario,
    scale: float,
    axis: tuple[float, float] | None = None,
):
    """Callable phi(x) along the trap axis under the scenario.

    ``axis`` is the (y, z) of the line scanned; defaults to the geometry's
    ``ion_axis``. Charge rectangles contribute at their fixed effective
    voltage regardless of ``scale``. Raises ``ValueError`` when the axis is
    not finite or not above the electrode plane (z > 0); the callable raises
    it when the potential is not finite.
    """
    if axis is None:
        axis = geometry.ion_axis
    if axis is None:
        raise ValueError("geometry has no ion_axis; pass axis=(y, z)")
    y0, z0 = axis
    _as_points((0.0, y0, z0))
    volts = scenario_voltages(voltages, scenario, scale)
    rects, vals = geometry.rect_arrays(volts)
    if scenario.kind == "GAP_CHARGE" and scenario.charge_voltage != 0.0:
        extra = np.asarray(scenario.charge_rects, dtype=float).reshape(-1, 4)
        rects = np.vstack([rects, extra])
        vals = np.concatenate([vals, np.full(len(extra), scenario.charge_voltage)])

    def phi(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        pts = np.column_stack([xs, np.full_like(xs, y0), np.full_like(xs, z0)])
        out = _checked("potential", kernels.rect_potential_sum, rects, vals, pts)
        return float(out[0]) if np.isscalar(x) else out

    return phi


def equilibrium_position(potential, window: tuple[float, float], tol: float = SEARCH_TOL) -> EquilibriumResult:
    """Minimize a 1D potential: 201-point scan, then bounded golden/Brent refine.

    ``potential`` is any callable accepting a scalar or an array of axial
    positions. The result flags minima pinned at the window boundary, which
    usually means the window missed the well.
    """
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("window ends must be finite")
    if not hi > lo:
        raise ValueError("window must satisfy lo < hi")
    xs = np.linspace(lo, hi, 201)
    vals = np.atleast_1d(potential(xs))
    k = int(np.argmin(vals))
    if k == 0 or k == len(xs) - 1:
        return EquilibriumResult(position=float(xs[k]), value=float(vals[k]), at_boundary=True)
    x, fx = _fminbound(lambda x: float(potential(x)), xs[k - 1], xs[k + 1], xatol=tol)
    return EquilibriumResult(position=float(x), value=float(fx), at_boundary=False)


def simulate_positions(
    geometry: TrapGeometry,
    voltages: dict,
    scenario: FaultScenario,
    scales,
    window: tuple[float, float],
    axis: tuple[float, float] | None = None,
) -> list[PositionMeasurement]:
    """Predicted axial positions, found to ``SEARCH_TOL``, for each global scale factor.

    Raises ``ValueError`` when a minimum is pinned at a window edge: the
    window then misses the well and the edge is no position of the ion.
    """
    out = []
    for s in scales:
        phi = axial_potential(geometry, voltages, scenario, s, axis=axis)
        eq = equilibrium_position(phi, window)
        if eq.at_boundary:
            raise ValueError(
                f"scale {s:g}: the minimum is pinned at the window edge "
                f"{eq.position * 1e6:g} um; the window "
                f"[{window[0] * 1e6:g}, {window[1] * 1e6:g}] um misses the well"
            )
        out.append(PositionMeasurement(scale=float(s), position=eq.position))
    return out


def classify_fault(measured: list[PositionMeasurement], nominal: list[PositionMeasurement]) -> str:
    """Assign a fault class from scale-sweep position data.

    ``measured`` and ``nominal`` must cover the same scale factors (at least
    two); positions within ``POSITION_TOL`` agree. Decision order matters:
    nominal agreement is checked first since a healthy trap is scale-invariant.
    """
    if len(measured) < 2:
        raise ValueError("need measurements at two or more scale factors")
    meas = sorted(measured, key=lambda m: m.scale)
    nom = sorted(nominal, key=lambda m: m.scale)
    if [m.scale for m in meas] != [n.scale for n in nom]:
        raise ValueError("measured and nominal scale factors differ")

    dist = np.array([abs(m.position - n.position) for m, n in zip(meas, nom)])
    if np.all(dist <= POSITION_TOL):
        return "NOMINAL"

    positions = np.array([m.position for m in meas])
    if positions.max() - positions.min() <= POSITION_TOL:
        return "SHORTED"

    # displacement from nominal must shrink as the scale grows
    toward = np.all(np.diff(dist) <= POSITION_TOL) and (dist[0] - dist[-1]) > POSITION_TOL
    if toward:
        return "FLOATING_OR_CHARGE"
    return "UNCLASSIFIED"
