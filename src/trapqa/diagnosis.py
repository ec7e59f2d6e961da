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

Each equilibrium is a 201-point scan of the axis and a bounded Brent refine
(Brent, *Algorithms for Minimization without Derivatives*, 1973) around the
scan's best point. :func:`simulate_positions` evaluates a scenario's scales
together. Their voltage sets drive the same rectangles (unless a voltage
scales to zero and its electrode drops out: scales are grouped by the
rectangles they drive), so one kernel call scans every scale of a group,
with one voltage row per scale (``rect_potential_sum`` with ``(K, M)``
voltages). The refine is a generator, :func:`_brent`, that
yields each point it needs and is sent the potential there, so the refines
of a group run in lockstep: one ``rect_potential_each`` call per round,
with a point and a voltage row for each scale still refining. Both kernel
forms give, for every row or point, the bits of the one-scale call, so each
position is that of :func:`equilibrium_position` on :func:`axial_potential`
at that scale alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .electrostatics.fields import _as_points, _checked, _not_finite
from .electrostatics.geometry import TrapGeometry

# The bounded refine is a port of scipy's fminbound (below), so diagnosis
# needs numpy alone: importing scipy.optimize would cost about 0.6 s per
# ``diagnose`` process for one scalar minimizer.

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
    (exposed dielectric rectangles at an effective ``charge_voltage``). The
    rectangles are ``(x1, x2, y1, y2)`` in meters, and each needs x2 > x1 and
    y2 > y1, as an electrode's do: inverted corners would flip the sign of
    the charge. Their potential is added to that of the electrodes; overlap
    with an electrode is not checked.
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
        for k, (x1, x2, y1, y2) in enumerate(self.charge_rects):
            if not (x2 > x1 and y2 > y1):
                um = ", ".join(f"{c * 1e6:g}" for c in (x1, x2, y1, y2))
                raise ValueError(f"charge rectangle {k} (x1, x2, y1, y2) = ({um}) um needs x2 > x1 and y2 > y1")
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
    rects, vals, (y0, z0) = _axial_rects(geometry, voltages, scenario, scale, axis)

    def phi(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        pts = np.column_stack([xs, np.full_like(xs, y0), np.full_like(xs, z0)])
        out = _checked("potential", kernels.rect_potential_sum, rects, vals, pts)
        return float(out[0]) if np.isscalar(x) else out

    return phi


def _axial_rects(geometry, voltages, scenario, scale, axis):
    """The rectangles (M, 4) and voltages (M,) that drive the axial
    potential of :func:`axial_potential`, and the (y, z) of its axis, with
    its refusals."""
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
    return rects, vals, (y0, z0)


def equilibrium_position(potential, window: tuple[float, float], tol: float = SEARCH_TOL) -> EquilibriumResult:
    """Minimize a 1D potential: 201-point scan, then bounded golden/Brent refine.

    ``potential`` is any callable accepting a scalar or an array of axial
    positions. The result flags minima pinned at the window boundary, which
    usually means the window missed the well. ``tol`` (m), the refine's
    absolute tolerance, must be finite and above zero.
    """
    xs = _scan_points(window)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and above zero, not {tol!r}")
    vals = np.atleast_1d(potential(xs))
    k = int(np.argmin(vals))
    if k == 0 or k == len(xs) - 1:
        return EquilibriumResult(position=float(xs[k]), value=float(vals[k]), at_boundary=True)
    x, fx = _fminbound(lambda x: float(potential(x)), xs[k - 1], xs[k + 1], xatol=tol)
    return EquilibriumResult(position=float(x), value=float(fx), at_boundary=False)


def _scan_points(window):
    """The 201 scan points of ``window``, which must be finite with lo < hi."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("window ends must be finite")
    if not hi > lo:
        raise ValueError("window must satisfy lo < hi")
    return np.linspace(lo, hi, 201)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_MAXFUN = 500  # scipy's default evaluation cap (its maxiter)


def _fminbound(func, lo, hi, xatol: float):
    """Bounded scalar minimization of ``func``, which takes and returns a
    float: :func:`_brent` driven one evaluation at a time, returning
    ``(x, func(x))`` at the best point found."""
    run = _brent(lo, hi, xatol)
    x = next(run)
    while True:
        fx = func(x)
        try:
            x = run.send(fx)
        except StopIteration as done:
            return done.value


def _brent(lo, hi, xatol: float):
    """Brent's golden-section search with parabolic steps on [lo, hi], as a
    generator: it yields each x it evaluates, is sent f(x), and returns
    ``(x, f(x))`` at the best point found.

    A port of ``scipy.optimize.minimize_scalar(method="bounded")``
    (``_minimize_scalar_bounded``, i.e. fminbound) that performs the same
    floating-point operations in the same order, the ``sqrt(2.2e-16)`` and
    ``xatol / 3`` tolerances and the 500-evaluation cap included, so
    it returns scipy's ``x`` and ``fun`` bit for bit (tests/test_diagnosis.py
    keeps scipy as the reference).
    """
    a, b = float(lo), float(hi)
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = yield xf
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign1(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        x = xf + _sign1(rat) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf, fx


def _sign1(v: float) -> float:
    """scipy's ``np.sign(v) + (v == 0)``: +1.0 for v >= 0, -1.0 below."""
    return 1.0 if v >= 0.0 else -1.0


def simulate_positions(
    geometry: TrapGeometry,
    voltages: dict,
    scenario: FaultScenario,
    scales,
    window: tuple[float, float],
    axis: tuple[float, float] | None = None,
) -> list[PositionMeasurement]:
    """Predicted axial positions, found to ``SEARCH_TOL``, for each global scale factor.

    Raises ``ValueError`` for a scale that is not above zero, naming it, and
    when a minimum is pinned at a window edge: the window then misses the
    well and the edge is no position of the ion.

    Each position, and the first refusal met, is bit for bit that of
    ``equilibrium_position(axial_potential(geometry, voltages, scenario, s,
    axis), window)`` scale by scale, but the scales are evaluated together.
    Scales whose voltage sets drive the same rectangles (all of them, unless
    a voltage scales to zero) share one scan: one kernel call with a voltage
    row per scale. Their refines then run in lockstep, with one
    ``rect_potential_each`` call per round for the scales still refining.
    """
    # the checks that come before a scale's scan, in the order the
    # per-scale loop makes them; the scales from the first refused one on
    # are not evaluated, and its refusal is raised unless an earlier scale's
    # scan or refine fails first
    checked, rects, volts = [], {}, []
    failed = {}  # scale index: its refusal
    for s in scales:
        try:
            if not s > 0:
                raise ValueError(f"scale {s:g} is not above zero: a DC scale factor must be positive")
            r, v, (y0, z0) = _axial_rects(geometry, voltages, scenario, s, axis)
            xs = _scan_points(window)
        except ValueError as exc:
            failed[len(checked)] = exc
            break
        checked.append(s)
        volts.append(v)
        # scales whose voltages drive the same rectangles share kernel calls
        rects.setdefault(r.tobytes(), (r, []))[1].append(len(checked) - 1)

    scans = {}
    if checked:
        line = np.column_stack([xs, np.full_like(xs, y0), np.full_like(xs, z0)])
    for r, group in rects.values():
        with np.errstate(all="ignore"):
            scans.update(zip(group, kernels.rect_potential_sum(r, np.array([volts[i] for i in group]), line)))
    steps = {}  # scale index: (its refine, the x it asks for)
    for i in range(len(checked)):  # up to the first refusal: no later scale is reached
        if not np.isfinite(scans[i]).all():
            failed[i] = _not_finite("potential")
            break
        k = int(np.argmin(scans[i]))
        if k == 0 or k == len(xs) - 1:
            failed[i] = ValueError(
                f"scale {checked[i]:g}: the minimum is pinned at the window edge "
                f"{float(xs[k]) * 1e6:g} um; the window "
                f"[{window[0] * 1e6:g}, {window[1] * 1e6:g}] um misses the well"
            )
            break
        run = _brent(xs[k - 1], xs[k + 1], SEARCH_TOL)
        steps[i] = (run, next(run))

    position = {}
    while steps:  # one round: each refine still running takes one step
        for r, group in rects.values():
            live = [i for i in group if i in steps]
            if not live:
                continue
            pts = np.array([(steps[i][1], y0, z0) for i in live])
            with np.errstate(all="ignore"):
                phi = kernels.rect_potential_each(r, np.array([volts[i] for i in live]), pts)
            for i, f in zip(live, phi.tolist()):
                run = steps.pop(i)[0]
                if not math.isfinite(f):
                    failed[i] = _not_finite("potential")
                    continue
                try:
                    steps[i] = (run, run.send(f))
                except StopIteration as done:
                    position[i] = float(done.value[0])
    if failed:
        raise failed[min(failed)]
    return [PositionMeasurement(scale=float(s), position=position[i]) for i, s in enumerate(checked)]


def classify_fault(measured: list[PositionMeasurement], nominal: list[PositionMeasurement]) -> str:
    """Assign a fault class from scale-sweep position data.

    ``measured`` and ``nominal`` must cover the same scale factors (at least
    two distinct ones: a repeated scale is one probe); positions within
    ``POSITION_TOL`` agree. Decision order matters: nominal agreement is
    checked first since a healthy trap is scale-invariant.
    """
    if len({m.scale for m in measured}) < 2:
        raise ValueError("need measurements at two or more distinct scale factors")
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
