"""Fault classification from axial-position scale sweeps.

Key invariants: a grounded short pins the ion to a scale-independent
position; a fixed charge (or floating electrode) produces a displacement
falling off as 1/scale; a healthy trap matches the nominal prediction at
every scale. The equilibrium solver itself is checked against analytic
minima of synthetic wells, and its bounded refine against scipy's, which it
ports; ``simulate_positions``, which evaluates a scenario's scales together,
against the loop of one equilibrium search per scale.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from trapqa import kernels
from trapqa.diagnosis import (
    CLASSES,
    POSITION_TOL,
    SEARCH_TOL,
    EquilibriumResult,
    FaultScenario,
    PositionMeasurement,
    _fminbound,
    axial_potential,
    classify_fault,
    equilibrium_position,
    scenario_voltages,
    simulate_positions,
)
from trapqa.electrostatics import Electrode, TrapGeometry

WELL = {
    "DC17": 1.0,
    "DC18": -2.0,
    "DC19": 1.0,
    "DC52": 1.0,
    "DC53": -2.0,
    "DC54": 1.0,
}
WINDOW = (-300e-6, 300e-6)
SCALES = (1.0, 2.0, 4.0)


def test_equilibrium_on_analytic_quadratic():
    x0 = 37.25e-6
    eq = equilibrium_position(lambda x: (np.asarray(x) - x0) ** 2, WINDOW, tol=0.1e-6)
    assert not eq.at_boundary
    assert eq.position == pytest.approx(x0, abs=0.1e-6)


def test_equilibrium_flags_boundary():
    eq = equilibrium_position(lambda x: np.asarray(x) * 1.0, WINDOW)
    assert eq.at_boundary
    assert eq.position == WINDOW[0]


@pytest.mark.parametrize(
    "window", [(-math.inf, 300e-6), (-300e-6, math.inf), (math.nan, 300e-6), (-300e-6, math.nan)]
)
def test_equilibrium_refuses_non_finite_window(window):
    def potential(x):
        pytest.fail("potential evaluated on a non-finite window")

    with pytest.raises(ValueError, match="window ends must be finite"):
        equilibrium_position(potential, window)


def _scipy_bounded(func, lo, hi, xatol):
    """The scalar reference: scipy's bounded minimizer, which _fminbound ports."""
    return optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})


def _scipy_equilibrium(potential, window, tol=SEARCH_TOL, coarse=201):
    """equilibrium_position with its refine done by scipy."""
    xs = np.linspace(window[0], window[1], coarse)
    vals = np.atleast_1d(potential(xs))
    k = int(np.argmin(vals))
    if k == 0 or k == coarse - 1:
        return EquilibriumResult(position=float(xs[k]), value=float(vals[k]), at_boundary=True)
    res = _scipy_bounded(lambda x: float(potential(float(x))), xs[k - 1], xs[k + 1], tol)
    return EquilibriumResult(position=float(res.x), value=float(res.fun), at_boundary=False)


def _battery_scenario(rng):
    kind = ("NOMINAL", "SHORTED", "FLOATING", "GAP_CHARGE")[int(rng.integers(4))]
    electrode = str(rng.choice(sorted(WELL)))
    if kind == "SHORTED":
        return FaultScenario(kind=kind, electrode=electrode)
    if kind == "FLOATING":
        return FaultScenario(kind=kind, electrode=electrode, held_voltage=float(rng.uniform(-1, 1)))
    if kind == "GAP_CHARGE":
        x0 = float(rng.uniform(-80e-6, 80e-6))
        return FaultScenario(
            kind=kind,
            charge_rects=((x0, x0 + 8e-6, 40e-6, 135e-6),),
            charge_voltage=float(rng.uniform(-1, 1)),
        )
    return FaultScenario(kind=kind)


def test_equilibrium_matches_scipy_on_seeded_battery(geometry):
    # 60 seeded wells and faults at three scales: every position and value
    # is scipy's, bit for bit
    refined = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        well = {k: v * float(rng.uniform(0.8, 1.2)) for k, v in WELL.items()}
        scenario = _battery_scenario(rng)
        for s in SCALES:
            phi = axial_potential(geometry, well, scenario, s)
            eq = equilibrium_position(phi, WINDOW)
            assert eq == _scipy_equilibrium(phi, WINDOW), (seed, scenario, s)
            refined += not eq.at_boundary
    assert refined >= 150


def _synthetic(rng):
    c = float(rng.uniform(-1, 1))
    family = int(rng.integers(6))
    if family == 0:
        k = float(10 ** rng.uniform(-3, 3))
        return lambda x: k * (x - c) ** 2
    if family == 1:
        t = float(rng.uniform(-0.5, 0.5))
        return lambda x: (x - c) ** 4 + t * x
    if family == 2:
        p = float(rng.uniform(0.3, 3.0))
        return lambda x: abs(x - c) ** p
    if family == 3:
        w = float(rng.uniform(1, 40))
        return lambda x: math.cos(w * x) + 0.1 * x * x
    q = float(rng.uniform(0.01, 0.5))
    if family == 4:
        return lambda x: math.floor(abs(x - c) / q)
    return lambda x: min(abs(x - c), q)  # flat outside a narrow well: ties


def test_fminbound_matches_scipy_on_synthetic_functions():
    rng = np.random.default_rng(20260819)
    for i in range(600):
        func = _synthetic(rng)
        lo = float(rng.uniform(-2, 1))
        hi = lo + float(10 ** rng.uniform(-6, 0.5))
        xatol = float(rng.choice([0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3]))
        want = _scipy_bounded(func, lo, hi, xatol)
        assert _fminbound(func, lo, hi, xatol) == (want.x, want.fun), i


def test_fminbound_stops_at_the_evaluation_cap():
    # |x| with xatol = 0 never meets the tolerance: both stop at 500 calls
    calls = []

    def func(x):
        calls.append(x)
        return abs(x)

    want = _scipy_bounded(abs, -1.0, 2.0, 0.0)
    assert want.nfev == 500 and not want.success
    assert _fminbound(func, -1.0, 2.0, 0.0) == (want.x, want.fun)
    assert len(calls) == 500


def test_displacement_inverse_in_scale():
    # scaled harmonic well plus fixed force: x*(s) = -F / (s k), so the
    # log-log slope of |x*| vs s must be -1
    k = 2.0e6  # V/m^2 scale curvature
    f = 40.0  # V/m constant term
    scales = np.array([1.0, 2.0, 4.0, 8.0])
    positions = []
    for s in scales:
        eq = equilibrium_position(
            lambda x, s=s: 0.5 * s * k * np.asarray(x) ** 2 + f * np.asarray(x),
            WINDOW,
            tol=1e-12,
        )
        positions.append(abs(eq.position))
    slope = np.polyfit(np.log(scales), np.log(positions), 1)[0]
    assert slope == pytest.approx(-1.0, abs=1e-3)


def test_scenario_voltages():
    base = {"A": 1.0, "B": -2.0}
    assert scenario_voltages(base, FaultScenario(kind="NOMINAL"), 3.0) == {"A": 3.0, "B": -6.0}
    shorted = scenario_voltages(base, FaultScenario(kind="SHORTED", electrode="B"), 3.0)
    assert shorted == {"A": 3.0, "B": 0.0}
    floating = scenario_voltages(
        base, FaultScenario(kind="FLOATING", electrode="A", held_voltage=0.7), 2.0
    )
    assert floating == {"A": 0.7, "B": -4.0}


def test_shorted_position_scale_invariant(geometry):
    scenario = FaultScenario(kind="SHORTED", electrode="DC19")
    meas = simulate_positions(geometry, WELL, scenario, SCALES, WINDOW)
    positions = np.array([m.position for m in meas])
    assert positions.max() - positions.min() <= 0.1e-6
    # and the ion actually moved away from the nominal spot
    nominal = simulate_positions(geometry, WELL, FaultScenario(kind="NOMINAL"), SCALES, WINDOW)
    assert abs(positions[0] - nominal[0].position) > 3 * POSITION_TOL


def test_charge_displacement_shrinks_with_scale(geometry):
    scenario = FaultScenario(
        kind="GAP_CHARGE",
        charge_rects=((51.5e-6, 59.5e-6, 40e-6, 135e-6),),
        charge_voltage=-0.5,
    )
    meas = simulate_positions(geometry, WELL, scenario, SCALES, WINDOW)
    nominal = simulate_positions(geometry, WELL, FaultScenario(kind="NOMINAL"), SCALES, WINDOW)
    dist = [abs(m.position - n.position) for m, n in zip(meas, nominal)]
    assert dist[0] > dist[1] > dist[2]
    # roughly 1/s: quadruple scale cuts the displacement to about a quarter
    assert dist[2] == pytest.approx(dist[0] / 4, rel=0.2)


def test_classify_recovers_all_classes(geometry):
    nominal = simulate_positions(geometry, WELL, FaultScenario(kind="NOMINAL"), SCALES, WINDOW)

    cases = {
        "NOMINAL": FaultScenario(kind="NOMINAL"),
        "SHORTED": FaultScenario(kind="SHORTED", electrode="DC19"),
        "FLOATING_OR_CHARGE": FaultScenario(
            kind="GAP_CHARGE",
            charge_rects=((51.5e-6, 59.5e-6, 40e-6, 135e-6),),
            charge_voltage=-0.5,
        ),
    }
    for want, scenario in cases.items():
        meas = simulate_positions(geometry, WELL, scenario, SCALES, WINDOW)
        assert classify_fault(meas, nominal) == want


def test_floating_electrode_classified(geometry):
    # the displacement of a floating electrode decomposes into a fixed
    # short-like part plus a held-voltage part falling off as 1/scale; the
    # toward-nominal signature shows when the held part dominates over the
    # probed scales, e.g. a hold opposing the programmed sign
    nominal = simulate_positions(geometry, WELL, FaultScenario(kind="NOMINAL"), SCALES, WINDOW)
    scenario = FaultScenario(kind="FLOATING", electrode="DC19", held_voltage=-0.8)
    meas = simulate_positions(geometry, WELL, scenario, SCALES, WINDOW)
    assert classify_fault(meas, nominal) == "FLOATING_OR_CHARGE"


def test_floating_same_sign_hold_is_not_claimed(geometry):
    # held at a fraction of its programmed share, the electrode's offset
    # grows toward the grounded-short asymptote; that signature is outside
    # the toward-nominal rule and must not be claimed as charge
    nominal = simulate_positions(geometry, WELL, FaultScenario(kind="NOMINAL"), SCALES, WINDOW)
    scenario = FaultScenario(kind="FLOATING", electrode="DC19", held_voltage=0.8)
    meas = simulate_positions(geometry, WELL, scenario, SCALES, WINDOW)
    assert classify_fault(meas, nominal) == "UNCLASSIFIED"


def test_nominal_checked_before_shorted():
    # a healthy trap is also scale-invariant; it must not be read as a short
    nominal = [PositionMeasurement(scale=s, position=10e-6) for s in SCALES]
    measured = [PositionMeasurement(scale=s, position=10e-6) for s in SCALES]
    assert classify_fault(measured, nominal) == "NOMINAL"


def test_unclassified_for_growing_displacement():
    nominal = [PositionMeasurement(scale=s, position=0.0) for s in SCALES]
    measured = [PositionMeasurement(scale=s, position=s * 5e-6) for s in SCALES]
    assert classify_fault(measured, nominal) == "UNCLASSIFIED"


def test_classify_validates_inputs():
    nominal = [PositionMeasurement(scale=1.0, position=0.0)]
    with pytest.raises(ValueError):
        classify_fault(nominal, nominal)
    a = [PositionMeasurement(scale=s, position=0.0) for s in (1.0, 2.0)]
    b = [PositionMeasurement(scale=s, position=0.0) for s in (1.0, 3.0)]
    with pytest.raises(ValueError):
        classify_fault(a, b)


def test_classify_refuses_one_repeated_scale():
    # a scale repeated is one probe: a floating electrode used to read SHORTED
    nominal = [PositionMeasurement(scale=2.0, position=0.0)] * 2
    measured = [PositionMeasurement(scale=2.0, position=-5e-6)] * 2
    with pytest.raises(ValueError, match="two or more distinct scale factors"):
        classify_fault(measured, nominal)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
def test_simulate_positions_refuses_a_scale_not_above_zero(geometry, scale):
    # a zero or negative scale used to be refused as a window missing the well
    with pytest.raises(ValueError, match=f"scale {scale:g} is not above zero"):
        simulate_positions(geometry, WELL, FaultScenario(kind="NOMINAL"), [scale, 1.0], WINDOW)


def test_scenario_validation():
    with pytest.raises(ValueError):
        FaultScenario(kind="SHORTED")  # missing electrode
    with pytest.raises(ValueError):
        FaultScenario(kind="GAP_CHARGE")  # missing charge patch
    with pytest.raises(ValueError):
        FaultScenario(kind="NOT_A_THING")


def test_axial_potential_respects_charge(geometry):
    base = axial_potential(geometry, WELL, FaultScenario(kind="NOMINAL"), 1.0)
    charged = axial_potential(
        geometry,
        WELL,
        FaultScenario(
            kind="GAP_CHARGE",
            charge_rects=((51.5e-6, 59.5e-6, 40e-6, 135e-6),),
            charge_voltage=-0.5,
        ),
        1.0,
    )
    # the charge patch lowers the potential near its x position
    assert charged(55e-6) < base(55e-6)
    # and has negligible effect a millimeter away
    assert charged(-1000e-6) == pytest.approx(base(-1000e-6), abs=1e-4)


@pytest.mark.parametrize(
    "axis", [(42.3e-6, -124.4e-6), (42.3e-6, 0.0), (np.nan, 124.4e-6), (42.3e-6, np.inf)]
)
def test_axis_outside_half_space_is_refused(geometry, axis):
    with pytest.raises(ValueError, match="outside the half space z > 0"):
        simulate_positions(
            geometry, WELL, FaultScenario(kind="NOMINAL"), SCALES, WINDOW, axis=axis
        )


def test_class_labels_are_stable():
    assert CLASSES == ("NOMINAL", "SHORTED", "FLOATING_OR_CHARGE", "UNCLASSIFIED")


_NO_AXIS = TrapGeometry(electrodes=(Electrode("D1", "dc", ((-1e-4, 1e-4, -1e-4, 1e-4),)),))


def _gap_charge(*rects):
    return FaultScenario(kind="GAP_CHARGE", charge_rects=rects, charge_voltage=1.0)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: FaultScenario(kind="FLOATING", electrode="DC19", held_voltage=math.nan),
                     "held_voltage is not finite: nan", id="held_voltage_nan"),
        pytest.param(lambda: FaultScenario(kind="FLOATING", electrode="DC19", held_voltage=-math.inf),
                     "held_voltage is not finite: -inf", id="held_voltage_infinite"),
        pytest.param(lambda: FaultScenario(kind="GAP_CHARGE", charge_rects=((51.5e-6, 59.5e-6, 40e-6, 135e-6),),
                                           charge_voltage=math.inf),
                     "charge_voltage is not finite: inf", id="charge_voltage_infinite"),
        # inverted corners would flip the sign of the charge's potential
        pytest.param(lambda: _gap_charge((-40e-6, -60e-6, 40e-6, 140e-6)),
                     "charge rectangle 0 (x1, x2, y1, y2) = (-40, -60, 40, 140) um needs x2 > x1 and y2 > y1",
                     id="charge_rect_x_inverted"),
        pytest.param(lambda: _gap_charge((-60e-6, -40e-6, 140e-6, 40e-6)),
                     "charge rectangle 0 (x1, x2, y1, y2) = (-60, -40, 140, 40) um needs x2 > x1 and y2 > y1",
                     id="charge_rect_y_inverted"),
        pytest.param(lambda: _gap_charge((-60e-6, -40e-6, 40e-6, 140e-6), (10e-6, 10e-6, 40e-6, 140e-6)),
                     "charge rectangle 1 (x1, x2, y1, y2) = (10, 10, 40, 140) um needs x2 > x1 and y2 > y1",
                     id="charge_rect_zero_width"),
        pytest.param(lambda: _gap_charge((-60e-6, -40e-6, 40e-6, math.nan)),
                     "charge rectangle 0 (x1, x2, y1, y2) = (-60, -40, 40, nan) um needs x2 > x1 and y2 > y1",
                     id="charge_rect_nan"),
        pytest.param(lambda: axial_potential(_NO_AXIS, {}, FaultScenario(kind="NOMINAL"), 1.0),
                     "geometry has no ion_axis; pass axis=(y, z)", id="no_ion_axis"),
    ],
)
def test_scenarios_outside_the_model_are_refused(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_equilibrium_refuses_a_tolerance_not_above_zero():
    # a tol of nan or inf used to return the first golden-section point
    # unrefined: 9.763932022500201e-06 for a well at 1e-05
    for tol in (math.nan, math.inf, -math.inf, 0.0, -1e-7):
        with pytest.raises(ValueError) as exc:
            equilibrium_position(lambda x: (np.asarray(x) - 1e-5) ** 2, WINDOW, tol=tol)
        assert str(exc.value) == f"tol must be finite and above zero, not {tol!r}"


def _per_scale(geometry, voltages, scenario, scales, window, axis=None):
    """simulate_positions as the loop it replaced: one equilibrium search per
    scale, with its refusals in the loop's order."""
    out = []
    for s in scales:
        if not s > 0:
            raise ValueError(f"scale {s:g} is not above zero: a DC scale factor must be positive")
        eq = equilibrium_position(axial_potential(geometry, voltages, scenario, s, axis=axis), window)
        if eq.at_boundary:
            raise ValueError(
                f"scale {s:g}: the minimum is pinned at the window edge "
                f"{eq.position * 1e6:g} um; the window "
                f"[{window[0] * 1e6:g}, {window[1] * 1e6:g}] um misses the well"
            )
        out.append(PositionMeasurement(scale=float(s), position=eq.position))
    return out


def _outcome(simulate, *args, **kwargs):
    """The positions as (scale, float.hex) pairs, or the refusal's message."""
    try:
        return [(m.scale, m.position.hex()) for m in simulate(*args, **kwargs)]
    except ValueError as exc:
        return str(exc)


# a well voltage of 5e-324 scales to 0.0 at 0.4, where its electrode drops
# out: that scale drives another set of rectangles than the others
_TINY = {**WELL, "DC20": 5e-324}


def test_simulate_positions_is_the_per_scale_loop(geometry):
    kinds, answered = set(), 0
    for seed in range(48):
        rng = np.random.default_rng(seed)
        well = {k: v * float(rng.uniform(0.8, 1.2)) for k, v in (_TINY if seed % 3 == 0 else WELL).items()}
        scenario = _battery_scenario(rng)
        scales = [(1.0, 2.0, 4.0), (4.0, 1.0, 2.0), (2.0, 2.0, 1.0), (0.4, 1.0, 2.5, 0.4)][seed % 4]
        axis = (float(rng.uniform(30e-6, 55e-6)), float(rng.uniform(90e-6, 140e-6))) if seed % 2 else None
        args = (geometry, well, scenario, scales, WINDOW)
        got = _outcome(simulate_positions, *args, axis=axis)
        assert got == _outcome(_per_scale, *args, axis=axis), (seed, scenario, scales, axis)
        kinds.add(scenario.kind)
        answered += isinstance(got, list)
    assert kinds == {"NOMINAL", "SHORTED", "FLOATING", "GAP_CHARGE"}
    assert answered >= 40


_PINNED = (100e-6, 300e-6)  # right of the well: its minimum is the left edge
_OVERFLOW = {f"DC{k}": -1.7e308 for k in range(16, 21)}  # the potential is -inf


@pytest.mark.parametrize(
    "where, voltages, scales, window, axis, message",
    [
        ("paper", WELL, [0.0, 1.0], _PINNED, None, "scale 0 is not above zero"),
        ("paper", WELL, [math.nan, 1.0], _PINNED, None, "scale nan is not above zero"),
        ("paper", WELL, [1.0, math.nan], _PINNED, None, "scale 1: the minimum is pinned"),
        ("paper", WELL, [1.0, -2.0], _PINNED, None, "scale 1: the minimum is pinned"),
        ("paper", WELL, [1.0, 2.0, -2.0], WINDOW, None, "scale -2 is not above zero"),
        ("paper", WELL, [1.0, 1e308], WINDOW, None, "voltage of electrode 'DC18' is not finite: -inf"),
        ("paper", WELL, [1.0, 1e308], _PINNED, None, "scale 1: the minimum is pinned"),
        ("paper", _OVERFLOW, [1.0, 0.5], WINDOW, None, "the potential is not finite"),
        ("paper", WELL, [1.0, 2.0], WINDOW, (42.3e-6, -1e-6), "outside the half space z > 0"),
        ("paper", WELL, [1.0, 2.0], WINDOW, (42.3e-6, 0.0), "outside the half space z > 0"),
        ("paper", WELL, [-1.0, 2.0], WINDOW, (42.3e-6, 0.0), "scale -1 is not above zero"),
        ("no_axis", {}, [1.0, 2.0], WINDOW, None, "geometry has no ion_axis"),
        ("no_axis", {}, [0.0, 2.0], WINDOW, None, "scale 0 is not above zero"),
        ("paper", WELL, [1.0, 2.0], (-math.inf, 300e-6), None, "window ends must be finite"),
        ("paper", WELL, [1.0, 2.0], (-300e-6, math.nan), None, "window ends must be finite"),
        ("paper", WELL, [1.0, 2.0], (300e-6, -300e-6), None, "window must satisfy lo < hi"),
        ("paper", WELL, [1.0, 2.0], (1e-6, 1e-6), None, "window must satisfy lo < hi"),
        ("paper", WELL, [0.0, 2.0], (1e-6, 1e-6), None, "scale 0 is not above zero"),
    ],
    ids=[
        "zero_before_pinned", "nan_before_pinned", "nan_after_pinned", "negative_after_pinned",
        "negative_last", "voltage_overflows_later", "voltage_overflows_after_pinned", "potential_overflow",
        "axis_below_plane", "axis_on_plane", "scale_before_axis", "no_axis", "scale_before_no_axis",
        "window_infinite", "window_nan", "window_inverted", "window_empty", "scale_before_window",
    ],
)
def test_simulate_positions_refuses_as_the_per_scale_loop(geometry, where, voltages, scales, window, axis, message):
    g = geometry if where == "paper" else _NO_AXIS
    args = (g, voltages, FaultScenario(kind="NOMINAL"), scales, window)
    got = _outcome(simulate_positions, *args, axis=axis)
    assert got == _outcome(_per_scale, *args, axis=axis)
    assert isinstance(got, str) and message in got


def test_no_scales_give_no_positions():
    # as in the per-scale loop, nothing is checked: not even the axis
    assert simulate_positions(_NO_AXIS, {}, FaultScenario(kind="NOMINAL"), [], WINDOW) == []


def _record_kernels(monkeypatch):
    """Record (kernel, volts shape, number of points) per potential call."""
    calls = []
    for name in ("rect_potential_sum", "rect_potential_each"):
        real = getattr(kernels, name)

        def recorded(rects, volts, points, real=real, name=name):
            calls.append((name, np.shape(volts), len(points)))
            return real(rects, volts, points)

        monkeypatch.setattr(kernels, name, recorded)
    return calls


def _refine_evaluations(geometry, voltages, scenario, scales):
    """The refine's evaluations per scale, counted on the per-scale loop."""
    counts = []
    for s in scales:
        phi = axial_potential(geometry, voltages, scenario, s)
        points = []

        def counted(x, phi=phi, points=points):
            if np.isscalar(x):
                points.append(x)
            return phi(x)

        equilibrium_position(counted, WINDOW)
        counts.append(len(points))
    return counts


@pytest.mark.parametrize("voltages, groups", [(WELL, [[0, 1, 2]]), (_TINY, [[0, 2], [1]])])
def test_scales_share_a_scan_and_refine_in_lockstep(geometry, monkeypatch, voltages, groups):
    # the scales of one rectangle set make one 201-point scan call, then one
    # call per round with a point for each scale still refining; the scale
    # 0.4 of the 5e-324 well drives one rectangle less and runs apart
    scales = (1.0, 0.4, 2.0)
    scenario = FaultScenario(kind="GAP_CHARGE", charge_rects=((51.5e-6, 59.5e-6, 40e-6, 135e-6),), charge_voltage=-0.5)
    evals = _refine_evaluations(geometry, voltages, scenario, scales)
    assert evals == [5, 6, 6]  # the first scale's refine stops a round early
    calls = _record_kernels(monkeypatch)
    simulate_positions(geometry, voltages, scenario, scales, WINDOW)
    m = len(geometry.rect_arrays(voltages)[0]) + 1  # and the charge rectangle
    scans = [c for c in calls if c[0] == "rect_potential_sum"]
    assert scans == [("rect_potential_sum", (len(g), m - (g == [1])), 201) for g in groups]
    rounds = [c for c in calls if c[0] == "rect_potential_each"]
    want = []
    for r in range(max(evals)):
        for g in groups:
            live = sum(evals[i] > r for i in g)
            if live:
                want.append(("rect_potential_each", (live, m - (g == [1])), live))
    assert rounds == want


def test_a_refine_that_is_not_finite_is_refused(geometry, monkeypatch):
    monkeypatch.setattr(kernels, "rect_potential_each", lambda rects, volts, points: np.full(len(points), np.inf))
    with pytest.raises(ValueError, match="the potential is not finite"):
        simulate_positions(geometry, WELL, FaultScenario(kind="NOMINAL"), SCALES, WINDOW)
