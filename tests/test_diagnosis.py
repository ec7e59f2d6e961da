"""Fault classification from axial-position scale sweeps.

Key invariants: a grounded short pins the ion to a scale-independent
position; a fixed charge (or floating electrode) produces a displacement
falling off as 1/scale; a healthy trap matches the nominal prediction at
every scale. The equilibrium solver itself is checked against analytic
minima of synthetic wells.
"""

import numpy as np
import pytest

from trapqa.diagnosis import (
    CLASSES,
    POSITION_TOL,
    FaultScenario,
    PositionMeasurement,
    axial_potential,
    classify_fault,
    equilibrium_position,
    scenario_voltages,
    simulate_positions,
)

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
