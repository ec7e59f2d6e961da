import re
import warnings

import numpy as np
import pytest

from trapqa.dissipation import (
    APPROX_VALIDITY_LIMIT,
    DEFAULT_DRIVE_OMEGA,
    DEFAULT_DRIVE_V0,
    TRAP_PRESETS,
    CircuitModel,
    conductance,
    dissipation_report,
    distributed_ohmic_power,
    impedance,
    power_approx,
    power_exact,
)

# Rounded reference powers (mW) for the three builds at 160 V / 22 MHz:
# (p_ohmic_300, p_ohmic_10, p_diel, total_300, total_10)
REFERENCE_MW = {
    "si_partial_shield": (190.0, 20.0, 50.0, 240.0, 70.0),
    "si_full_shield": (430.0, 45.0, 74.0, 504.0, 119.0),
    "fused_silica": (13.0, 0.3, 21.0, 34.0, 21.3),
}


def _rows_by_key():
    return {(r.name, r.temperature): r for r in dissipation_report()}


def test_reference_power_table():
    rows = _rows_by_key()
    for name, (po300, po10, pd, tot300, tot10) in REFERENCE_MW.items():
        r300 = rows[(name, 300.0)]
        r10 = rows[(name, 10.0)]
        assert r300.p_ohmic * 1e3 == pytest.approx(po300, rel=0.05)
        assert r10.p_ohmic * 1e3 == pytest.approx(po10, rel=0.05)
        assert r300.p_diel * 1e3 == pytest.approx(pd, rel=0.05)
        assert r10.p_diel * 1e3 == pytest.approx(pd, rel=0.05)
        assert r300.p_total * 1e3 == pytest.approx(tot300, rel=0.05)
        assert r10.p_total * 1e3 == pytest.approx(tot10, rel=0.05)


def test_split_matches_exact_network():
    # the small-loss split should agree with the exact R/3 network to < 0.1%
    for preset in TRAP_PRESETS:
        for temperature in (300.0, 10.0):
            model = preset.circuit(temperature)
            p_ohm, p_diel = power_approx(model, DEFAULT_DRIVE_V0, DEFAULT_DRIVE_OMEGA)
            effective = CircuitModel(
                resistance=model.resistance / 3.0,
                capacitance=model.capacitance,
                tan_delta=model.tan_delta,
            )
            exact = power_exact(effective, DEFAULT_DRIVE_V0, DEFAULT_DRIVE_OMEGA)
            assert abs(exact - (p_ohm + p_diel)) / exact < 1e-3


def test_distributed_power_against_quadrature():
    # P = integral over the line of R' I(x)^2 with I = I0 (1 - x/L)
    resistance, i0, length = 3.0, 1.7, 0.049
    n = 1_000_000
    x = (np.arange(n) + 0.5) * (length / n)  # midpoint rule
    r_per_len = resistance / length
    p_num = np.sum(r_per_len * (i0 * (1.0 - x / length)) ** 2) * (length / n)
    assert distributed_ohmic_power(resistance, i0) == pytest.approx(p_num, rel=1e-10)


def test_power_exact_uses_resistance_as_given():
    m = CircuitModel(resistance=3.0, capacitance=28e-12, tan_delta=0.0)
    z = impedance(m, DEFAULT_DRIVE_OMEGA)
    assert power_exact(m, 160.0, DEFAULT_DRIVE_OMEGA) == pytest.approx(
        0.5 * 160.0**2 * (1 / z).real
    )


def test_conductance_formula():
    assert conductance(28e-12, 2 * np.pi * 22e6, 1e-3) == pytest.approx(
        2 * np.pi * 22e6 * 28e-12 * 1e-3
    )


def test_validity_warning():
    omega = 2 * np.pi * 22e6
    c = 28e-12
    # pick R so that C R omega is just above the advertised limit
    r_bad = 1.5 * APPROX_VALIDITY_LIMIT / (c * omega)
    with pytest.warns(UserWarning, match="small-loss"):
        power_approx(CircuitModel(resistance=r_bad, capacitance=c, tan_delta=1e-3), 160.0, omega)


def test_no_warning_in_validity_range():
    import warnings

    omega = 2 * np.pi * 22e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        power_approx(CircuitModel(resistance=3.0, capacitance=28e-12, tan_delta=1e-3), 160.0, omega)


def test_dielectric_power_scales_with_tan_delta():
    omega = 2 * np.pi * 22e6
    base = power_approx(CircuitModel(resistance=1.0, capacitance=12e-12, tan_delta=1e-3), 160.0, omega)
    doubled = power_approx(CircuitModel(resistance=1.0, capacitance=12e-12, tan_delta=2e-3), 160.0, omega)
    assert doubled[1] == pytest.approx(2 * base[1], rel=1e-12)
    assert doubled[0] == pytest.approx(base[0], rel=1e-12)


@pytest.mark.parametrize("v0", [0.0, -160.0, float("nan")])
def test_report_refuses_nonpositive_drive(v0):
    # at zero drive the relative error was a ZeroDivisionError
    with pytest.raises(ValueError, match="v0 must be above zero"):
        dissipation_report(v0=v0)


@pytest.mark.parametrize(
    "v0, omega",
    [
        (DEFAULT_DRIVE_V0, 2 * np.pi * 1e306),  # omega**2 overflows
        (DEFAULT_DRIVE_V0, 2 * np.pi * 1e-294),  # the admittance underflows to 0
        (1e300, DEFAULT_DRIVE_OMEGA),  # v0 * v0 overflows to inf
    ],
    ids=["omega_huge", "omega_tiny", "v0_huge"],
)
def test_report_refuses_a_drive_without_finite_power(v0, omega):
    with pytest.raises(ValueError, match=rf"the drive v0 = {re.escape(repr(v0))} V at omega = .* not finite"):
        dissipation_report(v0=v0, omega=omega)


@pytest.mark.parametrize(
    "v0, omega",
    [(1e300, 2 * np.pi * 1e9), (1e150, 5.5e14)],
    ids=["first_row_overflows", "third_row_overflows"],
)
def test_refused_drive_does_not_warn(v0, omega):
    # the small-loss split is out of range here, on the refused row or on
    # rows before it: its warnings used to come out ahead of the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            dissipation_report(v0=v0, omega=omega)


def test_finite_drive_above_the_validity_limit_still_warns():
    with pytest.warns(UserWarning, match="small-loss") as record:
        rows = dissipation_report(omega=2 * np.pi * 1e9)
    assert len(rows) == 6
    # issued for the caller, once per out-of-range row (both at 300 K)
    assert [w.filename for w in record] == [__file__] * 2


def test_preset_rejects_other_temperatures():
    with pytest.raises(ValueError):
        TRAP_PRESETS[0].circuit(77.0)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: CircuitModel(-1.0, 1e-12, 1e-4), "resistance must be >= 0", id="resistance_negative"),
        pytest.param(lambda: CircuitModel(1.0, 0.0, 1e-4), "capacitance must be positive", id="capacitance_zero"),
        pytest.param(lambda: CircuitModel(1.0, 1e-12, -1e-4), "tan_delta must be >= 0", id="tan_delta_negative"),
        pytest.param(lambda: distributed_ohmic_power(-1.0, 0.1), "resistance must be >= 0", id="line_resistance_negative"),
    ],
)
def test_circuit_values_out_of_domain_are_refused(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
