"""Resistance thermometry: integral oracle, fits, inversion, presets.

The Bloch-Gruneisen integral

    J(u) = integral_0^u x^5 / ((e^x - 1)(1 - e^-x)) dx

is cross-checked against a composite-midpoint quadrature on a million
panels, which is independent of the adaptive scheme used by the library.
"""

import numpy as np
import pytest

from trapqa.thermometry import (
    SENSOR_PRESETS,
    THETA_BOUNDS,
    RTModel,
    bg_integral,
    d_resistance_d_t,
    fit_rt_curve,
    invert_temperature,
    model_resistance,
    sensitivity,
    wafer_spread_projection,
)


def midpoint_bg(upper, n=1_000_000):
    x = (np.arange(n) + 0.5) * (upper / n)
    y = x**5 / ((np.exp(x) - 1.0) * (1.0 - np.exp(-x)))
    return float(y.sum() * (upper / n))


@pytest.mark.parametrize("upper", [0.5, 2.0, 15.0, 50.0])
def test_bg_integral_against_midpoint(upper):
    assert bg_integral(upper) == pytest.approx(midpoint_bg(upper), rel=1e-9)


def test_bg_integral_small_argument():
    # integrand ~ x^3 for small x, so J(u) ~ u^4/4
    u = 1e-3
    assert bg_integral(u) == pytest.approx(u**4 / 4, rel=1e-5)


def test_model_resistance_monotone():
    model = RTModel(r_res=100.0, amplitude=5000.0, theta=150.0)
    ts = np.linspace(2.0, 320.0, 50)
    rs = model_resistance(model, ts)
    assert np.all(np.diff(rs) > 0)
    assert rs[0] == pytest.approx(100.0, rel=1e-3)  # residual floor


def test_analytic_derivative_matches_difference():
    model = RTModel(r_res=26157.3, amplitude=12673.9, theta=150.0)
    for t in (5.0, 12.5, 77.0, 295.0):
        h = 1e-4 * t
        num = (model_resistance(model, t + h) - model_resistance(model, t - h)) / (2 * h)
        assert d_resistance_d_t(model, t) == pytest.approx(num, rel=1e-6)


def test_fit_recovers_parameters_noiseless():
    truth = RTModel(r_res=8000.0, amplitude=5100.0, theta=180.0)
    ts = np.linspace(4.0, 300.0, 40)
    rs = model_resistance(truth, ts)
    fit = fit_rt_curve(ts, rs)
    assert fit.model.r_res == pytest.approx(truth.r_res, rel=1e-3)
    assert fit.model.amplitude == pytest.approx(truth.amplitude, rel=1e-3)
    assert fit.model.theta == pytest.approx(truth.theta, rel=1e-3)


def test_fit_recovers_parameters_with_noise(rng):
    # amplitude and theta decorrelate only when the low-T phonon tail rises
    # above the multiplicative meter noise, so use a phonon-dominated truth
    truth = RTModel(r_res=2000.0, amplitude=5100.0, theta=180.0)
    ts = np.logspace(np.log10(2.0), np.log10(300.0), 120)
    rs = model_resistance(truth, ts)
    noisy = rs * (1.0 + 1e-3 * rng.standard_normal(len(ts)))
    fit = fit_rt_curve(ts, noisy, sigma=1e-3 * rs)
    assert fit.model.r_res == pytest.approx(truth.r_res, rel=0.02)
    assert fit.model.amplitude == pytest.approx(truth.amplitude, rel=0.02)
    assert fit.model.theta == pytest.approx(truth.theta, rel=0.02)


def test_fit_refuses_unconverged_solver(starved_fit):
    truth = RTModel(r_res=8000.0, amplitude=5100.0, theta=180.0)
    ts = np.linspace(4.0, 300.0, 40)
    rs = model_resistance(truth, ts)
    with pytest.raises(ValueError, match=r"status 0 after 1 evaluations"):
        fit_rt_curve(ts, rs)


def test_invert_is_identity():
    model = SENSOR_PRESETS["TS1"]
    for t in (5.0, 10.0, 12.5, 77.0, 295.0):
        r = model_resistance(model, t)
        t_back, _ = invert_temperature(model, r)
        assert t_back == pytest.approx(t, abs=1e-3)  # 1 mK


def test_invert_reports_resolution_limit():
    model = SENSOR_PRESETS["TS2"]
    r = model_resistance(model, 12.0)
    _, sigma_1 = invert_temperature(model, r, meter_resolution=1.0)
    _, sigma_01 = invert_temperature(model, r, meter_resolution=0.1)
    assert sigma_01 == pytest.approx(sigma_1 / 10, rel=1e-6)
    # ~1 ohm on a ~1 ohm/K sensor is ~1 K
    assert 0.5 < sigma_1 < 2.0


def test_invert_out_of_range_raises():
    model = SENSOR_PRESETS["TS1"]
    with pytest.raises(ValueError):
        invert_temperature(model, model.r_res * 0.5)  # below the floor
    with pytest.raises(ValueError):
        invert_temperature(model, model_resistance(model, 320.0) * 1.5)


def test_preset_sensitivities():
    # the two bundled sensors: ~2.5 and ~1.0 ohm/K in the 10-15 K window
    assert sensitivity(SENSOR_PRESETS["TS1"]) == pytest.approx(2.5, abs=0.5)
    assert sensitivity(SENSOR_PRESETS["TS2"]) == pytest.approx(1.0, abs=0.5)


def test_preset_room_temperature_resistances():
    assert model_resistance(SENSOR_PRESETS["TS1"], 295.0) == pytest.approx(32.3e3, rel=0.01)
    assert model_resistance(SENSOR_PRESETS["TS2"], 295.0) == pytest.approx(10.8e3, rel=0.01)


def test_preset_resistances_inside_test_bands():
    # the wafer-test resistance windows must accept a healthy sensor
    assert 28.9e3 <= model_resistance(SENSOR_PRESETS["TS1"], 295.0) <= 35.7e3
    assert 10.3e3 <= model_resistance(SENSOR_PRESETS["TS2"], 295.0) <= 11.3e3


def test_wafer_spread_projection():
    # relative spread carries from room to cryo: std_cryo = std_room * mean_c / mean_r
    assert wafer_spread_projection(32.3e3, 1.0e3, 26.2e3) == pytest.approx(
        1.0e3 * 26.2 / 32.3, rel=1e-12
    )


def test_fit_respects_theta_bounds():
    lo, hi = THETA_BOUNDS
    assert lo < 150.0 < hi
    truth = RTModel(r_res=100.0, amplitude=5000.0, theta=200.0)
    ts = np.linspace(4.0, 300.0, 30)
    fit = fit_rt_curve(ts, model_resistance(truth, ts))
    assert lo <= fit.model.theta <= hi
