"""Resistance thermometry: integral oracle, fits, inversion, presets.

The Bloch-Gruneisen integral

    J(u) = integral_0^u x^5 / ((e^x - 1)(1 - e^-x)) dx

is cross-checked against a composite-midpoint quadrature on a million
panels, which is independent of the adaptive scheme used by the library.
"""

import numpy as np
import pytest

from trapqa import thermometry
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


@pytest.mark.parametrize("resolution", [0.0, -1.0, np.nan])
def test_invert_refuses_nonpositive_meter_resolution(resolution):
    model = SENSOR_PRESETS["TS1"]
    with pytest.raises(ValueError, match="meter_resolution must be above zero"):
        invert_temperature(model, model_resistance(model, 12.0), meter_resolution=resolution)


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


def test_fit_respects_theta_bounds():
    lo, hi = THETA_BOUNDS
    assert lo < 150.0 < hi
    truth = RTModel(r_res=100.0, amplitude=5000.0, theta=200.0)
    ts = np.linspace(4.0, 300.0, 30)
    fit = fit_rt_curve(ts, model_resistance(truth, ts))
    assert lo <= fit.model.theta <= hi


@pytest.mark.parametrize("t_bad", [0.0, -4.0])
def test_fit_refuses_nonpositive_temperature(t_bad):
    ts = np.array([t_bad, 77.0, 150.0, 295.0])
    with pytest.raises(ValueError, match="temperature must be positive"):
        fit_rt_curve(ts, np.array([2000.1, 2400.5, 3900.2, 6800.9]))


def _quad_bg(u):
    """J(u) by scipy's quad on the scalar integrand: the reference for the port."""
    from scipy import integrate

    with np.errstate(over="ignore"):
        return integrate.quad(
            lambda x: x**5 / ((np.exp(x) - 1.0) * (1.0 - np.exp(-x))), 0.0, u,
            limit=200, epsabs=0.0, epsrel=1e-11,
        )[0]


def _reference_fit(ts, rs):
    """Scalar reference: the fit as it ran with one ``quad`` call per
    temperature, per residual evaluation."""
    from scipy import optimize

    theta0, r_res0 = 300.0, float(np.min(rs))
    bg_hi = (ts.max() / theta0) ** 5 * _quad_bg(theta0 / ts.max())
    a0 = max((float(np.max(rs)) - r_res0) / bg_hi, 1e-6)

    def residuals(p):
        m = RTModel(r_res=max(p[0], 0.0), amplitude=max(p[1], 1e-12), theta=p[2])
        return np.array([m.r_res + m.amplitude * (t / m.theta) ** 5 * _quad_bg(m.theta / t) for t in ts]) - rs

    res = optimize.least_squares(
        residuals,
        x0=[r_res0, a0, theta0],
        bounds=([0.0, 1e-12, THETA_BOUNDS[0]], [np.inf, np.inf, THETA_BOUNDS[1]]),
        xtol=1e-12,
        ftol=1e-12,
    )
    chi2 = float(np.sum(res.fun**2))
    return res, chi2, np.linalg.inv(res.jac.T @ res.jac) * chi2 / (len(ts) - 3)


def test_fit_computes_each_integral_once_per_theta(monkeypatch, rng):
    truth = RTModel(r_res=2000.0, amplitude=5100.0, theta=180.0)
    ts = np.logspace(np.log10(2.0), np.log10(300.0), 40)
    rs = model_resistance(truth, ts) * (1.0 + 1e-3 * rng.standard_normal(len(ts)))
    ref, chi2, cov = _reference_fit(ts, rs)

    seen = []
    real = thermometry._bg_integrals
    monkeypatch.setattr(
        thermometry, "_bg_integrals", lambda us, ts=None: seen.append(list(us)) or real(us, ts)
    )
    fit = fit_rt_curve(ts, rs)
    # after the start value, no integral is computed twice; the scalar path
    # repeats every one for each of the two Jacobian columns at fixed theta
    flat = [u for batch in seen[1:] for u in batch]
    assert len(flat) == len(set(flat)) > 0
    # each theta integrates every temperature in one batch
    assert [len(batch) for batch in seen] == [1] + [len(ts)] * (len(seen) - 1)
    assert (fit.model.r_res, fit.model.amplitude, fit.model.theta) == tuple(ref.x)
    assert fit.chi2 == chi2
    assert np.array_equal(fit.covariance, cov)
    # the solver's own account of how it ended is passed through
    assert (fit.status, fit.nfev) == (ref.status, ref.nfev)
    assert 1 <= fit.status <= 4 and fit.nfev > 0
