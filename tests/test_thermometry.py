"""Resistance thermometry: integral oracle, fits, inversion, presets.

The Bloch-Gruneisen integral

    J(u) = integral_0^u x^5 / ((e^x - 1)(1 - e^-x)) dx

is cross-checked against a composite-midpoint quadrature on a million
panels, which is independent of the adaptive scheme used by the library.
"""

import re

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


def test_bg_integral_refuses_a_negative_upper_limit():
    # J is even: J(-2) = J(2) = 3.23, where 0.0 used to be returned
    with pytest.raises(ValueError) as exc:
        bg_integral(-2.0)
    assert str(exc.value) == "upper limit must be finite and not below zero, got -2.0"
    assert bg_integral(0.0) == 0.0


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


# float.hex of dR/dT for TS1 at T = Theta/u, frozen while J'(u) was still
# replaced by 0 for u >= 700: there u J'(u) < 1e-280 is lost against 5 J(u)
_SLOPE_PINS = {
    690.0: "0x1.f206baf67018dp-23",
    699.5: "0x1.d78476b0b4631p-23",
    699.999: "0x1.d62ca3b2b1253p-23",
    700.0: "0x1.d62bf39f43465p-23",
    700.001: "0x1.d62b438c27d3dp-23",
    703.3: "0x1.cd68bb46399ebp-23",
    709.7: "0x1.bcfd383ad7216p-23",
    709.8: "0x1.bcbd095270a19p-23",
    710.0: "0x1.bc3cce35160a3p-23",
    750.0: "0x1.64c853c6069a1p-23",
    1e3: "0x1.c38d8a06a05adp-25",
    1e4: "0x1.71e9810b92848p-38",
    1e5: "0x1.2f0832032e19dp-51",
}


@pytest.mark.filterwarnings("ignore::trapqa._solvers.IntegrationWarning")
@pytest.mark.parametrize("u", list(_SLOPE_PINS))
def test_slope_keeps_its_bits_where_the_integrand_underflows(u):
    model = SENSOR_PRESETS["TS1"]
    assert d_resistance_d_t(model, model.theta / u).hex() == _SLOPE_PINS[u]


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
    with pytest.raises(ValueError) as exc:
        invert_temperature(model, model_resistance(model, 12.0), meter_resolution=resolution)
    assert str(exc.value) == f"meter_resolution must be finite and above zero, got {resolution!r}"


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
    with pytest.raises(ValueError) as exc:
        fit_rt_curve(ts, np.array([2000.1, 2400.5, 3900.2, 6800.9]))
    assert str(exc.value) == f"temperature must be finite and above zero, got {t_bad!r}"


@pytest.mark.parametrize("sigma", [[5.0], [5.0] * 3, 5.0], ids=["one", "three", "scalar"])
def test_fit_refuses_sigma_of_another_shape(sigma):
    ts = np.linspace(4.0, 300.0, 20)
    rs = model_resistance(RTModel(r_res=2000.0, amplitude=5100.0, theta=180.0), ts)
    with pytest.raises(ValueError, match=r"sigma has shape .*, the data \(20,\)"):
        fit_rt_curve(ts, rs, sigma=sigma)


@pytest.mark.parametrize("ts", [[10.0] * 4, [10.0, 20.0, 10.0, 20.0]], ids=["one", "two"])
def test_fit_refuses_fewer_temperatures_than_parameters(ts):
    # one temperature used to return the start value as a converged fit
    with pytest.raises(ValueError, match=f"at least 3 distinct temperatures, one per model parameter, got {len(set(ts))}"):
        fit_rt_curve(ts, [2000.0, 2001.0, 2002.0, 2003.0])


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


@pytest.mark.parametrize("r_bad", [0.0, -100.0, np.nan])
def test_fit_refuses_a_resistance_not_above_zero(r_bad):
    # a negative one used to stop in least_squares' "Initial guess is outside
    # of provided bounds"
    with pytest.raises(ValueError) as exc:
        fit_rt_curve([10.0, 20.0, 30.0, 40.0], [100.0, r_bad, 105.0, 110.0])
    assert str(exc.value) == f"resistance at 20.0 K must be finite and above zero, got {r_bad!r}"


@pytest.mark.parametrize("s_bad", [0.0, -2.0])
def test_fit_names_a_sigma_not_above_zero(s_bad):
    # it used to say "sigma values must be positive", naming no row
    with pytest.raises(ValueError) as exc:
        fit_rt_curve([10.0, 20.0, 30.0, 40.0], [100.0, 101.0, 105.0, 110.0], sigma=[1.0, 1.0, s_bad, -1.0])
    assert str(exc.value) == f"sigma at 30.0 K must be finite and above zero, got {s_bad!r}"


@pytest.mark.parametrize(
    "rs, sigma", [([100.0] * 4, None), ([100.0, 101.0, 105.0, 110.0], [1e150] * 4)], ids=["flat", "huge_sigma"]
)
def test_fit_refuses_a_theta_never_estimated(rs, sigma):
    # both used to come back converged with Theta at its start value, 300.0;
    # the huge sigma's weight, 1e-300, is finite and above zero
    with pytest.raises(ValueError, match=r"did not estimate Theta: it is still its start value 300\.0 K"):
        fit_rt_curve([10.0, 20.0, 30.0, 40.0], rs, sigma=sigma)


@pytest.mark.parametrize("theta, bound", [(900.0, 600.0), (60.0, 100.0)])
def test_fit_refuses_a_theta_pinned_at_a_bound(theta, bound):
    # noiseless curves whose Theta lies outside THETA_BOUNDS used to come back
    # converged, at 599.9999999999999 and 100.00000000000001
    ts = np.linspace(10.0, 300.0, 40)
    rs = model_resistance(RTModel(r_res=100.0, amplitude=1000.0, theta=theta), ts)
    with pytest.raises(ValueError, match=rf"Theta \S+ K pinned at its bound {bound!r} K"):
        fit_rt_curve(ts, rs)


@pytest.mark.parametrize(
    "sigma, weight", [([1e-320] + [1.0] * 9, "inf"), ([1e300] * 10, "0.0")], ids=["weight_inf", "weights_zero"]
)
def test_fit_refuses_weights_not_finite_and_above_zero(sigma, weight):
    # 1e-320 used to overflow the residuals and stop in least_squares with
    # "Residuals are not finite in the initial point"
    ts = np.linspace(10.0, 300.0, 10)
    rs = model_resistance(SENSOR_PRESETS["TS1"], ts)
    message = f"sigma {sigma[0]!r} gives the weight 1/sigma**2 = {weight}; it must be finite and above zero"
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_rt_curve(ts, rs, sigma=sigma)


_MODEL = RTModel(10.0, 1000.0, 200.0)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: RTModel(-1.0, 1000.0, 200.0), "r_res must be finite and not below zero, got -1.0",
                     id="r_res_negative"),
        pytest.param(lambda: RTModel(10.0, 0.0, 200.0), "amplitude must be finite and above zero, got 0.0",
                     id="amplitude_zero"),
        pytest.param(lambda: RTModel(10.0, 1000.0, 0.0), "theta must be finite and above zero, got 0.0",
                     id="theta_zero"),
        pytest.param(lambda: model_resistance(_MODEL, 0.0), "temperature must be finite and above zero, got 0.0",
                     id="model_at_zero"),
        pytest.param(lambda: model_resistance(_MODEL, [4.0, -1.0]),
                     "temperature must be finite and above zero, got -1.0",
                     id="model_one_negative"),
        pytest.param(lambda: d_resistance_d_t(_MODEL, 0.0), "temperature must be finite and above zero, got 0.0",
                     id="slope_at_zero"),
        pytest.param(lambda: d_resistance_d_t(_MODEL, -4.0), "temperature must be finite and above zero, got -4.0",
                     id="slope_negative"),
        pytest.param(lambda: fit_rt_curve([10.0, 20.0, 30.0], [11.0, 12.0, 13.0]),
                     "need matching 1D arrays with at least 4 points", id="fit_three_points"),
        pytest.param(lambda: fit_rt_curve([10.0, 20.0, 30.0, 40.0], [11.0, 12.0, 13.0]),
                     "need matching 1D arrays with at least 4 points", id="fit_lengths_differ"),
        pytest.param(lambda: fit_rt_curve([[10.0, 20.0], [30.0, 40.0]], [[11.0, 12.0], [13.0, 14.0]]),
                     "need matching 1D arrays with at least 4 points", id="fit_two_dimensional"),
        pytest.param(lambda: fit_rt_curve([10.0, 20.0, 30.0, 40.0], [11.0, 12.0, 13.0, 14.0], [1.0, 1.0, 1.0]),
                     "sigma has shape (3,), the data (4,)", id="fit_sigma_short"),
    ],
)
def test_model_and_fit_refuse_out_of_domain_input(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
