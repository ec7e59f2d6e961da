"""The scipy ports in trapqa._solvers, with scipy kept as the reference.

``bg_integral`` must return ``scipy.integrate.quad``'s value bit for bit,
and warn exactly where quad warns, over the whole range of upper limits a
temperature can give; a batch must return what one-at-a-time integrals
return; ``_brentq`` must return ``scipy.optimize.brentq``'s root bit for bit
and refuse what it refuses; ``_least_squares`` must return the fields of
``scipy.optimize.least_squares``' result that the R(T) fit reads, bit for
bit, and refuse what it refuses. The batteries are the guards for the numpy
details the ports rely on (``np.exp`` on an array equal to scalar calls,
``numpy.linalg.svd`` equal to ``scipy.linalg.svd``), so keep them large.
"""

import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy import integrate, linalg, optimize

from trapqa import _solvers, thermometry
from trapqa._solvers import IntegrationWarning, _brentq, _least_squares, _qags
from trapqa.thermometry import (
    SENSOR_PRESETS,
    THETA_BOUNDS,
    RTModel,
    bg_integral,
    fit_rt_curve,
    invert_temperature,
    model_resistance,
    sensitivity,
)


def _scalar_integrand(x):
    """The integrand as quad's scalar callbacks evaluated it before the port."""
    return x**5 / ((np.exp(x) - 1.0) * (1.0 - np.exp(-x)))


def _quad(u):
    """quad's J(u) and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="ignore"):
        warnings.simplefilter("always")
        val = integrate.quad(_scalar_integrand, 0.0, u, limit=200, epsabs=0.0, epsrel=1e-11)[0]
    return val, [str(w.message) for w in caught]


def _port(u):
    """bg_integral's J(u) and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = bg_integral(u)
    assert all(w.category is IntegrationWarning for w in caught)
    return val, [str(w.message) for w in caught]


_RNG = np.random.default_rng(20261020)
# about 1 to 7 subintervals; past 320 the exponential tail; past ~7e4 the
# epsilon algorithm (dqelg) decides the result
BATTERY = {
    "low": _RNG.uniform(0.01, 320.0, 1500).tolist(),
    "tail": _RNG.uniform(320.0, 1e4, 500).tolist(),
    "extrapolated": np.exp(_RNG.uniform(math.log(1e4), math.log(1e6), 500)).tolist(),
    "edges": [320.0, 700.0, 709.5, 710.0, 7e4, 1e5, 1e6, 1e10],
}


@pytest.mark.parametrize("band", list(BATTERY))
def test_bg_integral_is_quad_bit_for_bit(band):
    for u in BATTERY[band]:
        assert _port(u) == _quad(u), u


def test_bg_integral_warns_where_quad_warns():
    # quad flags 1e5 (roundoff in the extrapolation table); 800 needs no word,
    # though e^x overflows at its upper abscissae
    assert _port(800.0)[1] == [] == _quad(800.0)[1]
    assert len(_port(1e5)[1]) == 1 and _port(1e5) == _quad(1e5)


def test_batch_equals_one_at_a_time():
    us = [u for band in BATTERY.values() for u in band[:150]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        batch = _qags(thermometry._bg_integrand, 0.0, us, 0.0, 1e-11, 200)
        assert batch == [_qags(thermometry._bg_integrand, 0.0, [u], 0.0, 1e-11, 200)[0] for u in us]
    model = SENSOR_PRESETS["TS1"]
    ts = np.linspace(2.5, 319.0, 40)
    assert model_resistance(model, ts).tolist() == [model_resistance(model, t) for t in ts]


def test_thermometry_readouts_use_no_scipy(monkeypatch):
    # the preset path runs on the ports alone: break scipy's entry points
    def broken(*args, **kwargs):
        raise AssertionError("scipy called")

    monkeypatch.setattr(integrate, "quad", broken)
    monkeypatch.setattr(optimize, "brentq", broken)
    model = SENSOR_PRESETS["TS2"]
    assert sensitivity(model) > 0
    assert invert_temperature(model, model_resistance(model, 12.0))[0] == pytest.approx(12.0, abs=1e-3)


@pytest.mark.parametrize("upper", [1e-15, 1e-60, 1e-300, 1e62, math.inf, math.nan])
def test_bg_integral_refuses_limits_without_a_finite_integral(upper):
    with pytest.raises(ValueError, match=re.escape(f"upper limit {upper!r}: ")):
        bg_integral(upper)


@pytest.mark.parametrize("t", [1e-60, 1e300, 1e-310])
def test_resistance_refuses_temperatures_without_a_finite_model(t):
    with pytest.raises(ValueError, match=re.escape(f"temperature {t!r} K")):
        model_resistance(SENSOR_PRESETS["TS1"], t)
    ts = np.array([t, 77.0, 150.0, 295.0])
    with pytest.raises(ValueError, match=re.escape(f"temperature {t!r} K")):
        fit_rt_curve(ts, np.array([2000.1, 2400.5, 3900.2, 6800.9]))


def test_resistance_refuses_an_infinite_model():
    model = RTModel(r_res=0.0, amplitude=1e308, theta=150.0)
    with pytest.raises(ValueError, match=re.escape("temperature 1000.0 K: R(T) = inf is not finite")):
        model_resistance(model, [77.0, 1000.0])


@pytest.mark.parametrize("name", sorted(SENSOR_PRESETS))
def test_brentq_is_scipy_on_preset_readouts(name):
    model = SENSOR_PRESETS[name]
    rng = np.random.default_rng(7)
    for t in np.concatenate([[2.5, 319.0], rng.uniform(2.5, 319.0, 60)]).tolist():
        r = model_resistance(model, t)

        def f(x):
            return model_resistance(model, x) - r

        assert _brentq(f, 2.0, 320.0, xtol=1e-9) == optimize.brentq(f, 2.0, 320.0, xtol=1e-9), t


def _outcome(call):
    """A call's value, or the type and message of what it raised."""
    try:
        return call()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_brentq_is_scipy_on_synthetic_functions():
    # a flat cubic root defeats both within 100 steps at some tolerances
    rng = np.random.default_rng(11)
    for i in range(300):
        c = float(rng.uniform(-1, 1))
        k = int(rng.integers(4))
        f = [
            lambda x: x - c,
            lambda x: (x - c) ** 3,
            lambda x: math.tanh(40 * (x - c)),
            lambda x: math.exp(x) - math.exp(c),
        ][k]
        lo, hi = c - float(rng.uniform(1e-3, 2)), c + float(rng.uniform(1e-3, 2))
        xtol = float(rng.choice([1e-12, 1e-9, 1e-4]))
        want = _outcome(lambda: optimize.brentq(f, lo, hi, xtol=xtol))
        assert _outcome(lambda: _brentq(f, lo, hi, xtol=xtol)) == want, i


def test_brentq_root_at_an_end():
    assert _brentq(lambda x: x - 1.0, 1.0, 3.0) == optimize.brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert _brentq(lambda x: x - 3.0, 1.0, 3.0) == optimize.brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0
    model = SENSOR_PRESETS["TS1"]
    t, _ = invert_temperature(model, model_resistance(model, 320.0))
    assert t == 320.0


def test_brentq_refuses_what_scipy_refuses():
    def same_sign(x):
        return x * x + 1.0

    with pytest.raises(ValueError) as want:
        optimize.brentq(same_sign, -1.0, 2.0)
    with pytest.raises(ValueError) as got:
        _brentq(same_sign, -1.0, 2.0)
    assert str(got.value) == str(want.value) == "f(a) and f(b) must have different signs"

    with pytest.raises(RuntimeError) as want:
        optimize.brentq(lambda x: x**3 - 2.0, 0.0, 2.0, maxiter=2)
    with pytest.raises(RuntimeError) as got:
        _brentq(lambda x: x**3 - 2.0, 0.0, 2.0, maxiter=2)
    assert str(got.value) == str(want.value)

    with pytest.raises(ValueError, match="is NaN"):
        _brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)


def test_float_power_is_libm_pow():
    # the integrand's x**5 is np.float_power on the abscissa array: it must
    # give math.pow's bits at every x (np.power does not, at some x)
    rng = np.random.default_rng(25)
    xs = np.concatenate([1e3 - rng.uniform(0.0, 1e3, 100_000), np.exp(rng.uniform(-46.0, 23.0, 20_000))])
    assert np.float_power(xs, 5.0).tolist() == [math.pow(x, 5.0) for x in xs.tolist()]


# float.hex of fits and readouts, frozen before the integrand's x**5 moved
# from one Python pow per abscissa to np.float_power


def _rt_curve(seed):
    """A seeded 120-point noisy R(T) curve, drawn as perfbench's rt_truth draws one."""
    rng = np.random.default_rng(seed)
    truth = RTModel(
        r_res=rng.uniform(1500.0, 2500.0), amplitude=rng.uniform(4000.0, 6000.0), theta=rng.uniform(150.0, 250.0)
    )
    ts = np.logspace(np.log10(2.0), np.log10(300.0), 120)
    return ts, model_resistance(truth, ts) * (1.0 + 1e-3 * rng.standard_normal(ts.size))


# seed: (r_res, amplitude, theta, chi2), covariance row by row, status, nfev
_FIT_PINS = {
    25101: (
        ("0x1.ff886f15c63a1p+10", "0x1.17b48a7534e27p+12", "0x1.dc3f479e760f1p+7", "0x1.cd4c7d69aeb70p+8"),
        ("0x1.eb98540ccae4ep-5", "0x1.82ade0b3bd75ep+0", "0x1.55ff5c113c8f0p-4",
         "0x1.82ade0b3bd73dp+0", "0x1.99680c8238dfdp+7", "0x1.2e1a4d2ae0ffdp+3",
         "0x1.55ff5c113c8d3p-4", "0x1.2e1a4d2ae0ffep+3", "0x1.ca16b5a2a6b4fp-2"),
        2, 9,
    ),
    25102: (
        ("0x1.7d79da3b38ef2p+10", "0x1.3f595b94581f0p+12", "0x1.7a7a746210667p+7", "0x1.8de3ed45429b0p+8"),
        ("0x1.cdd675ddd91d1p-5", "0x1.5e9f2ccbb95fep+0", "0x1.b4f63242cdca0p-5",
         "0x1.5e9f2ccbb9620p+0", "0x1.1db5ac3378eacp+7", "0x1.35139adce2fa1p+2",
         "0x1.b4f63242cdcb5p-5", "0x1.35139adce2fa1p+2", "0x1.552992aad3310p-3"),
        2, 9,
    ),
    25103: (
        ("0x1.261b23e85327cp+11", "0x1.3e4976aa39b28p+12", "0x1.c9d16d47cb810p+7", "0x1.a11300adcc6b0p+9"),
        ("0x1.c2c0c7e921027p-4", "0x1.5f9470eb8891fp+1", "0x1.07767767ddea8p-3",
         "0x1.5f9470eb8892fp+1", "0x1.62bc96144044dp+8", "0x1.beb11387b5df0p+3",
         "0x1.07767767ddeb6p-3", "0x1.beb11387b5deep+3", "0x1.209c531560056p-1"),
        2, 9,
    ),
}


@pytest.mark.parametrize("seed", list(_FIT_PINS))
def test_fit_keeps_its_bits(seed):
    fit = fit_rt_curve(*_rt_curve(seed))
    params = (fit.model.r_res, fit.model.amplitude, fit.model.theta, fit.chi2)
    assert (
        tuple(v.hex() for v in params),
        tuple(v.hex() for v in fit.covariance.ravel().tolist()),
        fit.status,
        fit.nfev,
    ) == _FIT_PINS[seed]


_READOUT_TEMPERATURES = [3.0, 6.0, 10.0, 12.5, 15.0, 40.0, 77.0, 295.0]
# preset: (sensitivity, then (T, sigma_T) read back from R at each temperature above)
_READOUT_PINS = {
    "TS1": (
        "0x1.3fffbc3dc8194p+1",
        (("0x1.7ffffffff2128p+1", "0x1.db93d2e812df1p+6"), ("0x1.7ffffffffee72p+2", "0x1.db94a6c190b66p+2"),
         ("0x1.4000000000152p+3", "0x1.f133c6c121e40p-1"), ("0x1.8fffffffe5c5cp+3", "0x1.a8ca25f28ac1bp-2"),
         ("0x1.e000000000134p+3", "0x1.c3cb88aa77661p-3"), ("0x1.4000000000895p+5", "0x1.5b27c9326327fp-5"),
         ("0x1.3400000002009p+6", "0x1.554328424a9cbp-5"), ("0x1.26ffffffffffep+8", "0x1.7e7c00ce0a23fp-5")),
    ),
    "TS2": (
        "0x1.00004e2b33853p+0",
        (("0x1.800000001cb01p+1", "0x1.293bca1de8a1ap+8"), ("0x1.80000000007d3p+2", "0x1.293c4e8611d9dp+4"),
         ("0x1.3fffffffffd88p+3", "0x1.36bfbb88f90fap+1"), ("0x1.8fffffffe5bb7p+3", "0x1.097dce6edda79p+0"),
         ("0x1.dffffffffffe4p+3", "0x1.1a5ea3678aaf9p-1"), ("0x1.400000000088ap+5", "0x1.b1f0db1b952b6p-4"),
         ("0x1.3400000002008p+6", "0x1.aa9315be9582bp-4"), ("0x1.2700000000000p+8", "0x1.de1a09c84dd34p-4")),
    ),
}


@pytest.mark.parametrize("name", sorted(_READOUT_PINS))
def test_readouts_keep_their_bits(name):
    model = SENSOR_PRESETS[name]
    readouts = [invert_temperature(model, r) for r in model_resistance(model, _READOUT_TEMPERATURES).tolist()]
    assert (sensitivity(model).hex(), tuple((t.hex(), s.hex()) for t, s in readouts)) == _READOUT_PINS[name]


# least_squares, bit for bit: the bounds and tolerances of the R(T) fit

_LB = [0.0, 1e-12, THETA_BOUNDS[0]]
_UB = [np.inf, np.inf, THETA_BOUNDS[1]]


def _lsq_fields(res):
    """The fields of a least_squares result that the fit reads, arrays as
    bytes, and the Jacobian's layout, which the fit's covariance product
    depends on."""
    return (
        res.x.tobytes(), res.fun.tobytes(), res.jac.tobytes(), res.jac.flags.f_contiguous,
        int(res.status), int(res.nfev), res.active_mask.tolist(), bool(res.success), res.message,
    )


def _lsq_outcome(solve):
    """A solve's fields, or the message of the ValueError it raised."""
    try:
        return _lsq_fields(solve())
    except ValueError as exc:
        return str(exc)


def test_least_squares_is_scipy_on_a_cheap_model():
    # r + A u^2 / (1 + u^2) with u = T/Theta: the fit's three parameters,
    # bounds and tolerances, on a residual that costs next to nothing.
    # Theta lies inside its bounds or past either; some solves are starved
    # of evaluations, and some residuals turn nan past a Theta, where the
    # trust region shrinks, or scipy refuses the start or the Jacobian
    rng = np.random.default_rng(28)
    seen = Counter()
    for case in range(260):
        m = int(rng.integers(4, 201))
        t = np.sort(rng.uniform(2.0, 300.0, m))
        theta = [rng.uniform(100.0, 600.0), rng.uniform(60.0, 110.0), rng.uniform(580.0, 900.0)][case % 3]
        noise = [0.0, 1e-6, 1e-4, 1e-3, 1e-2][case % 5]
        y = rng.uniform(0.0, 3e3) + rng.uniform(1e3, 6e3) * (t / theta) ** 2 / (1 + (t / theta) ** 2)
        y = y * (1 + noise * rng.standard_normal(m))
        s = 1.0 if case % 2 else noise * y + 1.0
        cut = rng.uniform(250.0, 700.0) if case % 7 == 0 else np.inf

        def fun(p):
            u2 = (t / p[2]) ** 2
            f = (max(p[0], 0.0) + max(p[1], 1e-12) * u2 / (1 + u2) - y) / s
            return f + np.nan if p[2] > cut else f

        x0 = [float(y.min()), max(float(y.max() - y.min()), 1e-6), 300.0]
        max_nfev = [None, None, None, None, None, 1, 4, 12][case % 8]
        want = _lsq_outcome(
            lambda: optimize.least_squares(fun, x0, bounds=(_LB, _UB), ftol=1e-12, xtol=1e-12, max_nfev=max_nfev)
        )
        got = _lsq_outcome(lambda: _least_squares(fun, x0, _LB, _UB, ftol=1e-12, xtol=1e-12, max_nfev=max_nfev))
        assert got == want, case
        seen[want if isinstance(want, str) else (want[4], want[6][2])] += 1
    # every status, Theta free and at each bound, and both refusals
    assert {k[0] for k in seen if isinstance(k, tuple)} == {0, 1, 2, 3, 4}
    assert {k[1] for k in seen if isinstance(k, tuple)} == {-1, 0, 1}
    assert {k for k in seen if isinstance(k, str)} == {
        "Residuals are not finite in the initial point.", "array must not contain infs or NaNs"
    }


def _rt_battery():
    """48 drawn calibration curves, then four that the fit refuses after the
    solve: a flat one and one of huge sigmas (Theta never estimated), and
    Theta 900 K and 60 K (pinned at a bound)."""
    rng = np.random.default_rng(2028)
    for case in range(48):
        m = int(np.exp(rng.uniform(math.log(4), math.log(200))))
        theta = [rng.uniform(120.0, 580.0), rng.uniform(60.0, 110.0), rng.uniform(560.0, 900.0)][case % 3]
        truth = RTModel(r_res=rng.uniform(0.0, 3e3), amplitude=rng.uniform(1e3, 6e3), theta=theta)
        ts = np.sort(rng.uniform(2.0, 300.0, m))
        noise = [0.0, 1e-5, 1e-3, 1e-2][case % 4]
        rs = model_resistance(truth, ts) * (1 + noise * rng.standard_normal(m))
        yield ts, rs, None if case % 2 else noise * rs + 0.1
    yield [10.0, 20.0, 30.0, 40.0], [100.0] * 4, None
    yield [10.0, 20.0, 30.0, 40.0], [100.0, 101.0, 105.0, 110.0], [1e150] * 4
    ts = np.linspace(10.0, 300.0, 40)
    for theta in (900.0, 60.0):
        yield ts, model_resistance(RTModel(r_res=100.0, amplitude=1000.0, theta=theta), ts), None


def test_least_squares_is_scipy_on_rt_fits(monkeypatch):
    # each fit solves its own residuals with the port and with scipy
    pairs = []

    def both(fun, x0, lb, ub, **kw):
        got = _least_squares(fun, x0, lb, ub, **kw)
        pairs.append((_lsq_fields(got), _lsq_fields(optimize.least_squares(fun, x0, bounds=(lb, ub), **kw))))
        return got

    monkeypatch.setattr(thermometry, "_least_squares", both)
    refused = 0
    for ts, rs, sigma in _rt_battery():
        try:
            fit_rt_curve(ts, rs, sigma=sigma)
        except ValueError:
            refused += 1
    assert len(pairs) == 52 and 0 < refused < 52
    for k, (got, want) in enumerate(pairs):
        assert got == want, k


def test_numpy_svd_is_scipy_svd_on_the_fits_matrices(monkeypatch):
    # the port factorises with numpy.linalg.svd where least_squares calls
    # scipy.linalg.svd (two builds of LAPACK): the factors must have the same
    # bits on what the fits factorise. The exact trust-region solver calls
    # no qr; only least_squares' lsmr solver does
    seen = []

    def spy(a, full_matrices):
        seen.append(a.copy())
        return np.linalg.svd(a, full_matrices=full_matrices)

    monkeypatch.setattr(_solvers, "svd", spy)
    for ts, rs, sigma in _rt_battery():
        try:
            fit_rt_curve(ts, rs, sigma=sigma)
        except ValueError:
            pass
    assert len(seen) > 300
    for a in seen:
        got = np.linalg.svd(a, full_matrices=False)
        want = linalg.svd(a, full_matrices=False)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
