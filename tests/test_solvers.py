"""The scipy ports in trapqa._solvers, with scipy kept as the reference.

``bg_integral`` must return ``scipy.integrate.quad``'s value bit for bit,
and warn exactly where quad warns, over the whole range of upper limits a
temperature can give; a batch must return what one-at-a-time integrals
return; ``_brentq`` must return ``scipy.optimize.brentq``'s root bit for bit
and refuse what it refuses. The battery is the guard for the numpy details
the port relies on (``np.exp`` on an array equal to scalar calls), so keep
it large.
"""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize

from trapqa import thermometry
from trapqa._solvers import IntegrationWarning, _brentq, _qags
from trapqa.thermometry import (
    SENSOR_PRESETS,
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
