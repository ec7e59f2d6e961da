"""Sideband occupation, heating-rate fits, power-law frequency scaling.

The first-order projection-noise propagation in nbar_from_sidebands is
checked against a Monte Carlo: draw binomial sideband outcomes at the true
probabilities, push each draw through r/(1-r), and compare the spread with
the propagated sigma.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapqa.heating import (
    HeatingRecord,
    heating_rate_fit,
    load_heating_table,
    nbar_from_sidebands,
    power_law_fit,
    site_rates,
)


def test_nbar_hand_value():
    nb = nbar_from_sidebands(0.1, 0.5, shots_red=100)
    # r = 0.2, nbar = 0.2 / 0.8
    assert nb.value == pytest.approx(0.25, rel=1e-12)


def test_nbar_sigma_against_monte_carlo(rng):
    p_red, p_blue, shots = 0.2, 0.6, 2000
    nb = nbar_from_sidebands(p_red, p_blue, shots_red=shots)
    draws = []
    for _ in range(4000):
        pr = rng.binomial(shots, p_red) / shots
        pb = rng.binomial(shots, p_blue) / shots
        r = pr / pb
        if r < 1.0:
            draws.append(r / (1.0 - r))
    mc_sigma = np.std(draws)
    assert nb.sigma == pytest.approx(mc_sigma, rel=0.1)


def test_nbar_rejects_inverted_sidebands():
    with pytest.raises(ValueError):
        nbar_from_sidebands(0.6, 0.5, shots_red=100)
    with pytest.raises(ValueError):
        nbar_from_sidebands(0.5, 0.5, shots_red=100)


def test_nbar_grows_with_ratio():
    values = [nbar_from_sidebands(p, 0.8, shots_red=100).value for p in (0.1, 0.3, 0.5, 0.7)]
    assert values == sorted(values)


def test_heating_fit_matches_polyfit(rng):
    times = np.linspace(0.0, 2.0, 12)
    nbars = 0.3 + 11.0 * times + 0.02 * rng.standard_normal(len(times))
    fit = heating_rate_fit(times, nbars)
    coef = np.polyfit(times, nbars, 1)
    assert fit.slope == pytest.approx(coef[0], rel=1e-9)
    assert fit.intercept == pytest.approx(coef[1], rel=1e-9)


def test_weighted_heating_fit_matches_polyfit(rng):
    times = np.linspace(0.0, 2.0, 12)
    sigmas = np.full_like(times, 0.05)
    sigmas[::3] = 0.4
    nbars = 0.3 + 11.0 * times + sigmas * rng.standard_normal(len(times))
    fit = heating_rate_fit(times, nbars, sigmas)
    coef = np.polyfit(times, nbars, 1, w=1.0 / sigmas)
    assert fit.slope == pytest.approx(coef[0], rel=1e-9)
    assert fit.intercept == pytest.approx(coef[1], rel=1e-9)


def test_heating_fit_exact_line():
    times = np.array([0.0, 0.5, 1.0, 2.0])
    fit = heating_rate_fit(times, 0.1 + 7.25 * times)
    assert fit.slope == pytest.approx(7.25, rel=1e-12)
    assert fit.chi2 == pytest.approx(0.0, abs=1e-18)


def test_power_law_exact_inverse_square():
    f = np.array([0.5, 0.8, 1.3, 2.1, 3.4])
    rates = 12.0 * f**-2.0
    fit = power_law_fit(f, rates, 0.01 * rates)
    assert fit.alpha == pytest.approx(2.0, abs=1e-6)
    assert fit.amplitude == pytest.approx(12.0, rel=1e-6)


def test_power_law_on_bundled_site_10():
    records = site_rates(10)
    assert len(records) == 8
    fit = power_law_fit(
        [r.frequency_mhz for r in records],
        [r.rate for r in records],
        [r.sigma for r in records],
    )
    assert 1.5 <= fit.alpha <= 2.5
    # frozen reference from the independent weighted log-log fit
    assert fit.alpha == pytest.approx(2.2514, abs=1e-3)
    assert fit.sigma_alpha == pytest.approx(0.0601, abs=1e-3)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=50.0, allow_nan=False))
def test_power_law_scaling_equivariance(c):
    f = np.array([0.6, 1.1, 1.9, 3.7])
    rates = np.array([30.0, 11.0, 4.2, 1.4])
    sigmas = np.array([2.0, 1.0, 0.5, 0.3])
    base = power_law_fit(f, rates, sigmas)
    scaled = power_law_fit(c * f, rates, sigmas)
    assert scaled.alpha == pytest.approx(base.alpha, rel=1e-9)
    assert scaled.amplitude == pytest.approx(base.amplitude * c**base.alpha, rel=1e-6)


def test_bundled_table_shape():
    table = load_heating_table()
    assert len(table) == 23
    sites = {r.site for r in table}
    assert 10 in sites
    for rec in table:
        assert rec.frequency_mhz > 0
        assert rec.rate > 0
        assert rec.sigma > 0


def test_site_rates_filters():
    table = load_heating_table()
    for site in {r.site for r in table}:
        rows = site_rates(site, table)
        assert all(r.site == site for r in rows)


@pytest.mark.parametrize("sigmas", [[0.5], [0.5, 0.5, 0.5], 0.5], ids=["one", "three", "scalar"])
def test_heating_fit_refuses_sigmas_of_another_shape(sigmas):
    # numpy used to broadcast a length-1 or scalar sigma over every point
    with pytest.raises(ValueError, match=r"sigmas has shape .*, the data \(4,\)"):
        heating_rate_fit([0.0, 1.0, 2.0, 3.0], [0.1, 1.2, 2.1, 3.3], sigmas)


def test_power_law_needs_three_points():
    with pytest.raises(ValueError):
        power_law_fit([1.0, 2.0], [3.0, 1.0], [0.1, 0.1])


def test_heating_record_is_plain_data():
    rec = HeatingRecord(site=1, frequency_mhz=1.0, rate=10.0, sigma=1.0)
    assert rec.site == 1
