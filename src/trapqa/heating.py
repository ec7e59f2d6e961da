"""Sideband thermometry and electric-field-noise heating analysis.

Ground-state occupation comes from the red/blue sideband asymmetry
``nbar = r / (1 - r)`` with ``r`` the sideband excitation ratio; repeated
measurements against wait time give the heating rate; rates across mode
frequencies are fitted to a power law ``rate ~ omega^-alpha`` in log space.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from ._io import as_int, fit_weights, read_csv

__all__ = [
    "Nbar",
    "LinearFit",
    "PowerLaw",
    "HeatingRecord",
    "nbar_from_sidebands",
    "heating_rate_fit",
    "power_law_fit",
    "load_heating_table",
    "site_rates",
]


@dataclass(frozen=True)
class Nbar:
    """Mean phonon occupation with its propagated uncertainty."""

    value: float
    sigma: float


def nbar_from_sidebands(
    p_red: float,
    p_blue: float,
    shots_red: int,
    shots_blue: int | None = None,
) -> Nbar:
    """Occupation from sideband excitation probabilities.

    With ``r = p_red / p_blue``, ``nbar = r / (1 - r)``. Projection noise on
    each probability is binomial, ``sqrt(p (1 - p) / shots)``, and is
    propagated to first order:

        sigma_r^2    = (sigma_red / p_blue)^2 + (p_red sigma_blue / p_blue^2)^2
        sigma_nbar   = sigma_r / (1 - r)^2

    Requires ``0 <= p_red < p_blue <= 1``; a ratio at or above one has no
    finite occupation.
    """
    if shots_blue is None:
        shots_blue = shots_red
    if shots_red < 1 or shots_blue < 1:
        raise ValueError("shot counts must be positive")
    if not (0.0 <= p_red <= 1.0 and 0.0 < p_blue <= 1.0):
        raise ValueError("probabilities must lie in [0, 1] with p_blue > 0")
    r = p_red / p_blue
    if r >= 1.0:
        raise ValueError("p_red must be below p_blue for a finite occupation")
    s_red = np.sqrt(p_red * (1.0 - p_red) / shots_red)
    s_blue = np.sqrt(p_blue * (1.0 - p_blue) / shots_blue)
    s_r = np.sqrt((s_red / p_blue) ** 2 + (p_red * s_blue / p_blue**2) ** 2)
    return Nbar(value=r / (1.0 - r), sigma=s_r / (1.0 - r) ** 2)


def _weighted_linfit(x, y, sigma, given):
    """Weighted straight-line fit; returns slope, intercept, variances, chi2.

    ``sigma`` are the uncertainties of ``y``, computed from the caller's
    ``given`` ones; a weight ``1/sigma**2`` that is not finite and above
    zero raises ValueError naming the ``given`` sigma it came from, and so
    does a fit whose weighted sums overflow.
    """
    w = fit_weights(sigma, given)
    given = np.asarray(given, dtype=float).tolist()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sw = w.sum()
        sx = (w * x).sum()
        sy = (w * y).sum()
        sxx = (w * x * x).sum()
        sxy = (w * x * y).sum()
        d = sw * sxx - sx * sx
        if d <= 0:
            raise ValueError("degenerate abscissa; cannot fit a line")
        slope = (sw * sxy - sx * sy) / d
        intercept = (sxx * sy - sx * sxy) / d
        var_slope = sw / d
        var_intercept = sxx / d
        chi2 = float((w * (y - slope * x - intercept) ** 2).sum())
    fit = (slope, intercept, var_slope, var_intercept, chi2)
    if not (math.isfinite(d) and all(map(math.isfinite, fit))):
        i = int(np.argmax(w))
        raise ValueError(
            f"sigma {given[i]!r} gives the weight 1/sigma**2 = {float(w[i])!r}, which overflows the fit's sums"
        )
    return fit


@dataclass(frozen=True)
class LinearFit:
    slope: float
    sigma_slope: float
    intercept: float
    sigma_intercept: float
    chi2: float
    dof: int


def heating_rate_fit(times, nbars, sigmas=None) -> LinearFit:
    """Weighted linear fit of occupation versus wait time.

    The slope is the heating rate (quanta/s when times are seconds). With
    ``sigmas`` omitted all points weigh equally and the result coincides
    with ordinary least squares; given, they are one value per point.
    """
    times = np.asarray(times, dtype=float)
    nbars = np.asarray(nbars, dtype=float)
    if times.shape != nbars.shape or times.ndim != 1 or len(times) < 2:
        raise ValueError("need matching 1D arrays with at least 2 points")
    s = np.ones_like(nbars) if sigmas is None else np.asarray(sigmas, dtype=float)
    if s.shape != nbars.shape:
        raise ValueError(f"sigmas has shape {s.shape}, the data {nbars.shape}")
    for ti, si in zip(times.tolist(), s.tolist()):
        if si <= 0.0:
            raise ValueError(f"sigma {si!r} at time {ti!r} is not above zero")
    slope, intercept, vs, vi, chi2 = _weighted_linfit(times, nbars, s, s)
    return LinearFit(
        slope=float(slope),
        sigma_slope=float(np.sqrt(vs)),
        intercept=float(intercept),
        sigma_intercept=float(np.sqrt(vi)),
        chi2=chi2,
        dof=max(len(times) - 2, 0),
    )


@dataclass(frozen=True)
class PowerLaw:
    """Fit of rate = amplitude * frequency^-alpha (log-space weighted LSQ)."""

    alpha: float
    sigma_alpha: float
    amplitude: float
    sigma_log_amplitude: float
    chi2: float
    dof: int


def power_law_fit(frequencies, rates, sigmas) -> PowerLaw:
    """Frequency scaling of heating rates.

    Fits ``ln(rate) = ln(amplitude) - alpha ln(frequency)`` with the log-space
    uncertainties ``sigma / rate``. ``amplitude`` is the rate at unit
    frequency (same unit as ``frequencies``). Scaling all frequencies by c
    multiplies the amplitude by c^alpha and leaves alpha unchanged.
    """
    f = np.asarray(frequencies, dtype=float)
    r = np.asarray(rates, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    if not (f.shape == r.shape == s.shape) or f.ndim != 1 or len(f) < 3:
        raise ValueError("need matching 1D arrays with at least 3 points")
    for fi, ri, si in zip(f.tolist(), r.tolist(), s.tolist()):
        if fi <= 0.0:
            raise ValueError(f"frequency {fi!r} is not above zero")
        if ri <= 0.0:
            raise ValueError(f"rate {ri!r} at frequency {fi!r} is not above zero")
        if si <= 0.0:
            raise ValueError(f"sigma {si!r} at frequency {fi!r} is not above zero")
    with np.errstate(over="ignore", under="ignore"):
        log_sigma = s / r
    slope, intercept, vs, vi, chi2 = _weighted_linfit(np.log(f), np.log(r), log_sigma, s)
    return PowerLaw(
        alpha=float(-slope),
        sigma_alpha=float(np.sqrt(vs)),
        amplitude=float(np.exp(intercept)),
        sigma_log_amplitude=float(np.sqrt(vi)),
        chi2=chi2,
        dof=max(len(f) - 2, 0),
    )


@dataclass(frozen=True)
class HeatingRecord:
    """One measured heating rate: trap site, mode frequency, rate, sigma."""

    site: int
    frequency_mhz: float
    rate: float
    sigma: float


def load_heating_table(path=None) -> tuple[HeatingRecord, ...]:
    """Heating records of the CSV table at ``path``, by default the bundled
    one (fused-silica trap, all sites); a table without sites is site 0."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "heating_rates_fs.csv")
    columns = ("frequency_mhz", "rate_quanta_per_s", "sigma_quanta_per_s")
    with open(path, "r", encoding="utf-8") as fh:
        rows = read_csv(fh, f"heating table {path}", columns, ("site",))
    return tuple(
        HeatingRecord(
            site=0 if r["site"] is None else as_int(r["site"], f"heating table {path} site"),
            frequency_mhz=r["frequency_mhz"],
            rate=r["rate_quanta_per_s"],
            sigma=r["sigma_quanta_per_s"],
        )
        for r in rows
    )


def site_rates(site: int, table=None) -> tuple[HeatingRecord, ...]:
    """Records of one trap site, in table order."""
    if table is None:
        table = load_heating_table()
    out = tuple(r for r in table if r.site == site)
    if not out:
        raise ValueError(f"no heating records for site {site}")
    return out
