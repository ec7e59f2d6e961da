"""On-chip resistance thermometry.

The sensor resistance follows a residual term plus a lattice-scattering
(Bloch-Grueneisen) term with the transport exponent 5:

    R(T) = R_res + A (T / Theta)^5 * Integral[0, Theta/T]
           x^5 / ((e^x - 1)(1 - e^-x)) dx

The model is monotone in T, linear well above Theta and flattening as T^5
toward low temperature. Temperatures are read back by inverting a fitted
curve; the temperature resolution is the meter resolution divided by the
local slope dR/dT.

J(Theta/T) is integrated by a port of QUADPACK's dqagse (trapqa._solvers),
the routine behind scipy.integrate.quad, which returns quad's value bit for
bit; all temperatures of a curve are integrated in one batch.

The bundled TS-like presets are calibrated to the two anchors used in
acceptance checks: the measured sensitivity over the 10..15 K window and the
room-temperature (295 K) mean resistance. A pure lattice-scattering curve
cannot also reproduce a large room-to-cryo resistance drop with these
sensitivities, so the presets carry a dominant residual term.
"""

import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._solvers import IntegrationWarning, _brentq, _ier_message, _qags

# The integrals and the readout's root find run on ports of scipy's quad and
# brentq (trapqa._solvers), which keep every bit of scipy's results; only
# fit_rt_curve imports scipy, for least_squares, inside the function: loading
# scipy takes about a second, which every thermo process would pay.

__all__ = [
    "RTModel",
    "RTFit",
    "bg_integral",
    "model_resistance",
    "d_resistance_d_t",
    "fit_rt_curve",
    "sensitivity",
    "invert_temperature",
    "SENSOR_PRESETS",
]

#: Debye-temperature bounds used when fitting aluminum-like films.
THETA_BOUNDS = (100.0, 600.0)

# QUADPACK's subinterval limit for J(u)
_LIMIT = 200


@dataclass(frozen=True)
class RTModel:
    """Fitted R(T) parameters: residual resistance, amplitude, Debye temperature."""

    r_res: float
    amplitude: float
    theta: float

    def __post_init__(self):
        if self.r_res < 0:
            raise ValueError("r_res must be >= 0")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")


def _bg_integrand(x: np.ndarray) -> np.ndarray:
    """x^5 / ((e^x - 1)(1 - e^-x)) at each x: the Bloch-Grueneisen integrand, J'(x).

    ``x**5`` is a float power, libm's ``pow`` as ``quad``'s scalar calls
    had it (numpy's array power differs in the last bit at some x), and the
    exponentials are one ``np.exp`` call on one contiguous array.
    """
    flat = x.ravel()
    n = flat.size
    # e^x overflows past x ~ 709.78, where the integrand is 0 to double
    # precision; a zero denominator (x below ~1e-16) makes the integral
    # infinite or nan, which _bg_integrals refuses by name
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        e = np.exp(np.concatenate((flat, -flat)))
        x5 = np.fromiter(map(pow, flat.tolist(), repeat(5.0)), float, n)
        return (x5 / ((e[:n] - 1.0) * (1.0 - e[n:]))).reshape(x.shape)


def _bg_integrals(uppers, temperatures=None) -> list[float]:
    """J(u) for each u of ``uppers`` (each above zero), all in one batch.

    Each integral is ``scipy.integrate.quad``'s, bit for bit (``_qags`` is a
    port of it): relative tolerance 1e-11 and at most 200 subintervals, with
    quad's warning where QUADPACK flags a result. An upper limit, its fifth
    power or an integral that is not finite raises ValueError, naming the
    temperature T (``uppers`` being Theta/T) when ``temperatures`` is given.
    """
    def name(i):
        if temperatures is None:
            return f"upper limit {uppers[i]!r}"
        return f"temperature {temperatures[i]!r} K (Theta/T = {uppers[i]!r})"

    for i, u in enumerate(uppers):
        if not math.isfinite(u):
            raise ValueError(f"{name(i)}: the upper limit is not finite")
        try:
            u**5
        except OverflowError:
            raise ValueError(f"{name(i)}: the integrand's x**5 overflows") from None
    results = _qags(_bg_integrand, 0.0, uppers, 0.0, 1e-11, _LIMIT)
    for i, (val, _, _) in enumerate(results):
        if not math.isfinite(val):
            raise ValueError(f"{name(i)}: the Bloch-Grueneisen integral is {val!r}")
    for _, _, ier in results:
        if ier:
            warnings.warn(_ier_message(ier, _LIMIT), IntegrationWarning, stacklevel=3)
    return [val for val, _, _ in results]


def bg_integral(upper: float) -> float:
    """Integral of x^5 / ((e^x - 1)(1 - e^-x)) from 0 to ``upper``.

    The integrand behaves as x^3 near zero and decays as x^5 e^-x at large
    x; adaptive quadrature handles both ends. A negative ``upper`` raises ValueError.
    """
    if upper < 0:
        raise ValueError(f"upper limit {upper!r} is below zero")
    if upper == 0:
        return 0.0
    return _bg_integrals([float(upper)])[0]


def _integrals(theta: float, temperatures: list) -> list[float]:
    """J(Theta/T) at each temperature, in one batch."""
    return _bg_integrals([theta / t for t in temperatures], temperatures)


def model_resistance(model: RTModel, temperature):
    """R(T) in ohm; accepts a scalar or an array of temperatures."""
    t = np.asarray(temperature, dtype=float)
    if np.any(t <= 0):
        raise ValueError("temperature must be positive")
    flat = np.atleast_1d(t).tolist()
    out = _resistances(model, flat, _integrals(float(model.theta), flat))
    return float(out[0]) if t.ndim == 0 else out


def _resistances(model: RTModel, temperatures: list, integrals) -> np.ndarray:
    """R at each temperature, given J(Theta/T) for each one; an R that is not
    finite raises ValueError naming the temperature. (T/Theta)**5 cannot
    overflow here: wherever it would, J(Theta/T) is already refused."""
    out = []
    for t, j in zip(temperatures, integrals):
        r = model.r_res + model.amplitude * (t / model.theta) ** 5 * j
        if not math.isfinite(r):
            raise ValueError(f"temperature {t!r} K: R(T) = {r!r} is not finite")
        out.append(r)
    return np.array(out)


def d_resistance_d_t(model: RTModel, temperature: float) -> float:
    """Analytic slope dR/dT (ohm/K) of the model at one temperature.

    With u = Theta/T and J(u) the integral above,
    d/dT [(T/Theta)^5 J(u)] = (T^4/Theta^5) (5 J(u) - u J'(u)),
    J'(u) = u^5 / ((e^u - 1)(1 - e^-u)), which underflows to 0 for large u.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    u = model.theta / temperature
    j = bg_integral(u)
    jprime = float(_bg_integrand(np.array([u]))[0])
    return float(
        model.amplitude * temperature**4 / model.theta**5 * (5.0 * j - u * jprime)
    )


@dataclass(frozen=True)
class RTFit:
    """A converged R(T) fit; ``status`` (1..4) and ``nfev`` are least_squares' own."""

    model: RTModel
    covariance: np.ndarray  # order (r_res, amplitude, theta)
    chi2: float
    dof: int
    status: int
    nfev: int


def fit_rt_curve(temperatures, resistances, sigma=None) -> RTFit:
    """Least-squares fit of the R(T) model to calibration data.

    ``sigma``, one value per point, weights the residuals when given. Theta is
    constrained to the aluminum-like window 100..600 K; starting values come
    from the data (residual from the coldest point, amplitude from the
    warmest). Raises ``ValueError`` for fewer than 3 distinct temperatures,
    one per parameter, and with the solver status when the fit does not converge.
    """
    t = np.asarray(temperatures, dtype=float)
    r = np.asarray(resistances, dtype=float)
    if t.shape != r.shape or t.ndim != 1 or len(t) < 4:
        raise ValueError("need matching 1D arrays with at least 4 points")
    s = np.ones_like(r) if sigma is None else np.asarray(sigma, dtype=float)
    if s.shape != r.shape:
        raise ValueError(f"sigma has shape {s.shape}, the data {r.shape}")
    if np.any(s <= 0):
        raise ValueError("sigma values must be positive")
    if np.any(t <= 0):
        raise ValueError("temperature must be positive")
    ts = t.tolist()
    if len(set(ts)) < 3:
        raise ValueError(f"need at least 3 distinct temperatures, one per model parameter, got {len(set(ts))}")

    theta0 = 300.0
    r_res0 = float(np.min(r))
    t_hi = float(np.max(t))
    j_hi = _integrals(theta0, [t_hi])[0]  # first: it refuses every T where the power overflows
    bg_hi = (t_hi / theta0) ** 5 * j_hi
    a0 = max((float(np.max(r)) - r_res0) / bg_hi, 1e-6)

    # The finite-difference Jacobian moves r_res and A at an unchanged Theta,
    # so the integrals J(Theta/T) are computed once per Theta of the fit, all
    # temperatures in one batch.
    integrals = {}

    def residuals(p):
        m = RTModel(r_res=max(p[0], 0.0), amplitude=max(p[1], 1e-12), theta=p[2])
        if m.theta not in integrals:
            integrals[m.theta] = _integrals(float(m.theta), ts)
        return (_resistances(m, ts, integrals[m.theta]) - r) / s

    from scipy import optimize

    res = optimize.least_squares(
        residuals,
        x0=[r_res0, a0, theta0],
        bounds=([0.0, 1e-12, THETA_BOUNDS[0]], [np.inf, np.inf, THETA_BOUNDS[1]]),
        xtol=1e-12,
        ftol=1e-12,
    )
    if not res.success:
        raise ValueError(
            f"R(T) fit failed: least_squares status {res.status} after {res.nfev} "
            f"evaluations ({res.message})"
        )
    model = RTModel(r_res=float(res.x[0]), amplitude=float(res.x[1]), theta=float(res.x[2]))
    # covariance from the Jacobian at the solution
    jac = res.jac
    chi2 = float(np.sum(res.fun**2))
    dof = max(len(t) - 3, 1)
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.full((3, 3), np.nan)
    if sigma is None:
        cov = cov * chi2 / dof  # scale by reduced chi^2 for unit weights
    return RTFit(
        model=model, covariance=cov, chi2=chi2, dof=dof, status=int(res.status), nfev=int(res.nfev)
    )


def sensitivity(model: RTModel) -> float:
    """Measured-style sensitivity: slope (ohm/K) of a line fitted to R at 11 points over 10..15 K."""
    t = np.linspace(10.0, 15.0, 11)
    r = model_resistance(model, t)
    return float(np.polyfit(t, r, 1)[0])


def invert_temperature(model: RTModel, resistance: float, meter_resolution: float = 1.0) -> tuple[float, float]:
    """Temperature (K) and its resolution for a measured resistance.

    The model is strictly increasing, so the readout is a bracketed root
    find over 2..320 K; resistances outside the model's range there raise
    ValueError. The temperature resolution is ``meter_resolution / (dR/dT)``
    at the solution; a ``meter_resolution`` that is not above zero raises
    ValueError.
    """
    if not meter_resolution > 0.0:
        raise ValueError(f"meter_resolution must be above zero, got {meter_resolution!r}")
    lo, hi = 2.0, 320.0
    r_lo, r_hi = model_resistance(model, [lo, hi]).tolist()
    if not r_lo <= resistance <= r_hi:
        raise ValueError(
            f"resistance {resistance:.6g} ohm outside model range "
            f"[{r_lo:.6g}, {r_hi:.6g}] for T in [{lo}, {hi}] K"
        )
    t = _brentq(lambda x: model_resistance(model, x) - resistance, lo, hi, xtol=1e-9)
    slope = d_resistance_d_t(model, t)
    sigma_t = meter_resolution / slope if slope > 0 else np.inf
    return float(t), float(sigma_t)


#: TS-like models calibrated to (sensitivity over 10..15 K, R at 295 K):
#: TS1 -> (2.5 ohm/K, 32.3 kohm), TS2 -> (1.0 ohm/K, 10.8 kohm).
SENSOR_PRESETS = {
    "TS1": RTModel(r_res=26157.3, amplitude=12673.9, theta=150.0),
    "TS2": RTModel(r_res=8342.9, amplitude=5069.6, theta=150.0),
}
