"""On-chip resistance thermometry.

The sensor resistance follows a residual term plus a lattice-scattering
(Bloch-Grueneisen) term with the transport exponent 5:

    R(T) = R_res + A (T / Theta)^5 * Integral[0, Theta/T]
           x^5 / ((e^x - 1)(1 - e^-x)) dx

The model is monotone in T, linear well above Theta and flattening as T^5
toward low temperature. Temperatures are read back by inverting a fitted
curve; the temperature resolution is the meter resolution divided by the
local slope dR/dT.

The bundled TS-like presets are calibrated to the two anchors used in
acceptance checks: the measured sensitivity over the 10..15 K window and the
room-temperature (295 K) mean resistance. A pure lattice-scattering curve
cannot also reproduce a large room-to-cryo resistance drop with these
sensitivities, so the presets carry a dominant residual term.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

__all__ = [
    "RTModel",
    "RTFit",
    "bg_integral",
    "model_resistance",
    "d_resistance_d_t",
    "fit_rt_curve",
    "sensitivity",
    "invert_temperature",
    "wafer_spread_projection",
    "SENSOR_PRESETS",
]

#: Debye-temperature bounds used when fitting aluminum-like films.
THETA_BOUNDS = (100.0, 600.0)


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


def bg_integral(upper: float) -> float:
    """Integral of x^5 / ((e^x - 1)(1 - e^-x)) from 0 to ``upper``.

    The integrand behaves as x^3 near zero and decays as x^5 e^-x at large
    x; adaptive quadrature handles both ends.
    """
    if upper <= 0:
        return 0.0
    val, _ = integrate.quad(
        lambda x: x**5 / ((np.exp(x) - 1.0) * (1.0 - np.exp(-x))),
        0.0,
        upper,
        limit=200,
        epsabs=0.0,
        epsrel=1e-11,
    )
    return float(val)


def model_resistance(model: RTModel, temperature):
    """R(T) in ohm; accepts a scalar or an array of temperatures."""
    t = np.asarray(temperature, dtype=float)
    if np.any(t <= 0):
        raise ValueError("temperature must be positive")
    flat = np.atleast_1d(t)
    out = np.array(
        [
            model.r_res
            + model.amplitude * (ti / model.theta) ** 5 * bg_integral(model.theta / ti)
            for ti in flat
        ]
    )
    return float(out[0]) if t.ndim == 0 else out


def d_resistance_d_t(model: RTModel, temperature: float) -> float:
    """Analytic slope dR/dT (ohm/K) of the model at one temperature.

    With u = Theta/T and J(u) the integral above,
    d/dT [(T/Theta)^5 J(u)] = (T^4/Theta^5) (5 J(u) - u J'(u)),
    J'(u) = u^5 / ((e^u - 1)(1 - e^-u)).
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    u = model.theta / temperature
    j = bg_integral(u)
    jprime = u**5 / ((np.exp(u) - 1.0) * (1.0 - np.exp(-u))) if u < 700 else 0.0
    return float(
        model.amplitude * temperature**4 / model.theta**5 * (5.0 * j - u * jprime)
    )


@dataclass(frozen=True)
class RTFit:
    model: RTModel
    covariance: np.ndarray  # order (r_res, amplitude, theta)
    chi2: float
    dof: int


def fit_rt_curve(temperatures, resistances, sigma=None) -> RTFit:
    """Least-squares fit of the R(T) model to calibration data.

    ``sigma`` weights the residuals when given. Theta is constrained to the
    aluminum-like window 100..600 K; starting values come from the data
    (residual from the coldest point, amplitude from the warmest). Raises
    ``ValueError`` with the solver status when the fit does not converge.
    """
    t = np.asarray(temperatures, dtype=float)
    r = np.asarray(resistances, dtype=float)
    if t.shape != r.shape or t.ndim != 1 or len(t) < 4:
        raise ValueError("need matching 1D arrays with at least 4 points")
    s = np.ones_like(r) if sigma is None else np.asarray(sigma, dtype=float)
    if np.any(s <= 0):
        raise ValueError("sigma values must be positive")

    theta0 = 300.0
    r_res0 = float(np.min(r))
    t_hi = float(np.max(t))
    bg_hi = (t_hi / theta0) ** 5 * bg_integral(theta0 / t_hi)
    a0 = max((float(np.max(r)) - r_res0) / bg_hi, 1e-6)

    def residuals(p):
        m = RTModel(r_res=max(p[0], 0.0), amplitude=max(p[1], 1e-12), theta=p[2])
        return (model_resistance(m, t) - r) / s

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
    return RTFit(model=model, covariance=cov, chi2=chi2, dof=dof)


def sensitivity(model: RTModel, window: tuple[float, float] = (10.0, 15.0), n: int = 11) -> float:
    """Measured-style sensitivity: linear-fit slope of R over ``window`` (ohm/K)."""
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    t = np.linspace(lo, hi, n)
    r = model_resistance(model, t)
    return float(np.polyfit(t, r, 1)[0])


def invert_temperature(
    model: RTModel,
    resistance: float,
    meter_resolution: float = 1.0,
    bounds: tuple[float, float] = (2.0, 320.0),
) -> tuple[float, float]:
    """Temperature (K) and its resolution for a measured resistance.

    The model is strictly increasing, so the readout is a bracketed root
    find over ``bounds``; resistances outside the model's range there raise
    ValueError. The temperature resolution is ``meter_resolution / (dR/dT)``
    at the solution.
    """
    lo, hi = bounds
    r_lo = model_resistance(model, lo)
    r_hi = model_resistance(model, hi)
    if not r_lo <= resistance <= r_hi:
        raise ValueError(
            f"resistance {resistance:.6g} ohm outside model range "
            f"[{r_lo:.6g}, {r_hi:.6g}] for T in [{lo}, {hi}] K"
        )
    t = optimize.brentq(
        lambda x: model_resistance(model, x) - resistance, lo, hi, xtol=1e-9
    )
    slope = d_resistance_d_t(model, t)
    sigma_t = meter_resolution / slope if slope > 0 else np.inf
    return float(t), float(sigma_t)


def wafer_spread_projection(room_mean: float, room_std: float, cryo_mean: float) -> float:
    """Project the wafer-scale resistance spread to cryogenic conditions.

    The device-to-device spread is dominated by geometry (line width and
    thickness variation), which scales every resistance multiplicatively, so
    the relative spread is preserved: sigma_cryo = room_std * cryo_mean /
    room_mean.
    """
    if room_mean <= 0 or cryo_mean <= 0 or room_std < 0:
        raise ValueError("means must be positive and std non-negative")
    return room_std * cryo_mean / room_mean


#: TS-like models calibrated to (sensitivity over 10..15 K, R at 295 K):
#: TS1 -> (2.5 ohm/K, 32.3 kohm), TS2 -> (1.0 ohm/K, 10.8 kohm).
SENSOR_PRESETS = {
    "TS1": RTModel(r_res=26157.3, amplitude=12673.9, theta=150.0),
    "TS2": RTModel(r_res=8342.9, amplitude=5069.6, theta=150.0),
}
