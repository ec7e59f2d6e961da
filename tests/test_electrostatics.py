"""Trap electrostatics on the bundled geometry, plus dynamics oracles.

The micromotion chain (displacement -> Mathieu drive parameter -> driven
amplitude -> modulation index) is checked against direct integration of the
equation of motion in a 1D RF quadrupole with a constant push:

    x'' = (q/m) * (E_s - G x cos(Omega t))

whose driven steady state, to first order in the Mathieu parameter, has mean
offset d = q E_s / (m w_r^2) and amplitude u = q_M d / 2 at the drive
frequency.
"""

import numpy as np
import pytest
from scipy import optimize
from scipy.integrate import solve_ivp

from trapqa import kernels
from trapqa.core import CA40, DriveParams
from trapqa.electrostatics import (
    Electrode,
    TrapGeometry,
    basis_field,
    basis_potential,
    field_at,
    find_rf_minima,
    geometry_from_dict,
    micromotion_index,
    paper_trap_geometry,
    potential_at,
    pseudopotential,
    secular_frequencies,
    stray_field,
)


NULL_WINDOW = ((-150e-6, 150e-6), (40e-6, 250e-6))  # the conftest window


def reference_nulls(geometry, window, x=0.0, grid=11, dedup_tol=1e-6):
    """Scalar reference for the null search: one ``scipy.optimize.root`` per
    seed on one-point kernel calls, then the window filter and the dedup.

    It calls the kernel directly because its steps may leave z > 0, which
    the fields layer refuses.
    """
    (y_lo, y_hi), (z_lo, z_hi) = window
    rects, volts = geometry.rect_arrays({i: 1.0 for i in geometry.ids(role="rf")})

    def e_perp(yz):
        e = kernels.rect_field_sum(rects, volts, np.array([[x, yz[0], yz[1]]]))[0]
        return [e[1], e[2]]

    found = []
    for ys in np.linspace(y_lo, y_hi, grid):
        for zs in np.linspace(z_lo, z_hi, grid):
            sol = optimize.root(e_perp, [ys, zs], method="hybr", tol=1e-14)
            if not sol.success:
                continue
            y0, z0 = sol.x
            if not (y_lo - dedup_tol <= y0 <= y_hi + dedup_tol):
                continue
            if not (z_lo - dedup_tol <= z0 <= z_hi + dedup_tol):
                continue
            if any(abs(y0 - fy) < dedup_tol and abs(z0 - fz) < dedup_tol for fy, fz in found):
                continue
            found.append((y0, z0))
    return sorted(found)


@pytest.mark.parametrize(
    "window, x",
    [
        (NULL_WINDOW, 0.0),
        (((0.0, 150e-6), (40e-6, 250e-6)), 0.0),  # one null
        (((100e-6, 150e-6), (40e-6, 250e-6)), 0.0),  # no null
        (NULL_WINDOW, 100e-6),
    ],
)
def test_null_search_matches_scalar_reference(geometry, drive, window, x):
    want = reference_nulls(geometry, window, x)
    got = find_rf_minima(geometry, CA40, drive, window, x=x)
    assert len(got) == len(want)
    for m, (y0, z0) in zip(got, want):
        assert m.position[0] == x
        assert abs(m.position[1] - y0) < 1e-12
        assert abs(m.position[2] - z0) < 1e-12


def _kernel_points(monkeypatch, geometry, drive):
    """Run a null search on the conftest window, recording every kernel call."""
    seen = []
    for name in ("rect_field_sum", "rect_potential_sum"):
        real = getattr(kernels, name)

        def recorded(rects, volts, points, real=real):
            seen.append(np.array(points, dtype=float).reshape(-1, 3))
            return real(rects, volts, points)

        monkeypatch.setattr(kernels, name, recorded)
    minima = find_rf_minima(geometry, CA40, drive, NULL_WINDOW)
    assert len(minima) == 2
    return seen


def test_null_search_stays_above_plane(monkeypatch, geometry, drive):
    seen = _kernel_points(monkeypatch, geometry, drive)
    assert min(p[:, 2].min() for p in seen) > 0.0


def test_null_search_batches_kernel_calls(monkeypatch, geometry, drive):
    assert len(_kernel_points(monkeypatch, geometry, drive)) <= 100


def test_two_nulls_at_expected_height(rf_minima):
    assert len(rf_minima) == 2
    for m in rf_minima:
        # 125 um +- 20%
        assert 100e-6 < m.height < 150e-6
    # mirror pair across the center rail
    assert rf_minima[0].position[1] == pytest.approx(-rf_minima[1].position[1], abs=1e-7)


def test_null_separation(rf_minima):
    sep = rf_minima[1].position[1] - rf_minima[0].position[1]
    # 100 um +- 20%
    assert 80e-6 < sep < 120e-6
    # frozen reference from the null search: +-42.33 um at height 124.43 um
    assert abs(rf_minima[1].position[1]) == pytest.approx(42.33e-6, abs=0.1e-6)
    assert rf_minima[1].height == pytest.approx(124.43e-6, abs=0.1e-6)


def test_pseudopotential_zero_at_null(rf_minima, geometry, drive):
    for m in rf_minima:
        psi = pseudopotential(geometry, CA40, drive, np.array(m.position))
        # essentially zero against the ~1e-21 J scale of the surrounding barrier
        assert psi < 1e-4 * m.depth


def test_trap_depth_positive(rf_minima):
    for m in rf_minima:
        assert m.depth > 0
        # a working surface trap is tens of meV deep; sanity-bound it
        depth_mev = m.depth / 1.602176634e-19 * 1e3
        assert 1.0 < depth_mev < 1000.0


def test_radial_secular_frequency(rf_minima, geometry, drive):
    m = rf_minima[1]
    modes = secular_frequencies(geometry, CA40, drive, {}, np.array(m.position))
    freqs = np.array(modes.frequencies_hz)
    radial = np.sort(np.abs(freqs))[1:]  # axial (x) mode is ~0 for pure RF
    # 2.6 MHz +- 20%
    for f in radial:
        assert 2.08e6 < f < 3.12e6
    # frozen reference: 2.87 MHz from the independent curvature scan
    assert radial[0] == pytest.approx(2.87e6, rel=0.02)
    assert radial[1] == pytest.approx(2.87e6, rel=0.05)


def test_axial_mode_soft_for_pure_rf(rf_minima, geometry, drive):
    m = rf_minima[1]
    modes = secular_frequencies(geometry, CA40, drive, {}, np.array(m.position))
    freqs = np.sort(np.abs(np.array(modes.frequencies_hz)))
    # rails run +-2 mm in x; the axial curvature at the center is tiny
    assert freqs[0] < 0.05 * freqs[1]


def test_pseudopotential_formula(geometry, drive):
    pts = np.array([[0.0, 30e-6, 90e-6], [10e-6, -50e-6, 140e-6]])
    rf_volts = {i: drive.v0 for i in geometry.ids(role="rf")}
    e = field_at(geometry, rf_volts, pts)
    e2 = np.sum(e * e, axis=1)
    want = CA40.charge**2 * e2 / (4 * CA40.mass * drive.omega**2)
    got = pseudopotential(geometry, CA40, drive, pts)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_potential_is_superposition(geometry):
    pts = np.array([[0.0, 20e-6, 100e-6]])
    volts = {"DC18": 2.0, "CP1": -1.5}
    total = potential_at(geometry, volts, pts)[0]
    parts = 2.0 * basis_potential(geometry, "DC18", pts)[0] - 1.5 * basis_potential(
        geometry, "CP1", pts
    )[0]
    assert total == pytest.approx(parts, rel=1e-12)


def test_stray_field_sign_and_superposition(geometry):
    pt = np.array([0.0, 42.3e-6, 124.4e-6])
    applied = {"CP1": 0.7, "CP4": -0.2}
    reference = {"CP1": 0.5}
    got = stray_field(geometry, applied, reference, pt)
    want = -(
        (0.7 - 0.5) * np.asarray(basis_field(geometry, "CP1", pt))
        + (-0.2) * np.asarray(basis_field(geometry, "CP4", pt))
    )
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_stray_field_zero_when_compensated(geometry):
    pt = np.array([0.0, 42.3e-6, 124.4e-6])
    volts = {"CP2": 1.3}
    np.testing.assert_allclose(stray_field(geometry, volts, dict(volts), pt), 0.0)


def test_micromotion_chain_hand_values():
    drive = DriveParams.from_mhz(120.0, 17.0)
    omega_r = 2 * np.pi * 2.87e6
    rep = micromotion_index(100.0, omega_r, CA40, drive, k=2 * np.pi / 397e-9)
    d_want = CA40.charge * 100.0 / (CA40.mass * omega_r**2)
    q_want = 2 * np.sqrt(2) * omega_r / drive.omega
    assert rep.displacement == pytest.approx(d_want, rel=1e-12)
    assert rep.mathieu_q == pytest.approx(q_want, rel=1e-12)
    assert rep.amplitude == pytest.approx(q_want * d_want / 2, rel=1e-12)
    assert rep.beta == pytest.approx(2 * np.pi / 397e-9 * rep.amplitude, rel=1e-12)


def test_micromotion_chain_against_trajectory():
    # integrate the driven Mathieu equation and compare offset and sideband
    # amplitude with the first-order chain
    drive = DriveParams.from_mhz(120.0, 17.0)
    omega_r = 2 * np.pi * 2.0e6
    e_s = 100.0
    q = CA40.charge
    m = CA40.mass
    q_mathieu = 2 * np.sqrt(2) * omega_r / drive.omega
    grad = q_mathieu * m * drive.omega**2 / (2 * q)

    def rhs(t, y):
        x, v = y
        a = (q / m) * (e_s - grad * x * np.cos(drive.omega * t))
        return [v, a]

    # start at the static offset with zero velocity to suppress the secular
    # transient; integrate 40 RF cycles and analyze the last 30
    d = q * e_s / (m * omega_r**2)
    t_rf = 2 * np.pi / drive.omega
    sol = solve_ivp(
        rhs,
        (0.0, 40 * t_rf),
        [d, 0.0],
        rtol=1e-11,
        atol=1e-18,
        dense_output=True,
        max_step=t_rf / 50,
    )
    assert sol.success
    ts = np.linspace(10 * t_rf, 40 * t_rf, 6000)
    xs = sol.sol(ts)[0]

    mean = xs.mean()
    assert mean == pytest.approx(d, rel=0.05)

    # project the RF-synchronous component
    cos_amp = 2 * np.mean((xs - mean) * np.cos(drive.omega * ts))
    sin_amp = 2 * np.mean((xs - mean) * np.sin(drive.omega * ts))
    u_traj = np.hypot(cos_amp, sin_amp)
    rep = micromotion_index(e_s, omega_r, CA40, drive, k=1.0)
    assert u_traj == pytest.approx(abs(rep.amplitude), rel=0.05)


def test_geometry_rejects_overlaps():
    with pytest.raises(ValueError):
        TrapGeometry(
            electrodes=(
                Electrode(id="A", role="dc", rects=((0.0, 2e-6, 0.0, 2e-6),)),
                Electrode(id="B", role="dc", rects=((1e-6, 3e-6, 0.0, 2e-6),)),
            )
        )


def test_geometry_loader_units():
    g = geometry_from_dict(
        {
            "length_unit": "um",
            "electrodes": [
                {"id": "E1", "role": "rf", "rects": [[-10, 10, -5, 5]]},
            ],
        }
    )
    r = g.electrode("E1").rects[0]
    assert r == pytest.approx((-10e-6, 10e-6, -5e-6, 5e-6), rel=1e-12)


def test_builtin_geometry_shape(geometry):
    assert len(geometry.ids(role="rf")) == 3
    assert len(geometry.ids(role="dc")) == 70
    assert len(geometry.ids(role="comp")) == 6
    y, z = geometry.ion_axis
    assert z == pytest.approx(124.4e-6, abs=0.5e-6)
