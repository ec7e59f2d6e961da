"""Trap electrostatics on the bundled geometry, plus dynamics oracles.

The micromotion chain (displacement -> Mathieu drive parameter -> driven
amplitude -> modulation index) is checked against direct integration of the
equation of motion in a 1D RF quadrupole with a constant push:

    x'' = (q/m) * (E_s - G x cos(Omega t))

whose driven steady state, to first order in the Mathieu parameter, has mean
offset d = q E_s / (m w_r^2) and amplitude u = q_M d / 2 at the drive
frequency.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import optimize
from scipy.integrate import solve_ivp

from trapqa import kernels
from trapqa.core import CA40, DriveParams
from trapqa.diagnosis import FaultScenario, axial_potential
from trapqa.electrostatics import (
    Electrode,
    TrapGeometry,
    field_at,
    field_gradient_at,
    find_rf_minima,
    geometry_from_dict,
    micromotion_index,
    paper_trap_geometry,
    potential_at,
    pseudopotential,
    secular_frequencies,
    stray_field,
)
from trapqa.kernels import rect_np


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
        (NULL_WINDOW, 1.99e-3),  # near the ends of the rails
        (((-150e-6, 150e-6), (10e-9, 250e-6)), 0.0),  # seeds down to 10 nm
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
    for name in ("rect_field_sum", "rect_potential_sum", "rect_field_grad_sum"):
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


def test_null_search_retires_stalled_seeds(monkeypatch, geometry, drive):
    # seeds on the symmetry axis y = 0 wander along it without converging;
    # retired once stalled, they no longer stretch the search
    assert len(_kernel_points(monkeypatch, geometry, drive)) <= 30


def test_starved_null_search_refuses(monkeypatch, geometry, drive):
    # two iterations leave 119 of 121 seeds moving: no null found is not "no null"
    from trapqa.electrostatics import minima

    monkeypatch.setattr(minima, "_MAX_ITER", 2)
    with pytest.raises(ValueError, match="119 seeds still active after 2 iterations"):
        find_rf_minima(geometry, CA40, drive, NULL_WINDOW)


@pytest.mark.parametrize(
    "window",
    [((400e-6, 700e-6), (40e-6, 250e-6)), ((-150e-6, 150e-6), (300e-6, 600e-6))],
    ids=["beside_the_nulls", "above_the_nulls"],
)
def test_null_free_window_gives_no_null(geometry, drive, window):
    # every seed retires before the iteration limit, so [] is the answer
    assert find_rf_minima(geometry, CA40, drive, window) == []


def test_conftest_nulls_keep_their_bits(rf_minima):
    frozen = [
        ("-0x1.6318c9cdb8e62p-15", "0x1.04f4f48eba891p-13", "0x1.a54136056b5bbp-66"),
        ("0x1.6318c9cdb8e61p-15", "0x1.04f4f48eba892p-13", "0x1.a54136056b5bap-66"),
    ]
    assert [(m.position[1].hex(), m.position[2].hex(), m.depth.hex()) for m in rf_minima] == frozen


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


def _hessian(f, point: np.ndarray, h: float) -> np.ndarray:
    """3x3 Hessian by central differences with step ``h``."""
    H = np.empty((3, 3))
    f0 = f(point)
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = h
        H[i, i] = (f(point + ei) - 2.0 * f0 + f(point - ei)) / h**2
        for j in range(i + 1, 3):
            ej = np.zeros(3)
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(point + ei + ej) - f(point + ei - ej) - f(point - ei + ej) + f(point - ei - ej)
            ) / (4.0 * h**2)
    return H


def reference_curvature(geometry, drive, dc_voltages, point, step=10e-9):
    """Scalar reference for ``secular_frequencies``: the Hessian of the total
    potential (pseudopotential plus q times the static potential) from
    one-point calls, by central differences at ``step`` and ``step / 2``,
    Richardson-combined."""
    pt = np.asarray(point, dtype=float)

    def u(p):
        psi = pseudopotential(geometry, CA40, drive, p)
        return psi + CA40.charge * potential_at(geometry, dc_voltages, p)

    return (4.0 * _hessian(u, pt, step / 2.0) - _hessian(u, pt, step)) / 3.0


def mode_curvature(modes):
    """The Hessian a ``SecularModes`` was diagonalized from."""
    w = np.array(modes.omegas)
    return modes.axes @ np.diag(np.sign(w) * w**2 * CA40.mass) @ modes.axes.T


# a DC well at the trap center (the diagnosis tests' well) and a point off
# the RF null where it matters
DC_WELL = {"DC17": 1.0, "DC18": -2.0, "DC19": 1.0, "DC52": 1.0, "DC53": -2.0, "DC54": 1.0}
OFF_NULL = np.array([20e-6, 45e-6, 120e-6])


def _curvature_cases(rf_minima):
    return [({}, np.array(m.position)) for m in rf_minima] + [(DC_WELL, OFF_NULL)]


def test_secular_curvature_matches_scalar_reference(rf_minima, geometry, drive):
    for dc, pt in _curvature_cases(rf_minima):
        got = mode_curvature(secular_frequencies(geometry, CA40, drive, dc, pt))
        want = reference_curvature(geometry, drive, dc, pt)
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_secular_frequencies_independent_of_electrode_order(geometry, drive):
    # the sums run in another order; a finite-difference Hessian moved ~5e-8
    reversed_geometry = TrapGeometry(tuple(reversed(geometry.electrodes)))
    a = secular_frequencies(geometry, CA40, drive, DC_WELL, OFF_NULL)
    b = secular_frequencies(reversed_geometry, CA40, drive, DC_WELL, OFF_NULL)
    np.testing.assert_allclose(b.omegas, a.omegas, rtol=1e-10)


def _count_kernel_calls(monkeypatch):
    calls = []
    names = ("rect_potential_sum", "rect_field_sum", "rect_field_grad_sum", "rect_field_superpose")
    for name in names:
        real = getattr(kernels, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    return calls


def test_secular_frequencies_make_two_kernel_calls(monkeypatch, geometry, drive):
    calls = _count_kernel_calls(monkeypatch)
    secular_frequencies(geometry, CA40, drive, DC_WELL, OFF_NULL)
    assert len(calls) <= 2
    del calls[:]
    secular_frequencies(geometry, CA40, drive, {}, OFF_NULL)
    assert len(calls) == 1


def test_secular_frequencies_close_to_the_plane(geometry, drive):
    # 8 nm above the plane is inside the half space; no difference point
    # may leave it
    pt = np.array([0.0, 42e-6, 8e-9])
    modes = secular_frequencies(geometry, CA40, drive, DC_WELL, pt)
    assert np.all(np.isfinite(modes.omegas))
    finer = secular_frequencies(geometry, CA40, drive, DC_WELL, pt, step=1e-12)
    np.testing.assert_allclose(mode_curvature(modes), mode_curvature(finer), rtol=1e-6)


@pytest.mark.parametrize("z", [0.0, -1e-6, np.nan])
def test_secular_frequencies_refuse_the_caller_point(geometry, drive, z):
    with pytest.raises(ValueError, match=r"point \(0, 42, (0|-1|nan)\) um"):
        secular_frequencies(geometry, CA40, drive, {}, np.array([0.0, 42e-6, z]))


def test_field_gradient_at_matches_field_at(geometry, rng):
    volts = {"DC18": 2.0, "CP1": -1.5, "RF1": 100.0}
    pts = np.column_stack([rng.uniform(-1e-4, 1e-4, (5, 2)), rng.uniform(40e-6, 250e-6, 5)])
    e, grad = field_gradient_at(geometry, volts, pts)
    assert np.array_equal(e, field_at(geometry, volts, pts))
    assert grad.shape == (5, 3, 3)
    e1, g1 = field_gradient_at(geometry, volts, pts[0])
    assert e1.shape == (3,) and g1.shape == (3, 3)
    e0, g0 = field_gradient_at(geometry, {}, pts)
    assert not e0.any() and not g0.any() and g0.shape == (5, 3, 3)


@pytest.mark.parametrize("volts", [{}, {"DC18": 0.0, "RF1": 0.0}], ids=["none", "all_zero"])
def test_no_driven_electrode_gives_positive_zeros(geometry, volts):
    pts = np.array([[0.0, 42e-6, 124e-6], [-3e-5, 1e-5, 8e-5]])

    def results(p):
        e, grad = field_gradient_at(geometry, volts, p)
        return [potential_at(geometry, volts, p), field_at(geometry, volts, p), e, grad]

    batch, one = results(pts), results(pts[0])
    assert type(one[0]) is float
    for got, shape in zip(batch + one, [(2,), (2, 3), (2, 3), (2, 3, 3), (), (3,), (3,), (3, 3)]):
        assert np.shape(got) == shape
        assert not np.any(got) and not np.signbit(got).any()


@pytest.mark.parametrize("z", [0.0, -1e-6, np.inf])
def test_field_gradient_at_refuses_points_off_the_half_space(geometry, z):
    with pytest.raises(ValueError, match="outside the half space"):
        field_gradient_at(geometry, {"DC18": 1.0}, np.array([[0.0, 0.0, 1e-4], [0.0, 0.0, z]]))


def test_only_a_3_vector_is_a_single_point(geometry):
    # an empty or flat array is a batch of points, not one point
    volts = {"DC18": 1.0}
    assert potential_at(geometry, volts, np.empty(0)).shape == (0,)
    assert field_at(geometry, volts, np.empty(0)).shape == (0, 3)
    pts = np.array([[0.0, 0.0, 1e-4], [1e-5, 2e-5, 8e-5]])
    assert np.array_equal(potential_at(geometry, volts, pts.ravel()), potential_at(geometry, volts, pts))
    assert np.array_equal(field_at(geometry, volts, pts.ravel()), field_at(geometry, volts, pts))
    assert potential_at(geometry, volts, pts[1]) == potential_at(geometry, volts, pts)[1]
    assert field_at(geometry, volts, pts[1]).shape == (3,)


# one 100 um pad, and a point 1 um above its center, where it subtends
# almost 2 pi: at 1e308 V every result there overflows
_PAD = TrapGeometry(electrodes=(Electrode("E1", "dc", ((-50e-6, 50e-6, -50e-6, 50e-6),)),))
_LOW = (0.0, 0.0, 1e-6)
_EVALUATE = {
    "potential_at": lambda v: potential_at(_PAD, {"E1": v}, _LOW),
    "field_at": lambda v: field_at(_PAD, {"E1": v}, _LOW),
    "field_gradient_at": lambda v: field_gradient_at(_PAD, {"E1": v}, _LOW),
    "stray_field": lambda v: stray_field(_PAD, {"E1": v}, {}, _LOW),
    "axial_potential": lambda v: axial_potential(_PAD, {"E1": v}, FaultScenario("NOMINAL"), 1.0, _LOW[1:])(0.0),
}


@pytest.mark.parametrize(
    "name, volts",
    [(name, 1e308) for name in _EVALUATE] + [("potential_at", v) for v in (np.nan, np.inf, -np.inf)],
)
def test_a_result_that_is_not_finite_is_refused(name, volts):
    # pyproject turns numpy's RuntimeWarning into an error: the refusal must not warn
    _EVALUATE[name](1.0)
    with pytest.raises(ValueError, match="is not finite"):
        _EVALUATE[name](volts)


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
    parts = 2.0 * potential_at(geometry, {"DC18": 1.0}, pts)[0] - 1.5 * potential_at(
        geometry, {"CP1": 1.0}, pts
    )[0]
    assert total == pytest.approx(parts, rel=1e-12)


def test_stray_field_sign_and_superposition(geometry):
    pt = np.array([0.0, 42.3e-6, 124.4e-6])
    applied = {"CP1": 0.7, "CP4": -0.2}
    reference = {"CP1": 0.5}
    got = stray_field(geometry, applied, reference, pt)
    want = -(
        (0.7 - 0.5) * np.asarray(field_at(geometry, {"CP1": 1.0}, pt))
        + (-0.2) * np.asarray(field_at(geometry, {"CP4": 1.0}, pt))
    )
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_stray_field_zero_when_compensated(geometry):
    pt = np.array([0.0, 42.3e-6, 124.4e-6])
    volts = {"CP2": 1.3}
    np.testing.assert_allclose(stray_field(geometry, volts, dict(volts), pt), 0.0)


def reference_stray(geometry, applied, reference, points):
    """Scalar reference for ``stray_field``: one ``field_at`` call per
    electrode, at 1 V on that electrode alone, accumulated in sorted-id
    order."""
    pts = np.asarray(points, dtype=float)
    total = np.zeros((len(pts), 3))
    for eid in sorted(set(applied) | set(reference)):
        dv = applied.get(eid, 0.0) - reference.get(eid, 0.0)
        if dv == 0.0:
            continue
        total += dv * np.atleast_2d(field_at(geometry, {eid: 1.0}, pts))
    return -total


def _stray_case(rng, geometry, n):
    """Seeded points near the axis and a compensation set on every DC and
    compensation electrode, against a reference with some equal entries."""
    ids = geometry.ids(role="dc") + geometry.ids(role="comp")
    applied = {i: float(rng.uniform(-0.1, 0.1)) for i in ids}
    reference = {i: float(rng.uniform(-0.1, 0.1)) for i in ids[::3]}
    reference.update({i: applied[i] for i in ids[1::7]})  # dv == 0: skipped
    pts = np.column_stack(
        [
            rng.uniform(-300e-6, 300e-6, n),
            rng.uniform(-100e-6, 100e-6, n),
            rng.uniform(40e-6, 250e-6, n),
        ]
    )
    return applied, reference, pts


def _stray_block(geometry):
    """Points per kernel block when every DC and compensation pad moves."""
    n_rects = len(geometry.ids(role="dc") + geometry.ids(role="comp"))
    return rect_np._BLOCK_ELEMS // (4 * n_rects)


@pytest.mark.parametrize("size", ["point", "line", "blocks"])
def test_stray_field_matches_basis_field_loop(geometry, rng, size):
    n = {"point": 1, "line": 64, "blocks": 3 * _stray_block(geometry) + 7}[size]
    applied, reference, pts = _stray_case(rng, geometry, n)
    got = stray_field(geometry, applied, reference, pts)
    assert np.array_equal(got, reference_stray(geometry, applied, reference, pts))
    one = stray_field(geometry, applied, reference, pts[0])
    assert np.array_equal(one, reference_stray(geometry, applied, reference, pts[:1])[0])


@pytest.mark.parametrize("size", ["line", "blocks"])
def test_stray_line_is_its_points(monkeypatch, geometry, rng, size):
    # the benchmark times lines, the CLI writes one --point: each row of a
    # line must be that point's own field, bit for bit, in every block shape
    if size == "blocks":
        monkeypatch.setattr(rect_np, "_usable_cpus", lambda: 2)
    n = {"line": 64, "blocks": 3 * _stray_block(geometry)}[size]
    applied, reference, pts = _stray_case(rng, geometry, n)
    line = stray_field(geometry, applied, reference, pts)
    points = np.array([stray_field(geometry, applied, reference, p) for p in pts])
    assert np.array_equal(line, points) and np.array_equal(np.signbit(line), np.signbit(points))


def _split_pads(geometry):
    """The bundled geometry with every other DC and compensation pad cut in
    two rectangles along x."""
    electrodes = []
    for k, e in enumerate(geometry.electrodes):
        if e.role in ("dc", "comp") and k % 2:
            (x1, x2, y1, y2), xm = e.rects[0], 0.5 * (e.rects[0][0] + e.rects[0][1])
            e = Electrode(e.id, e.role, ((x1, xm, y1, y2), (xm, x2, y1, y2)))
        electrodes.append(e)
    return TrapGeometry(tuple(electrodes))


def test_stray_field_with_multi_rectangle_electrodes(geometry, rng):
    split = _split_pads(geometry)
    for n in (1, 64, 3 * _stray_block(split) + 7):
        applied, reference, pts = _stray_case(rng, split, n)
        got = stray_field(split, applied, reference, pts)
        want = reference_stray(split, applied, reference, pts)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_stray_field_unknown_electrode(geometry):
    pt = np.array([0.0, 42.3e-6, 124.4e-6])
    with pytest.raises(KeyError, match="NOPE"):
        stray_field(geometry, {"CP1": 0.1, "NOPE": 0.2}, {}, pt)
    # an unknown id whose voltage does not differ is skipped, as before
    got = stray_field(geometry, {"CP1": 0.1, "NOPE": 0.2}, {"NOPE": 0.2}, pt)
    np.testing.assert_array_equal(got, stray_field(geometry, {"CP1": 0.1}, {}, pt))


def test_stray_field_is_one_kernel_call(monkeypatch, geometry, rng):
    calls = _count_kernel_calls(monkeypatch)
    applied, reference, pts = _stray_case(rng, geometry, 64)
    stray_field(geometry, applied, reference, pts)
    stray_field(geometry, applied, reference, pts[0])
    assert calls == ["rect_field_superpose"] * 2


def test_stray_field_memory_is_bounded(geometry, rng):
    # 8192 points x 76 electrodes unblocked: ~20 MB per corner temporary
    applied, reference, pts = _stray_case(rng, geometry, 8192)
    tracemalloc.start()
    try:
        stray_field(geometry, applied, reference, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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


_DRIVE = DriveParams.from_mhz(100.0, 20.0)
_DC_ONLY = TrapGeometry(electrodes=(Electrode("D1", "dc", ((-1e-4, 1e-4, -1e-4, 1e-4),)),))


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: find_rf_minima(paper_trap_geometry(), CA40, _DRIVE, ((1e-4, -1e-4), (50e-6, 150e-6))),
                     "window must be (y_lo < y_hi, 0 < z_lo < z_hi)", id="minima_y_reversed"),
        pytest.param(lambda: find_rf_minima(paper_trap_geometry(), CA40, _DRIVE, ((-1e-4, 1e-4), (0.0, 150e-6))),
                     "window must be (y_lo < y_hi, 0 < z_lo < z_hi)", id="minima_z_at_plane"),
        pytest.param(lambda: find_rf_minima(paper_trap_geometry(), CA40, _DRIVE, ((-1e-4, 1e-4), (150e-6, 50e-6))),
                     "window must be (y_lo < y_hi, 0 < z_lo < z_hi)", id="minima_z_reversed"),
        pytest.param(lambda: micromotion_index(1.0, 0.0, CA40, _DRIVE, 1e7),
                     "omega_radial must be finite and above zero, got 0.0",
                     id="micromotion_omega_zero"),
        pytest.param(lambda: micromotion_index(1.0, -1e6, CA40, _DRIVE, 1e7),
                     "omega_radial must be finite and above zero, got -1000000.0",
                     id="micromotion_omega_negative"),
        pytest.param(lambda: pseudopotential(_DC_ONLY, CA40, _DRIVE, [[0.0, 0.0, 1e-4]]),
                     "geometry has no RF electrodes", id="pseudopotential_no_rf"),
    ],
)
def test_solvers_refuse_input_outside_their_domain(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
