"""Rectangle-sum kernel against independent numerical oracles.

The reference for the potential of a unit-voltage rectangle in a grounded
plane is the direct surface integral

    phi(r) = z / (2 pi) * integral dx' dy' / ((x-x')^2 + (y-y')^2 + z^2)^(3/2)

evaluated here with a tensor-product Gauss-Legendre rule, which is accurate
to ~1e-12 for the smooth integrands at z >= 20 um. The closed form under
test must agree everywhere above the plane.
"""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapqa.electrostatics import paper_trap_geometry
from trapqa.kernels import BACKEND, rect_np

GAUSS_N = 120


def oracle_potential(rect, point):
    x0, x1, y0, y1 = rect
    x, y, z = point
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_N)
    xs = 0.5 * (x1 - x0) * nodes + 0.5 * (x1 + x0)
    ys = 0.5 * (y1 - y0) * nodes + 0.5 * (y1 + y0)
    wx = 0.5 * (x1 - x0) * weights
    wy = 0.5 * (y1 - y0) * weights
    dx = x - xs[:, None]
    dy = y - ys[None, :]
    integrand = (dx**2 + dy**2 + z**2) ** -1.5
    val = (wx[:, None] * wy[None, :] * integrand).sum()
    return z / (2.0 * np.pi) * val


def _random_cases(rng, n):
    rects = np.empty((n, 4))
    pts = np.empty((n, 3))
    for k in range(n):
        x0, y0 = rng.uniform(-300e-6, 100e-6, 2)
        rects[k] = (x0, x0 + rng.uniform(20e-6, 400e-6), y0, y0 + rng.uniform(20e-6, 400e-6))
        pts[k] = (
            rng.uniform(-400e-6, 400e-6),
            rng.uniform(-400e-6, 400e-6),
            rng.uniform(20e-6, 300e-6),
        )
    return rects, pts


def test_potential_matches_surface_integral(rng):
    rects, pts = _random_cases(rng, 100)
    for rect, pt in zip(rects, pts):
        got = rect_np.rect_potential_sum(rect[None, :], np.array([1.0]), pt[None, :])[0]
        want = oracle_potential(rect, pt)
        assert got == pytest.approx(want, rel=1e-6)


def test_reference_point_square_patch():
    # unit-voltage square, half-side 50 um, straight above the center at 100 um
    rect = np.array([[-50e-6, 50e-6, -50e-6, 50e-6]])
    phi = rect_np.rect_potential_sum(rect, np.array([1.0]), np.array([[0.0, 0.0, 100e-6]]))[0]
    assert phi == pytest.approx(0.128188, abs=1e-5)


def test_field_is_minus_gradient(rng):
    rects, pts = _random_cases(rng, 60)
    volts = np.ones(1)
    h = 1e-9
    for rect, pt in zip(rects, pts):
        e = rect_np.rect_field_sum(rect[None, :], volts, pt[None, :])[0]
        for ax in range(3):
            step = np.zeros(3)
            step[ax] = h
            hi = rect_np.rect_potential_sum(rect[None, :], volts, (pt + step)[None, :])[0]
            lo = rect_np.rect_potential_sum(rect[None, :], volts, (pt - step)[None, :])[0]
            grad = (hi - lo) / (2 * h)
            assert -grad == pytest.approx(e[ax], rel=1e-6, abs=1e-4)


def test_laplace_equation(rng):
    # potential of any electrode set is harmonic above the plane
    rects, _ = _random_cases(rng, 6)
    volts = rng.uniform(-5, 5, len(rects))
    h = 0.5e-6
    for pt in np.array([[0, 0, 80e-6], [30e-6, -40e-6, 120e-6], [-100e-6, 60e-6, 60e-6]]):
        terms = []
        for ax in range(3):
            step = np.zeros(3)
            step[ax] = h
            hi = rect_np.rect_potential_sum(rects, volts, (pt + step)[None, :])[0]
            lo = rect_np.rect_potential_sum(rects, volts, (pt - step)[None, :])[0]
            mid = rect_np.rect_potential_sum(rects, volts, pt[None, :])[0]
            terms.append((hi - 2 * mid + lo) / h**2)
        # the three curvatures must cancel to finite-difference accuracy
        assert abs(sum(terms)) <= 1e-3 * max(1.0, max(abs(t) for t in terms))


def test_boundary_indicator():
    # as z -> 0+ the potential tends to V on the electrode and 0 off it
    rect = np.array([[-100e-6, 100e-6, -50e-6, 50e-6]])
    volts = np.array([2.0])
    inside = np.array([[0.0, 0.0, 1e-9]])
    outside = np.array([[250e-6, 0.0, 1e-9]])
    phi_in = rect_np.rect_potential_sum(rect, volts, inside)[0]
    phi_out = rect_np.rect_potential_sum(rect, volts, outside)[0]
    assert phi_in == pytest.approx(2.0, abs=1e-3)
    assert phi_out == pytest.approx(0.0, abs=1e-3)


def test_far_field_is_patch_dipole():
    # far above, the patch looks like z V A / (2 pi r^3)
    a, b = 30e-6, 20e-6
    rect = np.array([[-a / 2, a / 2, -b / 2, b / 2]])
    volts = np.array([1.0])
    z = 5e-3  # ~200 patch sizes away
    phi = rect_np.rect_potential_sum(rect, volts, np.array([[0.0, 0.0, z]]))[0]
    assert phi == pytest.approx(a * b / (2 * np.pi * z**2), rel=1e-3)


def test_backend_reports_something():
    assert BACKEND == "python"


def _trap_rects(rng):
    geometry = paper_trap_geometry()
    volts = {i: float(rng.uniform(-5, 5)) for i in geometry.ids()}
    return geometry.rect_arrays(volts)


def _trap_points(rng, n):
    return np.column_stack(
        [
            rng.uniform(-300e-6, 300e-6, n),
            rng.uniform(-200e-6, 200e-6, n),
            rng.uniform(20e-6, 300e-6, n),
        ]
    )


def test_blocked_batch_matches_point_calls(rng):
    rects, volts = _trap_rects(rng)
    block = rect_np._BLOCK_ELEMS // (4 * len(rects))
    assert block > 1
    for n in (1, block, 3 * block + 7):
        pts = _trap_points(rng, n)
        phi = rect_np.rect_potential_sum(rects, volts, pts)
        e = rect_np.rect_field_sum(rects, volts, pts)
        assert phi.shape == (n,) and e.shape == (n, 3)
        # BLAS may sum one row in another order than a block of rows, so
        # values that cancel to near zero agree to roundoff of the batch scale
        phi_tol = 1e-13 * np.abs(volts).max()
        e_tol = 1e-13 * np.abs(e).max()
        for k, pt in enumerate(pts):
            np.testing.assert_allclose(
                phi[k],
                rect_np.rect_potential_sum(rects, volts, pt[None, :])[0],
                rtol=1e-13,
                atol=phi_tol,
            )
            np.testing.assert_allclose(
                e[k], rect_np.rect_field_sum(rects, volts, pt[None, :])[0], rtol=1e-13, atol=e_tol
            )


_KERNELS = ("rect_potential_sum", "rect_field_sum", "rect_field_grad_sum", "rect_field_superpose")


def test_no_points_gives_empty_result():
    rect = np.array([[-50e-6, 50e-6, -50e-6, 50e-6]])
    assert rect_np.rect_potential_sum(rect, np.ones(1), np.zeros((0, 3))).shape == (0,)
    assert rect_np.rect_field_sum(rect, np.ones(1), np.zeros((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("kernel", _KERNELS)
def test_memory_is_bounded(rng, kernel):
    # an unblocked evaluation of this batch holds ~20 MB per temporary
    rects, volts = _trap_rects(rng)
    pts = _trap_points(rng, 8192)
    if kernel == "rect_field_superpose":
        rects = rects[:, None, :]
    tracemalloc.start()
    try:
        getattr(rect_np, kernel)(rects, volts, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("threads", [2, 4, 8, 64])
@pytest.mark.parametrize("kernel", _KERNELS)
def test_memory_is_bounded_on_threads(rng, monkeypatch, kernel, threads):
    # the threads share one block's elementwise scratch between them, and
    # the thread count is capped so that their whole-block sums stay bounded
    monkeypatch.setattr(rect_np, "_usable_cpus", lambda: threads)
    test_memory_is_bounded(rng, kernel)


def _every_kernel(rects, volts, pts):
    """The outputs of the four kernels, superpose with one group per rectangle."""
    return [
        rect_np.rect_potential_sum(rects, volts, pts),
        rect_np.rect_field_sum(rects, volts, pts),
        *rect_np.rect_field_grad_sum(rects, volts, pts),
        rect_np.rect_field_superpose(rects[:, None, :], volts, pts),
    ]


def test_threads_keep_the_bits(rng, monkeypatch):
    # BLAS sums a row differently in another block shape, so the threads
    # split the points at the block boundaries and only the elementwise
    # passes into sub-blocks; no output may change at any thread count
    rects, volts = _trap_rects(rng)
    block = rect_np._BLOCK_ELEMS // (4 * len(rects))
    for n in (1, block - 1, block, block + 1, 2 * block, 3 * block + 7, 32768):
        pts = _edge_points(rng, rects, n)
        monkeypatch.setattr(rect_np, "_usable_cpus", lambda: 1)
        want = _every_kernel(rects, volts, pts)
        for threads in (2, 3, 4):
            monkeypatch.setattr(rect_np, "_usable_cpus", lambda: threads)
            got = _every_kernel(rects, volts, pts)
            assert all(_same_bits(a, b) for a, b in zip(got, want)), (n, threads)


def _no_thread(*args, **kwargs):
    raise AssertionError("a kernel call started a thread")


def test_one_block_or_one_cpu_starts_no_thread(rng, monkeypatch):
    rects, volts = _trap_rects(rng)
    block = rect_np._BLOCK_ELEMS // (4 * len(rects))
    monkeypatch.setattr(rect_np.threading, "Thread", _no_thread)
    monkeypatch.setattr(rect_np, "_usable_cpus", lambda: 4)
    _every_kernel(rects, volts, _trap_points(rng, block))
    monkeypatch.setattr(rect_np, "_usable_cpus", lambda: 1)
    _every_kernel(rects, volts, _trap_points(rng, 3 * block + 7))


def test_sums_cap_the_thread_count(rng, monkeypatch):
    # each thread keeps a whole block's sums: 1, 3 and 8 per point and
    # rectangle, so with M = 79 at most 16, 5 and 2 threads hold 2 MB
    rects, volts = _trap_rects(rng)
    pts = _trap_points(rng, 40 * rect_np._BLOCK_ELEMS // (4 * len(rects)))
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(rect_np.threading, "Thread", Counted)
    monkeypatch.setattr(rect_np, "_usable_cpus", lambda: 64)
    for kernel, threads in zip(_KERNELS, (16, 5, 2, 5)):
        started.clear()
        getattr(rect_np, kernel)(rects[:, None, :] if kernel == _KERNELS[3] else rects, volts, pts)
        assert len(started) == threads - 1, kernel


def test_worker_exception_reaches_the_caller(rng, monkeypatch):
    rects, volts = _trap_rects(rng)
    pts = _trap_points(rng, 2 * rect_np._BLOCK_ELEMS // (4 * len(rects)))
    put_field = rect_np._put_field

    def fail_off_the_calling_thread(b, volts, out):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        put_field(b, volts, out)

    monkeypatch.setattr(rect_np, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(rect_np, "_put_field", fail_off_the_calling_thread)
    running = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        rect_np.rect_field_sum(rects, volts, pts)
    assert threading.active_count() == running


# 3 x 3 abutting cells of 100 um: a gapless plane without overlaps
_CELL_EDGES = np.array([-150e-6, -50e-6, 50e-6, 150e-6])
_CELLS = np.array(
    [
        [_CELL_EDGES[i], _CELL_EDGES[i + 1], _CELL_EDGES[j], _CELL_EDGES[j + 1]]
        for i in range(3)
        for j in range(3)
    ]
)


@settings(max_examples=200, deadline=None)
@given(
    volts=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=9, max_size=9),
    x_um=st.floats(min_value=-400.0, max_value=400.0),
    y_um=st.floats(min_value=-400.0, max_value=400.0),
    z_um=st.floats(min_value=1e-3, max_value=1e3),
)
def test_maximum_principle(volts, x_um, y_um, z_um):
    # a harmonic potential above the plane is bounded by its boundary values
    volts = np.array(volts)
    pt = np.array([[x_um, y_um, z_um]]) * 1e-6
    phi = rect_np.rect_potential_sum(_CELLS, volts, pt)[0]
    bound = np.abs(volts).max()
    assert abs(phi) <= bound * (1.0 + 1e-12) + 1e-300


@settings(max_examples=50, deadline=None)
@given(
    scale=st.floats(min_value=-20, max_value=20, allow_nan=False).filter(lambda s: abs(s) > 1e-3)
)
def test_potential_is_linear_in_voltage(scale):
    rects = np.array([[-50e-6, 80e-6, -30e-6, 40e-6], [100e-6, 200e-6, -60e-6, -10e-6]])
    pts = np.array([[10e-6, 5e-6, 70e-6], [-20e-6, 12e-6, 150e-6]])
    base = rect_np.rect_potential_sum(rects, np.array([1.0, -2.0]), pts)
    scaled = rect_np.rect_potential_sum(rects, scale * np.array([1.0, -2.0]), pts)
    np.testing.assert_allclose(scaled, scale * base, rtol=1e-12, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    z_um=st.floats(min_value=10.0, max_value=500.0, allow_nan=False),
    x_um=st.floats(min_value=-300.0, max_value=300.0, allow_nan=False),
)
def test_superposition_of_disjoint_rects(z_um, x_um):
    # a rectangle split in two halves must reproduce the whole
    whole = np.array([[-100e-6, 100e-6, -50e-6, 50e-6]])
    halves = np.array([[-100e-6, 0.0, -50e-6, 50e-6], [0.0, 100e-6, -50e-6, 50e-6]])
    pt = np.array([[x_um * 1e-6, 7e-6, z_um * 1e-6]])
    a = rect_np.rect_potential_sum(whole, np.array([3.0]), pt)[0]
    b = rect_np.rect_potential_sum(halves, np.array([3.0, 3.0]), pt)[0]
    assert a == pytest.approx(b, rel=1e-10, abs=1e-14)


def test_superpose_with_volts_matches_field_sum(rng):
    # the same sum as rect_field_sum, added in rectangle order instead of BLAS
    rects, volts = _trap_rects(rng)
    block = rect_np._BLOCK_ELEMS // (4 * len(rects))
    for n in (1, block, 3 * block + 7):
        pts = _trap_points(rng, n)
        e = rect_np.rect_field_sum(rects, volts, pts)
        got = rect_np.rect_field_superpose(rects[:, None, :], volts, pts)
        assert got.shape == (n, 3)
        np.testing.assert_allclose(got, e, rtol=1e-13, atol=1e-13 * np.abs(e).max())


def test_superpose_adds_terms_in_rectangle_order(rng):
    rects, volts = _trap_rects(rng)
    pts = _trap_points(rng, 40)
    total = np.zeros((len(pts), 3))
    for rect, v in zip(rects, volts):
        total += v * rect_np.rect_field_sum(rect[None, :], np.ones(1), pts)
    assert np.array_equal(rect_np.rect_field_superpose(rects[:, None, :], volts, pts), total)


def test_superpose_groups_sum_rectangles_before_weighting(rng):
    # the two halves of a rectangle, grouped, weigh in as the whole
    whole = np.array([[-100e-6, 100e-6, -50e-6, 50e-6], [150e-6, 250e-6, -50e-6, 50e-6]])
    halves = [[(-100e-6, 0.0, -50e-6, 50e-6), (0.0, 100e-6, -50e-6, 50e-6)], [whole[1]]]
    pts = _trap_points(rng, 30)
    w = np.array([0.3, -1.7])
    want = rect_np.rect_field_superpose(whole[:, None, :], w, pts)
    got = rect_np.rect_field_superpose(halves, w, pts)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def test_superpose_of_nothing_is_zero():
    pts = np.array([[0.0, 0.0, 1e-4], [1e-5, 0.0, 2e-4]])
    assert np.array_equal(rect_np.rect_field_superpose([], [], pts), np.zeros((2, 3)))


@pytest.mark.parametrize(
    "groups, weights",
    [([[(0.0, 1e-4, 0.0, 1e-4)]], [1.0, 2.0]), ([[(0.0, 1e-4, 0.0, 1e-4)], []], [1.0, 2.0])],
    ids=["weight_count", "empty_group"],
)
def test_superpose_rejects_bad_groups(groups, weights):
    with pytest.raises(ValueError):
        rect_np.rect_field_superpose(groups, weights, np.array([[0.0, 0.0, 1e-4]]))


_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])  # (-1)^(i+j) over the four corners


def _per_rect(terms):
    """Signed sum of the four corner terms of each rectangle, (n, M), from
    corner terms flattened as (x1, y1), (x1, y2), (x2, y1), (x2, y2)."""
    return np.einsum("nmc,c->nm", terms.reshape(len(terms), -1, 4), _SIGNS)


def _plain_terms(rects, points):
    """Per block of the kernels: its slice and the per-rectangle sums of the
    corner terms of phi, d/dX, d/dY, d/dz and d2/dXdY, dX^2, dY^2, dXdz, dYdz:
    the formulas of the module docstring as plain numpy expressions over flat
    (n, 4M) corner arrays."""
    xs, ys = rects[:, [0, 0, 1, 1]].ravel(), rects[:, [2, 3, 2, 3]].ravel()
    block = rect_np._BLOCK_ELEMS // xs.size
    for s in range(0, len(points), block):
        p = points[s : s + block]
        X, Y, z = xs - p[:, 0:1], ys - p[:, 1:2], p[:, 2:3]
        z2 = z**2
        r2 = X**2 + Y**2 + z2
        r = np.sqrt(r2)
        xz, yz = X**2 + z2, Y**2 + z2
        r3 = r * r2
        ra, rb = r3 * xz**2, r3 * yz**2
        zxy, xy2, zr = z * X * Y, X**2 + Y**2, 2.0 * z2 * r2
        terms = [
            np.arctan2(X * Y, z * r),
            z * Y / (r * xz),
            z * X / (r * yz),
            -X * Y * (r2 + z2) / (r * xz * yz),
            z / r3,
            -zxy * (xz + 2.0 * r2) / ra,
            -zxy * (yz + 2.0 * r2) / rb,
            Y * (xz * xy2 - zr) / ra,
            X * (yz * xy2 - zr) / rb,
        ]
        yield slice(s, s + block), [_per_rect(t) for t in terms]


def _plain_sums(rects, volts, points):
    """Reference for phi, E and grad E."""
    n = len(points)
    phi, e, grad = np.empty(n), np.empty((n, 3)), np.empty((n, 3, 3))
    for s, (t_phi, dX, dY, dz, *d2) in _plain_terms(rects, points):
        phi[s] = t_phi @ volts / (2 * np.pi)
        e[s, 0] = dX @ volts / (2 * np.pi)
        e[s, 1] = dY @ volts / (2 * np.pi)
        e[s, 2] = -(dz @ volts) / (2 * np.pi)
        dxy, dxx, dyy, dxz, dyz = np.stack(d2) @ volts / (2 * np.pi)
        g = grad[s]
        g[:, 0, 0], g[:, 1, 1] = -dxx, -dyy
        g[:, 2, 2] = -(g[:, 0, 0] + g[:, 1, 1])
        g[:, 0, 1] = g[:, 1, 0] = -dxy
        g[:, 0, 2] = g[:, 2, 0] = dxz
        g[:, 1, 2] = g[:, 2, 1] = dyz
    return phi, e, grad


def _plain_superpose(groups, weights, points):
    """Reference for rect_field_superpose."""
    rects = np.array([r for g in groups for r in g])
    starts = np.cumsum([0] + [len(g) for g in groups][:-1])
    out = np.zeros((len(points), 3))
    for s, terms in _plain_terms(rects, points):
        dX, dY, dz = (np.add.reduceat(t, starts, axis=1) for t in terms[1:4])
        out[s, 0] += np.cumsum(weights * (dX / (2 * np.pi)), axis=1)[:, -1]
        out[s, 1] += np.cumsum(weights * (dY / (2 * np.pi)), axis=1)[:, -1]
        out[s, 2] += np.cumsum(weights * (-dz / (2 * np.pi)), axis=1)[:, -1]
    return out


def _edge_points(rng, rects, n):
    """Trap points, about a third of them with x exactly on a rectangle's x
    edge and a third with y on a y edge, where corner terms are +-0; the
    first point sits on a corner."""
    pts = _trap_points(rng, n)
    k = rng.integers(0, len(rects), n)
    on_x, on_y = rng.random(n) < 1 / 3, rng.random(n) < 1 / 3
    on_x[0] = on_y[0] = True
    pts[on_x, 0] = rects[k[on_x], rng.integers(0, 2, on_x.sum())]
    pts[on_y, 1] = rects[k[on_y], rng.integers(2, 4, on_y.sum())]
    return pts


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_corner_sum_is_the_einsum_sum(rng):
    # zeros of either sign and cancelling pairs are where a change in the
    # order of the corner sum would show
    n, m = 50, 7
    t = rng.standard_normal((2, 2, n, m)) * 10.0 ** rng.integers(-30, 30, (2, 2, n, m))
    t[rng.random(t.shape) < 0.2] = 0.0
    t[rng.random(t.shape) < 0.2] = -0.0
    for i, j in ((1, 0), (1, 1)):
        pair = rng.random((n, m)) < 0.2
        t[i, j][pair] = t[0, j][pair]
    flat = t.transpose(2, 3, 0, 1).reshape(n, 4 * m)  # corner (i, j) at column 4 m + 2 i + j
    assert _same_bits(rect_np._corner_sum(t), _per_rect(flat))


def test_blocked_kernels_match_plain_expressions(rng):
    # the kernels share per-edge terms and write into per-call scratch
    # arrays; every output must stay that of the plain expressions, bit for
    # bit, signed zeros included
    rects, volts = _trap_rects(rng)
    groups = [rects[i : i + 3] for i in range(0, len(rects), 3)]
    weights = rng.uniform(-2.0, 2.0, len(groups))
    block = rect_np._BLOCK_ELEMS // (4 * len(rects))
    for n in (1, 64, 3 * block + 7):
        pts = _edge_points(rng, rects, n)
        phi, e, grad = _plain_sums(rects, volts, pts)
        assert _same_bits(rect_np.rect_potential_sum(rects, volts, pts), phi)
        assert _same_bits(rect_np.rect_field_sum(rects, volts, pts), e)
        got_e, got_grad = rect_np.rect_field_grad_sum(rects, volts, pts)
        assert _same_bits(got_e, e) and _same_bits(got_grad, grad)
        got = rect_np.rect_field_superpose(groups, weights, pts)
        assert _same_bits(got, _plain_superpose(groups, weights, pts))


def _grad_case(rng, n):
    rects, volts = _trap_rects(rng)
    pts = _trap_points(rng, n)
    return rects, volts, pts, *rect_np.rect_field_grad_sum(rects, volts, pts)


def test_field_gradient_is_traceless_and_symmetric(rng):
    # Laplace: div E = 0 above the plane; and dE_i/dx_j = dE_j/dx_i
    *_, e, grad = _grad_case(rng, 500)
    assert grad.shape == (500, 3, 3)
    trace = np.trace(grad, axis1=1, axis2=2)
    assert np.all(np.abs(trace) <= 1e-12 * np.abs(grad).max(axis=(1, 2)))
    assert np.array_equal(grad, grad.transpose(0, 2, 1))


def test_field_gradient_matches_central_differences(rng):
    rects, volts, pts, _, grad = _grad_case(rng, 200)
    h = 5e-10
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        fd = (
            rect_np.rect_field_sum(rects, volts, pts + step)
            - rect_np.rect_field_sum(rects, volts, pts - step)
        ) / (2 * h)
        err = np.abs(fd - grad[:, :, j]).max(axis=1)
        assert np.all(err <= 1e-8 * np.abs(grad).max(axis=(1, 2)))


def test_field_gradient_field_is_field_sum(rng):
    # the field part is the field kernel's arithmetic over the same blocks
    rects, volts = _trap_rects(rng)
    pts = _trap_points(rng, 3 * (rect_np._BLOCK_ELEMS // (4 * len(rects))) + 7)
    e, _ = rect_np.rect_field_grad_sum(rects, volts, pts)
    assert np.array_equal(e, rect_np.rect_field_sum(rects, volts, pts))


def test_field_gradient_blocked_batch_matches_point_calls(rng):
    rects, volts = _trap_rects(rng)
    block = rect_np._BLOCK_ELEMS // (4 * len(rects))
    for n in (1, block, 3 * block + 7):
        pts = _trap_points(rng, n)
        e, grad = rect_np.rect_field_grad_sum(rects, volts, pts)
        assert e.shape == (n, 3) and grad.shape == (n, 3, 3)
        # as for the field: BLAS may sum a row in another order within a block
        e_tol, g_tol = 1e-13 * np.abs(e).max(), 1e-13 * np.abs(grad).max()
        for k, pt in enumerate(pts):
            e1, g1 = rect_np.rect_field_grad_sum(rects, volts, pt[None, :])
            np.testing.assert_allclose(e[k], e1[0], rtol=1e-13, atol=e_tol)
            np.testing.assert_allclose(grad[k], g1[0], rtol=1e-13, atol=g_tol)


def test_field_gradient_of_no_points_is_empty():
    rect = np.array([[-50e-6, 50e-6, -50e-6, 50e-6]])
    e, grad = rect_np.rect_field_grad_sum(rect, np.ones(1), np.zeros((0, 3)))
    assert e.shape == (0, 3) and grad.shape == (0, 3, 3)
