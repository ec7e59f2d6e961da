"""Numpy rectangle potential/field kernels, evaluated in bounded point blocks.

In the gapless-plane approximation a rectangle ``[x1, x2] x [y1, y2]`` held at
voltage ``V`` in the ``z = 0`` plane (everything else grounded) produces, in
the half space ``z > 0``, the potential

    phi(r) = V / (2 pi) * sum_{i,j in {1,2}} (-1)^(i+j)
             * atan2((x_i - x) (y_j - y), z * r_ij)

with ``r_ij = sqrt((x_i - x)^2 + (y_j - y)^2 + z^2)``: the solid angle the
rectangle subtends at the field point divided by ``2 pi``. The field follows
from the analytic gradient, with per-corner terms

    d(atan)/dX =  z Y / (r (X^2 + z^2))
    d(atan)/dY =  z X / (r (Y^2 + z^2))
    d(atan)/dz = -X Y (r^2 + z^2) / (r (X^2 + z^2) (Y^2 + z^2))

where ``X = x_i - x`` and ``Y = y_j - y``. The field gradient takes the
second derivatives, with ``a = X^2 + z^2``, ``b = Y^2 + z^2`` and
``r^2 = X^2 + Y^2 + z^2``:

    d2(atan)/dX dY =  z / r^3
    d2(atan)/dX^2  = -z X Y (a + 2 r^2) / (r^3 a^2)
    d2(atan)/dY^2  = -z X Y (b + 2 r^2) / (r^3 b^2)
    d2(atan)/dX dz =  Y (a (X^2 + Y^2) - 2 z^2 r^2) / (r^3 a^2)
    d2(atan)/dY dz =  X (b (X^2 + Y^2) - 2 z^2 r^2) / (r^3 b^2)
    d2(atan)/dz^2  = -d2(atan)/dX^2 - d2(atan)/dY^2

(each corner term is harmonic). Since d/dx = -d/dX and d/dy = -d/dY, the
gradient ``dE_i/dx_j = -d2(phi)/dx_i dx_j`` is symmetric and traceless; its
zz entry is formed as ``-(xx + yy)``, so its trace is exactly zero.

Each rectangle is stored as four signed corners in the order
``(x1, y1), (x1, y2), (x2, y1), (x2, y2)``, flattened to ``4M`` columns. For
a block of ``n`` points the corner offsets are ``(n, 4M)`` arrays; the corner
terms are summed per rectangle with their signs, giving contiguous ``(n, M)``
per-rectangle sums. ``rect_potential_sum``, ``rect_field_sum`` and
``rect_field_grad_sum`` weight those by the voltages with one matrix-vector
product each. ``rect_field_superpose``
instead forms each weighted term ``w_m E_m`` (``E_m`` the summed field of
rectangle group ``m`` at 1 V) and adds the terms left to right in
rectangle order with ``np.cumsum``, the order of a Python loop over the
rectangles. Points go in blocks of ``max(1, 2**16 // (4M))``, so no temporary
holds more than about 2**16 doubles (0.5 MB) whatever the number of points.
The eight ``(n, 4M)`` corner arrays of a field call are allocated once and
every block writes into them with ``out=``: freeing and re-allocating them per
block let the C allocator hand the memory back to the system and page-fault it
in again (up to 87k faults, about 150 ms, per 32768-point scan on a 2-core
Xeon VM). The arithmetic is that of the plain expressions above, operation for
operation; the potential keeps the plain expressions. The call contract is
documented in :mod:`trapqa.kernels`.
"""

import numpy as np

__all__ = ["rect_potential_sum", "rect_field_sum", "rect_field_grad_sum", "rect_field_superpose"]

_TWO_PI = 2.0 * np.pi
_BLOCK_ELEMS = 2**16  # corner terms per temporary
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])  # (-1)^(i+j) over the four corners
_CORNER_X = np.array([0, 0, 1, 1])  # columns of (x1, x2, y1, y2) per corner
_CORNER_Y = np.array([2, 3, 2, 3])


def _corners(rects):
    """Corner x and y coordinates, 4M each, and the number of points per block."""
    rects = np.asarray(rects, dtype=np.float64).reshape(-1, 4)
    xs = rects[:, _CORNER_X].ravel()
    ys = rects[:, _CORNER_Y].ravel()
    return xs, ys, max(1, _BLOCK_ELEMS // max(1, xs.size))


def _corner_blocks(rects, points):
    """Per block of ``points``: its slice, corner offsets X, Y (n, 4M), z (n, 1)."""
    xs, ys, block = _corners(rects)
    for s in range(0, len(points), block):
        p = points[s : s + block]
        yield slice(s, s + block), xs - p[:, 0:1], ys - p[:, 1:2], p[:, 2:3]


def _per_rect(terms):
    """Signed sum of the four corner terms of each rectangle, (n, M)."""
    return np.einsum("nmc,c->nm", terms.reshape(len(terms), -1, 4), _SIGNS)


def rect_potential_sum(rects, volts, points):
    """Summed potential of rectangles at ``volts`` over ``points``, shape (N,)."""
    volts = np.asarray(volts, dtype=np.float64).reshape(-1)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    out = np.empty(len(points))
    for s, X, Y, z in _corner_blocks(rects, points):
        r = np.sqrt(X**2 + Y**2 + z**2)
        terms = np.arctan2(X * Y, z * r)
        out[s] = _per_rect(terms) @ volts / _TWO_PI
    return out


def _field_blocks(rects, points):
    """Per block of ``points``: its slice and the per-rectangle sums of the
    corner derivatives d/dX, d/dY, d/dz, each a contiguous (n, M) array.

    The eight (n, 4M) corner arrays are allocated once per call and reused by
    every block (see the module docstring).
    """
    xs, ys, block = _corners(rects)
    bufs = np.empty((8, min(block, len(points)), xs.size))
    for s in range(0, len(points), block):
        p = points[s : s + block]
        X, Y, r2, r, xz, yz, num, den = bufs[:, : len(p)]
        z = p[:, 2:3]
        z2 = z**2
        np.subtract(xs, p[:, 0:1], out=X)
        np.subtract(ys, p[:, 1:2], out=Y)
        # r2 = X^2 + Y^2 + z^2, r = sqrt(r2), xz = X^2 + z^2, yz = Y^2 + z^2
        np.add(np.square(X, out=xz), np.square(Y, out=yz), out=r2)
        np.add(r2, z2, out=r2)
        np.sqrt(r2, out=r)
        np.add(xz, z2, out=xz)
        np.add(yz, z2, out=yz)
        # dX = z Y / (r xz) and dY = z X / (r yz)
        np.divide(np.multiply(z, Y, out=num), np.multiply(r, xz, out=den), out=num)
        dX = _per_rect(num)
        np.divide(np.multiply(z, X, out=num), np.multiply(r, yz, out=den), out=num)
        dY = _per_rect(num)
        # dz = -X Y (r2 + z^2) / (r xz yz)
        np.multiply(np.negative(X, out=num), Y, out=num)
        np.multiply(num, np.add(r2, z2, out=den), out=num)
        np.multiply(np.multiply(r, xz, out=den), yz, out=den)
        dz = _per_rect(np.divide(num, den, out=num))
        yield slice(s, s + block), dX, dY, dz


def rect_field_sum(rects, volts, points):
    """Summed field E = -grad(phi) of rectangles at ``volts``, shape (N, 3)."""
    volts = np.asarray(volts, dtype=np.float64).reshape(-1)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    out = np.empty((len(points), 3))
    for s, dX, dY, dz in _field_blocks(rects, points):
        # d(phi)/dx = -sum dX and E = -grad(phi), so x and y keep the sign of
        # the corner derivative; z enters directly and flips.
        out[s, 0] = dX @ volts / _TWO_PI
        out[s, 1] = dY @ volts / _TWO_PI
        out[s, 2] = -(dz @ volts) / _TWO_PI
    return out


def rect_field_grad_sum(rects, volts, points):
    """Field E and its gradient ``dE_i/dx_j`` of rectangles at ``volts``.

    Returns E, shape (N, 3), bit for bit that of :func:`rect_field_sum`, and
    the gradient, shape (N, 3, 3), symmetric and exactly traceless.
    """
    volts = np.asarray(volts, dtype=np.float64).reshape(-1)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    e = np.empty((len(points), 3))
    grad = np.empty((len(points), 3, 3))
    for s, X, Y, z in _corner_blocks(rects, points):
        # first derivatives: the expressions of _field_blocks, in its order
        z2 = z**2
        r2 = X**2 + Y**2 + z2
        r = np.sqrt(r2)
        xz, yz = X**2 + z2, Y**2 + z2
        e[s, 0] = _per_rect(z * Y / (r * xz)) @ volts / _TWO_PI
        e[s, 1] = _per_rect(z * X / (r * yz)) @ volts / _TWO_PI
        dz = -X * Y * (r2 + z2) / (r * xz * yz)
        e[s, 2] = -(_per_rect(dz) @ volts) / _TWO_PI
        # second derivatives d2/dXdY, dX^2, dY^2, dXdz, dYdz, each reduced to
        # per-rectangle sums before the next is formed
        r3 = r * r2
        ra, rb = r3 * xz**2, r3 * yz**2
        zxy = z * X * Y
        xy2 = X**2 + Y**2
        zr = 2.0 * z2 * r2
        d2 = np.stack(
            [
                _per_rect(z / r3),
                _per_rect(-zxy * (xz + 2.0 * r2) / ra),
                _per_rect(-zxy * (yz + 2.0 * r2) / rb),
                _per_rect(Y * (xz * xy2 - zr) / ra),
                _per_rect(X * (yz * xy2 - zr) / rb),
            ]
        )
        dxy, dxx, dyy, dxz, dyz = d2 @ volts / _TWO_PI
        # dE_i/dx_j = -d2(phi)/dx_i dx_j, with d/dx = -d/dX and d/dy = -d/dY
        g = grad[s]
        g[:, 0, 0] = -dxx
        g[:, 1, 1] = -dyy
        g[:, 2, 2] = -(g[:, 0, 0] + g[:, 1, 1])
        g[:, 0, 1] = g[:, 1, 0] = -dxy
        g[:, 0, 2] = g[:, 2, 0] = dxz
        g[:, 1, 2] = g[:, 2, 1] = dyz
    return e, grad


def rect_field_superpose(rect_groups, weights, points):
    """Weighted sum of unit-voltage fields, ``sum_m weights[m] * E_m``, (N, 3).

    ``rect_groups[m]`` is a non-empty sequence of ``(x1, x2, y1, y2)``
    rectangles and ``E_m`` their summed field at 1 V: the rectangles of a
    group are added before the weight is applied. The weighted terms are
    added left to right, starting from 0.0, exactly as
    ``total += weights[m] * E_m`` in a loop over ``m`` would add them.
    """
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    sizes = [len(g) for g in rect_groups]
    if len(sizes) != weights.size:
        raise ValueError("need one weight per rectangle group")
    if 0 in sizes:
        raise ValueError("every rectangle group needs a rectangle")
    out = np.zeros((len(points), 3))
    if weights.size == 0:
        return out
    rects = [r for g in rect_groups for r in g]
    starts = np.cumsum([0] + sizes[:-1])
    for s, *d in _field_blocks(rects, points):
        dX, dY, dz = (np.add.reduceat(di, starts, axis=1) for di in d)
        out[s, 0] += np.cumsum(weights * (dX / _TWO_PI), axis=1)[:, -1]
        out[s, 1] += np.cumsum(weights * (dY / _TWO_PI), axis=1)[:, -1]
        out[s, 2] += np.cumsum(weights * (-dz / _TWO_PI), axis=1)[:, -1]
    return out
