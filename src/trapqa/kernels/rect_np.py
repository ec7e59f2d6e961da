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

A rectangle's four corners pair its two x edges ``(x1, x2)`` with its two y
edges ``(y1, y2)``, and many corner terms depend on one edge only. So the
edges of all ``M`` rectangles are held as one ``(2, 2, 1, M)`` array, x edges
first, and for a block of ``n`` points their offsets are one ``(2, 2, n, M)``
array viewed as ``X`` ``(2, 1, n, M)`` and ``Y`` ``(1, 2, n, M)``. Every term
of one edge (``X^2``, ``X^2 + z^2``, ``z X``, ``-X``; ``Y^2``, ``Y^2 + z^2``,
``z Y``) is computed at that size, once per edge. Corner terms broadcast the
two to ``(2, 2, n, M)``: corner ``(i, j)`` pairs x edge ``i`` with y edge
``j`` and is one contiguous ``(n, M)`` slab. ``z`` and ``z^2`` are repeated
along the rectangles to ``(n, M)``, so that they too broadcast over the
corners as one contiguous run (as ``(n, 1)`` columns they made each such
operation about twice as slow). The signed sum over the corners is

    u = t[0] - t[1];  (u[0] - u[1]) + 0.0

that is ``((t00 - t10) - (t01 - t11)) + 0.0``, bit for bit
``einsum("nmc,c->nm", t, [1, -1, -1, 1])`` over the corners flattened as
``(x1, y1), (x1, y2), (x2, y1), (x2, y2)``. Einsum forms
``(t00 - t10) + (t11 - t01)`` (a product with -1 is exact, and ``a + (-b)``
is ``a - b``) and adds it to a zeroed output. ``t01 - t11`` is exactly
``-(t11 - t01)`` unless both are zero, which can change only the sign of a
zero sum, and adding 0.0 last turns every zero sum into +0.0 on both sides.
The result is a contiguous ``(n, M)`` array of per-rectangle sums.
``rect_potential_sum``, ``rect_field_sum`` and ``rect_field_grad_sum``
weight those by the voltages with one matrix-vector product each.
``rect_field_superpose`` instead forms each weighted term ``w_m E_m``
(``E_m`` the summed field of rectangle group ``m`` at 1 V) and adds the
terms left to right in rectangle order with ``np.cumsum``, the order of a
Python loop over the rectangles.

Points go in blocks of ``max(1, 2**16 // (4M))``, so no corner array holds
more than about 2**16 doubles (0.5 MB) whatever the number of points. All
four entry points take their blocks from one generator, :func:`_blocks`,
which computes the terms they share (the offsets, their squares, ``r^2`` and
``r``; the field's per-rectangle sums where asked) into scratch arrays
allocated once per call: freeing and re-allocating them per block let the C
allocator hand the memory back to the system and page-fault it in again (up
to 87k faults, about 150 ms, per 32768-point scan on a 2-core Xeon VM).
Every elementwise operation is that of the plain expressions above, on the
same operands in the same order: ``r^2`` is ``(X^2 + Y^2) + z^2`` and the
z derivative ``((-X Y) (r^2 + z^2)) / ((r (X^2 + z^2)) (Y^2 + z^2))``. The call
contract is documented in :mod:`trapqa.kernels`.
"""

import numpy as np

__all__ = ["rect_potential_sum", "rect_field_sum", "rect_field_grad_sum", "rect_field_superpose"]

_TWO_PI = 2.0 * np.pi
_BLOCK_ELEMS = 2**16  # corner terms per temporary


class _Block:
    """The arrays of one point block, in scratch allocated once per call:
    ``z`` and ``z2`` = z^2 repeated to (n, M); the x-edge offsets ``X``
    (2, 1, n, M) and the y-edge offsets ``Y`` (1, 2, n, M); the corner arrays
    ``r2`` and ``r`` (2, 2, n, M); and ``tmp``, a stack of scratch corner
    arrays (n_tmp, 2, 2, n, M) for the caller. With the field, also ``xz`` =
    X^2 + z^2 and ``zX`` (x edges), ``yz`` = Y^2 + z^2 (y edges), and the
    per-rectangle sums ``dX``, ``dY``, ``dz`` of the corner derivatives
    (n, M). ``s`` is the block's slice of the points. A caller may overwrite
    what it no longer needs: every block fills all of them again."""

    __slots__ = ("s", "z", "z2", "X", "Y", "r2", "r", "tmp", "xz", "yz", "zX", "dX", "dY", "dz")


def _corner_sum(t):
    """Signed sum over the two leading corner axes of corner terms ``t``
    (2, 2, ..., n, M): the per-rectangle sums, (..., n, M)."""
    u = np.subtract(t[0], t[1])
    out = np.subtract(u[0], u[1])
    out += 0.0
    return out


def _xy(e):
    """The x-edge (2, 1, n, M) and y-edge (1, 2, n, M) views of an edge array
    ``e`` (2, 2, n, M) that holds the x edges in ``e[0]`` and the y edges in
    ``e[1]``."""
    return e[0, :, None], e[1, None]


def _blocks(rects, points, field, n_tmp):
    """Per block of ``points``, a :class:`_Block` with the shared terms filled
    in, the field's too when ``field`` is true, and ``n_tmp`` scratch corner
    arrays. The same object is yielded for every block; only a last, shorter
    block gets views of the scratch arrays."""
    rects = np.asarray(rects, dtype=np.float64).reshape(-1, 4)
    m = len(rects)
    edges = rects.T.reshape(2, 2, 1, m)  # (x1, x2) and (y1, y2)
    block = max(1, _BLOCK_ELEMS // max(1, 4 * m))
    n = min(block, len(points))
    # z and z^2 (n, M), then edge and corner arrays, which have the same shape
    bufs = [np.empty((n, m)) for _ in range(2)]
    bufs += [np.empty((2, 2, n, m)) for _ in range(8 if field else 4)]
    tmp = np.empty((n_tmp, 2, 2, n, m))
    b = _Block()
    for s in range(0, len(points), block):
        p = points[s : s + block]
        k = len(p)
        if k < n:  # the last block, shorter than the others
            bufs = [a[..., :k, :] for a in bufs]
            tmp = tmp[..., :k, :]
        b.s = slice(s, s + k)
        b.z, b.z2, d, d2, b.r2, b.r, *fs = bufs
        b.tmp = tmp
        np.copyto(b.z, p[:, 2:3])
        np.square(b.z, out=b.z2)
        np.subtract(edges, p.T[:2, None, :, None], out=d)
        b.X, b.Y = _xy(d)
        x2, y2 = _xy(np.square(d, out=d2))
        np.add(np.add(x2, y2, out=b.r2), b.z2, out=b.r2)
        np.sqrt(b.r2, out=b.r)
        if field:
            zd, rxz, num, den = fs
            np.add(d2, b.z2, out=d2)
            b.xz, b.yz = x2, y2  # now X^2 + z^2 and Y^2 + z^2
            b.zX, zY = _xy(np.multiply(b.z, d, out=zd))
            # dX = z Y / (r xz) and dY = z X / (r yz)
            np.multiply(b.r, b.xz, out=rxz)
            b.dX = _corner_sum(np.divide(zY, rxz, out=num))
            np.divide(b.zX, np.multiply(b.r, b.yz, out=den), out=num)
            b.dY = _corner_sum(num)
            # dz = -X Y (r2 + z^2) / (r xz yz); -X is held in den until then
            nX = den[:, :1]
            np.multiply(np.negative(b.X, out=nX), b.Y, out=num)
            np.multiply(num, np.add(b.r2, b.z2, out=den), out=num)
            np.multiply(rxz, b.yz, out=den)
            b.dz = _corner_sum(np.divide(num, den, out=num))
        yield b


def rect_potential_sum(rects, volts, points):
    """Summed potential of rectangles at ``volts`` over ``points``, shape (N,)."""
    volts = np.asarray(volts, dtype=np.float64).reshape(-1)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    out = np.empty(len(points))
    for b in _blocks(rects, points, False, 0):
        # r2 and r are not needed again, so they take X Y and z r
        xy = np.multiply(b.X, b.Y, out=b.r2)
        zr = np.multiply(b.z, b.r, out=b.r)
        out[b.s] = _corner_sum(np.arctan2(xy, zr, out=xy)) @ volts / _TWO_PI
    return out


def _put_field(b, volts, out):
    """Write the field of block ``b`` at ``volts`` into its rows of ``out``."""
    # d(phi)/dx = -sum dX and E = -grad(phi), so x and y keep the sign of the
    # corner derivative; z enters directly and flips.
    out[b.s, 0] = b.dX @ volts / _TWO_PI
    out[b.s, 1] = b.dY @ volts / _TWO_PI
    out[b.s, 2] = -(b.dz @ volts) / _TWO_PI


def rect_field_sum(rects, volts, points):
    """Summed field E = -grad(phi) of rectangles at ``volts``, shape (N, 3)."""
    volts = np.asarray(volts, dtype=np.float64).reshape(-1)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    out = np.empty((len(points), 3))
    for b in _blocks(rects, points, True, 0):
        _put_field(b, volts, out)
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
    for b in _blocks(rects, points, True, 11):
        _put_field(b, volts, e)
        # the corner terms of d2/dXdY, dX^2, dY^2, dXdz, dYdz, one per slot of
        # t, from r3 = r r2, ra = r3 xz^2, rb = r3 yz^2, xy2 = X^2 + Y^2 and
        # zr = 2 z^2 r2
        r3, ra, rb, nzxy, xy2, zr = b.tmp[:6]
        t = b.tmp[6:]
        txy, txx, tyy, txz, tyz = t
        np.add(np.square(b.X), np.square(b.Y), out=xy2)
        np.multiply(b.r, b.r2, out=r3)
        np.multiply(r3, np.square(b.xz), out=ra)
        np.multiply(r3, np.square(b.yz), out=rb)
        np.negative(np.multiply(b.zX, b.Y, out=nzxy), out=nzxy)
        np.multiply(2.0 * b.z2, b.r2, out=zr)
        np.divide(b.z, r3, out=txy)
        r2x2 = np.multiply(2.0, b.r2, out=r3)  # r3 is not needed any more
        np.multiply(nzxy, np.add(b.xz, r2x2, out=txx), out=txx)
        np.divide(txx, ra, out=txx)
        np.multiply(nzxy, np.add(b.yz, r2x2, out=tyy), out=tyy)
        np.divide(tyy, rb, out=tyy)
        np.subtract(np.multiply(b.xz, xy2, out=txz), zr, out=txz)
        np.divide(np.multiply(b.Y, txz, out=txz), ra, out=txz)
        np.subtract(np.multiply(b.yz, xy2, out=tyz), zr, out=tyz)
        np.divide(np.multiply(b.X, tyz, out=tyz), rb, out=tyz)
        dxy, dxx, dyy, dxz, dyz = _corner_sum(t.transpose(1, 2, 0, 3, 4)) @ volts / _TWO_PI
        # dE_i/dx_j = -d2(phi)/dx_i dx_j, with d/dx = -d/dX and d/dy = -d/dY
        g = grad[b.s]
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
    for b in _blocks(rects, points, True, 0):
        dX, dY, dz = (np.add.reduceat(d, starts, axis=1) for d in (b.dX, b.dY, b.dz))
        out[b.s, 0] += np.cumsum(weights * (dX / _TWO_PI), axis=1)[:, -1]
        out[b.s, 1] += np.cumsum(weights * (dY / _TWO_PI), axis=1)[:, -1]
        out[b.s, 2] += np.cumsum(weights * (-dz / _TWO_PI), axis=1)[:, -1]
    return out
