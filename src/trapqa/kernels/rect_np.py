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

where ``X = x_i - x`` and ``Y = y_j - y``.

Each rectangle is stored as four signed corners in the order
``(x1, y1), (x1, y2), (x2, y1), (x2, y2)``, flattened to ``4M`` columns. For
a block of ``n`` points the corner offsets are ``(n, 4M)`` arrays; the corner
terms are summed per rectangle with their signs and then weighted by the
voltages. Points go in blocks of ``max(1, 2**16 // (4M))``, so no temporary
holds more than about 2**16 doubles (0.5 MB) whatever the number of points.
The call contract is documented in :mod:`trapqa.kernels`.
"""

import numpy as np

__all__ = ["rect_potential_sum", "rect_field_sum"]

_TWO_PI = 2.0 * np.pi
_BLOCK_ELEMS = 2**16  # corner terms per temporary
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])  # (-1)^(i+j) over the four corners
_CORNER_X = np.array([0, 0, 1, 1])  # columns of (x1, x2, y1, y2) per corner
_CORNER_Y = np.array([2, 3, 2, 3])


def _corner_blocks(rects, points):
    """Per block of ``points``: its slice, corner offsets X, Y (n, 4M), z (n, 1)."""
    rects = np.asarray(rects, dtype=np.float64).reshape(-1, 4)
    xs = rects[:, _CORNER_X].ravel()
    ys = rects[:, _CORNER_Y].ravel()
    block = max(1, _BLOCK_ELEMS // max(1, xs.size))
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


def rect_field_sum(rects, volts, points):
    """Summed field E = -grad(phi) of rectangles at ``volts``, shape (N, 3)."""
    volts = np.asarray(volts, dtype=np.float64).reshape(-1)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    out = np.empty((len(points), 3))
    for s, X, Y, z in _corner_blocks(rects, points):
        r2 = X**2 + Y**2 + z**2
        r = np.sqrt(r2)
        xz = X**2 + z**2
        yz = Y**2 + z**2
        # d(phi)/dx = -sum dX and E = -grad(phi), so x and y keep the sign of
        # the corner derivative; z enters directly and flips.
        dX = z * Y / (r * xz)
        dY = z * X / (r * yz)
        dz = -X * Y * (r2 + z**2) / (r * xz * yz)
        out[s, 0] = _per_rect(dX) @ volts / _TWO_PI
        out[s, 1] = _per_rect(dY) @ volts / _TWO_PI
        out[s, 2] = -(_per_rect(dz) @ volts) / _TWO_PI
    return out
