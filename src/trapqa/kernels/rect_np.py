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

Points go in blocks of ``max(1, 2**16 // (4M))``, counted from point 0,
so no corner array holds more than about 2**16 doubles (0.5 MB) whatever
the number of points. A call runs its blocks on one thread per usable CPU
(``os.sched_getaffinity``, else ``os.cpu_count``), but on no more threads
than it has blocks, and each thread takes a contiguous run of whole
blocks. All four entry points go through one runner, :func:`_run`, fed by
one generator, :func:`_blocks`, which computes the terms they share (the
offsets, their squares, ``r^2`` and ``r``; the field's per-rectangle sums
where asked) over sub-blocks of ``ceil(block / threads)`` rows, into
scratch arrays allocated once per thread: the threads together hold about
one block's elementwise scratch, and freeing and re-allocating it per
block let the C allocator hand the memory back to the system and
page-fault it in again (up to 87k faults, about 150 ms, per 32768-point
scan on a 2-core Xeon VM). The per-rectangle sums of a block's sub-blocks
go into one array for the whole block, one such array per thread, and the
``@ volts`` products (``reduceat`` and ``cumsum`` for
``rect_field_superpose``) run once per whole block, in the block's shapes.
So that these arrays do not grow with the CPU count, a call runs on no
more threads than hold ``4 * 2**16`` doubles (2 MB) of them together: up
to 16 for the potential, 5 for the field and 2 for the field gradient of
``M = 79`` rectangles. The memory of a call is then bounded whatever the
number of points and of CPUs. An elementwise result does not depend on how the rows are split,
but a BLAS product does: a row of a row-sliced ``(n, M) @ volts`` can
differ in its last bit from the same row of the whole product. So the
blocks, not the threads, set those shapes, and every output is the same
at every thread count. A call of one block, or on one CPU, starts no
thread. Nothing here is a setting: the thread count comes from the CPU set
and the sub-block size from ``M`` and the thread count. The other threads
run in a copy of the calling thread's context, so numpy's ``errstate``
holds in them too. Every elementwise operation is that of the plain
expressions above, on the same operands in the same order: ``r^2`` is
``(X^2 + Y^2) + z^2`` and the z derivative
``((-X Y) (r^2 + z^2)) / ((r (X^2 + z^2)) (Y^2 + z^2))``. The call
contract is documented in :mod:`trapqa.kernels`.
"""

import contextvars
import os
import threading

import numpy as np

__all__ = ["rect_potential_sum", "rect_field_sum", "rect_field_grad_sum", "rect_field_superpose"]

_TWO_PI = 2.0 * np.pi
_BLOCK_ELEMS = 2**16  # corner terms per temporary
_SUMS_ELEMS = 4 * _BLOCK_ELEMS  # whole-block sums of all threads together


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class _Block:
    """The arrays of one sub-block of points, in one thread's scratch from
    :func:`_scratch`: ``z`` and ``z2`` = z^2 repeated to (n, M); the x-edge
    offsets ``X`` (2, 1, n, M) and the y-edge offsets ``Y`` (1, 2, n, M);
    the corner arrays ``r2`` and ``r`` (2, 2, n, M); and ``tmp``, a stack of
    scratch corner arrays (n_tmp, 2, 2, n, M) for the caller. With the
    field, also ``xz`` = X^2 + z^2 and ``zX`` (x edges) and ``yz`` =
    Y^2 + z^2 (y edges). ``s`` is the block's slice of the points, ``rows``
    the sub-block's slice of the block's rows and ``end`` whether it is the
    block's last sub-block. ``sums`` (n_sums, k, M) holds the per-rectangle
    corner sums of the block's k points; with the field, ``sums[0:3]`` are
    those of the corner derivatives dX, dY and dz. A caller may overwrite
    what it no longer needs in the scratch: every sub-block fills all of it
    again."""

    __slots__ = ("s", "rows", "end", "sums", "z", "z2", "X", "Y", "r2", "r", "tmp", "xz", "yz", "zX")


def _corner_sum(t, out=None, u=None):
    """Signed sum over the two leading corner axes of corner terms ``t``
    (2, 2, ..., n, M): the per-rectangle sums, (..., n, M), into ``out``
    when given; ``u`` (2, ..., n, M), when given, holds the partial sums."""
    u = np.subtract(t[0], t[1], u)
    out = np.subtract(u[0], u[1], out)
    out += 0.0
    return out


def _xy(e):
    """The x-edge (2, 1, n, M) and y-edge (1, 2, n, M) views of an edge array
    ``e`` (2, 2, n, M) that holds the x edges in ``e[0]`` and the y edges in
    ``e[1]``."""
    return e[0, :, None], e[1, None]


def _scratch(rows, block, sub, m, field, n_tmp, n_sums):
    """The scratch of one thread, whose blocks begin ``rows`` points before
    the end of the points: the arrays :func:`_blocks` fills per sub-block,
    for at most ``sub`` rows, and the per-rectangle sums of one block."""
    first = min(block, rows)  # the largest block's rows
    n = min(sub, first)
    # z and z^2 (n, M), then edge and corner arrays, which have the same shape
    full = [np.empty((n, m)), np.empty((n, m))]
    full += [np.empty((2, 2, n, m)) for _ in range(8 if field else 4)]
    full.append(np.empty((n_tmp, 2, 2, n, m)))
    return full, np.empty((n_sums, first, m))


def _blocks(edges, points, starts, field, full, sums):
    """Per sub-block of the blocks of ``points`` that begin at ``starts`` (a
    range stepping by the block size), a :class:`_Block` with the shared
    terms filled in, the field's too when ``field`` is true, in the scratch
    ``full`` and ``sums`` from :func:`_scratch`. The same object is yielded
    for every sub-block; a shorter one gets views of the scratch arrays."""
    block, n, (n_sums, first, m) = starts.step, len(full[0]), sums.shape
    b = _Block()
    for s in starts:
        k = min(block, len(points) - s)
        b.s = slice(s, s + k)
        # a shorter block's sums are contiguous too, as the BLAS shapes need
        b.sums = sums if k == first else sums.reshape(-1)[: n_sums * k * m].reshape(n_sums, k, m)
        for r in range(0, k, n):
            p = points[s + r : s + min(r + n, k)]
            j = len(p)
            b.rows = slice(r, r + j)
            b.end = r + j == k
            bufs = full if j == n else [a[..., :j, :] for a in full]
            b.z, b.z2, d, d2, b.r2, b.r, *fs, b.tmp = bufs
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
                _corner_sum(np.divide(zY, rxz, out=num), b.sums[0, b.rows])
                np.divide(b.zX, np.multiply(b.r, b.yz, out=den), out=num)
                _corner_sum(num, b.sums[1, b.rows])
                # dz = -X Y (r2 + z^2) / (r xz yz); -X is held in den until then
                nX = den[:, :1]
                np.multiply(np.negative(b.X, out=nX), b.Y, out=num)
                np.multiply(num, np.add(b.r2, b.z2, out=den), out=num)
                np.multiply(rxz, b.yz, out=den)
                _corner_sum(np.divide(num, den, out=num), b.sums[2, b.rows])
            yield b


def _body_caught(errors, body, blocks):
    """``body(blocks)`` on a thread of its own: its exception goes to
    ``errors``."""
    try:
        body(blocks)
    except Exception as exc:  # raised again in the calling thread
        errors.append(exc)


def _run(rects, points, field, n_tmp, n_sums, body):
    """Run ``body`` once per thread on a generator of that thread's
    sub-blocks of ``points`` from :func:`_blocks`.

    The calling thread allocates every thread's scratch: a thread's own
    allocations would stay resident in its C allocator arena once the
    thread has ended. The first exception a worker raised is raised here
    once every thread has been joined.
    """
    rects = np.asarray(rects, dtype=np.float64).reshape(-1, 4)
    m = len(rects)
    edges = rects.T.reshape(2, 2, 1, m)  # (x1, x2) and (y1, y2)
    block = max(1, _BLOCK_ELEMS // max(1, 4 * m))
    n_blocks = -(-len(points) // block)
    cap = max(1, _SUMS_ELEMS // (n_sums * block * m))
    threads = min(_usable_cpus(), n_blocks, cap) if n_blocks > 1 else 1
    if threads == 1:  # most calls are of one block: no thread machinery
        full, sums = _scratch(len(points), block, block, m, field, n_tmp, n_sums)
        body(_blocks(edges, points, range(0, len(points), block), field, full, sums))
        return
    sub = -(-block // threads)
    cuts = [n_blocks * i // threads for i in range(threads + 1)]
    runs = []
    for lo, hi in zip(cuts, cuts[1:]):
        starts = range(lo * block, hi * block, block)
        full, sums = _scratch(len(points) - starts[0], block, sub, m, field, n_tmp, n_sums)
        runs.append(_blocks(edges, points, starts, field, full, sums))
    errors = []
    workers = [
        threading.Thread(
            target=contextvars.copy_context().run, args=(_body_caught, errors, body, blocks)
        )
        for blocks in runs[1:]
    ]
    for w in workers:
        w.start()
    try:
        body(runs[0])
    finally:
        for w in workers:
            w.join()
    if errors:
        raise errors[0]


def rect_potential_sum(rects, volts, points):
    """Summed potential of rectangles at ``volts`` over ``points``, shape (N,)."""
    volts = np.asarray(volts, dtype=np.float64).reshape(-1)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    out = np.empty(len(points))

    def body(blocks):
        for b in blocks:
            # r2 and r are not needed again, so they take X Y and z r
            xy = np.multiply(b.X, b.Y, out=b.r2)
            zr = np.multiply(b.z, b.r, out=b.r)
            _corner_sum(np.arctan2(xy, zr, out=xy), b.sums[0, b.rows])
            if b.end:
                out[b.s] = b.sums[0] @ volts / _TWO_PI

    _run(rects, points, False, 0, 1, body)
    return out


def _put_field(b, volts, out):
    """Write the field of block ``b`` at ``volts`` into its rows of ``out``."""
    dX, dY, dz = b.sums[:3]
    # d(phi)/dx = -sum dX and E = -grad(phi), so x and y keep the sign of the
    # corner derivative; z enters directly and flips.
    out[b.s, 0] = dX @ volts / _TWO_PI
    out[b.s, 1] = dY @ volts / _TWO_PI
    out[b.s, 2] = -(dz @ volts) / _TWO_PI


def rect_field_sum(rects, volts, points):
    """Summed field E = -grad(phi) of rectangles at ``volts``, shape (N, 3)."""
    volts = np.asarray(volts, dtype=np.float64).reshape(-1)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    out = np.empty((len(points), 3))

    def body(blocks):
        for b in blocks:
            if b.end:
                _put_field(b, volts, out)

    _run(rects, points, True, 0, 3, body)
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

    def body(blocks):
        for b in blocks:
            # the corner terms of d2/dXdY, dX^2, dY^2, dXdz, dYdz, one per
            # slot of t, from r3 = r r2, ra = r3 xz^2, rb = r3 yz^2,
            # xy2 = X^2 + Y^2 and zr = 2 z^2 r2
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
            # r3 ... xy2 are free again: their slots hold the partial sums
            u = b.tmp[:5, 0].transpose(1, 0, 2, 3)
            _corner_sum(t.transpose(1, 2, 0, 3, 4), b.sums[3:, b.rows], u)
            if not b.end:
                continue
            _put_field(b, volts, e)
            dxy, dxx, dyy, dxz, dyz = b.sums[3:] @ volts / _TWO_PI
            # dE_i/dx_j = -d2(phi)/dx_i dx_j, with d/dx = -d/dX and d/dy = -d/dY
            g = grad[b.s]
            g[:, 0, 0] = -dxx
            g[:, 1, 1] = -dyy
            g[:, 2, 2] = -(g[:, 0, 0] + g[:, 1, 1])
            g[:, 0, 1] = g[:, 1, 0] = -dxy
            g[:, 0, 2] = g[:, 2, 0] = dxz
            g[:, 1, 2] = g[:, 2, 1] = dyz

    _run(rects, points, True, 11, 8, body)
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

    def body(blocks):
        for b in blocks:
            if not b.end:
                continue
            dX, dY, dz = (np.add.reduceat(d, starts, axis=1) for d in b.sums)
            out[b.s, 0] += np.cumsum(weights * (dX / _TWO_PI), axis=1)[:, -1]
            out[b.s, 1] += np.cumsum(weights * (dY / _TWO_PI), axis=1)[:, -1]
            out[b.s, 2] += np.cumsum(weights * (-dz / _TWO_PI), axis=1)[:, -1]

    _run(rects, points, True, 0, 3, body)
    return out
