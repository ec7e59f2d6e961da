"""Rectangle potential/field kernels.

Every potential and field in trapqa comes from the gapless-plane rectangle
closed form in :mod:`trapqa.kernels.rect_np`, the single implementation:

``rect_potential_sum(rects, volts, points)``
    Potential (V) of a set of in-plane rectangles at unit-referenced voltages,
    summed per evaluation point. ``rects`` is ``(M, 4)`` rows
    ``(x1, x2, y1, y2)``, ``points`` is ``(N, 3)``; returns ``(N,)``.

``rect_field_sum(rects, volts, points)``
    Electric field ``E = -grad(phi)`` of the same set, returns ``(N, 3)``.

``rect_field_grad_sum(rects, volts, points)``
    The field and its gradient from one pass over the corners: returns
    ``(E, G)`` with ``E`` ``(N, 3)``, bit for bit that of ``rect_field_sum``,
    and ``G[n, i, j] = dE_i/dx_j`` ``(N, 3, 3)``, symmetric and exactly
    traceless (``G = -Hess(phi)``).

``rect_field_superpose(rect_groups, weights, points)``
    ``sum_m weights[m] * E_m`` with ``E_m`` the field at 1 V of the non-empty
    rectangle group ``rect_groups[m]`` (such as the rectangles of one
    electrode), returns ``(N, 3)``. The weighted terms are added left to right
    in group order (``np.cumsum``), starting from 0.0, so the result is bit for
    bit that of a Python loop ``total += weights[m] * E_m``.

Points are evaluated in blocks of ``max(1, 2**16 // (4M))``, at most about
2**16 corner terms, so memory stays bounded for any ``N``. A call of more
than one block runs them on one thread per usable CPU, at most one per
block: each thread takes a contiguous run of whole blocks and splits the
elementwise passes into sub-blocks of ``ceil(block / threads)`` rows, so
the threads together hold about one block's elementwise scratch. The
``@ volts`` products run once per whole block, whose shapes BLAS results
depend on, so every output is the same at every thread count. Each thread
keeps its whole block's per-rectangle sums, so the thread count is also
capped to hold at most 2 MB of them, whatever the number of CPUs. A call of one block, or on
one CPU, starts no thread, and there is no setting. All four entry points
go through one runner and one block generator that computes each per-edge
term once per rectangle edge and each corner term in a corner-major
``(2, 2, n, M)`` array; their outputs are bit for bit those of the plain
corner formulas summed per rectangle with ``einsum`` (see
:mod:`trapqa.kernels.rect_np`).
``BACKEND`` names the implementation in use.
"""

from .rect_np import (
    rect_field_grad_sum,
    rect_field_sum,
    rect_field_superpose,
    rect_potential_sum,
)

BACKEND = "python"

__all__ = [
    "BACKEND",
    "rect_potential_sum",
    "rect_field_sum",
    "rect_field_grad_sum",
    "rect_field_superpose",
]
