"""Rectangle potential/field kernels.

Every potential and field in trapqa comes from the gapless-plane rectangle
closed form in :mod:`trapqa.kernels.rect_np`, the single implementation:

``rect_potential_sum(rects, volts, points)``
    Potential (V) of a set of in-plane rectangles at unit-referenced voltages,
    summed per evaluation point. ``rects`` is ``(M, 4)`` rows
    ``(x1, x2, y1, y2)``, ``points`` is ``(N, 3)``; returns ``(N,)``.
    ``M`` may be 0, as may ``N``: with no rectangle every kernel here
    returns its arrays of +0.0, never -0.0. ``volts`` may also be ``(K, M)``,
    K voltage sets over the same rectangles, for a ``(K, N)`` result: the
    per-rectangle sums are computed once, and row k is bit for bit the call
    with ``volts[k]``.

``rect_potential_each(rects, volts, points)``
    The potential at each point at a voltage set of its own: ``volts`` is
    ``(N, M)`` and entry n, of ``(N,)``, is bit for bit the one-point call
    ``rect_potential_sum(rects, volts[n], points[n:n + 1])``.

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
    electrode), returns ``(N, 3)``; no group gives +0.0. The weighted terms
    are the rows of one C-order array, summed down its first axis, which
    adds whole rows left to right in group order, into a +0.0 output; so
    the result is bit for bit that of a Python loop
    ``total += weights[m] * E_m`` starting from 0.0.

Points are evaluated in blocks of at most about 2**16 corner terms, so
memory stays bounded for any ``N``, and a call of several blocks runs them
on up to one thread per usable CPU; every output is bit for bit the same at
every thread count, and there is no setting (see :mod:`trapqa.kernels.rect_np`).
``BACKEND`` names the implementation in use.
"""

from .rect_np import (
    rect_field_grad_sum,
    rect_field_sum,
    rect_field_superpose,
    rect_potential_each,
    rect_potential_sum,
)

BACKEND = "python"

__all__ = [
    "BACKEND",
    "rect_potential_sum",
    "rect_potential_each",
    "rect_field_sum",
    "rect_field_grad_sum",
    "rect_field_superpose",
]
