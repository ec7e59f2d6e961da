"""Rectangle potential/field kernels.

Every potential and field in trapqa comes from the gapless-plane rectangle
closed form in :mod:`trapqa.kernels.rect_np`, the single implementation:

``rect_potential_sum(rects, volts, points)``
    Potential (V) of a set of in-plane rectangles at unit-referenced voltages,
    summed per evaluation point. ``rects`` is ``(M, 4)`` rows
    ``(x1, x2, y1, y2)``, ``points`` is ``(N, 3)``; returns ``(N,)``.

``rect_field_sum(rects, volts, points)``
    Electric field ``E = -grad(phi)`` of the same set, returns ``(N, 3)``.

Points are evaluated in blocks, so memory stays bounded for any ``N``.
``BACKEND`` names the implementation in use.
"""

from .rect_np import rect_field_sum, rect_potential_sum

BACKEND = "python"

__all__ = ["BACKEND", "rect_potential_sum", "rect_field_sum"]
