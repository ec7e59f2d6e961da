"""Gapless-plane electrostatics of surface-electrode traps.

Electrodes are unions of axis-aligned rectangles in the ``z = 0`` plane; the
region between them is treated as grounded plane (gapless approximation).
Analytic solid-angle potentials and fields come from :mod:`trapqa.kernels`.

Coordinates: ``x`` along the trap axis, ``y`` transverse in-plane, ``z``
normal to the chip (ion side is ``z > 0``).
"""

from .geometry import (
    Electrode,
    TrapGeometry,
    geometry_from_dict,
    load_geometry,
    paper_trap_geometry,
)
from .fields import field_at, field_gradient_at, potential_at, pseudopotential
from .minima import TrapMinimum, SecularModes, find_rf_minima, secular_frequencies
from .stray import MicromotionReport, micromotion_index, stray_field

__all__ = [
    "Electrode",
    "TrapGeometry",
    "geometry_from_dict",
    "load_geometry",
    "paper_trap_geometry",
    "potential_at",
    "field_at",
    "field_gradient_at",
    "pseudopotential",
    "TrapMinimum",
    "SecularModes",
    "find_rf_minima",
    "secular_frequencies",
    "stray_field",
    "micromotion_index",
    "MicromotionReport",
]
