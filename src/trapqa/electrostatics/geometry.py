"""Trap electrode geometry: rectangles in the chip plane, grouped by electrode.

Lengths are meters internally; the JSON form uses micrometers (key
``length_unit: "um"``). Electrode roles are ``"rf"``, ``"dc"``, ``"comp"``
(compensation) and ``"gnd"``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .._io import UnknownName, as_list, as_number, as_object, as_objects, as_text, read_json

__all__ = ["Electrode", "TrapGeometry", "load_geometry", "paper_trap_geometry"]

ROLES = ("rf", "dc", "comp", "gnd")

Rect = tuple[float, float, float, float]  # (x1, x2, y1, y2)


@dataclass(frozen=True)
class Electrode:
    """One electrically contiguous electrode: an id, a role, and its rectangles."""

    id: str
    role: str
    rects: tuple[Rect, ...]

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"electrode {self.id!r}: role must be one of {ROLES}, got {self.role!r}")
        if not self.rects:
            raise ValueError(f"electrode {self.id!r} has no rectangles")
        for x1, x2, y1, y2 in self.rects:
            if not (x2 > x1 and y2 > y1):
                raise ValueError(
                    f"electrode {self.id!r} has a degenerate rectangle "
                    f"({x1}, {x2}, {y1}, {y2})"
                )


def _check_voltage(name, volts: float) -> None:
    """Refuse a voltage that is not finite, naming the electrode it drives:
    the kernels would turn it into NaN or infinite potentials and fields
    instead of failing."""
    if not math.isfinite(volts):
        raise ValueError(f"voltage of electrode {name!r} is not finite: {volts!r}")


def _rects_overlap(a: Rect, b: Rect) -> bool:
    """True when the interiors intersect (shared edges are fine)."""
    ax1, ax2, ay1, ay2 = a
    bx1, bx2, by1, by2 = b
    return ax1 < bx2 and bx1 < ax2 and ay1 < by2 and by1 < ay2


@dataclass(frozen=True)
class TrapGeometry:
    """An ordered set of electrodes sharing the z = 0 plane.

    Construction checks that ids are unique and that rectangles of distinct
    electrodes do not overlap (touching edges are allowed; overlaps within a
    single electrode are also allowed since they carry the same voltage...
    they would double-count the solid angle, so they are rejected too).
    """

    electrodes: tuple[Electrode, ...]
    ion_axis: tuple[float, float] | None = None  # (y, z) of the nominal axis
    name: str = ""
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        ids = [e.id for e in self.electrodes]
        if len(set(ids)) != len(ids):
            repeated = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"electrode ids must be unique: {repeated!r} is repeated")
        flat = [(e.id, r) for e in self.electrodes for r in e.rects]
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                if _rects_overlap(flat[i][1], flat[j][1]):
                    raise ValueError(
                        f"rectangles of {flat[i][0]!r} and {flat[j][0]!r} overlap"
                    )
        object.__setattr__(self, "_index", {e.id: e for e in self.electrodes})

    def electrode(self, electrode_id: str) -> Electrode:
        try:
            return self._index[electrode_id]
        except KeyError:
            raise UnknownName(f"no electrode {electrode_id!r}") from None

    def ids(self, role: str | None = None) -> list[str]:
        return [e.id for e in self.electrodes if role is None or e.role == role]

    def rect_arrays(self, voltages: dict) -> tuple[np.ndarray, np.ndarray]:
        """Flatten to (rects (M,4), volts (M,)) for the kernels.

        ``voltages`` maps electrode id to volts; electrodes not mentioned are
        grounded and skipped (their solid angle contributes nothing), so
        ``M`` is 0 when no electrode is driven. A
        voltage that is not finite raises ``ValueError`` naming the electrode.
        """
        rects, volts = [], []
        for e in self.electrodes:
            v = voltages.get(e.id, 0.0)
            if v == 0.0:
                continue
            _check_voltage(e.id, v)
            for r in e.rects:
                rects.append(r)
                volts.append(v)
        return np.asarray(rects, dtype=float).reshape(-1, 4), np.asarray(volts, dtype=float)


def load_geometry(path) -> TrapGeometry:
    """Read a geometry JSON file (rect coordinates in um)."""
    return geometry_from_dict(read_json(path))


def geometry_from_dict(data: dict) -> TrapGeometry:
    """A geometry from its JSON form; lengths in ``length_unit`` (default um)."""
    data = as_object(data, "a geometry", {"length_unit", "electrodes", "ion_axis", "name"})
    unit = as_text(data.get("length_unit", "um"), "geometry 'length_unit'")
    scale = {"um": 1e-6, "mm": 1e-3, "m": 1.0}.get(unit)
    if scale is None:
        raise ValueError(f"unsupported length_unit {unit!r}")
    electrodes = tuple(
        Electrode(
            id=as_text(e["id"], f"{at} 'id'"),
            role=as_text(e["role"], f"{at} 'role'"),
            rects=tuple(
                tuple(as_number(c, f"{at} 'rects'") * scale for c in as_list(r, f"{at} rectangle", 4))
                for r in as_list(e["rects"], f"{at} 'rects'")
            ),
        )
        for at, e in as_objects(data["electrodes"], "geometry 'electrodes'", "electrode", {"id", "role", "rects"})
    )
    axis = data.get("ion_axis")
    if axis is not None:
        axis = as_object(axis, "geometry 'ion_axis'", {"y", "z"})
        axis = tuple(as_number(axis[c], f"geometry 'ion_axis' {c}") * scale for c in ("y", "z"))
    name = as_text(data.get("name", ""), "geometry 'name'", optional=True)
    return TrapGeometry(electrodes=electrodes, ion_axis=axis, name=name)


def paper_trap_geometry() -> TrapGeometry:
    """Linear-trap layout with three RF rails and DC rows in the rail gaps.

    Rails run along x: a 64 um center rail and two 245 um outer rails,
    separated by 111 um gaps, all 4 mm long. Each gap holds a row of 35
    square 95 um DC electrodes at a 103 um pitch, which leaves 8 um
    clearance on both sides of the 111 um gap. Three compensation
    electrodes run alongside each outer rail.

    The two trapping axes sit above the gaps; ``ion_axis`` records the RF
    null on the positive-y side (y = 42.3 um, z = 124.4 um, found with
    :func:`trapqa.electrostatics.find_rf_minima`).
    """
    rail_half_length = 2.0e-3
    n_dc_per_row = 35
    dc_pad = 95e-6
    dc_gap = 8e-6
    rails_y = [(-32e-6, 32e-6), (143e-6, 388e-6), (-388e-6, -143e-6)]
    electrodes = [
        Electrode(
            id=f"RF{i}",
            role="rf",
            rects=((-rail_half_length, rail_half_length, y1, y2),),
        )
        for i, (y1, y2) in enumerate(rails_y)
    ]

    pitch = dc_pad + dc_gap
    row_span = n_dc_per_row * pitch - dc_gap
    x_start = -row_span / 2.0
    # rows sit centered in the two 111 um gaps: y in (32, 143) and (-143, -32)
    rows_y = [(32e-6 + dc_gap, 143e-6 - dc_gap), (-143e-6 + dc_gap, -32e-6 - dc_gap)]
    k = 0
    for y1, y2 in rows_y:
        for i in range(n_dc_per_row):
            k += 1
            x1 = x_start + i * pitch
            electrodes.append(
                Electrode(id=f"DC{k:02d}", role="dc", rects=((x1, x1 + dc_pad, y1, y2),))
            )

    # three compensation pads along the outer edge of each outer rail
    comp_len = 2.0 * rail_half_length / 3.0
    comp_gap = 8e-6
    for side, (cy1, cy2) in enumerate(
        [(388e-6 + comp_gap, 788e-6), (-788e-6, -388e-6 - comp_gap)]
    ):
        for i in range(3):
            x1 = -rail_half_length + i * comp_len
            x2 = x1 + comp_len - comp_gap
            electrodes.append(
                Electrode(id=f"CP{side * 3 + i + 1}", role="comp", rects=((x1, x2, cy1, cy2),))
            )

    return TrapGeometry(
        electrodes=tuple(electrodes),
        ion_axis=(42.3e-6, 124.4e-6),
        name="linear_surface_trap",
    )
