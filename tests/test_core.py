import json

import numpy as np
import pytest

from trapqa.core import (
    ATOMIC_MASS,
    CA40,
    ELEMENTARY_CHARGE,
    MATERIALS,
    RF_TRACES,
    DriveParams,
    Material,
    TraceGeometry,
    load_material,
    material_from_dict,
    resistivity_at,
    trace_resistance,
)


def test_resistivity_exact_at_knots():
    mat = MATERIALS["al_alloy"]
    for t, rho in mat.resistivity:
        assert resistivity_at(mat, t) == pytest.approx(rho, rel=1e-12)


def test_resistivity_loglog_midpoint():
    mat = Material(name="x", resistivity=((10.0, 1e-9), (1000.0, 1e-7)))
    # log-log interpolation: geometric midpoint in T gives geometric midpoint in rho
    assert resistivity_at(mat, 100.0) == pytest.approx(1e-8, rel=1e-12)


def test_resistivity_clamps_outside_range():
    mat = MATERIALS["al_pure"]
    lo_t, lo_rho = mat.resistivity[0]
    hi_t, hi_rho = mat.resistivity[-1]
    assert resistivity_at(mat, lo_t / 2) == pytest.approx(lo_rho)
    assert resistivity_at(mat, hi_t * 2) == pytest.approx(hi_rho)


def test_trace_resistance_hand_value():
    trace = TraceGeometry(length=0.01, width=100e-6, thickness=1e-6)
    # R = rho L / (w t) = 2e-8 * 0.01 / 1e-10 = 2.0
    assert trace_resistance(trace, 2e-8) == pytest.approx(2.0, rel=1e-12)


def test_rf_trace_room_temperature_resistances():
    # the two bundled builds come out at 3.0 and 1.1 ohm at room temperature
    alloy = trace_resistance(RF_TRACES["al_alloy"], resistivity_at(MATERIALS["al_alloy"], 300.0))
    pure = trace_resistance(RF_TRACES["al_pure"], resistivity_at(MATERIALS["al_pure"], 300.0))
    assert alloy == pytest.approx(3.0, rel=0.02)
    assert pure == pytest.approx(1.1, rel=0.02)


def test_material_knots_must_ascend():
    with pytest.raises(ValueError):
        Material(name="bad", resistivity=((300.0, 1e-8), (10.0, 1e-9)))


def test_material_roundtrip(tmp_path):
    mat = MATERIALS["al_alloy"]
    blob = {
        "name": mat.name,
        "resistivity": [list(k) for k in mat.resistivity],
        "tan_delta": mat.tan_delta,
    }
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(blob))
    loaded = load_material(path)
    assert loaded == mat


def test_material_from_dict_needs_name():
    with pytest.raises(KeyError):
        material_from_dict({"tan_delta": 0.1})


def test_ion_species_mass():
    # 40Ca+ in kg
    assert CA40.mass == pytest.approx(39.962591 * 1.66053906660e-27, rel=1e-9)
    assert CA40.charge == pytest.approx(1.602176634e-19, rel=1e-12)


def test_constants_equal_scipy_exactly():
    from scipy import constants

    assert ATOMIC_MASS == constants.atomic_mass
    assert ELEMENTARY_CHARGE == constants.e
    assert CA40.mass == 39.962591 * constants.atomic_mass
    assert CA40.charge == constants.e


def test_drive_params_from_mhz():
    d = DriveParams.from_mhz(120.0, 17.0)
    assert d.omega == pytest.approx(2 * np.pi * 17e6, rel=1e-12)
    assert d.v0 == 120.0
