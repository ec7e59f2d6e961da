import math

import numpy as np
import pytest

from trapqa.core import ATOMIC_MASS, CA40, ELEMENTARY_CHARGE, DriveParams, IonSpecies
from trapqa.diagnosis import FaultScenario, equilibrium_position, simulate_positions
from trapqa.dissipation import CircuitModel, distributed_ohmic_power, dissipation_report
from trapqa.electrostatics import micromotion_index, paper_trap_geometry
from trapqa.heating import heating_rate_fit, nbar_from_sidebands, power_law_fit
from trapqa.thermometry import (
    SENSOR_PRESETS,
    RTModel,
    bg_integral,
    d_resistance_d_t,
    fit_rt_curve,
    invert_temperature,
    model_resistance,
)
from trapqa.wafertest import Fault, Net, default_netlist, run_chip
from trapqa.yieldmap import WaferLayout, infer_defects, yield_from_defects


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


_TS1 = SENSOR_PRESETS["TS1"]
_TS = [10.0, 20.0, 30.0, 40.0]


def _at(k, x, values):
    """``values`` with entry k replaced by x."""
    return [x if i == k else v for i, v in enumerate(values)]


def _positive(what):
    return lambda x: f"{what} must be finite and above zero, got {float(x)!r}"


def _nonnegative(what):
    return lambda x: f"{what} must be finite and not below zero, got {float(x)!r}"


def _fixed(message):
    return lambda x: message


# (id, the call with the number x in the parameter's place, the refusal of x).
# Every record and public function that bounds a number is here, with each
# such number; the wafer-test faults run through run_chip, where a NaN
# resistance or factor used to fail the chip with a confident code.
_PARAMETERS = [
    ("IonSpecies.mass_amu", lambda x: IonSpecies("X", x), _positive("mass_amu")),
    ("IonSpecies.charge_e", lambda x: IonSpecies("X", 40.0, x), _fixed("charge_e must be a positive integer")),
    ("DriveParams.v0", lambda x: DriveParams(x, 1e8), _nonnegative("v0")),
    ("DriveParams.omega", lambda x: DriveParams(100.0, x), _positive("omega")),
    ("DriveParams.from_mhz.v0", lambda x: DriveParams.from_mhz(x, 17.0), _nonnegative("v0")),
    ("DriveParams.from_mhz.f_mhz", lambda x: DriveParams.from_mhz(100.0, x),
     lambda x: _positive("omega")(2.0 * math.pi * x * 1e6)),
    ("CircuitModel.resistance", lambda x: CircuitModel(x, 1e-12, 1e-4), _nonnegative("resistance")),
    ("CircuitModel.capacitance", lambda x: CircuitModel(1.0, x, 1e-4), _positive("capacitance")),
    ("CircuitModel.tan_delta", lambda x: CircuitModel(1.0, 1e-12, x), _nonnegative("tan_delta")),
    ("distributed_ohmic_power.resistance", lambda x: distributed_ohmic_power(x, 0.1), _nonnegative("resistance")),
    ("dissipation_report.v0", lambda x: dissipation_report(v0=x), _positive("drive amplitude v0")),
    ("dissipation_report.omega", lambda x: dissipation_report(omega=x), _positive("drive angular frequency omega")),
    ("nbar_from_sidebands.p_red", lambda x: nbar_from_sidebands(x, 0.5, 100), _nonnegative("p_red")),
    ("nbar_from_sidebands.p_blue", lambda x: nbar_from_sidebands(0.1, x, 100), _positive("p_blue")),
    ("nbar_from_sidebands.shots_red", lambda x: nbar_from_sidebands(0.1, 0.5, x),
     _fixed("shot counts shots_red and shots_blue must be positive")),
    ("nbar_from_sidebands.shots_blue", lambda x: nbar_from_sidebands(0.1, 0.5, 100, x),
     _fixed("shot counts shots_red and shots_blue must be positive")),
    ("heating_rate_fit.sigmas", lambda x: heating_rate_fit([0.0, 1.0, 2.0, 3.0], [0.1, 1.2, 2.1, 3.3],
                                                          [0.5, 0.5, x, 0.5]), _positive("sigma at time 2.0")),
    ("power_law_fit.frequencies", lambda x: power_law_fit([1.0, x, 3.0], [100.0, 30.0, 12.0], [5.0, 2.0, 1.0]),
     _positive("frequency")),
    ("power_law_fit.rates", lambda x: power_law_fit([1.0, 2.0, 3.0], [100.0, x, 12.0], [5.0, 2.0, 1.0]),
     _positive("rate at frequency 2.0")),
    ("power_law_fit.sigmas", lambda x: power_law_fit([1.0, 2.0, 3.0], [100.0, 30.0, 12.0], [5.0, x, 1.0]),
     _positive("sigma at frequency 2.0")),
    ("RTModel.r_res", lambda x: RTModel(x, 1000.0, 200.0), _nonnegative("r_res")),
    ("RTModel.amplitude", lambda x: RTModel(10.0, x, 200.0), _positive("amplitude")),
    ("RTModel.theta", lambda x: RTModel(10.0, 1000.0, x), _positive("theta")),
    ("bg_integral.upper", bg_integral, _nonnegative("upper limit")),
    ("model_resistance.temperature", lambda x: model_resistance(_TS1, x), _positive("temperature")),
    ("model_resistance.temperatures", lambda x: model_resistance(_TS1, [4.0, x]), _positive("temperature")),
    ("d_resistance_d_t.temperature", lambda x: d_resistance_d_t(_TS1, x), _positive("temperature")),
    ("fit_rt_curve.temperatures", lambda x: fit_rt_curve(_at(1, x, _TS), [100.0, 101.0, 105.0, 110.0]),
     _positive("temperature")),
    ("fit_rt_curve.resistances", lambda x: fit_rt_curve(_TS, [100.0, x, 105.0, 110.0]),
     _positive("resistance at 20.0 K")),
    ("fit_rt_curve.sigma", lambda x: fit_rt_curve(_TS, [100.0, 101.0, 105.0, 110.0], sigma=[1.0, x, 1.0, 1.0]),
     _positive("sigma at 20.0 K")),
    ("invert_temperature.resistance", lambda x: invert_temperature(_TS1, x), _positive("resistance")),
    ("invert_temperature.meter_resolution", lambda x: invert_temperature(_TS1, 30000.0, meter_resolution=x),
     _positive("meter_resolution")),
    ("Net.loop_resistance", lambda x: Net("DC01", "dc", ("A", "B"), x),
     _positive("net 'DC01': loop_resistance")),
    ("Net.element_resistance", lambda x: Net("TS1", "ts", ("A", "B", "C", "D"), 15.0, x),
     _positive("sensor net 'TS1': element_resistance")),
    ("Fault.short.resistance", lambda x: run_chip(default_netlist(), [Fault.short("DC01", "DC02", x)]),
     _positive("SHORT resistance")),
    ("Fault.leak_to_gnd.resistance", lambda x: run_chip(default_netlist(), [Fault.leak_to_gnd("DC01", x)]),
     _positive("LEAK_TO_GND resistance")),
    ("Fault.resistance_shift.factor", lambda x: run_chip(default_netlist(), [Fault.resistance_shift("DC01", x)]),
     _positive("RESISTANCE_SHIFT factor")),
    ("Fault.hw_fail.step_index", lambda x: run_chip(default_netlist(), [Fault.hw_fail(x)]),
     _fixed("HW_FAIL needs a step_index >= 0")),
    ("WaferLayout.wafer_diameter", lambda x: WaferLayout(wafer_diameter=x), _positive("wafer_diameter")),
    ("WaferLayout.chip_pitch", lambda x: WaferLayout(chip_pitch=x), _positive("chip_pitch")),
    ("WaferLayout.edge_exclusion", lambda x: WaferLayout(edge_exclusion=x), _nonnegative("edge_exclusion")),
    ("infer_defects.yield_fraction", lambda x: infer_defects(x, 100), _positive("yield_fraction")),
    ("infer_defects.n_chips", lambda x: infer_defects(0.5, x), _fixed("n_chips and n_steps must be positive")),
    ("infer_defects.n_steps", lambda x: infer_defects(0.5, 100, x), _fixed("n_chips and n_steps must be positive")),
    ("yield_from_defects.total_defects", lambda x: yield_from_defects(x, 100), _nonnegative("total_defects")),
    ("yield_from_defects.n_chips", lambda x: yield_from_defects(1.0, x), _fixed("n_chips must be positive")),
    ("micromotion_index.omega_radial", lambda x: micromotion_index(1.0, x, CA40, DriveParams(100.0, 1e8), 1e7),
     _positive("omega_radial")),
    ("equilibrium_position.tol", lambda x: equilibrium_position(lambda z: z * z, (-1.0, 1.0), tol=x),
     _positive("tol")),
    ("simulate_positions.scales", lambda x: simulate_positions(paper_trap_geometry(), {},
                                                               FaultScenario(kind="NOMINAL"), [x], (-1e-4, 1e-4)),
     _positive("DC scale factor")),
]

# values inside the type but outside the domain; the first six were this
# module's own table
_OUT_OF_DOMAIN = [
    ("mass_zero", "IonSpecies.mass_amu", 0.0),
    ("mass_negative", "IonSpecies.mass_amu", -40.0),
    ("charge_zero", "IonSpecies.charge_e", 0),
    ("v0_negative", "DriveParams.v0", -1.0),
    ("omega_zero", "DriveParams.omega", 0.0),
    ("f_mhz_negative", "DriveParams.from_mhz.f_mhz", -17.0),
    ("no_chips_for_the_yield", "yield_from_defects.n_chips", 0),  # was a ZeroDivisionError
]

_CASES = {name: (call, refusal) for name, call, refusal in _PARAMETERS}


@pytest.mark.parametrize(
    "name, x",
    [pytest.param(name, x, id=f"{name}={x}") for name, _, _ in _PARAMETERS for x in (math.nan, math.inf, -math.inf)]
    + [pytest.param(name, x, id=case) for case, name, x in _OUT_OF_DOMAIN],
)
def test_core_types_refuse_unphysical_values(name, x):
    """The one table of domain refusals: each number of each record and
    public function that bounds it, given NaN, +inf, -inf or a value below
    its bound, is refused with a ValueError naming the parameter."""
    call, refusal = _CASES[name]
    with pytest.raises(ValueError) as exc:
        call(x)
    assert str(exc.value) == refusal(x)
