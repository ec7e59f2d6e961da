"""Chip test-plan simulation: plan shape, verdicts, abort semantics.

The fault sweep in here is representative; the exhaustive soundness sweep
(every net x every fault kind, all short pairs) runs in the acceptance
suite where its runtime budget lives.
"""

import json

import numpy as np
import pytest

from trapqa.wafertest import (
    FAILURE_CODES,
    ChipNetlist,
    Fault,
    Net,
    TestLimits,
    build_plan,
    default_netlist,
    faults_from_dict,
    load_netlist,
    netlist_from_dict,
    run_chip,
    run_wafer,
    simulate_step,
)


@pytest.fixture(scope="module")
def netlist():
    return default_netlist()


@pytest.fixture(scope="module")
def plan(netlist):
    return build_plan(netlist)


def test_plan_is_480_steps(plan):
    assert len(plan) == 480


def test_plan_phase_composition(plan):
    kinds = [s.kind for s in plan]
    assert kinds.count("CONTINUITY") == 79
    assert kinds.count("LEAKAGE") + kinds.count("LEAKAGE_RF") == 322
    assert kinds.count("RESISTANCE") == 79
    # phases are contiguous and ordered
    first_leak = kinds.index("LEAKAGE")
    first_res = kinds.index("RESISTANCE")
    assert all(k == "CONTINUITY" for k in kinds[:first_leak])
    assert all(k in ("LEAKAGE", "LEAKAGE_RF") for k in kinds[first_leak:first_res])
    assert all(k == "RESISTANCE" for k in kinds[first_res:])


def test_plan_indices_are_sequential(plan):
    assert [s.index for s in plan] == list(range(480))


def test_clean_chip_passes(netlist):
    result = run_chip(netlist)
    assert result.passed
    assert result.outcome == "PASS"
    assert result.steps_executed == 480
    assert result.elapsed_s == pytest.approx(7.8, abs=0.1)
    assert all(rec.verdict == "PASS" for rec in result.log)


def test_open_fails_continuity(netlist):
    result = run_chip(netlist, (Fault.open("DC07"),))
    assert result.outcome == "CONTINUITY_FAIL"
    # aborted inside the continuity phase
    assert result.steps_executed <= 79
    failing = result.log[-1]
    assert failing.net == "DC07"
    assert failing.verdict == "CONTINUITY_FAIL"


def test_abort_counts_failing_step(netlist, plan):
    # fail at a known step index and check the log stops right there
    idx = 250
    result = run_chip(netlist, (Fault.hw_fail(idx),))
    assert result.outcome == "HW_FAIL"
    assert result.steps_executed == idx + 1
    assert result.log[-1].index == idx
    assert all(rec.verdict == "PASS" for rec in result.log[:-1])
    assert result.elapsed_s == pytest.approx((idx + 1) * 0.01625, rel=1e-12)


def test_hw_fail_at_last_step(netlist, plan):
    result = run_chip(netlist, (Fault.hw_fail(len(plan) - 1),))
    assert result.outcome == "HW_FAIL"
    assert result.steps_executed == len(plan)


@pytest.mark.parametrize(
    "fault, named",
    [
        (Fault.open("DC99"), "'DC99'"),
        (Fault.short("DC01", "XX", 1e6), "'XX'"),
        (Fault.short("XX", "DC01", 1e6), "'XX'"),
        (Fault.leak_to_gnd("DC99", 1e6), "'DC99'"),
        (Fault.resistance_shift("XX", 4.0), "'XX'"),
        (Fault.hw_fail(480), "step 480"),
        (Fault.hw_fail(999), "step 999"),
    ],
)
def test_run_chip_refuses_faults_the_netlist_cannot_host(netlist, fault, named):
    # each used to give a confident PASS or a bare KeyError mid-plan
    with pytest.raises(ValueError, match=named):
        run_chip(netlist, (Fault.open("DC01"), fault))


def test_short_between_dc_nets(netlist):
    result = run_chip(netlist, (Fault.short("DC05", "DC09", 1e6),))
    assert result.outcome == "LEAK_DC_DC"


def test_short_dc_to_rf(netlist):
    result = run_chip(netlist, (Fault.short("DC05", "RF", 1e6),))
    assert result.outcome == "LEAK_DC_RF"


def test_short_sensor_to_rf_caught_at_rf_stress(netlist):
    # TS nets come after the RF stress in the leakage order, so the first
    # detection is the RF step
    result = run_chip(netlist, (Fault.short("TS1", "RF", 1e6),))
    assert result.outcome == "LEAK_RF"


def test_leak_to_ground(netlist):
    result = run_chip(netlist, (Fault.leak_to_gnd("CP3", 1e6),))
    assert result.outcome == "LEAK_DC_GND"


def test_resistance_shift_keeps_continuity(netlist):
    # x4 on a 20 ohm loop: continuity sees 80 mV (pass), resistance 80 ohm (fail)
    result = run_chip(netlist, (Fault.resistance_shift("DC11", 4.0),))
    assert result.outcome == "RES_FAIL_DC"
    cont = [r for r in result.log if r.test_kind == "CONTINUITY" and r.net == "DC11"]
    assert cont[0].verdict == "PASS"
    assert cont[0].measured_v == pytest.approx(0.08)


def test_sensor_band_check(netlist):
    result = run_chip(netlist, (Fault.resistance_shift("TS1", 1.5),))
    assert result.outcome == "RES_FAIL_TS"
    # and an in-band sensor passes
    assert run_chip(netlist).log[-2].net in ("TS1", "TS2")


def test_sensor_band_swap(netlist):
    # swapping the band binding makes both healthy sensors fail
    limits = TestLimits(swap_sensor_bands=True)
    result = run_chip(netlist, (), limits)
    assert result.outcome == "RES_FAIL_TS"


def test_small_shift_is_not_flagged(netlist):
    # a shift that stays inside every window must not fail anything
    result = run_chip(netlist, (Fault.resistance_shift("DC11", 1.5),))
    assert result.passed


def test_strongest_path_attribution(netlist):
    # two paths from one net: the lower-resistance one names the code
    faults = (
        Fault.short("DC05", "DC09", 1e7),
        Fault.leak_to_gnd("DC05", 1e5),
    )
    result = run_chip(netlist, faults)
    assert result.outcome == "LEAK_DC_GND"


def test_failure_codes_closed_set(netlist):
    assert set(FAILURE_CODES) == {
        "HW_FAIL",
        "CONTINUITY_FAIL",
        "LEAK_DC_DC",
        "LEAK_DC_RF",
        "LEAK_DC_GND",
        "LEAK_RF",
        "RES_FAIL_DC",
        "RES_FAIL_RF",
        "RES_FAIL_TS",
    }


def test_noise_is_reproducible(netlist):
    r1 = run_chip(netlist, (), rng=np.random.Generator(np.random.Philox(key=7)))
    r2 = run_chip(netlist, (), rng=np.random.Generator(np.random.Philox(key=7)))
    assert r1.log == r2.log
    r3 = run_chip(netlist, (), rng=np.random.Generator(np.random.Philox(key=8)))
    assert r3.log != r1.log


def test_noise_does_not_flip_verdicts(netlist):
    # uV/0.1 nA meter noise is far inside every window
    result = run_chip(netlist, (), rng=np.random.Generator(np.random.Philox(key=11)))
    assert result.passed


def test_run_wafer_orders_chips(netlist):
    results = run_wafer({"C002": (), "C001": (Fault.open("DC01"),)}, netlist)
    assert list(results) == ["C001", "C002"]
    assert not results["C001"].passed
    assert results["C002"].passed


def test_netlist_roundtrip(tmp_path, netlist):
    blob = {
        "name": "toy",
        "nets": [
            {"id": "DC01", "role": "dc", "pads": ["P1", "P2"], "loop_resistance_ohm": 20.0},
            {"id": "RF", "role": "rf", "pads": ["R1", "R2"], "loop_resistance_ohm": 5.0},
            {
                "id": "TS1",
                "role": "ts",
                "pads": ["T1", "T2", "T3", "T4"],
                "loop_resistance_ohm": 15.0,
                "element_resistance_ohm": 32.3e3,
            },
            {"id": "GND", "role": "gnd", "pads": ["G1"]},
        ],
    }
    path = tmp_path / "netlist.json"
    path.write_text(json.dumps(blob))
    loaded = load_netlist(path)
    assert loaded.ids() == ["DC01", "GND", "RF", "TS1"]
    assert loaded.net("TS1").element_resistance == pytest.approx(32.3e3)


def test_faults_loader():
    faults = faults_from_dict(
        {
            "faults": [
                {"kind": "OPEN", "net": "DC01"},
                {"kind": "SHORT", "net": "DC01", "other": "RF", "resistance_ohm": 1e6},
                {"kind": "HW_FAIL", "step_index": 3},
            ]
        }
    )
    assert [f.kind for f in faults] == ["OPEN", "SHORT", "HW_FAIL"]
    assert faults[1].resistance == 1e6


def test_net_validation():
    with pytest.raises(ValueError):
        Net(id="X", role="dc", pads=("P1",), loop_resistance=20.0)  # one pad
    with pytest.raises(ValueError):
        Net(id="T", role="ts", pads=("A", "B"), loop_resistance=15.0, element_resistance=1e4)


def test_netlist_rejects_duplicate_pads():
    with pytest.raises(ValueError):
        ChipNetlist(
            nets=(
                Net(id="A", role="dc", pads=("P1", "P2"), loop_resistance=20.0),
                Net(id="B", role="dc", pads=("P2", "P3"), loop_resistance=20.0),
            )
        )


def test_simulate_step_is_pure(netlist, plan):
    step = plan[100]
    a = simulate_step(netlist, (), step)
    b = simulate_step(netlist, (), step)
    assert a == b
