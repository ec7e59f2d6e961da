"""Chip test-plan simulation: plan shape, verdicts, abort semantics.

The fault sweep in here is representative; the exhaustive soundness sweep
(every net x every fault kind, all short pairs) runs in the acceptance
suite where its runtime budget lives.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from trapqa.wafertest import (
    FAILURE_CODES,
    ChipNetlist,
    ChipResult,
    Fault,
    Net,
    StepRecord,
    build_plan,
    default_netlist,
    faults_from_dict,
    load_netlist,
    netlist_from_dict,
    run_chip,
    simulate_step,
)


# The test limits as the module docstring documents them, copied here so that
# a wrong value in the plan cannot also be the value a test compares with.
_LIMITS = SimpleNamespace(
    continuity_force=1.0e-3,  # A
    continuity_v=(0.0, 0.1),  # V
    continuity_i=(0.8e-3, 1.3e-3),  # A
    leakage_bias_dc=50.0,  # V
    leakage_bias_rf=300.0,  # V
    leakage_i_max=100e-9,  # A
    leakage_v_window=0.1,  # V, either sign
    resistance_force=5.0e-3,  # V
    loop_band=(0.0, 50.0),  # ohm
    ts_band_high=(28.9e3, 35.7e3),  # ohm, the first sensor by ascending id
    ts_band_low=(10.3e3, 11.3e3),  # ohm, the second sensor
    compliance_v=10.0,  # V
    step_time=0.01625,  # s per executed step
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


def test_equal_netlists_share_one_plan(netlist):
    other = default_netlist()
    assert other is not netlist and other == netlist
    assert build_plan(netlist) is build_plan(netlist)
    # the cached plan is the plan a fresh build gives
    assert build_plan(other) == build_plan(netlist)


def test_different_netlist_gets_its_own_plan(netlist):
    smaller = ChipNetlist(nets=netlist.nets[1:], name=netlist.name)
    assert len(build_plan(smaller)) < len(build_plan(netlist))


def test_netlist_hash_is_kept(netlist):
    # equal netlists hash equal: the frozen dataclass hashes its fields
    other = default_netlist()
    assert hash(other) == hash(netlist) == hash((netlist.nets, netlist.name))


def test_netlist_pickled_elsewhere_hashes_here(netlist):
    # string hashes differ between processes, so a pickle must not carry one
    code = (
        "import pickle, sys\n"
        "from trapqa.wafertest import default_netlist\n"
        "sys.stdout.buffer.write(pickle.dumps(default_netlist()))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    copy = pickle.loads(proc.stdout)
    assert copy == netlist and hash(copy) == hash(netlist)
    assert build_plan(copy) == build_plan(netlist)
    assert run_chip(copy) == run_chip(netlist)


def test_netlist_pickled_with_its_cache_gives_equal_results():
    netlist = default_netlist()
    plan, clean = build_plan(netlist), run_chip(netlist)
    copy = pickle.loads(pickle.dumps(netlist))
    assert copy == netlist and hash(copy) == hash(netlist)
    assert build_plan(copy) == plan
    assert run_chip(copy) == clean
    fault = (Fault.open("DC05"),)
    assert run_chip(copy, fault) == run_chip(netlist, fault)


def test_plan_and_clean_run_are_computed_once_per_netlist(monkeypatch):
    import trapqa.wafertest as wt

    built, walked = [], []
    steps = wt.ChipNetlist._plan.func
    walk = wt._walk_plan
    monkeypatch.setattr(wt.ChipNetlist._plan, "func", lambda self: built.append(1) or steps(self))
    monkeypatch.setattr(wt, "_walk_plan", lambda n, faults: walked.append(faults) or walk(n, faults))
    netlist = default_netlist()
    faults = (Fault.open("DC05"),)
    results = [run_chip(netlist, faults if k % 2 else ()) for k in range(200)]
    assert len(built) == 1
    assert walked.count(()) == 1 and walked.count(faults) == 100
    assert all(r is results[0] for r in results[::2])
    assert all(r == results[1] for r in results[1::2])


def _per_step_reference(netlist, faults):
    """The plan walked step by step with simulate_step, up to the first failure."""
    log = []
    for step in build_plan(netlist):
        log.append(simulate_step(netlist, faults, step))
        if log[-1].verdict != "PASS":
            break
    return tuple(log)


def test_run_chip_reads_a_generator_of_faults_once(netlist):
    # the fault check used to exhaust a generator, so the plan saw no fault
    result = run_chip(netlist, (f for f in [Fault.open("DC05")]))
    assert result == run_chip(netlist, (Fault.open("DC05"),))
    assert result.outcome == "CONTINUITY_FAIL"


def _swapped_sensors():
    """The default netlist with its two sensor elements exchanged: each
    reads outside its band, so a clean chip fails at the first of them."""
    element = {"TS1": 10.8e3, "TS2": 32.3e3}
    nets = tuple(
        dataclasses.replace(n, element_resistance=element[n.id]) if n.id in element else n
        for n in default_netlist().nets
    )
    return ChipNetlist(nets=nets, name="swapped_sensors")


@pytest.mark.parametrize("make", [default_netlist, _swapped_sensors], ids=["default", "swapped_sensors"])
def test_clean_chip_equals_per_step_reference(make):
    netlist = make()
    result = run_chip(netlist)
    log = _per_step_reference(netlist, ())
    assert result.log == log
    assert result.outcome == log[-1].verdict
    assert result.steps_executed == len(log)
    assert result.elapsed_s == len(log) * _LIMITS.step_time


def test_clean_chip_result_is_shared(netlist):
    first = run_chip(netlist)
    assert run_chip(netlist) is first
    assert run_chip(netlist, []) is first
    assert run_chip(netlist, (f for f in ())) is first
    assert run_chip(default_netlist(), (f for f in ())) == first
    # an aborting clean run is cached as it aborted
    swapped_netlist = _swapped_sensors()
    swapped = run_chip(swapped_netlist)
    assert swapped.outcome == "RES_FAIL_TS"
    assert run_chip(swapped_netlist) is swapped
    assert run_chip(_swapped_sensors()) == swapped


# ---------------------------------------------------------------------------
# Frozen reference: the step simulation as it was when every step scanned the
# whole fault list. The indexed walk must reproduce it record for record.


def _in(value, band):
    return band[0] <= value <= band[1]


def _ts_band(netlist, net_id):
    bands = (_LIMITS.ts_band_high, _LIMITS.ts_band_low)
    return bands[netlist.ids("ts").index(net_id) % 2]


def _ref_shift_factor(net_id, faults):
    f = 1.0
    for fault in faults:
        if fault.kind == "RESISTANCE_SHIFT" and fault.net == net_id:
            f *= fault.factor
    return f


def _ref_is_open(net_id, faults):
    return any(f.kind == "OPEN" and f.net == net_id for f in faults)


def _ref_leak_paths(net_id, netlist, faults):
    paths = []
    for f in faults:
        if f.kind == "SHORT" and net_id in (f.net, f.other):
            other = f.other if f.net == net_id else f.net
            role = netlist.net(other).role
            if role == "rf":
                code = "LEAK_DC_RF"
            elif role == "gnd":
                code = "LEAK_DC_GND"
            else:
                code = "LEAK_DC_DC"
            paths.append((f.resistance, code))
        elif f.kind == "LEAK_TO_GND" and f.net == net_id:
            paths.append((f.resistance, "LEAK_DC_GND"))
    return paths


def _ref_check_faults(netlist, faults, plan_length):
    for f in faults:
        if f.kind == "HW_FAIL":
            if f.step_index >= plan_length:
                raise ValueError(
                    f"HW_FAIL fault at step {f.step_index} is past the {plan_length}-step plan"
                )
            continue
        for net_id in (f.net, f.other) if f.kind == "SHORT" else (f.net,):
            if net_id not in netlist._index:
                raise ValueError(f"{f.kind} fault names net {net_id!r}, which is not in the netlist")


def _ref_kind_label(step):
    if step.kind in ("LEAKAGE", "LEAKAGE_RF"):
        return f"{step.kind}_{step.pass_index}"
    return step.kind


def _ref_simulate_step(netlist, faults, step):
    limits = _LIMITS
    for f in faults:
        if f.kind == "HW_FAIL" and f.step_index == step.index:
            return StepRecord(
                index=step.index, net=step.net, test_kind=_ref_kind_label(step),
                forced=0.0, measured_v=0.0, measured_i=0.0, verdict="HW_FAIL",
            )

    net = netlist.net(step.net)
    shift = _ref_shift_factor(step.net, faults)

    if step.kind == "CONTINUITY":
        forced = limits.continuity_force
        if _ref_is_open(step.net, faults):
            v, i = limits.compliance_v, 0.0
        else:
            loop = net.loop_resistance * shift
            v_would = forced * loop
            if v_would >= limits.compliance_v:
                v, i = limits.compliance_v, limits.compliance_v / loop
            else:
                v, i = v_would, forced
        ok = _in(v, limits.continuity_v) and _in(i, limits.continuity_i)
        verdict = "PASS" if ok else "CONTINUITY_FAIL"

    elif step.kind == "LEAKAGE":
        forced = limits.leakage_bias_dc
        paths = _ref_leak_paths(step.net, netlist, faults)
        i = sum(forced / r for r, _ in paths)
        v = 0.0
        ok = i <= limits.leakage_i_max and abs(v) <= limits.leakage_v_window
        if ok:
            verdict = "PASS"
        else:
            paths.sort(key=lambda p: (p[0], p[1]))
            verdict = paths[0][1] if paths else "LEAK_DC_DC"

    elif step.kind == "LEAKAGE_RF":
        forced = limits.leakage_bias_rf
        paths = _ref_leak_paths(step.net, netlist, faults)
        i = sum(forced / r for r, _ in paths)
        v = 0.0
        ok = i <= limits.leakage_i_max and abs(v) <= limits.leakage_v_window
        verdict = "PASS" if ok else "LEAK_RF"

    else:  # RESISTANCE
        forced = limits.resistance_force
        r_nominal = net.element_resistance if net.role == "ts" else net.loop_resistance
        if _ref_is_open(step.net, faults):
            i = 0.0
            r_meas = np.inf
        else:
            r_meas = r_nominal * shift
            i = forced / r_meas
        v = forced
        r_meas = v / i if i > 0 else np.inf
        if net.role == "ts":
            band = _ts_band(netlist, step.net)
            code = "RES_FAIL_TS"
        else:
            band = limits.loop_band
            code = "RES_FAIL_RF" if net.role == "rf" else "RES_FAIL_DC"
        verdict = "PASS" if _in(r_meas, band) else code

    return StepRecord(
        index=step.index, net=step.net, test_kind=_ref_kind_label(step),
        forced=forced, measured_v=v, measured_i=i, verdict=verdict,
    )


def _ref_run_chip(netlist, faults):
    """``(outcome, steps_executed, elapsed_s, log)`` of the reference walk."""
    plan = build_plan(netlist)
    _ref_check_faults(netlist, faults, len(plan))
    log = []
    for step in plan:
        log.append(_ref_simulate_step(netlist, faults, step))
        if log[-1].verdict != "PASS":
            break
    return log[-1].verdict if log else "PASS", len(log), len(log) * _LIMITS.step_time, tuple(log)


def _bits(value):
    """A field as compared: a float by ``float.hex``, anything else with its type."""
    return value.hex() if type(value) is float else (type(value).__name__, value)


def _fields(outcome, steps_executed, elapsed_s, log):
    head = (outcome, steps_executed, _bits(elapsed_s))
    return [head] + [
        (r.index, r.net, r.test_kind, _bits(r.forced), _bits(r.measured_v), _bits(r.measured_i), r.verdict)
        for r in log
    ]


def _assert_matches_reference(netlist, faults):
    got, want = run_chip(netlist, faults), _ref_run_chip(netlist, faults)
    assert _fields(got.outcome, got.steps_executed, got.elapsed_s, got.log) == _fields(*want), faults


def _sweep_faults(netlist):
    """The 3877 single faults of acceptance criterion 05."""
    loop_ids = netlist.ids("dc", "comp", "ts", "rf")
    shift_factor = {"dc": 4.0, "comp": 4.0, "rf": 12.0, "ts": 1.5}
    sweep = [Fault.open(n) for n in loop_ids]
    sweep += [Fault.leak_to_gnd(n, 1e6) for n in loop_ids]
    sweep += [Fault.resistance_shift(n, shift_factor[netlist.net(n).role]) for n in loop_ids]
    sweep += [Fault.short(a, b, 1e6) for a, b in itertools.combinations(netlist.ids(), 2)]
    sweep += [Fault.hw_fail(i) for i in range(len(build_plan(netlist)))]
    return sweep


def test_indexed_walk_equals_reference_on_the_fault_sweep(netlist):
    sweep = _sweep_faults(netlist)
    assert len(sweep) == 3877
    for fault in sweep:
        _assert_matches_reference(netlist, (fault,))


# Nets drawn from a few of each role, so that faults often share a net.
_DRAW_NETS = ("DC01", "DC02", "DC40", "CP3", "TS1", "TS2", "RF", "GND")


def _random_fault(rng, plan_length):
    kind = rng.choice(["OPEN", "SHORT", "LEAK_TO_GND", "RESISTANCE_SHIFT", "HW_FAIL"])
    loops = [n for n in _DRAW_NETS if n != "GND"]
    # path resistances on both sides of the 500 kOhm / 3 MOhm leak thresholds
    resistance = float(10.0 ** rng.uniform(5.0, 9.5))
    if kind == "OPEN":
        return Fault.open(str(rng.choice(loops)))
    if kind == "SHORT":
        a, b = rng.choice(_DRAW_NETS, size=2, replace=False)
        return Fault.short(str(a), str(b), resistance)
    if kind == "LEAK_TO_GND":
        return Fault.leak_to_gnd(str(rng.choice(loops)), resistance)
    if kind == "RESISTANCE_SHIFT":
        return Fault.resistance_shift(str(rng.choice(loops)), float(rng.uniform(0.3, 3.0)))
    return Fault.hw_fail(int(rng.integers(plan_length)))


def _seeded_chips(netlist, count=500):
    rng = np.random.Generator(np.random.Philox(key=20261019))
    plan_length = len(build_plan(netlist))
    chips = [
        # two shifts on one net, multiplied in fault order
        (Fault.resistance_shift("DC02", 1.7), Fault.resistance_shift("DC02", 1.9)),
        (Fault.resistance_shift("TS1", 0.9), Fault.resistance_shift("TS1", 1.13)),
        # two leak paths on one net, attributed to the stronger (a tie: by code)
        (Fault.leak_to_gnd("DC01", 2e6), Fault.short("DC01", "RF", 1.5e6)),
        (Fault.short("DC01", "DC40", 9e5), Fault.leak_to_gnd("DC01", 9e5)),
        # a DC-DC short, both ends
        (Fault.short("DC40", "DC02", 1e6),),
        # an open with an instrument failure after it (step 30) and before it (step 1)
        (Fault.open("CP3"), Fault.hw_fail(30)),
        (Fault.hw_fail(1), Fault.open("RF")),
    ]
    while len(chips) < count:
        chips.append(tuple(_random_fault(rng, plan_length) for _ in range(int(rng.integers(1, 5)))))
    return chips


def test_indexed_walk_equals_reference_on_seeded_chips(netlist):
    for chip in _seeded_chips(netlist):
        _assert_matches_reference(netlist, chip)


@pytest.mark.parametrize(
    "faults",
    [
        (Fault.open("DC01"), Fault.short("DC01", "XX", 1e6), Fault.hw_fail(999)),
        (Fault.hw_fail(999), Fault.open("DC99")),
        (Fault.resistance_shift("XX", 2.0), Fault.leak_to_gnd("YY", 1e6)),
    ],
)
def test_refusals_match_reference(netlist, faults):
    with pytest.raises(ValueError) as want:
        _ref_run_chip(netlist, faults)
    with pytest.raises(ValueError) as got:
        run_chip(netlist, faults)
    assert str(got.value) == str(want.value)


def test_walk_calls_simulate_step_once_per_executed_step(monkeypatch, netlist):
    import trapqa.wafertest as wt

    calls = []

    def counted(*args):
        calls.append(args[2].index)
        return simulate_step(*args)

    monkeypatch.setattr(wt, "simulate_step", counted)
    result = run_chip(netlist, (Fault.hw_fail(250), Fault.resistance_shift("DC05", 1.2)))
    assert calls == list(range(result.steps_executed)) == list(range(251))


def test_walk_reads_the_plan_not_the_netlist(monkeypatch):
    # once the plan is built, a step looks up neither a net nor an id list
    netlist = default_netlist()
    sweep = _sweep_faults(netlist)
    want = [run_chip(netlist, (fault,)) for fault in sweep]
    plan = build_plan(netlist)
    steps = [simulate_step(netlist, (fault,), step) for fault, step in zip(sweep, plan[::-1])]

    def refuse(*args):
        raise AssertionError("the walk read the netlist")

    monkeypatch.setattr(ChipNetlist, "net", refuse)
    monkeypatch.setattr(ChipNetlist, "ids", refuse)
    assert [run_chip(netlist, (fault,)) for fault in sweep] == want
    assert [simulate_step(netlist, (fault,), step) for fault, step in zip(sweep, plan[::-1])] == steps


def test_plan_steps_carry_their_limits(netlist, plan):
    lim = _LIMITS
    for step in plan:
        net = netlist.net(step.net)
        assert step.compliance == lim.compliance_v
        if step.kind == "CONTINUITY":
            assert (step.forced, step.windows, step.code) == (
                lim.continuity_force, (lim.continuity_v, lim.continuity_i), "CONTINUITY_FAIL"
            )
        elif step.kind == "RESISTANCE":
            band = _ts_band(netlist, step.net) if net.role == "ts" else lim.loop_band
            code = {"ts": "RES_FAIL_TS", "rf": "RES_FAIL_RF"}.get(net.role, "RES_FAIL_DC")
            assert (step.forced, step.windows, step.code) == (lim.resistance_force, (band,), code)
        else:
            rf = step.kind == "LEAKAGE_RF"
            assert step.forced == (lim.leakage_bias_rf if rf else lim.leakage_bias_dc)
            assert step.code == ("LEAK_RF" if rf else "LEAK_DC_DC")
            v_window, i_window = step.windows
            assert v_window == (-lim.leakage_v_window, lim.leakage_v_window) and i_window[1] == lim.leakage_i_max
        element = step.kind == "RESISTANCE" and net.role == "ts"
        assert step.nominal == (net.element_resistance if element else net.loop_resistance)


def test_simulate_step_indexes_plain_faults(netlist, plan):
    # a plain fault tuple gives the same record as the walk, and is checked
    faults = (Fault.short("DC05", "RF", 1e6), Fault.leak_to_gnd("DC05", 2e6))
    leak = next(s for s in plan if s.kind == "LEAKAGE" and s.net == "DC05")
    rec = simulate_step(netlist, faults, leak)
    assert rec == run_chip(netlist, faults).log[-1]
    assert rec.verdict == "LEAK_DC_RF"
    with pytest.raises(ValueError, match="'XX'"):
        simulate_step(netlist, (Fault.open("XX"),), leak)


def test_plan_steps_carry_their_log_label(plan):
    assert [s.label for s in plan] == [_ref_kind_label(s) for s in plan]
    assert {s.label for s in plan} == {
        "CONTINUITY", "LEAKAGE_1", "LEAKAGE_2", "LEAKAGE_RF_1", "LEAKAGE_RF_2", "RESISTANCE",
    }


def test_chip_result_is_its_log(netlist):
    # the log is the one stored field; the rest is read off it and cannot be set
    assert [f.name for f in dataclasses.fields(ChipResult)] == ["log"]
    result = run_chip(netlist, (Fault.hw_fail(250),))
    assert result == ChipResult(result.log)
    assert (result.outcome, result.steps_executed, result.passed) == ("HW_FAIL", 251, False)
    assert result.elapsed_s.hex() == (251 * _LIMITS.step_time).hex()
    for name in ("outcome", "steps_executed", "elapsed_s", "passed"):
        with pytest.raises(AttributeError):
            setattr(result, name, None)


def test_step_record_is_immutable(netlist):
    rec = run_chip(netlist).log[0]
    with pytest.raises(AttributeError):
        rec.verdict = "LEAK_DC_DC"
    with pytest.raises(AttributeError):
        rec.comment = "retested"
    assert rec.verdict == "PASS"


# Frozen SHA-256 of the CLI's steps.csv and run.json for three chips: a change
# to the step or record types must not move a byte of either artifact.
# The two-fault chip's short is weak enough (50 nA at 50 V) to pass leakage,
# so the walk reaches the shifted sensor in the resistance phase.
_ARTIFACT_PINS = {
    "clean": (
        None,
        "26bd84dddc4a2187eaebc4c5c4fea77de1a1f4b5f65c30b3637365e8177dfaf4",
        "88a337d8165cf2a1c082417435776d9e4f978a318f0403456233e0671294b1ea",
    ),
    "short": (
        [{"kind": "SHORT", "net": "DC05", "other": "RF", "resistance_ohm": 1e6}],
        "f0b569a0fc7e05120d4e71c0e5f0041bc3b62ee33c23d6eb7b4d3548a9ca4472",
        "2b78ba4584e51cd21845fade28836156106c79e12326dba4e81c2e703d5c1a41",
    ),
    "short_and_shift": (
        [
            {"kind": "SHORT", "net": "DC05", "other": "DC06", "resistance_ohm": 1e9},
            {"kind": "RESISTANCE_SHIFT", "net": "TS1", "factor": 1.5},
        ],
        "5c0e4b198c0ae3d45efde16bf69e811695a045e0149e0aba831bdebae21a128a",
        "f2494b1c91a26eae0da22b9d4e71da12569c5050231f50e100dede5efe768c20",
    ),
}


@pytest.mark.parametrize("name", list(_ARTIFACT_PINS))
def test_wafertest_artifacts_keep_their_bytes(tmp_path, name):
    from trapqa.cli import main

    faults, steps_sha, run_sha = _ARTIFACT_PINS[name]
    args = ["wafertest", "--out", str(tmp_path / "steps.csv"), "--summary", str(tmp_path / "run.json")]
    if faults is not None:
        (tmp_path / "faults.json").write_text(json.dumps({"faults": faults}))
        args += ["--faults", str(tmp_path / "faults.json")]
    assert main(args) == (0 if faults is None else 1)
    assert hashlib.sha256((tmp_path / "steps.csv").read_bytes()).hexdigest() == steps_sha
    assert hashlib.sha256((tmp_path / "run.json").read_bytes()).hexdigest() == run_sha
